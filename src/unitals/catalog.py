"""Machine-readable catalog of difference families, with reproduction tools.

Entries live as JSON files under ``data/catalog/<list>/<id>.json``.  The
"required" lists are the fully transcribed ones whose per-group entry counts
are pinned; the large SmallGroup(126, 2/8/10/12) lists ship in the same
format as optional extras.
"""

from __future__ import annotations

import fnmatch
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .designs import BLOCK_SIZE, DifferenceFamily, Mode, develop, verify_steiner
from .errors import GroupUnavailable, SchemaError, SumInvariantError
from .fingerprint import TOTAL_QUADRUPLES, Fingerprint, fingerprint
from .groups import (
    CayleyGroup,
    External,
    GroupSpec,
    Product,
    Semidirect,
    build_group,
    label_from_json,
    label_to_json,
    spec_from_json,
    spec_to_json,
)

#: fully transcribed lists: list key -> expected number of entries
REQUIRED_LIST_SIZES = {
    "ex1": 8,       # Z_125
    "ex2": 32,      # Z_5 x Z_25
    "ex3": 20,      # (Z_5 x Z_5) : Z_5
    "ex4": 29,      # Z_25 : Z_5
    "ex5": 8,       # Z_5 x Z_5 x Z_5
    "sg126-1": 3,   # C7 : C18
    "sg126-3": 1,   # C7 x D18
    "sg126-7": 2,   # C3 x (C7 : C6)
}

#: the two pairs of transitive designs that share a fingerprint
FINGERPRINT_SHARING_PAIRS = (
    ("sg126-8-25", "sg126-10-191"),
    ("sg126-8-38", "sg126-10-273"),
)

_ENTRY_KEYS = {"id", "group", "mode", "base_blocks", "expected_fingerprint", "source"}


@dataclass
class CatalogEntry:
    id: str
    group_spec: GroupSpec
    mode: Mode
    base_blocks: list  # label lists
    expected_fingerprint: dict  # count -> frequency
    source: str
    path: Path | None = None

    def family(self) -> DifferenceFamily:
        return DifferenceFamily(self.mode, self.base_blocks)

    def expected(self) -> Fingerprint:
        return Fingerprint.from_dict(self.expected_fingerprint)

    def group(self) -> CayleyGroup:
        return build_spec_group(self.group_spec, self.path)


def data_dir() -> Path:
    return Path(__file__).resolve().parent / "data"


def catalog_dir() -> Path:
    return data_dir() / "catalog"


def load_entry(path: str | Path) -> CatalogEntry:
    path = Path(path)
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # also undecodable bytes, deep nesting
        raise SchemaError(f"{path}: invalid JSON: {exc}") from None
    return entry_from_json(obj, path)


def entry_from_json(obj: dict, path: Path | None = None) -> CatalogEntry:
    if not isinstance(obj, dict):
        raise SchemaError("entry must be a JSON object")
    unknown = set(obj) - _ENTRY_KEYS
    if unknown:
        raise SchemaError(f"unknown entry keys: {sorted(unknown)}")
    missing = _ENTRY_KEYS - set(obj)
    if missing:
        raise SchemaError(f"missing entry keys: {sorted(missing)}")
    if not isinstance(obj["id"], str) or not isinstance(obj["source"], str):
        raise SchemaError("id and source must be strings")
    try:
        spec = spec_from_json(obj["group"])
    except Exception as exc:
        raise SchemaError(f"bad group spec: {exc}") from None
    if obj["mode"] not in (Mode.TRANSITIVE.value, Mode.ONE_ROTATIONAL.value):
        raise SchemaError(f"bad mode {obj['mode']!r}")
    if not isinstance(obj["base_blocks"], list) or not obj["base_blocks"] or not all(
            isinstance(b, list) for b in obj["base_blocks"]):
        raise SchemaError("base_blocks must be a nonempty list of lists")
    blocks = [[label_from_json(lab) for lab in b] for b in obj["base_blocks"]]
    fp = obj["expected_fingerprint"]
    if not isinstance(fp, dict):
        raise SchemaError("expected_fingerprint must be an object")
    if any(isinstance(v, bool) or not isinstance(v, int) for v in fp.values()):
        raise SchemaError("expected_fingerprint values must be integers")
    # a count is a number of points u on line oy other than o and y; a key is
    # its exact decimal text, so "04", " 4" or "+4" cannot name a count twice
    counts = {str(c): c for c in range(BLOCK_SIZE - 1)}
    for k, v in fp.items():
        if k not in counts or v < 0:
            raise SchemaError(f"expected_fingerprint item {k!r}: {v} needs a count key "
                              f"0..{BLOCK_SIZE - 2} in canonical form and a nonnegative value")
    fpd = {counts[k]: v for k, v in fp.items()}
    if sum(fpd.values()) != TOTAL_QUADRUPLES:
        raise SumInvariantError(
            f"expected fingerprint sums to {sum(fpd.values())}, not {TOTAL_QUADRUPLES}")
    entry = CatalogEntry(
        id=obj["id"],
        group_spec=spec,
        mode=Mode(obj["mode"]),
        base_blocks=blocks,
        expected_fingerprint=fpd,
        source=obj["source"],
        path=path,
    )
    entry.family()  # validates the blocks
    return entry


def entry_to_json(entry: CatalogEntry) -> dict:
    return {
        "id": entry.id,
        "group": spec_to_json(entry.group_spec),
        "mode": entry.mode.value,
        "base_blocks": [[label_to_json(lab) for lab in b] for b in entry.base_blocks],
        "expected_fingerprint": {str(k): v for k, v in sorted(entry.expected_fingerprint.items())},
        "source": entry.source,
    }


def save_entry(entry: CatalogEntry, path: str | Path) -> None:
    obj = entry_to_json(entry)
    lines = ["{"]
    lines.append(f' "id": {json.dumps(obj["id"])},')
    lines.append(f' "group": {json.dumps(obj["group"])},')
    lines.append(f' "mode": {json.dumps(obj["mode"])},')
    lines.append(' "base_blocks": [')
    bb = obj["base_blocks"]
    for i, b in enumerate(bb):
        comma = "," if i < len(bb) - 1 else ""
        lines.append(f"  {json.dumps(b)}{comma}")
    lines.append(" ],")
    lines.append(f' "expected_fingerprint": {json.dumps(obj["expected_fingerprint"])},')
    lines.append(f' "source": {json.dumps(obj["source"])}')
    lines.append("}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _entry_sort_key(entry_id: str):
    head, _, num = entry_id.rpartition("-")
    return (head, int(num))


def iter_entry_paths(filter_glob: str | None = None, required: bool = False) -> list:
    """Paths of the entries whose id matches filter_glob, in id order; when
    required, only those of the required lists and the fingerprint-sharing
    pairs."""
    paths = [p for p in catalog_dir().rglob("*.json")
             if (filter_glob is None or fnmatch.fnmatch(p.stem, filter_glob))
             and (not required or _is_required(p.stem))]
    return sorted(paths, key=lambda p: _entry_sort_key(p.stem))


def _is_required(entry_id: str) -> bool:
    key, number = _entry_sort_key(entry_id)
    return (number <= REQUIRED_LIST_SIZES.get(key, 0)
            or any(entry_id in pair for pair in FINGERPRINT_SHARING_PAIRS))


_group_cache: dict = {}


def build_spec_group(spec: GroupSpec, spec_path: Path | None) -> CayleyGroup:
    """The group of a spec read from the file spec_path (an entry or a bare
    spec), built once per spec and directory.  Every external table in the
    spec, at any depth, is found by ``_resolve_table_path``; the key is the
    spec as written and spec_path's directory, so a hit reads no file."""
    key = (spec, spec_path.parent if spec_path else None)
    cached = _group_cache.get(key)
    if cached is None:
        cached = _group_cache[key] = build_group(_with_tables_found(spec, spec_path))
    return cached


def _with_tables_found(spec: GroupSpec, spec_path: Path | None) -> GroupSpec:
    """The spec with the path of each external table in it replaced by the
    file ``_resolve_table_path`` finds."""
    if isinstance(spec, External):
        return External(str(_resolve_table_path(spec.path, spec_path)))
    if isinstance(spec, Product):
        return Product(_with_tables_found(spec.left, spec_path),
                       _with_tables_found(spec.right, spec_path))
    if isinstance(spec, Semidirect):
        return Semidirect(_with_tables_found(spec.normal, spec_path),
                          _with_tables_found(spec.actor, spec_path), spec.action)
    return spec


def _resolve_table_path(raw: str, spec_path: Path | None) -> Path:
    """The first existing file among raw in spec_path's directory, in the
    package data directory and in the working directory, or GroupUnavailable
    naming each candidate once."""
    p = Path(raw)
    roots = ([spec_path.parent] if spec_path is not None else []) + [data_dir(), Path()]
    candidates = list(dict.fromkeys(root / p for root in roots))  # p alone, if absolute
    for c in candidates:
        if c.exists():
            return c
    raise GroupUnavailable(
        f"no Cayley table at {raw!r} (searched {[str(c) for c in candidates]})")


#: the stages of a reproduction, in the order it runs them
STAGES = ("group", "develop", "verify", "fingerprint")


@dataclass
class ReproductionRecord:
    entry_id: str
    steiner_ok: bool
    fingerprint_match: bool
    computed_fingerprint: Fingerprint | None
    elapsed_s: float
    stages_s: dict  # STAGES -> seconds; nothing is fingerprinted when verify fails

    @property
    def ok(self) -> bool:
        return self.steiner_ok and self.fingerprint_match


def reproduce(entry: CatalogEntry) -> ReproductionRecord:
    """develop -> verify -> fingerprint -> compare against the transcription."""
    marks = [time.perf_counter()]
    group = entry.group()
    marks.append(time.perf_counter())
    design = develop(group, entry.family())
    marks.append(time.perf_counter())
    steiner_ok = verify_steiner(design).is_steiner
    marks.append(time.perf_counter())
    computed = None
    match = False
    if steiner_ok:
        computed = fingerprint(design)
        match = computed == entry.expected()
    marks.append(time.perf_counter())
    stages = {name: end - start for name, start, end in zip(STAGES, marks, marks[1:])}
    return ReproductionRecord(entry.id, steiner_ok, match, computed,
                              time.perf_counter() - marks[0], stages)


def catalog_check(entries: Iterable[CatalogEntry], threads: int = 1) -> list:
    """ReproductionRecords for all entries, sorted by entry id, made one after
    another.  To use several CPUs, run one process per id glob, e.g.
    ``'*[02468]'`` and ``'*[13579]'``.  ``threads`` must be 1; it stays only
    while the benchmark harness passes it (ROADMAP item 4)."""
    if threads != 1:
        raise ValueError(f"catalog_check runs serially; threads must be 1, got {threads}")
    return sorted([reproduce(e) for e in entries],
                  key=lambda r: _entry_sort_key(r.entry_id))
