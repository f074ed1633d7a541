"""Catalog loading, schema, reproduction and group resolution."""

import ast
import json
from pathlib import Path

import pytest

import unitals
from conftest import entry
from unitals.catalog import (
    FINGERPRINT_SHARING_PAIRS,
    REQUIRED_LIST_SIZES,
    STAGES,
    catalog_check,
    entry_from_json,
    entry_to_json,
    iter_entry_paths,
    load_entry,
    reproduce,
    save_entry,
)
from unitals.errors import (
    GroupUnavailable,
    SchemaError,
    SumInvariantError,
)
from unitals.fingerprint import format_fingerprint


def test_required_list_sizes():
    for key, size in REQUIRED_LIST_SIZES.items():
        paths = [p for p in iter_entry_paths(f"{key}-*")]
        assert len(paths) == size, key
    required = [p.stem for p in iter_entry_paths(required=True)]
    sharing = [i for pair in FINGERPRINT_SHARING_PAIRS for i in pair]
    assert len(required) == sum(REQUIRED_LIST_SIZES.values()) + len(sharing) == 107
    assert set(sharing) <= set(required)


def test_pair_entries_share_fingerprints():
    for a, b in FINGERPRINT_SHARING_PAIRS:
        ea, eb = entry(a), entry(b)
        assert ea.expected_fingerprint == eb.expected_fingerprint


def test_save_load_round_trip(tmp_path, catalog_pass):
    # every shipped file is exactly what save_entry writes for it
    out = tmp_path / "entry.json"
    assert len(catalog_pass) == 1239
    for e in (r.entry for r in catalog_pass.values()):
        save_entry(e, out)
        assert out.read_bytes() == e.path.read_bytes(), e.id
        assert entry_to_json(load_entry(out)) == entry_to_json(e)


@pytest.mark.parametrize("obj", [[], "ex1-1", None, 7])
def test_schema_rejects_non_object(obj):
    with pytest.raises(SchemaError, match="entry must be a JSON object"):
        entry_from_json(obj)


def test_schema_rejects_short_block(ex1_1):
    obj = entry_to_json(ex1_1)
    obj["base_blocks"][0] = obj["base_blocks"][0][:5]
    with pytest.raises(SchemaError):
        entry_from_json(obj)


def test_schema_rejects_bad_sum(ex1_1):
    obj = entry_to_json(ex1_1)
    obj["expected_fingerprint"] = {"4": 123}
    with pytest.raises(SumInvariantError):
        entry_from_json(obj)


def test_schema_rejects_unknown_key(ex1_1):
    obj = entry_to_json(ex1_1)
    obj["extra"] = 1
    with pytest.raises(SchemaError):
        entry_from_json(obj)


def test_schema_rejects_missing_key(ex1_1):
    obj = entry_to_json(ex1_1)
    del obj["source"]
    with pytest.raises(SchemaError, match="source"):
        entry_from_json(obj)


@pytest.mark.parametrize("field, value", [
    ("group", {"cyclic": 125.9}),
    ("group", {"cyclic": "125"}),
    ("group", {"cyclic": True}),
    ("expected_fingerprint", {"1": 25000.9, "2": 580500, "3": 3042000, "4": 3912500}),
    ("expected_fingerprint", {"1": 25000.0, "2": 580500, "3": 3042000, "4": 3912500}),
    ("expected_fingerprint", {"0": True, "1": 24999, "2": 580500, "3": 3042000, "4": 3912500}),
    # count keys that are not the exact text of a count; "04" after "4" would
    # replace it, and before it would be replaced
    ("expected_fingerprint", {"1": 25000, "2": 580500, "3": 3042000, "04": 0, "4": 3912500}),
    ("expected_fingerprint", {"1": 25000, "2": 580500, "3": 3042000, " 4": 3912500}),
    ("expected_fingerprint", {"1": 25000, "2": 580500, "3": 3042000, "+4": 3912500}),
    ("expected_fingerprint", {"1": 25000, "2": 580500, "3": 3042000, "4.0": 3912500}),
])
def test_schema_rejects_non_integer_numbers(ex1_1, field, value):
    obj = entry_to_json(ex1_1)
    obj[field] = value
    with pytest.raises(SchemaError) as info:
        entry_from_json(obj)
    if field == "expected_fingerprint":  # the error names a bad count key
        for k in set(value) - {"0", "1", "2", "3", "4"}:
            assert repr(k) in str(info.value)


def test_reproduce_ex1_1(ex1_1):
    rec = reproduce(ex1_1)
    assert rec.steiner_ok and rec.fingerprint_match
    assert rec.elapsed_s < 5
    assert tuple(rec.stages_s) == STAGES
    assert min(rec.stages_s.values()) >= 0
    assert sum(rec.stages_s.values()) <= rec.elapsed_s


def test_reproduce_corrupted_clone(ex1_1, tmp_path):
    obj = entry_to_json(ex1_1)
    obj["base_blocks"][0][5] = 73  # was 74
    e = entry_from_json(obj)
    rec = reproduce(e)
    assert not rec.steiner_ok


def test_reproduce_required_sample():
    wanted = {"ex2-1", "ex5-8", "sg126-7-2"}
    for e in map(load_entry, iter_entry_paths(required=True)):
        if e.id in wanted:
            rec = reproduce(e)
            assert rec.steiner_ok and rec.fingerprint_match, e.id


def test_whole_catalog_reproduces_bit_exactly(catalog_pass):
    assert len(catalog_pass) == 1239
    failures = [(i, r.steiner_ok, r.fingerprint and format_fingerprint(r.fingerprint))
                for i, r in catalog_pass.items()
                if not (r.steiner_ok and r.fingerprint == r.entry.expected())]
    assert not failures


#: ``scripts/classify_all.py`` stdout over the whole catalog: one JSON record
#: of id, |Aut|, complete flag and canonical key per entry
CLASSIFICATION = Path(__file__).parent / "data" / "classify_all.jsonl"


def test_whole_catalog_classification_matches_fixture(catalog_pass):
    """Every entry's |Aut|, its complete flag and its canonical key equal the
    committed records, and no two entries share a key."""
    want = [json.loads(line) for line in CLASSIFICATION.read_text(encoding="utf-8").splitlines()]
    got = [{"id": i, "aut": r.aut, "complete": r.aut_complete, "key": r.key}
           for i, r in catalog_pass.items()]
    assert len(want) == 1239 and all(r["complete"] for r in want)
    assert got == want
    assert len({r["key"] for r in got}) == 1239


@pytest.mark.parametrize("threads", [0, 2])
def test_catalog_check_refuses_threads_other_than_one(threads):
    with pytest.raises(ValueError, match="threads must be 1"):
        catalog_check([entry("ex1-1")], threads=threads)


def test_src_starts_no_threads():
    """No module imports concurrent.futures or threading: a catalog pass is
    serial, and several CPUs are used by one process per id glob."""
    found = []
    for path in sorted(Path(unitals.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] in ("concurrent", "threading")]
    assert not found


def test_group_unavailable(tmp_path, ex1_1):
    obj = entry_to_json(ex1_1)
    obj["group"] = {"external": "tables/no_such_table.txt"}
    p = tmp_path / "x.json"
    p.write_text(json.dumps(obj))
    e = load_entry(p)
    with pytest.raises(GroupUnavailable):
        e.group()


def test_group_cache_hit_reads_no_file(monkeypatch):
    e = entry("sg126-8-1")
    group = e.group()

    def refuse(path):
        raise AssertionError(f"filesystem touched: {path}")

    monkeypatch.setattr(Path, "exists", refuse)
    assert e.group() is group


def test_reproduce_verifies_once(monkeypatch):
    import unitals.catalog as catalog
    import unitals.designs as designs
    import unitals.fingerprint as fp

    calls = []

    def counting(design):
        calls.append(design)
        return designs.verify_steiner(design)

    monkeypatch.setattr(catalog, "verify_steiner", counting)
    monkeypatch.setattr(fp, "verify_steiner", counting)
    rec = reproduce(entry("sg126-2-3"))
    assert rec.ok
    assert len(calls) == 1
