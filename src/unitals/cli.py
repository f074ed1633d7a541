"""Command-line frontend.

Human-readable results go to stdout and diagnostics to stderr; --json switches
stdout to one JSON object per line.  Exit codes are a stable contract:
0 success, 1 verification/reproduction mismatch, 2 usage error,
3 input/parse error, 4 budget exhausted (search, aut printing a lower bound,
or iso left undecided).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from itertools import groupby
from pathlib import Path

from . import catalog as cat
from .designs import Mode, develop, verify_steiner
from .errors import ParseError, UnitalsError
from .fingerprint import fingerprint, format_fingerprint
from .groups import INF, format_element_label, load_cayley_table, spec_from_json
from .isomorph import are_isomorphic, automorphism_order
from .search import SearchBudget, SearchStats, search_families

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_BUDGET = 4


def positive(kind):
    """argparse type for a search budget: a number of ``kind`` above 0."""
    def parse(text: str):
        value = kind(text)  # argparse reports a ValueError as "invalid <kind> value"
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {text}")
        return value

    parse.__name__ = kind.__name__
    return parse


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="unitals",
                                description="Unitals of order 5: verify, "
                                            "fingerprint, compare, search.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("verify", help="develop a family and check S(2,6,126)")
    sp.set_defaults(run=_cmd_verify)
    sp.add_argument("family", type=Path)
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("fingerprint", help="compute the hyperbolic frequency fingerprint")
    sp.set_defaults(run=_cmd_fingerprint)
    sp.add_argument("family", type=Path)
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("develop", help="write the 525 developed blocks to a file")
    sp.set_defaults(run=_cmd_develop)
    sp.add_argument("family", type=Path)
    sp.add_argument("--out", type=Path, required=True)

    sp = sub.add_parser("iso", help="decide isomorphism of two developed designs")
    sp.set_defaults(run=_cmd_iso)
    sp.add_argument("a", type=Path)
    sp.add_argument("b", type=Path)
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("aut", help="order of the full automorphism group")
    sp.set_defaults(run=_cmd_aut)
    sp.add_argument("family", type=Path)
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("catalog", help="operations on the shipped catalog")
    catsub = sp.add_subparsers(dest="catalog_command", required=True)
    cp = catsub.add_parser("check", help="reproduce entries and compare fingerprints")
    cp.set_defaults(run=_cmd_catalog_check)
    cp.add_argument("--filter", default=None, help="id glob, e.g. 'ex1-*'")
    cp.add_argument("--required", action="store_true",
                    help="only the fully transcribed required lists")
    cp.add_argument("--json", action="store_true")

    sp = sub.add_parser("search", help="bounded difference-family search")
    sp.set_defaults(run=_cmd_search)
    sp.add_argument("--group", type=Path, required=True,
                    help="JSON file holding a group spec")
    sp.add_argument("--mode", required=True,
                    choices=[m.value for m in Mode])
    sp.add_argument("--max-nodes", type=positive(int), default=1_000_000)
    sp.add_argument("--max-solutions", type=positive(int), default=10,
                    help="stop after this many solutions of the search, counted "
                         "before families with a repeated canonical key are dropped")
    sp.add_argument("--time-limit", type=positive(float), default=600.0)
    sp.add_argument("--no-canonicalize", dest="canonicalize", action="store_false")

    sp = sub.add_parser("group", help="group-layer utilities")
    gsub = sp.add_subparsers(dest="group_command", required=True)
    gp = gsub.add_parser("validate", help="validate a Cayley table file")
    gp.set_defaults(run=_cmd_group_validate)
    gp.add_argument("table", type=Path)
    return p


def _cmd_verify(args) -> int:
    entry = cat.load_entry(args.family)
    design = develop(entry.group(), entry.family())
    report = verify_steiner(design)
    if args.json:
        print(json.dumps({
            "id": entry.id,
            "is_steiner": report.is_steiner,
            "block_count": report.block_count,
            "duplicate_blocks": report.duplicate_blocks,
            "pair_coverage_defects": [
                [list(pair), count] for pair, count in report.pair_coverage_defects[:100]
            ],
        }))
    else:
        print(report)
    return EXIT_OK if report.is_steiner else EXIT_MISMATCH


def _verified_design(entry):
    """The entry's developed design, or None, with the reason on stderr, when
    it does not verify as S(2,6,126)."""
    design = develop(entry.group(), entry.family())
    if verify_steiner(design).is_steiner:
        return design
    print("design does not verify as S(2,6,126)", file=sys.stderr)
    return None


def _cmd_fingerprint(args) -> int:
    entry = cat.load_entry(args.family)
    design = _verified_design(entry)
    if design is None:
        return EXIT_MISMATCH
    fp = fingerprint(design)
    if args.json:
        print(json.dumps({"id": entry.id, "fingerprint": format_fingerprint(fp),
                          "histogram": {str(k): v for k, v in fp.items}}))
    else:
        print(format_fingerprint(fp))
    return EXIT_OK


def _cmd_develop(args) -> int:
    entry = cat.load_entry(args.family)
    group = entry.group()
    design = develop(group, entry.family())
    labels = group.labels + (INF,)  # ∞ is point |G| in 1-rotational mode
    with open(args.out, "w", encoding="utf-8") as fh:
        for block in design.blocks:
            fh.write(" ".join(format_element_label(labels[p], compact=True) for p in block)
                     + "\n")
    print(f"{design.block_count} blocks written to {args.out}", file=sys.stderr)
    return EXIT_OK


def _cmd_iso(args) -> int:
    ea, eb = cat.load_entry(args.a), cat.load_entry(args.b)
    da, db = _verified_design(ea), _verified_design(eb)
    if da is None or db is None:
        return EXIT_MISMATCH
    start = time.perf_counter()
    result = are_isomorphic(da, db)
    if args.json:
        print(json.dumps({"a": ea.id, "b": eb.id,
                          "isomorphic": result.isomorphic,
                          "complete": result.complete,
                          "witness": result.witness,
                          "elapsed_s": round(time.perf_counter() - start, 3),
                          # None for a design the fingerprint fast path left unsearched
                          "search": {"a": da._cache.get("aut_stats"),
                                     "b": db._cache.get("aut_stats")}}))
    elif not result.complete:
        print("undecided")
    else:
        print("isomorphic" if result.isomorphic else "non-isomorphic")
    if not result.complete:
        print("time budget exhausted: isomorphism is undecided", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_aut(args) -> int:
    entry = cat.load_entry(args.family)
    design = _verified_design(entry)
    if design is None:
        return EXIT_MISMATCH
    start = time.perf_counter()
    count = automorphism_order(design)
    if args.json:
        print(json.dumps({"id": entry.id, "order": count.order,
                          "complete": count.complete,
                          "elapsed_s": round(time.perf_counter() - start, 3),
                          "search": design._cache["aut_stats"]}))
    else:
        print(count.order if count.complete else f">= {count.order}")
    if not count.complete:
        print("time budget exhausted: the order is a lower bound", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_catalog_check(args) -> int:
    entries = [cat.load_entry(p) for p in cat.iter_entry_paths(args.filter, args.required)]
    if not entries:
        print("no entries match", file=sys.stderr)
        return EXIT_INPUT
    records = cat.catalog_check(entries)
    for r in records:
        if args.json:
            print(json.dumps({
                "id": r.entry_id, "pass": r.ok, "steiner_ok": r.steiner_ok,
                "fingerprint_match": r.fingerprint_match,
                "computed_fingerprint":
                    format_fingerprint(r.computed_fingerprint)
                    if r.computed_fingerprint else None,
                "elapsed_s": round(r.elapsed_s, 3),
                "stages_s": {k: round(v, 4) for k, v in r.stages_s.items()},
            }))
        else:
            status = "PASS" if r.ok else "FAIL"
            print(f"{r.entry_id:>14}  {status}  steiner={r.steiner_ok} "
                  f"fingerprint={r.fingerprint_match}  {r.elapsed_s:.2f}s")
    print(f"{'list':>10}  pass/total", file=sys.stderr)
    for key, group in groupby(records, lambda r: r.entry_id.rpartition("-")[0]):
        oks = [r.ok for r in group]  # records come sorted by list, then number
        print(f"{key:>10}  {sum(oks)}/{len(oks)}", file=sys.stderr)
    print("stages summed over entries: " + ", ".join(
        f"{name} {sum(r.stages_s[name] for r in records):.2f}s" for name in cat.STAGES),
        file=sys.stderr)
    passed = sum(r.ok for r in records)
    print(f"{passed}/{len(records)} entries pass", file=sys.stderr)
    return EXIT_OK if passed == len(records) else EXIT_MISMATCH


def _cmd_search(args) -> int:
    try:
        obj = json.loads(args.group.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # also undecodable bytes, deep nesting
        raise ParseError(f"{args.group}: not a JSON group spec: {exc}") from None
    spec = spec_from_json(obj)
    group = cat.build_spec_group(spec, args.group)
    budget = SearchBudget(max_nodes=args.max_nodes,
                          max_solutions=args.max_solutions,
                          time_limit_s=args.time_limit)
    stats = SearchStats()
    n = 0
    start = time.perf_counter()
    for fam in search_families(group, args.mode, budget,
                               canonicalize=args.canonicalize, stats=stats):
        n += 1
        design = develop(group, fam)
        fp = fingerprint(design)
        record = cat.entry_to_json(cat.CatalogEntry(
            id=f"search-{n}",
            group_spec=spec,
            mode=Mode(args.mode),
            base_blocks=fam.base_blocks,
            expected_fingerprint=dict(fp.items),
            source="search result",
        ))
        print(json.dumps(record))
    elapsed = time.perf_counter() - start
    # n counts the records printed; stats.solutions also counts the dropped
    # duplicates, and is what --max-solutions limits
    print(f"{n} families, {stats.nodes} nodes, "
          f"budget_hit={stats.budget_hit}, {elapsed:.3f} s, "
          f"{stats.nodes / elapsed if elapsed > 0 else 0:.0f} nodes/s, "
          f"{stats.solutions} solutions", file=sys.stderr)
    return EXIT_BUDGET if stats.budget_hit else EXIT_OK


def _cmd_group_validate(args) -> int:
    try:
        load_cayley_table(args.table)
    except (OSError, UnitalsError) as exc:  # also a missing path or a directory
        print(exc)
        return EXIT_MISMATCH
    print("table is a valid group")
    return EXIT_OK


def main_entry() -> None:
    sys.exit(main())


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (OSError, UnitalsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
