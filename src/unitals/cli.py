"""Command-line frontend.

Human-readable results go to stdout and diagnostics to stderr; --json switches
stdout to one JSON object per line.  Exit codes are a stable contract:
0 success, 1 verification/reproduction mismatch, 2 usage error,
3 input/parse error, 4 budget exhausted (search, or aut printing a lower bound).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import catalog as cat
from .designs import Mode, develop, verify_steiner
from .errors import ParseError, UnitalsError
from .fingerprint import fingerprint, format_fingerprint
from .groups import build_group, load_cayley_table, spec_from_json
from .isomorph import are_isomorphic, automorphism_order
from .search import SearchBudget, SearchStats, search_families

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_BUDGET = 4


def _positive(kind):
    """argparse type for a budget: a number of ``kind`` above 0."""
    def parse(text: str):
        value = kind(text)  # argparse reports a ValueError as "invalid <kind> value"
        if not value > 0:
            raise argparse.ArgumentTypeError(f"budget must be positive, got {text}")
        return value

    parse.__name__ = kind.__name__
    return parse


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="unitals",
                                description="Unitals of order 5: verify, "
                                            "fingerprint, compare, search.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("verify", help="develop a family and check S(2,6,126)")
    sp.add_argument("family", type=Path)
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("fingerprint", help="compute the hyperbolic frequency fingerprint")
    sp.add_argument("family", type=Path)
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("develop", help="write the 525 developed blocks to a file")
    sp.add_argument("family", type=Path)
    sp.add_argument("--out", type=Path, required=True)

    sp = sub.add_parser("iso", help="decide isomorphism of two developed designs")
    sp.add_argument("a", type=Path)
    sp.add_argument("b", type=Path)
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("aut", help="order of the full automorphism group")
    sp.add_argument("family", type=Path)
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("catalog", help="operations on the shipped catalog")
    catsub = sp.add_subparsers(dest="catalog_command", required=True)
    cp = catsub.add_parser("check", help="reproduce entries and compare fingerprints")
    cp.add_argument("--filter", default=None, help="id glob, e.g. 'ex1-*'")
    cp.add_argument("--required", action="store_true",
                    help="only the fully transcribed required lists")
    cp.add_argument("--threads", type=int, default=1)
    cp.add_argument("--json", action="store_true")

    sp = sub.add_parser("search", help="bounded difference-family search")
    sp.add_argument("--group", type=Path, required=True,
                    help="JSON file holding a group spec")
    sp.add_argument("--mode", required=True,
                    choices=[m.value for m in Mode])
    sp.add_argument("--max-nodes", type=_positive(int), default=1_000_000)
    sp.add_argument("--max-solutions", type=_positive(int), default=10)
    sp.add_argument("--time-limit", type=_positive(float), default=600.0)
    sp.add_argument("--no-canonicalize", dest="canonicalize", action="store_false")

    sp = sub.add_parser("group", help="group-layer utilities")
    gsub = sp.add_subparsers(dest="group_command", required=True)
    gp = gsub.add_parser("validate", help="validate a Cayley table file")
    gp.add_argument("table", type=Path)
    return p


def _load(path: Path) -> cat.CatalogEntry:
    return cat.load_entry(path)


def _cmd_verify(args) -> int:
    entry = _load(args.family)
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


def _cmd_fingerprint(args) -> int:
    entry = _load(args.family)
    design = develop(entry.group(), entry.family())
    if not verify_steiner(design).is_steiner:
        print("design does not verify as S(2,6,126)", file=sys.stderr)
        return EXIT_MISMATCH
    fp = fingerprint(design)
    if args.json:
        print(json.dumps({"id": entry.id, "fingerprint": format_fingerprint(fp),
                          "histogram": {str(k): v for k, v in fp.items}}))
    else:
        print(format_fingerprint(fp))
    return EXIT_OK


def _cmd_develop(args) -> int:
    entry = _load(args.family)
    design = develop(entry.group(), entry.family())
    with open(args.out, "w", encoding="utf-8") as fh:
        for i in range(design.block_count):
            fh.write(design.format_block(i) + "\n")
    print(f"{design.block_count} blocks written to {args.out}", file=sys.stderr)
    return EXIT_OK


def _cmd_iso(args) -> int:
    ea, eb = _load(args.a), _load(args.b)
    da = develop(ea.group(), ea.family())
    db = develop(eb.group(), eb.family())
    result = are_isomorphic(da, db)
    if args.json:
        print(json.dumps({"a": ea.id, "b": eb.id,
                          "isomorphic": result.isomorphic,
                          "witness": result.witness}))
    else:
        print("isomorphic" if result.isomorphic else "non-isomorphic")
    return EXIT_OK


def _cmd_aut(args) -> int:
    entry = _load(args.family)
    design = develop(entry.group(), entry.family())
    count = automorphism_order(design)
    if args.json:
        print(json.dumps({"id": entry.id, "order": count.order,
                          "complete": count.complete}))
    else:
        print(count.order if count.complete else f">= {count.order}")
    if not count.complete:
        print("time budget exhausted: the order is a lower bound", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_catalog_check(args) -> int:
    if args.required:
        entries = cat.load_required_entries()
        if args.filter:
            import fnmatch

            entries = [e for e in entries if fnmatch.fnmatch(e.id, args.filter)]
    else:
        entries = [cat.load_entry(p) for p in cat.iter_entry_paths(args.filter)]
    if not entries:
        print("no entries match", file=sys.stderr)
        return EXIT_INPUT
    records = cat.catalog_check(entries, threads=max(1, args.threads))
    all_ok = True
    for r in records:
        ok = r.steiner_ok and r.fingerprint_match
        all_ok &= ok
        if args.json:
            print(json.dumps({
                "id": r.entry_id, "pass": ok, "steiner_ok": r.steiner_ok,
                "fingerprint_match": r.fingerprint_match,
                "computed_fingerprint":
                    format_fingerprint(r.computed_fingerprint)
                    if r.computed_fingerprint else None,
                "elapsed_s": round(r.elapsed_s, 3),
            }))
        else:
            status = "PASS" if ok else "FAIL"
            print(f"{r.entry_id:>14}  {status}  steiner={r.steiner_ok} "
                  f"fingerprint={r.fingerprint_match}  {r.elapsed_s:.2f}s")
    print(f"{sum(r.steiner_ok and r.fingerprint_match for r in records)}"
          f"/{len(records)} entries pass", file=sys.stderr)
    return EXIT_OK if all_ok else EXIT_MISMATCH


def _cmd_search(args) -> int:
    try:
        obj = json.loads(args.group.read_text(encoding="utf-8"))
    except ValueError as exc:  # also undecodable bytes
        raise ParseError(f"{args.group}: not a JSON group spec: {exc}") from None
    spec = spec_from_json(obj)
    group = build_group(spec)
    budget = SearchBudget(max_nodes=args.max_nodes,
                          max_solutions=args.max_solutions,
                          time_limit_s=args.time_limit)
    stats = SearchStats()
    n = 0
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
    print(f"{stats.solutions} families, {stats.nodes} nodes, "
          f"budget_hit={stats.budget_hit}", file=sys.stderr)
    return EXIT_BUDGET if stats.budget_hit else EXIT_OK


def _cmd_group_validate(args) -> int:
    try:
        load_cayley_table(args.table)
    except UnitalsError as exc:
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
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "fingerprint":
            return _cmd_fingerprint(args)
        if args.command == "develop":
            return _cmd_develop(args)
        if args.command == "iso":
            return _cmd_iso(args)
        if args.command == "aut":
            return _cmd_aut(args)
        if args.command == "catalog":
            return _cmd_catalog_check(args)
        if args.command == "search":
            return _cmd_search(args)
        if args.command == "group":
            return _cmd_group_validate(args)
    except (OSError, UnitalsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
