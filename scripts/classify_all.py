"""Print |Aut| and the canonical key of every catalog entry, one JSON line each.

Usage: python scripts/classify_all.py [id-glob]

Each line holds the entry's ``id``, ``aut`` (the automorphism group order),
``complete`` (False when the time budget cut the count short) and ``key``
(the canonical key).  The number of entries and the elapsed time go to
stderr, so two runs of the same code print the same stdout.  Exits 1 when two
entries share a key (they would be isomorphic) or when an |Aut| is not
divisible by the order of the entry's group, else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from unitals.catalog import iter_entry_paths, load_entry  # noqa: E402
from unitals.designs import develop  # noqa: E402
from unitals.isomorph import automorphism_order, canonical_key  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("glob", nargs="?", default=None)
    args = ap.parse_args()

    paths = iter_entry_paths(args.glob)
    print(f"{len(paths)} entries", file=sys.stderr)
    t0 = time.time()
    seen: dict = {}
    failures = 0
    for path in paths:
        entry = load_entry(path)
        group = entry.group()
        design = develop(group, entry.family())
        count = automorphism_order(design)
        key = canonical_key(design).decode()
        print(json.dumps({"id": entry.id, "aut": count.order,
                          "complete": count.complete, "key": key}), flush=True)
        if count.order % group.order:
            print(f"FAIL {entry.id}: |Aut| = {count.order} not divisible by "
                  f"|G| = {group.order}", file=sys.stderr)
            failures += 1
        if key in seen:
            print(f"FAIL {entry.id}: same key as {seen[key]}", file=sys.stderr)
            failures += 1
        seen.setdefault(key, entry.id)
    print(f"{len(paths)} entries, {failures} failures ({time.time() - t0:.0f}s)",
          file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
