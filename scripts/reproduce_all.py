"""Reproduce every catalog entry and print a summary table.

Usage: python scripts/reproduce_all.py [id-glob] [--threads N]

Develops each family, verifies the Steiner property, computes the fingerprint
and compares it against the transcription.  With no glob this covers all 1239
entries: about 4.5 s single-threaded and 4 s with --threads 2 on a shared 2-CPU
Xeon host (Python 3.11, numpy 2.4).  The last lines give the time each stage
took, summed over the entries, and the pass count.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from unitals.catalog import STAGES, catalog_check, iter_entry_paths, load_entry  # noqa: E402
from unitals.cli import positive  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("glob", nargs="?", default=None)
    ap.add_argument("--threads", type=positive(int), default=1)
    args = ap.parse_args()

    entries = [load_entry(p) for p in iter_entry_paths(args.glob)]
    print(f"{len(entries)} entries", file=sys.stderr)
    t0 = time.time()
    records = catalog_check(entries, threads=args.threads)
    by_list = Counter()
    ok_by_list = Counter()
    for r in records:
        key = r.entry_id.rpartition("-")[0]
        by_list[key] += 1
        ok_by_list[key] += r.ok
        if not r.ok:
            print(f"FAIL {r.entry_id}: steiner={r.steiner_ok} "
                  f"fingerprint={r.fingerprint_match}")
    print(f"{'list':>10}  pass/total")
    for key in sorted(by_list):
        print(f"{key:>10}  {ok_by_list[key]}/{by_list[key]}")
    total_ok = sum(ok_by_list.values())
    print("stages summed over entries: " + ", ".join(
        f"{name} {sum(r.stages_s[name] for r in records):.2f}s" for name in STAGES))
    print(f"{total_ok}/{len(records)} entries reproduce "
          f"({time.time() - t0:.0f}s)")
    return 0 if total_ok == len(records) else 1


if __name__ == "__main__":
    sys.exit(main())
