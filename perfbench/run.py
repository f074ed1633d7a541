"""Benchmark of the unitals toolkit: reproduce, classify and search workloads.

Run from the repository root:

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` next to this directory.  One process,
one thread, closed loop: each op starts when the previous one has ended.
Set-up runs from the first line of this script to the first timed op:
imports, ``load_entry`` of the workload's entries and group construction.
The process's own set-up is one sample; SETUP_REPS - 1 fresh processes
started with ``--setup-only`` give the others, and the median is reported.
The timed phase then runs the workload's head once and its round again and
again until ``--seconds`` have passed and at least the workload's ``rounds``
repeats are done.  The metrics are taken over the head and those first
repeats, each execution counted at its op's mean latency over them, in
units of a reference kernel timed between every two ops.
Every op's output is checked by an oracle outside the timed interval.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every op
twice, once untraced and once with spans around each call into a layer
(alternating which goes first), and prints the per-layer metrics together
with the tracing overhead; spans are written to ``.bench_out/`` when the run
ends.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the machine stamp and run details.  The exit code is 0 when every op
passed its oracle, 1 when any failed, 2 when the program is missing.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 3
CLI_PROBES = 3
#: iterations of the reference kernel, timed between every two ops: about
#: 5 ms of pure-Python integer arithmetic, independent of the program
REF_LOOPS = 50_000

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["reproduce", "classify", "search"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true",
                   help="one round of a minimal input (for the benchmark's own tests)")
    p.add_argument("--plant-wrong-fingerprint", dest="plant", action="store_true",
                   help="give the first op's entry a wrong expected fingerprint "
                        "(in memory only), so its oracle must fail")
    p.add_argument("--setup-only", action="store_true",
                   help="print this process's set-up time and exit (one set-up sample)")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# machine stamp


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(SRC)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def stamp(args, numpy_version: str, digest: str) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "threads": 1,
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": numpy_version,
        "git_commit": git_commit(), "src_sha256": digest,
    }


# ---------------------------------------------------------------------------
# exact-count repetition


class CountLedger:
    """Counts per op input; every later run of the same input must match them.

    Ops are identified by kind, entries and arguments, so repeats inside a
    run are compared too.  The ledger persists per source digest and
    workload, so runs of the same code in the same checkout are compared
    with each other.
    """

    def __init__(self, path: Path):
        self.path = path
        self.seen = json.loads(path.read_text()) if path.is_file() else {}

    @staticmethod
    def identity(op) -> str:
        args = json.dumps(op.args, sort_keys=True).encode()
        return f"{op.kind}:{op.key}:{hashlib.sha1(args).hexdigest()[:12]}"

    def check(self, identity: str, counts: dict) -> bool:
        counts = json.loads(json.dumps(counts))  # the form it is stored in
        known = self.seen.setdefault(identity, counts)
        return known == counts

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.seen, sort_keys=True))
        os.replace(tmp, self.path)


# ---------------------------------------------------------------------------
# phases


def run_setup(wl, tr, import_s: float) -> float:
    """This process's set-up: its imports plus ``wl.setup``, in seconds."""
    tr.op = "setup-0"
    t0 = time.perf_counter()
    wl.setup(tr)
    tr.op = None
    return import_s + time.perf_counter() - t0


def fresh_setups(args, n: int) -> list:
    """Set-up times of n fresh processes, started one after another."""
    times = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
            + (["--smoke"] if args.smoke else []),
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def reference_s() -> float:
    """Seconds the reference kernel takes now: the host's current speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


def execute(wl, op, tr, traced: bool, cycle, label: str) -> dict:
    tr.active = traced
    tr.op = label
    out, error = None, None
    t0 = time.perf_counter()
    try:
        with tr.span("op." + op.kind):
            out = wl.run(op, tr)
    except Exception:  # an op that raises is a failed op; the run goes on
        error = traceback.format_exc()
    lat = time.perf_counter() - t0
    tr.active = False
    return {"op": op, "cycle": cycle, "label": label, "traced": traced, "lat": lat,
            "out": out, "error": error}


def timed_phase(wl, tr, seconds: float, traced: bool) -> tuple:
    """The head, then repeats of the round until ``seconds`` have passed
    and, in untraced runs, ``wl.rounds`` repeats are done.  The reference
    kernel is timed before the first op and after every op; each execution
    keeps the times just before and after it as ``ref``.

    Returns (executions, wall seconds).
    """
    execs = []
    rounds = 1 if traced else wl.rounds
    last_ref = [reference_s()]

    def record(ex):
        ex["ref"] = (last_ref[0], reference_s())
        last_ref[0] = ex["ref"][1]
        execs.append(ex)

    def run_ops(ops, cycle):
        for op in ops:
            label = f"{cycle}:{op.pos}"
            if not traced:
                record(execute(wl, op, tr, False, cycle, label))
                continue
            first = len(execs) % 4 == 0  # alternate which half runs first
            for t in ((False, True) if first else (True, False)):
                record(execute(wl, op, tr, t, cycle, label + (":t" if t else ":u")))

    t0 = time.perf_counter()
    run_ops(wl.head, "h")
    cycle = 0
    while True:
        run_ops(wl.round, cycle)
        cycle += 1
        if cycle >= rounds and time.perf_counter() - t0 >= seconds:
            return execs, time.perf_counter() - t0


def check_all(wl, execs, ledger) -> list:
    """Run the oracles; mark each execution ok or failed with a reason."""
    for ex in execs:
        if ex["error"] is not None:
            ex["ok"], ex["reason"], ex["counts"] = False, ex["error"].strip().splitlines()[-1], {}
            continue
        try:
            ok, reason, counts = wl.check(ex["op"], ex["out"])
        except Exception:
            ok, reason, counts = False, "oracle raised: " + traceback.format_exc(), {}
        if ok and not ledger.check(ledger.identity(ex["op"]), counts):
            ok, reason = False, "counts differ from an earlier run of the same op"
        ex["ok"], ex["reason"], ex["counts"] = ok, reason, counts
        ex["out"] = None  # drop designs and families early
    return execs


def cli_probes(wl, tr) -> list:
    """Cold `python -m unitals.cli verify <entry>` runs, one after another."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probes = []
    for op in wl.ops()[:CLI_PROBES]:
        tr.active, tr.op = True, "cli"
        with tr.span("cli.verify"):
            proc = subprocess.run(
                [sys.executable, "-m", "unitals.cli", "verify", str(wl.entries[op.key].path)],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        tr.active = False
        probes.append({"key": op.key, "ok": proc.returncode == 0,
                       "reason": f"cli verify exit {proc.returncode}: {proc.stderr.strip()[-200:]}"})
    return probes


def search_setup_probes(wl, tr) -> None:
    """complete_family on already-complete families of the transitive groups."""
    from unitals import search

    done = set()
    for op in wl.ops():
        entry = wl.entries[op.key]
        if entry.mode.value != "transitive" or entry.path.parent.name in done:
            continue
        done.add(entry.path.parent.name)
        tr.active, tr.op = True, "search-setup"
        with tr.span("search.setup"):
            search.complete_family(entry.group(), search.PartialFamily(entry.mode, entry.base_blocks))
        tr.active = False


# ---------------------------------------------------------------------------
# metrics


def median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def tail(lats: list) -> tuple:
    """(value, percentile, samples beyond): highest percentile with >= 10 beyond."""
    s = sorted(lats)
    n = len(s)
    k = max(n - 11, 0) if n > 10 else n - 1
    return s[k], 100.0 * (k + 1) / n, n - 1 - k


def op_costs(execs, rounds: int) -> dict:
    """Op position -> (mean latency in reference units, mean latency in
    seconds, executions) over the head and the first ``rounds`` repeats of
    the round.  An execution's latency in reference units is its latency
    divided by the mean of the reference kernel's times just before and
    just after it."""
    by_op = {}
    for ex in execs:
        if ex["cycle"] == "h" or ex["cycle"] < rounds:
            by_op.setdefault(ex["op"].pos, []).append((ex["lat"] / statistics.fmean(ex["ref"]),
                                                       ex["lat"]))
    return {pos: (statistics.fmean(r for r, _ in v), statistics.fmean(t for _, t in v), len(v))
            for pos, v in by_op.items()}


def end_to_end(wl, execs, setup_times, peak_rss_mb) -> tuple:
    """Metrics over the head and the first ``wl.rounds`` repeats of the
    round, so that every run ranks the same ops.  Each execution counts at
    its op's mean latency over its repeats, measured in reference units.

    The shared host runs at two speeds, the slow one 1.5 to 1.9 times
    slower, and switches between them every few seconds; either speed can
    last for minutes, longer than a run.  A latency in seconds, however it
    is averaged, reports which speed a run met.  The reference kernel, timed
    around each op, slows down with the host, so an op's latency in its
    units changes far less between the two speeds.  The same statistics in
    seconds go to the details."""
    costs = op_costs(execs, wl.rounds)
    refs = [ref for ref, _, n in costs.values() for _ in range(n)]
    secs = [sec for _, sec, n in costs.values() for _ in range(n)]
    value, pct, beyond = tail(refs)
    metrics = {
        "setup_s": median(setup_times),
        "ops_per_kref": 1000.0 * len(refs) / sum(refs),
        "op_p50_ref": median(refs),
        "op_tail_ref": value,
        "peak_rss_mb": peak_rss_mb,
    }
    ref_times = [ex["ref"][1] for ex in execs]
    return metrics, {"op_tail_percentile": pct, "op_tail_samples_beyond": beyond,
                     "percentile_rounds": wl.rounds, "percentile_ops": len(refs),
                     "ops": len(execs),
                     "seconds": {"ops_per_s": len(secs) / sum(secs), "op_p50_s": median(secs),
                                 "op_tail_s": tail(secs)[0]},
                     "reference_s": {"min": min(ref_times), "median": median(ref_times),
                                     "max": max(ref_times)},
                     "op_cost": {pos: {"ref": ref, "s": sec}
                                 for pos, (ref, sec, _) in sorted(costs.items())}}


def per_layer(wl, tr, execs, fail_frac: float) -> dict:
    traced = [ex for ex in execs if ex["traced"]]
    untraced = {ex["label"][:-2]: ex for ex in execs if not ex["traced"]}
    roots = {s.op: s for s in tr.spans if s.parent is None and s.name.startswith("op.")}

    def count_values(field):
        return [ex["counts"][field] for ex in traced if field in ex["counts"]]

    overhead, unaccounted = [], []
    for ex in traced:
        base = untraced.get(ex["label"][:-2])
        if base is None:
            continue
        overhead.append(ex["lat"] - base["lat"])
        root = roots.get(ex["label"])
        if root is not None:
            unaccounted.append(base["lat"] - root.children_s)

    hists = tr.named("fingerprint.pair_histograms")
    hist_time = sum(s.self_time for s in hists)
    classical_ops = {ex["label"] for ex in traced if ex["op"].key == "ex3-1"}
    classical = [s for s in tr.named("isomorph.aut") if s.op in classical_ops]
    gens = count_values("generators")
    aut_ok = count_values("complete")

    search_ex = [ex for ex in traced if "nodes" in ex["counts"]]
    round0 = [ex for ex in search_ex if ex["label"].startswith(("h:", "0:"))]
    # node rate of the DFS-bound rediscoveries; transitive completions are
    # dominated by their candidate set-up
    dfs_ex = [ex for ex in search_ex if ex["op"].kind == "rediscover"] or search_ex
    dfs_nodes = sum(ex["counts"]["nodes"] for ex in dfs_ex)
    dfs_time = sum(s.self_time for ex in dfs_ex for s in tr.named("search.complete_family", ex["label"]))
    build_spans = [s for s in tr.named("groups.build") if s.op == "setup-0"]

    return {
        "fingerprint.pair_histograms_s": tr.median_self("fingerprint.pair_histograms"),
        "fingerprint.quadruples_per_s":
            len(hists) * 7_560_000 / hist_time if hist_time else 0.0,
        "designs.develop_s": tr.median_self("designs.develop"),
        "designs.verify_s": tr.median_self("designs.verify"),
        "designs.relabel_s": tr.median_self("designs.relabel"),
        "isomorph.aut_s": tr.median_self("isomorph.aut"),
        "isomorph.aut_classical_s": median([s.self_time for s in classical]),
        "isomorph.canonical_key_s": tr.median_self("isomorph.canonical_key"),
        "isomorph.iso_s": tr.median_self("isomorph.iso"),
        "isomorph.aut_generators": statistics.mean(gens) if gens else 0.0,
        "isomorph.aut_complete_frac": sum(aut_ok) / len(aut_ok) if aut_ok else 0.0,
        "search.nodes": sum(ex["counts"]["nodes"] for ex in round0),
        "search.nodes_per_s": dfs_nodes / dfs_time if dfs_time else 0.0,
        "search.solutions": sum(ex["counts"]["solutions"] for ex in round0),
        "search.complete_s": tr.median_duration("search.complete_family"),
        "search.budget_hit_frac":
            sum(ex["counts"]["budget_hit"] for ex in search_ex) / len(search_ex)
            if search_ex else 0.0,
        "search.setup_s": tr.median_duration("search.setup"),
        "difference.check_s": tr.median_self("difference.check"),
        "groups.build_s": median([s.duration for s in tr.named("groups.build")]),
        "groups.builds": len(build_spans),
        "catalog.load_s": tr.median_self("catalog.load"),
        "catalog.reproduce_s":
            median([ex["lat"] for ex in untraced.values()]) if wl.name == "reproduce" else 0.0,
        "cli.verify_cold_s": tr.median_duration("cli.verify"),
        "trace.overhead_s": median(overhead),
        "trace.unaccounted_s": median(unaccounted),
        "fail_frac": fail_frac,
    }


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (SRC / "unitals" / "__init__.py").is_file():
        print(f"error: no unitals package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import numpy

    from tracer import Tracer
    from workloads import WORKLOADS  # imports the program

    import_s = time.perf_counter() - T_START

    wl = WORKLOADS[args.workload](args.seed, smoke=args.smoke, plant=args.plant)
    tr = Tracer(active=bool(args.trace))
    if args.setup_only:
        print(run_setup(wl, tr, import_s))
        return 0
    digest = source_digest()
    info = stamp(args, numpy.__version__, digest)
    patched = []
    if args.trace:
        # calls the program makes internally, timed from outside
        for module, attr, name in wl.TRACED_CALLS:
            patched.append((module, attr, getattr(module, attr)))
            setattr(module, attr, tr.wrap(getattr(module, attr), name))
    try:
        setup_times = [run_setup(wl, tr, import_s)]
        execs, wall = timed_phase(wl, tr, args.seconds, bool(args.trace))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        probes = []
        if args.trace and wl.name == "reproduce":
            probes = cli_probes(wl, tr)
        if args.trace and wl.name == "search":
            search_setup_probes(wl, tr)
    finally:
        for module, attr, fn in patched:
            setattr(module, attr, fn)

    ledger = CountLedger(OUT / "counts" / digest[:16] / f"{wl.name}.json")
    check_all(wl, execs, ledger)
    ledger.save()

    failures = [{"op": ex["label"], "key": ex["op"].key, "reason": ex["reason"]}
                for ex in execs if not ex["ok"]]
    failures += [{"op": "cli", "key": p["key"], "reason": p["reason"]} for p in probes if not p["ok"]]
    attempted = len(execs) + len(probes)

    if args.trace:
        metrics = per_layer(wl, tr, execs, len(failures) / attempted)
        kind = "per_layer"
        details = {"spans": len(tr.spans)}
        tag = f"{wl.name}-seed{args.seed}" + ("-smoke" if args.smoke else "") + (
            "-planted" if args.plant else "")
        tr.write(OUT / "spans" / f"{tag}.jsonl")
    else:
        setup_times += fresh_setups(args, SETUP_REPS - 1)
        metrics, details = end_to_end(wl, execs, setup_times, peak_rss_mb)
        kind = "end_to_end"
    details.update({
        "stamp": info, "import_s": import_s, "setup_reps_s": setup_times,
        "timed_s": wall, "rounds": len({ex["cycle"] for ex in execs} - {"h"}),
        "fail_frac": len(failures) / attempted, "failures": failures[:20],
        "op_latencies": [[ex["label"], ex["op"].kind, ex["op"].key, ex["lat"]] for ex in execs],
    })
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec[kind]},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
