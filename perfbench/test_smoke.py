"""The benchmark's own tests: each workload once on a minimal input.

    python3 -m pytest -q perfbench/test_smoke.py

They check that every metric BENCHMARK.json names is printed with its
unit, that a planted wrong fingerprint makes the run fail, and that the
benchmark refuses to run without the program's source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
from run import CountLedger, end_to_end, tail  # noqa: E402
from tracer import Tracer  # noqa: E402


def run_bench(workload: str, trace: int, *extra, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


#: the metrics the benchmark was defined with; BENCHMARK.json must keep them
END_TO_END = {"setup_s": "s", "ops_per_kref": "ops/kref", "op_p50_ref": "ref",
              "op_tail_ref": "ref", "peak_rss_mb": "MB"}
PER_LAYER = (
    "fingerprint.pair_histograms_s", "fingerprint.quadruples_per_s", "designs.develop_s",
    "designs.verify_s", "designs.relabel_s", "isomorph.aut_s", "isomorph.canonical_key_s",
    "isomorph.iso_s", "isomorph.aut_generators", "isomorph.aut_complete_frac",
    "search.nodes", "search.nodes_per_s", "search.solutions", "search.complete_s",
    "search.budget_hit_frac", "search.setup_s", "difference.check_s", "groups.build_s",
    "groups.builds", "catalog.load_s", "catalog.reproduce_s", "cli.verify_cold_s",
    "trace.overhead_s", "fail_frac")


def test_benchmark_json_names_the_metrics():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert set(PER_LAYER) <= {m["name"] for m in SPEC["per_layer"]}
    assert set(WORKLOADS) == {"reproduce", "classify", "search"}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(workload, trace, kind):
    proc, lines = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if kind == "end_to_end":
            assert metric["value"] > 0, name
    stamp = json.loads(lines[-2])["details"]["stamp"]
    for key in ("seed", "nproc", "cpu_model", "python", "numpy", "git_commit",
                "src_sha256", "threads"):
        assert key in stamp
    assert stamp["seed"] == 7 and stamp["threads"] == 1


def test_traced_reproduce_times_each_layer():
    proc, lines = run_bench("reproduce", 1)
    metrics = {k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()}
    for name in ("fingerprint.pair_histograms_s", "designs.develop_s", "designs.verify_s",
                 "groups.build_s", "catalog.load_s", "catalog.reproduce_s",
                 "cli.verify_cold_s"):
        assert metrics[name] > 0, name
    assert metrics["groups.builds"] == 2  # one order-125 and one order-126 group
    assert metrics["fail_frac"] == 0


def test_planted_wrong_fingerprint_fails_the_run():
    proc, lines = run_bench("reproduce", 0, "--plant-wrong-fingerprint")
    assert proc.returncode != 0
    result = json.loads(lines[-1])
    details = json.loads(lines[-2])["details"]
    assert not result["correct"] and result["failed"] > 0
    assert details["fail_frac"] > 0
    assert "differs from the transcription" in details["failures"][0]["reason"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = run_bench("reproduce", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith('{"correct"') for line in lines)


def test_tail_has_ten_samples_beyond():
    value, pct, beyond = tail([float(i) for i in range(40)])
    assert (value, beyond) == (29.0, 10) and pct == 75.0


def executions(cycles, lat, ref=lambda cycle, i: (0.01, 0.01)):
    """Executions of a 12-op round, or of a 1-op head for cycle "h"."""
    return [{"cycle": c, "op": SimpleNamespace(pos=f"{'h' if c == 'h' else 'r'}.{i}"),
             "lat": lat(c, i), "ref": ref(c, i)}
            for c in cycles for i in range(1 if c == "h" else 12)]


def test_percentiles_rank_the_same_ops_however_many_rounds_fit():
    class Plan:
        rounds = 2

    def lat(cycle, i):
        return 9.0 if cycle == 2 else 1.0 + i % 3

    short, _ = end_to_end(Plan, executions(["h", 0, 1], lat), [0.5], 60.0)
    long, details = end_to_end(Plan, executions(["h", 0, 1, 2, 3], lat), [0.5], 60.0)
    assert long == short
    assert details["percentile_ops"] == 25 and details["ops"] == 49


def test_latencies_count_in_reference_units():
    class Plan:
        rounds = 4

    # the host is 1.6 times slower in rounds 2 and 3; the reference kernel
    # around each op slows down with it, so the ops' costs do not move
    def slow(cycle):
        return 1.6 if cycle >= 2 else 1.0

    metrics, details = end_to_end(
        Plan, executions([0, 1, 2, 3], lambda c, i: 0.5 * slow(c),
                         lambda c, i: (0.005 * slow(c), 0.005 * slow(c))),
        [0.5], 60.0)
    assert metrics["op_p50_ref"] == metrics["op_tail_ref"] == pytest.approx(100.0)
    assert metrics["ops_per_kref"] == pytest.approx(10.0)
    assert details["seconds"]["op_p50_s"] == pytest.approx(0.65)
    assert set(details["op_cost"]) == {f"r.{i}" for i in range(12)}


def test_self_time_excludes_children():
    tr = Tracer()
    with tr.span("outer") as outer:
        with tr.span("inner") as inner:
            pass
    assert outer.self_time == pytest.approx(outer.duration - inner.duration)
    assert inner.parent is outer


def test_ledger_flags_a_changed_count(tmp_path):
    path = tmp_path / "counts.json"
    ledger = CountLedger(path)
    assert ledger.check("remove:ex1-1:0", {"nodes": 5})
    ledger.save()
    again = CountLedger(path)
    assert again.check("remove:ex1-1:0", {"nodes": 5})
    assert not again.check("remove:ex1-1:0", {"nodes": 6})
