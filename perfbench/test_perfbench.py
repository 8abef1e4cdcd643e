"""Tests of the benchmark itself (not part of the Tier-1 suite).

    python3 -m pytest -q perfbench

Each workload is traced once (about two minutes in all); the repeat test
traces two workloads a second time.
"""

import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import refclock
import run
from workloads import EXPECTED, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# The workload on which each per-layer metric must be non-zero, as predicted
# in README.md.  Metrics listed under "*" must be non-zero on every workload.
PREDICTED = {
    "*": ["scalars.mul.count", "scalars.add.count", "scalars.inverse.count",
          "exprs.poly_mul.count", "exprs.self_s", "hamiltonian.self_s",
          "liealg.self_s", "catalog.build_scenario.s", "runner.self_s",
          "runner.checks.count", "runner.stage.structure.s",
          "runner.stage.hamiltonian.s", "runner.stage.prequantize.s",
          "trace.unaccounted_s"],
    "gauge-su2": ["geometry.glue_check.count", "geometry.glue_check.s",
                  "geometry.pullback.count", "geometry.pullback.s",
                  "geometry.self_s", "bundles.curvature.count",
                  "bundles.curvature.s", "bundles.curvature.repeat_ratio",
                  "bundles.kostant_operator.count", "bundles.self_s",
                  "gauge.self_s"],
    "su2-orbit": ["exprs.poly_mul.s", "exprs.poly_mul.terms_out",
                  "exprs.poly_mul.max_terms", "exprs.poly_gcd.count",
                  "exprs.poly_gcd.s", "quantize.holomorphic_solve.s",
                  "quantize.induced_representation.s",
                  "quantize.inner_product.count", "quantize.self_s",
                  "runner.stage.quantize.s", "runner.checks.failed",
                  "linalg.rref.count", "linalg.self_s"],
    "reduction-sweep": ["reduce.self_s", "runner.stage.reduce.s",
                        "exprs.poly_gcd.count", "exprs.poly_gcd.s",
                        "exprs.simplify.count", "exprs.simplify.gcd_ratio"],
    "catalog-light": ["exprs.poly_mul.s", "catalog.self_s", "cech.self_s",
                      "reports.self_s", "runner.stage.quantize.s"],
}
SEED = 1729
# Self times may miss the interpreter's import of quantbench, installing the
# tracer and the pass harness: at most this many seconds plus 5% of the wall.
SLACK_S = 0.3


def traced_pass(workload, tmp_path):
    deadline = time.monotonic() + run.RUN_LIMIT_S
    return run.run_pass(workload, SEED, deadline, "--trace",
                        str(tmp_path / f"{workload}.json"))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("spans")
    return {w: traced_pass(w, tmp) for w in WORKLOADS}


def test_expected_table_covers_every_scenario():
    labels = [label for specs in WORKLOADS.values() for label, _, _ in specs]
    assert sorted(labels) == sorted(EXPECTED)


def test_benchmark_names_every_metric(traced):
    per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
    for workload, result in traced.items():
        assert set(result["layers"]) | {"trace.overhead_ratio"} == per_layer, workload
    assert set(PREDICTED["*"]).union(*PREDICTED.values()) <= per_layer


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_predicted_metrics_are_nonzero(traced, workload):
    layers = traced[workload]["layers"]
    zero = [m for m in PREDICTED["*"] + PREDICTED[workload] if not layers[m] > 0]
    zero += [f"scenario.{label}.s" for label, _, _ in WORKLOADS[workload]
             if not layers[f"scenario.{label}.s"] > 0]
    assert not zero


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_self_times_sum_to_traced_wall(traced, workload):
    result = traced[workload]
    self_s = sum(v for k, v in result["layers"].items() if k.endswith(".self_s"))
    assert self_s <= result["wall_s"]
    assert result["wall_s"] - self_s <= SLACK_S + 0.05 * result["wall_s"]


def test_traced_verdicts_match_the_table(traced):
    for result in traced.values():
        assert all(not r.get("mismatch") for r in result["runs"])


@pytest.mark.parametrize("workload", ["catalog-light", "reduction-sweep"])
def test_counters_repeat_at_a_fixed_seed(traced, workload, tmp_path):
    again = traced_pass(workload, tmp_path)["layers"]
    first = traced[workload]["layers"]
    counters = [name for name in first if run.unit_of(name) != "s"]
    assert counters
    assert {n: first[n] for n in counters} == {n: again[n] for n in counters}


def test_ref_clock_keeps_its_bursts_apart():
    clock = refclock.RefClock()
    clock.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 3 * refclock.PERIOD_S:
        pass
    clock.stop()
    assert len(clock.bursts) >= 4  # the start, at least two alarms, the stop
    assert clock.busy_s > sum(clock.bursts)  # the warm-up is busy time too
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_tally_counts_crashes_as_failed_but_not_wrong():
    results = [{"runs": [{"scenario": "a", "error": "AttributeError: x", "mismatch": None},
                         {"scenario": "b", "error": None, "mismatch": None},
                         {"scenario": "c", "error": None, "mismatch": "digest"}]}]
    attempted, failed, wrong = run.tally(results)
    assert (attempted, failed) == (3, 2)
    assert wrong == ["c: digest"]


def test_untraced_run_prints_the_end_to_end_metrics():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalog-light",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "error_rate" in proc.stdout


@pytest.mark.parametrize("argv", [
    ["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"],
    ["--workload", "catalog-light", "--seed", "x", "--seconds", "1", "--trace", "0"],
    ["--workload", "catalog-light", "--seed", "1", "--seconds", "0", "--trace", "0"],
    ["--workload", "catalog-light", "--seed", "1", "--seconds", "1", "--trace", "2"],
])
def test_usage_errors_exit_2(argv):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr and not proc.stdout


def test_refuses_to_run_without_the_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalog-light",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout
