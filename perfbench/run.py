"""Time-to-verdict benchmark for quantbench.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  NAME is one of the workloads in
``workloads.py``, or ``all`` to run each of them in turn.  The load is one
process and one thread in a closed loop: each pass is a fresh interpreter
(``one_pass.py``) that imports quantbench, builds the workload's scenarios,
runs them one after another with ``seed=N`` and checks every verdict.

``--trace 0`` repeats passes while another one is expected to end within S
seconds (at least one pass), with ``SETUP_PROBES`` set-up-only passes before
and after them, and reports the end-to-end metrics as medians over passes.
Its time metric is ``wall_ref``, a pass's wall time in units of the
reference kernel of ``refclock.py`` timed inside the same pass, because the
host's speed drifts too much for seconds to compare across runs; ``wall_s``
in seconds is printed beside it.
``--trace 1`` repeats pairs of an untraced and a traced pass the same way and
reports the per-layer metrics of the traced passes; the counters must repeat
exactly across them.

Human-readable lines go first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``correct`` is false when a report contradicts the expected-outcome table; a
scenario run that raises counts in ``failed`` only.  Exits 2 on a usage
error, 1 when a pass cannot be run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
TRACE_DIR = HERE / "traces"
SETUP_PROBES = 2
RUN_LIMIT_S = 170.0  # a run must exit within 180 s


class PassError(Exception):
    pass


def run_pass(workload, seed, deadline, *mode):
    """Run one_pass.py in a fresh interpreter and return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # String hashing, and so dict and set layout, then depends on the seed alone.
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    cmd = [sys.executable, str(HERE / "one_pass.py"), "--workload", workload,
           "--seed", str(seed), *mode]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise PassError(f"{workload}: pass did not finish within the run's time limit")
    if proc.returncode != 0:
        raise PassError(f"{workload}: pass exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if Path(result["quantbench"]).resolve().parent.parent != SRC.resolve():
        raise PassError(f"imported {result['quantbench']}, not the checkout's quantbench")
    return result


def tally(results):
    """(attempted, failed, wrong) over the scenario runs of `results`."""
    runs = [run for result in results for run in result["runs"]]
    failed = sum(1 for run in runs if run["error"] or run.get("mismatch"))
    wrong = [f"{run['scenario']}: {run['mismatch']}" for run in runs if run.get("mismatch")]
    return len(runs), failed, wrong


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def unit_of(name):
    if name.endswith((".s", "_s")):
        return "s"
    return "ratio" if name.endswith("ratio") else "count"


def repeat(step, seconds):
    """Call `step` at least once, and again while another call is expected
    to end within `seconds` of the first; return the results."""
    start = time.monotonic()
    results, durations = [], []
    while not results or (time.monotonic() - start + statistics.median(durations)
                          <= seconds):
        began = time.monotonic()
        results.append(step())
        durations.append(time.monotonic() - began)
    return results


def measure(workload, seed, seconds, deadline):
    """Untraced run: end-to-end metrics."""
    def setup_probes():
        # Probes on both sides of the passes sample the machine at more
        # moments than one burst of probes would.
        return [run_pass(workload, seed, deadline, "--setup-only")["setup_s"]
                for _ in range(SETUP_PROBES)]

    setups = setup_probes()
    passes = repeat(lambda: run_pass(workload, seed, deadline), seconds)
    setups += [p["setup_s"] for p in passes] + setup_probes()
    attempted, failed, wrong = tally(passes)
    samples = {
        "wall_ref": ([p["wall_ref"] for p in passes], "ref"),
        "setup_s": (setups, "s"),
        "peak_rss_mb": ([p["peak_rss_mb"] for p in passes], "MB"),
    }
    shown = {"wall_s": ([p["wall_s"] for p in passes], "s"), **samples}
    for name, (values, unit) in shown.items():
        q1, q2, q3 = quartiles(values)
        print(f"{workload:<16} {name:<12} median {q2:.4f} {unit}  "
              f"q1 {q1:.4f}  q3 {q3:.4f}  n={len(values)}")
    print(f"{workload:<16} {'error_rate':<12} {failed / attempted:.4f} ratio  "
          f"({failed} failed of {attempted} scenario runs)")
    for run in passes[0]["runs"]:
        if run["error"]:
            print(f"{workload:<16} raised       {run['scenario']}: {run['error']}")
    for line in wrong:
        print(f"{workload:<16} WRONG        {line}")
    metrics = {name: {"value": statistics.median(values), "unit": unit}
               for name, (values, unit) in samples.items()}
    metrics["ok_rate"] = {"value": 1 - failed / attempted, "unit": "ratio"}
    return {"correct": not wrong, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def measure_traced(workload, seed, seconds, deadline):
    """Traced run: per-layer metrics, plus the tracing overhead."""
    TRACE_DIR.mkdir(exist_ok=True)
    span_file = TRACE_DIR / f"{workload}-seed{seed}.json"
    pairs = repeat(lambda: (run_pass(workload, seed, deadline),
                            run_pass(workload, seed, deadline, "--trace", str(span_file))),
                   seconds)
    plain, traced = [p for p, _ in pairs], [t for _, t in pairs]
    attempted, failed, wrong = tally(plain + traced)
    layers = [t["layers"] for t in traced]
    metrics = {}
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        unit = unit_of(name)
        if unit != "s" and len(set(values)) > 1:
            wrong.append(f"counter {name} differs across traced passes: {values}")
        metrics[name] = {"value": statistics.median(values), "unit": unit}
    overhead = (statistics.median(t["wall_s"] for t in traced) /
                statistics.median(p["wall_s"] for p in plain) - 1)
    metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    for name, metric in metrics.items():
        print(f"{workload:<16} {name:<44} {metric['value']:.6g} {metric['unit']}")
    print(f"{workload:<16} spans written to {span_file.relative_to(HERE.parent)}")
    for line in wrong:
        print(f"{workload:<16} WRONG {line}")
    return {"correct": not wrong, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (SRC / "quantbench" / "__init__.py").is_file():
        print(f"quantbench sources not found under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    run = measure_traced if args.trace else measure
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        deadline = time.monotonic() + RUN_LIMIT_S
        try:
            results[name] = run(name, args.seed, args.seconds, deadline)
        except PassError as exc:
            print(exc, file=sys.stderr)
            return 1
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
