"""One pass of a workload, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/one_pass.py --workload NAME --seed N
                                                 [--setup-only | --trace FILE]

Imports quantbench, builds every scenario of the workload, then runs each
through ``runner.run_scenario(seed=N)``, renders ``canonical_json()`` and
checks the verdicts against the expected-outcome table.  ``--setup-only``
stops after the builds.  ``--trace FILE`` installs the outside-in tracer
after the import, writes the spans to FILE and adds per-layer metrics.
An untraced full pass runs the reference clock of ``refclock.py``; its bursts
are left out of ``setup_s`` and ``wall_s``, and ``wall_ref`` is ``wall_s`` in
units of the clock's kernel.
Prints one JSON object.
"""

import time

PASS_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

from refclock import RefClock  # noqa: E402
from workloads import EXPECTED, STAGE_OF_CHECK, STAGES, WORKLOADS  # noqa: E402


def verdict(label, report, text):
    """Return None when `report` and its canonical JSON `text` match the
    expected table, else the reason."""
    expected = EXPECTED[label]
    statuses = {r.check_id: r.status for r in report.records}
    if "fails" in expected:
        missing = [c for c in expected["fails"] if statuses.get(c) != "fail"]
        return f"checks did not fail: {missing}" if missing else None
    if report.failed:
        return f"failed checks: {[r.check_id for r in report.failed]}"
    if report.summary != expected["summary"]:
        return f"summary {report.summary} != {expected['summary']}"
    digest = hashlib.sha256(text.encode()).hexdigest()
    accepted = expected["sha256"]
    if digest not in (accepted if isinstance(accepted, tuple) else (accepted,)):
        return f"canonical JSON digest {digest} not in {accepted}"
    return None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--trace", metavar="FILE")
    args = parser.parse_args()
    specs = WORKLOADS[args.workload]
    clock = None
    if not (args.trace or args.setup_only):
        clock = RefClock()
        clock.start()

    import quantbench
    from quantbench import catalog, runner
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer(quantbench)
        tracer.install()

    builds, scenarios = [], []
    for label, factory, factory_args in specs:
        t0 = time.perf_counter()
        scenarios.append(getattr(catalog, factory)(*factory_args))
        builds.append(time.perf_counter() - t0)
    setup_s = time.perf_counter() - PASS_START - (clock.busy_s if clock else 0.0)
    result = {"setup_s": setup_s, "quantbench": quantbench.__file__}
    if args.setup_only:
        print(json.dumps(result))
        return

    runs, reports, texts = [], [], []
    for index, ((label, _, _), scenario) in enumerate(zip(specs, scenarios)):
        if tracer is not None:
            tracer.trace_id = index + 1
        t0 = time.perf_counter()
        try:
            report = runner.run_scenario(scenario, seed=args.seed)
            texts.append(report.canonical_json())
        except Exception as exc:  # a crash is recorded as a failed run
            report = None
            texts.append(None)
            error = traceback.format_exception_only(exc)[-1].strip()
        seconds = time.perf_counter() - t0 + builds[index]
        reports.append(report)
        runs.append({"scenario": label, "seconds": seconds,
                     "error": error if report is None else None})
    wall_s = time.perf_counter() - PASS_START
    if clock is not None:
        wall_s -= clock.busy_s
        clock.stop()
        result["wall_ref"] = wall_s / clock.mean_s
        result["ref_bursts"] = len(clock.bursts)

    for run, report, text in zip(runs, reports, texts):
        if report is not None:
            run["mismatch"] = verdict(run["scenario"], report, text)
    result.update(wall_s=wall_s, runs=runs,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer is not None:
        layers = tracer.metrics()
        stage_s = dict.fromkeys(STAGES, 0.0)
        for check_id, seconds in tracer.check_seconds.items():
            stage = STAGE_OF_CHECK[check_id]
            if stage is not None:
                stage_s[stage] += seconds
        layers.update({f"runner.stage.{stage}.s": s for stage, s in stage_s.items()})
        # Every scenario of every workload has a row, 0 where it did not run.
        layers.update({f"scenario.{label}.s": 0.0
                       for specs in WORKLOADS.values() for label, _, _ in specs})
        layers.update({f"scenario.{run['scenario']}.s": run["seconds"] for run in runs})
        layers["trace.unaccounted_s"] = wall_s - sum(
            v for k, v in layers.items() if k.endswith(".self_s"))
        result["layers"] = layers
        tracer.write_spans(args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
