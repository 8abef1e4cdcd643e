"""Canonical-report digests of the whole catalog, checked against a saved list.

Runs every catalog family at every declared level, the gauge circle-rotation
construction at level 1 and the three momentum controls at level 1 (25 runs),
each at the default check filter and seed, and prints the SHA-256 of
`Report.canonical_json()` for each.  Below each digest it prints the seconds
that run's build and `run_scenario` took, and at the end the sweep's total.
The script re-executes itself under `PYTHONHASHSEED=1`, so the digests do not
depend on the caller's hash seed.

It compares the digests with `catalog_digests.txt` next to it and exits 1 on
any difference; the timing lines are never compared.  When that file is
missing, it writes it and exits 0: delete the file and run the script to
record new reference digests.

    python3 tools/catalog_digests.py

The test suite pins the same 25 runs: `tests/test_runner.py` builds them
through `runs()` and compares each with `catalog_digests.txt`.
"""

import hashlib
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "catalog_digests.txt"


def runs():
    """(label, zero-argument builder) for every run of the sweep."""
    from quantbench import catalog

    for family, spec in catalog.SCENARIO_FAMILIES.items():
        if spec["levels"] is None:
            yield family, lambda family=family: catalog.build_scenario(family)
        for level in spec["levels"] or ():
            yield f"{family} {level}", \
                lambda family=family, level=level: catalog.build_scenario(family, level)
    yield "gauge_u1_rotation_scenario(1)", lambda: catalog.gauge_u1_rotation_scenario(1)
    for control in ("control_flipped_momentum", "control_scaled_momentum",
                    "control_imaginary_momentum"):
        yield f"{control}(1)", lambda control=control: getattr(catalog, control)(1)


def main():
    if os.environ.get("PYTHONHASHSEED") != "1":
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED="1"))
    sys.path.insert(0, str(HERE.parent / "src"))
    from quantbench.runner import run_scenario

    lines = []
    sweep_s = 0.0
    for label, build in runs():
        start = time.perf_counter()
        text = run_scenario(build()).canonical_json()
        seconds = time.perf_counter() - start
        sweep_s += seconds
        lines.append(f"{label}: {hashlib.sha256(text.encode()).hexdigest()}")
        print(lines[-1], flush=True)
        print(f"  {seconds:.2f} s", flush=True)
    print(f"sweep: {sweep_s:.1f} s")
    if not REFERENCE.exists():
        REFERENCE.write_text("\n".join(lines) + "\n")
        print(f"wrote {REFERENCE.name}")
        return 0
    expected = REFERENCE.read_text().splitlines()
    mismatches = [(want, got) for want, got in zip(expected, lines) if want != got]
    if len(expected) != len(lines):
        mismatches.append((f"{len(expected)} runs", f"{len(lines)} runs"))
    for want, got in mismatches:
        print(f"MISMATCH: expected {want!r}, got {got!r}", file=sys.stderr)
    print(f"{len(lines) - len(mismatches)} of {len(lines)} digests match")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
