"""Canonical-report digests of the whole catalog, checked against a saved list
under several hash seeds.

Runs every catalog family at every declared level, the gauge circle-rotation
construction at level 1 and the three momentum controls at level 1 (25 runs),
each at the default check filter and seed, and takes the SHA-256 of
`Report.canonical_json()` for each.  The sweep runs once in a fresh
interpreter for each `PYTHONHASHSEED` of `SEEDS` (0, 1, 2 and 3), one after
another, so a digest that follows the hash seed shows as a mismatch.  The
first sweep prints each digest and below it the seconds that run's build and
`run_scenario` took; every sweep prints its total and how many digests match.

It compares the digests with `catalog_digests.txt` next to it and exits 1
unless every sweep gives every reference digest; the timing lines are never
compared.  When that file is missing, the first sweep writes it and the
others are compared with it: delete the file and run the script to record
new reference digests.

    python3 tools/catalog_digests.py

The test suite pins the same 25 runs: `tests/test_runner.py` builds them
through `runs()` and compares each with `catalog_digests.txt`.
"""

import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "catalog_digests.txt"
SEEDS = ("0", "1", "2", "3")


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


def sweep():
    """Run every run of `runs()` in this process and print each digest line
    with its seconds, then the sweep's total."""
    sys.path.insert(0, str(HERE.parent / "src"))
    from quantbench.runner import run_scenario

    sweep_s = 0.0
    for label, build in runs():
        start = time.perf_counter()
        text = run_scenario(build()).canonical_json()
        seconds = time.perf_counter() - start
        sweep_s += seconds
        print(f"{label}: {hashlib.sha256(text.encode()).hexdigest()}", flush=True)
        print(f"  {seconds:.2f} s", flush=True)
    print(f"sweep: {sweep_s:.1f} s")


def main():
    if sys.argv[1:] == ["--sweep"]:
        sweep()
        return 0
    bad = 0
    for i, seed in enumerate(SEEDS):
        proc = subprocess.run([sys.executable, __file__, "--sweep"],
                              env=dict(os.environ, PYTHONHASHSEED=seed),
                              capture_output=True, text=True)
        output = proc.stdout.splitlines()
        if i == 0:
            print("\n".join(output))
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            print(f"PYTHONHASHSEED={seed}: the sweep failed (exit {proc.returncode})")
            bad += 1
            continue
        lines = [line for line in output if not line.startswith(("  ", "sweep:"))]
        if not REFERENCE.exists():
            REFERENCE.write_text("\n".join(lines) + "\n")
            print(f"wrote {REFERENCE.name}")
        expected = REFERENCE.read_text().splitlines()
        mismatches = [(want, got) for want, got in zip(expected, lines) if want != got]
        if len(expected) != len(lines):
            mismatches.append((f"{len(expected)} runs", f"{len(lines)} runs"))
        for want, got in mismatches:
            print(f"MISMATCH under PYTHONHASHSEED={seed}: expected {want!r}, got {got!r}",
                  file=sys.stderr)
        print(f"PYTHONHASHSEED={seed}: {output[-1]}, "
              f"{len(lines) - len(mismatches)} of {len(lines)} digests match")
        bad += bool(mismatches)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
