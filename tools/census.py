"""Call census of `src/quantbench`: which of its functions the catalog runs
reach, which only the Tier-1 tests reach, and which neither reaches.

It records every Python-level call into `src/quantbench` with
`sys.setprofile`, first over the 25 runs of `tools/catalog_digests.py`
(`runs()`, each through `run_scenario`), then over an in-process Tier-1 run
(`pytest -q tests`) unless `--runs-only` is given.  Only calls made in this
process are seen: the CLI subprocesses that some tests start are not, so a
function that only they reach is listed as reached by neither.

    python3 tools/census.py [--runs-only]

Each listed function is printed as `file:line qualified.name (N lines)`,
where N counts its `def` (with decorators) through its last line.  The
census takes a few minutes, since the profile hook slows every call; it is
not part of Tier-1 and its exit status is 0 whatever it finds.
"""

import argparse
import ast
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "quantbench"


def definitions():
    """{(path, qualname, first line): line count} for every `def` of the
    package; a decorated function starts at its first decorator, as its code
    object does."""
    out = {}

    def walk(path, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                out[(str(path), prefix + child.name, first)] = child.end_lineno - first + 1
                walk(path, child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(path, child, f"{prefix}{child.name}.")
            else:
                walk(path, child, prefix)
    for path in sorted(PACKAGE.glob("*.py")):
        walk(path, ast.parse(path.read_text()), "")
    return out


def record(action):
    """The keys of the package functions that `action()` calls."""
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)
    sys.setprofile(hook)
    try:
        result = action()
    finally:
        sys.setprofile(None)
    package = str(PACKAGE)
    keys = set()
    for code in codes:
        path = os.path.realpath(code.co_filename)
        if os.path.dirname(path) == package:
            keys.add((path, code.co_qualname, code.co_firstlineno))
    return keys, result


def catalog_runs():
    import catalog_digests
    from quantbench.runner import run_scenario
    for _, build in catalog_digests.runs():
        run_scenario(build()).canonical_json()


def tier1():
    import pytest
    return pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])


def show(title, keys, sizes):
    print(f"\n{title} ({len(keys)} functions, {sum(sizes[k] for k in keys)} lines):")
    for path, qualname, line in sorted(keys):
        print(f"  {os.path.basename(path)}:{line} {qualname} ({sizes[path, qualname, line]} lines)")


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="call census of src/quantbench over the catalog runs and Tier-1")
    parser.add_argument("--runs-only", action="store_true",
                        help="census the catalog runs only, without Tier-1")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    sizes = definitions()
    by_runs, _ = record(catalog_runs)
    by_tests, status = (set(), None) if args.runs_only else record(tier1)
    total = sum(sizes.values())
    print(f"\nsrc/quantbench: {len(sizes)} functions, {total} lines in functions")
    print(f"catalog runs reach {len(by_runs & sizes.keys())} functions")
    if not args.runs_only:
        print(f"Tier-1 reaches {len(by_tests & sizes.keys())} functions (pytest exit {status})")
    print("calls made in CLI subprocesses are not seen")
    show("reached by no catalog run" if args.runs_only else "reached by neither",
         sizes.keys() - by_runs - by_tests, sizes)
    if not args.runs_only:
        show("reached only by tests", (by_tests - by_runs) & sizes.keys(), sizes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
