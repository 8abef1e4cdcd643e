"""The runner's check table: pinned canonical reports, filter closure,
skipped records, contained failures and deterministic failure order."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from quantbench import catalog, hamiltonian, liealg, reduce
from quantbench.bundles import curvature
from quantbench.cli import main
from quantbench.runner import CHECKS, PRODUCER, STAGES, run_scenario

ROOT = Path(__file__).resolve().parent.parent

# SHA-256 of Report.canonical_json() at the default filter and seed.
PINNED = [
    ("pair-groupoid-flat", None, "2fbe39c24eab6340919c2adec2cfc85f9dd8fdad41b78a6a2866edce1d52fdbb"),
    ("s1-plane-action", None, "d0a2b6fd769be92e1bb9103d94ad681b3a2d0b2d3f0d5a2eb8ceb0db786c9812"),
    ("sphere-family", 1, "3feb6aca2194f55f8a05ba2790dcd2515a99a4f9f3655cd8b585dc30c17dc39a"),
    ("sphere-family", 2, "68a6852b187ecaa6c77bbe5ef7b450d2778185f8c4cf1f40263b8e7757939160"),
    ("foliation-flat", None, "2a4377db558d4b2984a1f1e996c81578753651be447de62a4ebbcd5bf44041c0"),
    ("gauge-u1-char-n", 0, "220cd8d1f704255ccf70113ac4febb37206fbe033a2554da0ad378cfedd83fa3"),
    ("gauge-u1-char-n", 1, "592a25e5f864215521972b4f2a2049c8f61519271320fb289d1fa660909bfb45"),
    ("gauge-u1-char-n", 2, "235271fdb4de76fe1e908528bcb0c32982206c83546c8a68833257bd374413a7"),
    ("u1-rotation-reduction-k", 1,
     "7457a47c33ad432f9975f367a9974bd7cd7004ab9c0fb0802a23bbdaa4d3fab9"),
    ("u1-rotation-reduction-k", 2,
     "c23ff154eafda90c2870e0a5027fa6c466bc0f470b7a09d61424a08139e1bb57"),
    ("su2-orbit-k", 0, "effa1eddcf2dce490af4ad167af9b760638acb4031aa1b789b6283eb68f4cfeb"),
    ("gauge-su2-k", 0, "d648370f87e2dff740dc4543504857cdc3f2a7621501f986b8458b5ad01ccc2a"),
]


@pytest.mark.parametrize("name,level,digest", PINNED)
def test_canonical_report_is_pinned(name, level, digest):
    text = run_scenario(catalog.build_scenario(name, level)).canonical_json()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_table_matches_the_bench_stage_table_and_produces_before_reading():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench/workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    expected = dict(workloads.STAGE_OF_CHECK)
    del expected["scenario-note"]
    assert {c.id: c.stage for c in CHECKS} == expected and len(CHECKS) == len(expected)
    assert STAGES == workloads.STAGES
    position = {c.id: i for i, c in enumerate(CHECKS)}
    assert all(position[PRODUCER[name]] < i
               for i, check in enumerate(CHECKS) for name in check.needs + check.uses)


PREREQUISITES = ["bundle-data", "complex-structure", "holomorphic-dimension", "quantization"]


@pytest.mark.parametrize("selection,expected", [
    ("reduce", PREREQUISITES + ["zero-level", "internal-quotient", "descent-obstruction",
                                "quantum-projector", "qr-comparison"]),
    ("quantization", PREREQUISITES),
    ("qr-comparison", PREREQUISITES + ["zero-level", "internal-quotient", "descent-obstruction",
                                       "quantum-projector", "qr-comparison"]),
])
def test_filter_runs_prerequisites(selection, expected, tmp_path):
    out = tmp_path / "report.json"
    assert main(["run", "u1-rotation-reduction-2", "--checks", selection,
                 "--format", "json", "--out", str(out)]) == 0
    records = json.loads(out.read_text())["records"]
    assert [r["check"] for r in records] == expected
    assert {r["status"] for r in records} == {"pass"}


@pytest.mark.parametrize("selection", ["bogus-check", "quantize,bogus-stage"])
def test_unknown_check_exits_two(selection, capsys):
    assert main(["run", "u1-rotation-reduction-2", "--checks", selection]) == 2
    assert "unknown check or stage" in capsys.readouterr().err
    assert main(["run", "no-such-scenario"]) == 2
    assert "unknown scenario: no-such-scenario" in capsys.readouterr().err
    for argv, declared in ((["su2-orbit-k", "--level", "-1"], "levels 0, 1, 2, 3, 4"),
                           (["gauge-u1-char-n", "--level", "99"], "levels 0, 1, 2"),
                           (["su2-orbit-9"], "levels 0, 1, 2, 3, 4"),
                           (["pair-groupoid-flat", "--level", "3"], "no levels"),
                           (["su2-orbit-2", "--level", "3"], "su2-orbit-2 names level 2"),
                           (["sphere-2"], "unknown scenario: sphere-2")):
        assert main(["run", *argv]) == 2
        assert declared in capsys.readouterr().err


def test_concrete_name_is_the_family_stem_and_level():
    assert catalog.build_scenario("sphere-family-2").level == 2
    assert catalog.build_scenario("su2-orbit-2", 2).name == "su2-orbit-2"
    assert catalog.build_scenario("gauge-u1-char-1").scenario.name == "gauge-u1-char-1"


# SHA-256 of the controls' canonical reports, keyed by scenario name so that
# the parametrized test ids stay as they are.
CONTROL_DIGESTS = {
    "control-flipped-momentum-1":
        "91adc088922420ee3d053181025b7999164f5411e97af60d4bf7c23eb1f1cdbf",
    "control-imaginary-momentum-1":
        "dda656c471df07af2f47e6a6174e6e067800651c64227f2663fcbfc3cfd206d0",
}


@pytest.mark.parametrize("factory,fails", [
    (catalog.control_flipped_momentum, ("internal-momentum", "representation-flatness")),
    (catalog.control_imaginary_momentum, ("representation-hermitian",)),
])
def test_negative_control_fails_and_skips_downstream(factory, fails):
    report = run_scenario(factory(1))
    digest = hashlib.sha256(report.canonical_json().encode()).hexdigest()
    assert digest == CONTROL_DIGESTS[report.scenario_name]
    records = {r.check_id: r for r in report.records}
    assert all(records[c].status == "fail" for c in fails + ("quantization",))
    for check_id in ("gram-positivity", "matrix-commutation", "infinitesimal-unitarity"):
        assert records[check_id].status == "skipped"
        assert records[check_id].notes == ["needs representation from quantization, which failed"]


def test_unexpected_exception_is_a_failed_record(monkeypatch):
    def broken(scenario):
        raise RuntimeError("boom")
    monkeypatch.setattr(hamiltonian, "internal_momentum_check", broken)
    report = run_scenario("pair-groupoid-flat")
    record = next(r for r in report.records if r.check_id == "internal-momentum")
    assert (record.status, record.failures) == ("fail", [("RuntimeError", "boom")])
    assert report.records[-1].check_id == "scenario-note"  # the run went on


def test_each_validation_runs_once_in_the_table(monkeypatch):
    calls = Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        # every module that binds the function, so a direct import is counted too
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "quantbench"]
        for module in [owner, *modules]:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)

    count(liealg.ActionMap, "morphism_report")
    count(hamiltonian, "prequantization_condition_check")
    count(hamiltonian, "quantization_condition_check")
    for name in ("descent_obstruction_check", "quantum_fixed_subspace", "internal_mw_quotient"):
        count(reduce, name)
    validations = {"morphism_report": 1, "prequantization_condition_check": 1,
                   "quantization_condition_check": 1}
    reduction = {**validations, "descent_obstruction_check": 1, "quantum_fixed_subspace": 1,
                 "internal_mw_quotient": 1}
    for name, level, expected in (("pair-groupoid-flat", None, validations),
                                  ("gauge-u1-char-n", 1, validations),
                                  ("u1-rotation-reduction-k", 1, reduction),
                                  ("u1-rotation-reduction-k", 2, reduction)):
        calls.clear()
        scenario = catalog.build_scenario(name, level)
        assert calls["morphism_report"] == 0
        run_scenario(scenario)
        assert calls == expected


def test_curvature_is_computed_once_per_bundle():
    bundle = catalog.o_bundle(catalog.sphere_atlas(), 1)
    assert curvature(bundle) is curvature(bundle)


def test_report_keeps_saved_anchor(tmp_path, capsys):
    path = tmp_path / "saved.json"
    path.write_text(json.dumps({"scenario": "saved", "records": [
        {"check": "curvature-match", "anchor": "anchor as saved", "status": "pass"}]}))
    assert main(["report", str(path)]) == 0
    assert "[anchor as saved]" in capsys.readouterr().out


def test_presymplectic_failure_order_ignores_hash_seed():
    code = ("import json; from quantbench import catalog, hamiltonian; "
            "s = catalog.su2_orbit_scenario(0); "
            "print(json.dumps(hamiltonian.presymplectic_check(s.presymplectic).failures))")
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    outputs = [json.loads(subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True, text=True,
        env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)).stdout) for seed in "12"]
    assert outputs[0] == outputs[1]
    assert [f[1] for f in outputs[0] if f[0] == "nondegeneracy"] == [
        "chart N: determinant vanishes", "chart S: determinant vanishes"]
