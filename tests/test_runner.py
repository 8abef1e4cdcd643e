"""The runner's check table: pinned canonical reports, filter closure,
skipped records, contained failures and deterministic failure order."""

import ast
import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from quantbench import bundles, catalog, hamiltonian, liealg, reduce, runner
from quantbench.bundles import curvature
from quantbench.cli import main
from quantbench.hamiltonian import ActionScenario
from quantbench.runner import CHECKS, PRODUCER, STAGES, RunContext, run_scenario

ROOT = Path(__file__).resolve().parent.parent


def _load(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


catalog_digests = _load(ROOT / "tools/catalog_digests.py")
# SHA-256 of Report.canonical_json() for every run of the catalog sweep, at the
# default filter and seed: the one list, kept by tools/catalog_digests.py.  The
# reports do not depend on the string-hash seed, so pytest's own seed will do.
DIGESTS = dict(line.split(": ") for line in
               (ROOT / "tools/catalog_digests.txt").read_text().splitlines())


def _run_id(label):
    """Test id `<scenario>-<level>-<digest>`, level `None` for a run without one."""
    name, _, level = label.partition(" ")
    return f"{name}-{level or None}-{DIGESTS.get(label)}"


@pytest.fixture(scope="module")
def report_of():
    """The report of a run of the sweep, by label: each run is made once per
    module, however many tests read it."""
    reports = {}

    def report(label, build):
        if label not in reports:
            reports[label] = run_scenario(build())
        return reports[label]
    return report


@pytest.mark.parametrize("label,build", [
    pytest.param(label, build, id=_run_id(label)) for label, build in catalog_digests.runs()])
def test_canonical_report_is_pinned(label, build, report_of):
    text = report_of(label, build).canonical_json()
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS.get(label)


def test_reports_do_not_depend_on_the_order_variables_are_first_met():
    """Monomials pack each variable's exponent at a position fixed by the
    variable's first use in the process.  A fresh process that meets unrelated
    names first, then runs three sweep runs in reverse sweep order, must still
    produce the pinned reports."""
    labels = {"control_imaginary_momentum(1)": "catalog.control_imaginary_momentum(1)",
              "u1-rotation-reduction-k 2": "catalog.build_scenario('u1-rotation-reduction-k', 2)",
              "su2-orbit-k 1": "catalog.build_scenario('su2-orbit-k', 1)"}
    code = "\n".join([
        "import hashlib",
        "from quantbench import catalog",
        "from quantbench.exprs import PolyExpr",
        "from quantbench.runner import run_scenario",
        "for name in ('zeta', 'aa', 'm1', '__w', 'q7'):",
        "    PolyExpr.var(name)",
        *(f"print(hashlib.sha256(run_scenario({build}).canonical_json().encode()).hexdigest())"
          for build in labels.values())])
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=path)).stdout
    assert out.split() == [DIGESTS[label] for label in labels]


def test_the_runtime_needs_only_the_standard_library():
    """Runs through every stage, the su(2) and u(1) gauge twists included,
    import neither scipy nor numpy, nor the modules that load on demand
    (`integrality`, `groups`), and the package declares no runtime
    dependency."""
    code = "\n".join([
        "import sys",
        "from quantbench import catalog",
        "from quantbench.runner import run_scenario",
        "for name, level in (('su2-orbit-k', 1), ('u1-rotation-reduction-k', 2), "
        "('gauge-su2-k', 1), ('gauge-u1-char-n', 1)):",
        "    assert not run_scenario(catalog.build_scenario(name, level)).failed",
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'numpy')))",
        "print(sorted(m for m in sys.modules",
        "             if m in ('quantbench.integrality', 'quantbench.groups')))"])
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=path)).stdout
    assert out.split() == ["[]", "[]"]
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []


def test_every_package_name_resolves_and_an_unknown_one_does_not():
    """The names `quantbench` exported when it imported every module still
    import from it, those of the modules that load on demand included."""
    import quantbench
    from quantbench import (  # noqa: F401
        ActionMap, ActionScenario, Ad, AlgebroidModel, Chart, CheckResult, Cochain,
        CohomologyClass, ComplexStructureData, DifferentialForm, ExactScalar, FiberedAtlas,
        GaugeScenario, GoodCover, GroupElement, IntegralityReport, KostantOperator,
        LineBundleData, MomentumMapRep, OverlapFunction, PolyExpr, PresymplecticData,
        PrincipalBundleData, QuantizationResult, QuantumReduction, RationalExpr,
        ReducedSpace, Report, SectionRep, Transition, VectorField, ZeroLevelData,
        action_algebroid, algebroid_differential, build_gauge_scenario, build_scenario,
        cech_delta, chern_class_algebroid, coAd, cohomology_compute,
        connection_equivariance_check, construct_from_integral_class, curvature,
        derham_to_cech, descent_obstruction_check, equivariance_check, exterior_derivative,
        gauge_momentum_verify, glue_check, holomorphic_solve, induced_representation,
        inner_product, integrality_test, integrate_representation, interior_product,
        internal_momentum_check, internal_mw_quotient, kostant_operator, lie_algebra,
        lie_derivative, list_scenarios, parse_expr, perturb, pic_dual, pic_tensor,
        poincare_primitive, polarization_equivariance_check,
        prequantization_condition_check, presymplectic_check, pullback, qr_commute_check,
        quantization_condition_check, quantization_isomorphism_check, quantum_fixed_subspace,
        rational, rep_flatness_check, rep_hermitian_check, run_scenario, su2,
        u1, validate_bundle, __version__)
    from quantbench import groups, integrality
    assert (Cochain, construct_from_integral_class, poincare_primitive) == \
        (integrality.Cochain, integrality.construct_from_integral_class,
         integrality.poincare_primitive)
    assert (GroupElement, Ad, coAd) == (groups.GroupElement, groups.Ad, groups.coAd)
    with pytest.raises(AttributeError, match="no_such_name"):
        quantbench.no_such_name


def test_table_matches_the_bench_stage_table_and_produces_before_reading():
    workloads = _load(ROOT / "perfbench/workloads.py")
    expected = dict(workloads.STAGE_OF_CHECK)
    del expected["scenario-note"]
    assert {c.id: c.stage for c in CHECKS} == expected and len(CHECKS) == len(expected)
    assert STAGES == workloads.STAGES
    position = {c.id: i for i, c in enumerate(CHECKS)}
    assert all(position[PRODUCER[name]] < i
               for i, check in enumerate(CHECKS) for name in check.needs + check.uses)


PREREQUISITES = ["bundle-data", "curvature-match", "complex-structure", "holomorphic-dimension",
                 "quantization"]


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
                           (["su2.json", "--level", "3"], "--level applies to catalog names"),
                           (["sphere-2"], "unknown scenario: sphere-2")):
        assert main(["run", *argv]) == 2
        assert declared in capsys.readouterr().err


def test_concrete_name_is_the_family_stem_and_level():
    assert catalog.build_scenario("sphere-family-2").level == 2
    assert catalog.build_scenario("su2-orbit-2", 2).name == "su2-orbit-2"
    assert catalog.build_scenario("gauge-u1-char-1").name == "gauge-u1-char-1"


def test_every_build_is_an_action_scenario():
    """Every family at every level, and every other run of the sweep, builds
    one `ActionScenario`.  A gauge construction hangs off its scenario at
    `.gauge`, keeps its fiber as an `ActionScenario` and links back to
    nothing."""
    for label, build in catalog_digests.runs():
        scenario = build()
        assert isinstance(scenario, ActionScenario), label
        assert (scenario.gauge is not None) == label.startswith("gauge"), label
        if scenario.gauge is not None:
            assert isinstance(scenario.gauge.fiber, ActionScenario), label
            assert not hasattr(scenario.gauge, "scenario"), label


@pytest.mark.parametrize("factory,fails", [
    (catalog.control_flipped_momentum, ("internal-momentum", "representation-flatness")),
    (catalog.control_imaginary_momentum, ("representation-hermitian",)),
])
def test_negative_control_fails_and_skips_downstream(factory, fails, report_of):
    report = report_of(f"{factory.__name__}(1)", lambda: factory(1))
    digest = hashlib.sha256(report.canonical_json().encode()).hexdigest()
    assert digest == DIGESTS[f"{factory.__name__}(1)"]
    records = {r.check_id: r for r in report.records}
    assert all(records[c].status == "fail" for c in fails + ("quantization",))
    for check_id in ("gram-positivity", "matrix-commutation", "infinitesimal-unitarity"):
        assert records[check_id].status == "skipped"
        assert records[check_id].notes == ["needs representation from quantization, which failed"]


CONTROL_FAILS = ("internal-momentum", "prequantization-condition", "quantization-condition",
                 "representation-flatness", "connection-equivariance", "chern-witness",
                 "quantization")


@pytest.mark.parametrize("control,also_fails", [
    ("control_flipped_momentum", "coadjoint-equivariance"),
    ("control_scaled_momentum", "coadjoint-equivariance"),
    ("control_imaginary_momentum", "representation-hermitian"),
])
def test_control_fails_and_skips_exactly_its_rows(control, also_fails, report_of):
    """Each control fails eight rows and skips three.  An operator row's
    failure names the generator pair or generator and the patch."""
    label = f"{control}(1)"
    report = report_of(label, lambda: getattr(catalog, control)(1))
    status = {r.check_id: r.status for r in report.records}
    assert {c for c, s in status.items() if s == "fail"} == {*CONTROL_FAILS, also_fails}
    assert {c for c, s in status.items() if s == "skipped"} == \
        {"gram-positivity", "matrix-commutation", "infinitesimal-unitarity"}
    names = "e1|e2|e3"
    shapes = {"representation-flatness": rf"({names}),({names})@patch (N|S)",
              "representation-hermitian": rf"({names})@patch (N|S)",
              "connection-equivariance": rf"({names})@patch (N|S)"}
    for record in report.records:
        if record.check_id in shapes and record.status == "fail":
            assert all(re.fullmatch(shapes[record.check_id], label)
                       for label, _ in record.failures), record.failures


@pytest.mark.parametrize("label", ["gauge-su2-k 1", "control_flipped_momentum(1)",
                                   "control_scaled_momentum(1)",
                                   "control_imaginary_momentum(1)"])
def test_reports_do_not_depend_on_the_seed(label):
    build = dict(catalog_digests.runs())[label]
    texts = {run_scenario(build(), seed=seed).canonical_json() for seed in (1, 4242)}
    assert len(texts) == 1
    assert hashlib.sha256(texts.pop().encode()).hexdigest() == DIGESTS[label]


def test_no_check_draws_from_an_rng():
    """The run context carries no RNG, and the modules of the check table do
    not import `random`."""
    assert not hasattr(RunContext(catalog.pair_groupoid_scenario()), "rng")
    for module in (runner, bundles, hamiltonian):
        tree = ast.parse(Path(module.__file__).read_text())
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names}
        imported |= {node.module for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.level == 0}
        assert "random" not in imported, module.__name__


def test_failed_curvature_match_skips_the_operator_checks():
    scenario = catalog.build_scenario("su2-orbit-k", 2)
    scenario.bundle = catalog.o_bundle(scenario.atlas, 1)
    records = {r.check_id: r for r in run_scenario(scenario).records}
    residual = (curvature(scenario.bundle) - scenario.presymplectic.omega_tilde).simplify()
    assert records["curvature-match"].status == "fail"
    assert records["curvature-match"].failures == [("curvature", repr(residual))]
    for check_id in ("representation-flatness", "representation-hermitian",
                     "connection-equivariance", "quantization"):
        assert records[check_id].status == "skipped"
        assert records[check_id].notes == ["needs operators from curvature-match, which failed"]


def test_unexpected_exception_is_a_failed_record(monkeypatch):
    def broken(scenario):
        raise RuntimeError("boom")
    monkeypatch.setattr(hamiltonian, "internal_momentum_check", broken)
    report = run_scenario(catalog.build_scenario("pair-groupoid-flat"))
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
    count(bundles, "kostant_operator")
    count(reduce.ZeroLevelData, "verify")
    validations = {"morphism_report": 1, "prequantization_condition_check": 1,
                   "quantization_condition_check": 1}
    bundled = {**validations, "kostant_operator": 1}
    reduction = {**bundled, "descent_obstruction_check": 1, "quantum_fixed_subspace": 1,
                 "internal_mw_quotient": 1, "verify": 1}
    for name, level, expected in (("pair-groupoid-flat", None, validations),
                                  ("gauge-u1-char-n", 1, validations),
                                  ("foliation-flat", None, bundled),
                                  ("u1-rotation-reduction-k", 1, reduction),
                                  ("u1-rotation-reduction-k", 2, reduction)):
        calls.clear()
        scenario = catalog.build_scenario(name, level)
        assert calls["morphism_report"] == 0
        run_scenario(scenario)
        assert calls == expected


@pytest.mark.parametrize("build", [lambda: catalog.gauge_su2_scenario(1),
                                   lambda: catalog.su2_orbit_scenario(1),
                                   lambda: catalog.control_flipped_momentum(1)],
                         ids=["gauge-su2-1", "su2-orbit-1", "control-flipped-momentum-1"])
def test_momentum_differential_is_built_once_per_run(monkeypatch, build):
    scenario = build()
    original = hamiltonian.momentum_differential
    built = []

    def counted(s):
        built.append(s)
        return original(s)
    # every module that binds it, so a direct import is counted too
    for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "quantbench"]:
        if getattr(module, "momentum_differential", None) is original:
            monkeypatch.setattr(module, "momentum_differential", counted)
    report = run_scenario(scenario)
    assert built == [scenario]
    readers = {"prequantization-condition", "differential-squares-to-zero", "chern-witness"}
    if scenario.gauge is not None:
        readers.add("gauge-momentum")
    assert readers <= {r.check_id for r in report.records}


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
