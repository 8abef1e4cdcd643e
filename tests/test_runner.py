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
from collections.abc import Mapping
from fractions import Fraction
from pathlib import Path

import pytest

from quantbench import (bundles, catalog, cech, gauge, geometry, hamiltonian, liealg,
                        quantize, reduce, runner)
from quantbench.bundles import curvature
from quantbench.cli import main
from quantbench.exprs import PolyExpr, RationalExpr, parse_expr
from quantbench.hamiltonian import ActionScenario
from quantbench.runner import CHECKS, PRODUCER, STAGES, run_scenario
from quantbench.scalars import ExactScalar

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


def test_reports_do_not_depend_on_the_build_order():
    """Builds share each parsed text and the derivatives taken of it, and the
    two controls change the scenario `su2_orbit_scenario(1)` returns.  A
    fresh process builds and runs the su2-orbit benchmark workload's four
    scenarios, then builds and runs them again in reverse order: all eight
    reports must be the pinned ones."""
    labels = {"su2-orbit-k 0": "catalog.build_scenario('su2-orbit-k', 0)",
              "su2-orbit-k 1": "catalog.build_scenario('su2-orbit-k', 1)",
              "control_flipped_momentum(1)": "catalog.control_flipped_momentum(1)",
              "control_imaginary_momentum(1)": "catalog.control_imaginary_momentum(1)"}
    code = "\n".join([
        "import hashlib",
        "from quantbench import catalog",
        "from quantbench.runner import run_scenario",
        f"builds = [lambda: {', lambda: '.join(labels.values())}]",
        "for order in (builds, builds[::-1]):",
        "    scenarios = [build() for build in order]",
        "    for scenario in scenarios:",
        "        text = run_scenario(scenario).canonical_json()",
        "        print(hashlib.sha256(text.encode()).hexdigest())"])
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=path)).stdout
    forward = [DIGESTS[label] for label in labels]
    assert out.split() == forward + forward[::-1]


def test_the_parse_table_gives_the_parse_of_its_own_text():
    """`catalog._pe` parses each text once: a repeated text gives the same
    object, and texts that share a prefix keep their own values."""
    texts = ["0", "1", "-1", "x*y", "x*y^2", "x*y^2/(1+x)", "(1-x^2+y^2)/2",
             "(1+x^2-y^2)/2", "2*i/(twopii*(1+x^2+y^2)^2)"]
    parsed = [catalog._pe(text) for text in texts]
    for text, expr in zip(texts, parsed):
        assert expr == parse_expr(text), text
        assert catalog._pe(text) is expr


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
        u1, validate_bundle, zero_level_check, __version__)
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
    # a row that only `uses` the representation pulls in its producers too
    ("integrated-representation", PREREQUISITES + ["integrated-representation"]),
])
def test_filter_runs_prerequisites(selection, expected, tmp_path):
    out = tmp_path / "report.json"
    assert main(["run", "u1-rotation-reduction-2", "--checks", selection,
                 "--format", "json", "--out", str(out)]) == 0
    records = json.loads(out.read_text())["records"]
    assert [r["check"] for r in records] == expected
    assert {r["status"] for r in records} == {"pass"}
    full = run_scenario(catalog.build_scenario("u1-rotation-reduction-2")).to_json(with_timing=False)
    full = {r["check"]: r for r in json.loads(full)["records"]}
    assert [{k: v for k, v in r.items() if k != "seconds"} for r in records] == \
        [full[r["check"]] for r in records]


@pytest.mark.parametrize("build", [lambda: catalog.su2_orbit_scenario(1),
                                   lambda: catalog.gauge_su2_scenario(1),
                                   lambda: catalog.u1_rotation_scenario(2),
                                   lambda: catalog.control_flipped_momentum(1)],
                         ids=["su2-orbit-1", "gauge-su2-1", "u1-rotation-reduction-2",
                              "control-flipped-momentum-1"])
def test_a_filtered_record_is_the_full_runs(build):
    """For every check id, each record of the run filtered to it, the
    prerequisites' included, is the full run's record of that check: status,
    failures, notes and details.  Each filtered run starts from a scenario
    with nothing derived yet."""
    s = build()
    full = [r.to_dict(with_timing=False) for r in run_scenario(s).records]
    by_id = {r["check"]: r for r in full if r["check"] != "scenario-note"}
    compared, mismatches = 0, []
    for check in CHECKS:
        for record in run_scenario(s.replace(), checks=[check.id]).records:
            got = record.to_dict(with_timing=False)
            compared += 1
            if got != by_id.get(got["check"]) and \
                    not (got["check"] == "scenario-note" and got in full):
                mismatches.append((check.id, got["check"]))
    assert mismatches == [] and compared >= len(CHECKS)


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


# Values that are immutable by their own slots (`TestImmutability`) or by type.
_VALUES = (PolyExpr, RationalExpr, ExactScalar, str, int, float, bool, Fraction, type(None))


_CONTAINERS = (Mapping, list, tuple, set, frozenset)


def _held(value, path, seen):
    """(path, value) for every container and quantbench object reachable from
    `value`: through the inputs of a scenario, the attributes of every other
    quantbench object, and the keys and items of every container."""
    if isinstance(value, _VALUES) or id(value) in seen:
        return
    seen.add(id(value))
    yield path, value
    if isinstance(value, _CONTAINERS):
        pairs = value.items() if isinstance(value, Mapping) else enumerate(value)
        for key, item in pairs:
            yield from _held(key, f"{path}<key {key!r}>", seen)
            yield from _held(item, f"{path}[{key!r}]", seen)
        return
    assert type(value).__module__.startswith("quantbench."), (path, type(value))
    names = ActionScenario._INPUTS if isinstance(value, ActionScenario) else vars(value)
    for name in names:
        yield from _held(getattr(value, name), f"{path}.{name}", seen)


def _held_containers(value, path, seen):
    return ((p, v) for p, v in _held(value, path, seen) if isinstance(v, _CONTAINERS))


def _takes_a_write(container) -> bool:
    try:
        if isinstance(container, (set, frozenset)):
            container.add("written")
        else:
            key = next(iter(container), "written") if isinstance(container, Mapping) else 0
            container[key] = "written"
    except (TypeError, AttributeError):
        return False
    return True


@pytest.mark.parametrize("label,build", [
    pytest.param(label, build, id=_run_id(label)) for label, build in catalog_digests.runs()])
def test_every_stage_input_is_frozen(label, build):
    """Every mapping, sequence and set a scenario's inputs hold, nested form,
    field, pairing and cover tables included, refuses a write: what is derived
    from them and kept cannot go stale."""
    s = build()
    held = list(_held_containers(s, "scenario", set()))
    reached = {id(container) for _, container in held}
    tables = [s.atlas.transitions, s.model.anchor_fields, s.action.fields,
              s.presymplectic.omega_tilde.coefficients, *s.momentum.pairings]
    if s.bundle is not None:
        tables += [s.bundle.potentials, *(eta.coefficients for eta in s.bundle.potentials.values())]
    assert all(id(table) in reached for table in tables)
    assert [path for path, container in held if _takes_a_write(container)] == []


def _assignments_taken(obj) -> list:
    """The names of `obj`, each it holds and one new, whose assignment does
    not raise `AttributeError("<Class> is immutable")` or changes the value."""
    taken = []
    for name in [*vars(obj), "other"]:
        before = vars(obj).get(name)
        try:
            setattr(obj, name, "written")
        except AttributeError as exc:
            if str(exc) != f"{type(obj).__name__} is immutable":
                taken.append((name, str(exc)))
        else:
            taken.append(name)
        if vars(obj).get(name) is not before:
            taken.append((name, "changed"))
    return taken


@pytest.mark.parametrize("label,build", [
    pytest.param(label, build, id=_run_id(label)) for label, build in catalog_digests.runs()])
def test_every_held_object_refuses_assignment(label, build):
    """After a run, every quantbench object the scenario holds, in its inputs
    and in what it keeps, refuses assignment to each of its names and to a
    new one, through `geometry.Frozen`."""
    s = build()
    run_scenario(s)
    kept = {name: value for name, value in vars(s).items() if name not in ActionScenario._INPUTS}
    seen = set()
    objects = [(path, value) for path, value in
               (*_held(s, "scenario", seen), *_held(kept, "scenario", seen))
               if not isinstance(value, _CONTAINERS)]
    reached = {type(value).__name__ for _, value in objects}
    assert reached >= {"ActionScenario", "FiberedAtlas", "Chart", "AlgebroidModel",
                       "SectionRep", "ActionMap", "PresymplecticData", "DifferentialForm"}
    if label.startswith("u1-rotation-reduction"):
        assert reached >= {"KostantOperator", "HolomorphicBasis", "QuantizationResult",
                           "QuantumReduction", "ReducedSpace", "Descent"}
    assert [(path, taken) for path, value in objects
            if (taken := _assignments_taken(value))] == []


@pytest.mark.parametrize("build", [lambda: catalog.gauge_su2_scenario(1),
                                   lambda: catalog.u1_rotation_scenario(2)],
                         ids=["gauge-su2-1", "u1-rotation-reduction-2"])
def test_every_artifact_is_frozen(build):
    """What the scenario keeps for its checks (the Kostant operators, the
    holomorphic basis, the quantization, the fixed subspace, and the reduced
    space and descent) refuses assignment, and every container it holds
    refuses a write."""
    s = build()
    result, fixed = s.representation, s.fixed_subspace
    artifacts = [*s.operators, s.basis, result, fixed]
    if s.zero_level is not None:
        artifacts += [s.reduced, s.descent]
    assert {type(a).__name__ for a in artifacts} >= {
        "KostantOperator", "HolomorphicBasis", "QuantizationResult", "QuantumReduction"}
    assert [(type(a).__name__, taken) for a in artifacts if (taken := _assignments_taken(a))] == []
    held = [(path, container) for artifact in artifacts
            for path, container in _held_containers(artifact, type(artifact).__name__, set())]
    reached = {id(container) for _, container in held}
    tables = [result.basis.elements, result.gram, result.matrices, fixed.basis, fixed.matrix,
              fixed.pairing, fixed.gram, fixed.projector,
              *(vars(op)[name] for op in artifacts[:s.model.n]
                for name in ("_potentials", "_multipliers"))]
    assert all(id(table) in reached for table in tables)
    assert [path for path, container in held if _takes_a_write(container)] == []


def test_every_stage_class_is_frozen():
    """Every public class the eight stage modules define is a
    `geometry.Frozen`, whose `__setattr__` is the only one in those modules:
    a new class cannot skip the rule."""
    modules = (geometry, cech, liealg, hamiltonian, bundles, quantize, reduce, gauge)
    classes = [cls for module in modules for name, cls in vars(module).items()
               if isinstance(cls, type) and cls.__module__ == module.__name__
               and not name.startswith("_")]
    assert len(classes) >= 24
    assert [cls.__name__ for cls in classes if not issubclass(cls, geometry.Frozen)] == []
    assert [cls.__name__ for cls in classes if "__setattr__" in vars(cls)] == ["Frozen"]
    assert {module.__name__: Path(module.__file__).read_text().count("def __setattr__")
            for module in modules} == {module.__name__: int(module is geometry)
                                       for module in modules}


def test_a_pairing_written_after_a_run_raises_at_the_write():
    """A rewritten pairing would leave the kept d_A mu and fiber residuals of
    the run before stale; the write itself fails."""
    s = catalog.su2_orbit_scenario(1)
    run_scenario(s)
    with pytest.raises(TypeError):
        s.momentum.pairings[2]["N"] = -s.momentum.pairing(2)["N"]
    assert {r.status for r in run_scenario(s).records} == {"pass"}


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
    """The scenario a run reads carries no RNG, and the modules of the check
    table do not import `random`."""
    assert not hasattr(catalog.pair_groupoid_scenario(), "rng")
    for module in (runner, bundles, hamiltonian):
        tree = ast.parse(Path(module.__file__).read_text())
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names}
        imported |= {node.module for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.level == 0}
        assert "random" not in imported, module.__name__


def test_failed_curvature_match_skips_the_operator_checks():
    base = catalog.build_scenario("su2-orbit-k", 2)
    scenario = base.replace(bundle=catalog.o_bundle(base.atlas, 1))
    records = {r.check_id: r for r in run_scenario(scenario).records}
    residual = (curvature(scenario.bundle) - scenario.presymplectic.omega_tilde).simplify()
    assert records["curvature-match"].status == "fail"
    assert records["curvature-match"].failures == [("curvature", repr(residual))]
    for check_id in ("representation-flatness", "representation-hermitian",
                     "connection-equivariance", "quantization"):
        assert records[check_id].status == "skipped"
        assert records[check_id].notes == ["needs operators from curvature-match, which failed"]


@pytest.mark.parametrize("build,consumer", [
    (lambda: catalog.gauge_su2_scenario(1), "quantization-isomorphism"),
    (lambda: catalog.u1_rotation_scenario(2), "integrated-representation"),
], ids=["gauge-su2-1", "u1-rotation-reduction-2"])
def test_a_failed_quantization_skips_the_rows_that_use_it(monkeypatch, build, consumer):
    """A row that reads the representation where the scenario has one (its
    `uses`) is skipped once `quantization` fails, as the rows that need it are."""
    def broken(scenario):
        raise RuntimeError("boom")
    monkeypatch.setattr(quantize, "induced_representation", broken)
    records = {r.check_id: r for r in run_scenario(build()).records}
    assert records["quantization"].failures == [("RuntimeError", "boom")]
    assert records[consumer].status == "skipped"
    assert records[consumer].notes == ["needs representation from quantization, which failed"]


def test_unexpected_exception_is_a_failed_record(monkeypatch):
    def broken(scenario):
        raise RuntimeError("boom")
    monkeypatch.setattr(hamiltonian, "internal_momentum_check", broken)
    report = run_scenario(catalog.build_scenario("pair-groupoid-flat"))
    record = next(r for r in report.records if r.check_id == "internal-momentum")
    assert (record.status, record.failures) == ("fail", [("RuntimeError", "boom")])
    assert report.records[-1].check_id == "scenario-note"  # the run went on


def test_the_fiber_residuals_are_built_once_per_run(monkeypatch):
    """internal-momentum and quantization-condition read one residual per
    generator: on su2-orbit every generator is in the isotropy."""
    calls = Counter()
    original = hamiltonian.fiber_residual

    def counted(scenario, i):
        calls[i] += 1
        return original(scenario, i)
    monkeypatch.setattr(hamiltonian, "fiber_residual", counted)
    scenario = catalog.build_scenario("su2-orbit-k", 1)
    assert scenario.model.isotropy_indices == (0, 1, 2)
    records = {r.check_id: r for r in run_scenario(scenario).records}
    assert calls == {0: 1, 1: 1, 2: 1}
    assert records["internal-momentum"].status == records["quantization-condition"].status \
        == "pass"


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
    count(reduce, "zero_level_check")
    validations = {"morphism_report": 1, "prequantization_condition_check": 1,
                   "quantization_condition_check": 1}
    bundled = {**validations, "kostant_operator": 1}
    reduction = {**bundled, "descent_obstruction_check": 1, "quantum_fixed_subspace": 1,
                 "internal_mw_quotient": 1, "zero_level_check": 1}
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


ARTIFACT_BUILDERS = ((bundles, "kostant_operator"), (quantize, "holomorphic_solve"),
                     (quantize, "induced_representation"), (reduce, "quantum_fixed_subspace"),
                     (reduce, "descent_obstruction_check"), (reduce, "internal_mw_quotient"))


def _count_builders(monkeypatch) -> list:
    """(builder name, first argument) for each call of the artifact builders."""
    calls = []
    for module, name in ARTIFACT_BUILDERS:
        def counted(*args, _original=getattr(module, name), _name=name):
            calls.append((_name, args[0]))
            return _original(*args)
        monkeypatch.setattr(module, name, counted)
    return calls


def test_a_scenario_keeps_its_check_artifacts(monkeypatch):
    """A second run of one scenario builds none of the artifacts its checks
    read and gives the same report; `replace` builds each once again."""
    calls = _count_builders(monkeypatch)
    s = catalog.u1_rotation_scenario(2)
    first = run_scenario(s).canonical_json()
    once = Counter(name for _, name in ARTIFACT_BUILDERS)
    assert Counter(name for name, _ in calls) == once
    calls.clear()
    assert run_scenario(s).canonical_json() == first
    assert calls == []
    assert run_scenario(s.replace()).canonical_json() == first
    assert Counter(name for name, _ in calls) == once


def test_the_gauge_fiber_keeps_its_quantization(monkeypatch):
    """The quantization-isomorphism row quantizes the fiber once, and the
    fiber keeps it."""
    calls = _count_builders(monkeypatch)
    s = catalog.gauge_su2_scenario(1)
    fiber = s.gauge.fiber
    run_scenario(s)
    assert [arg for name, arg in calls if name == "induced_representation"] == [s, fiber]
    assert vars(fiber)["representation"] is fiber.representation
    run_scenario(s)
    assert [arg for name, arg in calls if name == "induced_representation"] == [s, fiber]


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
