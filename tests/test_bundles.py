"""Line-bundle data, curvature, the integral-class construction, covariant
operators with momentum potentials, and the tensor/dual group structure."""

import copy
import re
from fractions import Fraction

import pytest

from quantbench.bundles import (
    KostantOperator,
    LineBundleData,
    TransitionValue,
    chern_class_algebroid,
    connection_equivariance_check,
    curvature,
    equivariance_pieces,
    flatness_pieces,
    hermitian_pieces,
    kostant_operator,
    pic_dual,
    pic_tensor,
    rep_flatness_check,
    rep_hermitian_check,
    trivial_bundle,
    validate_bundle,
)
from quantbench.catalog import (
    build_scenario,
    control_flipped_momentum,
    control_imaginary_momentum,
    control_scaled_momentum,
    foliation_flat_scenario,
    gauge_su2_scenario,
    o_bundle,
    omega_fs,
    sphere_atlas,
    two_chart_cover,
)
from quantbench.errors import CurvatureMismatchError, IntegralityError
from quantbench.exprs import RationalExpr, parse_expr
from quantbench.geometry import LEAF_J, LEAF_JTILDE, VectorField, commutator, interior_product
from quantbench.integrality import (
    construct_from_integral_class,
    sector_cover,
    sector_zigzag_data,
)
from quantbench.scalars import ExactScalar


@pytest.fixture(scope="module")
def atlas():
    return sphere_atlas()


class TestValidateBundle:
    def test_round_bundles(self, atlas):
        for k in (-1, 0, 1, 2, 3):
            assert validate_bundle(o_bundle(atlas, k)).ok

    def test_trivial_bundle(self, atlas):
        cover = two_chart_cover(atlas)
        assert validate_bundle(trivial_bundle(cover)).ok

    def test_mismatched_weights_fail(self, atlas):
        good = o_bundle(atlas, 1)
        bad = o_bundle(atlas, 2)
        bundle = LineBundleData(good.name, good.cover, good.transitions,
                                bad.metric_weights, good.potentials)  # O(1) with O(2) weights
        report = validate_bundle(bundle)
        assert not report.ok
        assert any(f[0] == "metric" for f in report.failures)

    def test_non_real_weight_fails(self, atlas):
        # i times the O(-1) weights: compatible on the overlap and with the
        # connection, but no metric, and the Gram matrix is then not Hermitian
        base = o_bundle(atlas, -1)
        bundle = LineBundleData(base.name, base.cover, base.transitions,
                                {"N": parse_expr("i*(1+x^2+y^2)"),
                                 "S": parse_expr("i*(1+u^2+v^2)")}, base.potentials)
        report = validate_bundle(bundle)
        assert not report.ok
        assert [f[0] for f in report.failures] == ["metric", "metric"]
        assert all("not real" in f[1] for f in report.failures)


class TestCurvature:
    def test_the_curvature_is_kept_by_an_immutable_bundle(self, atlas):
        bundle = o_bundle(atlas, 1)
        for name in [*vars(bundle), "other"]:
            with pytest.raises(AttributeError, match="LineBundleData is immutable"):
                setattr(bundle, name, None)
        assert curvature(bundle) is curvature(bundle)

    def test_chern_connection_curvature(self, atlas, orbit_scenarios):
        for k in (0, 1, 2, 3):
            bundle = o_bundle(atlas, k)
            validate_bundle(bundle)
            diff = curvature(bundle) - omega_fs(atlas, Fraction(k))
            assert diff.simplify().is_zero()

    def test_flat_bundle(self, atlas):
        bundle = trivial_bundle(two_chart_cover(atlas))
        validate_bundle(bundle)
        assert curvature(bundle).is_zero()

    def test_tensor_additivity(self, atlas):
        cover = two_chart_cover(atlas)
        a = o_bundle(atlas, 1, cover)
        b = o_bundle(atlas, 1, cover)
        product = pic_tensor(a, b)
        validate_bundle(product)
        diff = curvature(product) - omega_fs(atlas, Fraction(2))
        assert diff.simplify().is_zero()


class TestIntegralClassConstruction:
    def _build(self, atlas, level):
        cover = sector_cover(atlas, 3)
        primitives, overlaps, offsets = sector_zigzag_data(atlas, cover, level)
        return construct_from_integral_class(
            omega_fs(atlas, level, "full"), cover, primitives=primitives,
            overlap_functions=overlaps, branch_offsets=offsets)

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_round_trip(self, atlas, level):
        bundle = self._build(atlas, Fraction(level))
        assert validate_bundle(bundle).ok
        diff = curvature(bundle) - omega_fs(atlas, Fraction(level), "full")
        assert diff.simplify().is_zero()

    def test_zero_level_gives_trivial_data(self, atlas):
        bundle = self._build(atlas, Fraction(0))
        for key, value in bundle.transitions.items():
            assert (value.rational - 1).simplify().is_zero()
            assert value.exponent.angle_coeff.is_zero()

    @pytest.mark.parametrize("level", [Fraction(1, 2), Fraction(3, 2)])
    def test_non_integral_rejected(self, atlas, level):
        with pytest.raises(IntegralityError) as err:
            self._build(atlas, level)
        assert err.value.report is not None
        assert not err.value.report.integral


class TestTripleOverlapCocycle:
    """The cocycle identity of `validate_bundle` on the triples of the
    four-patch sector cover, from the zig-zag data with no integrality
    correction: transitions exp(-twopii f_jk)."""

    def _zigzag_bundle(self, atlas, level, offsets=True):
        cover = sector_cover(atlas, 3)
        primitives, overlaps, branch = sector_zigzag_data(atlas, cover, level)
        transitions = {pair: TransitionValue(f.chart, 1, f.scaled(-1))
                       for pair, f in overlaps.items()}
        return LineBundleData("zigzag", cover, transitions, {i: 1 for i in cover.index_set},
                              primitives, branch_offsets=branch if offsets else None)

    @pytest.mark.parametrize("level", [Fraction(1, 2), Fraction(3, 2)])
    def test_half_level_fails_the_exponent_sum(self, atlas, level):
        result = validate_bundle(self._zigzag_bundle(atlas, level))
        assert not result.ok
        [(kind, text)] = result.failures
        assert kind == "cocycle" and text.startswith("(0, 1, 3)")
        assert text.endswith(f": exponent sum {-level}")

    def test_angle_part_without_offsets(self, atlas):
        """The sector data's angle coefficients cancel on every triple, so the
        offsets are read only once the (0, 1) transition loses its angle part."""
        bundle = self._zigzag_bundle(atlas, Fraction(1), offsets=False)
        assert validate_bundle(bundle).ok
        changed = LineBundleData(bundle.name, bundle.cover,
                                 {**bundle.transitions, (0, 1): TransitionValue("N", 1, None)},
                                 bundle.metric_weights, bundle.potentials)
        cocycle = [text for kind, text in validate_bundle(changed).failures if kind == "cocycle"]
        assert cocycle == ["(0, 1, 2): angle part without offsets",
                           "(0, 1, 3): angle part without offsets"]


class TestKostantOperators:
    def test_vertical_weights(self, atlas, orbit_scenarios):
        # vertical generator on z^a: eigenvalue -i (a - k/2)
        for k in (1, 2, 3):
            scenario = orbit_scenarios[k]
            op = kostant_operator(scenario)[2]
            z = parse_expr("x - i*y")
            for a in range(k + 1):
                image = op.apply("N", z ** a).simplify()
                eigen = ExactScalar(0, -1) * ExactScalar(Fraction(2 * a - k, 2))
                assert (image - (z ** a) * eigen).simplify().is_zero()

    def test_zero_section_zero_operator(self, orbit_scenarios):
        scenario = orbit_scenarios[2]
        op = KostantOperator(scenario, scenario.model.section([0, 0, 0]))
        assert op.apply("N", parse_expr("x^2 - i*y")).simplify().is_zero()

    def test_flat_connection_example(self):
        # trivial bundle over a foliated chart: the operator is the flat
        # transport minus the momentum potential
        scenario = foliation_flat_scenario()
        op = kostant_operator(scenario)[1]
        f = parse_expr("x*w")
        manual = parse_expr("x*w").derivative("y") * 0 + \
            op.vector_part.derive(f, "F") + \
            parse_expr("twopii") * (parse_expr("x*(1+w^2)") -
                                    parse_expr("x*(1+w^2)")) * f
        assert (op.apply("F", f) - manual).simplify().is_zero()

    def test_curvature_mismatch_rejected(self, orbit_scenarios):
        scenario = orbit_scenarios[2]
        wrong = scenario.replace(bundle=o_bundle(scenario.atlas, 1))
        with pytest.raises(CurvatureMismatchError) as err:
            kostant_operator(wrong)
        assert not err.value.residual.is_zero()


class TestRepresentationChecks:
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_flatness_and_hermiticity(self, orbit_scenarios, k):
        scenario = orbit_scenarios[k]
        ops = kostant_operator(scenario)
        assert rep_flatness_check(scenario, ops).ok
        assert rep_hermitian_check(scenario, ops).ok

    def test_connection_equivariance(self, orbit_scenarios):
        scenario = orbit_scenarios[2]
        assert connection_equivariance_check(scenario, kostant_operator(scenario)).ok

    def test_flipped_momentum_breaks_flatness(self):
        bad = control_flipped_momentum(2)
        report = rep_flatness_check(bad, kostant_operator(bad))
        assert not report.ok

    def test_flipped_momentum_breaks_connection_equivariance(self):
        bad = control_flipped_momentum(2)
        report = connection_equivariance_check(bad, kostant_operator(bad))
        assert not report.ok

    def test_imaginary_momentum_breaks_hermiticity(self):
        bad = control_imaginary_momentum(2)
        report = rep_hermitian_check(bad, kostant_operator(bad))
        assert not report.ok

    def test_zero_operator_hermitian(self, orbit_scenarios):
        scenario = orbit_scenarios[0]
        assert rep_hermitian_check(scenario, kostant_operator(scenario)).ok


class TestPicardStructure:
    def test_tensor_square_is_degree_two(self, atlas):
        cover = two_chart_cover(atlas)
        a = o_bundle(atlas, 1, cover)
        product = pic_tensor(a, o_bundle(atlas, 1, cover))
        expected = (parse_expr("x - i*y")) ** 2
        diff = product.transition_value("N", "S").rational - expected
        assert diff.simplify().is_zero()

    def test_bundle_times_dual_is_trivial(self, atlas):
        a = o_bundle(atlas, 2)
        product = pic_tensor(a, pic_dual(a))
        assert validate_bundle(product).ok
        assert (product.transition_value("N", "S").rational - 1).simplify().is_zero()
        assert (product.weight("N") - 1).simplify().is_zero()
        assert curvature(product).is_zero()

    def test_dual_of_trivial_is_trivial(self, atlas):
        t = trivial_bundle(two_chart_cover(atlas))
        d = pic_dual(t)
        assert validate_bundle(d).ok
        assert curvature(d).is_zero()

    def test_curvature_additive_randomized_degrees(self, atlas):
        for j, k in ((1, 2), (2, 3)):
            cover = two_chart_cover(atlas)
            total = pic_tensor(o_bundle(atlas, j, cover), o_bundle(atlas, k, cover))
            validate_bundle(total)
            diff = curvature(total) - omega_fs(atlas, Fraction(j + k))
            assert diff.simplify().is_zero()

    def test_tensor_associative_up_to_simplification(self, atlas):
        cover = two_chart_cover(atlas)
        a, b, c = (o_bundle(atlas, k, cover) for k in (1, 2, 1))
        left = pic_tensor(pic_tensor(a, b), c)
        right = pic_tensor(a, pic_tensor(b, c))
        key = ("N", "S")
        diff = left.transition_value(*key).rational - \
            right.transition_value(*key).rational
        assert diff.simplify().is_zero()
        for idx in cover.index_set:
            assert (left.weight(idx) - right.weight(idx)).simplify().is_zero()
            assert (left.potential(idx) - right.potential(idx)).is_zero()


class TestChernWitness:
    def test_catalog_scenarios_have_witness(self, orbit_scenarios):
        for k in (1, 2):
            scenario = orbit_scenarios[k]
            assert chern_class_algebroid(scenario).ok

    def test_withheld_momentum_reports_no_witness(self, orbit_scenarios):
        scenario = orbit_scenarios[2]
        stripped = scenario.replace(momentum=None)
        report = chern_class_algebroid(stripped)
        assert report.status == "hypotheses-not-met"
        assert any("no witness" in n for n in report.notes)

    def test_gauge_witness_is_connection_pairing(self, gauge_su2_1):
        assert chern_class_algebroid(gauge_su2_1).ok

    def test_witness_reads_the_bundle_curvature(self):
        """On the level-1 orbit with the degree-2 bundle, the momentum still
        satisfies d_A mu = -alpha^* omega_tilde, but alpha^* K = 2 alpha^*
        omega_tilde, so the witness fails on every pair with nonzero alpha^*
        omega_tilde while the prequantization condition passes."""
        from quantbench.runner import run_scenario
        base = build_scenario("su2-orbit-k", 1)
        scenario = base.replace(bundle=o_bundle(base.atlas, 2))
        records = {r.check_id: r for r in run_scenario(scenario).records}
        assert records["prequantization-condition"].status == "pass"
        assert records["curvature-match"].status == "fail"
        witness = records["chern-witness"]
        assert witness.status == "fail"
        assert [label for label, _ in witness.failures] == ["e1,e2", "e1,e3", "e2,e3"]
        assert witness.notes == ["witness: the declared momentum pairing exhibits "
                                 "alpha^*K as exact"]


# ---------------------------------------------------------------------------
# the exact operator rows: against the direct composition of the operators,
# and under fiber-direction perturbations of gauge-su2-1's operators
# ---------------------------------------------------------------------------

TWOPII = RationalExpr.var("twopii")


def _test_functions(chart):
    """1, each coordinate of `chart` and one fixed polynomial in all of them."""
    coords = [RationalExpr.var(c) for c in chart.coords]
    fixed = RationalExpr.const(Fraction(3, 2))
    for k, c in enumerate(coords):
        fixed = fixed + c ** (k % 3 + 1) * (k + 2) + c * coords[k - 1] * Fraction(-1, k + 3)
    return [RationalExpr.const(1), *coords, fixed]


def _apply_field(table, f):
    """sum_c table[c] * d_c f for a chart's component table."""
    return sum((v * f.derivative(c) for c, v in table.items()), RationalExpr.zero())


def _nabla(bundle, idx, v, f):
    """nabla_v f = v(f) + twopii eta_idx(v) f in the idx-th frame."""
    chart = bundle.patch_chart(idx)
    pot = interior_product(v, bundle.potential(idx)).coefficient(chart, ())
    return v.derive(f, chart) + pot * TWOPII * f


EPS = Fraction(1, 7)
PERTURBED = 4  # e3, the rotation about the fiber axis


def _with_operator(ops, index, **changes):
    op = copy.copy(ops[index])
    op.__dict__.update(changes)
    return ops[:index] + (op,) + ops[index + 1:]


def _y_shifted_vector_part(scenario, ops, eps=EPS):
    """An extra eps d/dy, on chart N only, in e3's vector part."""
    extra = VectorField(scenario.atlas, LEAF_JTILDE, {"N": {"y": eps}})
    return _with_operator(ops, PERTURBED, vector_part=ops[PERTURBED].vector_part + extra)


def _imaginary_vector_part(scenario, ops):
    """An extra (i/7) d/dy, on chart N only, in e3's vector part."""
    return _y_shifted_vector_part(scenario, ops, ExactScalar(0, EPS))


def _shifted_potential(scenario, ops):
    """e3's potential on patch N shifted by EPS y."""
    potentials = dict(ops[PERTURBED]._potentials)
    potentials["N"] = potentials["N"] + parse_expr("y") * EPS
    return _with_operator(ops, PERTURBED, _potentials=potentials)


def _operators(build, perturb=None):
    def make():
        scenario = build()
        ops = kostant_operator(scenario)
        return scenario, ops if perturb is None else perturb(scenario, ops)
    return make


ORACLE_RUNS = {
    "gauge-su2-1": _operators(lambda: gauge_su2_scenario(1)),
    "gauge-su2-1, imaginary d/dy in e3": _operators(lambda: gauge_su2_scenario(1),
                                                     _imaginary_vector_part),
    "su2-orbit-1": _operators(lambda: build_scenario("su2-orbit-k", 1)),
    "control_flipped_momentum(1)": _operators(lambda: control_flipped_momentum(1)),
    "control_scaled_momentum(1)": _operators(lambda: control_scaled_momentum(1)),
    "control_imaginary_momentum(1)": _operators(lambda: control_imaginary_momentum(1)),
}


@pytest.fixture(scope="module")
def operators_of():
    made = {}

    def get(label):
        if label not in made:
            made[label] = ORACLE_RUNS[label]()
        return made[label]
    return get


@pytest.mark.parametrize("label", list(ORACLE_RUNS))
class TestExactPiecesAgainstComposition:
    """Each operator row decides its identity from exact pieces.  Recombined
    and applied to a function, the pieces must give what composing the
    operators themselves gives, on 1, each chart coordinate and a fixed
    polynomial in all coordinates."""

    def test_flatness(self, label, operators_of):
        scenario, ops = operators_of(label)
        model, bundle = scenario.model, ops[0].bundle
        atlas = bundle.cover.atlas
        for i, j, idx, field, q in flatness_pieces(scenario, ops):
            c = model.bracket(model.basis_section(i), model.basis_section(j)).coeffs
            for f in _test_functions(atlas.chart(bundle.patch_chart(idx))):
                direct = (ops[i].apply(idx, ops[j].apply(idx, f))
                          - ops[j].apply(idx, ops[i].apply(idx, f))
                          - sum((ck * op.apply(idx, f) for ck, op in zip(c, ops)),
                                RationalExpr.zero()))
                assert (direct - _apply_field(field, f) - q * f).is_zero(), (i, j, idx, f)

    def test_hermitian(self, label, operators_of):
        _, ops = operators_of(label)
        bundle = ops[0].bundle
        atlas = bundle.cover.atlas
        for i, idx, imaginary, r in hermitian_pieces(ops):
            op, h, chart = ops[i], bundle.weight(idx), bundle.patch_chart(idx)
            tests = _test_functions(atlas.chart(chart))
            one, fixed = tests[0], tests[-1]
            for f, g in [(f, one) for f in tests] + [(one, g) for g in tests] + [(fixed, fixed)]:
                direct = ((op.apply(idx, f).conj() * g + f.conj() * op.apply(idx, g)) * h
                          - op.vector_part.derive(f.conj() * g * h, chart))
                pieces = f.conj() * g * r - _apply_field(imaginary, f.conj()) * g * h
                assert (direct - pieces).is_zero(), (i, idx, f, g)

    def test_connection_equivariance(self, label, operators_of):
        _, ops = operators_of(label)
        bundle = ops[0].bundle
        atlas = bundle.cover.atlas
        pieces = {}
        for i, idx, c, resid in equivariance_pieces(ops):
            pieces.setdefault((i, idx), {})[c] = resid
        for (i, idx), table in pieces.items():
            chart_name = bundle.patch_chart(idx)
            chart = atlas.chart(chart_name)
            coords = [RationalExpr.var(c) for c in chart.coords]
            fields = [{c: 1} for c in chart.fiber_coords]
            fields.append({c: coords[k] * coords[k - 1] + k + 1
                           for k, c in enumerate(chart.fiber_coords)})
            for comps in fields:
                v = VectorField(atlas, LEAF_J, {chart_name: comps})
                moved = commutator(ops[i].vector_part, v)
                expected = sum((table[c] * comps[c] for c in comps), RationalExpr.zero())
                for f in _test_functions(chart):
                    direct = (ops[i].apply(idx, _nabla(bundle, idx, v, f))
                              - _nabla(bundle, idx, v, ops[i].apply(idx, f))
                              - _nabla(bundle, idx, moved, f))
                    assert (direct - expected * f).is_zero(), (i, idx, comps, f)


def test_flatness_closes_the_given_operators(operators_of):
    """pi([e1, e2]) is e3's own operator: shifting e3's potential on patch N
    by the constant i/7 keeps V, p + conj(p) and every derivative of p, so
    only the closure [pi(e1), pi(e2)] = pi(e3) on patch N fails."""
    scenario, ops = operators_of("gauge-su2-1")
    potentials = dict(ops[PERTURBED]._potentials)
    potentials["N"] = potentials["N"] + ExactScalar(0, EPS)
    shifted = _with_operator(ops, PERTURBED, _potentials=potentials)
    assert [label for label, _ in rep_flatness_check(scenario, shifted).failures] == \
        ["e1,e2@patch N"]
    assert rep_hermitian_check(scenario, shifted).ok
    assert connection_equivariance_check(scenario, shifted).ok


# The identities each perturbation breaks, by row: the text of a failure
# starts with its identity.
BROKEN = {
    ("rep_flatness_check", "_y_shifted_vector_part"):
        {"[V_X, V_Y] - V_[X,Y]", "V_X p_Y - V_Y p_X - p_[X,Y]"},
    ("rep_flatness_check", "_imaginary_vector_part"):
        {"[V_X, V_Y] - V_[X,Y]", "V_X p_Y - V_Y p_X - p_[X,Y]"},
    ("rep_flatness_check", "_shifted_potential"): {"V_X p_Y - V_Y p_X - p_[X,Y]"},
    ("rep_hermitian_check", "_y_shifted_vector_part"): {"(p + conj(p)) h - V(h)"},
    ("rep_hermitian_check", "_imaginary_vector_part"):
        {"V - conj(V)", "(p + conj(p)) h - V(h)"},
    ("rep_hermitian_check", "_shifted_potential"): {"(p + conj(p)) h - V(h)"},
    ("connection_equivariance_check", "_y_shifted_vector_part"): {"d/dx", "d/dy"},
    ("connection_equivariance_check", "_imaginary_vector_part"): {"d/dx", "d/dy"},
    ("connection_equivariance_check", "_shifted_potential"): {"d/dy"},
}


@pytest.mark.parametrize("perturb", [_y_shifted_vector_part, _imaginary_vector_part,
                                     _shifted_potential])
@pytest.mark.parametrize("row", [rep_flatness_check, rep_hermitian_check,
                                 connection_equivariance_check])
def test_fiber_perturbation_fails_the_row_at_its_patch(row, perturb, operators_of):
    """Each perturbation of e3 on patch N fails the row there, and only
    there, at the generators it moves, through the identities it breaks."""
    scenario, ops = operators_of("gauge-su2-1")
    assert row(scenario, ops).ok
    report = row(scenario, perturb(scenario, ops))
    assert not report.ok
    # flatness: the pairs with e3 in the pair or in its bracket [e1, e2] = e3
    named = {"e1,e2", "e1,e3", "e2,e3"} if row is rep_flatness_check else {"e3"}
    assert {label for label, _ in report.failures} == {f"{n}@patch N" for n in named}
    broken = {re.split(" = |:", text)[0] for _, text in report.failures}
    assert broken == BROKEN[(row.__name__, perturb.__name__)]
