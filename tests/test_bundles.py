"""Line-bundle data, curvature, the integral-class construction, covariant
operators with momentum potentials, and the tensor/dual group structure."""

import random
from fractions import Fraction

import pytest

from quantbench.bundles import (
    KostantOperator,
    chern_class_algebroid,
    connection_equivariance_check,
    construct_from_integral_class,
    curvature,
    kostant_operator,
    pic_dual,
    pic_tensor,
    rep_flatness_check,
    rep_hermitian_check,
    trivial_bundle,
    validate_bundle,
)
from quantbench.catalog import (
    control_flipped_momentum,
    control_imaginary_momentum,
    foliation_flat_scenario,
    o_bundle,
    omega_fs,
    sector_cover,
    sector_zigzag_data,
    sphere_atlas,
    two_chart_cover,
)
from quantbench.errors import CurvatureMismatchError, IntegralityError
from quantbench.exprs import parse_expr
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
        bundle = o_bundle(atlas, 1)
        bad = o_bundle(atlas, 2)
        bundle.metric_weights = dict(bad.metric_weights)  # O(1) with O(2) weights
        report = validate_bundle(bundle)
        assert not report.ok
        assert any(f[0] == "metric" for f in report.failures)

    def test_non_real_weight_fails(self, atlas):
        # i times the O(-1) weights: compatible on the overlap and with the
        # connection, but no metric, and the Gram matrix is then not Hermitian
        bundle = o_bundle(atlas, -1)
        bundle.metric_weights = {"N": parse_expr("i*(1+x^2+y^2)"),
                                 "S": parse_expr("i*(1+u^2+v^2)")}
        report = validate_bundle(bundle)
        assert not report.ok
        assert [f[0] for f in report.failures] == ["metric", "metric"]
        assert all("not real" in f[1] for f in report.failures)


class TestCurvature:
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


class TestKostantOperators:
    def test_vertical_weights(self, atlas, orbit_scenarios):
        # vertical generator on z^a: eigenvalue -i (a - k/2)
        for k in (1, 2, 3):
            scenario = orbit_scenarios[k]
            bundle = scenario.bundle
            op = kostant_operator(scenario, bundle)[2]
            z = parse_expr("x - i*y")
            for a in range(k + 1):
                image = op.apply("N", z ** a).simplify()
                eigen = ExactScalar(0, -1) * ExactScalar(Fraction(2 * a - k, 2))
                assert (image - (z ** a) * eigen).simplify().is_zero()

    def test_zero_section_zero_operator(self, orbit_scenarios):
        scenario = orbit_scenarios[2]
        bundle = scenario.bundle
        op = KostantOperator(scenario, bundle, scenario.model.section([0, 0, 0]))
        assert op.apply("N", parse_expr("x^2 - i*y")).simplify().is_zero()

    def test_flat_connection_example(self):
        # trivial bundle over a foliated chart: the operator is the flat
        # transport minus the momentum potential
        scenario = foliation_flat_scenario()
        bundle = scenario.bundle
        op = kostant_operator(scenario, bundle)[1]
        f = parse_expr("x*w")
        manual = parse_expr("x*w").derivative("y") * 0 + \
            op.vector_part.derive(f, "F") + \
            parse_expr("twopii") * (parse_expr("x*(1+w^2)") -
                                    parse_expr("x*(1+w^2)")) * f
        assert (op.apply("F", f) - manual).simplify().is_zero()

    def test_curvature_mismatch_rejected(self, orbit_scenarios):
        scenario = orbit_scenarios[2]
        wrong = o_bundle(scenario.atlas, 1)
        with pytest.raises(CurvatureMismatchError) as err:
            kostant_operator(scenario, wrong)
        assert not err.value.residual.is_zero()


class TestRepresentationChecks:
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_flatness_and_hermiticity(self, orbit_scenarios, k):
        scenario = orbit_scenarios[k]
        bundle = scenario.bundle
        rng = random.Random(41)
        ops = kostant_operator(scenario, bundle)
        assert rep_flatness_check(scenario, ops, rng).ok
        assert rep_hermitian_check(scenario, ops, rng).ok

    def test_connection_equivariance(self, orbit_scenarios):
        scenario = orbit_scenarios[2]
        bundle = scenario.bundle
        assert connection_equivariance_check(scenario, kostant_operator(scenario, bundle)).ok

    def test_flipped_momentum_breaks_flatness(self):
        bad = control_flipped_momentum(2)
        bundle = bad.bundle
        report = rep_flatness_check(bad, kostant_operator(bad, bundle))
        assert not report.ok

    def test_flipped_momentum_breaks_connection_equivariance(self):
        bad = control_flipped_momentum(2)
        report = connection_equivariance_check(bad, kostant_operator(bad, bad.bundle))
        assert not report.ok

    def test_imaginary_momentum_breaks_hermiticity(self):
        bad = control_imaginary_momentum(2)
        report = rep_hermitian_check(bad, kostant_operator(bad, bad.bundle))
        assert not report.ok

    def test_zero_operator_hermitian(self, orbit_scenarios):
        scenario = orbit_scenarios[0]
        assert rep_hermitian_check(scenario, kostant_operator(scenario, scenario.bundle)).ok


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
            assert chern_class_algebroid(scenario, scenario.bundle).ok

    def test_withheld_momentum_reports_no_witness(self, orbit_scenarios):
        scenario = orbit_scenarios[2]
        from quantbench.hamiltonian import ActionScenario
        stripped = ActionScenario(scenario.name, scenario.model, scenario.action,
                                  scenario.presymplectic, None)
        report = chern_class_algebroid(stripped, scenario.bundle)
        assert report.status == "hypotheses-not-met"
        assert any("no witness" in n for n in report.notes)

    def test_gauge_witness_is_connection_pairing(self, gauge_su2_1):
        assert chern_class_algebroid(gauge_su2_1, gauge_su2_1.bundle).ok
