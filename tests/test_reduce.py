"""Symplectic quotients, quantum reduction, descent and the comparison."""

from fractions import Fraction

import pytest

from quantbench.bundles import kostant_operator
from quantbench.catalog import build_scenario
from quantbench.exprs import parse_expr
from quantbench.quantize import QuantizationResult
from quantbench.reduce import (
    QuantumReduction,
    ZeroLevelData,
    descent_obstruction_check,
    internal_mw_quotient,
    projector_checks,
    qr_commute_check,
    quantum_fixed_subspace,
)
from quantbench.runner import run_scenario
from quantbench.scalars import ExactScalar, ZERO


class TestZeroLevel:
    def test_equator_data_verifies(self, rotation_scenarios):
        for k in (2, 3):
            scenario = rotation_scenarios[k]
            assert scenario.zero_level.verify(scenario).ok

    def test_broken_parametrization_rejected(self, rotation_scenarios):
        scenario = rotation_scenarios[2]
        bad = ZeroLevelData("N", [parse_expr("x^2+y^2-1")],
                            {"x": parse_expr("t"), "y": parse_expr("t")}, ("t",),
                            orbit_dimension=1)
        assert not bad.verify(scenario).ok
        # the table rejects it: the zero-level row fails and its consumers skip
        scenario = build_scenario("u1-rotation-reduction-k", 2)
        scenario = scenario.replace(zero_level=ZeroLevelData(
            "N", scenario.zero_level.equations, bad.parametrization, ("t",), orbit_dimension=1))
        records = {r.check_id: r for r in run_scenario(scenario).records}
        assert records["zero-level"].status == "fail"
        for check_id in ("internal-quotient", "descent-obstruction", "quantum-projector",
                         "qr-comparison"):
            assert records[check_id].status == "skipped"


    def test_momentum_must_vanish_on_the_level(self, rotation_scenarios):
        """The circle of radius 2 solves its own equation and is tangent to the
        rotation, but the model's isotropy generator has nonzero momentum on it."""
        scenario = rotation_scenarios[2]
        z = ZeroLevelData("N", [parse_expr("x^2+y^2-4")],
                          {"x": parse_expr("2*(1-t^2)/(1+t^2)"),
                           "y": parse_expr("4*t/(1+t^2)")}, ("t",), orbit_dimension=1)
        result = z.verify(scenario)
        assert [kind for kind, _ in result.failures] == ["momentum-vanishing"]
        assert result.failures[0][1].startswith("generator 0: ")


class TestInternalQuotient:
    def test_equator_reduces_to_point(self, rotation_scenarios):
        scenario = rotation_scenarios[2]
        red = internal_mw_quotient(scenario.zero_level)
        assert red.kind == "point" and red.dimension == 0

    def test_trivial_isotropy_keeps_the_level(self, rotation_scenarios):
        scenario = rotation_scenarios[2]
        z = ZeroLevelData("N", [], {"x": parse_expr("p"), "y": parse_expr("q")},
                          ("p", "q"), orbit_dimension=0)
        red = internal_mw_quotient(z)
        assert red.kind == "symplectic" and red.dimension == 2


class TestFixedSubspace:
    @pytest.mark.parametrize("k,expected", [(2, 1), (3, 0), (4, 1)])
    def test_circle_weight_kernel(self, rotation_quantizations, k, expected):
        fixed = quantum_fixed_subspace(rotation_quantizations[k], [0])
        assert fixed.dimension == expected

    def test_trivial_isotropy_fixes_everything(self, rotation_quantizations):
        fixed = quantum_fixed_subspace(rotation_quantizations[2], [])
        assert fixed.dimension == rotation_quantizations[2].dimension

    def test_full_su2_irreducibility(self, orbit_quantizations):
        for k in (1, 2, 3):
            fixed = quantum_fixed_subspace(orbit_quantizations[k], [0, 1, 2])
            assert fixed.dimension == 0
        assert quantum_fixed_subspace(orbit_quantizations[0], [0, 1, 2]).dimension == 1

    def test_projector_properties(self, rotation_quantizations):
        for k in (2, 4):
            fixed = quantum_fixed_subspace(rotation_quantizations[k], [0])
            report = projector_checks(fixed)
            assert report.ok, report.failures

    def test_a_generator_moving_the_fixed_line_fails_invariance(self, rotation_quantizations):
        """The fixed line of the level-2 circle is the weight-0 vector; an
        entry added above it moves it, while the projector stays idempotent."""
        fixed = quantum_fixed_subspace(rotation_quantizations[2], [0])
        source = fixed.source
        mat = [list(row) for row in source.matrices[0]]
        mat[0][1] = mat[0][1] + 1
        moved = QuantizationResult(source.basis, source.gram, [mat], source.generator_names)
        fixed = QuantumReduction(moved, fixed.isotropy_indices, fixed.basis)
        assert projector_checks(fixed).failures == [
            ("invariance", "projector does not commute with generator 0")]


class TestDescent:
    @pytest.mark.parametrize("k", [2, 4])
    def test_even_levels_descend(self, rotation_scenarios, k):
        scenario = rotation_scenarios[k]
        result = descent_obstruction_check(scenario, kostant_operator(scenario))
        assert result.descends
        assert result.weights["e1"] == ExactScalar(Fraction(k, 2))
        assert result.obstructions["e1"] == ZERO

    def test_odd_level_obstructed(self, rotation_scenarios):
        scenario = rotation_scenarios[3]
        result = descent_obstruction_check(scenario, kostant_operator(scenario))
        assert not result.descends
        assert result.status == "hypotheses-not-met"
        assert result.obstructions["e1"] == ExactScalar(Fraction(1, 2))

    def test_trivial_bundle_descends(self):
        from quantbench.catalog import foliation_flat_scenario
        z = ZeroLevelData("F", [],
                          {"x": parse_expr("p"), "y": parse_expr("q"),
                           "w": parse_expr("r")},
                          ("p", "q", "r"), orbit_dimension=0)
        scenario = foliation_flat_scenario().replace(zero_level=z)
        result = descent_obstruction_check(scenario, kostant_operator(scenario))
        assert result.descends


def _compare(scenario, result):
    """qr_commute_check on the artifacts its check-table row reads."""
    z = scenario.zero_level
    return qr_commute_check(quantum_fixed_subspace(result, scenario.model.isotropy_indices),
                            internal_mw_quotient(z),
                            descent_obstruction_check(scenario, kostant_operator(scenario)))


class TestComparison:
    @pytest.mark.parametrize("k,scale2", [(2, Fraction(6)), (4, Fraction(30))])
    def test_even_levels_pass_with_unitary_scale(self, rotation_scenarios,
                                                 rotation_quantizations, k, scale2):
        scenario = rotation_scenarios[k]
        report = _compare(scenario, rotation_quantizations[k])
        assert report.status == "pass" and report.ok and not report.failures
        assert "fixed dimension 1, reduced dimension 1" in report.notes
        # scale^2 = 1 / <z^(k/2), z^(k/2)> = (k+1)! / ((k/2)!)^2
        assert report.notes[-2:] == ["intertwiner: [['1']]",
                                     f"intertwiner scale^2 = {scale2}"]

    def test_odd_level_hypotheses_not_met(self, rotation_scenarios,
                                          rotation_quantizations):
        scenario = rotation_scenarios[3]
        report = _compare(scenario, rotation_quantizations[3])
        assert report.status == "hypotheses-not-met"
        assert "fixed dimension 0, reduced dimension None" in report.notes
        assert report.ok  # hypotheses-not-met is not a failure

    def test_dimension_equality_where_descent_holds(self, rotation_scenarios,
                                                    rotation_quantizations):
        for k in (2, 4):
            scenario = rotation_scenarios[k]
            report = _compare(scenario, rotation_quantizations[k])
            assert "fixed dimension 1, reduced dimension 1" in report.notes

    def test_dimension_mismatch_fails(self, rotation_scenarios, rotation_quantizations):
        # no isotropy generator: the whole 3-dimensional space is fixed
        scenario = rotation_scenarios[2]
        z = scenario.zero_level
        report = qr_commute_check(quantum_fixed_subspace(rotation_quantizations[2], []),
                                  internal_mw_quotient(z),
                                  descent_obstruction_check(scenario, kostant_operator(scenario)))
        assert report.status == "fail" and not report.ok
        assert report.failures == [("qr", "fixed 3, reduced 1")]
        assert report.notes == ["dimension mismatch", "fixed dimension 3, reduced dimension 1"]
