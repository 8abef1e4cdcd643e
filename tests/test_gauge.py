"""Gauge scenarios: assembly, twisted momentum, quantization isomorphism,
reduction."""

from fractions import Fraction

import pytest

from quantbench.bundles import LineBundleData, curvature, kostant_operator, validate_bundle
from quantbench.catalog import (
    gauge_su2_scenario,
    su2_orbit_scenario,
    gauge_u1_character_scenario,
    gauge_u1_rotation_scenario,
)
from quantbench.exprs import parse_expr
from quantbench.geometry import Chart, FiberedAtlas
from quantbench.gauge import (
    GaugeScenario,
    PrincipalBundleData,
    build_gauge_scenario,
    curvature_formula_check,
    gauge_momentum_verify,
    quantization_isomorphism_check,
)
from quantbench.hamiltonian import (
    equivariance_check,
    internal_momentum_check,
    prequantization_condition_check,
    presymplectic_check,
    quantization_condition_check,
)
from quantbench.liealg import AlgebroidModel, su2
from quantbench.quantize import quantize_monomial
from quantbench.runner import run_scenario
from quantbench.reduce import (
    descent_obstruction_check,
    internal_mw_quotient,
    qr_commute_check,
    quantum_fixed_subspace,
    ZeroLevelData,
)


class TestAssembly:
    def test_curvature_formula_reverified(self, gauge_su2_1):
        assert curvature_formula_check(gauge_su2_1).ok
        assert not gauge_su2_1.gauge.bundle_data.is_flat()

    def test_curvature_formula_reads_the_model_bracket(self):
        """A base bracket [d_b1, d_b2] = e3 in the gauge model adds tau(e3) to
        the recomputed F(d_b1, d_b2), which then differs from the potential's."""
        scenario = gauge_su2_scenario(1)
        zero, one = parse_expr("0"), parse_expr("1")
        m = scenario.model
        table = {**m.bracket_table, (0, 1): (zero, zero, zero, zero, one)}
        scenario = scenario.replace(model=AlgebroidModel(
            m.name, m.variant, m.base_atlas, m.generator_names, table, m.anchor_fields,
            m.isotropy_indices, m.gauge_base_count))
        report = run_scenario(scenario, checks={"gauge-curvature-formula"})
        (record,) = report.records
        assert (record.check_id, record.status) == ("gauge-curvature-formula", "fail")
        assert record.failures == [("F[0,1]", "display mismatch")]

    def test_assembled_form_closed_and_glues(self, gauge_su2_1):
        assert presymplectic_check(gauge_su2_1.presymplectic).ok

    def test_character_form_is_minus_level_times_curvature(self):
        for n in (1, 2):
            scenario = gauge_u1_character_scenario(n)
            omega = scenario.presymplectic.omega_tilde
            coeff = omega.coefficient("pt", ("b1", "b2"))
            f12 = scenario.gauge.bundle_data.curvature_components()[(0, 1)][0]
            # omega = -n * F as two-forms on the base
            assert (coeff + f12 * n).is_zero()

    def test_flat_connection_collapses_to_product(self):
        scenario = gauge_su2_scenario(1, twist=Fraction(0))
        assert scenario.gauge.bundle_data.is_flat()
        omega = scenario.presymplectic.omega_tilde
        for ch in ("N", "S"):
            chart = scenario.atlas.chart(ch)
            for idx in omega.coefficients[ch]:
                assert not set(idx) & set(chart.base_coords), \
                    "flat connection must leave no twist terms"

    def test_twisted_bundle_validates_with_matching_curvature(self, gauge_su2_1):
        assert validate_bundle(gauge_su2_1.bundle).ok
        diff = curvature(gauge_su2_1.bundle) - \
            gauge_su2_1.presymplectic.omega_tilde
        assert diff.is_zero()


class TestMomentumVerify:
    def test_su2_with_curvature(self, gauge_su2_1):
        assert gauge_momentum_verify(gauge_su2_1).ok

    def test_momentum_conditions_delegate(self, gauge_su2_1):
        s = gauge_su2_1
        assert prequantization_condition_check(s).ok
        assert quantization_condition_check(s).ok
        assert internal_momentum_check(s).ok
        assert equivariance_check(s).ok

    def test_flat_connection_case(self):
        scenario = gauge_su2_scenario(1, twist=Fraction(0))
        assert gauge_momentum_verify(scenario).ok

    def test_twist_over_a_three_dimensional_base(self):
        """A = (0, b1 e3, b2 e3) over B(b1, b2, b3) has curvature on the pairs
        (b1, b2) and (b2, b3).  The twisted form carries d<mu, A> on every
        base pair, so it is closed, and the momentum conditions and the
        bundle's curvature hold."""
        base = FiberedAtlas([Chart("B", base_coords=("b1", "b2", "b3"), star_shaped=True)])
        zero, e3 = parse_expr("0"), (parse_expr("0"),) * 2
        potential = [(zero,) * 3, e3 + (parse_expr("b1"),), e3 + (parse_expr("b2"),)]
        scenario = build_gauge_scenario(PrincipalBundleData(base, su2(), potential),
                                        su2_orbit_scenario(1), name="gauge-su2-3d")
        omega = scenario.presymplectic.omega_tilde
        mu3 = scenario.momentum.pairing(5)["N"]
        assert omega.coefficient("N", ("b1", "b2")) == mu3
        assert omega.coefficient("N", ("b2", "b3")) == mu3
        records = run_scenario(scenario).records
        assert [r.check_id for r in records if r.status == "fail"] == []
        passed = {r.check_id for r in records if r.status == "pass"}
        assert {"presymplectic", "prequantization-condition", "gauge-momentum",
                "curvature-match", "chern-witness", "quantization-isomorphism"} <= passed

    def test_character_scenarios(self):
        for n in (0, 1, 2):
            assert gauge_momentum_verify(gauge_u1_character_scenario(n)).ok

    def test_broken_equivariance_fails(self, gauge_su2_1):
        s = gauge_su2_scenario(1)
        # scale one fiber momentum pairing by a fiber function: H-equivariance
        # of the fiber momentum breaks, and with it the curvature identity
        bad_pairings = list(s.momentum.pairings)
        bad_pairings[2] = {ch: v * parse_expr("2") for ch, v in
                           bad_pairings[2].items()}
        from quantbench.hamiltonian import MomentumMapRep
        s = s.replace(momentum=MomentumMapRep(s.model, bad_pairings))
        report = gauge_momentum_verify(s)
        assert not report.ok


class TestQuantizationIsomorphism:
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_su2_levels(self, k):
        scenario = gauge_su2_scenario(k)
        report = quantization_isomorphism_check(scenario, quantize_monomial(scenario))
        assert report.ok, report.failures
        assert any(f"dimension per base point: {k + 1}" in n for n in report.notes)

    def test_point_fiber_character(self):
        scenario = gauge_u1_character_scenario(1)
        report = quantization_isomorphism_check(scenario, None)
        assert report.ok

    def test_scaled_fiber_weights_fail_the_gram(self):
        """The gauge bundle's weights are the fiber's at the build; a fiber
        with scaled weights has a scaled Gram matrix, whose nonzero entries
        (the diagonal) then differ from the gauge scenario's."""
        scenario = gauge_su2_scenario(1)
        gauge_rep = quantize_monomial(scenario)
        fiber = scenario.gauge.fiber
        b = fiber.bundle
        scaled = LineBundleData(b.name, b.cover, b.transitions,
                                {patch: parse_expr("2") * weight
                                 for patch, weight in b.metric_weights.items()},
                                b.potentials, b.branch_offsets)
        scenario = scenario.replace(gauge=GaugeScenario(scenario.gauge.bundle_data,
                                                        fiber.replace(bundle=scaled)))
        report = quantization_isomorphism_check(scenario, gauge_rep)
        assert (report.ok, report.failures) == \
            (False, [("gram", "entry 0,0"), ("gram", "entry 1,1")])


class TestGaugeReduction:
    def test_u1_rotation_gauge_reduces_like_the_fiber(self):
        scenario = gauge_u1_rotation_scenario(2)
        result = quantize_monomial(scenario)
        n_base = scenario.model.gauge_base_count
        z = ZeroLevelData("N", [parse_expr("x^2+y^2-1")],
                          {"x": parse_expr("(1-t^2)/(1+t^2)"),
                           "y": parse_expr("2*t/(1+t^2)"),
                           "b1": parse_expr("0"), "b2": parse_expr("0")},
                          ("t",), orbit_dimension=1)
        descent = descent_obstruction_check(
            scenario, kostant_operator(scenario, scenario.bundle), z)
        assert descent.descends
        fixed = quantum_fixed_subspace(result, [n_base])
        assert fixed.dimension == 1
        report = qr_commute_check(fixed, internal_mw_quotient(z), descent)
        assert report.status == "pass"
        assert "fixed dimension 1, reduced dimension 1" in report.notes
