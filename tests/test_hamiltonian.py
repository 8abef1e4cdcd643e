"""Momentum-map conditions, the algebroid differential, perturbations."""

from fractions import Fraction
from itertools import combinations

import pytest

from quantbench import exprs, hamiltonian
from quantbench.catalog import (
    build_scenario,
    control_flipped_momentum,
    control_scaled_momentum,
    pair_groupoid_scenario,
    s1_plane_scenario,
    sphere_atlas,
    sphere_family_scenario,
    su2_orbit_scenario,
)
from quantbench.errors import PerturbationRejectedError
from quantbench.exprs import RationalExpr, parse_expr
from quantbench.geometry import DifferentialForm, LEAF_J, LEAF_JTILDE, VectorField
from quantbench.hamiltonian import (
    AlgebroidCochain,
    MomentumMapRep,
    PresymplecticData,
    algebroid_differential,
    dd_zero_report,
    equivariance_check,
    internal_momentum_check,
    perturb,
    prequantization_condition_check,
    presymplectic_check,
    quantization_condition_check,
)
from quantbench.liealg import ActionMap, lie_algebra
from quantbench.runner import run_scenario


class TestPresymplectic:
    def test_fs_levels_pass(self, orbit_scenarios):
        for k in (1, 2, 3):
            assert presymplectic_check(orbit_scenarios[k].presymplectic).ok

    def test_zero_form_fails_nondegeneracy(self):
        atlas = sphere_atlas()
        data = PresymplecticData(
            atlas, DifferentialForm(atlas, 2, LEAF_JTILDE, {"N": {}, "S": {}}))
        report = presymplectic_check(data)
        assert not report.ok
        assert any(f[0] == "nondegeneracy" for f in report.failures)

    def test_determinant_value(self, orbit_scenarios):
        # fiber determinant: (k/pi)^2 (1+r^2)^-4 written with the 2*pi*i token
        data = orbit_scenarios[2].presymplectic
        from quantbench.linalg import det
        det = det(data.fiber_matrix("N"), RationalExpr.const(1)).simplify()
        expected = parse_expr("-16/(twopii^2*(1+x^2+y^2)^4)")
        assert (det - expected).simplify().is_zero()

    def test_gauge_omega_closed(self, gauge_su2_1):
        assert presymplectic_check(gauge_su2_1.presymplectic).ok

    def test_extra_term_fails_closedness_and_gluing(self, gauge_su2_1):
        """b1 dx^dy added on chart N: its derivative is db1^dx^dy, and chart S
        does not carry it."""
        data = gauge_su2_1.presymplectic
        extra = DifferentialForm(data.atlas, 2, LEAF_JTILDE, {"N": {("x", "y"): parse_expr("b1")}})
        report = presymplectic_check(
            PresymplecticData(data.atlas, data.omega_tilde + extra, data.sample_points))
        residuals = [("N", "S", "d('x', 'y'): -1*b1"),
                     ("S", "N", "d('u', 'v'): (b1)/(v^4 + 2*u^2*v^2 + u^4)")]
        assert report.failures == [("closedness", "Form([N] (1) db1^dx^dy)"),
                                   ("gluing", str(residuals))]

    def test_nondegeneracy_runs_no_gcd(self, monkeypatch, orbit_scenarios, gauge_su2_1):
        # a determinant is zero exactly when its numerator is: nothing to cancel
        calls = []
        original = exprs.poly_gcd
        monkeypatch.setattr(exprs, "poly_gcd", lambda *a: calls.append(a) or original(*a))
        for data in (orbit_scenarios[2].presymplectic, gauge_su2_1.presymplectic):
            assert presymplectic_check(data).ok
        assert calls == []


class TestAlgebroidDifferential:
    def test_degree_zero_values(self, orbit_scenarios):
        scenario = orbit_scenarios[1]
        fn = {"N": parse_expr("x"), "S": parse_expr("u/(u^2+v^2)")}
        d0 = algebroid_differential(AlgebroidCochain(scenario, 0, {(): fn}))
        field = scenario.generator_field(2)  # vertical rotation
        expect = field.derive(parse_expr("x"), "N")
        assert (d0.values[(2,)]["N"] - expect).simplify().is_zero()

    def test_degree_one_display(self, orbit_scenarios):
        # d mu (X, Y) = <mu,[X,Y]> - alpha(X).<mu,Y> + alpha(Y).<mu,X>
        scenario = orbit_scenarios[2]
        mu = AlgebroidCochain(scenario, 1, {(i,): pairing for i, pairing
                                            in enumerate(scenario.momentum.pairings)})
        d_mu = algebroid_differential(mu)
        i, j = 0, 1
        bracket_pairing = scenario.momentum.pairing(2)  # [e1,e2] = e3
        f_i = scenario.generator_field(i)
        f_j = scenario.generator_field(j)
        for ch in ("N", "S"):
            manual = bracket_pairing[ch] \
                - f_i.derive(scenario.momentum.pairing(j)[ch], ch) \
                + f_j.derive(scenario.momentum.pairing(i)[ch], ch)
            assert (d_mu.value(i, j)[ch] - manual).simplify().is_zero()

    def test_differential_squares_to_zero(self, orbit_scenarios):
        assert dd_zero_report(orbit_scenarios[2]).ok

    def test_value_takes_any_order(self, gauge_su2_1):
        c = _chartwise_two_cochain(gauge_su2_1)
        assert c.value(3, 3) == {}
        assert c.value(1, 3) is c.values[(1, 3)]
        flipped = c.value(3, 1)
        for ch, v in c.values[(1, 3)].items():
            assert (flipped[ch] + v).is_zero()
        d_c = algebroid_differential(c)
        for order, sign in (((0, 2, 4), 1), ((2, 0, 4), -1), ((2, 4, 0), 1),
                            ((4, 2, 0), -1)):
            for ch, v in d_c.values[(0, 2, 4)].items():
                assert (d_c.value(*order)[ch] - v * sign).is_zero()

    def test_degree_two_matches_the_hand_formula(self, gauge_su2_1):
        c = _chartwise_two_cochain(gauge_su2_1)
        d_c = algebroid_differential(c)
        oracle = _hand_degree_two(c)
        assert d_c.degree == 3 and set(d_c.values) == set(oracle) and len(oracle) == 10
        nonzero = 0
        for key, fn in oracle.items():
            for ch in set(fn) | set(d_c.values[key]):
                ours = d_c.values[key].get(ch, RationalExpr.zero())
                theirs = fn.get(ch, RationalExpr.zero())
                assert (ours - theirs).simplify().is_zero(), (key, ch)
                nonzero += not theirs.is_zero()
        assert nonzero > 10  # the comparison is not between zeros

    def test_squares_to_zero_from_degree_two_to_four(self, gauge_su2_1):
        c = _chartwise_two_cochain(gauge_su2_1)
        dd = algebroid_differential(algebroid_differential(c))
        assert dd.degree == 4
        assert sorted(dd.values) == [(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 4),
                                     (0, 2, 3, 4), (1, 2, 3, 4)]
        for key, fn in dd.values.items():
            assert all(v.simplify().is_zero() for v in fn.values()), key
        assert any(not v.is_zero() for fn in algebroid_differential(c).values.values()
                   for v in fn.values())

    def test_anchor_perturbed_along_y_fails_at_its_pairs(self, gauge_su2_1):
        """e3's action field gains 1/7 d/dy on chart N.  d_A^2 then fails on
        the pairs with e3 and on (e1, e2), whose residual -1/7 d/dy moves only
        y: a test set without y would miss that pair."""
        assert dd_zero_report(gauge_su2_1).ok
        fields = list(gauge_su2_1.action.fields)
        fields[4] = fields[4] + VectorField(gauge_su2_1.atlas, LEAF_JTILDE,
                                            {"N": {"y": Fraction(1, 7)}})
        perturbed = gauge_su2_1.replace(
            action=ActionMap(gauge_su2_1.model, gauge_su2_1.atlas, fields))
        report = dd_zero_report(perturbed)
        assert not report.ok
        on_functions = [(label, text) for label, text in report.failures
                        if label.count(",") == 1]
        assert {label for label, _ in on_functions} == \
            {"e1,e2@chart N", "e1,e3@chart N", "e2,e3@chart N"}
        assert [text for label, text in on_functions if label == "e1,e2@chart N"] == \
            ["d_A^2 y = 1/7"]


def _chartwise_two_cochain(s):
    """A degree-2 cochain on the generators of `s` whose values differ by
    chart and by pair, with the pair (0, 1) left out (zero)."""
    values = {}
    for i in range(s.model.n):
        for j in range(i + 1, s.model.n):
            if (i, j) != (0, 1):
                values[(i, j)] = {
                    "N": parse_expr(f"{i + 1}*x*b2 + {j + 1}*y^2 - b1*y"),
                    "S": parse_expr(f"{i - j}*u*v + {j}*b1*u + u^2/{i + 2}")}
    return AlgebroidCochain(s, 2, values)


def _hand_degree_two(cochain) -> dict:
    """d_2 = +CE_2 on generator triples, written out term by term: the
    alpha(X_a) terms with sign (-1)^a, then the bracket terms of the pairs
    (i, j), (i, k), (j, k) with signs -, +, -."""
    s = cochain.scenario
    fields = [s.generator_field(i) for i in range(s.model.n)]

    def nu(a, b):
        if a == b:
            return {}
        if a < b:
            return cochain.values.get((a, b), {})
        return {ch: -v for ch, v in cochain.values.get((b, a), {}).items()}

    def add(total, fn, scale):
        for ch, v in fn.items():
            total[ch] = total.get(ch, RationalExpr.zero()) + v * scale

    out = {}
    for i, j, k in combinations(range(s.model.n), 3):
        total = {}
        for pos, a, rest in ((0, i, (j, k)), (1, j, (i, k)), (2, k, (i, j))):
            add(total, fields[a].derive(nu(*rest)), (-1) ** pos)
        for pos, pair, c in ((0, (i, j), k), (1, (i, k), j), (2, (j, k), i)):
            for m, coeff in enumerate(s.model.generator_bracket(*pair)):
                if not coeff.is_zero():
                    add(total, nu(m, c), coeff * (-1) ** (pos + 1))
        out[(i, j, k)] = total
    return out


class TestConditionChecks:
    def test_su2_orbit_all_pass(self, orbit_scenarios):
        for k in (0, 1, 2, 3):
            s = orbit_scenarios[k]
            assert internal_momentum_check(s).ok
            assert equivariance_check(s).ok
            assert prequantization_condition_check(s).ok
            assert quantization_condition_check(s).ok

    def test_hamiltonian_implies_internally_strong(self, orbit_scenarios,
                                                   rotation_scenarios,
                                                   gauge_su2_1):
        scenarios = list(orbit_scenarios.values()) + \
            list(rotation_scenarios.values()) + \
            [gauge_su2_1, pair_groupoid_scenario(),
             sphere_family_scenario(1)]
        for s in scenarios:
            if prequantization_condition_check(s).ok and \
                    quantization_condition_check(s).ok:
                assert internal_momentum_check(s).ok, s.name
                assert equivariance_check(s).ok, s.name

    def test_flipped_momentum_fails_internal(self):
        bad = control_flipped_momentum(2)
        report = internal_momentum_check(bad)
        assert not report.ok
        assert any("e3" in f[0] for f in report.failures)
        assert not equivariance_check(bad).ok

    def test_scaled_momentum_fails_equivariance(self):
        bad = control_scaled_momentum(2)
        assert not equivariance_check(bad).ok

    def test_zero_momentum_with_nonzero_form_fails(self, orbit_scenarios):
        base = orbit_scenarios[2]
        zero_momentum = MomentumMapRep(
            base.model, [{"N": parse_expr("0"), "S": parse_expr("0")}] * 3)
        from quantbench.hamiltonian import ActionScenario
        bad = ActionScenario("zero-momentum", base.model, base.action,
                             base.presymplectic, zero_momentum)
        assert not prequantization_condition_check(bad).ok
        assert not quantization_condition_check(bad).ok

    def test_gauge_conditions(self, gauge_su2_1):
        s = gauge_su2_1
        assert prequantization_condition_check(s).ok
        assert quantization_condition_check(s).ok

    def test_degenerate_scenarios(self):
        for s in (pair_groupoid_scenario(), s1_plane_scenario(),
                  sphere_family_scenario(1)):
            assert prequantization_condition_check(s).ok
            assert quantization_condition_check(s).ok


class TestPerturb:
    def test_zero_perturbation_is_identity(self, orbit_scenarios):
        s = orbit_scenarios[2]
        atlas = s.atlas
        beta = DifferentialForm(atlas, 1, LEAF_JTILDE, {"N": {}, "S": {}})
        out = perturb(s, beta)
        for i in range(3):
            for ch in ("N", "S"):
                diff = out.momentum.pairing(i)[ch] - s.momentum.pairing(i)[ch]
                assert diff.simplify().is_zero()

    def test_gauge_base_perturbation_passes(self, gauge_su2_1):
        s = gauge_su2_1
        atlas = s.atlas
        beta = DifferentialForm(atlas, 1, LEAF_JTILDE,
                                {ch: {("b1",): parse_expr("b1*b2")}
                                 for ch in atlas.charts})
        out = perturb(s, beta)
        assert prequantization_condition_check(out).ok
        assert quantization_condition_check(out).ok

    def test_perturbing_back_restores(self, gauge_su2_1):
        s = gauge_su2_1
        atlas = s.atlas
        table = {ch: {("b2",): parse_expr("b1^2")} for ch in atlas.charts}
        beta = DifferentialForm(atlas, 1, LEAF_JTILDE, table)
        out = perturb(perturb(s, beta), -beta)
        assert (out.presymplectic.omega_tilde -
                s.presymplectic.omega_tilde).is_zero()
        for i in range(s.model.n):
            for ch in atlas.charts:
                diff = out.momentum.pairing(i)[ch] - s.momentum.pairing(i)[ch]
                assert diff.simplify().is_zero()

    def test_fiber_perturbation_rejected(self, orbit_scenarios):
        s = orbit_scenarios[2]
        beta = DifferentialForm(s.atlas, 1, LEAF_JTILDE,
                                {"N": {("y",): parse_expr("x")}, "S": {}})
        with pytest.raises(PerturbationRejectedError) as err:
            perturb(s, beta)
        assert err.value.generator is not None


class TestImmutableScenario:
    def test_no_attribute_can_be_set(self):
        s = su2_orbit_scenario(1)
        names = [*vars(s), "action_model", "d_mu", "has_fibers", "fiber_residual", "other"]
        assert {"name", "model", "momentum", "bundle", "gauge"} <= set(names)
        for name in names:
            with pytest.raises(AttributeError, match="ActionScenario is immutable"):
                setattr(s, name, None)
        assert (s.name, s.level) == ("su2-orbit-1", 1)

    def test_replace_derives_afresh(self):
        """Once the su(2) scenario has built its action algebroid and d_A mu,
        a scenario with another model and action builds its own: four
        generators whose table fails Jacobi, acting by zero fields."""
        s = su2_orbit_scenario(1)
        assert (s.action_model.n, s.d_mu.degree) == (3, 2)
        s.fiber_residual(0)
        model = lie_algebra("non-jacobi", ("e1", "e2", "e3", "e4"),
                            {(0, 1, 0): 1, (1, 0, 0): -1, (1, 2, 1): 1, (2, 1, 1): -1,
                             (2, 0, 2): 1, (0, 2, 2): -1})
        zero = VectorField(s.atlas, LEAF_J, {"N": {}, "S": {}})
        changed = s.replace(model=model, action=ActionMap(model, s.atlas, [zero] * 4))
        assert (changed.action_model.n, s.action_model.n) == (4, 3)
        records = {r.check_id: r for r in
                   run_scenario(changed, checks=["bracket-structure"]).records}
        assert records["action-morphism"].status == "pass"
        assert records["bracket-structure"].status == "fail"
        assert {label for label, _ in records["bracket-structure"].failures} == {"jacobi"}
        again = s.replace(name="su2-orbit-1-again")
        assert again.d_mu is not s.d_mu and again.action_model is not s.action_model
        assert again.fiber_residual(0) is not s.fiber_residual(0)
        records = {r.check_id: r for r in run_scenario(s, checks=["bracket-structure"]).records}
        assert records["bracket-structure"].status == "pass"

    @pytest.mark.parametrize("name", ["su2-orbit-1", "gauge-su2-1", "u1-rotation-reduction-2"])
    def test_replace_without_changes_gives_the_same_report(self, name):
        s = build_scenario(name)
        assert run_scenario(s.replace()).canonical_json() == run_scenario(s).canonical_json()

    def test_fiber_residuals_are_kept_per_generator(self):
        s = control_flipped_momentum(1)
        residuals = [s.fiber_residual(i) for i in range(3)]
        assert [r.is_zero() for r in residuals] == [True, True, False]
        assert all(s.fiber_residual(i) is r for i, r in enumerate(residuals))
        assert repr(residuals[2]) == repr(hamiltonian.fiber_residual(s, 2))
