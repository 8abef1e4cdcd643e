"""Lie algebras, exact group elements, algebroid models and actions."""

import random
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantbench.catalog import (
    gauge_su2_scenario,
    pair_groupoid_scenario,
    rotation_fields,
    sphere_atlas,
    su2_orbit_scenario,
)
from quantbench.errors import (
    AtlasMismatchError,
    MalformedExpressionError,
)
from quantbench.exprs import PolyExpr, RationalExpr, coerce_rational, parse_expr
from quantbench.geometry import (
    LEAF_J,
    LEAF_JTILDE,
    Chart,
    DifferentialForm,
    FiberedAtlas,
    VectorField,
)
from quantbench.groups import Ad, GroupElement, coAd, pair
from quantbench.hamiltonian import ActionScenario, MomentumMapRep, PresymplecticData
from quantbench.liealg import (
    ActionMap,
    AlgebroidModel,
    abelian,
    action_algebroid,
    ad_star,
    lie_algebra,
    su2,
    u1,
)
from quantbench.runner import run_scenario
from quantbench.scalars import ExactScalar, ONE, ZERO


def random_su2(rng) -> GroupElement:
    """Cayley transform of a rational pure quaternion: exact unit quaternion."""
    v = [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(3)]
    n2 = 1 + sum(c * c for c in v)
    # (1+v)^2 / |1+v|^2 with v pure imaginary: (1 - |v|^2 + 2v) / (1 + |v|^2)
    t = Fraction(1 - sum(c * c for c in v)) / n2
    x, y, z = (2 * c / n2 for c in v)
    return GroupElement.su2_from_quaternion(t, x, y, z)


# antisymmetric, but [[e1,e2],e3] + [[e2,e3],e1] + [[e3,e1],e2] = -(e1 + e2 + e3)
NON_JACOBI = {(0, 1, 0): 1, (1, 0, 0): -1, (1, 2, 1): 1, (2, 1, 1): -1,
              (2, 0, 2): 1, (0, 2, 2): -1}


class TestJacobi:
    def test_su2(self):
        assert su2().jacobi_on_generators().ok

    def test_abelian(self):
        assert abelian(3).jacobi_on_generators().ok

    def test_cyclic_rescaling_still_lie(self):
        # any purely cyclic antisymmetric table in dimension 3 satisfies Jacobi
        constants = {(0, 1, 2): 1, (1, 0, 2): -1, (1, 2, 0): 2, (2, 1, 0): -2,
                     (2, 0, 1): 1, (0, 2, 1): -1}
        algebra = lie_algebra("cyclic", ("e1", "e2", "e3"), constants)
        assert algebra.jacobi_on_generators().ok

    def test_genuinely_failing_constants(self):
        report = lie_algebra("bad", ("e1", "e2", "e3"), NON_JACOBI).jacobi_on_generators()
        assert not report.ok
        assert report.failures

    def test_antisymmetry_enforced(self):
        with pytest.raises(MalformedExpressionError):
            lie_algebra("ab", ("a", "b"), {(0, 1, 0): 1})

    def test_diagonal_constant_rejected(self):
        # [e1, e1] = e2 is not antisymmetric
        with pytest.raises(MalformedExpressionError):
            lie_algebra("ab", ("a", "b"), {(0, 0, 1): 1})

    def test_index_outside_basis_rejected(self):
        with pytest.raises(MalformedExpressionError):
            lie_algebra("ab", ("a", "b"), {(0, 1, 2): 1, (1, 0, 2): -1})
        with pytest.raises(MalformedExpressionError):
            lie_algebra("a", ("a",), {(0, 1, 0): 1, (1, 0, 0): -1})

    def test_su2_table_is_the_hand_table(self):
        hand = {(0, 1): (0, 0, 1), (1, 2): (1, 0, 0), (0, 2): (0, -1, 0)}
        assert su2().bracket_table == \
            {key: tuple(coerce_rational(c) for c in vec) for key, vec in hand.items()}

    def test_algebras_are_point_algebroids(self):
        for algebra in (su2(), u1(), abelian(2)):
            assert isinstance(algebra, AlgebroidModel)
            assert list(algebra.base_atlas.charts) == ["pt"]
            assert algebra.anchor_fields == (None,) * algebra.n

    def test_bracket_structure_row_decides_jacobi(self):
        # zero fields act by every table, so only the table can fail
        algebra = lie_algebra("bad", ("e1", "e2", "e3"), NON_JACOBI)
        atlas = FiberedAtlas([Chart("pt", star_shaped=True)])
        zero = VectorField(atlas, LEAF_J, {"pt": {}})
        action = ActionMap(algebra, atlas, [zero] * 3, name="zero-action")
        omega = DifferentialForm(atlas, 2, LEAF_JTILDE, {"pt": {}})
        momentum = MomentumMapRep(algebra, [{"pt": parse_expr("0")}] * 3)
        scenario = ActionScenario("non-jacobi-point", algebra, action,
                                  PresymplecticData(atlas, omega), momentum)
        records = {r.check_id: r for r in
                   run_scenario(scenario, checks=["bracket-structure"]).records}
        assert set(records) == {"action-morphism", "bracket-structure"}
        assert records["action-morphism"].status == "pass"
        assert records["bracket-structure"].status == "fail"
        assert records["bracket-structure"].failures
        assert all(f[0] == "jacobi" for f in records["bracket-structure"].failures)


class TestGroupElements:
    def test_u1_unit_circle(self):
        g = GroupElement("U1", ExactScalar(Fraction(3, 5), Fraction(4, 5)))
        assert (g * g.inverse()) == GroupElement.identity("U1")
        with pytest.raises(MalformedExpressionError):
            GroupElement("U1", ExactScalar(2))

    def test_su2_constraints(self):
        g = GroupElement.su2_from_quaternion(Fraction(3, 5), 0, 0, Fraction(4, 5))
        assert (g * g.inverse()) == GroupElement.identity("SU2")
        with pytest.raises(MalformedExpressionError):
            GroupElement("SU2", ((ExactScalar(2), ZERO), (ZERO, ExactScalar(1))))

    def test_adjoint_diag_flips_e1(self):
        # quaternion (0,0,0,1) is the diagonal element diag(-i, i)
        g = GroupElement.su2_from_quaternion(0, 0, 0, 1)
        assert Ad(g, (ONE, ZERO, ZERO)) == (-ONE, ZERO, ZERO)

    def test_adjoint_identity(self):
        assert Ad(GroupElement.identity("SU2"), (ONE, ZERO, ZERO)) == \
            (ONE, ZERO, ZERO)
        assert Ad(GroupElement.identity("U1"), (ExactScalar(5),)) == (ExactScalar(5),)

    def test_adjoint_homomorphism_randomized(self):
        rng = random.Random(5)
        for _ in range(12):
            g, h = random_su2(rng), random_su2(rng)
            x = tuple(ExactScalar(rng.randint(-4, 4)) for _ in range(3))
            assert Ad(g * h, x) == Ad(g, Ad(h, x))
            assert Ad(g.inverse(), Ad(g, x)) == x

    def test_adjoint_preserves_bracket(self):
        rng = random.Random(8)
        alg = su2()
        for _ in range(8):
            g = random_su2(rng)
            x = tuple(ExactScalar(rng.randint(-3, 3)) for _ in range(3))
            y = tuple(ExactScalar(rng.randint(-3, 3)) for _ in range(3))
            lhs = Ad(g, tuple(v.constant_value() for v in
                              alg.bracket(alg.section(x), alg.section(y)).coeffs))
            rhs = tuple(v.constant_value() for v in
                        alg.bracket(alg.section(Ad(g, x)), alg.section(Ad(g, y))).coeffs)
            assert lhs == rhs

    def test_pairing_invariance(self):
        rng = random.Random(9)
        for _ in range(12):
            g = random_su2(rng)
            xi = tuple(ExactScalar(rng.randint(-4, 4)) for _ in range(3))
            x = tuple(ExactScalar(rng.randint(-4, 4)) for _ in range(3))
            assert pair(coAd(g, xi), Ad(g, x)) == pair(xi, x)

    def test_ad_star_sign_convention(self):
        # <ad*(e1) xi, e2> = <xi, ad(-e1) e2> = -<xi, e3>
        alg = su2()
        xi = (ZERO, ZERO, ONE)
        moved = ad_star(alg, (ONE, ZERO, ZERO), xi)
        assert moved[1].constant_value() == -ONE


class TestAlgebroidModels:
    def test_ad_on_structure_constants(self):
        model = su2()
        out = model.bracket(model.basis_section(0), model.basis_section(1))
        assert [c.simplify() for c in out.coeffs] == \
            [parse_expr("0"), parse_expr("0"), parse_expr("1")]
        # antisymmetry: ad(X)X = [X, X] = 0
        assert model.bracket(model.basis_section(0), model.basis_section(0)).is_zero()

    def test_tangent_model_ad_is_zero(self):
        from quantbench.catalog import pair_groupoid_scenario
        scenario = pair_groupoid_scenario()
        model = scenario.model
        # ker(anchor) is trivial, so no isotropy sections exist
        assert model.isotropy_indices == ()
        assert model.bracket(model.basis_section(0), model.basis_section(0)).is_zero()

    def test_anchor_morphism_and_leibniz(self):
        from quantbench.catalog import foliation_flat_scenario
        scenario = foliation_flat_scenario()
        assert scenario.action.morphism_report().ok
        assert scenario.model.leibniz_report().ok

    def test_action_morphism_catches_a_non_morphic_anchor(self):
        """With [dx, dy] = dx the coordinate anchors are no bracket morphism:
        rho[dx, dy] = d/dx, but [d/dx, d/dy] = 0.  The action fields are the
        anchors, so the bracket half of `action-morphism` reads
        [alpha dx, alpha dy] = 0 against alpha [dx, dy] = d/dx, and with its
        anchor half that is the whole anchor identity."""
        from quantbench.catalog import foliation_flat_scenario
        scenario = foliation_flat_scenario()
        good = scenario.model
        broken = AlgebroidModel("foliation", "foliation", good.base_atlas,
                                good.generator_names, {(0, 1): (1, 0)},
                                good.anchor_fields)
        action = ActionMap(broken, scenario.atlas, scenario.action.fields)
        assert action.morphism_report().failures == [("bracket", "dx", "dy")]
        bad = scenario.replace(model=broken, action=action)
        record = run_scenario(bad, checks=["action-morphism"]).records[0]
        assert (record.check_id, record.status) == ("action-morphism", "fail")
        assert record.failures == [("bracket", "dx", "dy")]

    def test_leibniz_reaches_first_order_errors(self, monkeypatch):
        """A bracket off by d/dw of the second slot's coefficients is wrong
        only on functions of w: f = 1 passes it, and f = w catches it."""
        from quantbench.catalog import foliation_flat_scenario
        model = foliation_flat_scenario().model
        right = model.bracket
        # the model refuses attribute assignment; the wrong bracket goes into its dict
        monkeypatch.setitem(vars(model), "bracket", lambda s1, s2: right(s1, s2) + model.section(
            [c.derivative("w") for c in s2.coeffs]))
        assert model.leibniz_report().failures == [("dx", "dy"), ("dy", "dx")]

    def test_gauge_splitting_recovers_base_field(self):
        from quantbench.catalog import gauge_u1_character_scenario
        model = gauge_u1_character_scenario(1).model
        # the splitting: the base field's coefficients, then a zero algebra part
        base = [parse_expr("b2"), parse_expr("1")]
        section = model.section(base + [0] * (model.n - model.gauge_base_count))
        field = model.anchor(section)
        chart = next(iter(model.base_atlas.charts))
        assert (field.component(chart, "b1") - parse_expr("b2")).simplify().is_zero()
        assert (field.component(chart, "b2") - parse_expr("1")).simplify().is_zero()


class TestActions:
    def test_su2_rotations_pass(self):
        atlas = sphere_atlas()
        model = su2()
        action = ActionMap(model, atlas, rotation_fields(atlas))
        assert action.morphism_report().ok

    def test_flipped_vertical_field_fails_bracket(self):
        from quantbench.catalog import control_flipped_field
        report = control_flipped_field().morphism_report()
        assert not report.ok
        assert any(f[0] == "bracket" for f in report.failures)

    def test_twice_the_anchor_fails_the_anchor_half(self):
        """alpha(ds) = 2 d/ds has base component 2 where the anchor has 1."""
        scenario = pair_groupoid_scenario()
        action = ActionMap(scenario.model, scenario.atlas, [scenario.action.fields[0] * 2])
        assert action.morphism_report().failures == [("anchor", "ds", "s")]

    def test_linearity_reaches_first_order_errors(self, monkeypatch):
        """An action off by d/dy of the first coefficient is right on f = 1;
        the base variable y catches it."""
        from quantbench.catalog import foliation_flat_scenario
        action = foliation_flat_scenario().action
        right = action.of
        # the action refuses attribute assignment; the wrong `of` goes into its dict
        monkeypatch.setitem(vars(action), "of", lambda section: right(section) +
                            action.fields[1] * section.coeffs[0].derivative("y"))
        assert action.morphism_report().failures == [("linearity", "dx")]

    @pytest.mark.parametrize("family", ["su2-orbit-k", "gauge-su2-k", "s1-plane-action",
                                        "u1-rotation-reduction-k", "foliation-flat"])
    def test_generator_field_is_the_image_of_the_basis_section(self, family):
        from quantbench.catalog import build_scenario
        action = build_scenario(family).action
        for i in range(action.model.n):
            ours, image = action.generator_field(i), action.of(action.model.basis_section(i))
            assert ours.leafwise_class == image.leafwise_class
            assert list(ours.components) == list(image.components)
            for ch, table in image.components.items():
                assert list(ours.components[ch]) == list(table)
                for coord, value in table.items():
                    got = ours.components[ch][coord]
                    assert (got.num, got.den) == (value.num, value.den)

    def test_generator_field_of_an_absent_field_is_zero(self):
        atlas = sphere_atlas()
        point = FiberedAtlas([Chart("pt")])
        model = AlgebroidModel("ab", "bundle_of_algebras", point, ("e1", "e2"),
                               {}, [None, None])
        field = rotation_fields(atlas)[0]
        action = ActionMap(model, atlas, [None, field])
        zero = action.generator_field(0)
        assert (zero.leafwise_class, zero.components) == ("Jtilde", {"N": {}, "S": {}})
        assert action.generator_field(1) is field

    def test_zero_abelian_action_passes(self):
        atlas = sphere_atlas()
        point = FiberedAtlas([Chart("pt")])
        model = AlgebroidModel("ab", "bundle_of_algebras", point, ("e1", "e2"),
                               {}, [None, None])
        zero = VectorField(atlas, LEAF_J, {"N": {}, "S": {}})
        action = ActionMap(model, atlas, [zero, zero])
        assert action.morphism_report().ok

    def test_action_algebroid_bracket(self):
        atlas = sphere_atlas()
        model = su2()
        action = ActionMap(model, atlas, rotation_fields(atlas))
        derived = action_algebroid(model, action)
        # constant sections reproduce the structure constants
        bracket = derived.bracket(derived.basis_section(0), derived.basis_section(1))
        assert [c.simplify() for c in bracket.coeffs] == \
            [parse_expr("0"), parse_expr("0"), parse_expr("1")]
        # f = g = 1 collapse and Jacobi with f = x
        assert derived.jacobi_on_generators().ok
        assert derived.jacobi_on_generators(coefficient=parse_expr("x")).ok

    def test_action_algebroid_derives_on_the_chart_of_the_coefficient(self):
        """u is a coordinate of chart S only, so [e1, u*e2] reads
        alpha(e1)(u) = u*v there."""
        derived = su2_orbit_scenario(1).action_model
        e1, e2, _ = derived.generators()
        bracket = derived.bracket(e1, e2 * parse_expr("u"))
        assert list(bracket.coeffs) == [parse_expr("0"), parse_expr("u*v"), parse_expr("u")]
        with pytest.raises(AtlasMismatchError):
            derived.bracket(e1, e2 * parse_expr("x*u"))

    def test_leibniz_catches_an_anchor_perturbed_on_chart_s(self, monkeypatch):
        """A bracket built from an anchor whose e3 field gains 1/7 d/du on
        chart S breaks Leibniz only where f = u is derived on chart S."""
        scenario = su2_orbit_scenario(1)
        derived = scenario.action_model
        atlas = scenario.action.target_atlas
        fields = rotation_fields(atlas)
        fields[2] = fields[2] + VectorField(atlas, LEAF_J, {"S": {"u": Fraction(1, 7)}})
        perturbed = action_algebroid(scenario.model, ActionMap(scenario.model, atlas, fields))
        monkeypatch.setitem(vars(derived), "bracket", lambda s1, s2: derived.section(
            perturbed.bracket(perturbed.section(s1.coeffs), perturbed.section(s2.coeffs)).coeffs))
        assert derived.leibniz_report().failures == [("e3", "e1"), ("e3", "e2")]

    def test_action_algebroid_anchor_is_action(self):
        atlas = sphere_atlas()
        model = su2()
        fields = rotation_fields(atlas)
        action = ActionMap(model, atlas, fields)
        derived = action_algebroid(model, action)
        coeff = parse_expr("x")
        section = derived.section([coeff, 0, 0])
        anchored = derived.anchor(section)
        assert (anchored - fields[0] * coeff).is_zero()


@cache
def _bracket_model(name) -> AlgebroidModel:
    """su2-orbit-1's action algebroid (anchors on both sphere charts) or
    gauge-su2-1's model (three isotropy generators and two base anchors)."""
    if name == "su2-orbit-1":
        return su2_orbit_scenario(1).action_model
    return gauge_su2_scenario(1).model


def _dense_bracket(model, chart, f, g):
    """[f, g] for coefficient lists f and g: all n^3 structure terms, the
    structure constants read off `bracket_table` (its missing order by
    antisymmetry), plus every anchor term, each derivative taken on `chart`."""
    n, zero = model.n, RationalExpr.zero()

    def c(i, j, k):
        if (i, j) in model.bracket_table:
            return model.bracket_table[(i, j)][k]
        if (j, i) in model.bracket_table:
            return -model.bracket_table[(j, i)][k]
        return zero

    def rho(i, h):
        field = model.anchor_fields[i]
        return zero if field is None else field.derive(h, chart)

    return [sum((f[i] * g[j] * c(i, j, k) for i in range(n) for j in range(n)), zero)
            + sum((f[i] * rho(i, g[k]) - g[i] * rho(i, f[k]) for i in range(n)), zero)
            for k in range(n)]


def _coefficients(coords):
    """Zero, a constant, a polynomial, a constant over a polynomial, or a
    quotient of polynomials, in `coords`."""
    parts = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    polys = st.dictionaries(st.tuples(*[st.integers(0, 2)] * len(coords)), parts,
                            max_size=3).map(lambda table: PolyExpr({
                                tuple((v, e) for v, e in zip(coords, exps) if e): c
                                for exps, c in table.items()}))
    nonzero = polys.filter(lambda p: not p.is_zero())
    return st.one_of(st.just(RationalExpr.zero()), parts.map(RationalExpr.const),
                     polys.map(RationalExpr), st.builds(RationalExpr, parts, nonzero),
                     st.builds(RationalExpr, polys, nonzero))


class TestSparseBracket:
    """The bracket over the nonzero entries equals the dense Leibniz sum, and
    section arithmetic equals what `model.section` builds."""

    @pytest.mark.parametrize("name", ["su2-orbit-1", "gauge-su2-1"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_bracket_is_the_dense_sum(self, name, data):
        model = _bracket_model(name)
        chart = data.draw(st.sampled_from(list(model.base_atlas.charts)))
        coeffs = st.lists(_coefficients(model.base_atlas.chart(chart).coords),
                          min_size=model.n, max_size=model.n)
        f, g = data.draw(coeffs), data.draw(coeffs)
        ours = model.bracket(model.section(f), model.section(g))
        assert list(ours.coeffs) == _dense_bracket(model, chart, f, g)

    @pytest.mark.parametrize("name", ["su2-orbit-1", "gauge-su2-1"])
    def test_a_constant_over_a_polynomial_is_derived(self, name):
        model = _bracket_model(name)
        chart = next(iter(model.base_atlas.charts))
        a, b = model.base_atlas.chart(chart).coords[:2]
        f = [RationalExpr.const(1)] * model.n
        g = [parse_expr(f"1/(1 + {a}^2 + {b})")] * model.n
        ours = model.bracket(model.section(f), model.section(g))
        assert list(ours.coeffs) == _dense_bracket(model, chart, f, g)
        assert any(not c.is_zero() for c in ours.coeffs)

    @pytest.mark.parametrize("name", ["su2-orbit-1", "gauge-su2-1"])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_section_arithmetic_is_the_validated_section(self, name, data):
        model = _bracket_model(name)
        coeffs = st.lists(_coefficients(model.base_atlas.chart(
            next(iter(model.base_atlas.charts))).coords), min_size=model.n, max_size=model.n)
        s, t = model.section(data.draw(coeffs)), model.section(data.draw(coeffs))
        factor = data.draw(st.sampled_from([parse_expr("0"), parse_expr("-2/3"),
                                            parse_expr("1/(1+b1^2)")]))
        for ours, tables in ((s + t, [a + b for a, b in zip(s.coeffs, t.coeffs)]),
                             (s * factor, [a * factor for a in s.coeffs]),
                             (model.bracket(s, t), _dense_bracket(
                                 model, next(iter(model.base_atlas.charts)),
                                 s.coeffs, t.coeffs))):
            reference = model.section(tables)
            assert ours.model is model and len(ours.coeffs) == model.n
            assert all(type(c) is RationalExpr for c in ours.coeffs)
            assert list(ours.coeffs) == list(reference.coeffs)

    @pytest.mark.parametrize("target,name", [
        ("model", "bracket_table"), ("form", "coefficients"), ("form", "leafwise_class"),
        ("field", "components"), ("field", "leafwise_class")])
    def test_no_attribute_can_be_set(self, target, name):
        """The model, a form and a field refuse attribute assignment, so what
        they derive at construction cannot outlive a rebound input: su(2)'s
        [e1, e2] is e3, read from its kept `bracket_entries`."""
        model, scenario = su2(), su2_orbit_scenario(1)
        held = {"model": model, "form": scenario.presymplectic.omega_tilde,
                "field": scenario.generator_field(0)}[target]
        before = getattr(held, name)
        with pytest.raises(AttributeError):
            setattr(held, name, {} if name != "leafwise_class" else LEAF_JTILDE)
        assert getattr(held, name) is before
        e1, e2, e3 = model.generators()
        assert model.bracket(e1, e2).coeffs == e3.coeffs

    @pytest.mark.parametrize("family", ["su2-orbit-k", "gauge-su2-k", "s1-plane-action"])
    def test_a_basis_section_acts_by_its_stored_field(self, family):
        from quantbench.catalog import build_scenario
        action = build_scenario(family).action
        for i in range(action.model.n):
            assert action.of(action.model.basis_section(i)) is action.fields[i]
            copy = action.model.section(action.model.basis_section(i).coeffs)
            assert action.of(copy) is not action.fields[i]

