"""Differential forms, vector fields and the three leafwise differentials."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from quantbench.catalog import omega_fs, rotation_fields, sphere_atlas
from quantbench.errors import (
    DegreeError,
    LeafwiseClassError,
    NotClosedError,
    UnsupportedPrimitiveError,
)
from quantbench.exprs import PolyExpr, RationalExpr, parse_expr
from quantbench.geometry import (
    Chart,
    DifferentialForm,
    FiberedAtlas,
    LEAF_FULL,
    LEAF_J,
    LEAF_JTILDE,
    Transition,
    VectorField,
    commutator,
    exterior_derivative,
    form_function,
    glue_check,
    glue_check_field,
    interior_product,
    lie_derivative,
    pullback,
)
from quantbench.integrality import poincare_primitive
from quantbench.scalars import ExactScalar

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def atlas():
    return sphere_atlas()


def random_polynomial(variables, rng, degree=2, span=5) -> RationalExpr:
    """Four random monomials in `variables`, each exponent at most `degree`,
    with rational coefficients of numerator at most `span`."""
    if not variables:
        return RationalExpr.const(Fraction(rng.randint(-span, span), rng.randint(1, 3)))
    poly = PolyExpr()
    for _ in range(4):
        mono = {}
        for v in variables:
            e = rng.randint(0, degree)
            if e:
                mono[v] = e
        coeff = ExactScalar(Fraction(rng.randint(-span, span), rng.randint(1, 3)))
        poly = poly + PolyExpr({tuple(sorted(mono.items())): coeff})
    return RationalExpr(poly)


def random_form(atlas, degree, rng, chart="N"):
    coords = atlas.chart(chart).coords
    if degree == 0:
        table = {(): random_polynomial(coords, rng)}
    elif degree == 1:
        table = {(c,): random_polynomial(coords, rng) for c in coords}
    else:
        table = {tuple(coords): random_polynomial(coords, rng)}
    return DifferentialForm(atlas, degree, LEAF_J, {chart: table})


class TestExteriorDerivative:
    def test_basic(self, atlas):
        f = DifferentialForm(atlas, 1, LEAF_J, {"N": {("y",): parse_expr("x")}})
        df = exterior_derivative(f)
        assert df.coefficient("N", ("x", "y")) == RationalExpr.const(1)

    def test_top_fiber_degree_dies(self, atlas):
        # d^J of a top fiber-degree form vanishes
        form = DifferentialForm(atlas, 2, LEAF_J,
                                {"N": {("x", "y"): parse_expr("x^3*y - y^2")}})
        assert exterior_derivative(form, LEAF_J).is_zero()

    def test_fs_form_closed(self, atlas):
        assert exterior_derivative(omega_fs(atlas, Fraction(1))).is_zero()

    def test_class_restriction_enforced(self, atlas):
        j_form = DifferentialForm(atlas, 1, LEAF_J, {"N": {("x",): parse_expr("y")}})
        with pytest.raises(LeafwiseClassError):
            exterior_derivative(j_form, "full")

    def test_dd_zero_randomized(self, atlas):
        rng = random.Random(7)
        count = 0
        for degree in (0, 1):
            for _ in range(60):
                form = random_form(atlas, degree, rng)
                assert exterior_derivative(exterior_derivative(form)).is_zero()
                count += 1
        assert count >= 100


class TestInteriorProduct:
    def test_coordinate_contraction(self, atlas):
        dxdy = DifferentialForm(atlas, 2, LEAF_J, {"N": {("x", "y"): 1}})
        d_x = VectorField(atlas, LEAF_J, {"N": {"x": 1}})
        d_y = VectorField(atlas, LEAF_J, {"N": {"y": 1}})
        assert interior_product(d_x, dxdy).coefficient("N", ("y",)) == \
            RationalExpr.const(1)
        dx = DifferentialForm(atlas, 1, LEAF_J, {"N": {("x",): 1}})
        assert interior_product(d_y, dx).is_zero()

    def test_degree_zero_rejected(self, atlas):
        fn = form_function(atlas, {"N": parse_expr("x")})
        v = VectorField(atlas, LEAF_J, {"N": {"x": 1}})
        with pytest.raises(DegreeError):
            interior_product(v, fn)

    def test_double_contraction_vanishes(self, atlas):
        rng = random.Random(13)
        v = VectorField(atlas, LEAF_J,
                        {"N": {"x": random_polynomial(("x", "y"), rng),
                               "y": random_polynomial(("x", "y"), rng)}})
        omega = random_form(atlas, 2, rng)
        assert interior_product(v, interior_product(v, omega)).is_zero()

    def test_hamiltonian_field_identity(self, atlas):
        # the vertical rotation field is the Hamiltonian field of the height
        k = Fraction(3)
        omega = omega_fs(atlas, k).restrict(LEAF_J)
        v3 = rotation_fields(atlas)[2]
        height = form_function(
            atlas, {"N": parse_expr("i*(x^2+y^2-1)/(twopii*(1+x^2+y^2))") *
                    ExactScalar(Fraction(3, 2)),
                    "S": parse_expr("-i*(u^2+v^2-1)/(twopii*(1+u^2+v^2))") *
                    ExactScalar(Fraction(3, 2))}, LEAF_J)
        identity = interior_product(v3, omega) + exterior_derivative(height, LEAF_J)
        assert identity.is_zero()

    def test_chart_order_ignores_hash_seed(self):
        """The contraction keeps the form's chart order under every string-hash
        seed; a set of chart names would follow the seed."""
        code = ("import json; from quantbench import catalog; "
                "from quantbench.geometry import interior_product; "
                "s = catalog.su2_orbit_scenario(1); omega = s.presymplectic.omega_tilde; "
                "print(json.dumps([list(interior_product(s.generator_field(0), omega)"
                ".coefficients), list(omega.coefficients)]))")
        path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
        for seed in "01":
            contracted, declared = json.loads(subprocess.run(
                [sys.executable, "-c", code], check=True, capture_output=True, text=True,
                env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)).stdout)
            assert contracted == declared == ["N", "S"]


class TestLieDerivative:
    def test_translation(self, atlas):
        form = DifferentialForm(atlas, 1, LEAF_J, {"N": {("y",): parse_expr("x")}})
        v = VectorField(atlas, LEAF_J, {"N": {"x": 1}})
        out = lie_derivative(v, form)
        assert out.coefficient("N", ("y",)) == RationalExpr.const(1)
        assert out.coefficient("N", ("x",)).is_zero()

    def test_rotation_invariance_of_fs(self, atlas):
        omega = omega_fs(atlas, Fraction(1))
        for v in rotation_fields(atlas):
            assert lie_derivative(v, omega).is_zero()

    def test_naturality_on_random_functions(self, atlas):
        rng = random.Random(17)
        for _ in range(25):
            f = random_polynomial(("x", "y"), rng)
            v = VectorField(atlas, LEAF_J,
                            {"N": {"x": random_polynomial(("x", "y"), rng),
                                   "y": random_polynomial(("x", "y"), rng)}})
            fn = form_function(atlas, {"N": f}, LEAF_J)
            lhs = lie_derivative(v, exterior_derivative(fn, LEAF_J))
            rhs = exterior_derivative(lie_derivative(v, fn), LEAF_J)
            assert (lhs - rhs).is_zero()

    def test_cartan_formula_randomized(self, atlas):
        rng = random.Random(19)
        for _ in range(25):
            v = VectorField(atlas, LEAF_J,
                            {"N": {"x": random_polynomial(("x", "y"), rng, degree=1),
                                   "y": random_polynomial(("x", "y"), rng, degree=1)}})
            form = random_form(atlas, 1, rng)
            lhs = lie_derivative(v, form)
            rhs = exterior_derivative(interior_product(v, form)) + \
                interior_product(v, exterior_derivative(form))
            assert (lhs - rhs).is_zero()


class TestPullback:
    def test_chain_rule_oracle(self, atlas):
        # pull du back through the inversion, against a hand-assembled chain rule
        t = atlas.transition("N", "S")
        du = DifferentialForm(atlas, 1, LEAF_J, {"S": {("u",): 1}})
        pulled = pullback(t, du)
        u_expr = parse_expr("x/(x^2+y^2)")
        expected_dx = u_expr.derivative("x")
        expected_dy = u_expr.derivative("y")
        assert (pulled.coefficient("N", ("x",)) - expected_dx).simplify().is_zero()
        assert (pulled.coefficient("N", ("y",)) - expected_dy).simplify().is_zero()

    def test_two_form_is_the_jacobian_determinant(self, atlas):
        # du^dv through the inversion is det(d(u, v)/d(x, y)) dx^dy
        t = atlas.transition("N", "S")
        dudv = DifferentialForm(atlas, 2, LEAF_J, {"S": {("u", "v"): 1}})
        (u_x, u_y), (v_x, v_y) = [[t.exprs[c].derivative(s) for s in "xy"] for c in "uv"]
        pulled = pullback(t, dudv)
        assert list(pulled.terms("N")) == [("x", "y")]
        assert (pulled.coefficient("N", ("x", "y")) - (u_x * v_y - u_y * v_x)).is_zero()

    def test_identity_and_zero(self, atlas):
        ident = Transition("N", "N", {"x": parse_expr("x"), "y": parse_expr("y")})
        form = DifferentialForm(atlas, 1, LEAF_J,
                                {"N": {("x",): parse_expr("x*y")}})
        assert (pullback(ident, form) - form).is_zero()
        zero = DifferentialForm(atlas, 1, LEAF_J, {"S": {}})
        assert pullback(atlas.transition("N", "S"), zero).is_zero()

    def test_commutes_with_d(self, atlas):
        rng = random.Random(23)
        t = atlas.transition("N", "S")
        for _ in range(10):
            form = random_form(atlas, 1, rng, chart="S")
            lhs = exterior_derivative(pullback(t, form), "full")
            rhs = pullback(t, exterior_derivative(form, LEAF_J))
            assert (lhs - rhs).is_zero()

    def test_functoriality(self, atlas):
        t_ns = atlas.transition("N", "S")
        t_sn = atlas.transition("S", "N")
        form = DifferentialForm(atlas, 1, LEAF_J,
                                {"N": {("x",): parse_expr("x"), ("y",): parse_expr("y^2")}})
        roundtrip = pullback(t_ns, pullback(t_sn, form))
        assert (roundtrip - form).is_zero()


class TestGlue:
    def test_fs_form_glues(self, atlas):
        assert glue_check(atlas, omega_fs(atlas, Fraction(1))).ok

    def test_mismatched_forms_fail(self):
        a = Chart("A", fiber_coords=("x", "y"))
        b = Chart("B", fiber_coords=("p", "q"))
        t_ab = Transition("A", "B", {"p": parse_expr("x"), "q": parse_expr("y")})
        t_ba = Transition("B", "A", {"x": parse_expr("p"), "y": parse_expr("q")})
        atl = FiberedAtlas([a, b], [t_ab, t_ba])
        form = DifferentialForm(atl, 1, LEAF_J,
                                {"A": {("x",): 1}, "B": {("q",): 1}})
        assert not glue_check(atl, form).ok

    def test_single_chart_always_glues(self):
        atl = FiberedAtlas([Chart("A", fiber_coords=("x", "y"))])
        form = DifferentialForm(atl, 1, LEAF_J, {"A": {("x",): parse_expr("y")}})
        assert glue_check(atl, form).ok

    def test_rotation_fields_glue(self, atlas):
        for v in rotation_fields(atlas):
            assert glue_check_field(atlas, v).ok


class TestPoincarePrimitive:
    def test_area_form(self, atlas):
        area = DifferentialForm(atlas, 2, LEAF_J, {"N": {("x", "y"): 1}})
        prim = poincare_primitive(area, atlas.chart("N"))
        assert prim.coefficient("N", ("x",)) == parse_expr("-y/2")
        assert prim.coefficient("N", ("y",)) == parse_expr("x/2")

    def test_zero(self, atlas):
        zero = DifferentialForm(atlas, 2, LEAF_J, {"N": {}})
        assert poincare_primitive(zero, atlas.chart("N")).is_zero()

    def test_inverse_of_d(self, atlas):
        form = DifferentialForm(atlas, 2, LEAF_J,
                                {"N": {("x", "y"): parse_expr("2*x")}})
        prim = poincare_primitive(form, atlas.chart("N"))
        assert (exterior_derivative(prim, LEAF_J) - form).is_zero()

    def test_randomized_closed_forms(self, atlas):
        rng = random.Random(29)
        for _ in range(20):
            form = random_form(atlas, 2, rng)  # top degree: automatically closed
            prim = poincare_primitive(form, atlas.chart("N"))
            assert (exterior_derivative(prim, LEAF_J) - form).is_zero()

    def test_rational_coefficients_rejected(self, atlas):
        form = DifferentialForm(atlas, 2, LEAF_J,
                                {"N": {("x", "y"): parse_expr("1/(1+x^2)")}})
        with pytest.raises(UnsupportedPrimitiveError):
            poincare_primitive(form, atlas.chart("N"))

    def test_non_closed_rejected(self, atlas):
        form = DifferentialForm(atlas, 1, LEAF_J, {"N": {("y",): parse_expr("x")}})
        bad = DifferentialForm(atlas, 1, LEAF_J, {"N": {("x",): parse_expr("y*y")}})
        with pytest.raises(NotClosedError):
            poincare_primitive(form + bad, atlas.chart("N"))


class TestCharts:
    def test_coords_for_each_class(self):
        """J reads the fiber, Jtilde the fiber and the orbit directions, in
        chart order; full and any other class read every coordinate."""
        chart = Chart("C", base_coords=("b1", "b2", "b3"), fiber_coords=("f1", "f2"),
                      orbit_coords=("b3", "b1"))
        assert chart.coords_for(LEAF_J) == ("f1", "f2")
        assert chart.coords_for(LEAF_JTILDE) == ("b1", "b3", "f1", "f2")
        assert chart.coords_for(LEAF_FULL) == ("b1", "b2", "b3", "f1", "f2")
        assert chart.coords_for("unknown") == chart.coords == ("b1", "b2", "b3", "f1", "f2")


class TestVectorFields:
    def test_commutator_of_rotations(self, atlas):
        v1, v2, v3 = rotation_fields(atlas)
        assert (commutator(v1, v2) - v3).is_zero()
        assert (commutator(v2, v3) - v1).is_zero()
        assert (commutator(v3, v1) - v2).is_zero()

    def test_leafwise_component_enforced(self):
        based = FiberedAtlas([Chart("C", base_coords=("b",), fiber_coords=("x",))])
        with pytest.raises(LeafwiseClassError):
            VectorField(based, LEAF_J, {"C": {"b": 1}})
        # base components are fine for the broad class
        VectorField(based, "full", {"C": {"b": 1}})

    def test_transition_consistency(self, atlas):
        assert atlas.check_transition_consistency() == []
