"""Exact scalar and expression kernel."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantbench.errors import MalformedExpressionError
from quantbench.exprs import (
    PolyExpr,
    RationalExpr,
    equal_at_random_points,
    parse_expr,
    poly_gcd,
    simplify,
)
from quantbench.scalars import ExactScalar, rational


class TestExactScalar:
    def test_parse_formats(self):
        assert ExactScalar.parse("3/4") == ExactScalar(Fraction(3, 4))
        assert ExactScalar.parse("1/2+2/3i") == ExactScalar(Fraction(1, 2), Fraction(2, 3))
        assert ExactScalar.parse("-i") == ExactScalar(0, -1)
        assert ExactScalar.parse("-5") == ExactScalar(-5)
        with pytest.raises(MalformedExpressionError):
            ExactScalar.parse("1+2i+3i")

    def test_round_trip(self):
        for text in ("0", "-2/7", "1+1i", "3/5-4/5i"):
            s = ExactScalar.parse(text)
            assert ExactScalar.parse(str(s)) == s

    def test_field_axioms(self):
        rng = random.Random(1)
        for _ in range(50):
            a = ExactScalar(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                            Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
            b = ExactScalar(rng.randint(-9, 9), rng.randint(-9, 9))
            assert a + b == b + a
            assert a * b == b * a
            if not a.is_zero():
                assert a * a.inverse() == ExactScalar(1)
            assert (a * b).conj() == a.conj() * b.conj()
            assert a.abs2() == a * a.conj()

    def test_exactness_no_rounding(self):
        third = rational(1, 3)
        assert sum((third for _ in range(3)), ExactScalar(0)) == ExactScalar(1)


class TestSimplify:
    def test_polynomial_division(self):
        assert str(simplify(parse_expr("(x^2-1)/(x-1)"))) == "x + 1"

    def test_commutativity_collapses(self):
        assert simplify(parse_expr("(x*y - y*x)/1")).is_zero()

    def test_power_cancellation_random_point_oracle(self):
        expr = parse_expr("((1+x^2+y^2)^2 * (1+x^2+y^2)^-1)/1")
        target = parse_expr("1+x^2+y^2")
        assert equal_at_random_points(expr, target)
        assert simplify(expr) == target

    def test_idempotent(self):
        for text in ("(x^2-1)/(x-1)", "(x^2*y+x*y^2)/(x^2+x*y)", "x/(1+x^2)"):
            once = simplify(parse_expr(text))
            assert simplify(once) == once
            assert str(simplify(once)) == str(once)

    def test_zero_denominator_rejected(self):
        with pytest.raises(MalformedExpressionError):
            RationalExpr(PolyExpr.var("x"), PolyExpr())
        with pytest.raises(MalformedExpressionError):
            parse_expr("x/(y-y)")

    def test_gcd_reduction(self):
        assert str(simplify(parse_expr("(x^2*y+x*y^2)/(x^2+x*y)"))) == "y"
        g = poly_gcd(parse_expr("x^2-y^2").as_poly(), parse_expr("x^2+2*x*y+y^2").as_poly())
        assert g == parse_expr("x+y").as_poly()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6),
           st.integers(-6, 6))
    def test_difference_characterizes_equality(self, a, b, c, d):
        x = RationalExpr.var("x")
        p = x * a + RationalExpr.const(b)
        q = x * c + RationalExpr.const(d)
        assert ((p - q).simplify().is_zero()) == (a == c and b == d)
        assert (simplify(p) == simplify(q)) == (a == c and b == d)


class TestTwoPiToken:
    def test_pi_is_exact(self):
        # 1/pi = 2i/twopii ; squaring gives -4/twopii^2 = 1/pi^2
        inv_pi = parse_expr("2*i/twopii")
        sq = (inv_pi * inv_pi).simplify()
        assert sq == parse_expr("-4/twopii^2")

    def test_conjugation_flips_token(self):
        expr = parse_expr("twopii*x + i*y + 3")
        conj = expr.conj()
        assert conj == parse_expr("-twopii*x - i*y + 3")
        assert (expr + conj).simplify() == parse_expr("6")

    def test_numeric_value(self):
        import cmath
        val = parse_expr("2*i/twopii").numeric({})
        assert abs(val - 1 / cmath.pi) < 1e-12


class TestCalculus:
    def test_derivative_quotient_rule(self):
        expr = parse_expr("x^3*y/(1+x^2)")
        deriv = expr.derivative("x").simplify()
        expected = parse_expr("(x^4*y + 3*x^2*y)/(x^4 + 2*x^2 + 1)")
        assert deriv == expected

    def test_substitution_composes(self):
        expr = parse_expr("x^2+y^2")
        inv = {"x": parse_expr("u/(u^2+v^2)"), "y": parse_expr("-v/(u^2+v^2)")}
        assert expr.subst(inv).simplify() == parse_expr("1/(u^2+v^2)")

    def test_evaluate_at_pole_rejected(self):
        with pytest.raises(MalformedExpressionError):
            parse_expr("1/x").evaluate({"x": 0})

    def test_serialization_round_trip(self):
        from quantbench.scenario_io import expr_to_string
        for text in ("(1+x^2+y^2)^2", "x/(1+y^2)", "(2/3)*i*x - twopii*y/5",
                     "-x - i*y"):
            expr = parse_expr(text)
            again = parse_expr(expr_to_string(expr))
            assert (again - expr).simplify().is_zero()


class TestParser:
    @pytest.mark.parametrize("text", [
        "²", "x+³", "(" * 3000 + "x" + ")" * 3000, "-" * 3000 + "x", "1" * 5000],
        ids=["superscript", "superscript-term", "nested-parentheses", "nested-minus",
             "5000-digits"])
    def test_malformed_text_raises_malformed_expression(self, text):
        with pytest.raises(MalformedExpressionError):
            parse_expr(text)

    @settings(max_examples=300, deadline=None)
    @given(st.text())
    def test_any_text_parses_or_raises_malformed_expression(self, text):
        try:
            parse_expr(text)
        except MalformedExpressionError:
            pass
