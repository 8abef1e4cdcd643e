"""Exact scalar and expression kernel."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quantbench.errors import MalformedExpressionError
from quantbench.exprs import (
    TWO_PI_I,
    PolyExpr,
    RationalExpr,
    _canonical,
    parse_expr,
    poly_gcd,
)
from quantbench.scalars import ExactScalar, rational


def equal_at_random_points(a: RationalExpr, b: RationalExpr, trials: int = 20,
                           seed: int = 7) -> bool:
    """Probabilistic equality: a and b agree at `trials` random rational points
    that are not poles of either."""
    rng = random.Random(seed)
    variables = sorted(a.variables() | b.variables())
    done = 0
    while done < trials:
        point = {v: ExactScalar(Fraction(rng.randint(-23, 23), rng.randint(1, 7)))
                 for v in variables}
        try:
            va, vb = a.evaluate(point), b.evaluate(point)
        except MalformedExpressionError:
            continue
        if va != vb:
            return False
        done += 1
    return True


class TestExactScalar:
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


class TestImmutability:
    """Scalars and expressions are immutable values that hash as they compare."""

    @pytest.mark.parametrize("value, slot", [
        (ExactScalar(1, 2), "num"), (ExactScalar(1, 2), "den"),
        (PolyExpr.var("x"), "terms"), (PolyExpr.var("x"), "den"),
        (parse_expr("x/(1+y)"), "num"), (parse_expr("x/(1+y)"), "den")])
    def test_slots_cannot_be_set(self, value, slot):
        before = str(value)
        with pytest.raises(AttributeError, match="immutable"):
            setattr(value, slot, getattr(value, slot))
        assert str(value) == before

    def test_equal_quotients_hash_alike(self):
        a, b = parse_expr("(x^2-1)/(x-1)"), parse_expr("x+1")
        assert a == b and a.num != b.num
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_equal_polynomials_hash_alike(self):
        a = PolyExpr({(("x", 1),): Fraction(1, 2), (): 3})
        b = PolyExpr.var("x") * PolyExpr.const(Fraction(1, 2)) + PolyExpr.const(3)
        assert a is not b and a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


_scalar_parts = st.tuples(st.fractions(min_value=-30, max_value=30, max_denominator=24),
                          st.fractions(min_value=-30, max_value=30, max_denominator=24))


def exact_value(s: ExactScalar):
    """(re, im) as Fractions, after checking that the integers of `s` are in
    canonical form: a positive denominator sharing no factor with both parts."""
    (re, im), den = s.num, s.den
    assert den > 0 and math.gcd(re, im, den) == 1
    return Fraction(re, den), Fraction(im, den)


def fraction_text(re: Fraction, im: Fraction) -> str:
    """The text of re + im*i from `str(Fraction)` of each part."""
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im}i"
    return f"{re}+{im}i" if im > 0 else f"{re}{im}i"


class TestScalarAgainstFractionPairs:
    """Every operation of `ExactScalar` against the same operation on a pair
    of Fractions written out here."""

    @settings(max_examples=300, deadline=None)
    @given(_scalar_parts, _scalar_parts, st.integers(-5, 5))
    @example((Fraction(1), Fraction(0)), (Fraction(-3, 4), Fraction(0)), 2)
    def test_operations(self, x, y, k):
        (ar, ai), (br, bi) = x, y
        a, b = ExactScalar(ar, ai), ExactScalar(br, bi)
        assert exact_value(a) == (ar, ai)
        assert exact_value(a + b) == (ar + br, ai + bi)
        assert exact_value(a - b) == (ar - br, ai - bi)
        assert exact_value(-a) == (-ar, -ai)
        assert exact_value(a * b) == (ar * br - ai * bi, ar * bi + ai * br)
        assert exact_value(a + k) == exact_value(k + a) == (ar + k, ai)
        assert exact_value(a * k) == exact_value(k * a) == (ar * k, ai * k)
        assert exact_value(a.conj()) == (ar, -ai)
        assert exact_value(a.abs2()) == (ar * ar + ai * ai, 0)
        norm = ar * ar + ai * ai
        if norm:
            assert exact_value(a.inverse()) == (ar / norm, -ai / norm)
        else:
            with pytest.raises(ZeroDivisionError):
                a.inverse()
        assert (a == b) == ((ar, ai) == (br, bi))
        assert a == ExactScalar(ar, ai) and hash(a) == hash(ExactScalar(ar, ai))
        if not ai:
            assert hash(ExactScalar(ar)) == hash(ar) and ar in {ExactScalar(ar)}
        assert a.is_zero() == (ar == ai == 0)
        assert a.is_integer() == (ai == 0 and ar.denominator == 1)
        assert a.is_positive() == (ai == 0 and ar > 0)
        assert str(a) == fraction_text(ar, ai)

    @settings(max_examples=100, deadline=None)
    @given(_scalar_parts)
    def test_constant_polynomial_has_the_integers_of_the_scalar(self, x):
        s = ExactScalar(*x)
        p = PolyExpr.const(s)
        assert p.terms == ({} if s.is_zero() else {0: s.num})
        assert p.den == s.den
        value = p.constant_value()
        assert (value.num, value.den) == (s.num, s.den)


class TestSimplify:
    def test_polynomial_division(self):
        assert str(parse_expr("(x^2-1)/(x-1)").simplify()) == "x + 1"

    def test_commutativity_collapses(self):
        assert parse_expr("(x*y - y*x)/1").simplify().is_zero()

    def test_power_cancellation_random_point_oracle(self):
        expr = parse_expr("((1+x^2+y^2)^2 * (1+x^2+y^2)^-1)/1")
        target = parse_expr("1+x^2+y^2")
        assert equal_at_random_points(expr, target)
        assert expr.simplify() == target

    def test_idempotent(self):
        for text in ("(x^2-1)/(x-1)", "(x^2*y+x*y^2)/(x^2+x*y)", "x/(1+x^2)"):
            once = parse_expr(text).simplify()
            assert once.simplify() == once
            assert str(once.simplify()) == str(once)

    def test_zero_denominator_rejected(self):
        with pytest.raises(MalformedExpressionError):
            RationalExpr(PolyExpr.var("x"), PolyExpr())
        with pytest.raises(MalformedExpressionError):
            parse_expr("x/(y-y)")

    def test_gcd_reduction(self):
        assert str(parse_expr("(x^2*y+x*y^2)/(x^2+x*y)").simplify()) == "y"
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
        assert (p.simplify() == q.simplify()) == (a == c and b == d)


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

    @pytest.mark.parametrize("text", [
        "37^9999999", "(x+y+1)^200", "x^99999999", "(x^999)^999",
        pytest.param("x^" + "9" * 4000, id="4000-digit-exponent")])
    def test_oversized_power_raises_before_it_is_built(self, text):
        start = time.perf_counter()
        with pytest.raises(MalformedExpressionError):
            parse_expr(text)
        assert time.perf_counter() - start < 1.0

    @settings(max_examples=300, deadline=None)
    @given(st.text())
    def test_any_text_parses_or_raises_malformed_expression(self, text):
        try:
            parse_expr(text)
        except MalformedExpressionError:
            pass


# ---------------------------------------------------------------------------
# Differential tests against sympy's polynomial ring over QQ_I
# ---------------------------------------------------------------------------

# The order in which a process first meets these names differs from their
# sorted order (__z, __zb, a, b, twopii), so a monomial order read from field
# positions instead of names would show.
VARS = ("b", "a", "__zb", "__z", TWO_PI_I)
for _name in VARS:
    PolyExpr.var(_name)
_part = st.fractions(min_value=-12, max_value=12, max_denominator=12)
_coefficients = st.builds(ExactScalar, _part, _part)


def _polys(max_terms, max_exp=2):
    exponents = st.tuples(*[st.integers(0, max_exp)] * len(VARS))
    return st.dictionaries(exponents, _coefficients, max_size=max_terms).map(
        lambda table: PolyExpr({tuple((v, e) for v, e in zip(VARS, exps) if e): c
                                for exps, c in table.items()}))


polys = _polys(4)
small_polys = _polys(3)
nonzero_polys = polys.filter(lambda p: not p.is_zero())
small_nonzero_polys = small_polys.filter(lambda p: not p.is_zero())


@pytest.fixture(scope="module")
def oracle():
    pytest.importorskip("sympy")
    return QQIOracle()


class QQIOracle:
    """Conversions between PolyExpr and sympy's ring QQ_I[x, y, twopii]."""

    def __init__(self):
        from sympy.polys.domains import QQ, QQ_I
        from sympy.polys.rings import ring
        self.QQ, self.QQ_I = QQ, QQ_I
        self.ring = ring(",".join(VARS), QQ_I)[0]

    def to_sympy(self, p: PolyExpr):
        """p in QQ_I[VARS]; a variable outside VARS raises, since dropping it
        would compare a different polynomial."""
        stray = p.variables() - set(VARS)
        if stray:
            raise ValueError(f"variables outside the oracle ring: {sorted(stray)}")
        QQ = self.QQ
        return self.ring.from_dict({
            tuple(dict(m).get(v, 0) for v in VARS):
                self.QQ_I(QQ(c.num[0], c.den), QQ(c.num[1], c.den))
            for m, c in p.coeffs().items()})

    def from_sympy(self, q) -> PolyExpr:
        return PolyExpr({
            tuple((v, e) for v, e in zip(VARS, exps) if e):
                ExactScalar(Fraction(int(c.x.numerator), int(c.x.denominator)),
                            Fraction(int(c.y.numerator), int(c.y.denominator)))
            for exps, c in q.terms()})

    def conj(self, q):
        """Conjugate coefficients, and the sign flip of odd twopii powers."""
        return self.ring.from_dict({
            exps: self.QQ_I(-c.x, c.y) if exps[VARS.index(TWO_PI_I)] % 2
            else self.QQ_I(c.x, -c.y)
            for exps, c in q.terms()})

    def is_unit(self, q) -> bool:
        return not q.is_zero and q.is_ground


def assert_canonical(p: PolyExpr):
    """The stored layout: nonzero Gaussian-integer pairs over one positive
    denominator, with no factor common to all of them."""
    parts = [part for pair in p.terms.values() for part in pair]
    assert all(pair != (0, 0) for pair in p.terms.values())
    assert p.den > 0
    assert math.gcd(p.den, *parts) == 1


def assert_matches(oracle, ours: PolyExpr, theirs):
    assert_canonical(ours)
    assert ours == oracle.from_sympy(theirs)


def assert_monic_quotient(oracle, ours: RationalExpr, num, den):
    """`ours` holds the invariant (canonical parts, a denominator with leading
    coefficient 1, zero as 0/1) and equals the sympy quotient num/den."""
    assert_canonical(ours.num)
    assert_canonical(ours.den)
    assert ours.den.leading()[1] == (ours.den.den, 0)
    if ours.is_zero():
        assert ours.den == PolyExpr.const(1)
    assert oracle.to_sympy(ours.num) * den == oracle.to_sympy(ours.den) * num


quotients = st.builds(RationalExpr, small_polys, small_nonzero_polys)


class TestAgainstSympy:
    """The integer kernel agrees with an independent exact implementation."""

    @settings(max_examples=150, deadline=None)
    @given(polys, polys)
    def test_sum_difference_and_product(self, oracle, a, b):
        sa, sb = oracle.to_sympy(a), oracle.to_sympy(b)
        assert_matches(oracle, a + b, sa + sb)
        assert_matches(oracle, a - b, sa - sb)
        assert_matches(oracle, -a, -sa)
        assert_matches(oracle, a * b, sa * sb)

    @settings(max_examples=100, deadline=None)
    @given(polys, st.one_of(st.integers(1, 12).map(lambda d: Fraction(1, d)),
                            st.integers(-3, 3), _coefficients))
    def test_product_by_a_constant(self, oracle, a, value):
        k = PolyExpr.const(value)
        expected = oracle.to_sympy(a) * oracle.to_sympy(k)
        assert_matches(oracle, a * k, expected)
        assert_matches(oracle, k * a, expected)

    @settings(max_examples=60, deadline=None)
    @given(small_polys, st.integers(1, 4))
    def test_power(self, oracle, a, n):
        assert_matches(oracle, a ** n, oracle.to_sympy(a) ** n)
        assert a ** 0 == PolyExpr.const(1)

    @settings(max_examples=100, deadline=None)
    @given(polys, nonzero_polys)
    def test_exact_division(self, oracle, a, b):
        assert_matches(oracle, (a * b).exact_div(b), oracle.to_sympy(a))
        from sympy.polys.polyerrors import ExactQuotientFailed
        try:
            expected = oracle.to_sympy(a).exquo(oracle.to_sympy(b))
        except ExactQuotientFailed:
            assert a.exact_div(b) is None
        else:
            assert_matches(oracle, a.exact_div(b), expected)

    @settings(max_examples=60, deadline=None)
    @given(small_nonzero_polys, small_polys, small_nonzero_polys)
    def test_gcd_up_to_a_unit(self, oracle, a, b, c):
        ours = poly_gcd(a * c, b * c)
        assert_canonical(ours)
        theirs = (oracle.to_sympy(a) * oracle.to_sympy(c)).gcd(
            oracle.to_sympy(b) * oracle.to_sympy(c))
        assert oracle.is_unit(oracle.to_sympy(ours).exquo(theirs))
        assert ours.leading()[1] == (ours.den, 0)  # leading coefficient 1

    def test_gcd_of_a_five_variable_product(self, oracle):
        """Hypothesis found this case; it ran for minutes while every
        pseudo-remainder was made primitive by a content gcd."""
        a, b, c = (parse_expr(text).as_poly() for text in (
            "(8+12*i)*__z*a^2*b*twopii^2 + (-17/6-7*i)*__z^2*__zb*a*b + (13/10-6*i)*__z",
            "(77/9+9/7*i)*__z^2*a^2*b^2*twopii^2 + (10-5*i)*__z^2*__zb^2*a"
            " + (-2+7/5*i)*__zb*b^2",
            "(1+35/4*i)*__z*__zb*b*twopii^2 + (-33/7-5*i)*__z*a^2*b*twopii"
            " + (-17/6+8*i)*__zb^2*a^2*twopii"))
        start = time.perf_counter()
        ours = poly_gcd(a * c, b * c)
        assert time.perf_counter() - start < 10.0
        theirs = (oracle.to_sympy(a) * oracle.to_sympy(c)).gcd(
            oracle.to_sympy(b) * oracle.to_sympy(c))
        assert oracle.is_unit(oracle.to_sympy(ours).exquo(theirs))

    @settings(max_examples=60, deadline=None)
    @given(small_polys, small_nonzero_polys, small_nonzero_polys)
    def test_simplify(self, oracle, a, b, c):
        s = RationalExpr(a * c, b * c).simplify()
        num, den = oracle.to_sympy(s.num), oracle.to_sympy(s.den)
        assert num * oracle.to_sympy(b) == den * oracle.to_sympy(a)
        assert oracle.is_unit(num.gcd(den)) or num.is_zero
        assert s.den.leading()[1] == (s.den.den, 0)

    @settings(max_examples=100, deadline=None)
    @given(polys)
    def test_derivative_and_conjugation(self, oracle, a):
        sa = oracle.to_sympy(a)
        for i, v in enumerate(VARS):
            assert_matches(oracle, a.derivative(v), sa.diff(oracle.ring.gens[i]))
        assert_matches(oracle, a.conj(), oracle.conj(sa))

    @settings(max_examples=60, deadline=None)
    @given(quotients, quotients, st.integers(-2, 3))
    def test_quotients_keep_a_monic_denominator(self, oracle, p, q, n):
        """Every operation gives a monic denominator, whether it normalizes
        (/, inverse, negative powers, conj) or keeps the invariant of its
        operands (+, -, *, non-negative powers, derivative, simplify)."""
        pn, pd = oracle.to_sympy(p.num), oracle.to_sympy(p.den)
        qn, qd = oracle.to_sympy(q.num), oracle.to_sympy(q.den)
        assert_monic_quotient(oracle, p, pn, pd)
        assert_monic_quotient(oracle, p + q, pn * qd + qn * pd, pd * qd)
        assert_monic_quotient(oracle, p - q, pn * qd - qn * pd, pd * qd)
        assert_monic_quotient(oracle, -p, -pn, pd)
        assert_monic_quotient(oracle, p * q, pn * qn, pd * qd)
        assert_monic_quotient(oracle, p.conj(), oracle.conj(pn), oracle.conj(pd))
        assert_monic_quotient(oracle, p.simplify(), pn, pd)
        for i, v in enumerate(VARS):
            x = oracle.ring.gens[i]
            assert_monic_quotient(oracle, p.derivative(v),
                                  pn.diff(x) * pd - pn * pd.diff(x), pd * pd)
        if q.is_zero():
            return
        assert_monic_quotient(oracle, p / q, pn * qd, pd * qn)
        assert_monic_quotient(oracle, q.inverse(), qd, qn)
        if n >= 0:
            assert_monic_quotient(oracle, q ** n, qn ** n, qd ** n)
        else:
            assert_monic_quotient(oracle, q ** n, qd ** -n, qn ** -n)

    def test_oracle_rejects_a_variable_outside_its_ring(self, oracle):
        outside = PolyExpr.var("x") * PolyExpr.var(TWO_PI_I)
        with pytest.raises(ValueError, match=r"\['x'\]"):
            oracle.to_sympy(outside)
        assert oracle.from_sympy(oracle.to_sympy(PolyExpr.var(TWO_PI_I))) == \
            PolyExpr.var(TWO_PI_I)

    @pytest.mark.parametrize("text, conjugate, den", [
        ("1/twopii", "-1/twopii", "twopii"),
        ("1/(2*x+twopii)", "1/(2*x-twopii)", "x-twopii/2"),
        ("1/(2*a+twopii)", "1/(2*a-twopii)", "twopii-2*a"),
    ])
    def test_conjugation_renormalizes_odd_twopii_powers(self, text, conjugate, den):
        """Conjugation sends twopii to -twopii.  Where twopii leads the
        denominator (names sorting later dominate: a < twopii < x), the
        conjugate denominator leads with -1 until conj normalizes it."""
        conj = parse_expr(text).conj()
        assert conj.den == parse_expr(den).as_poly()
        assert conj.den.leading()[1] == (conj.den.den, 0)
        assert conj == parse_expr(conjugate)


def _ring_subst(oracle, poly: PolyExpr, values: dict):
    """(A, B) with poly(values) = A/B in sympy's ring, `values` mapping names
    to (numerator, denominator) ring pairs: the textbook term-by-term sum,
    each term over the product of its values' denominators."""
    ring = oracle.ring
    gens = dict(zip(VARS, ring.gens))
    total, common = ring.zero, ring.one
    for exps, c in oracle.to_sympy(poly).terms():
        num, den = ring(c), ring.one
        for v, e in zip(VARS, exps):
            if not e:
                continue
            if v in values:
                n, d = values[v]
                num, den = num * n ** e, den * d ** e
            else:
                num = num * gens[v] ** e
        total, common = total * den + num * common, common * den
    return total, common


def _check_substitution(oracle, p: RationalExpr, mapping: dict):
    """p.subst(mapping) against the quotient of the two sides substituted in
    sympy's ring, compared by cross-multiplication, or the zero-denominator
    error where sympy's substituted denominator is 0.  No gcd runs on the
    sympy side: cancelling the term-by-term quotient, or sympy's cancel()
    of subs() on expressions, takes minutes on some five-variable inputs."""
    values = {v: (oracle.to_sympy(r.num), oracle.to_sympy(r.den)) for v, r in mapping.items()}
    top, top_den = _ring_subst(oracle, p.num, values)
    bottom, bottom_den = _ring_subst(oracle, p.den, values)
    if bottom.is_zero:
        with pytest.raises(MalformedExpressionError, match="substitution lands"):
            p.subst(mapping)
        return
    assert_monic_quotient(oracle, p.subst(mapping), top * bottom_den, top_den * bottom)


_targets = st.sets(st.sampled_from(VARS), min_size=1, max_size=3)
# exponents up to 1 keep the products of sympy's term-by-term sum small
_linear_polys = _polys(3, 1)
_linear_nonzero = _polys(2, 1).filter(lambda p: not p.is_zero())
_values = st.builds(RationalExpr, _linear_polys, _linear_nonzero)
# what is substituted into: squares make the numerator and denominator powers
_substituted = st.builds(RationalExpr, small_polys, _linear_nonzero)


class TestSubstitution:
    """`subst` over one denominator agrees with sympy's ring."""

    @settings(max_examples=25, deadline=None)
    @given(_substituted, _targets, st.lists(_linear_polys, min_size=3, max_size=3),
           _linear_nonzero)
    def test_values_over_one_denominator(self, oracle, p, targets, nums, d):
        mapping = {v: RationalExpr(n, d) for v, n in zip(sorted(targets), nums)}
        _check_substitution(oracle, p, mapping)

    @settings(max_examples=15, deadline=None)
    @given(_substituted, _targets, st.lists(_values, min_size=3, max_size=3))
    def test_values_over_distinct_denominators(self, oracle, p, targets, values):
        _check_substitution(oracle, p, dict(zip(sorted(targets), values)))

    @settings(max_examples=25, deadline=None)
    @given(_substituted, st.sampled_from([v for v in VARS if v != TWO_PI_I]), _values)
    def test_partial_mapping_keeps_the_other_variables(self, oracle, p, target, value):
        _check_substitution(oracle, p, {target: value})

    @settings(max_examples=15, deadline=None)
    @given(_substituted, _values, _values)
    def test_twopii_is_substituted_when_mapped(self, oracle, p, value, other):
        _check_substitution(oracle, p, {TWO_PI_I: value, "a": other})

    @pytest.mark.parametrize("text, mapping", [
        ("x/(x-y)", {"y": "x"}),
        ("1/(a*b-1)", {"a": "c/(c^2+1)", "b": "(c^2+1)/c"}),
        ("1/(a+b)", {"a": "1/(c+1)", "b": "-1/(c+1)"}),
    ])
    def test_zero_denominator_raises(self, text, mapping):
        with pytest.raises(MalformedExpressionError, match="substitution lands"):
            parse_expr(text).subst({v: parse_expr(t) for v, t in mapping.items()})

    @pytest.mark.parametrize("degree", [1, 2, 3, 5])
    def test_sphere_pull_back_is_over_one_power(self, degree):
        """A degree-d polynomial in the S chart's (u, v), pulled back through
        the N -> S transition u = x/(x^2+y^2), v = -y/(x^2+y^2), is over
        (x^2+y^2)^d: the one group's denominator to the largest degree."""
        from quantbench import catalog
        transition = catalog.su2_orbit_scenario(1).atlas.transition("N", "S")
        rng = random.Random(degree)
        poly = PolyExpr({(("u", i), ("v", j)): rational(rng.randint(1, 9), rng.randint(1, 5))
                         for i in range(degree + 1) for j in range(degree + 1 - i)})
        pulled = transition.compose_into(RationalExpr(poly))
        assert pulled.den == parse_expr(f"(x^2+y^2)^{degree}").as_poly()
        again = transition.compose_into(RationalExpr(poly, poly + 1))
        assert again.den.total_degree() == again.num.total_degree() == 2 * degree


class TestEarlyReturns:
    """The shortcuts give the `terms` and `den` of the general path."""

    @settings(max_examples=50, deadline=None)
    @given(quotients)
    def test_rational_zero_operands(self, a):
        zero = RationalExpr.zero()

        def parts(num, den):
            return num.terms, num.den, den.terms, den.den

        total = parts(a.num * zero.den + zero.num * a.den, a.den * zero.den)
        for result in (a + zero, zero + a, a - zero, a + 0, 0 + a, a - 0):
            assert parts(result.num, result.den) == total
        difference = parts(zero.num * a.den - a.num * zero.den, zero.den * a.den)
        for result in (zero - a, 0 - a):
            assert parts(result.num, result.den) == difference
        for result in (a * zero, zero * a, a * 0, 0 * a):
            assert result is zero

    @settings(max_examples=50, deadline=None)
    @given(quotients.filter(lambda q: not q.is_zero()))
    def test_rational_unit_operands(self, a):
        """A factor 1 returns the other operand; 1/3, 1/x and x/x, whose
        numerators hold the one term of 1, take the general path.  A zero
        operand is `test_rational_zero_operands`'s case."""
        def parts(num, den):
            return num.terms, num.den, den.terms, den.den

        x = PolyExpr.var("x")
        for c in (RationalExpr.const(1), RationalExpr(1, 3), RationalExpr(1, x),
                  RationalExpr(x, x)):
            total = parts(a.num * c.num, a.den * c.den)
            for result in (a * c, c * a):
                assert parts(result.num, result.den) == total
        one = RationalExpr.const(1)
        for result in (a * one, one * a, a * 1, 1 * a):
            assert result is a

    @settings(max_examples=50, deadline=None)
    @given(polys)
    def test_product_with_zero(self, a):
        zero = PolyExpr()
        general = _canonical({}, a.den * zero.den)
        for product in (a * zero, zero * a, a * 0):
            assert (product.terms, product.den) == (general.terms, general.den)

    @settings(max_examples=50, deadline=None)
    @given(polys)
    def test_derivative_over_one(self, a):
        p = RationalExpr(a)
        for v in VARS:
            num = p.num.derivative(v) * p.den - p.num * p.den.derivative(v)
            den = p.den * p.den
            ours = p.derivative(v)
            assert (ours.num.terms, ours.num.den) == (num.terms, num.den)
            assert (ours.den.terms, ours.den.den) == (den.terms, den.den)


class TestPower:
    @pytest.mark.parametrize("text", ["1 + x^2 + y^2", "x - i*y", "2*x*y^3 + 1/3", "5"])
    def test_no_product_has_a_degree_above_the_power(self, monkeypatch, text):
        """Square-and-multiply stops once the exponent is used up: no product
        built for p^n, the squares included, has a degree above n deg(p)."""
        p = parse_expr(text).as_poly()
        original = PolyExpr.__mul__
        degrees = []

        def recorded(a, b):
            product = original(a, b)
            degrees.append(product.total_degree())
            return product

        for n in range(10):
            expected = PolyExpr.const(1)
            for _ in range(n):
                expected = expected * p
            degrees.clear()
            monkeypatch.setattr(PolyExpr, "__mul__", recorded)
            power = p ** n
            monkeypatch.setattr(PolyExpr, "__mul__", original)
            assert power == expected
            assert max(degrees, default=0) <= n * p.total_degree()


def reference_str(p: PolyExpr) -> str:
    """The text of `p` built from two Fractions per term and from the
    `(variable, exponent)` tuples of `coeffs()`, in graded lex order with
    later names dominating."""
    if p.is_zero():
        return "0"
    bits = []
    for mono, c in sorted(p.coeffs().items(), reverse=True,
                          key=lambda item: (sum(e for _, e in item[0]),
                                            sorted(item[0], reverse=True))):
        text = "*".join(v if e == 1 else f"{v}^{e}" for v, e in mono)
        re, im = Fraction(c.num[0], c.den), Fraction(c.num[1], c.den)
        cs = fraction_text(re, im)
        if re != 0 and im != 0:
            cs = f"({cs})"
        bits.append(cs if not text else (text if cs == "1" else f"{cs}*{text}"))
    return " + ".join(bits)


# Gaussian-integer pairs over one shared denominator, so mixed signs, a
# denominator above 1 and both parts nonzero all occur within one polynomial.
_pairs = st.tuples(st.integers(-40, 40), st.integers(-40, 40))
printed_polys = st.builds(
    lambda table, den: PolyExpr({tuple((v, e) for v, e in zip(VARS, exps) if e):
                                 ExactScalar(Fraction(re, den), Fraction(im, den))
                                 for exps, (re, im) in table.items()}),
    st.dictionaries(st.tuples(*[st.integers(0, 3)] * len(VARS)), _pairs, max_size=6),
    st.integers(1, 36))


class TestPrinting:
    """`str` reads the integer pairs and a memo of monomial texts; the text is
    the one of the ExactScalar/Fraction formatter above."""

    @pytest.mark.parametrize("text", [
        "0", "1", "-1", "i", "-i", "3/6", "-4/6*x", "(1/2-3/4*i)*a*b^2", "(-7/3+2*i)*b",
        "(5-5*i)*__z^3", "-2/3*i*twopii", "x^2 - x*y/7 + (2/9+1/9*i)*y - 1/2"])
    def test_reference_texts(self, text):
        p = parse_expr(text).as_poly()
        assert str(p) == reference_str(p)

    @settings(max_examples=200, deadline=None)
    @given(printed_polys)
    def test_matches_the_fraction_formatter(self, p):
        assert str(p) == reference_str(p)

    @settings(max_examples=100, deadline=None)
    @given(_polys(6, max_exp=40))
    def test_total_degree_is_the_largest_exponent_sum(self, p):
        assert p.total_degree() == max((sum(e for _, e in m) for m in p.coeffs()), default=0)

    def test_total_degree_after_a_new_name(self):
        p = parse_expr("x^3*y^2 + twopii").as_poly()
        assert p.total_degree() == 5
        PolyExpr.var("__fresh_total_degree")  # clears the order keys
        assert p.total_degree() == 5
        assert (p * PolyExpr.var("__fresh_total_degree", 4)).total_degree() == 9


class TestMonicByConstruction:
    """Only a denominator from outside the invariant is normalized."""

    @pytest.fixture
    def normalizations(self, monkeypatch):
        import quantbench.exprs as exprs
        calls = []
        normalize = exprs._leading_inverse

        def counted(p):
            calls.append(p)
            return normalize(p)

        monkeypatch.setattr(exprs, "_leading_inverse", counted)
        return calls

    def test_arithmetic_on_monic_operands_never_normalizes(self, normalizations):
        p = parse_expr("(x+2*i*y)/(x^2+3*y+twopii)")
        q = parse_expr("y/(2*x-1)")
        normalizations.clear()  # parsing divides
        results = [p + q, p - q, -p, p * q, p ** 3, p.derivative("x"),
                   q.derivative("y"), RationalExpr.zero(), p + 1, 2 * q]
        assert normalizations == []
        for r in results:
            assert r.den.leading()[1] == (r.den.den, 0)

    def test_an_outside_denominator_is_normalized_once(self, normalizations):
        r = RationalExpr(PolyExpr.var("x"), PolyExpr.var("x") * 2 + 3)
        assert len(normalizations) == 1
        assert r.den.leading()[1] == (r.den.den, 0)
        assert r == parse_expr("x/(2*x+3)")

    def test_zero_is_shared(self):
        assert RationalExpr.zero() is RationalExpr.zero()
        assert (parse_expr("x/(x+1)") - parse_expr("x/(x+1)")) is RationalExpr.zero()
        assert RationalExpr.zero().den == PolyExpr.const(1)


class TestPackedMonomials:
    """Each exponent has a 15-bit field; one past it raises and never carries
    into the next variable's field.  The monomial order reads names, not
    fields."""

    MAX = 2 ** 15 - 1

    @settings(max_examples=100, deadline=None)
    @given(nonzero_polys)
    def test_leading_term_is_graded_lex_with_later_names_dominating(self, a):
        coeffs = a.coeffs()
        top = max(coeffs, key=lambda m: (sum(e for _, e in m), sorted(m, reverse=True)))
        assert a.leading()[0] == next(iter(PolyExpr({top: 1}).terms))
        assert str(a).startswith(str(PolyExpr({top: coeffs[top]})))

    def test_largest_exponent_round_trips(self):
        p = PolyExpr.var("x", self.MAX) * PolyExpr.var("y", self.MAX)
        assert p.coeffs() == {(("x", self.MAX), ("y", self.MAX)): ExactScalar(1)}
        assert p.derivative("x").coeffs() == {
            (("x", self.MAX - 1), ("y", self.MAX)): ExactScalar(self.MAX)}
        assert p.exact_div(PolyExpr.var("x", self.MAX)) == PolyExpr.var("y", self.MAX)

    @pytest.mark.parametrize("build", [
        lambda: PolyExpr.var("x", 2 ** 15),
        lambda: PolyExpr({(("x", 2 ** 15),): 1}),
        lambda: PolyExpr({(("x", 2 ** 14), ("x", 2 ** 14)): 1}),
        lambda: PolyExpr({(("x", -1),): 1}),
        lambda: PolyExpr.var("x", 2 ** 15 - 1) * PolyExpr.var("x"),
        lambda: PolyExpr.var("y") * (PolyExpr.var("x", 2 ** 14) + 1) ** 2,
    ], ids=["var", "constructor", "repeated-variable", "negative", "product", "power"])
    def test_overflowing_exponent_raises(self, build):
        with pytest.raises(MalformedExpressionError, match="exponent"):
            build()

    def test_division_by_a_larger_exponent_borrows_nothing(self):
        # x^2*y / x^3 would borrow from y's field if the guard bit did not stop it
        assert (PolyExpr.var("x", 2) * PolyExpr.var("y")).exact_div(PolyExpr.var("x", 3)) is None
        assert PolyExpr.var("y").exact_div(PolyExpr.var("x")) is None
