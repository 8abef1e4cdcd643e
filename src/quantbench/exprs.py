"""Exact multivariate polynomials and rational functions over the Gaussian rationals.

A monomial is one non-negative int holding a fixed-width bit field per
variable: the exponent of the variable interned at position k sits in bits
16k to 16k+14, and bit 16k+15 is that field's guard bit.  A module-level
registry interns variable names on first use (``twopii`` takes field 0), so
expressions in different variable sets combine freely.  A product of
monomials is one ``+``, and a division is one subtraction whose borrows show
in the guard bits.  No stored exponent reaches its guard bit: a product or a
constructor that would raise an exponent past 32767 raises
`MalformedExpressionError` instead of carrying into the next field.

Field positions depend on the order in which a process first meets its
variables, so nothing that is printed, compared or sorted reads them.  The
monomial order of `leading()` and of printing is graded lex, the variable
whose name sorts later dominating; its key is derived from the names and
memoized per monomial, and so is the monomial's printed text.  ``coeffs()``
and the constructor speak ``(variable, exponent)`` tuples sorted by name.

The reserved variable ``twopii`` stands for the formal constant 2*pi*i; it
participates in arithmetic like any other variable (so 1/pi = 2i/twopii is
exact) but conjugation sends it to its negative.  Coordinate operations
(derivatives, substitution) never touch it unless explicitly asked.
"""

from __future__ import annotations

from functools import reduce
from math import comb, gcd, lcm
from operator import or_

from .errors import MalformedExpressionError
from .scalars import ExactScalar, I, ZERO, from_ints, gaussian_text

TWO_PI_I = "twopii"

# ---------------------------------------------------------------------------
# packed monomials
# ---------------------------------------------------------------------------

_FIELD = 16                             # bits per variable
_MASK = (1 << _FIELD) - 1
_MAX_EXP = (1 << (_FIELD - 1)) - 1      # the top bit of a field is its guard bit
_SHIFT = {}                             # variable name -> bit offset of its field
_NAMES = []                             # variable names in field order
_GUARDS = 0                             # the guard bit of every field in use
_RANK_SHIFTS = []                       # field index -> offset in an order key


class _OrderKeys(dict):
    """Packed monomial -> int key of the graded lex order in which the variable
    whose name sorts later dominates.  A key re-packs the exponents by the rank
    of each name among the interned ones, above the total degree, so keys
    compare as the names do; interning a name clears the memo."""

    def __missing__(self, mono):
        degree = key = 0
        for index, e in _fields(mono):
            degree += e
            key |= e << _RANK_SHIFTS[index]
        key |= degree << (_FIELD * len(_NAMES))
        self[mono] = key
        return key


_ORDER_KEYS = _OrderKeys()
_order_key = _ORDER_KEYS.__getitem__


class _MonomialTexts(dict):
    """Packed monomial -> its printed text, such as ``x^2*y``: the variables
    sorted by name, each exponent above 1 after a ``^``.  A field keeps its
    name once interned, so the text never changes and the memo is never
    cleared."""

    def __missing__(self, mono):
        text = self[mono] = "*".join(v if e == 1 else f"{v}^{e}" for v, e in _mono_tuple(mono))
        return text


_MONOMIAL_TEXTS = _MonomialTexts()


def _shift(name: str) -> int:
    """Bit offset of the field of `name`, interning the name on first use."""
    s = _SHIFT.get(name)
    if s is None:
        global _GUARDS
        s = _SHIFT[name] = _FIELD * len(_NAMES)
        _NAMES.append(name)
        _GUARDS |= 1 << (s + _FIELD - 1)
        rank = {v: i for i, v in enumerate(sorted(_NAMES))}
        _RANK_SHIFTS[:] = [_FIELD * rank[v] for v in _NAMES]
        _ORDER_KEYS.clear()
    return s


_TWO_PI_I_SHIFT = _shift(TWO_PI_I)


def _pack(mono) -> int:
    """The packed form of a `(variable, exponent)` tuple monomial."""
    exps = {}
    for v, e in mono:
        exps[v] = exps.get(v, 0) + e
    m = 0
    for v, e in exps.items():
        if not 0 <= e <= _MAX_EXP:
            raise MalformedExpressionError(f"exponent {e} of {v} outside 0..{_MAX_EXP}")
        m |= e << _shift(v)
    return m


def _fields(m: int):
    """(field index, exponent) for every variable of a packed monomial."""
    index = 0
    while m:
        e = m & _MASK
        if e:
            yield index, e
        m >>= _FIELD
        index += 1


def _mono_tuple(m: int) -> tuple:
    """The `(variable, exponent)` pairs of a packed monomial, sorted by name."""
    return tuple(sorted((_NAMES[i], e) for i, e in _fields(m)))


class PolyExpr:
    """Multivariate polynomial over the Gaussian rationals, in canonical form.

    ``terms`` maps each packed monomial to a Gaussian-integer pair
    ``(re, im)``, and ``den`` is one positive integer: the coefficient of a
    monomial is ``(re + im*i) / den``.  No pair is ``(0, 0)`` and the gcd of ``den`` and
    every part is 1 (``den`` is 1 for zero), so equal polynomials have equal
    ``terms`` and ``den``.  Arithmetic runs on these integers; ``coeffs()``
    gives the coefficients as ExactScalar, whose ``num`` and ``den`` are one
    term's pair and denominator in the same canonical form.
    """

    __slots__ = ("terms", "den")

    def __init__(self, terms=None):
        """`terms` maps `(variable, exponent)` tuple monomials to ExactScalar,
        int or Fraction values."""
        clean = {}
        for mono, coeff in (terms or {}).items():
            coeff = ExactScalar.coerce(coeff)
            if not coeff.is_zero():
                clean[_pack(mono)] = coeff
        # the lcm of canonical denominators shares no factor with every part
        den = lcm(*(c.den for c in clean.values()))
        _set_terms(self, {m: tuple(part * (den // c.den) for part in c.num)
                          for m, c in clean.items()})
        _set_den(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("PolyExpr is immutable")

    # -- constructors ----------------------------------------------------
    @staticmethod
    def const(value) -> "PolyExpr":
        if type(value) is int:
            return _raw({0: (value, 0)} if value else {}, 1)
        value = ExactScalar.coerce(value)
        return _raw({} if value.is_zero() else {0: value.num}, value.den)

    @staticmethod
    def var(name: str, exp: int = 1) -> "PolyExpr":
        if exp == 0:
            return PolyExpr.const(1)
        return _raw({_pack(((name, exp),)): (1, 0)}, 1)

    # -- predicates -------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not any(self.terms)

    def constant_value(self) -> ExactScalar:
        if not self.is_constant():
            raise MalformedExpressionError("polynomial is not constant")
        re, im = self.terms.get(0, (0, 0))
        return from_ints(re, im, self.den)

    def variables(self) -> set:
        return {_NAMES[i] for i, _ in _fields(reduce(or_, self.terms, 0))}

    def total_degree(self) -> int:
        # an order key holds the total degree above its exponent fields
        if not self.terms:
            return 0
        return max(map(_order_key, self.terms)) >> (_FIELD * len(_NAMES))

    def coeffs(self) -> dict:
        """{`(variable, exponent)` tuple monomial: ExactScalar coefficient}, in
        the order of `terms`."""
        den = self.den
        return {_mono_tuple(m): from_ints(re, im, den) for m, (re, im) in self.terms.items()}

    # -- arithmetic --------------------------------------------------------
    # an operand that does not coerce is left to its own reflected method,
    # as in `ExactScalar`: `expr * field` is `field * expr`
    def __add__(self, other):
        try:
            other = _coerce_poly(other)
        except MalformedExpressionError:
            return NotImplemented
        return _add(self, other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _raw({m: (-re, -im) for m, (re, im) in self.terms.items()}, self.den)

    def __sub__(self, other):
        try:
            other = _coerce_poly(other)
        except MalformedExpressionError:
            return NotImplemented
        return _add(self, other, -1)

    def __mul__(self, other):
        try:
            other = _coerce_poly(other)
        except MalformedExpressionError:
            return NotImplemented
        if not self.terms:
            return self
        if not other.terms:
            return other
        # products by 1 are common: coerced constants, polynomial denominators
        if other.terms == _ONE_TERMS and other.den == 1:
            return self
        if self.terms == _ONE_TERMS and self.den == 1:
            return other
        acc = {}
        get = acc.get
        for m1, (a, b) in self.terms.items():
            for m2, (c, d) in other.terms.items():
                m = m1 + m2
                slot = get(m)
                if slot is None:
                    acc[m] = [a * c - b * d, a * d + b * c]
                else:
                    slot[0] += a * c - b * d
                    slot[1] += a * d + b * c
        if _GUARDS & reduce(or_, acc, 0):
            raise MalformedExpressionError(f"exponent over {_MAX_EXP} in a product")
        terms = {m: (re, im) for m, (re, im) in acc.items() if re or im}
        return _canonical(terms, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise MalformedExpressionError("negative power of a polynomial")
        out = PolyExpr.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:  # no square past the last bit
                base = base * base
        return out

    def __eq__(self, other):
        try:
            other = _coerce_poly(other)
        except MalformedExpressionError:
            return NotImplemented
        return self.den == other.den and self.terms == other.terms

    def __hash__(self):
        # a constant equals its ExactScalar, and so hashes as that does
        if self.is_constant():
            return hash(self.constant_value())
        return hash((frozenset(self.terms.items()), self.den))

    # -- calculus ------------------------------------------------------------
    def derivative(self, var: str) -> "PolyExpr":
        # lowering one exponent is injective on the monomials that have it
        s = _SHIFT.get(var)
        if s is None:
            return PolyExpr()
        one = 1 << s
        terms = {}
        for m, (re, im) in self.terms.items():
            e = (m >> s) & _MASK
            if e:
                terms[m - one] = (re * e, im * e)
        return _canonical(terms, self.den)

    def conj(self) -> "PolyExpr":
        """Gaussian-conjugate coefficients; the twopii token flips sign."""
        s = _TWO_PI_I_SHIFT
        return _raw({m: (-re, im) if (m >> s) & 1 else (re, -im)
                     for m, (re, im) in self.terms.items()}, self.den)

    def evaluate(self, point: dict) -> ExactScalar:
        total = ZERO
        for m, c in self.coeffs().items():
            val = c
            for v, e in m:
                if v not in point:
                    raise MalformedExpressionError(f"no value for variable {v}")
                val = val * (ExactScalar.coerce(point[v]) ** e)
            total = total + val
        return total

    def subst(self, mapping: dict) -> "RationalExpr":
        """Substitute variables by RationalExpr values (missing vars stay).
        The result is over one denominator: the product of d^k over the
        distinct denominators d of the values, k being the largest degree of
        a term in the variables whose values are over d."""
        sub = _Substitution(mapping, self)
        num, degrees = sub.numerator(self)
        return _quotient(num, sub.denominator(degrees))

    # -- structure for division/gcd ------------------------------------------
    def leading(self):
        """(monomial, (re, im)) maximal in graded-lex order; the coefficient
        is that pair over `den`."""
        if self.is_zero():
            raise MalformedExpressionError("leading term of zero polynomial")
        m = max(self.terms, key=_order_key)
        return m, self.terms[m]

    def exact_div(self, other: "PolyExpr"):
        """Return self/other if divisible, else None."""
        other = _coerce_poly(other)
        if other.is_zero():
            raise MalformedExpressionError("division by zero polynomial")
        if other.is_constant():  # it divides anything: one product by its inverse
            return self * _leading_inverse(other)
        rem = self
        quot = PolyExpr()
        lm, (lr, li) = other.leading()
        # (rr + ri*i)/rem.den divided by (lr + li*i)/other.den
        scale, norm = other.den, lr * lr + li * li
        guards = _GUARDS
        while not rem.is_zero():
            rm, (rr, ri) = rem.leading()
            # a field of rm below the one of lm borrows its guard bit
            q = (rm | guards) - lm
            if q & guards != guards:
                return None
            t = _canonical({q ^ guards: ((rr * lr + ri * li) * scale,
                                         (ri * lr - rr * li) * scale)},
                           rem.den * norm)
            quot = quot + t
            rem = rem - t * other
        return quot

    def __str__(self):
        if self.is_zero():
            return "0"
        terms, den = self.terms, self.den
        bits = []
        for m in sorted(terms, key=_order_key, reverse=True):
            re, im = terms[m]
            cs = gaussian_text(re, im, den)
            if re and im:
                cs = f"({cs})"
            mono = _MONOMIAL_TEXTS[m]
            bits.append(cs if not mono else (mono if cs == "1" else f"{cs}*{mono}"))
        return " + ".join(bits)

    __repr__ = __str__


_ONE_TERMS = {0: (1, 0)}  # the terms of 1, and of every 1/den
_set_terms = PolyExpr.terms.__set__
_set_den = PolyExpr.den.__set__


def _raw(terms: dict, den: int) -> PolyExpr:
    """A PolyExpr over pairs and a denominator already in canonical form."""
    p = object.__new__(PolyExpr)
    _set_terms(p, terms)
    _set_den(p, den)
    return p


def _canonical(terms: dict, den: int) -> PolyExpr:
    """A PolyExpr over nonzero pairs and a positive denominator, reduced by
    their common gcd."""
    if den != 1:
        g = den
        for re, im in terms.values():
            g = gcd(g, re, im)
            if g == 1:
                break
        if g != 1:
            terms = {m: (re // g, im // g) for m, (re, im) in terms.items()}
            den //= g
    return _raw(terms, den)


def _add(a: PolyExpr, b: PolyExpr, sign: int) -> PolyExpr:
    """a + sign*b, sign being 1 or -1."""
    if not b.terms:
        return a
    if not a.terms:
        return b if sign == 1 else -b
    da, db = a.den, b.den
    if da == db:
        sa, sb, den = 1, sign, da
    else:
        g = gcd(da, db)
        sa, sb = db // g, sign * (da // g)
        den = da * sa
    terms = dict(a.terms) if sa == 1 else \
        {m: (re * sa, im * sa) for m, (re, im) in a.terms.items()}
    for m, (re, im) in b.terms.items():
        old = terms.get(m)
        if old is None:
            terms[m] = (re * sb, im * sb)
        else:
            re, im = old[0] + re * sb, old[1] + im * sb
            if re or im:
                terms[m] = (re, im)
            else:
                del terms[m]
    return _canonical(terms, den)


def _leading_inverse(p: PolyExpr) -> PolyExpr:
    """The constant polynomial 1/lc(p)."""
    _, (re, im) = p.leading()
    return _canonical({0: (re * p.den, -im * p.den)}, re * re + im * im)


def _coerce_poly(value) -> PolyExpr:
    """`value` as a PolyExpr; `PolyExpr.const` takes what `ExactScalar.coerce`
    takes and raises `MalformedExpressionError` for anything else."""
    return value if isinstance(value, PolyExpr) else PolyExpr.const(value)


# ---------------------------------------------------------------------------
# gcd machinery (primitive Euclidean algorithm, recursive over variables)
# ---------------------------------------------------------------------------

def _to_univariate(p: PolyExpr, var: str) -> dict:
    """Represent p as {exp: PolyExpr-in-other-vars}."""
    s = _SHIFT[var]
    coeffs = {}
    for m, pair in p.terms.items():
        e = (m >> s) & _MASK
        coeffs.setdefault(e, {})[m - (e << s)] = pair
    return {e: _canonical(t, p.den) for e, t in coeffs.items()}


def _from_univariate(coeffs: dict, var: str) -> PolyExpr:
    out = PolyExpr()
    for e, c in coeffs.items():
        out = out + c * PolyExpr.var(var, e)
    return out


def _uni_deg(coeffs: dict) -> int:
    live = [e for e, c in coeffs.items() if not c.is_zero()]
    return max(live) if live else -1


def _uni_scale(coeffs: dict, factor: PolyExpr) -> dict:
    return {e: c * factor for e, c in coeffs.items()}


def _uni_sub(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, PolyExpr()) - c
    return {e: c for e, c in out.items() if not c.is_zero()}


def _uni_shift(coeffs: dict, k: int) -> dict:
    return {e + k: c for e, c in coeffs.items()}


def _pseudo_rem(a: dict, b: dict) -> dict:
    """lc(b)^(deg a - deg b + 1) * a mod b, for univariate polys with PolyExpr
    coefficients."""
    db = _uni_deg(b)
    lb = b[db]
    r = dict(a)
    steps = _uni_deg(a) - db + 1
    while steps and _uni_deg(r) >= db:
        dr = _uni_deg(r)
        r = _uni_sub(_uni_scale(r, lb), _uni_shift(_uni_scale(b, r[dr]), dr - db))
        steps -= 1
    return _uni_scale(r, lb ** steps) if steps and r else r


def poly_gcd(a: PolyExpr, b: PolyExpr) -> PolyExpr:
    """Gcd up to the canonical normalization (leading coefficient 1)."""
    a, b = _coerce_poly(a), _coerce_poly(b)
    if a.is_zero():
        return _normalize_leading(b)
    if b.is_zero():
        return _normalize_leading(a)
    variables = sorted(a.variables() | b.variables())
    if not variables:
        return PolyExpr.const(1)
    var = variables[0]
    ua, ub = _to_univariate(a, var), _to_univariate(b, var)
    cont_a = _content(ua)
    cont_b = _content(ub)
    prim_a = {e: c.exact_div(cont_a) for e, c in ua.items()}
    prim_b = {e: c.exact_div(cont_b) for e, c in ub.items()}
    if _uni_deg(prim_a) < _uni_deg(prim_b):
        prim_a, prim_b = prim_b, prim_a
    # subresultant remainder sequence (Collins 1967; Brown, JACM 18, 1971):
    # each pseudo-remainder is divided by g*h^d, a factor known to divide it,
    # so coefficients stay small without a content gcd at every step
    f, s = prim_a, prim_b
    g = h = PolyExpr.const(1)
    while _uni_deg(s) > 0:
        d = _uni_deg(f) - _uni_deg(s)
        r = _pseudo_rem(f, s)
        if not r:
            break
        divisor = g * h ** d
        f, s = s, {e: c.exact_div(divisor) for e, c in r.items()}
        g = f[_uni_deg(f)]
        h = h if d == 0 else g if d == 1 else (g ** d).exact_div(h ** (d - 1))
    if _uni_deg(s) == 0:  # the primitive parts are coprime
        prim = {0: PolyExpr.const(1)}
    else:
        rc = _content(s)
        prim = {e: c.exact_div(rc) for e, c in s.items()}
    cont_gcd = poly_gcd(cont_a, cont_b)
    result = _from_univariate(prim, var) * cont_gcd
    return _normalize_leading(result)


def _content(coeffs: dict) -> PolyExpr:
    g = PolyExpr()
    for c in coeffs.values():
        g = poly_gcd(g, c)
        if g.is_constant() and not g.is_zero():
            break
    return g if not g.is_zero() else PolyExpr.const(1)


def _normalize_leading(p: PolyExpr) -> PolyExpr:
    if p.is_zero():
        return p
    return p * _leading_inverse(p)


# ---------------------------------------------------------------------------
# Rational expressions
# ---------------------------------------------------------------------------

class RationalExpr:
    """Quotient num/den of PolyExpr whose denominator is monic.

    Every instance holds one invariant: the leading coefficient of ``den`` in
    the graded lex order of `leading()` is 1, and zero is 0/1.  The order is a
    monomial order, so lead(f*g) = lead(f)*lead(g), and a product of monic
    polynomials is monic: sums, differences, products, non-negative powers
    and derivatives keep the invariant without normalizing.  A denominator
    that comes from outside it is normalized once, on the way in: the public
    constructor ``RationalExpr(num, den)``, ``/``, `inverse`, negative powers
    (through ``/``) and `conj`, which flips the sign of odd ``twopii`` powers.
    ``simplify()`` also cancels the gcd, which gives the canonical form
    (Geddes, Czapor and Labahn, *Algorithms for Computer Algebra*, 1992, ch. 2).

    An instance never changes, so a partial derivative taken once is the
    answer for good: ``_derivatives`` maps each variable already derived by
    to its result, and ``("log", variable)`` to the `log_derivative`; it is
    set through the slot descriptor on the first call (a memo function;
    Michie, *Nature* 218, 1968).
    """

    __slots__ = ("num", "den", "_derivatives")

    def __init__(self, num, den=None):
        num = _coerce_poly(num)
        if den is None:
            den = _ONE_POLY
        else:
            den = _coerce_poly(den)
            if den.is_zero():
                raise MalformedExpressionError("zero denominator")
            if num.terms:
                inv = _leading_inverse(den)
                num, den = num * inv, den * inv
        _set_num(self, num)
        _set_quotient_den(self, den if num.terms else _ONE_POLY)

    def __setattr__(self, name, value):
        raise AttributeError("RationalExpr is immutable")

    # -- constructors ----------------------------------------------------
    @staticmethod
    def zero() -> "RationalExpr":
        return _ZERO

    @staticmethod
    def const(value) -> "RationalExpr":
        return _quotient(PolyExpr.const(value), _ONE_POLY)

    @staticmethod
    def var(name: str) -> "RationalExpr":
        return _quotient(PolyExpr.var(name), _ONE_POLY)

    # -- predicates -------------------------------------------------------
    def is_zero(self) -> bool:
        return self.num.is_zero()

    def as_poly(self) -> PolyExpr:
        s = self.simplify()
        if not s.den.is_constant():
            raise MalformedExpressionError("expression is not polynomial")
        return s.num  # a monic constant denominator is 1

    def is_constant(self) -> bool:
        s = self.simplify()
        return s.num.is_constant() and s.den.is_constant()

    def constant_value(self) -> ExactScalar:
        return self.as_poly().constant_value()

    def variables(self) -> set:
        return self.num.variables() | self.den.variables()

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other):  # a foreign operand as in `PolyExpr.__add__`
        try:
            other = coerce_rational(other)
        except MalformedExpressionError:
            return NotImplemented
        # zero is 0/1, so a sum with it is the other operand as it stands
        if not other.num.terms:
            return self
        if not self.num.terms:
            return other
        if self.den == other.den:
            return _quotient(self.num + other.num, self.den)
        return _quotient(self.num * other.den + other.num * self.den,
                         self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return _quotient(-self.num, self.den)

    def __sub__(self, other):
        try:
            other = coerce_rational(other)
        except MalformedExpressionError:
            return NotImplemented
        if not other.num.terms:
            return self
        return self + (-other)

    def __rsub__(self, other):
        try:
            other = coerce_rational(other)
        except MalformedExpressionError:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        try:
            other = coerce_rational(other)
        except MalformedExpressionError:
            return NotImplemented
        if not self.num.terms or not other.num.terms:
            return _ZERO
        # a factor 1/1 leaves the other operand as it stands, as a sum with
        # zero does (a monic constant denominator is 1)
        if other.num.terms == _ONE_TERMS and other.num.den == 1 and \
                other.den.terms == _ONE_TERMS:
            return self
        if self.num.terms == _ONE_TERMS and self.num.den == 1 and \
                self.den.terms == _ONE_TERMS:
            return other
        return _quotient(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        try:
            other = coerce_rational(other)
        except MalformedExpressionError:
            return NotImplemented
        if other.is_zero():
            raise MalformedExpressionError("division by zero expression")
        return RationalExpr(self.num * other.den, self.den * other.num)

    def __pow__(self, n: int):
        if n < 0:
            return (RationalExpr.const(1) / self) ** (-n)
        return _quotient(self.num ** n, self.den ** n)

    def inverse(self) -> "RationalExpr":
        if self.is_zero():
            raise MalformedExpressionError("inverse of the zero expression")
        return RationalExpr(self.den, self.num)

    def __eq__(self, other):
        try:
            other = coerce_rational(other)
        except MalformedExpressionError:
            return NotImplemented
        return (self.num * other.den - other.num * self.den).is_zero()

    def __hash__(self):
        # a polynomial equals its quotient over 1, and so hashes as that does
        s = self.simplify()
        if s.den.terms == _ONE_TERMS:  # a monic constant is 1
            return hash(s.num)
        return hash((s.num, s.den))

    # -- canonicalization ----------------------------------------------------
    def simplify(self) -> "RationalExpr":
        """Canonical representative: gcd-reduced, denominator leading coeff 1."""
        if self.num.is_zero():
            return _ZERO
        fast = self.num.exact_div(self.den)
        if fast is not None:
            return _quotient(fast, _ONE_POLY)
        # a monic denominator over the monic gcd is monic
        g = poly_gcd(self.num, self.den)
        if not g.is_constant():
            return _quotient(self.num.exact_div(g), self.den.exact_div(g))
        return self

    # -- calculus --------------------------------------------------------------
    def _memo(self) -> dict:
        try:
            return self._derivatives
        except AttributeError:
            memo = {}
            _set_derivatives(self, memo)
            return memo

    def derivative(self, var: str) -> "RationalExpr":
        memo = self._memo()
        out = memo.get(var)
        if out is None:
            if self.den.terms == _ONE_TERMS:  # a monic constant is 1
                out = _quotient(self.num.derivative(var), self.den)
            else:
                out = _quotient(
                    self.num.derivative(var) * self.den - self.num * self.den.derivative(var),
                    self.den * self.den)
            memo[var] = out
        return out

    def log_derivative(self, var: str) -> "RationalExpr":
        """d log(N/D) / d var = (N'D - ND') / (ND): the quotient rule's
        numerator over ND, not over D^2, so the weight 1/q^k gives a quotient
        over q^k, not over q^2k.  Kept in the memo beside `derivative`."""
        if not self.num.terms:
            raise MalformedExpressionError("logarithmic derivative of zero")
        memo = self._memo()
        key = ("log", var)
        out = memo.get(key)
        if out is None:
            num, den = self.num, self.den
            top = num.derivative(var) * den - num * den.derivative(var)
            out = memo[key] = RationalExpr(top, num * den) if top.terms else _ZERO
        return out

    def conj(self) -> "RationalExpr":
        return RationalExpr(self.num.conj(), self.den.conj())

    def subst(self, mapping: dict) -> "RationalExpr":
        sub = _Substitution(mapping, self.num, self.den)
        den, down = sub.numerator(self.den)
        if den.is_zero():
            raise MalformedExpressionError("substitution lands on zero denominator")
        num, up = sub.numerator(self.num)
        # (num / prod d^up) / (den / prod d^down): each side takes the powers
        # by which the other one's exceed its own
        return RationalExpr(num * sub.denominator(down, up), den * sub.denominator(up, down))

    def evaluate(self, point: dict) -> ExactScalar:
        d = self.den.evaluate(point)
        if d.is_zero():
            raise MalformedExpressionError("evaluation at a pole")
        return self.num.evaluate(point) / d

    def numeric(self, point: dict) -> complex:
        """Float evaluation, with twopii at its analytic value 2*pi*i."""
        import cmath
        full = dict(point)
        full.setdefault(TWO_PI_I, 2j * cmath.pi)
        num = sum(complex(c) * _mono_numeric(m, full) for m, c in self.num.coeffs().items())
        den = sum(complex(c) * _mono_numeric(m, full) for m, c in self.den.coeffs().items())
        return num / den

    def __str__(self):
        # display normal form: simplify() on small expressions; large ones only
        # take an exact division, since gcd reduction can be costly on large
        # incidental expressions and str() must never hang
        s = self
        if self.num.total_degree() + self.den.total_degree() <= 12:
            s = self.simplify()
        elif (quotient := self.num.exact_div(self.den)) is not None:
            return str(quotient)
        if s.den.is_constant():  # a monic constant is 1
            return str(s.num)
        return f"({s.num})/({s.den})"

    __repr__ = __str__


_ONE_POLY = PolyExpr.const(1)  # the one constant-1 denominator
_set_num = RationalExpr.num.__set__
_set_quotient_den = RationalExpr.den.__set__
_set_derivatives = RationalExpr._derivatives.__set__
_ZERO = object.__new__(RationalExpr)
_set_num(_ZERO, PolyExpr())
_set_quotient_den(_ZERO, _ONE_POLY)


def _quotient(num: PolyExpr, den: PolyExpr) -> RationalExpr:
    """num/den for a monic `den`, unchecked; a zero `num` gives the shared zero."""
    if not num.terms:
        return _ZERO
    q = object.__new__(RationalExpr)
    _set_num(q, num)
    _set_quotient_den(q, den)
    return q


def _mono_numeric(m: tuple, point: dict) -> complex:
    out = 1.0 + 0j
    for v, e in m:
        out *= complex(point[v]) ** e
    return out


def coerce_rational(value) -> RationalExpr:
    if isinstance(value, RationalExpr):
        return value
    if isinstance(value, PolyExpr):
        return _quotient(value, _ONE_POLY)
    return RationalExpr.const(value)


class _Substitution:
    """The values of one `subst` call, grouped by denominator.

    A polynomial whose terms have degree at most k_g in the variables of
    group g becomes N / prod_g d_g^k_g, where each term contributes its
    coefficient times the unmapped part of its monomial times the product of
    the values' numerator powers and of d_g^(k_g - its degree in group g).
    Adding those terms is one pass over one dict, with no denominator to
    cross-multiply.  Each power of a value's numerator or of a group
    denominator is built once per call (von zur Gathen and Gerhard, *Modern
    Computer Algebra*, 2013, sec. 6)."""

    def __init__(self, mapping: dict, *polys: PolyExpr):
        used = reduce(or_, (m for p in polys for m in p.terms), 0)
        self.fields = []  # (bit offset, group or None, [numerator^0, numerator^1, ...])
        self.groups = []  # group -> [d^0, d^1, ...]
        for v, value in mapping.items():
            s = _SHIFT.get(v)
            if s is None or not (used >> s) & _MASK:
                continue
            value = coerce_rational(value)
            group = None
            if value.den.terms != _ONE_TERMS:  # a monic constant is 1
                for group, powers in enumerate(self.groups):
                    if powers[1] == value.den:
                        break
                else:
                    group = len(self.groups)
                    self.groups.append([_ONE_POLY, value.den])
            self.fields.append((s, group, [_ONE_POLY, value.num]))

    @staticmethod
    def _power(powers: list, e: int) -> PolyExpr:
        while len(powers) <= e:
            powers.append(powers[-1] * powers[1])
        return powers[e]

    def numerator(self, poly: PolyExpr):
        """(N, k): `poly` after substitution is N / prod_g d_g^k[g]."""
        fields, power = self.fields, self._power
        degrees = [0] * len(self.groups)
        if not fields:
            return poly, degrees
        split, signatures = [], {}
        for m, pair in poly.terms.items():
            exps = tuple((m >> s) & _MASK for s, _, _ in fields)
            for (s, _, _), e in zip(fields, exps):
                m -= e << s
            split.append((exps, m, pair))
            if exps not in signatures:
                own = [0] * len(self.groups)
                for (_, group, _), e in zip(fields, exps):
                    if group is not None:
                        own[group] += e
                signatures[exps] = own
                degrees = [max(k, d) for k, d in zip(degrees, own)]
        products = {}
        for exps, own in signatures.items():
            factors = [power(powers, e) for (_, _, powers), e in zip(fields, exps) if e]
            factors += [power(self.groups[g], k - d)
                        for g, (k, d) in enumerate(zip(degrees, own)) if k > d]
            product = _ONE_POLY
            for factor in sorted(factors, key=lambda f: len(f.terms)):
                product = product * factor
            products[exps] = product
        den = lcm(*(p.den for p in products.values()))
        acc = {}
        get = acc.get
        for exps, rest, (a, b) in split:
            product = products[exps]
            scale = den // product.den
            a, b = a * scale, b * scale
            for m, (c, d) in product.terms.items():
                m += rest
                slot = get(m)
                if slot is None:
                    acc[m] = [a * c - b * d, a * d + b * c]
                else:
                    slot[0] += a * c - b * d
                    slot[1] += a * d + b * c
        if _GUARDS & reduce(or_, acc, 0):
            raise MalformedExpressionError(f"exponent over {_MAX_EXP} in a substitution")
        terms = {m: (re, im) for m, (re, im) in acc.items() if re or im}
        return _canonical(terms, poly.den * den), degrees

    def denominator(self, degrees: list, minus: list = None) -> PolyExpr:
        """prod_g d_g^(degrees[g] - minus[g]) over the positive differences;
        monic, since every d_g is."""
        out = _ONE_POLY
        for g, powers in enumerate(self.groups):
            e = degrees[g] - (minus[g] if minus else 0)
            if e > 0:
                out = out * self._power(powers, e)
        return out


# ---------------------------------------------------------------------------
# A small expression parser for scenario files and tests
# ---------------------------------------------------------------------------

# Parentheses and unary minus signs nested deeper than this are rejected, so
# that the recursive descent stays far below the interpreter's recursion limit.
_MAX_NESTING = 100
# A power whose result may have more terms, a higher degree or longer integers
# than these is rejected before it is built: "37^9999999" or "(x+y+1)^200"
# would otherwise compute for minutes, and "x^99999999" would stall the first
# exact evaluation.
_MAX_POWER_TERMS = 1000
_MAX_POWER_DEGREE = 1000
_MAX_POWER_BITS = 10000


def parse_expr(text: str) -> RationalExpr:
    """Parse +,-,*,/,^, parentheses, integers, 'i', 'twopii' and variables.
    Any text that is not such an expression raises `MalformedExpressionError`."""
    tokens = _tokenize(text)
    expr, pos = _parse_sum(tokens, 0, 0)
    if pos != len(tokens):
        raise MalformedExpressionError(f"trailing input in {text!r}")
    return expr


_DIGITS = frozenset("0123456789")  # str.isdigit also accepts digits int() rejects


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*/^()":
            tokens.append(ch)
            i += 1
        elif ch in _DIGITS:
            j = i
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            try:
                tokens.append(int(text[i:j]))
            except ValueError:  # longer than the interpreter converts
                raise MalformedExpressionError(f"integer too long in {text!r}") from None
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j]))
            i = j
        else:
            raise MalformedExpressionError(f"bad character {ch!r} in {text!r}")
    return tokens


def _parse_sum(tokens, pos, depth):
    sign = 1
    if pos < len(tokens) and tokens[pos] in ("+", "-"):
        sign = -1 if tokens[pos] == "-" else 1
        pos += 1
    left, pos = _parse_product(tokens, pos, depth)
    if sign < 0:
        left = -left
    while pos < len(tokens) and tokens[pos] in ("+", "-"):
        op = tokens[pos]
        right, pos = _parse_product(tokens, pos + 1, depth)
        left = left + right if op == "+" else left - right
    return left, pos


def _parse_product(tokens, pos, depth):
    left, pos = _parse_power(tokens, pos, depth)
    while pos < len(tokens) and tokens[pos] in ("*", "/"):
        op = tokens[pos]
        right, pos = _parse_power(tokens, pos + 1, depth)
        left = left * right if op == "*" else left / right
    return left, pos


def _parse_power(tokens, pos, depth):
    base, pos = _parse_atom(tokens, pos, depth)
    if pos < len(tokens) and tokens[pos] == "^":
        neg = False
        pos += 1
        if pos < len(tokens) and tokens[pos] == "-":
            neg = True
            pos += 1
        if pos >= len(tokens) or not isinstance(tokens[pos], int):
            raise MalformedExpressionError("exponent must be an integer")
        exp = tokens[pos]
        _check_power_size(base, exp)
        base = base ** (-exp if neg else exp)
        pos += 1
    return base, pos


def _check_power_size(base: RationalExpr, exp: int):
    """Raise if numerator or denominator of base**exp may exceed the size bounds.

    p**n has degree n*deg(p) and at most as many terms as there are multisets
    of n terms of p, or monomials of degree up to n*deg(p); its coefficients
    are at most the n-th power of the sum of p's coefficient magnitudes, over
    den**n.
    """
    for p in (base.num, base.den):
        if p.is_zero():
            continue
        degree = p.total_degree() * exp
        if degree > _MAX_POWER_DEGREE:
            raise MalformedExpressionError(
                f"power ^{exp} too large: degree over {_MAX_POWER_DEGREE}")
        count, nvars = len(p.terms), len(p.variables())
        terms = min(comb(exp + count - 1, count - 1), comb(degree + nvars, nvars))
        norm = sum(abs(re) + abs(im) for re, im in p.terms.values())
        bits = exp * max((norm - 1).bit_length(), (p.den - 1).bit_length())
        if terms > _MAX_POWER_TERMS or bits > _MAX_POWER_BITS:
            raise MalformedExpressionError(
                f"power ^{exp} too large: over {_MAX_POWER_TERMS} terms "
                f"or {_MAX_POWER_BITS}-bit coefficients")


def _parse_atom(tokens, pos, depth):
    if pos >= len(tokens):
        raise MalformedExpressionError("unexpected end of expression")
    if depth > _MAX_NESTING:
        raise MalformedExpressionError(f"expression nested more than {_MAX_NESTING} deep")
    tok = tokens[pos]
    if tok == "(":
        expr, pos = _parse_sum(tokens, pos + 1, depth + 1)
        if pos >= len(tokens) or tokens[pos] != ")":
            raise MalformedExpressionError("unbalanced parenthesis")
        return expr, pos + 1
    if tok == "-":
        expr, pos = _parse_atom(tokens, pos + 1, depth + 1)
        return -expr, pos
    if isinstance(tok, int):
        return RationalExpr.const(tok), pos + 1
    if isinstance(tok, tuple) and tok[0] == "name":
        name = tok[1]
        if name == "i":
            return RationalExpr.const(I), pos + 1
        return RationalExpr.var(name), pos + 1
    raise MalformedExpressionError(f"unexpected token {tok!r}")
