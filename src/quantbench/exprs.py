"""Exact multivariate polynomials and rational functions over the Gaussian rationals.

Monomials are sorted ``(variable, exponent)`` tuples, so expressions in
different variable sets combine freely.  The reserved variable ``twopii``
stands for the formal constant 2*pi*i; it participates in arithmetic like any
other variable (so 1/pi = 2i/twopii is exact) but conjugation sends it to its
negative.  Coordinate operations (derivatives, substitution) never touch it
unless explicitly asked.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import MalformedExpressionError
from .scalars import ExactScalar, ONE, ZERO

TWO_PI_I = "twopii"

Monomial = tuple  # tuple[(var, exp), ...] sorted by var


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    d = dict(m1)
    for v, e in m2:
        d[v] = d.get(v, 0) + e
    return tuple(sorted((v, e) for v, e in d.items() if e))


def _mono_divides(m1: Monomial, m2: Monomial) -> bool:
    """True if m1 | m2 componentwise."""
    d2 = dict(m2)
    return all(d2.get(v, 0) >= e for v, e in m1)


def _mono_div(m2: Monomial, m1: Monomial) -> Monomial:
    d = dict(m2)
    for v, e in m1:
        d[v] = d.get(v, 0) - e
    return tuple(sorted((v, e) for v, e in d.items() if e))


def _mono_key(m: Monomial):
    # graded lexicographic; descending pair list makes later names dominate,
    # which is a consistent monomial order even across variable sets
    return (sum(e for _, e in m), tuple(sorted(m, reverse=True)))


class PolyExpr:
    """Multivariate polynomial with ExactScalar coefficients, canonical form."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for mono, coeff in (terms or {}).items():
            coeff = ExactScalar.coerce(coeff)
            if not coeff.is_zero():
                clean[tuple(sorted(mono))] = coeff
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("PolyExpr is immutable")

    # -- constructors ----------------------------------------------------
    @staticmethod
    def const(value) -> "PolyExpr":
        value = ExactScalar.coerce(value)
        return PolyExpr({(): value}) if not value.is_zero() else PolyExpr()

    @staticmethod
    def var(name: str, exp: int = 1) -> "PolyExpr":
        if exp == 0:
            return PolyExpr.const(1)
        return PolyExpr({((name, exp),): ONE})

    # -- predicates -------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(m == () for m in self.terms)

    def constant_value(self) -> ExactScalar:
        if not self.is_constant():
            raise MalformedExpressionError("polynomial is not constant")
        return self.terms.get((), ZERO)

    def variables(self) -> set:
        return {v for m in self.terms for v, _ in m}

    def total_degree(self) -> int:
        return max((sum(e for _, e in m) for m in self.terms), default=0)

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other):
        other = _coerce_poly(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, ZERO) + c
        return PolyExpr(terms)

    __radd__ = __add__

    def __neg__(self):
        return PolyExpr({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-_coerce_poly(other))

    def __rsub__(self, other):
        return _coerce_poly(other) + (-self)

    def __mul__(self, other):
        other = _coerce_poly(other)
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                c = terms.get(m, ZERO) + c1 * c2
                terms[m] = c
        return PolyExpr(terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise MalformedExpressionError("negative power of a polynomial")
        out = PolyExpr.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        try:
            other = _coerce_poly(other)
        except MalformedExpressionError:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- calculus ------------------------------------------------------------
    def derivative(self, var: str) -> "PolyExpr":
        terms = {}
        for m, c in self.terms.items():
            d = dict(m)
            e = d.get(var, 0)
            if not e:
                continue
            if e == 1:
                del d[var]
            else:
                d[var] = e - 1
            mono = tuple(sorted(d.items()))
            terms[mono] = terms.get(mono, ZERO) + c * e
        return PolyExpr(terms)

    def conj(self) -> "PolyExpr":
        """Gaussian-conjugate coefficients; the twopii token flips sign."""
        terms = {}
        for m, c in self.terms.items():
            sign = -1 if dict(m).get(TWO_PI_I, 0) % 2 else 1
            terms[m] = c.conj() * sign
        return PolyExpr(terms)

    def evaluate(self, point: dict) -> ExactScalar:
        total = ZERO
        for m, c in self.terms.items():
            val = c
            for v, e in m:
                if v not in point:
                    raise MalformedExpressionError(f"no value for variable {v}")
                val = val * (ExactScalar.coerce(point[v]) ** e)
            total = total + val
        return total

    def subst(self, mapping: dict) -> "RationalExpr":
        """Substitute variables by RationalExpr values (missing vars stay)."""
        out = RationalExpr.zero()
        for m, c in self.terms.items():
            term = RationalExpr.const(c)
            for v, e in m:
                if v in mapping:
                    term = term * (_coerce_rational(mapping[v]) ** e)
                else:
                    term = term * RationalExpr.from_poly(PolyExpr.var(v, e))
            out = out + term
        return out

    # -- structure for division/gcd ------------------------------------------
    def leading(self):
        """(monomial, coeff) maximal in graded-lex order."""
        if self.is_zero():
            raise MalformedExpressionError("leading term of zero polynomial")
        m = max(self.terms, key=_mono_key)
        return m, self.terms[m]

    def exact_div(self, other: "PolyExpr"):
        """Return self/other if divisible, else None."""
        other = _coerce_poly(other)
        if other.is_zero():
            raise MalformedExpressionError("division by zero polynomial")
        rem = self
        quot = PolyExpr()
        lm, lc = other.leading()
        while not rem.is_zero():
            rm, rc = rem.leading()
            if not _mono_divides(lm, rm):
                return None
            t = PolyExpr({_mono_div(rm, lm): rc / lc})
            quot = quot + t
            rem = rem - t * other
        return quot

    def __str__(self):
        if self.is_zero():
            return "0"
        bits = []
        for m in sorted(self.terms, key=_mono_key, reverse=True):
            c = self.terms[m]
            mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in m)
            cs = str(c)
            if ("+" in cs[1:]) or ("-" in cs[1:]) or (c.im != 0 and c.re != 0):
                cs = f"({cs})"
            bits.append(cs if not mono else (mono if cs == "1" else f"{cs}*{mono}"))
        return " + ".join(bits)

    __repr__ = __str__


def _coerce_poly(value) -> PolyExpr:
    if isinstance(value, PolyExpr):
        return value
    if isinstance(value, (int, Fraction, ExactScalar)):
        return PolyExpr.const(value)
    raise MalformedExpressionError(f"cannot coerce {value!r} to PolyExpr")


# ---------------------------------------------------------------------------
# gcd machinery (primitive Euclidean algorithm, recursive over variables)
# ---------------------------------------------------------------------------

def _to_univariate(p: PolyExpr, var: str) -> dict:
    """Represent p as {exp: PolyExpr-in-other-vars}."""
    coeffs = {}
    for m, c in p.terms.items():
        d = dict(m)
        e = d.pop(var, 0)
        rest = tuple(sorted(d.items()))
        coeffs.setdefault(e, {})[rest] = c
    return {e: PolyExpr(t) for e, t in coeffs.items()}


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
    """Pseudo-remainder of univariate polys with PolyExpr coefficients."""
    db = _uni_deg(b)
    lb = b[db]
    r = dict(a)
    while True:
        dr = _uni_deg(r)
        if dr < db:
            return r
        lr = r[dr]
        r = _uni_sub(_uni_scale(r, lb), _uni_shift(_uni_scale(b, lr), dr - db))


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
    while _uni_deg(prim_b) >= 0:
        r = _pseudo_rem(prim_a, prim_b)
        prim_a = prim_b
        if _uni_deg(r) < 0:
            prim_b = {}
            break
        rc = _content(r)
        prim_b = {e: c.exact_div(rc) for e, c in r.items()}
    cont_gcd = poly_gcd(cont_a, cont_b)
    result = _from_univariate(prim_a, var) * cont_gcd
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
    _, lc = p.leading()
    return p * PolyExpr.const(lc.inverse())


# ---------------------------------------------------------------------------
# Rational expressions
# ---------------------------------------------------------------------------

class RationalExpr:
    """Quotient of PolyExpr, lightly normalized; simplify() gives canonical form."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = _coerce_poly(num)
        den = PolyExpr.const(1) if den is None else _coerce_poly(den)
        if den.is_zero():
            raise MalformedExpressionError("zero denominator")
        if num.is_zero():
            den = PolyExpr.const(1)
        else:
            _, lc = den.leading()
            inv = PolyExpr.const(lc.inverse())
            num, den = num * inv, den * inv
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalExpr is immutable")

    # -- constructors ----------------------------------------------------
    @staticmethod
    def zero() -> "RationalExpr":
        return RationalExpr(PolyExpr())

    @staticmethod
    def const(value) -> "RationalExpr":
        return RationalExpr(PolyExpr.const(value))

    @staticmethod
    def var(name: str) -> "RationalExpr":
        return RationalExpr(PolyExpr.var(name))

    @staticmethod
    def from_poly(p: PolyExpr) -> "RationalExpr":
        return RationalExpr(p)

    # -- predicates -------------------------------------------------------
    def is_zero(self) -> bool:
        return self.num.is_zero()

    def as_poly(self) -> PolyExpr:
        s = self.simplify()
        if not s.den.is_constant():
            raise MalformedExpressionError("expression is not polynomial")
        return s.num * PolyExpr.const(s.den.constant_value().inverse())

    def is_constant(self) -> bool:
        s = self.simplify()
        return s.num.is_constant() and s.den.is_constant()

    def constant_value(self) -> ExactScalar:
        s = self.simplify()
        return s.num.constant_value() / s.den.constant_value()

    def variables(self) -> set:
        return self.num.variables() | self.den.variables()

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other):
        other = _coerce_rational(other)
        if self.den == other.den:
            return RationalExpr(self.num + other.num, self.den)
        return RationalExpr(self.num * other.den + other.num * self.den,
                            self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalExpr(-self.num, self.den)

    def __sub__(self, other):
        return self + (-_coerce_rational(other))

    def __rsub__(self, other):
        return _coerce_rational(other) + (-self)

    def __mul__(self, other):
        other = _coerce_rational(other)
        return RationalExpr(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_rational(other)
        if other.is_zero():
            raise MalformedExpressionError("division by zero expression")
        return RationalExpr(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return _coerce_rational(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return (RationalExpr.const(1) / self) ** (-n)
        return RationalExpr(self.num ** n, self.den ** n)

    def inverse(self) -> "RationalExpr":
        if self.is_zero():
            raise MalformedExpressionError("inverse of the zero expression")
        return RationalExpr(self.den, self.num)

    def __eq__(self, other):
        try:
            other = _coerce_rational(other)
        except MalformedExpressionError:
            return NotImplemented
        return (self.num * other.den - other.num * self.den).is_zero()

    def __hash__(self):
        s = self.simplify()
        return hash((s.num, s.den))

    # -- canonicalization ----------------------------------------------------
    def simplify(self) -> "RationalExpr":
        """Canonical representative: gcd-reduced, denominator leading coeff 1."""
        if self.num.is_zero():
            return RationalExpr(PolyExpr())
        fast = self.num.exact_div(self.den)
        if fast is not None:
            return RationalExpr(fast)
        g = poly_gcd(self.num, self.den)
        if not g.is_constant():
            return RationalExpr(self.num.exact_div(g), self.den.exact_div(g))
        return RationalExpr(self.num, self.den)

    # -- calculus --------------------------------------------------------------
    def derivative(self, var: str) -> "RationalExpr":
        return RationalExpr(
            self.num.derivative(var) * self.den - self.num * self.den.derivative(var),
            self.den * self.den,
        )

    def conj(self) -> "RationalExpr":
        return RationalExpr(self.num.conj(), self.den.conj())

    def subst(self, mapping: dict) -> "RationalExpr":
        den = self.den.subst(mapping)
        if den.is_zero():
            raise MalformedExpressionError("substitution lands on zero denominator")
        return self.num.subst(mapping) / den

    def evaluate(self, point: dict) -> ExactScalar:
        d = self.den.evaluate(point)
        if d.is_zero():
            raise MalformedExpressionError("evaluation at a pole")
        return self.num.evaluate(point) / d

    def numeric(self, point: dict, twopii: complex = None) -> complex:
        """Float evaluation; twopii defaults to its analytic value 2*pi*i."""
        import cmath
        full = dict(point)
        full.setdefault(TWO_PI_I, twopii if twopii is not None else 2j * cmath.pi)
        num = sum(complex(c) * _mono_numeric(m, full) for m, c in self.num.terms.items())
        den = sum(complex(c) * _mono_numeric(m, full) for m, c in self.den.terms.items())
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
        if s.den.is_constant() and s.den.constant_value() == ONE:
            return str(s.num)
        return f"({s.num})/({s.den})"

    __repr__ = __str__


def _mono_numeric(m: Monomial, point: dict) -> complex:
    out = 1.0 + 0j
    for v, e in m:
        out *= complex(point[v]) ** e
    return out


def _coerce_rational(value) -> RationalExpr:
    if isinstance(value, RationalExpr):
        return value
    if isinstance(value, PolyExpr):
        return RationalExpr(value)
    if isinstance(value, (int, Fraction, ExactScalar)):
        return RationalExpr.const(value)
    raise MalformedExpressionError(f"cannot coerce {value!r} to RationalExpr")


def coerce_rational(value) -> RationalExpr:
    return _coerce_rational(value)


def simplify(expr: RationalExpr) -> RationalExpr:
    """Module-level canonical simplification (idempotent)."""
    return _coerce_rational(expr).simplify()


def random_point(variables, rng: random.Random, span: int = 23) -> dict:
    """Random rational sample point avoiding small denominators' poles."""
    return {
        v: ExactScalar(Fraction(rng.randint(-span, span), rng.randint(1, 7)))
        for v in variables
    }


def equal_at_random_points(a: RationalExpr, b: RationalExpr, trials: int = 20,
                           seed: int = 7) -> bool:
    """Probabilistic equality oracle used by tests (never by the library)."""
    rng = random.Random(seed)
    variables = sorted(a.variables() | b.variables())
    done = 0
    while done < trials:
        point = random_point(variables, rng)
        try:
            va, vb = a.evaluate(point), b.evaluate(point)
        except MalformedExpressionError:
            continue
        if va != vb:
            return False
        done += 1
    return True


# ---------------------------------------------------------------------------
# A small expression parser for scenario files and tests
# ---------------------------------------------------------------------------

# Parentheses and unary minus signs nested deeper than this are rejected, so
# that the recursive descent stays far below the interpreter's recursion limit.
_MAX_NESTING = 100


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
        base = base ** (-exp if neg else exp)
        pos += 1
    return base, pos


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
            return RationalExpr.const(ExactScalar(0, 1)), pos + 1
        return RationalExpr.var(name), pos + 1
    raise MalformedExpressionError(f"unexpected token {tok!r}")
