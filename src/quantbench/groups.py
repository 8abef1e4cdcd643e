"""Exact elements of U(1) and SU(2), with the adjoint and coadjoint actions
on coefficient vectors and the pairing of covectors with vectors.

No stage of a run calls this code, so no module on the run path imports it:
`quantbench` loads it on first use of one of its names.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import MalformedExpressionError, ModelMismatchError
from .scalars import ExactScalar, I, ONE, ZERO

_SIGMA = (
    ((ZERO, ONE), (ONE, ZERO)),
    ((ZERO, -I), (I, ZERO)),
    ((ONE, ZERO), (ZERO, -ONE)),
)


def _mat_mul(a, b):
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(2)), ZERO) for j in range(2))
        for i in range(2))


def _mat_scale(s, a):
    return tuple(tuple(s * a[i][j] for j in range(2)) for i in range(2))


def _mat_add(a, b):
    return tuple(tuple(a[i][j] + b[i][j] for j in range(2)) for i in range(2))


def _mat_dagger(a):
    return tuple(tuple(a[j][i].conj() for j in range(2)) for i in range(2))


_ID2 = ((ONE, ZERO), (ZERO, ONE))


class GroupElement:
    """Exact-entry element of U(1) or SU(2)."""

    def __init__(self, group_tag, value):
        self.group_tag = group_tag
        if group_tag == "U1":
            value = ExactScalar.coerce(value)
            if value.abs2() != ONE:
                raise MalformedExpressionError("U(1) element must have |z|^2 = 1")
            self.value = value
        elif group_tag == "SU2":
            m = tuple(tuple(ExactScalar.coerce(e) for e in row) for row in value)
            det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
            if det != ONE:
                raise MalformedExpressionError("SU(2) element must have determinant 1")
            if _mat_mul(m, _mat_dagger(m)) != _ID2:
                raise MalformedExpressionError("SU(2) element must be unitary")
            self.value = m
        else:
            raise MalformedExpressionError(f"unknown group tag {group_tag}")

    @staticmethod
    def identity(group_tag):
        return GroupElement(group_tag, ONE if group_tag == "U1" else _ID2)

    @staticmethod
    def su2_from_quaternion(t, x, y, z):
        t, x, y, z = (ExactScalar.coerce(v) for v in (t, x, y, z))
        m = ((t - I * z, -I * x - y), (-I * x + y, t + I * z))
        return GroupElement("SU2", m)

    def __mul__(self, other):
        if self.group_tag != other.group_tag:
            raise ModelMismatchError("group tags differ")
        if self.group_tag == "U1":
            return GroupElement("U1", self.value * other.value)
        return GroupElement("SU2", _mat_mul(self.value, other.value))

    def inverse(self):
        if self.group_tag == "U1":
            return GroupElement("U1", self.value.conj())
        return GroupElement("SU2", _mat_dagger(self.value))

    def __eq__(self, other):
        return self.group_tag == other.group_tag and self.value == other.value

    def __repr__(self):
        return f"GroupElement({self.group_tag}, {self.value})"


def Ad(g: GroupElement, coeffs):
    """Adjoint action on fiber-algebra coefficient vectors.

    SU(2) uses the so(3)-normalized basis e_a = -(i/2) sigma_a; U(1) is abelian.
    """
    if g.group_tag == "U1":
        return tuple(ExactScalar.coerce(c) for c in coeffs)
    coeffs = tuple(ExactScalar.coerce(c) for c in coeffs)
    m = ((ZERO, ZERO), (ZERO, ZERO))
    for a in range(3):
        term = _mat_scale(coeffs[a] * ExactScalar(0, Fraction(-1, 2)), _SIGMA[a])
        m = _mat_add(m, term)
    conj = _mat_mul(_mat_mul(g.value, m), _mat_dagger(g.value))
    out = []
    for a in range(3):
        prod = _mat_mul(conj, _SIGMA[a])
        trace = prod[0][0] + prod[1][1]
        out.append(I * trace)
    return tuple(out)


def coAd(g: GroupElement, covector):
    """<coAd(g) xi, X> = <xi, Ad(g^-1) X>, computed exactly."""
    ginv = g.inverse()
    n = len(covector)
    out = []
    for a in range(n):
        basis = [ONE if i == a else ZERO for i in range(n)]
        moved = Ad(ginv, basis)
        out.append(sum((ExactScalar.coerce(covector[k]) * moved[k] for k in range(n)), ZERO))
    return tuple(out)


def pair(covector, vector):
    return sum((ExactScalar.coerce(a) * ExactScalar.coerce(b)
                for a, b in zip(covector, vector)), ZERO)
