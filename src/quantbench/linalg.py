"""Exact linear algebra: reduced row echelon elimination over any exact field
(Gaussian rationals or rational-function fields).  The integer Smith normal
form is in `integrality`."""

from __future__ import annotations

from .exprs import RationalExpr, coerce_rational
from .scalars import ExactScalar, ONE, ZERO


def _fieldify(v):
    """Accept any field element exposing is_zero/inverse/conj arithmetic."""
    if type(v) is ExactScalar or hasattr(v, "is_zero") and hasattr(v, "inverse"):
        return v
    return ExactScalar.coerce(v)


def _coerce_row(row):
    return [_fieldify(v) for v in row]


def rref(rows):
    """Reduced row echelon form; returns (rows, pivot_columns).

    The result is dense: the pivot rows, then the zero rows.  Elimination runs
    on sparse rows, {column: nonzero entry}, so no zero entry is ever scaled
    or subtracted.  Pivots are chosen as in textbook Gauss-Jordan (the first
    row from the current one down with a nonzero entry in the column), and
    every nonzero entry goes through the same operations in the same order, so
    `RationalExpr` entries keep their unsimplified form too.
    """
    dense = [_coerce_row(r) for r in rows]
    if not dense:
        return [], []
    ncols = len(dense[0])
    m = [{c: v for c, v in enumerate(row) if not v.is_zero()} for row in dense]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if c in m[i]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        row = m[r]
        inv = row[c].inverse()
        for k, v in row.items():
            row[k] = v * inv
        for i, other in enumerate(m):
            if i == r or c not in other:
                continue
            factor = other.pop(c)  # the pivot column clears exactly
            for k, b in row.items():
                if k == c:
                    continue
                a = other.get(k)
                v = -(factor * b) if a is None else a - factor * b
                if v.is_zero():
                    del other[k]
                else:
                    other[k] = v
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    zero = dense[0][0] - dense[0][0] if ncols else None  # of the entries' type
    return [[row.get(c, zero) for c in range(ncols)] for row in m], pivots


def kernel_basis(rows, ncols):
    """Basis of the right kernel (list of column vectors) of a matrix with
    `ncols` columns."""
    return rref_kernel(*rref(rows), ncols)


def rref_kernel(red, pivots, ncols):
    """Kernel basis of the first `ncols` columns of a matrix, read from the
    output of `rref` on the matrix.  Elimination runs column by column, so
    those columns of the result are the reduced form of the leading block:
    the kernel of a block is read off the elimination of a wider matrix."""
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [ZERO] * ncols
        vec[fc] = ONE
        for r, pc in enumerate(pivots):
            if pc >= ncols:
                break
            vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis


def inverse(rows):
    """Inverse of a square matrix by elimination on [A | I], or None when A
    is singular."""
    n = len(rows)
    red, pivots = rref([list(row) + [ONE if i == j else ZERO for j in range(n)]
                        for i, row in enumerate(rows)])
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red]


def solve_linear(rows, columns):
    """One solution of A x = b per right-hand side b in `columns`, or None
    where b is inconsistent, from one elimination of [A | B].  The rows past
    A's pivots are zero on A, so b is consistent exactly when they are zero
    on b too; the free variables are set to zero."""
    if not rows:
        return [[] for _ in columns]
    ncols = len(rows[0])
    red, pivots = rref([_coerce_row(row) + [_fieldify(col[i]) for col in columns]
                        for i, row in enumerate(rows)])
    rank_a = sum(1 for pc in pivots if pc < ncols)
    solutions = []
    for j in range(ncols, ncols + len(columns)):
        if any(not row[j].is_zero() for row in red[rank_a:]):
            solutions.append(None)
            continue
        x = [ZERO] * ncols
        for r in range(rank_a):
            x[pivots[r]] = red[r][j]
        solutions.append(x)
    return solutions


def mat_mul(a, b):
    """Product of matrices whose entries `coerce_rational` accepts; the
    entries of the product are `RationalExpr`."""
    p = len(b[0]) if b else 0
    return [[sum((coerce_rational(a[i][k]) * coerce_rational(b[k][j])
                  for k in range(len(b))), RationalExpr.zero())
             for j in range(p)] for i in range(len(a))]


def conj_transpose(rows):
    """The conjugate transpose of a matrix whose entries have `conj`."""
    return [[v.conj() for v in column] for column in zip(*rows)]


def is_zero_matrix(rows, minus=None):
    """Whether every entry of `rows`, or of `rows - minus`, is exactly zero."""
    if minus is None:
        return all(v.is_zero() for row in rows for v in row)
    return all((a - b).is_zero() for row, other in zip(rows, minus)
               for a, b in zip(row, other))


def det(rows, one=ONE):
    """Determinant by Laplace expansion along the first row.  `one` is the
    determinant of the empty matrix, so the result has the entries' type."""
    if not rows:
        return one
    if len(rows) == 1:
        return rows[0][0]
    total = one - one
    for j in range(len(rows)):
        term = rows[0][j] * det([r[:j] + r[j + 1:] for r in rows[1:]], one)
        total = total + term if j % 2 == 0 else total - term
    return total
