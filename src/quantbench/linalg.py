"""Exact linear algebra: reduced row echelon elimination over any exact field
(Gaussian rationals or rational-function fields) and Smith normal form over
the integers (with unimodular transforms)."""

from __future__ import annotations

from .exprs import RationalExpr, coerce_rational
from .scalars import ExactScalar, ONE, ZERO


def _fieldify(v):
    """Accept any field element exposing is_zero/inverse/conj arithmetic."""
    if hasattr(v, "is_zero") and hasattr(v, "inverse"):
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


def kernel_basis(rows, ncols=None):
    """Basis of the right kernel (list of column vectors)."""
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for empty matrix")
        ncols = len(rows[0])
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


def column_space_completion(image_cols, candidate_cols, nrows):
    """Indices of the candidates that extend span(image_cols), each outside
    the span of the image and the candidates before it: the pivot columns of
    the candidate block in one elimination of [image | candidates]."""
    cols = list(image_cols) + list(candidate_cols)
    _, pivots = rref([[col[i] for col in cols] for i in range(nrows)])
    return [pc - len(image_cols) for pc in pivots if pc >= len(image_cols)]


def matvec(rows, vec):
    return [sum((_fieldify(a) * _fieldify(v)
                 for a, v in zip(row, vec)), ZERO) for row in rows]


def mat_mul(a, b):
    """Product of matrices whose entries `coerce_rational` accepts; the
    entries of the product are `RationalExpr`."""
    p = len(b[0]) if b else 0
    return [[sum((coerce_rational(a[i][k]) * coerce_rational(b[k][j])
                  for k in range(len(b))), RationalExpr.zero())
             for j in range(p)] for i in range(len(a))]


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


# ---------------------------------------------------------------------------
# integer Smith normal form
# ---------------------------------------------------------------------------

def smith_normal_form(matrix):
    """U @ A @ V = S diagonal with d_i | d_{i+1}; U, V unimodular.

    Returns (U, S, V, rank) with plain int entries.
    """
    a = [[int(v) for v in row] for row in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, k):
        a[dst] = [x + k * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + k * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, k):
        for row in a:
            row[dst] += k * row[src]
        for row in v:
            row[dst] += k * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(m, n):
        # find a nonzero pivot in the trailing block
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best):
                    best = abs(a[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, m):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    add_row(i, t, -q)
                    if a[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    add_col(j, t, -q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                break
        if a[t][t] < 0:
            negate_row(t)
        # enforce divisibility d_t | trailing entries
        fixed = True
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % a[t][t] != 0:
                    add_row(t, i, 1)
                    fixed = False
                    break
            if not fixed:
                break
        if fixed:
            t += 1
    s_rank = sum(1 for i in range(min(m, n)) if a[i][i] != 0)
    return u, a, v, s_rank


def integer_kernel_basis(matrix):
    """Basis of the integer kernel lattice of A (list of int vectors)."""
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    if m == 0:
        return [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    _, s, v, r = smith_normal_form(matrix)
    # kernel = V * (last n-r unit vectors)
    return [[v[i][j] for i in range(n)] for j in range(r, n)]
