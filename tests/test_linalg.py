"""Exact elimination against independent references: sympy's `Matrix.rref()`
and `Matrix.inv()` over the Gaussian rationals, and a dense Gauss-Jordan for
`RationalExpr` entries kept below."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantbench.exprs import RationalExpr, coerce_rational, parse_expr
from quantbench import linalg
from quantbench.integrality import column_space_completion
from quantbench.linalg import (
    conj_transpose,
    inverse,
    is_zero_matrix,
    kernel_basis,
    rref,
    rref_kernel,
    solve_linear,
)
from quantbench.scalars import ExactScalar, ONE, ZERO

_part = st.fractions(min_value=-6, max_value=6, max_denominator=4)
_entries = st.one_of(st.just(ZERO), st.builds(ExactScalar, _part, _part))


@st.composite
def matrices(draw, max_dim=7):
    """Sparse Gaussian-rational matrices of any shape, some of them products
    through fewer dimensions than either side (rank-deficient), with zero rows
    and zero columns blanked in."""
    m, n = draw(st.integers(1, max_dim)), draw(st.integers(1, max_dim))
    if draw(st.booleans()):
        k = draw(st.integers(0, min(m, n) - 1))
        left = [[draw(_entries) for _ in range(k)] for _ in range(m)]
        right = [[draw(_entries) for _ in range(n)] for _ in range(k)]
        rows = [[sum((left[i][t] * right[t][j] for t in range(k)), ZERO)
                 for j in range(n)] for i in range(m)]
    else:
        rows = [[draw(_entries) for _ in range(n)] for _ in range(m)]
    zero_rows = draw(st.sets(st.integers(0, m - 1), max_size=m // 2))
    zero_cols = draw(st.sets(st.integers(0, n - 1), max_size=n // 2))
    return [[ZERO if i in zero_rows or j in zero_cols else v for j, v in enumerate(row)]
            for i, row in enumerate(rows)]


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def to_sympy(sympy, rows):
    return sympy.Matrix([[sympy.Rational(v.num[0], v.den)
                          + sympy.I * sympy.Rational(v.num[1], v.den)
                          for v in row] for row in rows])


def from_sympy(entry) -> ExactScalar:
    re, im = entry.as_real_imag()
    return ExactScalar(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))


def sympy_rref(sympy, rows):
    red, pivots = to_sympy(sympy, rows).rref()
    return [[from_sympy(red[i, j]) for j in range(red.cols)]
            for i in range(red.rows)], list(pivots)


class TestAgainstSympy:
    @settings(max_examples=80, deadline=None)
    @given(matrices())
    def test_rref_and_rank(self, sympy, rows):
        expected, pivots = sympy_rref(sympy, rows)
        assert rref(rows) == (expected, pivots)

    @settings(max_examples=60, deadline=None)
    @given(matrices())
    def test_kernel_basis(self, sympy, rows):
        n = len(rows[0])
        expected = [[from_sympy(v) for v in vec] for vec in to_sympy(sympy, rows).nullspace()]
        basis = kernel_basis(rows, n)
        assert basis == expected
        assert all(sum((a * x for a, x in zip(row, vec)), ZERO) == ZERO
                   for vec in basis for row in rows)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_kernel_of_a_leading_block(self, sympy, data):
        """The kernel of the first columns, read off the elimination of the
        whole matrix, is the kernel of those columns alone."""
        rows = data.draw(matrices())
        width = data.draw(st.integers(1, len(rows[0])))
        block = [row[:width] for row in rows]
        expected = [[from_sympy(v) for v in vec] for vec in to_sympy(sympy, block).nullspace()]
        assert rref_kernel(*rref(rows), width) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_solve_linear(self, sympy, data):
        rows = data.draw(matrices())
        m, n = len(rows), len(rows[0])
        if data.draw(st.booleans()):  # consistent by construction
            x0 = [data.draw(_entries) for _ in range(n)]
            rhs = [sum((a * x for a, x in zip(row, x0)), ZERO) for row in rows]
        else:
            rhs = [data.draw(_entries) for _ in range(m)]
        red, pivots = sympy_rref(sympy, [row + [b] for row, b in zip(rows, rhs)])
        (solution,) = solve_linear(rows, [rhs])
        if n in pivots:
            assert solution is None
            return
        expected = [ZERO] * n
        for r, c in enumerate(pivots):
            expected[c] = red[r][n]
        assert solution == expected
        assert [sum((a * x for a, x in zip(row, solution)), ZERO) for row in rows] == rhs

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_solve_linear_many_columns(self, sympy, data):
        """One elimination of [A | B] against sympy's rref of [A | b] for each
        column alone.  A gains a zero row; one column is nonzero there, so it
        is inconsistent, and another is in the span of A and that column."""
        rows = data.draw(matrices())
        n = len(rows[0])
        rows = rows + [[ZERO] * n]
        columns = []
        for _ in range(data.draw(st.integers(0, 3))):
            if data.draw(st.booleans()):  # consistent by construction
                x0 = [data.draw(_entries) for _ in range(n)]
                columns.append([sum((a * x for a, x in zip(row, x0)), ZERO) for row in rows])
            else:
                columns.append([data.draw(_entries) for _ in rows])
        bad = [data.draw(_entries) for _ in rows[:-1]] + [ONE]
        x0 = [data.draw(_entries) for _ in range(n)]
        mixed = [2 * b + sum((a * x for a, x in zip(row, x0)), ZERO)
                 for b, row in zip(bad, rows)]
        at = data.draw(st.integers(0, len(columns)))
        columns[at:at] = [bad, mixed]
        solutions = solve_linear(rows, columns)
        assert len(solutions) == len(columns)
        assert solutions[at] is None and solutions[at + 1] is None
        for rhs, solution in zip(columns, solutions):
            red, pivots = sympy_rref(sympy, [row + [b] for row, b in zip(rows, rhs)])
            if n in pivots:
                assert solution is None
                continue
            expected = [ZERO] * n
            for r, c in enumerate(pivots):
                expected[c] = red[r][n]
            assert solution == expected

    def test_solve_linear_without_rows(self):
        assert solve_linear([], []) == []
        assert solve_linear([], [[], []]) == [[], []]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_column_space_completion(self, sympy, data):
        """The pivots of one elimination against the greedy rank loop that
        chose the candidates before, one rank per trial."""
        rows = data.draw(matrices())
        cols = [list(col) for col in zip(*rows)]
        cols += [cols[i] for i in data.draw(st.lists(st.integers(0, len(cols) - 1),
                                                       max_size=2))]
        split = data.draw(st.integers(0, len(cols)))
        image, candidates = cols[:split], cols[split:]
        assert column_space_completion(image, candidates, len(rows)) == \
            greedy_completion(sympy, image, candidates, len(rows))

    def test_column_space_completion_eliminates_once(self, monkeypatch):
        calls = []
        original = linalg.rref

        def counted(rows):
            calls.append(len(rows))
            return original(rows)

        monkeypatch.setattr(linalg, "rref", counted)
        image = [[ONE, ZERO, ZERO]]
        candidates = [[ONE, ZERO, ZERO], [ZERO, ONE, ZERO], [ONE, ONE, ZERO], [ZERO, ZERO, ONE]]
        assert column_space_completion(image, candidates, 3) == [1, 3]
        assert len(calls) == 1

    @settings(max_examples=60, deadline=None)
    @given(matrices())
    def test_inverse(self, sympy, rows):
        n = min(len(rows), len(rows[0]))
        square = [row[:n] for row in rows[:n]]
        try:
            expected = to_sympy(sympy, square).inv()
        except ValueError:  # sympy's NonInvertibleMatrixError: singular
            assert inverse(square) is None
            return
        assert inverse(square) == [[from_sympy(expected[i, j]) for j in range(n)]
                                   for i in range(n)]


def greedy_completion(sympy, image_cols, candidate_cols, nrows):
    """The greedy loop `column_space_completion` ran before it eliminated
    once: keep a candidate when it raises the rank (sympy's) of the columns
    kept so far."""
    def rank(cols):
        return to_sympy(sympy, [[col[i] for col in cols] for i in range(nrows)]).rank() \
            if cols and nrows else 0

    chosen = []
    current = [list(col) for col in image_cols]
    base_rank = rank(current)
    for idx, cand in enumerate(candidate_cols):
        trial = current + [list(cand)]
        if rank(trial) > base_rank:
            chosen.append(idx)
            current = trial
            base_rank += 1
    return chosen


def dense_rref(rows):
    """Textbook Gauss-Jordan on dense rows: the reference for the sparse rref."""
    m = [[v if hasattr(v, "inverse") else ExactScalar.coerce(v) for v in row] for row in rows]
    pivots, r = [], 0
    for c in range(len(m[0])):
        pivot = next((i for i in range(r, len(m)) if not m[i][c].is_zero()), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c].inverse()
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and not m[i][c].is_zero():
                factor = m[i][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


@pytest.mark.parametrize("texts", [
    [["x", "1", "x^2", "0"],
     ["1", "x", "0", "y"],
     ["x+1", "1+x", "x^2", "y"],
     ["0", "0", "0", "0"],
     ["1/(1+x^2)", "0", "y/(x-y)", "1"]],
    # a Gram-like block beside an identity, as the reduce stage inverts it
    [["1+x*y", "x", "1", "0"],
     ["y", "1/(1+y^2)", "0", "1"]],
], ids=["rank-deficient", "inverse"])
def test_rational_entries_match_the_dense_reference(texts):
    rows = [[parse_expr(t) if t not in ("0", "1") else (ZERO if t == "0" else ONE)
             for t in row] for row in texts]
    red, pivots = rref(rows)
    expected, expected_pivots = dense_rref(rows)
    assert pivots == expected_pivots
    for row, ref in zip(red, expected):
        for value, want in zip(row, ref):
            value, want = coerce_rational(value), coerce_rational(want)
            assert value == want
            # the same operations in the same order: the same unsimplified form
            assert (value.num, value.den) == (want.num, want.den)
    basis = kernel_basis(rows, len(rows[0]))
    assert len(basis) == len(rows[0]) - len(pivots)
    assert all(sum((coerce_rational(a) * coerce_rational(x) for a, x in zip(row, vec)),
                   RationalExpr.zero()).is_zero()
               for vec in basis for row in rows)


class TestMatrixHelpers:
    def test_conj_transpose(self):
        i = ExactScalar(0, 1)
        a = [[ExactScalar(1, 2), i, ZERO], [ExactScalar(Fraction(1, 3)), ONE, -i]]
        assert conj_transpose(a) == [[ExactScalar(1, -2), ExactScalar(Fraction(1, 3))],
                                     [-i, ONE], [ZERO, i]]
        x = parse_expr("x + 2*i")
        assert conj_transpose([[x]]) == [[parse_expr("x - 2*i")]]
        assert conj_transpose([]) == []

    @settings(max_examples=60, deadline=None)
    @given(matrices(max_dim=4))
    def test_conj_transpose_against_sympy(self, sympy, rows):
        assert to_sympy(sympy, conj_transpose(rows)) == to_sympy(sympy, rows).H

    def test_is_zero_matrix(self):
        x = parse_expr("x/(1+x)")
        assert is_zero_matrix([[ZERO, RationalExpr.zero()], [ZERO, ZERO]])
        assert is_zero_matrix([])
        assert not is_zero_matrix([[ZERO, ZERO], [ZERO, ExactScalar(0, 1)]])
        assert is_zero_matrix([[x, ONE]], minus=[[parse_expr("(x+x^2)/(1+2*x+x^2)"), ONE]])
        assert not is_zero_matrix([[x, ONE]], minus=[[x, ZERO]])
        assert not is_zero_matrix([[ZERO], [x]], minus=[[ZERO], [ZERO]])
