"""Integrality of leafwise classes, the Kostant condition: the exact Cech
cohomology of a finite good cover, the de Rham -> Cech zig-zag, integrality
of degree-2 classes by the integer Smith normal form, and the line bundle
built from an integral class.

No stage of a run calls this code, so no module on the run path imports it:
`quantbench` loads it on first use of one of its names.  The zig-zag's f_jk
are stored as a rational part plus an exact multiple of a declared angle
primitive (a closed 1-form with unit monodromy); branch offsets per triple
overlap are scenario declarations, so every cocycle value is evaluated
exactly.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from . import linalg
from .bundles import LineBundleData, TransitionValue, validate_bundle
from .cech import GoodCover, OverlapFunction, cocycle_value
from .errors import (
    DegreeError,
    IntegralityError,
    MalformedExpressionError,
    NotClosedError,
    OverlapMismatchError,
    UnsupportedPrimitiveError,
)
from .exprs import PolyExpr, RationalExpr, parse_expr
from .geometry import Chart, DifferentialForm, exterior_derivative, form_on_chart, to_chart
from .linalg import _fieldify, inverse, kernel_basis, solve_linear
from .scalars import ExactScalar, ZERO


# ---------------------------------------------------------------------------
# linear algebra of the cohomology: column spaces and the Smith normal form
# ---------------------------------------------------------------------------

def column_space_completion(image_cols, candidate_cols, nrows):
    """Indices of the candidates that extend span(image_cols), each outside
    the span of the image and the candidates before it: the pivot columns of
    the candidate block in one elimination of [image | candidates]."""
    cols = list(image_cols) + list(candidate_cols)
    _, pivots = linalg.rref([[col[i] for col in cols] for i in range(nrows)])
    return [pc - len(image_cols) for pc in pivots if pc >= len(image_cols)]


def matvec(rows, vec):
    return [sum((_fieldify(a) * _fieldify(v)
                 for a, v in zip(row, vec)), ZERO) for row in rows]


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


# ---------------------------------------------------------------------------
# Cech cochains and cohomology
# ---------------------------------------------------------------------------

class Cochain:
    def __init__(self, cover: GoodCover, degree, values=None):
        self.cover = cover
        self.degree = int(degree)
        vals = {}
        for simplex, v in (values or {}).items():
            simplex = tuple(simplex)
            if simplex not in cover.simplices or len(simplex) != degree + 1:
                raise OverlapMismatchError(f"value on unknown overlap {simplex}")
            vals[simplex] = ExactScalar.coerce(v)
        self.values = vals

    def value(self, simplex) -> ExactScalar:
        return self.values.get(tuple(simplex), ZERO)

    def vector(self):
        return [self.value(s) for s in self.cover.k_simplices(self.degree)]

    @staticmethod
    def from_vector(cover, degree, vec):
        return Cochain(cover, degree, dict(zip(cover.k_simplices(degree), vec)))

    def __add__(self, other):
        out = dict(self.values)
        for k, v in other.values.items():
            out[k] = out.get(k, ZERO) + v
        return Cochain(self.cover, self.degree, out)

    def __neg__(self):
        return Cochain(self.cover, self.degree, {k: -v for k, v in self.values.items()})

    def __sub__(self, other):
        return self + (-other)

    def is_zero(self):
        return all(v.is_zero() for v in self.values.values())

    def is_integer(self):
        return all(v.is_integer() for v in self.values.values())

    def __repr__(self):
        bits = [f"{s}: {v}" for s, v in sorted(self.values.items()) if not v.is_zero()]
        return "Cochain{" + ", ".join(bits) + "}"


def cech_delta(c: Cochain) -> Cochain:
    """Alternating face sum; sign (-1)^(j+1) for the j-th deleted index (0-based)."""
    return Cochain.from_vector(c.cover, c.degree + 1,
                               matvec(delta_matrix(c.cover, c.degree), c.vector()))


def delta_matrix(cover: GoodCover, degree):
    """Matrix of cech_delta: C^degree -> C^(degree+1) in simplex bases."""
    source = cover.k_simplices(degree)
    rows = []
    for simplex in cover.k_simplices(degree + 1):
        row = [ZERO] * len(source)
        for j in range(len(simplex)):
            idx = source.index(simplex[:j] + simplex[j + 1:])
            row[idx] = row[idx] + ExactScalar((-1) ** (j + 1))
        rows.append(row)
    return rows


class CohomologyDescription:
    def __init__(self, degree, coefficients, rank, torsion, generators):
        self.degree = degree
        self.coefficients = coefficients
        self.rank = rank
        self.torsion = tuple(torsion)
        self.generators = generators

    def __repr__(self):
        tor = f", torsion={list(self.torsion)}" if self.torsion else ""
        return f"H^{self.degree}({self.coefficients}): rank {self.rank}{tor}"


def cohomology_compute(cover: GoodCover, degree, coefficients="real"):
    """Cohomology of the longitudinal complex by exact elimination / SNF."""
    d_k = delta_matrix(cover, degree)
    image_cols = _coboundary_columns(cover, degree)
    n_k = len(cover.k_simplices(degree))
    if coefficients == "real":
        kb = kernel_basis(d_k, n_k)
        chosen = column_space_completion(image_cols, kb, n_k)
        gens = [Cochain.from_vector(cover, degree, kb[i]) for i in chosen]
        return CohomologyDescription(degree, "real", len(chosen), (), gens)
    if coefficients != "integer":
        raise MalformedExpressionError("coefficients must be 'real' or 'integer'")
    # integer case: ker_Z(d_k) / im_Z(d_prev) via Smith normal form
    d_k_int = [[_as_int(v) for v in row] for row in d_k] if d_k else []
    kb = integer_kernel_basis(d_k_int) if d_k_int else \
        [[1 if i == j else 0 for i in range(n_k)] for j in range(n_k)]
    if not kb:
        return CohomologyDescription(degree, "integer", 0, (), [])
    # express image vectors in the kernel basis (exact rational solve, then int)
    kernel_rows = [[ExactScalar(kb[b][i]) for b in range(len(kb))] for i in range(n_k)]
    solutions = solve_linear(kernel_rows, image_cols) if image_cols else []
    if any(sol is None for sol in solutions):
        raise MalformedExpressionError("image does not lie in the kernel")
    rel_cols = [[_as_int(v) for v in sol] for sol in solutions]
    if rel_cols:
        rel = [[rel_cols[j][i] for j in range(len(rel_cols))] for i in range(len(kb))]
        u, s, v, r = smith_normal_form(rel)
        invariants = [s[i][i] for i in range(r)]
        torsion = [d for d in invariants if abs(d) > 1]
        free_rank = len(kb) - r
        # generators: images of the last rows of U^{-1}? use U to map kernel basis
        # coordinates; free generators correspond to zero-invariant directions.
        u_inv = _int_inverse(u)
        gens = []
        for j in range(r, len(kb)):
            coeffs = [u_inv[i][j] for i in range(len(kb))]
            vec = [sum(coeffs[b] * kb[b][i] for b in range(len(kb))) for i in range(n_k)]
            gens.append(Cochain.from_vector(cover, degree, vec))
        return CohomologyDescription(degree, "integer", free_rank, torsion, gens)
    gens = [Cochain.from_vector(cover, degree, vec) for vec in kb]
    return CohomologyDescription(degree, "integer", len(kb), (), gens)


def _coboundary_columns(cover: GoodCover, degree):
    """Columns of the coboundary C^(degree-1) -> C^degree, which span the
    degree-`degree` coboundaries."""
    d_prev = delta_matrix(cover, degree - 1) if degree > 0 else []
    return [list(col) for col in zip(*d_prev)]


def _as_int(v):
    v = ExactScalar.coerce(v)
    if not v.is_integer():
        raise MalformedExpressionError(f"expected integer entry, got {v}")
    return v.num[0]


def _int_inverse(u):
    inv = inverse([[ExactScalar(v) for v in row] for row in u])
    if inv is None:
        raise MalformedExpressionError("matrix not invertible")
    return [[_as_int(v) for v in row] for row in inv]


# ---------------------------------------------------------------------------
# sector covers of the projective line: the zig-zag's inputs
# ---------------------------------------------------------------------------

def angle_primitive(atlas) -> DifferentialForm:
    """d(azimuth)/2pi on the N chart: (x dy - y dx)/(2 pi r^2)."""
    return DifferentialForm(atlas, 1, "full", {"N": {
        ("x",): parse_expr("-y*i/(twopii*(x^2+y^2))"),
        ("y",): parse_expr("x*i/(twopii*(x^2+y^2))")}})


def sector_cover(atlas, sectors: int) -> GoodCover:
    """Patch 0 around the far pole plus `sectors` overlapping plane sectors."""
    if sectors not in (3, 4):
        raise ValueError("sector covers have 3 or 4 sectors")
    idx = list(range(sectors + 1))
    simplices = [tuple(p) for p in combinations(idx, 2)]
    if sectors == 3:
        triples = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
        samples = {(0, 1, 2): {"x": -1, "y": 3},
                   (0, 2, 3): {"x": -1, "y": -3},
                   (0, 1, 3): {"x": 3, "y": 1},
                   (1, 2, 3): {"x": Fraction(1, 4), "y": Fraction(1, 4)}}
        quads = []
    else:
        triples = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 1, 4),
                   (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
        samples = {(0, 1, 2): {"x": 1, "y": 3},
                   (0, 2, 3): {"x": -3, "y": 1},
                   (0, 3, 4): {"x": -1, "y": -3},
                   (0, 1, 4): {"x": 3, "y": 1}}
        quads = [(1, 2, 3, 4)]
    charts = {(i,): "N" if i > 0 else "S" for i in idx}
    for s in simplices + triples + quads:
        charts[tuple(sorted(s))] = "N"
    return GoodCover(atlas, idx, simplices + triples + quads,
                     chart_refs=charts, sample_points=samples,
                     angle_forms={"N": angle_primitive(atlas)})


def sector_zigzag_data(atlas, cover: GoodCover, level: Fraction):
    """Primitives, overlap functions and branch offsets for level * omega_FS."""
    eta_n = DifferentialForm(atlas, 1, "full", {"N": {
        ("x",): parse_expr("-y*i/(twopii*(1+x^2+y^2))") * ExactScalar(level),
        ("y",): parse_expr("x*i/(twopii*(1+x^2+y^2))") * ExactScalar(level)}})
    eta_s = DifferentialForm(atlas, 1, "full", {"S": {
        ("u",): parse_expr("-v*i/(twopii*(1+u^2+v^2))") * ExactScalar(level),
        ("v",): parse_expr("u*i/(twopii*(1+u^2+v^2))") * ExactScalar(level)}})
    primitives = {i: eta_n for i in cover.index_set if i != 0}
    primitives[0] = eta_s
    overlaps = {}
    for simplex in cover.k_simplices(1):
        j, k = simplex
        if j == 0:
            overlaps[(j, k)] = OverlapFunction("N", 0, ExactScalar(-level))
        else:
            overlaps[(j, k)] = OverlapFunction("N", 0, 0)
    sectors = len(cover.index_set) - 1
    cut_triple = (0, 1, 3) if sectors == 3 else (0, 1, 4)
    offsets = {cut_triple: {(0, cut_triple[2]): 1}}
    return primitives, overlaps, offsets


# ---------------------------------------------------------------------------
# the de Rham -> Cech zig-zag and integrality
# ---------------------------------------------------------------------------

def poincare_primitive(form: DifferentialForm, chart: Chart,
                       leafwise_class=None) -> DifferentialForm:
    """Radial-homotopy primitive on a star-shaped chart, exact for polynomials."""
    cls = leafwise_class or form.leafwise_class
    if not chart.star_shaped:
        raise UnsupportedPrimitiveError(f"chart {chart.name} is not star-shaped")
    if form.degree == 0:
        raise DegreeError("no primitive for 0-forms")
    block = chart.coords_for(cls)
    table = form.coefficients.get(chart.name, {})
    d_form = exterior_derivative(
        DifferentialForm(form.atlas, form.degree, cls, {chart.name: table}), cls)
    if not d_form.is_zero():
        raise NotClosedError(f"form is not closed on chart {chart.name}")
    k = form.degree
    out = {}
    for idx, coeff in table.items():
        coeff = coeff.simplify()
        if not coeff.den.is_constant():
            raise UnsupportedPrimitiveError(
                "radial integration requires polynomial coefficients")
        poly = coeff.as_poly()
        for mono, scal in poly.coeffs().items():
            block_deg = sum(e for v, e in mono if v in block)
            weight = RationalExpr.const(scal) / (block_deg + k)
            base = PolyExpr({mono: ExactScalar(1)})
            for pos, coord in enumerate(idx):
                rest = idx[:pos] + idx[pos + 1:]
                sign = (-1) ** pos
                contrib = weight * base * PolyExpr.var(coord) * sign
                cur = out.get(rest, RationalExpr.zero())
                out[rest] = cur + contrib
    return DifferentialForm(form.atlas, k - 1, cls, {chart.name: out})


class IntegralityReport:
    def __init__(self, cls, integral, integer_lift=None, correction=None):
        self.cohomology_class = cls
        self.integral = integral
        self.integer_lift = integer_lift
        self.correction = correction

    def __repr__(self):
        return f"IntegralityReport(integral={self.integral})"


class CohomologyClass:
    def __init__(self, cover, degree, representative: Cochain, expansion):
        self.cover = cover
        self.degree = degree
        self.representative = representative
        self.expansion = tuple(expansion)  # coordinates over real generators

    def __repr__(self):
        return f"CohomologyClass(deg {self.degree}, expansion={list(self.expansion)})"


def class_of(cover: GoodCover, cochain: Cochain) -> CohomologyClass:
    """Expand a cocycle over the computed real generators (mod coboundaries)."""
    if not cech_delta(cochain).is_zero():
        raise MalformedExpressionError("representative is not a cocycle")
    desc = cohomology_compute(cover, cochain.degree, "real")
    gen_vecs = [g.vector() for g in desc.generators]
    n = len(cover.k_simplices(cochain.degree))
    cols = gen_vecs + _coboundary_columns(cover, cochain.degree)
    rows = [[cols[c][i] for c in range(len(cols))] for i in range(n)]
    (sol,) = solve_linear(rows, [cochain.vector()])
    if sol is None:
        raise MalformedExpressionError("cocycle not in span of generators + coboundaries")
    return CohomologyClass(cover, cochain.degree, cochain, sol[:len(gen_vecs)])


def derham_to_cech(omega: DifferentialForm, cover: GoodCover, primitives=None,
                   overlap_functions=None, branch_offsets=None) -> CohomologyClass:
    """Realize the leafwise class of a closed 2-form as a Cech 2-cocycle.

    primitives: {index: DifferentialForm} declared patch primitives (computed
    by radial homotopy when omitted and the patch chart is star-shaped with
    polynomial data).  overlap_functions: {(j,k): OverlapFunction} with
    d f_jk = eta_j - eta_k.  branch_offsets: {simplex: {(j,k): offset}}.
    """
    atlas = cover.atlas
    d_omega = exterior_derivative(omega)
    if not d_omega.is_zero():
        raise NotClosedError("input 2-form is not closed")
    primitives = dict(primitives or {})
    etas = {}
    for label in cover.index_set:
        chart_name = cover.chart_of((label,))
        if label in primitives:
            eta = primitives[label]
        else:
            chart = atlas.chart(chart_name)
            local = DifferentialForm(atlas, 2, omega.leafwise_class,
                                     {chart_name: omega.coefficients.get(chart_name, {})})
            eta = poincare_primitive(local, chart)
        d_eta = exterior_derivative(eta)
        diff = d_eta - _restrict_to_chart(omega, chart_name, atlas)
        if not diff.is_zero():
            raise MalformedExpressionError(
                f"declared primitive on patch {label} fails d eta = omega")
        etas[label] = eta
    overlap_functions = dict(overlap_functions or {})
    # verify the overlap functions
    for (j, k), f in overlap_functions.items():
        chart_name = f.chart
        eta_diff = form_on_chart(atlas, etas[j], chart_name) - \
            form_on_chart(atlas, etas[k], chart_name)
        mismatch = f.differential(cover) - eta_diff
        if not mismatch.is_zero():
            raise MalformedExpressionError(
                f"overlap function ({j},{k}) fails d f = eta_j - eta_k")
    values = {}
    for simplex in cover.k_simplices(2):
        j, k, l = simplex
        f_jk, f_kl, f_jl = (_get_overlap(overlap_functions, *pair)
                            for pair in ((j, k), (k, l), (j, l)))
        angle_total = f_jk.angle_coeff + f_kl.angle_coeff - f_jl.angle_coeff
        if not angle_total.is_zero():
            raise MalformedExpressionError(
                f"angle coefficients do not cancel on {simplex}")
        # rational parts must combine to a leafwise-constant function
        chart_name = cover.chart_of(simplex)
        # the angle parts enter through the offsets; an undeclared
        # overlap function has no chart and is zero everywhere
        jk, kl, jl = (to_chart(atlas, f.rational_part, f.chart or chart_name, chart_name)
                      for f in (f_jk, f_kl, f_jl))
        rot = jk + kl - jl
        chart = atlas.chart(chart_name)
        for coord in chart.coords_for(omega.leafwise_class):
            if not rot.derivative(coord).is_zero():
                raise MalformedExpressionError(
                    f"cocycle value on {simplex} is not leafwise constant")
        value = cocycle_value(cover, simplex, rot,
                              (f_jk.angle_coeff, f_kl.angle_coeff, f_jl.angle_coeff),
                              (branch_offsets or {}).get(simplex, {}))
        if value is None:
            raise MalformedExpressionError(f"sample point required for overlap {simplex}")
        values[simplex] = value
    cochain = Cochain(cover, 2, values)
    return class_of(cover, cochain)


def _get_overlap(functions, j, k):
    if (j, k) in functions:
        return functions[(j, k)]
    if (k, j) in functions:
        return functions[(k, j)].scaled(ExactScalar(-1))
    return OverlapFunction(chart=None, rational_part=0, angle_coeff=0)


def _restrict_to_chart(form, chart_name, atlas):
    return DifferentialForm(atlas, form.degree, form.leafwise_class,
                            {chart_name: form.coefficients.get(chart_name, {})})


def integrality_test(cls: CohomologyClass) -> IntegralityReport:
    """Membership of a degree-2 class in the integer lattice, by SNF."""
    if cls.degree != 2:
        raise MalformedExpressionError("integrality test is for degree-2 classes")
    cover = cls.cover
    a_vec = cls.representative.vector()
    if any(not v.is_real() for v in a_vec):
        raise MalformedExpressionError("integrality needs a real cocycle")
    d1 = delta_matrix(cover, 1)
    m = len(cover.k_simplices(2))
    if not d1:
        d1_int = [[0] * max(len(cover.k_simplices(1)), 1) for _ in range(m)]
    else:
        d1_int = [[_as_int(v) for v in row] for row in d1]
    u, s, v, r = smith_normal_form(d1_int)
    ua = matvec([[ExactScalar(x) for x in row] for row in u], a_vec)
    integral = all(ua[i].is_integer() for i in range(r, m))
    if not integral:
        return IntegralityReport(cls, False)
    # build the correction: kill fractional parts along the first r coordinates
    q_prime = []
    for i in range(min(r, len(cover.k_simplices(1)))):
        d_i = s[i][i]
        frac = ua[i] - ExactScalar(ua[i].num[0] // ua[i].den)
        q_prime.append((frac / ExactScalar(d_i)) if not frac.is_zero() else ZERO)
    n1 = len(cover.k_simplices(1))
    q_full = [ZERO] * n1
    for i, val in enumerate(q_prime):
        q_full[i] = val
    v_mat = [[ExactScalar(v[i][j]) for j in range(n1)] for i in range(n1)]
    q_vec = matvec(v_mat, q_full)
    correction = Cochain.from_vector(cover, 1, q_vec)
    lift = cls.representative - cech_delta(correction)
    if not lift.is_integer():
        raise MalformedExpressionError("internal error: lift is not integral")
    return IntegralityReport(cls, True, integer_lift=lift, correction=correction)


def construct_from_integral_class(omega: DifferentialForm, cover: GoodCover,
                                  primitives=None, overlap_functions=None,
                                  branch_offsets=None, name="constructed"):
    """Bundle with curvature omega from an integral leafwise class.

    Uses the zig-zag data; transitions are exp(-twopii f'_jk) for the
    integer-corrected overlap functions, unit metric weights, and the declared
    primitives as potentials.
    """
    cls = derham_to_cech(omega, cover, primitives=primitives,
                         overlap_functions=overlap_functions,
                         branch_offsets=branch_offsets)
    report = integrality_test(cls)
    if not report.integral:
        raise IntegralityError("class is not integral", report)
    correction = report.correction
    transitions = {}
    for simplex in cover.k_simplices(1):
        j, k = simplex
        f = (overlap_functions or {}).get((j, k))
        if f is None:
            f = OverlapFunction(cover.chart_of(simplex), 0, 0)
        corrected = OverlapFunction(
            f.chart,
            f.rational_part - RationalExpr.const(correction.value(simplex)),
            f.angle_coeff)
        transitions[(j, k)] = TransitionValue(
            f.chart, 1, corrected.scaled(ExactScalar(-1)))
    weights = {}
    pots = dict(primitives or {})
    for idx in cover.index_set:
        weights[idx] = RationalExpr.const(1)
        if idx not in pots:
            raise MalformedExpressionError("constructed bundles need declared primitives")
    # under f -> -f the per-pair offsets are unchanged: they scale with the
    # angle primitive, whose coefficient already flipped
    bundle = LineBundleData(name, cover, transitions, weights, pots,
                            branch_offsets=branch_offsets)
    result = validate_bundle(bundle)
    if not result.ok:
        raise MalformedExpressionError(f"constructed bundle fails validation: {result.failures}")
    return bundle
