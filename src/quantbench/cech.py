"""Longitudinal Cech complex on finite good covers: exact cohomology, the
de Rham -> Cech zig-zag, and integrality of degree-2 classes.

Every nonempty intersection of a good cover is contractible, hence connected,
so a cochain, a sample point and a branch offset are keyed by the simplex
alone.  The zig-zag's f_jk are stored as a rational part plus an exact
multiple of a declared angle primitive (a closed 1-form with unit monodromy);
branch offsets per triple overlap are scenario declarations, so every cocycle
value is evaluated exactly.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    MalformedExpressionError,
    NotClosedError,
    OverlapMismatchError,
)
from .exprs import coerce_rational
from .geometry import (
    DifferentialForm,
    FiberedAtlas,
    exterior_derivative,
    form_on_chart,
    poincare_primitive,
    to_chart,
)
from .linalg import (
    column_space_completion,
    integer_kernel_basis,
    inverse,
    kernel_basis,
    matvec,
    smith_normal_form,
    solve_linear,
)
from .scalars import ExactScalar, ZERO


class GoodCover:
    """Finite good cover with declared nerve and chart references."""

    def __init__(self, atlas: FiberedAtlas, index_set, simplices, chart_refs=None,
                 sample_points=None, angle_forms=None):
        self.atlas = atlas
        self.index_set = tuple(index_set)
        pos = {label: i for i, label in enumerate(self.index_set)}
        simps = set()
        for s in simplices:
            s = tuple(sorted(s, key=pos.__getitem__))
            if len(set(s)) != len(s):
                raise MalformedExpressionError(f"repeated index in simplex {s}")
            simps.add(s)
        for label in self.index_set:
            simps.add((label,))
        # downward closure check
        for s in simps:
            for drop in range(len(s)):
                face = s[:drop] + s[drop + 1:]
                if face and face not in simps:
                    raise MalformedExpressionError(
                        f"cover simplices not downward closed: missing {face}")
        self.simplices = simps
        self.position = pos
        self.chart_refs = dict(chart_refs or {})
        self.sample_points = dict(sample_points or {})
        # chart-local closed 1-forms with unit monodromy (angle primitives)
        self.angle_forms = dict(angle_forms or {})

    def k_simplices(self, k):
        """The k-simplices in index order: the basis of C^k."""
        return sorted((s for s in self.simplices if len(s) == k + 1),
                      key=lambda s: tuple(self.position[i] for i in s))

    def chart_of(self, simplex):
        if simplex in self.chart_refs:
            return self.chart_refs[simplex]
        if len(self.chart_refs) == 0 and len(self.atlas.charts) == 1:
            return next(iter(self.atlas.charts))
        raise OverlapMismatchError(f"no chart reference for overlap {simplex}")


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

    def __mul__(self, scalar):
        scalar = ExactScalar.coerce(scalar)
        return Cochain(self.cover, self.degree,
                       {k: v * scalar for k, v in self.values.items()})

    __rmul__ = __mul__

    def is_zero(self):
        return all(v.is_zero() for v in self.values.values())

    def is_integer(self):
        return all(v.is_integer() for v in self.values.values())

    def is_real(self):
        return all(v.is_real() for v in self.values.values())

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
    return int(v.re)


def _int_inverse(u):
    inv = inverse([[ExactScalar(v) for v in row] for row in u])
    if inv is None:
        raise MalformedExpressionError("matrix not invertible")
    return [[_as_int(v) for v in row] for row in inv]


# ---------------------------------------------------------------------------
# overlap functions with angle bookkeeping
# ---------------------------------------------------------------------------

class OverlapFunction:
    """f = rational_part + angle_coeff * (declared angle primitive + branch)."""

    def __init__(self, chart, rational_part=0, angle_coeff=0):
        self.chart = chart
        self.rational_part = coerce_rational(rational_part)
        self.angle_coeff = ExactScalar.coerce(angle_coeff)

    def scaled(self, factor):
        factor = ExactScalar.coerce(factor)
        return OverlapFunction(self.chart, self.rational_part * factor,
                               self.angle_coeff * factor)

    def differential(self, cover: GoodCover) -> DifferentialForm:
        atlas = cover.atlas
        chart = atlas.chart(self.chart)
        table = {}
        for coord in chart.coords:
            partial = self.rational_part.derivative(coord)
            if not partial.is_zero():
                table[(coord,)] = partial
        base = DifferentialForm(atlas, 1, "full", {self.chart: table})
        if not self.angle_coeff.is_zero():
            angle = cover.angle_forms.get(self.chart)
            if angle is None:
                raise MalformedExpressionError(
                    f"chart {self.chart} declares no angle primitive")
            base = base + angle * self.angle_coeff
        return base


class IntegralityReport:
    def __init__(self, cls, integral, integer_lift=None, correction=None):
        self.cohomology_class = cls
        self.integral = integral
        self.integer_lift = integer_lift
        self.correction = correction

    def __bool__(self):
        return self.integral

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


def cocycle_value(cover: GoodCover, simplex, rational, angle_coeffs, offsets):
    """Value on the triple overlap (j, k, l) of f_jk + f_kl - f_jl, from the
    combination's `rational` part and the angle coefficients
    (a_jk, a_kl, a_jl) of the three functions: the rational part, a constant
    or taken at the simplex's sample point, plus the branch offsets
    a_jk o_jk + a_kl o_kl - a_jl o_jl.  None when the rational part is not
    constant and the simplex declares no sample point."""
    j, k, l = simplex
    a_jk, a_kl, a_jl = angle_coeffs
    offset = (a_jk * ExactScalar.coerce(offsets.get((j, k), 0))
              + a_kl * ExactScalar.coerce(offsets.get((k, l), 0))
              - a_jl * ExactScalar.coerce(offsets.get((j, l), 0)))
    if rational.is_constant():
        return rational.constant_value() + offset
    sample = cover.sample_points.get(simplex)
    return None if sample is None else rational.evaluate(sample) + offset


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
        frac = ua[i] - ExactScalar(Fraction(int(ua[i].re // 1)))
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
