"""Kahler polarization data, the holomorphic-section solver, exact inner
products on the projective-line fiber, induced representation matrices, and
the closed-form integrated representations of the catalog.

The polarization is reduced to one antiholomorphic frame field per chart;
solving nabla_vbar sigma = 0 over a finite monomial ansatz plus the frame
gluing constraint is exact linear algebra over the Gaussian rationals.
"""

from __future__ import annotations

import math

from .bundles import LineBundleData
from .errors import (
    MalformedExpressionError,
    UnsupportedFiberError,
    UnsupportedIntegrationError,
)
from .exprs import PolyExpr, RationalExpr, coerce_rational, TWO_PI_I
from .geometry import (LEAF_J, Frozen, VectorField, commutator, frozen, interior_product,
                       to_chart)
from .hamiltonian import ActionScenario
from .linalg import (conj_transpose, is_zero_matrix, kernel_basis, mat_mul, rref,
                     rref_kernel, solve_linear)
from .reports import CheckResult
from .scalars import ExactScalar, I, ZERO, from_ints


class ComplexStructureData(Frozen):
    """Fiberwise almost complex structure as a matrix on the fiber frame."""

    def __init__(self, atlas, matrices, positivity_samples=None):
        vars(self).update(atlas=atlas, positivity_samples=frozen(positivity_samples or ()),
                          matrices=frozen({ch: [[coerce_rational(v) for v in row] for row in mat]
                                           for ch, mat in matrices.items()}))

    def validate(self) -> CheckResult:
        failures = []
        for ch, mat in self.matrices.items():
            for i, row in enumerate(mat_mul(mat, mat)):
                for j, entry in enumerate(row):
                    if not (entry + (1 if i == j else 0)).is_zero():
                        failures.append((f"{ch}: j^2 != -1", f"entry {i},{j}"))
        # glue consistency: the fiber Jacobian intertwines the two matrices
        for (src, tgt), transition in self.atlas.transitions.items():
            if src not in self.matrices or tgt not in self.matrices:
                continue
            sf = self.atlas.chart(src).fiber_coords
            tf = self.atlas.chart(tgt).fiber_coords
            jac = transition.jacobian(tf, sf)
            j_src = self.matrices[src]
            j_tgt_pulled = [[transition.compose_into(v) for v in row]
                            for row in self.matrices[tgt]]
            lhs = mat_mul(jac, j_src)
            rhs = mat_mul(j_tgt_pulled, jac)
            for i in range(len(tf)):
                for j in range(len(sf)):
                    if not (lhs[i][j] - rhs[i][j]).is_zero():
                        failures.append((f"{src}->{tgt}: jacobian does not intertwine",
                                         f"entry {i},{j}"))
        return CheckResult(not failures, failures)

    def apply(self, field: VectorField) -> VectorField:
        """j(v) for a fiberwise field."""
        comps = {}
        for ch, mat in self.matrices.items():
            if ch not in field.components:
                continue
            fibers = self.atlas.chart(ch).fiber_coords
            vec = [field.component(ch, c) for c in fibers]
            out = {}
            for i, c in enumerate(fibers):
                total = RationalExpr.zero()
                for k in range(len(fibers)):
                    total = total + mat[i][k] * vec[k]
                out[c] = total
            comps[ch] = out
        return VectorField(field.atlas, LEAF_J, comps)

    def polarization_frames(self) -> dict:
        """-i eigenfield of j per chart (constant matrices)."""
        frames = {}
        for ch, mat in self.matrices.items():
            n = len(mat)
            rows = []
            for i in range(n):
                row = []
                for j in range(n):
                    entry = mat[i][j]
                    if not entry.is_constant():
                        raise MalformedExpressionError(
                            "declare polarization frames for non-constant structures")
                    row.append(entry.constant_value() + (I if i == j else ZERO))
                rows.append(row)
            kernel = kernel_basis(rows, n)
            if len(kernel) != n // 2:
                raise MalformedExpressionError(
                    f"polarization on chart {ch} has wrong rank")
            fibers = self.atlas.chart(ch).fiber_coords
            frames[ch] = [
                VectorField(self.atlas, LEAF_J,
                            {ch: {c: vec[i] for i, c in enumerate(fibers)}})
                for vec in kernel]
        return frames

    def positivity_check(self, omega) -> CheckResult:
        """omega(j v, v) > 0 at declared sample points (float evaluation); with
        none declared it fails, since it would pass having tested nothing."""
        failures = [] if self.positivity_samples else [("samples", "no sample point declared")]
        for sample in self.positivity_samples:
            ch, point = sample["chart"], sample["point"]
            fibers = self.atlas.chart(ch).fiber_coords
            for c in fibers:
                v = VectorField(self.atlas, LEAF_J, {ch: {c: 1}})
                jv = self.apply(v)
                value = omega.apply(jv, v).get(ch)
                if value is None:
                    continue
                num = value.numeric(point)
                if not (abs(num.imag) < 1e-9 and num.real > 1e-12):
                    failures.append((f"{ch}@{point}", f"omega(j d{c}, d{c}) = {num}"))
        return CheckResult(not failures, failures,
                           notes=["positivity sampled numerically at declared points"])


def polarization_equivariance_check(scenario: ActionScenario) -> CheckResult:
    """[alpha(X), j v] = j [alpha(X), v] on coordinate fiber frames, j the
    scenario's complex structure."""
    structure = scenario.structure
    failures = []
    for i in range(scenario.model.n):
        alpha = scenario.generator_field(i)
        for ch, chart in scenario.atlas.charts.items():
            if ch not in structure.matrices:
                continue
            for c in chart.fiber_coords:
                v = VectorField(scenario.atlas, LEAF_J, {ch: {c: 1}})
                lhs = commutator(alpha, structure.apply(v))
                rhs = structure.apply(commutator(alpha, v))
                diff = lhs - rhs
                bad = [(coord, val) for coord, val in
                       diff.components.get(ch, {}).items()
                       if not val.is_zero()]
                if bad:
                    failures.append((f"{scenario.model.generator_names[i]}@"
                                     f"{ch}:d{c}", str([(c0, str(v0)) for c0, v0 in bad])))
    return CheckResult(not failures, failures)


# ---------------------------------------------------------------------------
# holomorphic-section solver
# ---------------------------------------------------------------------------

class HolomorphicBasis(Frozen):
    """The holomorphic sections found at a degree cap, and `probe_dimension`,
    the dimension of the solution space at the solve's probe cap."""

    def __init__(self, bundle, elements, probe_dimension=None):
        vars(self).update(bundle=bundle, elements=frozen(elements),  # {patch: RationalExpr}s
                          probe_dimension=len(elements) if probe_dimension is None
                          else probe_dimension)

    @property
    def dimension(self):
        return len(self.elements)


def holomorphic_solve(bundle: LineBundleData, structure: ComplexStructureData,
                      holomorphic_coords, degree_cap, probe_cap=None) -> HolomorphicBasis:
    """Kernel of the polarized covariant derivative over the monomial ansatz:
    the powers of each patch chart's holomorphic coordinate up to
    `degree_cap`.  With a `probe_cap` above it, the powers up to the probe
    cap join the same system as trailing columns, and one elimination gives
    both the basis at `degree_cap` (the kernel of the leading columns) and
    the dimension at `probe_cap`.

    Every identity of the system is written over z, zbar of its chart's
    fiber (`_zz_map`).  The change of variables is linear and invertible, so
    each identity keeps its kernel, and `rref` reaches the reduced form it
    reaches over x, y; but on the projective line each power of a
    coordinate, moved or not, is one monomial, so the system has about one
    row per column.  A fiber that is not two coordinates raises
    `UnsupportedFiberError`."""
    probe_cap = degree_cap if probe_cap is None else probe_cap
    cover = bundle.cover
    atlas = cover.atlas
    patches = list(cover.index_set)
    to_zz = {p: _zz_map(*_fiber_pair(atlas, bundle.patch_chart(p))) for p in patches}
    frames = {ch: fs[0] for ch, fs in structure.polarization_frames().items()}
    coords = {p: holomorphic_coords[bundle.patch_chart(p)] for p in patches}
    # the columns up to the degree cap first, patch by patch, then the rest
    low = len(patches) * (degree_cap + 1)
    high = probe_cap - degree_cap
    column = {(p, a): i * (degree_cap + 1) + a if a <= degree_cap else
              low + i * high + a - degree_cap - 1
              for i, p in enumerate(patches) for a in range(probe_cap + 1)}
    total = len(column)
    rows = []
    # (1) polarized-derivative kernel per patch, from the derivation rule
    # D(h^a) = a h^(a-1) D0(h) + pot h^a, D0 the frame derivative
    polarized = {p: _polarized_derivative(bundle, frames, p) for p in patches}
    powers = {}
    for p in patches:
        frame_part, pot = polarized[p]
        h = coords[p]
        d0_h = frame_part(h).subst(to_zz[p])
        pot = pot.subst(to_zz[p])
        powers[p] = _powers(h.subst(to_zz[p]), probe_cap)
        rows.extend(_linear_rows(
            [(column[p, a], pot * h_a + (powers[p][a - 1] * d0_h * a if a else 0))
             for a, h_a in enumerate(powers[p])], total))
    # (2) frame gluing: f_j = c_jk (f_k o T) on every pair overlap
    for simplex in cover.k_simplices(1):
        j, k = simplex
        c = bundle.transition_value(j, k)
        if c.exponent is not None:
            raise MalformedExpressionError(
                "holomorphic solver supports rational transitions only")
        chart_j = bundle.patch_chart(j)
        chart_k = bundle.patch_chart(k)
        # to_chart is a ring map: move w once and multiply up its powers
        moved = to_chart(atlas, c.rational, c.chart, chart_j).subst(to_zz[j])
        w = to_chart(atlas, coords[k], chart_k, chart_j).subst(to_zz[j])
        glue_exprs = [(column[j, a], h_a) for a, h_a in enumerate(powers[j])]
        for b in range(probe_cap + 1):
            glue_exprs.append((column[k, b], -moved))
            moved = moved * w
        rows.extend(_linear_rows(glue_exprs, total))
    red, pivots = rref(rows)
    candidates = {p: _powers(coords[p], degree_cap) for p in patches}
    elements = []
    for vec in rref_kernel(red, pivots, low):
        element = {}
        for p in patches:
            expr = RationalExpr.zero()
            for a, f in enumerate(candidates[p]):
                coeff = vec[column[p, a]]
                if not coeff.is_zero():
                    expr = expr + f * coeff
            element[p] = expr.simplify()
        elements.append(element)
    # deterministic order: by degree of the first-patch coefficient
    p0 = patches[0]
    elements.sort(key=lambda e: (e[p0].num.total_degree(), str(e[p0])))
    for element in elements:
        for p, f in element.items():
            frame_part, pot = polarized[p]
            if not (frame_part(f) + pot * f).is_zero():
                raise MalformedExpressionError("solver returned a non-polarized section")
    return HolomorphicBasis(bundle, elements, total - len(pivots))


def _powers(base: RationalExpr, top: int) -> list:
    """[base^0, base^1, ..., base^top], each by one product."""
    out = [RationalExpr.const(1)]
    for _ in range(top):
        out.append(out[-1] * base)
    return out


def _polarized_derivative(bundle, frames, p):
    """(D0, pot) in patch p: nabla_frame (f s_p) / s_p = D0(f) + pot f, with
    D0 the frame derivative and pot the potential along the frame."""
    chart = bundle.patch_chart(p)
    frame = frames[chart]
    contraction = interior_product(frame, bundle.potential(p))
    pot = contraction.coefficient(chart, ()) * RationalExpr.var(TWO_PI_I)
    return (lambda f: frame.derive(f, chart)), pot


def _linear_rows(indexed, total):
    """Rows for sum lambda_pos expr = 0 over the (pos, expr) pairs: one row
    per monomial of the numerators over a common multiple of the
    denominators.  Any common multiple gives the same row space, so nothing
    is cancelled: `rref` reaches the same reduced form and pivots."""
    pairs = [(pos, coerce_rational(expr)) for pos, expr in indexed]
    # a monic constant denominator is 1, which divides every multiple
    den = PolyExpr.const(1)
    for _, expr in pairs:
        d = expr.den
        if d.is_constant() or den.exact_div(d) is not None:
            continue
        den = d if den.is_constant() or d.exact_div(den) is not None else den * d
    monomial_rows = {}
    for pos, expr in pairs:
        d = expr.den
        scaled = expr.num * (den if d.is_constant() else den.exact_div(d))
        scale = scaled.den
        for mono, (re, im) in scaled.terms.items():
            row = monomial_rows.setdefault(mono, [ZERO] * total)
            row[pos] = row[pos] + from_ints(re, im, scale)
    return list(monomial_rows.values())


# ---------------------------------------------------------------------------
# exact inner products on the projective-line fiber
# ---------------------------------------------------------------------------

def fs_monomial_integral(m, n, weight_power) -> ExactScalar:
    """(1/pi) int z^m zbar^n (1+r^2)^(-weight_power) dx dy, z = x - i y.

    |z^m zbar^n| grows like r^(m+n), so the integral converges exactly when
    m + n + 2 < 2 weight_power; off the diagonal the angle integrates to 0."""
    if m + n + 2 >= 2 * weight_power:
        raise UnsupportedFiberError("integral diverges: weight power too small")
    if m != n:
        return ZERO
    num = math.factorial(m) * math.factorial(weight_power - m - 2)
    den = math.factorial(weight_power - 1)
    return from_ints(num, 0, den)


def _fiber_pair(atlas, chart):
    """The two fiber coordinates of `chart`; any other fiber raises."""
    coords = atlas.chart(chart).fiber_coords
    if len(coords) != 2:
        raise UnsupportedFiberError(f"chart {chart}: the exact solver and inner products "
                                    "need a 2-dimensional fiber")
    return coords


def _zz_map(x_name, y_name) -> dict:
    """x = (z + zbar)/2, y = i(z - zbar)/2: the inverse of z = x - iy,
    zbar = x + iy, as a substitution into the variables __z and __zb.  It is
    linear and invertible, so an identity in x, y holds exactly when its
    image holds."""
    z, zb = PolyExpr.var("__z"), PolyExpr.var("__zb")
    half = from_ints(1, 0, 2)
    return {x_name: RationalExpr((z + zb) * PolyExpr.const(half)),
            y_name: RationalExpr((z - zb) * PolyExpr.const(half * I))}


def _zz_decompose(poly: PolyExpr, x_name, y_name):
    """Rewrite a polynomial in x, y as {(m, n): coeff} over z^m zbar^n."""
    moved = poly.subst(_zz_map(x_name, y_name))
    if not moved.den.is_constant():
        raise MalformedExpressionError("unexpected denominator in decomposition")
    moved_poly = moved.as_poly()
    out = {}
    for mono, coeff in moved_poly.coeffs().items():
        d = dict(mono)
        m = d.pop("__z", 0)
        n = d.pop("__zb", 0)
        if d:
            raise MalformedExpressionError("leftover variables in decomposition")
        out[(m, n)] = out.get((m, n), ZERO) + coeff
    return out


class _FiberTerms:
    """sum c z^m zbar^n / q^power, with `terms` = {(m, n): c}, z = x - iy
    and q = 1 + x^2 + y^2: one factor of an integrand on the fiber."""

    __slots__ = ("terms", "power")

    def __init__(self, terms, power):
        self.terms = terms
        self.power = power


def _fiber_terms(expr: RationalExpr, x_name, y_name) -> _FiberTerms:
    """`expr` as a `_FiberTerms`.  Powers of q are stripped from the
    denominator as they stand: a numerator that q divides integrates to the
    same value, and converges exactly when the cancelled one does, so a gcd
    runs only when a factor other than q is left."""
    q = _one_plus_r2(x_name, y_name)
    den, power = _strip_powers(expr.den, q)
    if not den.is_constant():
        expr = expr.simplify()
        den, power = _strip_powers(expr.den, q)
        if not den.is_constant():
            raise UnsupportedFiberError("denominator is not a power of 1 + r^2")
    # den is monic, so the constant left is 1
    return _FiberTerms(_zz_decompose(expr.num, x_name, y_name), power)


def _fs_pairing(left: _FiberTerms, right: _FiberTerms) -> ExactScalar:
    """Fubini-Study integral of the product of two factors.  Every pair of
    terms is integrated, so a divergent pair raises: the top-degree part of
    the product is the nonzero product of theirs, so one diverges exactly
    when the product has a divergent term."""
    weight_power = left.power + right.power + 2
    total = ZERO
    for (m1, n1), c1 in left.terms.items():
        for (m2, n2), c2 in right.terms.items():
            value = fs_monomial_integral(m1 + m2, n1 + n2, weight_power)
            if not value.is_zero():
                total = total + c1 * c2 * value
    return total


def _one_plus_r2(x_name, y_name) -> PolyExpr:
    return PolyExpr.var(x_name, 2) + PolyExpr.var(y_name, 2) + PolyExpr.const(1)


def _strip_powers(den: PolyExpr, q: PolyExpr):
    """(den / q^N, N) for the largest N with q^N dividing `den`."""
    n_pow = 0
    while not den.is_constant():
        divided = den.exact_div(q)
        if divided is None:
            break
        den = divided
        n_pow += 1
    return den, n_pow


def inner_product(bundle, elem1, elem2):
    """Hermitian pairing <sigma1, sigma2>: conj(sigma1) sigma2 h integrated
    exactly over the fiber on the first patch, h the bundle's weight.

    Covers the projective-line model (rational data over the two-chart
    atlas); any other fiber raises `UnsupportedFiberError`.  The two
    arguments may also be the factors conj(sigma1) h and sigma2 as
    `_fiber_factors` writes them, which is how `gram_matrix` passes its
    basis.
    """
    if not isinstance(elem1, _FiberTerms):
        (elem1, _), (_, elem2) = _fiber_factors(bundle, [elem1, elem2])
    return _fs_pairing(elem1, elem2)


def _fiber_factors(bundle, elements):
    """(conj(e) h, e) as `_FiberTerms` for each element on the first patch,
    from one z, zbar decomposition of e: the conjugate of
    sum c z^m zbar^n is sum conj(c) z^n zbar^m.  The weight h is written
    once and multiplied in term by term, since the substitution x, y ->
    z, zbar is a ring map."""
    patch = bundle.cover.index_set[0]
    coords = _fiber_pair(bundle.cover.atlas, bundle.patch_chart(patch))
    weight = _fiber_terms(bundle.weight(patch), *coords)
    factors = []
    for element in elements:
        right = _fiber_terms(coerce_rational(element[patch]), *coords)
        left = {}
        for (m, n), c in right.terms.items():
            for (mw, nw), cw in weight.terms.items():
                key = (n + mw, m + nw)
                left[key] = left.get(key, ZERO) + c.conj() * cw
        left = {key: c for key, c in left.items() if not c.is_zero()}
        factors.append((_FiberTerms(left, right.power + weight.power), right))
    return factors


def gram_matrix(basis: HolomorphicBasis):
    """Gram matrix of `basis` in the metric of its bundle.  Only the upper
    triangle is integrated: the integrand conj(f) g h has a real weight h (a
    verdict of the `bundle-data` row), so entry (j, i) is the conjugate of
    entry (i, j).  Each element is written over z, zbar once
    (`_fiber_factors`), so the fiber must be the projective line, and each
    entry pairs two such factors."""
    bundle, elements = basis.bundle, basis.elements
    n = len(elements)
    factors = _fiber_factors(bundle, elements)
    gram = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            gram[i][j] = inner_product(bundle, factors[i][0], factors[j][1])
            if j > i:
                gram[j][i] = gram[i][j].conj()
    return gram


def leading_minors_positive(gram) -> bool:
    """Every leading principal minor is positive.  Elimination without row
    exchanges keeps the leading minors, so the k-th one is the product of the
    first k pivots: all are positive exactly when every pivot is, and a zero
    pivot is a zero minor."""
    rows = [list(row) for row in gram]
    for k, pivot_row in enumerate(rows):
        pivot = pivot_row[k]
        if not pivot.is_positive():
            return False
        inv = pivot.inverse()
        for i in range(k + 1, len(rows)):
            factor = rows[i][k] * inv
            if not factor.is_zero():
                rows[i] = [a - factor * b for a, b in zip(rows[i], pivot_row)]
    return True


# ---------------------------------------------------------------------------
# the induced representation on the solution space
# ---------------------------------------------------------------------------

class QuantizationResult(Frozen):
    def __init__(self, basis, gram, matrices):
        vars(self).update(basis=basis, gram=frozen(gram), matrices=frozen(matrices))

    @property
    def dimension(self):
        return self.basis.dimension


def induced_representation(scenario: ActionScenario) -> QuantizationResult:
    """Matrices of the scenario's `operators` in its holomorphic `basis`: one
    elimination per operator on the first patch, then the identity
    image = sum_i M[i][e] basis_i, checked exactly on every other patch."""
    basis = scenario.basis
    elements = basis.elements
    p0, *others = scenario.bundle.cover.index_set
    matrices = []
    for op in scenario.operators:
        mat = _expand_in_basis([op.apply(p0, e[p0]) for e in elements],
                               [e[p0] for e in elements])
        for p in others:
            for e, element in enumerate(elements):
                image = op.apply(p, element[p])
                for i, other in enumerate(elements):
                    image = image - mat[i][e] * other[p]
                if not image.is_zero():
                    raise MalformedExpressionError(
                        "representation matrices differ between patches")
        matrices.append(mat)
    return QuantizationResult(basis, gram_matrix(basis), matrices)


def _expand_in_basis(images, basis_exprs):
    """M with images[e] = sum_i M[i][e] basis_exprs[i], entries polynomial in
    twopii.  Basis elements must be free of twopii; images may carry it
    (momentum potentials do), so the columns are basis_i twopii^d up to the
    images' twopii degree, and every image is a right-hand side of the one
    system."""
    if any(TWO_PI_I in coerce_rational(b).variables() for b in basis_exprs):
        raise MalformedExpressionError("basis elements must not carry twopii")
    images = [coerce_rational(f) for f in images]
    top = max((e for f in images for mono in f.num.coeffs() for v, e in mono
               if v == TWO_PI_I), default=0)
    token = RationalExpr.var(TWO_PI_I)
    columns = [b * token ** d for d in range(top + 1) for b in basis_exprs]
    width = len(columns)
    rows = _linear_rows(enumerate(columns + images), width + len(images))
    solutions = solve_linear([row[:width] for row in rows],
                             [[row[width + e] for row in rows] for e in range(len(images))])
    if any(sol is None for sol in solutions):
        raise MalformedExpressionError("operator image leaves the holomorphic solution space")
    n = len(basis_exprs)
    return [[sum((token ** d * sol[d * n + i] for d in range(top + 1)), RationalExpr.zero())
             for sol in solutions] for i in range(n)]


def commutation_check(scenario: ActionScenario) -> CheckResult:
    """[M_i, M_j] equals the matrix of the bracket section in the `representation`, exactly."""
    model, result = scenario.model, scenario.representation
    failures = []
    for i in range(model.n):
        for j in range(i + 1, model.n):
            bracket = model.generator_bracket(i, j)
            # [M_i, M_j] = M_i M_j - M_j M_i, so M_i M_j is expected to be
            # M_j M_i plus the bracket's combination of the matrices
            expected = mat_mul(result.matrices[j], result.matrices[i])
            for k, coeff in enumerate(bracket):
                if coeff.is_zero():
                    continue
                if not coeff.is_constant():
                    raise MalformedExpressionError(
                        "commutation check needs constant structure functions")
                expected = [[e + coeff * m for e, m in zip(row, mat_row)]
                            for row, mat_row in zip(expected, result.matrices[k])]
            if not is_zero_matrix(mat_mul(result.matrices[i], result.matrices[j]),
                                  minus=expected):
                failures.append((f"{model.generator_names[i]},{model.generator_names[j]}",
                                 "commutator mismatch"))
    return CheckResult(not failures, failures)


def unitarity_check(scenario: ActionScenario) -> CheckResult:
    """M^dagger G + G M = 0 for every matrix of the `representation` (conj flips twopii)."""
    result = scenario.representation
    failures = []
    g = result.gram
    minus_g = [[-v for v in row] for row in g]
    for idx, m in enumerate(result.matrices):
        if not is_zero_matrix(mat_mul(conj_transpose(m), g), minus=mat_mul(minus_g, m)):
            failures.append((scenario.model.generator_names[idx], "M*G + GM != 0"))
    return CheckResult(not failures, failures)


# ---------------------------------------------------------------------------
# closed-form integrations: one rule per `ActionScenario.integration` kind
# ---------------------------------------------------------------------------

def integrate_representation(scenario: ActionScenario):
    """The `integrated-representation` record: the `INTEGRATIONS` rule of the
    scenario's kind returns the details, or a failed `CheckResult`."""
    rule = INTEGRATIONS.get(scenario.integration)
    if rule is None:
        raise UnsupportedIntegrationError(
            f"scenario {scenario.name} has no closed-form integration")
    return rule({"kind": scenario.integration}, scenario)


def _u1_weights(record, scenario):
    result = scenario.representation
    mat = result.matrices[0]
    weights = []
    for a in range(result.dimension):
        for b in range(result.dimension):
            if a != b and not coerce_rational(mat[a][b]).is_zero():
                raise UnsupportedIntegrationError("generator matrix is not diagonal")
        # eigenvalue -i w: the circle element at angle t acts by exp(i w t)
        weights.append(str((coerce_rational(mat[a][a]).simplify() * I).constant_value()))
    return dict(record, description="circle action by phases exp(i w t) on the monomial basis",
                weights=weights)


def _s1_plane(record, scenario):
    (f,) = scenario.momentum.pairing(0).values()  # the one-chart plane function
    cb, sb = RationalExpr.var("cb"), RationalExpr.var("sb")
    rotated = f.subst({"x": cb * RationalExpr.var("x") - sb * RationalExpr.var("y"),
                       "y": sb * RationalExpr.var("x") + cb * RationalExpr.var("y")})
    return dict(record,
                description="(beta,(r,alpha)) -> ((r,alpha+beta), phase exp(twopii "
                            "(f(r,alpha+beta)-f(r,alpha))), (r,alpha))",
                phase_exponent=str(_reduce_rotation(rotated - f)))


def _sphere_family(record, scenario):
    """Continuity at the poles: the probe decreases to at most 1e-6."""
    probe = sphere_family_probe(scenario.level, [10.0 ** (-n) for n in range(8, 24, 4)])
    record = dict(record,
                  description="(x, arc s) -> exp(twopii mu(x) s) with mu = level on the "
                              "open interval, 0 at the poles",
                  endpoint_probe=[f"{p:.3e}" for p in probe])
    if probe[-1] > 1e-6 or not all(a >= b for a, b in zip(probe, probe[1:])):
        return CheckResult(False, [("continuity", str(record))])
    return record


INTEGRATIONS = {"u1-weights": _u1_weights, "s1-plane": _s1_plane,
                "sphere-family": _sphere_family}


def _reduce_rotation(expr: RationalExpr) -> RationalExpr:
    """Reduce modulo cb^2 + sb^2 = 1 (rotation tokens), eliminating sb powers."""
    expr = expr.simplify()
    if not expr.den.is_constant():
        raise UnsupportedIntegrationError("rotation reduction expects polynomials")
    poly = expr.as_poly()
    changed = True
    while changed:
        changed = False
        out = PolyExpr()
        for mono, coeff in poly.coeffs().items():
            d = dict(mono)
            s_pow = d.get("sb", 0)
            if s_pow >= 2:
                d["sb"] = s_pow - 2
                if d["sb"] == 0:
                    del d["sb"]
                rest = PolyExpr({tuple(sorted(d.items())): coeff})
                one_minus = PolyExpr.const(1) - PolyExpr.var("cb", 2)
                out = out + rest * one_minus
                changed = True
            else:
                out = out + PolyExpr({mono: coeff})
        poly = out
    return RationalExpr(poly).simplify()


def sphere_family_probe(level, deltas):
    """Max |phase - 1| over the shrinking fiber, at distance delta from a pole.

    The grid is given as distances 1 - |x| so points far closer to the poles
    than float spacing around 1.0 remain representable; the circumference is
    2 pi sqrt(delta (2 - delta)).
    """
    out = []
    for delta in deltas:
        circumference = 2 * math.pi * math.sqrt(delta * (2 - delta))
        worst = 0.0
        steps = 64
        for s_idx in range(steps + 1):
            s = circumference * s_idx / steps
            phase = complex(math.cos(2 * math.pi * level * s),
                            math.sin(2 * math.pi * level * s))
            worst = max(worst, abs(phase - 1))
        out.append(worst)
    return out
