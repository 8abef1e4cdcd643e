"""Gauge scenarios: a principal-bundle connection over a star-shaped base
twists a Hamiltonian fiber into a scenario for the transitive algebroid of
pairs (base field, structure-algebra function).

Conventions (recorded in reports): sections are pairs (w, xi) with bracket
([w1,w2], w1.xi2 - w2.xi1 + [xi1,xi2]) and action w + beta(xi); the connection
functional is tau(w, xi) = xi + A(w) for the declared potential A, and the
curvature components are F_12 = -d1 A2 + d2 A1 + [A1, A2].
"""

from __future__ import annotations

from itertools import combinations

from .bundles import LineBundleData
from .cech import GoodCover
from .errors import MalformedExpressionError
from .exprs import RationalExpr, coerce_rational
from .geometry import (
    Chart,
    DifferentialForm,
    FiberedAtlas,
    Frozen,
    LEAF_J,
    LEAF_JTILDE,
    Transition,
    VectorField,
    _field_sum,
    interior_product,
)
from .hamiltonian import (
    ActionScenario,
    MomentumMapRep,
    PresymplecticData,
    pairing_combination,
    _fn_add,
    _fn_scale,
    _pair_failures,
)
from .liealg import ActionMap, AlgebroidModel
from .linalg import is_zero_matrix
from .quantize import ComplexStructureData
from .reports import CheckResult
from .scalars import ONE, ZERO


class PrincipalBundleData(Frozen):
    """Trivialized principal bundle: star-shaped base chart plus a polynomial
    connection potential A with values in the structure algebra."""

    def __init__(self, base_atlas: FiberedAtlas, algebra: AlgebroidModel, potential):
        if len(base_atlas.charts) != 1:
            raise MalformedExpressionError("catalog principal bundles are single-chart")
        base_chart = next(iter(base_atlas.charts.values()))
        if not base_chart.star_shaped:
            raise MalformedExpressionError("base chart must be star-shaped")
        potential = tuple(tuple(coerce_rational(c) for c in vec) for vec in potential)
        if len(potential) != len(base_chart.coords):
            raise MalformedExpressionError("one potential component per base coordinate")
        for vec in potential:
            if len(vec) != algebra.n:
                raise MalformedExpressionError("potential components live in the algebra")
        vars(self).update(base_atlas=base_atlas, base_chart=base_chart, algebra=algebra,
                          potential=potential)

    def _bracket(self, u, v):
        return self.algebra.bracket(self.algebra.section(u), self.algebra.section(v)).coeffs

    def curvature_components(self):
        """F for each base coordinate pair (i < j), as algebra coefficient vectors."""
        coords = self.base_chart.coords
        out = {}
        for i in range(len(coords)):
            for j in range(i + 1, len(coords)):
                d_i_aj = [c.derivative(coords[i]) for c in self.potential[j]]
                d_j_ai = [c.derivative(coords[j]) for c in self.potential[i]]
                comm = self._bracket(self.potential[i], self.potential[j])
                out[(i, j)] = tuple(-a + b + c for a, b, c in zip(d_i_aj, d_j_ai, comm))
        return out

    def is_flat(self) -> bool:
        return all(all(c.is_zero() for c in vec)
                   for vec in self.curvature_components().values())


class GaugeScenario(Frozen):
    """The construction behind a gauge scenario, kept at `scenario.gauge`: the
    principal-bundle data and the fiber `ActionScenario` it twists."""

    def __init__(self, bundle_data: PrincipalBundleData, fiber: ActionScenario):
        vars(self).update(bundle_data=bundle_data, fiber=fiber)

    def tau(self, index):
        """Connection functional on the generator: algebra coefficient vector."""
        n_base = len(self.bundle_data.base_chart.coords)
        dim = self.bundle_data.algebra.n
        if index < n_base:
            return self.bundle_data.potential[index]
        return tuple(ONE if a == index - n_base else ZERO for a in range(dim))


def _product_atlas(base_chart: Chart, fiber_atlas: FiberedAtlas) -> FiberedAtlas:
    charts = []
    for fc in fiber_atlas.charts.values():
        charts.append(Chart(fc.name, base_coords=base_chart.coords,
                            fiber_coords=fc.fiber_coords,
                            orbit_coords=base_chart.coords,
                            star_shaped=fc.star_shaped and base_chart.star_shaped))
    transitions = []
    for (src, tgt), t in fiber_atlas.transitions.items():
        exprs = t.exprs | {b: RationalExpr.var(b) for b in base_chart.coords}
        transitions.append(Transition(src, tgt, exprs, overlap=t.overlap))
    return FiberedAtlas(charts, transitions, leaf_structure="transitive")


def build_gauge_scenario(bundle_data: PrincipalBundleData, fiber: ActionScenario,
                         name="gauge") -> ActionScenario:
    """Twist the Hamiltonian `fiber` over the base of `bundle_data`: the
    twisted 2-form, momentum pairings, bundle and structure, with the fiber's
    level, degeneracy and monomial ansatz."""
    base_chart = bundle_data.base_chart
    base_coords = base_chart.coords
    algebra = bundle_data.algebra
    dim = algebra.n
    atlas = _product_atlas(base_chart, fiber.atlas)
    fields = [VectorField(atlas, LEAF_JTILDE, v.components) for v in fiber.action.fields]
    omega_fiber = DifferentialForm(atlas, 2, LEAF_J, fiber.presymplectic.omega.coefficients)

    # gauge algebroid model over the base
    names = tuple(f"d{b}" for b in base_coords) + algebra.generator_names
    n_base = len(base_coords)
    bracket_table = {(n_base + a, n_base + b): (ZERO,) * n_base + vec
                     for (a, b), vec in algebra.bracket_table.items()}
    anchor_fields = []
    for i, bc in enumerate(base_coords):
        anchor_fields.append(VectorField(bundle_data.base_atlas, "full",
                                         {base_chart.name: {bc: 1}}))
    anchor_fields.extend([None] * dim)
    model = AlgebroidModel(f"{name}-algebroid", "gauge", bundle_data.base_atlas,
                           names, bracket_table, anchor_fields,
                           isotropy_indices=tuple(range(n_base, n_base + dim)),
                           gauge_base_count=n_base)

    action_fields = []
    for i, bc in enumerate(base_coords):
        action_fields.append(VectorField(
            atlas, LEAF_JTILDE, {ch: {bc: 1} for ch in atlas.charts}))
    action_fields.extend(fields)
    action = ActionMap(model, atlas, action_fields, name=f"{name}-action")

    # beta(A_i) and the pairing <mu, A_i> chart by chart
    def mu_pair(vec):
        return pairing_combination(atlas, fiber.momentum.pairings, vec)

    beta_a = [_field_sum(atlas, LEAF_J, ((coerce_rational(c), f) for c, f in
                                         zip(bundle_data.potential[i], fields)))
              for i in range(n_base)]

    omega_tables = {ch: dict(omega_fiber.coefficients.get(ch, {}))
                    for ch in atlas.charts}
    for i, bc in enumerate(base_coords):
        theta = interior_product(beta_a[i], omega_fiber)
        for ch in atlas.charts:
            for (fc,), val in theta.coefficients.get(ch, {}).items():
                key = (bc, fc)
                cur = omega_tables[ch].get(key, RationalExpr.zero())
                omega_tables[ch][key] = cur + val
    for i, j in combinations(range(n_base), 2):  # d<mu, A> along the base
        bi, bj = base_coords[i], base_coords[j]
        grad = [aj.derivative(bi) - ai.derivative(bj)
                for ai, aj in zip(bundle_data.potential[i], bundle_data.potential[j])]
        c_fn = mu_pair(grad)
        for ch in atlas.charts:
            cur = omega_tables[ch].get((bi, bj), RationalExpr.zero())
            omega_tables[ch][(bi, bj)] = cur + c_fn[ch]
    omega_tilde = DifferentialForm(atlas, 2, LEAF_JTILDE, omega_tables)

    pairings = [mu_pair(bundle_data.potential[i]) for i in range(n_base)]
    for a in range(dim):
        unit = [ONE if b == a else ZERO for b in range(dim)]
        pairings.append(mu_pair(unit))
    momentum = MomentumMapRep(model, pairings)

    sample_points = []
    for ch in atlas.charts.values():
        if ch.fiber_coords:
            point = {c: 0.25 + 0.1 * i for i, c in enumerate(ch.fiber_coords)}
            point.update({b: 0.0 for b in base_coords})
            sample_points.append({"chart": ch.name, "point": point})
    presymplectic = PresymplecticData(atlas, omega_tilde, sample_points)
    quantization = {}
    if fiber.bundle is not None:  # the fiber's quantization inputs, twisted over the base
        quantization = dict(
            bundle=_twisted_bundle(fiber.bundle, atlas, base_coords, pairings[:n_base], name),
            structure=ComplexStructureData(atlas, fiber.structure.matrices,
                                           positivity_samples=sample_points),
            holomorphic_coords=fiber.holomorphic_coords, ansatz_cap=fiber.ansatz_cap)
    return ActionScenario(name, model, action, presymplectic, momentum,
                          level=fiber.level, degenerate=fiber.degenerate,
                          gauge=GaugeScenario(bundle_data, fiber), **quantization)


def _twisted_bundle(fiber_bundle: LineBundleData, atlas, base_coords,
                    base_pairings, name) -> LineBundleData:
    """Fiber bundle data extended by the <mu, A_i> db_i connection terms."""
    cover = GoodCover(atlas, fiber_bundle.cover.index_set,
                      [s for s in fiber_bundle.cover.simplices if len(s) > 1],
                      chart_refs=fiber_bundle.cover.chart_refs,
                      sample_points=fiber_bundle.cover.sample_points, angle_forms={})
    potentials = {}
    for idx in fiber_bundle.cover.index_set:
        chart = fiber_bundle.patch_chart(idx)
        eta = fiber_bundle.potential(idx)
        table = dict(eta.coefficients.get(chart, {}))
        for i, bc in enumerate(base_coords):
            val = base_pairings[i].get(chart, RationalExpr.zero())
            if not val.is_zero():
                table[(bc,)] = table.get((bc,), RationalExpr.zero()) + val
        potentials[idx] = DifferentialForm(atlas, 1, LEAF_JTILDE, {chart: table})
    return LineBundleData(f"{name}-bundle", cover, fiber_bundle.transitions,
                          fiber_bundle.metric_weights, potentials)


# ---------------------------------------------------------------------------
# the gauge checks
# ---------------------------------------------------------------------------

def curvature_formula_check(scenario: ActionScenario) -> CheckResult:
    """F(w_i, w_j) = tau([w_i, w_j]) - w_i.tau(w_j) + w_j.tau(w_i)
    + [tau(w_i), tau(w_j)] on the base generators, through the gauge model's
    bracket and anchor, against `PrincipalBundleData.curvature_components`."""
    model = scenario.model
    data = scenario.gauge.bundle_data
    taus = [[coerce_rational(c) for c in scenario.gauge.tau(k)] for k in range(model.n)]

    def tau(section):  # linear over functions
        return [sum((c * t[a] for c, t in zip(section.coeffs, taus)), RationalExpr.zero())
                for a in range(data.algebra.n)]

    failures = []
    for (i, j), direct in data.curvature_components().items():
        w_i, w_j = model.basis_section(i), model.basis_section(j)
        tau_i, tau_j = tau(w_i), tau(w_j)
        rho_i, rho_j = model.anchor(w_i), model.anchor(w_j)
        formula = [b - rho_i.derive(t_j) + rho_j.derive(t_i) + c for b, t_i, t_j, c in
                   zip(tau(model.bracket(w_i, w_j)), tau_i, tau_j, data.algebra.bracket(
                       data.algebra.section(tau_i), data.algebra.section(tau_j)).coeffs)]
        if any(not (a - b).simplify().is_zero() for a, b in zip(direct, formula)):
            failures.append((f"F[{i},{j}]", "display mismatch"))
    return CheckResult(not failures, failures)


def _fiber_pairings(scenario: ActionScenario) -> list:
    """<mu, e_a> for the structure-algebra generators e_a of a gauge scenario."""
    return scenario.momentum.pairings[scenario.model.gauge_base_count:]


def gauge_momentum_verify(scenario: ActionScenario) -> CheckResult:
    """The curvature pairing identity
    d_P mu(s1, s2) = <mu, F(s1, s2)> - omega(beta tau(s1), beta tau(s2)).
    The two momentum conditions are their own rows of the check table."""
    gauge = scenario.gauge
    model = scenario.model
    n_base = model.gauge_base_count
    dim = gauge.bundle_data.algebra.n
    curv = gauge.bundle_data.curvature_components()
    atlas = scenario.atlas
    fiber_fields = [scenario.generator_field(n_base + a) for a in range(dim)]
    fiber_pairings = _fiber_pairings(scenario)
    omega_fiber = scenario.presymplectic.omega

    def beta_tau(index):
        return _field_sum(atlas, LEAF_J, ((coerce_rational(c), f) for c, f in
                                          zip(gauge.tau(index), fiber_fields)))

    def residual(i, j):
        terms = [scenario.d_mu.value(i, j), omega_fiber.apply(beta_tau(i), beta_tau(j))]
        if j < n_base:
            terms.append(_fn_scale(pairing_combination(atlas, fiber_pairings, curv[(i, j)]),
                                   -1))
        return _fn_add(*terms)

    failures = [(f"curvature-pairing {label}", text) for label, text in
                _pair_failures(scenario, combinations(range(model.n), 2), residual)]
    return CheckResult(not failures, failures)


def quantization_isomorphism_check(scenario: ActionScenario) -> CheckResult:
    """The fiber's quantization and the gauge scenario's agree through the
    identity intertwiner in trivialized coordinates.  The Gram matrices are
    compared once: an entry that varied along the base would not integrate
    (`quantize._fiber_factors` writes each element through `_zz_decompose`,
    which raises "leftover variables in decomposition"), so each is one
    constant matrix."""
    gauge = scenario.gauge
    if scenario.bundle is None:
        return CheckResult(True, notes=["point fiber: both sides are the declared line"])
    fiber_rep, gauge_rep = gauge.fiber.representation, scenario.representation
    if fiber_rep.dimension != gauge_rep.dimension:
        return CheckResult(False, [("dimension", f"fiber {fiber_rep.dimension} vs "
                                                 f"gauge {gauge_rep.dimension}")])
    n_base = scenario.model.gauge_base_count
    algebra = gauge.bundle_data.algebra
    n = fiber_rep.dimension
    failures = []
    for a in range(algebra.n):
        if not is_zero_matrix(fiber_rep.matrices[a], minus=gauge_rep.matrices[n_base + a]):
            failures.append((f"intertwining {algebra.generator_names[a]}",
                             "matrix mismatch"))
    for i in range(n_base):
        if not is_zero_matrix(gauge_rep.matrices[i]):
            failures.append((f"base generator {i}",
                             "does not act by the flat transport"))
    failures.extend(("gram", f"entry {i},{j}") for i in range(n) for j in range(n)
                    if gauge_rep.gram[i][j] != fiber_rep.gram[i][j])
    return CheckResult(not failures, failures,
                       ["intertwiner: identity matrix in trivialized frames; "
                        "unitary since the Gram matrices coincide",
                        f"dimension per base point: {n}"])
