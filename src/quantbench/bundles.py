"""Hermitian line bundles as cocycle data, curvature, covariant-derivative
operators with momentum potentials, and the tensor/dual group structure.
The construction from an integral class is in `integrality`.

Frames follow s_k = c_jk s_j with connection nabla s_j = twopii * eta_j s_j,
so metric compatibility reads h_k = |c_jk|^2 h_j and the gluing identity is
eta_k - eta_j = (1/twopii) dc_jk / c_jk.  Transition values are stored as
(rational factor) * exp(twopii * g) so tensor products and constructed
bundles share one code path.
"""

from __future__ import annotations

from functools import cached_property

from .cech import GoodCover, OverlapFunction, cocycle_value
from .errors import CurvatureMismatchError, MalformedExpressionError
from .exprs import TWO_PI_I, PolyExpr, RationalExpr, coerce_rational
from .geometry import (
    DifferentialForm,
    Frozen,
    LEAF_FULL,
    LEAF_JTILDE,
    _field_sum,
    exterior_derivative,
    form_on_chart,
    frozen,
    glue_check,
    interior_product,
    commutator,
    to_chart,
)
from .hamiltonian import ActionScenario, pairing_combination, _exactness_check
from .reports import CheckResult
from .scalars import ExactScalar, ZERO


class TransitionValue(Frozen):
    """c = rational * exp(twopii * g); either factor may be trivial."""

    def __init__(self, chart, rational=1, exponent=None):
        rational = coerce_rational(rational)
        if rational.is_zero():
            raise MalformedExpressionError("transition function must not vanish")
        vars(self).update(chart=chart, rational=rational,
                          exponent=exponent)  # OverlapFunction or None

    def tensor(self, other):
        if other.chart != self.chart:
            raise MalformedExpressionError("transition charts differ under tensor")
        exp = _add_overlap(self.exponent, other.exponent)
        return TransitionValue(self.chart, self.rational * other.rational, exp)

    def dual(self):
        exp = None if self.exponent is None else self.exponent.scaled(ExactScalar(-1))
        return TransitionValue(self.chart, RationalExpr.const(1) / self.rational, exp)

    def dlog(self, cover) -> DifferentialForm:
        """(1/twopii) dc / c as a 1-form on the overlap chart."""
        atlas = cover.atlas
        chart = atlas.chart(self.chart)
        table = {}
        inv_twopii = RationalExpr.const(1) / RationalExpr.var("twopii")
        for coord in chart.coords:
            val = self.rational.log_derivative(coord) * inv_twopii
            if not val.is_zero():
                table[(coord,)] = val
        form = DifferentialForm(atlas, 1, LEAF_FULL, {self.chart: table})
        if self.exponent is not None:
            form = form + self.exponent.differential(cover)
        return form

    def abs_squared(self) -> RationalExpr:
        """|c|^2; requires a real exponent so the phase factor drops out."""
        if self.exponent is not None:
            rat = self.exponent.rational_part
            if not (rat - rat.conj()).is_zero() or \
                    not self.exponent.angle_coeff.is_real():
                raise MalformedExpressionError("transition exponent is not real-valued")
        return (self.rational * self.rational.conj()).simplify()


def _add_overlap(a, b):
    if a is None:
        return b
    if b is None:
        return a
    if a.chart != b.chart:
        raise MalformedExpressionError("overlap exponents live on different charts")
    return OverlapFunction(a.chart, a.rational_part + b.rational_part,
                           a.angle_coeff + b.angle_coeff)


class LineBundleData(Frozen):
    """Cover + transitions c_jk + metric weights h_j + potentials eta_j;
    `curvature` is computed once."""

    def __init__(self, name, cover: GoodCover, transitions, metric_weights,
                 potentials, branch_offsets=None):
        vars(self).update(name=name, cover=cover,
                          transitions=frozen({tuple(k): v for k, v in transitions.items()}),
                          metric_weights=frozen(metric_weights), potentials=frozen(potentials),
                          branch_offsets=frozen(branch_offsets or {}))

    def patch_chart(self, index):
        return self.cover.chart_of((index,))

    def transition_value(self, j, k) -> TransitionValue:
        if (j, k) in self.transitions:
            return self.transitions[(j, k)]
        if (k, j) in self.transitions:
            return self.transitions[(k, j)].dual()
        chart = self.cover.chart_of(tuple(sorted((j, k), key=self.cover.position.get)))
        return TransitionValue(chart, 1, None)

    def weight(self, index) -> RationalExpr:
        return coerce_rational(self.metric_weights[index])

    def potential(self, index) -> DifferentialForm:
        return self.potentials[index]

    @cached_property
    def _curvature_form(self) -> DifferentialForm:  # what `curvature` returns
        atlas = self.cover.atlas
        tables = {}
        for idx in self.cover.index_set:
            chart = self.patch_chart(idx)
            k_form = exterior_derivative(self.potential(idx))
            table = k_form.coefficients.get(chart, {})
            if chart in tables:
                ref = tables[chart]
                keys = set(ref) | set(table)
                for key in keys:
                    a = ref.get(key, RationalExpr.zero())
                    b = table.get(key, RationalExpr.zero())
                    if not (a - b).is_zero():
                        raise MalformedExpressionError(
                            f"curvature differs between patches sharing chart {chart}")
            else:
                tables[chart] = table
        form = DifferentialForm(atlas, 2, LEAF_JTILDE, tables)
        if len(tables) > 1:
            report = glue_check(atlas, form)
            if not report.ok:
                raise MalformedExpressionError(f"curvature does not glue: {report.failures}")
        return form


def trivial_bundle(cover: GoodCover, name="trivial") -> LineBundleData:
    atlas = cover.atlas
    weights = {}
    pots = {}
    for idx in cover.index_set:
        chart = cover.chart_of((idx,))
        weights[idx] = RationalExpr.const(1)
        pots[idx] = DifferentialForm(atlas, 1, LEAF_JTILDE, {chart: {}})
    return LineBundleData(name, cover, {}, weights, pots)


def validate_bundle(bundle: LineBundleData) -> CheckResult:
    """Cocycle identity, metric compatibility, gluing, Hermiticity."""
    cover = bundle.cover
    atlas = cover.atlas
    failures = []
    notes = ["frame convention: s_k = c_jk s_j, nabla s_j = twopii eta_j s_j",
             "gluing: eta_k - eta_j = (1/twopii) d c_jk / c_jk"]
    # cocycle identity on triple overlaps
    for simplex in cover.k_simplices(2):
        j, k, l = simplex
        chart = cover.chart_of(simplex)
        c_jk, c_kl, c_jl = (bundle.transition_value(*p) for p in ((j, k), (k, l), (j, l)))
        rational = RationalExpr.const(1)
        for val, power in ((c_jk, 1), (c_kl, 1), (c_jl, -1)):
            expr = to_chart(atlas, val.rational, val.chart, chart)
            rational = rational * (expr if power == 1 else RationalExpr.const(1) / expr)
        exps = [c_jk.exponent, c_kl.exponent,
                None if c_jl.exponent is None else c_jl.exponent.scaled(ExactScalar(-1))]
        total = None
        for e in exps:
            total = _add_overlap(total, e)
        if total is None:
            if not (rational - 1).is_zero():
                failures.append(("cocycle", f"{simplex}: residual {rational.simplify()}"))
            continue
        # rational part must be 1 and the exponent an integer constant
        if not (rational - 1).is_zero():
            failures.append(("cocycle", f"{simplex}: rational residual"))
        if not total.angle_coeff.is_zero() and simplex not in bundle.branch_offsets:
            failures.append(("cocycle", f"{simplex}: angle part without offsets"))
            continue
        value = cocycle_value(cover, simplex, total.rational_part.simplify(),
                              [_angle_coeff(c) for c in (c_jk, c_kl, c_jl)],
                              bundle.branch_offsets.get(simplex, {}))
        if value is None:
            failures.append(("cocycle", f"{simplex}: nonconstant exponent"))
        elif not value.is_integer():
            failures.append(("cocycle", f"{simplex}: exponent sum {value}"))
    # metric compatibility and gluing on pair overlaps
    for simplex in cover.k_simplices(1):
        j, k = simplex
        chart = cover.chart_of(simplex)
        c = bundle.transition_value(j, k)
        h_j = to_chart(atlas, bundle.weight(j), bundle.patch_chart(j), chart)
        h_k = to_chart(atlas, bundle.weight(k), bundle.patch_chart(k), chart)
        abs2 = to_chart(atlas, c.abs_squared(), c.chart, chart)
        residual = h_k - abs2 * h_j
        if not residual.is_zero():
            failures.append(("metric", f"{simplex}: residual {residual}"))
        eta_j = form_on_chart(atlas, bundle.potential(j), chart)
        eta_k = form_on_chart(atlas, bundle.potential(k), chart)
        dlog = form_on_chart(atlas, c.dlog(cover), chart)
        glue_res = eta_k - eta_j - dlog
        if not glue_res.is_zero():
            failures.append(("gluing", f"{simplex}: residual {glue_res}"))
    # Hermiticity of the connection against the metric, patch by patch
    for idx in cover.index_set:
        chart = bundle.patch_chart(idx)
        h = bundle.weight(idx)
        if not (h - h.conj()).is_zero():
            failures.append(("metric", f"patch {idx}: weight {h} is not real"))
        eta = bundle.potential(idx)
        imag_part = eta - eta.conj()
        lhs = imag_part * RationalExpr.var("twopii")
        # d log h, one logarithmic derivative per coordinate: dh * (1/h)
        # would square the denominator of h before cancelling it
        rhs = DifferentialForm(atlas, 1, LEAF_JTILDE, {chart: {
            (c,): h.log_derivative(c) for c in atlas.chart(chart).coords_for(LEAF_JTILDE)}})
        residual = lhs - rhs
        if not residual.is_zero():
            failures.append(("hermitian", f"patch {idx}: residual {residual}"))
    return CheckResult(not failures, failures, notes)


def _angle_coeff(value: TransitionValue) -> ExactScalar:
    return ZERO if value.exponent is None else value.exponent.angle_coeff


def curvature(bundle: LineBundleData) -> DifferentialForm:
    """Chartwise d eta_j, checked consistent across patches and transitions;
    built once and kept by the bundle."""
    return bundle._curvature_form


# ---------------------------------------------------------------------------
# covariant operators with momentum potentials
# ---------------------------------------------------------------------------

_TWO_PI_I_POLY = PolyExpr.var(TWO_PI_I)


class KostantOperator(Frozen):
    """First-order operator nabla_{alpha(X)} - twopii <mu, X> on local frames."""

    def __init__(self, scenario: ActionScenario, section):
        bundle = scenario.bundle
        vector_part = scenario.action.of(section)
        pairing = pairing_combination(scenario.atlas, scenario.momentum.pairings,
                                      section.coeffs)
        potentials = {}
        multipliers = {}
        for idx in bundle.cover.index_set:
            chart = bundle.patch_chart(idx)
            contraction = interior_product(vector_part, bundle.potential(idx))
            pot = contraction.coefficient(chart, ()) - \
                pairing.get(chart, RationalExpr.zero())
            potentials[idx] = pot * RationalExpr.var(TWO_PI_I)
            # the same potential with its 1/twopii cancelled by an exact
            # division of the denominator by the monomial, so that images
            # stay free of twopii; the identity rows print the form above
            lowered = pot.den.exact_div(_TWO_PI_I_POLY)
            multipliers[idx] = potentials[idx] if lowered is None \
                else RationalExpr(pot.num, lowered)
        vars(self).update(bundle=bundle, vector_part=vector_part,
                          _potentials=frozen(potentials), _multipliers=frozen(multipliers))

    def potential_part(self, idx) -> RationalExpr:
        return self._potentials[idx]

    def apply(self, idx, local_coefficient) -> RationalExpr:
        """Action on f s_idx in the idx-th frame."""
        chart = self.bundle.patch_chart(idx)
        f = coerce_rational(local_coefficient)
        return self.vector_part.derive(f, chart) + self._multipliers[idx] * f


def kostant_operator(scenario: ActionScenario) -> tuple:
    """The operator of every basis generator, in generator order.  They exist
    only once the scenario's bundle prequantizes: its curvature must equal the
    scenario's leafwise 2-form, else `CurvatureMismatchError` carries the
    simplified residual."""
    residual = (curvature(scenario.bundle) - scenario.presymplectic.omega_tilde).simplify()
    if not residual.is_zero():
        raise CurvatureMismatchError(
            "bundle curvature differs from the scenario's leafwise 2-form", residual)
    model = scenario.model
    return tuple(KostantOperator(scenario, model.basis_section(i))
                 for i in range(model.n))


def flatness_pieces(scenario: ActionScenario, ops):
    """(i, j, patch, W, q) for each generator pair i < j and patch.  pi is
    linear over functions in the section, so pi([X_i, X_j]) = sum_k c_k pi(X_k)
    for [X_i, X_j] = sum_k c_k X_k.  pi(X) = V_X + p_X is first order and
    multiplications commute, so on the patch [pi(X_i), pi(X_j)] -
    pi([X_i, X_j]) is the vector field W (the chart's nonzero components of
    [V_i, V_j] - sum_k c_k V_k) plus multiplication by
    q = V_i p_j - V_j p_i - sum_k c_k p_k."""
    model = scenario.model
    bundle = ops[0].bundle
    for i in range(model.n):
        for j in range(i + 1, model.n):
            c = model.bracket(model.basis_section(i), model.basis_section(j)).coeffs
            vi, vj = ops[i].vector_part, ops[j].vector_part
            field = commutator(vi, vj) - _field_sum(
                scenario.atlas, LEAF_JTILDE, zip(c, (op.vector_part for op in ops)))
            for idx in bundle.cover.index_set:
                chart = bundle.patch_chart(idx)
                q = vi.derive(ops[j].potential_part(idx), chart) \
                    - vj.derive(ops[i].potential_part(idx), chart)
                for ck, op in zip(c, ops):
                    if not ck.is_zero():
                        q = q - ck * op.potential_part(idx)
                yield i, j, idx, field.components.get(chart, {}), q


def hermitian_pieces(ops):
    """(i, patch, I, r) for each generator and patch: I holds the nonzero
    components of V - conj(V) on the patch's chart and r = (p + conj p) h - V(h).
    With h(f, g) = conj(f) g h, the residual h(pi f, g) + h(f, pi g) - V(h(f, g))
    is -I(conj f) g h + conj(f) g r.  The weight h vanishes nowhere, so r = 0
    exactly when (p + conj p) - V(log h) = 0, which is decided first on the
    logarithmic derivatives of h; r itself is built only to print it."""
    bundle = ops[0].bundle
    for i, op in enumerate(ops):
        field = op.vector_part
        for idx in bundle.cover.index_set:
            chart = bundle.patch_chart(idx)
            components = field.components[chart]  # V(h) needs the chart's field
            imaginary = {c: v - v.conj() for c, v in components.items()}
            h, p = bundle.weight(idx), op.potential_part(idx)
            real = p + p.conj()
            log_residual = real
            for c, v in components.items():
                log_residual = log_residual - v * h.log_derivative(c)
            r = RationalExpr.zero() if log_residual.is_zero() else \
                real * h - field.derive(h, chart)
            yield i, idx, {c: v for c, v in imaginary.items() if not v.is_zero()}, r


def equivariance_pieces(ops):
    """(i, patch, c, E) for each generator, patch and fiber coordinate c of the
    patch's chart.  With nabla_v = v + theta(v), theta = twopii eta, the
    residual [pi(X), nabla_v] - nabla_[V, v] is V(theta(v)) - v(p)
    - theta([V, v]): of order 0 and C-infinity-linear in v, so it is
    multiplication by sum_c v^c E with E = V(theta_c) - d_c p
    + sum_a d_c(V^a) theta_a, the leafwise L_V theta = dp."""
    bundle = ops[0].bundle
    twopii = RationalExpr.var("twopii")
    for i, op in enumerate(ops):
        field = op.vector_part
        for idx in bundle.cover.index_set:
            chart = bundle.patch_chart(idx)
            theta = {a: coeff * twopii
                     for (a,), coeff in bundle.potential(idx).terms(chart).items()}
            p = op.potential_part(idx)
            for c in bundle.cover.atlas.chart(chart).fiber_coords:
                resid = field.derive(theta.get(c, RationalExpr.zero()), chart) - p.derivative(c)
                for a, theta_a in theta.items():
                    resid = resid + field.component(chart, a).derivative(c) * theta_a
                yield i, idx, c, resid


def _vector_text(table) -> str:
    return "; ".join(f"({v}) d/d{c}" for c, v in table.items())


def rep_flatness_check(scenario: ActionScenario, ops) -> CheckResult:
    """[pi(X), pi(Y)] = pi([X, Y]) on every patch, decided exactly: a
    first-order operator vanishes on a patch exactly when both of its
    `flatness_pieces` do."""
    names = scenario.model.generator_names
    failures = []
    for i, j, idx, field, q in flatness_pieces(scenario, ops):
        label = f"{names[i]},{names[j]}@patch {idx}"
        if field:
            failures.append((label, "[V_X, V_Y] - V_[X,Y] = " + _vector_text(field)))
        if not q.is_zero():
            failures.append((label, f"V_X p_Y - V_Y p_X - p_[X,Y] = {q}"))
    return CheckResult(not failures, failures)


def rep_hermitian_check(scenario: ActionScenario, ops) -> CheckResult:
    """h(pi(X)f, g) + h(f, pi(X)g) = alpha(X).h(f, g) on every patch, decided
    exactly: the residual vanishes for all f and g exactly when both
    `hermitian_pieces` do (f = g = 1 isolates r; g = 1 and f a coordinate
    then isolate I)."""
    names = scenario.model.generator_names
    failures = []
    for i, idx, imaginary, r in hermitian_pieces(ops):
        label = f"{names[i]}@patch {idx}"
        if imaginary:
            failures.append((label, "V - conj(V) = " + _vector_text(imaginary)))
        if not r.is_zero():
            failures.append((label, f"(p + conj(p)) h - V(h) = {r}"))
    return CheckResult(not failures, failures)


def connection_equivariance_check(scenario: ActionScenario, ops) -> CheckResult:
    """[pi(X), nabla_v] = nabla_{[alpha(X), v]} for every fiber field v on
    every patch, decided exactly: the residual is multiplication by
    sum_c v^c E_c, so it vanishes for every v exactly when each
    `equivariance_pieces` E_c does."""
    names = scenario.model.generator_names
    failures = [(f"{names[i]}@patch {idx}", f"d/d{c}: {resid}")
                for i, idx, c, resid in equivariance_pieces(ops)
                if not resid.is_zero()]
    return CheckResult(not failures, failures)


# ---------------------------------------------------------------------------
# Picard operations and the algebroid Chern witness
# ---------------------------------------------------------------------------

def pic_tensor(a: LineBundleData, b: LineBundleData) -> LineBundleData:
    if a.cover is not b.cover:
        raise MalformedExpressionError("tensor requires a common cover")
    transitions = {}
    keys = set(a.transitions) | set(b.transitions)
    for key in keys:
        transitions[key] = a.transition_value(*key).tensor(b.transition_value(*key))
    weights = {idx: a.weight(idx) * b.weight(idx) for idx in a.cover.index_set}
    pots = {idx: a.potential(idx) + b.potential(idx) for idx in a.cover.index_set}
    offsets = dict(a.branch_offsets)
    for key, table in b.branch_offsets.items():
        merged = dict(offsets.get(key, {}))
        merged.update(table)
        offsets[key] = merged
    return LineBundleData(f"{a.name}(x){b.name}", a.cover, transitions, weights,
                          pots, branch_offsets=offsets)


def pic_dual(a: LineBundleData) -> LineBundleData:
    transitions = {key: val.dual() for key, val in a.transitions.items()}
    weights = {idx: RationalExpr.const(1) / a.weight(idx) for idx in a.cover.index_set}
    pots = {idx: -a.potential(idx) for idx in a.cover.index_set}
    return LineBundleData(f"{a.name}^*", a.cover, transitions, weights, pots,
                          branch_offsets=a.branch_offsets)


def chern_class_algebroid(scenario: ActionScenario) -> CheckResult:
    """Exactness witness: alpha^* K = -d_A mu for the scenario's momentum data
    and the curvature K of its bundle."""
    if scenario.momentum is None:
        return CheckResult(True, notes=["no witness declared"], status="hypotheses-not-met")
    result = _exactness_check(scenario, curvature(scenario.bundle))
    result.notes.append("witness: the declared momentum pairing exhibits alpha^*K as exact")
    return result
