"""Momentum-map verification: internal, equivariant and full Hamiltonian
conditions, the algebroid differential, and exact-form perturbations.

Pairing data ``<mu, X>`` is stored chartwise per generator; every quantifier
over sections is discharged on the declared generators together with module
linearity over pulled-back base functions.
"""

from __future__ import annotations

import copy

from . import linalg
from .errors import PerturbationRejectedError
from .exprs import RationalExpr, coerce_rational
from .geometry import (
    DifferentialForm,
    LEAF_J,
    LEAF_JTILDE,
    exterior_derivative,
    form_function,
    glue_check,
    interior_product,
    lie_derivative,
)
from .liealg import ActionMap, AlgebroidModel, action_algebroid
from .reports import CheckResult
from .scalars import ExactScalar


class PresymplecticData:
    """A leafwise-closed 2-form restricting to fiberwise symplectic forms."""

    def __init__(self, atlas, omega_tilde: DifferentialForm, sample_points=None):
        self.atlas = atlas
        self.omega_tilde = omega_tilde
        self.omega = omega_tilde.restrict(LEAF_J)
        self.sample_points = list(sample_points or [])

    def fiber_matrix(self, chart_name):
        chart = self.atlas.chart(chart_name)
        fibers = chart.fiber_coords
        return [[self.omega.coefficient(chart_name, (a, b)) if
                 chart.coord_index(a) < chart.coord_index(b) else
                 -self.omega.coefficient(chart_name, (b, a)) if
                 chart.coord_index(a) > chart.coord_index(b) else RationalExpr.zero()
                 for b in fibers] for a in fibers]


def presymplectic_check(data: PresymplecticData) -> CheckResult:
    """Leafwise closedness plus fiberwise nondegeneracy (symbolic + samples)."""
    failures = []
    notes = ["nondegeneracy method: symbolic determinant + declared sample points"]
    d_omega = exterior_derivative(data.omega_tilde)
    if not d_omega.is_zero():
        failures.append(("closedness", repr(d_omega.simplify())))
    glue = glue_check(data.atlas, data.omega_tilde)
    if not glue.ok:
        failures.append(("gluing", str(glue.failures)))
    # charts in the atlas's declared order, so the failure order is fixed
    for chart_name in data.omega_tilde.atlas.charts:
        if chart_name not in data.omega_tilde.coefficients:
            continue
        det = linalg.det(data.fiber_matrix(chart_name), RationalExpr.const(1)).simplify()
        if data.atlas.chart(chart_name).fiber_coords and det.is_zero():
            failures.append(("nondegeneracy", f"chart {chart_name}: determinant vanishes"))
    for sample in data.sample_points:
        chart_name, point = sample["chart"], sample["point"]
        det = linalg.det(data.fiber_matrix(chart_name), RationalExpr.const(1))
        value = det.numeric(point)
        if abs(value) < 1e-12:
            failures.append(("nondegeneracy-sample", f"{chart_name}@{point}"))
    return CheckResult(not failures, failures, notes)


class MomentumMapRep:
    """Chartwise pairing functions <mu, gen_i> plus isotropy restriction."""

    def __init__(self, model: AlgebroidModel, pairings):
        if len(pairings) != model.n:
            raise ValueError("one pairing function per generator required")
        self.model = model
        self.pairings = [dict((ch, coerce_rational(v)) for ch, v in p.items())
                         for p in pairings]

    def pairing(self, index) -> dict:
        return self.pairings[index]

    def pairing_form(self, atlas, index) -> DifferentialForm:
        return form_function(atlas, self.pairings[index], LEAF_JTILDE)


def pairing_combination(atlas, pairings, vec) -> dict:
    """Chartwise sum_a vec[a] <mu, e_a>, over the pairings given on each chart:
    the pairing of mu with the section sum_a vec[a] e_a."""
    out = {}
    for ch in atlas.charts:
        total = RationalExpr.zero()
        for pairing, coeff in zip(pairings, vec):
            if pairing.get(ch) is not None:
                total = total + coerce_rational(coeff) * pairing[ch]
        out[ch] = total
    return out


class ActionScenario:
    """Everything the checks need, bundled.  The keyword-only stage inputs are
    None (or False) where a stage does not apply: the prequantization `bundle`;
    the Kahler polarization `structure` with its `holomorphic_coords` and
    monomial `ansatz_cap`; the `zero_level` declaration read by
    `catalog.zero_level_data`; the closed-form `integration` kind; the family
    `level`; `degenerate` for a point orbit modeled with the zero form; a
    `full_quotient` description; and the `gauge` construction that built it.
    A plain class, not a dataclass: importing `dataclasses` pulls `inspect`
    into every process."""

    def __init__(self, name, model: AlgebroidModel, action: ActionMap,
                 presymplectic: PresymplecticData, momentum: MomentumMapRep, *,
                 bundle=None, structure=None, holomorphic_coords=None, ansatz_cap=None,
                 zero_level=None, integration=None, level=None, degenerate=False,
                 full_quotient=None, gauge=None):
        self.name = name
        self.model = model
        self.action = action
        self.presymplectic = presymplectic
        self.momentum = momentum
        self.bundle, self.structure = bundle, structure
        self.holomorphic_coords, self.ansatz_cap = holomorphic_coords, ansatz_cap
        self.zero_level, self.integration = zero_level, integration
        self.level, self.degenerate = level, degenerate
        self.full_quotient, self.gauge = full_quotient, gauge
        self._action_model = None

    @property
    def atlas(self):
        return self.presymplectic.atlas

    @property
    def action_model(self) -> AlgebroidModel:
        if self._action_model is None:
            self._action_model = action_algebroid(self.model, self.action)
        return self._action_model

    def generator_field(self, index):
        return self.action.of(self.model.basis_section(index))

    def isotropy_indices(self):
        return self.model.isotropy_indices


# ---------------------------------------------------------------------------
# the algebroid differential (sign: d_n = (-1)^n * Chevalley-Eilenberg d_n)
# ---------------------------------------------------------------------------

class AlgebroidCochain:
    """Antisymmetric multilinear data on the action algebroid's generators.

    degree 0: chartwise function; degree 1: list per generator; degree 2:
    dict (i, j) with i < j -> chartwise function.
    """

    def __init__(self, scenario: ActionScenario, degree, values):
        self.scenario = scenario
        self.degree = degree
        self.values = values

    def value(self, *indices) -> dict:
        if self.degree == 0:
            return self.values
        if self.degree == 1:
            return self.values[indices[0]]
        i, j = indices
        if i == j:
            return {}
        if i < j:
            return self.values.get((i, j), {})
        return _fn_scale(self.values.get((j, i), {}), ExactScalar(-1))


def _fn_scale(fn, scalar):
    return {ch: v * scalar for ch, v in fn.items()}


def _fn_add(*fns):
    out = {}
    for fn in fns:
        for ch, v in fn.items():
            out[ch] = out.get(ch, RationalExpr.zero()) + v
    return out


def _fn_is_zero(fn):
    return all(v.is_zero() for v in fn.values())


def algebroid_differential(cochain: AlgebroidCochain) -> AlgebroidCochain:
    scenario = cochain.scenario
    model = scenario.model
    n = model.n
    fields = [scenario.generator_field(i) for i in range(n)]
    if cochain.degree == 0:
        values = []
        for field in fields:
            values.append({ch: field.derive(v, ch) if ch in field.components else
                           RationalExpr.zero() for ch, v in cochain.values.items()})
        return AlgebroidCochain(scenario, 1, values)
    if cochain.degree == 1:
        values = {}
        for i in range(n):
            for j in range(i + 1, n):
                bracket = model.generator_bracket(i, j)
                mu_bracket = {}
                for k, coeff in enumerate(bracket):
                    if coeff.is_zero():
                        continue
                    mu_bracket = _fn_add(
                        mu_bracket,
                        {ch: v * coeff for ch, v in cochain.values[k].items()})
                term_i = fields[i].derive(cochain.values[j])
                term_j = fields[j].derive(cochain.values[i])
                values[(i, j)] = _fn_add(mu_bracket, _fn_scale(term_i, ExactScalar(-1)),
                                         term_j)
        return AlgebroidCochain(scenario, 2, values)
    if cochain.degree == 2:
        # d_2 = +CE_2 on generator triples
        values = {}
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    total = {}
                    for (pos, a, rest) in ((0, i, (j, k)), (1, j, (i, k)), (2, k, (i, j))):
                        term = fields[a].derive(cochain.value(*rest))
                        total = _fn_add(total, _fn_scale(term, ExactScalar((-1) ** pos)))
                    for (pos, pair_, c) in ((0, (i, j), k), (1, (i, k), j), (2, (j, k), i)):
                        bracket = model.generator_bracket(*pair_)
                        contraction = {}
                        for m, coeff in enumerate(bracket):
                            if coeff.is_zero():
                                continue
                            nu = cochain.value(m, c)
                            contraction = _fn_add(contraction,
                                                  {ch: v * coeff for ch, v in nu.items()})
                        total = _fn_add(total, _fn_scale(contraction,
                                                         ExactScalar((-1) ** (pos + 1))))
                    values[(i, j, k)] = total
        return AlgebroidCochain(scenario, 3, values)
    raise NotImplementedError("differential implemented through degree 2")


# ---------------------------------------------------------------------------
# the condition checks
# ---------------------------------------------------------------------------

def internal_momentum_check(s: ActionScenario) -> CheckResult:
    """d^J <mu, X> = - iota_{alpha(X)} omega for isotropy generators."""
    failures = []
    for i in s.isotropy_indices():
        pairing = s.momentum.pairing_form(s.atlas, i)
        lhs = exterior_derivative(pairing, LEAF_J)
        rhs = interior_product(s.generator_field(i), s.presymplectic.omega)
        residual = lhs + rhs
        if not residual.is_zero():
            failures.append((s.model.generator_names[i], repr(residual)))
    return CheckResult(not failures, failures)


def equivariance_check(s: ActionScenario) -> CheckResult:
    """alpha(X).<mu, Y> = <mu, [X, Y]> for isotropy Y (bracket-form identity).

    The dual-side convention <ad*(X) xi, Y> = <xi, ad(-X) Y> differs from this
    identity by a sign; reports carry the adopted form.
    """
    failures = []
    notes = ["equivariance verified as alpha(X).<mu,Y> - <mu,[X,Y]> = 0"]
    for i in range(s.model.n):
        field = s.generator_field(i)
        for j in s.isotropy_indices():
            pairing_j = s.momentum.pairing(j)
            derived = field.derive(pairing_j)
            bracket = s.model.generator_bracket(i, j)
            expected = {}
            for k, coeff in enumerate(bracket):
                if coeff.is_zero():
                    continue
                expected = _fn_add(expected,
                                   {ch: v * coeff for ch, v in s.momentum.pairing(k).items()})
            residual = _fn_add(derived, _fn_scale(expected, ExactScalar(-1)))
            if not _fn_is_zero(residual):
                failures.append((f"{s.model.generator_names[i]},"
                                 f"{s.model.generator_names[j]}",
                                 str({ch: str(v) for ch, v in residual.items()})))
    return CheckResult(not failures, failures, notes)


def prequantization_condition_check(s: ActionScenario) -> CheckResult:
    """d_A mu + alpha^* omega_tilde = 0 on generator pairs."""
    failures = []
    mu = AlgebroidCochain(s, 1, s.momentum.pairings)
    d_mu = algebroid_differential(mu)
    for i in range(s.model.n):
        for j in range(i + 1, s.model.n):
            pulled = s.presymplectic.omega_tilde.apply(
                s.generator_field(i), s.generator_field(j))
            residual = _fn_add(d_mu.value(i, j), pulled)
            if not _fn_is_zero(residual):
                failures.append((f"{s.model.generator_names[i]},"
                                 f"{s.model.generator_names[j]}",
                                 str({ch: str(v) for ch, v in residual.items()})))
    return CheckResult(not failures, failures)


def quantization_condition_check(s: ActionScenario) -> CheckResult:
    """d^J <mu, X> = -(iota_{alpha(X)} omega_tilde)|_J for every generator."""
    failures = []
    for i in range(s.model.n):
        pairing = s.momentum.pairing_form(s.atlas, i)
        lhs = exterior_derivative(pairing, LEAF_J)
        contraction = interior_product(s.generator_field(i), s.presymplectic.omega_tilde)
        rhs = contraction.restrict(LEAF_J)
        residual = lhs + rhs
        if not residual.is_zero():
            failures.append((s.model.generator_names[i], repr(residual)))
    return CheckResult(not failures, failures)


def perturb(s: ActionScenario, beta: DifferentialForm, name=None) -> ActionScenario:
    """omega -> omega + d beta, mu -> mu + alpha^* beta, hypotheses checked."""
    for i in range(s.model.n):
        field = s.generator_field(i)
        moved = lie_derivative(field, beta).restrict(LEAF_J)
        if not moved.is_zero():
            raise PerturbationRejectedError(
                f"Lie derivative of the perturbation does not annihilate the fibers "
                f"for generator {s.model.generator_names[i]}",
                generator=s.model.generator_names[i])
    omega_new = s.presymplectic.omega_tilde + exterior_derivative(beta)
    pairings = []
    for i in range(s.model.n):
        field = s.generator_field(i)
        shift_form = interior_product(field, beta)
        shifted = dict(s.momentum.pairing(i))
        for ch in shift_form.charts():
            add = shift_form.coefficient(ch, ())
            shifted[ch] = shifted.get(ch, RationalExpr.zero()) + add
        pairings.append(shifted)
    out = copy.copy(s)
    out.name = name or f"{s.name}+perturbation"
    out.presymplectic = PresymplecticData(s.atlas, omega_new, s.presymplectic.sample_points)
    out.momentum = MomentumMapRep(s.model, pairings)
    pre = prequantization_condition_check(out)
    quant = quantization_condition_check(out)
    if not (pre.ok and quant.ok):
        raise PerturbationRejectedError(
            "perturbed scenario fails the momentum conditions: "
            f"{pre.failures + quant.failures}")
    return out


def dd_zero_report(s: ActionScenario) -> CheckResult:
    """d_A o d_A = 0 on functions and on the momentum cochain, decided exactly.

    On a function, (d_A d_A f)(X, Y) is the vector field
    [alpha X, alpha Y] - alpha [X, Y] applied to f, first order in f.  It
    vanishes for every f exactly when it vanishes on every coordinate of every
    chart, so those coordinates, each on the charts that have it, are the
    whole test set."""
    failures = []
    names = s.model.generator_names
    charts = s.atlas.charts
    for coord in dict.fromkeys(c for chart in charts.values() for c in chart.coords):
        f = RationalExpr.var(coord)
        zero_cochain = AlgebroidCochain(s, 0, {name: f for name, chart in charts.items()
                                               if coord in chart.coords})
        dd = algebroid_differential(algebroid_differential(zero_cochain))
        for (i, j), fn in dd.values.items():
            failures.extend((f"{names[i]},{names[j]}@chart {ch}", f"d_A^2 {coord} = {v}")
                            for ch, v in fn.items() if not v.is_zero())
    mu = AlgebroidCochain(s, 1, s.momentum.pairings)
    dd_mu = algebroid_differential(algebroid_differential(mu))
    for (i, j, k), fn in dd_mu.values.items():
        failures.extend((f"{names[i]},{names[j]},{names[k]}@chart {ch}", f"d_A^2 mu = {v}")
                        for ch, v in fn.items() if not v.is_zero())
    return CheckResult(not failures, failures)
