"""Momentum-map verification: internal, equivariant and full Hamiltonian
conditions, the algebroid differential, and exact-form perturbations.

Pairing data ``<mu, X>`` is stored chartwise per generator; every quantifier
over sections is discharged on the declared generators together with module
linearity over pulled-back base functions.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations

from . import linalg
from .errors import PerturbationRejectedError
from .exprs import RationalExpr, coerce_rational
from .geometry import (
    DifferentialForm,
    Frozen,
    LEAF_J,
    LEAF_JTILDE,
    exterior_derivative,
    form_function,
    frozen,
    glue_check,
    interior_product,
    lie_derivative,
)
from .liealg import ActionMap, AlgebroidModel, action_algebroid
from .reports import CheckResult


class PresymplecticData(Frozen):
    """A leafwise-closed 2-form restricting to fiberwise symplectic forms."""

    def __init__(self, atlas, omega_tilde: DifferentialForm, sample_points=None):
        vars(self).update(atlas=atlas, omega_tilde=omega_tilde,
                          omega=omega_tilde.restrict(LEAF_J),
                          sample_points=frozen(sample_points or ()))

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
    # each chart's fiber determinant, built once for the exact test and the
    # samples; charts in the atlas's declared order, so the failure order is fixed
    dets = {ch: linalg.det(data.fiber_matrix(ch), RationalExpr.const(1))
            for ch in data.atlas.charts}
    for chart_name, det in dets.items():
        if chart_name in data.omega_tilde.coefficients and \
                data.atlas.chart(chart_name).fiber_coords and det.is_zero():
            failures.append(("nondegeneracy", f"chart {chart_name}: determinant vanishes"))
    for sample in data.sample_points:
        chart_name, point = sample["chart"], sample["point"]
        value = dets[chart_name].numeric(point)
        if abs(value) < 1e-12:
            failures.append(("nondegeneracy-sample", f"{chart_name}@{point}"))
    return CheckResult(not failures, failures, notes)


class MomentumMapRep(Frozen):
    """Chartwise pairing functions <mu, gen_i> plus isotropy restriction."""

    def __init__(self, model: AlgebroidModel, pairings):
        if len(pairings) != model.n:
            raise ValueError("one pairing function per generator required")
        vars(self).update(model=model, pairings=frozen(
            [{ch: coerce_rational(v) for ch, v in p.items()} for p in pairings]))

    def pairing(self, index):
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


class ActionScenario(Frozen):
    """Everything the checks need, bundled.  The keyword-only stage inputs are
    None (or False) where a stage does not apply: the prequantization `bundle`;
    the Kahler polarization `structure` with its `holomorphic_coords` and
    monomial `ansatz_cap`; the `zero_level`, a `reduce.ZeroLevelData`; the
    `integration` kind, a key of `quantize.INTEGRATIONS`; the family `level`;
    `degenerate` for a point orbit modeled with the zero form; a
    `full_quotient` description; and the `gauge` construction that built it.
    `replace` builds a changed copy, with nothing derived yet, and what the
    inputs alone determine is built once and kept: the check artifacts
    (`operators` to `fixed_subspace`) too.  Their builders are imported when
    first called, since their modules import this one.
    A plain class, not a dataclass: importing `dataclasses` pulls `inspect`
    into every process."""

    _INPUTS = ("name", "model", "action", "presymplectic", "momentum", "bundle",
               "structure", "holomorphic_coords", "ansatz_cap", "zero_level",
               "integration", "level", "degenerate", "full_quotient", "gauge")

    def __init__(self, name, model: AlgebroidModel, action: ActionMap,
                 presymplectic: PresymplecticData, momentum: MomentumMapRep, *,
                 bundle=None, structure=None, holomorphic_coords=None, ansatz_cap=None,
                 zero_level=None, integration=None, level=None, degenerate=False,
                 full_quotient=None, gauge=None):
        given = locals()
        vars(self).update({name: frozen(given[name]) for name in self._INPUTS}, _residuals={})

    def replace(self, **changes) -> "ActionScenario":
        """This scenario with `changes` to its inputs, nothing derived yet."""
        return ActionScenario(**({name: getattr(self, name) for name in self._INPUTS} | changes))

    @property
    def atlas(self):
        return self.presymplectic.atlas

    @cached_property
    def action_model(self) -> AlgebroidModel:
        return action_algebroid(self.model, self.action)

    @cached_property
    def d_mu(self):
        """d_A mu, or None when the scenario declares no momentum map."""
        return None if self.momentum is None else momentum_differential(self)

    def fiber_residual(self, i) -> DifferentialForm:
        """`fiber_residual(self, i)`, built on the first call and kept."""
        residual = self._residuals.get(i)
        if residual is None:
            residual = self._residuals[i] = fiber_residual(self, i)
        return residual

    @cached_property
    def operators(self) -> tuple:
        """The Kostant operators; raises unless the bundle prequantizes."""
        from . import bundles
        return bundles.kostant_operator(self)

    @cached_property
    def basis(self):
        """The holomorphic sections at `ansatz_cap`, probed at `ansatz_cap + 2`."""
        from . import quantize
        return quantize.holomorphic_solve(self.bundle, self.structure, self.holomorphic_coords,
                                          self.ansatz_cap, self.ansatz_cap + 2)

    @cached_property
    def representation(self):
        from . import quantize
        return quantize.induced_representation(self)

    @cached_property
    def reduced(self):
        from . import reduce
        return reduce.internal_mw_quotient(self.zero_level)

    @cached_property
    def descent(self):
        from . import reduce
        return reduce.descent_obstruction_check(self)

    @cached_property
    def fixed_subspace(self):
        from . import reduce
        return reduce.quantum_fixed_subspace(self)

    @cached_property
    def has_fibers(self) -> bool:
        return any(chart.fiber_coords for chart in self.atlas.charts.values())

    def generator_field(self, index):
        return self.action.generator_field(index)


# ---------------------------------------------------------------------------
# the algebroid differential (sign: d_p = (-1)^p * Chevalley-Eilenberg d_p)
# ---------------------------------------------------------------------------

class AlgebroidCochain(Frozen):
    """An alternating p-cochain on the action algebroid's generators:
    `values` maps each increasing index tuple of length p (the empty tuple at
    degree 0) to a chartwise function; a missing tuple is zero."""

    def __init__(self, scenario: ActionScenario, degree, values):
        vars(self).update(scenario=scenario, degree=degree, values=frozen(values))

    def value(self, *indices) -> dict:
        """c(X_i, X_j, ...) in any order: zero on a repeated index, otherwise
        the value at the sorted tuple times the sign of the sorting
        permutation."""
        key = tuple(sorted(indices))
        if len(set(key)) < len(key):
            return {}
        inversions = sum(a > b for a, b in combinations(indices, 2))
        return _fn_scale(self.values.get(key, {}), (-1) ** inversions)


def _fn_scale(fn, scalar):
    if scalar == 1:
        return fn
    return {ch: v * scalar for ch, v in fn.items()}


def _fn_add(*fns):
    out = {}
    for fn in fns:
        for ch, v in fn.items():
            out[ch] = out[ch] + v if ch in out else v
    return out


def algebroid_differential(cochain: AlgebroidCochain) -> AlgebroidCochain:
    """d c on every increasing (p+1)-tuple of generators, c of degree p:
    (d c)(X_0..X_p) = (-1)^p [sum_{a<b} (-1)^(a+b) c([X_a, X_b], X_0..^a..^b..X_p)
                              + sum_a (-1)^a alpha(X_a) c(X_0..^a..X_p)].
    At degree 1 this is d mu (X, Y) = <mu, [X, Y]> - alpha(X)<mu, Y> +
    alpha(Y)<mu, X>, so that the prequantization condition reads
    d_A mu = -alpha^* omega_tilde.  The bracket terms are summed first: a
    failing row prints its residual unsimplified, so the order of the sum
    shows in the report."""
    scenario, p = cochain.scenario, cochain.degree
    model = scenario.model
    fields = [scenario.generator_field(i) for i in range(model.n)]
    values = {}
    for gens in combinations(range(model.n), p + 1):
        total = {}
        for a, b in combinations(range(p + 1), 2):
            rest = gens[:a] + gens[a + 1:b] + gens[b + 1:]
            sign = (-1) ** (p + a + b)
            for m, coeff in model.bracket_entries.get((gens[a], gens[b]), ()):
                total = _fn_add(total, _fn_scale(cochain.value(m, *rest),
                                                 coeff if sign == 1 else -coeff))
        for a in range(p + 1):
            derived = fields[gens[a]].derive(cochain.value(*gens[:a], *gens[a + 1:]))
            total = _fn_add(total, _fn_scale(derived, (-1) ** (p + a)))
        values[gens] = total
    return AlgebroidCochain(scenario, p + 1, values)


def momentum_differential(s: ActionScenario) -> AlgebroidCochain:
    """d_A mu, the momentum pairings taken as a 1-cochain."""
    return algebroid_differential(AlgebroidCochain(
        s, 1, {(i,): pairing for i, pairing in enumerate(s.momentum.pairings)}))


def _pair_failures(s: ActionScenario, pairs, residual) -> list:
    """("X,Y", "{chart: residual}") for each generator pair (i, j) whose
    chartwise `residual(i, j)` does not vanish."""
    names = s.model.generator_names
    failures = []
    for i, j in pairs:
        fn = residual(i, j)
        if not all(v.is_zero() for v in fn.values()):
            failures.append((f"{names[i]},{names[j]}",
                             str({ch: str(v) for ch, v in fn.items()})))
    return failures


# ---------------------------------------------------------------------------
# the condition checks
# ---------------------------------------------------------------------------

def fiber_residual(s: ActionScenario, i) -> DifferentialForm:
    """d^J <mu, X> + (iota_{alpha(X)} omega_tilde)|_J for the generator X_i,
    the residual of the fiber Hamilton identity."""
    lhs = exterior_derivative(s.momentum.pairing_form(s.atlas, i), LEAF_J)
    contraction = interior_product(s.generator_field(i), s.presymplectic.omega_tilde)
    return lhs + contraction.restrict(LEAF_J)


def _fiber_hamilton_check(s: ActionScenario, indices) -> CheckResult:
    """d^J <mu, X> = -(iota_{alpha(X)} omega_tilde)|_J for the generators
    `indices`."""
    failures = []
    for i in indices:
        form = s.fiber_residual(i)
        if not form.is_zero():
            failures.append((s.model.generator_names[i], repr(form)))
    return CheckResult(not failures, failures)


def internal_momentum_check(s: ActionScenario) -> CheckResult:
    """d^J <mu, X> = - iota_{alpha(X)} omega for isotropy generators.  For X
    in ker(anchor), alpha(X) is tangent to J, so there the identity is the
    quantization condition."""
    return _fiber_hamilton_check(s, s.model.isotropy_indices)


def equivariance_check(s: ActionScenario) -> CheckResult:
    """alpha(X).<mu, Y> = <mu, [X, Y]> for isotropy Y (bracket-form identity).

    The dual-side convention <ad*(X) xi, Y> = <xi, ad(-X) Y> differs from this
    identity by a sign; reports carry the adopted form.
    """
    notes = ["equivariance verified as alpha(X).<mu,Y> - <mu,[X,Y]> = 0"]
    fields = [s.generator_field(i) for i in range(s.model.n)]
    pairs = ((i, j) for i in range(s.model.n) for j in s.model.isotropy_indices)
    failures = _pair_failures(s, pairs, lambda i, j: _fn_add(
        fields[i].derive(s.momentum.pairing(j)),
        _fn_scale(pairing_combination(s.atlas, s.momentum.pairings,
                                      s.model.generator_bracket(i, j)), -1)))
    return CheckResult(not failures, failures, notes)


def _exactness_check(s: ActionScenario, two_form: DifferentialForm) -> CheckResult:
    """d_A mu + alpha^* B = 0 on generator pairs, for the 2-form B."""
    fields = [s.generator_field(i) for i in range(s.model.n)]
    failures = _pair_failures(s, combinations(range(s.model.n), 2), lambda i, j: _fn_add(
        s.d_mu.value(i, j), two_form.apply(fields[i], fields[j])))
    return CheckResult(not failures, failures)


def prequantization_condition_check(s: ActionScenario) -> CheckResult:
    """d_A mu + alpha^* omega_tilde = 0 on generator pairs."""
    return _exactness_check(s, s.presymplectic.omega_tilde)


def quantization_condition_check(s: ActionScenario) -> CheckResult:
    """d^J <mu, X> = -(iota_{alpha(X)} omega_tilde)|_J for every generator."""
    return _fiber_hamilton_check(s, range(s.model.n))


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
        for ch in shift_form.coefficients:
            add = shift_form.coefficient(ch, ())
            shifted[ch] = shifted.get(ch, RationalExpr.zero()) + add
        pairings.append(shifted)
    out = s.replace(name=name or f"{s.name}+perturbation",
                    presymplectic=PresymplecticData(s.atlas, omega_new,
                                                    s.presymplectic.sample_points),
                    momentum=MomentumMapRep(s.model, pairings))
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
        zero_cochain = AlgebroidCochain(s, 0, {(): {name: f for name, chart in charts.items()
                                                    if coord in chart.coords}})
        dd = algebroid_differential(algebroid_differential(zero_cochain))
        for (i, j), fn in dd.values.items():
            failures.extend((f"{names[i]},{names[j]}@chart {ch}", f"d_A^2 {coord} = {v}")
                            for ch, v in fn.items() if not v.is_zero())
    dd_mu = algebroid_differential(s.d_mu)
    for (i, j, k), fn in dd_mu.values.items():
        failures.extend((f"{names[i]},{names[j]},{names[k]}@chart {ch}", f"d_A^2 mu = {v}")
                        for ch, v in fn.items() if not v.is_zero())
    return CheckResult(not failures, failures)
