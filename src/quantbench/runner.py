"""Check orchestration.  `CHECKS` is the one ordered table of the verification
stack: structure -> momentum conditions -> prequantization -> quantization ->
reduction.  Each row declares a check's id, stage, anchor, the artifacts it
needs and its function; `run_scenario` walks the table once."""

from __future__ import annotations

import time
from functools import cached_property
from typing import Callable, NamedTuple

from . import bundles, hamiltonian, quantize, reduce as reduce_mod
from .errors import CurvatureMismatchError, UnknownCheckError
from .gauge import curvature_formula_check, gauge_momentum_verify, \
    quantization_isomorphism_check
from .reports import CheckRecord, CheckResult, Report


class RunContext:
    """One run's scenario and artifacts.  The stage inputs are the
    scenario's own fields.  The checks that produce `operators`, `basis`,
    `representation`, `reduced`, `descent` and `fixed_subspace` set them;
    `d_mu` is built on first use by the rows that read it."""

    def __init__(self, scenario):
        self.scenario = scenario
        self.has_fibers = any(chart.fiber_coords for chart in scenario.atlas.charts.values())
        self.operators = self.basis = self.representation = None
        self.reduced = self.descent = self.fixed_subspace = None

    @cached_property
    def d_mu(self):
        """d_A mu, or None when the scenario declares no momentum map."""
        s = self.scenario
        return None if s.momentum is None else hamiltonian.momentum_differential(s)


class Check(NamedTuple):
    """One row of the table.  A selected check runs when `applies` holds and
    the producers of its `needs` ran; it is `skipped` when the producer of one
    of its `needs` or `uses` (artifacts read if the scenario has them) failed
    or was skipped.  `note` may add an informational record in its place."""
    id: str
    stage: str
    anchor: str
    run: Callable
    needs: tuple = ()
    uses: tuple = ()
    produces: str | None = None
    applies: Callable = lambda ctx: True
    note: Callable = lambda ctx: None


def _degenerate_downgrade(ctx, result, kinds=None):
    """Declared degenerate levels (point orbits modeled with the zero form)
    report failed nondegeneracy/positivity as unmet hypotheses."""
    if ctx.scenario.degenerate and not result.ok and \
            (kinds is None or all(f[0] in kinds for f in result.failures)):
        result.status = "hypotheses-not-met"
        result.ok = True
        result.notes.append("level 0 is the point orbit; the sphere model "
                            "carries the zero form by declaration")
    return result


def _transitions(ctx):
    bad = ctx.scenario.atlas.check_transition_consistency()
    return CheckResult(not bad, [(f"{a}->{b}", c) for a, b, c in bad])


def _bracket_structure(ctx):
    jac = ctx.scenario.action_model.jacobi_on_generators()
    lei = ctx.scenario.action_model.leibniz_report()
    failures = [("jacobi", str(f)) for f in jac.failures]
    failures += [("leibniz", str(f)) for f in lei.failures]
    return CheckResult(not failures, failures)


def _curvature_match(ctx):
    try:
        ctx.operators = bundles.kostant_operator(ctx.scenario, ctx.scenario.bundle)
    except CurvatureMismatchError as exc:
        return CheckResult(False, [("curvature", repr(exc.residual))])
    return CheckResult(True)


def _holomorphic_dimension(ctx):
    s, cap = ctx.scenario, ctx.scenario.ansatz_cap
    basis = ctx.basis = quantize.holomorphic_solve(s.bundle, s.structure,
                                                   s.holomorphic_coords, cap, cap + 2)
    ok = basis.probe_dimension == basis.dimension
    failures = [] if ok else [("robustness", f"{basis.dimension} vs {basis.probe_dimension}")]
    return CheckResult(ok, failures, [f"dimension {basis.dimension} at caps {cap} and {cap + 2}"])


def _quantization(ctx):
    rep = ctx.representation = quantize.induced_representation(
        ctx.scenario, ctx.operators, ctx.basis)
    return {"dimension": rep.dimension,
            "gram": [[str(v) for v in row] for row in rep.gram],
            "matrices": {name: [[str(v) for v in row] for row in mat]
                         for name, mat in zip(rep.generator_names, rep.matrices)}}


def _internal_quotient(ctx):
    ctx.reduced = reduce_mod.internal_mw_quotient(ctx.scenario, ctx.scenario.zero_level)
    return {"reduced": repr(ctx.reduced)}


def _descent(ctx):
    ctx.descent = reduce_mod.descent_obstruction_check(ctx.scenario, ctx.operators,
                                                       ctx.scenario.zero_level)
    return ctx.descent


def _projector(ctx):
    fixed = ctx.fixed_subspace = reduce_mod.quantum_fixed_subspace(
        ctx.representation, ctx.scenario.model.isotropy_indices)
    res = reduce_mod.projector_checks(fixed)
    res.notes.append(f"fixed-subspace dimension {fixed.dimension}")
    return res


CHECKS = (
    Check("transition-consistency", "structure", "atlas transitions compose to the identity",
          _transitions),
    Check("action-morphism", "structure", "action map: additivity, linearity, bracket, anchor",
          lambda c: c.scenario.action.morphism_report(),
          produces="action"),
    Check("bracket-structure", "structure", "generator bracket satisfies Jacobi and Leibniz",
          _bracket_structure, needs=("action",)),
    Check("presymplectic", "hamiltonian", "leafwise closedness and fiberwise nondegeneracy",
          lambda c: _degenerate_downgrade(
              c, hamiltonian.presymplectic_check(c.scenario.presymplectic),
              {"nondegeneracy", "nondegeneracy-sample"})),
    Check("internal-momentum", "hamiltonian",
          "fiber identity d<mu,X> = -i_{alpha(X)} omega on ker(anchor)",
          lambda c: hamiltonian.internal_momentum_check(c.scenario)),
    Check("coadjoint-equivariance", "hamiltonian",
          "alpha(X).<mu,Y> = <mu,[X,Y]> on isotropy pairs",
          lambda c: hamiltonian.equivariance_check(c.scenario)),
    Check("prequantization-condition", "hamiltonian",
          "algebroid differential of mu equals -alpha^* omega",
          lambda c: hamiltonian.prequantization_condition_check(c.scenario, c.d_mu)),
    Check("quantization-condition", "hamiltonian",
          "fiber restriction d<mu,X> = -(i_{alpha(X)} omega)|_J",
          lambda c: hamiltonian.quantization_condition_check(c.scenario)),
    Check("differential-squares-to-zero", "hamiltonian", "algebroid differential squares to zero",
          lambda c: hamiltonian.dd_zero_report(c.scenario, c.d_mu)),
    Check("gauge-curvature-formula", "hamiltonian", "potential curvature recomputed two ways",
          lambda c: curvature_formula_check(c.scenario),
          applies=lambda c: c.scenario.gauge is not None),
    Check("gauge-momentum", "hamiltonian", "curvature pairing identity for the twisted momentum",
          lambda c: gauge_momentum_verify(c.scenario, c.d_mu),
          applies=lambda c: c.scenario.gauge is not None),
    Check("bundle-data", "prequantize",
          "cocycle, metric compatibility, gluing, Hermitian potential",
          lambda c: bundles.validate_bundle(c.scenario.bundle), produces="bundle",
          applies=lambda c: c.scenario.bundle is not None),
    Check("curvature-match", "prequantize", "chartwise curvature equals the scenario 2-form",
          _curvature_match, needs=("bundle",), produces="operators"),
    Check("representation-flatness", "prequantize", "[pi(X), pi(Y)] = pi([X,Y]) on local sections",
          lambda c: bundles.rep_flatness_check(c.scenario, c.operators),
          needs=("operators",)),
    Check("representation-hermitian", "prequantize",
          "pairing derivative identity for the operators",
          lambda c: bundles.rep_hermitian_check(c.scenario, c.operators),
          needs=("operators",)),
    Check("connection-equivariance", "prequantize", "[pi(X), nabla_v] = nabla_{[alpha(X), v]}",
          lambda c: bundles.connection_equivariance_check(c.scenario, c.operators),
          needs=("operators",)),
    Check("chern-witness", "prequantize", "alpha^* curvature is exact with the momentum witness",
          lambda c: bundles.chern_class_algebroid(c.scenario, c.scenario.bundle, c.d_mu),
          needs=("bundle",)),
    Check("complex-structure", "quantize", "j^2 = -1 and transition compatibility",
          lambda c: c.scenario.structure.validate(), produces="structure",
          applies=lambda c: c.scenario.bundle is not None and
          c.scenario.structure is not None and c.has_fibers),
    Check("kahler-positivity", "quantize", "omega(j . , .) positive at sample points",
          lambda c: _degenerate_downgrade(
              c, c.scenario.structure.positivity_check(c.scenario.presymplectic.omega)),
          needs=("structure",)),
    Check("polarization-equivariance", "quantize", "[alpha(X), j v] = j [alpha(X), v]",
          lambda c: quantize.polarization_equivariance_check(c.scenario, c.scenario.structure),
          needs=("structure",)),
    Check("holomorphic-dimension", "quantize", "solution-space dimension with cap robustness",
          _holomorphic_dimension, needs=("bundle", "structure"), produces="basis",
          applies=lambda c: c.scenario.holomorphic_coords is not None,
          note=lambda c: None if c.has_fibers else "fibers are points; quantization empty"),
    Check("quantization", "quantize", "exact Gram matrix and representation matrices",
          _quantization, needs=("basis", "operators"), produces="representation"),
    Check("gram-positivity", "quantize", "exact leading principal minors of the Gram matrix",
          lambda c: CheckResult(quantize.leading_minors_positive(c.representation.gram)),
          needs=("representation",)),
    Check("matrix-commutation", "quantize", "representation matrices close under the bracket",
          lambda c: quantize.commutation_check(c.representation, c.scenario.model),
          needs=("representation",)),
    Check("infinitesimal-unitarity", "quantize", "M^dagger G + G M = 0 exactly",
          lambda c: quantize.unitarity_check(c.representation), needs=("representation",)),
    Check("quantization-isomorphism", "quantize", "twisted quantization matches the fiber model",
          lambda c: quantization_isomorphism_check(c.scenario, c.representation),
          uses=("representation",), applies=lambda c: c.scenario.gauge is not None),
    Check("integrated-representation", "quantize", "closed-form integrated action data",
          lambda c: quantize.integrate_representation(c.scenario, c.representation),
          uses=("representation",),
          applies=lambda c: bool(c.scenario.integration)),
    Check("zero-level", "reduce", "defining equations, tangency, declared regularity",
          lambda c: c.scenario.zero_level.verify(c.scenario), produces="zero_level",
          applies=lambda c: c.scenario.zero_level is not None),
    Check("internal-quotient", "reduce", "fiberwise reduced model and dimension count",
          _internal_quotient, needs=("zero_level",), produces="reduced",
          note=lambda c: c.scenario.full_quotient and
          f"full quotient: {c.scenario.full_quotient}"),
    Check("descent-obstruction", "reduce", "isotropy weight on the frame along the zero level",
          _descent, needs=("operators", "zero_level"), produces="descent"),
    Check("quantum-projector", "reduce", "fixed-subspace projector idempotent and invariant",
          _projector, needs=("representation", "zero_level"), produces="fixed_subspace"),
    Check("qr-comparison", "reduce", "reduced quantization versus fixed subspace",
          lambda c: reduce_mod.qr_commute_check(c.fixed_subspace, c.reduced, c.descent),
          needs=("reduced", "descent", "fixed_subspace")),
)
STAGES = tuple(dict.fromkeys(check.stage for check in CHECKS))
PRODUCER = {check.produces: check.id for check in CHECKS if check.produces}


def select_checks(checks=None) -> set:
    """Ids of the checks a filter of check ids and stage names selects, plus
    the checks producing what those need or use."""
    if not checks:
        return {check.id for check in CHECKS}
    checks = set(checks)
    unknown = checks - {check.id for check in CHECKS} - set(STAGES)
    if unknown:
        raise UnknownCheckError(f"unknown check or stage: {', '.join(sorted(unknown))}")
    selected = {check.id for check in CHECKS if check.id in checks or check.stage in checks}
    for check in reversed(CHECKS):  # every producer precedes its consumers
        if check.id in selected:
            selected.update(PRODUCER[name] for name in check.needs + check.uses)
    return selected


def _execute(check, ctx) -> CheckRecord:
    """Run one check; any exception becomes a failed record."""
    start = time.perf_counter()
    try:
        result = check.run(ctx)
    except Exception as exc:
        result = CheckResult(False, [(type(exc).__name__, str(exc))])
    seconds = time.perf_counter() - start
    if isinstance(result, CheckResult):
        return CheckRecord(check.id, result.status, result.failures, result.notes,
                           seconds=seconds, anchor=check.anchor)
    return CheckRecord(check.id, "pass", details=result or {}, seconds=seconds,
                       anchor=check.anchor)


def run_scenario(scenario: hamiltonian.ActionScenario, checks=None, seed=1729) -> Report:
    """Run the check table on `scenario`; `checks` filters by check id or stage
    name and pulls in the checks the selected ones depend on.  Every check is
    decided on a finite test set, so `seed` is accepted and read by none
    (`perfbench/one_pass.py` passes one)."""
    selected = select_checks(checks)
    ctx = RunContext(scenario)
    report = Report(ctx.scenario.name)
    status = {}
    for check in (check for check in CHECKS if check.id in selected):
        note = check.note(ctx)
        if note:
            report.add(CheckRecord("scenario-note", "pass", notes=[note],
                                   anchor="informational record"))
        if not check.applies(ctx) or any(PRODUCER[name] not in status for name in check.needs):
            continue
        broken = [f"needs {name} from {PRODUCER[name]}, which "
                  f"{'failed' if status[PRODUCER[name]] == 'fail' else 'was skipped'}"
                  for name in check.needs + check.uses
                  if status.get(PRODUCER[name]) in ("fail", "skipped")]
        record = CheckRecord(check.id, "skipped", notes=broken, anchor=check.anchor) \
            if broken else _execute(check, ctx)
        report.add(record)
        status[check.id] = record.status
    return report
