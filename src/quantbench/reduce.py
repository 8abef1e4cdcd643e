"""Marsden-Weinstein quotients at desk scale, quantum reduction by fixed
vectors, the descent obstruction for the reduced line bundle, and the
comparison between quantizing and reducing.

Transversality, properness and freeness are scenario declarations; the module
verifies what is decidable exactly (defining equations, tangency, dimension
counts, weights) and echoes the declarations in its reports.
"""

from __future__ import annotations

from .errors import MalformedExpressionError
from .exprs import coerce_rational
from .geometry import Frozen, frozen
from .hamiltonian import ActionScenario
from .linalg import conj_transpose, inverse, is_zero_matrix, kernel_basis, mat_mul
from .reports import CheckResult
from .scalars import I, ONE, ZERO, from_ints


class ZeroLevelData(Frozen):
    """Parametrized zero level of the internal momentum map on one chart.  The
    isotropy generators are the scenario model's; the free and proper action
    of their orbits is declared, and `zero_level_check` echoes it."""

    def __init__(self, chart, equations, parametrization, param_names, orbit_dimension=0):
        vars(self).update(chart=chart, equations=tuple(coerce_rational(e) for e in equations),
                          parametrization=frozen({c: coerce_rational(v)
                                                  for c, v in parametrization.items()}),
                          param_names=tuple(param_names), orbit_dimension=int(orbit_dimension))

    @property
    def level_dimension(self):
        return len(self.param_names)


def zero_level_check(scenario: ActionScenario) -> CheckResult:
    """The scenario's zero level: its equations and momentum vanish on it."""
    z = scenario.zero_level
    failures = []
    isotropy = scenario.model.isotropy_indices
    for eq in z.equations:
        resid = eq.subst(z.parametrization).simplify()
        if not resid.is_zero():
            failures.append(("defining-equation", str(resid)))
    for i in isotropy:
        pairing = scenario.momentum.pairing(i).get(z.chart)
        if pairing is None:
            continue
        resid = pairing.subst(z.parametrization).simplify()
        if not resid.is_zero():
            failures.append(("momentum-vanishing",
                             f"generator {i}: {resid}"))
    # isotropy orbit directions are tangent to the zero level
    for i in isotropy:
        field = scenario.generator_field(i)
        for eq in z.equations:
            derived = field.derive(eq, z.chart).subst(z.parametrization)
            if not derived.is_zero():
                failures.append(("tangency", f"generator {i}"))
    return CheckResult(not failures, failures,
                       notes=["freeness declared: True", "properness declared: True"])


class ReducedSpace(Frozen):
    def __init__(self, kind, dimension):
        vars(self).update(kind=kind, dimension=dimension)  # kind "point" or "symplectic"

    def __repr__(self):
        return f"ReducedSpace({self.kind}, dim {self.dimension})"


def internal_mw_quotient(z: ZeroLevelData) -> ReducedSpace:
    """Per-fiber symplectic quotient of the zero level by the isotropy orbits."""
    quotient_dim = z.level_dimension - z.orbit_dimension
    if quotient_dim < 0:
        raise MalformedExpressionError("orbit dimension exceeds the zero level")
    if quotient_dim == 0:
        return ReducedSpace("point", 0)
    if z.orbit_dimension == 0:
        # trivial isotropy: the quotient is the zero level, and the restricted
        # form is the reduced form
        return ReducedSpace("symplectic", quotient_dim)
    raise MalformedExpressionError(
        "positive-dimensional quotients with nontrivial isotropy need a declared model")


# ---------------------------------------------------------------------------
# quantum reduction
# ---------------------------------------------------------------------------

class QuantumReduction(Frozen):
    """The fixed vectors of a representation with n x n Gram matrix G: the
    n x k matrix B (`matrix`) whose columns are the `basis`, the pairing B†G
    with them, the restricted Gram matrix B†GB (`gram`) and the metric
    projector B (B†GB)^-1 B†G."""

    def __init__(self, source_gram, basis_columns):
        n = len(source_gram)
        b = [[column[i] for column in basis_columns] for i in range(n)]
        pairing = mat_mul(conj_transpose(b), source_gram)  # k x n
        gram = mat_mul(pairing, b)  # k x k, Hermitian positive
        if not basis_columns:
            projector = [[ZERO] * n for _ in range(n)]
        else:
            gram_inv = inverse(gram)
            if gram_inv is None:
                raise MalformedExpressionError("singular Gram restriction")
            projector = mat_mul(mat_mul(b, gram_inv), pairing)
        vars(self).update(basis=frozen(basis_columns), matrix=frozen(b),
                          pairing=frozen(pairing), gram=frozen(gram), projector=frozen(projector))

    @property
    def dimension(self):
        return len(self.basis)


def quantum_fixed_subspace(scenario: ActionScenario) -> QuantumReduction:
    """Joint kernel of the isotropy matrices of the `representation`, with metric projector."""
    result = scenario.representation
    stacked = [[coerce_rational(v) for v in row]
               for idx in scenario.model.isotropy_indices for row in result.matrices[idx]]
    return QuantumReduction(result.gram, kernel_basis(stacked, result.dimension))


def projector_checks(scenario: ActionScenario) -> CheckResult:
    """Idempotence of the projector of the scenario's `fixed_subspace` and
    its commutation with the full representation matrices."""
    fixed = scenario.fixed_subspace
    failures = []
    p = fixed.projector
    if not is_zero_matrix(mat_mul(p, p), minus=p):
        failures.append(("idempotent", "P^2 != P"))
    for idx, mat in enumerate(scenario.representation.matrices):
        if not is_zero_matrix(mat_mul(p, mat), minus=mat_mul(mat, p)):
            failures.append(("invariance",
                             f"projector does not commute with generator {idx}"))
    return CheckResult(not failures, failures, [f"fixed-subspace dimension {fixed.dimension}"])


# ---------------------------------------------------------------------------
# descent obstruction and the quantization/reduction comparison
# ---------------------------------------------------------------------------

class Descent(Frozen):
    """The isotropy `weights` on the frame along the zero level, their
    `obstructions` (weight mod 1) and the `failures` of weights that vary
    along it.  The line bundle `descends` iff every weight is constant and integral."""

    def __init__(self, weights, failures):
        descends = not failures and all(w.is_integer() for w in weights.values())
        obstructions = {name: from_ints(w.num[0] % w.den, 0, w.den)
                        for name, w in weights.items() if w.is_real()}
        vars(self).update(weights=frozen(weights), obstructions=frozen(obstructions),
                          failures=frozen(failures), descends=descends,
                          status="pass" if descends else "hypotheses-not-met")

    def result(self) -> CheckResult:
        """The `descent-obstruction` record."""
        notes = [f"weights: {[f'{k}: {v}' for k, v in self.weights.items()]}",
                 f"obstruction (weight mod 1): "
                 f"{[f'{k}: {v}' for k, v in self.obstructions.items()]}"]
        return CheckResult(not self.failures, self.failures, notes, status=self.status)


def descent_obstruction_check(scenario: ActionScenario) -> Descent:
    """The descent of the line bundle along the scenario's zero level, read
    from the potentials of its `operators`."""
    bundle, z = scenario.bundle, scenario.zero_level
    weights = {}
    failures = []
    patch = None
    for idx in bundle.cover.index_set:
        if bundle.patch_chart(idx) == z.chart:
            patch = idx
            break
    if patch is None:
        raise MalformedExpressionError("no bundle patch covers the zero-level chart")
    for i in scenario.model.isotropy_indices:
        potential = scenario.operators[i].potential_part(patch)
        restricted = potential.subst(z.parametrization).simplify()
        if not restricted.is_constant():
            failures.append(("weight", f"generator {i}: non-constant along the level"))
            continue
        eigen = restricted.constant_value()
        weight = eigen * (-I)  # eigenvalue = i * weight for the circle generator
        weights[scenario.model.generator_names[i]] = weight
    return Descent(weights, failures)


def qr_commute_check(scenario: ActionScenario) -> CheckResult:
    """Compare the quantization of the scenario's `reduced` space with its
    `fixed_subspace`, given the `descent` obstruction of the line bundle.  A
    point quotient quantizes to the line with unit Gram matrix and trivial
    action; positive-dimensional quotients have no declared quantization."""
    fixed, descent = scenario.fixed_subspace, scenario.descent
    if not descent.descends:
        return _qr_result("hypotheses-not-met", fixed, None, descent,
                          ["line bundle does not descend; comparison hypotheses not met",
                           f"fixed-subspace dimension {fixed.dimension}"])
    if scenario.reduced.kind != "point":
        raise MalformedExpressionError(
            "no declared quantization for a positive-dimensional quotient")
    if fixed.dimension != 1:
        return _qr_result("fail", fixed, 1, descent, ["dimension mismatch"])
    # intertwining: the non-isotropy generators must act on the fixed line as
    # they act on the reduced one, trivially
    residual = [idx for idx, mat in enumerate(scenario.representation.matrices)
                if idx not in scenario.model.isotropy_indices and
                not mat_mul(fixed.pairing, mat_mul(mat, fixed.matrix))[0][0].is_zero()]
    if residual:
        return _qr_result("fail", fixed, 1, descent,
                          [f"intertwiner fails on generators {residual}"])
    ratio = (coerce_rational(ONE) / fixed.gram[0][0]).simplify()
    if not (ratio.is_constant() and ratio.constant_value().is_positive()):
        return _qr_result("fail", fixed, 1, descent, ["Gram ratio not positive"])
    return _qr_result("pass", fixed, 1, descent,
                      [f"unitary normalizer: scale^2 = reduced Gram / fixed Gram = {ratio}"],
                      ["intertwiner: [['1']]", f"intertwiner scale^2 = {ratio.constant_value()}"])


def _qr_result(status, fixed, reduced_dimension, descent, notes, intertwiner=()):
    """The record: `notes`, both dimensions, the obstruction weights unless the
    comparison fails, then the `intertwiner` notes of a pass."""
    notes.append(f"fixed dimension {fixed.dimension}, reduced dimension {reduced_dimension}")
    if status != "fail" and descent.obstructions:
        notes.append("obstruction weights: " + ", ".join(
            f"{k}: {v}" for k, v in descent.obstructions.items()))
    failures = [("qr", f"fixed {fixed.dimension}, reduced {reduced_dimension}")] \
        if status == "fail" else []
    return CheckResult(status != "fail", failures, notes + list(intertwiner), status=status)
