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
from .quantize import QuantizationResult
from .reports import CheckResult
from .scalars import I, ONE, ZERO, from_ints


class ZeroLevelData(Frozen):
    """Parametrized zero level of the internal momentum map on one chart.  The
    isotropy generators are the scenario model's; the free and proper action
    of their orbits is declared, and `verify` echoes it."""

    def __init__(self, chart, equations, parametrization, param_names, orbit_dimension=0):
        vars(self).update(chart=chart, equations=tuple(coerce_rational(e) for e in equations),
                          parametrization=frozen({c: coerce_rational(v)
                                                  for c, v in parametrization.items()}),
                          param_names=tuple(param_names), orbit_dimension=int(orbit_dimension))

    @property
    def level_dimension(self):
        return len(self.param_names)

    def verify(self, scenario: ActionScenario) -> CheckResult:
        """Equations vanish on the parametrization; momentum vanishes too."""
        failures = []
        isotropy = scenario.model.isotropy_indices
        for eq in self.equations:
            resid = eq.subst(self.parametrization).simplify()
            if not resid.is_zero():
                failures.append(("defining-equation", str(resid)))
        for i in isotropy:
            pairing = scenario.momentum.pairing(i).get(self.chart)
            if pairing is None:
                continue
            resid = pairing.subst(self.parametrization).simplify()
            if not resid.is_zero():
                failures.append(("momentum-vanishing",
                                 f"generator {i}: {resid}"))
        # isotropy orbit directions are tangent to the zero level
        for i in isotropy:
            field = scenario.generator_field(i)
            for eq in self.equations:
                derived = field.derive(eq, self.chart).subst(self.parametrization)
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
    """The vectors of `source` that the `isotropy_indices` generators fix: the
    n x k matrix B (`matrix`) whose columns are the `basis`, the pairing B†G
    with them in the Gram metric G, the restricted Gram matrix B†GB (`gram`)
    and the metric projector B (B†GB)^-1 B†G."""

    def __init__(self, source: QuantizationResult, isotropy_indices, basis_columns):
        n = source.dimension
        b = [[column[i] for column in basis_columns] for i in range(n)]
        pairing = mat_mul(conj_transpose(b), source.gram)  # k x n
        gram = mat_mul(pairing, b)  # k x k, Hermitian positive
        if not basis_columns:
            projector = [[ZERO] * n for _ in range(n)]
        else:
            gram_inv = inverse(gram)
            if gram_inv is None:
                raise MalformedExpressionError("singular Gram restriction")
            projector = mat_mul(mat_mul(b, gram_inv), pairing)
        vars(self).update(source=source, isotropy_indices=tuple(isotropy_indices),
                          basis=frozen(basis_columns), matrix=frozen(b),
                          pairing=frozen(pairing), gram=frozen(gram), projector=frozen(projector))

    @property
    def dimension(self):
        return len(self.basis)


def quantum_fixed_subspace(result: QuantizationResult,
                           isotropy_indices) -> QuantumReduction:
    """Joint kernel of the isotropy generator matrices, with metric projector."""
    stacked = [[coerce_rational(v) for v in row]
               for idx in isotropy_indices for row in result.matrices[idx]]
    return QuantumReduction(result, isotropy_indices,
                            kernel_basis(stacked, result.dimension))


def projector_checks(red: QuantumReduction) -> CheckResult:
    """Idempotence and commutation with the full representation matrices."""
    failures = []
    p = red.projector
    if not is_zero_matrix(mat_mul(p, p), minus=p):
        failures.append(("idempotent", "P^2 != P"))
    for idx, mat in enumerate(red.source.matrices):
        if not is_zero_matrix(mat_mul(p, mat), minus=mat_mul(mat, p)):
            failures.append(("invariance",
                             f"projector does not commute with generator {idx}"))
    return CheckResult(not failures, failures)


# ---------------------------------------------------------------------------
# descent obstruction and the quantization/reduction comparison
# ---------------------------------------------------------------------------

def descent_obstruction_check(scenario: ActionScenario, ops) -> CheckResult:
    """Isotropy weight on the frame along the scenario's zero level; descends
    iff integral.  `ops` are the operators of `kostant_operator`."""
    bundle = ops[0].bundle
    z = scenario.zero_level
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
        potential = ops[i].potential_part(patch)
        restricted = potential.subst(z.parametrization).simplify()
        if not restricted.is_constant():
            failures.append(("weight", f"generator {i}: non-constant along the level"))
            continue
        eigen = restricted.constant_value()
        weight = eigen * (-I)  # eigenvalue = i * weight for the circle generator
        weights[scenario.model.generator_names[i]] = weight
    obstructions = {name: from_ints(w.num[0] % w.den, 0, w.den)
                    for name, w in weights.items() if w.is_real()}
    descends = all(w.is_integer() for w in weights.values()) and not failures
    notes = [f"weights: {[f'{k}: {v}' for k, v in weights.items()]}",
             f"obstruction (weight mod 1): {[f'{k}: {v}' for k, v in obstructions.items()]}"]
    status = "pass" if descends else "hypotheses-not-met"
    result = CheckResult(not failures, failures, notes, status=status)
    result.weights = weights
    result.obstructions = obstructions
    result.descends = descends
    return result


def qr_commute_check(fixed: QuantumReduction, reduced: ReducedSpace,
                     descent: CheckResult) -> CheckResult:
    """Compare the quantization of the `reduced` space with the `fixed`
    subspace, given the `descent` obstruction of the line bundle.  A point
    quotient quantizes to the line with unit Gram matrix and trivial action;
    positive-dimensional quotients have no declared quantization."""
    if not descent.descends:
        return _qr_result("hypotheses-not-met", fixed, None, descent,
                          ["line bundle does not descend; comparison hypotheses not met",
                           f"fixed-subspace dimension {fixed.dimension}"])
    if reduced.kind != "point":
        raise MalformedExpressionError(
            "no declared quantization for a positive-dimensional quotient")
    if fixed.dimension != 1:
        return _qr_result("fail", fixed, 1, descent, ["dimension mismatch"])
    # intertwining: the non-isotropy generators must act on the fixed line as
    # they act on the reduced one, trivially
    residual = [idx for idx, mat in enumerate(fixed.source.matrices)
                if idx not in fixed.isotropy_indices and
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
