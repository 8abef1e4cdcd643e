"""Exact verification workbench for momentum maps on fibered spaces with
Lie-algebroid symmetry: presymplectic data, prequantization line bundles,
fiberwise Kahler quantization and symplectic/quantum reduction, all over the
Gaussian rationals (with a formal 2*pi*i token), so every identity is decided
exactly."""

import importlib

from .scalars import ExactScalar, rational
from .exprs import PolyExpr, RationalExpr, parse_expr
from .geometry import (
    Chart,
    DifferentialForm,
    FiberedAtlas,
    Transition,
    VectorField,
    exterior_derivative,
    glue_check,
    interior_product,
    lie_derivative,
    pullback,
)
from .liealg import (
    ActionMap,
    AlgebroidModel,
    SectionRep,
    action_algebroid,
    lie_algebra,
    su2,
    u1,
)
from .cech import GoodCover, OverlapFunction
from .hamiltonian import (
    ActionScenario,
    MomentumMapRep,
    PresymplecticData,
    algebroid_differential,
    equivariance_check,
    internal_momentum_check,
    perturb,
    prequantization_condition_check,
    presymplectic_check,
    quantization_condition_check,
)
from .bundles import (
    KostantOperator,
    LineBundleData,
    chern_class_algebroid,
    connection_equivariance_check,
    curvature,
    kostant_operator,
    pic_dual,
    pic_tensor,
    rep_flatness_check,
    rep_hermitian_check,
    validate_bundle,
)
from .quantize import (
    ComplexStructureData,
    QuantizationResult,
    holomorphic_solve,
    induced_representation,
    inner_product,
    integrate_representation,
    polarization_equivariance_check,
)
from .reduce import (
    QuantumReduction,
    ReducedSpace,
    ZeroLevelData,
    descent_obstruction_check,
    internal_mw_quotient,
    qr_commute_check,
    quantum_fixed_subspace,
    zero_level_check,
)
from .gauge import (
    GaugeScenario,
    PrincipalBundleData,
    build_gauge_scenario,
    gauge_momentum_verify,
    quantization_isomorphism_check,
)
from .catalog import build_scenario, list_scenarios
from .runner import run_scenario
from .reports import CheckResult, Report

__version__ = "0.1.0"

# Names that no stage of a run calls, each with the module that defines it.
# Such a module loads on first use of one of its names (PEP 562), so a run
# never compiles it.
_ON_DEMAND = {
    "Ad": "groups",
    "GroupElement": "groups",
    "coAd": "groups",
    "Cochain": "integrality",
    "CohomologyClass": "integrality",
    "IntegralityReport": "integrality",
    "cech_delta": "integrality",
    "cohomology_compute": "integrality",
    "construct_from_integral_class": "integrality",
    "derham_to_cech": "integrality",
    "integrality_test": "integrality",
    "poincare_primitive": "integrality",
}


def __getattr__(name):
    module = _ON_DEMAND.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
