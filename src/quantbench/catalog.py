"""Built-in scenario catalog.

Conventions used throughout (recorded in reports):
  * the projective-line fiber carries charts N(x, y) / S(u, v) with transition
    u = x/r^2, v = -y/r^2; the chart holomorphic coordinate is z = x - i y;
  * the unit area form is omega_FS = (1/pi)(1 + r^2)^-2 dx dy, written with
    1/pi = 2i/twopii;
  * direction functions n1 = x/(pi(1+r^2)), n2 = -y/(pi(1+r^2)),
    n3 = (r^2-1)/(2 pi (1+r^2)) make mu_a = (level/2) n_a a momentum map for
    level * omega_FS with the rotation fields below.
"""

from __future__ import annotations

from fractions import Fraction

from .bundles import LineBundleData, TransitionValue
from .cech import GoodCover
from .errors import UnknownScenarioError
from .exprs import RationalExpr, parse_expr
from .geometry import (
    Chart,
    DifferentialForm,
    FiberedAtlas,
    LEAF_J,
    LEAF_JTILDE,
    Transition,
    VectorField,
)
from .hamiltonian import ActionScenario, MomentumMapRep, PresymplecticData
from .liealg import ActionMap, AlgebroidModel, su2, u1
from .gauge import PrincipalBundleData, build_gauge_scenario
from .quantize import ComplexStructureData
from .reduce import ZeroLevelData
from .scalars import ExactScalar


def _pe(text):
    return parse_expr(text)


def _scale(expr, q: Fraction):
    return expr * ExactScalar(q)


# ---------------------------------------------------------------------------
# the projective-line fiber
# ---------------------------------------------------------------------------

def sphere_atlas() -> FiberedAtlas:
    n = Chart("N", fiber_coords=("x", "y"), star_shaped=True)
    s = Chart("S", fiber_coords=("u", "v"), star_shaped=True)
    t_ns = Transition("N", "S", {"u": _pe("x/(x^2+y^2)"), "v": _pe("-y/(x^2+y^2)")},
                      overlap="x^2+y^2 != 0")
    t_sn = Transition("S", "N", {"x": _pe("u/(u^2+v^2)"), "y": _pe("-v/(u^2+v^2)")},
                      overlap="u^2+v^2 != 0")
    return FiberedAtlas([n, s], [t_ns, t_sn], leaf_structure="single leaf")


def omega_fs(atlas, level: Fraction, leafwise_class=LEAF_JTILDE) -> DifferentialForm:
    return DifferentialForm(atlas, 2, leafwise_class, {
        "N": {("x", "y"): _scale(_pe("2*i/(twopii*(1+x^2+y^2)^2)"), level)},
        "S": {("u", "v"): _scale(_pe("2*i/(twopii*(1+u^2+v^2)^2)"), level)},
    })


def rotation_fields(atlas):
    v1 = VectorField(atlas, LEAF_J, {
        "N": {"x": _pe("x*y"), "y": _pe("(1-x^2+y^2)/2")},
        "S": {"u": _pe("u*v"), "v": _pe("(1-u^2+v^2)/2")}})
    v2 = VectorField(atlas, LEAF_J, {
        "N": {"x": _pe("(1+x^2-y^2)/2"), "y": _pe("x*y")},
        "S": {"u": _pe("-(1+u^2-v^2)/2"), "v": _pe("-u*v")}})
    v3 = VectorField(atlas, LEAF_J, {
        "N": {"x": _pe("-y"), "y": _pe("x")},
        "S": {"u": _pe("v"), "v": _pe("-u")}})
    return [v1, v2, v3]


def direction_functions():
    n1 = {"N": _pe("2*i*x/(twopii*(1+x^2+y^2))"),
          "S": _pe("2*i*u/(twopii*(1+u^2+v^2))")}
    n2 = {"N": _pe("-2*i*y/(twopii*(1+x^2+y^2))"),
          "S": _pe("2*i*v/(twopii*(1+u^2+v^2))")}
    n3 = {"N": _pe("i*(x^2+y^2-1)/(twopii*(1+x^2+y^2))"),
          "S": _pe("-i*(u^2+v^2-1)/(twopii*(1+u^2+v^2))")}
    return [n1, n2, n3]


def standard_complex_structure(atlas) -> ComplexStructureData:
    mat = [[_pe("0"), _pe("1")], [_pe("-1"), _pe("0")]]
    samples = [{"chart": "N", "point": {"x": 0.4, "y": -0.3}},
               {"chart": "S", "point": {"u": 0.2, "v": 0.5}}]
    return ComplexStructureData(atlas, {"N": mat, "S": [[r for r in row] for row in mat]},
                                positivity_samples=samples)


def holomorphic_coordinates():
    return {"N": _pe("x - i*y"), "S": _pe("u - i*v")}


def two_chart_cover(atlas) -> GoodCover:
    return GoodCover(atlas, ["N", "S"], [("N", "S")],
                     chart_refs={("N",): "N", ("S",): "S", ("N", "S"): "N"})


def o_bundle(atlas, k: int, cover=None) -> LineBundleData:
    """Degree-k line bundle in holomorphic frames with the round metric."""
    cover = cover or two_chart_cover(atlas)
    z = _pe("x - i*y")
    c = TransitionValue("N", z ** k if k >= 0 else (RationalExpr.const(1) / z) ** (-k))
    q_n, q_s = _pe("1+x^2+y^2"), _pe("1+u^2+v^2")
    h_n = (RationalExpr.const(1) / q_n) ** k if k >= 0 else q_n ** (-k)
    h_s = (RationalExpr.const(1) / q_s) ** k if k >= 0 else q_s ** (-k)
    eta_n = DifferentialForm(atlas, 1, LEAF_JTILDE, {"N": {
        ("x",): _scale(_pe("(i*i*x - i*y)/(twopii*(1+x^2+y^2))"), Fraction(k)),
        ("y",): _scale(_pe("(i*i*y + i*x)/(twopii*(1+x^2+y^2))"), Fraction(k))}})
    eta_s = DifferentialForm(atlas, 1, LEAF_JTILDE, {"S": {
        ("u",): _scale(_pe("(i*i*u - i*v)/(twopii*(1+u^2+v^2))"), Fraction(k)),
        ("v",): _scale(_pe("(i*i*v + i*u)/(twopii*(1+u^2+v^2))"), Fraction(k))}})
    return LineBundleData(f"O({k})", cover, {("N", "S"): c},
                          {"N": h_n, "S": h_s}, {"N": eta_n, "S": eta_s})


def _fs_samples():
    return [{"chart": "N", "point": {"x": 0.3, "y": -0.2}},
            {"chart": "S", "point": {"u": -0.4, "v": 0.1}}]


def _sphere_quantization(atlas, k: int) -> dict:
    """Stage inputs of the level-k sphere: O(k), the standard polarization and
    the monomial ansatz in z."""
    return dict(bundle=o_bundle(atlas, k), structure=standard_complex_structure(atlas),
                holomorphic_coords=holomorphic_coordinates(), ansatz_cap=max(k, 0) + 2)


def su2_orbit_scenario(k: int) -> ActionScenario:
    """Coadjoint-orbit scenario: su(2) rotations on the sphere of level k."""
    atlas = sphere_atlas()
    model = su2()
    fields = rotation_fields(atlas)
    action = ActionMap(model, atlas, fields, name="su2-rotations")
    half = Fraction(k, 2)
    pairings = [{ch: _scale(v, half) for ch, v in n.items()}
                for n in direction_functions()]
    momentum = MomentumMapRep(model, pairings)
    presymplectic = PresymplecticData(atlas, omega_fs(atlas, Fraction(k)),
                                      sample_points=_fs_samples())
    return ActionScenario(f"su2-orbit-{k}", model, action, presymplectic, momentum,
                          level=k, degenerate=k == 0, **_sphere_quantization(atlas, k))


def u1_rotation_scenario(k: int) -> ActionScenario:
    """Circle rotation about the vertical axis on the level-k sphere."""
    atlas = sphere_atlas()
    model = u1()
    fields = rotation_fields(atlas)
    action = ActionMap(model, atlas, [fields[2]], name="u1-rotation")
    half = Fraction(k, 2)
    n3 = direction_functions()[2]
    momentum = MomentumMapRep(model, [{ch: _scale(v, half) for ch, v in n3.items()}])
    presymplectic = PresymplecticData(atlas, omega_fs(atlas, Fraction(k)),
                                      sample_points=_fs_samples())
    # the equator; the rational parametrization omits one point of the circle
    zero_level = ZeroLevelData(
        "N", [_pe("x^2+y^2-1")],
        {"x": _pe("(1-t^2)/(1+t^2)"), "y": _pe("2*t/(1+t^2)")}, ("t",), orbit_dimension=1)
    return ActionScenario(f"u1-rotation-reduction-{k}", model, action, presymplectic,
                          momentum, level=k, integration="u1-weights",
                          zero_level=zero_level, **_sphere_quantization(atlas, k))


# ---------------------------------------------------------------------------
# gauge scenarios
# ---------------------------------------------------------------------------

def base_plane_atlas() -> FiberedAtlas:
    return FiberedAtlas([Chart("B", base_coords=("b1", "b2"), star_shaped=True)])


def _plane_gauge(name, algebra, fiber: ActionScenario, twist: Fraction) -> ActionScenario:
    """`fiber` twisted over the plane by A = twist * b1 db2 along the last
    basis element of the structure algebra."""
    zero = _pe("0")
    a2 = [zero] * (algebra.n - 1) + [_scale(_pe("b1"), twist)]
    bundle_data = PrincipalBundleData(base_plane_atlas(), algebra, [[zero] * algebra.n, a2])
    return build_gauge_scenario(bundle_data, fiber, name=name)


def gauge_su2_scenario(k: int, twist: Fraction = Fraction(1)) -> ActionScenario:
    """Nonflat su(2) potential over the plane twisting the level-k sphere."""
    return _plane_gauge(f"gauge-su2-{k}", su2(), su2_orbit_scenario(k), twist)


def gauge_u1_character_scenario(n: int, twist: Fraction = Fraction(1)) -> ActionScenario:
    """U(1) character n over the plane: the fiber is a point."""
    atlas = FiberedAtlas([Chart("pt", star_shaped=True)])
    model = u1()
    action = ActionMap(model, atlas, [VectorField(atlas, LEAF_J, {"pt": {}})],
                       name="u1-character")
    presymplectic = PresymplecticData(atlas, DifferentialForm(atlas, 2, LEAF_JTILDE,
                                                              {"pt": {}}))
    momentum = MomentumMapRep(model, [{"pt": RationalExpr.const(n)}])
    point = ActionScenario(f"u1-character-{n}", model, action, presymplectic, momentum,
                           level=n)
    return _plane_gauge(f"gauge-u1-char-{n}", u1(), point, twist)


def gauge_u1_rotation_scenario(k: int, twist: Fraction = Fraction(1)) -> ActionScenario:
    """U(1) structure group acting on the level-k sphere, twisted over the plane."""
    return _plane_gauge(f"gauge-u1-rot-{k}", u1(), u1_rotation_scenario(k), twist)


# ---------------------------------------------------------------------------
# flat / degenerate catalog entries
# ---------------------------------------------------------------------------

def pair_groupoid_scenario() -> ActionScenario:
    """Pair groupoid of the line acting on itself: everything collapses."""
    atlas = FiberedAtlas([Chart("L", base_coords=("s",), orbit_coords=("s",),
                                star_shaped=True)])
    field = VectorField(atlas, LEAF_JTILDE, {"L": {"s": 1}})
    model = AlgebroidModel("pair-line", "tangent", atlas, ("ds",), {}, [field])
    action = ActionMap(model, atlas, [field], name="translation")
    omega = DifferentialForm(atlas, 2, LEAF_JTILDE, {"L": {}})
    momentum = MomentumMapRep(model, [{"L": RationalExpr.zero()}])
    return ActionScenario("pair-groupoid-flat", model, action, PresymplecticData(atlas, omega),
                          momentum, full_quotient="single point")


def s1_plane_scenario(function=None) -> ActionScenario:
    """Circle rotations of the plane (non-regular isotropy at the origin)."""
    atlas = FiberedAtlas([Chart("P", base_coords=("x", "y"), star_shaped=True)])
    rotation = VectorField(atlas, "full", {"P": {"x": _pe("-y"), "y": _pe("x")}})
    model = AlgebroidModel("s1-plane", "action", atlas, ("e1",), {}, [rotation])
    action = ActionMap(model, atlas, [rotation], name="plane-rotation")
    omega = DifferentialForm(atlas, 2, LEAF_JTILDE, {"P": {}})
    f = function if function is not None else _pe("x^2+y^2")
    momentum = MomentumMapRep(model, [{"P": f}])
    return ActionScenario("s1-plane-action", model, action, PresymplecticData(atlas, omega),
                          momentum, integration="s1-plane")


def sphere_family_scenario(level: int = 1) -> ActionScenario:
    """The sphere as a family of circles over the interval; step momentum."""
    atlas = FiberedAtlas([Chart("I", base_coords=("q",), star_shaped=True)])
    model = AlgebroidModel("sphere-family", "bundle_of_algebras", atlas, ("e1",),
                          {}, [None])
    action = ActionMap(model, atlas,
                       [VectorField(atlas, LEAF_J, {"I": {}})],
                       name="family-action")
    omega = DifferentialForm(atlas, 2, LEAF_JTILDE, {"I": {}})
    momentum = MomentumMapRep(model, [{"I": RationalExpr.const(level)}])
    return ActionScenario("sphere-family", model, action, PresymplecticData(atlas, omega),
                          momentum, level=level, integration="sphere-family")


def foliation_flat_scenario() -> ActionScenario:
    """Two-dimensional foliation of 3-space with a leafwise form and flat line."""
    atlas = FiberedAtlas([Chart("F", base_coords=("x", "y", "w"),
                                orbit_coords=("x", "y"), star_shaped=True)])
    d_x = VectorField(atlas, LEAF_JTILDE, {"F": {"x": 1}})
    d_y = VectorField(atlas, LEAF_JTILDE, {"F": {"y": 1}})
    model = AlgebroidModel("foliation", "foliation", atlas, ("dx", "dy"),
                           {(0, 1): (0, 0)}, [d_x, d_y])
    action = ActionMap(model, atlas, [d_x, d_y], name="leafwise")
    omega = DifferentialForm(atlas, 2, LEAF_JTILDE,
                             {"F": {("x", "y"): _pe("1+w^2")}})
    momentum = MomentumMapRep(model, [{"F": RationalExpr.zero()},
                                      {"F": _pe("x*(1+w^2)")}])
    # flat prequantization data: trivial line with the leafwise potential
    cover = GoodCover(atlas, ["F"], [], chart_refs={("F",): "F"})
    eta = DifferentialForm(atlas, 1, LEAF_JTILDE,
                           {"F": {("y",): _pe("x*(1+w^2)")}})
    bundle = LineBundleData("foliation-line", cover, {}, {"F": RationalExpr.const(1)},
                            {"F": eta})
    return ActionScenario("foliation-flat", model, action,
                          PresymplecticData(atlas, omega), momentum, bundle=bundle)


# ---------------------------------------------------------------------------
# negative controls
# ---------------------------------------------------------------------------

def control_flipped_momentum(k: int = 2) -> ActionScenario:
    """Vertical momentum component negated: internal check must fail."""
    base = su2_orbit_scenario(k)
    pairings = [dict(base.momentum.pairing(0)), dict(base.momentum.pairing(1)),
                {ch: -v for ch, v in base.momentum.pairing(2).items()}]
    base.name = f"control-flipped-momentum-{k}"
    base.momentum = MomentumMapRep(base.model, pairings)
    return base


def control_scaled_momentum(k: int = 2) -> ActionScenario:
    """Momentum scaled by a non-invariant function: equivariance must fail."""
    base = su2_orbit_scenario(k)
    factor = {"N": _pe("1+x"), "S": _pe("1+u/(u^2+v^2)")}
    pairings = [{ch: v * factor[ch] for ch, v in base.momentum.pairing(i).items()}
                for i in range(3)]
    base.name = f"control-scaled-momentum-{k}"
    base.momentum = MomentumMapRep(base.model, pairings)
    return base


def control_imaginary_momentum(k: int = 2) -> ActionScenario:
    """Momentum multiplied by i: Hermiticity of the operators must fail."""
    base = su2_orbit_scenario(k)
    i_unit = ExactScalar(0, 1)
    pairings = [{ch: v * i_unit for ch, v in base.momentum.pairing(idx).items()}
                for idx in range(3)]
    base.name = f"control-imaginary-momentum-{k}"
    base.momentum = MomentumMapRep(base.model, pairings)
    return base


def control_flipped_field(k: int = 2):
    """Vertical rotation field negated with the others kept: morphism fails."""
    atlas = sphere_atlas()
    model = su2()
    v1, v2, v3 = rotation_fields(atlas)
    return ActionMap(model, atlas, [v1, v2, -v3], name="flipped-vertical")


def control_skew_structure(atlas=None) -> ComplexStructureData:
    """x-dependent skew perturbation: not a complex structure equivariantly."""
    atlas = atlas or sphere_atlas()
    mat = [[_pe("x"), _pe("1+x^2")], [_pe("-1"), _pe("-x")]]
    return ComplexStructureData(atlas, {"N": mat, "S": [[_pe("0"), _pe("1")],
                                                        [_pe("-1"), _pe("0")]]})


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

SCENARIO_FAMILIES = {
    "su2-orbit-k": {
        "factory": su2_orbit_scenario,
        "levels": (0, 1, 2, 3, 4),
        "description": "su(2) coadjoint-orbit sphere at integer level k",
    },
    "u1-rotation-reduction-k": {
        "factory": u1_rotation_scenario,
        "levels": (1, 2, 3, 4),
        "description": "circle rotation on the level-k sphere with reduction data",
    },
    "gauge-su2-k": {
        "factory": gauge_su2_scenario,
        "levels": (0, 1, 2, 3),
        "description": "nonflat su(2) potential over the plane twisting the sphere",
    },
    "gauge-u1-char-n": {
        "factory": gauge_u1_character_scenario,
        "levels": (0, 1, 2),
        "description": "U(1) character n over the plane (point fiber)",
    },
    "pair-groupoid-flat": {
        "factory": pair_groupoid_scenario,
        "levels": None,
        "description": "pair groupoid of the line; quantization is empty",
    },
    "s1-plane-action": {
        "factory": s1_plane_scenario,
        "levels": None,
        "description": "circle rotations of the plane; closed-form integration",
    },
    "sphere-family": {
        "factory": sphere_family_scenario,
        "levels": (1, 2),
        "description": "sphere as a family of shrinking circles; step momentum",
    },
    "foliation-flat": {
        "factory": foliation_flat_scenario,
        "levels": None,
        "description": "leafwise-presymplectic foliation with flat quantization",
    },
}


def list_scenarios(filter_text=""):
    out = []
    for name, info in SCENARIO_FAMILIES.items():
        if filter_text and filter_text not in name:
            continue
        out.append({"name": name, "description": info["description"],
                    "levels": info["levels"]})
    return out


def _concrete_stem(family):
    """A concrete name is the stem plus `-<level>`: the family name without
    its `-k`/`-n` placeholder, or the whole name when it has none."""
    stem, _, last = family.rpartition("-")
    return stem if last in ("k", "n") else family


def build_scenario(name, level=None):
    """A catalog scenario from a family name, at `level` or the family's
    default level, or from a concrete name like `su2-orbit-2` or
    `sphere-family-2`.  A level the family does not declare, or one that
    contradicts the concrete name, raises `UnknownScenarioError`."""
    info = SCENARIO_FAMILIES.get(name)
    if info is None:
        stem, _, suffix = name.rpartition("-")
        family = next((family for family, spec in SCENARIO_FAMILIES.items()
                       if spec["levels"] and _concrete_stem(family) == stem), None)
        try:
            info, named = SCENARIO_FAMILIES[family], int(suffix)
        except (KeyError, ValueError):
            raise UnknownScenarioError(f"unknown scenario: {name}") from None
        if level not in (None, named):
            raise UnknownScenarioError(f"{name} names level {named}, got level {level}")
        name, level = family, named
    levels = info["levels"]
    if levels is None:
        if level is not None:
            raise UnknownScenarioError(f"{name} declares no levels, got level {level}")
        return info["factory"]()
    level = levels[min(1, len(levels) - 1)] if level is None else level
    if level not in levels:
        raise UnknownScenarioError(f"{name} declares levels "
                                   f"{', '.join(map(str, levels))}, got level {level}")
    return info["factory"](level)
