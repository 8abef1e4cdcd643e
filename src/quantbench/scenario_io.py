"""Scenario file format: JSON blocks for atlas, algebroid, action,
presymplectic form and momentum map, plus an `extras` block of typed
declarations (`DECLARATIONS`).  Bundles, complex structures, ansatz data and
zero levels are not part of a file.  Exact scalars are serialized as strings
like "1/2-2/3i" and expressions as parseable strings, so nothing is lost to
rounding."""

from __future__ import annotations

import json
import math

from .errors import QuantbenchError, SchemaError
from .exprs import PolyExpr, coerce_rational, parse_expr
from .geometry import Chart, DifferentialForm, FiberedAtlas, Transition, VectorField
from .hamiltonian import ActionScenario, MomentumMapRep, PresymplecticData
from .liealg import ActionMap, AlgebroidModel
from .scalars import ONE, gaussian_text

# `extras` key -> (ActionScenario field, JSON type).  Other keys are ignored.
DECLARATIONS = {"level": ("level", int), "degenerate_level": ("degenerate", bool),
                "integration": ("integration", str), "full_quotient": ("full_quotient", str)}
# The `quantize.INTEGRATIONS` kinds that read only a file's blocks, each with the
# `extras` it reads; a file that declares another kind or omits them is invalid.
FILE_INTEGRATIONS = {"s1-plane": (), "sphere-family": ("level",)}


def expr_to_string(expr) -> str:
    """Fully parseable rendering (explicit '*' between coefficient and i)."""
    expr = coerce_rational(expr).simplify()
    num = _poly_to_string(expr.num)
    if expr.den.is_constant() and expr.den.constant_value() == ONE:
        return num
    return f"({num})/({_poly_to_string(expr.den)})"


def _poly_to_string(poly: PolyExpr) -> str:
    if poly.is_zero():
        return "0"
    bits = []
    for mono, coeff in sorted(poly.coeffs().items()):
        (re, im), den = coeff.num, coeff.den
        if re < 0 and not im or im < 0 and not re:  # one negative part: (0-x)
            factors = [f"(0-{gaussian_text(-re, -im, den, '*i')})"]
        else:
            text = gaussian_text(re, im, den, "*i")
            factors = [f"({text})" if im else text]
        for var, exp in mono:
            factors.append(var if exp == 1 else f"{var}^{exp}")
        bits.append("*".join(factors))
    return " + ".join(bits)


def _form_to_dict(form: DifferentialForm) -> dict:
    return {
        "degree": form.degree,
        "class": form.leafwise_class,
        "coefficients": [
            {"chart": ch, "index": list(idx), "value": expr_to_string(v)}
            for ch, table in sorted(form.coefficients.items())
            for idx, v in sorted(table.items())
        ],
    }


def _form_from_dict(atlas, data) -> DifferentialForm:
    table = {}
    for entry in data["coefficients"]:
        table.setdefault(entry["chart"], {})[tuple(entry["index"])] = \
            parse_expr(entry["value"])
    for ch in atlas.charts:
        table.setdefault(ch, {})
    return DifferentialForm(atlas, data["degree"], data["class"], table)


def _field_to_dict(field: VectorField) -> dict:
    return {
        "class": field.leafwise_class,
        "components": [
            {"chart": ch, "coord": coord, "value": expr_to_string(v)}
            for ch, table in sorted(field.components.items())
            for coord, v in sorted(table.items())
        ],
    }


def _field_from_dict(atlas, data) -> VectorField:
    table = {ch: {} for ch in atlas.charts}
    for entry in data["components"]:
        table.setdefault(entry["chart"], {})[entry["coord"]] = \
            parse_expr(entry["value"])
    return VectorField(atlas, data["class"], table)


def _charts_to_list(atlas) -> list:
    return [{"name": c.name, "base": list(c.base_coords), "fiber": list(c.fiber_coords),
             "orbit": list(c.orbit_coords), "star_shaped": c.star_shaped}
            for c in atlas.charts.values()]


def dump_scenario(scenario: ActionScenario) -> dict:
    atlas = scenario.atlas
    model = scenario.model
    data = {
        "name": scenario.name,
        "atlas": {
            "leaf_structure": atlas.leaf_structure,
            "charts": _charts_to_list(atlas),
            "transitions": [
                {"source": t.source, "target": t.target, "overlap": t.overlap,
                 "map": {k: expr_to_string(v) for k, v in sorted(t.exprs.items())}}
                for t in atlas.transitions.values()
            ],
        },
        "model": {
            "name": model.name,
            "variant": model.variant,
            "generators": list(model.generator_names),
            "base_charts": _charts_to_list(model.base_atlas),
            "brackets": [
                {"pair": list(pair), "coefficients": [expr_to_string(v) for v in vec]}
                for pair, vec in sorted(model.bracket_table.items())
            ],
            "anchors": [None if f is None else _field_to_dict(f)
                        for f in model.anchor_fields],
            "isotropy": list(model.isotropy_indices),
        },
        "action": {
            "fields": [_field_to_dict(scenario.action.generator_field(i))
                       for i in range(model.n)],
        },
        "presymplectic": {
            "omega": _form_to_dict(scenario.presymplectic.omega_tilde),
            "samples": [
                {"chart": s["chart"], "point": {k: repr(v) for k, v in s["point"].items()}}
                for s in scenario.presymplectic.sample_points
            ],
        },
        "momentum": {
            "pairings": [
                [{"chart": ch, "value": expr_to_string(v)}
                 for ch, v in sorted(scenario.momentum.pairing(i).items())]
                for i in range(model.n)
            ],
        },
    }
    declared = {key: getattr(scenario, attr) for key, (attr, _) in DECLARATIONS.items()}
    if declared["integration"] not in FILE_INTEGRATIONS:
        declared["integration"] = None
    data["extras"] = {key: value for key, value in declared.items() if value is not None}
    return data


def _declarations(extras, atlas, momentum) -> dict:
    if not isinstance(extras, dict):
        raise SchemaError("scenario file invalid: extras must be an object")
    out = {}
    for key, (attr, kind) in DECLARATIONS.items():
        if key in extras:
            if type(extras[key]) is not kind:
                raise SchemaError(f"scenario file invalid: extras.{key} must be "
                                  f"of type {kind.__name__}")
            out[attr] = extras[key]
    integration = out.get("integration")
    if integration is not None and (integration not in FILE_INTEGRATIONS or
                                    not set(FILE_INTEGRATIONS[integration]) <= set(extras)):
        raise SchemaError("scenario file invalid: extras.integration and the extras it "
                          f"reads must be one of {FILE_INTEGRATIONS}")
    if integration == "s1-plane":  # the rule rotates one plane function in x and y
        charts = list(momentum.pairing(0)) if momentum.pairings else []
        if len(charts) != 1 or not {"x", "y"} <= set(atlas.chart(charts[0]).coords):
            raise SchemaError("scenario file invalid: s1-plane needs the first momentum "
                              "pairing on one chart with coordinates x and y")
    # the sphere-family rule's phase is exp(twopii level s); a missing level
    # is the error above
    if integration == "sphere-family" and "level" in out:
        values = [v for pairing in momentum.pairings for v in pairing.values()]
        if len(momentum.pairings) != 1 or not values or \
                any(not (v - out["level"]).is_zero() for v in values):
            raise SchemaError("scenario file invalid: sphere-family needs one momentum "
                              "pairing equal to the constant level")
    return out


def load_scenario(data) -> ActionScenario:
    try:
        atlas = FiberedAtlas(
            [Chart(c["name"], c["base"], c["fiber"], c["orbit"], c["star_shaped"])
             for c in data["atlas"]["charts"]],
            [Transition(t["source"], t["target"],
                        {k: parse_expr(v) for k, v in t["map"].items()},
                        overlap=t.get("overlap", ""))
             for t in data["atlas"]["transitions"]],
            leaf_structure=data["atlas"].get("leaf_structure", ""))
        mdata = data["model"]
        base_atlas = FiberedAtlas(
            [Chart(c["name"], c["base"], c["fiber"], c["orbit"], c["star_shaped"])
             for c in mdata["base_charts"]])
        anchors = []
        for entry in mdata["anchors"]:
            anchors.append(None if entry is None else _field_from_dict(base_atlas, entry))
        bracket_table = {tuple(b["pair"]): [parse_expr(v) for v in b["coefficients"]]
                         for b in mdata["brackets"]}
        model = AlgebroidModel(mdata["name"], mdata["variant"], base_atlas,
                               mdata["generators"], bracket_table, anchors,
                               isotropy_indices=mdata["isotropy"])
        fields = [_field_from_dict(atlas, f) for f in data["action"]["fields"]]
        action = ActionMap(model, atlas, fields)
        omega = _form_from_dict(atlas, data["presymplectic"]["omega"])
        samples = [_sample(atlas, s) for s in data["presymplectic"].get("samples", [])]
        presymplectic = PresymplecticData(atlas, omega, samples)
        pairings = []
        for entries in data["momentum"]["pairings"]:
            pairings.append({atlas.chart(e["chart"]).name: parse_expr(e["value"])
                             for e in entries})
        momentum = MomentumMapRep(model, pairings)
        return ActionScenario(data["name"], model, action, presymplectic, momentum,
                              **_declarations(data.get("extras", {}), atlas, momentum))
    except SchemaError:
        raise  # `_declarations` and `_sample` name the file already
    except (KeyError, TypeError, ValueError, AttributeError, IndexError,
            QuantbenchError) as exc:
        raise SchemaError(f"scenario file invalid: {exc}") from exc


def _sample(atlas, entry) -> dict:
    """A sample point: a finite value for every coordinate of an atlas chart."""
    chart = atlas.chart(entry["chart"])
    point = {k: _finite(v) for k, v in entry["point"].items()}
    if not set(chart.coords) <= set(point):
        raise SchemaError(f"scenario file invalid: sample on chart {chart.name} "
                          f"needs the coordinates {list(chart.coords)}")
    return {"chart": chart.name, "point": point}


def _finite(text) -> float:
    """A sample coordinate: a test at nan or inf could never fail."""
    value = float(text)
    if not math.isfinite(value):
        raise SchemaError(f"scenario file invalid: sample coordinate {text!r} is not finite")
    return value


def load_scenario_file(path) -> ActionScenario:
    with open(path) as handle:
        try:
            data = json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SchemaError(f"not valid JSON: {exc}") from exc
    return load_scenario(data)
