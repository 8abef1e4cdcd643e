"""Charted fibered manifolds, differential forms, vector fields.

A chart splits coordinates into base and fiber; ``orbit_coords`` marks the
base directions tangent to the symmetry orbits.  Three leafwise classes order
the calculus: ``J`` (fiber directions only), ``Jtilde`` (fiber + orbit
directions) and ``full``.  The exterior derivative at class ``c`` acts on the
restriction of a form to the ``c``-directions, so requesting a class coarser
than the form carries is an error while finer requests restrict first.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from types import MappingProxyType

from . import linalg
from .errors import (
    AtlasMismatchError,
    DegreeError,
    LeafwiseClassError,
    MalformedExpressionError,
)
from .exprs import RationalExpr, coerce_rational
from .reports import CheckResult
from .scalars import ExactScalar

LEAF_J = "J"
LEAF_JTILDE = "Jtilde"
LEAF_FULL = "full"
_CLASS_ORDER = {LEAF_J: 0, LEAF_JTILDE: 1, LEAF_FULL: 2}


def frozen(value):
    """`value` copied once into read-only containers, nested ones included: a
    mapping becomes a `MappingProxyType` of its own dict, a list a tuple."""
    if isinstance(value, (dict, MappingProxyType)):
        return MappingProxyType({k: frozen(v) for k, v in value.items()})
    if isinstance(value, (list, tuple)):
        return tuple(frozen(v) for v in value)
    return value


class Chart:
    def __init__(self, name, base_coords=(), fiber_coords=(), orbit_coords=(),
                 star_shaped=False):
        self.name = name
        self.base_coords = tuple(base_coords)
        self.fiber_coords = tuple(fiber_coords)
        self.orbit_coords = tuple(orbit_coords)
        self.star_shaped = bool(star_shaped)
        self.coords = coords = self.base_coords + self.fiber_coords
        if len(set(coords)) != len(coords):
            raise MalformedExpressionError(f"duplicate coordinates in chart {name}")
        if not set(self.orbit_coords) <= set(self.base_coords):
            raise MalformedExpressionError("orbit coordinates must be base coordinates")
        jtilde = set(self.fiber_coords) | set(self.orbit_coords)
        # each class's coordinates in chart order; any other class reads all of them
        self._class_coords = MappingProxyType({
            LEAF_J: self.fiber_coords, LEAF_JTILDE: tuple(c for c in coords if c in jtilde)})

    def coords_for(self, leafwise_class):
        return self._class_coords.get(leafwise_class, self.coords)

    def coord_index(self, coord):
        return self.coords.index(coord)

    def __repr__(self):
        return f"Chart({self.name})"


class Transition:
    """Coordinate map source -> target; exprs give target coords in source coords."""

    def __init__(self, source, target, exprs, overlap=""):
        self.source = source
        self.target = target
        self.exprs = MappingProxyType({k: coerce_rational(v) for k, v in exprs.items()})
        self.overlap = overlap

    def jacobian(self, targets, sources):
        """The matrix of partials d(target)/d(source): one row per coordinate
        of `targets`, one column per coordinate of `sources`."""
        return [[self.exprs[t].derivative(s) for s in sources] for t in targets]

    def compose_into(self, expr: RationalExpr) -> RationalExpr:
        """Pull a target-chart expression back to source coordinates."""
        return expr.subst(self.exprs)

    def __repr__(self):
        return f"Transition({self.source}->{self.target})"


class FiberedAtlas:
    def __init__(self, charts, transitions=(), leaf_structure=""):
        self.charts = MappingProxyType({c.name: c for c in charts})
        self.leaf_structure = leaf_structure
        table = {}
        for t in transitions:
            src, tgt = self.charts[t.source], self.charts[t.target]
            if set(t.exprs) != set(tgt.coords):
                raise MalformedExpressionError(
                    f"transition {t.source}->{t.target} must map every target coordinate")
            for coord in tgt.base_coords:
                extra = t.exprs[coord].variables() - set(src.base_coords)
                extra.discard("twopii")
                if extra:
                    raise MalformedExpressionError(
                        f"transition {t.source}->{t.target} is not fiber-preserving "
                        f"({coord} depends on {sorted(extra)})")
            table[(t.source, t.target)] = t
        self.transitions = MappingProxyType(table)

    def transition(self, source, target) -> Transition:
        try:
            return self.transitions[(source, target)]
        except KeyError:
            raise AtlasMismatchError(f"no transition {source}->{target}") from None

    def chart(self, name) -> Chart:
        return self.charts[name]

    def check_transition_consistency(self) -> list:
        """T_ba o T_ab = id on declared two-way overlaps, as rational maps:
        the (a, b, coordinate) triples where it fails."""
        return list(self._bad_roundtrips)

    @cached_property
    def _bad_roundtrips(self) -> tuple:  # decided once: `glue_check` reads it too
        bad = []
        for (a, b), t_ab in self.transitions.items():
            t_ba = self.transitions.get((b, a))
            if t_ba is None:
                continue
            for coord in self.charts[a].coords:
                roundtrip = t_ab.compose_into(t_ba.exprs[coord])
                if not (roundtrip - RationalExpr.var(coord)).is_zero():
                    bad.append((a, b, coord))
        return tuple(bad)


def to_chart(atlas, expr, source, target) -> RationalExpr:
    """`expr`, written in chart `source`'s coordinates, in chart `target`'s;
    unchanged when the two are the same chart."""
    if source == target:
        return expr
    return atlas.transition(target, source).compose_into(expr)


def _charts_of(atlas, *tables, every=False):
    """The charts keyed in any (or, with `every`, all) of `tables`, in the
    atlas's declared order; a set's order would follow PYTHONHASHSEED into
    the coefficient tables and the reports."""
    test = all if every else any
    return [ch for ch in atlas.charts if test(ch in table for table in tables)]


def _known_class(leafwise_class):
    if leafwise_class not in _CLASS_ORDER:
        raise LeafwiseClassError(f"unknown leafwise class {leafwise_class!r}")
    return leafwise_class


def _join(*classes):
    """The coarsest of the leafwise classes, where their sum or product lives."""
    return max(classes, key=_CLASS_ORDER.__getitem__)


def _check_class(requested, available):
    if _CLASS_ORDER[requested] > _CLASS_ORDER[available]:
        raise LeafwiseClassError(
            f"requested class {requested} is coarser than operand class {available}")


class DifferentialForm:
    """Chartwise alternating form; indices are strictly increasing coordinate tuples."""

    def __init__(self, atlas, degree, leafwise_class, coefficients):
        if type(degree) is not int or degree < 0:
            raise DegreeError(f"form degree {degree!r} is not a non-negative int")
        self.atlas = atlas
        self.degree = degree
        self.leafwise_class = _known_class(leafwise_class)
        coeffs = {}
        for chart_name, table in coefficients.items():
            chart = atlas.chart(chart_name)
            allowed = chart.coords_for(leafwise_class)
            clean = {}
            for idx, value in table.items():
                idx = tuple(idx)
                value = coerce_rational(value)
                if len(idx) != self.degree:
                    raise DegreeError(f"index {idx} has wrong length for degree {self.degree}")
                if any(c not in allowed for c in idx):
                    raise LeafwiseClassError(
                        f"differential {idx} leaves class {leafwise_class} on chart {chart_name}")
                order = [chart.coord_index(c) for c in idx]
                if sorted(order) != order or len(set(order)) != len(order):
                    raise MalformedExpressionError(f"index {idx} is not strictly increasing")
                if not value.is_zero():
                    clean[idx] = value
            coeffs[chart_name] = MappingProxyType(clean)
        self.coefficients = MappingProxyType(coeffs)

    # -- accessors -----------------------------------------------------------
    def coefficient(self, chart, idx) -> RationalExpr:
        return self.coefficients.get(chart, {}).get(tuple(idx), RationalExpr.zero())

    def terms(self, chart):
        return self.coefficients.get(chart, {})

    def is_zero(self) -> bool:
        return all(v.is_zero()
                   for table in self.coefficients.values() for v in table.values())

    # -- algebra ------------------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, DifferentialForm):
            return NotImplemented
        if other.atlas is not self.atlas:
            raise AtlasMismatchError("forms on different atlases")
        if other.degree != self.degree:
            raise DegreeError("cannot add forms of different degree")
        out = {}
        for ch in _charts_of(self.atlas, self.coefficients, other.coefficients):
            table = dict(self.coefficients.get(ch, {}))
            for idx, v in other.coefficients.get(ch, {}).items():
                table[idx] = table.get(idx, RationalExpr.zero()) + v
            out[ch] = table
        return DifferentialForm(self.atlas, self.degree,
                                _join(self.leafwise_class, other.leafwise_class), out)

    def __neg__(self):
        return self * ExactScalar(-1)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, factor):
        """Multiply by a scalar or an expression."""
        factor = coerce_rational(factor)
        out = {ch: {idx: v * factor for idx, v in table.items()}
               for ch, table in self.coefficients.items()}
        return DifferentialForm(self.atlas, self.degree, self.leafwise_class, out)

    __rmul__ = __mul__

    def restrict(self, leafwise_class) -> "DifferentialForm":
        """Keep only differentials inside the requested (finer) class."""
        _check_class(leafwise_class, self.leafwise_class)
        out = {}
        for ch, table in self.coefficients.items():
            allowed = set(self.atlas.chart(ch).coords_for(leafwise_class))
            out[ch] = {idx: v for idx, v in table.items() if set(idx) <= allowed}
        return DifferentialForm(self.atlas, self.degree, leafwise_class, out)

    def conj(self) -> "DifferentialForm":
        out = {ch: {idx: v.conj() for idx, v in table.items()}
               for ch, table in self.coefficients.items()}
        return DifferentialForm(self.atlas, self.degree, self.leafwise_class, out)

    def simplify(self) -> "DifferentialForm":
        out = {ch: {idx: v.simplify() for idx, v in table.items()}
               for ch, table in self.coefficients.items()}
        return DifferentialForm(self.atlas, self.degree, self.leafwise_class, out)

    def apply(self, *fields) -> dict:
        """Evaluate on vector fields; returns {chart: RationalExpr}."""
        if len(fields) != self.degree:
            raise DegreeError("wrong number of vector arguments")
        out = {}
        for ch, table in self.coefficients.items():
            if any(ch not in f.components for f in fields):
                continue
            total = RationalExpr.zero()
            for idx, coeff in table.items():
                minor = [[f.component(ch, c) for c in idx] for f in fields]
                total = total + coeff * linalg.det(minor, RationalExpr.const(1))
            out[ch] = total
        return out

    def __repr__(self):
        bits = []
        for ch, table in self.coefficients.items():
            for idx, v in table.items():
                label = "^".join(f"d{c}" for c in idx) or "1"
                bits.append(f"[{ch}] ({v}) {label}")
        return "Form(" + "; ".join(bits) + ")" if bits else "Form(0)"


class VectorField:
    def __init__(self, atlas, leafwise_class, components):
        self.atlas = atlas
        self.leafwise_class = _known_class(leafwise_class)
        comps = {}
        for chart_name, table in components.items():
            chart = atlas.chart(chart_name)
            allowed = set(chart.coords_for(leafwise_class))
            clean = {}
            for coord, value in table.items():
                value = coerce_rational(value)
                if coord not in chart.coords:
                    raise MalformedExpressionError(f"unknown coordinate {coord}")
                if coord not in allowed and not value.is_zero():
                    raise LeafwiseClassError(
                        f"component along {coord} leaves class {leafwise_class}")
                if not value.is_zero():
                    clean[coord] = value
            comps[chart_name] = MappingProxyType(clean)
        self.components = MappingProxyType(comps)

    def component(self, chart, coord) -> RationalExpr:
        return self.components.get(chart, {}).get(coord, RationalExpr.zero())

    def __add__(self, other, subtract=False):
        if other.atlas is not self.atlas:
            raise AtlasMismatchError("fields on different atlases")
        out = {}
        for ch in _charts_of(self.atlas, self.components, other.components):
            table = dict(self.components.get(ch, {}))
            for coord, v in other.components.get(ch, {}).items():
                if subtract:
                    v = -v
                table[coord] = table[coord] + v if coord in table else v
            out[ch] = table
        return _field(self.atlas, _join(self.leafwise_class, other.leafwise_class), out)

    def __neg__(self):
        return self * ExactScalar(-1)

    def __sub__(self, other):
        return self.__add__(other, subtract=True)

    def __mul__(self, factor):
        factor = coerce_rational(factor)
        out = {ch: {coord: v * factor for coord, v in table.items()}
               for ch, table in self.components.items()}
        return _field(self.atlas, self.leafwise_class, out)

    __rmul__ = __mul__

    def derive(self, function, chart=None):
        """Directional derivative of a chartwise function dict or expression."""
        if isinstance(function, (dict, MappingProxyType)):
            return {ch: self.derive(expr, ch) for ch, expr in function.items()
                    if ch in self.components}
        expr = coerce_rational(function)
        if chart is None:
            if len(self.components) != 1:
                raise AtlasMismatchError("chart must be named for multi-chart fields")
            chart = next(iter(self.components))
        total = RationalExpr.zero()
        for coord, comp in self.components[chart].items():
            total = total + comp * expr.derivative(coord)
        return total

    def is_zero(self) -> bool:
        return all(v.is_zero()
                   for table in self.components.values() for v in table.values())

    def __repr__(self):
        bits = []
        for ch, table in self.components.items():
            for coord, v in table.items():
                bits.append(f"[{ch}] ({v}) d/d{coord}")
        return "Field(" + "; ".join(bits) + ")" if bits else "Field(0)"


def _field(atlas, leafwise_class, components) -> VectorField:
    """A field operation's result, its tables inside the leafwise class: zero
    entries are dropped, nothing is checked (outside input is validated)."""
    field = object.__new__(VectorField)
    field.atlas, field.leafwise_class = atlas, leafwise_class
    field.components = MappingProxyType({
        ch: MappingProxyType({c: v for c, v in table.items() if not v.is_zero()})
        for ch, table in components.items()})
    return field


def _field_sum(atlas, leafwise_class, terms) -> VectorField:
    """Sum of coeff * field over (coeff, field) terms, skipping absent fields and
    zero coefficients; the zero field of `leafwise_class` when none remain."""
    out = None
    for coeff, field in terms:
        if field is not None and not coeff.is_zero():
            out = field * coeff if out is None else out + field * coeff
    return out if out is not None else \
        _field(atlas, leafwise_class, dict.fromkeys(atlas.charts, {}))


def commutator(v: VectorField, w: VectorField) -> VectorField:
    """[v, w] chartwise."""
    if v.atlas is not w.atlas:
        raise AtlasMismatchError("fields on different atlases")
    cls = _join(v.leafwise_class, w.leafwise_class)
    out = {}
    zero = RationalExpr.zero()
    for ch in _charts_of(v.atlas, v.components, w.components, every=True):
        vt, wt = v.components[ch], w.components[ch]
        coords = v.atlas.chart(ch).coords
        table = {}
        for coord in coords:
            if coord not in vt and coord not in wt:
                continue  # v.w^c - w.v^c with w^c = v^c = 0
            total = zero
            for c2 in coords:
                # a zero coefficient adds nothing, so its derivative is not taken
                a, b = vt.get(c2, zero), wt.get(c2, zero)
                if not a.is_zero():
                    total = total + a * wt.get(coord, zero).derivative(c2)
                if not b.is_zero():
                    total = total - b * vt.get(coord, zero).derivative(c2)
            table[coord] = total
        out[ch] = table
    return _field(v.atlas, cls, out)


# ---------------------------------------------------------------------------
# form operations
# ---------------------------------------------------------------------------

def form_function(atlas, values, leafwise_class=LEAF_FULL) -> DifferentialForm:
    """Wrap chartwise expressions as a degree-0 form."""
    return DifferentialForm(atlas, 0, leafwise_class,
                            {ch: {(): v} for ch, v in values.items()})


def exterior_derivative(form: DifferentialForm, leafwise_class=None) -> DifferentialForm:
    cls = leafwise_class or form.leafwise_class
    _check_class(cls, form.leafwise_class)
    restricted = form.restrict(cls) if cls != form.leafwise_class else form
    out = {}
    for ch, table in restricted.coefficients.items():
        chart = form.atlas.chart(ch)
        allowed = chart.coords_for(cls)
        order = {c: i for i, c in enumerate(chart.coords)}
        new_table = {}
        for idx, coeff in table.items():
            for coord in allowed:
                if coord in idx:
                    continue
                partial = coeff.derivative(coord)
                if partial.is_zero():
                    continue
                merged = sorted(idx + (coord,), key=order.__getitem__)
                sign = (-1) ** merged.index(coord)
                key = tuple(merged)
                cur = new_table.get(key, RationalExpr.zero())
                new_table[key] = cur + partial * sign
        out[ch] = new_table
    return DifferentialForm(form.atlas, form.degree + 1, cls, out)


def interior_product(v: VectorField, form: DifferentialForm) -> DifferentialForm:
    """Contraction; the field must be tangent to the form's leaf directions."""
    if form.degree == 0:
        raise DegreeError("interior product with a 0-form")
    out = {}
    for ch, terms in form.coefficients.items():
        if ch not in v.components:
            continue
        has_terms = any(not val.is_zero() for val in terms.values())
        allowed = set(form.atlas.chart(ch).coords_for(form.leafwise_class))
        for coord, comp in v.components[ch].items():
            if has_terms and coord not in allowed and not comp.is_zero():
                raise LeafwiseClassError(
                    f"field component along {coord} is outside the form's "
                    f"{form.leafwise_class} directions on chart {ch}")
        table = {}
        for idx, coeff in terms.items():
            for pos, coord in enumerate(idx):
                comp = v.component(ch, coord)
                if comp.is_zero():
                    continue
                rest = idx[:pos] + idx[pos + 1:]
                sign = (-1) ** pos
                cur = table.get(rest, RationalExpr.zero())
                table[rest] = cur + coeff * comp * sign
        out[ch] = table
    return DifferentialForm(form.atlas, form.degree - 1, form.leafwise_class, out)


def lie_derivative(v: VectorField, form: DifferentialForm) -> DifferentialForm:
    cls = form.leafwise_class
    if form.degree == 0:
        out = {ch: {(): v.derive(form.coefficient(ch, ()), ch)}
               for ch in form.coefficients if ch in v.components}
        return DifferentialForm(form.atlas, 0, cls, out)
    return exterior_derivative(interior_product(v, form), cls) + \
        interior_product(v, exterior_derivative(form, cls))


def pullback(transition: Transition, form: DifferentialForm) -> DifferentialForm:
    """Pull a target-chart form back to the source chart along the transition:
    (T*w)_J = sum over I of (w_I o T) det(dT^I/dx^J), for increasing index
    tuples I and J (Spivak, *Calculus on Manifolds*, 1965, Thm. 4-9)."""
    if transition.target not in form.coefficients:
        raise AtlasMismatchError(
            f"form has no coefficients on chart {transition.target}")
    atlas = form.atlas
    terms = form.coefficients[transition.target]
    sources = atlas.chart(transition.source).coords
    targets = atlas.chart(transition.target).coords
    jacobian = dict(zip(targets, transition.jacobian(targets, sources)))
    one = RationalExpr.const(1)
    table = {}
    for idx, coeff in terms.items():
        pulled = transition.compose_into(coeff)
        for cols in combinations(range(len(sources)), form.degree):
            minor = linalg.det([[jacobian[t][j] for j in cols] for t in idx], one)
            if not minor.is_zero():
                key = tuple(sources[j] for j in cols)
                table[key] = table.get(key, RationalExpr.zero()) + pulled * minor
    return DifferentialForm(atlas, form.degree, LEAF_FULL, {transition.source: table})


def form_on_chart(atlas, form: DifferentialForm, chart) -> DifferentialForm:
    """`form` on `chart`: its own coefficients there, or else the pullback
    from the first chart, in the atlas's declared order, that carries it."""
    if chart in form.coefficients:
        return DifferentialForm(atlas, form.degree, LEAF_FULL,
                                {chart: form.coefficients[chart]})
    source = _charts_of(atlas, form.coefficients)[0]
    return pullback(atlas.transition(chart, source), form)


def glue_check(atlas: FiberedAtlas, form: DifferentialForm) -> CheckResult:
    """Chart expressions agree under every declared transition.  Once a -> b
    glues, b -> a is not decided if `check_transition_consistency` finds the
    two maps inverse: T_ab^* w_b = w_a and T_ab o T_ba = id give T_ba^* w_a = w_b."""
    residuals, glued = [], set()
    for (src, tgt), transition in atlas.transitions.items():
        if (tgt, src) in glued and all({a, b} != {src, tgt}
                                       for a, b, _ in atlas.check_transition_consistency()):
            continue
        if src not in form.coefficients or tgt not in form.coefficients:
            residuals.append((src, tgt, "missing chart coefficients"))
            continue
        pulled = pullback(transition, form)
        local = DifferentialForm(atlas, form.degree, LEAF_FULL,
                                 {src: form.coefficients[src]})
        diff = pulled - local
        found = len(residuals)
        for idx, value in diff.coefficients.get(src, {}).items():
            value = value.simplify()
            if not value.is_zero():
                residuals.append((src, tgt, f"d{idx}: {value}"))
        if len(residuals) == found:
            glued.add((src, tgt))
    return CheckResult(not residuals, residuals)


def glue_check_field(atlas: FiberedAtlas, field: VectorField) -> CheckResult:
    """Pushforward consistency of chartwise components along transitions."""
    residuals = []
    for (src, tgt), transition in atlas.transitions.items():
        if src not in field.components or tgt not in field.components:
            continue
        targets, sources = atlas.chart(tgt).coords, atlas.chart(src).coords
        pushed = linalg.mat_mul(transition.jacobian(targets, sources),
                                [[field.component(src, c)] for c in sources])
        for coord, (value,) in zip(targets, pushed):
            declared = transition.compose_into(field.component(tgt, coord))
            diff = (value - declared).simplify()
            if not diff.is_zero():
                residuals.append((src, tgt, coord, str(diff)))
    return CheckResult(not residuals, residuals)
