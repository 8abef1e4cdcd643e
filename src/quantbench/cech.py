"""Finite good covers of a fibered atlas, overlap functions with angle
bookkeeping, and the value of a Cech 2-cocycle on a triple overlap: what a
line bundle's data and its validation read.  The cohomology, the de Rham ->
Cech zig-zag and the integrality test are in `integrality`.

Every nonempty intersection of a good cover is contractible, hence connected,
so a sample point and a branch offset are keyed by the simplex alone.
"""

from __future__ import annotations

from .errors import MalformedExpressionError, OverlapMismatchError
from .exprs import coerce_rational
from .geometry import DifferentialForm, FiberedAtlas, Frozen, frozen
from .scalars import ExactScalar


class GoodCover(Frozen):
    """Finite good cover with declared nerve and chart references."""

    def __init__(self, atlas: FiberedAtlas, index_set, simplices, chart_refs=None,
                 sample_points=None, angle_forms=None):
        index_set = tuple(index_set)
        pos = {label: i for i, label in enumerate(index_set)}
        simps = set()
        for s in simplices:
            s = tuple(sorted(s, key=pos.__getitem__))
            if len(set(s)) != len(s):
                raise MalformedExpressionError(f"repeated index in simplex {s}")
            simps.add(s)
        for label in index_set:
            simps.add((label,))
        # downward closure check
        for s in simps:
            for drop in range(len(s)):
                face = s[:drop] + s[drop + 1:]
                if face and face not in simps:
                    raise MalformedExpressionError(
                        f"cover simplices not downward closed: missing {face}")
        vars(self).update(
            atlas=atlas, index_set=index_set, simplices=frozenset(simps),
            position=frozen(pos), chart_refs=frozen(chart_refs or {}),
            sample_points=frozen(sample_points or {}),
            # chart-local closed 1-forms with unit monodromy (angle primitives)
            angle_forms=frozen(angle_forms or {}))

    def k_simplices(self, k):
        """The k-simplices in index order: the basis of C^k."""
        return sorted((s for s in self.simplices if len(s) == k + 1),
                      key=lambda s: tuple(self.position[i] for i in s))

    def chart_of(self, simplex):
        if simplex in self.chart_refs:
            return self.chart_refs[simplex]
        if len(self.chart_refs) == 0 and len(self.atlas.charts) == 1:
            return next(iter(self.atlas.charts))
        raise OverlapMismatchError(f"no chart reference for overlap {simplex}")


# ---------------------------------------------------------------------------
# overlap functions with angle bookkeeping
# ---------------------------------------------------------------------------

class OverlapFunction(Frozen):
    """f = rational_part + angle_coeff * (declared angle primitive + branch)."""

    def __init__(self, chart, rational_part=0, angle_coeff=0):
        vars(self).update(chart=chart, rational_part=coerce_rational(rational_part),
                          angle_coeff=ExactScalar.coerce(angle_coeff))

    def scaled(self, factor):
        factor = ExactScalar.coerce(factor)
        return OverlapFunction(self.chart, self.rational_part * factor,
                               self.angle_coeff * factor)

    def differential(self, cover: GoodCover) -> DifferentialForm:
        atlas = cover.atlas
        chart = atlas.chart(self.chart)
        table = {}
        for coord in chart.coords:
            partial = self.rational_part.derivative(coord)
            if not partial.is_zero():
                table[(coord,)] = partial
        base = DifferentialForm(atlas, 1, "full", {self.chart: table})
        if not self.angle_coeff.is_zero():
            angle = cover.angle_forms.get(self.chart)
            if angle is None:
                raise MalformedExpressionError(
                    f"chart {self.chart} declares no angle primitive")
            base = base + angle * self.angle_coeff
        return base


def cocycle_value(cover: GoodCover, simplex, rational, angle_coeffs, offsets):
    """Value on the triple overlap (j, k, l) of f_jk + f_kl - f_jl, from the
    combination's `rational` part and the angle coefficients
    (a_jk, a_kl, a_jl) of the three functions: the rational part, a constant
    or taken at the simplex's sample point, plus the branch offsets
    a_jk o_jk + a_kl o_kl - a_jl o_jl.  None when the rational part is not
    constant and the simplex declares no sample point."""
    j, k, l = simplex
    a_jk, a_kl, a_jl = angle_coeffs
    offset = (a_jk * ExactScalar.coerce(offsets.get((j, k), 0))
              + a_kl * ExactScalar.coerce(offsets.get((k, l), 0))
              - a_jl * ExactScalar.coerce(offsets.get((j, l), 0)))
    if rational.is_constant():
        return rational.constant_value() + offset
    sample = cover.sample_points.get(simplex)
    return None if sample is None else rational.evaluate(sample) + offset
