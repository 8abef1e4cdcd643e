"""Lie algebras as algebroids over a point, algebroid models with anchor and
bracket, and actions on fibered atlases.  The exact U(1)/SU(2) elements are
in `groups`.

A section of any model is a coefficient vector over finitely many declared
generating sections; coefficients are rational functions on the model's base.
The bracket of generators is tabulated and extended by the Leibniz rule, so
one bracket/anchor implementation serves Lie algebras (the point case) and
the tangent, foliation, bundle-of-Lie-algebras, gauge and action variants
alike.
"""

from __future__ import annotations

from functools import cached_property
from types import MappingProxyType

from .errors import AtlasMismatchError, MalformedExpressionError, ModelMismatchError
from .exprs import TWO_PI_I, RationalExpr, coerce_rational
from .geometry import (
    LEAF_FULL,
    LEAF_JTILDE,
    Chart,
    FiberedAtlas,
    Frozen,
    VectorField,
    _field_sum,
    commutator,
)
from .reports import CheckResult
from .scalars import ExactScalar, ONE, ZERO


def lie_algebra(name, basis_names, structure_constants) -> AlgebroidModel:
    """The Lie algebra [e_a, e_b] = sum_k c e_k, for {(a, b, k): c}, as the
    algebroid over a point: no anchor, one chart.  Its Jacobi identity is
    the `bracket-structure` row's verdict; the constants must be
    antisymmetric, [e_a, e_a] = 0 included, and index the basis."""
    n = len(basis_names)
    constants = {}
    for key, value in structure_constants.items():
        value = ExactScalar.coerce(value)
        if not value.is_zero():
            constants[key] = value
    if any(not 0 <= i < n for key in constants for i in key):
        raise MalformedExpressionError(f"structure constant index outside a basis of {n}")
    bad = [(a, b, k) for (a, b, k), value in constants.items()
           if constants.get((b, a, k), ZERO) != -value]
    if bad:
        raise MalformedExpressionError(f"structure constants not antisymmetric: {bad}")
    table = {}
    for (a, b, k), value in constants.items():
        if a < b:
            table.setdefault((a, b), [ZERO] * n)[k] = value
    return AlgebroidModel(name, "bundle_of_algebras", FiberedAtlas([Chart("pt")]),
                          basis_names, table, [None] * n)


def su2() -> AlgebroidModel:
    """so(3)-normalized basis: [e_a, e_b] = sum_c eps_abc e_c."""
    eps = {}
    for (a, b, c) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[(a, b, c)] = ONE
        eps[(b, a, c)] = -ONE
    return lie_algebra("su2-point", ("e1", "e2", "e3"), eps)


def u1() -> AlgebroidModel:
    return lie_algebra("u1-point", ("e1",), {})


def abelian(n) -> AlgebroidModel:
    return lie_algebra(f"abelian-{n}", tuple(f"e{i+1}" for i in range(n)), {})


def ad_star(model: AlgebroidModel, x_coeffs, covector):
    """<ad*(X) xi, Y> := <xi, ad(-X) Y> (sign convention flagged in reports)."""
    neg_x = -model.section(x_coeffs)
    out = []
    for b in range(model.n):
        moved = model.bracket(neg_x, model.basis_section(b)).coeffs
        out.append(sum((coerce_rational(xi) * m for xi, m in zip(covector, moved)),
                       RationalExpr.zero()))
    return tuple(out)


# ---------------------------------------------------------------------------
# algebroid models and sections
# ---------------------------------------------------------------------------

class AlgebroidModel(Frozen):
    """Anchor + bracket over declared generating sections.

    bracket_table[(i, j)] is the coefficient vector of [gen_i, gen_j] (i < j);
    bracket_entries[(i, j)] holds its nonzero (k, coefficient) pairs for both
    orders of each pair, [gen_j, gen_i] = -[gen_i, gen_j] where the table
    gives one order only.
    anchor_fields[i] is the vector field the anchor assigns to gen_i (None = 0).
    isotropy_indices flags the generators spanning ker(anchor).
    """

    def __init__(self, name, variant, base_atlas, generator_names, bracket_table,
                 anchor_fields, isotropy_indices=None, gauge_base_count=0):
        generator_names, anchor_fields = tuple(generator_names), tuple(anchor_fields)
        n = len(generator_names)
        if len(set(generator_names)) != n or len(anchor_fields) != n:
            raise ModelMismatchError(f"{n} distinct generator names need "
                                     f"{n} anchor entries")
        table = {}
        for (i, j), vec in bracket_table.items():
            if not (0 <= i < n and 0 <= j < n and i != j) or len(vec) != n:
                raise ModelMismatchError(f"bracket entry {(i, j)} needs two distinct "
                                         f"generator indices and {n} coefficients")
            table[(i, j)] = tuple(coerce_rational(v) for v in vec)
        both = {pair: tuple((k, c) for k, c in enumerate(vec) if not c.is_zero())
                for pair, vec in table.items()}
        for (i, j), entries in list(both.items()):
            both.setdefault((j, i), tuple((k, -c) for k, c in entries))
        isotropy = tuple(isotropy_indices if isotropy_indices is not None
                         else [i for i, f in enumerate(anchor_fields)
                               if f is None or f.is_zero()])
        if any(type(i) is not int or not 0 <= i < n for i in isotropy):
            raise ModelMismatchError(f"isotropy indices {isotropy} "
                                     "are not generator indices")
        vars(self).update(name=name, variant=variant, base_atlas=base_atlas,
                          generator_names=generator_names, n=n, anchor_fields=anchor_fields,
                          gauge_base_count=gauge_base_count, isotropy_indices=isotropy,
                          # read-only, since `bracket_entries` is derived from it once
                          bracket_table=MappingProxyType(table),
                          bracket_entries=MappingProxyType(both))

    @cached_property
    def _basis(self) -> tuple:
        return tuple(self.section([int(i == k) for i in range(self.n)]) for k in range(self.n))

    # -- sections ---------------------------------------------------------
    def section(self, coeffs) -> "SectionRep":
        coeffs = tuple(coerce_rational(c) for c in coeffs)
        if len(coeffs) != self.n:
            raise ModelMismatchError("coefficient vector has wrong length")
        return SectionRep(self, coeffs)

    def basis_section(self, index) -> "SectionRep":
        """The kept section of generator `index`, which `ActionMap.of` knows."""
        return self._basis[index]

    def generators(self):
        return list(self._basis)

    def generator_bracket(self, i, j):
        out = [RationalExpr.zero()] * self.n
        for k, c in self.bracket_entries.get((i, j), ()):
            out[k] = c
        return tuple(out)

    # -- structure maps ------------------------------------------------------
    def anchor(self, section: "SectionRep") -> VectorField:
        self._own(section)
        return _field_sum(self.base_atlas, LEAF_FULL, zip(section.coeffs, self.anchor_fields))

    def bracket(self, s1: "SectionRep", s2: "SectionRep") -> "SectionRep":
        """Leibniz extension of the generator bracket table, over the nonzero
        coefficients of both sections; a constant one is not derived."""
        self._own(s1)
        self._own(s2)
        out = [RationalExpr.zero()] * self.n
        fs = [(i, f) for i, f in enumerate(s1.coeffs) if not f.is_zero()]
        gs = [(j, g) for j, g in enumerate(s2.coeffs) if not g.is_zero()]
        for i, f in fs:
            for j, g in gs:
                for k, c in self.bracket_entries.get((i, j), ()):
                    out[k] = out[k] + f * g * c
        for i, f in fs:
            rho_i = self.anchor_fields[i]
            if rho_i is None:
                continue
            for j, g in filter(_varies_at, gs):
                dg = _derive_everywhere(rho_i, g)
                if not dg.is_zero():
                    out[j] = out[j] + f * dg
        for j, g in gs:
            rho_j = self.anchor_fields[j]
            if rho_j is None:
                continue
            for i, f in filter(_varies_at, fs):
                df = _derive_everywhere(rho_j, f)
                if not df.is_zero():
                    out[i] = out[i] - g * df
        return SectionRep(self, out)

    def _own(self, section):
        if section.model is not self:
            raise ModelMismatchError("section belongs to another model")

    # -- structural validation -----------------------------------------------
    def leibniz_report(self) -> CheckResult:
        """[X, f Y] = f [X, Y] + (rho(X).f) Y on generators.  The residual is
        a first-order differential operator in f, so f = 1 and each base
        variable are the whole test set; at f = 1 both sides are [X, Y], so
        only the base variables are computed."""
        failures = []
        gens = self.generators()
        tests = _base_functions(self.base_atlas)
        for i in range(self.n):
            for j in range(self.n):
                if i == j:
                    continue
                direct = self.bracket(gens[i], gens[j])
                for f in tests:
                    lhs = self.bracket(gens[i], gens[j] * f)
                    expect = [f * c for c in direct.coeffs]
                    expect[j] = expect[j] + _derive_everywhere(self.anchor_fields[i], f)
                    if any(not (a - b).is_zero() for a, b in zip(lhs.coeffs, expect)):
                        failures.append((self.generator_names[i], self.generator_names[j]))
                        break
        return CheckResult(not failures, failures)

    def jacobi_on_generators(self, coefficient=None) -> CheckResult:
        """Jacobi for the extended bracket on all generator triples.

        coefficient, when given, multiplies the first slot of each triple to
        exercise the Leibniz terms.
        """
        failures = []
        gens = self.generators()
        for a in range(self.n):
            for b in range(self.n):
                for c in range(self.n):
                    if not (a < b < c or coefficient is not None and a != b != c):
                        continue
                    first = gens[a] if coefficient is None else self.section(
                        [coefficient if k == a else 0 for k in range(self.n)])
                    total = None
                    for (x, y, z) in ((first, gens[b], gens[c]),
                                      (gens[b], gens[c], first),
                                      (gens[c], first, gens[b])):
                        term = self.bracket(self.bracket(x, y), z)
                        total = term if total is None else self.section(
                            [p + q for p, q in zip(total.coeffs, term.coeffs)])
                    if any(not v.is_zero() for v in total.coeffs):
                        failures.append((a, b, c))
        return CheckResult(not failures, failures)


class SectionRep(Frozen):
    """One RationalExpr per generator of `model`, taken as given; outside
    input goes through `AlgebroidModel.section`."""

    def __init__(self, model: AlgebroidModel, coeffs):
        vars(self).update(model=model, coeffs=tuple(coeffs))

    def __add__(self, other):
        if other.model is not self.model:
            raise ModelMismatchError("sections of different models")
        return SectionRep(self.model, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, factor):
        factor = coerce_rational(factor)
        return SectionRep(self.model, [c * factor for c in self.coeffs])

    __rmul__ = __mul__

    def __neg__(self):
        return self * ExactScalar(-1)

    def is_zero(self):
        return all(c.is_zero() for c in self.coeffs)

    def __repr__(self):
        bits = [f"({c})*{n}" for c, n in zip(self.coeffs, self.model.generator_names)
                if not c.is_zero()]
        return " + ".join(bits) if bits else "0"


def _varies_at(entry) -> bool:
    """Whether the coefficient of an (index, coefficient) pair has a
    non-constant monomial on either side of its quotient."""
    _, expr = entry
    return any(expr.num.terms) or any(expr.den.terms)


def _derive_everywhere(field: VectorField, expr: RationalExpr) -> RationalExpr:
    """Directional derivative of a base-coordinate expression.

    It is taken on the first chart of the field whose coordinates include
    every variable of the expression but `twopii`; a chart without one of
    them would treat it as a constant.  A constant has the zero derivative,
    so it is not derived.
    """
    expr = coerce_rational(expr)
    names = expr.variables() - {TWO_PI_I}
    if field is None or not names:
        return RationalExpr.zero()
    for ch in field.components:
        if names <= set(field.atlas.chart(ch).coords):
            return field.derive(expr, ch)
    raise AtlasMismatchError(
        f"no chart of the field has every variable of {expr}: {sorted(names)}")


def _base_functions(atlas: FiberedAtlas):
    """Each base coordinate as a function (each coordinate when no chart has a
    base).  With f = 1 they are a complete test set for an identity that is
    first order in a base function f."""
    charts = atlas.charts.values()
    names = dict.fromkeys(c for chart in charts for c in chart.base_coords) or \
        dict.fromkeys(c for chart in charts for c in chart.coords)
    return [RationalExpr.var(c) for c in names]


# ---------------------------------------------------------------------------
# actions of algebroids on fibered atlases
# ---------------------------------------------------------------------------

class ActionMap(Frozen):
    """Assignment of leafwise fields on the target to sections of the model.

    Target charts reuse the base coordinate names of the model's base, so the
    pullback along the bundle projection is literal.
    """

    def __init__(self, model: AlgebroidModel, target_atlas: FiberedAtlas,
                 fields, name=""):
        if len(fields) != model.n:
            raise ModelMismatchError("one field per generator required")
        vars(self).update(model=model, target_atlas=target_atlas, fields=tuple(fields),
                          name=name)

    def of(self, section: SectionRep) -> VectorField:
        if section.model is not self.model:
            raise ModelMismatchError("section belongs to another model")
        for i, gen in enumerate(self.model._basis):
            if section is gen:
                return self.generator_field(i)
        return _field_sum(self.target_atlas, LEAF_JTILDE, zip(section.coeffs, self.fields))

    def generator_field(self, index) -> VectorField:
        """The field of generator `index`, which `of` gives its basis section:
        the stored field, or the zero field for None."""
        field = self.fields[index]
        return field if field is not None else _field_sum(self.target_atlas, LEAF_JTILDE, ())

    def morphism_report(self) -> CheckResult:
        """The four action identities on generators.  Additivity and module
        linearity are first order in a coefficient function f, so f = 1 and
        each base variable are the whole test set; linearity holds at f = 1
        as written, so it is computed on the base variables only."""
        failures = []
        gens = self.model.generators()
        # bracket compatibility on generator pairs
        for i in range(self.model.n):
            for j in range(i + 1, self.model.n):
                lhs = commutator(self.of(gens[i]), self.of(gens[j]))
                rhs = self.of(self.model.bracket(gens[i], gens[j]))
                if not (lhs - rhs).is_zero():
                    failures.append(("bracket", self.model.generator_names[i],
                                     self.model.generator_names[j]))
        # anchor compatibility: base components of alpha(X) equal rho(X)
        for i, gen in enumerate(gens):
            field = self.of(gen)
            rho = self.model.anchor(gen)
            for ch_name in field.components:
                chart = self.target_atlas.chart(ch_name)
                for coord in chart.base_coords:
                    alpha_comp = field.component(ch_name, coord)
                    rho_comp = _base_component(rho, coord)
                    if not (alpha_comp - rho_comp).is_zero():
                        failures.append(("anchor", self.model.generator_names[i], coord))
        # additivity and module linearity over pullbacks of base functions
        variables = _base_functions(self.model.base_atlas)
        for i, gen in enumerate(gens):
            other = gens[(i + 1) % self.model.n]
            alpha, alpha_other = self.of(gen), self.of(other)
            scaled = [(RationalExpr.const(1), alpha)] + [(f, self.of(gen * f)) for f in variables]
            if any(not (self.of(gen * f + other) - alpha_f - alpha_other).is_zero()
                   for f, alpha_f in scaled):
                failures.append(("additivity", self.model.generator_names[i]))
            if any(not (alpha_f - alpha * f).is_zero() for f, alpha_f in scaled[1:]):
                failures.append(("linearity", self.model.generator_names[i]))
        return CheckResult(not failures, failures)


def _base_component(field: VectorField, coord) -> RationalExpr:
    for ch in field.components:
        if coord in field.atlas.chart(ch).coords:
            return field.component(ch, coord)
    return RationalExpr.zero()


def action_algebroid(parent: AlgebroidModel, action: ActionMap) -> AlgebroidModel:
    """Action algebroid: same generators, base moved to the action target.
    Its structure is an algebroid only when `action` passes `morphism_report`."""
    bracket_table = {}
    for i in range(parent.n):
        for j in range(i + 1, parent.n):
            bracket_table[(i, j)] = parent.generator_bracket(i, j)
    return AlgebroidModel(
        name=f"{parent.name}|action",
        variant="action",
        base_atlas=action.target_atlas,
        generator_names=parent.generator_names,
        bracket_table=bracket_table,
        anchor_fields=[action.generator_field(i) for i in range(parent.n)],
        isotropy_indices=parent.isotropy_indices,
    )
