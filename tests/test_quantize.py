"""Holomorphic solver, exact inner products, representation matrices,
closed-form integration."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantbench import catalog, exprs, linalg, quantize, runner
from quantbench.catalog import (
    SCENARIO_FAMILIES,
    build_scenario,
    control_skew_structure,
    holomorphic_coordinates,
    o_bundle,
    s1_plane_scenario,
    sphere_atlas,
    sphere_family_scenario,
    standard_complex_structure,
)
from quantbench.bundles import LineBundleData, kostant_operator, trivial_bundle
from quantbench.cech import GoodCover
from quantbench.errors import (
    MalformedExpressionError,
    UnsupportedFiberError,
    UnsupportedIntegrationError,
)
from quantbench.exprs import TWO_PI_I, PolyExpr, RationalExpr, coerce_rational, parse_expr
from quantbench.geometry import Chart, FiberedAtlas
from quantbench.hamiltonian import MomentumMapRep, pairing_combination
from quantbench.liealg import ActionMap, lie_algebra
from quantbench.linalg import det, rref, solve_linear
from quantbench.quantize import (
    HolomorphicBasis,
    INTEGRATIONS,
    QuantizationResult,
    _FiberTerms,
    _fiber_terms,
    _fs_pairing,
    commutation_check,
    fs_monomial_integral,
    gram_matrix,
    holomorphic_solve,
    induced_representation,
    inner_product,
    integrate_representation,
    leading_minors_positive,
    polarization_equivariance_check,
    sphere_family_probe,
    unitarity_check,
)
from quantbench.scalars import ExactScalar, I, ONE, ZERO, rational
from quantbench.scenario_io import FILE_INTEGRATIONS

_part = st.fractions(min_value=-6, max_value=6, max_denominator=4)
_scalars = st.builds(ExactScalar, _part, _part)
# nonzero polynomials in x, y of degree at most 3 in each
_xy_polys = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), _scalars,
                            min_size=1, max_size=5).map(
    lambda table: PolyExpr({tuple((v, e) for v, e in (("x", a), ("y", b)) if e): c
                            for (a, b), c in table.items()})).filter(lambda p: not p.is_zero())
Q = parse_expr("1 + x^2 + y^2").as_poly()
_DEN_FACTORS = [parse_expr(t).as_poly() for t in ("x + 1", "x - y", "1 + x^2 + y^2",
                                                  "y + 2*i", "x^2 + y^2")]


def fs_integral(expr: RationalExpr, x_name="x", y_name="y") -> ExactScalar:
    """Exact integral against the unit Fubini-Study density, through the
    integration path of `inner_product`.

    Accepts P(x, y) / (1 + x^2 + y^2)^N; the density (1/pi)(1+r^2)^-2 dx dy is
    included, so the result is (1/pi) int P (1+r^2)^(-N-2).
    """
    return _fs_pairing(_FiberTerms({(0, 0): ONE}, 0), _fiber_terms(expr, x_name, y_name))


def _product(factors):
    out = PolyExpr.const(1)
    for f in factors:
        out = out * f
    return out


def _simplified_rows(indexed, total):
    """The rows of the sum of lambda_pos expr, built from the simplified
    expressions over a common multiple of their denominators."""
    den = PolyExpr.const(1)
    cleaned = []
    for pos, expr in indexed:
        expr = coerce_rational(expr).simplify()
        cleaned.append((pos, expr))
        if den.exact_div(expr.den) is None:
            den = expr.den if expr.den.exact_div(den) is not None else den * expr.den
    rows = {}
    for pos, expr in cleaned:
        for mono, coeff in (expr.num * den.exact_div(expr.den)).coeffs().items():
            row = rows.setdefault(mono, [ZERO] * total)
            row[pos] = row[pos] + coeff
    return list(rows.values())


class CallCounter:
    """Counts the calls of `module.name` while installed with `monkeypatch`,
    or as a context manager where no fixture is at hand."""

    def __init__(self, module, name):
        self.module, self.name = module, name
        self.original = getattr(module, name)
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.original(*args, **kwargs)

    def __enter__(self):
        setattr(self.module, self.name, self)
        return self

    def __exit__(self, *exc):
        setattr(self.module, self.name, self.original)


def _holomorphic_scenarios():
    """(label, builder) for every catalog scenario the holomorphic-dimension
    row solves on: holomorphic coordinates, a bundle, a structure, fibers."""
    builds = [(f"{family}-{level}", lambda family=family, level=level:
               catalog.build_scenario(family, level))
              for family, spec in catalog.SCENARIO_FAMILIES.items()
              for level in spec["levels"] or (None,)]
    builds.append(("gauge-u1-rotation-1", lambda: catalog.gauge_u1_rotation_scenario(1)))
    for label, build in builds:
        s = build()
        if s.holomorphic_coords is not None and s.bundle is not None and \
                s.structure is not None and \
                any(chart.fiber_coords for chart in s.atlas.charts.values()):
            yield label, s


def reference_matrix(images, basis_exprs):
    """M with images[e] = sum_i M[i][e] basis_exprs[i], solved as before one
    elimination served every operator: over the product of all denominators,
    one solve for each image and each twopii degree of it."""
    images = [coerce_rational(f).simplify() for f in images]
    basis_exprs = [coerce_rational(f).simplify() for f in basis_exprs]
    den = PolyExpr.const(1)
    for expr in images + basis_exprs:
        den = den * expr.den
    basis_coeffs = [(f.num * den.exact_div(f.den)).coeffs() for f in basis_exprs]
    monomials = sorted({m for c in basis_coeffs for m in c})
    rows = [[c.get(m, ZERO) for c in basis_coeffs] for m in monomials]
    matrix = [[RationalExpr.zero()] * len(images) for _ in basis_exprs]
    for e, f in enumerate(images):
        parts = {}
        for mono, coeff in (f.num * den.exact_div(f.den)).coeffs().items():
            rest = dict(mono)
            parts.setdefault(rest.pop(TWO_PI_I, 0), {})[tuple(sorted(rest.items()))] = coeff
        for deg, part in parts.items():
            assert set(part) <= set(monomials)
            (sol,) = solve_linear(rows, [[part.get(m, ZERO) for m in monomials]])
            assert sol is not None
            for i, value in enumerate(sol):
                matrix[i][e] = matrix[i][e] + RationalExpr.var(TWO_PI_I) ** deg * value
    return matrix


class Shifted:
    """An operator whose image on the given patches gains `shift` times its
    argument."""

    def __init__(self, op, shift, patches):
        self.op, self.shift, self.patches = op, shift, patches

    def apply(self, p, f):
        image = self.op.apply(p, f)
        return image + f * self.shift if p in self.patches else image


def _reweighted(bundle, patch, weight):
    """`bundle` with the metric weight `weight` on `patch`."""
    return LineBundleData(bundle.name, bundle.cover, bundle.transitions,
                          {**bundle.metric_weights, patch: weight}, bundle.potentials)


def _texts(basis):
    return [{p: str(f) for p, f in element.items()} for element in basis.elements]


def beta_integral_oracle(a: int, k: int) -> Fraction:
    """Independent evaluation of int_0^inf t^a (1+t)^(-k-2) dt.

    Substituting u = 1/(1+t) gives int_0^1 (1-u)^a u^(k-a) du, expanded by the
    binomial theorem into an exact rational sum.
    """
    total = Fraction(0)
    for i in range(a + 1):
        total += Fraction(math.comb(a, i) * (-1) ** i, k - a + i + 1)
    return total


@pytest.fixture(scope="module")
def atlas():
    return sphere_atlas()


class TestComplexStructure:
    def test_standard_structure_valid(self, atlas):
        assert standard_complex_structure(atlas).validate().ok

    def test_skew_perturbation_breaks_gluing(self):
        structure = control_skew_structure()
        report = structure.validate()
        assert not report.ok

    def test_positivity_samples(self, atlas, orbit_scenarios):
        structure = standard_complex_structure(atlas)
        omega = orbit_scenarios[2].presymplectic.omega
        # rebuild on the scenario atlas for identity of atlas objects
        scenario = orbit_scenarios[2]
        structure = scenario.structure
        assert structure.positivity_check(omega).ok

    @pytest.mark.parametrize("sign", [1, -1], ids=["j", "minus-j"])
    def test_a_structure_without_sample_points_fails_positivity(self, orbit_scenarios, sign):
        """The scenario's j, or -j (negative), declared with no sample point:
        the row has tested nothing, so it fails rather than pass."""
        scenario = orbit_scenarios[1]
        matrices = {ch: [[v * sign for v in row] for row in mat]
                    for ch, mat in scenario.structure.matrices.items()}
        bare = scenario.replace(structure=quantize.ComplexStructureData(scenario.atlas, matrices))
        record = runner.run_scenario(bare, checks=["kahler-positivity"]).records[-1]
        assert (record.check_id, record.status, record.failures) == \
            ("kahler-positivity", "fail", [("samples", "no sample point declared")])

    def test_twice_the_standard_structure_fails_j_squared(self, atlas):
        """j = 2 j0 glues as j0 does, but j^2 = -4 on the diagonal."""
        twice = [[0, 2], [-2, 0]]
        report = quantize.ComplexStructureData(atlas, {"N": twice, "S": twice}).validate()
        assert report.failures == [(f"{ch}: j^2 != -1", f"entry {i},{i}")
                                   for ch in "NS" for i in (0, 1)]

    def test_polarization_frame_is_antiholomorphic(self, atlas):
        frames = standard_complex_structure(atlas).polarization_frames()
        frame = frames["N"][0]
        ratio = frame.component("N", "y") / frame.component("N", "x")
        assert (ratio - ExactScalar(0, -1)).is_zero()


class TestPolarizationEquivariance:
    def test_rotations_are_holomorphic(self, orbit_scenarios):
        scenario = orbit_scenarios[2]
        assert polarization_equivariance_check(scenario).ok

    def test_skew_perturbation_fails(self, orbit_scenarios):
        scenario = orbit_scenarios[2]
        skewed = scenario.replace(structure=control_skew_structure(scenario.atlas))
        report = polarization_equivariance_check(skewed)
        assert not report.ok

    def test_zero_action_passes(self):
        from quantbench.catalog import sphere_family_scenario
        scenario = sphere_family_scenario(1)
        from quantbench.quantize import ComplexStructureData
        empty = scenario.replace(structure=ComplexStructureData(scenario.atlas, {"I": []}))
        assert polarization_equivariance_check(empty).ok


class TestHolomorphicSolve:
    @pytest.mark.parametrize("k,expected", [(-1, 0), (0, 1), (1, 2), (2, 3),
                                            (3, 4), (4, 5)])
    def test_dimensions(self, atlas, k, expected):
        bundle = o_bundle(atlas, k)
        structure = standard_complex_structure(atlas)
        basis = holomorphic_solve(bundle, structure, holomorphic_coordinates(), max(k, 0) + 2)
        assert basis.dimension == expected

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_cap_robustness(self, atlas, k):
        bundle = o_bundle(atlas, k)
        structure = standard_complex_structure(atlas)
        dims = set()
        for cap in (k + 2, k + 4):
            dims.add(holomorphic_solve(bundle, structure, holomorphic_coordinates(),
                                       cap).dimension)
        assert dims == {k + 1}

    @pytest.mark.parametrize("scenario", [pytest.param(s, id=label)
                                          for label, s in _holomorphic_scenarios()])
    def test_one_elimination_matches_separate_solves(self, scenario):
        inputs = (scenario.bundle, scenario.structure, scenario.holomorphic_coords)
        cap = scenario.ansatz_cap
        both = holomorphic_solve(*inputs, cap, cap + 2)
        alone = holomorphic_solve(*inputs, cap)
        assert _texts(both) == _texts(alone)
        assert alone.probe_dimension == alone.dimension
        assert both.probe_dimension == holomorphic_solve(*inputs, cap + 2).dimension

    def test_robustness_mismatch_fails(self, orbit_scenarios):
        # at cap 1 only z glues on the level-2 sphere; at cap 3 so do 1 and z^2
        scenario = orbit_scenarios[2].replace(ansatz_cap=1)
        result = next(c for c in runner.CHECKS if c.id == "holomorphic-dimension").run(scenario)
        assert (result.ok, result.failures) == (False, [("robustness", "1 vs 3")])
        assert result.notes == ["dimension 1 at caps 1 and 3"]
        alone = holomorphic_solve(scenario.bundle, scenario.structure,
                                  scenario.holomorphic_coords, 1)
        assert _texts(scenario.basis) == _texts(alone) == [{"N": "-1i*y + x", "S": "-1i*v + u"}]

    def test_holomorphic_dimension_eliminates_once(self, monkeypatch, rotation_scenarios):
        scenario = rotation_scenarios[4].replace()
        row = next(c for c in runner.CHECKS if c.id == "holomorphic-dimension")
        section_system = CallCounter(quantize, "rref")
        every = CallCounter(linalg, "rref")
        monkeypatch.setattr(quantize, "rref", section_system)
        monkeypatch.setattr(linalg, "rref", every)
        assert row.run(scenario).ok
        assert section_system.calls == 1
        row_calls, every.calls = every.calls, 0
        holomorphic_solve(scenario.bundle, scenario.structure, scenario.holomorphic_coords,
                          scenario.ansatz_cap)
        assert row_calls == every.calls  # the polarization frames, then the system

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), _xy_polys,
                              st.lists(st.sampled_from(_DEN_FACTORS), max_size=3),
                              st.lists(st.sampled_from(_DEN_FACTORS), max_size=2)),
                    min_size=1, max_size=5))
    def test_linear_rows_span_the_rows_of_the_simplified_expressions(self, drawn):
        """Rows over a common multiple of the denominators as they stand
        reduce to the rows over the cancelled ones.  Each expression is
        num / den with a shared factor put on both sides; the factors come
        from one small set, so denominators share factors and repeat."""
        indexed = []
        for pos, num, den_factors, shared in drawn:
            den = _product(den_factors)
            common = _product(shared)
            indexed.append((pos, RationalExpr(num * common, den * common)))
        ours, pivots = rref(quantize._linear_rows(indexed, 4))
        theirs, their_pivots = rref(_simplified_rows(indexed, 4))
        assert pivots == their_pivots
        assert ours[:len(pivots)] == theirs[:len(pivots)]
        assert all(v.is_zero() for row in ours[len(pivots):] for v in row)

    def test_the_system_has_no_more_rows_than_columns(self, monkeypatch,
                                                      rotation_scenarios):
        """Over z, zbar every gluing term on the projective line is one
        monomial: the level-4 system has 13 rows for its 18 columns, where
        the system over x, y had 239."""
        scenario = rotation_scenarios[4]
        shapes = []

        def counted(rows):
            shapes.append((len(rows), len(rows[0])))
            return rref(rows)
        monkeypatch.setattr(quantize, "rref", counted)
        cap = scenario.ansatz_cap
        basis = holomorphic_solve(scenario.bundle, scenario.structure,
                                  scenario.holomorphic_coords, cap, cap + 2)
        assert basis.dimension == basis.probe_dimension == 5
        assert shapes == [(13, 18)]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), _xy_polys,
                              st.lists(st.sampled_from(_DEN_FACTORS), max_size=2)),
                    min_size=1, max_size=5))
    def test_rows_over_z_zbar_reduce_as_the_rows_over_x_y(self, drawn):
        """The solver's map x, y -> z, zbar is linear and invertible, so the
        rows of an identity and of its image have one reduced form."""
        to_zz = quantize._zz_map("x", "y")
        indexed = [(pos, RationalExpr(num, _product(den))) for pos, num, den in drawn]
        ours, pivots = rref(quantize._linear_rows(
            [(pos, expr.subst(to_zz)) for pos, expr in indexed], 4))
        theirs, their_pivots = rref(quantize._linear_rows(indexed, 4))
        assert pivots == their_pivots
        assert ours[:len(pivots)] == theirs[:len(pivots)]

    @pytest.mark.parametrize("coordinate,dimension", [("x - i*y", 4), ("x + i*y", 1)])
    def test_powers_follow_the_derivation_rule(self, coordinate, dimension):
        """On the trivial bundle over a plane every power of z is polarized,
        and of the powers of zbar only the constant is: the frame derivative
        of zbar^a is a zbar^(a-1) times that of zbar, which is not 0."""
        plane = FiberedAtlas([Chart("P", fiber_coords=("x", "y"), star_shaped=True)])
        bundle = trivial_bundle(GoodCover(plane, ["P"], [], chart_refs={("P",): "P"}))
        structure = quantize.ComplexStructureData(plane, {"P": [[0, 1], [-1, 0]]})
        basis = holomorphic_solve(bundle, structure, {"P": parse_expr(coordinate)}, 3)
        assert basis.dimension == dimension

    def test_the_solver_needs_a_two_coordinate_fiber(self):
        # foliation-flat's trivial line lies over a point fiber
        bundle = catalog.foliation_flat_scenario().bundle
        structure = quantize.ComplexStructureData(bundle.cover.atlas, {})
        with pytest.raises(UnsupportedFiberError, match="2-dimensional fiber"):
            holomorphic_solve(bundle, structure, {"F": parse_expr("x")}, 1)

    def test_linear_rows_add_repeated_positions(self):
        x, one = parse_expr("x"), parse_expr("1")
        rows = quantize._linear_rows([(0, x), (1, one), (0, x * 2), (1, x / 2)], 2)
        assert rows == [[rational(3), rational(1, 2)], [ZERO, ONE]]
        assert quantize._linear_rows([(0, x), (1, one), (0, -x)], 2) == [[ZERO, ZERO],
                                                                         [ZERO, ONE]]

    @pytest.mark.parametrize("name", ["u1-rotation-reduction-4", "gauge-su2-1"])
    def test_solve_and_representation_run_no_gcd(self, monkeypatch, rotation_scenarios,
                                                  gauge_su2_1, preset, name):
        scenario = rotation_scenarios[4] if name.startswith("u1") else gauge_su2_1
        ops = kostant_operator(scenario)
        gcd = CallCounter(exprs, "poly_gcd")
        monkeypatch.setattr(exprs, "poly_gcd", gcd)
        cap = scenario.ansatz_cap
        basis = holomorphic_solve(scenario.bundle, scenario.structure,
                                  scenario.holomorphic_coords, cap, cap + 2)
        induced_representation(preset(scenario, operators=ops, basis=basis))
        assert basis.dimension > 0
        assert gcd.calls == 0

    def test_kernel_is_monomial_span(self, atlas):
        bundle = o_bundle(atlas, 2)
        structure = standard_complex_structure(atlas)
        basis = holomorphic_solve(bundle, structure, holomorphic_coordinates(), 4)
        z = parse_expr("x - i*y")
        spanned = set()
        for element in basis.elements:
            expr = element["N"]
            for a in range(3):
                if not (expr - z ** a).is_zero():
                    continue
                spanned.add(a)
        assert spanned == {0, 1, 2}


class TestInnerProducts:
    def test_monomial_integral_against_oracle(self):
        for k in range(5):
            for a in range(k + 1):
                exact = fs_monomial_integral(a, a, k + 2)
                oracle = beta_integral_oracle(a, k)
                assert exact == ExactScalar(oracle)
                closed = Fraction(math.factorial(a) * math.factorial(k - a),
                                  math.factorial(k + 1))
                assert oracle == closed

    def test_numeric_quadrature_cross_check(self):
        integrate = pytest.importorskip("scipy.integrate")
        for k, a in ((2, 0), (2, 1), (3, 2), (4, 4)):
            numeric, err = integrate.quad(
                lambda t, a=a, k=k: t ** a * (1 + t) ** (-k - 2), 0, math.inf)
            exact = float(Fraction(math.factorial(a) * math.factorial(k - a),
                                   math.factorial(k + 1)))
            assert abs(numeric - exact) < 1e-9

    def test_gram_matrix_level_two(self, orbit_quantizations):
        gram = orbit_quantizations[2].gram
        expected = [rational(1, 3), rational(1, 6), rational(1, 3)]
        for i in range(3):
            for j in range(3):
                assert gram[i][j] == (expected[i] if i == j else ZERO)

    def test_gram_matrix_is_the_full_evaluation(self, rotation_quantizations):
        # gram_matrix integrates only the upper triangle; a mixed basis makes
        # the entries below it nonzero and not real
        basis = rotation_quantizations[2].basis
        e = basis.elements
        mixed = HolomorphicBasis(basis.bundle, [
            {p: e[0][p] + e[1][p] * I for p in e[0]},
            {p: e[1][p] - e[2][p] * 2 for p in e[0]},
            e[2]])
        p0 = basis.bundle.cover.index_set[0]
        h = basis.bundle.weight(p0)
        for b in (basis, mixed):
            full = [[inner_product(b.bundle, f, g) for g in b.elements]
                    for f in b.elements]
            assert gram_matrix(b) == full
            # the whole integrand, integrated at once
            assert full == [[fs_integral(f[p0].conj() * g[p0] * h) for g in b.elements]
                            for f in b.elements]
        assert gram_matrix(mixed)[1][0] != gram_matrix(mixed)[0][1]

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_gram_diagonal_closed_form(self, orbit_quantizations, k):
        gram = orbit_quantizations[k].gram
        for a in range(k + 1):
            expected = ExactScalar(Fraction(
                math.factorial(a) * math.factorial(k - a), math.factorial(k + 1)))
            assert gram[a][a] == expected
        assert leading_minors_positive(gram)

    def test_off_diagonal_vanishes(self, atlas):
        bundle = o_bundle(atlas, 2)
        z = parse_expr("x - i*y")
        assert inner_product(bundle, {"N": parse_expr("1")}, {"N": z}) == ZERO

    def test_numeric_matches_exact_inner_product(self, atlas, fs_quadrature):
        bundle = o_bundle(atlas, 2)
        z = parse_expr("x - i*y")
        exact = inner_product(bundle, {"N": z}, {"N": z})
        numeric = fs_quadrature(bundle, {"N": z}, {"N": z}, "N")
        assert abs(numeric - complex(exact)) < 1e-9

    def test_unsupported_fiber_rejected(self, atlas):
        bundle = o_bundle(atlas, 1)
        with pytest.raises(UnsupportedFiberError):
            fs_integral(parse_expr("1/(1+x^2)"))

    @pytest.mark.parametrize("text", ["x^5/(1+x^2+y^2)",
                                      "x^5*(1+x^2+y^2)^2/(1+x^2+y^2)^3",
                                      "x^2*y^2/(1+x^2+y^2)"])
    def test_divergent_integral_raises(self, text):
        # off the diagonal too: |x^5| grows like r^5 against (1+r^2)^-3
        with pytest.raises(UnsupportedFiberError):
            fs_integral(parse_expr(text))

    def test_monomial_convergence_counts_both_exponents(self):
        assert fs_monomial_integral(1, 0, 2) == ZERO
        assert fs_monomial_integral(3, 1, 4) == ZERO
        for m, n, weight in ((5, 0, 3), (2, 0, 2), (3, 2, 3)):
            with pytest.raises(UnsupportedFiberError):
                fs_monomial_integral(m, n, weight)

    @settings(max_examples=60, deadline=None)
    @given(_xy_polys, st.integers(-1, 2), st.integers(0, 3),
           st.sampled_from([None, "x + 2", "y - i", "1 + x*y"]))
    def test_uncancelled_powers_of_q_integrate_alike(self, p, shift, k, extra):
        """P q^k / q^(N+k), and P f / (f q^N) for a factor f other than q,
        give the simplify-first value of P / q^N; N = deg(P)//2 - 1 diverges."""
        n = p.total_degree() // 2 + shift
        if n < 0:
            return
        num, den = p * Q ** k, Q ** (n + k)
        if extra is not None:
            f = parse_expr(extra).as_poly()
            num, den = num * f, den * f
        expr = RationalExpr(num, den)
        try:
            expected = fs_integral(expr.simplify())
        except UnsupportedFiberError:
            assert shift < 0
            with pytest.raises(UnsupportedFiberError):
                fs_integral(expr)
            return
        assert shift >= 0
        with CallCounter(exprs, "poly_gcd") as gcd:
            assert fs_integral(expr) == expected
        if extra is None:
            assert gcd.calls == 0

    def test_non_q_factor_takes_the_fallback(self):
        # (x^2 + y^2) (x + 2) / ((x + 2) q^3): z zbar at weight 5 is 1!2!/4!
        expr = RationalExpr(parse_expr("(x^2 + y^2)*(x + 2)").as_poly(),
                            parse_expr("x + 2").as_poly() * Q ** 3)
        with CallCounter(exprs, "poly_gcd") as gcd:
            assert fs_integral(expr) == rational(1, 12)
        assert gcd.calls > 0

    def test_gram_matrix_runs_no_gcd(self, monkeypatch, rotation_quantizations):
        result = rotation_quantizations[4]  # u1-rotation-reduction-4
        gcd = CallCounter(exprs, "poly_gcd")
        monkeypatch.setattr(exprs, "poly_gcd", gcd)
        gram = gram_matrix(result.basis)
        assert [tuple(row) for row in gram] == list(result.gram)
        assert gcd.calls == 0

    def test_gram_entries_match_inner_product(self, rotation_quantizations):
        """Elements over powers of q or with a cancelling factor, and weights
        with a constant other than 1, a factor f/f or a numerator q, give the
        per-entry matrix; each entry of the upper triangle is one
        `inner_product` call on the factors written once per element."""
        basis = rotation_quantizations[2].basis
        bundle = basis.bundle
        p0 = bundle.cover.index_set[0]
        e = [element[p0] for element in basis.elements]
        f = parse_expr("x + 2")
        mixed = [e[0] + e[1] * I, e[1] - e[2] * 2, e[2]]
        over_q = [e[0] / Q, e[1] + e[2], e[2]]
        cancelling = [e[0], RationalExpr(e[1].num * f.num, f.num), e[2]]
        weight = bundle.weight(p0)
        coords = bundle.cover.atlas.chart(bundle.patch_chart(p0)).fiber_coords
        for elements, h in ((mixed, weight * 3),
                            (over_q, weight),
                            (cancelling, weight),
                            (mixed, weight * f / f.num),
                            (mixed, RationalExpr(weight.num * Q, weight.den * Q))):
            changed = _reweighted(bundle, p0, h)
            full = [[inner_product(changed, {p0: a}, {p0: b}) for b in elements]
                    for a in elements]
            # the whole integrand, integrated at once
            assert full == [[fs_integral(a.conj() * b * h, *coords) for b in elements]
                            for a in elements]
            with CallCounter(quantize, "inner_product") as per_entry, \
                    CallCounter(quantize, "_zz_decompose") as decompositions:
                gram = gram_matrix(HolomorphicBasis(changed, [{p0: a} for a in elements]))
            assert gram == full
            assert per_entry.calls == 6
            assert decompositions.calls == len(elements) + 1  # and the weight

    def test_gram_diverges_exactly_when_the_whole_integrand_does(self, rotation_quantizations):
        # a weight c q^k / q^N: the factored Gram raises for the same k as
        # the whole integrand
        basis = rotation_quantizations[2].basis
        p0 = basis.bundle.cover.index_set[0]
        coords = basis.bundle.cover.atlas.chart(basis.bundle.patch_chart(p0)).fiber_coords
        weight = basis.bundle.weight(p0)
        elements = [element[p0] for element in basis.elements]
        diverged = []
        for k in range(6):
            h = RationalExpr(weight.num * Q ** k, weight.den)
            reweighted = HolomorphicBasis(_reweighted(basis.bundle, p0, h), basis.elements)
            try:
                whole = [[fs_integral(a.conj() * b * h, *coords) for b in elements]
                         for a in elements]
            except UnsupportedFiberError:
                diverged.append(k)
                with pytest.raises(UnsupportedFiberError, match="diverges"):
                    gram_matrix(reweighted)
            else:
                assert gram_matrix(reweighted) == whole
        assert 0 < len(diverged) < 6

    def test_gram_needs_the_projective_line_fiber(self):
        # foliation-flat's trivial line lies over a point fiber
        bundle = catalog.foliation_flat_scenario().bundle
        one = {"F": parse_expr("1")}
        with pytest.raises(UnsupportedFiberError, match="2-dimensional fiber"):
            gram_matrix(HolomorphicBasis(bundle, [one]))
        with pytest.raises(UnsupportedFiberError, match="2-dimensional fiber"):
            inner_product(bundle, one, one)

    def test_gram_with_a_non_q_weight_raises_as_inner_product_does(self, rotation_quantizations):
        basis = rotation_quantizations[2].basis
        p0 = basis.bundle.cover.index_set[0]
        bundle = _reweighted(basis.bundle, p0, basis.bundle.weight(p0) / parse_expr("x + 2"))
        with pytest.raises(UnsupportedFiberError, match="not a power of 1 \\+ r\\^2"):
            inner_product(bundle, basis.elements[0], basis.elements[0])
        with pytest.raises(UnsupportedFiberError, match="not a power of 1 \\+ r\\^2"):
            gram_matrix(HolomorphicBasis(bundle, basis.elements))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.lists(st.lists(_scalars, min_size=n, max_size=n), min_size=n, max_size=n),
        st.lists(st.fractions(-2, 6, max_denominator=2), min_size=n, max_size=n),
        st.sampled_from(["gram", "hermitian", "plain"]))))
    def test_leading_minors_match_determinants(self, drawn):
        """Against the Laplace determinant of every leading block: on A^H A
        shifted along the diagonal (often singular or indefinite), on
        Hermitian matrices with a real diagonal, and on plain matrices."""
        a, diagonal, kind = drawn
        n = len(a)
        if kind == "gram":
            rows = [[sum((a[t][i].conj() * a[t][j] for t in range(n)), ZERO)
                     + (diagonal[i] if i == j else ZERO) for j in range(n)]
                    for i in range(n)]
        elif kind == "hermitian":
            rows = [[ExactScalar(diagonal[i]) if i == j else
                     a[i][j] if i < j else a[j][i].conj() for j in range(n)]
                    for i in range(n)]
        else:
            rows = a
        expected = all(det([row[:size] for row in rows[:size]]).is_positive()
                       for size in range(1, n + 1))
        assert leading_minors_positive(rows) == expected

    @pytest.mark.parametrize("rows,expected", [
        ([[ZERO, ONE], [ONE, ZERO]], False),          # zero first pivot
        ([[ONE, ONE], [ONE, ONE]], False),            # singular
        ([[ONE, I], [-I, ExactScalar(2)]], True),
        ([[ONE, ZERO], [ZERO, ExactScalar(-1)]], False),
        ([], True)])
    def test_leading_minors_edge_cases(self, rows, expected):
        assert leading_minors_positive(rows) == expected


class TestInducedRepresentation:
    def test_su2_level_one_is_defining_representation(self, orbit_quantizations):
        result = orbit_quantizations[1]
        assert result.dimension == 2
        half_i = ExactScalar(0, Fraction(1, 2))
        expected = {
            0: [[ZERO, -half_i], [-half_i, ZERO]],
            2: [[half_i, ZERO], [ZERO, -half_i]],
        }
        for idx, mat in expected.items():
            for a in range(2):
                for b in range(2):
                    assert (result.matrices[idx][a][b] - mat[a][b]).is_zero()

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_commutation_and_unitarity(self, orbit_scenarios, k):
        assert commutation_check(orbit_scenarios[k]).ok
        assert unitarity_check(orbit_scenarios[k]).ok

    def test_perturbed_entry_fails_commutation_and_unitarity(self, orbit_scenarios, preset):
        """1 added to the first diagonal entry of the e3 matrix: a Hermitian
        part, which the off-diagonal e1 and e2 matrices do not commute with,
        and which [e1, e2] = e3 does not produce."""
        source = orbit_scenarios[1].representation
        matrices = [[list(row) for row in mat] for mat in source.matrices]
        matrices[2][0][0] = matrices[2][0][0] + 1
        perturbed = preset(orbit_scenarios[1],
                           representation=QuantizationResult(source.basis, source.gram, matrices))
        assert commutation_check(perturbed).failures == [
            (pair, "commutator mismatch") for pair in ("e1,e2", "e1,e3", "e2,e3")]
        assert unitarity_check(perturbed).failures == [("e3", "M*G + GM != 0")]

    def test_level_zero_scalars(self, orbit_quantizations):
        result = orbit_quantizations[0]
        assert result.dimension == 1
        for mat in result.matrices:
            assert mat[0][0].is_zero()

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_vertical_weights_equally_spaced(self, orbit_quantizations, k):
        result = orbit_quantizations[k]
        mat = result.matrices[2]
        weights = [(mat[a][a] * I).simplify().constant_value()
                   for a in range(k + 1)]
        diffs = {weights[a + 1] - weights[a] for a in range(k)}
        assert diffs == {ExactScalar(1)}
        assert weights[0] == ExactScalar(Fraction(-k, 2))
        assert weights[-1] == ExactScalar(Fraction(k, 2))

    @pytest.mark.parametrize("scenario", [pytest.param(s, id=label)
                                          for label, s in _holomorphic_scenarios()])
    def test_matrices_match_separate_solves(self, scenario):
        """One elimination per operator gives the matrices of one solve per
        image and twopii degree, and image = sum_i M[i][e] basis_i holds on
        every patch."""
        result = scenario.representation
        elements = result.basis.elements
        p0 = scenario.bundle.cover.index_set[0]
        for op, mat in zip(kostant_operator(scenario), result.matrices):
            expected = reference_matrix([op.apply(p0, e[p0]) for e in elements],
                                        [e[p0] for e in elements])
            assert [[str(v) for v in row] for row in mat] == \
                [[str(v) for v in row] for row in expected]
            for p in scenario.bundle.cover.index_set:
                for e, element in enumerate(elements):
                    combination = sum((mat[i][e] * other[p] for i, other in enumerate(elements)),
                                      RationalExpr.zero())
                    assert (op.apply(p, element[p]) - combination).is_zero()

    def test_twopii_images_split_by_degree(self, orbit_scenarios, preset):
        """The catalog's images cancel twopii; operators shifted by a
        polynomial in twopii on every patch give matrices of twopii degree 2,
        equal to the per-degree solves and to the unshifted matrices plus the
        shift on the diagonal."""
        scenario = orbit_scenarios[2]
        token = RationalExpr.var(TWO_PI_I)
        shift = token * rational(1, 3) + token ** 2 * rational(-2, 5)
        ops = kostant_operator(scenario)
        shifted = [Shifted(op, shift, set(scenario.bundle.cover.index_set)) for op in ops]
        basis = holomorphic_solve(scenario.bundle, scenario.structure,
                                  scenario.holomorphic_coords, scenario.ansatz_cap)
        plain = induced_representation(preset(scenario, operators=ops, basis=basis)).matrices
        result = induced_representation(preset(scenario, operators=shifted, basis=basis)).matrices
        elements = basis.elements
        for op, mat, before in zip(shifted, result, plain):
            expected = reference_matrix([op.apply("N", e["N"]) for e in elements],
                                        [e["N"] for e in elements])
            assert [[str(v) for v in row] for row in mat] == \
                [[str(v) for v in row] for row in expected]
            for i, row in enumerate(mat):
                for j, value in enumerate(row):
                    assert (value - before[i][j] - (shift if i == j else 0)).is_zero()

    def test_perturbed_patch_differs(self, orbit_scenarios, preset):
        scenario = orbit_scenarios[1]
        ops = kostant_operator(scenario)
        basis = holomorphic_solve(scenario.bundle, scenario.structure,
                                  scenario.holomorphic_coords, scenario.ansatz_cap)
        assert scenario.bundle.cover.index_set == ("N", "S")
        induced_representation(preset(scenario, operators=ops, basis=basis))
        perturbed = (ops[0], Shifted(ops[1], rational(1, 7), {"S"}), ops[2])
        with pytest.raises(MalformedExpressionError, match="differ between patches"):
            induced_representation(preset(scenario, operators=perturbed, basis=basis))

    def test_one_elimination_per_operator(self, monkeypatch, gauge_su2_1, preset):
        ops = kostant_operator(gauge_su2_1)
        basis = holomorphic_solve(gauge_su2_1.bundle, gauge_su2_1.structure,
                                  gauge_su2_1.holomorphic_coords, gauge_su2_1.ansatz_cap)
        every = CallCounter(linalg, "rref")
        monkeypatch.setattr(linalg, "rref", every)
        result = induced_representation(preset(gauge_su2_1, operators=ops, basis=basis))
        assert len(ops) == len(result.matrices) == 5
        assert every.calls == 5

    @pytest.mark.parametrize("family, level", [("su2-orbit-k", 1),
                                               ("u1-rotation-reduction-k", 2)])
    def test_one_column_per_basis_element(self, monkeypatch, family, level):
        """The operators cancel the 1/twopii of their potentials, so images
        carry no twopii and each solve has n columns, not basis_i twopii^d
        for d = 0, 1."""
        widths = []

        def recorded(rows, columns):
            widths.append(len(rows[0]))
            return solve_linear(rows, columns)

        monkeypatch.setattr(quantize, "solve_linear", recorded)
        result = catalog.build_scenario(family, level).representation
        assert widths == [result.dimension] * len(result.matrices)

    def test_kernel_preserved_for_all_generators(self, orbit_quantizations):
        # induced_representation raises if any operator leaves the kernel,
        # so reaching matrices at all certifies preservation; re-assert shape
        for k, result in orbit_quantizations.items():
            assert len(result.matrices) == 3
            for mat in result.matrices:
                assert len(mat) == result.dimension


class TestChangeOfBasis:
    """A rational change of basis f_a = sum_b P_ab e_b of the Lie algebra,
    made together in the structure constants, the action fields and the
    momentum pairings, is the same Hamiltonian action.  The bundle and the
    polarization do not change, so neither does the holomorphic basis: the
    verdicts stay, the Gram matrix is the same, and the matrix of f_a is
    sum_b P_ab M_b."""

    P = [[ONE, ONE, ZERO], [ZERO, ONE, ZERO], [ZERO, rational(1, 2), rational(2)]]

    @classmethod
    def changed(cls, scenario):
        model, n = scenario.model, scenario.model.n
        inverse = linalg.inverse(cls.P)
        # [f_a, f_b] = sum P_ac P_bd [e_c, e_d], and e_k = sum_l (P^-1)_kl f_l
        constants = {}
        for a in range(n):
            for b in range(n):
                bracket = [sum((model.generator_bracket(c, d)[k] * cls.P[a][c] * cls.P[b][d]
                                for c in range(n) for d in range(n)), RationalExpr.zero())
                           for k in range(n)]
                for target in range(n):
                    value = sum((bracket[k] * inverse[k][target] for k in range(n)),
                                RationalExpr.zero())
                    if not value.is_zero():
                        constants[(a, b, target)] = value.constant_value()
        new_model = lie_algebra("su2-changed", ("f1", "f2", "f3"), constants)
        fields = [scenario.action.of(model.section(row)) for row in cls.P]
        pairings = [pairing_combination(scenario.atlas, scenario.momentum.pairings, row)
                    for row in cls.P]
        return scenario.replace(model=new_model,
                                action=ActionMap(new_model, scenario.atlas, fields),
                                momentum=MomentumMapRep(new_model, pairings))

    @pytest.mark.parametrize("k", [1, 2])
    def test_su2_orbit(self, orbit_scenarios, k):
        scenario = orbit_scenarios[k]
        changed = self.changed(scenario)
        assert [(r.check_id, r.status) for r in runner.run_scenario(changed).records] == \
            [(r.check_id, r.status) for r in runner.run_scenario(scenario).records]
        before, after = scenario.representation, changed.representation
        assert after.gram == before.gram
        for row, matrix in zip(self.P, after.matrices):
            combination = [[sum((m[i][j] * p for p, m in zip(row, before.matrices)),
                                RationalExpr.zero()) for j in range(before.dimension)]
                           for i in range(before.dimension)]
            assert all((a - b).is_zero() for a_row, b_row in zip(matrix, combination)
                       for a, b in zip(a_row, b_row))


def _gaussian(text):
    """(re, im) as Fractions from a report entry such as "3/4", "-1/2i" or
    "1/2-2/3i"."""
    match = re.fullmatch(r"(-?\d+(?:/\d+)?)??([+-]?\d+(?:/\d+)?i)?", text)
    assert match and text, text
    re_part, im_part = match.groups()
    return (Fraction(re_part or 0), Fraction(im_part[:-1]) if im_part else Fraction(0))


def _records(scenario):
    return {r.check_id: r for r in runner.run_scenario(scenario).records}


class TestSpinClosedForms:
    """The level-k sphere quantizes to spin k/2 (Borel-Weil): in the basis
    z^m, m = 0..k, the Gram is the Beta integral m!(k-m)!/(k+1)!, the third
    generator is i(k/2 - m) on z^m, and J_a = i M_a are the spin matrices up
    to a diagonal change of basis.  The expected numbers are computed here
    from factorials, at levels no digest pins."""

    @staticmethod
    def assert_spin(records, k):
        """The holomorphic-dimension and quantization records of spin k/2."""
        assert records["holomorphic-dimension"].status == "pass"
        assert records["holomorphic-dimension"].notes == [
            f"dimension {k + 1} at caps {k + 2} and {k + 4}"]
        details = records["quantization"].details
        assert details["dimension"] == k + 1
        gram = [[_gaussian(v) for v in row] for row in details["gram"]]
        m1, m2, m3 = ([[_gaussian(v) for v in row] for row in details["matrices"][name]]
                      for name in ("e1", "e2", "e3"))
        zero = (Fraction(0), Fraction(0))
        for m in range(k + 1):
            for n in range(k + 1):
                if m == n:
                    beta = Fraction(math.factorial(m) * math.factorial(k - m),
                                    math.factorial(k + 1))
                    assert gram[m][m] == (beta, 0)
                    assert m3[m][m] == (0, Fraction(k, 2) - m)
                else:
                    assert gram[m][n] == zero and m3[m][n] == zero

        def times_i(z):
            return (-z[1], z[0])

        # J_a = i M_a, and J_+- = J_1 +- i J_2 = i M_1 -+ M_2
        j1, j2 = ([[times_i(v) for v in row] for row in mat] for mat in (m1, m2))
        raising = [[(a[0] - b[1], a[1] + b[0]) for a, b in zip(r1, r2)]
                   for r1, r2 in zip(j1, j2)]
        lowering = [[(a[0] + b[1], a[1] - b[0]) for a, b in zip(r1, r2)]
                    for r1, r2 in zip(j1, j2)]
        for m in range(k + 1):
            for n in range(k + 1):
                if m != n + 1:
                    assert raising[m][n] == zero
                if n != m + 1:
                    assert lowering[m][n] == zero
        for m in range(k):
            (ar, ai), (br, bi) = raising[m + 1][m], lowering[m][m + 1]
            # J_+ J_- on the weight m - k/2 + 1 of spin k/2: (m + 1)(k - m)
            assert (ar * br - ai * bi, ar * bi + ai * br) == ((m + 1) * (k - m), 0)

    @pytest.mark.parametrize("k", range(13))
    def test_su2_orbit(self, k):
        self.assert_spin(_records(catalog.su2_orbit_scenario(k)), k)

    @pytest.mark.parametrize("k", range(11))
    def test_gauge_su2(self, k):
        """The twisted quantization over the base plane is the fiber's spin
        k/2, and the base generators db1, db2 act by zero."""
        records = _records(catalog.gauge_su2_scenario(k))
        self.assert_spin(records, k)
        matrices = records["quantization"].details["matrices"]
        assert [[_gaussian(v) for row in matrices[name] for v in row]
                for name in ("db1", "db2")] == [[(0, 0)] * (k + 1) ** 2] * 2
        assert records["quantization-isomorphism"].status == "pass"

    @pytest.mark.parametrize("k", range(1, 13))
    def test_u1_rotation(self, k):
        records = _records(catalog.u1_rotation_scenario(k))
        assert records["holomorphic-dimension"].notes == [
            f"dimension {k + 1} at caps {k + 2} and {k + 4}"]
        (mat,) = records["quantization"].details["matrices"].values()
        assert [_gaussian(mat[m][m]) for m in range(k + 1)] == \
            [(0, Fraction(k, 2) - m) for m in range(k + 1)]
        # the record's weight w has eigenvalue -i w, so it reads -(k/2 - m)
        weights = records["integrated-representation"].details["weights"]
        assert [-Fraction(w) for w in weights] == [Fraction(k, 2) - m for m in range(k + 1)]
        assert records["quantum-projector"].notes == [
            f"fixed-subspace dimension {1 if k % 2 == 0 else 0}"]


class TestIntegration:
    def test_rotation_invariant_plane_function(self):
        scenario = s1_plane_scenario()
        rec = integrate_representation(scenario)
        assert rec["kind"] == "s1-plane"
        assert parse_expr(rec["phase_exponent"]).is_zero()

    def test_non_invariant_function_keeps_exponent(self):
        scenario = s1_plane_scenario(parse_expr("x"))
        rec = integrate_representation(scenario)
        # f(r, alpha+beta) - f(r, alpha) with f = x: (cb-1) x - sb y
        expected = parse_expr("cb*x - sb*y - x")
        assert (parse_expr(rec["phase_exponent"]) - expected).is_zero()

    def test_sphere_family_probe_decays(self):
        scenario = sphere_family_scenario(2)
        assert integrate_representation(scenario)["kind"] == "sphere-family"
        deltas = [1e-8, 1e-12, 1e-16, 1e-20]
        probe = sphere_family_probe(scenario.level, deltas)
        assert all(a >= b for a, b in zip(probe, probe[1:]))
        assert probe[-1] < 1e-6

    def test_u1_weights(self, rotation_scenarios):
        rec = integrate_representation(rotation_scenarios[2])
        assert rec["weights"] == ["-1", "0", "1"]

    def test_unsupported_scenario_rejected(self, orbit_scenarios):
        with pytest.raises(UnsupportedIntegrationError):
            integrate_representation(orbit_scenarios[1])

    def test_declared_kinds_have_rules(self):
        kinds = {build_scenario(family, level).integration
                 for family, spec in SCENARIO_FAMILIES.items()
                 for level in spec["levels"] or (None,)}
        assert kinds - {None} == {"u1-weights", "s1-plane", "sphere-family"}
        assert kinds - {None} <= set(INTEGRATIONS)
        assert set(FILE_INTEGRATIONS) <= set(INTEGRATIONS)

    def test_sphere_family_probe_above_the_bound_fails_continuity(self):
        # level 10^4: the probe ends at 5.583e-05 at delta 1e-20, above 1e-6
        report = runner.run_scenario(sphere_family_scenario(10 ** 4),
                                     checks={"integrated-representation"})
        (record,) = [r for r in report.records if r.check_id == "integrated-representation"]
        assert record.status == "fail"
        assert record.failures == [("continuity", str({
            "kind": "sphere-family",
            "description": "(x, arc s) -> exp(twopii mu(x) s) with mu = level on the "
                           "open interval, 0 at the poles",
            "endpoint_probe": ["2.000e+00", "5.511e-01", "5.583e-03", "5.583e-05"]}))]
