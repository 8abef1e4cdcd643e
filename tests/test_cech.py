"""Longitudinal Cech complex: coboundary, cohomology, zig-zag, integrality."""

import math
import random
from fractions import Fraction

import pytest

from quantbench import integrality
from quantbench.catalog import omega_fs, sphere_atlas
from quantbench.cech import GoodCover, OverlapFunction
from quantbench.errors import MalformedExpressionError
from quantbench.exprs import parse_expr
from quantbench.geometry import Chart, DifferentialForm, FiberedAtlas
from quantbench.integrality import (
    Cochain,
    cech_delta,
    cohomology_compute,
    derham_to_cech,
    integrality_test,
    sector_cover,
    sector_zigzag_data,
    smith_normal_form,
)
from quantbench.scalars import ExactScalar


@pytest.fixture(scope="module")
def atlas():
    return sphere_atlas()


@pytest.fixture(scope="module")
def cover4(atlas):
    return sector_cover(atlas, 3)


@pytest.fixture(scope="module")
def cover5(atlas):
    return sector_cover(atlas, 4)


def fs_class(atlas, cover, level: Fraction):
    primitives, overlaps, offsets = sector_zigzag_data(atlas, cover, level)
    return derham_to_cech(omega_fs(atlas, level, "full"), cover,
                          primitives=primitives, overlap_functions=overlaps,
                          branch_offsets=offsets)


class TestDelta:
    def test_constant_cochain_closed(self, cover4):
        c = Cochain(cover4, 0, {(i,): ExactScalar(7) for i in cover4.index_set})
        assert cech_delta(c).is_zero()

    def test_two_set_telescoping(self, atlas):
        cover = GoodCover(atlas, ["N", "S"], [("N", "S")],
                          chart_refs={("N",): "N", ("S",): "S", ("N", "S"): "N"})
        c = Cochain(cover, 0, {("N",): 0, ("S",): 1})
        delta = cech_delta(c)
        assert delta.value(("N", "S")).abs2() == ExactScalar(1)

    def test_sign_convention(self, atlas):
        """(delta c)(N, S) = c(N) - c(S): the face without index j has sign
        (-1)^(j+1)."""
        cover = GoodCover(atlas, ["N", "S"], [("N", "S")],
                          chart_refs={("N",): "N", ("S",): "S", ("N", "S"): "N"})
        delta = cech_delta(Cochain(cover, 0, {("N",): 5, ("S",): 2}))
        assert delta.value(("N", "S")) == ExactScalar(3)

    def test_delta_squared_randomized(self, cover4, cover5):
        rng = random.Random(3)
        trials = 0
        for cover in (cover4, cover5):
            for degree in (0, 1):
                n = len(cover.k_simplices(degree))
                for _ in range(30):
                    vec = [ExactScalar(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
                           for _ in range(n)]
                    c = Cochain.from_vector(cover, degree, vec)
                    assert cech_delta(cech_delta(c)).is_zero()
                    trials += 1
        assert trials >= 100


class TestCohomology:
    def test_four_patch_sphere_ranks(self, cover4):
        h2 = cohomology_compute(cover4, 2, "integer")
        h1 = cohomology_compute(cover4, 1, "integer")
        h0 = cohomology_compute(cover4, 0, "real")
        assert (h2.rank, h2.torsion) == (1, ())
        assert h1.rank == 0
        assert h0.rank == 1

    def test_five_patch_sphere_ranks(self, cover5):
        assert cohomology_compute(cover5, 2, "integer").rank == 1
        assert cohomology_compute(cover5, 1, "real").rank == 0

    def test_one_set_cover(self, atlas):
        cover = GoodCover(atlas, ["N"], [], chart_refs={("N",): "N"})
        for k in (1, 2):
            assert cohomology_compute(cover, k, "real").rank == 0

    def test_circle_three_arcs(self):
        line = FiberedAtlas([Chart("C", base_coords=("w",))])
        cover = GoodCover(line, [0, 1, 2], [(0, 1), (0, 2), (1, 2)],
                          chart_refs={(i,): "C" for i in (0, 1, 2)})
        assert cohomology_compute(cover, 1, "real").rank == 1
        assert cohomology_compute(cover, 0, "real").rank == 1

    def test_integer_path_solves_once(self, monkeypatch, cover4):
        """Every image column of the degree-1 coboundary is expressed in the
        kernel basis by one solve."""
        calls = []
        original = integrality.solve_linear

        def counted(rows, columns):
            calls.append(len(columns))
            return original(rows, columns)

        monkeypatch.setattr(integrality, "solve_linear", counted)
        h2 = cohomology_compute(cover4, 2, "integer")
        assert (h2.rank, h2.torsion) == (1, ())
        assert len(calls) == 1 and calls[0] == len(cover4.k_simplices(1))

    def test_smith_normal_form_oracle(self):
        # independently verify U A V = S and divisibility on a fixed matrix
        a = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
        u, s, v, r = smith_normal_form(a)
        m, n = 3, 3
        prod = [[sum(u[i][p] * a[p][q] * v[q][j] for p in range(m) for q in range(n))
                 for j in range(n)] for i in range(m)]
        assert prod == s
        diag = [s[i][i] for i in range(r)]
        for d1, d2 in zip(diag, diag[1:]):
            assert d2 % d1 == 0
        # unimodularity via integer inverses
        from quantbench.integrality import _int_inverse
        assert _int_inverse(u) is not None
        assert _int_inverse(v) is not None


class TestZigZag:
    def test_zero_form_gives_zero_class(self, atlas, cover4):
        zero = DifferentialForm(atlas, 2, "full", {"N": {}, "S": {}})
        primitives = {i: DifferentialForm(atlas, 1, "full",
                                          {cover4.chart_of((i,)): {}})
                      for i in cover4.index_set}
        cls = derham_to_cech(zero, cover4, primitives=primitives)
        assert all(e.is_zero() for e in cls.expansion)

    def test_fs_levels_are_multiples_of_the_generator(self, atlas, cover4):
        expansions = {}
        for k in (0, 1, 2, 3):
            cls = fs_class(atlas, cover4, Fraction(k))
            assert len(cls.expansion) == 1
            expansions[k] = cls.expansion[0]
        unit = expansions[1]
        assert unit.abs2() == ExactScalar(1)  # the generator itself, up to sign
        for k in (0, 1, 2, 3):
            assert expansions[k] == unit * k

    def test_linearity_on_pairs(self, atlas, cover4):
        c1 = fs_class(atlas, cover4, Fraction(1))
        c2 = fs_class(atlas, cover4, Fraction(2))
        c3 = fs_class(atlas, cover4, Fraction(3))
        assert c3.expansion[0] == c1.expansion[0] + c2.expansion[0]

    def test_exact_form_gives_zero_class(self, atlas, cover4):
        # d of a global 1-form: patch primitives are the form itself, f_jk = 0
        from quantbench.geometry import exterior_derivative
        beta = DifferentialForm(atlas, 1, "full", {
            "N": {("x",): parse_expr("x*y"), ("y",): parse_expr("x^2")},
            "S": {}})
        beta_n = DifferentialForm(atlas, 1, "full",
                                  {"N": beta.coefficients["N"]})
        omega = exterior_derivative(beta_n, "full")
        # give every patch the same primitive (expressed on its chart)
        from quantbench.geometry import pullback
        primitives = {}
        omega_tables = {"N": omega.coefficients["N"]}
        for i in cover4.index_set:
            chart = cover4.chart_of((i,))
            if chart == "N":
                primitives[i] = beta_n
            else:
                t = atlas.transition(chart, "N")
                primitives[i] = pullback(t, beta_n)
                omega_tables[chart] = pullback(t, omega).coefficients[chart]
        omega_full = DifferentialForm(atlas, 2, "full", omega_tables)
        cls = derham_to_cech(omega_full, cover4, primitives=primitives)
        assert all(e.is_zero() for e in cls.expansion)

    def test_declared_primitive_verified(self, atlas, cover4):
        wrong = {i: DifferentialForm(atlas, 1, "full",
                                     {cover4.chart_of((i,)): {}})
                 for i in cover4.index_set}
        with pytest.raises(MalformedExpressionError):
            derham_to_cech(omega_fs(atlas, Fraction(1), "full"), cover4,
                           primitives=wrong)

    def test_branch_offsets_match_float_angles(self, atlas, cover4, cover5):
        # the declared offsets must reproduce atan2 at the sample points
        for cover in (cover4, cover5):
            _, overlaps, offsets = sector_zigzag_data(atlas, cover, Fraction(1))
            for simplex, table in offsets.items():
                sample = cover.sample_points[simplex]
                x, y = float(sample["x"]), float(sample["y"])
                theta = math.atan2(y, x) / (2 * math.pi)
                for (j, k), declared in table.items():
                    # the branch on the cut overlap continues past the cut:
                    # its value at the sample is principal + declared offset
                    principal = theta % 1.0
                    continued = principal + declared
                    sector = k
                    width = 1.0 / (len(cover.index_set) - 1)
                    lo = (sector - 1) * width - 0.1
                    hi = sector * width + 0.1
                    assert lo - 1e-9 <= continued <= hi + 1e-9

    def test_leafwise_constancy_enforced(self, atlas, cover4):
        primitives, overlaps, offsets = sector_zigzag_data(atlas, cover4, Fraction(1))
        overlaps[(1, 2)] = OverlapFunction("N", parse_expr("x"), 0)
        with pytest.raises(MalformedExpressionError):
            derham_to_cech(omega_fs(atlas, Fraction(1), "full"), cover4,
                           primitives=primitives, overlap_functions=overlaps,
                           branch_offsets=offsets)


class TestIntegrality:
    @pytest.mark.parametrize("level,expected", [
        (Fraction(0), True), (Fraction(1), True), (Fraction(-1), True),
        (Fraction(2), True), (Fraction(-2), True),
        (Fraction(1, 2), False), (Fraction(3, 2), False)])
    def test_integer_levels(self, atlas, cover4, level, expected):
        report = integrality_test(fs_class(atlas, cover4, level))
        assert report.integral is expected
        if expected:
            lift = report.integer_lift
            assert lift is not None and lift.is_integer()
            assert cech_delta(lift).is_zero()

    def test_cover_independence_spot_check(self, atlas, cover5):
        for level, expected in ((Fraction(1), True), (Fraction(3), True),
                                (Fraction(1, 2), False), (Fraction(3, 2), False)):
            report = integrality_test(fs_class(atlas, cover5, level))
            assert report.integral is expected

    def test_zero_class_integral_with_zero_lift(self, atlas, cover4):
        report = integrality_test(fs_class(atlas, cover4, Fraction(0)))
        assert report.integral
        assert report.integer_lift.is_zero()
