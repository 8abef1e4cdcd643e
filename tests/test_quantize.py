"""Holomorphic solver, exact inner products, representation matrices,
closed-form integration."""

import math
from fractions import Fraction

import pytest

from quantbench.catalog import (
    control_skew_structure,
    holomorphic_coordinates,
    o_bundle,
    s1_plane_scenario,
    sphere_atlas,
    sphere_family_scenario,
    standard_complex_structure,
)
from quantbench.errors import UnsupportedFiberError, UnsupportedIntegrationError
from quantbench.exprs import parse_expr
from quantbench.quantize import (
    HolomorphicBasis,
    commutation_check,
    fs_integral,
    fs_monomial_integral,
    gram_matrix,
    holomorphic_solve,
    induced_representation,
    inner_product,
    integrate_representation,
    leading_minors_positive,
    polarization_equivariance_check,
    unitarity_check,
)
from quantbench.scalars import ExactScalar, I, ZERO, rational


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

    def test_polarization_frame_is_antiholomorphic(self, atlas):
        frames = standard_complex_structure(atlas).polarization_frames()
        frame = frames["N"][0]
        ratio = frame.component("N", "y") / frame.component("N", "x")
        assert (ratio - ExactScalar(0, -1)).is_zero()


class TestPolarizationEquivariance:
    def test_rotations_are_holomorphic(self, orbit_scenarios):
        scenario = orbit_scenarios[2]
        structure = scenario.structure
        assert polarization_equivariance_check(scenario, structure).ok

    def test_skew_perturbation_fails(self, orbit_scenarios):
        scenario = orbit_scenarios[2]
        structure = control_skew_structure(scenario.atlas)
        report = polarization_equivariance_check(scenario, structure)
        assert not report.ok

    def test_zero_action_passes(self):
        from quantbench.catalog import sphere_family_scenario
        scenario = sphere_family_scenario(1)
        from quantbench.quantize import ComplexStructureData
        structure = ComplexStructureData(scenario.atlas, {"I": []})
        assert polarization_equivariance_check(scenario, structure).ok


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
        from scipy import integrate
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
        for b in (basis, mixed):
            full = [[inner_product(b.bundle, f, g) for g in b.elements]
                    for f in b.elements]
            assert gram_matrix(b.bundle, b) == full
        assert gram_matrix(mixed.bundle, mixed)[1][0] != \
            gram_matrix(mixed.bundle, mixed)[0][1]

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
        assert inner_product(bundle, {"N": parse_expr("1")}, {"N": z},
                             patch="N") == ZERO

    def test_numeric_matches_exact_inner_product(self, atlas):
        bundle = o_bundle(atlas, 2)
        z = parse_expr("x - i*y")
        exact = inner_product(bundle, {"N": z}, {"N": z}, patch="N")
        numeric = inner_product(bundle, {"N": z}, {"N": z}, patch="N",
                                method="numeric")
        assert abs(numeric - complex(exact)) < 1e-9

    def test_unsupported_fiber_rejected(self, atlas):
        bundle = o_bundle(atlas, 1)
        with pytest.raises(UnsupportedFiberError):
            fs_integral(parse_expr("1/(1+x^2)"))


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
    def test_commutation_and_unitarity(self, orbit_scenarios, orbit_quantizations, k):
        result = orbit_quantizations[k]
        assert commutation_check(result, orbit_scenarios[k].model).ok
        assert unitarity_check(result).ok

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

    def test_kernel_preserved_for_all_generators(self, orbit_quantizations):
        # induced_representation raises if any operator leaves the kernel,
        # so reaching matrices at all certifies preservation; re-assert shape
        for k, result in orbit_quantizations.items():
            assert len(result.matrices) == 3
            for mat in result.matrices:
                assert len(mat) == result.dimension


class TestIntegration:
    def test_rotation_invariant_plane_function(self):
        scenario = s1_plane_scenario()
        rep = integrate_representation(scenario)
        assert rep.kind == "s1-plane"
        assert rep.data["phase_exponent"].is_zero()
        assert rep.data["carrier"] == ("rotate", "phase", "source")

    def test_non_invariant_function_keeps_exponent(self):
        scenario = s1_plane_scenario(parse_expr("x"))
        rep = integrate_representation(scenario)
        # f(r, alpha+beta) - f(r, alpha) with f = x: (cb-1) x - sb y
        expected = parse_expr("cb*x - sb*y - x")
        assert (rep.data["phase_exponent"] - expected).is_zero()

    def test_sphere_family_probe_decays(self):
        scenario = sphere_family_scenario(2)
        rep = integrate_representation(scenario)
        deltas = [1e-8, 1e-12, 1e-16, 1e-20]
        probe = rep.data["probe"](deltas)
        assert all(a >= b for a, b in zip(probe, probe[1:]))
        assert probe[-1] < 1e-6

    def test_u1_weights(self, rotation_scenarios, rotation_quantizations):
        rep = integrate_representation(rotation_scenarios[2],
                                       rotation_quantizations[2])
        assert rep.data["weights"] == [ExactScalar(-1), ZERO, ExactScalar(1)]

    def test_unsupported_scenario_rejected(self, orbit_scenarios):
        with pytest.raises(UnsupportedIntegrationError):
            integrate_representation(orbit_scenarios[1])
