"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
All tolerances are stated inline; symbolic identities are exact.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from quantbench.bundles import (
    curvature,
    rep_flatness_check,
    rep_hermitian_check,
)
from quantbench.catalog import (
    control_flipped_field,
    control_flipped_momentum,
    control_imaginary_momentum,
    control_scaled_momentum,
    control_skew_structure,
    gauge_su2_scenario,
    holomorphic_coordinates,
    o_bundle,
    omega_fs,
    pair_groupoid_scenario,
    s1_plane_scenario,
    sphere_atlas,
    sphere_family_scenario,
    standard_complex_structure,
    su2_orbit_scenario,
)
from quantbench.errors import IntegralityError
from quantbench.exprs import parse_expr
from quantbench.gauge import gauge_momentum_verify, quantization_isomorphism_check
from quantbench.geometry import exterior_derivative
from quantbench.hamiltonian import (
    equivariance_check,
    prequantization_condition_check,
    presymplectic_check,
    quantization_condition_check,
)
from quantbench.integrality import Cochain, cech_delta, cohomology_compute, \
    construct_from_integral_class, derham_to_cech, integrality_test, sector_cover, \
    sector_zigzag_data
from quantbench.quantize import (
    holomorphic_solve,
    integrate_representation,
    polarization_equivariance_check,
    sphere_family_probe,
)
from quantbench.reduce import descent_obstruction_check, qr_commute_check, \
    quantum_fixed_subspace
from quantbench.scalars import ExactScalar, ZERO


def _verdict(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number}: {status} - {detail}")
    assert ok, detail


def test_criterion_1_borel_weil_dimensions():
    """Solution-space dimensions k+1 (k in 0..4) and 0 at k = -1, under 10 s."""
    start = time.perf_counter()
    atlas = sphere_atlas()
    structure = standard_complex_structure(atlas)
    dims = {}
    for k in (-1, 0, 1, 2, 3, 4):
        bundle = o_bundle(atlas, k)
        for cap_shift in (2, 4):
            dims.setdefault(k, set()).add(holomorphic_solve(
                bundle, structure, holomorphic_coordinates(), max(k, 0) + cap_shift).dimension)
    elapsed = time.perf_counter() - start
    ok = all(dims[k] == {max(k + 1, 0)} for k in dims) and elapsed < 10.0
    _verdict(1, ok, f"dimensions {sorted((k, sorted(v)) for k, v in dims.items())} "
                    f"in {elapsed:.2f}s (< 10 s), caps k+2 and k+4 agree")


def test_criterion_2_exact_gram_matrices(orbit_quantizations, fs_quadrature):
    """<z^a, z^b> = delta_ab a!(k-a)!/(k+1)! for k <= 4; quadrature to 1e-9."""
    atlas = sphere_atlas()
    ok = True
    details = []
    quantizations = dict(orbit_quantizations)
    quantizations[4] = su2_orbit_scenario(4).representation
    for k in (0, 1, 2, 3, 4):
        gram = quantizations[k].gram
        for a in range(k + 1):
            for b in range(k + 1):
                expected = ExactScalar(Fraction(
                    math.factorial(a) * math.factorial(k - a),
                    math.factorial(k + 1))) if a == b else ZERO
                ok &= gram[a][b] == expected
    details.append("closed form a!(k-a)!/(k+1)! exact for k <= 4")
    # numeric cross-check on the level-2 diagonal, tolerance 1e-9
    bundle = o_bundle(atlas, 2)
    z = parse_expr("x - i*y")
    worst = 0.0
    for a, exact in ((0, Fraction(1, 3)), (1, Fraction(1, 6)), (2, Fraction(1, 3))):
        numeric = fs_quadrature(bundle, {"N": z ** a}, {"N": z ** a}, "N")
        worst = max(worst, abs(numeric - float(exact)))
    ok &= worst < 1e-9
    details.append(f"numeric quadrature deviation {worst:.2e} (< 1e-9)")
    _verdict(2, ok, "; ".join(details))


def test_criterion_3_kostant_closure_and_hermiticity(orbit_scenarios):
    """Operator closure and Hermiticity, orbit and gauge catalogs k <= 3,
    with three failing negative controls."""
    ok = True
    for k in (0, 1, 2, 3):
        s = orbit_scenarios[k]
        ok &= rep_flatness_check(s).ok
        ok &= rep_hermitian_check(s).ok
    for k in (0, 1, 2, 3):
        g = gauge_su2_scenario(k)
        ok &= rep_flatness_check(g).ok
        ok &= rep_hermitian_check(g).ok
    controls = []
    r1 = rep_flatness_check(control_flipped_momentum(2))
    controls.append(not r1.ok and bool(r1.failures))
    r2 = rep_hermitian_check(control_imaginary_momentum(2))
    controls.append(not r2.ok and bool(r2.failures))
    r3 = rep_flatness_check(control_scaled_momentum(2))
    controls.append(not r3.ok and bool(r3.failures))
    ok &= all(controls)
    _verdict(3, ok, "orbit + gauge catalogs pass for k <= 3; three negative "
                    "controls fail with nonzero residuals")


def test_criterion_4_integral_class_round_trip():
    """Construct-from-class then curvature is the identity for k in 0..3;
    half-integer levels are rejected."""
    atlas = sphere_atlas()
    cover = sector_cover(atlas, 3)
    ok = True
    for k in (0, 1, 2, 3):
        primitives, overlaps, offsets = sector_zigzag_data(atlas, cover, Fraction(k))
        bundle = construct_from_integral_class(
            omega_fs(atlas, Fraction(k), "full"), cover, primitives=primitives,
            overlap_functions=overlaps, branch_offsets=offsets)
        diff = curvature(bundle) - omega_fs(atlas, Fraction(k), "full")
        ok &= diff.is_zero()
    rejected = 0
    for level in (Fraction(1, 2), Fraction(3, 2)):
        primitives, overlaps, offsets = sector_zigzag_data(atlas, cover, level)
        try:
            construct_from_integral_class(
                omega_fs(atlas, level, "full"), cover, primitives=primitives,
                overlap_functions=overlaps, branch_offsets=offsets)
        except IntegralityError as err:
            rejected += 1 if not err.report.integral else 0
    ok &= rejected == 2
    _verdict(4, ok, "curvature round trip exact for k in {0,1,2,3}; levels "
                    "1/2 and 3/2 rejected as non-integral")


def test_criterion_5_cech_suite(orbit_scenarios):
    """Coboundary and differential square to zero on >= 100 random inputs;
    4-patch cover has integer rank-1 degree-2 cohomology; classes scale with
    the level; the 5-patch cover gives the same integrality verdicts."""
    atlas = sphere_atlas()
    cover4 = sector_cover(atlas, 3)
    cover5 = sector_cover(atlas, 4)
    rng = random.Random(5)
    delta_trials = 0
    for cover in (cover4, cover5):
        for degree in (0, 1):
            n = len(cover.k_simplices(degree))
            for _ in range(30):
                vec = [ExactScalar(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
                       for _ in range(n)]
                c = Cochain.from_vector(cover, degree, vec)
                if not cech_delta(cech_delta(c)).is_zero():
                    _verdict(5, False, "delta squared failed")
                delta_trials += 1
    from test_geometry import random_form
    d_trials = 0
    for degree in (0, 1):
        for _ in range(55):
            form = random_form(atlas, degree, rng)
            if not exterior_derivative(exterior_derivative(form)).is_zero():
                _verdict(5, False, "d squared failed")
            d_trials += 1
    h2 = cohomology_compute(cover4, 2, "integer")
    ok = delta_trials >= 100 and d_trials >= 100
    ok &= h2.rank == 1 and h2.torsion == ()
    expansions = {}
    for k in (0, 1, 2, 3):
        primitives, overlaps, offsets = sector_zigzag_data(atlas, cover4, Fraction(k))
        cls = derham_to_cech(omega_fs(atlas, Fraction(k), "full"), cover4,
                             primitives=primitives, overlap_functions=overlaps,
                             branch_offsets=offsets)
        expansions[k] = cls.expansion[0]
    unit = expansions[1]
    ok &= unit.abs2() == ExactScalar(1)
    ok &= all(expansions[k] == unit * k for k in expansions)
    verdicts = {}
    for cover in (cover4, cover5):
        for level in (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 2)):
            primitives, overlaps, offsets = sector_zigzag_data(atlas, cover, level)
            cls = derham_to_cech(omega_fs(atlas, level, "full"), cover,
                                 primitives=primitives, overlap_functions=overlaps,
                                 branch_offsets=offsets)
            verdicts.setdefault(level, set()).add(integrality_test(cls).integral)
    ok &= verdicts[Fraction(1)] == {True} and verdicts[Fraction(2)] == {True}
    ok &= verdicts[Fraction(1, 2)] == {False} and verdicts[Fraction(3, 2)] == {False}
    _verdict(5, ok, f"{delta_trials} coboundary and {d_trials} differential "
                    "trials; 4-patch integer rank 1; classes are k times the "
                    "generator; 5-patch verdicts agree")


def test_criterion_6_quantization_commutes_with_reduction(rotation_scenarios):
    """Even levels: both sides dimension 1 with an exact unitary intertwiner;
    odd levels: half-integer obstruction and zero fixed subspace."""
    ok = True
    details = []
    for k, scale2 in ((2, 6), (4, 30)):
        report = qr_commute_check(rotation_scenarios[k])
        ok &= report.status == "pass" and report.ok
        ok &= "fixed dimension 1, reduced dimension 1" in report.notes
        ok &= f"intertwiner scale^2 = {scale2}" in report.notes
        details.append(f"k={k}: dims 1/1, scale^2 = {scale2}")
    s3 = rotation_scenarios[3]
    descent = descent_obstruction_check(s3)
    report3 = qr_commute_check(s3)
    ok &= not descent.descends
    ok &= descent.obstructions["e1"] == ExactScalar(Fraction(1, 2))
    ok &= report3.status == "hypotheses-not-met"
    ok &= quantum_fixed_subspace(s3).dimension == 0
    details.append("k=3: obstruction 1/2, fixed dimension 0, hypotheses-not-met")
    _verdict(6, ok, "; ".join(details))


def test_criterion_7_gauge_pipeline():
    """Nonflat potential: closed twisted form, both momentum conditions, and
    an exact unitary isomorphism of (k+1)-dimensional quantizations."""
    ok = True
    details = []
    for k in (1, 2):
        scenario = gauge_su2_scenario(k)
        ok &= not scenario.gauge.bundle_data.is_flat()
        ok &= presymplectic_check(scenario.presymplectic).ok
        ok &= prequantization_condition_check(scenario).ok
        ok &= quantization_condition_check(scenario).ok
        ok &= gauge_momentum_verify(scenario).ok
        iso = quantization_isomorphism_check(scenario)
        ok &= iso.ok
        ok &= any(f"dimension per base point: {k + 1}" in n for n in iso.notes)
        details.append(f"k={k}: dimension {k + 1} per base point")
    _verdict(7, ok, "closedness, momentum conditions and unitary identity "
                    f"intertwiner verified; {'; '.join(details)}")


def test_criterion_8_non_regular_catalog(rotation_scenarios):
    """Plane rotations reproduce the closed-form phase by substitution; the
    shrinking-circle family passes the endpoint probe within 1e-6."""
    plane = s1_plane_scenario()
    rec = integrate_representation(plane)
    ok = rec["kind"] == "s1-plane"
    ok &= parse_expr(rec["phase_exponent"]).is_zero()  # rotation-invariant function
    general = integrate_representation(s1_plane_scenario(parse_expr("x")))
    expected = parse_expr("cb*x - sb*y - x")
    ok &= (parse_expr(general["phase_exponent"]) - expected).is_zero()
    family = sphere_family_scenario(2)
    ok &= integrate_representation(family)["kind"] == "sphere-family"
    deltas = [1e-8, 1e-12, 1e-16, 1e-20]
    probe = sphere_family_probe(family.level, deltas)
    ok &= all(a >= b for a, b in zip(probe, probe[1:]))
    ok &= probe[-1] < 1e-6
    _verdict(8, ok, "phase shape matches by substitution; endpoint probe "
                    f"max {probe[-1]:.2e} at delta 1e-20 (< 1e-6)")


def test_criterion_9_morphism_and_equivariance_suites(orbit_scenarios,
                                                      rotation_scenarios,
                                                      gauge_su2_1):
    """Structure suites pass on every catalog scenario carrying the data;
    each suite has a failing negative control."""
    scenarios = list(orbit_scenarios.values()) + list(rotation_scenarios.values())
    scenarios += [gauge_su2_1, pair_groupoid_scenario(),
                  s1_plane_scenario(), sphere_family_scenario(1)]
    ok = True
    for s in scenarios:
        ok &= s.action.morphism_report().ok
        ok &= equivariance_check(s).ok
        if s.structure is not None:  # the gauge's own, for the gauge scenario
            ok &= polarization_equivariance_check(s).ok
    # negative controls
    ok &= not control_flipped_field().morphism_report().ok
    ok &= not equivariance_check(control_scaled_momentum(2)).ok
    base = orbit_scenarios[2]
    ok &= not polarization_equivariance_check(
        base.replace(structure=control_skew_structure(base.atlas))).ok
    _verdict(9, ok, f"{len(scenarios)} catalog scenarios pass the morphism, "
                    "equivariance and polarization suites; one negative "
                    "control fails per suite")
