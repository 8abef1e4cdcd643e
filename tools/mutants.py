"""Mutation checks: each entry changes one exact text in one source file and
names the tests that must fail on that change.

The tool copies `src/`, `tests/`, `tools/` (the runner tests read the
catalog digests from it) and `pyproject.toml` into a temporary directory
and first runs every listed test there, unchanged; they must pass.  Then,
one entry at a time, it applies the entry's replacement, runs the
entry's tests in one pytest process (no worker pool), and restores the file.
An entry is killed when pytest reports a failing test (exit status 1).
Every pytest run selects the `mutants` hypothesis profile of
`tests/conftest.py`, which does not shrink a failing example: the first
failure kills the mutant.

A SIGTERM ends the run as an ordinary exit does, so the copy is removed.
It exits 1 when a mutant survives, when a run ends in any other pytest
status, or when an entry's old text does not occur exactly once in its file;
otherwise it exits 0.

    python3 tools/mutants.py
"""

import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUNDLES = "src/quantbench/bundles.py"
CATALOG = "src/quantbench/catalog.py"
CECH = "src/quantbench/cech.py"
EXPRS = "src/quantbench/exprs.py"
GEOMETRY = "src/quantbench/geometry.py"
GAUGE = "src/quantbench/gauge.py"
HAMILTONIAN = "src/quantbench/hamiltonian.py"
INTEGRALITY = "src/quantbench/integrality.py"
LIEALG = "src/quantbench/liealg.py"
LINALG = "src/quantbench/linalg.py"
QUANTIZE = "src/quantbench/quantize.py"
REDUCE = "src/quantbench/reduce.py"
RUNNER = "src/quantbench/runner.py"
SCALARS = "src/quantbench/scalars.py"
SCENARIO_IO = "src/quantbench/scenario_io.py"
MALFORMED = "tests/test_cli.py::TestScenarioFiles::test_malformed_file_exits_two"
PRINTING = "tests/test_exprs.py::TestPrinting"
SCALAR_ORACLE = "tests/test_exprs.py::TestScalarAgainstFractionPairs"
INDUCED = "tests/test_quantize.py::TestInducedRepresentation"
INNER = "tests/test_quantize.py::TestInnerProducts"
SOLVE = "tests/test_quantize.py::TestHolomorphicSolve"
SPIN = "tests/test_quantize.py::TestSpinClosedForms"
IMMUTABLE = "tests/test_exprs.py::TestImmutability::test_slots_cannot_be_set"
SCENARIO = "tests/test_hamiltonian.py::TestImmutableScenario"
SPARSE = "tests/test_liealg.py::TestSparseBracket"
GLUE_SHORTCUT = "tests/test_geometry.py::TestGlueShortcut"
FIELD_ALGEBRA = "tests/test_geometry.py::TestFieldAlgebra"
BUILDER_CONTRACT = ("tests/test_geometry.py::"
                    "test_results_are_what_the_validating_constructor_builds")
FROZEN = "tests/test_runner.py::test_every_stage_input_is_frozen"
HELD_OBJECTS = "tests/test_runner.py::test_every_held_object_refuses_assignment"
FILTERED = "tests/test_runner.py::test_a_filtered_record_is_the_full_runs"
PRESYMPLECTIC_EXTRA = ("tests/test_hamiltonian.py::TestPresymplectic::"
                       "test_extra_term_fails_closedness_and_gluing")

MUTANTS = [
    {"name": "cocycle_value: the offset of (j, l) enters with a plus sign",
     "file": CECH,
     "old": "              - a_jl * ExactScalar.coerce(offsets.get((j, l), 0)))",
     "new": "              + a_jl * ExactScalar.coerce(offsets.get((j, l), 0)))",
     "tests": ["tests/test_bundles.py::TestTripleOverlapCocycle",
               "tests/test_cech.py::TestZigZag::test_fs_levels_are_multiples_of_the_generator"]},
    {"name": "cocycle_value: a constant rational part drops the offsets",
     "file": CECH,
     "old": "        return rational.constant_value() + offset",
     "new": "        return rational.constant_value()",
     "tests": ["tests/test_bundles.py::TestTripleOverlapCocycle",
               "tests/test_cech.py::TestIntegrality"]},
    {"name": "delta_matrix: every face with the opposite sign",
     "file": INTEGRALITY,
     "old": "ExactScalar((-1) ** (j + 1))",
     "new": "ExactScalar((-1) ** j)",
     "tests": ["tests/test_cech.py::TestDelta::test_sign_convention"]},
    {"name": "delta_matrix: every face with sign -1",
     "file": INTEGRALITY,
     "old": "ExactScalar((-1) ** (j + 1))",
     "new": "ExactScalar(-1)",
     "tests": ["tests/test_cech.py::TestDelta::test_delta_squared_randomized"]},
    {"name": "ZeroLevelData.verify: no isotropy generator",
     "file": REDUCE,
     "old": "        isotropy = scenario.model.isotropy_indices",
     "new": "        isotropy = ()",
     "tests": ["tests/test_reduce.py::TestZeroLevel::test_momentum_must_vanish_on_the_level"]},
    {"name": "descent_obstruction_check: no isotropy generator",
     "file": REDUCE,
     "old": "    for i in scenario.model.isotropy_indices:\n        potential",
     "new": "    for i in ():\n        potential",
     "tests": ["tests/test_reduce.py::TestDescent::test_odd_level_obstructed"]},
    {"name": "curvature_formula_check: tau([w_i, w_j]) taken as zero",
     "file": GAUGE,
     "old": "zip(tau(model.bracket(w_i, w_j)), tau_i, tau_j,",
     "new": "zip([0] * data.algebra.n, tau_i, tau_j,",
     "tests": ["tests/test_gauge.py::TestAssembly::test_curvature_formula_reads_the_model_bracket"]},
    {"name": "curvature_formula_check: w_i.tau(w_j) with the wrong sign",
     "file": GAUGE,
     "old": "[b - rho_i.derive(t_j) +",
     "new": "[b + rho_i.derive(t_j) +",
     "tests": ["tests/test_gauge.py::TestAssembly::test_curvature_formula_reverified"]},
    {"name": "AlgebroidModel: a diagonal bracket pair is accepted",
     "file": LIEALG,
     "old": "0 <= j < n and i != j)",
     "new": "0 <= j < n)",
     "tests": [f"{MALFORMED}[bracket-diagonal]"]},
    {"name": "AlgebroidModel: isotropy indices unbounded above",
     "file": LIEALG,
     "old": "not 0 <= i < n for i in isotropy",
     "new": "not 0 <= i for i in isotropy",
     "tests": [f"{MALFORMED}[isotropy-out-of-range]"]},
    {"name": "scenario_io: a sample may omit coordinates",
     "file": SCENARIO_IO,
     "old": "    if not set(chart.coords) <= set(point):",
     "new": "    if False:",
     "tests": [f"{MALFORMED}[sample-missing-coordinate]"]},
    {"name": "u1-weights rule: every weight with the opposite sign",
     "file": QUANTIZE,
     "old": ".simplify() * I).constant_value()",
     "new": ".simplify() * -I).constant_value()",
     "tests": ["tests/test_quantize.py::TestIntegration::test_u1_weights"]},
    {"name": "sphere-family rule: continuity bound 1e-4 instead of 1e-6",
     "file": QUANTIZE,
     "old": "probe[-1] > 1e-6",
     "new": "probe[-1] > 1e-4",
     "tests": ["tests/test_quantize.py::TestIntegration::"
               "test_sphere_family_probe_above_the_bound_fails_continuity"]},
    {"name": "qr_commute_check: a pass drops the scale^2 note",
     "file": REDUCE,
     "old": '["intertwiner: [[\'1\']]", f"intertwiner scale^2 = {ratio.constant_value()}"]',
     "new": '["intertwiner: [[\'1\']]"]',
     "tests": ["tests/test_reduce.py::TestComparison::test_even_levels_pass_with_unitary_scale"]},
    {"name": "qr_commute_check: a failed comparison keeps the obstruction note",
     "file": REDUCE,
     "old": "    if status != \"fail\" and descent.obstructions:",
     "new": "    if descent.obstructions:",
     "tests": ["tests/test_reduce.py::TestComparison::test_dimension_mismatch_fails"]},
    {"name": "scenario_io: a file may declare any integration kind",
     "file": SCENARIO_IO,
     "old": "    if integration is not None and (integration not in FILE_INTEGRATIONS or",
     "new": "    if False and (integration not in FILE_INTEGRATIONS or",
     "tests": [f"{MALFORMED}[integration-unknown]",
               f"{MALFORMED}[integration-needs-quantization]"]},
    {"name": "scenario_io: a sphere-family file may omit its level",
     "file": SCENARIO_IO,
     "old": "not set(FILE_INTEGRATIONS[integration]) <= set(extras)",
     "new": "False",
     "tests": [f"{MALFORMED}[integration-without-level]"]},
    {"name": "AlgebroidModel: any number of anchor entries",
     "file": LIEALG,
     "old": " or len(anchor_fields) != n:",
     "new": ":",
     "tests": [f"{MALFORMED}[anchors-short]"]},
    {"name": "AlgebroidModel: repeated generator names",
     "file": LIEALG,
     "old": "if len(set(generator_names)) != n or ",
     "new": "if ",
     "tests": [f"{MALFORMED}[generators-duplicate]"]},
    {"name": "gaussian_text: the imaginary part printed with the opposite sign",
     "file": SCALARS,
     "old": "    imag = _fraction_text(im, den) + unit",
     "new": "    imag = _fraction_text(-im, den) + unit",
     "tests": [PRINTING, SCALAR_ORACLE]},
    {"name": "gaussian_text: a part over the denominator without the gcd",
     "file": SCALARS,
     "old": "    g = gcd(n, den)\n    return str(n // g)",
     "new": "    g = 1\n    return str(n // g)",
     "tests": [PRINTING, SCALAR_ORACLE]},
    {"name": "PolyExpr.__str__: no parentheses around a coefficient with two parts",
     "file": EXPRS,
     "old": '                cs = f"({cs})"',
     "new": "                cs = cs",
     "tests": [PRINTING]},
    {"name": "from_ints: the gcd reduction skipped",
     "file": SCALARS,
     "old": "    g = gcd(re, im, den)\n",
     "new": "    g = 1\n",
     "tests": [SCALAR_ORACLE]},
    {"name": "ExactScalar.inverse: the imaginary part with the opposite sign",
     "file": SCALARS,
     "old": "        return from_ints(p * a, -p * b, n)",
     "new": "        return from_ints(p * a, p * b, n)",
     "tests": [SCALAR_ORACLE]},
    {"name": "ExactScalar.is_integer: the denominator ignored",
     "file": SCALARS,
     "old": "        return not self.num[1] and self.den == 1",
     "new": "        return not self.num[1]",
     "tests": [SCALAR_ORACLE]},
    {"name": "conj_transpose: the entries not conjugated",
     "file": LINALG,
     "old": "    return [[v.conj() for v in column] for column in zip(*rows)]",
     "new": "    return [[v for v in column] for column in zip(*rows)]",
     "tests": ["tests/test_linalg.py::TestMatrixHelpers::test_conj_transpose"]},
    {"name": "geometry: any leafwise class accepted",
     "file": GEOMETRY,
     "old": "    if leafwise_class not in _CLASS_ORDER:\n",
     "new": "    if False:\n",
     "tests": [f"{MALFORMED}[field-class-unknown]", f"{MALFORMED}[anchor-class-unknown]"]},
    {"name": "load_scenario: a schema error wrapped in a second one",
     "file": SCENARIO_IO,
     "old": "    except SchemaError:\n        raise",
     "new": "    except ZeroDivisionError:\n        raise",
     "tests": [f"{MALFORMED}[integration-unknown]", f"{MALFORMED}[sample-nan]"]},
    {"name": "total_degree: the shift leaves the top exponent field in",
     "file": EXPRS,
     "old": "max(map(_order_key, self.terms)) >> (_FIELD * len(_NAMES))",
     "new": "max(map(_order_key, self.terms)) >> (_FIELD * (len(_NAMES) - 1))",
     "tests": [f"{PRINTING}::test_total_degree_is_the_largest_exponent_sum"]},
    {"name": "RationalExpr.__sub__: 0 - a returns a",
     "file": EXPRS,
     "old": "        if not other.num.terms:\n            return self\n        return self + (-other)",
     "new": "        if not self.num.terms:\n            return other\n"
            "        if not other.num.terms:\n            return self\n        return self + (-other)",
     "tests": ["tests/test_exprs.py::TestEarlyReturns::test_rational_zero_operands"]},
    {"name": "Chart: the Jtilde coordinates take every base coordinate",
     "file": GEOMETRY,
     "old": "jtilde = set(fiber_coords) | set(orbit_coords)",
     "new": "jtilde = set(fiber_coords) | set(base_coords)",
     "tests": ["tests/test_geometry.py::TestCharts::test_coords_for_each_class"]},
    {"name": "ActionMap.generator_field: the field of the previous generator",
     "file": LIEALG,
     "old": "        field = self.fields[index]",
     "new": "        field = self.fields[index - 1]",
     "tests": ["tests/test_liealg.py::TestActions::"
               "test_generator_field_is_the_image_of_the_basis_section",
               "tests/test_liealg.py::TestSparseBracket::"
               "test_a_basis_section_acts_by_its_stored_field"]},
    {"name": "scenario_io: s1-plane over a momentum on two charts",
     "file": SCENARIO_IO,
     "old": "        if len(charts) != 1 or not",
     "new": "        if False and not",
     "tests": [f"{MALFORMED}[integration-s1-plane-two-charts]"]},
    {"name": "scenario_io: sphere-family over any momentum",
     "file": SCENARIO_IO,
     "old": "        if len(momentum.pairings) != 1 or not values or \\\n",
     "new": "        if False and \\\n",
     "tests": [f"{MALFORMED}[integration-sphere-family-on-su2-orbit]"]},
    {"name": "RationalExpr.__mul__: a factor with the one term of 1 over any denominator",
     "file": EXPRS,
     "old": "        if other.num.terms == _ONE_TERMS and other.num.den == 1 and \\\n",
     "new": "        if other.num.terms == _ONE_TERMS and \\\n",
     "tests": ["tests/test_exprs.py::TestEarlyReturns::test_rational_unit_operands"]},
    {"name": "bundles: the integrality machinery imported eagerly",
     "file": BUNDLES,
     "old": "    result.notes.append(\"witness: the declared momentum pairing exhibits alpha^*K as exact\")\n"
            "    return result\n",
     "new": "    result.notes.append(\"witness: the declared momentum pairing exhibits alpha^*K as exact\")\n"
            "    return result\n\n\nfrom .integrality import *  # noqa: E402,F401,F403\n",
     "tests": ["tests/test_runner.py::test_the_runtime_needs_only_the_standard_library"]},
    {"name": "pullback: each minor's columns in reverse order, flipping the sign of a 2-form",
     "file": GEOMETRY,
     "old": "[[jacobian[t][j] for j in cols] for t in idx]",
     "new": "[[jacobian[t][j] for j in reversed(cols)] for t in idx]",
     "tests": ["tests/test_geometry.py::TestPullback::test_two_form_is_the_jacobian_determinant",
               "tests/test_geometry.py::TestGlue::test_fs_form_glues"]},
    {"name": "DifferentialForm: any degree that int() accepts",
     "file": GEOMETRY,
     "old": "        if type(degree) is not int or degree < 0:\n"
            "            raise DegreeError(f\"form degree {degree!r} is not a non-negative int\")\n",
     "new": "        degree = int(degree)\n",
     "tests": [f"{MALFORMED}[form-degree-float]", f"{MALFORMED}[form-degree-string]"]},
    {"name": "ExactScalar.__hash__: a real value hashed as a Gaussian one",
     "file": SCALARS,
     "old": "        if im:\n            return hash((self.num, self.den))",
     "new": "        if True:\n            return hash((self.num, self.den))",
     "tests": [SCALAR_ORACLE]},
    {"name": "commutation_check: no commutator mismatch reported",
     "file": QUANTIZE,
     "old": "            if not is_zero_matrix(mat_mul(result.matrices[i], result.matrices[j]),\n"
            "                                  minus=expected):",
     "new": "            if False:",
     "tests": [f"{INDUCED}::test_perturbed_entry_fails_commutation_and_unitarity"]},
    {"name": "unitarity_check: no generator reported",
     "file": QUANTIZE,
     "old": "        if not is_zero_matrix(mat_mul(conj_transpose(m), g), minus=mat_mul(minus_g, m)):",
     "new": "        if False:",
     "tests": [f"{INDUCED}::test_perturbed_entry_fails_commutation_and_unitarity"]},
    {"name": "ComplexStructureData.validate: j^2 not compared with -1",
     "file": QUANTIZE,
     "old": "                    if not (entry + (1 if i == j else 0)).is_zero():",
     "new": "                    if False:",
     "tests": ["tests/test_quantize.py::TestComplexStructure::"
               "test_twice_the_standard_structure_fails_j_squared"]},
    {"name": "projector_checks: the invariance half skipped",
     "file": REDUCE,
     "old": "        if not is_zero_matrix(mat_mul(p, mat), minus=mat_mul(mat, p)):",
     "new": "        if False:",
     "tests": ["tests/test_reduce.py::TestFixedSubspace::"
               "test_a_generator_moving_the_fixed_line_fails_invariance"]},
    {"name": "ActionMap.morphism_report: the anchor half skipped",
     "file": LIEALG,
     "old": "                    if not (alpha_comp - rho_comp).is_zero():",
     "new": "                    if False:",
     "tests": ["tests/test_liealg.py::TestActions::test_twice_the_anchor_fails_the_anchor_half"]},
    {"name": "presymplectic_check: closedness not tested",
     "file": HAMILTONIAN,
     "old": "    if not d_omega.is_zero():",
     "new": "    if False:",
     "tests": [PRESYMPLECTIC_EXTRA]},
    {"name": "presymplectic_check: gluing not tested",
     "file": HAMILTONIAN,
     "old": "    if not glue.ok:",
     "new": "    if False:",
     "tests": [PRESYMPLECTIC_EXTRA]},
    {"name": "_linear_rows: the common multiple is the last new denominator only",
     "file": QUANTIZE,
     "old": "        den = d if den.is_constant() or d.exact_div(den) is not None else den * d",
     "new": "        den = d",
     "tests": [f"{SOLVE}::test_linear_rows_span_the_rows_of_the_simplified_expressions"]},
    {"name": "_linear_rows: a repeated position overwrites instead of adding",
     "file": QUANTIZE,
     "old": "            row[pos] = row[pos] + from_ints(re, im, scale)",
     "new": "            row[pos] = from_ints(re, im, scale)",
     "tests": [f"{SOLVE}::test_linear_rows_add_repeated_positions"]},
    {"name": "_fiber_factors: the conjugate swaps z and zbar without conjugating",
     "file": QUANTIZE,
     "old": "                left[key] = left.get(key, ZERO) + c.conj() * cw",
     "new": "                left[key] = left.get(key, ZERO) + c * cw",
     "tests": [f"{INNER}::test_gram_matrix_is_the_full_evaluation"]},
    {"name": "_fiber_factors: the conjugate keeps z and zbar in place",
     "file": QUANTIZE,
     "old": "                key = (n + mw, m + nw)",
     "new": "                key = (m + mw, n + nw)",
     "tests": [f"{INNER}::test_gram_matrix_is_the_full_evaluation"]},
    {"name": "_fiber_factors: the weight's terms dropped",
     "file": QUANTIZE,
     "old": "                left[key] = left.get(key, ZERO) + c.conj() * cw",
     "new": "                left[key] = left.get(key, ZERO) + c.conj()",
     "tests": [f"{INNER}::test_gram_entries_match_inner_product"]},
    {"name": "_fiber_factors: the weight's power of q dropped",
     "file": QUANTIZE,
     "old": "        factors.append((_FiberTerms(left, right.power + weight.power), right))",
     "new": "        factors.append((_FiberTerms(left, right.power), right))",
     "tests": [f"{INNER}::test_gram_entries_match_inner_product"]},
    {"name": "PolyExpr.__pow__: the base squared once past the last bit",
     "file": EXPRS,
     "old": "            n >>= 1\n            if n:  # no square past the last bit\n"
            "                base = base * base",
     "new": "            base = base * base\n            n >>= 1",
     "tests": ["tests/test_exprs.py::TestPower"]},
    {"name": "interior_product: charts in reverse name order, not the form's",
     "file": GEOMETRY,
     "old": "    for ch, terms in form.coefficients.items():",
     "new": "    for ch, terms in sorted(form.coefficients.items(), reverse=True):",
     "tests": ["tests/test_geometry.py::TestInteriorProduct::test_chart_order_ignores_hash_seed"]},
    {"name": "RationalExpr.derivative: the memo keyed without the variable",
     "file": EXPRS,
     "old": "        out = memo.get(var)\n",
     "new": "        out = next(iter(memo.values()), None)\n",
     "tests": ["tests/test_exprs.py::TestAgainstSympy::test_repeated_and_interleaved_derivatives"]},
    {"name": "commutator: the coefficient of v tested on w",
     "file": GEOMETRY,
     "old": "                if not a.is_zero():\n",
     "new": "                if not b.is_zero():\n",
     "tests": ["tests/test_geometry.py::TestVectorFields::test_commutator_of_a_coordinate_field",
               "tests/test_geometry.py::TestVectorFields::test_commutator_is_the_coordinate_formula",
               "tests/test_geometry.py::TestFieldAlgebra::test_commutator"]},
    {"name": "catalog._pe: the parse table keyed by the first three characters",
     "file": CATALOG,
     "old": "    expr = _PARSED.get(text)\n    if expr is None:\n"
            "        expr = _PARSED[text] = parse_expr(text)",
     "new": "    expr = _PARSED.get(text[:3])\n    if expr is None:\n"
            "        expr = _PARSED[text[:3]] = parse_expr(text)",
     "tests": ["tests/test_runner.py::test_the_parse_table_gives_the_parse_of_its_own_text"]},
    {"name": "PolyExpr.exact_div: a constant divisor multiplied instead of inverted",
     "file": EXPRS,
     "old": "            return self * _leading_inverse(other)",
     "new": "            return self * other",
     "tests": ["tests/test_exprs.py::TestAgainstSympy::test_division_by_a_constant_is_one_product"]},
    {"name": "PolyExpr.__hash__: a constant hashed as a polynomial",
     "file": EXPRS,
     "old": "        if self.is_constant():\n            return hash(self.constant_value())\n",
     "new": "",
     "tests": ["tests/test_exprs.py::TestImmutability::test_constants_hash_as_the_equal_scalar"]},
    {"name": "_zz_map: a singular map, y sent to (z + zbar)/2",
     "file": QUANTIZE,
     "old": "            y_name: RationalExpr((z - zb) * PolyExpr.const(half * I))}",
     "new": "            y_name: RationalExpr((z + zb) * PolyExpr.const(half))}",
     "tests": [f"{SOLVE}::test_rows_over_z_zbar_reduce_as_the_rows_over_x_y"]},
    {"name": "holomorphic_solve: c_jk left over x, y while the powers are over z, zbar",
     "file": QUANTIZE,
     "old": "        moved = to_chart(atlas, c.rational, c.chart, chart_j).subst(to_zz[j])",
     "new": "        moved = to_chart(atlas, c.rational, c.chart, chart_j)",
     "tests": [f"{SOLVE}::test_dimensions", f"{SPIN}::test_su2_orbit"]},
    {"name": "holomorphic_solve: the D0(h) term of the derivation rule dropped",
     "file": QUANTIZE,
     "old": "            [(column[p, a], pot * h_a + (powers[p][a - 1] * d0_h * a if a else 0))",
     "new": "            [(column[p, a], pot * h_a)",
     "tests": [f"{SOLVE}::test_powers_follow_the_derivation_rule"]},
    {"name": "catalog: the sphere's ansatz cap stops at 6, too small past level 4",
     "file": CATALOG,
     "old": "holomorphic_coords=holomorphic_coordinates(), ansatz_cap=max(k, 0) + 2)",
     "new": "holomorphic_coords=holomorphic_coordinates(), ansatz_cap=min(max(k, 0) + 2, 6))",
     "tests": [f"{SPIN}::test_su2_orbit"]},
    {"name": "RationalExpr.log_derivative: the sign of ND' flipped",
     "file": EXPRS,
     "old": "            top = num.derivative(var) * den - num * den.derivative(var)",
     "new": "            top = num.derivative(var) * den + num * den.derivative(var)",
     "tests": ["tests/test_exprs.py::TestAgainstSympy::"
               "test_log_derivative_is_sympys_derivative_of_the_log"]},
    {"name": "ActionScenario.replace: the derived state copied with the inputs",
     "file": HAMILTONIAN,
     "old": "        return ActionScenario(**({name: getattr(self, name) for name in self._INPUTS}"
            " | changes))",
     "new": "        out = object.__new__(ActionScenario)\n"
            "        vars(out).update(vars(self), **changes)\n"
            "        return out",
     "tests": [f"{SCENARIO}::test_replace_derives_afresh"]},
    {"name": "ActionScenario.fiber_residual: one residual kept for every generator",
     "file": HAMILTONIAN,
     "old": "        residual = self._residuals.get(i)\n        if residual is None:\n"
            "            residual = self._residuals[i] = fiber_residual(self, i)",
     "new": "        residual = self._residuals.get(0)\n        if residual is None:\n"
            "            residual = self._residuals[0] = fiber_residual(self, i)",
     "tests": [f"{SCENARIO}::test_fiber_residuals_are_kept_per_generator",
               "tests/test_runner.py::test_control_fails_and_skips_exactly_its_rows"]},
    {"name": "AlgebroidModel.bracket: a coefficient with a constant numerator not derived",
     "file": LIEALG,
     "old": "    return any(expr.num.terms) or any(expr.den.terms)",
     "new": "    return any(expr.num.terms)",
     "tests": [f"{SPARSE}::test_a_constant_over_a_polynomial_is_derived"]},
    {"name": "AlgebroidModel: the (j, i) bracket entry read without its sign",
     "file": LIEALG,
     "old": "tuple((k, -c) for k, c in entries)",
     "new": "tuple((k, c) for k, c in entries)",
     "tests": [f"{SPARSE}::test_bracket_is_the_dense_sum"]},
    {"name": "glue_check: the second direction skipped when the pair is not inverse",
     "file": GEOMETRY,
     "old": "        if (tgt, src) in glued and all({a, b} != {src, tgt}\n"
            "                                       for a, b, _ in atlas.check_transition_consistency()):",
     "new": "        if (tgt, src) in glued:",
     "tests": [f"{GLUE_SHORTCUT}::test_a_pair_that_is_not_inverse_is_decided_both_ways"]},
    {"name": "FiberedAtlas: the transitions handed back mutable",
     "file": GEOMETRY,
     "old": "transitions=MappingProxyType(table)",
     "new": "transitions=table",
     "tests": [FROZEN, f"{GLUE_SHORTCUT}::test_adding_a_transition_drops_the_verdict"]},
    {"name": "LineBundleData: the potentials handed back mutable",
     "file": BUNDLES,
     "old": "metric_weights=frozen(metric_weights), potentials=frozen(potentials)",
     "new": "metric_weights=frozen(metric_weights), potentials=dict(potentials)",
     "tests": [FROZEN]},
    {"name": "MomentumMapRep: the pairings handed back mutable",
     "file": HAMILTONIAN,
     "old": "pairings=frozen(\n",
     "new": "pairings=(\n",
     "tests": [FROZEN, "tests/test_runner.py::test_a_pairing_written_after_a_run_raises_at_the_write"]},
    {"name": "ChartTables: the chart tables handed back mutable",
     "file": GEOMETRY,
     "old": "ch: MappingProxyType({k: v for k, v in table.items()",
     "new": "ch: ({k: v for k, v in table.items()",
     "tests": [FROZEN]},
    {"name": "select_checks: the producers of `uses` not pulled in",
     "file": RUNNER,
     "old": "selected.update(PRODUCER[name] for name in check.needs + check.uses)",
     "new": "selected.update(PRODUCER[name] for name in check.needs)",
     "tests": [f"{FILTERED}[gauge-su2-1]", f"{FILTERED}[u1-rotation-reduction-2]"]},
    {"name": "run_scenario: a `uses` consumer run after its producer failed",
     "file": RUNNER,
     "old": "                  for name in check.needs + check.uses\n",
     "new": "                  for name in check.needs\n",
     "tests": ["tests/test_runner.py::test_a_failed_quantization_skips_the_rows_that_use_it"]},
    {"name": "ChartTables: zero entries kept",
     "file": GEOMETRY,
     "old": "{k: v for k, v in table.items()\n"
            "                                                    if not v.is_zero()}",
     "new": "dict(table)",
     "tests": [BUILDER_CONTRACT]},
    {"name": "ChartTables: an entry only the subtrahend has kept un-negated",
     "file": GEOMETRY,
     "old": "                table[key] = op(table.get(key, zero), v)",
     "new": "                table[key] = op(table[key], v) if key in table else v",
     "tests": [f"{FIELD_ALGEBRA}::test_sum_and_difference"]},
    {"name": "Frozen.__setattr__: attributes may be set",
     "file": GEOMETRY,
     "old": '        raise AttributeError(f"{type(self).__name__} is immutable")',
     "new": "        object.__setattr__(self, name, value)",
     "tests": [HELD_OBJECTS, f"{SCENARIO}::test_no_attribute_can_be_set",
               "tests/test_bundles.py::TestCurvature::"
               "test_the_curvature_is_kept_by_an_immutable_bundle",
               f"{GLUE_SHORTCUT}::test_the_atlas_tables_cannot_be_rebound",
               f"{SPARSE}::test_no_attribute_can_be_set"]},
    {"name": "QuantizationResult: matrices handed back mutable",
     "file": QUANTIZE,
     "old": "matrices=frozen(matrices)",
     "new": "matrices=matrices",
     "tests": ["tests/test_runner.py::test_every_artifact_is_frozen"]},
    {"name": "_Substitution.numerator: each term one power of its group denominator short",
     "file": EXPRS,
     "old": "            factors += [power(self.groups[g], k - d)",
     "new": "            factors += [power(self.groups[g], k - d - 1)",
     "tests": ["tests/test_exprs.py::TestSubstitution::test_values_over_distinct_denominators"]},
] + [
    {"name": f"{cls}.__setattr__: attributes may be set",
     "file": path,
     "old": f'        raise AttributeError("{cls} is immutable")',
     "new": "        object.__setattr__(self, name, value)",
     "tests": [test]}
    for cls, path, test in (
        ("ExactScalar", SCALARS, IMMUTABLE), ("PolyExpr", EXPRS, IMMUTABLE),
        ("RationalExpr", EXPRS, IMMUTABLE))
]


def _pytest(copy: Path, tests) -> int:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--hypothesis-profile=mutants", *tests], cwd=copy, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main() -> int:
    # a stopped run exits through the `with` below, which removes the copy
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for name in ("src", "tests", "tools"):
            shutil.copytree(ROOT / name, copy / name)
        shutil.copy(ROOT / "pyproject.toml", copy)
        listed = sorted({test for entry in MUTANTS for test in entry["tests"]})
        status = _pytest(copy, listed)
        if status != 0:
            print(f"baseline: the listed tests do not pass unchanged (pytest exit {status})")
            return 1
        bad = 0
        for i, entry in enumerate(MUTANTS):
            path = copy / entry["file"]
            original = path.read_text()
            found = original.count(entry["old"])
            if found != 1:
                verdict = f"old text occurs {found} times in {entry['file']}"
            else:
                path.write_text(original.replace(entry["old"], entry["new"]))
                status = _pytest(copy, entry["tests"])
                path.write_text(original)
                verdict = {0: "SURVIVED", 1: "killed"}.get(status, f"pytest exit {status}")
            bad += verdict != "killed"
            print(f"[{i}] {entry['name']}: {verdict}")
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
