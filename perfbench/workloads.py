"""Workloads, the expected-outcome table and the check-to-stage table.

A workload is an ordered list of scenario specs.  A spec is
``(label, factory, args)``: ``factory`` names a function of
``quantbench.catalog`` and ``args`` are its positional arguments.  One pass
builds every spec of its workload, then runs each through
``runner.run_scenario`` and renders ``Report.canonical_json()``.
"""

WORKLOADS = {
    # Curvature-bound: kostant_operator recomputes curvature and its
    # glue_check on every call.
    "gauge-su2": [
        ("gauge-su2-1", "build_scenario", ("gauge-su2-k", 1)),
    ],
    # Kernel-bound: poly_mul self time dominates.  The controls put the
    # level-1 sphere through the path where a check must fail; level 0 is
    # hypotheses-not-met.  Level 4 (12-16 s more per pass) is left out to keep
    # every run of the benchmark short; reduction-sweep reaches the same
    # level-4 sphere and its 711-term products.
    "su2-orbit": [
        ("su2-orbit-0", "build_scenario", ("su2-orbit-k", 0)),
        ("su2-orbit-1", "build_scenario", ("su2-orbit-k", 1)),
        ("control-flipped-momentum-1", "control_flipped_momentum", (1,)),
        ("control-imaginary-momentum-1", "control_imaginary_momentum", (1,)),
    ],
    # The only workload that runs the reduce layer; the most gcd-heavy one.
    "reduction-sweep": [
        (f"u1-rotation-reduction-{k}", "build_scenario",
         ("u1-rotation-reduction-k", k))
        for k in (1, 2, 3, 4)
    ],
    # Many short runs on tiny polynomials: set-up, the runner and per-call
    # kernel overhead carry the time; curvature barely runs.
    "catalog-light": [
        ("pair-groupoid-flat", "build_scenario", ("pair-groupoid-flat",)),
        ("s1-plane-action", "build_scenario", ("s1-plane-action",)),
        ("sphere-family-1", "build_scenario", ("sphere-family", 1)),
        ("sphere-family-2", "build_scenario", ("sphere-family", 2)),
        ("foliation-flat", "build_scenario", ("foliation-flat",)),
        ("gauge-u1-char-0", "build_scenario", ("gauge-u1-char-n", 0)),
        ("gauge-u1-char-1", "build_scenario", ("gauge-u1-char-n", 1)),
        ("gauge-u1-char-2", "build_scenario", ("gauge-u1-char-n", 2)),
    ],
}

# Expected outcome of every scenario run.  Catalog scenarios must give
# exactly `summary`, no `fail` record, and a canonical JSON whose SHA-256 is
# `sha256`, or one of them when it is a tuple (the digest does not depend on
# the run seed).  A control must give
# a report in which every check named in `fails` has status `fail`.
EXPECTED = {
    "gauge-su2-1": {
        "summary": {"pass": 26},
        "sha256": "232c40b5b46ac52b6fa64eacd0f77e2839b0d1d287222cac87f867285211712c"},
    # Known defect: presymplectic_check iterates DifferentialForm.charts(), a
    # set, so the order of its two "determinant vanishes" failures follows the
    # interpreter's string-hash seed.  Both orders are accepted; the passes
    # derive PYTHONHASHSEED from --seed, so both occur across seeds.
    "su2-orbit-0": {
        "summary": {"pass": 21, "hypotheses-not-met": 2},
        "sha256": ("86459406977039ca932b53befe2ac8a0c8b4d4557673ca5bb4ea50bc77edefb3",
                   "effa1eddcf2dce490af4ad167af9b760638acb4031aa1b789b6283eb68f4cfeb")},
    "su2-orbit-1": {
        "summary": {"pass": 23},
        "sha256": "ef277fe5fe6b1a20283a0991bd8ce570e1dbb99eb44d189e81fa48e566f67753"},
    "control-flipped-momentum-1": {
        "fails": ("internal-momentum", "representation-flatness")},
    "control-imaginary-momentum-1": {
        "fails": ("representation-hermitian",)},
    "u1-rotation-reduction-1": {
        "summary": {"pass": 27, "hypotheses-not-met": 2},
        "sha256": "7457a47c33ad432f9975f367a9974bd7cd7004ab9c0fb0802a23bbdaa4d3fab9"},
    "u1-rotation-reduction-2": {
        "summary": {"pass": 29},
        "sha256": "c23ff154eafda90c2870e0a5027fa6c466bc0f470b7a09d61424a08139e1bb57"},
    "u1-rotation-reduction-3": {
        "summary": {"pass": 27, "hypotheses-not-met": 2},
        "sha256": "e85259ddb169abab7dda27352353483ddee4f40e1d0db07ca7eeff35757c377b"},
    "u1-rotation-reduction-4": {
        "summary": {"pass": 29},
        "sha256": "6353a77bd498272b8e69e551c9c2c0e83ad65237fbfff5249ffc7821b0640bd0"},
    "pair-groupoid-flat": {
        "summary": {"pass": 11},
        "sha256": "2fbe39c24eab6340919c2adec2cfc85f9dd8fdad41b78a6a2866edce1d52fdbb"},
    "s1-plane-action": {
        "summary": {"pass": 11},
        "sha256": "d0a2b6fd769be92e1bb9103d94ad681b3a2d0b2d3f0d5a2eb8ceb0db786c9812"},
    "sphere-family-1": {
        "summary": {"pass": 11},
        "sha256": "3feb6aca2194f55f8a05ba2790dcd2515a99a4f9f3655cd8b585dc30c17dc39a"},
    "sphere-family-2": {
        "summary": {"pass": 11},
        "sha256": "68a6852b187ecaa6c77bbe5ef7b450d2778185f8c4cf1f40263b8e7757939160"},
    "foliation-flat": {
        "summary": {"pass": 16},
        "sha256": "2a4377db558d4b2984a1f1e996c81578753651be447de62a4ebbcd5bf44041c0"},
    "gauge-u1-char-0": {
        "summary": {"pass": 13},
        "sha256": "220cd8d1f704255ccf70113ac4febb37206fbe033a2554da0ad378cfedd83fa3"},
    "gauge-u1-char-1": {
        "summary": {"pass": 13},
        "sha256": "592a25e5f864215521972b4f2a2049c8f61519271320fb289d1fa660909bfb45"},
    "gauge-u1-char-2": {
        "summary": {"pass": 13},
        "sha256": "235271fdb4de76fe1e908528bcb0c32982206c83546c8a68833257bd374413a7"},
}

# Stage of every check id the runner emits, for the per-stage sums of
# CheckRecord.seconds.  `scenario-note` records carry no timing.
STAGE_OF_CHECK = {
    "transition-consistency": "structure",
    "action-morphism": "structure",
    "bracket-structure": "structure",
    "presymplectic": "hamiltonian",
    "internal-momentum": "hamiltonian",
    "coadjoint-equivariance": "hamiltonian",
    "prequantization-condition": "hamiltonian",
    "quantization-condition": "hamiltonian",
    "differential-squares-to-zero": "hamiltonian",
    "gauge-curvature-formula": "hamiltonian",
    "gauge-momentum": "hamiltonian",
    "bundle-data": "prequantize",
    "curvature-match": "prequantize",
    "representation-flatness": "prequantize",
    "representation-hermitian": "prequantize",
    "connection-equivariance": "prequantize",
    "chern-witness": "prequantize",
    "complex-structure": "quantize",
    "kahler-positivity": "quantize",
    "polarization-equivariance": "quantize",
    "holomorphic-dimension": "quantize",
    "quantization": "quantize",
    "gram-positivity": "quantize",
    "matrix-commutation": "quantize",
    "infinitesimal-unitarity": "quantize",
    "quantization-isomorphism": "quantize",
    "integrated-representation": "quantize",
    "zero-level": "reduce",
    "internal-quotient": "reduce",
    "descent-obstruction": "reduce",
    "quantum-projector": "reduce",
    "qr-comparison": "reduce",
    "scenario-note": None,
}
STAGES = ("structure", "hamiltonian", "prequantize", "quantize", "reduce")
