"""Mutation checks of the package's guards: each mutant breaks one check in a
copy of the tree, and the tests it names must then fail within its budget.

    python tests/mutants.py             # every mutant
    python tests/mutants.py NAME ...    # the named mutants only

A mutant gives a file, an exact text that occurs in it once, its
replacement, the pytest ids to run, of which one must fail, and a budget in
seconds. For each
mutant the runner copies src, tests, demos and pyproject.toml to a temporary
directory, applies the mutant there and runs the named tests in a pytest
subprocess (stopping at the first failure) under the budget. It prints each
mutant as killed (a test failed), survived (the tests passed), timed out, or
error (the text was not found once, or pytest could not run the tests), with
its wall time, and exits 1 unless every mutant was killed.

The budgets hold because a test that sends a count over a cap patches the
work behind that cap to fail (see guard_caps in test_cli_fuzz.py), so a
broken cap fails in seconds instead of running the work it let through.
pytest does not collect this file: its name does not start with test_.
"""
from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "demos", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # occurs exactly once in the file
    new: str
    tests: tuple  # pytest ids, relative to the repository root; one must fail
    budget: float = 60.0  # seconds for the whole pytest run


BELL, CLI, CLOSED = "src/rbnl/bell.py", "src/rbnl/cli.py", "src/rbnl/closed_forms.py"
LINALG, SEARCH, STATES = "src/rbnl/linalg.py", "src/rbnl/search.py", "src/rbnl/states.py"
NONLOCALITY, REALISM = "src/rbnl/nonlocality.py", "src/rbnl/realism.py"
FUZZ = "tests/test_cli_fuzz.py::test_fuzzed_flags"
STEPS = "tests/test_cli.py::test_steps_out_of_range"
SEARCH_FLAGS = "tests/test_cli.py::test_state_rejects_bad_search_flags"
VOL_WORKERS = "tests/test_cli.py::test_vol_rejects_bad_workers"
SAMPLES = "tests/test_cli.py::test_samples_over_cap_rejected_before_any_draw"
DENSITY = "tests/test_states.py::test_density_matrix_validation"

MUTANTS = (
    # the filtered Monte Carlo counter recounts nothing
    Mutant("margin-zero", BELL, "\nMARGIN = 1e-4", "\nMARGIN = 0.0",
           ("tests/test_bell.py::test_filtered_angles_counts_equal_float64_kernel",)),
    # the entropy's rejection names min(v), which skips a NaN
    Mutant("entropy-nan-search", LINALG,
           "lo = math.nan if any(map(math.isnan, v)) else min(v)", "lo = min(v)",
           ("tests/test_linalg.py::test_entropy_from_eigenvalues",)),
    Mutant("entropy-ln-n-clamp", LINALG,
           "return min(s, math.log(len(v))) if s > 0.0 else 0.0",
           "return s if s > 0.0 else 0.0",
           ("tests/test_linalg.py::test_entropy_from_eigenvalues",
            "tests/test_states.py::test_entropy_equals_von_neumann_entropy_bit_for_bit")),
    # check_int: the bool test, the Integral test and the upper bound
    Mutant("check-int-bool", CLOSED, "(isinstance(value, bool)\n", "(False\n",
           ("tests/test_linalg.py::test_partial_trace_rejects_non_integer_dims",
            "tests/test_bell.py::test_nvol_mc_rejects_bad_workers")),
    Mutant("check-int-integral", CLOSED, "not isinstance(value, numbers.Integral)",
           "not hasattr(value, '__index__')",
           ("tests/test_bell.py::test_nvol_mc_rejects_bad_workers",)),
    Mutant("check-int-upper-bound", CLOSED, "if maximum is not None and value > maximum:",
           "if False:",
           (STEPS, VOL_WORKERS, SEARCH_FLAGS, "tests/test_states.py::test_random_density_rank",
            FUZZ), budget=30.0),
    Mutant("check-dims-minimum", LINALG,
           'check_int("d_a", dims[0], 1), check_int("d_b", dims[1], 1)',
           'check_int("d_a", dims[0], -9), check_int("d_b", dims[1], -9)',
           ("tests/test_states.py::test_dims_must_be_two_integers",
            "tests/test_states.py::test_random_density_rank")),
    Mutant("reality-components-unfrozen", REALISM,
           "_freeze(self, weights=w, states_a=sa, states_b=sb)",
           '_freeze(self, weights=w); object.__setattr__(self, "states_a", sa); '
           'object.__setattr__(self, "states_b", sb)',
           ("tests/test_realism.py::test_reality_components_shapes_checked",)),
    # one per cap, and the sweep's total draws
    Mutant("sweep-budget", CLI, "if args.steps * args.samples > MAX_SAMPLES:", "if False:",
           ("tests/test_cli.py::test_sweep_over_budget_rejected_before_any_draw", FUZZ),
           budget=30.0),
    Mutant("vol-samples-cap", CLI, 'check_int("samples", args.samples, 1, MAX_SAMPLES)',
           'check_int("samples", args.samples, 1)', (SAMPLES, FUZZ)),
    Mutant("sweep-samples-cap", CLI, 'check_int("samples", args.samples, 0, MAX_SAMPLES)',
           'check_int("samples", args.samples, 0)', (SAMPLES,)),
    Mutant("sweep-steps-cap", CLI,
           'check_int("steps", args.steps, 2, MAX_STEPS)\n    check_int("samples"',
           'check_int("steps", args.steps, 2)\n    check_int("samples"', (STEPS, FUZZ)),
    Mutant("decay-steps-cap", CLI,
           'check_int("steps", args.steps, 2, MAX_STEPS)\n    ts =',
           'check_int("steps", args.steps, 2)\n    ts =', (STEPS, FUZZ)),
    Mutant("grid-cap", CLI, 'check_int("grid", args.grid, 1, MAX_GRID)',
           'check_int("grid", args.grid, 1)', (SEARCH_FLAGS, FUZZ)),
    Mutant("restarts-cap", CLI, 'check_int("restarts", args.restarts, 1, MAX_RESTARTS)',
           'check_int("restarts", args.restarts, 1)',
           ("tests/test_cli.py::test_restarts_cap", FUZZ)),
    Mutant("nvol-mc-workers-cap", BELL, 'check_int("workers", workers, 1, MAX_WORKERS)',
           'check_int("workers", workers, 1)',
           ("tests/test_bell.py::test_nvol_mc_rejects_bad_workers", VOL_WORKERS)),
    # the three guards of DensityMatrix
    Mutant("density-hermitian", STATES, 'check_hermitian(m, "density matrix")', "pass",
           (DENSITY,)),
    Mutant("density-trace", STATES, "if not abs(tr - 1.0) <= TRACE_TOL:", "if False:",
           (DENSITY,)),
    Mutant("density-psd", STATES, "if ev[0] < -PSD_TOL:", "if False:", (DENSITY,)),
    # BlochVector accepts a unit vector of 4 components
    Mutant("bloch-shape-unchecked", STATES, "if c.shape != (3,):", "if False:",
           ("tests/test_states.py::test_bloch_vector_rejects_four_components",)),
    # each validation tolerance loosened 1e4 times: an input off by twice the
    # old tolerance passes
    Mutant("trace-tol-loose", STATES, "TRACE_TOL = 1e-10", "TRACE_TOL = 1e-6",
           ("tests/test_states.py::test_trace_tolerance",)),
    Mutant("norm-tol-loose", STATES, "NORM_TOL = 1e-10", "NORM_TOL = 1e-6",
           ("tests/test_states.py::test_pure_state_norm_tolerance",)),
    Mutant("bloch-tol-loose", STATES, "BLOCH_TOL = 1e-12", "BLOCH_TOL = 1e-8",
           ("tests/test_states.py::test_bloch_norm_tolerance",)),
    Mutant("psd-tol-loose", LINALG, "PSD_TOL = 1e-10", "PSD_TOL = 1e-6",
           ("tests/test_states.py::test_psd_tolerance",)),
    Mutant("reality-tol-loose", REALISM, "REALITY_TOL = 1e-10", "REALITY_TOL = 1e-6",
           ("tests/test_realism.py::test_reality_tolerance",)),
    # the literal tolerances of SchmidtDecomposition, NrbResult and
    # RealityComponents, each loosened to 1e-6, which the rest of Tier-1 lets through
    Mutant("schmidt-min-tol-loose", NONLOCALITY, "if not xi.min() >= -1e-10:",
           "if not xi.min() >= -1e-6:",
           ("tests/test_nonlocality.py::test_schmidt_coefficient_minimum_tolerance",)),
    Mutant("schmidt-sum-tol-loose", NONLOCALITY, "if not abs(xi.sum() - 1.0) <= 1e-10:",
           "if not abs(xi.sum() - 1.0) <= 1e-6:",
           ("tests/test_nonlocality.py::test_schmidt_coefficient_sum_tolerance",)),
    Mutant("schmidt-orth-tol-loose", NONLOCALITY, "np.eye(u.shape[1]))) <= 1e-10:",
           "np.eye(u.shape[1]))) <= 1e-6:",
           ("tests/test_nonlocality.py::test_schmidt_orthonormality_tolerance",)),
    Mutant("nrb-value-tol-loose", NONLOCALITY, "if not self.value >= -1e-12:",
           "if not self.value >= -1e-6:",
           ("tests/test_nonlocality.py::test_nrb_value_tolerance",)),
    Mutant("nrb-eta-tol-loose", NONLOCALITY, "if not -1e-12 <= self.eta <= 1 + 1e-12:",
           "if not -1e-6 <= self.eta <= 1 + 1e-6:",
           ("tests/test_nonlocality.py::test_nrb_eta_tolerance",)),
    Mutant("reality-weights-tol-loose", REALISM, "if not abs(w.sum() - 1.0) <= 1e-12:",
           "if not abs(w.sum() - 1.0) <= 1e-6:",
           ("tests/test_realism.py::test_reality_weights_tolerance",)),
    # HERM_TOL loosened 100 times, which every other test lets through
    Mutant("herm-tol-loose", LINALG, "HERM_TOL = 1e-10", "HERM_TOL = 1e-8",
           ("tests/test_states.py::test_herm_tolerance",)),
    # site B dephases with S, not S^T: for complex projectors the map of the
    # conjugated ones
    Mutant("site-b-untransposed", REALISM, "r @ s.T", "r @ s",
           ("tests/test_realism.py::test_dephase_equals_kron_sandwich",)),
    # states with 1 - purity from 1e-8 to 1e-6 take the top singular pair of T
    Mutant("purity-cutoff-loose", NONLOCALITY, "PURITY_CUTOFF = 1e-10", "PURITY_CUTOFF = 1e-6",
           ("tests/test_golden.py::test_nrb_two_qubit_matches_the_golden_corpus",
            "tests/test_nonlocality.py::test_structured_noise_outside_the_purity_cutoff_is_searched")),
    # the float32 screen of the pair table recounts only the pairs it ranks
    # at or above the k-th, so a tie that float32 splits loses a start
    Mutant("table-margin-zero", NONLOCALITY, "TABLE_MARGIN = 1e-4", "TABLE_MARGIN = 0.0",
           ("tests/test_search.py::test_screened_ranking_equals_full_table_ranking",)),
    # the float32 screen keeps every pair, so the float64 recount scores the
    # whole table: the same starts, at the cost the screen was there to save
    Mutant("screen-off", NONLOCALITY, "kth = max(n * n - k, 0)", "kth = 0",
           ("tests/test_search.py::test_screen_recounts_few_pairs",)),
    # a -0.0 in argmax_u reaches the printed argmax
    Mutant("argmax-u-negzero", NONLOCALITY, "u = u / np.linalg.norm(u) + 0.0",
           "u = u / np.linalg.norm(u)",
           ("tests/test_nonlocality.py::test_result_argmax_has_no_negative_zero",)),
    # the Schmidt coefficients of a vector within NORM_TOL of unit norm sum to
    # 1 +- 2 NORM_TOL, which SchmidtDecomposition rejects
    Mutant("schmidt-unnormalized", NONLOCALITY, "return xi / xi.sum(), u, vh.T",
           "return xi, u, vh.T",
           ("tests/test_nonlocality.py::test_schmidt_of_a_state_off_unit_norm",)),
    # a searched N_rb below 1e-6 is reported as 0, so near-product states
    # read as null
    Mutant("nrb-small-to-zero", NONLOCALITY, "NrbResult(max(value, 0.0)",
           "NrbResult(value if value > 1e-6 else 0.0",
           ("tests/test_nonlocality.py::test_nrb_of_near_product_states_is_positive_and_vanishes",)),
    # vol prints Infinity, which is not JSON, for a degenerate z
    Mutant("vol-z-null", CLI, "else None", "else math.inf",
           ("tests/test_cli.py::test_vol_degenerate_z_score_is_null",)),
    # a negative sweep seed
    Mutant("sweep-seed", CLI, '    check_int("seed", args.seed, 0)\n', "",
           ("tests/test_cli.py::test_vol_negative_seed", FUZZ)),
    # nrb_pure builds and validates the Schmidt decomposition for its value
    Mutant("eager-schmidt", NONLOCALITY, "return PureNrbResult(entanglement_entropy(psi), psi)",
           "return PureNrbResult(entropy_from_eigenvalues(schmidt(psi).coefficients), psi)",
           ("tests/test_nonlocality.py::test_nrb_pure_value_takes_one_svd_and_no_decomposition",)),
    # a pure state takes the bottom singular pair of T, not the top one
    Mutant("pure-pair", NONLOCALITY, "k = 0 if pure else -1", "k = -1",
           ("tests/test_nonlocality.py::test_pure_states_take_the_schmidt_pair",)),
    # refine takes every step, also one that lowers the value
    Mutant("refine-accept-any", SEARCH, "up = active & (f1 > f)", "up = active",
           ("tests/test_search.py::test_diagnostics_describe_the_search",
            "tests/test_search.py::test_search_path_is_pinned")),
    # refine steps the caller's start array, not a copy of it
    Mutant("refine-in-place", SEARCH, 'x = np.array(x, dtype=float, order="C")',
           "x = np.asarray(x, dtype=float)",
           ("tests/test_search.py::test_refine_leaves_its_starts_unchanged",)),
    # refine records the value it returns as the best start value
    Mutant("grid-best-refined", SEARCH, "SearchDiagnostics(grid_best,",
           "SearchDiagnostics(float(f[k]),",
           ("tests/test_search.py::test_refine_writes_its_run_record",)),
    # refine takes a step that leaves the value unchanged, so the damping of a
    # search at a non-smooth maximum never passes LM_MAX
    Mutant("refine-accept-ties", SEARCH, "up = active & (f1 > f)", "up = active & (f1 >= f)",
           ("tests/test_search.py::test_exactly_pure_searches_end_before_the_cap",)),
    # refine stops once the Newton decrement is below 1e-6, short of a flat ridge's top
    Mutant("pred-tol-loose", SEARCH, "PRED_TOL = 1e-12", "PRED_TOL = 1e-6",
           ("tests/test_golden.py::test_nrb_two_qubit_matches_the_golden_corpus",
            "tests/test_search.py::test_search_reaches_the_top_of_a_flat_ridge")),
    # no restart ever converges, so a stationary start still takes steps
    Mutant("refine-never-finishes", SEARCH,
           "converged = (coef * coef / np.where(w == 0, np.inf, w)).sum(axis=1) < 2 * PRED_TOL",
           "converged = np.zeros(m, dtype=bool)",
           ("tests/test_search.py::test_werner_states_need_no_refinement",)),
    # the Riemannian Hessian loses the curvature term of the spheres
    Mutant("hessian-curvature", SEARCH,
           "p @ h @ p - normal.repeat(3, axis=1)[:, :, None] * p", "p @ h @ p",
           ("tests/test_search.py::test_projected_hessian_matches_finite_differences",
            "tests/test_search.py::test_search_path_is_pinned")),
)


def run(mutant: Mutant, tree: Path) -> tuple[str, str]:
    """Apply mutant to a fresh copy of the tree at tree and run its tests:
    (status, the last lines of pytest's output)."""
    for name in COPIED:
        if (ROOT / name).is_dir():
            shutil.copytree(ROOT / name, tree / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        else:
            shutil.copy2(ROOT / name, tree / name)
    target = tree / mutant.path
    text = target.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        return "error", f"{mutant.old!r} occurs {text.count(mutant.old)} times in {mutant.path}"
    target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests]
    # a session of its own, so that a timeout ends any child of pytest too
    proc = subprocess.Popen(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, start_new_session=True)
    try:
        out = proc.communicate(timeout=mutant.budget)[0]
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        return "timed out", proc.communicate()[0]
    tail = "\n".join(out.strip().splitlines()[-3:])
    return {0: "survived", 1: "killed"}.get(proc.returncode, "error"), tail


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    failed = 0
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="rbnl-mutants-") as tmp:
        for mutant in chosen:
            tree = Path(tmp) / mutant.name
            t0 = time.perf_counter()
            status, tail = run(mutant, tree)
            print(f"{status:9s} {time.perf_counter() - t0:6.1f} s  (budget {mutant.budget:g} s)"
                  f"  {mutant.name}", flush=True)
            if status != "killed":
                failed += 1
                print("    " + tail.replace("\n", "\n    "), flush=True)
            shutil.rmtree(tree)
    print(f"{len(chosen) - failed} of {len(chosen)} mutants killed "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
