"""Mutation gate: each row plants one defect in a copy of the package and names the tests
that must catch it.

A row copies ``src/``, ``tests/`` and ``pyproject.toml`` into a temporary directory,
replaces one exact snippet of one file (the snippet must occur there once) and runs pytest
in a subprocess on the row's node ids.  The mutant is killed only when pytest exits 1 with
every named node among the failures; an import or collection error exits otherwise and
does not count.  No row may name the sha256 pin of the seeded corpus: it fails on every
change to a reported bit, so it proves no oracle.

A mutant that survives is a test gap to fix, never a row to drop.  A change that removes a
snippet re-points its row.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
PIN = "tests/test_corpus.py::test_the_seeded_corpus_report_keeps_its_bits"


class Mutant(NamedTuple):
    path: str
    snippet: str
    replacement: str
    killers: tuple


MUTANTS = {
    # the column-sum checker sees nothing: the fault probe scans with it, so criterion 5 fails
    "blind_column_sum_checker": Mutant(
        "src/seqmeas/model.py",
        "dev = np.abs(np.matmul(pi.swapaxes(-1, -2), d) - D)",
        "dev = 0 * np.abs(np.matmul(pi.swapaxes(-1, -2), d) - D)",
        ("tests/test_acceptance.py::test_criterion_05_mod_ds_equivalence_and_fault_detection",)),
    # every model evolves by U* where the code means U; each corpus check holds for any unitary
    "evolution_by_the_adjoint": Mutant(
        "src/seqmeas/quantum.py",
        "(_adjoint(u) @ second.basis)",
        "(u @ second.basis)",
        ("tests/test_quantum.py::test_two_time_kernels_match_explicit_traces",)),
    # the Jensen value and the mean exponent are one array, so only another route sees the sign
    "jensen_value_sign_flip": Mutant(
        "src/seqmeas/ensembles.py",
        "jensen = np.sum(table * x, axis=cells)",
        "jensen = -np.sum(table * x, axis=cells)",
        ("tests/test_ensembles.py::test_the_jensen_value_is_the_mean_of_minus_ln_y",)),
    # the Q factor keeps LAPACK's phases: unitary, but not exactly Haar
    "haar_without_phase_fix": Mutant(
        "src/seqmeas/quantum.py",
        "return q * (diagonal / np.abs(diagonal))[..., None, :]",
        "return q",
        ("tests/test_quantum.py::test_haar_orthonormalize_is_the_q_of_the_qr_with_a_positive_diagonal",)),
    # columns stay in Kronecker order: a degenerate factor's vectors land under the wrong outcomes
    "product_without_regrouping": Mutant(
        "src/seqmeas/quantum.py",
        'basis[..., np.argsort(labels, kind="stable")]',
        "basis",
        ("tests/test_ensembles.py::test_product_family_matches_the_lifted_joint_diagonalization",)),
    # the mirrored offset -d lands on its momenta unreversed
    "mirror_without_reversal": Mutant(
        "src/seqmeas/wavepacket.py",
        "out[d - d_lo: d - d_lo + rows, ::-1][:, c] += part",
        "out[d - d_lo: d - d_lo + rows][:, c] += part",
        ("tests/test_wavepacket.py::test_second_marginal_matches_the_slab_loop[0.02]",)),
    # every Jordan-Wigner sign is +1: the lift of a hopping term loses its fermionic parity
    "lift_without_jordan_wigner_sign": Mutant(
        "src/seqmeas/ensembles.py",
        "1 - 2 * ((before[k, a] + before[k, b] + (b < a)) & 1)",
        "1 + 0 * ((before[k, a] + before[k, b] + (b < a)) & 1)",
        ("tests/test_ensembles.py::test_bit_lift_equals_the_jordan_wigner_oracle_exactly",)),
    # the weights are exponentiated unshifted: they overflow or underflow, and the log norm
    # counts the shift twice; the hand-weight test does not see it, since its largest log weight is 0
    "ensemble_state_without_max_shift": Mutant(
        "src/seqmeas/quantum.py",
        "raw = np.exp(lw - shift[..., None])",
        "raw = np.exp(lw)",
        ("tests/test_quantum.py::test_ensemble_state_takes_a_constant_in_the_log_weights_into_the_log_norm",)),
    # the m = n entries of the kernel stay 0; the slab-loop oracle does not see it, because it
    # builds its reference with conditional_kernel too
    "kernel_without_diagonal": Mutant(
        "src/seqmeas/wavepacket.py",
        "kernel[on - a, on - c0] = diagonal[on - a]",
        "kernel[on - a, on - c0] = 0.0",
        ("tests/test_wavepacket.py::test_conditional_kernel_matches_the_per_source_oracle",)),
    # artifact cells at 16 digits: a double no longer survives the CSV round trip
    "artifact_cells_at_16_digits": Mutant(
        "src/seqmeas/cli.py",
        '"%.17g"',
        '"%.16g"',
        ("tests/test_model.py::test_work_distribution_csv_is_17_digit_round_trip",)),
    # the perturbed row is not renormalized: criterion 5 still sees the fault, at the wrong size
    "fault_probe_without_renormalization": Mutant(
        "src/seqmeas/verify.py",
        "perturbed[b, i0] /= perturbed[b, i0].sum(axis=-1, keepdims=True)",
        "pass",
        ("tests/test_corpus.py::test_the_fault_probe_moves_the_column_sum_by_its_stated_response",)),
    # the curve is judged in grid order: a reversed --t-grid reads as a falling entropy
    "curve_judged_in_grid_order": Mutant(
        "src/seqmeas/cli.py",
        "by_t = sorted(points, key=lambda pt: pt.t)",
        "by_t = points",
        ("tests/test_cli.py::test_wavepacket_judges_the_curve_in_increasing_t",)),
    # a one-outcome second family has no fault to find, yet the probe's lower bound still fails it
    "fault_probe_without_the_one_outcome_pass": Mutant(
        "src/seqmeas/verify.py",
        " | (pi.shape[-1] == 1)",
        "",
        ("tests/test_cli.py::test_a_one_outcome_second_family_passes_all_seven_checks",)),
    # the window check allows ten times the mass the tolerance grants
    "window_check_ten_times_loose": Mutant(
        "src/seqmeas/cli.py",
        "if deficit > args.mass_tolerance:",
        "if deficit > 10 * args.mass_tolerance:",
        ("tests/test_cli.py::test_wavepacket_window_must_capture_the_mass_tolerance",)),
    # a report passes when any one check does
    "passed_when_any_check_passes": Mutant(
        "src/seqmeas/cli.py",
        "all(checks.values())",
        "any(checks.values())",
        ("tests/test_cli.py::test_verify_and_ensemble_report_the_same_checks",)),
    # the physical exponents are no longer held to the table ratios
    "exponent_crosscheck_disabled": Mutant(
        "src/seqmeas/ensembles.py",
        "dev <= EXPONENT_CONSISTENCY_TOL",
        "dev <= np.inf",
        ("tests/test_ensembles.py::test_exponent_crosscheck_catches_misassigned_probabilities",)),
    # the family's labeled Jensen combination is no longer held to the Jensen value
    "labeled_jensen_crosscheck_disabled": Mutant(
        "src/seqmeas/ensembles.py",
        "np.abs(combo - jensen) <= 1e-9",
        "np.abs(combo - jensen) <= np.inf",
        ("tests/test_ensembles.py::test_assemble_report_cross_checks_the_labeled_jensen_combination",)),
    # a subsystem ln Z(t1) off by 1e-7: the labeled Jensen check, the only one left on the
    # subsystem partition functions, must see it
    "local_log_partition_shifted": Mutant(
        "src/seqmeas/ensembles.py",
        "d_f = (-log_z1[mu] / beta)",
        "d_f = (-(log_z1[mu] + 1e-7) / beta)",
        ("tests/test_ensembles.py::test_local_canonical_identity_and_free_energy",)),
    # levels merge across gaps up to ten times the grouping tolerance
    "levels_grouped_at_ten_times_the_tolerance": Mutant(
        "src/seqmeas/model.py",
        "_cluster_levels(v, p, LEVEL_GROUPING_TOL)",
        "_cluster_levels(v, p, 10 * LEVEL_GROUPING_TOL)",
        ("tests/test_model.py::test_group_levels_matches_per_group_average[gap_at_tol]",)),
}


def test_every_row_plants_one_snippet_and_names_oracles_only():
    for name, mutant in MUTANTS.items():
        assert (ROOT / mutant.path).read_text().count(mutant.snippet) == 1, name
        assert mutant.killers and PIN not in mutant.killers, name


def _failed_nodes(output: str) -> list[str]:
    """Node ids of the ``FAILED`` lines of pytest's short summary."""
    return [line.split()[1] for line in output.splitlines() if line.startswith("FAILED ")]


@pytest.mark.parametrize("name", MUTANTS)
def test_the_mutant_is_killed_by_its_named_tests(name, tmp_path):
    mutant = MUTANTS[name]
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for tree in ("src", "tests"):
        shutil.copytree(ROOT / tree, tmp_path / tree, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    target = tmp_path / mutant.path
    target.write_text(target.read_text().replace(mutant.snippet, mutant.replacement))
    path = os.pathsep.join([str(tmp_path / "src"), os.environ.get("PYTHONPATH", "")])
    # plain asserts: pytest rewrites no module's asserts, about half of a row's start-up
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", "--assert=plain",
                          *mutant.killers],
                         cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1"),
                         capture_output=True, text=True, timeout=300)
    failed = _failed_nodes(run.stdout)
    survivors = [node for node in mutant.killers
                 if not any(f == node or f.startswith(node + "[") for f in failed)]
    assert run.returncode == 1 and not survivors, (run.returncode, survivors, run.stdout[-3000:], run.stderr)
