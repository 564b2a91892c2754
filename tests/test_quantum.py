"""Tests for the two-time projective-measurement layer."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqmeas.cli import build_parser
from seqmeas.ensembles import GrandCanonicalConfig, generate
from seqmeas.model import (
    PreconditionError,
    ValidationError,
    conditional,
    crooks_check,
    is_modified_doubly_stochastic,
    j_equation_lhs,
    marginals,
)
from seqmeas.quantum import (
    SpectralFamily,
    bloch_curve,
    build_joint_model,
    check_assumption2,
    ensemble_state,
    evolve,
    haar_unitary,
    hermitian_function,
    joint_diagonalize,
    luders_probabilities,
    operator_from_json_dict,
    operator_to_json_dict,
    physical_conditional,
    povm_completeness_deviation,
    povm_elements,
    require_density,
    require_hermitian,
    require_unitary,
    streamed_completeness_deviation,
    time_reversal_symmetry_check,
)
from seqmeas import quantum, verify
from seqmeas.verify import DEFAULT_TOLERANCES, FAMILIES, random_model


def random_commuting_pair(rng: np.random.Generator, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Two commuting Hermitians with degenerate spectra in a common random basis."""
    v = haar_unitary(dim, rng)
    a_eigs = rng.integers(0, 3, size=dim).astype(float)
    b_eigs = rng.integers(0, 2, size=dim).astype(float)
    a = (v * a_eigs[None, :]) @ v.conj().T
    b = (v * b_eigs[None, :]) @ v.conj().T
    return 0.5 * (a + a.conj().T), 0.5 * (b + b.conj().T)


def random_family(rng: np.random.Generator, dim: int) -> SpectralFamily:
    a, b = random_commuting_pair(rng, dim)
    return joint_diagonalize([a, b])


def family_rho(family: SpectralFamily, probabilities) -> np.ndarray:
    """Dense  rho = sum_i (p(i) / d(i)) P_i  of the state with the family's outcome probabilities."""
    g = np.repeat(np.asarray(probabilities) / family.degeneracies, family.degeneracies)
    return (family.basis * g) @ family.basis.conj().T


# ------------------------------------------------------------ sanity helpers


def test_require_hermitian_rejects():
    with pytest.raises(ValidationError):
        require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValidationError):
        require_hermitian(np.ones((2, 3)))
    with pytest.raises(ValidationError, match="h_t0 is an empty 0x0 matrix"):
        require_hermitian(np.zeros((0, 0)), "h_t0")


def test_require_unitary_rejects():
    with pytest.raises(ValidationError):
        require_unitary(np.array([[1.0, 0.0], [0.0, 2.0]]))
    with pytest.raises(ValidationError, match="U is an empty 0x0 matrix"):
        require_unitary(np.zeros((0, 0)))


def test_require_density_rejects():
    with pytest.raises(ValidationError):
        require_density(np.diag([0.8, 0.8]))  # trace 1.6
    with pytest.raises(ValidationError):
        require_density(np.diag([1.5, -0.5]))  # negative eigenvalue


# ------------------------------------------------------- joint eigenstructure


def test_joint_diagonalize_single_operator_with_degeneracy(rng):
    v = haar_unitary(3, rng)
    h = (v * np.array([1.0, 1.0, 2.0])[None, :]) @ v.conj().T
    fam = joint_diagonalize([0.5 * (h + h.conj().T)])
    assert fam.n_outcomes == 2
    order = np.argsort(fam.eigen_tuples[:, 0])
    np.testing.assert_allclose(fam.eigen_tuples[order, 0], [1.0, 2.0], atol=1e-10)
    np.testing.assert_array_equal(fam.degeneracies[order], [2, 1])
    recon = np.einsum("a,aij->ij", fam.eigen_tuples[:, 0], fam.projections)
    np.testing.assert_allclose(recon, h, atol=1e-12)


def test_joint_diagonalize_splits_by_second_operator(rng):
    """A degenerate first operator is refined by the second into the maximal family."""
    v = haar_unitary(4, rng)
    a = (v * np.array([1.0, 1.0, 2.0, 2.0])[None, :]) @ v.conj().T
    b = (v * np.array([3.0, 4.0, 3.0, 4.0])[None, :]) @ v.conj().T
    fam = joint_diagonalize([0.5 * (a + a.conj().T), 0.5 * (b + b.conj().T)])
    assert fam.n_outcomes == 4
    # first-operator clusters ascending, the second operator ascending inside each
    np.testing.assert_allclose(fam.eigen_tuples, [[1.0, 3.0], [1.0, 4.0], [2.0, 3.0], [2.0, 4.0]],
                               atol=1e-10)
    np.testing.assert_array_equal(fam.degeneracies, [1, 1, 1, 1])


def test_joint_diagonalize_groups_near_degenerate_eigenvalues():
    h = np.diag([0.0, 1e-12, 1.0])
    fam = joint_diagonalize([h])
    assert fam.n_outcomes == 2
    assert sorted(fam.degeneracies.tolist()) == [1, 2]


def test_joint_diagonalize_rejects_noncommuting():
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sz = np.diag([1.0, -1.0])
    with pytest.raises(PreconditionError, match="commute"):
        joint_diagonalize([sx, sz])


@given(seed=st.integers(0, 5000), dim=st.integers(2, 6))
@settings(max_examples=30, deadline=None)
def test_joint_diagonalize_reconstructs_both_operators(seed, dim):
    rng = np.random.default_rng(seed)
    a, b = random_commuting_pair(rng, dim)
    fam = joint_diagonalize([a, b])
    for k, m in enumerate((a, b)):
        recon = np.einsum("a,aij->ij", fam.eigen_tuples[:, k], fam.projections)
        np.testing.assert_allclose(recon, m, atol=1e-10)
    assert int(fam.degeneracies.sum()) == dim


@given(seed=st.integers(0, 5000), dim=st.integers(2, 6))
@settings(max_examples=30, deadline=None)
def test_joint_diagonalize_order_does_not_depend_on_the_basis(seed, dim):
    """Outcomes are listed in tolerance-lexicographic order, whatever basis the pair is given in."""
    rng = np.random.default_rng(seed)
    a, b = random_commuting_pair(rng, dim)
    v = haar_unitary(dim, rng)
    fam = joint_diagonalize([a, b])
    rotated = joint_diagonalize([v @ m @ v.conj().T for m in (a, b)])
    keys = [tuple(row) for row in np.rint(fam.eigen_tuples)]
    assert keys == sorted(keys)
    np.testing.assert_allclose(rotated.eigen_tuples, fam.eigen_tuples, atol=1e-10)
    np.testing.assert_array_equal(rotated.degeneracies, fam.degeneracies)


def test_spectral_family_validation():
    skewed = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)  # columns not orthonormal
    with pytest.raises(ValidationError, match="identity"):
        SpectralFamily(basis=skewed, eigen_tuples=[[0.0], [1.0]], degeneracies=[1, 1])
    with pytest.raises(ValidationError, match="degeneracy"):
        SpectralFamily(basis=np.eye(2), eigen_tuples=[[0.0], [1.0]], degeneracies=[2, 1])
    with pytest.raises(ValidationError, match="maximal"):
        SpectralFamily(basis=np.eye(2), eigen_tuples=[[0.5], [0.5]], degeneracies=[1, 1])


# ----------------------------------------------------- states and projections


def test_ensemble_state_matches_hand_weights():
    h = np.diag([0.0, 0.0, 1.0])
    fam = joint_diagonalize([h])
    beta = 0.7
    state = ensemble_state(fam, -beta * fam.eigen_tuples[:, 0])
    z = 2.0 + math.exp(-beta)
    order = np.argsort(fam.eigen_tuples[:, 0])
    np.testing.assert_allclose(math.exp(state.log_norm), z, rtol=1e-14)
    np.testing.assert_allclose(state.probabilities[order], [2.0 / z, math.exp(-beta) / z],
                               rtol=1e-14)
    np.testing.assert_allclose(np.trace(family_rho(fam, state.probabilities)).real, 1.0, atol=1e-14)


def test_ensemble_state_rejects_bad_weights():
    fam = joint_diagonalize([np.diag([0.0, 1.0])])
    with pytest.raises(PreconditionError, match="outcome 1 is nan"):
        ensemble_state(fam, [0.0, math.nan])
    with pytest.raises(PreconditionError, match="outcome 0 is inf"):
        ensemble_state(fam, [math.inf, 0.0])
    with pytest.raises(PreconditionError, match="every weight is zero"):
        ensemble_state(fam, [-math.inf, -math.inf])
    with pytest.raises(ValidationError, match="shape"):
        ensemble_state(fam, [0.0, 0.0, 0.0])


def test_luders_probabilities_and_post_state(rng):
    fam = random_family(rng, 5)
    state = ensemble_state(fam, fam.eigen_tuples @ [-0.3, -0.1])
    probs = luders_probabilities(family_rho(fam, state.probabilities), fam)
    np.testing.assert_allclose(probs, state.probabilities, atol=1e-13)
    np.testing.assert_allclose(probs.sum(), 1.0, atol=1e-13)


def test_check_assumption2(rng):
    fam = random_family(rng, 4)
    state = ensemble_state(fam, fam.eigen_tuples @ [-0.5, 0.2])
    ok, dev = check_assumption2(family_rho(fam, state.probabilities), fam)
    assert ok and dev < 1e-12
    # a state with coherences across cells (or non-uniform weights inside
    # a degenerate cell) violates the assumption
    v = haar_unitary(4, rng)
    rho_bad = v @ np.diag([0.6, 0.25, 0.1, 0.05]) @ v.conj().T
    ok_bad, dev_bad = check_assumption2(rho_bad, fam)
    assert not ok_bad and dev_bad > 1e-6


def test_hermitian_function_matches_series(rng):
    a, _ = random_commuting_pair(rng, 4)
    e = hermitian_function(a, np.exp)
    # compare against the scaled Taylor series of exp
    series = np.eye(4, dtype=complex)
    term = np.eye(4, dtype=complex)
    for k in range(1, 40):
        term = term @ a / k
        series = series + term
    np.testing.assert_allclose(e, series, atol=1e-12)


# -------------------------------------------------------- protocols, unitaries


def test_evolve_single_segment_and_order():
    sz = np.diag([1.0, -1.0])
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    u1 = evolve([(sz, 0.3)])
    np.testing.assert_allclose(u1, np.diag(np.exp([-0.3j, 0.3j])), atol=1e-14)
    u12 = evolve([(sz, 0.3), (sx, 0.7)])
    np.testing.assert_allclose(u12, evolve([(sx, 0.7)]) @ evolve([(sz, 0.3)]), atol=1e-14)
    assert float(np.abs(u12 @ u12.conj().T - np.eye(2)).max()) < 1e-14


def test_evolve_empty_protocol():
    np.testing.assert_array_equal(evolve([], dim=3), np.eye(3))
    with pytest.raises(ValidationError):
        evolve([])


@given(seed=st.integers(0, 5000), dim=st.integers(2, 8))
@settings(max_examples=30, deadline=None)
def test_haar_unitary_is_unitary_and_seeded(seed, dim):
    u = haar_unitary(dim, np.random.default_rng(seed))
    np.testing.assert_allclose(u @ u.conj().T, np.eye(dim), atol=1e-12)
    u2 = haar_unitary(dim, np.random.default_rng(seed))
    np.testing.assert_array_equal(u, u2)


def test_haar_unitary_first_moment(rng):
    """Mean |u_00|^2 over draws approaches 1/dim (loose CLT window)."""
    dim, n = 3, 2000
    acc = 0.0
    for _ in range(n):
        acc += abs(haar_unitary(dim, rng)[0, 0]) ** 2
    assert abs(acc / n - 1.0 / dim) < 0.02


# --------------------------------------------------- two-time physical layer


@given(seed=st.integers(0, 5000), dim=st.integers(2, 6))
@settings(max_examples=30, deadline=None)
def test_physical_conditional_is_mod_ds(seed, dim):
    rng = np.random.default_rng(seed)
    first = random_family(rng, dim)
    second = random_family(rng, dim)
    u = haar_unitary(dim, rng)
    pi = physical_conditional(u, first, second)
    np.testing.assert_allclose(pi.sum(axis=1), 1.0, atol=1e-12)
    ok, dev = is_modified_doubly_stochastic(pi, first.degeneracies, second.degeneracies,
                                            tol=1e-11)
    assert ok, f"weighted column deviation {dev}"


@given(seed=st.integers(0, 5000), dim=st.integers(2, 6))
@settings(max_examples=20, deadline=None)
def test_povm_reproduces_joint_probabilities(seed, dim):
    rng = np.random.default_rng(seed)
    first = random_family(rng, dim)
    second = random_family(rng, dim)
    u = haar_unitary(dim, rng)
    f = povm_elements(u, first, second)
    assert povm_completeness_deviation(f) <= 1e-11
    # every element is positive semidefinite
    for i in range(f.shape[0]):
        for j in range(f.shape[1]):
            w = np.linalg.eigvalsh(0.5 * (f[i, j] + f[i, j].conj().T))
            assert w.min() > -1e-12
    state = ensemble_state(first, -0.4 * first.eigen_tuples.sum(axis=1))
    model = build_joint_model(state.probabilities, u, first, second)
    direct = np.einsum("ab,ijba->ij", family_rho(first, state.probabilities), f).real
    np.testing.assert_allclose(model.p_table, direct, atol=1e-12)


def exactly_degenerate_family(rng: np.random.Generator, dim: int) -> SpectralFamily:
    """One Hermitian in a Haar basis with dim eigenvalues drawn from dim - 1 integers."""
    v = haar_unitary(dim, rng)
    h = (v * rng.integers(0, dim - 1, size=dim).astype(float)[None, :]) @ v.conj().T
    fam = joint_diagonalize([0.5 * (h + h.conj().T)])
    assert fam.degeneracies.max() > 1
    return fam


@pytest.mark.parametrize("dim", range(2, 13))
def test_two_time_kernels_match_explicit_traces(dim):
    """Every two-time kernel agrees with its per-(i, j) trace definition."""
    rng = np.random.default_rng(4100 + dim)
    first = exactly_degenerate_family(rng, dim)
    second = exactly_degenerate_family(rng, dim)
    u = haar_unitary(dim, rng)
    u_dag = u.conj().T
    proj_p, proj_q = first.projections, second.projections
    forward = np.array([[np.trace(q @ u @ p @ u_dag) for q in proj_q] for p in proj_p]).real
    backward = np.array([[np.trace(p @ u @ q @ u_dag) for q in proj_q] for p in proj_p]).real

    pi = physical_conditional(u, first, second)
    np.testing.assert_allclose(pi, forward / first.degeneracies[:, None], rtol=0, atol=1e-13)
    f = povm_elements(u, first, second)
    expected = np.array([[p @ u_dag @ q @ u @ p for q in proj_q] for p in proj_p])
    np.testing.assert_allclose(f, expected, rtol=0, atol=1e-13)
    report = time_reversal_symmetry_check(u, first, second)
    assert report.max_asymmetry == pytest.approx(np.abs(forward - backward).max(), abs=1e-13)


@pytest.mark.parametrize("dim", range(2, 10))
def test_check_assumption2_never_loosens(dim):
    """The reported deviation bounds the per-projector  max |P rho P - (p/d) P|  from above."""
    rng = np.random.default_rng(5300 + dim)
    fam = exactly_degenerate_family(rng, dim)
    stationary = family_rho(fam, ensemble_state(fam, -0.3 * fam.eigen_tuples[:, 0]).probabilities)
    for eps in (1.0, 1e-3, 1e-9):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = (1.0 - eps) * stationary + eps * (g @ g.conj().T) / np.trace(g @ g.conj().T).real
        p = luders_probabilities(rho, fam)
        per_projector = max(float(np.abs(P @ rho @ P - (pa / da) * P).max())
                            for P, pa, da in zip(fam.projections, p, fam.degeneracies))
        _, dev = check_assumption2(rho, fam)
        assert dev >= per_projector


def test_build_joint_model_hand_example():
    """Qubit flip with known amplitudes: p(i, j) computed by hand."""
    first = joint_diagonalize([np.diag([0.0, 1.0])])
    second = joint_diagonalize([np.diag([0.0, 2.0])])
    theta = 0.3
    u = np.array([[math.cos(theta), -math.sin(theta)],
                  [math.sin(theta), math.cos(theta)]], dtype=complex)
    beta = 0.9
    state = ensemble_state(first, -beta * first.eigen_tuples[:, 0])
    model = build_joint_model(state.probabilities, u, first, second)
    q = ensemble_state(second, -beta * second.eigen_tuples[:, 0]).probabilities
    z = 1.0 + math.exp(-beta)
    c2, s2 = math.cos(theta) ** 2, math.sin(theta) ** 2
    expected = np.array([[c2, s2], [s2, c2]]) * np.array([1.0, math.exp(-beta)])[:, None] / z
    np.testing.assert_allclose(model.p_table, expected, atol=1e-14)
    zq = 1.0 + math.exp(-2.0 * beta)
    np.testing.assert_allclose(q, [1.0 / zq, math.exp(-2.0 * beta) / zq], atol=1e-14)
    assert abs(j_equation_lhs(model, q) - 1.0) < 1e-13


def test_build_joint_model_checks_assumption(rng):
    """The table takes the p(i) of a cell-uniform state: a dense rho that violates cell
    uniformity is caught by check_assumption2, and every p(i) must be positive."""
    first = random_family(rng, 4)
    second = random_family(rng, 4)
    u = haar_unitary(4, rng)
    v = haar_unitary(4, rng)
    rho_bad = v @ np.diag([0.6, 0.25, 0.1, 0.05]) @ v.conj().T
    ok, dev = check_assumption2(rho_bad, first)
    assert not ok and dev > quantum.ASSUMPTION2_TOL
    p = np.zeros(first.n_outcomes)
    p[0] = 1.0
    with pytest.raises(PreconditionError, match="first outcome 1 has probability 0.000e\\+00"):
        build_joint_model(p, u, first, second)


def test_build_joint_model_rejects_wrong_length_probabilities(rng):
    first = random_family(rng, 4)
    second = random_family(rng, 4)
    u = haar_unitary(4, rng)
    with pytest.raises(ValidationError, match="shape"):
        build_joint_model(np.ones(first.n_outcomes + 1), u, first, second)


@pytest.mark.parametrize("family", FAMILIES)
def test_corpus_model_builds_no_density_matrix(monkeypatch, family):
    """The ensemble path starts from p(i): no density validation (a full eigvalsh) and no
    Lüders trace of a dense rho."""
    calls = {"require_density": 0, "_cell_uniformity": 0}
    for name in calls:
        def counted(*args, _inner=getattr(quantum, name), _name=name):
            calls[_name] += 1
            return _inner(*args)
        monkeypatch.setattr(quantum, name, counted)
    random_model(family, np.random.SeedSequence(11), 1)
    assert calls == {"require_density": 0, "_cell_uniformity": 0}


# ----------------------------------------------------------- time reversal


def test_time_reversal_symmetry_for_real_protocols(rng):
    """Real families + transposition-symmetric U give a symmetric weighted table."""
    h1 = np.diag([0.0, 1.0, 1.0, 2.0])
    h2 = np.diag([0.5, 0.5, 1.5, 2.5])
    first = joint_diagonalize([h1])
    second = joint_diagonalize([h2])
    g = rng.normal(size=(4, 4))
    g = g + g.T  # real symmetric generator => exp(-i g t) is symmetric
    u = hermitian_function(g, lambda w: np.exp(-0.7j * w))
    report = time_reversal_symmetry_check(u, first, second)
    assert report.preconditions_hold
    assert report.symmetric
    assert report.max_asymmetry <= 1e-12


def test_time_reversal_symmetry_flags_complex_protocols(rng):
    first = random_family(rng, 4)
    second = random_family(rng, 4)
    u = haar_unitary(4, rng)
    report = time_reversal_symmetry_check(u, first, second)
    assert not report.preconditions_hold


# ------------------------------------------------------------- qubit curve


def test_bloch_curve_validation():
    with pytest.raises(ValidationError):
        bloch_curve(0.0, 0.0)
    with pytest.raises(ValidationError):
        bloch_curve(0.3, 0.9)  # beyond sqrt(p(1-p))


def test_bloch_curve_matches_direct_diagonalization():
    for p in (0.1, 0.35, 0.5, 0.8):
        lam_max = math.sqrt(p * (1 - p))
        for frac in (0.0, 0.4, 0.9):
            pt = bloch_curve(p, frac * lam_max, alpha=0.6)
            w = np.linalg.eigvalsh(pt.rho)
            np.testing.assert_allclose(np.sort(pt.eigenvalues), w, atol=1e-14)
            s_direct = -sum(x * math.log(x) for x in w if x > 0)
            assert pt.entropy == pytest.approx(s_direct, abs=1e-12)
            half = np.eye(2) / 2.0
            dist_direct = float(np.linalg.norm(pt.rho - half) ** 2)
            assert pt.distance_sq == pytest.approx(dist_direct, abs=1e-14)


def test_bloch_curve_slope_against_finite_differences():
    h = 1e-6
    for p in (0.2, 0.5, 0.77):
        lam_max = math.sqrt(p * (1 - p))
        for frac in (0.2, 0.5, 0.8):
            lam = frac * lam_max
            pt = bloch_curve(p, lam)
            fd = (bloch_curve(p, lam + h).entropy - bloch_curve(p, lam - h).entropy) / (2 * h)
            assert pt.entropy_slope == pytest.approx(fd, rel=1e-6)
            assert pt.entropy_slope < 0.0  # coherence strictly lowers entropy


def test_bloch_curve_edge_cases():
    flat = bloch_curve(0.5, 0.0)
    assert flat.entropy == pytest.approx(math.log(2.0), abs=1e-14)
    assert flat.entropy_slope == 0.0
    pure = bloch_curve(0.5, 0.5)
    assert pure.entropy == pytest.approx(0.0, abs=1e-12)
    assert pure.entropy_slope == -math.inf


# ----------------------------------------------------------------- operators


def test_operator_json_round_trip(rng):
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    back = operator_from_json_dict(operator_to_json_dict(a))
    np.testing.assert_array_equal(back, a)


@pytest.mark.parametrize("data, missing", [({"dim": 2}, "'re'"), ({"re": [[1.0]]}, "'dim'"),
                                           ({}, "'dim' and 're'")],
                         ids=["no-re", "no-dim", "neither"])
def test_operator_json_missing_keys_raise_validation_errors(data, missing):
    with pytest.raises(ValidationError, match=f"operator JSON lacks {missing}$"):
        operator_from_json_dict(data)


# ------------------------------------------------------ large dim and memory


def test_six_mode_grand_canonical_tolerances_and_kernel_memory():
    """dim 64: identity, column sums and Crooks levels hold; kernels keep no extra stacks."""
    rng = np.random.default_rng(64)
    h = [rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)) for _ in range(2)]
    cfg = GrandCanonicalConfig(h_t0=0.5 * (h[0] + h[0].conj().T), h_t1=0.5 * (h[1] + h[1].conj().T),
                               beta=0.8, mu=0.3)
    u = haar_unitary(64, rng)
    report = generate(cfg, u)
    assert abs(report.jarzynski_lhs - 1.0) <= DEFAULT_TOLERANCES["jarzynski"]
    ok, dev = is_modified_doubly_stochastic(conditional(report.model), report.model.d,
                                            report.model.D, tol=DEFAULT_TOLERANCES["mod_ds"])
    assert ok, f"column-sum deviation {dev}"
    crooks = crooks_check(report.model, report.q)
    assert float(np.max(crooks.distribution.ratio_errors)) <= 1e-12  # seqmeas crooks default

    first, second = report.first_family, report.second_family
    work = 64 * 64 * 16  # one dim x dim complex matrix, in bytes
    tracemalloc.start()
    try:
        physical_conditional(u, first, second)
        conditional_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        f = povm_elements(u, first, second)
        povm_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert conditional_peak < first.projections.nbytes  # one (k, dim, dim) stack: 4 MB
    # the result, one (k2, dim, dim) stack, and U P_i with its conjugate (two matrices more spare)
    assert povm_peak < f.nbytes + second.projections.nbytes + 4 * work


@pytest.mark.parametrize("family", FAMILIES)
def test_streamed_povm_completeness_matches_the_element_stack(family):
    for index in range(3):
        report = random_model(family, np.random.SeedSequence([17, index]), index)
        args = (report.u, report.first_family, report.second_family)
        assert streamed_completeness_deviation(*args) == pytest.approx(
            povm_completeness_deviation(povm_elements(*args)), rel=0, abs=1e-14)


def test_six_mode_corpus_checks_stream_the_povm():
    """dim 64: the corpus check battery passes and keeps no (k, dim, dim) stack."""
    rng = np.random.default_rng(64)
    h = [rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)) for _ in range(2)]
    cfg = GrandCanonicalConfig(h_t0=0.5 * (h[0] + h[0].conj().T), h_t1=0.5 * (h[1] + h[1].conj().T),
                               beta=0.8, mu=0.3)
    report = generate(cfg, haar_unitary(64, rng))
    tracemalloc.start()
    try:
        outcomes = verify._run_checks(report, DEFAULT_TOLERANCES)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    first = report.first_family
    assert peak < first.n_outcomes * first.dim ** 2 * 16  # one complex stack: 4 MB
    assert all(ok for _, ok in outcomes.values()), outcomes


def test_seven_mode_grand_canonical_tolerances_and_generate_memory():
    """dim 128: identity, column sums and Crooks levels hold; generate and the time-reversal
    check keep no (k, dim, dim) stack."""
    rng = np.random.default_rng(128)
    h = [rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7)) for _ in range(2)]
    cfg = GrandCanonicalConfig(h_t0=0.5 * (h[0] + h[0].conj().T), h_t1=0.5 * (h[1] + h[1].conj().T),
                               beta=0.8, mu=0.3)
    u = haar_unitary(128, rng)
    tracemalloc.start()
    try:
        report = generate(cfg, u)
        generate_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    first = report.first_family
    assert generate_peak < first.n_outcomes * first.dim ** 2 * 16  # one complex stack: 34 MB

    assert abs(report.jarzynski_lhs - 1.0) <= DEFAULT_TOLERANCES["jarzynski"]
    ok, dev = is_modified_doubly_stochastic(conditional(report.model), report.model.d,
                                            report.model.D, tol=DEFAULT_TOLERANCES["mod_ds"])
    assert ok, f"column-sum deviation {dev}"
    crooks = crooks_check(report.model, report.q)
    tol_ratio = build_parser().parse_args(["crooks", "--config", "-"]).tol_ratio
    assert float(np.max(crooks.distribution.ratio_errors)) <= tol_ratio

    # the time-reversal diagnostics test realness one outcome block at a time
    tracemalloc.start()
    try:
        reversal = time_reversal_symmetry_check(u, first, report.second_family)
        reversal_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert reversal_peak < first.n_outcomes * first.dim ** 2 * 16
    assert not (reversal.families_real or reversal.u_symmetric or reversal.symmetric)
