"""Tests for the ensemble-family generators and their labeled physics."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from seqmeas.ensembles import (
    GENERATORS,
    GrandCanonicalConfig,
    LocalCanonicalConfig,
    MicrocanonicalConfig,
    PeriodicThermoConfig,
    config_from_json_dict,
    generate,
    lift_one_particle,
    stack_configs,
    _assemble_report,
)
from seqmeas import ensembles, model, verify
from seqmeas.model import ValidationError, is_modified_doubly_stochastic, conditional
from seqmeas.quantum import (GROUP_TOL, SpectralFamily, haar_orthonormalize, haar_unitary, joint_diagonalize,
                             product_family)

from conftest import j_equation_lhs, joint_refinement, projections


def _random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (a + a.conj().T)


def _stack_of_one(family: SpectralFamily) -> SpectralFamily:
    """One model's family as a stack of one, the form the stacked generator passes around."""
    return SpectralFamily(family.basis[None], family.eigen_tuples[None], family.degeneracies)


# ----------------------------------------------------------- fermionic algebra


def fock_annihilators(n_modes: int) -> list[np.ndarray]:
    """Annihilation operators c_a on the 2^n_modes fermionic Fock space.

    Jordan-Wigner strings enforce the canonical anticommutation relations:
    c_a = Z x ... x Z x s- x 1 x ... x 1  with the lowering matrix in slot a.
    The entries are 0 and +-1, so real matrices hold them exactly.
    """
    lower = np.array([[0.0, 1.0], [0.0, 0.0]])
    zed = np.diag([1.0, -1.0])
    one = np.eye(2)
    ops = []
    for a in range(n_modes):
        factors = [zed] * a + [lower] + [one] * (n_modes - a - 1)
        m = factors[0]
        for f in factors[1:]:
            m = np.kron(m, f)
        ops.append(m)
    return ops


def jordan_wigner_lift(h: np.ndarray) -> np.ndarray:
    """Oracle of :func:`lift_one_particle`: the dense sum of h_ab c_a* c_b."""
    cs = fock_annihilators(h.shape[0])
    out = np.zeros((2 ** h.shape[0],) * 2, dtype=complex)
    for a in range(h.shape[0]):
        for b in range(h.shape[0]):
            if h[a, b] != 0:
                out += h[a, b] * (cs[a].T @ cs[b])
    return out


def number_operator(n_modes: int) -> np.ndarray:
    """Total particle number  N = sum_a c_a* c_a, the lift of the identity (popcount diagonal)."""
    return lift_one_particle(np.eye(n_modes))


def tensor_lift(ops: list[np.ndarray]) -> list[np.ndarray]:
    """Oracle of :func:`product_family`: each local operator embedded densely into the
    tensor product of all factors, kron(1, ..., o, ..., 1)."""
    dims = [np.asarray(o).shape[0] for o in ops]
    lifted = []
    for k, o in enumerate(ops):
        m = np.eye(1, dtype=complex)
        for j, d in enumerate(dims):
            m = np.kron(m, np.asarray(o, dtype=complex)) if j == k else np.kron(m, np.eye(d))
        lifted.append(m)
    return lifted


def test_fock_annihilators_car_relations():
    for n_modes in (1, 2, 3):
        ops = fock_annihilators(n_modes)
        dim = 2 ** n_modes
        eye = np.eye(dim)
        for i, ai in enumerate(ops):
            for j, aj in enumerate(ops):
                anti_dag = ai @ aj.conj().T + aj.conj().T @ ai
                anti = ai @ aj + aj @ ai
                np.testing.assert_allclose(anti_dag, (1.0 if i == j else 0.0) * eye, atol=1e-14)
                np.testing.assert_allclose(anti, np.zeros((dim, dim)), atol=1e-14)


def test_number_operator_counts():
    n = number_operator(3)
    w = np.sort(np.linalg.eigvalsh(n))
    # occupation numbers 0..3 with binomial multiplicities 1, 3, 3, 1
    np.testing.assert_allclose(w, [0, 1, 1, 1, 2, 2, 2, 3], atol=1e-12)


@pytest.mark.parametrize("n_modes", [0, 13])
def test_mode_count_outside_the_supported_range_is_rejected(n_modes):
    with pytest.raises(ValidationError, match=f"n_modes = {n_modes} outside"):
        number_operator(n_modes)


def test_lift_one_particle_subset_sums(rng):
    """The lifted spectrum is exactly the subset sums of the mode energies."""
    h = _random_hermitian(rng, 3)
    eps = np.linalg.eigvalsh(h)
    lifted = lift_one_particle(h)
    got = np.sort(np.linalg.eigvalsh(lifted))
    want = np.sort([eps[list(s)].sum() for s in
                    ([], [0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2])])
    np.testing.assert_allclose(got, want, atol=1e-11)


def test_lift_commutes_with_number(rng):
    h = _random_hermitian(rng, 2)
    lifted = lift_one_particle(h)
    n = number_operator(2)
    np.testing.assert_allclose(lifted @ n, n @ lifted, atol=1e-12)


def _one_particle(kind: str, rng: np.random.Generator, n_modes: int) -> np.ndarray:
    """A random h, or an exactly degenerate one: integer diagonal, or zero."""
    if kind == "random":
        return _random_hermitian(rng, n_modes)
    if kind == "integer-diagonal":
        return np.diag(rng.integers(-2, 3, size=n_modes)).astype(complex)
    return np.zeros((n_modes, n_modes), dtype=complex)


H_KINDS = ("random", "integer-diagonal", "zero")


def test_bit_lift_equals_the_jordan_wigner_oracle_exactly():
    rng = np.random.default_rng(2011)
    for n_modes in range(1, 9):
        sparse = _random_hermitian(rng, n_modes)
        zero = rng.random((n_modes, n_modes)) < 0.3  # the oracle skips zero entries
        sparse[zero | zero.T] = 0.0
        for h in [_one_particle(kind, rng, n_modes) for kind in H_KINDS] + [sparse]:
            np.testing.assert_array_equal(lift_one_particle(h), jordan_wigner_lift(h))


def _match_outcomes(new, old) -> np.ndarray:
    """Index into ``old`` of every outcome of ``new``, matched by eigenvalue tuple."""
    dist = np.abs(new.eigen_tuples[:, None, :] - old.eigen_tuples[None, :, :]).max(axis=2)
    perm = dist.argmin(axis=1)
    assert sorted(perm.tolist()) == list(range(old.n_outcomes))
    assert dist[np.arange(new.n_outcomes), perm].max() <= 1e-12
    np.testing.assert_array_equal(new.degeneracies, old.degeneracies[perm])
    return perm


@pytest.mark.parametrize("kind", H_KINDS)
@pytest.mark.parametrize("n_modes", range(1, 9))
def test_sector_family_matches_the_dense_joint_diagonalization(n_modes, kind, monkeypatch):
    """Number sectors against joint_refinement([dense Jordan-Wigner H, N]), 1..8 modes.

    The two paths cut H's spectrum differently only where eigenvalues sit
    about GROUP_TOL apart: the dense path clusters H over all sectors, the
    sector path inside each.  The data keep clear of that boundary, which
    the first assertion pins: every gap of H's spectrum is either rounding
    (degenerate h) or far above the cut.
    """
    rng = np.random.default_rng([2011, n_modes, H_KINDS.index(kind)])
    cfg = GrandCanonicalConfig(h_t0=_one_particle(kind, rng, n_modes),
                               h_t1=_one_particle(kind, rng, n_modes), beta=0.7, mu=0.3)
    for h in (cfg.h_t0, cfg.h_t1):
        big_h = jordan_wigner_lift(h)
        gaps = np.diff(np.linalg.eigvalsh(big_h)) / max(1.0, np.abs(big_h).max())
        assert np.all((gaps < 1e-3 * GROUP_TOL) | (gaps > 1e3 * GROUP_TOL))
    u = haar_unitary(cfg.dim, rng)
    new = generate(cfg, u)
    monkeypatch.setattr(ensembles, "lift_one_particle", lambda hs: np.array([jordan_wigner_lift(h) for h in hs]))
    monkeypatch.setattr(ensembles, "joint_diagonalize", lambda big_h, _: _stack_of_one(
        joint_refinement([big_h[0], number_operator(n_modes)])))
    old = generate(cfg, u)

    perm0 = _match_outcomes(new.first_family, old.first_family)
    perm1 = _match_outcomes(new.second_family, old.second_family)
    np.testing.assert_allclose(new.model.p_table, old.model.p_table[np.ix_(perm0, perm1)], rtol=0, atol=1e-12)
    np.testing.assert_allclose(new.q, old.q[perm1], rtol=0, atol=1e-12)
    assert new.jarzynski_lhs == pytest.approx(old.jarzynski_lhs, rel=0, abs=1e-12)
    # outcomes come out N-major, energies ascending inside each sector
    for fam in (new.first_family, new.second_family):
        assert np.all(np.diff(fam.eigen_tuples[:, 1]) >= 0)
        same = np.diff(fam.eigen_tuples[:, 1]) == 0
        assert np.all(np.diff(fam.eigen_tuples[:, 0])[same] > GROUP_TOL)


def test_tensor_lift_spectra_and_commutation(rng):
    a = np.diag([0.0, 1.0])
    b = np.diag([0.0, 2.0, 4.0])
    la, lb = tensor_lift([a, b])
    assert la.shape == (6, 6)
    np.testing.assert_allclose(la @ lb, lb @ la, atol=1e-13)
    np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(la + lb)),
                               [0.0, 1.0, 2.0, 3.0, 4.0, 5.0], atol=1e-12)


def _rotated_diagonal(rng: np.random.Generator, spectrum) -> np.ndarray:
    """Hermitian matrix with the given (possibly degenerate) spectrum in a Haar-random basis."""
    v = haar_unitary(len(spectrum), rng)
    h = (v * np.asarray(spectrum, dtype=float)) @ v.conj().T
    return 0.5 * (h + h.conj().T)


# factor spectra: an int is a random Hermitian of that dimension, a tuple a degenerate spectrum
PRODUCT_CASES = {
    "one-random": [4],
    "one-degenerate": [(0, 0, 1)],
    "two-random": [2, 3],
    "two-degenerate": [(1, 1), (0, 0, 2, 2)],
    "two-scalar-factor": [(0.5,), 3],
    "three-mixed": [2, (0, 1, 1), 2],
    "three-degenerate": [(2, 2, 2), (1, -1), (0, 0, 3)],
}


@pytest.mark.parametrize("case", PRODUCT_CASES)
def test_product_family_matches_the_lifted_joint_diagonalization(case):
    """Factor spectra against joint_refinement of the dense lifts: same outcomes in the same order."""
    rng = np.random.default_rng([1771, list(PRODUCT_CASES).index(case)])
    hs = [_random_hermitian(rng, s) if isinstance(s, int) else _rotated_diagonal(rng, s)
          for s in PRODUCT_CASES[case]]
    new = product_family([joint_diagonalize(h) for h in hs])
    old = joint_refinement(tensor_lift(hs))
    np.testing.assert_array_equal(new.degeneracies, old.degeneracies)
    np.testing.assert_allclose(new.eigen_tuples, old.eigen_tuples, rtol=0, atol=1e-12)
    np.testing.assert_allclose(projections(new), projections(old), rtol=0, atol=1e-12)
    for k, lifted in enumerate(tensor_lift(hs)):
        np.testing.assert_allclose(new.operator(k), old.operator(k), rtol=0, atol=1e-12)
        np.testing.assert_allclose(new.operator(k), lifted, rtol=0, atol=1e-12)


def test_one_factor_product_family_equals_the_factor_exactly(rng):
    for h in (_random_hermitian(rng, 4), _rotated_diagonal(rng, (0, 0, 1)), np.diag([2.0, -1.0, 2.0])):
        factor = joint_diagonalize(h)
        one = product_family([factor])
        np.testing.assert_array_equal(one.basis, factor.basis)
        np.testing.assert_array_equal(one.eigen_tuples, factor.eigen_tuples)
        np.testing.assert_array_equal(one.degeneracies, factor.degeneracies)


def _corpus_model(family: str, seed, index: int):
    """The checked config and Haar unitary of one corpus model, drawn as the corpus draws them."""
    kind, values, z = verify.draw_model(family, seed, index)
    return kind(**values), haar_orthonormalize(z)


def _product_config(family: str, index: int):
    """Corpus models for indices 0-3, a config with degenerate factor spectra for index 4;
    each with its Haar unitary."""
    seed = [1553, verify.FAMILIES.index(family), index]
    if index < 4:
        return _corpus_model(family, seed, index)
    rng = np.random.default_rng(seed)
    if family == "local_canonical":
        cfg = LocalCanonicalConfig(h_t0=(_rotated_diagonal(rng, (0, 0, 1)), np.diag([0.5, 0.5])),
                                   h_t1=(_rotated_diagonal(rng, (1, 2, 2)), _random_hermitian(rng, 2)),
                                   betas=(0.7, 1.3))
    else:
        cfg = PeriodicThermoConfig(quasi_energies=[-0.4, 0.2, 0.9], bath_hamiltonian=_rotated_diagonal(
            rng, (0, 0, 1)), theta=0.6, beta=1.1)
    return cfg, haar_unitary(cfg.dim, rng)


@pytest.mark.parametrize("index", range(5))
@pytest.mark.parametrize("family", ["local_canonical", "periodic_thermo"])
def test_product_families_match_the_dense_tensor_lift(family, index, monkeypatch):
    """Reports from factor spectra against the same reports with every product family
    rebuilt as joint_refinement of the dense lifts of the factor Hamiltonians."""
    cfg, u = _product_config(family, index)
    new = generate(cfg, u)
    raw = {}  # factor family -> the Hamiltonian it diagonalizes

    def recording(h):
        family = joint_diagonalize(h)
        raw[id(family)] = h[0]
        return family

    monkeypatch.setattr(ensembles, "joint_diagonalize", recording)
    monkeypatch.setattr(ensembles, "product_family", lambda factors: _stack_of_one(
        joint_refinement(tensor_lift([raw[id(f)] for f in factors]))))
    old = generate(cfg, u)
    assert len(raw) == (2 * len(cfg.betas) if family == "local_canonical" else 2)
    for a, b in ((new.first_family, old.first_family), (new.second_family, old.second_family)):
        np.testing.assert_array_equal(a.degeneracies, b.degeneracies)
        np.testing.assert_allclose(a.eigen_tuples, b.eigen_tuples, rtol=0, atol=1e-12)
    np.testing.assert_allclose(new.model.p_table, old.model.p_table, rtol=0, atol=1e-12)
    np.testing.assert_allclose(new.q, old.q, rtol=0, atol=1e-12)
    assert new.jarzynski_lhs == pytest.approx(old.jarzynski_lhs, rel=0, abs=1e-12)
    assert new.quantities.keys() == old.quantities.keys()
    for key, value in new.quantities.items():
        assert value == pytest.approx(old.quantities[key], rel=0, abs=1e-12), key


# ------------------------------------------------------------- config objects


def test_config_validation_errors(rng):
    h = np.diag([0.0, 1.0])
    with pytest.raises(ValidationError, match="positive"):
        LocalCanonicalConfig(h_t0=(h,), h_t1=(h,), betas=(0.0,))
    with pytest.raises(ValidationError, match="equal positive length"):
        LocalCanonicalConfig(h_t0=(h,), h_t1=(h, h), betas=(1.0,))
    with pytest.raises(ValidationError, match=r"^h_t1\[0\] has shape \(3, 3\) but h_t0\[0\] has \(2, 2\)"):
        LocalCanonicalConfig(h_t0=(h, np.eye(3)), h_t1=(np.eye(3), h), betas=(1.0, 1.0))
    with pytest.raises(ValidationError, match="width"):
        MicrocanonicalConfig(h_t0=h, h_t1=h, energy=0.0, width=0.0)
    with pytest.raises(ValidationError, match="beta"):
        GrandCanonicalConfig(h_t0=h, h_t1=h, beta=-1.0, mu=0.0)
    with pytest.raises(ValidationError, match="distinct"):
        PeriodicThermoConfig(quasi_energies=[0.3, 0.3, 0.9],
                             bath_hamiltonian=h, theta=1.0, beta=1.0)
    with pytest.raises(ValidationError, match="at least two"):
        PeriodicThermoConfig(quasi_energies=[0.3], bath_hamiltonian=h,
                             theta=1.0, beta=1.0)


@pytest.mark.parametrize("build, name", [
    (lambda v: MicrocanonicalConfig(h_t0=np.eye(2), h_t1=np.eye(2), energy=v, width=1.0), "energy"),
    (lambda v: GrandCanonicalConfig(h_t0=np.eye(2), h_t1=np.eye(2), beta=1.0, mu=v), "mu"),
    (lambda v: PeriodicThermoConfig(quasi_energies=[0.0, 1.0], bath_hamiltonian=np.eye(2), theta=v, beta=1.0),
     "theta"),
], ids=["energy", "mu", "theta"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_config_numbers_are_named_with_their_value(build, name, value):
    with pytest.raises(ValidationError, match=f"^{name} = {value} must be finite$"):
        build(value)


def _anti_hermitian_part(h):
    return h + 1j * np.eye(len(h))


# one invalid field for every config check that can tell models of one stack apart
STACK_FAULTS = {
    "local_canonical-betas": (lambda v: {"betas": v["betas"][:-1] + [0.0]}, r"betas\[1\] = 0\.0 must be positive"),
    "local_canonical-h_t1": (lambda v: {"h_t1": [v["h_t1"][0], _anti_hermitian_part(v["h_t1"][1])]},
                             r"h_t1\[1\] is not Hermitian \(deviation 2\.000e\+00\)"),
    "microcanonical-h_t0": (lambda v: {"h_t0": _anti_hermitian_part(v["h_t0"])}, r"h_t0 is not Hermitian"),
    "microcanonical-width": (lambda v: {"width": -1.0}, r"width = -1\.0 must be positive and finite"),
    "microcanonical-energy": (lambda v: {"energy": math.nan}, r"energy = nan must be finite"),
    "grand_canonical-beta": (lambda v: {"beta": 0.0}, r"beta = 0\.0 must be positive and finite"),
    "grand_canonical-mu": (lambda v: {"mu": math.inf}, r"mu = inf must be finite"),
    "periodic_thermo-quasi_energies": (lambda v: {"quasi_energies": np.r_[v["quasi_energies"][:-1], math.nan]},
                                       r"quasi_energies = \[.*, nan\] must be finite and pairwise distinct"),
    "periodic_thermo-bath_hamiltonian": (lambda v: {"bath_hamiltonian": _anti_hermitian_part(v["bath_hamiltonian"])},
                                         r"bath_hamiltonian is not Hermitian"),
    "periodic_thermo-theta": (lambda v: {"theta": -math.inf}, r"theta = -inf must be finite"),
}


@pytest.mark.parametrize("fault", STACK_FAULTS)
def test_a_stacked_config_check_finds_the_invalid_model(fault):
    """The stacked check of a bucket raises for a fault in its last model alone, with the message
    the one-model config gives; the stack of valid models passes."""
    change, message = STACK_FAULTS[fault]
    kind, values, _ = verify.draw_model(fault.split("-")[0], 5, 1)
    stack_configs(kind, [values] * 3).check()
    rows = [values, values, values | change(values)]
    with pytest.raises(ValidationError, match=f"^{message}"):
        stack_configs(kind, rows).check()
    with pytest.raises(ValidationError, match=f"^{message}"):
        kind(**rows[-1])


def test_config_json_round_trips(rng):
    h0 = _random_hermitian(rng, 2)
    h1 = _random_hermitian(rng, 2)
    configs = [
        LocalCanonicalConfig(h_t0=(h0,), h_t1=(h1,), betas=(0.8,)),
        MicrocanonicalConfig(h_t0=h0, h_t1=h1, energy=0.2, width=0.9),
        GrandCanonicalConfig(h_t0=h0, h_t1=h1, beta=1.1, mu=-0.3),
        PeriodicThermoConfig(quasi_energies=[0.1, 0.5, 0.9],
                             bath_hamiltonian=h0, theta=-0.7, beta=1.3),
    ]
    for cfg in configs:
        data = json.loads(json.dumps(cfg.to_json_dict()))
        back = config_from_json_dict(data)
        assert type(back) is type(cfg)
        again = back.to_json_dict()
        assert json.dumps(again, sort_keys=True) == json.dumps(cfg.to_json_dict(), sort_keys=True)
    with pytest.raises(ValidationError, match="unknown ensemble kind"):
        config_from_json_dict({"kind": "nonsense"})


def test_config_that_is_not_an_object_is_named():
    for value, kind in [(7, "int"), ([], "list"), ("local_canonical", "str")]:
        with pytest.raises(ValidationError, match=rf"^config must be a JSON object, got {kind}$"):
            config_from_json_dict(value)


def test_config_missing_field_names_it(rng):
    h = _random_hermitian(rng, 2)
    configs = [
        LocalCanonicalConfig(h_t0=(h,), h_t1=(h,), betas=(0.8,)),
        MicrocanonicalConfig(h_t0=h, h_t1=h, energy=0.2, width=0.9),
        GrandCanonicalConfig(h_t0=h, h_t1=h, beta=1.1, mu=-0.3),
        PeriodicThermoConfig(quasi_energies=[0.1, 0.5], bath_hamiltonian=h, theta=-0.7, beta=1.3),
    ]
    for cfg in configs:
        for name in set(cfg.to_json_dict()) - {"kind"}:
            data = cfg.to_json_dict()
            del data[name]
            with pytest.raises(ValidationError, match=f"{cfg.kind} config is missing field '{name}'"):
                config_from_json_dict(data)


def test_grand_canonical_config_rejects_thirteen_modes():
    eye = {"dim": 13, "re": np.eye(13).tolist()}
    data = {"kind": "grand_canonical", "h_t0": eye, "h_t1": eye, "beta": 1.0, "mu": 0.0}
    with pytest.raises(ValidationError, match=r"^n_modes = 13 outside the supported range 1\.\.12$"):
        config_from_json_dict(data)


SIGMA_Z = {"dim": 2, "re": [[1.0, 0.0], [0.0, -1.0]]}
NOT_HERMITIAN = {"dim": 2, "re": [[0.0, 1.0], [0.0, 0.0]]}


@pytest.mark.parametrize("kind, name, value, message", [
    ("microcanonical", "h_t1", {"dim": 2, "re": [[1.0, 0.0]]},
     "h_t1: operator JSON claims dim 2 but has shapes (1, 2), (2, 2)"),
    ("microcanonical", "h_t0", {"dim": 0, "re": []},
     "h_t0: dim = 0 must be a positive integer"),
    ("microcanonical", "h_t0", {"dim": 2, "im": [[0.0, 0.0], [0.0, 0.0]]},
     "h_t0: operator JSON lacks 're'"),
    ("microcanonical", "h_t1", {"re": [[1.0]]}, "h_t1: operator JSON lacks 'dim'"),
    ("microcanonical", "h_t0", {}, "h_t0: operator JSON lacks 'dim' and 're'"),
    ("microcanonical", "energy", "high", "energy: could not convert string to float"),
    ("local_canonical", "h_t0", [{"dim": 2}], "h_t0: operator JSON lacks 're'"),
    # operators are checked when the config is constructed, under their field names
    ("local_canonical", "h_t0", [SIGMA_Z, NOT_HERMITIAN], "h_t0[1] is not Hermitian"),
    ("local_canonical", "h_t1", [SIGMA_Z, {"dim": 3, "re": np.eye(3).tolist()}],
     "h_t1[1] has shape (3, 3) but h_t0[1] has (2, 2)"),
    ("microcanonical", "h_t1", {"dim": 6, "re": np.eye(6).tolist()}, "h_t1 has shape (6, 6) but h_t0 has (2, 2)"),
    ("microcanonical", "h_t0", {"dim": 2, "re": [[math.nan, 0.0], [0.0, 1.0]]}, "h_t0 has non-finite entries"),
    ("grand_canonical", "h_t1", NOT_HERMITIAN, "h_t1 is not Hermitian"),
    ("periodic_thermo", "bath_hamiltonian", NOT_HERMITIAN, "bath_hamiltonian is not Hermitian"),
    ("periodic_thermo", "quasi_energies", [0.0, math.nan, 1.0], "quasi_energies = [0.0, nan, 1.0] must be finite"),
], ids=["shape", "empty", "missing-re", "missing-dim", "missing-both", "real", "operator-tuple",
        "hermitian-factor", "factor-dimension", "dimension", "non-finite", "grand-hermitian",
        "bath-hermitian", "quasi-energy-nan"])
def test_config_decoding_errors_name_the_field(rng, kind, name, value, message):
    h = _random_hermitian(rng, 2)
    cfg = {"microcanonical": MicrocanonicalConfig(h_t0=h, h_t1=h, energy=0.2, width=0.9),
           "local_canonical": LocalCanonicalConfig(h_t0=(h, h), h_t1=(h, h), betas=(0.8, 1.2)),
           "grand_canonical": GrandCanonicalConfig(h_t0=h, h_t1=h, beta=1.1, mu=-0.3),
           "periodic_thermo": PeriodicThermoConfig(quasi_energies=[0.1, 0.5], bath_hamiltonian=h,
                                                   theta=-0.7, beta=1.3)}[kind]
    data = json.loads(json.dumps(cfg.to_json_dict()))
    data[name] = value
    with pytest.raises(ValidationError) as info:
        config_from_json_dict(data)
    assert str(info.value).startswith(message)


def test_config_dim_matches_generated_unitary(rng):
    h2, h3 = _random_hermitian(rng, 2), _random_hermitian(rng, 3)
    cases = [
        (LocalCanonicalConfig(h_t0=(h2, h3), h_t1=(h2, h3), betas=(0.8, 1.2)), 6),
        (MicrocanonicalConfig(h_t0=h3, h_t1=h3, energy=0.2, width=0.9), 3),
        (GrandCanonicalConfig(h_t0=h2, h_t1=h2, beta=1.1, mu=-0.3), 4),
        (PeriodicThermoConfig(quasi_energies=[0.1, 0.5, 0.9], bath_hamiltonian=h2,
                              theta=-0.7, beta=1.3), 6),
    ]
    assert {type(cfg) for cfg, _ in cases} == set(GENERATORS)
    for cfg, dim in cases:
        assert cfg.dim == dim
        assert generate(cfg, haar_unitary(dim, rng)).model.p_table.sum() == pytest.approx(1.0)


# ------------------------------------------------------------ family reports


def test_assemble_report_cross_checks_the_labeled_jensen_combination(rng):
    """Labeled quantities whose Jensen combination misses the generic value are rejected."""
    family = joint_diagonalize(_random_hermitian(rng, 3)[None])
    u = haar_unitary(3, rng)[None]

    def build(labeled):
        return _assemble_report(
            kind="test_family", first=family, second=family,
            log_weight=lambda tuples: -tuples[..., 0], u=u,
            work_value=lambda changes: changes[..., 0], labeled=labeled)

    plain = build(lambda log_norm0, log_norm1, mean_changes: {})
    assert "jensen_combination" not in plain.quantities
    generic = plain.jensen_lhs
    report = build(lambda log_norm0, log_norm1, mean_changes: {"jensen_combination": generic})
    assert report.quantities["jensen_combination"] is generic
    with pytest.raises(ValidationError, match="labeled test_family Jensen combination"):
        build(lambda log_norm0, log_norm1, mean_changes: {"jensen_combination": generic + 1e-6})


def test_random_config_rejects_an_unknown_family():
    with pytest.raises(ValidationError, match="unknown family 'bogus'"):
        verify.draw_model("bogus", 0, 0)
    with pytest.raises(ValidationError, match="unknown family 'bogus'"):
        verify.random_model("bogus", 1)


def test_run_corpus_rejects_unknown_names_before_any_model(monkeypatch):
    calls = []
    draw_model = verify.draw_model
    monkeypatch.setattr(verify, "draw_model", lambda *args: calls.append(args) or draw_model(*args))
    with pytest.raises(ValidationError, match=r"unknown families \['bogus'\]"):
        verify.run_corpus(seed=1, n_per_family=2, families=("local_canonical", "bogus"))
    with pytest.raises(ValidationError, match=r"unknown tolerance keys \['nope'\]"):
        verify.run_corpus(seed=1, n_per_family=2, tolerances={"nope": 1.0})
    with pytest.raises(ValidationError, match="n_per_family = True must be a positive integer"):
        verify.run_corpus(seed=1, n_per_family=True, families=("microcanonical",))
    assert calls == []


@pytest.mark.parametrize("family", verify.FAMILIES)
def test_generate_builds_the_ratio_once_and_each_state_once(family, monkeypatch):
    """One ratio table, one state per time, one joint diagonalization per factor Hamiltonian
    (the grand-canonical Fock-space Hamiltonian is one factor), one product family per time
    for products."""
    calls = {"j_ratio": 0, "ensemble_state": 0, "joint_diagonalize": 0, "product_family": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    j_ratio = counting("j_ratio", model.j_ratio)
    monkeypatch.setattr(ensembles, "j_ratio", j_ratio)
    monkeypatch.setattr(model, "j_ratio", j_ratio)
    monkeypatch.setattr(ensembles, "ensemble_state", counting("ensemble_state", ensembles.ensemble_state))
    monkeypatch.setattr(ensembles, "joint_diagonalize",
                        counting("joint_diagonalize", ensembles.joint_diagonalize))
    monkeypatch.setattr(ensembles, "product_family", counting("product_family", ensembles.product_family))
    cfg, u = _corpus_model(family, np.random.SeedSequence(11), 1)
    generate(cfg, u)
    # the local-canonical subsystem partition functions are the log norms of one state per
    # subsystem and time, for the cross-check against the joint normalizations
    n_subsystems = len(cfg.betas) if family == "local_canonical" else 0
    # one diagonalization per factor and time (the periodic family is shared by both times)
    n_joint = {"local_canonical": 2 * n_subsystems, "microcanonical": 2, "grand_canonical": 2,
               "periodic_thermo": 2}
    n_products = {"local_canonical": 2, "periodic_thermo": 1}.get(family, 0)
    assert calls == {"j_ratio": 1, "ensemble_state": 2 + 2 * n_subsystems,
                     "joint_diagonalize": n_joint[family], "product_family": n_products}


@pytest.mark.parametrize("family", verify.FAMILIES)
def test_exponent_crosscheck_catches_misassigned_probabilities(family, monkeypatch):
    """No dense state is traced, so probabilities put on the wrong outcomes must be caught by
    the cross-check of exp(-X) against the table ratio d q / (D p)."""
    build = ensembles.ensemble_state

    def rolled(spectral_family, log_weights):
        state = build(spectral_family, log_weights)
        return dataclasses.replace(state, probabilities=np.roll(state.probabilities, 1))

    monkeypatch.setattr(ensembles, "ensemble_state", rolled)
    for index in range(3):
        with pytest.raises(ValidationError, match="physical exponent inconsistent with table ratio"):
            verify.random_model(family, np.random.SeedSequence([11, index]), index)

def test_local_canonical_identity_and_free_energy(rng):
    h0 = _random_hermitian(rng, 3)
    h1 = _random_hermitian(rng, 3)
    beta = 0.9
    cfg = LocalCanonicalConfig(h_t0=(h0,), h_t1=(h1,), betas=(beta,))
    u = haar_unitary(3, rng)
    report = generate(cfg, u)
    assert abs(report.jarzynski_lhs - 1.0) < 1e-12
    assert report.jensen_lhs >= -1e-12
    assert report.entropy_gap >= -1e-12
    assert abs(report.histogram_identity - report.jarzynski_lhs) < 1e-12
    z0 = float(np.sum(np.exp(-beta * np.linalg.eigvalsh(h0))))
    z1 = float(np.sum(np.exp(-beta * np.linalg.eigvalsh(h1))))
    d_f = (-math.log(z1) / beta) - (-math.log(z0) / beta)
    assert report.quantities["delta_free_energy_0"] == pytest.approx(d_f, rel=1e-12)
    assert report.quantities["jensen_combination"] == pytest.approx(
        beta * (report.quantities["mean_work_0"] - d_f), rel=1e-10, abs=1e-12)


def test_local_canonical_two_subsystems(rng):
    h0a, h1a = _random_hermitian(rng, 2), _random_hermitian(rng, 2)
    h0b, h1b = _random_hermitian(rng, 2), _random_hermitian(rng, 2)
    cfg = LocalCanonicalConfig(h_t0=(h0a, h0b), h_t1=(h1a, h1b), betas=(0.5, 1.7))
    u = haar_unitary(4, rng)
    report = generate(cfg, u)
    assert abs(report.jarzynski_lhs - 1.0) < 1e-12
    combo = sum(report.quantities[f"beta_{mu}"]
                * (report.quantities[f"mean_work_{mu}"]
                   - report.quantities[f"delta_free_energy_{mu}"]) for mu in (0, 1))
    assert combo == pytest.approx(report.jensen_lhs, rel=1e-9, abs=1e-12)
    assert combo >= -1e-12


def test_microcanonical_identity(rng):
    cfg = MicrocanonicalConfig(h_t0=_random_hermitian(rng, 4),
                               h_t1=_random_hermitian(rng, 4),
                               energy=0.3, width=0.8)
    u = haar_unitary(4, rng)
    report = generate(cfg, u)
    assert abs(report.jarzynski_lhs - 1.0) < 1e-12
    assert report.jensen_lhs >= -1e-12
    assert report.quantities["delta_f"] == pytest.approx(
        report.quantities["log_window_norm_t0"] - report.quantities["log_window_norm_t1"],
        rel=1e-12, abs=1e-12)


def test_grand_canonical_identity_and_free_fermion_oracle(rng):
    """The reported grand potential matches the independent product formula."""
    h0 = _random_hermitian(rng, 3)
    h1 = _random_hermitian(rng, 3)
    beta, mu = 1.2, -0.4
    cfg = GrandCanonicalConfig(h_t0=h0, h_t1=h1, beta=beta, mu=mu)
    u = haar_unitary(8, rng)
    report = generate(cfg, u)
    assert abs(report.jarzynski_lhs - 1.0) < 1e-12
    for h, key in ((h0, "omega_t0"), (h1, "omega_t1")):
        eps = np.linalg.eigvalsh(h)
        omega = -float(np.sum(np.log1p(np.exp(beta * (mu - eps))))) / beta
        assert report.quantities[key] == pytest.approx(omega, rel=1e-10, abs=1e-10)
    assert report.quantities["jensen_combination"] == pytest.approx(
        report.jensen_lhs, rel=1e-9, abs=1e-10)


def test_periodic_thermo_identity(rng):
    cfg = PeriodicThermoConfig(quasi_energies=[0.15, 0.55, 1.05],
                               bath_hamiltonian=_random_hermitian(rng, 2),
                               theta=-0.8, beta=1.4)
    u = haar_unitary(6, rng)
    report = generate(cfg, u)
    assert abs(report.jarzynski_lhs - 1.0) < 1e-12
    assert report.jensen_lhs >= -1e-12
    # both families coincide, so the exponent offset is zero and the
    # exponent is theta * de + beta * dq; its mean is the Jensen value
    assert report.quantities["jensen_combination"] == pytest.approx(
        report.jensen_lhs, rel=1e-9, abs=1e-12)
    assert report.quantities["mean_exponent"] == pytest.approx(
        report.jensen_lhs, rel=1e-9, abs=1e-12)


def test_identity_unitary_gives_trivial_exponent(rng):
    """With U = identity and equal spectra nothing changes: X = 0 on the support."""
    h = _random_hermitian(rng, 3)
    cfg = LocalCanonicalConfig(h_t0=(h,), h_t1=(h,), betas=(1.0,))
    report = generate(cfg, np.eye(3, dtype=complex))
    assert abs(report.jarzynski_lhs - 1.0) < 1e-14
    assert abs(report.jensen_lhs) < 1e-12
    assert abs(report.quantities["mean_work_0"]) < 1e-12
    support = report.exponent_histogram.probs > 1e-15
    np.testing.assert_allclose(report.exponent_histogram.values[support], 0.0, atol=1e-10)


def test_generate_dispatch(rng):
    h = _random_hermitian(rng, 2)
    cfg = MicrocanonicalConfig(h_t0=h, h_t1=_random_hermitian(rng, 2),
                               energy=0.0, width=1.0)
    report = generate(cfg, haar_unitary(2, rng))
    assert report.family_kind == "microcanonical"
    with pytest.raises(ValidationError):
        generate(object(), np.eye(2))
    with pytest.raises(ValidationError, match="^h_t0 is an empty 0x0 matrix"):
        MicrocanonicalConfig(h_t0=np.zeros((0, 0)), h_t1=np.zeros((0, 0)), energy=0.0, width=1.0)


def test_report_json_serializable(rng):
    h = _random_hermitian(rng, 2)
    cfg = GrandCanonicalConfig(h_t0=h, h_t1=_random_hermitian(rng, 2), beta=1.0, mu=0.1)
    report = generate(cfg, haar_unitary(4, rng))
    text = json.dumps(report.to_json_dict())
    data = json.loads(text)
    assert data["family_kind"] == "grand_canonical"
    assert abs(data["jarzynski_lhs"] - 1.0) < 1e-12
    assert len(data["q"]) == report.model.shape[1]
    assert not {"work_histogram", "exponent_histogram"} & set(data)  # the CLI writes them as CSV


def test_family_sweep_invariants():
    """A seeded sweep across all four families: identity, bounds, structure."""
    rng = np.random.default_rng(7)
    for trial in range(6):
        h0 = _random_hermitian(rng, 2)
        h1 = _random_hermitian(rng, 2)
        reports = [
            generate(
                LocalCanonicalConfig(h_t0=(h0,), h_t1=(h1,), betas=(float(rng.uniform(0.3, 1.5)),)),
                haar_unitary(2, rng)),
            generate(
                MicrocanonicalConfig(h_t0=_random_hermitian(rng, 3), h_t1=_random_hermitian(rng, 3),
                                     energy=float(rng.uniform(-1, 1)), width=float(rng.uniform(0.5, 1.5))),
                haar_unitary(3, rng)),
            generate(
                GrandCanonicalConfig(h_t0=_random_hermitian(rng, 2), h_t1=_random_hermitian(rng, 2),
                                     beta=float(rng.uniform(0.3, 1.5)), mu=float(rng.uniform(-0.5, 0.5))),
                haar_unitary(4, rng)),
            generate(
                PeriodicThermoConfig(quasi_energies=np.sort(rng.uniform(-1, 1, size=3)) + [0.0, 0.2, 0.4],
                                     bath_hamiltonian=_random_hermitian(rng, 2),
                                     theta=float(rng.uniform(-1.5, 1.5)), beta=float(rng.uniform(0.3, 1.5))),
                haar_unitary(6, rng)),
        ]
        for report in reports:
            assert abs(report.jarzynski_lhs - 1.0) < 1e-12, report.family_kind
            assert report.jensen_lhs >= -1e-12, report.family_kind
            assert report.entropy_gap >= -1e-12, report.family_kind
            assert abs(report.histogram_identity - report.jarzynski_lhs) < 1e-12
            ok, dev = is_modified_doubly_stochastic(
                conditional(report.model), report.model.d, report.model.D, tol=1e-11)
            assert ok, f"{report.family_kind}: {dev}"
            assert j_equation_lhs(report.model, report.q) == pytest.approx(report.jarzynski_lhs, abs=1e-15)


@pytest.mark.parametrize("family", verify.FAMILIES)
def test_the_jensen_value_is_the_mean_of_minus_ln_y(family):
    """jensen_lhs, the mean exponent < X >, equals -sum P ln y taken from the table ratio on the
    cells with P > 0, the route that needs the log of y, to 1e-14 relative."""
    for index in range(12):
        report = verify.random_model(family, np.random.SeedSequence([1601, index]), index)
        table, y = report.model.p_table, model.j_ratio(report.model, report.q)
        on = table > 0.0
        minus_ln_y = -float(np.sum(table[on] * np.log(y[on])))
        assert report.jensen_lhs >= 0.0
        assert abs(report.jensen_lhs - minus_ln_y) <= 1e-14 * max(1.0, minus_ln_y), (index, report.jensen_lhs)
        assert report.quantities["mean_exponent"] == report.jensen_lhs


# a narrow window: the weight of the later level at energy 10 underflows, so q(1) = 0 and y = 0 there
UNDERFLOW = MicrocanonicalConfig(h_t0=np.diag([0.0, 0.05]), h_t1=np.diag([0.0, 10.0]), energy=0.0, width=0.1)


def test_the_jensen_value_stays_finite_where_the_ratio_underflows():
    report = generate(UNDERFLOW, haar_unitary(2, np.random.default_rng(1)))
    assert report.q[1] == 0.0 and np.all(report.model.p_table > 0.0)
    assert math.isfinite(report.jensen_lhs) and report.jensen_lhs > 0.0
    assert report.jensen_lhs == report.quantities["mean_exponent"]
    assert abs(report.jarzynski_lhs - 1.0) <= 1e-12
