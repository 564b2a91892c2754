"""Tests for the ensemble-family generators and their labeled physics."""

from __future__ import annotations

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
    fock_annihilators,
    generate,
    grand_canonical_model,
    lift_one_particle,
    local_canonical_model,
    microcanonical_model,
    number_operator,
    periodic_thermo_model,
    tensor_lift,
    _assemble_report,
)
from seqmeas import ensembles, model, verify
from seqmeas.model import ValidationError, is_modified_doubly_stochastic, conditional, j_equation_lhs
from seqmeas.quantum import haar_unitary, joint_diagonalize


def _random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (a + a.conj().T)


# ----------------------------------------------------------- fermionic algebra


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


def test_tensor_lift_spectra_and_commutation(rng):
    a = np.diag([0.0, 1.0])
    b = np.diag([0.0, 2.0, 4.0])
    la, lb = tensor_lift([a, b])
    assert la.shape == (6, 6)
    np.testing.assert_allclose(la @ lb, lb @ la, atol=1e-13)
    np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(la + lb)),
                               [0.0, 1.0, 2.0, 3.0, 4.0, 5.0], atol=1e-12)


# ------------------------------------------------------------- config objects


def test_config_validation_errors(rng):
    h = np.diag([0.0, 1.0])
    with pytest.raises(ValidationError, match="positive"):
        LocalCanonicalConfig(h_t0=(h,), h_t1=(h,), betas=(0.0,))
    with pytest.raises(ValidationError, match="equal positive length"):
        LocalCanonicalConfig(h_t0=(h,), h_t1=(h, h), betas=(1.0,))
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
    family = joint_diagonalize([_random_hermitian(rng, 3)])
    u = haar_unitary(3, rng)

    def build(labeled):
        return _assemble_report(
            kind="test_family", first=family, second=family,
            log_weight=lambda tuples: -tuples[:, 0], u=u,
            work_value=lambda changes: changes[:, :, 0], labeled=labeled)

    plain = build(lambda log_norm0, log_norm1, mean_changes: {})
    assert "jensen_combination" not in plain.quantities
    generic = plain.jensen_lhs
    report = build(lambda log_norm0, log_norm1, mean_changes: {"jensen_combination": generic})
    assert report.quantities["jensen_combination"] == generic
    with pytest.raises(ValidationError, match="labeled test_family Jensen combination"):
        build(lambda log_norm0, log_norm1, mean_changes: {"jensen_combination": generic + 1e-6})


@pytest.mark.parametrize("family", verify.FAMILIES)
def test_generate_builds_the_ratio_once_and_each_state_once(family, monkeypatch):
    """One ratio table, one state per time, and no normalization re-derived by logsumexp."""
    calls = {"j_ratio": 0, "ensemble_state": 0, "logsumexp": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    j_ratio = counting("j_ratio", model.j_ratio)
    monkeypatch.setattr(ensembles, "j_ratio", j_ratio)
    monkeypatch.setattr(model, "j_ratio", j_ratio)
    monkeypatch.setattr(ensembles, "ensemble_state", counting("ensemble_state", ensembles.ensemble_state))
    monkeypatch.setattr(ensembles, "logsumexp", counting("logsumexp", ensembles.logsumexp))
    rng = np.random.default_rng(np.random.SeedSequence(11))
    cfg = verify.random_config(family, rng, 1)
    generate(cfg, haar_unitary(cfg.dim, rng))
    # only the local-canonical subsystem partition functions use logsumexp, one per
    # subsystem and time, for the cross-check against the joint normalizations
    n_partitions = 2 * len(cfg.betas) if family == "local_canonical" else 0
    assert calls == {"j_ratio": 1, "ensemble_state": 2, "logsumexp": n_partitions}


def test_local_canonical_identity_and_free_energy(rng):
    h0 = _random_hermitian(rng, 3)
    h1 = _random_hermitian(rng, 3)
    beta = 0.9
    cfg = LocalCanonicalConfig(h_t0=(h0,), h_t1=(h1,), betas=(beta,))
    u = haar_unitary(3, rng)
    report = local_canonical_model(cfg, u)
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
    report = local_canonical_model(cfg, u)
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
    report = microcanonical_model(cfg, u)
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
    report = grand_canonical_model(cfg, u)
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
    report = periodic_thermo_model(cfg, u)
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
    report = local_canonical_model(cfg, np.eye(3, dtype=complex))
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


def test_report_json_serializable(rng):
    h = _random_hermitian(rng, 2)
    cfg = GrandCanonicalConfig(h_t0=h, h_t1=_random_hermitian(rng, 2), beta=1.0, mu=0.1)
    report = generate(cfg, haar_unitary(4, rng))
    text = json.dumps(report.to_json_dict())
    data = json.loads(text)
    assert data["family_kind"] == "grand_canonical"
    assert abs(data["jarzynski_lhs"] - 1.0) < 1e-12
    assert len(data["q"]) == report.model.shape[1]
    assert {"w", "prob"} <= set(data["work_histogram"][0])


def test_family_sweep_invariants():
    """A seeded sweep across all four families: identity, bounds, structure."""
    rng = np.random.default_rng(7)
    for trial in range(6):
        h0 = _random_hermitian(rng, 2)
        h1 = _random_hermitian(rng, 2)
        reports = [
            local_canonical_model(
                LocalCanonicalConfig(h_t0=(h0,), h_t1=(h1,), betas=(float(rng.uniform(0.3, 1.5)),)),
                haar_unitary(2, rng)),
            microcanonical_model(
                MicrocanonicalConfig(h_t0=_random_hermitian(rng, 3), h_t1=_random_hermitian(rng, 3),
                                     energy=float(rng.uniform(-1, 1)), width=float(rng.uniform(0.5, 1.5))),
                haar_unitary(3, rng)),
            grand_canonical_model(
                GrandCanonicalConfig(h_t0=_random_hermitian(rng, 2), h_t1=_random_hermitian(rng, 2),
                                     beta=float(rng.uniform(0.3, 1.5)), mu=float(rng.uniform(-0.5, 0.5))),
                haar_unitary(4, rng)),
            periodic_thermo_model(
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
