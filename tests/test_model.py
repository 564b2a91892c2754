"""Unit and property tests for the joint-table statistical core."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqmeas.model import (
    JointModel,
    PreconditionError,
    ValidationError,
    WorkDistribution,
    conditional,
    crooks_check,
    entropy_gap,
    group_levels,
    is_modified_doubly_stochastic,
    is_permutation_type,
    j_equation_lhs,
    j_ratio,
    marginals,
    reciprocal_model,
    shannon_entropy,
)

from conftest import (
    random_mod_ds_conditional,
    random_mod_ds_model,
    random_positive_prob,
)


# ---------------------------------------------------------------- JointModel


def test_joint_model_basic_construction():
    m = JointModel(p_table=[[0.25, 0.25], [0.25, 0.25]], d=[1, 1], D=[1, 1])
    assert m.shape == (2, 2)
    assert m.mass_deficit == 0.0
    assert m.labels_i == (0, 1)
    p, p_hat = marginals(m)
    np.testing.assert_allclose(p, [0.5, 0.5])
    np.testing.assert_allclose(p_hat, [0.5, 0.5])


def test_joint_model_rejects_negative_entry():
    with pytest.raises(ValidationError, match="negative"):
        JointModel(p_table=[[0.6, -0.1], [0.25, 0.25]], d=[1, 1], D=[1, 1])


def test_joint_model_rejects_bad_normalization():
    with pytest.raises(ValidationError, match="sums to"):
        JointModel(p_table=[[0.3, 0.3], [0.3, 0.3]], d=[1, 1], D=[1, 1])


def test_joint_model_truncated_records_deficit():
    m = JointModel(p_table=[[0.4, 0.3], [0.2, 0.05]], d=[1, 1], D=[1, 1], truncated=True)
    assert m.mass_deficit == pytest.approx(0.05, abs=1e-15)
    with pytest.raises(ValidationError, match="> 1"):
        JointModel(p_table=[[0.8, 0.8]], d=[1], D=[1, 1], truncated=True)


def test_joint_model_rejects_bad_cells():
    good = [[0.5, 0.5]]
    with pytest.raises(ValidationError, match="positive integer"):
        JointModel(p_table=good, d=[0], D=[1, 1])
    with pytest.raises(ValidationError, match="not an integer"):
        JointModel(p_table=good, d=[1.5], D=[1, 1])
    # integer-valued floats are accepted and normalized to int
    m = JointModel(p_table=good, d=[2.0], D=[1, 1])
    assert m.d.dtype == np.int64 and m.d[0] == 2


def test_joint_model_label_length_mismatch():
    with pytest.raises(ValidationError, match="labels_i"):
        JointModel(p_table=[[0.5, 0.5]], d=[1], D=[1, 1], labels_i=("a", "b"))


def test_joint_model_tables_are_frozen():
    m = JointModel(p_table=[[0.5, 0.5]], d=[1], D=[1, 1])
    with pytest.raises(ValueError):
        m.p_table[0, 0] = 0.9


def test_json_round_trip(rng):
    m = random_mod_ds_model(rng, 3, 4)
    text = m.to_json()
    back = JointModel.from_json(text)
    np.testing.assert_array_equal(back.p_table, m.p_table)
    np.testing.assert_array_equal(back.d, m.d)
    np.testing.assert_array_equal(back.D, m.D)
    assert back.labels_i == m.labels_i
    assert back.truncated == m.truncated
    # 17 significant digits means the round trip is bitwise exact
    assert json.loads(text)["p_table"][0][0] == m.p_table[0, 0]


# ------------------------------------------------- conditionals and pruning


def test_conditional_rows_sum_to_one(rng):
    m = random_mod_ds_model(rng, 4, 3)
    pi = conditional(m)
    np.testing.assert_allclose(pi.sum(axis=1), 1.0, atol=1e-13)


def test_conditional_requires_positive_rows():
    m = JointModel(p_table=[[0.0, 0.0], [0.5, 0.5]], d=[1, 1], D=[1, 1])
    with pytest.raises(PreconditionError, match="zero-probability first outcome"):
        conditional(m)


# --------------------------------------------- modified double stochasticity


def test_mod_ds_plain_case():
    pi = np.array([[0.3, 0.7], [0.7, 0.3]])
    ok, dev = is_modified_doubly_stochastic(pi, [1, 1], [1, 1])
    assert ok and dev < 1e-15


def test_mod_ds_weighted_case():
    # two fine outcomes merged into one second cell: column mass 2 = D
    pi = np.array([[1.0], [1.0]])
    ok, dev = is_modified_doubly_stochastic(pi, [1, 1], [2])
    assert ok and dev == 0.0
    ok_bad, _ = is_modified_doubly_stochastic(pi, [1, 1], [1])
    assert not ok_bad


@given(seed=st.integers(0, 10_000), n_i=st.integers(1, 5), n_j=st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_random_builder_is_mod_ds(seed, n_i, n_j):
    rng = np.random.default_rng(seed)
    pi, d, D = random_mod_ds_conditional(rng, n_i, n_j)
    ok, dev = is_modified_doubly_stochastic(pi, d, D)
    assert ok, f"builder deviation {dev}"


# ------------------------------------------------------- expectation identity


@given(seed=st.integers(0, 10_000), n_i=st.integers(1, 5), n_j=st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_j_equation_holds_for_mod_ds(seed, n_i, n_j):
    """The ratio expectation equals one for every hypothetical q."""
    rng = np.random.default_rng(seed)
    m = random_mod_ds_model(rng, n_i, n_j)
    for _ in range(3):
        q = random_positive_prob(rng, m.shape[1])
        assert abs(j_equation_lhs(m, q) - 1.0) < 1e-12


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_j_equation_detects_violation(seed):
    """If the weighted column condition fails, some q exposes it.

    With q concentrated on column j the expectation equals
    (sum_i pi(j|i) d(i)) / D(j), so the worst column gives a deviation
    at least as large as the column residual over the cell size.
    """
    rng = np.random.default_rng(seed)
    pi, d, D = random_mod_ds_conditional(rng, 3, 3)
    bump = np.zeros_like(pi)
    bump[0] = rng.uniform(0.05, 0.2, size=pi.shape[1])
    pert = pi + bump
    pert /= pert.sum(axis=1, keepdims=True)
    p = random_positive_prob(rng, pi.shape[0])
    m = JointModel(p_table=p[:, None] * pert, d=d, D=D)
    ok, dev = is_modified_doubly_stochastic(pert, d, D)
    if not ok:
        col = pert.T @ d
        j = int(np.argmax(np.abs(col - D)))
        q = np.zeros(pi.shape[1])
        q[j] = 1.0
        assert abs(j_equation_lhs(m, q) - 1.0) >= dev / D.max() - 1e-12


def test_j_equation_validates_q(rng):
    m = random_mod_ds_model(rng, 2, 3)
    with pytest.raises(ValidationError):
        j_equation_lhs(m, [0.5, 0.5])  # wrong length
    with pytest.raises(ValidationError):
        j_equation_lhs(m, [0.5, 0.4, 0.2])  # not normalized


def test_j_ratio_is_the_integrand_of_the_j_equation(rng):
    """y(i, j) = d(i) q(j) / (D(j) p(i)); the identity and the Crooks levels average it."""
    m = random_mod_ds_model(rng, 3, 4)
    n_i, n_j = m.shape
    q = random_positive_prob(rng, n_j)
    p, _ = marginals(m)
    y = j_ratio(m, q)
    assert y.shape == (n_i, n_j)
    for i in range(n_i):
        for j in range(n_j):
            assert y[i, j] == pytest.approx(m.d[i] * q[j] / (m.D[j] * p[i]), rel=1e-15)
    mean = float(np.sum(m.p_table * y))
    assert j_equation_lhs(m, q) == pytest.approx(mean, rel=1e-14)
    assert crooks_check(m, q).j_equation_value == pytest.approx(mean, rel=1e-12)
    with pytest.raises(ValidationError, match="q has shape"):
        j_ratio(m, q[:-1])


# ---------------------------------------------------------------- entropies


def test_shannon_entropy_uniform_is_log_n():
    for n in (1, 2, 5, 17):
        s = shannon_entropy(np.full(n, 1.0 / n))
        assert s == pytest.approx(math.log(n), abs=1e-14)


def test_shannon_entropy_with_cells():
    # p uniform over two cells of size two: -2 * (1/2) ln((1/2)/2) = ln 4
    s = shannon_entropy([0.5, 0.5], d=[2, 2])
    assert s == pytest.approx(math.log(4.0), abs=1e-14)


def test_shannon_entropy_base_option():
    s = shannon_entropy([0.25, 0.25, 0.25, 0.25], base=2.0)
    assert s == pytest.approx(2.0, abs=1e-14)


def test_shannon_entropy_subnormalized():
    with pytest.raises(ValidationError, match="sums to"):
        shannon_entropy([0.2, 0.2])
    s = shannon_entropy([0.2, 0.2], check_normalized=False)
    assert s == pytest.approx(-2 * 0.2 * math.log(0.2), abs=1e-14)


def test_shannon_entropy_rejects_negative():
    with pytest.raises(ValidationError, match="negative"):
        shannon_entropy([1.1, -0.1])


def test_entropy_gap_known_value():
    """Uniform 2x2 mixing flattens (0.9, 0.1) to (1/2, 1/2)."""
    p = np.array([0.9, 0.1])
    pi = np.full((2, 2), 0.5)
    m = JointModel(p_table=p[:, None] * pi, d=[1, 1], D=[1, 1])
    expected = math.log(2.0) - (-0.9 * math.log(0.9) - 0.1 * math.log(0.1))
    assert entropy_gap(m) == pytest.approx(expected, abs=1e-14)


@given(seed=st.integers(0, 10_000), n_i=st.integers(1, 5), n_j=st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_entropy_gap_nonnegative(seed, n_i, n_j):
    rng = np.random.default_rng(seed)
    m = random_mod_ds_model(rng, n_i, n_j)
    assert entropy_gap(m) >= -1e-12


def test_entropy_gap_requires_mod_ds():
    p = np.array([0.7, 0.3])
    pi = np.array([[0.9, 0.1], [0.9, 0.1]])  # columns do not balance
    m = JointModel(p_table=p[:, None] * pi, d=[1, 1], D=[1, 1])
    with pytest.raises(PreconditionError, match="modified doubly stochastic"):
        entropy_gap(m)


def test_entropy_gap_zero_for_permutation(rng):
    """Relabeling outcomes moves no entropy, including with matched cells."""
    p = random_positive_prob(rng, 4)
    perm = np.eye(4)[[2, 0, 3, 1]]
    m = JointModel(p_table=p[:, None] * perm, d=[1, 1, 1, 1], D=[1, 1, 1, 1])
    assert abs(entropy_gap(m)) < 1e-14
    # weighted permutation type: cell i maps onto a cell of equal size
    d = np.array([2, 3, 1])
    m2 = JointModel(p_table=np.diag(p[:3] / p[:3].sum()), d=d, D=d)
    assert abs(entropy_gap(m2)) < 1e-14


def test_is_permutation_type():
    assert is_permutation_type(np.eye(3))
    assert is_permutation_type(np.eye(3)[[1, 2, 0]])
    assert not is_permutation_type(np.full((2, 2), 0.5))
    assert not is_permutation_type(np.ones((2, 3)) / 3)  # not square
    noisy = np.eye(2) + np.array([[1e-12, -1e-12], [0.0, 0.0]])
    assert is_permutation_type(noisy)
    assert not is_permutation_type(np.eye(2) + np.array([[1e-6, 0.0], [0.0, 0.0]]))


# ---------------------------------------------------------- reciprocal model


@given(seed=st.integers(0, 10_000), n_i=st.integers(1, 4), n_j=st.integers(1, 4))
@settings(max_examples=50, deadline=None)
def test_reciprocal_marginal_and_involution(seed, n_i, n_j):
    rng = np.random.default_rng(seed)
    m = random_mod_ds_model(rng, n_i, n_j)
    q = random_positive_prob(rng, m.shape[1])
    rec = reciprocal_model(m, q)
    assert rec.shape == (m.shape[1], m.shape[0])
    np.testing.assert_array_equal(rec.d, m.D)
    np.testing.assert_array_equal(rec.D, m.d)
    r_marg, _ = marginals(rec)
    np.testing.assert_allclose(r_marg, q, atol=1e-12)
    # applying the construction twice with the original marginal returns the model
    p, _ = marginals(m)
    back = reciprocal_model(rec, p)
    np.testing.assert_allclose(back.p_table, m.p_table, atol=1e-14)


def test_reciprocal_requires_positive_q(rng):
    m = random_mod_ds_model(rng, 2, 2)
    q = np.zeros(m.shape[1])
    q[0] = 1.0
    with pytest.raises(PreconditionError, match="strictly positive"):
        reciprocal_model(m, q)


def test_reciprocal_requires_mod_ds():
    """Without the weighted column condition the reverse table cannot normalize."""
    p = np.array([0.6, 0.4])
    pi = np.array([[0.8, 0.2], [0.5, 0.5]])
    m = JointModel(p_table=p[:, None] * pi, d=[1, 1], D=[1, 1])
    q = np.array([0.9, 0.1])
    raw = (pi * np.array([1, 1])[:, None] * q[None, :] / np.array([1, 1])[None, :]).T
    assert abs(raw.sum() - 1.0) > 1e-3  # the would-be table really is off
    with pytest.raises(PreconditionError, match="normalize"):
        reciprocal_model(m, q)


# ------------------------------------------------------------ level grouping


def test_group_levels_merges_and_orders():
    wd = group_levels([3.0, 1.0, 1.0 + 1e-12, 2.0], [0.1, 0.3, 0.4, 0.2])
    np.testing.assert_allclose(wd.values, [1.0 + (0.4 / 0.7) * 1e-12, 2.0, 3.0], rtol=1e-9)
    np.testing.assert_allclose(wd.probs, [0.7, 0.2, 0.1], atol=1e-15)
    assert wd.probs.sum() == pytest.approx(1.0, abs=1e-15)


def test_group_levels_weighted_mean():
    wd = group_levels([0.0, 1e-10], [0.25, 0.75], tol=1e-9)
    assert wd.values.size == 1
    assert wd.values[0] == pytest.approx(0.75e-10, rel=1e-12)


def _reference_levels(values, weights, tol, *columns):
    """Per-group np.average over sorted values, cut where consecutive gaps exceed tol."""
    order = np.argsort(values)
    v, w = np.asarray(values, dtype=float)[order], np.asarray(weights, dtype=float)[order]
    groups = np.split(np.arange(v.size), np.nonzero(np.diff(v) > tol)[0] + 1)
    means = [np.average(v[g], weights=w[g]) if w[g].sum() > 0 else v[g].mean() for g in groups]
    sums = [[np.asarray(c, dtype=float)[order][g].sum() for g in groups] for c in columns]
    return np.array(means), np.array([w[g].sum() for g in groups]), sums


TOL_EXACT = 2.0 ** -30  # gaps of exactly this size are exact in binary

LEVEL_CASES = {
    "singletons": ([3.0, -1.0, 0.5, 2.0, 7.25], [0.1, 0.2, 0.3, 0.15, 0.25]),
    "one_group": (1.0 + 0.4 * TOL_EXACT * np.array([3, 0, 7, 1, 5, 2, 6, 4]), np.full(8, 0.125)),
    "zero_weight_group": ([0.0, 1e-12, 2e-12, 1.0, 2.0], [0.0, 0.0, 0.0, 0.6, 0.4]),
    "gap_at_tol": (3.0 + TOL_EXACT * np.array([0, 1, 2, 4, 5]), [0.1, 0.2, 0.3, 0.25, 0.15]),
}


@pytest.mark.parametrize("case", sorted(LEVEL_CASES))
def test_group_levels_matches_per_group_average(case):
    values, probs = LEVEL_CASES[case]
    wd = group_levels(values, probs, tol=TOL_EXACT)
    means, sums, _ = _reference_levels(values, probs, TOL_EXACT)
    expected_levels = {"singletons": 5, "one_group": 1, "zero_weight_group": 3, "gap_at_tol": 2}
    assert wd.values.size == expected_levels[case]
    np.testing.assert_allclose(wd.values, means, rtol=1e-15, atol=0)
    np.testing.assert_allclose(wd.probs, sums, rtol=1e-15, atol=0)
    if case == "zero_weight_group":  # plain mean of the weightless level
        assert wd.values[0] == pytest.approx(1e-12, rel=1e-12)
        assert wd.probs[0] == 0.0


def _crooks_model(case: str, rng) -> tuple[JointModel, np.ndarray, float]:
    if case == "singletons":
        m = random_mod_ds_model(rng, 3, 4)
        return m, random_positive_prob(rng, m.shape[1]), 1e-9
    if case == "one_group":  # uniform table, uniform q: every ratio is 1
        m = JointModel(p_table=np.full((3, 3), 1.0 / 9.0), d=[1, 1, 1], D=[1, 1, 1])
        return m, np.full(3, 1.0 / 3.0), 1e-9
    if case == "zero_probability_cells":  # permutation table: zero cells carry no level
        table = np.array([[0.0, 0.5, 0.0], [0.3, 0.0, 0.0], [0.0, 0.0, 0.2]])
        return JointModel(p_table=table, d=[1, 1, 1], D=[1, 1, 1]), np.array([0.2, 0.3, 0.5]), 1e-9
    m = random_mod_ds_model(rng, 3, 3)  # gap_at_tol: the smallest gap becomes the tolerance
    q = random_positive_prob(rng, m.shape[1])
    p, _ = marginals(m)
    ys = np.sort(((m.d[:, None] / p[:, None]) * (q[None, :] / m.D[None, :]))[m.p_table > 0])
    return m, q, float(np.diff(ys).min())


@pytest.mark.parametrize("case", ["singletons", "one_group", "zero_probability_cells", "gap_at_tol"])
def test_crooks_levels_match_per_group_average(case):
    m, q, tol = _crooks_model(case, np.random.default_rng(17))
    report = crooks_check(m, q, grouping_tol=tol)
    p, _ = marginals(m)
    mask = m.p_table > 0.0
    ys = ((m.d[:, None] / p[:, None]) * (q[None, :] / m.D[None, :]))[mask]
    recip = reciprocal_model(m, q).p_table.T[mask]
    means, sums, (recip_sums,) = _reference_levels(ys, m.p_table[mask], tol, recip)
    dist = report.distribution
    n = int(mask.sum())
    assert dist.values.size == {"singletons": n, "one_group": 1, "zero_probability_cells": 3,
                                "gap_at_tol": n - 1}[case]
    np.testing.assert_allclose(dist.values, means, rtol=1e-15, atol=0)
    np.testing.assert_allclose(dist.probs, sums, rtol=1e-15, atol=0)
    np.testing.assert_allclose(dist.reciprocal_probs, recip_sums, rtol=1e-15, atol=0)
    np.testing.assert_allclose(dist.ratio_errors, np.abs(sums * means - np.array(recip_sums)),
                               rtol=0, atol=1e-16)
    assert report.j_equation_value == pytest.approx(1.0, abs=1e-12)


def test_work_distribution_validation():
    with pytest.raises(ValidationError, match="strictly increasing"):
        WorkDistribution(values=[1.0, 1.0], probs=[0.5, 0.5], grouping_tol=1e-9)
    with pytest.raises(ValidationError, match="equal length"):
        WorkDistribution(values=[1.0], probs=[0.5, 0.5], grouping_tol=1e-9)


def test_work_distribution_csv_is_17_digit_round_trip():
    vals = np.array([-1.2345678901234567, 0.1, 7.0])
    probs = np.array([0.25, 0.5, 0.25])
    wd = WorkDistribution(values=vals, probs=probs, grouping_tol=1e-9)
    text = wd.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "w,prob,reciprocal_prob,ratio_error"
    for k, line in enumerate(lines[1:]):
        w, p, rp, re_ = line.split(",")
        assert float(w) == vals[k]  # .17g preserves doubles exactly
        assert float(p) == probs[k]
        assert rp == "" and re_ == ""
    assert wd.mean() == pytest.approx(float(vals @ probs), abs=1e-15)


# ------------------------------------------------------- per-level ratio law


@given(seed=st.integers(0, 10_000), n_i=st.integers(1, 4), n_j=st.integers(1, 4))
@settings(max_examples=50, deadline=None)
def test_crooks_per_level_identity(seed, n_i, n_j):
    """P(Y = y) * y equals the reciprocal weight of the mirrored level."""
    rng = np.random.default_rng(seed)
    m = random_mod_ds_model(rng, n_i, n_j)
    q = random_positive_prob(rng, m.shape[1])
    report = crooks_check(m, q)
    assert float(np.max(report.distribution.ratio_errors)) <= 1e-12
    assert report.j_equation_value == pytest.approx(1.0, abs=1e-12)


def test_crooks_levels_mirror_reciprocal(rng):
    """The reverse experiment sees exactly the reciprocal levels."""
    m = random_mod_ds_model(rng, 3, 3)
    q = random_positive_prob(rng, m.shape[1])
    p, _ = marginals(m)
    fwd = crooks_check(m, q)
    bwd = crooks_check(reciprocal_model(m, q), p)
    np.testing.assert_allclose(
        np.sort(1.0 / fwd.distribution.values), bwd.distribution.values, rtol=1e-9
    )


def test_crooks_requires_positive_q(rng):
    m = random_mod_ds_model(rng, 2, 2)
    with pytest.raises(PreconditionError):
        crooks_check(m, np.array([1.0, 0.0]))


def test_crooks_csv_shape(rng):
    m = random_mod_ds_model(rng, 2, 3)
    q = random_positive_prob(rng, m.shape[1])
    report = crooks_check(m, q)
    lines = report.to_csv().strip().split("\n")
    assert lines[0] == "w,prob,reciprocal_prob,ratio_error"
    assert len(lines) == 1 + report.distribution.values.size
    # every data row carries all four columns
    assert all(len(line.split(",")) == 4 for line in lines[1:])
