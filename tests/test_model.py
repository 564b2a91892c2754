"""Unit and property tests for the joint-table statistical core."""

from __future__ import annotations

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqmeas import cli
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
    j_ratio,
    marginals,
    reciprocal_model,
    require_key,
    shannon_entropy,
)

from conftest import (
    j_equation_lhs,
    random_mod_ds_conditional,
    random_mod_ds_model,
    random_positive_prob,
)


# ---------------------------------------------------------------- JointModel


def test_joint_model_basic_construction():
    m = JointModel(p_table=[[0.25, 0.25], [0.25, 0.25]], d=[1, 1], D=[1, 1])
    assert m.shape == (2, 2)
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


def test_joint_model_rejects_bad_cells():
    good = [[0.5, 0.5]]
    with pytest.raises(ValidationError, match="positive integer"):
        JointModel(p_table=good, d=[0], D=[1, 1])
    with pytest.raises(ValidationError, match="not an integer"):
        JointModel(p_table=good, d=[1.5], D=[1, 1])
    # integer-valued floats are accepted and normalized to int
    m = JointModel(p_table=good, d=[2.0], D=[1, 1])
    assert m.d.dtype == np.int64 and m.d[0] == 2


@pytest.mark.parametrize("field, cells", [("d", {"d": [[1], [1, 2]], "D": [1]}),
                                          ("D", {"d": [1, 1], "D": [[1], [1, 2]]})])
def test_ragged_cell_sizes_are_named(field, cells):
    with pytest.raises(ValidationError, match=f"^{field}: .*inhomogeneous"):
        JointModel.from_json_dict({"p_table": [[0.5], [0.5]], **cells})


def test_joint_model_label_length_mismatch():
    with pytest.raises(ValidationError, match="labels_i"):
        JointModel(p_table=[[0.5, 0.5]], d=[1], D=[1, 1], labels_i=("a", "b"))


def test_joint_model_tables_are_frozen():
    m = JointModel(p_table=[[0.5, 0.5]], d=[1], D=[1, 1])
    with pytest.raises(ValueError):
        m.p_table[0, 0] = 0.9


def test_json_round_trip(rng):
    m = random_mod_ds_model(rng, 3, 4)
    text = json.dumps(m.to_json_dict())
    back = JointModel.from_json_dict(json.loads(text))
    np.testing.assert_array_equal(back.p_table, m.p_table)
    np.testing.assert_array_equal(back.d, m.d)
    np.testing.assert_array_equal(back.D, m.D)
    assert back.labels_i == m.labels_i
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


def test_j_equation_on_a_zero_row_is_right_and_warns_nothing():
    """A zero-probability row holds no mass: its non-finite ratios are masked without a warning."""
    m = JointModel(p_table=[[0.0, 0.0], [0.5, 0.5]], d=[1, 1], D=[1, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert j_equation_lhs(m, [0.5, 0.5]) == 0.5
        assert j_equation_lhs(m, [1.0, 0.0]) == 0.5  # inf * 0 on the zero row


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


def test_shannon_entropy_subnormalized():
    with pytest.raises(ValidationError, match="sums to"):
        shannon_entropy([0.2, 0.2])
    s = shannon_entropy([0.2, 0.2], check_normalized=False)
    assert s == pytest.approx(-2 * 0.2 * math.log(0.2), abs=1e-14)


@pytest.mark.parametrize("with_cells", [False, True])
def test_shannon_entropy_is_bit_identical_to_the_masked_formula(with_cells):
    """-sum(a[m] * log(a[m] / d[m])) over a > 0, to the last bit, zeros included."""
    rng = np.random.default_rng(29)
    for size in (1, 7, 130, 5000):
        a = rng.random(size) * (rng.random(size) < 0.7)
        d = rng.uniform(0.5, 3.0, size) if with_cells else np.ones(size)
        m = a > 0.0
        want = -float(np.sum(a[m] * np.log(a[m] / d[m])))
        got = shannon_entropy(a, d=d if with_cells else None, check_normalized=False)
        assert got == want


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
    wd = group_levels([0.0, 1e-10], [0.25, 0.75])
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
def test_group_levels_matches_per_group_average(case, monkeypatch):
    monkeypatch.setattr("seqmeas.model.LEVEL_GROUPING_TOL", TOL_EXACT)
    values, probs = LEVEL_CASES[case]
    wd = group_levels(values, probs)
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
def test_crooks_levels_match_per_group_average(case, monkeypatch):
    m, q, tol = _crooks_model(case, np.random.default_rng(17))
    monkeypatch.setattr("seqmeas.model.LEVEL_GROUPING_TOL", tol)
    report = crooks_check(m, q)
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
        WorkDistribution(values=[1.0, 1.0], probs=[0.5, 0.5])
    with pytest.raises(ValidationError, match="equal length"):
        WorkDistribution(values=[1.0], probs=[0.5, 0.5])


UNIFORM = JointModel(p_table=[[0.25, 0.25], [0.25, 0.25]], d=[1, 1], D=[1, 1])


@pytest.mark.parametrize("build, message", [
    (lambda: JointModel(p_table=[0.5, 0.5], d=[1], D=[1, 1]), r"^p_table must be 2-dimensional, got shape \(2,\)$"),
    (lambda: JointModel(p_table=[[0.5, math.nan]], d=[1], D=[1, 1]), r"^p_table\[0, 1\] is not finite$"),
    (lambda: JointModel(p_table=[[0.5, 0.5]], d=[1, 1], D=[1, 1]), r"^d must have shape \(1,\), got \(2,\)$"),
    (lambda: JointModel(p_table=[[0.5, 0.5]], d=[1], D=[1, 1], labels_j=("a",)),
     "^labels_j has 1 entries, expected 2$"),
    (lambda: crooks_check(UNIFORM, [1.5, -0.5]), r"^q\[1\] = -0.5 is negative$"),
    (lambda: shannon_entropy([0.5, 0.5], d=[1, 1, 1]), r"^d has shape \(3,\), expected \(2,\)$"),
    (lambda: shannon_entropy([0.5, 0.5], d=[1, 0]), "^cell sizes must be positive$"),
    (lambda: reciprocal_model(UNIFORM, [0.2, 0.3, 0.5]), "^q has 3 entries, expected 2$"),
    (lambda: WorkDistribution(values=[0.0, 1.0], probs=[1.5, -0.5]),
     "^level probabilities must be nonnegative$"),
    (lambda: WorkDistribution(values=[0.0, 1.0], probs=[0.5, 0.5], reciprocal_probs=[1.0]),
     "^reciprocal_probs must match values in length$"),
    (lambda: group_levels([0.0, 1.0], [1.0]), "^values and probs must have equal length$"),
], ids=["table-ndim", "table-nan", "cell-shape", "labels-j", "q-negative", "entropy-cell-shape",
        "entropy-zero-cell", "reciprocal-q-length", "level-negative", "reciprocal-column", "levels-length"])
def test_malformed_inputs_raise_validation_errors_naming_the_cause(build, message):
    with pytest.raises(ValidationError, match=message):
        build()


def test_a_stack_of_distributions_must_be_rectangular():
    """A row with another level count or positive-entry count than row 0 is named; the rows
    of a rectangular stack give what each gives alone, bit for bit."""
    rng = np.random.default_rng(31)
    probs = rng.dirichlet(np.ones(3), size=2)
    with pytest.raises(PreconditionError, match="^stacked model 1 differs from model 0 in its number of levels$"):
        group_levels(np.array([[0.0, 1.0, 2.0], [0.5, 0.5, 2.0]]), probs)
    with pytest.raises(PreconditionError, match="in its number of positive entries$"):
        shannon_entropy(np.array([probs[0], [0.5, 0.5, 0.0]]))
    values = rng.normal(size=(2, 3))
    stack = group_levels(values, probs)
    for b in range(2):
        alone = group_levels(values[b], probs[b])
        np.testing.assert_array_equal(stack.take(b).values, alone.values)
        np.testing.assert_array_equal(stack.take(b).probs, alone.probs)
        assert shannon_entropy(probs, d=[1, 2, 3])[b] == shannon_entropy(probs[b], d=[1, 2, 3])


def test_work_distribution_csv_is_17_digit_round_trip():
    vals = np.array([-1.2345678901234567, 0.1, 7.0])
    probs = np.array([0.25, 0.5, 0.25])
    wd = WorkDistribution(values=vals, probs=probs)
    text = cli._csv(*cli._levels(wd))
    lines = text.strip().split("\n")
    assert lines[0] == "w,prob,reciprocal_prob,ratio_error"
    for k, line in enumerate(lines[1:]):
        w, p, rp, re_ = line.split(",")
        assert float(w) == vals[k]  # .17g preserves doubles exactly
        assert float(p) == probs[k]
        assert rp == "" and re_ == ""


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
    """A zero q(j) of the model's length and a zero p(i) are both preconditions."""
    m = random_mod_ds_model(rng, 2, 2)
    q = np.zeros(m.shape[1])
    q[0] = 1.0
    with pytest.raises(PreconditionError, match="strictly positive"):
        crooks_check(m, q)
    zero_row = JointModel(p_table=[[0.0, 0.0], [0.5, 0.5]], d=[1, 1], D=[1, 1])
    with pytest.raises(PreconditionError, match="zero-probability first outcome"):
        crooks_check(zero_row, [0.5, 0.5])


def test_crooks_csv_shape(rng):
    m = random_mod_ds_model(rng, 2, 3)
    q = random_positive_prob(rng, m.shape[1])
    report = crooks_check(m, q)
    lines = cli._csv(*cli._levels(report.distribution)).strip().split("\n")
    assert lines[0] == "w,prob,reciprocal_prob,ratio_error"
    assert len(lines) == 1 + report.distribution.values.size
    # every data row carries all four columns
    assert all(len(line.split(",")) == 4 for line in lines[1:])


def test_require_key_names_a_value_that_is_not_an_object():
    assert require_key({"q": [1.0]}, "q", "crooks file") == [1.0]
    for value, kind in [(5, "int"), ([1.0], "list"), ("q", "str"), (None, "NoneType")]:
        with pytest.raises(ValidationError, match=rf"^crooks file must be a JSON object, got {kind}$"):
            require_key(value, "q", "crooks file")
