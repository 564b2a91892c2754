"""Statistical model of two sequential measurements.

The central object is a joint probability table P(i, j) over the outcomes
of a first and a second measurement, together with positive integer cell
sizes d(i) and D(j) attached to the outcomes.  The cell sizes encode how
many "microscopic" alternatives each outcome lumps together; the plain
(unweighted) setting is recovered with d = D = 1.

Everything in this module is elementary probability on top of that table:

* marginals p(i), p-hat(j) and the conditional pi(j|i),
* the modified doubly stochastic condition  sum_i pi(j|i) d(i) = D(j),
* the expectation identity  < d(i) q(j) / (D(j) p(i)) > = 1  which holds
  for every admissible hypothetical distribution q exactly when the
  conditional is modified doubly stochastic,
* cell-weighted Shannon entropies  S(p) = -sum_i p(i) ln(p(i)/d(i))  and
  the second-law-like gap S(p-hat) - S(p) >= 0,
* the reciprocal (reverse-experiment) table  P~(j, i) = pi(j|i) d(i) q(j) / D(j)
  and the per-level fluctuation ratio bookkeeping built from it.

Numerical conventions: probabilities are float64, entropies use the
natural logarithm unless an explicit base is requested, and 0 ln 0 = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Absolute slack accepted when checking that probabilities sum to one.
NORMALIZATION_TOL = 1e-12
# Default tolerance for the modified doubly stochastic test.
MOD_DS_TOL = 1e-10
# Slack of the unit and zero entries of a permutation-type conditional.
PERMUTATION_TOL = 1e-10
# Default absolute tolerance when grouping fluctuation-ratio levels.
LEVEL_GROUPING_TOL = 1e-9


class ValidationError(ValueError):
    """Malformed input data (negative probability, bad normalization, ...)."""


class PreconditionError(ValueError):
    """Structurally valid input that violates a documented precondition."""


def require_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValidationError(f"{name} = {value} must be positive and finite")


def require_count(name: str, value: int) -> None:
    if not isinstance(value, (int, np.integer)) or value < 0:
        raise ValidationError(f"{name} = {value!r} must be a nonnegative integer")


def _as_float_array(x, name: str, ndim: int) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.ndim != ndim:
        raise ValidationError(f"{name} must be {ndim}-dimensional, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        idx = np.argwhere(~np.isfinite(a))[0]
        raise ValidationError(f"{name}[{', '.join(map(str, idx))}] is not finite")
    return a


def _as_cell_sizes(x, name: str, n: int) -> np.ndarray:
    a = np.asarray(x)
    if a.shape != (n,):
        raise ValidationError(f"{name} must have shape ({n},), got {a.shape}")
    if not np.issubdtype(a.dtype, np.integer):
        rounded = np.rint(np.asarray(a, dtype=float))
        if np.max(np.abs(np.asarray(a, dtype=float) - rounded)) > 1e-9:
            k = int(np.argmax(np.abs(np.asarray(a, dtype=float) - rounded)))
            raise ValidationError(f"{name}[{k}] = {a[k]} is not an integer")
        a = rounded.astype(np.int64)
    a = a.astype(np.int64)
    if np.any(a < 1):
        k = int(np.argmin(a))
        raise ValidationError(f"{name}[{k}] = {a[k]} must be a positive integer")
    return a


def check_probability_vector(q, *, name: str = "q", tol: float = NORMALIZATION_TOL) -> np.ndarray:
    """Validate a 1-d probability vector (entries >= 0, sums to one)."""
    a = _as_float_array(q, name, 1)
    if np.any(a < -tol):
        k = int(np.argmin(a))
        raise ValidationError(f"{name}[{k}] = {a[k]} is negative")
    s = float(a.sum())
    if abs(s - 1.0) > max(tol, 1e-9 * a.size):
        raise ValidationError(f"{name} sums to {s}, expected 1")
    return np.clip(a, 0.0, None)


@dataclass(frozen=True)
class JointModel:
    """Joint outcome table of two sequential measurements with cell sizes.

    Parameters
    ----------
    p_table : array, shape (nI, nJ)
        Joint probabilities P(i, j) >= 0.  Must sum to one, except in
        truncated mode where a recorded mass deficit is allowed.
    d, D : integer arrays, shape (nI,) and (nJ,)
        Positive cell sizes of the first and second outcomes.
    labels_i, labels_j : tuple, optional
        Opaque outcome labels; default to integer indices.
    truncated : bool
        When true the table may be sub-normalized; the missing mass is
        recorded in ``mass_deficit`` instead of raising.
    """

    p_table: np.ndarray
    d: np.ndarray
    D: np.ndarray
    labels_i: tuple = ()
    labels_j: tuple = ()
    truncated: bool = False
    mass_deficit: float = 0.0

    def __post_init__(self):
        table = _as_float_array(self.p_table, "p_table", 2)
        if np.any(table < -NORMALIZATION_TOL):
            i, j = np.argwhere(table < -NORMALIZATION_TOL)[0]
            raise ValidationError(f"p_table[{i},{j}] = {table[i, j]} is negative")
        table = np.clip(table, 0.0, None)
        nI, nJ = table.shape
        d = _as_cell_sizes(self.d, "d", nI)
        D = _as_cell_sizes(self.D, "D", nJ)
        total = float(table.sum())
        if self.truncated:
            if total > 1.0 + NORMALIZATION_TOL:
                raise ValidationError(f"truncated p_table sums to {total} > 1")
            object.__setattr__(self, "mass_deficit", max(0.0, 1.0 - total))
        else:
            if abs(total - 1.0) > max(NORMALIZATION_TOL, 1e-9):
                raise ValidationError(f"p_table sums to {total}, expected 1")
            object.__setattr__(self, "mass_deficit", 0.0)
        labels_i = tuple(self.labels_i) if self.labels_i else tuple(range(nI))
        labels_j = tuple(self.labels_j) if self.labels_j else tuple(range(nJ))
        if len(labels_i) != nI:
            raise ValidationError(f"labels_i has {len(labels_i)} entries, expected {nI}")
        if len(labels_j) != nJ:
            raise ValidationError(f"labels_j has {len(labels_j)} entries, expected {nJ}")
        table.setflags(write=False)
        d.setflags(write=False)
        D.setflags(write=False)
        object.__setattr__(self, "p_table", table)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "labels_i", labels_i)
        object.__setattr__(self, "labels_j", labels_j)

    @property
    def shape(self) -> tuple[int, int]:
        return self.p_table.shape

    def to_json_dict(self) -> dict:
        out = {
            "p_table": [[float(x) for x in row] for row in self.p_table],
            "d": [int(x) for x in self.d],
            "D": [int(x) for x in self.D],
            "labels_i": [_label_to_json(l) for l in self.labels_i],
            "labels_j": [_label_to_json(l) for l in self.labels_j],
        }
        if self.truncated:
            out["truncated"] = True
            out["mass_deficit"] = float(self.mass_deficit)
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "JointModel":
        return cls(
            p_table=np.asarray(data["p_table"], dtype=float),
            d=np.asarray(data["d"]),
            D=np.asarray(data["D"]),
            labels_i=tuple(_label_from_json(l) for l in data.get("labels_i", ())),
            labels_j=tuple(_label_from_json(l) for l in data.get("labels_j", ())),
            truncated=bool(data.get("truncated", False)),
        )


def _label_to_json(label):
    if isinstance(label, tuple):
        return list(label)
    return label


def _label_from_json(label):
    if isinstance(label, list):
        return tuple(label)
    return label


def marginals(model: JointModel) -> tuple[np.ndarray, np.ndarray]:
    """Return the first and second marginals (p, p-hat) of the table."""
    return model.p_table.sum(axis=1), model.p_table.sum(axis=0)


def conditional(model: JointModel) -> np.ndarray:
    """Conditional matrix pi(j|i) = P(i, j) / p(i).

    Raises
    ------
    PreconditionError
        If some first outcome has zero probability: the conditional on it
        is undefined.
    """
    p, _ = marginals(model)
    if np.any(p <= 0.0):
        k = int(np.argmin(p))
        raise PreconditionError(f"first outcome {k} has probability {p[k]}; the conditional "
                                f"on a zero-probability first outcome is undefined")
    return model.p_table / p[:, None]


class ModDSResult(NamedTuple):
    ok: bool
    max_deviation: float


def is_modified_doubly_stochastic(
    pi: np.ndarray,
    d: np.ndarray,
    D: np.ndarray,
    tol: float = MOD_DS_TOL,
) -> ModDSResult:
    """Check  sum_i pi(j|i) d(i) = D(j)  for every j.

    Returns the boolean verdict together with the worst absolute deviation.
    With d = D = 1 this is the plain doubly stochastic condition on the
    columns (rows sum to one by construction of a conditional).
    """
    pi = _as_float_array(pi, "pi", 2)
    d = np.asarray(d, dtype=float)
    D = np.asarray(D, dtype=float)
    col = pi.T @ d
    dev = float(np.max(np.abs(col - D))) if col.size else 0.0
    return ModDSResult(dev <= tol, dev)


def j_ratio(model: JointModel, q: np.ndarray) -> np.ndarray:
    """Ratio table  y(i, j) = d(i) q(j) / (D(j) p(i))  of the J-equation  < y > = 1.

    ``q`` is a float vector over the second outcomes (a wrong length is a
    ValidationError; other checks are the caller's).  Rows with p(i) = 0
    hold no mass and their non-finite entries are masked out by the
    callers.
    """
    if q.shape != (model.shape[1],):
        raise ValidationError(f"q has shape {q.shape}, expected ({model.shape[1]},)")
    p, _ = marginals(model)
    return (model.d[:, None] / p[:, None]) * (q[None, :] / model.D[None, :])


def j_equation_lhs(model: JointModel, q) -> float:
    """Expectation  < d(i) q(j) / (D(j) p(i)) >  under the joint table.

    This equals one for every admissible hypothetical distribution q if
    and only if the conditional is modified doubly stochastic.  Zero-
    probability cells of the table contribute nothing (0 * anything = 0).
    """
    weights = j_ratio(model, check_probability_vector(q, name="q"))
    ratio = np.zeros_like(model.p_table)
    mask = model.p_table > 0.0
    ratio[mask] = model.p_table[mask] * weights[mask]
    return float(ratio.sum())


def shannon_entropy(p, d=None, base: float | None = None, *, check_normalized: bool = True) -> float:
    """Cell-weighted Shannon entropy  -sum_i p(i) ln(p(i) / d(i)).

    ``d = None`` means unit cells (ordinary Shannon entropy).  Natural
    logarithm by default; pass ``base`` for display in another base.
    ``check_normalized=False`` admits sub-normalized vectors (truncated
    distributions); the entropy of the captured mass is returned as is.
    """
    a = _as_float_array(p, "p", 1)
    if np.any(a < -NORMALIZATION_TOL):
        k = int(np.argmin(a))
        raise ValidationError(f"p[{k}] = {a[k]} is negative")
    mask = a > 0.0
    x = a[mask]
    if check_normalized and abs(x.sum() - 1.0) > max(NORMALIZATION_TOL, 1e-9):
        raise ValidationError(f"p sums to {x.sum()}, expected 1 (pass check_normalized=False for truncated data)")
    if d is None:
        terms = np.log(x)
    else:
        dd = np.asarray(d, dtype=float)
        if dd.shape != a.shape:
            raise ValidationError(f"d has shape {dd.shape}, expected {a.shape}")
        if np.any(dd <= 0):
            raise ValidationError("cell sizes must be positive")
        terms = np.log(x / dd[mask])
    terms *= x
    s = -float(np.sum(terms))
    if base is not None:
        s /= np.log(base)
    return s


def entropy_gap(model: JointModel) -> float:
    """Entropy production  S(p-hat) - S(p)  of the two-measurement model.

    Both entropies are cell-weighted.  The gap is guaranteed nonnegative
    only under the modified doubly stochastic condition, so that condition
    is enforced here within ``MOD_DS_TOL`` (PreconditionError otherwise).
    """
    p, p_hat = marginals(model)
    pi = conditional(model)
    ok, dev = is_modified_doubly_stochastic(pi, model.d, model.D)
    if not ok:
        raise PreconditionError(
            f"conditional is not modified doubly stochastic (deviation {dev:.3e} > {MOD_DS_TOL:g})"
        )
    return shannon_entropy(p_hat, model.D) - shannon_entropy(p, model.d)


def is_permutation_type(pi: np.ndarray) -> bool:
    """True when the square conditional has exactly one unit entry per row and column
    (within ``PERMUTATION_TOL``)."""
    pi = _as_float_array(pi, "pi", 2)
    n, m = pi.shape
    if n != m:
        return False
    big = pi > 0.5
    if not (np.all(big.sum(axis=0) == 1) and np.all(big.sum(axis=1) == 1)):
        return False
    near_one = np.abs(pi[big] - 1.0) <= PERMUTATION_TOL
    near_zero = np.abs(pi[~big]) <= PERMUTATION_TOL
    return bool(np.all(near_one) and np.all(near_zero))


def reciprocal_model(model: JointModel, q) -> JointModel:
    """Reverse-experiment table  P~(j, i) = pi(j|i) d(i) q(j) / D(j).

    The reciprocal model swaps the roles of the measurements: its first
    marginal is q, its cell sizes are (D, d), and its conditional is
    again modified doubly stochastic with respect to them.  The original
    conditional must itself be modified doubly stochastic, otherwise the
    reverse table would not normalize.

    Raises
    ------
    PreconditionError
        If q has a zero entry (the reverse experiment needs every second
        outcome to actually occur), some p(i) vanishes, or the forward
        conditional is not modified doubly stochastic.
    """
    q = check_probability_vector(q, name="q")
    if q.shape[0] != model.shape[1]:
        raise ValidationError(f"q has {q.shape[0]} entries, expected {model.shape[1]}")
    if np.any(q <= 0.0):
        k = int(np.argmin(q))
        raise PreconditionError(f"q[{k}] = {q[k]} must be strictly positive")
    pi = conditional(model)
    ok, dev = is_modified_doubly_stochastic(pi, model.d, model.D)
    if not ok:
        raise PreconditionError(
            f"conditional is not modified doubly stochastic (deviation {dev:.3e}); "
            "the reverse table would not normalize"
        )
    table = (pi * model.d[:, None] * q[None, :] / model.D[None, :]).T
    return JointModel(
        p_table=table,
        d=model.D.copy(),
        D=model.d.copy(),
        labels_i=model.labels_j,
        labels_j=model.labels_i,
    )


@dataclass(frozen=True)
class WorkDistribution:
    """Discrete distribution over grouped level values.

    Levels are obtained by clustering raw per-outcome values whose gaps
    are below ``grouping_tol``; probabilities of clustered outcomes add.
    Optional reciprocal columns carry the reverse-experiment weights of
    the same level sets for fluctuation-ratio bookkeeping.
    """

    values: np.ndarray
    probs: np.ndarray
    grouping_tol: float
    reciprocal_probs: np.ndarray | None = None
    ratio_errors: np.ndarray | None = None

    def __post_init__(self):
        v = _as_float_array(self.values, "values", 1)
        p = _as_float_array(self.probs, "probs", 1)
        if v.shape != p.shape:
            raise ValidationError("values and probs must have equal length")
        if np.any(np.diff(v) <= 0):
            raise ValidationError("level values must be strictly increasing")
        if np.any(p < -NORMALIZATION_TOL):
            raise ValidationError("level probabilities must be nonnegative")
        for arr, name in ((self.reciprocal_probs, "reciprocal_probs"), (self.ratio_errors, "ratio_errors")):
            if arr is not None and np.asarray(arr).shape != v.shape:
                raise ValidationError(f"{name} must match values in length")
        v.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "probs", np.clip(p, 0.0, None))

    def mean(self) -> float:
        return float(np.sum(self.values * self.probs))

    def to_csv(self) -> str:
        """CSV text with columns w,prob,reciprocal_prob,ratio_error (17 significant digits)."""
        lines = ["w,prob,reciprocal_prob,ratio_error"]
        rp = self.reciprocal_probs
        re_ = self.ratio_errors
        for k in range(self.values.size):
            cells = [_fmt17(self.values[k]), _fmt17(self.probs[k])]
            cells.append(_fmt17(rp[k]) if rp is not None else "")
            cells.append(_fmt17(re_[k]) if re_ is not None else "")
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


def _cluster_levels(values: np.ndarray, weights: np.ndarray, tol: float, *columns: np.ndarray):
    """Sort once, cut where gaps exceed ``tol``, reduce every level with reduceat: the
    weighted mean value (plain mean if weightless), the weight sum, each extra column's sum."""
    order = np.argsort(values)
    v, w = values[order], weights[order]
    starts = np.flatnonzero(np.diff(v, prepend=-np.inf) > tol)
    sums = np.add.reduceat(w, starts)
    with np.errstate(invalid="ignore", divide="ignore"):
        means = np.where(sums > 0, np.add.reduceat(v * w, starts) / sums,
                         np.add.reduceat(v, starts) / np.diff(np.append(starts, v.size)))
    return means, sums, [np.add.reduceat(c[order], starts) for c in columns]


def group_levels(values, probs, tol: float = LEVEL_GROUPING_TOL) -> WorkDistribution:
    """Cluster raw (value, probability) pairs into a WorkDistribution.

    Values closer than ``tol`` land in the same level; the level value is
    the probability-weighted mean of its members.
    """
    v = _as_float_array(values, "values", 1)
    p = _as_float_array(probs, "probs", 1)
    if v.shape != p.shape:
        raise ValidationError("values and probs must have equal length")
    lv, lp, _ = _cluster_levels(v, p, tol)
    return WorkDistribution(values=lv, probs=lp, grouping_tol=tol)


@dataclass(frozen=True)
class CrooksReport:
    """Per-level fluctuation-ratio comparison between a model and its reciprocal.

    For each level y of the ratio  Y(i, j) = d(i) q(j) / (D(j) p(i))  the
    table probability P(Y = y) and the reciprocal probability of the
    mirrored level 1/y satisfy  P(Y = y) * y = P~(Y~ = 1/y)  exactly;
    ``ratio_errors`` records the numerical residual of that identity.
    ``j_equation_value`` is sum_y P(Y = y) * y, the expectation identity
    recovered from the grouped levels.
    """

    distribution: WorkDistribution
    j_equation_value: float

    def to_csv(self) -> str:
        return self.distribution.to_csv()


def crooks_check(model: JointModel, q, grouping_tol: float = LEVEL_GROUPING_TOL) -> CrooksReport:
    """Group the ratio levels of a model and verify the per-level identity."""
    q = check_probability_vector(q, name="q")
    if np.any(q <= 0.0):
        raise PreconditionError("q must be strictly positive for the reciprocal comparison")
    p, _ = marginals(model)
    if np.any(p <= 0.0):
        k = int(np.argmin(p))
        raise PreconditionError(f"first outcome {k} has probability {p[k]}; the ratio "
                                f"d q / (D p) is undefined on a zero-probability first outcome")
    recip = reciprocal_model(model, q)
    y = j_ratio(model, q)
    mask = model.p_table > 0.0
    # reciprocal table transposed back to (i, j) indexing for the same pairs
    rs = recip.p_table.T[mask]
    lv, lp, (lr,) = _cluster_levels(y[mask], model.p_table[mask], grouping_tol, rs)
    dist = WorkDistribution(values=lv, probs=lp, grouping_tol=grouping_tol,
                            reciprocal_probs=lr, ratio_errors=np.abs(lp * lv - lr))
    return CrooksReport(distribution=dist, j_equation_value=float(np.sum(lv * lp)))
