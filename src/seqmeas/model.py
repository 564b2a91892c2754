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
natural logarithm, and 0 ln 0 = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Absolute slack accepted when checking that probabilities sum to one.
NORMALIZATION_TOL = 1e-12
# Default tolerance for the modified doubly stochastic test.
MOD_DS_TOL = 1e-10
# Absolute tolerance when grouping fluctuation-ratio levels (read at call time).
LEVEL_GROUPING_TOL = 1e-9


class ValidationError(ValueError):
    """Malformed input data (negative probability, bad normalization, ...)."""


class PreconditionError(ValueError):
    """Structurally valid input that violates a documented precondition."""


def require_each(ok, error: type, message) -> None:
    """Raise ``error(message(b))`` at the first model ``b`` of a stack where ``ok`` is False;
    ``b`` is the index tuple into ``ok``'s shape, () for one model."""
    if not ok.all():  # a numpy bool or bool array
        raise error(message(np.unravel_index(int(np.argmin(ok)), np.shape(ok))))


def validated(cls, **fields):
    """An instance of the frozen dataclass ``cls`` built without its checks, from fields
    that passed them already (one model of a validated stack)."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def require_alike(rows: np.ndarray, what: str) -> np.ndarray:
    """``rows[0]``, where every row (model) of a stack must equal it: a stack is rectangular."""
    same = np.all(rows == rows[0], axis=tuple(range(1, rows.ndim)))
    require_each(same, PreconditionError, lambda b: f"stacked model {b[0]} differs from model 0 in its {what}")
    return rows[0]


def require_finite(name: str, value) -> None:
    value = np.asarray(value)
    require_each(np.isfinite(value), ValidationError, lambda b: f"{name} = {value[b]} must be finite")


def require_positive(name: str, value) -> None:
    value = np.asarray(value)
    require_each(np.isfinite(value) & (value > 0), ValidationError,
                 lambda b: f"{name} = {value[b]} must be positive and finite")


def require_count(name: str, value: int, positive: bool = False) -> None:
    """Reject anything but an integer >= 0 (>= 1 if ``positive``); a bool is not a count."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < int(positive):
        kind = "positive" if positive else "nonnegative"
        raise ValidationError(f"{name} = {value!r} must be a {kind} integer")


def require_key(data: dict, key: str, where: str):
    """``data[key]``, or a ValidationError naming the key that ``where`` is missing, or ``where``
    if it is not a JSON object."""
    if not isinstance(data, dict):
        raise ValidationError(f"{where} must be a JSON object, got {type(data).__name__}")
    if key not in data:
        raise ValidationError(f"{where} is missing field {key!r}")
    return data[key]


def _as_float_array(x, name: str, ndim: int) -> np.ndarray:
    """``x`` as a finite float array of ``ndim`` dimensions; an ndarray may add a leading model axis."""
    try:
        a = np.asarray(x, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:  # a non-numeric, ragged or huge entry
        raise ValidationError(f"{name}: {exc}") from exc
    if a.ndim != ndim and not (isinstance(x, np.ndarray) and a.ndim == ndim + 1):
        raise ValidationError(f"{name} must be {ndim}-dimensional, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        idx = np.argwhere(~np.isfinite(a))[0]
        raise ValidationError(f"{name}[{', '.join(map(str, idx))}] is not finite")
    return a


def _as_cell_sizes(x, name: str, n: int) -> np.ndarray:
    a = x if isinstance(x, np.ndarray) and x.dtype.kind in "iu" else _as_float_array(x, name, 1)
    if a.shape != (n,):
        raise ValidationError(f"{name} must have shape ({n},), got {a.shape}")
    if a.dtype.kind == "f":
        f, a = a, np.rint(a)
        if np.any(np.abs(f - a) > 1e-9):
            k = int(np.argmax(np.abs(f - a)))
            raise ValidationError(f"{name}[{k}] = {f[k]} is not an integer")
    a = a.astype(np.int64)
    if np.any(a < 1):
        k = int(np.argmin(a))
        raise ValidationError(f"{name}[{k}] = {a[k]} must be a positive integer")
    return a


def check_probability_vector(q) -> np.ndarray:
    """Validate a 1-d probability vector q (entries >= 0, sums to one)."""
    a = _as_float_array(q, "q", 1)
    if np.any(a < -NORMALIZATION_TOL):
        k = int(np.argmin(a))
        raise ValidationError(f"q[{k}] = {a[k]} is negative")
    s = float(a.sum())
    if abs(s - 1.0) > max(NORMALIZATION_TOL, 1e-9 * a.size):
        raise ValidationError(f"q sums to {s}, expected 1")
    return np.clip(a, 0.0, None)


@dataclass(frozen=True)
class JointModel:
    """Joint outcome table of two sequential measurements with cell sizes.

    Parameters
    ----------
    p_table : array, shape (nI, nJ)
        Joint probabilities P(i, j) >= 0 that sum to one; a table cut off
        by a finite window, with its mass deficit, is a ``wavepacket.TruncatedTable``.
        A (B, nI, nJ) ndarray is a stack of B tables with shared cell sizes
        (labels default); the functions below then work model by model.
    d, D : integer arrays, shape (nI,) and (nJ,)
        Positive cell sizes of the first and second outcomes.
    labels_i, labels_j : tuple, optional
        Opaque outcome labels; default to integer indices.
    """

    p_table: np.ndarray
    d: np.ndarray
    D: np.ndarray
    labels_i: tuple = ()
    labels_j: tuple = ()

    def __post_init__(self):
        table = _as_float_array(self.p_table, "p_table", 2)
        require_each(table >= -NORMALIZATION_TOL, ValidationError,
                     lambda b: f"p_table[{b[-2]},{b[-1]}] = {table[b]} is negative")
        table = np.clip(table, 0.0, None)
        nI, nJ = table.shape[-2:]
        d = _as_cell_sizes(self.d, "d", nI)
        D = _as_cell_sizes(self.D, "D", nJ)
        total = table.sum(axis=(-2, -1))
        require_each(np.abs(total - 1.0) <= max(NORMALIZATION_TOL, 1e-9), ValidationError,
                     lambda b: f"p_table sums to {total[b]}, expected 1")
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
        return {
            "p_table": [[float(x) for x in row] for row in self.p_table],
            "d": [int(x) for x in self.d],
            "D": [int(x) for x in self.D],
            "labels_i": list(self.labels_i),
            "labels_j": list(self.labels_j),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "JointModel":
        return cls(
            p_table=require_key(data, "p_table", "model"),
            d=require_key(data, "d", "model"),
            D=require_key(data, "D", "model"),
            labels_i=_labels_from_json(data, "labels_i"),
            labels_j=_labels_from_json(data, "labels_j"),
        )


def _labels_from_json(data: dict, key: str) -> tuple:
    """The optional label list ``data[key]``, a JSON array, with each array label as a tuple."""
    labels = data.get(key, [])
    if not isinstance(labels, list):
        raise ValidationError(f"{key} must be a JSON array, got {type(labels).__name__}")
    return tuple(tuple(label) if isinstance(label, list) else label for label in labels)


def marginals(model: JointModel) -> tuple[np.ndarray, np.ndarray]:
    """Return the first and second marginals (p, p-hat) of the table."""
    return model.p_table.sum(axis=-1), model.p_table.sum(axis=-2)


def conditional(model: JointModel) -> np.ndarray:
    """Conditional matrix pi(j|i) = P(i, j) / p(i).

    Raises
    ------
    PreconditionError
        If some first outcome has zero probability: the conditional on it
        is undefined.
    """
    p, _ = marginals(model)
    require_each(p > 0.0, PreconditionError, lambda b: f"first outcome {b[-1]} has probability {p[b]}; "
                 "the conditional on a zero-probability first outcome is undefined")
    return model.p_table / p[..., None]


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

    Returns the boolean verdict together with the worst absolute deviation
    (one of each per model for a stack of conditionals).
    With d = D = 1 this is the plain doubly stochastic condition on the
    columns (rows sum to one by construction of a conditional).
    """
    pi = _as_float_array(pi, "pi", 2)
    d = np.asarray(d, dtype=float)
    D = np.asarray(D, dtype=float)
    dev = np.abs(np.matmul(pi.swapaxes(-1, -2), d) - D).max(axis=-1, initial=0.0)
    return ModDSResult(dev <= tol, dev)


def j_ratio(model: JointModel, q: np.ndarray) -> np.ndarray:
    """Ratio table  y(i, j) = d(i) q(j) / (D(j) p(i))  of the J-equation  < y > = 1.

    ``q`` is a float vector over the second outcomes (a wrong length is a
    ValidationError; other checks are the caller's).  Rows with p(i) = 0
    hold no mass and their non-finite entries are masked out by the
    callers.
    """
    expected = model.shape[:-2] + model.shape[-1:]
    if q.shape != expected:
        raise ValidationError(f"q has shape {q.shape}, expected {expected}")
    p, _ = marginals(model)
    with np.errstate(divide="ignore", invalid="ignore"):
        return (model.d[:, None] / p[..., :, None]) * (q[..., None, :] / model.D[None, :])


def shannon_entropy(p, d=None, *, check_normalized: bool = True) -> float:
    """Cell-weighted Shannon entropy  -sum_i p(i) ln(p(i) / d(i)).

    ``d = None`` means unit cells (ordinary Shannon entropy); the logarithm
    is natural.
    ``check_normalized=False`` admits sub-normalized vectors (cut-off
    distributions); the entropy of the captured mass is returned as is.
    A (B, n) ndarray ``p`` is a stack of distributions sharing ``d``, with one
    entropy per row; every row must have as many positive entries as row 0.
    """
    a = _as_float_array(p, "p", 1)
    require_each(a >= -NORMALIZATION_TOL, ValidationError,
                 lambda b: f"p[{np.argmin(a[b[:-1]])}] = {a[b[:-1]].min()} is negative")
    mask = a > 0.0
    n = require_alike(np.atleast_1d(mask.sum(axis=-1)), "number of positive entries")
    x = a[mask].reshape(a.shape[:-1] + (n,))
    if check_normalized:
        total = x.sum(axis=-1)
        require_each(np.abs(total - 1.0) <= max(NORMALIZATION_TOL, 1e-9), ValidationError, lambda b:
                     f"p sums to {total[b]}, expected 1 (pass check_normalized=False for cut-off data)")
    if d is None:
        terms = np.log(x)
    else:
        dd = np.asarray(d, dtype=float)
        if dd.shape != a.shape[-1:]:
            raise ValidationError(f"d has shape {dd.shape}, expected {a.shape[-1:]}")
        if np.any(dd <= 0):
            raise ValidationError("cell sizes must be positive")
        terms = np.log((a / dd)[mask]).reshape(x.shape)
    terms *= x
    return -terms.sum(axis=-1)


def _require_mod_ds(model: JointModel, consequence: str) -> np.ndarray:
    """The conditional of ``model``, checked to be modified doubly stochastic
    within ``MOD_DS_TOL``; a PreconditionError naming ``consequence`` otherwise."""
    pi = conditional(model)
    ok, dev = is_modified_doubly_stochastic(pi, model.d, model.D)
    require_each(ok, PreconditionError, lambda b: f"conditional is not modified doubly stochastic "
                 f"(deviation {dev[b]:.3e} > {MOD_DS_TOL:g}); {consequence}")
    return pi


def entropy_gap(model: JointModel) -> float:
    """Entropy production  S(p-hat) - S(p)  of the two-measurement model.

    Both entropies are cell-weighted.  The gap is guaranteed nonnegative
    only under the modified doubly stochastic condition, so that condition
    is enforced here within ``MOD_DS_TOL`` (PreconditionError otherwise).
    """
    _require_mod_ds(model, "the entropy gap need not be nonnegative")
    p, p_hat = marginals(model)
    return shannon_entropy(p_hat, model.D) - shannon_entropy(p, model.d)


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
    q = check_probability_vector(q)
    if q.shape[0] != model.shape[1]:
        raise ValidationError(f"q has {q.shape[0]} entries, expected {model.shape[1]}")
    if np.any(q <= 0.0):
        k = int(np.argmin(q))
        raise PreconditionError(f"q[{k}] = {q[k]} must be strictly positive")
    pi = _require_mod_ds(model, "the reverse table would not normalize")
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
    are below ``LEVEL_GROUPING_TOL``; probabilities of clustered outcomes add.
    Optional reciprocal columns carry the reverse-experiment weights of
    the same level sets for fluctuation-ratio bookkeeping.  A stack of
    distributions of one level count holds (B, n_levels) values and probs.
    """

    values: np.ndarray
    probs: np.ndarray
    reciprocal_probs: np.ndarray | None = None
    ratio_errors: np.ndarray | None = None

    def __post_init__(self):
        v = _as_float_array(self.values, "values", 1)
        p = _as_float_array(self.probs, "probs", 1)
        if v.shape != p.shape:
            raise ValidationError("values and probs must have equal length")
        if not (np.diff(v, axis=-1) > 0).all():
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

    def take(self, b: int) -> "WorkDistribution":
        """Model ``b`` of a stacked distribution."""
        return validated(WorkDistribution, values=self.values[b], probs=self.probs[b])


def _cluster_levels(values: np.ndarray, weights: np.ndarray, tol: float, *columns: np.ndarray):
    """Sort once, cut where gaps exceed ``tol``, reduce every level with reduceat: the
    weighted mean value (plain mean if weightless), the weight sum and each extra column's sum.
    Each row of a (B, n) stack is clustered alone into (B, n_levels) arrays, so every row must
    have as many levels as row 0."""
    row_starts = np.arange(values.size).reshape(values.shape)[..., :1]
    order = (np.argsort(values, axis=-1) + row_starts).ravel()  # row by row, into the flat arrays
    v, w = values.ravel()[order], weights.ravel()[order]
    cut = np.diff(v.reshape(values.shape), axis=-1, prepend=-np.inf) > tol
    shape = cut.shape[:-1] + (require_alike(np.atleast_1d(cut.sum(axis=-1)), "number of levels"),)
    starts = np.flatnonzero(cut)
    sums = np.add.reduceat(w, starts)
    with np.errstate(invalid="ignore", divide="ignore"):
        means = np.where(sums > 0, np.add.reduceat(v * w, starts) / sums,
                         np.add.reduceat(v, starts) / np.diff(np.append(starts, v.size)))
    columns = [np.add.reduceat(c.ravel()[order], starts) for c in columns]
    return means.reshape(shape), sums.reshape(shape), columns


def group_levels(values, probs) -> WorkDistribution:
    """Cluster raw (value, probability) pairs into a WorkDistribution.

    Values closer than ``LEVEL_GROUPING_TOL`` land in the same level; the level value is
    the probability-weighted mean of its members.  (B, n) ndarrays are B
    models of one level count, clustered row by row into one stacked distribution.
    """
    v = _as_float_array(values, "values", 1)
    p = _as_float_array(probs, "probs", 1)
    if v.shape != p.shape:
        raise ValidationError("values and probs must have equal length")
    lv, lp, _ = _cluster_levels(v, p, LEVEL_GROUPING_TOL)
    return WorkDistribution(values=lv, probs=lp)


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


def crooks_check(model: JointModel, q) -> CrooksReport:
    """Group the ratio levels of a model and verify the per-level identity
    (``reciprocal_model`` rejects a zero q(j), a zero p(i) and a failed hypothesis)."""
    q = check_probability_vector(q)
    recip = reciprocal_model(model, q)
    y = j_ratio(model, q)
    mask = model.p_table > 0.0
    # reciprocal table transposed back to (i, j) indexing for the same pairs
    rs = recip.p_table.T[mask]
    lv, lp, (lr,) = _cluster_levels(y[mask], model.p_table[mask], LEVEL_GROUPING_TOL, rs)
    dist = WorkDistribution(values=lv, probs=lp, reciprocal_probs=lr, ratio_errors=np.abs(lp * lv - lr))
    return CrooksReport(distribution=dist, j_equation_value=float(np.sum(lv * lp)))
