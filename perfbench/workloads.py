"""The four benchmark workloads and their correctness oracles.

Each workload is a closed loop with one caller: an item starts when the
previous one returns.  Items come in cycles; ``cycle(k)`` is a pure
function of (seed, k), so a seed fixes every input.  An item's ``call``
is the timed program work and its ``check`` the untimed oracle, which
returns {failed unit: reason} using the repository's own tolerances.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from seqmeas import cli, ensembles, model, quantum, verify, wavepacket


@dataclass
class Item:
    kind: str     # label of the item in failure reports
    work: int     # throughput units this item completes (models, t-points, samples)
    units: int    # checked units, counted in attempted/failed
    size: dict    # problem size, stamped on every span of the item
    inputs: dict  # everything the program receives, for determinism checks
    call: Callable[[], object]
    check: Callable[[object], dict]


class Workload:
    """Defaults for the hooks that only some workloads need."""

    def finish(self) -> tuple[dict, dict]:
        """Checks that need every item of the run: (failures, summary)."""
        return {}, {}

    def output_metrics(self, outputs: list[tuple[Item, object]]) -> dict[str, float]:
        """Useful-work ratios read from program outputs of the traced cycles."""
        return {}


def _cycle_rng(seed: int, k: int, *extra: int) -> np.random.Generator:
    return np.random.default_rng([seed, k, *extra])


def _hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (a + a.conj().T)


class Corpus(Workload):
    name = "corpus"
    unit = "models"
    why = ("Hundreds of tiny models (dim 2-15) over all four families: Python overhead in "
           "verify, ensembles, model and quantum, including povm_elements.")
    N_PER_FAMILY = 100

    def __init__(self, seed: int):
        self.seed = seed

    def warm_up(self):
        verify.run_corpus(seed=self.seed, n_per_family=1)

    def cycle(self, k: int) -> list[Item]:
        corpus_seed = int(_cycle_rng(self.seed, k).integers(2**31))
        n_models = self.N_PER_FAMILY * len(verify.FAMILIES)

        def call():
            return verify.run_corpus(seed=corpus_seed, n_per_family=self.N_PER_FAMILY,
                                     max_reported_failures=n_models)

        def check(report):
            failed = {}
            for f in report.failures:
                failed.setdefault(f"{f['family']}#{f['model_index']}", []).append(
                    f"{f['check']} deviation {f['deviation']:.3e} vs {f['tolerance']:.0e}")
            missed = sum(s.n_failures for s in report.summaries) - len(report.failures)
            if missed > 0:
                failed["unlisted"] = [f"{missed} failures beyond the listed ones"]
            return {k: "; ".join(v) for k, v in failed.items()}

        return [Item("run_corpus", n_models, n_models,
                     {"n_per_family": self.N_PER_FAMILY, "families": len(verify.FAMILIES)},
                     {"corpus_seed": corpus_seed}, call, check)]


class FockLadder(Workload):
    name = "fock_ladder"
    unit = "models"
    why = ("Few large dense grand-canonical models at 4, 5 and 6 modes (dim 16-64): the "
           "einsums of physical_conditional dominate, unlike corpus.")
    MODES = (4, 5, 6)

    def __init__(self, seed: int):
        self.seed = seed
        parser = cli.build_parser()
        self.crooks_tol = parser.parse_args(["crooks", "--config", "-"]).tol_ratio
        self.tol = verify.DEFAULT_TOLERANCES

    def warm_up(self):
        item = self._item(0, 2)
        item.check(item.call())

    def cycle(self, k: int) -> list[Item]:
        return [self._item(k, m) for m in self.MODES]

    def _item(self, k: int, n_modes: int) -> Item:
        rng = _cycle_rng(self.seed, k, n_modes)
        cfg = ensembles.GrandCanonicalConfig(
            h_t0=_hermitian(rng, n_modes), h_t1=_hermitian(rng, n_modes),
            beta=float(rng.uniform(0.2, 2.0)), mu=float(rng.uniform(-1.0, 1.0)))
        u = quantum.haar_unitary(2 ** n_modes, rng)

        def call():
            rep = ensembles.generate(cfg, u)
            return rep, model.crooks_check(rep.model, rep.q)

        def check(out):
            rep, crooks = out
            _, column_dev = model.is_modified_doubly_stochastic(
                model.conditional(rep.model), rep.model.d, rep.model.D, tol=self.tol["mod_ds"])
            ratio_err = float(np.max(crooks.distribution.ratio_errors))
            misses = [
                (abs(rep.jarzynski_lhs - 1.0) <= self.tol["jarzynski"],
                 f"identity {rep.jarzynski_lhs!r}"),
                (rep.entropy_gap >= -self.tol["entropy_gap"], f"entropy gap {rep.entropy_gap:.3e}"),
                (rep.jensen_lhs >= -self.tol["jensen"], f"Jensen {rep.jensen_lhs:.3e}"),
                (column_dev <= self.tol["mod_ds"], f"column-sum deviation {column_dev:.3e}"),
                (ratio_err <= self.crooks_tol, f"crooks ratio error {ratio_err:.3e}"),
            ]
            reasons = [msg for ok, msg in misses if not ok]
            return {f"modes={n_modes}": "; ".join(reasons)} if reasons else {}

        return Item(f"modes={n_modes}", 1, 1, {"n_modes": n_modes, "dim": 2 ** n_modes},
                    {"h_t0": cfg.h_t0, "h_t1": cfg.h_t1, "beta": cfg.beta, "mu": cfg.mu, "u": u},
                    call, check)


class EntropyCurve(Workload):
    name = "entropy_curve"
    unit = "t-points"
    why = ("Free-wavepacket entropy curve at the default window: at t=1e-3 every drift is 0, "
           "at t=1e-1 drifts spread over 322 rows, so small-t shortcuts show on some points only.")
    SIGMA = 1.0
    T_VALUES = (1e-3, 1e-2, 1e-1)
    # S(p-hat) at the default window, as frozen by test_second_marginal_frozen_values
    FROZEN_S_PHAT = {1e-3: 1.6557878729421087, 1e-2: 1.9888439693583391}
    FROZEN_TOL = 1e-10
    # table.sum() + mass_deficit = 1, as in test_second_marginal_bookkeeping
    BOOKKEEPING_TOL = 1e-15

    def __init__(self, seed: int):
        self.seed = seed

    def warm_up(self):
        wavepacket.entropy_curve(self.SIGMA, [1e-2], 2, 16, kernel_halfwidth=4)

    def cycle(self, k: int) -> list[Item]:
        # one call over the whole grid, so that work shared between points
        # (or spread over processes) inside entropy_curve shows
        order = _cycle_rng(self.seed, k).permutation(len(self.T_VALUES))
        t_values = [self.T_VALUES[i] for i in order]

        def call():
            captured = {}
            inner = wavepacket.second_marginal

            def tap(sigma, t, *args, **kwargs):
                hat = inner(sigma, t, *args, **kwargs)
                captured[t] = (float(hat.table.sum()), hat.mass_deficit)
                return hat

            wavepacket.second_marginal = tap
            try:
                points = wavepacket.entropy_curve(self.SIGMA, t_values)
            finally:
                wavepacket.second_marginal = inner
            return points, captured

        def check(out):
            points, captured = out
            failed = {}
            by_t = {pt.t: pt for pt in points}
            if sorted(by_t) != sorted(t_values):
                return {f"t={t:g}": "point missing" for t in t_values if t not in by_t}
            ordered = [by_t[t] for t in sorted(by_t)]
            for prev, pt in zip([None] + ordered, ordered):
                reasons = []
                if not pt.s_phat > pt.s_p:
                    reasons.append(f"gap S(p-hat) - S(p) = {pt.s_phat - pt.s_p:.3e} not positive")
                frozen = self.FROZEN_S_PHAT.get(pt.t)
                if frozen is not None and abs(pt.s_phat - frozen) > self.FROZEN_TOL:
                    reasons.append(f"S(p-hat) {pt.s_phat!r} differs from frozen {frozen!r}")
                # tables are seen only when second_marginal runs in this process
                if pt.t in captured:
                    total, deficit = captured[pt.t]
                    if not abs(total + deficit - 1.0) <= self.BOOKKEEPING_TOL:
                        reasons.append(f"table sum {total!r} + deficit {deficit!r} != 1")
                if prev is not None and pt.s_phat < prev.s_phat:
                    reasons.append(f"curve decreases from t={prev.t:g}")
                if reasons:
                    failed[f"t={pt.t:g}"] = "; ".join(reasons)
            return failed

        window = [wavepacket.DEFAULT_N_X, wavepacket.DEFAULT_N_P]
        n = len(t_values)
        return [Item("curve", n, n, {"t_values": t_values, "window": window, "sigma": self.SIGMA},
                     {"sigma": self.SIGMA, "t_values": t_values}, call, check)]

    def output_metrics(self, outputs):
        points = [pt for _, out in outputs if out is not None for pt in out[0]]
        metrics = {}
        for t in self.T_VALUES:
            masses = [1.0 - pt.mass_deficit_phat for pt in points if pt.t == t]
            if masses:
                metrics[f"wavepacket.captured_mass.{t_label(t)}"] = float(np.median(masses))
        return metrics


class ClassicalRamp(Workload):
    name = "classical_ramp"
    unit = "samples"
    why = ("The seqmeas classical CLI, four ramp seeds and one quench at 1e5 samples: the only "
           "workload that reaches classical and cli.")
    N_SAMPLES = 100_000
    RAMP_CALLS = 4
    # The CLI's ratio_within_3_std_errors check is a two-sided 3-sigma test,
    # so correct code misses it for a share RATIO_MISS_RATE of seeds.  A call
    # that misses only that check is recorded as a miss; the run fails the
    # calls that missed when that many misses are implausible by chance.
    RATIO_CHECK = "ratio_within_3_std_errors"
    RATIO_MISS_RATE = math.erfc(3.0 / math.sqrt(2.0))
    RATIO_MISS_P = 1e-6

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir
        self.ratio_calls: dict[tuple, bool] = {}  # (protocol, seed) -> missed

    def warm_up(self):
        item = self._item("quench", 0, n=1000)
        item.check(item.call())
        self.ratio_calls.clear()

    def cycle(self, k: int) -> list[Item]:
        seeds = _cycle_rng(self.seed, k).integers(2**31, size=self.RAMP_CALLS + 1)
        protocols = ["ramp"] * self.RAMP_CALLS + ["quench"]
        return [self._item(p, int(s)) for p, s in zip(protocols, seeds)]

    def finish(self) -> tuple[dict, dict]:
        calls, missed = len(self.ratio_calls), sorted(k for k, m in self.ratio_calls.items() if m)
        tail = binomial_tail(len(missed), calls, self.RATIO_MISS_RATE)
        summary = {self.RATIO_CHECK: {"distinct_calls": calls, "missed": [list(k) for k in missed],
                                      "chance_probability": tail}}
        if tail >= self.RATIO_MISS_P:
            return {}, summary
        return ({f"{p} seed={s}": f"{self.RATIO_CHECK} missed; {len(missed)} of {calls} calls "
                 f"missed it (chance probability {tail:.1e})" for p, s in missed}, summary)

    def output_metrics(self, outputs):
        ess = [(out[1]["estimator"]["effective_sample_size"], item.work) for item, out in outputs
               if out is not None and "estimator" in out[1]]
        if not ess:
            return {}
        return {"classical.effective_sample_fraction": sum(e for e, _ in ess) / sum(n for _, n in ess)}

    def _item(self, protocol: str, seed: int, n: int = N_SAMPLES) -> Item:
        argv = ["--output-dir", str(self.out_dir), "classical", "--protocol", protocol,
                "--n", str(n), "--seed", str(seed)]

        def call():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                status = cli.main(argv)
            return status, json.loads(buf.getvalue())

        def check(out):
            status, report = out
            failed = [k for k, ok in report.get("checks", {}).items() if not ok]
            if "checks" in report:
                self.ratio_calls[(protocol, seed)] = self.RATIO_CHECK in failed
            if (status == 0 and report.get("passed") is True) or failed == [self.RATIO_CHECK]:
                return {}
            return {f"{protocol} seed={seed}":
                    f"exit {status}, failed checks {failed or report.get('error')}"}

        return Item(protocol, n, 1, {"n": n, "protocol": protocol}, {"argv": argv}, call, check)


def binomial_tail(k: int, n: int, p: float) -> float:
    """P(X >= k) for X ~ Binomial(n, p)."""
    return 1.0 - sum(math.comb(n, i) * p**i * (1.0 - p) ** (n - i) for i in range(k))


WORKLOADS = {w.name: w for w in (Corpus, FockLadder, EntropyCurve, ClassicalRamp)}


def make(name: str, seed: int, scratch: Path):
    """The workload object for ``name``; ``scratch`` receives program output files."""
    cls = WORKLOADS[name]
    return cls(seed, scratch / "cli_out") if cls is ClassicalRamp else cls(seed)


def t_label(t: float) -> str:
    """Metric-name form of a time point: 1e-3 -> 't1e-3'."""
    exponent = round(math.log10(t))
    return f"t1e{exponent}" if math.isclose(t, 10.0 ** exponent) else f"t{t:g}"
