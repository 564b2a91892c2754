"""Command-line entry point.

Subcommands: ``verify`` (randomized identity corpus), ``ensemble`` (one
model from a JSON config), ``wavepacket`` (entropy-increase curve +
asymmetry pair), ``classical`` (phase-space estimators), ``crooks``
(per-level fluctuation ratio of an explicit or generated table).

Every command ends in one epilogue, :func:`_finish`: it writes the
command's CSV artifacts (one writer, :func:`_csv`) and ``<command>_report.json``
into the output directory, prints the same JSON report to stdout, and returns
the exit status.  A table lives only in its CSV artifact.  The report embeds
the library version, the seed, the sha256 hash of the canonical config, the
tolerances in force and the data rows of each artifact.  Every command's
``passed`` is all of its ``checks`` (``verify`` and ``ensemble`` judge with
:func:`verify.run_checks`), and exit status is 0 exactly then; crashes, a
non-finite number in a report among them, are caught at top level and still
produce valid JSON (exit status 2), and remove a stale ``<command>_report.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import os
import sys
import traceback
from pathlib import Path

import numpy as np

from . import __version__, classical, ensembles, verify, wavepacket
from .model import JointModel, ValidationError, crooks_check, require_count, require_key, require_positive
from .quantum import haar_unitary, operator_from_json_dict

ENV_OUTPUT_DIR = "SEQMEAS_OUTPUT_DIR"
# The wavepacket's asymmetry pair at t = 1 to six digits, and the distance to it that passes.
PAIR_REFERENCE = {"p_1_1_given_0_0": 0.00483946, "p_0_0_given_1_1": 0.00258997}
PAIR_TOL = 1e-8

logger = logging.getLogger(__name__)


def config_hash(config: dict) -> str:
    """sha256 of the canonical (sorted, compact) JSON encoding."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _csv(header: str, columns) -> str:
    """The text of a CSV artifact: ``header``, then one row per entry of the columns, every
    cell at 17 significant digits (a double's exact round trip), a column of None left blank."""
    row = ",".join("%.17g" if c is not None else "" for c in columns)
    rows = zip(*(np.asarray(c).tolist() for c in columns if c is not None))
    return "\n".join([header, *(row % cells for cells in rows)]) + "\n"


def _levels(dist) -> tuple:
    """A :class:`~seqmeas.model.WorkDistribution`'s level table as ``(header, columns)`` for :func:`_csv`."""
    columns = (dist.values, dist.probs, dist.reciprocal_probs, dist.ratio_errors)
    return "w,prob,reciprocal_prob,ratio_error", columns


def _curve(points) -> tuple:
    """The entropy curve, a list of :class:`~seqmeas.wavepacket.EntropyCurvePoint`, as ``(header, columns)``."""
    return "t,S_p,S_phat,mass_deficit_p,mass_deficit_phat,N_x,N_p", list(zip(*map(dataclasses.astuple, points)))


def _finish(args, config: dict, seed, tolerances: dict, body: dict, checks: dict,
            artifacts: dict | None = None) -> int:
    """The epilogue of every command: write ``artifacts`` ({filename: (header, columns)}, as
    :func:`_csv` text) and ``<command>_report.json``, print the report, and return 0 exactly
    when it passed.

    The report is ``body`` plus ``meta`` (command, version, seed, config hash, tolerances,
    and ``artifacts``: {filename: data rows}), ``checks`` ({name: verdict}) and ``passed``,
    which is all of ``checks``.
    """
    texts = {name: _csv(*table) for name, table in (artifacts or {}).items()}
    body["checks"], passed = checks, all(checks.values())
    body["meta"] = {"command": args.command, "version": __version__, "seed": seed,
                    "config_hash": config_hash(config),
                    "tolerances": {k: float(v) for k, v in tolerances.items()},
                    "artifacts": {name: text.count("\n") - 1 for name, text in texts.items()}}
    body["passed"] = passed
    # strict JSON: a NaN or infinity raises here, before any file is written, and main's crash path runs
    text = json.dumps(body, indent=2, sort_keys=True, allow_nan=False)
    out = args.output_dir
    out.mkdir(parents=True, exist_ok=True)
    for name, artifact in texts.items():
        (out / name).write_text(artifact)
    (out / f"{args.command}_report.json").write_text(text + "\n")
    print(text)
    return 0 if passed else 1


def _battery_tolerances(args) -> dict:
    """The bounds of the :func:`verify.run_checks` battery: ``--tolerance``, when given, replaces
    every upper bound, for tolerance plumbing demonstrations (a 0 floor must produce failures);
    the fault probe's lower bound keeps its default."""
    return {k: v if args.tolerance is None or k == "fault_detection" else args.tolerance
            for k, v in verify.DEFAULT_TOLERANCES.items()}


def cmd_verify(args) -> int:
    families = tuple(args.families.split(",")) if args.families is not None else verify.FAMILIES
    rep = verify.run_corpus(seed=args.seed, n_per_family=args.n_models,
                            families=families, tolerances=_battery_tolerances(args))
    config = {"seed": args.seed, "n_models": args.n_models, "families": list(families)}
    checks = {name: all(s.passed for s in rep.summaries if s.check == name) for name in rep.tolerances}
    return _finish(args, config, args.seed, rep.tolerances, {"report": rep.to_json_dict()}, checks)


def _unitary_from_config(data: dict, dim: int) -> np.ndarray:
    if "unitary" in data and "unitary_seed" in data:
        raise ValidationError("give one of 'unitary' and 'unitary_seed', not both")
    if "unitary" in data:
        try:
            return operator_from_json_dict(data["unitary"])
        except (ValueError, TypeError) as exc:  # ValidationError included
            raise ValidationError(f"unitary: {exc}") from exc
    if "unitary_seed" in data:
        require_count("unitary_seed", data["unitary_seed"])
        return haar_unitary(dim, np.random.default_rng(data["unitary_seed"]))
    return np.eye(dim, dtype=complex)


def _ensemble_report(data: dict) -> ensembles.EnsembleReport:
    cfg = ensembles.config_from_json_dict(require_key(data, "config", "ensemble file"))
    u = _unitary_from_config(data, cfg.dim)
    return ensembles.generate(cfg, u)


def cmd_ensemble(args) -> int:
    data = json.loads(Path(args.config).read_text())
    rep = _ensemble_report(data)
    tol = _battery_tolerances(args)
    outcomes = verify.run_checks(rep, tol).items()
    body = {"report": rep.to_json_dict(), "deviations": {name: float(dev) for name, (dev, _) in outcomes}}
    return _finish(args, data, data.get("unitary_seed"), tol, body, {name: bool(ok) for name, (_, ok) in outcomes},
                   artifacts={"work_histogram.csv": _levels(rep.work_histogram),
                              "exponent_histogram.csv": _levels(rep.exponent_histogram)})


def cmd_wavepacket(args) -> int:
    if args.t_grid is None:
        t_values = list(wavepacket.DEFAULT_T_GRID)
    else:
        try:
            t_values = [float(x) for x in args.t_grid.split(",") if x.strip()]
        except ValueError as exc:
            raise ValidationError(f"t_grid = {args.t_grid!r}: {exc}") from exc
        if not t_values:
            raise ValidationError(f"t_grid = {args.t_grid!r} holds no time")
    # the times, the window and its mass bound are checked before any second marginal runs
    for t in t_values:
        require_positive("t", t)
    require_count("n_x", args.n_x, positive=True)
    require_count("n_p", args.n_p, positive=True)
    require_positive("mass_tolerance", args.mass_tolerance)
    deficit = wavepacket.first_marginal(args.sigma, args.n_x, args.n_p).mass_deficit
    if deficit > args.mass_tolerance:
        raise ValidationError(f"window (n_x={args.n_x}, n_p={args.n_p}) captures only 1 - {deficit:.3e} "
                              f"of the state; enlarge it or raise mass_tolerance={args.mass_tolerance:g}")
    points = wavepacket.entropy_curve(args.sigma, t_values, args.n_x, args.n_p,
                                      kernel_halfwidth=args.kernel_halfwidth)
    pair = {
        "p_1_1_given_0_0": wavepacket.transition_probability(1, 1, 0, 0, 1.0),
        "p_0_0_given_1_1": wavepacket.transition_probability(0, 0, 1, 1, 1.0),
    }
    pair_ok = all(abs(pair[k] - PAIR_REFERENCE[k]) <= PAIR_TOL for k in pair)
    s_p = points[0].s_p
    gaps_positive = all(pt.s_phat > pt.s_p for pt in points)
    by_t = sorted(points, key=lambda pt: pt.t)  # the grid may come in any order
    nondecreasing = all(b.s_phat >= a.s_phat for a, b in zip(by_t, by_t[1:]))
    deficits = {
        "first_marginal": points[0].mass_deficit_p,
        "second_marginal_max": max(pt.mass_deficit_phat for pt in points),
    }
    phat_bound = 100 * args.mass_tolerance
    if deficits["second_marginal_max"] > phat_bound:
        logger.warning("second marginal mass deficit %.4g exceeds %.4g (100 x mass tolerance)",
                       deficits["second_marginal_max"], phat_bound)
    checks = {"asymmetry_pair": pair_ok, "entropy_gap_positive": gaps_positive,
              "entropy_nondecreasing": nondecreasing}
    config = {"sigma": args.sigma, "t_values": list(map(float, t_values)),
              "n_x": args.n_x, "n_p": args.n_p,
              "kernel_halfwidth": args.kernel_halfwidth,
              "mass_tolerance": args.mass_tolerance}
    tol = {"pair_abs": PAIR_TOL, "mass": args.mass_tolerance}
    return _finish(args, config, None, tol, {
        "summary": {
            "s_p": s_p,
            "reference_s_p": 1.3654,
            "matches_reference_value": bool(abs(s_p - 1.3654) <= 5e-4),
            "asymmetry_pair": pair,
            "asymmetry_reference": PAIR_REFERENCE,
            "mass_deficits": deficits,
        },
    }, checks, artifacts={"entropy_curve.csv": _curve(points)})


def cmd_classical(args) -> int:
    # the samples go into the output directory, beside the report and under another name
    name = args.dump_work
    if name and (Path(name).name != name or name in ("..", f"{args.command}_report.json")):
        raise ValidationError(f"dump_work = {name!r} must be a plain file name other than the report's")
    p0 = classical.canonical_harmonic_density(args.omega0, args.beta)
    p1 = classical.canonical_harmonic_density(args.omega1, args.beta)
    if args.protocol == "quench":
        u = classical.identity_map(2)
    else:
        u = classical.harmonic_ramp_map(args.omega0, args.omega1, args.dt, args.steps)
    est = classical.classical_j_expectation(p0, p1, u, args.n, args.seed)
    rng = np.random.default_rng(args.seed + 1)
    jac_dev = classical.jacobian_determinant_check(u, rng.normal(size=(20, 2)))
    tol = {"jacobian": classical.JACOBIAN_TOL, "ratio_std_errors": 3.0}
    checks = {
        "ratio_within_3_std_errors": abs(est.mean - 1.0) <= tol["ratio_std_errors"] * est.std_error,
        "jacobian": jac_dev <= tol["jacobian"],
    }
    quadrature = None
    if args.protocol == "quench":
        quadrature = classical.gauss_hermite_quench(args.beta, args.omega0, args.omega1)
        tol["quadrature_quench"] = 1e-12
        checks["quadrature_quench"] = abs(quadrature - args.omega0 / args.omega1) <= tol["quadrature_quench"]
    artifacts = {}
    if args.dump_work:
        x = p0.sampler(np.random.default_rng(args.seed), args.n)
        w = classical.work_samples(classical.harmonic_hamiltonian(args.omega0),
                                   classical.harmonic_hamiltonian(args.omega1), u, x)
        artifacts[args.dump_work] = ("w", [w])
    config = {k: getattr(args, k) for k in
              ("beta", "omega0", "omega1", "protocol", "n", "seed", "dt", "steps")}
    return _finish(args, config, args.seed, tol, {
        "estimator": {
            "mean": est.mean, "std_error": est.std_error,
            "n_samples": est.n_samples, "seed": est.seed,
            "effective_sample_size": est.effective_sample_size,
        },
        "jacobian_deviation": jac_dev,
        "quadrature_quench": quadrature,
        "exact_quench_value": args.omega0 / args.omega1 if args.protocol == "quench" else None,
    }, checks, artifacts=artifacts)


def cmd_crooks(args) -> int:
    data = json.loads(Path(args.config).read_text())
    if isinstance(data, dict) and "config" in data:
        rep = _ensemble_report(data)
        model, q = rep.model, rep.q
    else:
        model = JointModel.from_json_dict(require_key(data, "model", "crooks file"))
        q = require_key(data, "q", "crooks file")
    crooks = crooks_check(model, q)
    worst = float(np.max(crooks.distribution.ratio_errors))
    tol = {"per_level_ratio": args.tol_ratio, "j_equation": verify.DEFAULT_TOLERANCES["jarzynski"]}
    checks = {"per_level_ratio": worst <= tol["per_level_ratio"],
              "j_equation": abs(crooks.j_equation_value - 1.0) <= tol["j_equation"]}
    return _finish(args, data, data.get("unitary_seed"), tol, {
        "worst_ratio_error": worst,
        "j_equation_value": crooks.j_equation_value,
        "n_levels": int(crooks.distribution.values.size),
    }, checks, artifacts={"crooks_levels.csv": _levels(crooks.distribution)})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqmeas",
        description="Sequential-measurement fluctuation identities: "
                    "verification corpus and example generators.")
    parser.add_argument("--output-dir", type=Path,
                        default=Path(os.environ.get(ENV_OUTPUT_DIR, ".")),
                        help="directory for reports and CSV artifacts "
                             f"(default: ${ENV_OUTPUT_DIR} or '.')")
    sub = parser.add_subparsers(dest="command", required=True)
    battery = argparse.ArgumentParser(add_help=False)  # the check battery that verify and ensemble share
    battery.add_argument("--tolerance", type=float, help="override every upper-bound tolerance (demonstration knob)")

    p = sub.add_parser("verify", parents=[battery], help="run the randomized identity corpus")
    p.add_argument("--seed", type=int, default=20260814)
    p.add_argument("--n-models", type=int, default=100,
                   help="models per ensemble family")
    p.add_argument("--families", default=None,
                   help="comma-separated subset of " + ",".join(verify.FAMILIES))
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("ensemble", parents=[battery], help="generate one ensemble model from JSON config")
    p.add_argument("--config", required=True, help="JSON file: {config: {...}, unitary_seed|unitary}")
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("wavepacket", help="entropy-increase curve of the free-particle example")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--t-grid", help="comma-separated times (default: 13 log-spaced from 1e-4 to 1e-1)")
    p.add_argument("--n-x", type=int, default=wavepacket.DEFAULT_N_X)
    p.add_argument("--n-p", type=int, default=wavepacket.DEFAULT_N_P)
    p.add_argument("--kernel-halfwidth", type=int, default=wavepacket.DEFAULT_KERNEL_HALFWIDTH)
    p.add_argument("--mass-tolerance", type=float, default=1e-4)
    p.set_defaults(func=cmd_wavepacket)

    p = sub.add_parser("classical", help="classical phase-space ratio estimator")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--omega0", type=float, default=1.0)
    p.add_argument("--omega1", type=float, default=2.0)
    p.add_argument("--protocol", choices=("quench", "ramp"), default="quench")
    p.add_argument("--n", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dt", type=float, default=0.005)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--dump-work", default=None, metavar="FILENAME",
                   help="write work samples CSV into the output directory")
    p.set_defaults(func=cmd_classical)

    p = sub.add_parser("crooks", help="per-level fluctuation ratio of a model")
    p.add_argument("--config", required=True,
                   help="JSON file: either {model: {...}, q: [...]} or an ensemble config")
    p.add_argument("--tol-ratio", type=float, default=1e-12)
    p.set_defaults(func=cmd_crooks)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # top-level barrier: reports stay valid JSON
        try:  # a report left by an earlier run must not outlive this failure
            (args.output_dir / f"{args.command}_report.json").unlink(missing_ok=True)
        except OSError as unlink_error:
            logger.warning("could not remove the stale report: %s", unlink_error)
        print(json.dumps({
            "command": args.command,
            "error": str(exc),
            "error_type": type(exc).__name__,
            "traceback": traceback.format_exc(limit=8),
            "passed": False,
        }, indent=2))
        return 2


if __name__ == "__main__":
    sys.exit(main())
