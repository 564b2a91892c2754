"""Command-line entry point.

Subcommands: ``verify`` (randomized identity corpus), ``ensemble`` (one
model from a JSON config), ``wavepacket`` (entropy-increase curve +
asymmetry pair), ``classical`` (phase-space estimators), ``crooks``
(per-level fluctuation ratio of an explicit or generated table).

Every command ends in one epilogue, :func:`_finish`: it writes the
command's CSV artifacts and ``<command>_report.json`` into the output
directory, prints the same JSON report to stdout, and returns the exit
status.  The report embeds the library version, the seed, the sha256 hash
of the canonical config, and the tolerances in force.  Exit status is 0
exactly when every check in the report passed; crashes are caught at top
level and still produce valid JSON (exit status 2), and they remove the
``<command>_report.json`` an earlier run may have left.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import sys
import traceback
from pathlib import Path

import numpy as np

from . import __version__, classical, ensembles, verify, wavepacket
from .model import JointModel, ValidationError, crooks_check, require_positive
from .quantum import haar_unitary, operator_from_json_dict

ENV_OUTPUT_DIR = "SEQMEAS_OUTPUT_DIR"

logger = logging.getLogger(__name__)


def config_hash(config: dict) -> str:
    """sha256 of the canonical (sorted, compact) JSON encoding."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _finish(args, config: dict, seed, tolerances: dict, body: dict, checks: dict | None = None,
            passed: bool | None = None, artifacts: dict | None = None) -> int:
    """The epilogue of every command: write ``artifacts`` ({filename: text})
    and ``<command>_report.json``, print the report, and return 0 exactly
    when it passed.

    The report is ``body`` plus ``meta`` (command, version, seed, config
    hash, tolerances), ``checks`` and ``passed``.  ``checks`` decide
    ``passed``; ``verify``, whose checks live inside its corpus report,
    gives ``passed`` instead.
    """
    if checks is not None:
        body["checks"], passed = checks, all(checks.values())
    body["meta"] = {"command": args.command, "version": __version__, "seed": seed,
                    "config_hash": config_hash(config),
                    "tolerances": {k: float(v) for k, v in tolerances.items()}}
    body["passed"] = passed
    out = args.output_dir
    out.mkdir(parents=True, exist_ok=True)
    for name, text in (artifacts or {}).items():
        (out / name).write_text(text)
    text = json.dumps(body, indent=2, sort_keys=True)
    (out / f"{args.command}_report.json").write_text(text + "\n")
    print(text)
    return 0 if passed else 1


def cmd_verify(args) -> int:
    tol = {}
    if args.tolerance is not None:
        # blunt override of every upper-bound check, for tolerance plumbing
        # demonstrations (a 1e-15 floor must produce failures)
        tol = {k: args.tolerance for k in verify.DEFAULT_TOLERANCES
               if k != "fault_detection"}
    families = tuple(args.families.split(",")) if args.families else verify.FAMILIES
    rep = verify.run_corpus(seed=args.seed, n_per_family=args.n_models,
                            families=families, tolerances=tol or None)
    config = {"seed": args.seed, "n_models": args.n_models, "families": list(families)}
    return _finish(args, config, args.seed, rep.tolerances, {"report": rep.to_json_dict()},
                   passed=rep.all_passed)


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _unitary_from_config(data: dict, dim: int) -> np.ndarray:
    if "unitary" in data:
        try:
            return operator_from_json_dict(data["unitary"])
        except (ValueError, TypeError) as exc:  # ValidationError included
            raise ValidationError(f"unitary: {exc}") from exc
    if "unitary_seed" in data:
        return haar_unitary(dim, np.random.default_rng(int(data["unitary_seed"])))
    return np.eye(dim, dtype=complex)


def _ensemble_report(data: dict) -> ensembles.EnsembleReport:
    cfg = ensembles.config_from_json_dict(data["config"])
    u = _unitary_from_config(data, cfg.dim)
    return ensembles.generate(cfg, u)


def cmd_ensemble(args) -> int:
    data = _load_json(args.config)
    rep = _ensemble_report(data)
    tol = {"jarzynski": args.tol_jarzynski,
           **{k: verify.DEFAULT_TOLERANCES[k] for k in ("entropy_gap", "jensen")}}
    checks = {
        "jarzynski": abs(rep.jarzynski_lhs - 1.0) <= tol["jarzynski"],
        "entropy_gap": rep.entropy_gap >= -tol["entropy_gap"],
        "jensen": rep.jensen_lhs >= -tol["jensen"],
    }
    return _finish(args, data, data.get("unitary_seed"), tol, {"report": rep.to_json_dict()}, checks,
                   artifacts={"work_histogram.csv": rep.work_histogram.to_csv(),
                              "exponent_histogram.csv": rep.exponent_histogram.to_csv()})


def cmd_wavepacket(args) -> int:
    if args.t_grid:
        t_values = [float(x) for x in args.t_grid.split(",") if x.strip()]
        if not t_values:
            raise ValidationError(f"t_grid = {args.t_grid!r} holds no time")
    else:
        for name in ("t_min", "t_max", "t_points"):
            require_positive(name, getattr(args, name))
        t_values = list(np.logspace(math.log10(args.t_min), math.log10(args.t_max), args.t_points))
    cfg = wavepacket.WavepacketConfig(sigma=args.sigma, t=max(t_values),
                                      n_x=args.n_x, n_p=args.n_p,
                                      mass_tolerance=args.mass_tolerance)
    points = wavepacket.entropy_curve(cfg.sigma, t_values, cfg.n_x, cfg.n_p,
                                      kernel_halfwidth=args.kernel_halfwidth)
    pair = {
        "p_1_1_given_0_0": wavepacket.transition_probability(1, 1, 0, 0, 1.0),
        "p_0_0_given_1_1": wavepacket.transition_probability(0, 0, 1, 1, 1.0),
    }
    reference = {"p_1_1_given_0_0": 0.00483946, "p_0_0_given_1_1": 0.00258997}
    pair_ok = all(abs(pair[k] - reference[k]) <= args.tol_pair for k in pair)
    s_p = points[0].s_p
    gaps_positive = all(pt.s_phat > pt.s_p for pt in points)
    by_t = sorted(points, key=lambda pt: pt.t)  # the grid may come in any order
    nondecreasing = all(b.s_phat >= a.s_phat for a, b in zip(by_t, by_t[1:]))
    deficits = {
        "first_marginal": points[0].mass_deficit_p,
        "second_marginal_max": max(pt.mass_deficit_phat for pt in points),
    }
    # WavepacketConfig has already rejected a first-marginal deficit above the tolerance
    mass_ok = deficits["first_marginal"] <= args.mass_tolerance
    phat_bound = 100 * args.mass_tolerance
    if deficits["second_marginal_max"] > phat_bound:
        logger.warning("second marginal mass deficit %.4g exceeds %.4g (100 x mass tolerance)",
                       deficits["second_marginal_max"], phat_bound)
    checks = {"asymmetry_pair": pair_ok, "entropy_gap_positive": gaps_positive,
              "entropy_nondecreasing": nondecreasing, "mass_within_tolerance": mass_ok}
    config = {"sigma": args.sigma, "t_values": list(map(float, t_values)),
              "n_x": args.n_x, "n_p": args.n_p,
              "kernel_halfwidth": args.kernel_halfwidth,
              "mass_tolerance": args.mass_tolerance}
    tol = {"pair_abs": args.tol_pair, "mass": args.mass_tolerance}
    return _finish(args, config, None, tol, {
        "summary": {
            "s_p": s_p,
            "reference_s_p": 1.3654,
            "matches_reference_value": bool(abs(s_p - 1.3654) <= 5e-4),
            "asymmetry_pair": pair,
            "asymmetry_reference": reference,
            "mass_deficits": deficits,
            "curve": [
                {"t": pt.t, "s_p": pt.s_p, "s_phat": pt.s_phat,
                 "mass_deficit_p": pt.mass_deficit_p,
                 "mass_deficit_phat": pt.mass_deficit_phat}
                for pt in points
            ],
        },
    }, checks, artifacts={"entropy_curve.csv": wavepacket.entropy_curve_csv(points)})


def cmd_classical(args) -> int:
    p0 = classical.canonical_harmonic_density(args.omega0, args.beta)
    p1 = classical.canonical_harmonic_density(args.omega1, args.beta)
    if args.protocol == "quench":
        u = classical.identity_map(2)
    else:
        u = classical.harmonic_ramp_map(args.omega0, args.omega1, args.dt, args.steps)
    est = classical.classical_j_expectation(p0, p1, u, args.n, args.seed)
    rng = np.random.default_rng(args.seed + 1)
    jac_dev = classical.jacobian_determinant_check(u, rng.normal(size=(20, 2)))
    checks = {
        "ratio_within_3_std_errors": abs(est.mean - 1.0) <= 3.0 * est.std_error,
        "jacobian": jac_dev <= args.tol_jacobian,
    }
    quadrature = None
    if args.protocol == "quench":
        quadrature = classical.gauss_hermite_quench(args.beta, args.omega0, args.omega1)
        checks["quadrature_quench"] = abs(quadrature - args.omega0 / args.omega1) <= 1e-12
    artifacts = {}
    if args.dump_work:
        x = p0.sampler(np.random.default_rng(args.seed), args.n)
        w = classical.work_samples(classical.harmonic_hamiltonian(args.omega0),
                                   classical.harmonic_hamiltonian(args.omega1), u, x)
        artifacts[args.dump_work] = "\n".join(["w"] + [format(v, ".17g") for v in w]) + "\n"
    config = {k: getattr(args, k) for k in
              ("beta", "omega0", "omega1", "protocol", "n", "seed", "dt", "steps")}
    return _finish(args, config, args.seed, {"jacobian": args.tol_jacobian}, {
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
    data = _load_json(args.config)
    if "config" in data:
        rep = _ensemble_report(data)
        model, q = rep.model, rep.q
    else:
        model = JointModel.from_json_dict(data["model"])
        q = np.asarray(data["q"], dtype=float)
    crooks = crooks_check(model, q)
    worst = float(np.max(crooks.distribution.ratio_errors))
    checks = {"per_level_ratio": worst <= args.tol_ratio,
              "j_equation": abs(crooks.j_equation_value - 1.0) <= verify.DEFAULT_TOLERANCES["jarzynski"]}
    return _finish(args, data, data.get("unitary_seed"), {"per_level_ratio": args.tol_ratio}, {
        "worst_ratio_error": worst,
        "j_equation_value": crooks.j_equation_value,
        "n_levels": int(crooks.distribution.values.size),
    }, checks, artifacts={"crooks_levels.csv": crooks.to_csv()})


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

    p = sub.add_parser("verify", help="run the randomized identity corpus")
    p.add_argument("--seed", type=int, default=20260814)
    p.add_argument("--n-models", type=int, default=100,
                   help="models per ensemble family")
    p.add_argument("--families", default=None,
                   help="comma-separated subset of " + ",".join(verify.FAMILIES))
    p.add_argument("--tolerance", type=float, default=None,
                   help="override every upper-bound tolerance (demonstration knob)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("ensemble", help="generate one ensemble model from JSON config")
    p.add_argument("--config", required=True, help="JSON file: {config: {...}, unitary_seed|unitary}")
    p.add_argument("--tol-jarzynski", type=float, default=verify.DEFAULT_TOLERANCES["jarzynski"])
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("wavepacket", help="entropy-increase curve of the free-particle example")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--t-grid", default=None, help="comma-separated times (overrides min/max/points)")
    p.add_argument("--t-min", type=float, default=1e-4)
    p.add_argument("--t-max", type=float, default=1e-1)
    p.add_argument("--t-points", type=int, default=13)
    p.add_argument("--n-x", type=int, default=wavepacket.DEFAULT_N_X)
    p.add_argument("--n-p", type=int, default=wavepacket.DEFAULT_N_P)
    p.add_argument("--kernel-halfwidth", type=int, default=wavepacket.DEFAULT_KERNEL_HALFWIDTH)
    p.add_argument("--mass-tolerance", type=float, default=1e-4)
    p.add_argument("--tol-pair", type=float, default=1e-8)
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
    p.add_argument("--tol-jacobian", type=float, default=1e-8)
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
