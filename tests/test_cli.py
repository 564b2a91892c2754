"""End-to-end tests of the command-line interface.

Every command is run in-process through ``main(argv)`` so exit codes,
stdout JSON, and artifact files can all be asserted cheaply.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from seqmeas import __version__, ensembles
from seqmeas.cli import config_hash, main
from seqmeas.quantum import operator_to_json_dict


def run_cli(capsys, *argv: str) -> tuple[int, dict]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def write_grand_config(path: Path, seed: int = 42, n_modes: int = 2) -> Path:
    rng = np.random.default_rng(7)
    h0 = rng.normal(size=(n_modes, n_modes))
    h1 = rng.normal(size=(n_modes, n_modes))
    cfg = {
        "config": {
            "kind": "grand_canonical",
            "h_t0": operator_to_json_dict(0.5 * (h0 + h0.T)),
            "h_t1": operator_to_json_dict(0.5 * (h1 + h1.T)),
            "beta": 1.1,
            "mu": -0.2,
        },
        "unitary_seed": seed,
    }
    target = path / "grand.json"
    target.write_text(json.dumps(cfg))
    return target


# ----------------------------------------------------------------- verify


def test_verify_small_corpus_passes(tmp_path, capsys):
    code, report = run_cli(
        capsys, "--output-dir", str(tmp_path),
        "verify", "--n-models", "3", "--seed", "11",
        "--families", "local_canonical,microcanonical")
    assert code == 0
    assert report["passed"] is True
    meta = report["meta"]
    assert meta["command"] == "verify"
    assert meta["version"] == __version__
    assert meta["seed"] == 11
    assert len(meta["config_hash"]) == 64
    assert set(meta["tolerances"]) >= {"jarzynski", "mod_ds", "entropy_gap"}
    checks = report["report"]["checks"]
    assert all(c["passed"] for c in checks)
    assert {c["family"] for c in checks} == {"local_canonical", "microcanonical"}
    assert (tmp_path / "verify_report.json").exists()
    on_disk = json.loads((tmp_path / "verify_report.json").read_text())
    assert on_disk == report


def test_verify_zero_tolerance_fails(tmp_path, capsys):
    """Tolerance plumbing: an impossible floor must produce listed failures."""
    code, report = run_cli(
        capsys, "--output-dir", str(tmp_path),
        "verify", "--n-models", "2", "--families", "local_canonical",
        "--tolerance", "0.0")
    assert code == 1
    assert report["passed"] is False
    assert report["report"]["failures"]
    # the lower-bound fault check keeps its own tolerance and still passes
    fault = [c for c in report["report"]["checks"] if c["check"] == "fault_detection"]
    assert fault and all(c["passed"] for c in fault)


def test_verify_rejects_an_unknown_family(tmp_path, capsys):
    code, report = run_cli(capsys, "--output-dir", str(tmp_path), "verify", "--families", "bogus")
    assert code == 2
    assert report["error_type"] == "ValidationError"
    assert "bogus" in report["error"]
    assert not (tmp_path / "verify_report.json").exists()


def test_a_crash_removes_the_report_of_an_earlier_run(tmp_path, capsys):
    code, report = run_cli(capsys, "--output-dir", str(tmp_path), "verify", "--n-models", "1",
                           "--families", "local_canonical")
    assert code == 0 and report["passed"] is True
    assert (tmp_path / "verify_report.json").exists()
    code, report = run_cli(capsys, "--output-dir", str(tmp_path), "verify", "--n-models", "1",
                           "--families", "bogus")
    assert code == 2
    assert report["error_type"] == "ValidationError"
    assert not (tmp_path / "verify_report.json").exists()


# ---------------------------------------------------------------- ensemble


def test_ensemble_command(tmp_path, capsys):
    cfg_path = write_grand_config(tmp_path)
    code, report = run_cli(
        capsys, "--output-dir", str(tmp_path), "ensemble",
        "--config", str(cfg_path))
    assert code == 0
    assert report["passed"] is True
    assert report["checks"] == {"jarzynski": True, "entropy_gap": True, "jensen": True}
    assert abs(report["report"]["jarzynski_lhs"] - 1.0) < 1e-10
    for name in ("work_histogram.csv", "exponent_histogram.csv"):
        text = (tmp_path / name).read_text()
        lines = text.strip().split("\n")
        assert lines[0] == "w,prob,reciprocal_prob,ratio_error"
        assert len(lines) > 2
        value = float(lines[1].split(",")[0])
        assert math.isfinite(value)


def test_ensemble_explicit_unitary(tmp_path, capsys):
    cfg_path = write_grand_config(tmp_path)
    data = json.loads(cfg_path.read_text())
    del data["unitary_seed"]
    data["unitary"] = operator_to_json_dict(np.eye(4, dtype=complex))
    cfg2 = tmp_path / "grand_eye.json"
    cfg2.write_text(json.dumps(data))
    code, report = run_cli(
        capsys, "--output-dir", str(tmp_path), "ensemble", "--config", str(cfg2))
    assert code == 0
    # identity dynamics on identical-at-both-times measurement grids still
    # satisfies the identity (here spectra differ, so the exponent is not 0)
    assert abs(report["report"]["jarzynski_lhs"] - 1.0) < 1e-10


def test_ensemble_rejects_an_empty_operator(tmp_path, capsys):
    empty = {"dim": 0, "re": [], "im": []}
    cfg = tmp_path / "empty.json"
    cfg.write_text(json.dumps({"config": {"kind": "microcanonical", "h_t0": empty, "h_t1": empty,
                                          "energy": 0.0, "width": 1.0}}))
    code, report = run_cli(capsys, "--output-dir", str(tmp_path), "ensemble", "--config", str(cfg))
    assert code == 2
    assert report["error_type"] == "ValidationError"
    # no nested JSON list has shape (0, 0), so the operator decoder is the check that fires
    assert "dim 0" in report["error"]


@pytest.mark.parametrize("change, message", [
    ({"unitary": {"dim": 4, "re": [[1.0]]}},
     "unitary: operator JSON claims dim 4 but has shapes (1, 1), (4, 4)"),
    ({"unitary": {"dim": 4}}, "unitary: operator JSON lacks 're'"),
    ({"config": {"kind": "microcanonical", "h_t0": {"dim": 1, "re": [[0.0]]},
                 "h_t1": {"dim": 2, "re": [[1.0, 0.0]]}, "energy": 0.0, "width": 1.0}},
     "h_t1: operator JSON claims dim 2 but has shapes (1, 2), (2, 2)"),
], ids=["unitary-shape", "unitary-missing-re", "config-shape"])
def test_ensemble_operator_errors_name_the_field(tmp_path, capsys, change, message):
    data = json.loads(write_grand_config(tmp_path).read_text())
    data.pop("unitary_seed")
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(data | change))
    code, report = run_cli(capsys, "--output-dir", str(tmp_path), "ensemble", "--config", str(cfg))
    assert code == 2
    assert report["error_type"] == "ValidationError"
    assert report["error"] == message


def test_ensemble_impossible_tolerance(tmp_path, capsys, monkeypatch):
    """The gate compares |lhs - 1| with --tol-jarzynski; lhs is pinned, so rounding cannot decide."""
    generate = ensembles.generate
    monkeypatch.setattr(ensembles, "generate",
                        lambda cfg, u: dataclasses.replace(generate(cfg, u), jarzynski_lhs=1.0 + 1e-6))
    cfg_path = write_grand_config(tmp_path)
    code, report = run_cli(
        capsys, "--output-dir", str(tmp_path), "ensemble",
        "--config", str(cfg_path), "--tol-jarzynski", "1e-7")
    assert code == 1
    assert report["checks"]["jarzynski"] is False
    code, report = run_cli(
        capsys, "--output-dir", str(tmp_path), "ensemble",
        "--config", str(cfg_path), "--tol-jarzynski", "1e-5")
    assert code == 0
    assert report["checks"]["jarzynski"] is True


# --------------------------------------------------------------- wavepacket


def test_wavepacket_command(tmp_path, capsys):
    code, report = run_cli(
        capsys, "--output-dir", str(tmp_path), "wavepacket",
        "--t-grid", "0.004,0.02", "--n-x", "4", "--n-p", "256",
        "--kernel-halfwidth", "10", "--mass-tolerance", "1e-3")
    assert code == 0
    checks = report["checks"]
    assert checks == {"asymmetry_pair": True, "entropy_gap_positive": True,
                      "entropy_nondecreasing": True, "mass_within_tolerance": True}
    summary = report["summary"]
    assert summary["asymmetry_pair"]["p_1_1_given_0_0"] == pytest.approx(
        0.0048394632170430931, rel=1e-10)
    assert summary["asymmetry_pair"]["p_0_0_given_1_1"] == pytest.approx(
        0.0025899694985521016, rel=1e-10)
    # the reference comparison is informational and honest, not a gate
    assert summary["matches_reference_value"] is False
    assert len(summary["curve"]) == 2
    text = (tmp_path / "entropy_curve.csv").read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "t,S_p,S_phat,mass_deficit_p,mass_deficit_phat,N_x,N_p"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == 0.004
    assert float(first[2]) == pytest.approx(summary["curve"][0]["s_phat"], rel=1e-15)


def test_wavepacket_rejects_undersized_window(tmp_path, capsys):
    code, report = run_cli(
        capsys, "--output-dir", str(tmp_path), "wavepacket",
        "--t-grid", "0.01", "--n-p", "128")
    assert code == 2
    assert report["error_type"] == "ValidationError"
    assert "captures only" in report["error"]
    assert report["passed"] is False


def test_wavepacket_rejects_negative_kernel_halfwidth(tmp_path, capsys):
    code, report = run_cli(
        capsys, "--output-dir", str(tmp_path), "wavepacket",
        "--t-grid", "0.01", "--n-x", "4", "--n-p", "48", "--kernel-halfwidth", "-1",
        "--mass-tolerance", "0.1")
    assert code == 2
    assert report["error_type"] == "ValidationError"
    assert "kernel_halfwidth = -1" in report["error"]


def test_wavepacket_judges_the_curve_in_increasing_t(tmp_path, capsys):
    """A reversed --t-grid gives the same checks as the sorted one."""
    reports = {}
    for grid in ("0.01,0.1", "0.1,0.01"):
        code, reports[grid] = run_cli(
            capsys, "--output-dir", str(tmp_path / grid), "wavepacket",
            "--t-grid", grid, "--n-x", "4", "--n-p", "48", "--kernel-halfwidth", "10",
            "--mass-tolerance", "0.1")
        assert code == 0
    assert reports["0.1,0.01"]["checks"] == reports["0.01,0.1"]["checks"]
    assert reports["0.1,0.01"]["checks"]["entropy_nondecreasing"] is True


def test_wavepacket_second_marginal_deficit_is_logged(tmp_path, capsys, caplog):
    """A one-cell kernel window loses 2.3% of the second marginal: logged with its bound."""
    with caplog.at_level(logging.WARNING, logger="seqmeas.cli"):
        code, report = run_cli(
            capsys, "--output-dir", str(tmp_path), "wavepacket",
            "--t-grid", "0.05", "--n-x", "6", "--n-p", "256", "--kernel-halfwidth", "1")
    assert code == 0
    deficit = report["summary"]["mass_deficits"]["second_marginal_max"]
    assert deficit == pytest.approx(0.0233, abs=1e-4)
    [record] = [r for r in caplog.records if r.name == "seqmeas.cli"]
    assert record.levelno == logging.WARNING
    assert f"{deficit:.4g}" in record.getMessage()
    assert "exceeds 0.01" in record.getMessage()
    assert report["checks"]["mass_within_tolerance"] is True


# ---------------------------------------------------------------- classical


def test_classical_quench_command(tmp_path, capsys):
    code, report = run_cli(
        capsys, "--output-dir", str(tmp_path), "classical",
        "--n", "20000", "--seed", "3", "--dump-work", "work.csv")
    assert code == 0
    assert report["checks"] == {"ratio_within_3_std_errors": True,
                                "jacobian": True, "quadrature_quench": True}
    assert report["quadrature_quench"] == pytest.approx(0.5, abs=1e-13)
    assert report["estimator"]["n_samples"] == 20000
    work = (tmp_path / "work.csv").read_text().strip().split("\n")
    assert work[0] == "w"
    assert len(work) == 1 + 20000
    assert all(float(line) >= 0.0 for line in work[1:100])  # quench to stiffer trap


def test_classical_ramp_command(tmp_path, capsys):
    code, report = run_cli(
        capsys, "--output-dir", str(tmp_path), "classical",
        "--protocol", "ramp", "--n", "20000", "--seed", "5",
        "--dt", "0.01", "--steps", "100")
    assert code == 0
    assert report["checks"]["ratio_within_3_std_errors"] is True
    assert report["checks"]["jacobian"] is True
    assert "quadrature_quench" not in report["checks"]
    assert report["exact_quench_value"] is None


def test_classical_ramp_jacobian_seed_that_plain_differences_missed(tmp_path, capsys):
    """Plain central differences at 1e-6 gave 1.09e-8 > 1e-8 for this seed."""
    _, report = run_cli(
        capsys, "--output-dir", str(tmp_path), "classical",
        "--protocol", "ramp", "--n", "1000", "--seed", "21250621")
    assert report["checks"]["jacobian"] is True
    assert report["jacobian_deviation"] <= 1e-10


@pytest.mark.parametrize("argv, named", [
    (["--beta", "nan"], "beta = nan"),
    (["--beta", "inf"], "beta = inf"),
    (["--omega0", "nan"], "omega = nan"),
    (["--omega1", "inf"], "omega = inf"),
    (["--omega0", "nan", "--protocol", "ramp"], "omega = nan"),
    (["--dt", "nan", "--protocol", "ramp"], "dt = nan"),
    (["--dt", "inf", "--protocol", "ramp"], "dt = inf"),
], ids=["beta-nan", "beta-inf", "omega0-nan", "omega1-inf", "ramp-omega0-nan", "ramp-dt-nan",
        "ramp-dt-inf"])
def test_classical_rejects_non_finite_parameters(tmp_path, capsys, argv, named):
    code, report = run_cli(capsys, "--output-dir", str(tmp_path), "classical", "--n", "1000",
                           *argv)
    assert code == 2
    assert report["error_type"] == "ValidationError"
    assert report["error"].startswith(named)


@pytest.mark.parametrize("argv, named", [
    (["classical", "--seed", "-1", "--n", "100"], "seed = -1"),
    (["verify", "--seed", "-1", "--n-models", "1"], "seed = -1"),
    (["classical", "--protocol", "ramp", "--steps", "0"], "steps = 0"),
    (["classical", "--protocol", "ramp", "--omega0", "1e-200", "--n", "100"], "omega = 1e-200"),
    (["classical", "--protocol", "quench", "--omega0", "1e-200", "--n", "100"], "omega = 1e-200"),
    (["classical", "--beta", "1e-310", "--n", "100"], "beta = 1e-310"),
    (["wavepacket", "--t-grid", ","], "t_grid = ','"),
    (["wavepacket", "--t-points", "0"], "t_points = 0"),
    (["wavepacket", "--t-min", "0"], "t_min = 0.0"),
    (["wavepacket", "--t-min", "-1"], "t_min = -1.0"),
    (["wavepacket", "--t-max", "nan"], "t_max = nan"),
], ids=["classical-seed", "verify-seed", "ramp-steps", "ramp-omega0-tiny", "quench-omega0-tiny",
        "beta-tiny", "wavepacket-empty-grid", "wavepacket-no-points", "wavepacket-t-min-0",
        "wavepacket-t-min-negative", "wavepacket-t-max-nan"])
def test_out_of_range_inputs_exit_2_naming_the_parameter_without_warnings(tmp_path, capsys, argv,
                                                                           named):
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        code = main(["--output-dir", str(tmp_path), *argv])
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert code == 2
    assert report["error_type"] == "ValidationError"
    assert report["error"].startswith(named)
    assert seen == [] and "Warning" not in captured.err


def test_classical_without_overlap_exits_2_without_warnings(tmp_path, capsys):
    """omega 1e-100 against 1e100: no sample of p lands where q o U is nonzero."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        code = main(["--output-dir", str(tmp_path), "classical", "--omega0", "1e-100",
                     "--omega1", "1e100", "--n", "100"])
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert code == 2
    assert report["error_type"] == "PreconditionError"
    assert "do not overlap" in report["error"]
    assert seen == [] and "Warning" not in captured.err


def test_classical_tiny_ratios_report_a_finite_ess_without_warnings(tmp_path, capsys):
    """omega 1e100 against 1e-100: every ratio is near 2e-200, whose squares underflow;
    the spread and the ESS are still finite and the 3-sigma check fails honestly."""
    def reject(constant):
        raise AssertionError(f"stdout holds the non-JSON constant {constant}")

    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        code = main(["--output-dir", str(tmp_path), "classical", "--omega0", "1e100",
                     "--omega1", "1e-100", "--n", "100"])
    captured = capsys.readouterr()
    report = json.loads(captured.out, parse_constant=reject)
    assert code == 1
    assert report["checks"]["ratio_within_3_std_errors"] is False
    est = report["estimator"]
    assert 1.0 <= est["effective_sample_size"] <= 100 and math.isfinite(est["effective_sample_size"])
    assert est["std_error"] > 0.0
    assert seen == [] and "Warning" not in captured.err


def test_classical_constant_unit_ratio_passes(tmp_path, capsys):
    """Equal frequencies make every ratio sample exactly 1: std_error 0 still passes."""
    code, report = run_cli(capsys, "--output-dir", str(tmp_path), "classical",
                           "--omega0", "1.3", "--omega1", "1.3", "--n", "100")
    assert code == 0
    assert report["estimator"]["mean"] == 1.0 and report["estimator"]["std_error"] == 0.0
    assert report["checks"]["ratio_within_3_std_errors"] is True


# ------------------------------------------------------------------- crooks


def test_crooks_explicit_model(tmp_path, capsys):
    model = {
        "p_table": [[0.15, 0.35], [0.35, 0.15]],
        "d": [1, 1],
        "D": [1, 1],
        "truncated": False,
    }
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({"model": model, "q": [0.4, 0.6]}))
    code, report = run_cli(
        capsys, "--output-dir", str(tmp_path), "crooks", "--config", str(cfg))
    assert code == 0
    assert report["checks"] == {"per_level_ratio": True, "j_equation": True}
    assert report["worst_ratio_error"] <= 1e-12
    levels = (tmp_path / "crooks_levels.csv").read_text().strip().split("\n")
    assert levels[0] == "w,prob,reciprocal_prob,ratio_error"
    assert len(levels) == 1 + report["n_levels"]


def test_crooks_from_ensemble_config(tmp_path, capsys):
    cfg_path = write_grand_config(tmp_path)
    code, report = run_cli(
        capsys, "--output-dir", str(tmp_path), "crooks", "--config", str(cfg_path))
    assert code == 0
    assert report["passed"] is True
    assert report["n_levels"] >= 4


# ------------------------------------------------------------------ epilogue

# command -> (arguments, artifact files, the tolerance flag that -1 makes fail)
EPILOGUE_CASES = {
    "verify": (["--n-models", "1", "--families", "grand_canonical"], [], "--tolerance"),
    "ensemble": (["--config", "GRAND"], ["exponent_histogram.csv", "work_histogram.csv"],
                 "--tol-jarzynski"),
    "wavepacket": (["--t-grid", "0.004,0.02", "--n-x", "4", "--n-p", "48",
                    "--kernel-halfwidth", "10", "--mass-tolerance", "0.1"],
                   ["entropy_curve.csv"], "--tol-pair"),
    "classical": (["--n", "1000", "--dump-work", "w.csv"], ["w.csv"], "--tol-jacobian"),
    "crooks": (["--config", "GRAND"], ["crooks_levels.csv"], "--tol-ratio"),
}


@pytest.mark.parametrize("failing", [False, True], ids=["passing", "failing"])
@pytest.mark.parametrize("command", list(EPILOGUE_CASES))
def test_every_command_persists_the_printed_report_and_its_artifacts(tmp_path, capsys,
                                                                     command, failing):
    args, artifacts, tolerance_flag = EPILOGUE_CASES[command]
    grand = str(write_grand_config(tmp_path))
    argv = [grand if a == "GRAND" else a for a in args] + ([tolerance_flag, "-1"] if failing else [])
    out = tmp_path / "out"
    code = main(["--output-dir", str(out), command, *argv])
    printed = capsys.readouterr().out
    report = json.loads(printed)
    assert report["passed"] is not failing
    assert code == (0 if report["passed"] else 1)
    assert (out / f"{command}_report.json").read_text() == printed
    assert sorted(p.name for p in out.iterdir()) == sorted([f"{command}_report.json", *artifacts])


# ------------------------------------------------------------- error handling


def test_crash_path_emits_valid_json(tmp_path, capsys):
    code, report = run_cli(
        capsys, "--output-dir", str(tmp_path), "ensemble",
        "--config", str(tmp_path / "missing.json"))
    assert code == 2
    assert report["command"] == "ensemble"
    assert report["passed"] is False
    assert "error" in report and "traceback" in report
    assert report["error_type"] == "FileNotFoundError"


def test_output_dir_from_environment(tmp_path, capsys, monkeypatch):
    target = tmp_path / "nested" / "out"
    monkeypatch.setenv("SEQMEAS_OUTPUT_DIR", str(target))
    code, _ = run_cli(capsys, "classical", "--n", "1000", "--seed", "0")
    assert code == 0
    assert (target / "classical_report.json").exists()


# ---------------------------------------------------------------- config hash


def test_config_hash_is_canonical_and_sensitive():
    a = {"x": 1, "y": [1.5, 2.0]}
    b = {"y": [1.5, 2.0], "x": 1}  # key order must not matter
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash({"x": 1, "y": [1.5, 2.1]})
    assert len(config_hash(a)) == 64


def test_reports_embed_the_config_hash(tmp_path, capsys):
    cfg_path = write_grand_config(tmp_path)
    _, first = run_cli(capsys, "--output-dir", str(tmp_path), "ensemble",
                       "--config", str(cfg_path))
    _, second = run_cli(capsys, "--output-dir", str(tmp_path), "crooks",
                        "--config", str(cfg_path))
    assert first["meta"]["config_hash"] == second["meta"]["config_hash"]
    other = write_grand_config(tmp_path, seed=43)
    data = json.loads(other.read_text())
    data["unitary_seed"] = 43
    other.write_text(json.dumps(data))
    _, third = run_cli(capsys, "--output-dir", str(tmp_path), "ensemble",
                       "--config", str(other))
    assert third["meta"]["config_hash"] != first["meta"]["config_hash"]
