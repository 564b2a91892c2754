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

from seqmeas import __version__, classical, cli, ensembles, verify, wavepacket
from seqmeas.cli import config_hash, main
from seqmeas.quantum import haar_unitary, operator_to_json_dict


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
    assert list(report["report"]["family_seconds"]) == ["local_canonical", "microcanonical"]
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
    assert report["checks"] == dict.fromkeys(verify.DEFAULT_TOLERANCES, True)
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


def test_ensemble_without_a_unitary_evolves_by_the_identity(tmp_path, capsys):
    data = json.loads(write_grand_config(tmp_path).read_text())
    del data["unitary_seed"]
    implicit, explicit = tmp_path / "implicit.json", tmp_path / "explicit.json"
    implicit.write_text(json.dumps(data))
    explicit.write_text(json.dumps(data | {"unitary": operator_to_json_dict(np.eye(4, dtype=complex))}))
    reports = []
    for cfg in (implicit, explicit):
        code, report = run_cli(capsys, "--output-dir", str(tmp_path), "ensemble", "--config", str(cfg))
        assert code == 0
        reports.append(report["report"])
    assert reports[0] == reports[1]


def test_ensemble_rejects_an_empty_operator(tmp_path, capsys):
    empty = {"dim": 0, "re": [], "im": []}
    cfg = tmp_path / "empty.json"
    cfg.write_text(json.dumps({"config": {"kind": "microcanonical", "h_t0": empty, "h_t1": empty,
                                          "energy": 0.0, "width": 1.0}}))
    code, report = run_cli(capsys, "--output-dir", str(tmp_path), "ensemble", "--config", str(cfg))
    assert code == 2
    assert report["error_type"] == "ValidationError"
    assert report["error"] == "h_t0: dim = 0 must be a positive integer"


@pytest.mark.parametrize("h_t0, message", [
    ({"dim": 2.7}, "h_t0: dim = 2.7 must be a positive integer"),
    ({"dim": True}, "h_t0: dim = True must be a positive integer"),
    ({"dim": 10 ** 7, "re": [[1.0]], "im": None},
     "h_t0: operator JSON claims dim 10000000 but has shapes (1, 1), (10000000, 10000000)"),
], ids=["fractional", "bool", "huge-without-im"])
def test_ensemble_rejects_a_bad_operator_dim_naming_the_field(tmp_path, capsys, h_t0, message):
    """A fractional dim is not truncated, a bool is not read as 1, and a huge dim without ``im``
    builds no zero matrix before the shape check; ``h_t0`` keeps its other fields, ``im`` None drops it."""
    data = json.loads(write_grand_config(tmp_path).read_text())
    merged = data["config"]["h_t0"] | h_t0
    data["config"]["h_t0"] = {key: value for key, value in merged.items() if value is not None}
    cfg = tmp_path / "bad_dim.json"
    cfg.write_text(json.dumps(data))
    code, report = run_cli(capsys, "--output-dir", str(tmp_path), "ensemble", "--config", str(cfg))
    assert code == 2
    assert report["error_type"] == "ValidationError"
    assert report["error"] == message


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


@pytest.mark.parametrize("command", ["ensemble", "crooks"])
@pytest.mark.parametrize("seed", [-1, 2.7, True], ids=["negative", "fractional", "bool"])
def test_unitary_seed_must_be_a_nonnegative_integer(tmp_path, capsys, command, seed):
    """A fractional seed is not truncated, a bool is not read as 1, a negative one does not reach numpy."""
    cfg = write_grand_config(tmp_path, seed=seed)
    code, report = run_cli(capsys, "--output-dir", str(tmp_path), command, "--config", str(cfg))
    assert code == 2
    assert report["error_type"] == "ValidationError"
    assert report["error"].startswith(f"unitary_seed = {seed} must be a nonnegative integer")


@pytest.mark.parametrize("command", ["ensemble", "crooks"])
def test_a_file_gives_the_unitary_one_way(tmp_path, capsys, monkeypatch, command):
    """Both ``unitary`` and ``unitary_seed`` is refused before either unitary is built: with both,
    the explicit one ran while ``meta.seed`` reported the unused seed."""
    monkeypatch.setattr(cli, "haar_unitary", lambda dim, rng: pytest.fail("a Haar unitary was drawn"))
    data = json.loads(write_grand_config(tmp_path).read_text())
    cfg = tmp_path / "both.json"
    cfg.write_text(json.dumps(data | {"unitary": operator_to_json_dict(np.eye(4, dtype=complex))}))
    code, report = run_cli(capsys, "--output-dir", str(tmp_path), command, "--config", str(cfg))
    assert code == 2
    assert report["error_type"] == "ValidationError"
    assert report["error"] == "give one of 'unitary' and 'unitary_seed', not both"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["both.json", "grand.json"]


@pytest.mark.parametrize("command", ["ensemble", "crooks"])
def test_thirteen_modes_are_rejected_before_the_unitary_is_drawn(tmp_path, capsys, monkeypatch, command):
    """A 13-mode config fails at construction: no 8192 x 8192 Haar unitary is asked for."""
    calls = []

    def recording(dim, rng):
        calls.append(dim)
        raise RuntimeError(f"haar_unitary({dim}) was called")

    monkeypatch.setattr(cli, "haar_unitary", recording)
    cfg = write_grand_config(tmp_path, n_modes=13)
    code, report = run_cli(capsys, "--output-dir", str(tmp_path), command, "--config", str(cfg))
    assert calls == []
    assert code == 2
    assert report["error_type"] == "ValidationError"
    assert report["error"] == "n_modes = 13 outside the supported range 1..12"


MODEL = {"p_table": [[0.15, 0.35], [0.35, 0.15]], "d": [1, 1], "D": [1, 1]}


@pytest.mark.parametrize("command, data, message", [
    ("crooks", {"q": [0.4, 0.6]}, "crooks file is missing field 'model'"),
    ("crooks", {"model": MODEL}, "crooks file is missing field 'q'"),
    ("crooks", {"model": {"d": [1, 1], "D": [1, 1]}, "q": [0.4, 0.6]}, "model is missing field 'p_table'"),
    ("ensemble", {"unitary_seed": 1}, "ensemble file is missing field 'config'"),
], ids=["crooks-model", "crooks-q", "crooks-p_table", "ensemble-config"])
def test_missing_json_keys_are_named(tmp_path, capsys, command, data, message):
    cfg = tmp_path / "input.json"
    cfg.write_text(json.dumps(data))
    code, report = run_cli(capsys, "--output-dir", str(tmp_path), command, "--config", str(cfg))
    assert code == 2
    assert report["error_type"] == "ValidationError"
    assert report["error"] == message


@pytest.mark.parametrize("command, data, message", [
    ("ensemble", 5, "ensemble file must be a JSON object, got int"),
    ("ensemble", {"config": 7}, "config must be a JSON object, got int"),
    ("crooks", {"model": 3, "q": [1]}, "model must be a JSON object, got int"),
    ("crooks", 5, "crooks file must be a JSON object, got int"),
], ids=["ensemble-file", "ensemble-config", "crooks-model", "crooks-file"])
def test_json_values_that_must_be_objects_are_named(tmp_path, capsys, command, data, message):
    cfg = tmp_path / "input.json"
    cfg.write_text(json.dumps(data))
    code, report = run_cli(capsys, "--output-dir", str(tmp_path), command, "--config", str(cfg))
    assert code == 2
    assert report["error_type"] == "ValidationError"
    assert report["error"] == message


@pytest.mark.parametrize("change, message", [
    ({"q": [0.5, "x"]}, "q: could not convert string to float: 'x'"),
    ({"q": [0.4, 10 ** 400]}, "q: int too large to convert to float"),
    ({"model": MODEL | {"p_table": [[0.5, "x"], [0.25, 0.25]]}}, "p_table: could not convert string to float: 'x'"),
    ({"model": MODEL | {"d": ["a", 1]}}, "d: could not convert string to float: 'a'"),
    ({"model": MODEL | {"D": [1, "a"]}}, "D: could not convert string to float: 'a'"),
], ids=["q", "q-huge-int", "p_table", "d", "D"])
def test_non_numeric_json_entries_are_named(tmp_path, capsys, change, message):
    cfg = tmp_path / "input.json"
    cfg.write_text(json.dumps({"model": MODEL, "q": [0.4, 0.6]} | change))
    code, report = run_cli(capsys, "--output-dir", str(tmp_path), "crooks", "--config", str(cfg))
    assert code == 2
    assert report["error_type"] == "ValidationError"
    assert report["error"] == message


def test_ensemble_impossible_tolerance(tmp_path, capsys, monkeypatch):
    """The gate compares |lhs - 1| with --tolerance; lhs is pinned, so rounding cannot decide.
    The histogram value moves with it, so the report stays self-consistent and only the flag decides."""
    generate = ensembles.generate
    monkeypatch.setattr(ensembles, "generate", lambda cfg, u: dataclasses.replace(
        generate(cfg, u), jarzynski_lhs=1.0 + 1e-6, histogram_identity=1.0 + 1e-6))
    cfg_path = write_grand_config(tmp_path)
    code, report = run_cli(
        capsys, "--output-dir", str(tmp_path), "ensemble",
        "--config", str(cfg_path), "--tolerance", "1e-7")
    assert code == 1
    assert report["checks"]["jarzynski"] is False
    code, report = run_cli(
        capsys, "--output-dir", str(tmp_path), "ensemble",
        "--config", str(cfg_path), "--tolerance", "1e-5")
    assert code == 0
    assert report["checks"]["jarzynski"] is True


def test_ensemble_and_verify_take_one_tolerance_for_the_same_bounds(tmp_path, capsys):
    """--tolerance sets every upper bound of the shared battery, in both commands alike; the fault
    probe's lower bound keeps its default."""
    tolerances = {}
    for command, argv in (("verify", ["--n-models", "1", "--families", "grand_canonical"]),
                          ("ensemble", ["--config", str(write_grand_config(tmp_path))])):
        _, report = run_cli(capsys, "--output-dir", str(tmp_path), command, *argv, "--tolerance", "1e-3")
        tolerances[command] = report["meta"]["tolerances"]
    assert tolerances["verify"] == tolerances["ensemble"] == dict.fromkeys(verify.DEFAULT_TOLERANCES, 1e-3) | {
        "fault_detection": verify.DEFAULT_TOLERANCES["fault_detection"]}


def _one_outcome_data() -> dict:
    """A microcanonical model whose second family has one outcome: h_t1 = 0.5 is one level in the
    window (energy 0, width 1)."""
    rng = np.random.default_rng(3)
    h_t0 = verify._random_hermitian(rng, 3)
    return {"config": {"kind": "microcanonical", "h_t0": operator_to_json_dict(h_t0),
                       "h_t1": operator_to_json_dict(0.5 * np.eye(3)), "energy": 0.0, "width": 1.0},
            "unitary": operator_to_json_dict(haar_unitary(3, rng))}


def test_a_one_outcome_second_family_passes_all_seven_checks(tmp_path, capsys):
    """With one second outcome every row-stochastic conditional meets the column sum, so the fault
    probe has no fault to find: the battery passes, in the library and through the CLI."""
    data = _one_outcome_data()
    rep = cli._ensemble_report(data)
    assert rep.model.p_table.shape[-1] == 1
    outcomes = verify.run_checks(rep, verify.DEFAULT_TOLERANCES)
    assert list(outcomes) == list(verify.DEFAULT_TOLERANCES)
    assert all(ok for _, ok in outcomes.values()), outcomes
    cfg_path = tmp_path / "one_outcome.json"
    cfg_path.write_text(json.dumps(data))
    code, report = run_cli(capsys, "--output-dir", str(tmp_path), "ensemble", "--config", str(cfg_path))
    assert code == 0
    assert report["checks"] == dict.fromkeys(verify.DEFAULT_TOLERANCES, True)


def test_ensemble_sees_a_table_that_breaks_the_column_sum(tmp_path, capsys, monkeypatch):
    """1e-6 of mass moves between two cells of one row; the stored identity values are kept, so
    only the hypothesis check, mod_ds, can see it."""
    generate = ensembles.generate

    def broken(cfg, u):
        rep = generate(cfg, u)
        table = rep.model.p_table.copy()
        j = int(np.argmax(table[0]))
        table[0, j] -= 1e-6
        table[0, (j + 1) % table.shape[1]] += 1e-6
        return dataclasses.replace(rep, model=dataclasses.replace(rep.model, p_table=table))

    monkeypatch.setattr(ensembles, "generate", broken)
    code, report = run_cli(capsys, "--output-dir", str(tmp_path), "ensemble",
                           "--config", str(write_grand_config(tmp_path)))
    assert code == 1
    assert report["checks"] == dict.fromkeys(verify.DEFAULT_TOLERANCES, True) | {"mod_ds": False}
    assert report["deviations"]["mod_ds"] >= 1e-6


def test_verify_and_ensemble_report_the_same_checks(tmp_path, capsys):
    """Both commands print checks under the keys of DEFAULT_TOLERANCES; verify passes exactly
    when its corpus report does, whether it passes or fails."""
    for tolerance in ([], ["--tolerance", "0"]):
        code, report = run_cli(capsys, "--output-dir", str(tmp_path), "verify", "--n-models", "1",
                               "--families", "grand_canonical", *tolerance)
        assert sorted(report["checks"]) == sorted(verify.DEFAULT_TOLERANCES)
        assert report["passed"] is report["report"]["all_passed"] is (not tolerance)
        assert code == (1 if tolerance else 0)
    _, report = run_cli(capsys, "--output-dir", str(tmp_path), "ensemble",
                        "--config", str(write_grand_config(tmp_path)))
    assert sorted(report["checks"]) == sorted(report["deviations"]) == sorted(verify.DEFAULT_TOLERANCES)
    assert sorted(report["meta"]["tolerances"]) == sorted(verify.DEFAULT_TOLERANCES)


def _strict_json(text: str):
    """json.loads that rejects NaN and Infinity, which are not JSON."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


def test_a_non_finite_report_number_takes_the_crash_path(tmp_path, capsys, monkeypatch):
    """A NaN in a report is caught before any file is written: exit 2, a strict error JSON on
    stdout, and neither the report nor a CSV artifact of this run is left."""
    generate = ensembles.generate
    monkeypatch.setattr(ensembles, "generate",
                        lambda cfg, u: dataclasses.replace(generate(cfg, u), jensen_lhs=math.nan))
    cfg_path = write_grand_config(tmp_path)
    out_dir = tmp_path / "out"
    code = main(["--output-dir", str(out_dir), "ensemble", "--config", str(cfg_path)])
    error = _strict_json(capsys.readouterr().out)
    assert code == 2
    assert error["error_type"] == "ValueError" and error["passed"] is False
    assert not out_dir.exists() or list(out_dir.iterdir()) == []


def test_ensemble_where_the_ratio_underflows_writes_strict_json(tmp_path, capsys):
    """The later weight q(1) underflows to 0; the Jensen value, the mean exponent, stays finite,
    and stdout and the report parse as strict JSON."""
    data = {"config": {"kind": "microcanonical", "h_t0": operator_to_json_dict(np.diag([0.0, 0.05])),
                       "h_t1": operator_to_json_dict(np.diag([0.0, 10.0])), "energy": 0.0, "width": 0.1},
            "unitary_seed": 1}
    cfg_path = tmp_path / "underflow.json"
    cfg_path.write_text(json.dumps(data))
    code = main(["--output-dir", str(tmp_path), "ensemble", "--config", str(cfg_path)])
    printed = _strict_json(capsys.readouterr().out)
    written = _strict_json((tmp_path / "ensemble_report.json").read_text())
    assert code == 0 and printed == written
    report = written["report"]
    assert report["q"][1] == 0.0
    assert report["jensen_lhs"] == report["quantities"]["mean_exponent"] > 0.0


# --------------------------------------------------------------- wavepacket


def test_wavepacket_command(tmp_path, capsys):
    code, report = run_cli(
        capsys, "--output-dir", str(tmp_path), "wavepacket",
        "--t-grid", "0.004,0.02", "--n-x", "4", "--n-p", "256",
        "--kernel-halfwidth", "10", "--mass-tolerance", "1e-3")
    assert code == 0
    checks = report["checks"]
    assert checks == {"asymmetry_pair": True, "entropy_gap_positive": True,
                      "entropy_nondecreasing": True}
    summary = report["summary"]
    assert summary["asymmetry_pair"]["p_1_1_given_0_0"] == pytest.approx(
        0.0048394632170430931, rel=1e-10)
    assert summary["asymmetry_pair"]["p_0_0_given_1_1"] == pytest.approx(
        0.0025899694985521016, rel=1e-10)
    # the reference comparison is informational and honest, not a gate
    assert summary["matches_reference_value"] is False
    assert report["meta"]["artifacts"] == {"entropy_curve.csv": 2}
    text = (tmp_path / "entropy_curve.csv").read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "t,S_p,S_phat,mass_deficit_p,mass_deficit_phat,N_x,N_p"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == 0.004
    assert float(first[1]) == summary["s_p"] < float(first[2])


def test_wavepacket_window_must_capture_the_mass_tolerance(tmp_path, capsys):
    """The default window meets the default bound; n_p = 128 misses 1e-4 but meets 1e-3."""
    args = cli.build_parser().parse_args(["wavepacket"])
    assert wavepacket.first_marginal(args.sigma, args.n_x, args.n_p).mass_deficit <= args.mass_tolerance
    code, report = run_cli(
        capsys, "--output-dir", str(tmp_path), "wavepacket",
        "--t-grid", "0.01", "--n-p", "128")
    assert code == 2
    assert report["error_type"] == "ValidationError"
    assert "captures only" in report["error"]
    assert report["passed"] is False
    code, report = run_cli(
        capsys, "--output-dir", str(tmp_path), "wavepacket",
        "--t-grid", "0.01", "--n-x", "4", "--n-p", "128", "--kernel-halfwidth", "4",
        "--mass-tolerance", "1e-3")
    assert code == 0


def test_wavepacket_defaults_to_the_thirteen_log_spaced_times(tmp_path, capsys, monkeypatch):
    """Without --t-grid the curve runs at 13 times from 1e-4 to 1e-1, bit for bit the grid the
    former --t-min/--t-max/--t-points defaults spelled; the curve is stopped before any second marginal."""
    seen = []

    def recording(sigma, t_values, *args, **kwargs):
        seen.append(np.asarray(t_values, dtype=float))
        raise RuntimeError("stop before the second marginals")

    monkeypatch.setattr(wavepacket, "entropy_curve", recording)
    code, report = run_cli(capsys, "--output-dir", str(tmp_path), "wavepacket")
    assert code == 2 and report["error"] == "stop before the second marginals"
    [t_values] = seen
    assert t_values.tobytes() == np.logspace(math.log10(1e-4), math.log10(1e-1), 13).tobytes()


@pytest.mark.parametrize("argv", [
    ["wavepacket", "--t-min", "1e-3"], ["wavepacket", "--t-max", "1"], ["wavepacket", "--t-points", "5"],
    ["wavepacket", "--tol-pair", "1"], ["classical", "--tol-jacobian", "1"],
    ["ensemble", "--config", "grand.json", "--tol-jarzynski", "1"],
], ids=["t-min", "t-max", "t-points", "tol-pair", "tol-jacobian", "tol-jarzynski"])
def test_removed_flags_are_rejected(argv):
    """The times are a --t-grid, the pair and Jacobian bounds are constants, and ensemble takes
    verify's --tolerance: argparse rejects the flags these replaced."""
    with pytest.raises(SystemExit) as exit_info:
        cli.build_parser().parse_args(argv)
    assert exit_info.value.code == 2


def test_wavepacket_checks_every_time_before_any_second_marginal(tmp_path, capsys, monkeypatch):
    calls = []
    inner = wavepacket.second_marginal

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(wavepacket, "second_marginal", counted)
    code, report = run_cli(capsys, "--output-dir", str(tmp_path), "wavepacket", "--t-grid", "0.05,-1")
    assert calls == []
    assert code == 2
    assert report["error_type"] == "ValidationError"
    assert report["error"].startswith("t = -1.0 must be positive")


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


@pytest.mark.parametrize("dump_work", ["ESCAPED", "../escaped.csv", "classical_report.json"],
                         ids=["absolute", "parent", "report-name"])
def test_dump_work_must_be_a_plain_name_other_than_the_report(tmp_path, capsys, monkeypatch, dump_work):
    """Rejected before any sampling, and nothing is written outside the output directory."""
    escaped = tmp_path / "escaped.csv"
    monkeypatch.setattr(cli.classical, "classical_j_expectation", lambda *a: pytest.fail("sampled"))
    out = tmp_path / "out"
    code, report = run_cli(capsys, "--output-dir", str(out), "classical", "--n", "100", "--dump-work",
                           str(escaped) if dump_work == "ESCAPED" else dump_work)
    assert code == 2
    assert report["error_type"] == "ValidationError"
    assert report["error"].startswith("dump_work = ")
    assert not escaped.exists() and not out.exists()


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
    (["verify", "--n-models", "-2"], "n_per_family = -2"),
    (["verify", "--n-models", "0"], "n_per_family = 0"),
    (["verify", "--n-models", "1", "--families", ""], "unknown families ['']"),
    (["verify", "--n-models", "1", "--families", "grand_canonical,grand_canonical"],
     "families ['grand_canonical'] are listed more than once"),
    (["classical", "--protocol", "ramp", "--steps", "0"], "steps = 0"),
    (["classical", "--protocol", "ramp", "--omega0", "1e-200", "--n", "100"], "omega = 1e-200"),
    (["classical", "--protocol", "quench", "--omega0", "1e-200", "--n", "100"], "omega = 1e-200"),
    (["classical", "--beta", "1e-310", "--n", "100"], "beta = 1e-310"),
    (["wavepacket", "--t-grid", ","], "t_grid = ','"),
    (["wavepacket", "--t-grid", ""], "t_grid = ''"),
    (["wavepacket", "--t-grid", "1e-3,abc"], "t_grid = '1e-3,abc': could not convert string to float: 'abc'"),
    (["wavepacket", "--t-grid", "nan"], "t = nan"),
    (["wavepacket", "--t-grid", "inf"], "t = inf"),
    (["wavepacket", "--t-grid=-inf"], "t = -inf"),
    (["wavepacket", "--t-grid", "0"], "t = 0.0"),
    (["wavepacket", "--t-grid", "0.01,-0.5"], "t = -0.5"),
    (["wavepacket", "--sigma", "nan"], "sigma = nan"),
    (["wavepacket", "--sigma", "-1"], "sigma = -1.0"),
    (["wavepacket", "--n-x", "0"], "n_x = 0"),
    (["wavepacket", "--n-p", "0"], "n_p = 0"),
    (["wavepacket", "--mass-tolerance", "nan"], "mass_tolerance = nan"),
], ids=["classical-seed", "verify-seed", "verify-n-models-negative", "verify-n-models-zero", "verify-empty-families",
        "verify-repeated-families",
        "ramp-steps", "ramp-omega0-tiny", "quench-omega0-tiny", "beta-tiny", "wavepacket-empty-grid",
        "wavepacket-blank-grid", "wavepacket-t-grid-non-numeric", "wavepacket-t-nan", "wavepacket-t-inf", "wavepacket-t-neginf",
        "wavepacket-t-zero", "wavepacket-t-negative", "wavepacket-sigma-nan", "wavepacket-sigma-negative",
        "wavepacket-n-x-zero", "wavepacket-n-p-zero", "wavepacket-mass-tolerance-nan"])
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
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({"model": MODEL, "q": [0.4, 0.6]}))
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

# command -> (arguments, artifact files, the tolerance that -1 makes fail: a flag, or a (module, constant))
EPILOGUE_CASES = {
    "verify": (["--n-models", "1", "--families", "grand_canonical"], [], "--tolerance"),
    "ensemble": (["--config", "GRAND"], ["exponent_histogram.csv", "work_histogram.csv"], "--tolerance"),
    "wavepacket": (["--t-grid", "0.004,0.02", "--n-x", "4", "--n-p", "48",
                    "--kernel-halfwidth", "10", "--mass-tolerance", "0.1"],
                   ["entropy_curve.csv"], (cli, "PAIR_TOL")),
    "classical": (["--n", "1000", "--dump-work", "w.csv"], ["w.csv"], (classical, "JACOBIAN_TOL")),
    "crooks": (["--config", "GRAND"], ["crooks_levels.csv"], "--tol-ratio"),
}


@pytest.mark.parametrize("failing", [False, True], ids=["passing", "failing"])
@pytest.mark.parametrize("command", list(EPILOGUE_CASES))
def test_every_command_persists_the_printed_report_and_its_artifacts(tmp_path, capsys, monkeypatch,
                                                                     command, failing):
    args, artifacts, tolerance = EPILOGUE_CASES[command]
    grand = str(write_grand_config(tmp_path))
    argv = [grand if a == "GRAND" else a for a in args]
    if failing and isinstance(tolerance, tuple):
        monkeypatch.setattr(*tolerance, -1.0)
    elif failing:
        argv += [tolerance, "-1"]
    out = tmp_path / "out"
    code = main(["--output-dir", str(out), command, *argv])
    printed = capsys.readouterr().out
    report = json.loads(printed)
    assert report["passed"] is not failing
    assert code == (0 if report["passed"] else 1)
    assert (out / f"{command}_report.json").read_text() == printed
    assert sorted(p.name for p in out.iterdir()) == sorted([f"{command}_report.json", *artifacts])


def _keys(node):
    """Every key of a JSON document, at any depth."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield key
            yield from _keys(value)
    elif isinstance(node, list):
        for value in node:
            yield from _keys(value)


@pytest.mark.parametrize("command", ["ensemble", "wavepacket", "crooks", "classical"])
def test_each_table_is_written_once_as_a_csv_artifact(tmp_path, capsys, command):
    """The report holds no table, and ``meta.artifacts`` names each CSV with its data rows."""
    args, artifacts, _ = EPILOGUE_CASES[command]
    grand = write_grand_config(tmp_path)
    out = tmp_path / "out"
    code, report = run_cli(capsys, "--output-dir", str(out), command,
                           *[str(grand) if a == "GRAND" else a for a in args])
    assert code == 0
    assert not {"work_histogram", "exponent_histogram", "curve"} & set(_keys(report))
    assert sorted(report["meta"]["artifacts"]) == sorted(artifacts)
    for name, rows in report["meta"]["artifacts"].items():
        assert len((out / name).read_text().splitlines()) == 1 + rows > 1
    if command == "ensemble":
        rep = cli._ensemble_report(json.loads(grand.read_text()))
        lines = (out / "exponent_histogram.csv").read_text().splitlines()[1:]
        values, probs = np.array([[float(c) for c in line.split(",")[:2]] for line in lines]).T
        np.testing.assert_array_equal(values, rep.exponent_histogram.values)
        np.testing.assert_array_equal(probs, rep.exponent_histogram.probs)


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
