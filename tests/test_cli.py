"""Command-line surface: artifacts, exit codes, determinism."""

import csv
import json
import os

import pytest

import filtermaps.cli as cli
import filtermaps.gaussian
from filtermaps.density import load_binary
from filtermaps.filters import FilterStepError


def _write_config(path, **overrides):
    raw = {
        "scenario": "bounded_1d",
        "J": 3,
        "seed": 1,
        "kinds": ["true", "enkf_mf"],
        "state_points": 256,
        "y_points": 128,
    }
    raw.update(overrides)
    with open(path, "w") as fh:
        json.dump(raw, fh)
    return str(path)


def _read_summary(path):
    with open(path, newline="") as fh:
        return {(r["quantity"], r["kind"]): float(r["value"]) for r in csv.DictReader(fh)}


def test_run_writes_artifacts_and_is_deterministic(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli.main(["run", "--config", cfg, "--out", str(out1)]) == 0
    for name in ("steps.csv", "summary.csv", "metadata.json"):
        assert (out1 / name).exists()
    meta = json.loads((out1 / "metadata.json").read_text())
    assert meta["seed"] == 1
    assert "model_fingerprint" in meta

    assert cli.main(["run", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "steps.csv").read_bytes() == (out2 / "steps.csv").read_bytes()
    assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()


def test_run_zero_steps(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", J=0)
    out = tmp_path / "r0"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "steps.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2  # one initial-law row per kind
    assert all(r["step"] == "0" for r in rows)


def test_run_saves_loadable_densities(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", J=1, kinds=["true"], save_densities=True)
    out = tmp_path / "dens"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    for step in (0, 1):
        mu = load_binary(out / f"density_true_step{step}.bin")
        assert mu.shape == (256,)
        assert mu.values.min() >= 0.0


def test_seed_and_resolution_overrides(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "--config", cfg, "--out", str(out1), "--seed", "9",
                     "--resolution", "128"]) == 0
    meta = json.loads((out1 / "metadata.json").read_text())
    assert meta["seed"] == 9
    assert meta["config"]["state_points"] == 128
    assert cli.main(["run", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "steps.csv").read_bytes() != (out2 / "steps.csv").read_bytes()


def test_unwritable_out_dir_exits_2_without_partial_files(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json")
    blocker = tmp_path / "blocker"
    blocker.write_text("")  # a file where a directory would be needed
    target = blocker / "sub"
    assert cli.main(["run", "--config", cfg, "--out", str(target)]) == 2
    assert not target.exists()


def test_step_failure_writes_error_json(tmp_path, monkeypatch):
    def exploding(*args, **kwargs):
        raise FilterStepError(2, "true", ValueError("synthetic failure"))

    monkeypatch.setattr(cli.filters, "run_filter", exploding)
    cfg = _write_config(tmp_path / "cfg.json")
    out = tmp_path / "failed"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 1
    record = json.loads((out / "error.json").read_text())
    assert record["error"]["step"] == 2
    assert record["error"]["kind"] == "true"
    assert not (out / "steps.csv").exists()


def test_single_delta_sweep_matches_run(tmp_path):
    common = dict(J=4, seed=3, state_points=256, y_points=128)
    sweep_cfg = _write_config(tmp_path / "sweep.json", scenario="sweep",
                              deltas=[0.1], **common)
    run_cfg = _write_config(tmp_path / "run.json", scenario="sweep", delta=0.1,
                            kinds=["true", "enkf_mf", "gpf_bg"], **common)
    sweep_out, run_out = tmp_path / "sweep", tmp_path / "run"
    assert cli.main(["sweep", "--config", sweep_cfg, "--out", str(sweep_out)]) == 0
    assert cli.main(["run", "--config", run_cfg, "--out", str(run_out)]) == 0

    with open(sweep_out / "sweep.csv", newline="") as fh:
        row = list(csv.DictReader(fh))[0]
    summary = _read_summary(run_out / "summary.csv")
    assert float(row["delta"]) == 0.1
    assert float(row["eps_measured"]) == summary[("eps_measured", "true")]
    assert float(row["err_enkf"]) == summary[("max_dg", "enkf_mf_vs_true")]
    assert float(row["err_gpf"]) == summary[("max_dg", "gpf_bg_vs_true")]


def test_sweep_rejects_bad_delta_lists(tmp_path):
    out = tmp_path / "out"
    unsorted_cfg = _write_config(tmp_path / "u.json", scenario="sweep", deltas=[0.2, 0.1])
    assert cli.main(["sweep", "--config", unsorted_cfg, "--out", str(out)]) == 2
    empty_cfg = _write_config(tmp_path / "e.json", scenario="sweep", deltas=[])
    assert cli.main(["sweep", "--config", empty_cfg, "--out", str(out)]) == 2


def test_config_validation_exit_codes(tmp_path, capsys):
    assert cli.main(["run", "--config", str(tmp_path / "missing.json")]) == 2

    bad_key = tmp_path / "bad.json"
    bad_key.write_text('{"scenario": "bounded_1d", "typo": 1}')
    assert cli.main(["run", "--config", str(bad_key)]) == 2

    both = tmp_path / "both.json"
    both.write_text('{"scenario": "bounded_1d", "model": {"d": 1}}')
    assert cli.main(["run", "--config", str(both)]) == 2

    bad_kind = _write_config(tmp_path / "kind.json", kinds=["true", "smoother"])
    assert cli.main(["run", "--config", bad_kind]) == 2

    # a repeated kind would assimilate each datum twice into one steps.csv
    repeated = _write_config(tmp_path / "repeat.json", kinds=["true", "true"])
    assert cli.main(["run", "--config", repeated]) == 2

    # malformed values are config errors naming the key, not tracebacks or
    # silent coercions (a kinds string used to be split into characters)
    for key, value in (("J", "ten"), ("state_points", "64"), ("kinds", "true")):
        bad = _write_config(tmp_path / f"{key}.json", **{key: value})
        assert cli.main(["run", "--config", bad]) == 2
        assert f"'{key}'" in capsys.readouterr().err


def test_verify_subcommand_reports_and_exit_codes(tmp_path):
    out = tmp_path / "report"
    assert cli.main(["verify", "--suite", "model", "--out", str(out)]) == 0
    assert (out / "verify_report.csv").exists()
    assert (out / "metadata.json").exists()


def test_verify_fails_under_mutation(monkeypatch):
    real = filtermaps.gaussian.condition

    def flipped(g, blocks, y_dagger):
        fine = real(g, blocks, y_dagger)
        return filtermaps.gaussian.GaussianMeasure(-fine.mean, fine.cov)

    monkeypatch.setattr(filtermaps.gaussian, "condition", flipped)
    assert cli.main(["verify", "--suite", "gaussian"]) == 1


def test_argparse_exit_codes():
    with pytest.raises(SystemExit) as help_exit:
        cli.main(["--help"])
    assert help_exit.value.code == 0
    with pytest.raises(SystemExit) as flag_exit:
        cli.main(["run", "--bogus"])
    assert flag_exit.value.code == 2
    with pytest.raises(SystemExit) as suite_exit:
        cli.main(["verify", "--suite", "nope"])
    assert suite_exit.value.code == 2
