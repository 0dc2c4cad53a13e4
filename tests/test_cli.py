"""Command-line surface: artifacts, exit codes, determinism."""

import ast
import concurrent.futures
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import filtermaps.cli as cli
import filtermaps.gaussian
from filtermaps import filters, model, verify
from filtermaps.density import MIN_POINTS, GridDensity
from filtermaps.filters import FilterStepError
from filtermaps.verify import PropertyResult


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
    assert meta["config"]["out"] == str(out1)  # the directory written, not the config's

    assert cli.main(["run", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "steps.csv").read_bytes() == (out2 / "steps.csv").read_bytes()
    assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()

    # the linear scenario runs as well, here on a small grid
    linear = _write_config(tmp_path / "linear.json", scenario="linear_1d", J=2, state_points=64,
                           y_points=32)
    assert cli.main(["run", "--config", linear, "--out", str(tmp_path / "linear")]) == 0
    meta = json.loads((tmp_path / "linear" / "metadata.json").read_text())
    assert meta["config"]["scenario"] == "linear_1d"
    assert meta["model_fingerprint"] == model.fingerprint(model.linear_model_1d())


def test_run_zero_steps(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", J=0)
    out = tmp_path / "r0"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "steps.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2  # one initial-law row per kind
    assert all(r["step"] == "0" for r in rows)


def test_steps_csv_layout(tmp_path):
    spec = model.bounded_model_1d()
    traj = filters.generate_data(spec, J=2, seed=2)
    kinds = ("true", "enkf_mf")

    def render(path):
        results = filters.run_filter(kinds, spec, traj,
                                     config=filters.FilterConfig(state_shape=(256,), y_points=128))
        cli._write_steps(results, path)
        return path.read_bytes()

    first = render(tmp_path / "a.csv")
    lines = first.decode().strip().split("\n")
    assert lines[0] == "step,kind,mean_0,cov_0_0,eps,dg_to_true"
    assert len(lines) == 1 + len(kinds) * (traj.J + 1)
    step0 = lines[1].split(",")
    assert step0[0] == "0" and step0[1] == "true"
    assert step0[4] == ""  # no lifted joint before the first step
    assert float(step0[5]) == 0.0
    assert first == render(tmp_path / "b.csv")


def test_run_saves_loadable_densities(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", J=1, kinds=["true"], save_densities=True)
    out = tmp_path / "dens"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    for step in (0, 1):
        with np.load(out / f"density_true_step{step}.npz") as saved:
            mu = GridDensity(saved["box_lo"], saved["box_hi"], saved["values"])
        assert mu.shape == (256,)
        assert mu.values.min() >= 0.0


def test_seed_and_resolution_overrides(tmp_path):
    # the seed and the state resolution are set in the config, not by flags
    cfg = _write_config(tmp_path / "cfg.json")
    changed = _write_config(tmp_path / "changed.json", seed=9, state_points=128)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "--config", changed, "--out", str(out1)]) == 0
    meta = json.loads((out1 / "metadata.json").read_text())
    assert meta["seed"] == 9
    assert meta["config"]["state_points"] == 128
    assert cli.main(["run", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "steps.csv").read_bytes() != (out2 / "steps.csv").read_bytes()
    for flag in ("--seed", "--resolution"):
        with pytest.raises(SystemExit) as flag_exit:
            cli.main(["run", "--config", cfg, flag, "9"])
        assert flag_exit.value.code == 2


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


def test_sweep_scenario_defaults_to_sweep(tmp_path):
    # "sweep" is the only scenario a sweep takes, so its config may leave it out
    common = {"J": 1, "seed": 1, "deltas": [0.0], "state_points": 128, "y_points": 64}
    outs = {}
    for name, raw in (("implicit", common), ("explicit", dict(common, scenario="sweep"))):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(raw))
        outs[name] = tmp_path / name
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(outs[name])]) == 0
    implicit, explicit = (outs[name] / "sweep.csv" for name in ("implicit", "explicit"))
    assert implicit.read_bytes() == explicit.read_bytes()
    meta = json.loads((outs["implicit"] / "metadata.json").read_text())
    assert meta["config"]["scenario"] == "sweep"


def test_sweep_rejects_bad_delta_lists(tmp_path, capsys):
    out = tmp_path / "out"
    unsorted_cfg = _write_config(tmp_path / "u.json", scenario="sweep", deltas=[0.2, 0.1])
    assert cli.main(["sweep", "--config", unsorted_cfg, "--out", str(out)]) == 2
    empty_cfg = _write_config(tmp_path / "e.json", scenario="sweep", deltas=[])
    assert cli.main(["sweep", "--config", empty_cfg, "--out", str(out)]) == 2
    # a repeated delta would measure one point twice and count its 0 increment as monotone
    repeated_cfg = _write_config(tmp_path / "r.json", scenario="sweep", deltas=[0.1, 0.1, 0.2])
    capsys.readouterr()
    assert cli.main(["sweep", "--config", repeated_cfg, "--out", str(out)]) == 2
    assert "'deltas'" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("command, J", [("run", 10**30), ("sweep", 10**30),
                                        ("run", cli.MAX_J + 1)])
def test_config_rejects_too_many_steps_before_any_data(tmp_path, monkeypatch, capsys,
                                                       command, J):
    def no_data(*args):
        raise AssertionError("no data may be simulated")

    monkeypatch.setattr(filters, "generate_data", no_data)
    cfg = _write_config(tmp_path / "cfg.json", scenario="sweep", J=J, kinds=["true"],
                        **({"deltas": [0.0, 0.2]} if command == "sweep" else {}))
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert f"'J' must be at most {cli.MAX_J}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_rejects_zero_steps_before_the_pool(tmp_path, monkeypatch, capsys):
    # run accepts J = 0 (test_run_zero_steps); a sweep point has no drift to measure
    def no_pool(max_workers):
        raise AssertionError("the pool must not start")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    cfg = _write_config(tmp_path / "j0.json", scenario="sweep", J=0, deltas=[0.0, 0.2])
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "'J'" in capsys.readouterr().err
    assert not (tmp_path / "out" / "sweep.csv").exists()


def test_sweep_pool_is_sized_by_the_usable_cpus(tmp_path, monkeypatch):
    # under taskset or a cpuset the process may use fewer CPUs than cpu_count
    workers = []

    def no_pool(max_workers):
        workers.append(max_workers)
        raise OSError("no process pool")

    monkeypatch.setattr(verify.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(verify, "_sweep_row", lambda delta, *rest: dict(
        delta=delta, eps_measured=0.1 + delta, err_enkf=delta, err_gpf=delta))
    cfg = _write_config(tmp_path / "sweep.json", scenario="sweep", deltas=[0.0, 0.1, 0.2])
    for cpus, started in (({0}, []), ({0, 1}, [2])):
        monkeypatch.setattr(verify.os, "sched_getaffinity", lambda pid: cpus, raising=False)
        workers.clear()
        out = tmp_path / f"out{len(cpus)}"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        assert workers == started  # one usable CPU runs the points in-process, with no pool
        assert len((out / "sweep.csv").read_text().splitlines()) == 4


def test_sweep_pool_and_serial_fallback_write_the_same_bytes(tmp_path, monkeypatch):
    monkeypatch.setattr(verify.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    cfg = _write_config(tmp_path / "sweep.json", scenario="sweep", deltas=[0.0, 0.2],
                        J=2, state_points=128, y_points=64)
    pooled, serial = tmp_path / "pooled", tmp_path / "serial"
    assert cli.main(["sweep", "--config", cfg, "--out", str(pooled)]) == 0

    def no_pool(max_workers):
        raise OSError("no process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert cli.main(["sweep", "--config", cfg, "--out", str(serial)]) == 0
    assert (pooled / "sweep.csv").read_bytes() == (serial / "sweep.csv").read_bytes()


def test_failing_sweep_point_writes_error_json_from_the_pool(tmp_path, monkeypatch):
    # the step failure crosses back from its worker, so the pool stays whole and
    # no point reruns in-process; each point logs its process and delta
    monkeypatch.setattr(verify.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    log = tmp_path / "calls.log"
    real = filters.run_filter

    def failing_at_0_1(kinds, spec, traj, config, **kwargs):
        delta = spec.psi.params["delta"]
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {delta}\n")
        if delta == 0.1:
            raise FilterStepError(2, "enkf_mf", ValueError("synthetic failure"))
        return real(kinds, spec, traj, config, **kwargs)

    monkeypatch.setattr(filters, "run_filter", failing_at_0_1)
    cfg = _write_config(tmp_path / "sweep.json", scenario="sweep", deltas=[0.0, 0.1],
                        J=2, state_points=128, y_points=64)
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 1
    record = json.loads((out / "error.json").read_text())["error"]
    assert (record["type"], record["step"], record["kind"], record["delta"]) == \
        ("FilterStepError", 2, "enkf_mf", 0.1)
    assert "synthetic failure" in record["message"]
    assert not (out / "sweep.csv").exists()
    calls = [line.split() for line in log.read_text().splitlines()]
    assert sorted(delta for _, delta in calls) == ["0.0", "0.1"]
    assert all(int(pid) != os.getpid() for pid, _ in calls)


def test_sweep_metadata_checks_agree_with_verify(tmp_path):
    # the CLI summary and the verify checks read one helper with one tolerance
    cfg = _write_config(tmp_path / "sweep.json", scenario="sweep", deltas=[0.0, 0.2],
                        J=2, state_points=128, y_points=64)
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "sweep.csv", newline="") as fh:
        rows = [{k: float(v) for k, v in r.items()} for r in csv.DictReader(fh)]
    meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
    assert meta["config"]["out"] == str(tmp_path / "out")
    assert meta["config"]["kinds"] == list(verify.SWEEP_KINDS)
    assert not {"delta", "model", "n_particles", "save_densities"} & set(meta["config"])
    checks = meta["checks"]
    assert checks == verify.sweep_checks(rows)
    assert set(checks) == {"monotone_err_enkf", "monotone_err_gpf", "max_err_over_eps"}
    assert checks["monotone_err_enkf"] and checks["monotone_err_gpf"]
    # a decrease within the slack still counts as monotone, one beyond it does not
    def lowered(decrease):
        return [rows[0], dict(rows[1], err_gpf=rows[0]["err_gpf"] - decrease)]

    assert verify.sweep_checks(lowered(0.5 * verify.MONOTONE_SLACK))["monotone_err_gpf"]
    assert not verify.sweep_checks(lowered(2 * verify.MONOTONE_SLACK))["monotone_err_gpf"]


def test_config_defaults_round_trip_to_metadata():
    # metadata records the keys a subcommand reads, and a sweep the kinds it runs
    swept = cli.ExperimentConfig.from_dict({"scenario": "sweep"})
    assert swept.to_dict("sweep") == {
        "scenario": "sweep", "J": 10, "seed": 0,
        "kinds": list(verify.SWEEP_KINDS), "state_points": None, "y_points": None,
        "deltas": [0.0, 0.05, 0.1, 0.2, 0.3], "out": "results",
    }
    assert swept.to_dict("run") == {
        "scenario": "sweep", "delta": 0.0, "model": None, "J": 10, "seed": 0,
        "kinds": ["true", "enkf_mf", "gpf_bg", "gpf_gt"], "state_points": None,
        "y_points": None, "n_particles": 1000, "save_densities": False, "out": "results",
    }
    bounded = cli.ExperimentConfig.from_dict({"scenario": "bounded_1d"}).to_dict("run")
    assert "delta" not in bounded and "deltas" not in bounded


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

    # a model the grid kinds cannot run on is a config error before any step,
    # by the rule run_filter applies (d in {1, 2}, K = 1)
    for name, dims, h in (("k2", (1, 2), [[1.0], [0.5]]), ("d3", (3, 1), [[1.0, 0.0, 0.0]])):
        d, K = dims
        spec = model.ModelSpec(d=d, K=K, psi=model.MapSpec("tanh", {"scale": 0.9}),
                               h=model.MapSpec("linear", {"matrix": h}),
                               Sigma=0.25 * np.eye(d), Gamma=0.25 * np.eye(K),
                               m0=np.zeros(d), S0=np.eye(d))
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({"model": model.to_config(spec), "J": 1, "kinds": ["true"]}))
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / name)]) == 2
        assert "grid filter kinds" in capsys.readouterr().err
        # sweep names its scenario rule before the kinds are checked against the model
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / name)]) == 2
        assert "sweep runs only the 'sweep' scenario" in capsys.readouterr().err

    # a key the subcommand does not read is named, not silently ignored
    unread = (
        ("sweep", "delta", dict(scenario="sweep", delta=0.3)),
        ("sweep", "n_particles", dict(scenario="sweep", n_particles=5)),
        ("sweep", "save_densities", dict(scenario="sweep", save_densities=True)),
        ("sweep", "kinds", dict(scenario="sweep", kinds=["enkf_N"])),
        ("run", "deltas", dict(deltas=[0.0, 0.1])),
        ("run", "delta", dict(delta=0.3)),
    )
    for command, key, overrides in unread:
        cfg = _write_config(tmp_path / f"{command}_{key}.json", **overrides)
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "unread")]) == 2
        assert f"'{key}'" in capsys.readouterr().err
    assert not (tmp_path / "unread").exists()
    # the sweep's own kinds, or a subset, and delta with the sweep scenario are read
    full = _write_config(tmp_path / "full.json", scenario="sweep", deltas=[0.0, 0.1],
                         kinds=list(verify.SWEEP_KINDS))
    assert cli.load_config("sweep", full).kinds == verify.SWEEP_KINDS
    swept = _write_config(tmp_path / "swept.json", scenario="sweep", delta=0.3)
    assert cli.load_config("run", swept).delta == 0.3

    # malformed values are config errors naming the key, not tracebacks or
    # silent coercions (a kinds string used to be split into characters)
    # and so are values of the right type that a rule rejects
    for key, value in (("J", "ten"), ("state_points", "64"), ("kinds", "true"), ("out", None),
                       ("seed", -1), ("scenario", "nope"), ("J", -1),
                       ("state_points", MIN_POINTS - 1), ("y_points", MIN_POINTS - 1),
                       ("n_particles", 1)):
        bad = _write_config(tmp_path / f"{key}.json", **{key: value})
        assert cli.main(["run", "--config", bad]) == 2
        assert f"'{key}'" in capsys.readouterr().err

    # a grid or an ensemble too large to allocate is named before any array is
    # made; each of these ended in numpy's allocation error, exit 1
    oversized = (
        ("sweep", "y_points", {"scenario": "sweep", "J": 2, "y_points": 10**12,
                               "deltas": [0.0, 0.1]}),
        ("run", "state_points", {"scenario": "bounded_1d", "J": 1, "state_points": 10**8,
                                 "kinds": ["true"]}),
        ("run", "n_particles", {"scenario": "linear_1d", "J": 1, "n_particles": 10**11,
                                "kinds": ["enkf_N"]}),
    )
    for command, key, raw in oversized:
        cfg = tmp_path / f"oversized_{key}.json"
        cfg.write_text(json.dumps(raw))
        assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "big")]) == 2
        assert f"'{key}'" in capsys.readouterr().err
    assert not (tmp_path / "big").exists()
    not_object = tmp_path / "list.json"
    not_object.write_text("[]")
    assert cli.main(["run", "--config", str(not_object)]) == 2
    assert "config root" in capsys.readouterr().err

    # a misspelt key of an inline model, or a map parameter its family does
    # not take, is named instead of silently falling back to a default
    inline = model.to_config(model.sweep_model(0.2))
    typos = (
        ("sigmaa", dict(inline, sigmaa=[[0.25]])),
        ("bounds", dict(inline, bounds={"kappa_h": 2.0})),
        ("radious", dict(inline, h={"family": "tanh", "params": {"scale": 1.0, "radious": 32.0}})),
        ("params", dict(inline, h={"family": "tanh", "params": [1.0]})),
    )
    for name, cfg_model in typos:
        typo = tmp_path / f"{name}.json"
        typo.write_text(json.dumps({"model": cfg_model, "J": 1}))
        assert cli.main(["run", "--config", str(typo), "--out", str(tmp_path / name)]) == 2
        assert f"'{name}'" in capsys.readouterr().err

    # json reads NaN, Infinity and overflowing literals such as 1e999; each is
    # named as a config error instead of failing later in a step or a pool worker
    nonfinite = (
        ("run", '{"scenario": "sweep", "J": 1, "delta": NaN}', "NaN"),
        ("run", '{"scenario": "sweep", "J": 1, "delta": 1e999}', "1e999"),
        ("run", '{"scenario": "sweep", "J": 1, "delta": -Infinity}', "-Infinity"),
        ("sweep", '{"scenario": "sweep", "J": 1, "deltas": [0.0, Infinity]}', "Infinity"),
        ("run", json.dumps({"model": dict(inline, m0=[float("nan")]), "J": 1}), "NaN"),
    )
    for i, (command, text, literal) in enumerate(nonfinite):
        cfg = tmp_path / f"nonfinite{i}.json"
        cfg.write_text(text)
        assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "nonfinite")]) == 2
        assert f"non-finite number: {literal}" in capsys.readouterr().err
    assert not (tmp_path / "nonfinite").exists()

    # an integer literal too large for a float is a config error naming its key
    huge = "1" + "0" * 400
    overflow = (
        ("run", "delta", '{"scenario": "sweep", "J": 1, "delta": %s}' % huge),
        ("sweep", "deltas", '{"scenario": "sweep", "J": 1, "deltas": [0.0, %s]}' % huge),
    )
    for i, (command, key, text) in enumerate(overflow):
        cfg = tmp_path / f"overflow{i}.json"
        cfg.write_text(text)
        assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "overflow")]) == 2
        assert f"'{key}'" in capsys.readouterr().err
    assert not (tmp_path / "overflow").exists()


def test_sweep_rejects_a_model_other_than_the_sweep_family(tmp_path, capsys):
    # sweep always runs sweep_model(delta); another scenario or an inline model
    # would otherwise be ignored without a word
    out = tmp_path / "out"
    linear = _write_config(tmp_path / "linear.json", scenario="linear_1d", deltas=[0.0])
    assert cli.main(["sweep", "--config", linear, "--out", str(out)]) == 2
    assert "'scenario'" in capsys.readouterr().err
    inline = tmp_path / "inline.json"
    inline.write_text(json.dumps({"model": model.to_config(model.sweep_model(0.0)), "deltas": [0.0]}))
    assert cli.main(["sweep", "--config", str(inline), "--out", str(out)]) == 2
    assert "'model'" in capsys.readouterr().err
    assert not out.exists()


def test_verify_subcommand_reports_and_exit_codes(tmp_path, capsys):
    out = tmp_path / "report"
    assert cli.main(["verify", "--suite", "model", "--out", str(out)]) == 0
    assert (out / "verify_report.csv").exists()
    assert (out / "metadata.json").exists()
    # a negative seed is a config error before any check runs or any file is written
    rejected = tmp_path / "rejected"
    assert cli.main(["verify", "--suite", "gaussian", "--seed", "-1", "--out", str(rejected)]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not rejected.exists()


def _verify_report(tmp_path, monkeypatch, results) -> list[dict]:
    """The rows of the verify_report.csv that ``verify --out`` writes for ``results``."""
    monkeypatch.setattr(verify, "run_suites", lambda names, seed: results)
    cli.main(["verify", "--out", str(tmp_path)])
    with open(tmp_path / "verify_report.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def test_verify_report_roundtrip(tmp_path, monkeypatch):
    detail = """error: ValueError("unknown filter kind 'x'"), then more"""
    results = verify.run_suites(["model"], seed=0)
    results.append(PropertyResult("filters", "quoted", math.nan, math.nan, detail=detail))
    rows = _verify_report(tmp_path, monkeypatch, results)
    assert len(rows) == len(results)
    assert rows[0]["suite"] == "model"
    assert rows[0]["passed"] in ("0", "1")
    assert rows[0]["relation"] in ("<=", ">=")
    float(rows[0]["measured"])  # numeric columns parse
    assert rows[-1]["detail"] == detail
    assert rows[-1]["passed"] == "0"


def _rejudge(row: dict) -> bool:
    measured, bound = float(row["measured"]), float(row["bound"])
    return measured <= bound if row["relation"] == "<=" else measured >= bound


def test_report_rows_rejudge_to_their_passed_column(tmp_path, monkeypatch):
    results = verify.run_suites(["density", "model"], seed=0)
    rows = _verify_report(tmp_path, monkeypatch, results)
    assert len(rows) == len(results) == len(verify.SUITES["density"]) + len(verify.SUITES["model"])
    for row in rows:
        assert _rejudge(row) == (row["passed"] == "1"), row


#: Calls that write a file, as (module, function) or (builtin,).
_FILE_WRITERS = {("open",), ("np", "save"), ("np", "savez"), ("np", "savez_compressed"),
                 ("csv", "writer"), ("json", "dump")}


def test_only_cli_writes_files():
    # the library computes and cli writes: every file format lives in one module
    calls = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            func = getattr(node, "func", None)
            if isinstance(func, ast.Name):
                name = (func.id,)
            elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                name = (func.value.id, func.attr)
            else:
                continue
            if name in _FILE_WRITERS:
                calls.append(f"{path.name}:{node.lineno} {'.'.join(name)}")
    assert calls == []


def test_only_verify_starts_processes():
    # one engine runs every table of sweep points: the pool lives in verify.sweep_rows
    named = set()
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = [getattr(node, "id", None), getattr(node, "attr", None)]
            names += [alias.name for alias in getattr(node, "names", [])
                      if isinstance(alias, ast.alias)]
            if "ProcessPoolExecutor" in names:
                named.add(path.name)
    assert named == {"verify.py"}


def test_only_density_builds_densities_without_their_constructor():
    # GridDensity(...) copies and validates; the no-copy builds stay in density,
    # and the maps normalize through the public `normalized`
    found = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if path.name != "density.py":
                names = [getattr(node, "id", None), getattr(node, "attr", None)]
                names += [alias.name for alias in getattr(node, "names", [])
                          if isinstance(alias, ast.alias)]
                if "_LiftedJoint" in names:
                    found.append(f"{path.name}:{node.lineno} names _LiftedJoint")
                if (isinstance(node, ast.Attribute) and node.attr == "__new__"
                        and ast.unparse(node.value).split(".")[-1] in ("GridDensity", "_LiftedJoint")):
                    found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
            if (path.name == "operators.py" and isinstance(node, ast.ImportFrom)
                    and node.module == "density"):
                found += [f"operators.py:{node.lineno} imports {alias.name}" for alias in node.names
                          if alias.name.startswith("_normalized")]
    assert found == []


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


def test_package_imports_without_scipy():
    # numpy is the only runtime dependency; scipy alone would add about a
    # third of a second to every CLI call and worker start-up
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, filtermaps, filtermaps.cli, filtermaps.verify; print('scipy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_a_process_that_starts_no_pool_loads_no_pool_modules():
    # verify imports the process pool inside sweep_rows, where it starts one;
    # a one-point sweep runs in-process, so multiprocessing never loads
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, filtermaps.cli, filtermaps.verify as verify\n"
            "from filtermaps.filters import FilterConfig\n"
            "verify.measure_sweep([0.2], J=1, config=FilterConfig(seed=0, state_shape=(64,), y_points=32))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
