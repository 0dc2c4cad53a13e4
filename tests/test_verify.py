"""Property-check harness: suites run, failures surface, reports serialize."""

import concurrent.futures
import math
import os
import tracemalloc
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import filtermaps.density as density
import filtermaps.filters
import filtermaps.gaussian
import filtermaps.verify as verify
from filtermaps.filters import FilterConfig
from filtermaps.model import MapSpec, ModelSpec, bounded_model_1d, linear_model_1d, sweep_model
from filtermaps.operators import OperatorWorkspace
from filtermaps.verify import (
    PropertyResult,
    SUITE_NAMES,
    SUITES,
    check_conditioning_matches_bayes,
    check_eps_scaling,
    check_data_inside_axis,
    run_suites,
    validate_assumptions,
)


def test_suite_registry_is_complete():
    assert set(SUITES) == set(SUITE_NAMES)
    for checks in SUITES.values():
        assert len(checks) > 0


def test_model_suite_passes():
    results = run_suites(["model"], seed=0)
    assert len(results) == len(SUITES["model"])
    assert all(r.passed for r in results)
    for r in results:
        assert r.suite == "model"
        assert r.seconds >= 0.0
        assert "PASS" in r.line()


def test_unknown_suite_rejected(monkeypatch):
    called = []

    def spy(seed):
        called.append(seed)
        return PropertyResult("gaussian", "spy", 0.0, 1.0)

    monkeypatch.setitem(SUITES, "gaussian", (spy,))
    with pytest.raises(ValueError, match="chebyshev"):
        run_suites(["gaussian", "chebyshev"], seed=0)
    assert called == []


def test_result_line_format():
    r = PropertyResult("gaussian", "pinsker", 1.25, 1.0, detail="worst pair 7")
    line = r.line()
    assert not r.passed
    assert "FAIL" in line and "pinsker" in line and "gaussian" in line
    assert "measured=1.25 <= bound=1" in line


def test_verdict_follows_relation_and_nan_never_passes():
    assert PropertyResult("s", "n", 1.0, 1.0, "<=").passed
    assert PropertyResult("s", "n", 1.0, 1.0, ">=").passed
    assert not PropertyResult("s", "n", 2.0, 1.0, "<=").passed
    assert not PropertyResult("s", "n", 0.5, 1.0, ">=").passed
    for relation in ("<=", ">="):
        assert not PropertyResult("s", "n", math.nan, 1.0, relation).passed
    with pytest.raises(ValueError, match="relation"):
        PropertyResult("s", "n", 1.0, 1.0, "<")


def test_mutated_conditioning_is_caught(monkeypatch):
    # sanity: the check passes on the real implementation
    assert check_conditioning_matches_bayes(seed=0).passed

    real = filtermaps.gaussian.condition

    def flipped(g, blocks, y_dagger):
        out = real(g, blocks, y_dagger)
        return filtermaps.gaussian.GaussianMeasure(-out.mean, out.cov)

    monkeypatch.setattr(filtermaps.gaussian, "condition", flipped)
    assert not check_conditioning_matches_bayes(seed=0).passed


def test_data_axis_check_catches_a_short_axis(monkeypatch):
    result = check_data_inside_axis(seed=0)
    assert result.passed and result.measured >= 2.0

    real = filtermaps.filters.plan_workspace

    def short_axis(spec, traj, config=None):
        ws = real(spec, traj, config)
        # the largest datum sits on the upper edge of the data axis
        return OperatorWorkspace(spec, ws.state_lo, ws.state_hi, ws.state_shape,
                                 ws.y_axis[0], float(traj.data.max()), ws.y_axis.size)

    monkeypatch.setattr(filtermaps.filters, "plan_workspace", short_axis)
    result = check_data_inside_axis(seed=0)
    assert not result.passed and result.measured < 2.0


def test_failing_check_becomes_result_not_crash(monkeypatch):
    def boom(seed):
        raise RuntimeError("synthetic breakage")

    boom.__name__ = "check_boom"
    monkeypatch.setitem(SUITES, "model", [boom])
    results = run_suites(["model"], seed=0)
    assert len(results) == 1
    assert not results[0].passed
    assert "synthetic breakage" in results[0].detail


# -- assumption probes ------------------------------------------------------------


def test_validate_assumptions_bounded_model():
    results = validate_assumptions(bounded_model_1d())
    assert all(r.passed for r in results)
    assert not any("linear" in r.detail for r in results)
    names = {r.name for r in results}
    assert {"sigma_spd", "gamma_spd", "s0_spd", "psi_bounded", "h_bounded",
            "h_lipschitz"} <= names
    # the probe certificate stays below the declared bound
    for r in results:
        if r.name in ("psi_bounded", "h_bounded"):
            assert r.measured <= r.bound + 1e-9


def test_validate_assumptions_linear_mode():
    results = validate_assumptions(linear_model_1d())
    flagged = [r for r in results if not r.passed]
    assert {r.name for r in flagged} == {"psi_bounded", "h_bounded"}
    assert any("linear" in r.line().lower() for r in flagged)


def test_validate_assumptions_beyond_three_state_axes():
    # d = 4 probes round(10^4 ** (1/4)) = 10 points per axis
    eye = np.eye(4).tolist()
    model = ModelSpec(d=4, K=4, psi=MapSpec("tanh", {"scale": 0.9}), h=MapSpec("tanh", {"scale": 1.0}),
                      Sigma=eye, Gamma=eye, m0=[0.0] * 4, S0=eye)
    results = validate_assumptions(model)
    assert all(r.passed for r in results)
    assert {r.name for r in results} >= {"psi_bounded", "h_bounded", "h_lipschitz"}


def test_probe_reproducibility():
    r1 = validate_assumptions(sweep_model(0.2))
    r2 = validate_assumptions(sweep_model(0.2))
    for c1, c2 in zip(r1, r2):
        assert c1.passed == c2.passed
        assert c1.measured == c2.measured


# -- the sweep table engine -----------------------------------------------------

#: A tiny sweep grid: a point runs in a few milliseconds.
_TINY = FilterConfig(seed=1, state_shape=(128,), y_points=64)


def _log_point_pids(monkeypatch, log):
    """Make each sweep point append its process id and delta to the file ``log``."""
    real = filtermaps.filters.run_filter

    def logged(kinds, spec, traj, config, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {spec.psi.params['delta']}\n")
        return real(kinds, spec, traj, config, **kwargs)

    monkeypatch.setattr(filtermaps.filters, "run_filter", logged)
    return lambda: [line.split() for line in log.read_text().splitlines()]


def test_one_point_and_one_cpu_tables_run_in_the_calling_process(tmp_path, monkeypatch):
    calls = _log_point_pids(monkeypatch, tmp_path / "calls.log")
    monkeypatch.setattr(verify.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    list(verify.sweep_rows([(0.1, 1)], J=1, config=_TINY))
    monkeypatch.setattr(verify.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    list(verify.sweep_rows([(0.0, 1), (0.2, 1)], J=1, config=_TINY))
    assert calls() == [[str(os.getpid()), d] for d in ("0.1", "0.0", "0.2")]


def test_two_point_table_runs_in_workers_with_the_serial_rows(tmp_path, monkeypatch):
    calls = _log_point_pids(monkeypatch, tmp_path / "calls.log")
    points = [(0.2, 1), (0.0, 2)]  # not sorted: rows follow the points
    monkeypatch.setattr(verify.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    pooled = list(verify.sweep_rows(points, J=1, config=_TINY))
    assert sorted(delta for _, delta in calls()) == ["0.0", "0.2"]
    assert all(int(pid) != os.getpid() for pid, _ in calls())
    serial = [verify._sweep_row(delta, 1, seed, _TINY) for delta, seed in points]
    assert pooled == serial
    assert [row["delta"] for row in pooled] == [0.2, 0.0]


def test_a_broken_pool_runs_only_the_remaining_points_in_process(monkeypatch):
    ran = []

    def fake_row(delta, J, seed, config):
        ran.append(delta)
        return {"delta": delta}

    class BreaksAfterTwo:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            for k, args in enumerate(zip(*iterables)):
                if k == 2:
                    raise BrokenProcessPool("a worker died")
                yield fn(*args)

    monkeypatch.setattr(verify.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", BreaksAfterTwo)
    monkeypatch.setattr(verify, "_sweep_row", fake_row)
    points = [(d, 0) for d in (0.0, 0.1, 0.2, 0.3, 0.4)]
    rows = list(verify.sweep_rows(points, J=1))
    assert [row["delta"] for row in rows] == [0.0, 0.1, 0.2, 0.3, 0.4]
    assert ran == [0.0, 0.1, 0.2, 0.3, 0.4]  # each point once: none reruns


def test_a_sweep_point_plans_its_grid_from_its_own_seed():
    # a passed config sets the grids; the point's seed, not the config's, seeds the pilot
    grid = dict(state_shape=(256,), y_points=128)
    rows = [verify.measure_sweep(deltas=[0.2], J=3, seed=5, config=FilterConfig(**kw, **grid))
            for kw in ({}, {"seed": 5})]
    assert rows[0] == rows[1]


def test_eps_scaling_reports_its_seed_then_all_eight_seeds(monkeypatch):
    # one 40-point table: the first three results read the sweep at `seed`,
    # the last reads all 8 seeds; only seed 9 is not monotone in err_gpf
    def fake_row(delta, J, seed, config=None):
        gpf = delta if seed != 9 else -delta
        return {"delta": delta, "eps_measured": 0.01 + delta, "err_enkf": delta, "err_gpf": gpf}

    monkeypatch.setattr(verify.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(verify, "_sweep_row", fake_row)
    results = check_eps_scaling(seed=3)
    assert [r.name for r in results] == ["eps_scaling_origin", "eps_scaling_monotone",
                                         "eps_error_ratio", "sweep_monotone_seeds"]
    assert [r.passed for r in results] == [True, True, True, False]
    assert results[3].measured == pytest.approx(-0.1)
    assert "3-10" in results[3].detail


# the 15 measured values of the gaussian, density and operators suites at
# seeds 0 and 1; they pin the arithmetic, so a change to how the checks hold
# their memory must leave every one of them bit for bit
_MEASURED_AT_SEEDS_0_1 = {
    "gaussian.kl_zero_and_nonnegative": (-4.440892098500626e-16, -2.220446049250313e-16),
    "gaussian.pinsker": (0.4665098705252129, 0.4673335996206718),
    "gaussian.dg_bound_dominates": (0.5577340041320432, 0.543993252145447),
    "gaussian.conditioning_matches_bayes": (0.00042387552910161386, 0.00031969655499808347),
    "gaussian.conditioning_spd": (0.37309015702585135, 0.3058102075522093),
    "density.moment_difference_bounds": (-0.1764887014447858, -0.19829524417809719),
    "density.metric_axioms": (0.0, 0.0),
    "density.projection_idempotent": (2.0528542687969775e-07, 1.7893317671990872e-07),
    "density.kl_minimizer": (1.1820882496900269e-05, 5.149059996434335e-05),
    "operators.p_lipschitz": (-2.239616364305295, -2.389264369617884),
    "operators.q_lipschitz": (-0.929654375836206, -1.2065869457594542),
    "operators.pq_linear": (1.6140482801879262e-15, 1.6042618976542061e-15),
    "operators.transport_equals_bayes": (0.0009726336592892391, 0.0012069724656703364),
    "operators.mass_conservation": (6.661338147750939e-16, 8.881784197001252e-16),
    "operators.moment_envelopes": (-0.000992814158569555, -0.008777833145585223),
}


@pytest.mark.parametrize("seed", [0, 1])
def test_small_suites_measure_the_pinned_values(seed):
    results = run_suites(["gaussian", "density", "operators"], seed=seed)
    got = {f"{r.suite}.{r.name}": r.measured for r in results}
    assert got == {name: pair[seed] for name, pair in _MEASURED_AT_SEEDS_0_1.items()}


@pytest.mark.parametrize("check", [verify.check_pq_linear, verify.check_mass_conservation,
                                   verify.check_q_lipschitz])
def test_operator_checks_hold_their_workspace_and_under_two_block_buffers(check):
    # each check builds the 512-point workspace and reads 512 x 512 joints; it
    # reads them an eighth of a block of rows at a time and measures d_g in one
    # block buffer, so it never holds a second joint's worth of temporaries
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        workspace = verify._bounded_workspace()
        held = tracemalloc.get_traced_memory()[0] - before
        del workspace
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        check()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    block = 8 * density._blocks(512, 512)[0].stop * 512
    assert peak < held + 1.75 * block
