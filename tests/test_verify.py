"""Property-check harness: suites run, failures surface, reports serialize."""

import math

import numpy as np
import pytest

import filtermaps.filters
import filtermaps.gaussian
from filtermaps.model import MapSpec, ModelSpec, bounded_model_1d, linear_model_1d, sweep_model
from filtermaps.operators import OperatorWorkspace
from filtermaps.verify import (
    PropertyResult,
    SUITE_NAMES,
    SUITES,
    check_conditioning_matches_bayes,
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
