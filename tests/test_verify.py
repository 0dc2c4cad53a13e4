"""Property-check harness: suites run, failures surface, reports serialize."""

import csv

import pytest

import filtermaps.filters
import filtermaps.gaussian
from filtermaps.operators import OperatorWorkspace
from filtermaps.verify import (
    PropertyResult,
    SUITE_NAMES,
    SUITES,
    check_conditioning_matches_bayes,
    check_data_inside_axis,
    run_suites,
    write_report,
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


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suites(["gaussian", "chebyshev"], seed=0)


def test_result_line_format():
    r = PropertyResult("gaussian", "pinsker", False, 1.25, 1.0, detail="worst pair 7")
    line = r.line()
    assert "FAIL" in line and "pinsker" in line and "gaussian" in line


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


def test_write_report_roundtrip(tmp_path):
    results = run_suites(["model"], seed=0)
    path = tmp_path / "report.csv"
    write_report(results, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(results)
    assert rows[0]["suite"] == "model"
    assert rows[0]["passed"] in ("0", "1")
    float(rows[0]["measured"])  # numeric columns parse
