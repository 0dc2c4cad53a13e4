"""The benchmark's traced boundaries still name functions of the package.

``perfbench/`` wraps named module boundaries and requires each workload to
record calls at some of them, so renaming one of those functions fails the
benchmark. These tests find such a rename without running a workload: they
load the benchmark's tracer and workload modules by path, install and
uninstall the tracer, and check every required span name against the spans
the tracer can record. The tracer's counters also bind parameters of some
boundaries by name, so the boundaries that carry a counter are called once
under the tracer. A change that stops calling a required boundary shows only
when a workload runs, so the tiny filter workloads run once under the tracer.
"""

import importlib.util
import warnings
from pathlib import Path

import numpy as np
import pytest

from filtermaps import density, filters, model, operators, verify

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_required_boundary_is_a_traced_span():
    tracer_mod, workloads = _load("tracer"), _load("workloads")
    run_filter, suites = filters.run_filter, dict(verify.SUITES)
    tracer = tracer_mod.Tracer()
    try:
        tracer.install()  # raises TracerError if a traced name no longer exists
        assert filters.run_filter is not run_filter
    finally:
        tracer.uninstall()
    assert filters.run_filter is run_filter and verify.SUITES == suites

    spans = {span for _, _, span in tracer_mod.BOUNDARIES}
    spans |= {f"verify.check.{check.__name__.removeprefix('check_')}"
              for checks in verify.SUITES.values() for check in checks}
    for name in workloads.NAMES:
        missing = set(workloads.make(name).required()) - spans
        assert not missing, f"{name} requires spans the tracer cannot record: {sorted(missing)}"


def test_counters_bind_the_parameters_they_name():
    # a counter that binds a renamed parameter raises inside the traced call
    tracer = _load("tracer").Tracer()
    spec = model.bounded_model_1d()
    ws = operators.OperatorWorkspace(spec, [-7.0], [7.0], (32,))
    x = np.linspace(-7.0, 7.0, 32)
    drifted = (1.0 + 5e-4) * np.exp(-0.5 * x**2) / np.sqrt(2 * np.pi)
    tracer.install()
    try:
        mu = density.normalized([-7.0], [7.0], drifted)
        density.moments(mu)
        operators.predict(mu, ws)
    finally:
        tracer.uninstall()

    summary = tracer.summary()
    for span in ("density.normalized", "density.moments", "operators.predict"):
        assert summary[span]["calls"] >= 1, span
    assert tracer.moments_densities >= 1
    assert tracer.max_mass_drift == pytest.approx(5e-4, rel=1e-3)
    assert tracer.kernel_entries == [32 * 32]


@pytest.mark.parametrize("name", ["filter_1d", "filter_2d"])
def test_tiny_filter_workloads_call_every_required_boundary(name):
    # as the benchmark's traced run: setup and one repetition, warnings captured
    tracer_mod, workloads = _load("tracer"), _load("workloads")
    w = workloads.make(name, tiny=True)
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            state = tracer.span("bench.setup", w.setup, 5)
            tracer.span("bench.rep", w.run, state, 0)
    finally:
        tracer.uninstall()
    tracer_mod.require_calls(tracer.summary(), w.required())
