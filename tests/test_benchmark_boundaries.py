"""The benchmark's traced boundaries still name functions of the package.

``perfbench/`` wraps named module boundaries and requires each workload to
record calls at some of them, so renaming one of those functions fails the
benchmark. This test finds such a rename without running a workload: it
loads the benchmark's tracer and workload modules by path, installs and
uninstalls the tracer, and checks every required span name against the
spans the tracer can record.
"""

import importlib.util
from pathlib import Path

from filtermaps import filters, verify

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
