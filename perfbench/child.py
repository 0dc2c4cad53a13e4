"""One benchmark process: a fresh-process set-up probe, or one workload run.

    python3 perfbench/child.py setup --workload NAME --seed N [--tiny]
    python3 perfbench/child.py run --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

``run.py`` starts this script with ``src`` on ``PYTHONPATH`` and reads the
JSON object it prints as its last line. The ``setup`` mode imports nothing
from the package before it starts its clock, so its time covers the import.
"""

import argparse
import json
import os
import statistics
import sys
import time


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("setup", "run"))
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true")
    return p.parse_args(argv)


def setup_probe(args) -> dict:
    t0 = time.perf_counter()
    import workloads

    w = workloads.make(args.workload, args.tiny)
    state = w.setup(workloads.input_seed(args.seed))
    setup_s = time.perf_counter() - t0
    if hasattr(w, "teardown"):
        w.teardown(state)
    return {"setup_s": setup_s}


# -- environment record -----------------------------------------------------------


def _openblas_threads() -> dict:
    """Configuration and thread count of numpy's bundled OpenBLAS, read through its C API."""
    import ctypes
    import glob

    import numpy

    info = {"config": None, "threads": None}
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        getter = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        config = getattr(lib, "scipy_openblas_get_config64_", None)
        if getter is None or config is None:
            continue
        getter.restype, getter.argtypes = ctypes.c_int, []
        config.restype, config.argtypes = ctypes.c_char_p, []
        info["threads"] = int(getter())
        info["config"] = config().decode()
    return info


def _git_commit(root: str) -> str:
    """HEAD commit read from ``.git`` without running git; 'unknown' outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int, workload) -> dict:
    import platform

    import numpy
    import scipy

    blas_cfg = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    blas = _openblas_threads()
    nproc = os.cpu_count()
    env = {
        "nproc": nproc,
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_cfg.get("name"),
        "openblas_version": blas_cfg.get("version"),
        "openblas_config": blas["config"],
        "blas_threads": blas["threads"],
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                            if k in os.environ},
        "git_commit": _git_commit(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
        "seed": seed,
    }
    if hasattr(workload, "workers"):
        workers = workload.workers()
        env["sweep_workers"] = workers
        if blas["threads"] is not None and nproc:
            env["sweep_threads_per_core"] = workers * blas["threads"] / nproc
    return env


# -- workload run -----------------------------------------------------------------


def _load_reference(name: str, seed: int, tiny: bool):
    if tiny:
        return None
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference", f"{name}.json")
    with open(path) as fh:
        return json.load(fh)["seeds"][str(seed)]


class Loop:
    """Repetition bookkeeping: times, operation counts and cross-repetition identity."""

    def __init__(self, workloads, workload, reference):
        self.wl = workloads
        self.w = workload
        self.reference = reference
        self.times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.first = None
        self.identical = True
        self.errors: list[str] = []
        self.known_failures: set[str] = set()

    def rep(self, state, run=None) -> None:
        run = run or self.w.run
        t = time.perf_counter()
        try:
            result = run(state, len(self.times))
        except Exception as exc:  # noqa: BLE001 - a raising operation is a counted failure
            self.times.append(time.perf_counter() - t)
            self.attempted += self.w.ops
            self.failed += self.w.ops
            self.errors.append(repr(exc))
            return
        self.times.append(time.perf_counter() - t)
        self.attempted += self.w.ops
        out = self.w.outputs(result)
        self.check(out)

    def check_sweep_point(self, row: dict) -> None:
        """One point of the serial sweep pass: an operation checked against its reference row."""
        self.attempted += 1
        if self.reference is not None:
            self.failed += int(self.w.point_failed(row, self.reference))

    def check(self, out: dict) -> None:
        if self.reference is not None:
            self.failed += self.w.failed_ops(out, self.reference)
            if len(self.errors) < 5:
                self.errors += self.wl.mismatches(out, self.reference)[:5]
        self.known_failures.update(self.wl.known_failures(out))
        text = json.dumps(out, sort_keys=True)
        if self.first is None:
            self.first = text
        elif text != self.first:
            self.identical = False


def _peak_rss_mb() -> float:
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


#: Fewest timed repetitions of an untraced run, so that two can be compared
#: for bit-identical outputs.
MIN_REPS = 2


def warm_up(args, workloads, seed: int) -> None:
    """One repetition of the workload's tiny variant, untimed and unchecked.

    It runs the same code paths as a full repetition, so imports, lazy
    initialisation and the BLAS thread pool are ready before the clock starts,
    at a small fraction of a full repetition's cost.
    """
    w = workloads.make(args.workload, tiny=True)
    state = w.setup(seed)
    w.run(state, 0)
    if hasattr(w, "teardown"):
        w.teardown(state)


def run_untraced(args, workloads, w, loop, seed) -> dict:
    from filtermaps import verify

    warm_up(args, workloads, seed)
    state = w.setup(seed)
    start = time.perf_counter()
    while len(loop.times) < MIN_REPS or (
            time.perf_counter() - start + statistics.median(loop.times) <= args.seconds):
        loop.rep(state)
    peak = _peak_rss_mb()
    if hasattr(w, "teardown"):
        w.teardown(state)
    oracle = verify.check_transport_equals_bayes(workloads.ORACLE_SEED)
    return {"peak_rss_mb": peak, "oracle_dg": oracle.measured}


def run_traced(args, workloads, w, loop, seed) -> dict:
    import warnings

    import tracer as tr
    from filtermaps import density, verify

    warm_up(args, workloads, seed)
    state = w.setup(seed)
    loop.rep(state)
    untraced_s = loop.times[-1]
    if hasattr(w, "teardown"):
        w.teardown(state)

    t = tr.Tracer()
    t.install()
    point_s = []
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            state = t.span("bench.setup", w.setup, seed)
            loop.rep(state, run=lambda s, r: t.span("bench.rep", w.run, s, r))
            traced_s = loop.times[-1]
            if hasattr(w, "serial_points"):
                for kwargs in w.serial_points(state):
                    start = time.perf_counter()
                    rows = verify.measure_sweep(**kwargs)
                    point_s.append(time.perf_counter() - start)
                    loop.check_sweep_point(rows[0])
                w.teardown(state)
    finally:
        t.uninstall()

    summary = t.summary()
    tr.require_calls(summary, w.required())
    values = workloads.layer_metrics(w, summary, t, point_s, untraced_s, traced_s)
    values["density.resolution_warnings"] = float(sum(
        issubclass(c.category, density.ResolutionWarning) for c in caught))
    layers = [{"name": name, "value": values[name], "unit": unit, "label": label}
              for name, unit, _, label in workloads.PER_LAYER]
    spans_path = os.path.join(workloads.OUT_DIR, f"spans_{args.workload}_seed{args.seed}.json")
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    with open(spans_path, "w") as fh:
        json.dump(t.dump(), fh)
    return {"layers": layers, "spans_file": os.path.relpath(spans_path, os.getcwd())}


def run(args) -> dict:
    import filtermaps
    import workloads

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.abspath(filtermaps.__file__).startswith(os.path.join(root, "src") + os.sep):
        raise SystemExit(f"filtermaps was imported from {filtermaps.__file__}, not from {root}/src")
    seed = workloads.input_seed(args.seed)
    w = workloads.make(args.workload, args.tiny)
    loop = Loop(workloads, w, _load_reference(args.workload, seed, args.tiny))
    out = (run_traced if args.trace else run_untraced)(args, workloads, w, loop, seed)
    out.update({
        "run_s": loop.times if not args.trace else loop.times[:1],
        "attempted": loop.attempted,
        "failed": loop.failed,
        "identical": loop.identical,
        "errors": loop.errors,
        "known_failures": sorted(loop.known_failures),
        "input_seed": seed,
        "env": environment(args.seed, w),
    })
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    out = setup_probe(args) if args.mode == "setup" else run(args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
