"""Outside-in tracing of filtermaps' module boundaries.

The tracer wraps the public functions at each module boundary and rebinds
every name that refers to them: in the defining module, in every filtermaps
module that imported the function by name (``filters`` takes ``predict``,
``lift``, ``bayes``, ``transport``, ``lifted_epsilon`` and ``moments`` that
way, ``operators`` takes ``moments`` and ``normalized``), and in
``verify.SUITES``, which holds the check functions themselves. Nothing under
``src/`` changes.

Each call records a span ``[name, start, end, parent]``. Spans stay in memory
until the run ends. A span's self time is its duration minus the durations of
its direct children. Counters that need extra computation (mass drift,
distinct densities, kernel size) run inside a ``trace.counters`` child span,
so their cost is charged to the tracer, not to the layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
import weakref

import numpy as np

#: (defining module, attribute, span name) of every traced boundary.
BOUNDARIES = (
    ("gaussian", "log_density_at", "gaussian.log_density_at"),
    ("gaussian", "condition", "gaussian.condition"),
    ("density", "from_gaussian", "density.from_gaussian"),
    ("density", "moments", "density.moments"),
    ("density", "normalized", "density.normalized"),
    ("density", "dg_distance", "density.dg_distance"),
    ("density", "gaussian_projection", "density.gaussian_projection"),
    ("density", "lifted_epsilon", "density.lifted_epsilon"),
    ("model", "fingerprint", "model.fingerprint"),
    ("operators", "OperatorWorkspace", "operators.workspace"),
    ("operators", "predict", "operators.predict"),
    ("operators", "lift", "operators.lift"),
    ("operators", "bayes", "operators.bayes"),
    ("operators", "transport", "operators.transport"),
    ("operators", "kalman_gain", "operators.kalman_gain"),
    ("filters", "generate_data", "filters.generate_data"),
    ("filters", "plan_workspace", "filters.plan_workspace"),
    ("filters", "run_filter", "filters.run_filter"),
    ("verify", "measure_sweep", "verify.measure_sweep"),
    ("cli", "main", "cli.main"),
    ("cli", "cmd_sweep", "cli.cmd_sweep"),
)

MODULES = ("gaussian", "density", "model", "operators", "filters", "verify", "cli")

#: Flops per kernel entry: the matrix-vector multiply-add.
APPLY_FLOPS = 2


def build_flops(d: int) -> int:
    """Flops to build one streamed kernel entry in ``OperatorWorkspace._kernel_rows``.

    d differences, a d x d triangular solve (d(d+1) flops), a squared norm
    (2d), then scale, exponential and normalization counted as one each.
    """
    return d + d * (d + 1) + 2 * d + 3


class TracerError(RuntimeError):
    """A traced boundary is missing or recorded no calls where it must."""


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._seen_densities = weakref.WeakKeyDictionary()
        self.moments_densities = 0
        self.max_mass_drift = 0.0
        self.kernel_entries: list[int] = []
        self.kernel_flops: list[int] = []

    # -- spans ---------------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn, counter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                if counter is not None:
                    tracer.span("trace.counters", counter, args, kwargs)
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        return traced

    # -- counters ------------------------------------------------------------------

    def _count_moments(self, signature, args, kwargs) -> None:
        mu = signature.bind(*args, **kwargs).arguments["mu"]
        if mu not in self._seen_densities:
            self._seen_densities[mu] = True
            self.moments_densities += 1

    def _count_normalized(self, signature, quad_weights, args, kwargs) -> None:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        if not a["expect_unit_mass"]:
            return
        values = np.asarray(a["values"], dtype=float)
        lo = np.asarray(a["box_lo"], dtype=float).reshape(-1)
        hi = np.asarray(a["box_hi"], dtype=float).reshape(-1)
        mass = values
        for w in reversed(quad_weights(lo, hi, values.shape)):
            mass = np.tensordot(mass, w, axes=([mass.ndim - 1], [0]))
        drift = abs(float(mass) - 1.0)
        if math.isfinite(drift):
            self.max_mass_drift = max(self.max_mass_drift, drift)

    def _count_predict(self, signature, cache_max, args, kwargs) -> None:
        ws = signature.bind(*args, **kwargs).arguments["ws"]
        m = int(np.prod(ws.state_shape))
        entries = m * m
        per_entry = APPLY_FLOPS if entries <= cache_max else APPLY_FLOPS + build_flops(len(ws.state_shape))
        self.kernel_entries.append(entries)
        self.kernel_flops.append(entries * per_entry)

    # -- rebinding -----------------------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary; raises TracerError if a traced name no longer exists."""
        mods = {name: importlib.import_module(f"filtermaps.{name}") for name in MODULES}
        namespaces = [importlib.import_module("filtermaps")] + list(mods.values())
        density, operators, verify = mods["density"], mods["operators"], mods["verify"]
        missing = [f"filtermaps.{m}.{a}" for m, a, _ in BOUNDARIES if not hasattr(mods[m], a)]
        if not hasattr(operators, "KERNEL_CACHE_MAX"):
            missing.append("filtermaps.operators.KERNEL_CACHE_MAX")
        if not hasattr(density, "quad_weights"):
            missing.append("filtermaps.density.quad_weights")
        if not isinstance(getattr(verify, "SUITES", None), dict):
            missing.append("filtermaps.verify.SUITES")
        if missing:
            raise TracerError(f"traced names no longer exist: {missing}")

        for mod_name, attr, span_name in BOUNDARIES:
            original = getattr(mods[mod_name], attr)
            counter = None
            if span_name == "density.moments":
                counter = functools.partial(self._count_moments, inspect.signature(original))
            elif span_name == "density.normalized":
                counter = functools.partial(self._count_normalized, inspect.signature(original),
                                            density.quad_weights)
            elif span_name == "operators.predict":
                counter = functools.partial(self._count_predict, inspect.signature(original),
                                            operators.KERNEL_CACHE_MAX)
            wrapped = self._wrap(span_name, original, counter)
            for ns in namespaces:
                if getattr(ns, attr, None) is original:
                    self._undo.append((ns, attr, original))
                    setattr(ns, attr, wrapped)

        suites = verify.SUITES
        originals = dict(suites)
        self._undo.append((suites, None, originals))
        for suite, checks in originals.items():
            suites[suite] = tuple(
                self._wrap(f"verify.check.{c.__name__.removeprefix('check_')}", c) for c in checks)

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._undo):
            if attr is None:
                ns.update(original)
            else:
                setattr(ns, attr, original)
        self._undo.clear()

    # -- summaries -----------------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child[i]
        return out

    def dump(self) -> dict:
        """All spans in a compact form: a name table and [name index, start, end, parent] rows."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        return {
            "names": names,
            "columns": ["name", "start_s", "end_s", "parent"],
            "spans": [[index[n], s - t0, e - t0, p] for n, s, e, p in self.spans],
        }


def require_calls(summary: dict, names) -> None:
    """Fail loudly if any named boundary recorded zero calls."""
    silent = [n for n in names if summary.get(n, {}).get("calls", 0) == 0]
    if silent:
        raise TracerError(f"boundaries recorded no calls on this workload: {silent}")
