"""Command-line surface: batch experiments and property verification.

Three subcommands:

- ``run``     one experiment: filter kinds over a generated trajectory;
              writes steps.csv, summary.csv, optional per-step grid
              densities (density_<kind>_step<j>.npz) and metadata.json.
- ``sweep``   the nonlinearity sweep: verify.SWEEP_KINDS at each delta of the
              "sweep" scenario, the only one it takes; writes sweep.csv with
              (delta, eps_measured, err_enkf, err_gpf) and monotonicity/ratio checks.
- ``verify``  the property suites; writes a CSV report and exits 0 only if
              every check passes.

``run`` and ``sweep`` read every experiment value from the config file; only
``--out`` overrides one, the output directory. An unknown config key, a key
the subcommand does not read, an unknown key of an inline model or an
unknown map-family parameter is a configuration error, and so is a number
that is not finite (NaN, Infinity, or a literal such as 1e999 that overflows).

Exit codes: 0 success, 1 property or step failure, 2 configuration or
environment error. Data CSVs are byte-identical across repeated runs with the
same config and seed; timestamps and timings live only in metadata.json.

Config file schema (JSON), all keys optional unless noted::

    {
      "scenario": "linear_1d" | "bounded_1d" | "sweep",   # or "model": {...}
      "delta": 0.2,              # nonlinearity (run, "sweep" scenario only)
      "model": { ... },          # inline model config, exclusive with scenario (run only)
      "J": 10,                   # number of assimilation steps (run: >= 0, sweep: >= 1)
      "seed": 0,                 # >= 0
      "kinds": ["true", "enkf_mf", "gpf_bg", "gpf_gt", "enkf_N"],   # distinct (sweep: a subset)
      "state_points": 1024,      # grid points per state axis
      "y_points": 512,           # grid points on the data axis
      "n_particles": 1000,       # ensemble size for enkf_N (run only)
      "deltas": [0.0, 0.05, 0.1, 0.2, 0.3],   # sweep subcommand only
      "save_densities": false,   # write per-step grid densities as .npz (run only)
      "out": "results"           # output directory (--out overrides)
    }

Sweep points run on min(#deltas, usable CPUs) worker processes when the
platform allows it and fall back to in-process execution otherwise; either
path writes identical CSV bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import __version__, density, filters, model, verify

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2

_SCENARIOS = ("linear_1d", "bounded_1d", "sweep")


class ConfigError(ValueError):
    """The experiment config or environment is unusable; exits with code 2."""


_NUMBER = (int, float)


def _typed(key: str, value, types: tuple):
    """``value`` if it is an instance of ``types`` (a bool only where bool is listed)."""
    if isinstance(value, bool) and bool not in types or not isinstance(value, types):
        raise ConfigError(f"config key '{key}' has the wrong type: {value!r}")
    return value


def _deltas(values) -> tuple[float, ...]:
    return tuple(float(_typed("deltas", x, _NUMBER)) for x in values)


def _key(default, types: tuple, convert=None):
    """A config key's field: its default, the JSON types it takes and how its value is stored."""
    return field(default=default, metadata={"types": types, "convert": convert})


#: Config keys named differently from their ExperimentConfig field; the others are field names.
_CONFIG_KEYS = {"model_cfg": "model"}

#: Config keys a subcommand does not read; a config for it that sets one is rejected.
_UNREAD_KEYS = {"run": {"deltas"}, "sweep": {"delta", "model", "n_particles", "save_densities"}}


@dataclass
class ExperimentConfig:
    """Validated experiment description; one instance drives one subcommand."""

    scenario: str | None = None
    delta: float = _key(0.0, _NUMBER, float)
    model_cfg: dict | None = None
    J: int = _key(10, (int,))
    seed: int = _key(0, (int,))
    kinds: tuple[str, ...] = _key(("true", "enkf_mf", "gpf_bg", "gpf_gt"), (list, tuple), tuple)
    state_points: int | None = _key(None, (int, type(None)))
    y_points: int | None = _key(None, (int, type(None)))
    n_particles: int = _key(1000, (int,))
    deltas: tuple[float, ...] = _key(model.SWEEP_DELTAS, (list, tuple), _deltas)
    save_densities: bool = _key(False, (bool,))
    out: str = _key("results", (str,))

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        by_key = {_CONFIG_KEYS.get(f.name, f.name): f for f in fields(cls)}
        unknown = set(raw) - set(by_key)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        values = {}
        for key, value in raw.items():
            meta = by_key[key].metadata
            if meta:
                value = _typed(key, value, meta["types"])
                value = value if meta["convert"] is None else meta["convert"](value)
            values[by_key[key].name] = value
        cfg = cls(**values)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if (self.scenario is None) == (self.model_cfg is None):
            raise ConfigError("config needs exactly one of 'scenario' or 'model'")
        if self.scenario is not None and self.scenario not in _SCENARIOS:
            raise ConfigError(f"unknown scenario '{self.scenario}'; known: {_SCENARIOS}")
        if self.J < 0:
            raise ConfigError("J must be >= 0")
        if self.seed < 0:
            raise ConfigError("config key 'seed' must be >= 0")
        if self.state_points is not None and self.state_points < density.MIN_POINTS:
            raise ConfigError(f"state_points must be >= {density.MIN_POINTS}")
        if self.y_points is not None and self.y_points < density.MIN_POINTS:
            raise ConfigError(f"y_points must be >= {density.MIN_POINTS}")
        if self.n_particles < 2:
            raise ConfigError("n_particles must be >= 2")
        spec = self.build_model()  # referenced model must validate
        try:
            filters.validate_kinds(self.kinds, spec)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def build_model(self) -> model.ModelSpec:
        if self.model_cfg is not None:
            try:
                return model.from_config(self.model_cfg)
            except Exception as exc:
                raise ConfigError(f"invalid inline model: {exc}") from exc
        if self.scenario == "linear_1d":
            return model.linear_model_1d()
        if self.scenario == "bounded_1d":
            return model.bounded_model_1d()
        return model.sweep_model(self.delta)

    def filter_config(self, spec: model.ModelSpec) -> filters.FilterConfig:
        shape = None
        if self.state_points is not None:
            shape = (int(self.state_points),) * spec.d
        return filters.FilterConfig(
            seed=self.seed, state_shape=shape,
            y_points=None if self.y_points is None else int(self.y_points),
            n_particles=self.n_particles,
        )

    def unread_keys(self, command: str) -> set[str]:
        """The config keys ``command`` does not read; ``delta`` is the sweep scenario's only."""
        return _UNREAD_KEYS[command] | ({"delta"} if self.scenario != "sweep" else set())

    def to_dict(self, command: str) -> dict:
        """The keys ``command`` reads, as metadata.json records them; a sweep runs SWEEP_KINDS."""
        out = {_CONFIG_KEYS.get(f.name, f.name): getattr(self, f.name) for f in fields(self)}
        if command == "sweep":
            out["kinds"] = verify.SWEEP_KINDS
        unread = self.unread_keys(command)
        return {k: list(v) if isinstance(v, tuple) else v
                for k, v in out.items() if k not in unread}


def _ensure_writable(out_dir: str) -> None:
    try:
        os.makedirs(out_dir, exist_ok=True)
        probe = os.path.join(out_dir, ".write-probe")
        with open(probe, "w") as fh:
            fh.write("")
        os.remove(probe)
    except OSError as exc:
        raise ConfigError(f"output directory {out_dir!r} is not writable: {exc}") from exc


def _write_metadata(out_dir: str, config: dict | None, spec, timings: dict,
                    extra: dict | None = None) -> None:
    meta = {
        "version": __version__,
        "seed": None if config is None else config["seed"],
        "config": config,
        "model_fingerprint": None if spec is None else model.fingerprint(spec),
        "timings_seconds": {k: round(v, 3) for k, v in timings.items()},
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }
    if extra:
        meta.update(extra)
    with open(os.path.join(out_dir, "metadata.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_error(out_dir: str, exc: Exception) -> None:
    record = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    if isinstance(exc, filters.FilterStepError):
        record["error"]["step"] = exc.step
        record["error"]["kind"] = exc.kind
    with open(os.path.join(out_dir, "error.json"), "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _finite(literal: str) -> float:
    """A JSON number literal as a float; NaN, the infinities and overflowing literals are rejected."""
    value = float(literal)
    if not np.isfinite(value):
        raise ConfigError(f"config holds a non-finite number: {literal}")
    return value


def load_config(command: str, path: str) -> ExperimentConfig:
    """The validated config at ``path``; sweep's scenario rule comes before the kinds rule."""
    try:
        with open(path) as fh:
            raw = json.load(fh, parse_float=_finite, parse_constant=_finite)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    if command == "sweep" and (raw.get("model") is not None
                               or raw.get("scenario", "sweep") != "sweep"):
        key = "model" if raw.get("model") is not None else "scenario"
        raise ConfigError(f"sweep runs only the 'sweep' scenario; config key '{key}' selects another")
    cfg = ExperimentConfig.from_dict(raw)
    unread = set(raw) & cfg.unread_keys(command)
    if unread:
        raise ConfigError(f"{command} does not read config keys {sorted(unread)}")
    if command == "sweep" and "kinds" in raw and not set(cfg.kinds) <= set(verify.SWEEP_KINDS):
        raise ConfigError(f"config key 'kinds' names kinds that sweep does not measure; "
                          f"it measures {list(verify.SWEEP_KINDS)}")
    return cfg


def cmd_run(cfg: ExperimentConfig) -> int:
    """Run the configured filter kinds once and write the artifacts to ``cfg.out``."""
    out_dir = cfg.out
    _ensure_writable(out_dir)
    spec = cfg.build_model()
    t0 = time.perf_counter()
    if cfg.J >= 1:
        traj = filters.generate_data(spec, cfg.J, cfg.seed)
    else:
        traj = filters.FilterTrajectory(data=np.zeros((0, spec.K)))
    try:
        results = filters.run_filter(list(cfg.kinds), spec, traj, cfg.filter_config(spec))
    except filters.FilterStepError as exc:
        _write_error(out_dir, exc)
        print(f"run failed at step {exc.step} ({exc.kind}); error.json written", file=sys.stderr)
        return EXIT_FAILURE
    run_seconds = time.perf_counter() - t0

    t1 = time.perf_counter()
    filters.trajectory_to_csv(results, os.path.join(out_dir, "steps.csv"))
    _write_summary(results, os.path.join(out_dir, "summary.csv"))
    if cfg.save_densities:
        for kind_name, res in results.items():
            for step, measure in enumerate(res.measures):
                if isinstance(measure, density.GridDensity):
                    np.savez(os.path.join(out_dir, f"density_{kind_name}_step{step}.npz"),
                             box_lo=measure.box_lo, box_hi=measure.box_hi, values=measure.values)
    _write_metadata(out_dir, cfg.to_dict("run"), spec,
                    {"run": run_seconds, "write": time.perf_counter() - t1})
    print(f"wrote steps.csv, summary.csv, metadata.json to {out_dir}")
    return EXIT_OK


def _write_summary(results: dict, path: str) -> None:
    """Long-format summary: measured eps per kind and max pairwise distances."""
    rows = []
    for kind_name, res in sorted(results.items()):
        eps_vals = [e for e in res.diagnostics["eps"] if e is not None]
        if eps_vals:
            rows.append(("eps_measured", kind_name, max(eps_vals)))
    for kind_a, res in sorted(results.items()):
        for key in sorted(res.diagnostics):
            if key.startswith("dg_vs_"):
                kind_b = key.removeprefix("dg_vs_")
                if kind_a < kind_b:
                    rows.append(("max_dg", f"{kind_a}_vs_{kind_b}", max(res.diagnostics[key])))
    with open(path, "w", newline="") as fh:
        fh.write("quantity,kind,value\n")
        for quantity, kind_name, value in rows:
            fh.write(f"{quantity},{kind_name},{'%.17g' % value}\n")


def _sweep_point(delta: float, J: int, seed: int, config: filters.FilterConfig) -> dict:
    """One sweep point; top-level so process pools can pickle it."""
    return verify.measure_sweep(deltas=[delta], J=J, seed=seed, config=config)[0]


def cmd_sweep(cfg: ExperimentConfig) -> int:
    """Sweep the scenario family over the configured deltas and write sweep.csv to ``cfg.out``."""
    out_dir = cfg.out
    if not cfg.deltas:
        raise ConfigError("sweep needs a nonempty 'deltas' list")
    if list(cfg.deltas) != sorted(cfg.deltas):
        raise ConfigError("'deltas' must be sorted ascending")
    if cfg.J < 1:
        raise ConfigError("sweep needs config key 'J' >= 1: each point measures the drift over the data")
    _ensure_writable(out_dir)
    spec0 = model.sweep_model(cfg.deltas[0])
    fcfg = cfg.filter_config(spec0)
    args = [(float(d), cfg.J, cfg.seed, fcfg) for d in cfg.deltas]
    # the CPUs this process may run on: cpu_count ignores affinity and cpusets
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    t0 = time.perf_counter()
    try:
        with ProcessPoolExecutor(max_workers=min(len(args), cpus)) as pool:
            rows = list(pool.map(_sweep_point, *zip(*args)))
    except (OSError, BrokenProcessPool):
        rows = [_sweep_point(*a) for a in args]
    sweep_seconds = time.perf_counter() - t0

    with open(os.path.join(out_dir, "sweep.csv"), "w", newline="") as fh:
        fh.write("delta,eps_measured,err_enkf,err_gpf\n")
        for row in rows:
            fh.write(",".join("%.17g" % row[k]
                              for k in ("delta", "eps_measured", "err_enkf", "err_gpf")) + "\n")

    checks = verify.sweep_checks(rows)
    _write_metadata(out_dir, cfg.to_dict("sweep"), spec0, {"sweep": sweep_seconds},
                    extra={"checks": checks})
    print(f"wrote sweep.csv to {out_dir}")
    for name, value in checks.items():
        print(f"  {name}: {value}")
    return EXIT_OK


def cmd_verify(suite: str, out_dir: str | None, seed: int) -> int:
    """Run property suites; exit 0 only if every check passes."""
    if seed < 0:
        raise ConfigError("--seed must be >= 0")
    names = list(verify.SUITE_NAMES) if suite == "all" else [suite]
    if any(n not in verify.SUITES for n in names):
        raise ConfigError(f"unknown suite '{suite}'; known: {list(verify.SUITE_NAMES) + ['all']}")
    if out_dir is not None:
        _ensure_writable(out_dir)
    t0 = time.perf_counter()
    results = verify.run_suites(names, seed=seed)
    for r in results:
        print(r.line())
    n_fail = sum(not r.passed for r in results)
    print(f"{len(results) - n_fail}/{len(results)} checks passed "
          f"({time.perf_counter() - t0:.1f} s)")
    if out_dir is not None:
        verify.write_report(results, os.path.join(out_dir, "verify_report.csv"))
        _write_metadata(out_dir, None, None, {"verify": time.perf_counter() - t0},
                        extra={"suites": names, "failed": n_fail})
    return EXIT_OK if n_fail == 0 else EXIT_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="filtermaps",
        description="Grid-density filtering experiments: run, sweep, verify.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run configured filter kinds on one trajectory")
    sweep_p = sub.add_parser("sweep", help="sweep the nonlinearity family, one run per delta")
    for p in (run_p, sweep_p):
        p.add_argument("--config", required=True, help="path to a JSON experiment config")
        p.add_argument("--out", default=None, help="override the config output directory")

    ver_p = sub.add_parser("verify", help="run property suites and report margins")
    ver_p.add_argument("--suite", default="all",
                       choices=list(verify.SUITE_NAMES) + ["all"],
                       help="which suite to run (default: all)")
    ver_p.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    ver_p.add_argument("--out", default=None, help="directory for the CSV report")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args.suite, args.out, args.seed)
        cfg = load_config(args.command, args.config)
        if args.out is not None:  # metadata.json then records the directory written
            cfg = replace(cfg, out=args.out)
        return cmd_run(cfg) if args.command == "run" else cmd_sweep(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
