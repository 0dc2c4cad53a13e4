"""Command-line surface: batch experiments and property verification.

Three subcommands:

- ``run``     one experiment: filter kinds over a generated trajectory;
              writes steps.csv, summary.csv, optional binary densities,
              and metadata.json.
- ``sweep``   the nonlinearity sweep: one run per delta in the scenario
              family; writes sweep.csv with (delta, eps_measured, err_enkf,
              err_gpf) plus monotonicity/ratio checks in the report.
- ``verify``  the property suites; writes a CSV report and exits 0 only if
              every check passes.

Exit codes: 0 success, 1 property or step failure, 2 configuration or
environment error. Data CSVs are byte-identical across repeated runs with the
same config and seed; timestamps and timings live only in metadata.json.

Config file schema (JSON), all keys optional unless noted::

    {
      "scenario": "linear_1d" | "bounded_1d" | "sweep",   # or "model": {...}
      "delta": 0.2,              # sweep scenario nonlinearity (run only)
      "model": { ... },          # inline model config, exclusive with scenario
      "J": 10,                   # number of assimilation steps (>= 0)
      "seed": 0,
      "kinds": ["true", "enkf_mf", "gpf_bg", "gpf_gt", "enkf_N"],   # distinct
      "state_points": 1024,      # grid points per state axis
      "y_points": 512,           # grid points on the data axis
      "n_particles": 1000,       # ensemble size for enkf_N
      "deltas": [0.0, 0.05, 0.1, 0.2, 0.3],   # sweep subcommand only
      "save_densities": false,   # write per-step binary densities (run only)
      "out": "results"           # output directory (--out overrides)
    }

Sweep points run as independent processes when the platform allows it and
fall back to in-process execution otherwise; either path writes identical
CSV bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import numpy as np

from . import __version__, density, filters, model, verify

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2

_SCENARIOS = ("linear_1d", "bounded_1d", "sweep")
_DEFAULT_KINDS = ("true", "enkf_mf", "gpf_bg", "gpf_gt")


class ConfigError(ValueError):
    """The experiment config or environment is unusable; exits with code 2."""


_NUMBER = (int, float)


def _typed(key: str, value, types: tuple):
    """``value`` if it is an instance of ``types`` (a bool only where bool is listed)."""
    if isinstance(value, bool) and bool not in types or not isinstance(value, types):
        raise ConfigError(f"config key '{key}' has the wrong type: {value!r}")
    return value


@dataclass
class ExperimentConfig:
    """Validated experiment description; one instance drives one subcommand."""

    scenario: str | None = None
    delta: float = 0.0
    model_cfg: dict | None = None
    J: int = 10
    seed: int = 0
    kinds: tuple[str, ...] = _DEFAULT_KINDS
    state_points: int | None = None
    y_points: int | None = None
    n_particles: int = 1000
    deltas: tuple[float, ...] = model.SWEEP_DELTAS
    save_densities: bool = False
    out: str = "results"

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        known = {
            "scenario", "delta", "model", "J", "seed", "kinds", "state_points",
            "y_points", "n_particles", "deltas", "save_densities", "out",
        }
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        deltas = _typed("deltas", raw.get("deltas", model.SWEEP_DELTAS), (list, tuple))
        cfg = cls(
            scenario=raw.get("scenario"),
            delta=float(_typed("delta", raw.get("delta", 0.0), _NUMBER)),
            model_cfg=raw.get("model"),
            J=_typed("J", raw.get("J", 10), (int,)),
            seed=_typed("seed", raw.get("seed", 0), (int,)),
            kinds=tuple(_typed("kinds", raw.get("kinds", _DEFAULT_KINDS), (list, tuple))),
            state_points=_typed("state_points", raw.get("state_points"), (int, type(None))),
            y_points=_typed("y_points", raw.get("y_points"), (int, type(None))),
            n_particles=_typed("n_particles", raw.get("n_particles", 1000), (int,)),
            deltas=tuple(float(_typed("deltas", x, _NUMBER)) for x in deltas),
            save_densities=_typed("save_densities", raw.get("save_densities", False), (bool,)),
            out=str(raw.get("out", "results")),
        )
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        return cls.from_dict(raw)

    def validate(self) -> None:
        if (self.scenario is None) == (self.model_cfg is None):
            raise ConfigError("config needs exactly one of 'scenario' or 'model'")
        if self.scenario is not None and self.scenario not in _SCENARIOS:
            raise ConfigError(f"unknown scenario '{self.scenario}'; known: {_SCENARIOS}")
        if self.J < 0:
            raise ConfigError("J must be >= 0")
        bad = [k for k in self.kinds if k not in filters.FILTER_KINDS]
        if bad:
            raise ConfigError(f"unknown filter kinds {bad}; known: {filters.FILTER_KINDS}")
        if not self.kinds:
            raise ConfigError("kinds must be nonempty")
        if len(set(self.kinds)) != len(self.kinds):
            raise ConfigError(f"kinds must be distinct, got {list(self.kinds)}")
        if self.state_points is not None and self.state_points < density.MIN_POINTS:
            raise ConfigError(f"state_points must be >= {density.MIN_POINTS}")
        if self.y_points is not None and self.y_points < density.MIN_POINTS:
            raise ConfigError(f"y_points must be >= {density.MIN_POINTS}")
        if self.n_particles < 2:
            raise ConfigError("n_particles must be >= 2")
        self.build_model()  # referenced model must validate

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

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario, "delta": self.delta, "model": self.model_cfg,
            "J": self.J, "seed": self.seed, "kinds": list(self.kinds),
            "state_points": self.state_points, "y_points": self.y_points,
            "n_particles": self.n_particles, "deltas": list(self.deltas),
            "save_densities": self.save_densities, "out": self.out,
        }


def _ensure_writable(out_dir: str) -> None:
    try:
        os.makedirs(out_dir, exist_ok=True)
        probe = os.path.join(out_dir, ".write-probe")
        with open(probe, "w") as fh:
            fh.write("")
        os.remove(probe)
    except OSError as exc:
        raise ConfigError(f"output directory {out_dir!r} is not writable: {exc}") from exc


def _write_metadata(out_dir: str, cfg: ExperimentConfig | None, spec, timings: dict,
                    extra: dict | None = None) -> None:
    meta = {
        "version": __version__,
        "seed": None if cfg is None else cfg.seed,
        "config": None if cfg is None else cfg.to_dict(),
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


def cmd_run(cfg: ExperimentConfig, out_dir: str) -> int:
    """Run the configured filter kinds once and write the artifacts."""
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
                    density.save_binary(
                        measure, os.path.join(out_dir, f"density_{kind_name}_step{step}.bin"))
    _write_metadata(out_dir, cfg, spec,
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


def cmd_sweep(cfg: ExperimentConfig, out_dir: str) -> int:
    """Sweep the scenario family over the configured deltas and write sweep.csv."""
    if not cfg.deltas:
        raise ConfigError("sweep needs a nonempty 'deltas' list")
    if list(cfg.deltas) != sorted(cfg.deltas):
        raise ConfigError("'deltas' must be sorted ascending")
    _ensure_writable(out_dir)
    spec0 = model.sweep_model(cfg.deltas[0])
    fcfg = cfg.filter_config(spec0)
    args = [(float(d), cfg.J, cfg.seed, fcfg) for d in cfg.deltas]
    t0 = time.perf_counter()
    try:
        with ProcessPoolExecutor(max_workers=min(len(args), os.cpu_count() or 1)) as pool:
            rows = list(pool.map(_sweep_point, *zip(*args)))
    except (OSError, BrokenProcessPool):
        rows = [_sweep_point(*a) for a in args]
    sweep_seconds = time.perf_counter() - t0

    with open(os.path.join(out_dir, "sweep.csv"), "w", newline="") as fh:
        fh.write("delta,eps_measured,err_enkf,err_gpf\n")
        for row in rows:
            fh.write(",".join("%.17g" % row[k]
                              for k in ("delta", "eps_measured", "err_enkf", "err_gpf")) + "\n")

    by_eps = sorted(rows, key=lambda r: r["eps_measured"])
    checks = {
        "monotone_err_enkf": all(a["err_enkf"] <= b["err_enkf"] + 1e-12
                                 for a, b in zip(by_eps, by_eps[1:])),
        "monotone_err_gpf": all(a["err_gpf"] <= b["err_gpf"] + 1e-12
                                for a, b in zip(by_eps, by_eps[1:])),
        "max_err_over_eps": max(max(r["err_enkf"], r["err_gpf"]) / r["eps_measured"]
                                for r in rows),
    }
    _write_metadata(out_dir, cfg, spec0, {"sweep": sweep_seconds}, extra={"checks": checks})
    print(f"wrote sweep.csv to {out_dir}")
    for name, value in checks.items():
        print(f"  {name}: {value}")
    return EXIT_OK


def cmd_verify(suite: str, out_dir: str | None, seed: int) -> int:
    """Run property suites; exit 0 only if every check passes."""
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
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the config output directory")
        p.add_argument("--resolution", type=int, default=None,
                       help="override grid points per state axis")

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
        cfg = ExperimentConfig.from_file(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.resolution is not None:
            cfg.state_points = args.resolution
        cfg.validate()
        out_dir = args.out if args.out is not None else cfg.out
        if args.command == "run":
            return cmd_run(cfg, out_dir)
        return cmd_sweep(cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
