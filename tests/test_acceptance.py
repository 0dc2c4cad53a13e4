"""Acceptance gate: one test per numbered criterion, each printing its margin.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pass/fail verdicts.
"""

import csv
import json
import time

import numpy as np

import filtermaps.cli as cli
from filtermaps.density import dg_distance, from_gaussian
from filtermaps.filters import FilterConfig, generate_data, kalman_analytic, plan_workspace, run_filter
from filtermaps.model import linear_model_1d
from filtermaps.verify import (
    check_dg_bound_dominates,
    check_eps_scaling,
    check_gpf_equivalence,
    check_moment_difference_bounds,
    check_moment_envelopes,
    check_p_lipschitz,
    check_particle_convergence,
    check_pinsker,
    check_q_lipschitz,
    check_transport_equals_bayes,
)


def _report(label, ok, measured, bound, seconds):
    print(f"\ncriterion {label}: {'PASS' if ok else 'FAIL'} "
          f"(measured {measured:.3e}, bound {bound:.3e}, {seconds:.1f} s)")


def _gate(label, result, seconds):
    _report(label, result.passed, result.measured, result.bound, seconds)
    assert result.passed, result.line()


def test_criterion_01_linear_gaussian_exactness():
    start = time.perf_counter()
    model = linear_model_1d()  # Psi = 0.9 u, H = u, Sigma = Gamma = 0.25, N(0, 1) start
    traj = generate_data(model, J=10, seed=0)
    config = FilterConfig(state_shape=(1024,))
    ws = plan_workspace(model, traj, config)
    runs = run_filter(["true", "enkf_mf", "gpf_bg", "gpf_gt"], model, traj,
                      config=config, ws=ws)
    oracle = [from_gaussian(g, ws.state_lo, ws.state_hi, ws.state_shape)
              for g in kalman_analytic(model, traj)]

    worst = 0.0
    for kind, out in runs.items():
        for j, measure in enumerate(out.measures):
            grid = measure if not hasattr(measure, "dim") else \
                from_gaussian(measure, ws.state_lo, ws.state_hi, ws.state_shape)
            worst = max(worst, dg_distance(grid, oracle[j]))
    elapsed = time.perf_counter() - start
    _report("01 linear-Gaussian exactness", worst <= 1e-2, worst, 1e-2, elapsed)
    assert worst <= 1e-2
    assert elapsed <= 60.0


def test_criterion_02_transport_equals_bayes():
    start = time.perf_counter()
    result = check_transport_equals_bayes(seed=0)
    elapsed = time.perf_counter() - start
    _gate("02 transport = conditioning on Gaussians", result, elapsed)
    assert elapsed <= 60.0


def test_criterion_03_gpf_form_equivalence():
    start = time.perf_counter()
    result = check_gpf_equivalence(seed=0)
    _gate("03 projected-filter form equivalence", result, time.perf_counter() - start)


def test_criterion_04_lipschitz_constants():
    start = time.perf_counter()
    res_p = check_p_lipschitz(seed=0)
    res_q = check_q_lipschitz(seed=0)
    elapsed = time.perf_counter() - start
    _gate("04a prediction Lipschitz", res_p, elapsed)
    _gate("04b lifting Lipschitz", res_q, elapsed)


def test_criterion_05_moment_envelopes():
    start = time.perf_counter()
    result = check_moment_envelopes(seed=0)
    _gate("05 prediction/lifting moment envelopes", result, time.perf_counter() - start)


def test_criterion_06_moment_difference_bounds():
    start = time.perf_counter()
    result = check_moment_difference_bounds(seed=0)
    _gate("06 moment differences vs weighted TV", result, time.perf_counter() - start)


def test_criterion_07_gaussian_distance_and_pinsker():
    start = time.perf_counter()
    res_bound = check_dg_bound_dominates(seed=0)
    res_pinsker = check_pinsker(seed=0)
    elapsed = time.perf_counter() - start
    _gate("07a closed-form Gaussian distance bound", res_bound, elapsed)
    _gate("07b weighted Pinsker inequality", res_pinsker, elapsed)


def test_criterion_08_eps_scaling_sweep():
    start = time.perf_counter()
    results = check_eps_scaling(seed=0)
    elapsed = time.perf_counter() - start
    for suffix, result in zip(("a small-eps origin", "b error monotone in eps",
                               "c error/eps ratio finite", "d error monotone in eps on 8 seeds"),
                              results, strict=True):
        _gate(f"08{suffix}", result, elapsed)
    assert elapsed <= 600.0


def test_criterion_09_particle_convergence_rate():
    start = time.perf_counter()
    result = check_particle_convergence(seed=0)
    _gate("09 particle-ensemble convergence slope", result, time.perf_counter() - start)


def test_criterion_10_cmd_run_determinism(tmp_path):
    start = time.perf_counter()
    raw = {
        "scenario": "bounded_1d", "J": 5, "seed": 11,
        "kinds": ["true", "enkf_mf", "gpf_bg", "gpf_gt", "enkf_N"],
        "state_points": 512, "y_points": 256, "n_particles": 500,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert cli.main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
    same = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in ("steps.csv", "summary.csv")
    )
    _report("10 repeated runs byte-identical", same, float(not same), 0.5,
            time.perf_counter() - start)
    assert same
    # the data CSVs carry real content, not coincidentally empty files
    with open(out1 / "steps.csv", newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 5 * 6
    assert np.isfinite(float((out1 / "summary.csv").read_text().strip().split("\n")[1].split(",")[2]))
