"""Finite ensembles approach the mean-field filter as N grows.

Runs the perturbed-observation EnKF at increasing ensemble sizes against the
grid mean-field reference on a nonlinear scenario and fits the Monte Carlo
convergence rate of the moment error.
"""

import numpy as np

from filtermaps.filters import FilterConfig, generate_data, run_filter
from filtermaps.model import sweep_model

SIZES = (100, 1000, 10000)
REPLICATES = 8


def main():
    model = sweep_model(0.2)
    traj = generate_data(model, J=5, seed=0)
    reference = run_filter(["enkf_mf"], model, traj, config=FilterConfig(seed=0),
                           eps_kinds=())["enkf_mf"]
    ref_mean = np.array([m[0] for m in reference.diagnostics["mean"]])

    print(f"moment error vs the grid mean-field filter, {REPLICATES} replicates each")
    print(f"{'N':>7} {'mean error':>12} {'spread':>10}")
    errors = []
    for n in SIZES:
        errs = []
        for rep in range(REPLICATES):
            # decorrelate replicates through the particle seed stream
            run = run_filter(["enkf_N"], model, traj,
                             config=FilterConfig(seed=1000 * rep + n, n_particles=n))["enkf_N"]
            means = np.array([m[0] for m in run.diagnostics["mean"]])
            errs.append(np.abs(means - ref_mean).max())
        errors.append(np.mean(errs))
        print(f"{n:>7} {errors[-1]:>12.5f} {np.std(errs):>10.5f}")

    slope = np.polyfit(np.log(SIZES), np.log(errors), 1)[0]
    print(f"\nfitted log-log slope {slope:+.3f} (Monte Carlo rate is -0.5)")


if __name__ == "__main__":
    main()
