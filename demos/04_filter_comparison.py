"""Four filters on one data realization, linear and nonlinear.

On the linear scenario every filter collapses onto the analytic Kalman
recursion (the exactness case). On a nonlinear model the per-step weighted-TV
distances to the exact filter separate the approximations.
"""

from filtermaps.density import dg_distance
from filtermaps.filters import (
    FilterConfig,
    generate_data,
    kalman_analytic,
    plan_workspace,
    run_filter,
)
from filtermaps.model import linear_model_1d, sweep_model

KINDS = ("true", "enkf_mf", "gpf_bg", "gpf_gt")


def main():
    config = FilterConfig(state_shape=(1024,))

    model = linear_model_1d()
    traj = generate_data(model, J=10, seed=0)
    ws = plan_workspace(model, traj, config)
    runs = run_filter(list(KINDS), model, traj, config=config, ws=ws, eps_kinds=())
    oracle = [ws.state_grid(g) for g in kalman_analytic(model, traj)]
    print("linear model: max_j d_g to the analytic Kalman posterior")
    for kind in KINDS:
        worst = 0.0
        for j, measure in enumerate(runs[kind].measures):
            worst = max(worst, dg_distance(ws.state_grid(measure), oracle[j]))
        print(f"  {kind:<8} {worst:.2e}")

    model = sweep_model(0.2)
    traj = generate_data(model, J=8, seed=1)
    runs = run_filter(list(KINDS), model, traj, config=config, eps_kinds=("true",))
    print("\nnonlinear model (delta = 0.2): per-step d_g to the exact filter")
    header = "  step " + "".join(f"{k:>10}" for k in KINDS[1:]) + "       eps"
    print(header)
    eps = runs["true"].diagnostics["eps"]
    for j in range(1, traj.J + 1):
        cells = "".join(f"{runs[k].diagnostics['dg_vs_true'][j]:>10.4f}" for k in KINDS[1:])
        print(f"  {j:>4} {cells} {eps[j]:>9.4f}")
    print("\neps is the per-step distance from the lifted prediction to its")
    print("Gaussian projection, the quantity that drives both error bounds.")


if __name__ == "__main__":
    main()
