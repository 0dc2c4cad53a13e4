"""The four measure maps of one assimilation step.

Pushes a prior through prediction (stochastic dynamics), lifting (joint with
the predicted datum), and then both analysis maps: exact conditioning and
Kalman transport. The model is the near-linear sweep member, so a Gaussian
prior gives a near-Gaussian lifted prediction and the two analyses agree;
a bimodal prior breaks that and the transport map pays a visible price.
"""

import numpy as np

from filtermaps.density import dg_distance, from_gaussian, moments, normalized
from filtermaps.gaussian import GaussianMeasure
from filtermaps.model import sweep_model
from filtermaps.operators import OperatorWorkspace, bayes, kalman_gain, lift, predict, transport


def describe(label, mu):
    mom = moments(mu)
    print(f"  {label:<22} mean {mom.mean[0]:+.4f}  var {mom.cov[0, 0]:.4f}")


def one_step(mu, ws, y_dagger):
    pred = predict(mu, ws)
    joint = lift(pred, ws)
    describe("predicted", pred)
    print(f"  {'joint datum marginal':<22} mean {moments(joint).mean[1]:+.4f}  "
          f"gain {kalman_gain(joint)[0, 0]:+.4f}")
    conditioned = bayes(joint, y_dagger)
    transported = transport(joint, y_dagger)
    describe("conditioned (exact)", conditioned)
    describe("transported (Kalman)", transported)
    print(f"  d_g between the analyses: {dg_distance(conditioned, transported):.5f}")


def main():
    model = sweep_model(0.0)
    ws = OperatorWorkspace(model, [-7.0], [7.0], (1024,), y_lo=-8.0, y_hi=8.0)
    y_dagger = 0.4

    print("Gaussian prior N(0.2, 0.4):")
    gauss = from_gaussian(GaussianMeasure([0.2], [[0.4]]),
                          ws.state_lo, ws.state_hi, ws.state_shape)
    one_step(gauss, ws, y_dagger)

    print("\nbimodal prior (modes at -1.5 and +1.5):")
    x = ws.state_axes[0]
    vals = np.exp(-0.5 * (x - 1.5) ** 2 / 0.2) + np.exp(-0.5 * (x + 1.5) ** 2 / 0.2)
    bimodal = normalized(ws.state_lo, ws.state_hi, vals, expect_unit_mass=False,
                         context="demo prior")
    one_step(bimodal, ws, y_dagger)
    print("\nthe transport analysis only matches exact conditioning when the")
    print("lifted prediction is close to Gaussian; the gap above is that defect.")


if __name__ == "__main__":
    main()
