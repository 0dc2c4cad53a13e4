"""Grid-density and ensemble filtering built from explicit measure maps.

The package decomposes one assimilation step into composable maps on
probability measures: prediction through the stochastic dynamics, lifting to
the joint state/data space, and either exact conditioning on the datum or the
affine Kalman transport that replaces it in ensemble methods. Densities live
on tensor-product grids with trapezoidal quadrature; closed-form Gaussian
algebra and a finite particle ensemble sit alongside as oracles and
approximations. The ``verify`` module measures the library's contract
inequalities; the ``cli`` module batches experiments.
"""

__version__ = "0.1.0"

from .model import MapSpec, ModelSpec, sweep_model
from .filters import FilterConfig, generate_data, plan_workspace, run_filter

__all__ = [
    "__version__",
    "FilterConfig", "MapSpec", "ModelSpec", "generate_data", "plan_workspace",
    "run_filter", "sweep_model",
]
