"""hvgan: hypervolume-scalarized multi-loss GAN training at desk scale.

The package bundles a small multi-objective toolkit (Pareto filtering, exact
and Monte-Carlo hypervolume), a negative-log-hypervolume loss scalarizer with
its induced gradient weights, a minimal tape-based reverse-mode autodiff, a
GAN loss zoo, tiny conv generator/discriminator nets with Adam and a
two-phase training loop, PSNR/SSIM/GMSD metrics, and PGM/PPM image plumbing.
"""

import os

# BLAS runs on one thread unless the user sets these variables. The matrices
# here are small, and OpenBLAS's default pool made an adversarial step about
# 10x slower when other processes competed for the cores. The variables are
# read when numpy loads BLAS, so this must run before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"

from .moo import (
    Orientation,
    PointSet,
    dominates,
    pareto_filter,
    hypervolume_exact,
    hypervolume_mc,
)
from .scalarize import (
    hv_log_loss,
    hv_log_loss_normalized,
    gradient_weights,
    linear_fixed,
)

__all__ = [
    "__version__",
    "Orientation",
    "PointSet",
    "dominates",
    "pareto_filter",
    "hypervolume_exact",
    "hypervolume_mc",
    "hv_log_loss",
    "hv_log_loss_normalized",
    "gradient_weights",
    "linear_fixed",
]
