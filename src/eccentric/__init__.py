"""Hyperspherical latent regularization toolkit.

Subpackages: kernel (pair loss and gradient), radius (stationary sphere
solver and force profile), particles (free gradient-descent flow),
autoencoder (toy dense autoencoder with manual backprop), datasets
(synthetic generators and IDX ingestion), analysis (spectrum, alignment,
samplers, KNN), cli (command-line entry point).
"""

from .kernel import (
    ParamSet,
    PointBatch,
    batch_loss,
    batch_loss_and_gradient,
    choose_big_n,
)
from .radius import force_profile, solve_radius, sweep_radius

__all__ = [
    "ParamSet",
    "PointBatch",
    "batch_loss",
    "batch_loss_and_gradient",
    "choose_big_n",
    "solve_radius",
    "sweep_radius",
    "force_profile",
]

__version__ = "0.1.0"
