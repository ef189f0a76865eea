"""Free-particle gradient descent on the repulsive pair loss.

Minimizing the loss on an unconstrained point cloud drives the points onto
a hypersphere of radius close to sqrt(d); this module runs that descent and
summarizes the final configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analysis import SpectrumReport, spectrum
from .kernel import ParamSet, PointBatch, batch_gradient, batch_loss, batch_loss_and_gradient

__all__ = ["SimConfig", "SimReport", "DivergenceError", "simulate", "radial_stats"]

RECORD_EVERY = 50  # simulate records the loss at every RECORD_EVERY-th step


class DivergenceError(FloatingPointError):
    """Descent produced a non-finite coordinate."""

    def __init__(self, step: int):
        super().__init__(f"non-finite coordinates at step {step}; reduce step_size")
        self.step = step


@dataclass(frozen=True)
class SimConfig:
    params: ParamSet
    count: int
    steps: int
    step_size: float
    seed: int = 0
    init_scale: float = 0.01

    def __post_init__(self):
        if self.count < 2:
            raise ValueError(f"count must be >= 2, got {self.count}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if not 0 <= self.step_size < np.inf:
            raise ValueError(f"step_size must be finite and nonnegative, got {self.step_size}")
        if not np.isfinite(self.init_scale):
            raise ValueError(f"init_scale must be finite, got {self.init_scale}")


@dataclass(frozen=True)
class SimReport:
    final_batch: PointBatch = field(repr=False)
    loss_trace: list = field(repr=False)
    radial_mean: float
    radial_std: float
    spectrum: SpectrumReport


def radial_stats(batch: PointBatch) -> tuple[float, float]:
    """Mean and (population) standard deviation of row norms."""
    norms = np.linalg.norm(batch.data, axis=1)
    return float(norms.mean()), float(norms.std())


def simulate(config: SimConfig, init: np.ndarray | None = None) -> SimReport:
    """Full-batch gradient descent z <- z - eta * grad, recording the loss at
    every RECORD_EVERY-th step and after the last.

    init overrides the Gaussian starting cloud (used e.g. to test rotation
    equivariance); it must have shape (count, dim).
    """
    params = config.params
    if init is None:
        rng = np.random.default_rng(config.seed)
        z = config.init_scale * rng.standard_normal((config.count, params.dim))
    else:
        z = np.array(init, dtype=np.float64)
        if z.shape != (config.count, params.dim):
            raise ValueError(
                f"init shape {z.shape} != (count, dim) = {(config.count, params.dim)}"
            )

    trace = []
    for step in range(config.steps):
        # overflow here is reported as DivergenceError, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            if step % RECORD_EVERY == 0:
                loss, grad = batch_loss_and_gradient(PointBatch(z), params)
                trace.append(loss)
            else:
                grad = batch_gradient(PointBatch(z), params)
            grad *= config.step_size
            z -= grad  # z is the loop's own: init was copied above
        if not np.all(np.isfinite(z)):
            raise DivergenceError(step)

    final = PointBatch(z)
    trace.append(batch_loss(final, params))
    mean, std = radial_stats(final)
    return SimReport(
        final_batch=final,
        loss_trace=trace,
        radial_mean=mean,
        radial_std=std,
        spectrum=spectrum(final),
    )
