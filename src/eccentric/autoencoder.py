"""Toy dense autoencoder with in-repo reverse-mode differentiation.

Training objective: mean over the batch of squared reconstruction distance,
plus lam times the repulsive pair loss on the latent codes of the batch.
Optimization is Adam with decoupled weight decay.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .datasets import Dataset
from .kernel import ParamSet, PointBatch, batch_loss_and_gradient

__all__ = [
    "DenseNetSpec",
    "DenseNet",
    "TrainConfig",
    "TrainReport",
    "total_loss_gradients",
    "train",
    "encode_dataset",
    "save_checkpoint",
    "load_checkpoint",
]

LEAKY_SLOPE = 0.1
_ACTIVATIONS = ("identity", "leaky-relu", "sigmoid")
CHECKPOINT_MAGIC = b"EAE1"
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


def _act(tag: str, pre: np.ndarray):
    """(output, derivative) of an activation; the derivative is None for identity."""
    if tag == "identity":
        return pre, None
    if tag == "leaky-relu":
        slope = np.where(pre > 0.0, 1.0, LEAKY_SLOPE)
        return pre * slope, slope
    # sigmoid: exp(-pre) overflows to inf below pre = -709, where 1/(1+inf) = 0 is exact
    with np.errstate(over="ignore"):
        out = 1.0 / (1.0 + np.exp(-pre))
    return out, out * (1.0 - out)


@dataclass(frozen=True)
class DenseNetSpec:
    """Layer widths (input first) and one activation tag per affine layer."""

    layer_widths: tuple
    activations: tuple

    def __post_init__(self):
        widths = tuple(int(w) for w in self.layer_widths)
        acts = tuple(self.activations)
        if len(widths) < 2:
            raise ValueError(f"need at least input and output widths, got {widths}")
        if any(w < 1 for w in widths):
            raise ValueError(f"widths must be positive, got {widths}")
        if len(acts) != len(widths) - 1:
            raise ValueError(
                f"need {len(widths) - 1} activation tags for {len(widths)} widths, got {len(acts)}"
            )
        for tag in acts:
            if tag not in _ACTIVATIONS:
                raise ValueError(f"unknown activation {tag!r}; expected one of {_ACTIVATIONS}")
        object.__setattr__(self, "layer_widths", widths)
        object.__setattr__(self, "activations", acts)

    @property
    def in_width(self) -> int:
        return self.layer_widths[0]

    @property
    def out_width(self) -> int:
        return self.layer_widths[-1]

    @property
    def param_count(self) -> int:
        w = self.layer_widths
        return sum(fi * fo + fo for fi, fo in zip(w[:-1], w[1:]))


class DenseNet:
    """Fully connected network; total_loss_gradients differentiates it.

    Weights W have shape (fan_in, fan_out); a layer computes x @ W + b
    followed by its activation.  All parameters live in one float64 vector
    ``vec`` in checkpoint order (W0 row-major, b0, W1, b1, ...);
    ``weights`` and ``biases`` are per-layer views into it.
    """

    def __init__(self, spec: DenseNetSpec, vec: np.ndarray):
        if vec.dtype != np.float64 or vec.shape != (spec.param_count,):
            raise ValueError(
                f"need {spec.param_count} float64 parameters, got {vec.dtype} {vec.shape}")
        self.spec = spec
        self.vec = vec
        self.weights, self.biases = [], []
        offset = 0
        for fi, fo in zip(spec.layer_widths[:-1], spec.layer_widths[1:]):
            self.weights.append(vec[offset:offset + fi * fo].reshape(fi, fo))
            offset += fi * fo
            self.biases.append(vec[offset:offset + fo])
            offset += fo

    @classmethod
    def initialize(cls, spec: DenseNetSpec, rng: np.random.Generator) -> "DenseNet":
        """Uniform init in +-sqrt(6/(fan_in+fan_out)), zero biases."""
        net = cls(spec, np.zeros(spec.param_count))
        for w in net.weights:
            bound = np.sqrt(6.0 / sum(w.shape))
            w[...] = rng.uniform(-bound, bound, size=w.shape)
        return net

    def forward(self, x: np.ndarray, cache: list | None = None) -> np.ndarray:
        """Apply the network to a (rows, in_width) batch.  Given a ``cache`` list,
        append (input, activation derivative) per layer for the backward loop.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.spec.in_width:
            raise ValueError(
                f"expected a (rows, {self.spec.in_width}) input, got shape {x.shape}")
        out = x
        for w, b, tag in zip(self.weights, self.biases, self.spec.activations):
            inp = out
            out, slope = _act(tag, inp @ w + b)
            if cache is not None:
                cache.append((inp, slope))
        return out


@dataclass(frozen=True)
class TrainConfig:
    encoder: DenseNetSpec
    decoder: DenseNetSpec
    params: ParamSet
    batch_size: int = 100
    epochs: int = 1
    learning_rate: float = 1e-4
    weight_decay: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.encoder.out_width != self.params.dim:
            raise ValueError(
                f"encoder output width {self.encoder.out_width} != latent dim {self.params.dim}"
            )
        if self.decoder.in_width != self.params.dim:
            raise ValueError(
                f"decoder input width {self.decoder.in_width} != latent dim {self.params.dim}"
            )
        if self.encoder.in_width != self.decoder.out_width:
            raise ValueError("encoder input width must equal decoder output width")
        if self.batch_size < 2:
            raise ValueError(f"batch_size must be >= 2 (pair loss needs pairs), got {self.batch_size}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be nonnegative, got {self.epochs}")
        for name in ("learning_rate", "weight_decay"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")


@dataclass(frozen=True)
class TrainReport:
    recon_trace: list = field(repr=False)
    reg_trace: list = field(repr=False)
    encoder: DenseNet = field(repr=False, default=None)
    decoder: DenseNet = field(repr=False, default=None)
    embedding: PointBatch = field(repr=False, default=None)


def total_loss_gradients(x: np.ndarray, encoder: DenseNet, decoder: DenseNet,
                         params: ParamSet):
    """Loss values plus the gradient of the total loss in every parameter.

    Returns (recon, reg, total, grad) where grad is one vector: the encoder's
    ``vec`` layout followed by the decoder's.  One backward loop runs over
    the layers of both nets; the regularizer's gradient joins it at the
    latent codes, the output of the encoder's last layer.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] < 2:
        raise ValueError(f"batch must have >= 2 items, got {x.shape[0]}")
    cache = []
    z = encoder.forward(x, cache)
    x_hat = decoder.forward(z, cache)
    recon = float(np.mean(np.sum((x - x_hat) ** 2, axis=1)))
    if params.lam > 0:
        reg, grad_reg = batch_loss_and_gradient(PointBatch(z), params)
    else:
        # lam = 0 reduces to a plain reconstruction autoencoder
        reg, grad_reg = 0.0, None
    weights = encoder.weights + decoder.weights
    latent = len(encoder.weights) - 1
    g = 2.0 * (x_hat - x) / x.shape[0]
    parts = []  # per layer, last first: bias gradient, then weight gradient
    for i in range(len(weights) - 1, -1, -1):
        if i == latent and grad_reg is not None:
            g = g + params.lam * grad_reg
        inp, slope = cache[i]
        if slope is not None:
            g = g * slope
        parts += [g.sum(axis=0), (inp.T @ g).ravel()]
        if i > 0:  # the data's own gradient is never needed
            g = g @ weights[i].T
    return recon, reg, recon + params.lam * reg, np.concatenate(parts[::-1])


class _Adam:
    """Adam with decoupled weight decay over one flat parameter vector."""

    def __init__(self, config: TrainConfig, size: int):
        self.config = config
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, theta, grad):
        c, m, v = self.config, self.m, self.v
        self.t += 1
        b1c = 1.0 - ADAM_BETA1**self.t
        b2c = 1.0 - ADAM_BETA2**self.t
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * grad
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * grad * grad
        theta -= c.learning_rate * ((m / b1c) / (np.sqrt(v / b2c) + ADAM_EPSILON)
                                    + c.weight_decay * theta)


def train(config: TrainConfig, dataset: Dataset) -> TrainReport:
    """Train the autoencoder; returns loss traces and the training set's embedding.

    Epochs are shuffled deterministically from the seed.  A trailing partial
    batch is kept if it still holds a pair, otherwise dropped.
    """
    if dataset.count < config.batch_size:
        raise ValueError(
            f"dataset size {dataset.count} < batch_size {config.batch_size}"
        )
    rng = np.random.default_rng(config.seed)
    # both networks are views into theta, the one vector Adam updates
    theta = np.concatenate([DenseNet.initialize(config.encoder, rng).vec,
                            DenseNet.initialize(config.decoder, rng).vec])
    split = config.encoder.param_count
    encoder = DenseNet(config.encoder, theta[:split])
    decoder = DenseNet(config.decoder, theta[split:])
    opt = _Adam(config, theta.size)

    recon_trace, reg_trace = [], []
    data = dataset.data
    for epoch in range(config.epochs):
        perm = rng.permutation(dataset.count)
        recon_sum = reg_sum = 0.0
        batches = 0
        for start in range(0, dataset.count, config.batch_size):
            idx = perm[start:start + config.batch_size]
            if idx.size < 2:
                continue
            x = data[idx]
            recon, reg, total, grad = total_loss_gradients(
                x, encoder, decoder, config.params)
            if not np.isfinite(total):
                raise FloatingPointError(
                    f"non-finite loss at epoch {epoch}, batch {batches}"
                )
            opt.step(theta, grad)
            recon_sum += recon
            reg_sum += reg
            batches += 1
        recon_trace.append(recon_sum / batches)
        reg_trace.append(reg_sum / batches)

    return TrainReport(
        recon_trace=recon_trace,
        reg_trace=reg_trace,
        encoder=encoder,
        decoder=decoder,
        embedding=encode_dataset(encoder, dataset),
    )


def encode_dataset(encoder: DenseNet, dataset: Dataset) -> PointBatch:
    """Map every item through the encoder, preserving order."""
    return PointBatch(encoder.forward(dataset.data))


def save_checkpoint(net: DenseNet, path):
    """Flat binary checkpoint: magic, u32 width count, u32 widths, then ``vec``
    as little-endian float64.

    Activations are not stored; supply the spec when loading.
    """
    widths = net.spec.layer_widths
    header = CHECKPOINT_MAGIC + struct.pack(f"<{len(widths) + 1}I", len(widths), *widths)
    Path(path).write_bytes(header + net.vec.astype("<f8").tobytes())


def load_checkpoint(path, spec: DenseNetSpec) -> DenseNet:
    """Load a checkpoint written by save_checkpoint; widths must match spec."""
    buf = Path(path).read_bytes()
    if buf[:4] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: bad checkpoint magic {buf[:4]!r}")
    count = struct.unpack_from("<I", buf, 4)[0] if len(buf) >= 8 else 0
    header = 8 + 4 * count
    if len(buf) < header:
        raise ValueError(f"{path}: truncated checkpoint header ({len(buf)} bytes)")
    widths = struct.unpack_from(f"<{count}I", buf, 8)
    if widths != spec.layer_widths:
        raise ValueError(f"{path}: widths {widths} do not match spec {spec.layer_widths}")
    size = header + 8 * spec.param_count
    if len(buf) != size:
        problem = "trailing bytes" if len(buf) > size else "truncated parameters"
        raise ValueError(f"{path}: {problem}: {len(buf)} bytes, expected {size}")
    return DenseNet(spec, np.frombuffer(buf, dtype="<f8", offset=header).astype(np.float64))
