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

from .io import open_new
from .kernel import ParamSet, PointBatch, _matmul, batch_loss_and_gradient

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
    """Apply an activation to ``pre`` in place; return its derivative (None for identity)."""
    if tag == "identity":
        return None
    if tag == "leaky-relu":
        slope = np.where(pre > 0.0, 1.0, LEAKY_SLOPE)
        pre *= slope
        return slope
    # sigmoid: exp(-pre) overflows to inf below pre = -709, where 1/(1+inf) = 0 is exact
    np.exp(np.negative(pre, out=pre), out=pre)
    np.reciprocal(np.add(pre, 1.0, out=pre), out=pre)
    return pre * (1.0 - pre)


def _blocks(vec: np.ndarray, *specs: DenseNetSpec) -> list:
    """(fan_in + 1, fan_out) views of ``vec``, W_k row-major then b_k, layer by layer."""
    blocks, offset = [], 0
    for spec in specs:
        for fi, fo in zip(spec.layer_widths, spec.layer_widths[1:]):
            blocks.append(vec[offset:offset + (fi + 1) * fo].reshape(fi + 1, fo))
            offset += (fi + 1) * fo
    return blocks


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
    def param_count(self) -> int:
        w = self.layer_widths
        return sum(fi * fo + fo for fi, fo in zip(w[:-1], w[1:]))


class DenseNet:
    """Fully connected network; total_loss_gradients differentiates it.

    A layer computes x @ W + b, W of shape (fan_in, fan_out), then its
    activation.  All parameters live in one float64 vector ``vec`` in
    checkpoint order (W0 row-major, b0, W1, b1, ...), so ``blocks[k]``, W_k
    over the row b_k, is one view of it; ``weights`` and ``biases`` view those.
    """

    def __init__(self, spec: DenseNetSpec, vec: np.ndarray):
        if vec.dtype != np.float64 or vec.shape != (spec.param_count,):
            raise ValueError(
                f"need {spec.param_count} float64 parameters, got {vec.dtype} {vec.shape}")
        self.spec, self.vec, self.blocks = spec, vec, _blocks(vec, spec)
        self.weights = [block[:-1] for block in self.blocks]
        self.biases = [block[-1] for block in self.blocks]

    @classmethod
    def initialize(cls, spec: DenseNetSpec, rng: np.random.Generator) -> "DenseNet":
        """Uniform init in +-sqrt(6/(fan_in+fan_out)), zero biases."""
        net = cls(spec, np.zeros(spec.param_count))
        for w in net.weights:
            bound = np.sqrt(6.0 / sum(w.shape))
            w[...] = rng.uniform(-bound, bound, size=w.shape)
        return net

    def forward(self, x: np.ndarray, cache: list | None = None) -> np.ndarray:
        """Apply the network to a (rows, in_width) batch: each layer copies its input
        beside a column of ones, takes one product with its block and applies its
        activation in place.  Given a ``cache`` list, append (that input, the
        activation's derivative) per layer for the backward loop.  Overflow on
        the way warns nothing; a non-finite output raises FloatingPointError."""
        x = np.asarray(x)
        if x.ndim != 2 or x.shape[1] != self.spec.layer_widths[0]:
            raise ValueError(
                f"expected a (rows, {self.spec.layer_widths[0]}) input, got shape {x.shape}")
        out = x
        with np.errstate(over="ignore", invalid="ignore"):
            for block, tag in zip(self.blocks, self.spec.activations):
                inp = np.empty((x.shape[0], block.shape[0]))
                inp[:, :-1], inp[:, -1] = out, 1.0
                out = _matmul(inp, block)
                slope = _act(tag, out)
                if cache is not None:
                    cache.append((inp, slope))
        if not np.isfinite(out).all():
            raise FloatingPointError("non-finite network output")
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
        enc, dec = self.encoder.layer_widths, self.decoder.layer_widths
        if (enc[-1], dec[0]) != (self.params.dim,) * 2:
            raise ValueError(f"encoder output and decoder input widths {(enc[-1], dec[0])} "
                             f"must equal the latent dim {self.params.dim}")
        if enc[0] != dec[-1]:
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
    encoder: DenseNet = field(repr=False)
    decoder: DenseNet = field(repr=False)
    embedding: PointBatch = field(repr=False)


def total_loss_gradients(x: np.ndarray, encoder: DenseNet, decoder: DenseNet,
                         params: ParamSet):
    """Loss values plus the gradient of the total loss in every parameter.

    A non-finite network output or loss raises FloatingPointError.
    Returns (recon, reg, total, grad) where grad is one vector: the encoder's
    ``vec`` layout followed by the decoder's.  One backward loop runs over
    the layers of both nets; the regularizer's gradient joins it at the
    latent codes, the output of the encoder's last layer.  One product,
    (layer input with ones).T @ g, writes a layer's block of grad."""
    rows = len(x)
    if rows < 2:
        raise ValueError(f"batch must have >= 2 items, got {rows}")
    cache = []
    z = encoder.forward(x, cache)
    g = decoder.forward(z, cache)
    g -= x  # x_hat - x: forward's output is a fresh array
    recon = float(np.einsum("ij,ij->", g, g)) / rows
    if params.lam > 0:
        reg, grad_reg = batch_loss_and_gradient(PointBatch(z), params)
    else:
        # lam = 0 reduces to a plain reconstruction autoencoder
        reg, grad_reg = 0.0, None
    total = recon + params.lam * reg
    if not np.isfinite(total):
        raise FloatingPointError("non-finite loss")
    grad = np.empty(encoder.vec.size + decoder.vec.size)
    dests = _blocks(grad, encoder.spec, decoder.spec)
    blocks, latent = encoder.blocks + decoder.blocks, len(encoder.blocks) - 1
    g *= 2.0 / rows
    for i in range(len(blocks) - 1, -1, -1):
        if i == latent and grad_reg is not None:
            g += params.lam * grad_reg
        inp, slope = cache[i]
        if slope is not None:
            g *= slope
        _matmul(inp.T, g, out=dests[i])
        if i > 0:  # the data's own gradient is never needed
            g = _matmul(g, blocks[i][:-1].T)
    return recon, reg, total, grad


class _Adam:
    """Adam with decoupled weight decay, in place over one flat parameter vector.
    The bias corrections fold into one scalar step size (Kingma & Ba,
    arXiv:1412.6980, sec. 2), so epsilon joins the uncorrected sqrt(v)."""

    def __init__(self, config: TrainConfig, size: int):
        self.config = config
        self.m, self.v, self.scratch = np.zeros(size), np.zeros(size), np.empty(size)
        self.t = 0

    def step(self, theta, grad):
        c, m, v, s = self.config, self.m, self.v, self.scratch
        self.t += 1
        rate = c.learning_rate * (1.0 - ADAM_BETA2**self.t) ** 0.5 / (1.0 - ADAM_BETA1**self.t)
        m *= ADAM_BETA1
        m += np.multiply(grad, 1.0 - ADAM_BETA1, out=s)
        v *= ADAM_BETA2
        v += np.multiply(np.square(grad, out=s), 1.0 - ADAM_BETA2, out=s)
        np.divide(m, np.add(np.sqrt(v, out=s), ADAM_EPSILON, out=s), out=s)
        theta *= 1.0 - c.learning_rate * c.weight_decay
        theta -= np.multiply(s, rate, out=s)


def train(config: TrainConfig, dataset: PointBatch) -> TrainReport:
    """Train the autoencoder; returns loss traces and the training set's embedding.

    Epochs are shuffled deterministically from the seed.  A trailing partial
    batch is kept if it still holds a pair, otherwise dropped.  A diverging
    step raises FloatingPointError naming its epoch and batch; its overflow
    warns nothing.
    """
    if dataset.count < config.batch_size:
        raise ValueError(f"dataset size {dataset.count} < batch_size {config.batch_size}")
    rng = np.random.default_rng(config.seed)
    # both networks are views into theta, the one vector Adam updates
    theta = np.concatenate([DenseNet.initialize(config.encoder, rng).vec,
                            DenseNet.initialize(config.decoder, rng).vec])
    split = config.encoder.param_count
    encoder = DenseNet(config.encoder, theta[:split])
    decoder = DenseNet(config.decoder, theta[split:])
    opt = _Adam(config, theta.size)

    recon_trace, reg_trace = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            perm = rng.permutation(dataset.count)
            recon_sum = reg_sum = 0.0
            batches = 0
            for start in range(0, dataset.count, config.batch_size):
                idx = perm[start:start + config.batch_size]
                if idx.size < 2:
                    continue
                try:
                    recon, reg, _, grad = total_loss_gradients(
                        dataset.data[idx], encoder, decoder, config.params)
                except FloatingPointError as exc:
                    raise FloatingPointError(f"{exc} at epoch {epoch}, batch {batches}") from None
                opt.step(theta, grad)
                recon_sum += recon
                reg_sum += reg
                batches += 1
            recon_trace.append(recon_sum / batches)
            reg_trace.append(reg_sum / batches)
        embedding = encode_dataset(encoder, dataset)
    return TrainReport(recon_trace, reg_trace, encoder, decoder, embedding)


def encode_dataset(encoder: DenseNet, dataset: PointBatch) -> PointBatch:
    """Map every item through the encoder, preserving order and labels."""
    return PointBatch(encoder.forward(dataset.data), dataset.labels)


def save_checkpoint(net: DenseNet, path):
    """Flat binary checkpoint: magic, u32 width count, u32 widths, then ``vec``
    as little-endian float64.

    Activations are not stored; supply the spec when loading.
    """
    widths = net.spec.layer_widths
    header = CHECKPOINT_MAGIC + struct.pack(f"<{len(widths) + 1}I", len(widths), *widths)
    with open_new(path, binary=True) as fh:
        fh.write(header + net.vec.astype("<f8").tobytes())


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
