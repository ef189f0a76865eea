"""Independent evaluations of the pair loss, kept as test oracles.

`pair_kernel` evaluates one term K(z_i, z_j).  The two batch oracles take a
`PointBatch` and the loss parameters and use the whole b x b matrix of
pairwise terms at once, where `eccentric.kernel` works in row blocks.
`total_loss` is the autoencoder objective without its gradient, the loss
that finite differences are taken of.
"""

import numpy as np
from scipy.spatial.distance import cdist

from eccentric.kernel import PointBatch, batch_loss


def pair_kernel(z_i, z_j, params):
    """K(z_i, z_j) = (|z_i|^2 + |z_j|^2)/2 - mu N log(1 + |z_i - z_j|^2 / N)."""
    diff = z_i - z_j
    quad = 0.5 * (float(z_i @ z_i) + float(z_j @ z_j))
    return quad - params.mu * params.big_n * np.log1p(float(diff @ diff) / params.big_n)


def batch_loss_gram(batch, params):
    """The loss via the dot-product (Gram) expansion of pairwise distances.

    Cancellation can push the expanded squared distances slightly negative,
    so they are clamped at 0.
    """
    z = batch.data
    b = z.shape[0]
    big_n = params.big_n
    xx = np.sum(z * z, axis=1)
    sq = xx[:, None] + xx[None, :] - 2.0 * (z @ z.T)
    np.maximum(sq, 0.0, out=sq)
    rep = params.mu * big_n * float(np.sum(np.log1p(sq / big_n))) / (b - 1)
    return (float(np.sum(xx)) - rep) / b


def unblocked_loss_and_gradient(batch, params):
    """The loss and its gradient from one full b x b distance matrix."""
    z = batch.data
    b = z.shape[0]
    sq = cdist(z, z, "sqeuclidean") / params.big_n
    loss = (float(np.sum(z * z)) / b
            - params.mu * params.big_n * float(np.sum(np.log1p(sq))) / (b * (b - 1)))
    w = 1.0 / (1.0 + sq)
    rep = w.sum(axis=1)[:, None] * z - w @ z
    return loss, (2.0 / b) * z - (4.0 * params.mu / (b * (b - 1))) * rep


def total_loss(x, encoder, decoder, params):
    """(recon, reg, total) where recon is the batch mean of |x - x_hat|^2."""
    z = encoder.forward(x)
    recon = float(np.mean(np.sum((x - decoder.forward(z)) ** 2, axis=1)))
    reg = batch_loss(PointBatch(z), params)
    return recon, reg, recon + params.lam * reg
