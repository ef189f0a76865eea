"""The tests' independent oracles and shared numeric helpers, each written once.

- Builders: `params_for` gives the N(d, mu) `ParamSet`, and
  `descending_embedding` an embedding with distinct, descending column energies.
- Pair loss: `pair_kernel` evaluates one term K(z_i, z_j).
  `batch_loss_gram` and `unblocked_loss_and_gradient` use the whole b x b
  matrix of pairwise terms at once, where `eccentric.kernel` works in tiles.
  `fd_gradient` is batch_loss's gradient from float64 central differences,
  `mp_loss` the loss at 40 significant digits with mpmath, `mp_gradient` its
  gradient from central differences taken at 40 digits, and
  `mp_closed_gradient` the same gradient from its closed form, fast enough for
  full tiles.
- Autoencoder: `total_loss` is the objective without its gradient;
  `fd_net_gradient` (float64) and `mp_net_gradient` (40-digit mpmath) take
  central differences of it in every network parameter.
  `total_loss_gradients` and `adam_step` restate the training step plainly:
  per-layer weight and bias arrays with sample-major activations, a separate
  bias sum, one unchunked product per weight gradient and a concatenated
  gradient; and textbook Adam, with both bias corrections applied to the moments.
- Radius: `stationarity_integral_mp` is the stationarity integral at 40 digits.
  The two lemmas behind the N(d, mu) rule are checked on its integrand
  f_{d,a}, not on the closed form the solver evaluates: `lemma_a_check`
  integrates its first moment (2 for 0 < a < 2), and `lemma_b_argmax` gives its
  argmax (d >= 4) in closed form, which `lemma_b_argmax_numeric` finds by a grid
  scan and a bounded Brent search.
- Analysis: `best_diagonal_mass` is the exhaustive d!-assignment optimum that
  `align` must reach, and `knn_loop_oracle` classifies by an explicit vote.

Only numpy and eccentric load with the module; each oracle imports mpmath or
scipy when it is called, so importing the module costs no more than the program.
"""

import math

import numpy as np

from eccentric.autoencoder import ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON, LEAKY_SLOPE
from eccentric.kernel import ParamSet, PointBatch, batch_loss, batch_loss_and_gradient, choose_big_n


def params_for(dim, mu=1.0, lam=0.0):
    """The loss parameters at N = N(dim, mu)."""
    return ParamSet(dim=dim, mu=mu, big_n=choose_big_n(dim, mu), lam=lam)


def descending_embedding(rng, n, d):
    """Random embedding with distinct, descending column energies."""
    cols = rng.standard_normal((n, d))
    cols -= cols.mean(axis=0)
    cols /= np.linalg.norm(cols, axis=0)
    return PointBatch(cols * (d - np.arange(d, dtype=np.float64)))


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
    from scipy.spatial.distance import cdist
    z = batch.data
    b = z.shape[0]
    sq = cdist(z, z, "sqeuclidean") / params.big_n
    loss = (float(np.sum(z * z)) / b
            - params.mu * params.big_n * float(np.sum(np.log1p(sq))) / (b * (b - 1)))
    w = 1.0 / (1.0 + sq)
    rep = w.sum(axis=1)[:, None] * z - w @ z
    return loss, (2.0 / b) * z - (4.0 * params.mu / (b * (b - 1))) * rep


def fd_gradient(z, params, h=1e-5):
    """Central differences (L(z + h e) - L(z - h e)) / 2h of batch_loss in every
    coordinate of the (b, d) array z, in float64."""
    grad = np.zeros_like(z)
    for i, j in np.ndindex(z.shape):
        up, down = z.copy(), z.copy()
        up[i, j] += h
        down[i, j] -= h
        grad[i, j] = (batch_loss(PointBatch(up), params)
                      - batch_loss(PointBatch(down), params)) / (2 * h)
    return grad


def _exact_ints(rows):
    """(ints, low): the rows as a (b, d) object array of integers with rows = ints 2^low.

    Each entry (a float or an mpf) is m 2^e with an integer m, and low is the
    least e, so every product and sum of the integers is exact."""
    import mpmath
    b, parts = len(rows), [mpmath.mpf(c)._mpf_ for row in rows for c in row]  # (sign, m, e, _)
    low = min((e for _, m, e, _ in parts if m), default=0)
    ints = np.array([(-m if s else m) << (e - low) for s, m, e, _ in parts], dtype=object)
    return ints.reshape(b, -1), low


def _mp_loss(rows, mu, big_n):
    """The pair loss in mpmath arithmetic: sum_i |z_i|^2 / b minus
    mu N / (b(b-1)) sum_{i != j} log(1 + |z_i - z_j|^2 / N), each pair taken once, twice.

    Each entry is m 2^e with an integer m, so on the least exponent E the rows
    are integers and every |z_i|^2 and |z_j - z_i|^2 is exact.  The sum of logs
    is the log of one product, taken at 10 digits above the working precision."""
    import mpmath
    b, (ints, low) = len(rows), _exact_ints(rows)
    with mpmath.extradps(10):
        scale = mpmath.ldexp(1, 2 * low) / big_n
        terms = (1 + scale * sq for i in range(b - 1)
                 for sq in ((ints[i + 1:] - ints[i]) ** 2).sum(axis=1))
        logs = mpmath.log(mpmath.fprod(terms))
    quad = mpmath.ldexp(int((ints * ints).sum()), 2 * low)
    return quad / b - 2 * mu * big_n * logs / (b * (b - 1))


def mp_loss(batch, params, digits=40):
    """The pair loss of a float batch from _mp_loss at ``digits`` significant digits."""
    import mpmath
    with mpmath.workdps(digits):
        return float(_mp_loss(batch.data.tolist(), mpmath.mpf(params.mu),
                              mpmath.mpf(params.big_n)))


def mp_gradient(batch, params, digits=40, h="1e-15"):
    """Central differences (L(z + h e) - L(z - h e)) / 2h of the pair loss in every
    coordinate, each loss evaluated with mpmath at ``digits`` significant digits.

    The float inputs convert exactly; the O(h^2) truncation and the rounding
    of 40 digits divided by h both stay far below float64 resolution."""
    import mpmath
    with mpmath.workdps(digits):
        rows = [[mpmath.mpf(float(c)) for c in row] for row in batch.data]
        mu, big_n, step = mpmath.mpf(params.mu), mpmath.mpf(params.big_n), mpmath.mpf(h)
        grad = np.empty(batch.data.shape)
        for i, row in enumerate(rows):
            for k, c in enumerate(row):
                row[k] = c + step
                up = _mp_loss(rows, mu, big_n)
                row[k] = c - step
                down = _mp_loss(rows, mu, big_n)
                row[k] = c
                grad[i, k] = float((up - down) / (2 * step))
    return grad


def mp_closed_gradient(batch, params, digits=40):
    """Row i of the pair loss's gradient, (2/b) z_i - 4 mu/(b(b-1)) sum_j w_ij (z_i - z_j)
    with w_ij = N / (N + |z_i - z_j|^2), at ``digits`` significant digits.

    z and every d^2 are exact integers on 2^low (see _exact_ints), and so is N on
    its own exponent.  Each w_ij is floored to a multiple of 2^-frac, frac = 4 * digits
    bits, which errs by less than 2^-frac absolute, so sum_j w_ij (z_i - z_j) is one
    exact integer sum; only the last two terms are rounded, at ``digits`` digits."""
    import mpmath
    ints, low = _exact_ints(batch.data.tolist())
    b, frac = len(ints), 4 * digits
    _, n_man, n_exp, _ = mpmath.mpf(params.big_n)._mpf_  # N = n_man 2^n_exp > 0
    base = min(n_exp, 2 * low)
    num = n_man << (n_exp - base)  # N on 2^base, and d^2 on 2^(2 low) shifts to it
    grad = np.empty(ints.shape)
    with mpmath.workdps(digits):
        pull = mpmath.mpf(2) / b
        push = 4 * mpmath.mpf(params.mu) / (b * (b - 1))
        for i in range(b):
            diff = ints[i] - ints
            sq = (diff * diff).sum(axis=1)
            w = (num << frac) // (num + (sq << (2 * low - base)))
            rep = w.dot(diff)
            grad[i] = [float(pull * mpmath.ldexp(x, low) - push * mpmath.ldexp(r, low - frac))
                       for x, r in zip(ints[i], rep)]
    return grad


def total_loss(x, encoder, decoder, params):
    """(recon, reg, total) where recon is the batch mean of |x - x_hat|^2."""
    z = encoder.forward(x)
    recon = float(np.mean(np.sum((x - decoder.forward(z)) ** 2, axis=1)))
    reg = batch_loss(PointBatch(z), params)
    return recon, reg, recon + params.lam * reg


def fd_net_gradient(x, encoder, decoder, params, h=1e-6):
    """Central differences of the total loss in every parameter, in float64, laid
    out like encoder.vec then decoder.vec."""
    out = []
    for p in (encoder.vec, decoder.vec):
        g = np.zeros_like(p)
        for idx in range(p.size):
            orig = p[idx]
            p[idx] = orig + h
            up = total_loss(x, encoder, decoder, params)[2]
            p[idx] = orig - h
            down = total_loss(x, encoder, decoder, params)[2]
            p[idx] = orig
            g[idx] = (up - down) / (2 * h)
        out.append(g)
    return np.concatenate(out)


def _mp_forward(spec, vec, rows):
    """A DenseNet's forward pass over lists of mpf rows, its parameters ``vec``
    (mpf, checkpoint order: W_k row-major, then b_k) layer by layer."""
    import mpmath
    slope, offset = mpmath.mpf(LEAKY_SLOPE), 0
    for (fan_in, fan_out), tag in zip(zip(spec.layer_widths, spec.layer_widths[1:]),
                                      spec.activations):
        w = vec[offset:offset + fan_in * fan_out]
        b = vec[offset + fan_in * fan_out:offset + (fan_in + 1) * fan_out]
        offset += (fan_in + 1) * fan_out
        pre = [[b[j] + mpmath.fsum(r[i] * w[i * fan_out + j] for i in range(fan_in))
                for j in range(fan_out)] for r in rows]
        if tag == "identity":
            rows = pre
        elif tag == "leaky-relu":
            rows = [[v if v > 0 else slope * v for v in r] for r in pre]
        else:
            rows = [[1 / (1 + mpmath.exp(-v)) for v in r] for r in pre]
    return rows


def _mp_total_loss(x, specs, vecs, mu, big_n, lam):
    """The autoencoder objective in mpmath arithmetic: the batch mean of
    |x - x_hat|^2 plus lam times the pair loss on the latent codes."""
    import mpmath
    z = _mp_forward(specs[0], vecs[0], x)
    x_hat = _mp_forward(specs[1], vecs[1], z)
    recon = mpmath.fsum((p - q) ** 2 for r, s in zip(x, x_hat) for p, q in zip(r, s))
    return recon / len(x) + lam * _mp_loss(z, mu, big_n)


def mp_net_gradient(x, encoder, decoder, params, digits=40, h="1e-15"):
    """Central differences of the total loss in every parameter, laid out like
    encoder.vec then decoder.vec, each loss evaluated with mpmath at ``digits``
    significant digits (see mp_gradient for the choice of h)."""
    import mpmath
    with mpmath.workdps(digits):
        rows = [[mpmath.mpf(float(c)) for c in row] for row in x]
        specs = (encoder.spec, decoder.spec)
        vecs = [[mpmath.mpf(float(v)) for v in net.vec] for net in (encoder, decoder)]
        mu, big_n, lam = (mpmath.mpf(v) for v in (params.mu, params.big_n, params.lam))
        step, grad = mpmath.mpf(h), []
        for vec in vecs:
            for k, c in enumerate(vec):
                vec[k] = c + step
                up = _mp_total_loss(rows, specs, vecs, mu, big_n, lam)
                vec[k] = c - step
                down = _mp_total_loss(rows, specs, vecs, mu, big_n, lam)
                vec[k] = c
                grad.append(float((up - down) / (2 * step)))
    return np.array(grad)


def _act(tag, pre):
    """(output, derivative) of an activation; the derivative is None for identity."""
    if tag == "identity":
        return pre, None
    if tag == "leaky-relu":
        slope = np.where(pre > 0.0, 1.0, LEAKY_SLOPE)
        return pre * slope, slope
    with np.errstate(over="ignore"):
        out = 1.0 / (1.0 + np.exp(-pre))
    return out, out * (1.0 - out)


def _forward(net, x, cache):
    out = x
    for w, b, tag in zip(net.weights, net.biases, net.spec.activations):
        inp = out
        out, slope = _act(tag, inp @ w + b)
        cache.append((inp, slope))
    return out


def total_loss_gradients(x, encoder, decoder, params):
    """(recon, reg, total, grad) with grad laid out like encoder.vec then decoder.vec."""
    x = np.asarray(x, dtype=np.float64)
    cache = []
    z = _forward(encoder, x, cache)
    x_hat = _forward(decoder, z, cache)
    recon = float(np.mean(np.sum((x - x_hat) ** 2, axis=1)))
    if params.lam > 0:
        reg, grad_reg = batch_loss_and_gradient(PointBatch(z), params)
    else:
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
        if i > 0:
            g = g @ weights[i].T
    return recon, reg, recon + params.lam * reg, np.concatenate(parts[::-1])


def adam_step(theta, grad, m, v, t, learning_rate, weight_decay):
    """Step t >= 1 of Adam with decoupled weight decay, updating theta, m and v in place."""
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grad
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * grad * grad
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    theta -= learning_rate * (m_hat / (np.sqrt(v_hat) + ADAM_EPSILON) + weight_decay * theta)


def stationarity_integral_mp(rho, dim, big_n):
    """Stationarity integral at 40 digits: Euler's integral with its full
    Gamma/Beta prefactor, its 2F1 evaluated through Pfaff's transform so the
    argument z/(z-1) lies in (0, 1).

    mpmath's hyp2f1 is unreliable at 40 digits on the untransformed argument
    (d=1000, mu=1.5, rho=sqrt(d)) and, past x = 0.8, on the transformed one
    too (d=1000, x=0.81 returns 3e33 for a value of 1.68).  From d = 64 on
    the series is summed term by term instead; its terms fall at least as
    fast as n^(-(d+1)/2)."""
    import mpmath as mp
    with mp.workdps(40):
        a = mp.mpf(big_n) / (2 * mp.mpf(rho) ** 2)
        p = mp.mpf(dim - 1) / 2
        q = mp.mpf(dim - 3) / 2
        z = -2 / a
        x = z / (z - 1)
        if dim < 64:
            hyp = mp.hyp2f1(1, q + 1, dim, x)
        else:
            hyp = term = mp.mpf(1)
            n = 0
            while term > mp.mpf(10) ** -45:
                term *= (q + 1 + n) / (dim + n) * x
                hyp += term
                n += 1
        pref = 2 / mp.sqrt(mp.pi) * mp.gamma(mp.mpf(dim) / 2) / mp.gamma(p)
        return float(pref * mp.mpf(2) ** (dim - 1) * mp.beta(p + 1, q + 1) * hyp / (1 - z))


def gamma_ratio(dim):
    """Gamma(d/2) / Gamma((d-1)/2) via log-gamma difference (no overflow to d=1e6)."""
    return math.exp(math.lgamma(dim / 2.0) - math.lgamma((dim - 1) / 2.0))


def _f_integrand(u, dim, a):
    """f_{d,a}(u) including the 2a/sqrt(pi) * Gamma-ratio prefactor."""
    u = np.asarray(u, dtype=np.float64)
    t = np.clip(a * (u - 1.0), 0.0, 2.0)
    val = t ** (0.5 * (dim - 1)) * (2.0 - t) ** (0.5 * (dim - 3)) / u
    return (2.0 * a / math.sqrt(math.pi)) * gamma_ratio(dim) * val


def lemma_a_check(dim, a):
    """Integral of u * f_{d,a}(u) over [1, 1 + 2/a] by scipy's adaptive Gauss-Kronrod."""
    from scipy.integrate import quad
    value, _ = quad(lambda u: u * float(_f_integrand(u, dim, a)), 1.0, 1.0 + 2.0 / a,
                    epsabs=1e-13, epsrel=1e-13)
    return value


def lemma_b_argmax(dim, a):
    """Closed-form argmax of f_{d,a} on (1, 1 + 2/a) for d >= 4.

    Its stationarity condition a = (1 + 1/(u m + 1)) / (u - 1), m = d - 3, is the
    quadratic a m u^2 + (a (1 - m) - m) u - (a + 2) = 0; the root u > 1 is returned.
    """
    m = dim - 3
    qa, qb, qc = a * m, a * (1.0 - m) - m, -(a + 2.0)
    return (-qb + math.sqrt(qb * qb - 4.0 * qa * qc)) / (2.0 * qa)


def lemma_b_argmax_numeric(dim, a):
    """The argmax of f_{d,a}: the best of a grid, refined by a bounded Brent search."""
    from scipy.optimize import minimize_scalar
    u = np.linspace(1.0, 1.0 + 2.0 / a, 4001)
    k = int(np.argmax(_f_integrand(u, dim, a)))
    res = minimize_scalar(lambda x: -float(_f_integrand(x, dim, a)),
                          bounds=(u[max(k - 1, 0)], u[min(k + 1, u.size - 1)]),
                          method="bounded", options={"xatol": 1e-10})
    return float(res.x)


def best_diagonal_mass(corr):
    """The largest sum_i |corr[i, p(i)]| over all d! column assignments p.

    Signs cannot change |corr|, so this is the best diagonal mass over all
    2^d d! signed permutations."""
    from itertools import permutations
    mag = np.abs(corr)
    return max(sum(mag[i, pi] for i, pi in enumerate(p))
               for p in permutations(range(len(mag))))


def knn_loop_oracle(train, labels, test, k):
    """Per-point loop with explicit vote counting: stable (distance, index)
    neighbors, then most votes, smallest summed distance, lowest label."""
    preds = []
    for x in test:
        d = np.linalg.norm(train - x, axis=1)
        nearest = np.argsort(d, kind="stable")[:k]
        cand = {}
        for j in nearest:
            lab = int(labels[j])
            cnt, tot = cand.get(lab, (0, 0.0))
            cand[lab] = (cnt + 1, tot + float(d[j]))
        preds.append(min(cand.items(), key=lambda kv: (-kv[1][0], kv[1][1], kv[0]))[0])
    return np.array(preds)
