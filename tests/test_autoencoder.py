import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from eccentric.autoencoder import (
    DenseNet,
    DenseNetSpec,
    TrainConfig,
    encode_dataset,
    load_checkpoint,
    save_checkpoint,
    total_loss,
    total_loss_gradients,
    train,
)
from eccentric.datasets import Dataset, noisy_ring
from eccentric.kernel import ParamSet, choose_big_n


def latent_params(dim=2, mu=1.0, lam=0.0):
    return ParamSet(dim=dim, mu=mu, big_n=choose_big_n(dim, mu), lam=lam)


def tiny_nets(rng, in_width=4, latent=2, hidden=6, act="leaky-relu"):
    enc_spec = DenseNetSpec((in_width, hidden, latent), (act, "identity"))
    dec_spec = DenseNetSpec((latent, hidden, in_width), (act, "sigmoid"))
    return (DenseNet.initialize(enc_spec, rng),
            DenseNet.initialize(dec_spec, rng))


class TestDenseNetSpec:
    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            DenseNetSpec((4,), ())
        with pytest.raises(ValueError):
            DenseNetSpec((4, 0), ("relu",))
        with pytest.raises(ValueError):
            DenseNetSpec((4, 2), ("relu", "relu"))
        with pytest.raises(ValueError):
            DenseNetSpec((4, 2), ("tanh",))


class TestDenseNetForward:
    def test_single_identity_layer_is_affine(self):
        # oracle: direct matrix arithmetic
        spec = DenseNetSpec((3, 2), ("identity",))
        w = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        b = np.array([0.5, -0.5])
        net = DenseNet(spec, np.concatenate([w.ravel(), b]))
        x = np.array([[1.0, 0.0, -1.0], [2.0, 1.0, 0.0]])
        np.testing.assert_allclose(net.forward(x), x @ w + b, atol=1e-15)

    def test_two_layer_composition(self):
        spec = DenseNetSpec((2, 3, 2), ("relu", "sigmoid"))
        rng = np.random.default_rng(0)
        net = DenseNet.initialize(spec, rng)
        x = rng.standard_normal((5, 2))
        h = np.maximum(x @ net.weights[0] + net.biases[0], 0.0)
        expected = 1.0 / (1.0 + np.exp(-(h @ net.weights[1] + net.biases[1])))
        np.testing.assert_allclose(net.forward(x), expected, atol=1e-12)

    def test_vector_input_squeezed(self):
        spec = DenseNetSpec((3, 2), ("identity",))
        net = DenseNet.initialize(spec, np.random.default_rng(1))
        x = np.array([1.0, 2.0, 3.0])
        out = net.forward(x)
        assert out.shape == (2,)
        np.testing.assert_array_equal(out, net.forward(x[None, :])[0])

    def test_width_mismatch(self):
        spec = DenseNetSpec((3, 2), ("identity",))
        net = DenseNet.initialize(spec, np.random.default_rng(2))
        with pytest.raises(ValueError):
            net.forward(np.zeros((4, 5)))

    def test_init_bounds(self):
        spec = DenseNetSpec((100, 50), ("identity",))
        net = DenseNet.initialize(spec, np.random.default_rng(3))
        bound = np.sqrt(6.0 / 150)
        assert np.abs(net.weights[0]).max() <= bound
        assert np.all(net.biases[0] == 0.0)


def fd_param_gradients(x, encoder, decoder, params, h=1e-6):
    """Central finite differences of the total loss in every parameter.

    Returns one vector laid out like total_loss_gradients' gradient.
    """
    def value():
        return total_loss(x, encoder, decoder, params)[2]

    out = []
    for p in (encoder.vec, decoder.vec):
        g = np.zeros_like(p)
        for idx in range(p.size):
            orig = p[idx]
            p[idx] = orig + h
            up = value()
            p[idx] = orig - h
            down = value()
            p[idx] = orig
            g[idx] = (up - down) / (2 * h)
        out.append(g)
    return np.concatenate(out)


class TestGradients:
    @pytest.mark.parametrize("act", ["identity", "leaky-relu", "sigmoid"])
    def test_whole_network_finite_differences(self, act):
        rng = np.random.default_rng(5)
        encoder, decoder = tiny_nets(rng, act=act)
        params = latent_params(lam=0.5)
        x = rng.uniform(0.1, 0.9, (10, 4))
        _, _, _, analytic = total_loss_gradients(x, encoder, decoder, params)
        numeric = fd_param_gradients(x, encoder, decoder, params)
        np.testing.assert_allclose(analytic, numeric, atol=1e-7, rtol=1e-5)

    def test_relu_gradient_away_from_kink(self):
        # relu is tested with inputs pushed away from the nondifferentiable point
        rng = np.random.default_rng(6)
        encoder, decoder = tiny_nets(rng, act="relu")
        params = latent_params(lam=0.5)
        x = rng.uniform(0.3, 0.9, (8, 4))
        pre = x @ encoder.weights[0] + encoder.biases[0]
        if np.abs(pre).min() < 1e-4:
            encoder.biases[0] += 1e-3
        _, _, _, analytic = total_loss_gradients(x, encoder, decoder, params)
        numeric = fd_param_gradients(x, encoder, decoder, params)
        np.testing.assert_allclose(analytic, numeric, atol=1e-7, rtol=1e-5)

    def test_loss_values_match_total_loss(self):
        rng = np.random.default_rng(7)
        encoder, decoder = tiny_nets(rng)
        params = latent_params(lam=0.3)
        x = rng.uniform(0.0, 1.0, (12, 4))
        recon_a, reg_a, total_a = total_loss(x, encoder, decoder, params)
        recon_b, reg_b, total_b, _ = total_loss_gradients(x, encoder, decoder, params)
        assert recon_a == pytest.approx(recon_b, rel=1e-14)
        assert reg_a == pytest.approx(reg_b, rel=1e-14)
        assert total_a == pytest.approx(total_b, rel=1e-14)

    def test_lam_zero_skips_regularizer(self):
        rng = np.random.default_rng(8)
        encoder, decoder = tiny_nets(rng)
        x = rng.uniform(0.0, 1.0, (6, 4))
        recon, reg, total, _ = total_loss_gradients(x, encoder, decoder,
                                                    latent_params(lam=0.0))
        assert reg == 0.0
        assert total == recon

    def test_batch_too_small(self):
        rng = np.random.default_rng(9)
        encoder, decoder = tiny_nets(rng)
        with pytest.raises(ValueError):
            total_loss_gradients(np.zeros((1, 4)), encoder, decoder,
                                 latent_params())


def ring_config(lam=0.0, epochs=2, seed=0, lr=1e-3):
    params = latent_params(lam=lam)
    enc = DenseNetSpec((2, 8, 2), ("leaky-relu", "identity"))
    dec = DenseNetSpec((2, 8, 2), ("leaky-relu", "sigmoid"))
    return TrainConfig(encoder=enc, decoder=dec, params=params, batch_size=20,
                       epochs=epochs, learning_rate=lr, seed=seed)


class TestTrain:
    def test_zero_epochs_returns_initial_nets(self):
        cfg = ring_config(epochs=0, seed=4)
        data = noisy_ring(n=60, seed=0)
        report = train(cfg, data)
        rng = np.random.default_rng(4)
        expected_enc = DenseNet.initialize(cfg.encoder, rng)
        for got, want in zip(report.encoder.weights, expected_enc.weights):
            np.testing.assert_array_equal(got, want)
        assert report.recon_trace == [] and report.reg_trace == []

    def test_seed_determinism(self):
        cfg = ring_config(epochs=3, seed=11)
        data = noisy_ring(n=80, seed=1)
        r1 = train(cfg, data)
        r2 = train(cfg, data)
        assert r1.recon_trace == r2.recon_trace
        assert np.array_equal(r1.encoder.vec, r2.encoder.vec)
        assert np.array_equal(r1.embedding.data, r2.embedding.data)

    def test_reconstruction_improves(self):
        cfg = ring_config(epochs=60, lr=3e-3)
        data = noisy_ring(n=100, seed=2)
        report = train(cfg, data)
        assert report.recon_trace[-1] < 0.5 * report.recon_trace[0]

    def test_lam_zero_reg_trace_identically_zero(self):
        cfg = ring_config(lam=0.0, epochs=5)
        report = train(cfg, noisy_ring(n=60, seed=3))
        assert all(r == 0.0 for r in report.reg_trace)

    def test_lam_positive_records_reg(self):
        cfg = ring_config(lam=0.1, epochs=5)
        report = train(cfg, noisy_ring(n=60, seed=3))
        assert any(r != 0.0 for r in report.reg_trace)

    def test_holdout_embedding(self):
        cfg = ring_config(epochs=1)
        data = noisy_ring(n=60, seed=4)
        held = noisy_ring(n=25, seed=5)
        report = train(cfg, data, holdout=held)
        assert report.embedding.count == 25
        np.testing.assert_array_equal(
            report.embedding.data,
            report.encoder.forward(held.data))

    def test_dataset_smaller_than_batch(self):
        cfg = ring_config()
        with pytest.raises(ValueError):
            train(cfg, noisy_ring(n=10, seed=0))

    def test_config_width_validation(self):
        params = latent_params(dim=2)
        enc = DenseNetSpec((2, 8, 3), ("relu", "identity"))
        dec = DenseNetSpec((2, 8, 2), ("relu", "sigmoid"))
        with pytest.raises(ValueError):
            TrainConfig(encoder=enc, decoder=dec, params=params)


class TestEncodeDataset:
    def test_preserves_order(self):
        rng = np.random.default_rng(12)
        encoder, _ = tiny_nets(rng)
        data = rng.uniform(0.0, 1.0, (15, 4))
        out = encode_dataset(encoder, Dataset(data))
        np.testing.assert_array_equal(out.data, encoder.forward(data))
        perm = rng.permutation(15)
        out_perm = encode_dataset(encoder, Dataset(data[perm]))
        np.testing.assert_array_equal(out_perm.data, out.data[perm])

    def test_empty_dataset(self):
        # a dataset has at least one row, so encode_dataset always has a batch to return
        with pytest.raises(ValueError, match="empty dataset"):
            Dataset(np.zeros((0, 4)))


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(14)
        spec = DenseNetSpec((3, 5, 2), ("relu", "identity"))
        net = DenseNet.initialize(spec, rng)
        net.biases[0][:] = rng.standard_normal(5)
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        loaded = load_checkpoint(path, spec)
        np.testing.assert_array_equal(net.vec, loaded.vec)
        x = rng.standard_normal((4, 3))
        np.testing.assert_array_equal(net.forward(x), loaded.forward(x))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path, DenseNetSpec((2, 2), ("identity",)))

    def test_width_mismatch(self, tmp_path):
        rng = np.random.default_rng(15)
        spec = DenseNetSpec((3, 2), ("identity",))
        net = DenseNet.initialize(spec, rng)
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        other = DenseNetSpec((3, 4), ("identity",))
        with pytest.raises(ValueError, match="widths"):
            load_checkpoint(path, other)

    @settings(deadline=None, max_examples=100,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.integers(1, 4), min_size=2, max_size=4),
           st.floats(0.0, 1.0, exclude_max=True), st.binary(min_size=1, max_size=64))
    @example([2, 2], 0.0, b"\x00")
    def test_trailing_bytes_rejected(self, tmp_path, widths, cut, suffix):
        # any appended bytes, and any proper prefix (cut inside the header
        # or the parameters), are rejected with a message naming the file
        spec = DenseNetSpec(widths, ("identity",) * (len(widths) - 1))
        path = tmp_path / "net.ckpt"
        save_checkpoint(DenseNet.initialize(spec, np.random.default_rng(16)), path)
        valid = path.read_bytes()
        for corrupt, message in ((valid + suffix, "trailing"),
                                 (valid[:int(cut * len(valid))], None)):
            path.write_bytes(corrupt)
            with pytest.raises(ValueError, match=message) as exc:
                load_checkpoint(path, spec)
            assert str(path) in str(exc.value)
