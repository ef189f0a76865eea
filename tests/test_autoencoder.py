import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from eccentric.autoencoder import (
    DenseNet,
    DenseNetSpec,
    TrainConfig,
    _Adam,
    encode_dataset,
    load_checkpoint,
    save_checkpoint,
    total_loss_gradients,
    train,
)
from eccentric.datasets import noisy_ring
from eccentric.kernel import _CHUNK, PointBatch
import kernel_oracles
from kernel_oracles import fd_net_gradient, params_for, total_loss


def tiny_nets(rng, in_width=4, latent=2, enc_hidden=(6,), dec_hidden=(6,),
              act="leaky-relu"):
    enc_spec = DenseNetSpec((in_width, *enc_hidden, latent),
                            (act,) * len(enc_hidden) + ("identity",))
    dec_spec = DenseNetSpec((latent, *dec_hidden, in_width),
                            (act,) * len(dec_hidden) + ("sigmoid",))
    return (DenseNet.initialize(enc_spec, rng),
            DenseNet.initialize(dec_spec, rng))


class TestDenseNetSpec:
    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            DenseNetSpec((4,), ())
        with pytest.raises(ValueError):
            DenseNetSpec((4, 0), ("leaky-relu",))
        with pytest.raises(ValueError):
            DenseNetSpec((4, 2), ("leaky-relu", "leaky-relu"))
        for tag in ("tanh", "relu"):
            with pytest.raises(ValueError, match="unknown activation"):
                DenseNetSpec((4, 2), (tag,))


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
        spec = DenseNetSpec((2, 3, 2), ("leaky-relu", "sigmoid"))
        rng = np.random.default_rng(0)
        net = DenseNet.initialize(spec, rng)
        x = rng.standard_normal((5, 2))
        pre = x @ net.weights[0] + net.biases[0]
        h = np.where(pre > 0.0, pre, 0.1 * pre)
        expected = 1.0 / (1.0 + np.exp(-(h @ net.weights[1] + net.biases[1])))
        np.testing.assert_allclose(net.forward(x), expected, atol=1e-12)

    def test_sigmoid_saturates_without_overflow_warning(self):
        # exp(1000) overflows to inf; the suite turns the RuntimeWarning into an error
        net = DenseNet(DenseNetSpec((1, 1), ("sigmoid",)), np.array([1.0, 0.0]))
        np.testing.assert_array_equal(net.forward(np.array([[-1000.0], [1000.0]])),
                                      [[0.0], [1.0]])

    def test_overflow_raises_without_warning(self):
        # weights of 1e160 overflow the second layer's products to inf and nan
        spec = DenseNetSpec((2, 32, 32, 2), ("leaky-relu", "leaky-relu", "identity"))
        net = DenseNet.initialize(spec, np.random.default_rng(0))
        net.vec *= 1e160
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(FloatingPointError, match="non-finite network output"):
                net.forward(np.full((3, 2), 0.5))
        assert [str(w.message) for w in caught] == []

    def test_width_mismatch(self):
        spec = DenseNetSpec((3, 2), ("identity",))
        net = DenseNet.initialize(spec, np.random.default_rng(2))
        with pytest.raises(ValueError):
            net.forward(np.zeros((4, 5)))
        with pytest.raises(ValueError, match=r"expected a \(rows, 3\) input, got shape \(3,\)"):
            net.forward(np.zeros(3))

    def test_init_bounds(self):
        spec = DenseNetSpec((100, 50), ("identity",))
        net = DenseNet.initialize(spec, np.random.default_rng(3))
        bound = np.sqrt(6.0 / 150)
        assert np.abs(net.weights[0]).max() <= bound
        assert np.all(net.biases[0] == 0.0)


class TestGradients:
    @pytest.mark.parametrize("act, enc_hidden, dec_hidden", [
        pytest.param("identity", (6,), (6,), id="identity"),
        pytest.param("leaky-relu", (6,), (6,), id="leaky-relu"),
        pytest.param("sigmoid", (6,), (6,), id="sigmoid"),
        # unequal depths: the regularizer's gradient must enter at the latent codes
        pytest.param("leaky-relu", (6, 5), (6,), id="deeper-encoder"),
        pytest.param("leaky-relu", (6,), (5, 6), id="deeper-decoder"),
    ])
    def test_whole_network_finite_differences(self, act, enc_hidden, dec_hidden):
        rng = np.random.default_rng(5)
        encoder, decoder = tiny_nets(rng, enc_hidden=enc_hidden, dec_hidden=dec_hidden,
                                     act=act)
        params = params_for(2, lam=0.5)
        x = rng.uniform(0.1, 0.9, (10, 4))
        _, _, _, analytic = total_loss_gradients(x, encoder, decoder, params)
        numeric = fd_net_gradient(x, encoder, decoder, params)
        np.testing.assert_allclose(analytic, numeric, atol=1e-7, rtol=1e-5)

    def test_loss_values_match_total_loss(self):
        rng = np.random.default_rng(7)
        encoder, decoder = tiny_nets(rng)
        params = params_for(2, lam=0.3)
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
                                                    params_for(2, lam=0.0))
        assert reg == 0.0
        assert total == recon

    @settings(deadline=None, max_examples=80)
    @given(st.data(), st.integers(2, 300), st.sampled_from([0.0, 0.05, 1.0]))
    @example(None, _CHUNK, 1.0)
    @example(None, _CHUNK + 1, 0.0)
    @example(None, 2 * _CHUNK, 1.0)
    @example(None, 2 * _CHUNK + 1, 0.05)
    def test_matches_unblocked_oracle(self, data, batch, lam):
        # the block layout, ones column, chunked products and x_hat - x reuse
        # change only rounding against the plain oracle
        if data is None:  # explicit examples: layers wider than one chunk
            rng = np.random.default_rng(batch)
            widths, acts = (_CHUNK + 30, _CHUNK + 2, 5), ("sigmoid", "leaky-relu")
            dec_widths, dec_acts = (5, _CHUNK + 1, _CHUNK + 30), ("identity", "sigmoid")
        else:
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            tags = st.sampled_from(["identity", "leaky-relu", "sigmoid"])
            width = data.draw(st.integers(1, 40))
            latent = data.draw(st.integers(2, 40))
            enc_hidden = data.draw(st.lists(st.integers(1, 40), max_size=2))
            dec_hidden = data.draw(st.lists(st.integers(1, 40), max_size=2))
            widths, dec_widths = (width, *enc_hidden, latent), (latent, *dec_hidden, width)
            acts = tuple(data.draw(tags) for _ in widths[1:])
            dec_acts = tuple(data.draw(tags) for _ in dec_widths[1:])
        encoder = DenseNet.initialize(DenseNetSpec(widths, acts), rng)
        decoder = DenseNet.initialize(DenseNetSpec(dec_widths, dec_acts), rng)
        encoder.vec[:] += 0.1 * rng.standard_normal(encoder.vec.size)  # biases away from 0
        params = params_for(widths[-1], mu=1.5, lam=lam)
        x = rng.uniform(0.0, 1.0, (batch, widths[0]))
        recon, reg, total, grad = total_loss_gradients(x, encoder, decoder, params)
        want = kernel_oracles.total_loss_gradients(x, encoder, decoder, params)
        for got, ref in ((recon, want[0]), (reg, want[1]), (total, want[2])):
            assert abs(got - ref) <= 1e-12 * abs(ref)
        assert grad.shape == want[3].shape
        assert np.abs(grad - want[3]).max() <= 1e-12 * np.abs(want[3]).max()

    def test_matches_mpmath_central_differences(self):
        # criterion 5's nets (widths 3-6, batch 8), one per activation, against
        # 40-digit differences, where float64 differences only reach ~1e-6
        rng = np.random.default_rng(12)
        worst = 0.0
        for act in ("identity", "leaky-relu", "sigmoid"):
            width, hidden = int(rng.integers(3, 6)), int(rng.integers(3, 7))
            latent = int(rng.integers(2, 4))
            encoder, decoder = tiny_nets(rng, in_width=width, latent=latent,
                                         enc_hidden=(hidden,), dec_hidden=(hidden,), act=act)
            params = params_for(latent, mu=float(rng.uniform(1.0, 2.0)),
                                lam=float(rng.uniform(0.05, 1.0)))
            x = rng.uniform(0.1, 0.9, (8, width))
            oracle = kernel_oracles.mp_net_gradient(x, encoder, decoder, params)
            _, _, _, grad = total_loss_gradients(x, encoder, decoder, params)
            # an entry sums products of size up to max|grad|, so float64 rounds it to
            # ~1e-16 max|grad| absolute whatever its own size: below the floor
            # 1e-4 max|grad| the bound is on that scale, at most ~1e-12 relative
            floor = 1e-4 * np.abs(oracle).max()
            rel = np.abs(grad - oracle) / np.maximum(np.abs(oracle), floor)
            worst = max(worst, float(rel.max()))
        assert worst <= 1e-10

    def test_batch_too_small(self):
        rng = np.random.default_rng(9)
        encoder, decoder = tiny_nets(rng)
        with pytest.raises(ValueError):
            total_loss_gradients(np.zeros((1, 4)), encoder, decoder,
                                 params_for(2))


def ring_config(lam=0.0, epochs=2, seed=0, lr=1e-3):
    params = params_for(2, lam=lam)
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

    def test_embedding_is_training_set_encoded(self):
        cfg = ring_config(epochs=1)
        data = noisy_ring(n=60, seed=4)
        report = train(cfg, data)
        assert report.embedding.count == 60
        np.testing.assert_array_equal(
            report.embedding.data,
            report.encoder.forward(data.data))

    def test_dataset_smaller_than_batch(self):
        cfg = ring_config()
        with pytest.raises(ValueError):
            train(cfg, noisy_ring(n=10, seed=0))

    def test_config_width_validation(self):
        params = params_for(2)
        enc = DenseNetSpec((2, 8, 3), ("leaky-relu", "identity"))
        dec = DenseNetSpec((2, 8, 2), ("leaky-relu", "sigmoid"))
        with pytest.raises(ValueError):
            TrainConfig(encoder=enc, decoder=dec, params=params)


class TestAdam:
    @pytest.mark.parametrize("learning_rate", [1e-4, 1e-3, 3e-3])
    def test_folded_step_tracks_textbook(self, learning_rate):
        # folding both bias corrections into one step size moves epsilon from
        # sqrt(v_hat) to sqrt(v); with every |g| >= 1 >> epsilon that shifts
        # 50 steps by well under 1e-9 of the parameters' scale
        cfg = ring_config(lr=learning_rate)
        rng = np.random.default_rng(17)
        theta = rng.standard_normal(500)
        ref, m, v = theta.copy(), np.zeros(500), np.zeros(500)
        opt = _Adam(cfg, theta.size)
        for t in range(1, 51):
            g = rng.choice([-1.0, 1.0], 500) * rng.uniform(1.0, 10.0, 500)
            opt.step(theta, g)
            kernel_oracles.adam_step(ref, g, m, v, t, learning_rate, cfg.weight_decay)
            assert np.abs(theta - ref).max() <= 1e-9 * np.abs(ref).max()
        np.testing.assert_allclose(opt.m, m, rtol=1e-14)
        np.testing.assert_allclose(opt.v, v, rtol=1e-14)


class TestEncodeDataset:
    def test_preserves_order(self):
        rng = np.random.default_rng(12)
        encoder, _ = tiny_nets(rng)
        data = rng.uniform(0.0, 1.0, (15, 4))
        out = encode_dataset(encoder, PointBatch(data))
        np.testing.assert_array_equal(out.data, encoder.forward(data))
        perm = rng.permutation(15)
        out_perm = encode_dataset(encoder, PointBatch(data[perm]))
        np.testing.assert_array_equal(out_perm.data, out.data[perm])

    def test_empty_dataset(self):
        # a dataset has at least one row, so encode_dataset always has a batch to return
        with pytest.raises(ValueError, match="empty batch"):
            PointBatch(np.zeros((0, 4)))


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(14)
        spec = DenseNetSpec((3, 5, 2), ("leaky-relu", "identity"))
        net = DenseNet.initialize(spec, rng)
        net.biases[0][:] = rng.standard_normal(5)
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        loaded = load_checkpoint(path, spec)
        np.testing.assert_array_equal(net.vec, loaded.vec)
        x = rng.standard_normal((4, 3))
        np.testing.assert_array_equal(net.forward(x), loaded.forward(x))

    def test_golden_layout(self, tmp_path):
        # the checkpoint bytes of a fixed initialization do not depend on how
        # DenseNet views its vector
        spec = DenseNetSpec((3, 5, 4, 2), ("leaky-relu", "sigmoid", "identity"))
        path = tmp_path / "net.ckpt"
        save_checkpoint(DenseNet.initialize(spec, np.random.default_rng(20)), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "341c65eaa4d50aa537f815e5a4f6891381d67ae3dfaf77e8270a76b60849424c")

    def test_weights_and_biases_alias_blocks(self):
        spec = DenseNetSpec((3, 5, 4, 2), ("leaky-relu", "sigmoid", "identity"))
        net = DenseNet(spec, np.arange(spec.param_count, dtype=np.float64))
        offset = 0
        for k, (fi, fo) in enumerate([(3, 5), (5, 4), (4, 2)]):
            block, w, b = net.blocks[k], net.weights[k], net.biases[k]
            assert block.shape == (fi + 1, fo) and w.shape == (fi, fo) and b.shape == (fo,)
            for view in (block, w, b):
                assert np.shares_memory(view, block) and np.shares_memory(view, net.vec)
            np.testing.assert_array_equal(block.ravel(), net.vec[offset:offset + (fi + 1) * fo])
            np.testing.assert_array_equal(w.ravel(), net.vec[offset:offset + fi * fo])
            np.testing.assert_array_equal(b, net.vec[offset + fi * fo:offset + (fi + 1) * fo])
            w[0, 0], b[-1] = -1.0, -2.0  # writes land in vec
            assert net.vec[offset] == -1.0 and net.vec[offset + (fi + 1) * fo - 1] == -2.0
            offset += (fi + 1) * fo
        assert offset == net.vec.size

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
