import math

import numpy as np
import pytest

from eccentric.kernel import (
    ParamSet,
    PointBatch,
    batch_loss,
    batch_loss_and_gradient,
)
from eccentric import particles
from eccentric.particles import (
    DivergenceError,
    SimConfig,
    SimReport,
    radial_stats,
    simulate,
)
from kernel_oracles import params_for


class TestRadialStats:
    def test_hand_example(self):
        # norms 1 and 3: mean 2, population std 1
        batch = PointBatch(np.array([[1.0, 0.0], [0.0, 3.0]]))
        mean, std = radial_stats(batch)
        assert mean == pytest.approx(2.0, rel=1e-14)
        assert std == pytest.approx(1.0, rel=1e-14)

    def test_sphere_sample_has_zero_spread(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((50, 8))
        z = 3.0 * z / np.linalg.norm(z, axis=1, keepdims=True)
        mean, std = radial_stats(PointBatch(z))
        assert mean == pytest.approx(3.0, rel=1e-12)
        assert std < 1e-12


def descend_with_loss_every_step(cfg, init):
    """Oracle descent: the fused loss and gradient on every step.

    Returns the iterates at the record steps and the final one, or the step
    at which a coordinate first became non-finite.
    """
    z, recorded = init, []
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(cfg.steps):
            if step % particles.RECORD_EVERY == 0:
                recorded.append(z)
            z = z - cfg.step_size * batch_loss_and_gradient(PointBatch(z), cfg.params)[1]
            if not np.all(np.isfinite(z)):
                return step
    return recorded + [z]


class TestSimConfig:
    def test_rejects_bad_fields(self):
        p = params_for(4)
        with pytest.raises(ValueError):
            SimConfig(params=p, count=1, steps=10, step_size=0.1)
        with pytest.raises(ValueError):
            SimConfig(params=p, count=10, steps=0, step_size=0.1)
        with pytest.raises(ValueError):
            SimConfig(params=p, count=10, steps=10, step_size=-0.1)


class TestSimulate:
    def test_zero_step_size_keeps_cloud(self):
        p = params_for(4)
        cfg = SimConfig(params=p, count=10, steps=5, step_size=0.0, seed=3)
        rng = np.random.default_rng(3)
        expected = cfg.init_scale * rng.standard_normal((10, 4))
        report = simulate(cfg)
        assert np.array_equal(report.final_batch.data, expected)

    def test_seed_determinism(self):
        p = params_for(4)
        cfg = SimConfig(params=p, count=20, steps=50, step_size=0.1, seed=7)
        r1 = simulate(cfg)
        r2 = simulate(cfg)
        assert np.array_equal(r1.final_batch.data, r2.final_batch.data)
        assert r1.loss_trace == r2.loss_trace

    def test_two_antipodal_points_reach_closed_form_radius(self):
        # b = 2 equilibrium on a line: r* = sqrt(N (4 mu - 1)) / 2
        mu, big_n = 1.0, 6.0
        p = ParamSet(dim=2, mu=mu, big_n=big_n)
        r_star = math.sqrt(big_n * (4 * mu - 1)) / 2
        init = np.array([[0.01, 0.0], [-0.01, 0.0]])
        cfg = SimConfig(params=p, count=2, steps=20000, step_size=0.2)
        report = simulate(cfg, init=init)
        norms = np.linalg.norm(report.final_batch.data, axis=1)
        np.testing.assert_allclose(norms, r_star, rtol=1e-10)

    def test_loss_trace_schedule(self):
        p = params_for(3)
        cfg = SimConfig(params=p, count=10, steps=120, step_size=0.05)
        report = simulate(cfg)
        # records at steps 0, 50, 100 plus the final state
        assert len(report.loss_trace) == 4

    def test_loss_decreases(self):
        p = params_for(8)
        cfg = SimConfig(params=p, count=60, steps=400, step_size=0.1, seed=1)
        report = simulate(cfg)
        trace = report.loss_trace
        assert trace[-1] < trace[0]
        assert all(x >= y - 1e-9 for x, y in zip(trace, trace[1:]))

    def test_radius_approaches_sqrt_d(self):
        p = params_for(8)
        cfg = SimConfig(params=p, count=120, steps=6000, step_size=0.1, seed=2)
        report = simulate(cfg)
        assert report.radial_mean == pytest.approx(math.sqrt(8), rel=0.05)
        assert report.radial_std < 0.3
        assert report.spectrum is not None

    def test_rotation_equivariance(self):
        # rotating the start cloud rotates the whole trajectory
        p = params_for(5)
        rng = np.random.default_rng(11)
        init = 0.01 * rng.standard_normal((15, 5))
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        cfg = SimConfig(params=p, count=15, steps=100, step_size=0.1)
        plain = simulate(cfg, init=init)
        rotated = simulate(cfg, init=init @ q)
        np.testing.assert_allclose(rotated.final_batch.data,
                                   plain.final_batch.data @ q,
                                   atol=1e-9)

    def test_divergence_raises_with_step(self):
        p = params_for(3)
        init = np.full((4, 3), 1e150)
        init[::2] *= -1.0
        cfg = SimConfig(params=p, count=4, steps=50, step_size=1e300)
        with pytest.raises(DivergenceError) as exc:
            simulate(cfg, init=init)
        assert exc.value.step >= 0

    def test_loss_trace_is_loss_of_recorded_iterates(self, monkeypatch):
        # the loss is computed only on record steps; it must be the loss of
        # the iterate the plain every-step descent reaches there
        monkeypatch.setattr(particles, "RECORD_EVERY", 5)
        p = params_for(6)
        init = 0.5 * np.random.default_rng(4).standard_normal((150, 6))
        cfg = SimConfig(params=p, count=150, steps=23, step_size=0.1)
        report = simulate(cfg, init=init)
        iterates = descend_with_loss_every_step(cfg, init)
        assert len(report.loss_trace) == len(iterates) == 6
        assert report.loss_trace == [batch_loss(PointBatch(z), p) for z in iterates]
        assert np.array_equal(report.final_batch.data, iterates[-1])

    def test_divergence_step_unchanged_off_record_steps(self, monkeypatch):
        monkeypatch.setattr(particles, "RECORD_EVERY", 7)
        p = ParamSet(dim=3, mu=1.0, big_n=6.0)
        init = np.random.default_rng(0).standard_normal((4, 3))
        cfg = SimConfig(params=p, count=4, steps=100, step_size=2e10)
        expected = descend_with_loss_every_step(cfg, init)
        assert expected == 30  # not a record step
        with pytest.raises(DivergenceError) as exc:
            simulate(cfg, init=init)
        assert exc.value.step == expected

    @pytest.mark.parametrize("count", [100, 256])
    def test_init_is_left_unchanged(self, count):
        # simulate steps its own copy in place, below one tile and on Gram tiles
        p = params_for(16)
        init = np.random.default_rng(count).standard_normal((count, 16))
        before = init.copy()
        cfg = SimConfig(params=p, count=count, steps=3, step_size=0.2)
        report = simulate(cfg, init=init)
        assert init.tobytes() == before.tobytes()
        assert not np.shares_memory(report.final_batch.data, init)
        assert not np.array_equal(report.final_batch.data, init)

    def test_init_shape_checked(self):
        p = params_for(3)
        cfg = SimConfig(params=p, count=4, steps=10, step_size=0.1)
        with pytest.raises(ValueError):
            simulate(cfg, init=np.zeros((5, 3)))
