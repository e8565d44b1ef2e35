import numpy as np
import pytest

from occkit import losses, nn
from occkit.core import BevLayout


class TestFocal:
    def test_gamma_zero_is_cross_entropy(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(40, 5))
        targets = rng.integers(0, 5, size=40)
        p = losses.softmax(logits)
        loss, _ = losses.focal_loss(p, targets, gamma=0.0, alpha=1.0)
        ce = -np.log(p[np.arange(40), targets]).mean()
        assert abs(loss - ce) < 1e-12

    def test_confident_prediction_vanishes(self):
        logits = np.array([[30.0, 0.0]])
        loss, _ = losses.focal_loss(losses.softmax(logits), np.array([0]), gamma=2.0)
        assert loss < 1e-10

    def test_half_probability_closed_form(self):
        logits = np.array([[0.0, 0.0]])
        loss, _ = losses.focal_loss(losses.softmax(logits), np.array([0]), gamma=2.0, alpha=1.0)
        assert abs(loss - 0.25 * np.log(2.0)) < 1e-12

    def test_grad(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(6, 4))
        targets = rng.integers(0, 4, size=6)
        w = rng.uniform(0.5, 2.0, size=6)

        def f(logits):
            loss, d = losses.focal_loss(losses.softmax(logits), targets, gamma=2.0,
                                        alpha=0.7, voxel_weights=w)
            return np.asarray(loss), lambda dd: (dd * d,)

        assert nn.grad_check(f, [logits], rng=rng) < 1e-6

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            losses.focal_loss(np.array([[np.nan, 1.0]]), np.array([0]))

    def test_nd_probs_match_rows_bitwise(self):
        # the softmax of the whole N-d logits, as vae_train_step passes it,
        # gives the same loss and gradient bits as the softmax of the rows
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(2, 8, 8, 4, 6)) * 3.0
        targets = rng.integers(0, 6, size=(2, 8, 8, 4))
        w = rng.uniform(0.5, 2.0, size=targets.size)
        loss, d = losses.focal_loss(losses.softmax(logits), targets, voxel_weights=w)
        loss_r, d_r = losses.focal_loss(losses.softmax(logits.reshape(-1, 6)),
                                        targets, voxel_weights=w)
        assert loss == loss_r and d.tobytes() == d_r.tobytes()


class TestLovasz:
    def test_one_hot_correct_is_zero(self):
        targets = np.array([0, 1, 2, 1])
        probs = np.eye(3)[targets]
        loss, grad = losses.lovasz_softmax(probs, targets)
        assert loss == 0.0
        assert grad.shape == probs.shape

    def test_single_pixel_error(self):
        e = 0.3
        probs = np.array([[1.0 - e, e]])
        loss, _ = losses.lovasz_softmax(probs, np.array([0]))
        assert abs(loss - e) < 1e-12

    def test_non_negative(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            raw = rng.uniform(0.01, 1.0, size=(10, 4))
            probs = raw / raw.sum(axis=1, keepdims=True)
            targets = rng.integers(0, 4, size=10)
            loss, _ = losses.lovasz_softmax(probs, targets)
            assert loss >= 0.0

    def test_grad(self):
        rng = np.random.default_rng(3)
        raw = rng.uniform(0.05, 1.0, size=(6, 3))
        probs = raw / raw.sum(axis=1, keepdims=True)
        targets = rng.integers(0, 3, size=6)

        def f(probs):
            loss, d = losses.lovasz_softmax(probs, targets)
            return np.asarray(loss), lambda dd: (dd * d,)

        assert nn.grad_check(f, [probs], eps=1e-7, rng=rng) < 1e-5

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            losses.lovasz_softmax(np.array([[0.5, 0.6]]), np.array([0]))


class TestKl:
    def test_standard_normal_is_zero(self):
        loss, _, _ = losses.kl_standard_normal(np.zeros(4), np.zeros(4))
        assert loss == 0.0

    def test_unit_mean_scalar(self):
        loss, _, _ = losses.kl_standard_normal(np.array([1.0]), np.array([0.0]))
        assert abs(loss - 0.5) < 1e-15

    def test_grad(self):
        rng = np.random.default_rng(4)
        mu = rng.normal(size=(3, 4))
        logvar = rng.normal(size=(3, 4)) * 0.5

        def f(mu, logvar):
            loss, dmu, dlv = losses.kl_standard_normal(mu, logvar)
            return np.asarray(loss), lambda dd: (dd * dmu, dd * dlv)

        assert nn.grad_check(f, [mu, logvar], rng=rng) < 1e-6


class TestFlow:
    def test_endpoints(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=(3, 3))
        eps = rng.normal(size=(3, 3))
        assert np.array_equal(losses.flow_interpolate(z, eps, 0.0), z)
        assert np.array_equal(losses.flow_interpolate(z, eps, 1.0), eps)

    def test_midpoint_and_velocity(self):
        z = np.array([2.0])
        eps = np.array([0.0])
        assert losses.flow_interpolate(z, eps, 0.5)[0] == 1.0
        assert losses.velocity_target(z, eps)[0] == -2.0

    def test_flow_identity(self):
        rng = np.random.default_rng(6)
        z = rng.normal(size=(4, 4))
        eps = rng.normal(size=(4, 4))
        tau = rng.uniform(0, 1)
        ztau = losses.flow_interpolate(z, eps, tau)
        back = ztau + (0.0 - tau) * losses.velocity_target(z, eps)
        assert np.max(np.abs(back - z)) < 1e-15

    def test_loss_zero_when_equal(self):
        v = np.random.default_rng(7).normal(size=(2, 5))
        loss, grad = losses.flow_matching_loss(v, v.copy())
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_uniform_weights_equal_mse(self):
        rng = np.random.default_rng(8)
        a, b = rng.normal(size=(2, 3, 4))
        plain, _ = losses.flow_matching_loss(a, b)
        weighted, _ = losses.flow_matching_loss(a, b, np.full((3, 4), 2.5))
        assert abs(plain - weighted) < 1e-12
        assert abs(plain - ((a - b) ** 2).mean()) < 1e-15

    def test_weight_normalization_example(self):
        v_pred = np.array([1.0, 5.0])
        v_target = np.array([0.0, 0.0])
        loss, _ = losses.flow_matching_loss(v_pred, v_target, np.array([2.0, 0.0]))
        assert abs(loss - 1.0) < 1e-15

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            losses.flow_matching_loss(np.ones(2), np.zeros(2), np.zeros(2))

    def test_grad(self):
        rng = np.random.default_rng(9)
        v_pred = rng.normal(size=(4, 3))
        v_target = rng.normal(size=(4, 3))
        w = rng.uniform(0, 2, size=(4, 1))

        def f(v_pred):
            loss, d = losses.flow_matching_loss(v_pred, v_target, w)
            return np.asarray(loss), lambda dd: (dd * d,)

        assert nn.grad_check(f, [v_pred], rng=rng) < 1e-6


class TestLogitNormal:
    def test_open_interval(self):
        rng = np.random.default_rng(10)
        taus = losses.sample_logit_normal(rng, 0.0, 1.0, size=10000)
        assert np.all(taus > 0.0) and np.all(taus < 1.0)

    def test_symmetric_mean(self):
        rng = np.random.default_rng(11)
        taus = losses.sample_logit_normal(rng, 0.0, 1.0, size=100000)
        assert abs(taus.mean() - 0.5) < 0.01

    def test_large_location_saturates(self):
        rng = np.random.default_rng(12)
        taus = losses.sample_logit_normal(rng, 30.0, 0.1, size=100)
        assert np.all(taus > 0.999)

    def test_bad_scale(self):
        with pytest.raises(ValueError):
            losses.sample_logit_normal(np.random.default_rng(0), 0.0, 0.0)


class TestSmallObjectWeights:
    def layout(self):
        return BevLayout(16, 16, 0.4, 8)

    def test_no_rare_bits(self):
        w = losses.small_object_weights(self.layout(), [2, 3], beta=4.0,
                                        patch_size=4)
        assert w.shape == (4, 4)
        assert np.all(w == 1.0)

    def test_full_patch_weight(self):
        layout = self.layout()
        layout.bits[0:4, 0:4] = 1 << 2
        w = losses.small_object_weights(layout, [2], beta=4.0, patch_size=4)
        assert w[0, 0] == 5.0
        assert np.all(w.reshape(-1)[1:] == 1.0)

    def test_weights_at_least_one(self):
        rng = np.random.default_rng(13)
        layout = self.layout()
        layout.bits[:] = rng.integers(0, 256, size=(16, 16), dtype=np.uint16)
        w = losses.small_object_weights(layout, [0, 5], beta=2.0, patch_size=2)
        assert np.all(w >= 1.0)

    def test_patch_must_tile(self):
        with pytest.raises(ValueError):
            losses.small_object_weights(self.layout(), [0], patch_size=5)
