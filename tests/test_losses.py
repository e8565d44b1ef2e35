import numpy as np
import pytest

from occkit import losses, nn


def reference_softmax(logits):
    """Softmax with the row maximum taken as one reduction over the class axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def reference_lovasz_softmax(probs, targets,
                             order=lambda errors: np.argsort(-errors, kind="stable")):
    """Lovász-Softmax sorting each class's errors with one stable argsort."""
    flat = probs.reshape(-1, probs.shape[-1])
    t = np.asarray(targets).reshape(-1)
    present = np.unique(t)
    dprobs = np.zeros_like(flat)
    loss = 0.0
    for c in present:
        fg = (t == c).astype(np.float64)
        diff = fg - flat[:, c]
        errors = np.abs(diff)
        perm = order(errors)
        grad = losses._lovasz_grad(fg[perm])
        loss += float(errors[perm] @ grad)
        derr = np.empty_like(errors)
        derr[perm] = grad
        dprobs[:, c] += derr * -np.sign(diff)
    k = len(present)
    return loss / k, (dprobs / k).reshape(probs.shape)


def descending_ties(errors):
    """Errors in descending order, equal errors in descending index order."""
    n = len(errors)
    return n - 1 - np.argsort(-errors[::-1], kind="stable")


def assert_same_loss_bits(fn, ref, *args):
    loss, grad = fn(*args)
    loss_ref, grad_ref = ref(*args)
    assert np.float64(loss).tobytes() == np.float64(loss_ref).tobytes()
    assert grad.shape == grad_ref.shape and grad.tobytes() == grad_ref.tobytes()


def eighths(rng, rows, classes):
    """Probability rows quantised to 1/8, each summing to exactly 1."""
    return rng.multinomial(8, np.full(classes, 1.0 / classes), size=rows) / 8.0


def lovasz_cases():
    rng = np.random.default_rng(20)
    random = losses.softmax(rng.normal(size=(500, 6)) * 3.0)
    rows = eighths(rng, 40, 4)
    rows_t = rng.integers(0, 4, size=40)
    return {
        "random": (random, rng.integers(0, 6, size=500)),
        # equal errors across foreground and background rows
        "eighths": (eighths(rng, 600, 5), rng.integers(0, 5, size=600)),
        "half": (np.full((300, 2), 0.5), rng.integers(0, 2, size=300)),
        "duplicated_rows": (np.tile(rows, (7, 1)), np.tile(rows_t, 7)),
        "single_row": (random[:1], np.array([4])),
        "single_present_class": (random[:50], np.full(50, 2)),
        "one_class": (np.ones((9, 1)), np.zeros(9, dtype=np.int64)),
        "nd": (losses.softmax(rng.normal(size=(2, 6, 5, 3, 4))),
               rng.integers(0, 4, size=(2, 6, 5, 3))),
    }


LOVASZ_CASES = lovasz_cases()
TIE_CASES = ["eighths", "half"]


class TestFocal:
    def test_gamma_zero_is_cross_entropy(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(40, 5))
        targets = rng.integers(0, 5, size=40)
        p = losses.softmax(logits)
        loss, _ = losses.focal_loss(p, targets, gamma=0.0)
        ce = -np.log(p[np.arange(40), targets]).mean()
        assert abs(loss - ce) < 1e-12

    def test_confident_prediction_vanishes(self):
        logits = np.array([[30.0, 0.0]])
        loss, _ = losses.focal_loss(losses.softmax(logits), np.array([0]), gamma=2.0)
        assert loss < 1e-10

    def test_half_probability_closed_form(self):
        logits = np.array([[0.0, 0.0]])
        loss, _ = losses.focal_loss(losses.softmax(logits), np.array([0]), gamma=2.0)
        assert abs(loss - 0.25 * np.log(2.0)) < 1e-12

    def test_grad(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(6, 4))
        targets = rng.integers(0, 4, size=6)
        w = rng.uniform(0.5, 2.0, size=6)

        def f(logits):
            loss, d = losses.focal_loss(losses.softmax(logits), targets, gamma=2.0,
                                        voxel_weights=w)
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

    def test_nan_row_rejected(self):
        probs = np.full((4, 2), 0.5)
        probs[2] = np.nan
        with pytest.raises(ValueError):
            losses.lovasz_softmax(probs, np.array([0, 1, 0, 1]))

    @pytest.mark.parametrize("name", sorted(LOVASZ_CASES))
    def test_bitwise_equal_to_stable_argsort_reference(self, name):
        assert_same_loss_bits(losses.lovasz_softmax, reference_lovasz_softmax,
                              *LOVASZ_CASES[name])

    @pytest.mark.parametrize("name", TIE_CASES)
    def test_reference_check_catches_wrong_tie_order(self, name):
        def planted(probs, targets):
            return reference_lovasz_softmax(probs, targets, descending_ties)

        with pytest.raises(AssertionError):
            assert_same_loss_bits(planted, reference_lovasz_softmax, *LOVASZ_CASES[name])

    @pytest.mark.parametrize("name", TIE_CASES)
    def test_independent_of_the_sort_tie_order(self, name, monkeypatch):
        # a sort may leave equal keys in any order; this one reverses them
        expected = reference_lovasz_softmax(*LOVASZ_CASES[name])
        argsort = np.argsort

        def reversed_ties_argsort(a):
            return len(a) - 1 - argsort(a[::-1], kind="stable")

        monkeypatch.setattr(np, "argsort", reversed_ties_argsort)
        assert_same_loss_bits(losses.lovasz_softmax, lambda *case: expected,
                              *LOVASZ_CASES[name])


@pytest.mark.parametrize("loss_fn", [losses.focal_loss, losses.lovasz_softmax],
                         ids=["focal", "lovasz"])
@pytest.mark.parametrize("targets", [[0, -1, 1], [0, 2, 1], [0, 1]],
                         ids=["negative", "too_large", "row_count"])
def test_bad_targets_rejected(loss_fn, targets):
    probs = np.array([[0.25, 0.75], [0.5, 0.5], [1.0, 0.0]])
    with pytest.raises(ValueError, match="target"):
        loss_fn(probs, np.array(targets))


class TestSoftmax:
    @pytest.mark.parametrize("logits", [
        np.random.default_rng(21).normal(size=(400, 6)) * 5.0,
        np.round(np.random.default_rng(22).normal(size=(100, 6))),
        np.random.default_rng(23).normal(size=(7, 1)),
        np.array([[0.0, -0.0, 0.0], [-0.0, 0.0, -0.0], [-0.0, -0.0, -0.0]]),
        np.random.default_rng(24).normal(size=(2, 4, 3, 5, 6)),
    ], ids=["random", "integer_ties", "one_class", "signed_zeros", "nd"])
    def test_bitwise_equal_to_axis_max_reference(self, logits):
        p = losses.softmax(logits)
        p_ref = reference_softmax(logits)
        assert p.shape == p_ref.shape and p.tobytes() == p_ref.tobytes()


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
