import itertools
import warnings

import numpy as np
import pytest

from occkit import nn, vae


# ---------------------------------------------------------------------------
# Reference layers: the slice-loop im2col, the masked sigmoid and the
# scatter-add embedding gradient, kept verbatim as bitwise oracles
# ---------------------------------------------------------------------------


def reference_sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def reference_conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None,
                     stride: int = 1, padding: int = 0):
    """Direct convolution via per-offset slicing (deterministic order)."""
    kh, kw, cin, cout = w.shape
    if x.shape[-1] != cin:
        raise ValueError("channel mismatch")
    if padding:
        x = np.pad(x, ((0, 0), (padding, padding), (padding, padding), (0, 0)))
    bsz, hp, wp, _ = x.shape
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    cols = np.empty((bsz, ho, wo, kh * kw * cin), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            block = x[:, i:i + ho * stride:stride, j:j + wo * stride:stride, :]
            cols[..., (i * kw + j) * cin:(i * kw + j + 1) * cin] = block
    y = cols @ w.reshape(-1, cout)
    if b is not None:
        y = y + b
    return y, (cols, w, x.shape, stride, padding)


def reference_conv2d_backward(dout: np.ndarray, cache):
    cols, w, xpad_shape, stride, padding = cache
    kh, kw, cin, cout = w.shape
    bsz, ho, wo, _ = dout.shape
    dflat = dout.reshape(-1, cout)
    dw = (cols.reshape(-1, kh * kw * cin).T @ dflat).reshape(w.shape)
    db = dflat.sum(axis=0)
    dcols = dout @ w.reshape(-1, cout).T
    dxp = np.zeros(xpad_shape, dtype=dout.dtype)
    for i in range(kh):
        for j in range(kw):
            sl = dcols[..., (i * kw + j) * cin:(i * kw + j + 1) * cin]
            dxp[:, i:i + ho * stride:stride, j:j + wo * stride:stride, :] += sl
    if padding:
        dxp = dxp[:, padding:-padding, padding:-padding, :]
    return dxp, dw, db


def reference_embedding_backward(dout: np.ndarray, cache) -> np.ndarray:
    shape, ids = cache
    dtable = np.zeros(shape, dtype=dout.dtype)
    np.add.at(dtable, ids.reshape(-1), dout.reshape(-1, shape[-1]))
    return dtable


REFERENCE_LAYERS = {
    "sigmoid": reference_sigmoid,
    "conv2d": reference_conv2d,
    "conv2d_backward": reference_conv2d_backward,
    "embedding_backward": reference_embedding_backward,
}


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def test_stream_reproducible_and_split():
    a = nn.stream(7, "alpha").standard_normal(5)
    b = nn.stream(7, "alpha").standard_normal(5)
    c = nn.stream(7, "beta").standard_normal(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


class TestLinear:
    def test_identity_weight(self):
        x = np.random.default_rng(0).normal(size=(4, 3))
        y, _ = nn.linear(x, np.eye(3), np.zeros(3))
        assert np.array_equal(y, x)

    def test_scalar_case(self):
        y, _ = nn.linear(np.array([[2.0]]), np.array([[3.0]]), np.array([1.0]))
        assert y[0, 0] == 7.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            nn.linear(np.zeros((2, 3)), np.zeros((4, 2)))

    def test_grad(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 3))
        w = rng.normal(size=(3, 2))
        b = rng.normal(size=(2,))

        def f(x, w, b):
            y, cache = nn.linear(x, w, b)
            return y, lambda d: nn.linear_backward(d, cache)

        assert nn.grad_check(f, [x, w, b], rng=rng) < 1e-6


def test_layernorm_grad():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(3, 5))

    def f(x):
        y, cache = nn.layernorm(x)
        return y, lambda d: (nn.layernorm_backward(d, cache),)

    assert nn.grad_check(f, [x], rng=rng) < 1e-5


class TestSigmoid:
    def test_special_values(self):
        out = nn.sigmoid(np.array([0.0, -0.0, np.inf, -np.inf, np.nan]))
        assert out[:4].tolist() == [0.5, 0.5, 1.0, 0.0]
        assert np.isnan(out[4])

    def test_no_warnings_at_large_magnitudes(self):
        with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise",
                                                    divide="raise"):
            warnings.simplefilter("error")
            out = nn.sigmoid(np.array([1000.0, -1000.0]))
        assert out.tolist() == [1.0, 0.0]

    def test_bounded_monotone_and_symmetric(self):
        rng = np.random.default_rng(20)
        x = np.sort(np.concatenate([np.linspace(-50.0, 50.0, 20001),
                                    rng.uniform(-800.0, 800.0, 5000),
                                    rng.standard_normal(5000)]))
        s = nn.sigmoid(x)
        assert np.all((s >= 0.0) & (s <= 1.0))
        assert np.all(np.diff(s) >= 0.0)
        assert np.max(np.abs(s + nn.sigmoid(-x) - 1.0)) <= 2 * np.spacing(1.0)

    def test_matches_reference_bitwise(self):
        rng = np.random.default_rng(21)
        tiny = np.finfo(np.float64).smallest_subnormal
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 709.0, -709.0,
                            709.8, -709.8, 746.0, -746.0, 745.2, -745.2, tiny, -tiny,
                            1e-310, -1e-310, np.finfo(np.float64).tiny, 36.7, -36.7])
        x = np.concatenate([special, rng.standard_normal(4000) * 8.0,
                            rng.uniform(-800.0, 800.0, 4000)])
        assert_same_bits(nn.sigmoid(x), reference_sigmoid(x))
        grid = rng.standard_normal((2, 5, 7, 3))
        assert_same_bits(nn.sigmoid(grid), reference_sigmoid(grid))


class TestAttention:
    def test_single_key_passthrough(self):
        rng = np.random.default_rng(4)
        q = rng.normal(size=(1, 4))
        v = rng.normal(size=(1, 4))
        out, _ = nn.masked_attention(q, rng.normal(size=(1, 4)), v, heads=2)
        assert np.allclose(out, v, atol=1e-12)

    def test_identical_keys_half_weights(self):
        rng = np.random.default_rng(5)
        q = rng.normal(size=(1, 4))
        k = np.tile(rng.normal(size=(1, 4)), (2, 1))
        v = rng.normal(size=(2, 4))
        out, cache = nn.masked_attention(q, k, v, heads=1)
        attn = cache[3]
        assert np.allclose(attn, 0.5, atol=1e-12)
        assert np.allclose(out, v.mean(axis=0, keepdims=True), atol=1e-12)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(6)
        q, k, v = (rng.normal(size=(2, 6, 8)) for _ in range(3))
        _, cache = nn.masked_attention(q, k, v, heads=2)
        attn = cache[3]
        assert attn.shape == (2, 2, 6, 6)
        assert np.max(np.abs(attn.sum(axis=-1) - 1.0)) < 1e-12
        assert np.all(attn > 0.0)

    def test_grad(self):
        rng = np.random.default_rng(7)
        s = 5
        q = rng.normal(size=(s, 8))
        k = rng.normal(size=(s, 8))
        v = rng.normal(size=(s, 8))

        def f(q, k, v):
            y, cache = nn.masked_attention(q, k, v, heads=2)
            return y, lambda d: nn.masked_attention_backward(d, cache)

        assert nn.grad_check(f, [q, k, v], rng=rng) < 1e-5


def check_conv_against_reference(rng, x, w, stride, padding):
    b = rng.normal(size=w.shape[-1])
    y, cache = nn.conv2d(x, w, b, stride, padding)
    y_ref, cache_ref = reference_conv2d(x, w, b, stride, padding)
    assert_same_bits(y, y_ref)
    assert_same_bits(cache[0], cache_ref[0])
    assert cache[2:] == cache_ref[2:]
    dout = rng.normal(size=y.shape)
    for got, want in zip(nn.conv2d_backward(dout, cache),
                         reference_conv2d_backward(dout, cache_ref)):
        assert_same_bits(got, want)


class TestConvPool:
    def test_conv_grad(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(2, 6, 6, 3))
        w = rng.normal(size=(3, 3, 3, 4)) * 0.4
        b = rng.normal(size=(4,))

        def f(x, w, b):
            y, cache = nn.conv2d(x, w, b, stride=1, padding=1)
            return y, lambda d: nn.conv2d_backward(d, cache)

        assert nn.grad_check(f, [x, w, b], rng=rng, max_coords=60) < 1e-6

    def test_strided_conv_grad(self):
        rng = np.random.default_rng(16)
        x = rng.normal(size=(1, 8, 8, 2))
        w = rng.normal(size=(2, 2, 2, 3)) * 0.4
        b = np.zeros(3)

        def f(x, w, b):
            y, cache = nn.conv2d(x, w, b, stride=2, padding=0)
            return y, lambda d: nn.conv2d_backward(d, cache)

        assert nn.grad_check(f, [x, w, b], rng=rng, max_coords=60) < 1e-6

    @pytest.mark.parametrize("kernel, stride, padding, hw", [
        ((1, 1), 1, 0, (7, 5)),
        ((1, 1), 2, 1, (7, 5)),
        ((3, 3), 2, 1, (7, 5)),
        ((2, 2), 2, 0, (6, 8)),  # the VAE's downsampling conv
        ((3, 2), 1, 2, (5, 7)),
    ])
    def test_conv_grad_shapes(self, kernel, stride, padding, hw):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(2, *hw, 3))
        w = rng.normal(size=(*kernel, 3, 2)) * 0.4
        b = rng.normal(size=(2,))

        def f(x, w, b):
            y, cache = nn.conv2d(x, w, b, stride=stride, padding=padding)
            return y, lambda d: nn.conv2d_backward(d, cache)

        assert nn.grad_check(f, [x, w, b], rng=rng, max_coords=40) < 1e-6

    def test_conv_channel_mismatch(self):
        with pytest.raises(ValueError, match="channel"):
            nn.conv2d(np.zeros((1, 4, 4, 3)), np.zeros((3, 3, 2, 4)))

    def test_conv_matches_reference_bitwise(self):
        rng = np.random.default_rng(22)
        kernels = [(1, 1), (2, 2), (3, 3), (1, 3), (3, 2)]
        for kernel, stride, padding, hw in itertools.product(
                kernels, (1, 2), (0, 1, 2), [(7, 5), (6, 9), (5, 5), (8, 8)]):
            x = rng.normal(size=(2, *hw, 3))
            w = rng.normal(size=(*kernel, 3, 4))
            check_conv_against_reference(rng, x, w, stride, padding)

    def test_conv_matches_reference_on_vae_shapes(self, monkeypatch):
        shapes = set()
        conv2d = nn.conv2d

        def recording_conv2d(x, w, b=None, stride=1, padding=0):
            shapes.add((x.shape, w.shape, stride, padding))
            return conv2d(x, w, b, stride, padding)

        cfg = vae.VaeConfig()
        params = vae.init_vae_params(cfg, np.random.default_rng(23))
        labels = np.random.default_rng(24).integers(
            0, cfg.num_classes, size=(2, *cfg.grid_dims))
        monkeypatch.setattr(nn, "conv2d", recording_conv2d)
        vae.vae_encode_mean(params, cfg, labels)
        vae.vae_reconstruct(params, cfg, np.zeros((2, *cfg.latent_hw, cfg.latent_channels)))
        monkeypatch.undo()
        assert len(shapes) >= 5 and {shape[2] for shape in shapes} == {1, 2}
        rng = np.random.default_rng(25)
        for x_shape, w_shape, stride, padding in sorted(shapes):
            x = rng.normal(size=x_shape)
            w = rng.normal(size=w_shape) * 0.1
            check_conv_against_reference(rng, x, w, stride, padding)

    def test_space_depth_round_trip(self):
        rng = np.random.default_rng(18)
        x = rng.normal(size=(2, 4, 6, 3))
        assert np.array_equal(nn.depth_to_space(nn.space_to_depth(x, 2), 2), x)


def test_embedding_backward():
    rng = np.random.default_rng(19)
    table = rng.normal(size=(5, 3))
    ids = np.array([[0, 2], [2, 4]])
    out, cache = nn.embedding(table, ids)
    assert out.shape == (2, 2, 3)
    dout = rng.normal(size=out.shape)
    dtable = nn.embedding_backward(dout, cache)
    expect = np.zeros_like(table)
    for i in range(2):
        for j in range(2):
            expect[ids[i, j]] += dout[i, j]
    assert np.allclose(dtable, expect, atol=1e-15)


def test_embedding_backward_matches_reference_bitwise():
    rng = np.random.default_rng(26)
    table = rng.normal(size=(12, 5))
    # unsorted, repeated ids that never hit rows 0, 5 and 11
    ids = rng.choice([1, 2, 3, 4, 6, 7, 8, 9, 10], size=(3, 4, 7))
    ids[0, 0, :3] = 7
    out, cache = nn.embedding(table, ids)
    dout = rng.normal(size=out.shape) * 10.0 ** rng.integers(-8, 8, size=out.shape)
    dout[1, 1, 1] = -0.0
    dtable = nn.embedding_backward(dout, cache)
    assert_same_bits(dtable, reference_embedding_backward(dout, cache))
    assert not dtable[[0, 5, 11]].any()


def test_adam_minimizes_quadratic():
    params = {"w": np.array([5.0, -3.0])}
    state = nn.adam_init(params)
    for _ in range(600):
        grads = {"w": 2.0 * params["w"]}
        nn.adam_step(params, grads, state, lr=0.05)
    assert np.max(np.abs(params["w"])) < 1e-3


def test_clip_grads():
    grads = {"a": np.array([3.0, 4.0])}
    norm = nn.clip_grads(grads, max_norm=1.0)
    assert abs(norm - 5.0) < 1e-12
    assert abs(np.linalg.norm(grads["a"]) - 1.0) < 1e-12
