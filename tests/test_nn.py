import itertools
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import occkit
from occkit import nn, vae


# ---------------------------------------------------------------------------
# Reference layers: the slice-loop im2col, the masked sigmoid, the SiLU that
# caches its input and sigmoid, and the scatter-add embedding gradient, kept
# verbatim as bitwise oracles
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
    # the library's GEMM orientation: cols.T @ dflat rounds otherwise under
    # some OpenBLAS kernels (Haswell)
    dw = (dflat.T @ cols.reshape(-1, kh * kw * cin)).T.reshape(w.shape)
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


def reference_silu(x: np.ndarray):
    s = reference_sigmoid(x)
    return x * s, (x, s)


def reference_silu_backward(dout: np.ndarray, cache) -> np.ndarray:
    x, s = cache
    return dout * (s * (1.0 + x * (1.0 - s)))


def reference_masked_attention(q, k, v, heads: int):
    """masked_attention with the inline softmax it had before nn.softmax;
    returns the output and the attention weights."""
    qh, kh, vh = (nn._split_heads(t, heads) for t in (q, k, v))
    scale = 1.0 / math.sqrt(qh.shape[-1])
    scores = (qh @ kh.swapaxes(-1, -2)) * scale
    m = scores.max(axis=-1, keepdims=True)
    e = np.exp(scores - m)
    attn = e / e.sum(axis=-1, keepdims=True)
    return nn._merge_heads(attn @ vh), attn


def reference_same_conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """The oracle at nn.conv2d's signature, for the square kernels the VAE uses."""
    return reference_conv2d(x, w, b, padding=w.shape[0] // 2)


REFERENCE_LAYERS = {
    "sigmoid": reference_sigmoid,
    "silu": reference_silu,
    "silu_backward": reference_silu_backward,
    "conv2d": reference_same_conv2d,
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
            nn.linear(np.zeros((2, 3)), np.zeros((4, 2)), np.zeros(2))

    def test_grad(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 3))
        w = rng.normal(size=(3, 2))
        b = rng.normal(size=(2,))

        def f(x, w, b):
            y, cache = nn.linear(x, w, b)
            return y, lambda d: nn.linear_backward(d, cache)

        assert nn.grad_check(f, [x, w, b], rng=rng) < 1e-6


def test_grad_check_flags_a_wrong_backward():
    # a backward that doubles the gradient is off by half the larger of the two
    rng = np.random.default_rng(27)
    x = rng.normal(size=(4, 3))

    def f(x):
        return 3.0 * x, lambda d: (6.0 * d,)

    assert abs(nn.grad_check(f, [x], rng=rng) - 0.5) < 1e-6


def test_grad_check_needs_one_gradient_per_input():
    x, y = np.ones(3), np.ones(3)

    def f(x, y):
        return x * y, lambda d: (d * y,)

    with pytest.raises(ValueError, match="backward must return one gradient per input"):
        nn.grad_check(f, [x, y])


def test_grad_check_skips_an_input_whose_gradient_is_none():
    rng = np.random.default_rng(28)
    x, y = rng.normal(size=3), rng.normal(size=3)

    def f(x, y):
        return x * y, lambda d: (d * y, None)

    assert nn.grad_check(f, [x, y], rng=rng) < 1e-6
    assert nn.grad_check(lambda x, y: (x * y, lambda d: (None, None)), [x, y]) == 0.0


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


class TestSilu:
    def test_grad(self):
        rng = np.random.default_rng(22)
        x = rng.normal(size=(4, 5)) * 4.0

        def f(x):
            y, cache = nn.silu(x)
            return y, lambda d: (nn.silu_backward(d, cache),)

        assert nn.grad_check(f, [x], rng=rng) < 1e-6

    def test_matches_reference_bitwise(self):
        rng = np.random.default_rng(23)
        tiny = np.finfo(np.float64).smallest_subnormal
        special = np.array([0.0, -0.0, 700.0, -700.0, tiny, -tiny, 1e-310, -1e-310])
        x = np.concatenate([special, rng.standard_normal(4000) * 8.0,
                            rng.uniform(-800.0, 800.0, 4000)])
        rng.shuffle(x)
        x = x.reshape(8, -1)
        dout = rng.standard_normal(x.shape)
        y, cache = nn.silu(x)
        y_ref, cache_ref = reference_silu(x)
        assert_same_bits(y, y_ref)
        assert_same_bits(nn.silu_backward(dout, cache),
                         reference_silu_backward(dout, cache_ref))


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

    def test_heads_must_divide_the_feature_dim(self):
        x = np.zeros((2, 6))
        assert nn.masked_attention(x, x, x, heads=3)[0].shape == (2, 6)
        for heads in (4, 5):
            with pytest.raises(ValueError, match="feature dim must be divisible by heads"):
                nn.masked_attention(x, x, x, heads=heads)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(6)
        q, k, v = (rng.normal(size=(2, 6, 8)) for _ in range(3))
        _, cache = nn.masked_attention(q, k, v, heads=2)
        attn = cache[3]
        assert attn.shape == (2, 2, 6, 6)
        assert np.max(np.abs(attn.sum(axis=-1) - 1.0)) < 1e-12
        assert np.all(attn > 0.0)

    @pytest.mark.parametrize("shape,heads", [((2, 8, 8, 64), 4), ((2, 8, 8, 8), 2),
                                             ((3, 5, 12), 3), ((1, 4), 1), ((2, 1, 6), 2)])
    def test_bitwise_equal_to_the_inline_softmax(self, shape, heads):
        rng = np.random.default_rng(8)
        q, k, v = (rng.normal(size=shape) * 4.0 for _ in range(3))
        for qq in (q, np.zeros(shape), np.round(q)):   # random, all ties, integer ties
            out, cache = nn.masked_attention(qq, k, v, heads)
            out_ref, attn_ref = reference_masked_attention(qq, k, v, heads)
            assert_same_bits(out, out_ref)
            assert_same_bits(cache[3], attn_ref)

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


def check_conv_against_reference(rng, x, w, dout_view=False):
    """Bitwise check of nn.conv2d and its backward against the oracle pair.

    The oracle runs on the input padded by k // 2 per side, and its input
    gradient is cropped back. With ``dout_view`` the output gradient is the
    interior view of a larger map, as the VAE passes the previous
    backward's unpadded input gradient.
    """
    kh, kw = w.shape[:2]
    bsz, h, wd, _ = x.shape
    b = rng.normal(size=w.shape[-1])
    xp = np.pad(x, ((0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2), (0, 0)))
    y, cache = nn.conv2d(x, w, b)
    y_ref, cache_ref = reference_conv2d(xp, w, b)
    assert_same_bits(y, y_ref)
    assert y.shape[1:3] == x.shape[1:3]
    assert len(cache) == 2 and cache[1] is w
    assert_same_bits(cache[0], xp)
    if dout_view:
        dout = rng.normal(size=(bsz, h + 2, wd + 2, w.shape[-1]))[:, 1:-1, 1:-1, :]
        assert not dout.flags.c_contiguous
    else:
        dout = rng.normal(size=y.shape)
    dx, dw, db = nn.conv2d_backward(dout, cache)
    dxp_ref, dw_ref, db_ref = reference_conv2d_backward(dout, cache_ref)
    assert_same_bits(dx, dxp_ref[:, kh // 2:kh // 2 + h, kw // 2:kw // 2 + wd])
    assert_same_bits(dw, dw_ref)
    assert_same_bits(db, db_ref)


def vae_conv_shapes(monkeypatch) -> list:
    """Sorted (x shape, w shape) of every conv the VAE runs."""
    shapes = set()
    conv2d = nn.conv2d

    def recording_conv2d(x, w, b):
        shapes.add((x.shape, w.shape))
        return conv2d(x, w, b)

    cfg = vae.VaeConfig()
    params = vae.init_vae_params(cfg, np.random.default_rng(23))
    labels = np.random.default_rng(24).integers(
        0, cfg.num_classes, size=(2, *cfg.grid_dims))
    monkeypatch.setattr(nn, "conv2d", recording_conv2d)
    z = vae.vae_encode_mean(params, cfg, labels)
    vae.vae_reconstruct(params, cfg, np.zeros_like(z))
    monkeypatch.undo()
    return sorted(shapes)


def strided_conv_as_linear(x, w, b):
    """The VAE's down-sampling: a 2x2 stride-2 conv as linear(space_to_depth)."""
    return nn.linear(nn.space_to_depth(x), w.reshape(-1, w.shape[-1]), b)


def strided_conv_as_linear_backward(dout, cache):
    dcols, dw, db = nn.linear_backward(dout, cache)
    return nn.depth_to_space(dcols), dw, db


class TestConvPool:
    def test_conv_grad(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(2, 6, 6, 3))
        w = rng.normal(size=(3, 3, 3, 4)) * 0.4
        b = rng.normal(size=(4,))

        def f(x, w, b):
            y, cache = nn.conv2d(x, w, b)
            return y, lambda d: nn.conv2d_backward(d, cache)

        assert nn.grad_check(f, [x, w, b], rng=rng, max_coords=60) < 1e-6

    def test_strided_conv_grad(self):
        rng = np.random.default_rng(16)
        x = rng.normal(size=(1, 8, 8, 2))
        w = rng.normal(size=(2, 2, 2, 3)) * 0.4
        b = rng.normal(size=3)

        def f(x, w, b):
            y, cache = strided_conv_as_linear(x, w, b)
            return y, lambda d: [g.reshape(t.shape) for g, t in
                                 zip(strided_conv_as_linear_backward(d, cache), (x, w, b))]

        assert nn.grad_check(f, [x, w, b], rng=rng, max_coords=60) < 1e-6

    @pytest.mark.parametrize("kernel, hw", [
        ((1, 1), (7, 5)),
        ((3, 3), (7, 5)),  # the VAE's conv
        ((1, 3), (6, 8)),
        ((5, 3), (5, 7)),
    ])
    def test_conv_grad_shapes(self, kernel, hw):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(2, *hw, 3))
        w = rng.normal(size=(*kernel, 3, 2)) * 0.4
        b = rng.normal(size=(2,))

        def f(x, w, b):
            y, cache = nn.conv2d(x, w, b)
            return y, lambda d: nn.conv2d_backward(d, cache)

        assert nn.grad_check(f, [x, w, b], rng=rng, max_coords=40) < 1e-6

    def test_conv_channel_mismatch(self):
        with pytest.raises(ValueError, match="channel"):
            nn.conv2d(np.zeros((1, 4, 4, 3)), np.zeros((3, 3, 2, 4)), np.zeros(4))

    @pytest.mark.parametrize("kernel", [(2, 2), (3, 2), (2, 3), (4, 1)])
    def test_conv_rejects_even_kernel_sides(self, kernel):
        with pytest.raises(ValueError, match="odd"):
            nn.conv2d(np.zeros((1, 4, 4, 3)), np.zeros((*kernel, 3, 4)), np.zeros(4))

    def test_conv_matches_reference_bitwise(self):
        rng = np.random.default_rng(22)
        kernels = [(1, 1), (3, 3), (1, 3), (3, 1), (5, 3)]
        for kernel, hw in itertools.product(kernels, [(7, 5), (6, 9), (5, 5), (8, 8)]):
            x = rng.normal(size=(2, *hw, 3))
            w = rng.normal(size=(*kernel, 3, 4))
            check_conv_against_reference(rng, x, w)

    def test_conv_matches_reference_on_vae_shapes(self, monkeypatch):
        shapes = vae_conv_shapes(monkeypatch)
        # stem and res0 share a shape; dec.out is the only 32 -> 48
        assert len(shapes) == 4 and {w_shape[:2] for _, w_shape in shapes} == {(3, 3)}
        rng = np.random.default_rng(25)
        for x_shape, w_shape in shapes:
            x = rng.normal(size=x_shape)
            w = rng.normal(size=w_shape) * 0.1
            check_conv_against_reference(rng, x, w)

    def test_conv_backward_non_contiguous_dout_matches_reference(self, monkeypatch):
        rng = np.random.default_rng(28)
        for x_shape, w_shape in vae_conv_shapes(monkeypatch):
            x = rng.normal(size=x_shape)
            w = rng.normal(size=w_shape) * 0.1
            check_conv_against_reference(rng, x, w, dout_view=True)
        for kernel in [(1, 1), (3, 3), (3, 1), (1, 5)]:
            x = rng.normal(size=(2, 7, 6, 3))
            w = rng.normal(size=(*kernel, 3, 4))
            check_conv_against_reference(rng, x, w, dout_view=True)

    @pytest.mark.parametrize("x_shape, cout", [((2, 32, 32, 32), 48), ((2, 16, 16, 48), 64)])
    def test_downsampling_matches_strided_reference_conv(self, x_shape, cout):
        # the VAE's down stages at the default config, against the strided conv
        # they replace; the second output gradient is a non-contiguous view
        rng = np.random.default_rng(30)
        x = rng.normal(size=x_shape)
        w = rng.normal(size=(2, 2, x_shape[-1], cout)) * 0.1
        b = rng.normal(size=cout)
        y, cache = strided_conv_as_linear(x, w, b)
        y_ref, cache_ref = reference_conv2d(x, w, b, stride=2, padding=0)
        assert_same_bits(y, y_ref)
        bsz, ho, wo, _ = y.shape
        douts = [rng.normal(size=y.shape),
                 rng.normal(size=(bsz, ho + 2, wo + 2, cout))[:, 1:-1, 1:-1, :]]
        assert not douts[1].flags.c_contiguous
        for dout in douts:
            dx, dw, db = strided_conv_as_linear_backward(dout, cache)
            dx_ref, dw_ref, db_ref = reference_conv2d_backward(dout, cache_ref)
            assert_same_bits(dx, dx_ref)
            assert_same_bits(dw.reshape(w.shape), dw_ref)
            assert_same_bits(db, db_ref)

    def test_conv_cache_holds_no_more_than_padded_input_and_weights(self):
        rng = np.random.default_rng(29)
        x = rng.normal(size=(2, 16, 16, 8))
        w = rng.normal(size=(3, 3, 8, 8))
        _, cache = nn.conv2d(x, w, rng.normal(size=8))
        held = sum(a.nbytes for a in cache if isinstance(a, np.ndarray))
        # the (2, 16, 16, 72) im2col columns alone are 9 * x.nbytes
        assert held <= 2 * 18 * 18 * 8 * x.itemsize + w.nbytes

    def test_space_depth_round_trip(self):
        rng = np.random.default_rng(18)
        x = rng.normal(size=(2, 4, 6, 3))
        assert np.array_equal(nn.depth_to_space(nn.space_to_depth(x)), x)


def numpy_blas() -> str:
    """The name of the BLAS numpy was built with, or "" where numpy cannot say."""
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy before 1.26 only prints its config
        return ""


def cpu_flags() -> set[str]:
    cpuinfo = Path("/proc/cpuinfo")
    return set(cpuinfo.read_text().split()) if cpuinfo.exists() else set()


@pytest.mark.skipif("openblas" not in numpy_blas().lower(), reason="numpy's BLAS is not OpenBLAS")
@pytest.mark.skipif(not {"avx2", "fma"} <= cpu_flags(), reason="the CPU lacks AVX2 or FMA")
def test_conv_oracles_hold_under_the_openblas_haswell_kernel():
    """The bitwise conv oracles, rerun where OpenBLAS runs its Haswell GEMM kernel.

    OpenBLAS picks its kernel by CPU, and kernels round one GEMM orientation
    differently from the other: an AVX-512 host alone cannot show that the
    oracle follows the library's orientation.
    """
    here = Path(__file__).resolve()
    tests = [f"{here}::TestConvPool::{name}" for name in (
        "test_conv_matches_reference_bitwise",
        "test_conv_backward_non_contiguous_dout_matches_reference")]
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell",
           "PYTHONPATH": str(Path(occkit.__file__).resolve().parents[1])}
    # -o pythonpath= drops the ini's src/, so the child tests the occkit this run imports
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-o", "pythonpath=", *tests], cwd=here.parents[1], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout[-2000:]


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


def test_embedding_id_at_the_row_count_is_out_of_range():
    table = np.zeros((5, 3))
    nn.embedding(table, np.array([0, 4]))
    for bad in (5, -1):
        with pytest.raises(ValueError, match="out of range"):
            nn.embedding(table, np.array([0, bad]))


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


def test_accumulate_adds_in_place_and_checks_the_shape():
    grads = nn.zero_grads({"w": np.ones((2, 3))})
    nn.accumulate(grads, "w", np.full((2, 3), 1.5))
    nn.accumulate(grads, "w", np.full((2, 3), 0.5))
    assert np.array_equal(grads["w"], np.full((2, 3), 2.0))
    for bad in (np.ones(3), np.ones((1, 3)), np.ones((3, 2))):  # the first two would broadcast
        with pytest.raises(ValueError, match="gradient shape mismatch for w"):
            nn.accumulate(grads, "w", bad)
    assert np.array_equal(grads["w"], np.full((2, 3), 2.0))


def test_clip_grads():
    grads = {"a": np.array([3.0, 4.0])}
    norm = nn.clip_grads(grads, max_norm=1.0)
    assert abs(norm - 5.0) < 1e-12
    assert abs(np.linalg.norm(grads["a"]) - 1.0) < 1e-12


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
def test_clip_grads_needs_a_positive_max_norm(bad):
    # max_norm 0 left the gradients as they were, above the norm it promises
    grads = {"a": np.array([3.0, 4.0])}
    with pytest.raises(ValueError, match="max_norm must be > 0"):
        nn.clip_grads(grads, bad)
    assert grads["a"].tolist() == [3.0, 4.0]
    assert nn.clip_grads(grads, 0.5) == 5.0 and np.allclose(grads["a"], [0.3, 0.4])
