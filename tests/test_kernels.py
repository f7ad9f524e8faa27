import numpy as np
import pytest

from fovea import kernels, naive
from fovea.builders import BUILDERS
from fovea.kernels import (ConvSpec, bilinear_resize, conv2d, depthwise_conv2d, max_pool2d,
                           nearest_upsample2x, relu, resize_longer_side, sigmoid,
                           transpose_conv2d, zero_pad_to)

RTOL = 1e-5


def rand(shape, seed=0, scale=1.0):
    return (np.random.default_rng(seed).normal(size=shape) * scale).astype(np.float32)


# ---- conv2d --------------------------------------------------------------------


def test_conv2d_identity_kernel():
    x = rand((1, 1, 4, 4))
    w = np.ones((1, 1, 1, 1), np.float32)
    y = conv2d(x, w, None, ConvSpec(1, 1, (1, 1)))
    assert np.array_equal(y, x)


def test_conv2d_residual_row_shape():
    # h x w x k -> h x w x k' with a padded 3x3 kernel
    x = rand((1, 256, 64, 64))
    w = rand((256, 256, 3, 3), seed=1, scale=0.05)
    y = conv2d(x, w, None, ConvSpec(256, 256, (3, 3), padding=1))
    assert y.shape == (1, 256, 64, 64)


def test_conv2d_matches_naive():
    x = rand((1, 3, 8, 8), seed=2)
    w = rand((5, 3, 3, 3), seed=3)
    b = rand((5,), seed=4)
    for stride, pad in [(1, 0), (1, 1), (2, 1)]:
        got = conv2d(x, w, b, ConvSpec(3, 5, (3, 3), stride=stride, padding=pad))
        want = naive.conv2d_naive(x, w, b, stride, pad)
        np.testing.assert_allclose(got, want, rtol=RTOL, atol=1e-6)


def test_conv2d_grouped_matches_naive():
    x = rand((2, 4, 6, 6), seed=5)
    w = rand((6, 2, 3, 3), seed=6)  # groups=2: 6 out, 2 in per group
    got = conv2d(x, w, None, ConvSpec(4, 6, (3, 3), padding=1, groups=2))
    want = naive.conv2d_naive(x, w, None, 1, 1)
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=1e-6)


def test_conv2d_same_padding_preserves_dims_for_odd_kernels():
    x = rand((1, 2, 9, 7), seed=7)
    for k in (1, 3, 5, 7):
        w = rand((3, 2, k, k), seed=k)
        y = conv2d(x, w, None, ConvSpec(2, 3, (k, k), padding=(k - 1) // 2))
        assert y.shape == (1, 3, 9, 7)


def test_conv2d_shape_errors():
    x = rand((1, 3, 4, 4))
    w = rand((5, 3, 3, 3))
    with pytest.raises(ValueError, match="channels"):
        conv2d(x, w, None, ConvSpec(4, 5, (3, 3)))
    with pytest.raises(ValueError, match="spec expects"):
        conv2d(x, rand((5, 2, 3, 3)), None, ConvSpec(3, 5, (3, 3)))
    with pytest.raises(ValueError, match="divisible"):
        ConvSpec(3, 5, (3, 3), groups=2)


def test_conv2d_band_seams_match_naive(monkeypatch):
    # a column budget of 3 output rows ow wide: 5 rows (stride 2) run as
    # bands 3+2, and at stride 1, whose rows are wp = ow + 2 wide, 7 rows
    # (pad 0) as 2+2+2+1 and 9 rows (pad 1) as 2+2+2+2+1, so every seam and
    # a part-filled last band are compared
    x = rand((2, 4, 9, 9), seed=30)
    for stride, pad in [(1, 0), (1, 1), (2, 1)]:
        ow = (9 + 2 * pad - 3) // stride + 1
        monkeypatch.setattr(kernels, "_COLS_BYTES", 4 * 2 * 4 * 9 * ow * 3)
        for groups in (1, 2, 4):
            w = rand((4, 4 // groups, 3, 3), seed=31 + groups)
            b = rand((4,), seed=35)
            got = conv2d(x, w, b, ConvSpec(4, 4, (3, 3), stride=stride, padding=pad, groups=groups))
            want = naive.conv2d_naive(x, w, b, stride, pad)
            np.testing.assert_allclose(got, want, rtol=RTOL, atol=1e-6)
        got = depthwise_conv2d(x, w, ConvSpec(4, 4, (3, 3), stride=stride, padding=pad, groups=4))
        want = naive.conv2d_naive(x, w, None, stride, pad)
        np.testing.assert_allclose(got, want, rtol=RTOL, atol=1e-6)


def test_conv2d_single_row_bands_and_pointwise_match_naive(monkeypatch):
    # a budget below one output row still makes progress, one row per band
    monkeypatch.setattr(kernels, "_COLS_BYTES", 1)
    x = rand((2, 6, 5, 7), seed=36)
    w = rand((4, 3, 3, 3), seed=37)
    got = conv2d(x, w, None, ConvSpec(6, 4, (3, 3), stride=2, padding=1, groups=2))
    np.testing.assert_allclose(got, naive.conv2d_naive(x, w, None, 2, 1), rtol=RTOL, atol=1e-6)
    w1 = rand((8, 3, 1, 1), seed=38)
    b1 = rand((8,), seed=39)
    got = conv2d(x, w1, b1, ConvSpec(6, 8, (1, 1), groups=2))
    np.testing.assert_allclose(got, naive.conv2d_naive(x, w1, b1, 1, 0), rtol=RTOL, atol=1e-6)


# ---- depthwise -----------------------------------------------------------------


def _dw_spec(c, stride=1):
    return ConvSpec(c, c, (3, 3), stride=stride, padding=1, groups=c)


def test_depthwise_identity_kernels():
    x = rand((1, 2, 4, 4), seed=8)
    w = np.zeros((2, 1, 3, 3), np.float32)
    w[:, 0, 1, 1] = 1.0
    y = depthwise_conv2d(x, w, _dw_spec(2))
    assert np.array_equal(y, x)


def test_depthwise_preserves_expand_branch_shape():
    x = rand((1, 128, 64, 64), seed=9)
    w = rand((128, 1, 3, 3), seed=10)
    y = depthwise_conv2d(x, w, _dw_spec(128))
    assert y.shape == (1, 128, 64, 64)


def test_depthwise_matches_naive():
    x = rand((1, 4, 6, 6), seed=11)
    w = rand((4, 1, 3, 3), seed=12)
    got = depthwise_conv2d(x, w, _dw_spec(4))
    want = naive.conv2d_naive(x, w, None, 1, 1)
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=1e-6)


def test_depthwise_rejects_group_mismatch():
    with pytest.raises(ValueError, match="depthwise"):
        depthwise_conv2d(rand((1, 4, 4, 4)), rand((4, 1, 3, 3)),
                         ConvSpec(4, 4, (3, 3), padding=1, groups=2))


# ---- stride-1 columns against the window view ---------------------------------


def _conv2d_window(x, w, bias, spec):
    """The former ``conv2d``, frozen as the byte reference: every conv built
    its columns from a window view of the padded input."""
    n, c, h, wd = x.shape
    kh, kw = spec.kernel
    s, p, g = spec.stride, spec.padding, spec.groups
    oh, ow = (h + 2 * p - kh) // s + 1, (wd + 2 * p - kw) // s + 1
    ocg, k = spec.out_channels // g, c // g * kh * kw
    wm = w.reshape(g, ocg, k)
    if (kh, kw, s, p) == (1, 1, 1, 0):
        out = np.matmul(wm, x.reshape(n, g, k, h * wd))
    else:
        xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x
        win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::s, ::s]
        win = win.transpose(0, 1, 4, 5, 2, 3)
        out = np.empty((n, g, ocg, oh * ow), dtype=np.float32)
        band = max(1, kernels._COLS_BYTES // (4 * n * c * kh * kw * ow))
        for r0 in range(0, oh, band):
            r1 = min(oh, r0 + band)
            cols = np.ascontiguousarray(win[..., r0:r1, :]).reshape(n, g, k, (r1 - r0) * ow)
            out[..., r0 * ow : r1 * ow] = np.matmul(wm, cols)
    out = out.reshape(n, spec.out_channels, oh, ow)
    if bias is not None:
        out += bias.reshape(1, -1, 1, 1)
    return out


def _assert_bytes_match_window(x, w, bias, spec):
    want = _conv2d_window(x, w, bias, spec)
    got = conv2d(x, w, bias, spec)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    if bias is None and spec.groups == spec.in_channels == spec.out_channels:
        assert depthwise_conv2d(x, w, spec).tobytes() == want.tobytes()


def _stride1_node_shapes():
    """One row per distinct stride-1 conv or dwconv node that builds columns,
    over every backbone at 255x255: (input dims, spec, bias)."""
    rows = {}
    for build in BUILDERS.values():
        g = build(3, (255, 255))
        dims = g.shapes()
        for node in g.nodes:
            if (node.kind in ("conv", "dwconv") and node.stride == 1
                    and (node.kernel != (1, 1) or node.padding)):
                groups = node.in_channels if node.kind == "dwconv" else 1
                spec = ConvSpec(node.in_channels, node.out_channels, node.kernel,
                                padding=node.padding, groups=groups)
                (_, c, h, w), (kh, kw) = dims[node.inputs[0]], node.kernel
                rows[f"{node.kind}-{c}x{h}x{w}-{spec.out_channels}-k{kh}x{kw}p{node.padding}"] = \
                    (dims[node.inputs[0]], spec, node.bias)
    return [pytest.param(*row, id=key) for key, row in rows.items()]


@pytest.mark.parametrize("dims, spec, bias", _stride1_node_shapes())
def test_conv2d_bytes_match_window_on_backbone_nodes(dims, spec, bias):
    x = rand(dims, seed=sum(dims))
    w = rand((spec.out_channels, spec.in_channels // spec.groups, *spec.kernel),
             seed=spec.out_channels, scale=0.05)
    _assert_bytes_match_window(x, w, rand((spec.out_channels,), seed=1) if bias else None, spec)


# every depthwise call of a squeeze forward at 255x255, as (c, hw, stride)
SQUEEZE_DW = [(128, 128, 2), (128, 64, 2), (128, 32, 1), (128, 32, 2), (128, 16, 1),
              (192, 16, 1), (192, 16, 2), (192, 8, 1), (192, 8, 2), (192, 4, 1),
              (256, 4, 1), (256, 4, 2), (256, 2, 1)]


@pytest.mark.parametrize("c, hw, stride", SQUEEZE_DW)
def test_depthwise_bytes_match_conv2d_on_squeeze_shapes(c, hw, stride):
    x = rand((1, c, hw, hw), seed=c + hw)
    w = rand((c, 1, 3, 3), seed=c + hw + 1)
    _assert_bytes_match_window(x, w, None, _dw_spec(c, stride))


ODD_SHAPES = [
    (2, 5, 9, 9, 3, 1),     # batch of 2
    (1, 3, 7, 13, 3, 1),    # non-square maps
    (2, 4, 11, 6, 3, 1),
    (1, 4, 9, 8, 5, 2),     # kernel 5
    (1, 4, 9, 8, 5, 0),
    (1, 3, 6, 7, 3, 0),     # padding 0 and 2
    (2, 3, 6, 7, 3, 2),
    (1, 6, 1, 1, 3, 1),     # 1x1 maps
    (2, 6, 1, 1, 1, 0),
    (1, 2, 1, 5, 3, 1),
]


@pytest.mark.parametrize("n, c, h, w, k, pad", ODD_SHAPES)
def test_depthwise_bytes_match_conv2d_on_odd_shapes(n, c, h, w, k, pad):
    x = rand((n, c, h, w), seed=h * w + k)
    wt = rand((c, 1, k, k), seed=pad + 7)
    _assert_bytes_match_window(x, wt, None, ConvSpec(c, c, (k, k), padding=pad, groups=c))


@pytest.mark.parametrize("groups", [1, 2])
@pytest.mark.parametrize("n, c, h, w, k, pad", ODD_SHAPES)
def test_conv2d_matches_window_on_odd_shapes(n, c, h, w, k, pad, groups):
    # not bytes: at GEMMs this small, OpenBLAS rounds an output element
    # differently as the GEMM's width changes, and the stride-1 columns are
    # wp rather than ow wide.  2c input channels let both group counts divide them.
    x = rand((n, 2 * c, h, w), seed=h * w + k)
    wt = rand((6, 2 * c // groups, k, k), seed=pad + 7)
    b = rand((6,), seed=k)
    spec = ConvSpec(2 * c, 6, (k, k), padding=pad, groups=groups)
    np.testing.assert_allclose(conv2d(x, wt, b, spec), _conv2d_window(x, wt, b, spec),
                               rtol=RTOL, atol=1e-6)


def test_depthwise_band_seams_match_conv2d_and_naive(monkeypatch):
    # a budget of 3 output rows of the padded width: 9 rows run as 3+3+3,
    # 7 (pad 0) as 3+3+1; a 1-byte budget runs one row per band
    x = rand((2, 4, 9, 10), seed=60)
    w = rand((4, 1, 3, 3), seed=61)
    for pad in (0, 1, 2):
        for budget in (4 * 2 * 4 * 9 * (10 + 2 * pad) * 3, 1):
            monkeypatch.setattr(kernels, "_COLS_BYTES", budget)
            spec = ConvSpec(4, 4, (3, 3), padding=pad, groups=4)
            _assert_bytes_match_window(x, w, None, spec)
            np.testing.assert_allclose(depthwise_conv2d(x, w, spec),
                                       naive.conv2d_naive(x, w, None, 1, pad),
                                       rtol=RTOL, atol=1e-6)


# ---- transpose conv ------------------------------------------------------------


def test_transpose_conv_doubles_spatial_dims():
    for h, w in [(4, 4), (1, 1), (5, 3)]:
        x = rand((1, 1, h, w), seed=h * 10 + w)
        wt = rand((1, 1, 4, 4), seed=13)
        y = transpose_conv2d(x, wt)
        assert y.shape == (1, 1, 2 * h, 2 * w)


def test_transpose_conv_upsampling_shape():
    x = rand((1, 256, 64, 64), seed=14, scale=0.1)
    wt = rand((256, 256, 4, 4), seed=15, scale=0.02)
    y = transpose_conv2d(x, wt)
    assert y.shape == (1, 256, 128, 128)


def test_transpose_conv_matches_scatter_naive():
    x = rand((1, 2, 3, 3), seed=16)
    wt = rand((2, 3, 4, 4), seed=17)
    b = rand((3,), seed=18)
    got = transpose_conv2d(x, wt, b)
    want = naive.transpose_conv2d_naive(x, wt, b, 2, 1)
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=1e-6)


def test_transpose_conv_general_shapes_match_naive():
    x = rand((2, 3, 4, 5), seed=40)
    b = rand((2,), seed=41)
    for stride, pad, k in [(1, 0, 3), (3, 0, 3), (1, 2, 5), (3, 2, 5), (3, 2, 3)]:
        wt = rand((3, 2, k, k), seed=42 + k)
        got = transpose_conv2d(x, wt, b, stride=stride, padding=pad)
        want = naive.transpose_conv2d_naive(x, wt, b, stride, pad)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=RTOL, atol=1e-6)


def _transpose_conv2d_scatter(x, w, bias, stride, padding):
    """The all-taps GEMM with a strided scatter-add per tap, frozen as the
    byte reference for ``transpose_conv2d``.  It skips the channel bands,
    which change no value."""
    n, c, h, wd = x.shape
    _, oc, kh, kw = w.shape
    oh = (h - 1) * stride - 2 * padding + kh
    ow = (wd - 1) * stride - 2 * padding + kw
    buf = np.zeros((n, oc, (h - 1) * stride + kh, (wd - 1) * stride + kw), dtype=np.float32)
    prod = np.matmul(w.reshape(c, -1).T, x.reshape(n, c, h * wd)).reshape(n, oc, kh, kw, h, wd)
    for i in range(kh):
        for j in range(kw):
            buf[:, :, i : i + (h - 1) * stride + 1 : stride,
                j : j + (wd - 1) * stride + 1 : stride] += prod[:, :, i, j]
    out = np.ascontiguousarray(buf[:, :, padding : padding + oh, padding : padding + ow])
    if bias is not None:
        out += bias.reshape(1, -1, 1, 1)
    return out


def _assert_tconv_bytes_match_scatter(x, wt, b, stride, pad):
    got = transpose_conv2d(x, wt, b, stride=stride, padding=pad)
    want = _transpose_conv2d_scatter(x, wt, b, stride, pad)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_transpose_conv_band_seams_match_naive(monkeypatch):
    # 5 output channels under a 2-channel product budget run as bands
    # 2+2+1; a budget of 1 byte runs one channel per band.  The product
    # is kh*kw values per channel and input pixel.
    x = rand((2, 3, 5, 4), seed=50)
    wt = rand((3, 5, 4, 4), seed=51)
    b = rand((5,), seed=52)
    for stride, pad in [(2, 1), (3, 2), (1, 0)]:
        for budget in (4 * 2 * 16 * 5 * 4 * 2, 1):
            monkeypatch.setattr(kernels, "_COLS_BYTES", budget)
            got = transpose_conv2d(x, wt, b, stride=stride, padding=pad)
            want = naive.transpose_conv2d_naive(x, wt, b, stride, pad)
            np.testing.assert_allclose(got, want, rtol=RTOL, atol=1e-6)
            _assert_tconv_bytes_match_scatter(x, wt, b, stride, pad)


@pytest.mark.parametrize("c, hw", [(256, 16), (384, 8), (384, 4), (512, 2)])
def test_transpose_conv_bytes_match_scatter_on_squeeze_shapes(c, hw):
    x = rand((1, c, hw, hw), seed=c + hw)
    wt = rand((c, c, 4, 4), seed=c, scale=0.05)
    _assert_tconv_bytes_match_scatter(x, wt, rand((c,), seed=hw), 2, 1)


@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("pad", [0, 1, 2])
@pytest.mark.parametrize("k", [3, 4, 5])
def test_transpose_conv_bytes_match_scatter_on_general_shapes(stride, pad, k):
    x = rand((2, 3, 4, 5), seed=70 + k)
    wt = rand((3, 4, k, k), seed=71 + stride)
    _assert_tconv_bytes_match_scatter(x, wt, rand((4,), seed=72 + pad), stride, pad)


@pytest.mark.parametrize("h, w", [(3, 4), (1, 1), (5, 2)])
def test_transpose_conv_kernel_below_stride_leaves_tapless_phases_zero(h, w):
    # k=1, s=2: only phase (0, 0) gets a tap, so the output is a strided
    # copy of the product with zeros between
    x = rand((2, 3, h, w), seed=80 + h)
    wt = rand((3, 2, 1, 1), seed=81)
    _assert_tconv_bytes_match_scatter(x, wt, None, 2, 0)
    y = transpose_conv2d(x, wt, None, stride=2, padding=0)
    assert not y[:, :, 1::2].any() and not y[:, :, :, 1::2].any()


def test_transpose_conv_inf_weight_leaves_the_naive_finite_outputs_finite():
    # each output sums only the taps that reach it, so an inf weight makes
    # inf (not NaN) exactly where the loop reference does, and nothing else
    x = rand((1, 3, 5, 5), seed=90)
    wt = rand((3, 2, 4, 4), seed=91)
    wt[0, 0, 0, 0] = np.inf
    got = transpose_conv2d(x, wt, None, stride=2, padding=1)
    want = naive.transpose_conv2d_naive(x, wt, None, 2, 1)
    assert np.array_equal(np.isfinite(got), np.isfinite(want))


def test_transpose_conv_channel_mismatch():
    with pytest.raises(ValueError, match="channels"):
        transpose_conv2d(rand((1, 3, 4, 4)), rand((2, 2, 4, 4)))


def test_transpose_conv_rejects_bad_stride_and_padding():
    # negative padding would otherwise crop the output silently
    x, wt = rand((1, 1, 3, 3)), rand((1, 1, 4, 4))
    for stride, pad in [(0, 1), (-1, 0), (2, -1)]:
        with pytest.raises(ValueError, match="stride must be >= 1 and padding >= 0"):
            transpose_conv2d(x, wt, stride=stride, padding=pad)


# ---- upsample / pool -----------------------------------------------------------


def test_upsample_single_value():
    y = nearest_upsample2x(np.full((1, 1, 1, 1), 7.0, np.float32))
    assert y.shape == (1, 1, 2, 2)
    assert np.all(y == 7.0)


def test_upsample_block_pattern():
    x = np.array([[1, 2], [3, 4]], np.float32).reshape(1, 1, 2, 2)
    want = np.array([[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]], np.float32)
    assert np.array_equal(nearest_upsample2x(x)[0, 0], want)


def test_upsample_then_maxpool_round_trips():
    x = rand((1, 3, 5, 5), seed=19)
    back = max_pool2d(nearest_upsample2x(x), 2, 2)
    assert np.array_equal(back, x)


def test_max_pool_constant():
    x = np.full((1, 2, 5, 5), 3.5, np.float32)
    assert np.array_equal(max_pool2d(x, 3, 1, 1), x)


def test_max_pool_peak_coverage():
    x = np.zeros((1, 1, 3, 3), np.float32)
    x[0, 0, 1, 1] = 9.0
    y = max_pool2d(x, 3, 1, 1)
    assert np.all(y == 9.0)  # the center peak covers every 3x3 window


def test_max_pool_matches_naive():
    x = rand((1, 2, 7, 7), seed=20)
    for kernel, stride, pad in [(3, 1, 1), (3, 2, 1), (2, 2, 0)]:
        got = max_pool2d(x, kernel, stride, pad)
        want = naive.max_pool2d_naive(x, kernel, stride, pad)
        assert np.array_equal(got, want.astype(np.float32))


# ---- elementwise ---------------------------------------------------------------


def test_relu_values():
    assert relu(np.float32(-1.0)) == 0.0
    assert relu(np.float32(2.0)) == 2.0


def test_sigmoid_at_zero():
    assert sigmoid(np.zeros((1, 1, 1, 1), np.float32))[0, 0, 0, 0] == 0.5


def test_sigmoid_large_magnitudes_stay_in_open_interval():
    x = np.array([-50.0, -20.0, 20.0, 50.0], np.float32)
    y = sigmoid(x)
    assert np.all(np.isfinite(y))
    assert np.all(y > 0.0) and np.all(y < 1.0)
    want = 1.0 / (1.0 + np.exp(-x.astype(np.float64)))
    np.testing.assert_allclose(y, want, rtol=RTOL)


# ---- resize / pad --------------------------------------------------------------


def test_resize_exact_double():
    y = resize_longer_side(rand((1, 3, 510, 340), seed=21), 255)
    assert y.shape == (1, 3, 255, 170)


def test_resize_exact_ten_thirds():
    y = resize_longer_side(rand((1, 3, 480, 640), seed=22), 192)
    assert y.shape == (1, 3, 144, 192)


def test_resize_round_half_up_and_matches_naive():
    x = rand((1, 1, 100, 77), seed=23)
    y = resize_longer_side(x, 255)
    assert y.shape == (1, 1, 255, 196)  # 77 * 255/100 = 196.35 -> 196
    want = naive.bilinear_resize_naive(x, 255, 196)
    np.testing.assert_allclose(y, want, rtol=RTOL, atol=1e-6)


def test_resize_preserves_aspect_within_rounding():
    rng = np.random.default_rng(24)
    for _ in range(20):
        h = int(rng.integers(10, 300))
        w = int(rng.integers(10, 300))
        target = int(rng.integers(8, 256))
        y = resize_longer_side(np.zeros((1, 1, h, w), np.float32), target)
        oh, ow = y.shape[2:]
        if h >= w:
            assert oh == target and abs(ow - w * target / h) <= 0.5
        else:
            assert ow == target and abs(oh - h * target / w) <= 0.5


def test_bilinear_resize_identity():
    x = rand((1, 2, 6, 5), seed=25)
    assert np.allclose(bilinear_resize(x, 6, 5), x, rtol=RTOL)


def test_bilinear_resize_matches_naive_many_seeds():
    rng = np.random.default_rng(28)
    for trial in range(100):
        c = int(rng.integers(1, 4))
        h, w = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        oh, ow = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        x = rng.normal(size=(1, c, h, w)).astype(np.float32)
        got = bilinear_resize(x, oh, ow)
        want = naive.bilinear_resize_naive(x, oh, ow)
        np.testing.assert_allclose(got, want, rtol=RTOL, atol=1e-5)


def _bilinear_resize_2d_gather(x, out_h, out_w):
    """The former bilinear_resize: one 2-D broadcast gather per bilinear tap."""
    n, c, h, w = x.shape
    ys = (np.arange(out_h, dtype=np.float64) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w, dtype=np.float64) + 0.5) * (w / out_w) - 0.5
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    fy = (ys - y0).astype(np.float32)
    fx = (xs - x0).astype(np.float32)
    y0c = np.clip(y0, 0, h - 1)
    y1c = np.clip(y0 + 1, 0, h - 1)
    x0c = np.clip(x0, 0, w - 1)
    x1c = np.clip(x0 + 1, 0, w - 1)

    fy = fy.reshape(1, 1, out_h, 1)
    fx = fx.reshape(1, 1, 1, out_w)
    top = x[:, :, y0c[:, None], x0c[None, :]] * (1 - fx) + x[:, :, y0c[:, None], x1c[None, :]] * fx
    bot = x[:, :, y1c[:, None], x0c[None, :]] * (1 - fx) + x[:, :, y1c[:, None], x1c[None, :]] * fx
    return (top * (1 - fy) + bot * fy).astype(np.float32)


@pytest.mark.parametrize("shape,out_hw", [
    ((1, 3, 1020, 1020), (255, 255)), ((1, 3, 480, 640), (144, 192)),
    ((1, 3, 720, 960), (191, 255)), ((2, 3, 50, 70), (255, 127)),
    ((1, 1, 9, 300), (1, 17)), ((2, 1, 1, 1), (3, 5)), ((1, 2, 64, 33), (64, 33)),
    ((1, 3, 510, 510), (1020, 1020)),  # step 0.5: every source row read twice
    ((2, 1, 64, 48), (64, 48)),  # step exactly 1.0
    ((1, 3, 300, 340), (200, 255)), ((2, 1, 97, 41), (60, 30)),  # steps in (1, 2)
])
def test_bilinear_resize_bit_equal_to_2d_gather(shape, out_hw):
    x = rand(shape, seed=sum(shape) + sum(out_hw))  # signed values
    x[..., :3, :3] = -0.0
    got, want = bilinear_resize(x, *out_hw), _bilinear_resize_2d_gather(x, *out_hw)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape,out_hw", [
    ((1, 3, 510, 510), (1020, 1020)), ((2, 1, 64, 48), (64, 48)),
    ((1, 3, 300, 340), (200, 255)), ((2, 1, 1020, 1020), (255, 255)),
])
def test_bilinear_resize_bit_equal_to_2d_gather_with_infinities(shape, out_hw):
    # inf * 0 and inf - inf make NaNs, so bytes compare NaN signs as well
    rng = np.random.default_rng(sum(shape) + sum(out_hw))
    x = rand(shape, seed=sum(shape))
    flat = x.reshape(-1)
    at = rng.choice(flat.size, flat.size // 200, replace=False)
    flat[at] = rng.choice([np.inf, -np.inf], at.size)
    x[..., 0, ::7] = np.inf
    x[..., ::5, -1] = -np.inf
    x[..., :3, :3] = -0.0
    with np.errstate(invalid="ignore"):
        got, want = bilinear_resize(x, *out_hw), _bilinear_resize_2d_gather(x, *out_hw)
    assert np.isnan(want).any() and np.isinf(want).any()
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_zero_pad_layout_and_sum():
    x = np.abs(rand((1, 3, 192, 144), seed=26))
    y = zero_pad_to(x, 255, 255)
    assert y.shape == (1, 3, 255, 255)
    assert np.array_equal(y[:, :, :192, :144], x)
    assert np.all(y[:, :, 192:, :] == 0) and np.all(y[:, :, :, 144:] == 0)
    assert np.isclose(y.sum(dtype=np.float64), x.sum(dtype=np.float64))


def test_zero_pad_identity_and_errors():
    x = rand((1, 1, 8, 8), seed=27)
    assert zero_pad_to(x, 8, 8) is x
    with pytest.raises(ValueError, match="pad"):
        zero_pad_to(x, 4, 8)
