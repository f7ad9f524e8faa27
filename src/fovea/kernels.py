"""Dense NCHW float32 tensor kernels.

Every array in this library is a 4-D numpy float32 tensor laid out as
(batch, channels, height, width).  Convolution is cross-correlation (no
kernel flip).  All kernels are pure functions; each has a slow loop-level
counterpart in ``fovea.naive`` used as an independent test oracle.
"""

import numbers
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

# Upper bound on one band of im2col columns in ``conv2d`` and of the GEMM
# product in ``transpose_conv2d``; their docstrings say why.
_COLS_BYTES = 4 << 20

# Open-interval bounds used to keep sigmoid outputs strictly inside (0, 1)
# in float32, where the true value would otherwise round to 0.0 or 1.0.
_SIG_LO = np.float32(np.finfo(np.float32).tiny)
_SIG_HI = np.float32(1.0) - np.float32(2.0 ** -24)

# Integer types accepted for sizes, counts and seeds: the common members of
# numbers.Integral, whose abstract isinstance check costs ~1 us a call, and
# ConvSpec runs once per conv node on every forward.  A bool is never one.
_INTEGERS = (int, np.integer)


# ---- argument checks: the one spelling of each rule in the package ---------


def _require(ok, name, want, value):
    """Raise ``ValueError("<name> must <want>, got <value!r>")`` unless ``ok``:
    the accepted condition, written so that a NaN fails it (``x >= 0``)."""
    if not ok:
        raise ValueError(f"{name} must {want}, got {value!r}")


def _is_integer(value, least):
    return value.__class__ is not bool and isinstance(value, _INTEGERS) and value >= least


def _integer(name, value, least=1):
    """Check that ``value`` is an int or numpy integer >= ``least``, not a bool."""
    if not _is_integer(value, least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _number(name, value):
    """Check that ``value`` is a real number (int, float, numpy scalar or bool)."""
    _require(isinstance(value, numbers.Real), name, "be a number", value)


def _one_of(name, value, choices):
    """Check that ``value`` is one of ``choices`` (of a dict: one of its keys)."""
    if value not in choices:
        raise ValueError(f"unknown {name} {value!r}: {name} must be one of {list(choices)}")


@contextmanager
def _from_fields(what):
    """Report a KeyError, TypeError or ValueError raised inside as one
    ``ValueError`` naming ``what``: a JSON record with a missing or bad field."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{what}: missing or bad field {exc}") from None


def _pair(name, value):
    """Check that ``value`` is a tuple or list of two integers >= 1."""
    if not (isinstance(value, (tuple, list)) and len(value) == 2
            and _is_integer(value[0], 1) and _is_integer(value[1], 1)):
        raise ValueError(f"{name} must be a pair of integers >= 1, got {value!r}")


def _fit(h, w, kernel, stride, padding, transpose=False):
    """Output (h, w) of a conv, or with ``transpose`` a transpose conv, over an
    h x w input; raises ``ValueError`` when it is smaller than 1x1."""
    kh, kw = kernel
    if transpose:
        oh = (h - 1) * stride - 2 * padding + kh
        ow = (w - 1) * stride - 2 * padding + kw
    else:
        oh = (h + 2 * padding - kh) // stride + 1
        ow = (w + 2 * padding - kw) // stride + 1
    if oh < 1 or ow < 1:
        raise ValueError(f"kernel {tuple(kernel)} at stride {stride} and pad {padding} does not "
                         f"fit input {h}x{w}: output {oh}x{ow} is smaller than 1x1")
    return oh, ow


def as_tensor(x, name):
    """Coerce ``x`` to a 4-D float32 array, validating the NCHW layout; a
    failed check names the argument ``name``."""
    arr = np.asarray(x, dtype=np.float32)
    _require(arr.ndim == 4, name, "be 4-D (n, c, h, w)", arr.shape)
    _require(min(arr.shape) >= 1, f"all dims of {name}", "be >= 1", arr.shape)
    return arr


@dataclass(frozen=True)
class ConvSpec:
    """Shape contract for a convolution: channels, kernel, stride, padding, groups."""

    in_channels: int
    out_channels: int
    kernel: tuple = (3, 3)
    stride: int = 1
    padding: int = 0
    groups: int = 1

    def __post_init__(self):
        _pair("kernel", self.kernel)
        _integer("stride", self.stride)
        _integer("padding", self.padding, 0)
        _integer("groups", self.groups)
        if self.in_channels % self.groups or self.out_channels % self.groups:
            raise ValueError(
                f"channels ({self.in_channels} -> {self.out_channels}) must be "
                f"divisible by groups ({self.groups})"
            )


def conv2d(x, weights, bias, spec):
    """Strided, grouped 2-D cross-correlation as one GEMM per band of output rows.

    ``weights`` has shape (out_channels, in_channels // groups, kh, kw);
    ``bias`` is a length-out_channels vector or None.  Output spatial dims
    follow floor((in + 2*pad - kernel) / stride) + 1.

    The input is lowered to im2col columns laid out (n, groups, icg*kh*kw,
    rows*width), with the reduction axis in (channel, kh, kw) order: the
    order of the weight layout, so ``weights.reshape(groups, ocg, icg*kh*kw)``
    is the left GEMM operand with no copy.  Every ``groups`` value, depthwise
    included, takes this one path.  Work runs one band of output rows at a
    time.  At stride 1 the input rows a band reads are zero-padded into a
    small buffer of rows of width wp = w + 2*pad, plus one spare row, so tap
    (i, j) of the band's output row r is one contiguous run of that buffer,
    at offset (r + i)*wp + j; the band's GEMM computes wp - ow extra columns
    per output row, which are dropped.  A strided conv gathers windows of
    such a buffer with no spare row, or of ``x`` itself when unpadded, and its
    width is ow.  A band's columns hold at most ``_COLS_BYTES``, and its
    buffers are freed before the next band's are made: whole-image columns
    are kh*kw times the input (57 MB for a 384-channel 64x64 3x3 conv), and a
    whole padded copy is one more input, either of which would set the peak
    memory of a forward pass.  A 1x1, stride-1, unpadded conv multiplies
    ``x`` itself.
    """
    x, w = _conv_operands(x, weights, spec)
    bias = _bias(bias, spec.out_channels)
    n, c, h, wd = x.shape
    kh, kw = spec.kernel
    s, p, g = spec.stride, spec.padding, spec.groups
    oh, ow = _fit(h, wd, spec.kernel, s, p)
    ocg, k = spec.out_channels // g, c // g * kh * kw
    wm = w.reshape(g, ocg, k)

    if (kh, kw, s, p) == (1, 1, 1, 0):
        out = np.matmul(wm, x.reshape(n, g, k, h * wd))
    else:
        spare = int(s == 1)  # a spare row keeps the last band's runs at taps j > 0 inside
        width = wd + 2 * p if spare else ow
        out = np.empty((n, g, ocg, oh, ow), dtype=np.float32)
        band = max(1, _COLS_BYTES // (4 * n * c * kh * kw * width))
        for r0 in range(0, oh, band):
            r1 = min(oh, r0 + band)
            top, rows = r0 * s - p, (r1 - r0 - 1) * s + kh + spare  # padded rows the band reads
            if p or spare:
                src = np.zeros((n, c, rows, wd + 2 * p), dtype=np.float32)
                lo, hi = max(0, top), min(h, top + rows)
                if lo < hi:  # a band may read padding alone
                    src[:, :, lo - top : hi - top, p : p + wd] = x[:, :, lo:hi]
            else:
                src = x[:, :, top : top + rows]
            sn, sc, sh, sw = src.strides
            # (n, c, kh, kw, rows, width) view of every tap; its copy is the band's columns
            win = as_strided(src, (n, c, kh, kw, r1 - r0, width),
                             (sn, sc, sh, sw, s * sh, s * sw), writeable=False)
            cols = np.ascontiguousarray(win).reshape(n, g, k, (r1 - r0) * width)
            del src, win  # each band's buffers go before the next band's are made
            out[..., r0:r1, :] = np.matmul(wm, cols).reshape(n, g, ocg, r1 - r0, width)[..., :ow]
            del cols
    out = out.reshape(n, spec.out_channels, oh, ow)
    if bias is not None:
        out += bias.reshape(1, -1, 1, 1)
    return out


def _conv_operands(x, weights, spec):
    """``x`` and ``weights`` as float32, checked against ``spec``."""
    x = as_tensor(x, "x")
    w = np.asarray(weights, dtype=np.float32)
    if x.shape[1] != spec.in_channels:
        raise ValueError(f"input has {x.shape[1]} channels, spec expects {spec.in_channels}")
    want = (spec.out_channels, spec.in_channels // spec.groups, *spec.kernel)
    if w.shape != want:  # formatted only on failure: this runs once per conv call
        raise ValueError(f"weights shaped {w.shape}, spec expects {want}")
    return x, w


def _bias(bias, channels):
    """``bias`` as a float32 (channels,) vector, or None."""
    if bias is not None:
        bias = np.asarray(bias, dtype=np.float32)
        _require(bias.shape == (channels,), "bias", f"be shaped ({channels},)", bias.shape)
    return bias


def depthwise_conv2d(x, weights, spec):
    """Per-channel convolution: ``conv2d`` with no bias, under a ``spec``
    whose groups == in_channels == out_channels."""
    _require(spec.groups == spec.in_channels == spec.out_channels, "a depthwise spec",
             "have groups == in == out channels", spec)
    return conv2d(x, weights, None, spec)


def transpose_conv2d(x, weights, bias=None, stride=2, padding=1):
    """Transpose (fractionally-strided) convolution, one GEMM per band of output channels.

    ``weights`` has shape (in_channels, out_channels, kh, kw).  With the
    default 4x4 kernel / stride 2 / pad 1 the output spatial dims are exactly
    double the input's.

    Each band is one pixel-major GEMM over every tap, (h*w, c) @ (c,
    oc_band*kh*kw), of views of ``x`` and ``weights``, no copy of either.
    At stride s, tap i of input row y lands on row (y + i // s) * s + i % s
    of the output, held as (h', s, w', s, oc), so each tap offset pair
    (i // s, j // s) is one block add over every phase, made in (i, j)
    order.  A kernel that is not a multiple of s gets +0.0 taps, which
    change no bits of a sum begun at +0.0.  One transposing copy crops
    ``padding`` off each side.  A band holds at most ``_COLS_BYTES`` of the
    product, kh*kw values per input pixel and output channel, as in ``conv2d``.
    """
    x = as_tensor(x, "x")
    w = np.asarray(weights, dtype=np.float32)
    _require(w.ndim == 4, "weights", "be 4-D (in, out, kh, kw)", w.shape)
    n, c, h, wd = x.shape
    ic, oc, kh, kw = w.shape
    _require(ic == c, "weights", f"expect the input's {c} channels", w.shape)
    bias = _bias(bias, oc)
    _require(_is_integer(stride, 1) and _is_integer(padding, 0), "stride",
             "be >= 1 and padding >= 0, both integers", {"stride": stride, "padding": padding})
    oh, ow = _fit(h, wd, (kh, kw), stride, padding, transpose=True)

    s, p, a, b = stride, padding, -(-kh // stride), -(-kw // stride)  # a x b offsets per phase
    full = np.zeros((n, h + a - 1, s, wd + b - 1, s, oc), dtype=np.float32)
    xt = x.reshape(n, c, h * wd).transpose(0, 2, 1)
    band = max(1, _COLS_BYTES // (4 * n * a * s * b * s * h * wd))
    for o0 in range(0, oc, band):
        o1 = min(oc, o0 + band)
        prod = np.matmul(xt, w[:, o0:o1].reshape(c, -1)).reshape(n, h, wd, o1 - o0, kh, kw)
        if kh % s or kw % s:
            prod = np.pad(prod, ((0, 0),) * 4 + ((0, a * s - kh), (0, b * s - kw)))
        prod = prod.reshape(n, h, wd, o1 - o0, a, s, b, s).transpose(0, 4, 6, 1, 5, 2, 7, 3)
        for i in range(a):
            for j in range(b):
                full[:, i : i + h, :, j : j + wd, :, o0:o1] += prod[:, i, j]
    full = full.reshape(n, (h + a - 1) * s, (wd + b - 1) * s, oc)[:, p : p + oh, p : p + ow]
    out = np.ascontiguousarray(full.transpose(0, 3, 1, 2))
    if bias is not None:
        out += bias.reshape(1, -1, 1, 1)
    return out


def nearest_upsample2x(x):
    """Replicate every pixel into a 2x2 block."""
    x = as_tensor(x, "x")
    return x.repeat(2, axis=2).repeat(2, axis=3)


def max_pool2d(x, kernel, stride, padding=0):
    """Sliding-window maximum; padded border cells count as -inf."""
    x = as_tensor(x, "x")
    if isinstance(kernel, _INTEGERS):
        kernel = (kernel, kernel)
    _pair("kernel", kernel)
    _integer("stride", stride)
    _integer("padding", padding, 0)
    kh, kw = kernel
    n, c, h, w = x.shape
    oh, ow = _fit(h, w, kernel, stride, padding)
    if padding:
        xp = np.full((n, c, h + 2 * padding, w + 2 * padding), -np.inf, dtype=np.float32)
        xp[:, :, padding : padding + h, padding : padding + w] = x
    else:
        xp = x
    out = np.full((n, c, oh, ow), -np.inf, dtype=np.float32)
    for i in range(kh):
        for j in range(kw):
            patch = xp[:, :, i : i + (oh - 1) * stride + 1 : stride, j : j + (ow - 1) * stride + 1 : stride]
            np.maximum(out, patch, out=out)
    return out


def relu(x):
    return np.maximum(np.asarray(x, dtype=np.float32), np.float32(0))


def sigmoid(x):
    """Numerically stable logistic, clamped to the open interval (0, 1)."""
    x = np.asarray(x, dtype=np.float32)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return np.clip(out, _SIG_LO, _SIG_HI)


def _bilinear_sample(x, ys, xs, zero_outside=False):
    """Bilinear samples of ``x`` at every (row ``ys[i]``, column ``xs[j]``).

    ``ys`` and ``xs`` are float64 source coordinates with pixel centres at
    integers.  A tap beyond the image reads its clamped edge pixel, or zero
    (signed like that pixel) with ``zero_outside``.

    Separable, over the distinct source rows: the rows ``y0`` and ``y0 + 1``
    read are merged into one sorted set, so a row that several samples read
    (every upsampling step reads most rows twice) is fetched and
    column-blended once.  Each column tap is one flat gather from the
    (n, c, h*w) image at ``row * w + column``, with no copy of a row span
    first.  With ``zero_outside``, only the gathered rows and columns that lie
    outside the image are multiplied by zero: the same bits as a full 0/1
    mask, since ``v * 1`` is ``v``, ``v * 0`` keeps the sign of ``v`` and
    ``inf * 0`` is NaN.  Each output row then takes its two blended rows by
    index.  The float32 operations, and their order, per sample are those of
    a 2-D gather per tap followed by ``a*(1-f) + b*f`` on columns, then rows.
    """
    n, c, h, w = x.shape
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    fy = (ys - y0).astype(np.float32)[:, None]
    fx = (xs - x0).astype(np.float32)
    m = y0.size
    rows, at = np.unique(np.concatenate([y0, y0 + 1]), return_inverse=True)
    flat = x.reshape(n, c, h * w)
    starts = (np.clip(rows, 0, h - 1) * w)[:, None]
    taps = []
    for xi in (x0, x0 + 1):
        tap = np.take(flat, starts + np.clip(xi, 0, w - 1), axis=2)
        if zero_outside:
            tap[:, :, (rows < 0) | (rows >= h)] *= 0
            tap[..., (xi < 0) | (xi >= w)] *= 0
        taps.append(tap)
    # in place, but the same float32 operations as a*(1-f) + b*f
    left, right = taps
    left *= 1 - fx
    right *= fx
    left += right
    top = np.take(left, at[:m], axis=2)
    bot = np.take(left, at[m:], axis=2)
    top *= 1 - fy
    bot *= fy
    top += bot
    return top


def bilinear_resize(x, out_h, out_w):
    """Bilinear resample with half-pixel-center alignment and edge clamping."""
    x = as_tensor(x, "x")
    n, c, h, w = x.shape
    _integer("out_h", out_h)
    _integer("out_w", out_w)
    # sample coordinates in float64: float32 coordinate rounding would shift
    # samples by ~1e-5 px, visibly perturbing values at these image sizes
    ys = (np.arange(out_h, dtype=np.float64) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w, dtype=np.float64) + 0.5) * (w / out_w) - 0.5
    return _bilinear_sample(x, ys, xs)


def resize_longer_side(image, target):
    """Resize so the longer spatial side equals ``target``, keeping aspect ratio.

    The shorter side is rounded half-up and floored at 1 pixel.
    """
    image = as_tensor(image, "image")
    _integer("target", target)
    n, c, h, w = image.shape
    if h >= w:
        oh = target
        ow = max(1, int(np.floor(w * target / h + 0.5)))
    else:
        ow = target
        oh = max(1, int(np.floor(h * target / w + 0.5)))
    return bilinear_resize(image, oh, ow)


def zero_pad_to(image, h, w):
    """Zero-pad on the bottom/right so the content sits at the top-left.

    Raises ``ValueError`` for an ``h`` or ``w`` that is not an integer >= 1
    or is smaller than the image."""
    image = as_tensor(image, "image")
    _integer("h", h)
    _integer("w", w)
    _, _, ih, iw = image.shape
    _require(h >= ih and w >= iw, "h and w", f"be >= the {ih}x{iw} image to pad it", (h, w))
    if h == ih and w == iw:
        return image
    return np.pad(image, ((0, 0), (0, 0), (0, h - ih), (0, w - iw)))
