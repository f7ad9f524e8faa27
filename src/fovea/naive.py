"""Loop-level reference implementations of the numeric kernels.

These are deliberately written as plain nested loops with float64
accumulation and no vectorization, so they share no code path with
``fovea.kernels``.  They exist to anchor correctness tests; do not use
them at real sizes.
"""

import numpy as np


def conv2d_naive(x, weights, bias, stride, padding):
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    n, c, h, wd = x.shape
    oc, icg, kh, kw = w.shape
    groups = c // icg
    ocg = oc // groups
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((n, oc, oh, ow), dtype=np.float64)
    for b in range(n):
        for o in range(oc):
            g = o // ocg
            for oy in range(oh):
                for ox in range(ow):
                    acc = 0.0
                    for ci in range(icg):
                        cin = g * icg + ci
                        for i in range(kh):
                            iy = oy * stride + i - padding
                            if iy < 0 or iy >= h:
                                continue
                            for j in range(kw):
                                ix = ox * stride + j - padding
                                if ix < 0 or ix >= wd:
                                    continue
                                acc += x[b, cin, iy, ix] * w[o, ci, i, j]
                    if bias is not None:
                        acc += float(bias[o])
                    out[b, o, oy, ox] = acc
    return out


def transpose_conv2d_naive(x, weights, bias, stride, padding):
    """Scatter form: every input pixel stamps a weighted kernel into the output."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    n, c, h, wd = x.shape
    ic, oc, kh, kw = w.shape
    oh = (h - 1) * stride - 2 * padding + kh
    ow = (wd - 1) * stride - 2 * padding + kw
    out = np.zeros((n, oc, oh, ow), dtype=np.float64)
    for b in range(n):
        for ci in range(ic):
            for iy in range(h):
                for ix in range(wd):
                    v = x[b, ci, iy, ix]
                    for o in range(oc):
                        for i in range(kh):
                            oy = iy * stride + i - padding
                            if oy < 0 or oy >= oh:
                                continue
                            for j in range(kw):
                                ox = ix * stride + j - padding
                                if ox < 0 or ox >= ow:
                                    continue
                                out[b, o, oy, ox] += v * w[ci, o, i, j]
    if bias is not None:
        for o in range(oc):
            out[:, o] += float(bias[o])
    return out


def max_pool2d_naive(x, kernel, stride, padding=0):
    x = np.asarray(x, dtype=np.float64)
    if isinstance(kernel, int):
        kernel = (kernel, kernel)
    kh, kw = kernel
    n, c, h, wd = x.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((n, c, oh, ow), dtype=np.float64)
    for b in range(n):
        for ch in range(c):
            for oy in range(oh):
                for ox in range(ow):
                    best = -np.inf
                    for i in range(kh):
                        iy = oy * stride + i - padding
                        if iy < 0 or iy >= h:
                            continue
                        for j in range(kw):
                            ix = ox * stride + j - padding
                            if ix < 0 or ix >= wd:
                                continue
                            if x[b, ch, iy, ix] > best:
                                best = x[b, ch, iy, ix]
                    out[b, ch, oy, ox] = best
    return out


def bilinear_resize_naive(x, out_h, out_w):
    """Per-pixel bilinear sampling, half-pixel centers, edge clamp."""
    x = np.asarray(x, dtype=np.float64)
    n, c, h, w = x.shape
    out = np.zeros((n, c, out_h, out_w), dtype=np.float64)
    for oy in range(out_h):
        sy = (oy + 0.5) * h / out_h - 0.5
        y0 = int(np.floor(sy))
        fy = sy - y0
        y0c = min(max(y0, 0), h - 1)
        y1c = min(max(y0 + 1, 0), h - 1)
        for ox in range(out_w):
            sx = (ox + 0.5) * w / out_w - 0.5
            x0 = int(np.floor(sx))
            fx = sx - x0
            x0c = min(max(x0, 0), w - 1)
            x1c = min(max(x0 + 1, 0), w - 1)
            for b in range(n):
                for ch in range(c):
                    top = x[b, ch, y0c, x0c] * (1 - fx) + x[b, ch, y0c, x1c] * fx
                    bot = x[b, ch, y1c, x0c] * (1 - fx) + x[b, ch, y1c, x1c] * fx
                    out[b, ch, oy, ox] = top * (1 - fy) + bot * fy
    return out


def bilinear_sample_naive(image, sample_y, sample_x):
    """Sample scattered (y, x) float coordinates; anything off-canvas reads zero."""
    image = np.asarray(image, dtype=np.float64)
    n, c, h, w = image.shape
    sy = np.asarray(sample_y, dtype=np.float64)
    sx = np.asarray(sample_x, dtype=np.float64)
    out = np.zeros((n, c) + sy.shape, dtype=np.float64)
    it = np.ndindex(sy.shape)
    for idx in it:
        y, x = sy[idx], sx[idx]
        y0 = int(np.floor(y))
        x0 = int(np.floor(x))
        fy, fx = y - y0, x - x0
        for b in range(n):
            for ch in range(c):
                acc = 0.0
                for dy, wy in ((0, 1 - fy), (1, fy)):
                    yy = y0 + dy
                    if yy < 0 or yy >= h or wy == 0.0:
                        continue
                    for dx, wx in ((0, 1 - fx), (1, fx)):
                        xx = x0 + dx
                        if xx < 0 or xx >= w or wx == 0.0:
                            continue
                        acc += image[b, ch, yy, xx] * wy * wx
                out[(b, ch) + idx] = acc
    return out
