"""Misuse of the public API fails fast, with a ValueError that names the argument.

One row per (entry point, argument, bad value).  Without its check, each
call below returns a result, fails with a bare numpy or Python error, or
raises a message that does not name the argument.
"""

import numpy as np
import pytest

from fovea import (Affine, CropWindow, Detection, bilinear_resize, crop_pixels,
                   heatmap_peaks, max_pool2d, resize_longer_side, soft_nms)

NAN = float("nan")
IMAGE = np.ones((1, 3, 8, 8), np.float32)
HEAT = np.zeros((1, 3, 8, 8), np.float32)
DETS = [Detection(0, 0.9, (0.0, 0.0, 10.0, 10.0)), Detection(0, 0.8, (5.0, 0.0, 15.0, 10.0))]


def _window(size=4, scale=1.0):
    return CropWindow(zoom=1.0, x0=0, y0=0, size=size, to_original=Affine(scale, 1.0, 0.0, 0.0))


MISUSE = [
    # entry point, argument, bad value, call, message fragment
    ("bilinear_resize", "out_h", 2.5, lambda v: bilinear_resize(IMAGE, v, 3), "out_h must be"),
    ("bilinear_resize", "out_h", NAN, lambda v: bilinear_resize(IMAGE, v, 3), "out_h must be"),
    ("bilinear_resize", "out_w", 0, lambda v: bilinear_resize(IMAGE, 3, v), "out_w must be"),
    ("resize_longer_side", "target", 2.5, lambda v: resize_longer_side(IMAGE, v), "target must be"),
    ("resize_longer_side", "target", NAN, lambda v: resize_longer_side(IMAGE, v), "target must be"),
    ("crop_pixels", "window.size", 0, lambda v: crop_pixels(IMAGE, _window(size=v)),
     "window size must be"),
    ("crop_pixels", "window.to_original", NAN, lambda v: crop_pixels(IMAGE, _window(scale=v)),
     "window to_original must be finite"),
    ("max_pool2d", "kernel", 0, lambda v: max_pool2d(IMAGE, v, 1), "kernel must be"),
    ("max_pool2d", "stride", 0, lambda v: max_pool2d(IMAGE, 3, v), "stride must be"),
    ("max_pool2d", "padding", -1, lambda v: max_pool2d(IMAGE, 3, 1, v), "padding must be"),
    ("heatmap_peaks", "k", 2.5, lambda v: heatmap_peaks(HEAT, v), "k must be an integer"),
    ("heatmap_peaks", "heatmaps", NAN, lambda v: heatmap_peaks(np.full_like(HEAT, v), 10),
     "heatmaps hold non-finite"),
    ("soft_nms", "score_floor", NAN, lambda v: soft_nms(DETS, score_floor=v), "score_floor"),
    ("soft_nms", "linear_threshold", NAN,
     lambda v: soft_nms(DETS, method="linear", linear_threshold=v), "linear_threshold"),
]


@pytest.mark.parametrize("entry,argument,bad,call,fragment", MISUSE,
                         ids=[f"{e}-{a}-{b}" for e, a, b, *_ in MISUSE])
def test_misuse_raises_value_error_naming_the_argument(entry, argument, bad, call, fragment):
    with pytest.raises(ValueError, match=fragment):
        call(bad)
