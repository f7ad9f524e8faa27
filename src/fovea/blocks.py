"""Composite network blocks: residual, fire, attention head, corner head.

Each block is a pure function of an input tensor and a parameter bundle.
Parameter bundles own raw weight arrays so counts can be audited by
enumeration.  Convention: standard and 1x1 convolutions carry biases,
depthwise branches do not.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .kernels import ConvSpec, conv2d, depthwise_conv2d, relu, sigmoid


def _conv_w(rng, out_c, in_c, kh, kw):
    std = 1.0 / np.sqrt(in_c * kh * kw)
    return rng.normal(0.0, std, size=(out_c, in_c, kh, kw)).astype(np.float32)


@dataclass
class ResidualParams:
    """Two 3x3 convs (ReLU between, ReLU after the merge) plus a shortcut.

    The shortcut is identity when shapes allow, otherwise a stride-matched
    1x1 projection.  Stride applies to the first conv and the projection.
    """

    in_channels: int
    out_channels: int
    stride: int = 1
    conv1_w: np.ndarray = None
    conv1_b: np.ndarray = None
    conv2_w: np.ndarray = None
    conv2_b: np.ndarray = None
    proj_w: Optional[np.ndarray] = None
    proj_b: Optional[np.ndarray] = None

    @property
    def has_projection(self):
        return self.in_channels != self.out_channels or self.stride != 1

    @classmethod
    def create(cls, in_channels, out_channels, stride=1, rng=None):
        rng = rng or np.random.default_rng(0)
        p = cls(in_channels, out_channels, stride)
        p.conv1_w = _conv_w(rng, out_channels, in_channels, 3, 3)
        p.conv1_b = np.zeros(out_channels, np.float32)
        p.conv2_w = _conv_w(rng, out_channels, out_channels, 3, 3)
        p.conv2_b = np.zeros(out_channels, np.float32)
        if p.has_projection:
            p.proj_w = _conv_w(rng, out_channels, in_channels, 1, 1)
            p.proj_b = np.zeros(out_channels, np.float32)
        return p

    @classmethod
    def zeros(cls, in_channels, out_channels, stride=1):
        p = cls.create(in_channels, out_channels, stride)
        for name in ("conv1_w", "conv2_w", "proj_w"):
            arr = getattr(p, name)
            if arr is not None:
                arr[:] = 0
        return p

    def weight_count(self):
        n = self.conv1_w.size + self.conv2_w.size
        if self.proj_w is not None:
            n += self.proj_w.size
        return n


def residual_block(x, params):
    """out = ReLU(conv2(ReLU(conv1(x))) + shortcut(x))"""
    k, kp, s = params.in_channels, params.out_channels, params.stride
    y = conv2d(x, params.conv1_w, params.conv1_b, ConvSpec(k, kp, (3, 3), stride=s, padding=1))
    y = relu(y)
    y = conv2d(y, params.conv2_w, params.conv2_b, ConvSpec(kp, kp, (3, 3), padding=1))
    if params.has_projection:
        shortcut = conv2d(x, params.proj_w, params.proj_b, ConvSpec(k, kp, (1, 1), stride=s))
    else:
        shortcut = x
    return relu(y + shortcut)


@dataclass
class FireParams:
    """Squeeze 1x1 to out/2 channels, then parallel 1x1 + 3x3-depthwise
    expand branches (out/2 each) concatenated and ReLU'd.

    No shortcut.  Stride, when used for downsampling, applies to both
    expand branches; the squeeze stays at full resolution.
    """

    in_channels: int
    out_channels: int
    stride: int = 1
    squeeze_w: np.ndarray = None
    squeeze_b: np.ndarray = None
    expand1_w: np.ndarray = None
    expand1_b: np.ndarray = None
    dw_w: np.ndarray = None

    def __post_init__(self):
        if self.out_channels % 2:
            raise ValueError(f"fire module needs even out_channels, got {self.out_channels}")

    @property
    def squeeze_channels(self):
        return self.out_channels // 2

    @classmethod
    def create(cls, in_channels, out_channels, stride=1, rng=None):
        rng = rng or np.random.default_rng(0)
        p = cls(in_channels, out_channels, stride)
        sq = p.squeeze_channels
        p.squeeze_w = _conv_w(rng, sq, in_channels, 1, 1)
        p.squeeze_b = np.zeros(sq, np.float32)
        p.expand1_w = _conv_w(rng, sq, sq, 1, 1)
        p.expand1_b = np.zeros(sq, np.float32)
        p.dw_w = _conv_w(rng, sq, 1, 3, 3)
        return p

    @classmethod
    def zeros(cls, in_channels, out_channels, stride=1):
        p = cls.create(in_channels, out_channels, stride)
        p.squeeze_w[:] = 0
        p.expand1_w[:] = 0
        p.dw_w[:] = 0
        return p

    def weight_count(self):
        return self.squeeze_w.size + self.expand1_w.size + self.dw_w.size


def fire_module(x, params):
    k, kp, s = params.in_channels, params.out_channels, params.stride
    sq = params.squeeze_channels
    squeezed = conv2d(x, params.squeeze_w, params.squeeze_b, ConvSpec(k, sq, (1, 1)))
    branch1 = conv2d(squeezed, params.expand1_w, params.expand1_b, ConvSpec(sq, sq, (1, 1), stride=s))
    branch3 = depthwise_conv2d(squeezed, params.dw_w, ConvSpec(sq, sq, (3, 3), stride=s, padding=1, groups=sq))
    return relu(np.concatenate([branch1, branch3], axis=1))


@dataclass
class AttentionHeadParams:
    """3x3 conv + ReLU, then 1x1 conv + sigmoid down to a single channel."""

    in_channels: int
    mid_channels: int = 256
    conv1_w: np.ndarray = None
    conv1_b: np.ndarray = None
    conv2_w: np.ndarray = None
    conv2_b: np.ndarray = None

    @classmethod
    def create(cls, in_channels, mid_channels=256, rng=None):
        rng = rng or np.random.default_rng(0)
        p = cls(in_channels, mid_channels)
        p.conv1_w = _conv_w(rng, mid_channels, in_channels, 3, 3)
        p.conv1_b = np.zeros(mid_channels, np.float32)
        p.conv2_w = _conv_w(rng, 1, mid_channels, 1, 1)
        p.conv2_b = np.zeros(1, np.float32)
        return p

    @classmethod
    def zeros(cls, in_channels, mid_channels=256):
        p = cls.create(in_channels, mid_channels)
        p.conv1_w[:] = 0
        p.conv2_w[:] = 0
        return p

    def weight_count(self):
        return self.conv1_w.size + self.conv2_w.size


def attention_head(feature, params):
    """Score map in (0, 1) at the feature map's spatial resolution."""
    k, m = params.in_channels, params.mid_channels
    y = relu(conv2d(feature, params.conv1_w, params.conv1_b, ConvSpec(k, m, (3, 3), padding=1)))
    y = conv2d(y, params.conv2_w, params.conv2_b, ConvSpec(m, 1, (1, 1)))
    return sigmoid(y)


@dataclass
class CornerHeadParams:
    """Lead conv (3x3 or 1x1) + ReLU, then 1x1 projections to heatmaps,
    embeddings and offsets."""

    in_channels: int
    num_classes: int
    lead_kernel: int = 3
    mid_channels: int = 256
    lead_w: np.ndarray = None
    lead_b: np.ndarray = None
    heat_w: np.ndarray = None
    heat_b: np.ndarray = None
    embed_w: np.ndarray = None
    embed_b: np.ndarray = None
    off_w: np.ndarray = None
    off_b: np.ndarray = None

    @classmethod
    def create(cls, in_channels, num_classes, lead_kernel=3, mid_channels=256, rng=None):
        if num_classes < 1:
            raise ValueError(f"num_classes must be >= 1, got {num_classes}")
        rng = rng or np.random.default_rng(0)
        p = cls(in_channels, num_classes, lead_kernel, mid_channels)
        p.lead_w = _conv_w(rng, mid_channels, in_channels, lead_kernel, lead_kernel)
        p.lead_b = np.zeros(mid_channels, np.float32)
        p.heat_w = _conv_w(rng, num_classes, mid_channels, 1, 1)
        p.heat_b = np.zeros(num_classes, np.float32)
        p.embed_w = _conv_w(rng, 1, mid_channels, 1, 1)
        p.embed_b = np.zeros(1, np.float32)
        p.off_w = _conv_w(rng, 2, mid_channels, 1, 1)
        p.off_b = np.zeros(2, np.float32)
        return p

    @classmethod
    def zeros(cls, in_channels, num_classes, lead_kernel=3, mid_channels=256):
        p = cls.create(in_channels, num_classes, lead_kernel, mid_channels)
        for name in ("lead_w", "heat_w", "embed_w", "off_w"):
            getattr(p, name)[:] = 0
        return p

    def weight_count(self):
        return self.lead_w.size + self.heat_w.size + self.embed_w.size + self.off_w.size


def corner_head(feature, params):
    """Returns (heatmaps C-channel in (0,1), embeddings 1-channel, offsets 2-channel)."""
    k, m, lk = params.in_channels, params.mid_channels, params.lead_kernel
    y = relu(conv2d(feature, params.lead_w, params.lead_b,
                    ConvSpec(k, m, (lk, lk), padding=(lk - 1) // 2)))
    heat = sigmoid(conv2d(y, params.heat_w, params.heat_b, ConvSpec(m, params.num_classes, (1, 1))))
    embed = conv2d(y, params.embed_w, params.embed_b, ConvSpec(m, 1, (1, 1)))
    off = conv2d(y, params.off_w, params.off_b, ConvSpec(m, 2, (1, 1)))
    return heat, embed, off
