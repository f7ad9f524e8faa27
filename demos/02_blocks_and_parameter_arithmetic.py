"""Residual block vs fire module: same job, very different parameter bills.

The fire module squeezes to half the output width with a 1x1 conv, then
expands through parallel 1x1 and depthwise-3x3 branches. At 256 channels
that is a ~23x weight reduction over the two-3x3-conv residual block.

Each block is built as a one-block graph with ``Emit``, the same emitter
the backbone builders use; ``cost_report`` counts its weights and
``forward`` runs it.

Run:  python demos/02_blocks_and_parameter_arithmetic.py
"""

import numpy as np

from fovea import ArchGraph, Emit, cost_report, forward, init_weights


def one_block(input_dims, emit, seed=0):
    """A weighted graph holding the block ``emit(Emit(g))`` adds."""
    g = ArchGraph(input_dims)
    out = emit(Emit(g))
    if out is not None:  # the head emitters tap their own outputs
        g.tap("out", out)
    g.shapes()
    init_weights(g, seed=seed)
    return g


rng = np.random.default_rng(1)

print(f"{'k':>4} {'k_out':>6} {'residual w':>12} {'fire w':>10} {'ratio':>7}")
for k, kp in [(64, 64), (128, 128), (256, 256), (256, 512)]:
    dims = (1, k, 16, 16)
    res = cost_report(one_block(dims, lambda e: e.residual("res", "input", k, kp))).weights
    fire = cost_report(one_block(dims, lambda e: e.fire("fire", "input", k, kp))).weights
    print(f"{k:>4} {kp:>6} {res:>12,} {fire:>10,} {res / fire:>6.1f}x")

x = rng.normal(size=(1, 256, 16, 16)).astype(np.float32)
res = one_block(x.shape, lambda e: e.residual("res", "input", 256, 256))
fire = one_block(x.shape, lambda e: e.fire("fire", "input", 256, 256))
print("\nboth blocks map 1x256x16x16 ->", forward(res, x)["out"].shape,
      "and", forward(fire, x)["out"].shape)

# Stride-2 versions downsample; the residual picks up a 1x1 projection
# shortcut, the fire module strides its expand branches.
res2 = one_block(x.shape, lambda e: e.residual("res", "input", 256, 384, stride=2))
fire2 = one_block(x.shape, lambda e: e.fire("fire", "input", 256, 384, stride=2))
print("stride 2:", forward(res2, x)["out"].shape, forward(fire2, x)["out"].shape)

# The attention head turns any feature map into a single-channel score map
# in (0, 1); the corner heads emit per-class heatmaps plus embedding and
# offset maps for each corner kind (tl, br).
feat = rng.normal(size=(1, 256, 16, 16)).astype(np.float32)
attn = forward(one_block(feat.shape, lambda e: e.attention_heads({"small": ("input", 256)})),
               feat)["attn_small"]
print("\nattention map", attn.shape, "range", (float(attn.min()), float(attn.max())))

heads = one_block(feat.shape, lambda e: e.corner_heads("input", 256, 3, lead_kernel=3))
taps = forward(heads, feat)
print("corner head ->", taps["tl_heat"].shape, taps["tl_embed"].shape, taps["tl_off"].shape)

heads1x1 = one_block(feat.shape, lambda e: e.corner_heads("input", 256, 3, lead_kernel=1))
print("3x3-lead head weights:", f"{cost_report(heads).weights // 2:,}",
      "| 1x1-lead head weights:", f"{cost_report(heads1x1).weights // 2:,}", "(per corner kind)")
