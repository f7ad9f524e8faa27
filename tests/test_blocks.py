"""Each block ``builders.Emit`` emits, run as a one-block graph through
``forward`` and compared with a composition of the ``fovea.naive`` kernels."""

import numpy as np
import pytest

from fovea import naive
from fovea.analysis import cost_report, param_enumeration
from fovea.builders import Emit
from fovea.graph import ArchGraph, forward, init_weights

RTOL = 1e-5


def rand(shape, seed=0, scale=1.0):
    return (np.random.default_rng(seed).normal(size=shape) * scale).astype(np.float32)


def block_graph(input_dims, emit):
    """A graph holding one block; ``emit(e)`` returns its output id, or
    ``None`` for the head emitters, which tap their own outputs."""
    g = ArchGraph(input_dims)
    out = emit(Emit(g))
    if out is not None:
        g.tap("out", out)
    g.shapes()
    return g


def weighted(g, seed=0, zeros=False):
    """Seeded weights, with random rather than zero biases unless ``zeros``."""
    params = init_weights(g, seed=seed, zeros=zeros)
    rng = np.random.default_rng(seed + 1000)
    for tensors in params.values():
        if "b" in tensors and not zeros:
            tensors["b"] = rng.normal(size=tensors["b"].shape).astype(np.float32)
    return params


def run_block(input_dims, emit, x, seed=0, zeros=False):
    g = block_graph(input_dims, emit)
    params = weighted(g, seed, zeros)
    return forward(g, x), params


def sigmoid(v):
    return 1.0 / (1.0 + np.exp(-v))


# ---- residual ------------------------------------------------------------------


def _residual_oracle(x, p, name, stride):
    y = naive.conv2d_naive(x, p[f"{name}.conv1"]["w"], p[f"{name}.conv1"]["b"], stride, 1)
    y = np.maximum(y, 0.0)
    y = naive.conv2d_naive(y, p[f"{name}.conv2"]["w"], p[f"{name}.conv2"]["b"], 1, 1)
    if f"{name}.proj" in p:
        shortcut = naive.conv2d_naive(x, p[f"{name}.proj"]["w"], p[f"{name}.proj"]["b"], stride, 0)
    else:
        shortcut = np.asarray(x, np.float64)
    return np.maximum(y + shortcut, 0.0)


def test_residual_zero_main_path_is_identity_on_nonnegative_input():
    x = np.abs(rand((1, 4, 6, 6), seed=1))
    out, params = run_block(x.shape, lambda e: e.residual("blk", "input", 4, 4), x, zeros=True)
    assert "blk.proj" not in params
    assert np.array_equal(out["out"], x)


def test_residual_zero_weights_with_projection_gives_zero():
    x = rand((1, 4, 6, 6), seed=2)
    out, params = run_block(x.shape, lambda e: e.residual("blk", "input", 4, 6), x, zeros=True)
    assert "blk.proj" in params
    assert np.all(out["out"] == 0)


def test_residual_output_shapes():
    x = rand((2, 4, 8, 8), seed=3)
    for stride, hw in [(1, (8, 8)), (2, (4, 4))]:
        out, _ = run_block(x.shape, lambda e: e.residual("blk", "input", 4, 6, stride=stride),
                           x, seed=4 + stride)
        assert out["out"].shape == (2, 6) + hw


def test_residual_matches_composed_oracle():
    # identity shortcut, 1x1 projection at stride 1, and projections at stride 2
    x = rand((1, 4, 6, 6), seed=6)
    for out_c, stride, seed in [(4, 1, 7), (6, 1, 8), (4, 2, 9), (6, 2, 10)]:
        out, p = run_block(x.shape, lambda e: e.residual("blk", "input", 4, out_c, stride=stride),
                           x, seed=seed)
        assert ("blk.proj" in p) == (out_c != 4 or stride != 1)
        np.testing.assert_allclose(out["out"], _residual_oracle(x, p, "blk", stride),
                                   rtol=RTOL, atol=1e-6)


# ---- fire ----------------------------------------------------------------------


def _fire_oracle(x, p, name, stride):
    s = naive.conv2d_naive(x, p[f"{name}.squeeze"]["w"], p[f"{name}.squeeze"]["b"], 1, 0)
    b1 = naive.conv2d_naive(s, p[f"{name}.expand1x1"]["w"], p[f"{name}.expand1x1"]["b"], stride, 0)
    b3 = naive.conv2d_naive(s, p[f"{name}.expand3x3"]["w"], None, stride, 1)
    return np.maximum(np.concatenate([b1, b3], axis=1), 0.0)


def test_fire_shapes_and_squeeze_width():
    for k, kp in [(64, 64), (64, 128), (128, 256), (256, 256)]:
        x = rand((1, k, 6, 6), seed=k)
        g = block_graph(x.shape, lambda e: e.fire("f", "input", k, kp))
        assert g.shapes()["f.squeeze"] == (1, kp // 2, 6, 6)
        params = weighted(g, seed=k + kp)
        assert params["f.squeeze"]["w"].shape == (kp // 2, k, 1, 1)
        assert forward(g, x)["out"].shape == (1, kp, 6, 6)


def test_fire_rejects_odd_output_channels():
    with pytest.raises(ValueError, match="fire module 'f' needs even out_channels, got 5"):
        Emit(ArchGraph((1, 4, 6, 6))).fire("f", "input", 4, 5)


def test_fire_and_residual_weight_counts_at_256():
    fire = block_graph((1, 256, 8, 8), lambda e: e.fire("f", "input", 256, 256))
    res = block_graph((1, 256, 8, 8), lambda e: e.residual("r", "input", 256, 256))
    # closed-form sums, cross-checked against the allocated arrays
    assert cost_report(fire).weights == 256 * 128 + 128 * 128 + 9 * 128 == 50304
    assert cost_report(res).weights == 2 * 9 * 256 * 256 == 1179648
    for g, want in [(fire, 50304), (res, 1179648)]:
        weighted(g)
        assert param_enumeration(g)[0] == want


def test_fire_zero_weights_zero_output():
    x = rand((1, 8, 5, 5), seed=10)
    out, _ = run_block(x.shape, lambda e: e.fire("f", "input", 8, 8), x, zeros=True)
    assert np.all(out["out"] == 0)


def test_fire_matches_composed_oracle():
    x = rand((1, 4, 6, 6), seed=11)
    for kp, stride, seed in [(4, 1, 12), (8, 1, 13), (8, 2, 14)]:
        out, p = run_block(x.shape, lambda e: e.fire("f", "input", 4, kp, stride=stride),
                           x, seed=seed)
        np.testing.assert_allclose(out["out"], _fire_oracle(x, p, "f", stride),
                                   rtol=RTOL, atol=1e-6)


def test_fire_cheaper_than_residual_across_grid():
    for k in (4, 8, 16, 64, 128, 256):
        for kp in (4, 8, 16, 64, 128, 256):
            fire = block_graph((1, k, 4, 4), lambda e: e.fire("f", "input", k, kp))
            res = block_graph((1, k, 4, 4), lambda e: e.residual("r", "input", k, kp))
            assert cost_report(fire).weights < cost_report(res).weights, (k, kp)


# ---- attention head ------------------------------------------------------------


def _attention(c, mid):
    return lambda e: e.attention_heads({"small": ("input", c)}, mid=mid)


def test_attention_head_zero_weights_gives_half():
    out, _ = run_block((1, 8, 5, 5), _attention(8, 16), rand((1, 8, 5, 5), seed=15), zeros=True)
    assert out["attn_small"].shape == (1, 1, 5, 5)
    assert np.all(out["attn_small"] == 0.5)


def test_attention_head_spatial_dims_follow_feature():
    for hw in [(5, 5), (12, 7)]:
        out, _ = run_block((1, 8) + hw, _attention(8, 16), rand((1, 8) + hw, seed=17), seed=16)
        assert out["attn_small"].shape == (1, 1) + hw


def test_attention_head_matches_composed_oracle():
    x = rand((1, 4, 6, 6), seed=18)
    out, p = run_block(x.shape, _attention(4, 8), x, seed=19)
    y1 = naive.conv2d_naive(x, p["attn.small.conv1"]["w"], p["attn.small.conv1"]["b"], 1, 1)
    y1 = np.maximum(y1, 0.0)
    y2 = naive.conv2d_naive(y1, p["attn.small.score"]["w"], p["attn.small.score"]["b"], 1, 0)
    np.testing.assert_allclose(out["attn_small"], sigmoid(y2), rtol=RTOL, atol=1e-6)


def test_attention_head_stays_in_open_interval_for_extreme_inputs():
    x = rand((1, 4, 6, 6), seed=21, scale=1e3)
    y = run_block(x.shape, _attention(4, 8), x, seed=20)[0]["attn_small"]
    assert np.all((y > 0) & (y < 1)) and np.all(np.isfinite(y))


# ---- corner head ---------------------------------------------------------------


def _corner(c, classes, lead_kernel=3, mid=16):
    return lambda e: e.corner_heads("input", c, classes, lead_kernel, mid=mid)


def test_corner_head_zero_weights():
    out, _ = run_block((1, 8, 5, 5), _corner(8, 2), rand((1, 8, 5, 5), seed=22), zeros=True)
    for kind in ("tl", "br"):
        assert np.all(out[f"{kind}_heat"] == 0.5)
        assert np.all(out[f"{kind}_embed"] == 0) and np.all(out[f"{kind}_off"] == 0)


def test_corner_head_output_shapes():
    x = rand((1, 256, 64, 64), seed=24, scale=0.1)
    out, _ = run_block(x.shape, _corner(256, 3, mid=256), x, seed=23)
    for kind in ("tl", "br"):
        assert out[f"{kind}_heat"].shape == (1, 3, 64, 64)
        assert out[f"{kind}_embed"].shape == (1, 1, 64, 64)
        assert out[f"{kind}_off"].shape == (1, 2, 64, 64)
        assert np.all((out[f"{kind}_heat"] > 0) & (out[f"{kind}_heat"] < 1))


def test_corner_head_lead_kernel_one():
    x = rand((1, 8, 6, 6), seed=26)
    out, p = run_block(x.shape, _corner(8, 2, lead_kernel=1), x, seed=25)
    assert p["heads.tl.lead"]["w"].shape == (16, 8, 1, 1)
    assert out["tl_heat"].shape == (1, 2, 6, 6)


@pytest.mark.parametrize("lead_kernel", [3, 1])
def test_corner_head_matches_composed_oracle(lead_kernel):
    x = rand((1, 4, 6, 6), seed=28)
    out, p = run_block(x.shape, _corner(4, 3, lead_kernel, mid=8), x, seed=29 + lead_kernel)
    for kind in ("tl", "br"):
        w = {name: p[f"heads.{kind}.{name}"] for name in ("lead", "heat", "embed", "off")}
        y = naive.conv2d_naive(x, w["lead"]["w"], w["lead"]["b"], 1, (lead_kernel - 1) // 2)
        y = np.maximum(y, 0.0)
        want = {"heat": sigmoid(naive.conv2d_naive(y, w["heat"]["w"], w["heat"]["b"], 1, 0)),
                "embed": naive.conv2d_naive(y, w["embed"]["w"], w["embed"]["b"], 1, 0),
                "off": naive.conv2d_naive(y, w["off"]["w"], w["off"]["b"], 1, 0)}
        for name, arr in want.items():
            np.testing.assert_allclose(out[f"{kind}_{name}"], arr, rtol=RTOL, atol=1e-6,
                                       err_msg=f"{kind}_{name}")


def test_corner_head_rejects_zero_classes():
    with pytest.raises(ValueError, match="'heads.tl.heat'.*channels must be >= 1, got 16 and 0"):
        block_graph((1, 8, 5, 5), _corner(8, 0))


def test_blocks_preserve_batch_dimension():
    x = rand((3, 4, 5, 5), seed=27)
    for emit, tap in [(lambda e: e.residual("r", "input", 4, 4), "out"),
                      (lambda e: e.fire("f", "input", 4, 8), "out"),
                      (_attention(4, 8), "attn_small"),
                      (_corner(4, 2, mid=8), "tl_heat")]:
        assert run_block(x.shape, emit, x, seed=1)[0][tap].shape[0] == 3
