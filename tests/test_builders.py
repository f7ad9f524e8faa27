import hashlib
import json

import numpy as np
import pytest

from fovea.builders import (BUILDERS, build_hourglass54, build_hourglass104_reference,
                            build_single_module, build_squeeze_hourglass)
from fovea.graph import forward, init_weights
from fovea.analysis import structure_census


def test_hourglass54_module_structure():
    g = build_hourglass54(num_classes=3)
    c = structure_census(g)
    assert c["n_modules"] == 3
    assert c["stem"] == {"n_downsamples": 2, "n_blocks": 2, "block_kinds": ["conv", "residual"]}
    for stage in c["module_stages"]:
        m = c["modules"][stage]
        assert m["n_downsamples"] == 3
        assert m["down_channels"] == [384, 384, 512]
        assert all(v == 1 for v in m["blocks_per_down"].values())
        assert all(v == 1 for v in m["blocks_per_skip"].values())
        assert all(v == 1 for v in m["blocks_per_up"].values())
        assert len(m["blocks_per_skip"]) == 3
        assert m["n_middle_blocks"] == 1 and m["middle_channels"] == 512
        assert m["block_kind_counts"] == {"residual": 10}
        assert all(op["kind"] == "upsample2x" for op in m["upsample_ops"])
        # encoder/decoder symmetry
        assert len(m["upsample_ops"]) == m["n_downsamples"]
    assert c["attention"]["n_heads"] == 3
    assert c["heads"]["lead_kernels"] == [(3, 3)]


def test_hourglass54_shapes():
    g = build_hourglass54(num_classes=3)
    shapes = g.shapes()
    assert shapes["stem.res1.out"] == (1, 256, 64, 64)
    assert shapes["module1.middle.1.out"] == (1, 512, 8, 8)
    assert shapes[g.taps["attn_small"]] == (1, 1, 64, 64)
    assert shapes[g.taps["attn_medium"]] == (1, 1, 32, 32)
    assert shapes[g.taps["attn_large"]] == (1, 1, 16, 16)
    assert shapes[g.taps["tl_heat"]] == (1, 3, 64, 64)
    assert shapes[g.taps["br_off"]] == (1, 2, 64, 64)


def test_hourglass54_mirror_and_skip_joins():
    g = build_hourglass54(num_classes=3)
    shapes = g.shapes()
    for m in ("module1", "module2", "module3"):
        downs = [shapes[f"{m}.down{i}.1.out"][2] for i in (1, 2, 3)]
        ups = [shapes[f"{m}.up{i}.merge"][2] for i in (3, 2, 1)]
        assert downs == [32, 16, 8]
        assert ups == [16, 32, 64]
        for node in g.nodes:  # every add joins identical dims (validated),
            if node.id == f"{m}.up1.merge":  # finest merge lands at base res
                ins = [shapes[i] for i in node.inputs]
                assert ins[0] == ins[1] == (1, 256, 64, 64)


def test_hourglass104_reference_structure():
    g = build_hourglass104_reference()
    c = structure_census(g)
    assert c["n_modules"] == 2
    assert c["stem"]["n_downsamples"] == 2
    for stage in c["module_stages"]:
        m = c["modules"][stage]
        assert m["n_downsamples"] == 5
        assert m["down_channels"] == [256, 384, 384, 384, 512]
        assert m["n_middle_blocks"] == 4
        assert all(v == 2 for v in m["blocks_per_down"].values())
        assert all(v == 2 for v in m["blocks_per_skip"].values())
        assert all(v == 2 for v in m["blocks_per_up"].values())
    assert c["attention"]["n_heads"] == 0


def test_squeeze_structure():
    g = build_squeeze_hourglass(num_classes=3)
    ref = structure_census(build_hourglass104_reference())
    c = structure_census(g)
    assert c["stem"] == {"n_downsamples": 3, "n_blocks": 3,
                         "block_kinds": ["conv", "fire", "fire"]}
    for stage in c["module_stages"]:
        m = c["modules"][stage]
        assert m["n_downsamples"] == ref["modules"][stage]["n_downsamples"] - 1
        assert m["down_channels"] == [256, 384, 384, 512]
        assert "residual" not in m["block_kind_counts"]
        assert set(m["block_kind_counts"]) == {"fire"}
        for op in m["upsample_ops"]:
            assert op["kind"] == "tconv"
            assert op["kernel"] == (4, 4) and op["stride"] == 2
    assert c["heads"]["n_3x3_standard_convs"] == 0
    assert c["heads"]["lead_kernels"] == [(1, 1)]


def test_squeeze_without_extra_downsample():
    g = build_squeeze_hourglass(num_classes=3, extra_pre_downsample=False)
    c = structure_census(g)
    assert c["stem"]["n_downsamples"] == 2
    assert g.shapes()[g.taps["feature"]] == (1, 256, 64, 64)
    full = build_squeeze_hourglass(num_classes=3)
    assert full.shapes()[full.taps["feature"]] == (1, 256, 32, 32)


def test_hourglass54_forward_attention_pyramid():
    # seeded random weights; taps must land at three distinct scales,
    # finest first for the smallest objects
    g = build_hourglass54(num_classes=2)
    init_weights(g, seed=0)
    x = np.random.default_rng(1).normal(size=(1, 3, 255, 255)).astype(np.float32)
    taps = forward(g, x)
    sizes = [taps[f"attn_{s}"].shape[2] for s in ("small", "medium", "large")]
    assert sizes == [64, 32, 16]
    for s in ("small", "medium", "large"):
        arr = taps[f"attn_{s}"]
        assert np.all((arr > 0) & (arr < 1))
    assert taps["tl_heat"].shape == (1, 2, 64, 64)


def test_single_module_builder():
    g = build_single_module("residual", dims=(32, 48, 64), input_hw=(16, 16))
    c = structure_census(g)
    assert c["n_modules"] == 1
    assert c["modules"]["module1"]["down_channels"] == [48, 64]
    g2 = build_single_module("fire", dims=(32, 48, 64), upsample="tconv", input_hw=(16, 16))
    assert set(structure_census(g2)["modules"]["module1"]["block_kind_counts"]) == {"fire"}


# sha256 of each builder's to_json() for 3 classes: node ids, labels, order
# and taps.  Node order also fixes the init_weights stream, so a change here
# moves every seeded digest.
GRAPH_SHA256 = {
    ("hourglass54", 255): "3c74825c1a0957a693510c16547c6becfcabeefd009341ad88def929a94fce69",
    ("hourglass54", 127): "1ed691b2f9a7541e34f12f16cc08c1a3fec44486308fadd430143a7dabc1b362",
    ("squeeze", 255): "7891312623fa6c800d88a979f99c8c3bbba961e8e8178c67c1fea42c9e231352",
    ("squeeze", 127): "fe4125b202c87cf8322412b5b4b1c87648d2fafab111a4af3c8aa92e251b528b",
    ("hg104-ref", 255): "d196d5f354e1b61739314eec9947067cb489415e5b3886125627c12fa02b19fd",
    ("hg104-ref", 127): "f8ad10854bfd6f310595f02a50418bec53b42c7de0608ad773165fdf737ae41a",
    ("squeeze-no-extra", 255): "5763cdb34c3b22c26a31fc914ba0de44c20bbd431a4cb3c7b43d90d264a0e2a1",
}


@pytest.mark.parametrize("name, hw", GRAPH_SHA256)
def test_builders_emit_the_pinned_graphs(name, hw):
    if name == "squeeze-no-extra":
        g = build_squeeze_hourglass(3, input_hw=(hw, hw), extra_pre_downsample=False)
    else:
        g = BUILDERS[name](3, input_hw=(hw, hw))
    assert hashlib.sha256(g.to_json().encode()).hexdigest() == GRAPH_SHA256[name, hw]


@pytest.mark.parametrize("name", BUILDERS)
def test_builders_emit_one_node_list_at_every_size(name):
    # the premise of one graph and one seed serving every input size: only
    # input_dims depends on input_hw, so forward and init_weights see the
    # same nodes in the same order at 127, 255 and 511
    docs = []
    for hw in (127, 255, 511):
        doc = json.loads(BUILDERS[name](3, input_hw=(hw, hw)).to_json())
        assert doc.pop("input_dims") == [1, 3, hw, hw]
        docs.append(doc)
    assert docs[0] == docs[1] == docs[2]
