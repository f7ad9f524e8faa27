import tracemalloc

import numpy as np
import pytest

from fovea import kernels
from fovea.analysis import (compare_archs, compare_to_csv, cost_report, depth_report,
                            param_enumeration, structure_census)
from fovea.builders import (BUILDERS, Emit, build_hourglass54, build_hourglass104_reference,
                            build_single_module, build_squeeze_hourglass)
from fovea.graph import ArchGraph, forward, init_weights


def _single_conv_graph(in_c=4, out_c=8, k=1, hw=(6, 6), bias=True):
    g = ArchGraph((1, in_c) + hw)
    e = Emit(g)
    out = e.conv("c1", "input", in_c, out_c, k, stage="body", bias=bias)
    g.tap("out", out)
    return g


def test_cost_single_1x1_conv_counts():
    report = cost_report(_single_conv_graph())
    assert report.weights == 4 * 8 == 32
    assert report.biases == 8
    assert report.macs == 6 * 6 * 8 * 4  # out elems x in channels x 1x1
    assert report.peak_activation_bytes == 4 * 8 * 36
    assert report.live_peak_bytes == 4 * (4 + 8) * 36  # the input is freed after c1 runs
    assert report.per_stage["body"].weights == 32


@pytest.mark.parametrize("variant, hw, peak", [
    ("squeeze", 255, 16_777_216), ("hourglass54", 255, 23_068_672), ("hg104-ref", 255, 20_971_520),
    ("squeeze", 127, 4_194_304), ("hourglass54", 127, 5_767_168), ("hg104-ref", 127, 5_242_880),
])
def test_live_peak_bytes_pinned(variant, hw, peak):
    report = cost_report(BUILDERS[variant](3, (hw, hw)))
    assert report.live_peak_bytes == peak
    assert report.to_dict()["live_peak_bytes"] == peak


@pytest.mark.parametrize("variant", ["squeeze", "hourglass54", "hg104-ref"])
def test_forward_peak_is_live_activations_plus_two_column_budgets(variant):
    # conv2d pads only the input rows of one band at a time, in a buffer freed
    # before the next band's: a forward's peak is what plan keeps live plus one
    # band's columns and GEMM product (24, 30 and 28 MiB; a whole padded copy
    # of each conv input read 28.1, 33.3 and 31.3)
    g = BUILDERS[variant](3, (255, 255))
    init_weights(g, seed=0)
    x = np.random.default_rng(0).standard_normal((1, 3, 255, 255), dtype=np.float32)
    tracemalloc.start()
    try:
        forward(g, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= cost_report(g).live_peak_bytes + 2 * kernels._COLS_BYTES


def test_cost_macs_formula_3x3():
    g = _single_conv_graph(2, 4, k=3, hw=(5, 5))
    assert cost_report(g).macs == 5 * 5 * 4 * 2 * 9


def test_closed_form_matches_enumeration():
    for builder in (lambda: build_hourglass54(3),
                    lambda: build_hourglass104_reference(),
                    lambda: build_squeeze_hourglass(3)):
        g = builder()
        init_weights(g, zeros=True)
        report = cost_report(g)
        w, b = param_enumeration(g)
        assert (report.weights, report.biases) == (w, b)


def test_per_stage_breakdown_sums_to_totals():
    g = build_squeeze_hourglass(3)
    report = cost_report(g)
    assert sum(c.weights for c in report.per_stage.values()) == report.weights
    assert sum(c.biases for c in report.per_stage.values()) == report.biases
    assert sum(c.macs for c in report.per_stage.values()) == report.macs
    assert sum(c.activation_bytes for c in report.per_stage.values()) == report.activation_bytes
    assert max(c.peak_activation_bytes for c in report.per_stage.values()) == report.peak_activation_bytes


def test_cost_report_with_input_override():
    g = build_squeeze_hourglass(3)
    base = cost_report(g).macs
    bigger = cost_report(g, (1, 3, 511, 511)).macs
    assert bigger > base
    assert cost_report(g).input_dims == (1, 3, 255, 255)


def test_depth_single_residual_block():
    g = ArchGraph((1, 4, 6, 6))
    e = Emit(g)
    g.tap("out", e.residual("res", "input", 4, 4))
    report = depth_report(g)
    assert report.longest_path_convs == 2
    assert report.total_convs == 2
    g2 = ArchGraph((1, 4, 6, 6))
    g2.tap("out", Emit(g2).residual("res", "input", 4, 8))
    # projection adds a parallel conv; the longest path is still the main one
    assert depth_report(g2).longest_path_convs == 2
    assert depth_report(g2).total_convs == 3


def test_depth_is_stable_across_rebuilds():
    a = depth_report(build_hourglass54(3))
    b = depth_report(build_hourglass54(3))
    assert a.longest_path_convs == b.longest_path_convs
    assert a.total_convs == b.total_convs


def test_hourglass54_shallower_than_reference():
    d54 = depth_report(build_hourglass54(3))
    d104 = depth_report(build_hourglass104_reference(num_classes=3))
    assert d54.longest_path_convs < d104.longest_path_convs


def test_fire_module_cheaper_than_residual_module():
    dims = (64, 96, 128)
    res = cost_report(build_single_module("residual", dims=dims, input_hw=(16, 16)))
    fire = cost_report(build_single_module("fire", dims=dims, input_hw=(16, 16)))
    assert fire.macs < res.macs
    assert fire.weights < res.weights


def test_extra_pre_downsample_quarters_post_stem_memory():
    with_extra = cost_report(build_squeeze_hourglass(3))
    without = cost_report(build_squeeze_hourglass(3, extra_pre_downsample=False))
    # the two-stage stem prefix is shared (and holds the global peak tensor),
    # so the claim is about everything after it
    agg_with = with_extra.stage_aggregate(exclude=("input", "stem"))
    agg_without = without.stage_aggregate(exclude=("input", "stem"))
    assert agg_without.peak_activation_bytes == 4 * agg_with.peak_activation_bytes
    assert agg_without.peak_activation_area == 4 * agg_with.peak_activation_area
    assert agg_without.activation_bytes == 4 * agg_with.activation_bytes


def test_compare_archs_rows_and_orderings():
    graphs = [("hg54", build_hourglass54(3)),
              ("squeeze", build_squeeze_hourglass(3)),
              ("hg104", build_hourglass104_reference(num_classes=3))]
    rows = compare_archs(graphs)
    assert [r["name"] for r in rows] == ["hg54", "squeeze", "hg104"]
    by = {r["name"]: r for r in rows}
    assert by["squeeze"]["macs"] < by["hg54"]["macs"] < by["hg104"]["macs"]
    assert by["hg54"]["module_weights"] < by["hg104"]["module_weights"]
    assert by["squeeze"]["weights"] < by["hg104"]["weights"]
    # the compact backbone runs its hourglasses at quarter activation area
    assert by["hg104"]["hourglass_peak_bytes"] == 4 * by["squeeze"]["hourglass_peak_bytes"]
    csv_text = compare_to_csv(rows)
    assert csv_text.splitlines()[0].startswith("name,")
    assert len(csv_text.splitlines()) == 4


def test_census_block_totals():
    c = structure_census(build_hourglass54(3))
    total_residuals = sum(m["block_kind_counts"].get("residual", 0)
                          for m in c["modules"].values())
    assert total_residuals == 3 * 10  # 3 skips + 3 downs + 3 ups + middle, x3 modules
