import json
import math
import weakref

import numpy as np
import pytest

from fovea import graph as graph_module, skt
from fovea.builders import BUILDERS, build_single_module, build_squeeze_hourglass
from fovea.graph import ArchGraph, Node, forward, init_weights


def rand(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape).astype(np.float32)


def test_identity_stub_graph():
    g = ArchGraph((1, 2, 3, 3))
    g.tap("out", "input")
    x = rand((1, 2, 3, 3), seed=1)
    out = forward(g, x)
    assert np.array_equal(out["out"], x)


def test_unknown_input_rejected():
    g = ArchGraph((1, 1, 4, 4))
    with pytest.raises(ValueError, match="unknown input"):
        g.add(Node(id="a", kind="relu", inputs=["nope"]))


def test_duplicate_id_rejected():
    g = ArchGraph((1, 1, 4, 4))
    g.add(Node(id="a", kind="relu", inputs=["input"]))
    with pytest.raises(ValueError, match="duplicate"):
        g.add(Node(id="a", kind="relu", inputs=["input"]))


def test_shape_error_names_the_node():
    g = ArchGraph((1, 3, 8, 8))
    g.add(Node(id="bad.conv", kind="conv", inputs=["input"], in_channels=4,
               out_channels=2, kernel=(3, 3), stride=1, padding=1, bias=True))
    with pytest.raises(ValueError, match="bad.conv"):
        g.shapes()


def test_forward_shape_error_names_the_node():
    g = ArchGraph((1, 3, 8, 8))
    g.add(Node(id="c1", kind="conv", inputs=["input"], in_channels=3,
               out_channels=2, kernel=(3, 3), stride=1, padding=1, bias=True))
    g.tap("out", "c1")
    init_weights(g)
    g.params["c1"]["w"] = rand((2, 4, 3, 3))  # wrong in-channel count
    with pytest.raises(ValueError, match="'c1'"):
        forward(g, rand((1, 3, 8, 8)))


def test_forward_is_deterministic():
    g = build_squeeze_hourglass(num_classes=2, input_hw=(127, 127))
    init_weights(g, seed=7)
    x = rand((1, 3, 127, 127), seed=8)
    a = forward(g, x)
    b = forward(g, x)
    assert sorted(a) == sorted(b)
    for name in a:
        assert np.array_equal(a[name], b[name]), name


def test_json_round_trip_preserves_structure_and_shapes():
    g = build_squeeze_hourglass(num_classes=2, input_hw=(127, 127))
    g2 = ArchGraph.from_json(g.to_json())
    assert [n.id for n in g.nodes] == [n.id for n in g2.nodes]
    assert g.taps == g2.taps
    assert g.shapes() == g2.shapes()
    assert [n.to_dict() for n in g.nodes] == [n.to_dict() for n in g2.nodes]


def test_weight_sidecar_round_trip(tmp_path):
    g = build_squeeze_hourglass(num_classes=2, input_hw=(127, 127))
    init_weights(g, seed=9)
    x = rand((1, 3, 127, 127), seed=10)
    want = forward(g, x)

    g.save(tmp_path / "graph.json")
    g.save_weights(tmp_path / "weights")
    g2 = ArchGraph.load(tmp_path / "graph.json")
    g2.load_weights(tmp_path / "weights")
    got = forward(g2, x)
    for name in want:
        assert np.array_equal(got[name], want[name]), name


def test_init_weights_zeros_flag():
    g = build_squeeze_hourglass(num_classes=2, input_hw=(127, 127))
    init_weights(g, zeros=True)
    assert all(np.all(t["w"] == 0) for t in g.params.values())


def _merge_graph():
    # a stride-2 conv, upsampled and added back to its input: a merge that
    # an odd height breaks
    g = ArchGraph((1, 3, 8, 8))
    g.add(_conv("down", out_channels=3, stride=2))
    g.add(Node(id="up", kind="upsample2x", inputs=["down"]))
    g.add(Node(id="merge", kind="add", inputs=["input", "up"]))
    g.tap("out", "merge")
    init_weights(g)
    return g


@pytest.mark.parametrize("shape, match", [
    ((1, 3, 9, 8), r"^node 'merge': add inputs disagree: \[\(1, 3, 9, 8\), \(1, 3, 10, 8\)\]"),
    ((1, 4, 8, 8), r"^node 'down': input channels must equal in_channels 3, got 4"),
    ((3, 8, 8), r"^input must be 4-D \(n, c, h, w\), got \(3, 8, 8\)"),
    ((1, 3, 0, 8), r"^all dims of input must be >= 1, got \(1, 3, 0, 8\)"),
], ids=["shape-rule", "channels", "three-dim", "empty-dim"])
def test_forward_rejects_input_the_graph_cannot_run(shape, match):
    # a size the shape rules refuse names the node; a tensor that is not
    # (n, c, h, w) names the input.  Neither caches a plan.
    g = _merge_graph()
    with pytest.raises(ValueError, match=match):
        forward(g, np.zeros(shape, np.float32))
    assert set(g._plans) <= {(1, 3, 8, 8)}


def test_forward_runs_any_size_the_shape_rules_accept():
    # one squeeze graph built at 255 runs a 127 frame with its own weights,
    # tap for tap byte-equal to the same-seed graph built at 127
    big = build_squeeze_hourglass(num_classes=2, input_hw=(255, 255))
    small = build_squeeze_hourglass(num_classes=2, input_hw=(127, 127))
    init_weights(big, seed=3)
    init_weights(small, seed=3)
    x = rand((1, 3, 127, 127), seed=4)
    got, want = forward(big, x), forward(small, x)
    assert got.keys() == want.keys()
    for name in want:
        assert got[name].tobytes() == want[name].tobytes(), name
    assert {(1, 3, 255, 255), (1, 3, 127, 127)} <= set(big._plans)
    assert big.input_dims == (1, 3, 255, 255)
    assert big.shapes()["input"] == (1, 3, 255, 255)


def test_forward_is_threadsafe_on_shared_graph():
    from concurrent.futures import ThreadPoolExecutor

    g = build_squeeze_hourglass(num_classes=2, input_hw=(127, 127))
    init_weights(g, seed=11)
    inputs = [rand((1, 3, 127, 127), seed=s) for s in range(4)]
    want = [forward(g, x) for x in inputs]
    with ThreadPoolExecutor(max_workers=4) as pool:
        got = list(pool.map(lambda x: forward(g, x), inputs))
    for a, b in zip(got, want):
        for name in b:
            assert a[name].tobytes() == b[name].tobytes(), name


def _conv(node_id, inputs=("input",), **kw):
    fields = dict(in_channels=3, out_channels=2, kernel=(3, 3), stride=1, padding=1, bias=True)
    fields.update(kw)
    return Node(id=node_id, kind=fields.pop("kind", "conv"), inputs=list(inputs), **fields)


def _graph_json(*nodes, **doc):
    g = ArchGraph((1, 3, 8, 8))
    base = {"input_dims": list(g.input_dims), "nodes": [g.nodes[0].to_dict()], "taps": {}}
    base["nodes"] += [n if isinstance(n, dict) else n.to_dict() for n in nodes]
    base.update(doc)
    return json.dumps({k: v for k, v in base.items() if v is not None})


@pytest.mark.parametrize("text, match", [
    (_graph_json({"id": "t", "kind": "tanh", "inputs": ["input"]}), "'t'.*kind 'tanh'"),
    (_graph_json({"id": "a b", "kind": "relu", "inputs": ["input"]}), "id 'a b'"),
    (_graph_json({k: v for k, v in _conv("c").to_dict().items() if k != "out_channels"}),
     "'c'.*out_channels"),
    (_graph_json(input_dims=None), "input_dims"),
    (_graph_json(nodes=[{"id": "r", "kind": "relu", "inputs": []}]), "start with.*input"),
], ids=["unknown-kind", "bad-id", "missing-field", "missing-input-dims", "first-not-input"])
def test_from_json_rejects_bad_graph(text, match):
    with pytest.raises(ValueError, match=match):
        ArchGraph.from_json(text)


@pytest.mark.parametrize("node, match", [
    (_conv("c", activation="tanh"), "'c'.*activation 'tanh'"),
    (Node(id="r", kind="relu", inputs=["input", "input"]), "'r'.*takes 1 inputs, got 2"),
    (_conv("c", inputs=()), "'c'.*takes 1 inputs, got 0"),
    (Node(id="s", kind="add", inputs=["input"]), "'s'.*takes 2 or more inputs, got 1"),
], ids=["activation", "relu-two-inputs", "conv-no-input", "add-one-input"])
def test_add_rejects_bad_node(node, match):
    with pytest.raises(ValueError, match=match):
        ArchGraph((1, 3, 8, 8)).add(node)


@pytest.mark.parametrize("node, match", [
    (_conv("d", kind="dwconv", in_channels=3, out_channels=6, bias=False), "'d'.*out_channels 6"),
    (_conv("d", kind="dwconv", in_channels=3, out_channels=3, bias=True), "'d'.*bias"),
    (_conv("t", kind="tconv", kernel=(1, 1), stride=1, padding=5), "'t'.*smaller than 1x1"),
    (_conv("c", out_channels=0), "'c'.*channels must be >= 1, got 3 and 0"),
    (_conv("c", in_channels=0), "'c'.*channels must be >= 1, got 0 and 2"),
    (_conv("d", kind="dwconv", in_channels=0, out_channels=0, bias=False),
     "'d'.*channels must be >= 1, got 0 and 0"),
    (_conv("t", kind="tconv", out_channels=0, kernel=(4, 4), stride=2),
     "'t'.*channels must be >= 1, got 3 and 0"),
], ids=["dwconv-channels", "dwconv-bias", "tconv-too-small", "conv-zero-out", "conv-zero-in",
        "dwconv-zero", "tconv-zero-out"])
def test_shapes_rejects_bad_node(node, match):
    g = ArchGraph((1, 3, 8, 8))
    g.add(node)
    with pytest.raises(ValueError, match=match):
        g.shapes()


def _weighted_graph():
    g = ArchGraph((1, 3, 8, 8))
    g.add(_conv("c1"))
    g.add(_conv("c2", inputs=["c1"], in_channels=2, bias=False))
    g.add(_conv("up", kind="tconv", inputs=["c2"], in_channels=2, kernel=(4, 4), stride=2))
    g.tap("out", "up")
    init_weights(g, seed=1)
    return g


@pytest.mark.parametrize("edit, match", [
    (lambda p: p["c1"].pop("b"), r"node 'c1': missing 'b' shaped \(2,\)"),
    (lambda p: p["c2"].update(b=np.zeros(2, np.float32)), "node 'c2': extra 'b'"),
    (lambda p: p["up"].update(w=rand((2, 3, 4, 4))), r"node 'up': 'w' shaped \(2, 3, 4, 4\), expected \(2, 2, 4, 4\)"),
    (lambda p: p.update(ghost={"w": rand((1,))}), "unknown node 'ghost'"),
], ids=["missing-bias", "stray-bias", "tconv-out-channels", "unknown-node"])
def test_forward_checks_weights_against_graph(edit, match):
    g = _weighted_graph()
    edit(g.params)
    with pytest.raises(ValueError, match=match):
        forward(g, rand((1, 3, 8, 8)))


def test_load_weights_lists_every_mismatch(tmp_path):
    g = _weighted_graph()
    g.save_weights(tmp_path)
    (tmp_path / "c1.b.skt").unlink()
    skt.write_tensor(tmp_path / "c2.b.skt", np.zeros(2, np.float32))
    skt.write_tensor(tmp_path / "c2.extra.skt", np.zeros(2, np.float32))
    skt.write_tensor(tmp_path / "ghost.w.skt", np.zeros(2, np.float32))
    with pytest.raises(ValueError) as err:
        g.load_weights(tmp_path)
    for part in ("unknown node 'ghost'", "node 'c1': missing 'b'",
                 "node 'c2': extra 'b'", "node 'c2': extra 'extra'"):
        assert part in str(err.value)


def test_forward_calls_kernels_through_module_globals(monkeypatch):
    # callers (e.g. a per-kernel timer) wrap the kernels where forward looks them up
    calls = []
    for name in ("conv2d", "transpose_conv2d", "relu"):
        fn = getattr(graph_module, name)
        monkeypatch.setattr(graph_module, name,
                            lambda *a, fn=fn, name=name, **k: calls.append(name) or fn(*a, **k))
    g = _weighted_graph()
    g.nodes[1].activation = "relu"
    forward(g, rand((1, 3, 8, 8)))
    assert calls == ["conv2d", "relu", "conv2d", "transpose_conv2d"]


def _init_weights_normal(graph, seed):
    """Frozen copy of the one-call draw: ``normal`` per tensor, then a float32 cast."""
    rng = np.random.default_rng(seed)
    weights = {}
    for node in graph.nodes:
        if not node.is_weighted():
            continue
        shape, fan_in = graph_module.OPS[node.kind].weight(node)
        weights[node.id] = rng.normal(0.0, 1.0 / np.sqrt(max(1, fan_in)),
                                      size=shape).astype(np.float32)
    return weights


def _assert_weights_match_normal(graph, seed):
    want = _init_weights_normal(graph, seed)
    got = init_weights(graph, seed=seed)
    assert list(got) == list(want)
    for node_id, w in want.items():
        assert got[node_id]["w"].dtype == np.float32
        assert got[node_id]["w"].tobytes() == w.tobytes(), node_id
        if graph.node(node_id).bias:
            assert got[node_id]["b"].tobytes() == bytes(4 * graph.node(node_id).out_channels)


def _chunk_seam_graph():
    # one 1->1 conv per tensor size; kernel (1, n) holds n values
    chunk = graph_module._DRAW_CHUNK
    g = ArchGraph((1, 1, 1, chunk + 1))
    for i, n in enumerate((chunk - 1, chunk, chunk + 1, 1)):
        g.add(Node(id=f"c{i}", kind="conv", inputs=["input"], in_channels=1, out_channels=1,
                   kernel=(1, n), bias=i % 2 == 0))
        g.tap(f"c{i}", f"c{i}")
    g.shapes()
    return g


def test_init_weights_bytes_match_normal_on_squeeze():
    _assert_weights_match_normal(build_squeeze_hourglass(num_classes=3), seed=0)


def test_init_weights_bytes_match_normal_on_single_module():
    _assert_weights_match_normal(build_single_module(), seed=1)


def test_init_weights_bytes_match_normal_across_chunk_seams():
    g = _chunk_seam_graph()
    chunk = graph_module._DRAW_CHUNK
    sizes = [math.prod(graph_module.param_shapes(node)["w"]) for node in g.nodes[1:]]
    assert sizes == [chunk - 1, chunk, chunk + 1, 1]
    _assert_weights_match_normal(g, seed=3)


def test_init_weights_zeros_on_chunk_seam_graph():
    g = _chunk_seam_graph()
    params = init_weights(g, seed=3, zeros=True)
    assert list(params) == ["c0", "c1", "c2", "c3"]
    for node_id, tensors in params.items():
        assert sorted(tensors) == (["b", "w"] if g.node(node_id).bias else ["w"])
        assert all(t.dtype == np.float32 and not t.any() for t in tensors.values())


# ---- the execution plan ------------------------------------------------------------


def _shapes_reference(graph):
    """Frozen copy of the propagation loop ``ArchGraph.shapes`` ran before ``plan``."""
    out = {"input": graph.input_dims}
    for node in graph.nodes[1:]:
        out[node.id] = graph_module.OPS[node.kind].shape(node, [out[i] for i in node.inputs])
    return out


def _single_module(block, upsample):
    return lambda: build_single_module(block, dims=(16, 24, 32), upsample=upsample,
                                       input_hw=(16, 16))


PLAN_GRAPHS = [pytest.param(lambda b=b, hw=hw: b(3, (hw, hw)), id=f"{name}-{hw}")
               for name, b in BUILDERS.items() for hw in (255, 127)]
PLAN_GRAPHS += [pytest.param(_single_module(block, up), id=f"{block}-{up}")
                for block in ("residual", "fire") for up in ("nearest", "tconv")]


@pytest.mark.parametrize("build", PLAN_GRAPHS)
def test_plan_frees_every_value_once_at_its_last_reader(build):
    g = build()
    steps = graph_module.plan(g)
    assert [step.node for step in steps] == g.nodes
    last_reader = {}
    for node in g.nodes:
        last_reader.update(dict.fromkeys(node.inputs, node.id))
    tapped = set(g.taps.values())
    freed = [(i, step.node.id) for step in steps for i in step.frees]
    assert sorted(i for i, _ in freed) == sorted(n.id for n in g.nodes if n.id not in tapped)
    assert all(last_reader[i] == reader for i, reader in freed)
    assert g.shapes() == _shapes_reference(g)


def test_plan_frees_a_value_added_to_itself_once():
    g = ArchGraph((1, 2, 4, 4))
    g.add(Node(id="r", kind="relu", inputs=["input"]))
    g.add(Node(id="s", kind="add", inputs=["r", "r"]))
    g.tap("out", "s")
    assert [step.frees for step in graph_module.plan(g)] == [(), ("input",), ("r",)]
    x = rand((1, 2, 4, 4))
    assert np.array_equal(forward(g, x)["out"], 2 * np.maximum(x, 0))


@pytest.mark.parametrize("warm", ["forward", "shapes"])
def test_add_and_tap_drop_the_cached_plan(warm):
    g = _weighted_graph()
    x = rand((1, 3, 8, 8))
    forward(g, x) if warm == "forward" else g.shapes()
    g.tap("mid", "c1")  # the cached plan frees c1 after c2 reads it
    assert sorted(forward(g, x)) == ["mid", "out"]
    g.add(Node(id="r", kind="relu", inputs=["c2"]))
    assert g.shapes()["r"] == (1, 2, 8, 8)
    g.tap("r", "r")
    out = forward(g, x)
    assert sorted(out) == ["mid", "out", "r"] and out["r"].shape == (1, 2, 8, 8)


def test_failing_shape_rule_caches_nothing():
    g = ArchGraph((1, 1, 4, 4))
    g.add(_conv("c", in_channels=1, kernel=(5, 5), padding=0))
    g.tap("out", "c")
    init_weights(g)
    fits = r"^node 'c': kernel \(5, 5\) at stride 1 and pad 0 does not fit input 4x4"
    for call in (g.shapes, lambda: forward(g, rand((1, 1, 4, 4))), g.shapes):
        with pytest.raises(ValueError, match=fits):
            call()
    assert g.shapes((1, 1, 8, 8))["c"] == (1, 2, 4, 4)
    with pytest.raises(ValueError, match=fits):
        graph_module.plan(g)


@pytest.mark.parametrize("build", [pytest.param(lambda: build_squeeze_hourglass(2, (127, 127)),
                                                id="squeeze-127"),
                                   pytest.param(_single_module("residual", "nearest"),
                                                id="residual-nearest")])
def test_forward_holds_exactly_the_plan_live_set(build, monkeypatch):
    g = build()
    init_weights(g, seed=5)
    steps = graph_module.plan(g)
    want, live = [], {"input"}
    for step in steps[1:]:
        want.append(set(live))
        live = (live | {step.node.id}) - set(step.frees)

    refs, held = {}, []  # node id -> weakref to its latest output; live ids at each node

    def watched(run):
        def call(node, ins, p):
            for i, arr in zip(node.inputs, ins):
                refs.setdefault(i, weakref.ref(arr))  # the input tensor
            if node.id not in refs:  # the node's own run, not its fused activation
                held.append({i for i, ref in refs.items() if ref() is not None})
            out = run(node, ins, p)
            refs[node.id] = weakref.ref(out)
            return out
        return call

    monkeypatch.setattr(graph_module, "OPS", {kind: op._replace(run=watched(op.run))
                                              for kind, op in graph_module.OPS.items()})
    # a float64 input, so the float32 copy forward makes is held by forward alone
    out = forward(g, rand((1, *g.input_dims[1:])).astype(np.float64))
    assert held == want
    assert {i for i, ref in refs.items() if ref() is not None} == set(g.taps.values())
    assert sorted(out) == sorted(g.taps)
