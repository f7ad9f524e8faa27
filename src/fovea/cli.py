"""Command-line interface.

Verbs: ``arch`` (build/init/stats/forward), ``decode`` (peaks/group),
``saccade`` (run), ``scene`` (gen/oracle), ``bench`` and ``compare``.
Tensors travel as SKT1 files, everything else as JSON.
"""

import argparse
import json
import os
import sys

from . import skt
from .analysis import compare_archs, compare_to_csv, cost_report
from .bench import BENCH_OPS, bench
from .builders import BUILDERS
from .decode import Corner, Detection, group_corners, heatmap_peaks
from .graph import ArchGraph, forward, init_weights
from .kernels import _from_fields
from .pipeline import GraphModel, SaccadeConfig, run_saccade
from .scene import OracleModel, SceneSpec, gen_scene, oracle_outputs, random_scene


def _parse_dims(text):
    try:
        dims = tuple(int(v) for v in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad dims {text!r}, expected e.g. 1x3x255x255")
    if len(dims) != 4:
        raise argparse.ArgumentTypeError(f"need 4 dims, got {text!r}")
    return dims


def _parse_hw(text):
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"bad size {text!r}, expected HxW")
    return int(parts[0]), int(parts[1])


def _write_json(path, payload):
    text = json.dumps(payload, indent=1)
    if path in (None, "-"):
        print(text)
    else:
        with open(path, "w") as f:
            f.write(text + "\n")


def _write_taps(out_dir, taps):
    """Write each ``{tap name: map}`` entry to ``<out_dir>/<tap name>.skt``."""
    os.makedirs(out_dir, exist_ok=True)
    for name, arr in taps.items():
        skt.write_tensor(os.path.join(out_dir, f"{name}.skt"), arr)
    print(f"wrote {len(taps)} taps to {out_dir}")


def _load_graph(args):
    graph = ArchGraph.load(args.graph)
    if getattr(args, "weights", None):
        graph.load_weights(args.weights)
    return graph


# ---- arch ----------------------------------------------------------------------


def cmd_arch_build(args):
    graph = BUILDERS[args.variant](num_classes=args.classes)
    graph.save(args.out)
    print(f"wrote {args.out}: {len(graph.nodes)} nodes, taps {sorted(graph.taps)}")


def cmd_arch_init(args):
    graph = ArchGraph.load(args.graph)
    init_weights(graph, seed=args.seed, zeros=args.zeros)
    graph.save_weights(args.out_dir)
    n = sum(len(t) for t in graph.params.values())
    print(f"wrote {n} tensors to {args.out_dir}")


def cmd_arch_stats(args):
    graph = ArchGraph.load(args.graph)
    report = cost_report(graph, args.input)
    _write_json(args.out, report.to_dict())


def cmd_arch_forward(args):
    graph = _load_graph(args)
    _write_taps(args.out_dir, forward(graph, skt.read_tensor(args.input)))


# ---- decode --------------------------------------------------------------------


def _corner_to_dict(c):
    return {"class": c.cls, "score": c.score, "x": c.x, "y": c.y,
            "dx": c.dx, "dy": c.dy, "embed": c.embed, "kind": c.kind}


def _corner_from_dict(d):
    with _from_fields("corner"):
        return Corner(cls=int(d["class"]), score=float(d["score"]), x=int(d["x"]),
                      y=int(d["y"]), dx=float(d.get("dx", 0.0)), dy=float(d.get("dy", 0.0)),
                      embed=float(d.get("embed", 0.0)), kind=d.get("kind", "tl"))


def cmd_decode_peaks(args):
    heat = skt.read_tensor(args.heat)
    offsets = skt.read_tensor(args.offsets) if args.offsets else None
    embeddings = skt.read_tensor(args.embeddings) if args.embeddings else None
    corners = heatmap_peaks(heat, args.k, offsets=offsets, embeddings=embeddings, kind=args.kind)
    _write_json(args.out, [_corner_to_dict(c) for c in corners])


def cmd_decode_group(args):
    with open(args.tl) as f:
        tl = [_corner_from_dict(d) for d in json.load(f)]
    with open(args.br) as f:
        br = [_corner_from_dict(d) for d in json.load(f)]
    dets = group_corners(tl, br, args.threshold, args.factor)
    _write_json(args.out, [d.to_dict() for d in dets])


# ---- saccade -------------------------------------------------------------------


def cmd_saccade_run(args):
    config = SaccadeConfig()
    if args.config:
        with open(args.config) as f:
            config = SaccadeConfig.from_dict(json.load(f))
    image = skt.read_tensor(args.image)
    if args.stub_gt:
        with open(args.stub_gt) as f:
            gt = [Detection.from_dict(d) for d in json.load(f)]
        model = OracleModel(gt, num_classes=args.stub_classes)
    else:
        if not (args.graph and args.weights):
            sys.exit("saccade run needs --graph and --weights (or --stub-gt)")
        model = GraphModel(_load_graph(args))
    trace = {} if args.trace else None
    dets = run_saccade(image, model, config, trace=trace)
    _write_json(args.out, [d.to_dict() for d in dets])
    if args.trace:
        _write_json(args.trace, trace)


# ---- scene ---------------------------------------------------------------------


def cmd_scene_gen(args):
    if args.spec:
        with open(args.spec) as f:
            spec = SceneSpec.from_dict(json.load(f))
    else:
        spec = random_scene(args.seed, args.objects, hw=args.canvas, num_classes=args.classes)
    image, gt = gen_scene(spec)
    skt.write_tensor(args.out_image, image)
    _write_json(args.out_gt, [d.to_dict() for d in gt])
    print(f"scene: {len(gt)} objects on {spec.height}x{spec.width}, seed {spec.seed}")


def cmd_scene_oracle(args):
    with open(args.gt) as f:
        gt = [Detection.from_dict(d) for d in json.load(f)]
    _write_taps(args.out_dir, oracle_outputs(gt, num_classes=args.classes, frame_hw=args.frame))


# ---- bench / compare -----------------------------------------------------------


def cmd_bench(args):
    report = bench(args.ops, args.sizes, repetitions=args.reps)
    _write_json(args.out, report)


def cmd_compare(args):
    graphs = [(os.path.basename(p), ArchGraph.load(p)) for p in args.graphs]
    rows = compare_archs(graphs, args.input)
    if args.csv:
        text = compare_to_csv(rows)
        if args.out in (None, "-"):
            print(text, end="")
        else:
            with open(args.out, "w") as f:
                f.write(text)
    else:
        _write_json(args.out, rows)


# ---- parser --------------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(prog="fovea", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    arch = sub.add_parser("arch", help="build, inspect and run backbone graphs")
    archsub = arch.add_subparsers(dest="subcommand", required=True)
    b = archsub.add_parser("build")
    b.add_argument("--variant", choices=sorted(BUILDERS), required=True)
    b.add_argument("--classes", type=int, default=80)
    b.add_argument("--out", required=True)
    b.set_defaults(fn=cmd_arch_build)
    i = archsub.add_parser("init")
    i.add_argument("graph")
    i.add_argument("--out-dir", required=True)
    i.add_argument("--seed", type=int, default=0)
    i.add_argument("--zeros", action="store_true")
    i.set_defaults(fn=cmd_arch_init)
    s = archsub.add_parser("stats")
    s.add_argument("graph")
    s.add_argument("--input", type=_parse_dims, default=None)
    s.add_argument("--out", default="-")
    s.set_defaults(fn=cmd_arch_stats)
    f = archsub.add_parser("forward")
    f.add_argument("graph")
    f.add_argument("--weights", required=True)
    f.add_argument("--input", required=True)
    f.add_argument("--out-dir", required=True)
    f.set_defaults(fn=cmd_arch_forward)

    dec = sub.add_parser("decode", help="corner peak extraction and grouping")
    decsub = dec.add_subparsers(dest="subcommand", required=True)
    pk = decsub.add_parser("peaks")
    pk.add_argument("--heat", required=True)
    pk.add_argument("--offsets")
    pk.add_argument("--embeddings")
    pk.add_argument("--k", type=int, default=100)
    pk.add_argument("--kind", choices=("tl", "br"), default="tl")
    pk.add_argument("--out", default="-")
    pk.set_defaults(fn=cmd_decode_peaks)
    gp = decsub.add_parser("group")
    gp.add_argument("--tl", required=True)
    gp.add_argument("--br", required=True)
    gp.add_argument("--threshold", type=float, default=0.5)
    gp.add_argument("--factor", type=float, default=255 / 64)
    gp.add_argument("--out", default="-")
    gp.set_defaults(fn=cmd_decode_group)

    sac = sub.add_parser("saccade", help="full crop-scheduling inference")
    sacsub = sac.add_subparsers(dest="subcommand", required=True)
    r = sacsub.add_parser("run")
    r.add_argument("--graph")
    r.add_argument("--weights")
    r.add_argument("--stub-gt", help="ground-truth JSON; replaces the network with the oracle")
    r.add_argument("--stub-classes", type=int, default=3)
    r.add_argument("--image", required=True)
    r.add_argument("--config")
    r.add_argument("--out", default="-")
    r.add_argument("--trace")
    r.set_defaults(fn=cmd_saccade_run)

    sc = sub.add_parser("scene", help="synthetic scenes and oracle maps")
    scsub = sc.add_subparsers(dest="subcommand", required=True)
    g = scsub.add_parser("gen")
    g.add_argument("--spec", help="SceneSpec JSON; otherwise a random scene is drawn")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--objects", type=int, default=3)
    g.add_argument("--canvas", type=_parse_hw, default=(510, 510))
    g.add_argument("--classes", type=int, default=3)
    g.add_argument("--out-image", required=True)
    g.add_argument("--out-gt", required=True)
    g.set_defaults(fn=cmd_scene_gen)
    o = scsub.add_parser("oracle")
    o.add_argument("--gt", required=True)
    o.add_argument("--classes", type=int, default=3)
    o.add_argument("--frame", type=_parse_hw, default=(255, 255))
    o.add_argument("--out-dir", required=True)
    o.set_defaults(fn=cmd_scene_oracle)

    be = sub.add_parser("bench", help="micro-benchmarks with MAC context")
    be.add_argument("--ops", nargs="+", choices=sorted(BENCH_OPS), required=True)
    be.add_argument("--sizes", nargs="+", type=int, required=True)
    be.add_argument("--reps", type=int, default=3)
    be.add_argument("--out", default="-")
    be.set_defaults(fn=cmd_bench)

    cp = sub.add_parser("compare", help="tabulate params/MACs/memory/depth")
    cp.add_argument("--graphs", nargs="+", required=True)
    cp.add_argument("--input", type=_parse_dims, default=None)
    cp.add_argument("--csv", action="store_true")
    cp.add_argument("--out", default="-")
    cp.set_defaults(fn=cmd_compare)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.fn(args)
    except (ValueError, OSError) as exc:
        sys.exit(f"fovea: error: {exc}")


if __name__ == "__main__":
    main()
