"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload saccade_oracle --seed 0 --seconds 20 --trace 0

Run it from the repository root; it imports the library from ``src``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the
end-to-end metrics of BENCHMARK.json, with ``--trace 1`` its per-layer
metrics, measured from spans around the calls into each layer.  The lines
before it name every metric with its unit.  A fuller record, with the
output digest and the machine, goes to ``perfbench/out/``; a traced run
also writes its spans there.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
SETUP_REPEATS = 3
DEFAULT_SEED = 0
MAX_LOGGED_PROBLEMS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def attempt(workload, inp):
    """(output, error) of one call; a raising call is a failed call, not a crash."""
    try:
        return workload.call(inp), None
    except Exception:
        return None, traceback.format_exc(limit=3)


def measure(workload, seconds, tracer):
    """The closed loop: call after call until ``seconds`` have passed.

    Returns per-call seconds, the failed count, the problems seen and the
    digest of the first ``min_calls`` outputs.  The first unit of calls
    repeats the untimed warm-up unit's inputs, and must reproduce its
    outputs bit for bit.  With a tracer, every call in the loop is traced.
    """
    warm = []
    for i in range(workload.unit_calls):
        out, _ = attempt(workload, workload.input(i))
        warm.append(None if out is None else workload.digest(out))

    digest = hashlib.sha256()
    call_s, problems, failed = [], [], 0
    if tracer is not None:
        tracer.install()
    begin = time.perf_counter()
    i = 0
    try:
        while True:
            inp = workload.input(i)
            if tracer is not None:
                tracer.request = i
            start = time.perf_counter()
            out, error = attempt(workload, inp)
            call_s.append(time.perf_counter() - start)
            wrong = [error] if error else workload.check(inp, out)
            packed = b"" if out is None else workload.digest(out)
            if i < workload.unit_calls and packed != warm[i]:
                wrong.append("repeating the warm-up input changed the output")
            if i < workload.min_calls:
                digest.update(packed)
            if wrong:
                failed += 1
                problems += [f"call {i}: {p}" for p in wrong]
            i += 1
            if (time.perf_counter() - begin >= seconds and i >= workload.min_calls
                    and i % workload.round_calls == 0):
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    return call_s, failed, problems, digest.hexdigest()


def tracing_overhead(workload, tracer, budget_s=5.0, max_pairs=5):
    """Median traced minus median untraced seconds of the first input.

    Untraced and traced calls alternate, at least one pair and at most
    ``max_pairs``, while ``budget_s`` lasts; their spans are dropped.
    """
    inp = workload.input(0)
    kept = len(tracer.spans)
    untraced, traced = [], []
    begin = time.perf_counter()
    while not traced or (len(traced) < max_pairs and time.perf_counter() - begin < budget_s):
        start = time.perf_counter()
        attempt(workload, inp)
        untraced.append(time.perf_counter() - start)
        tracer.install()
        try:
            start = time.perf_counter()
            attempt(workload, inp)
            traced.append(time.perf_counter() - start)
        finally:
            tracer.uninstall()
    del tracer.spans[kept:]
    return statistics.median(traced) - statistics.median(untraced)


def end_to_end(workload, call_s, failed, setup_s):
    """Every end-to-end figure, by name: (value, unit)."""
    n = workload.unit_calls
    units = [sum(call_s[k:k + n]) for k in range(0, len(call_s), n)]
    values = {
        "setup_s": (statistics.median(setup_s), "s"),
        "latency_p50_s": (statistics.median(units), "s"),
        f"{workload.unit}_p50_s": (statistics.median(units), "s"),
        "images_per_s": (len(call_s) / sum(call_s), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
        "failed_frac": (failed / len(call_s), "ratio"),
    }
    # the highest percentile with at least ten samples beyond it
    if len(units) >= 100:
        values[f"{workload.unit}_p90_s"] = (statistics.quantiles(units, n=10)[-1], "s")
    values.update(workload.report(call_s))
    return values


def per_layer(workload, tracer, names, call_s, setup_steps, sgemm):
    """Every per-layer figure, by name."""
    values = {
        "trace.overhead_s": tracing_overhead(workload, tracer),
        "trace.overhead_est_s": tracer.span_cost_s() * len(tracer.spans) / len(call_s),
        "trace.coverage": sum(tracer.root_seconds()) / sum(call_s),
        "machine.sgemm_gmacs_per_s": sgemm,
    }
    for key in ("scene.gen_scene.s", "builders.build.s", "graph.init_weights.s"):
        values[key] = statistics.median(steps.get(key, 0.0) for steps in setup_steps)
    rest = [name for name in names if name not in values]
    values.update(tracer.layer_metrics(rest, workload.aliases))
    return values


def main(argv=None):
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    # threads come only from BLAS, capped at the cores this process may use;
    # set before numpy loads BLAS
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "fovea", "__init__.py")):
        print(f"error: no fovea sources under {ROOT}/src; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    from fovea.analysis import cost_report
    import machine
    import tracing
    from workloads import WORKLOADS, Timings

    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    workload, setup_s, setup_steps = None, [], []
    for _ in range(SETUP_REPEATS):
        workload = None   # free the previous set-up before building the next
        workload = WORKLOADS[args.workload]()
        steps = Timings()
        start = time.perf_counter()
        workload.setup(args.seed, steps)
        setup_s.append(time.perf_counter() - start)
        setup_steps.append(steps)
    info = machine.machine_info()

    tracer = None
    if args.trace:
        tracer = tracing.Tracer({id(g): cost_report(g).macs for g in workload.graphs()})
    call_s, failed, problems, digest = measure(workload, args.seconds, tracer)

    report = end_to_end(workload, call_s, failed, setup_s)
    if args.trace:
        layer = per_layer(workload, tracer, [m["name"] for m in declared], call_s,
                          setup_steps, info["sgemm_gmacs_per_s"])
        units = {m["name"]: m["unit"] for m in declared}
        report.update({name: (value, units[name]) for name, value in layer.items()})
    metrics = {m["name"]: {"value": report[m["name"]][0], "unit": m["unit"]} for m in declared}

    result = {"correct": failed == 0, "attempted": len(call_s), "failed": failed,
              "metrics": metrics}
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **result,
              "report": {name: {"value": v, "unit": u} for name, (v, u) in report.items()},
              "call_s": call_s, "output_digest": digest, "machine": info,
              "problems": problems[:MAX_LOGGED_PROBLEMS]}
    if tracer is not None:
        tracer.write(stem + "-spans.json")
        record["spans"] = os.path.relpath(stem + "-spans.json", ROOT)
    with open(stem + ".json", "w") as f:
        json.dump(record, f, indent=1)

    for p in problems[:MAX_LOGGED_PROBLEMS]:
        print(f"check failed: {p}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  calls {len(call_s)}  failed {failed}")
    for name, (value, unit) in report.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    print(f"  {'output_digest':<44} {digest}")
    print(f"  {'machine':<44} {json.dumps(info)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
