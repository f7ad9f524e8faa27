"""The full saccadic pipeline on a synthetic scene, with its trace.

Downsize the image to two working frames, read candidate locations off the
attention maps and coarse boxes, rank and suppress near-duplicates, zoom
into the top-k survivors (4x for small objects, 2x medium, 1x large),
detect per crop, strip boundary-touching boxes, and merge everything with
soft-NMS. The "network" here is the geometry oracle, so every stage of the
pipeline is exercised without any trained weights.

Run:  python demos/05_saccade_end_to_end.py
"""

from fovea import (OracleModel, SaccadeConfig, gen_scene, iou, random_scene,
                   run_saccade)

spec = random_scene(seed=42, n_objects=5, hw=(510, 680), num_classes=3)
image, gt = gen_scene(spec)
print(f"scene: {len(gt)} objects on a {spec.height}x{spec.width} canvas")
for d in gt:
    print(f"  gt cls={d.cls} box={tuple(round(v, 1) for v in d.box)} "
          f"longer side={d.longer_side:.0f}px")

config = SaccadeConfig()  # t=0.3, zooms 4/2/1, k=12, radius 16, soft-nms 0.5
model = OracleModel(gt, num_classes=3)
trace = {}
dets = run_saccade(image, model, config, trace=trace)

print(f"\ncandidates: {trace['n_locations']} raw -> "
      f"{trace['n_kept_locations']} after suppression -> "
      f"{trace['n_crops']} crops (budget {config.max_regions})")
for c in trace["crops"]:
    print(f"  crop zoom={c['zoom']:.0f} origin=({c['x0']},{c['y0']}) "
          f"size_class={c['size_class']} detections={c['n_detections']}")

print(f"pixels processed / full resolution: {trace['pixels_ratio']:.2f} "
      f"({trace['pixels_processed']:,} / {trace['pixels_full_resolution']:,})")
# the model runs once per distinct input: a zoom-1 crop is the whole 255
# frame, so it reuses that frame's output
print(f"model calls: {trace['n_model_calls']} for 2 frames + {trace['n_crops']} crops")

confident = [d for d in dets if d.score > 0.5]
print(f"\nfinal detections above 0.5 ({len(confident)}):")
for d in confident:
    best = max(iou(d.box, g.box) for g in gt if g.cls == d.cls)
    print(f"  cls={d.cls} score={d.score:.2f} IoU vs gt = {best:.3f}")
print(f"(plus {len(dets) - len(confident)} low-score soft-NMS leftovers)")

# A tighter crop budget trades coverage for work:
tight = SaccadeConfig(max_regions=2)
trace2 = {}
run_saccade(image, model, tight, trace=trace2)
print(f"\nwith k=2: {trace2['n_crops']} crops, "
      f"pixel ratio {trace2['pixels_ratio']:.2f}")
