"""From corner maps to boxes, step by step, on oracle-rendered maps.

The oracle renders exactly what a perfect network would output for a known
scene: the training targets of ``corner_targets`` and ``attention_targets``,
scaled to a 0.9 peak. Decoding those maps has to reproduce the scene's
boxes. Along the way this shows the forward loss values the training recipe
would use, which the oracle's maps minimise.

Run:  python demos/04_corner_decoding_walkthrough.py
"""

import numpy as np

from fovea import (Detection, attention_targets, corner_targets, focal_loss, group_corners,
                   heatmap_peaks, iou, oracle_outputs, pull_push_offset_losses)

gt = [Detection(0, 1.0, (24.0, 40.5, 120.0, 180.25)),
      Detection(1, 1.0, (150.0, 30.0, 240.0, 90.0)),
      Detection(0, 1.0, (140.5, 140.0, 170.0, 166.0))]

maps = oracle_outputs(gt, num_classes=2)
print("oracle corner maps:", maps["tl_heat"].shape, "| peak cells:",
      int((maps["tl_heat"] > 0).sum()), "tl,", int((maps["br_heat"] > 0).sum()), "br")

# 1) peak extraction: 3x3 window-max suppression, then top-k with gathered
# offsets and embedding tags
tl = heatmap_peaks(maps["tl_heat"], k=10, offsets=maps["tl_off"], embeddings=maps["tl_embed"])
br = heatmap_peaks(maps["br_heat"], k=10, offsets=maps["br_off"], embeddings=maps["br_embed"],
                   kind="br")
for c in [c for c in tl if c.score > 0.5]:
    print(f"  tl corner cls={c.cls} cell=({c.x},{c.y}) off=({c.dx:.3f},{c.dy:.3f}) "
          f"tag={c.embed:.0f}")

# 2) grouping: same class, embedding gap <= 0.5, top-left above-and-left of
# bottom-right; coordinates scale back through the downsample factor
dets = group_corners(tl, br, embed_threshold=0.5, downsample_factor=255 / 64)
print("grouped detections (score > 0.5):")
for d in [d for d in dets if d.score > 0.5]:
    match = max(iou(d.box, g.box) for g in gt if g.cls == d.cls)
    print(f"  cls={d.cls} score={d.score:.2f} box={tuple(round(v, 2) for v in d.box)} "
          f"IoU vs gt = {match:.4f}")

# 3) attention training targets: each box contributes one positive pixel on
# the scale matching its longer side (<32 small, 32..96 medium, >96 large)
boxes = [g.box for g in gt]
for size, hw, stride in [("small", (64, 64), 4), ("medium", (32, 32), 8),
                         ("large", (16, 16), 16)]:
    t = attention_targets(boxes, hw, size, stride)
    print(f"attention targets [{size}]: {int(t.sum())} positives")

# 4) forward loss values against the corner targets: the cell floor(c / f)
# of each corner and its sub-cell offset, on the 64x64 grid over 255x255
targets = corner_targets(gt, num_classes=2, frame_hw=(255, 255), heat_hw=(64, 64))
heat, cells, offsets = targets["tl"]
print("tl target cells (x, y):", cells.tolist())
print("focal(perfect) =", focal_loss(heat, heat))
print("focal(oracle heat, p=0.9 at every target) =", round(focal_loss(maps["tl_heat"], heat), 6))
print("focal(single positive at p=0.5) =", round(focal_loss([[0.5]], [[1.0]]), 6))



def at_cells(name, kind):  # one oracle map's values at each object's target cell
    cells = targets[kind][1]
    return maps[name][0][:, cells[:, 1], cells[:, 0]].T


# the oracle's own embeddings and offsets against the offset targets; the
# maps hold float32, so the targets are compared at float32 too
emb = np.hstack([at_cells("tl_embed", "tl"), at_cells("br_embed", "br")])
off = np.stack([at_cells("tl_off", "tl"), at_cells("br_off", "br")], axis=1)
gt_off = np.stack([targets["tl"][2], targets["br"][2]], axis=1).astype(np.float32)
pull, push, offset = pull_push_offset_losses(emb, off, gt_off)
print(f"pull={pull} push={push} offset={offset}  (oracle maps at the target cells)")

emb = [[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]  # per-object corner embedding pairs
off = np.zeros((3, 2, 2))
pull, push, offset = pull_push_offset_losses(emb, off, off)
print(f"pull={pull} push={push} offset={offset}  (clean grouping fixture)")

emb_bad = [[1.0, 1.4], [1.5, 1.9]]  # spread pairs, crowded means
pull, push, offset = pull_push_offset_losses(emb_bad, off[:2], off[:2] + 0.4)
print(f"pull={pull:.3f} push={push:.3f} offset={offset:.3f}  (noisy fixture)")
