"""Micro-benchmarks: wall time next to exact MAC counts.

Timing is machine-specific; the MAC column is not, so time-per-MAC is
comparable across runs and machines.

Run:  python demos/06_benchmarks.py
"""

from fovea import bench

report = bench(["conv3x3", "conv7x7s2", "dwconv3x3", "tconv4x4", "maxpool3x3"],
               sizes=[32, 64], repetitions=5)
print(f"{'op':<12} {'size':>5} {'MMACs':>9} {'median ms':>10} {'p90 ms':>8}")
for e in report["entries"]:
    print(f"{e['op']:<12} {e['size']:>5} {e['macs'] / 1e6:>9.1f} "
          f"{e['median_s'] * 1e3:>10.3f} {e['p90_s'] * 1e3:>8.3f}")

print("\nwhole-backbone forwards at 255x255 (this is the slow part):")
report = bench(["forward_squeeze", "forward_hourglass54"], sizes=[255], repetitions=1)
for e in report["entries"]:
    per_mac = e["median_s"] / e["macs"] * 1e9
    print(f"{e['op']:<22} {e['macs'] / 1e9:>6.2f} GMACs  "
          f"median {e['median_s']:.2f}s  ({per_mac:.2f} ns/MAC)")
