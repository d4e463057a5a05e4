"""Framed vs sliding-window peak throughput, regular and irregular degrees.

With saturated receiver memory (five windows) the sliding-window scheme
gains a couple of percent over framed CRDSA-2 and around 13% with the
irregular distributions, whose sharper decoding threshold benefits more from
breaking the frame boundaries. The peak also shifts toward higher load.
The last column is the gain at the unsaturated memory N_rx = 500, for
comparison.

About 20 s at this reduced scale; bump SLOTS/SEEDS to tighten the
estimates.
"""

import numpy as np

from craloha import SchemeConfig, TrafficConfig, named_distribution, run_simulation, throughput

SLOTS = 50_000
SEEDS = (1, 2)
WINDOW = 200
GRIDS = {
    "crdsa2": np.arange(0.56, 0.69, 0.02),
    "irsa4": np.arange(0.70, 0.87, 0.02),
    "irsa8": np.arange(0.74, 0.93, 0.02),
}


def peak(mode, dist, lams, n_rx=None):
    best = 0.0
    for lam in lams:
        vals = []
        for seed in SEEDS:
            scheme = SchemeConfig(
                mode=mode,
                window_slots=WINDOW,
                degree_distribution=named_distribution(dist),
                receiver_memory_slots=n_rx,
            )
            traffic = TrafficConfig(
                mean_arrival_rate=float(lam), total_slots=SLOTS, warmup_slots=2000, rng_seed=seed
            )
            vals.append(throughput(run_simulation(scheme, traffic)))
        best = max(best, float(np.mean(vals)))
    return best


print(f"{'distribution':>12} {'FR peak':>9} {'SW peak':>9} {'gain':>7} {'gain@500':>9}")
for dist, lams in GRIDS.items():
    fr = peak("FR", dist, lams)
    sw = peak("SW", dist, lams, n_rx=5 * WINDOW)
    sw500 = peak("SW", dist, lams, n_rx=500)
    print(f"{dist:>12} {fr:9.4f} {sw:9.4f} {100 * (sw / fr - 1):+6.1f}% {100 * (sw500 / fr - 1):+8.1f}%")
