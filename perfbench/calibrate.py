"""Rebuild ``bands.json``: the per-point throughput and loss bands.

Each simulation point of the benchmark is run with the point seeds of runs
``1..SEEDS`` (the same derivation the benchmark uses). A band is the seed-to-seed
mean plus or minus ``SIGMAS`` standard deviations, widened by ``FLOOR``, so a
program that draws a different but equally valid random stream still passes
while a wrong decoder or reduction does not::

    python3 perfbench/calibrate.py
"""

from __future__ import annotations

import json
import statistics
import time

from bench import BANDS_PATH, WORKLOADS, point_seed
from craloha import loss_rate, run_simulation, throughput

SEEDS = 30
SIGMAS = 6.0
FLOOR = 0.001


def main() -> int:
    points = {}
    for workload, pts in WORKLOADS.items():
        for index, point in enumerate(pts):
            thr, loss = [], []
            for seed in range(1, SEEDS + 1):
                r = run_simulation(*point.configs(point_seed(seed, index)))
                thr.append(throughput(r))
                loss.append(loss_rate(r))
            entry = {"workload": workload, "n_seeds": SEEDS}
            for key, values in (("throughput", thr), ("loss", loss)):
                mean, sd = statistics.fmean(values), statistics.stdev(values)
                half = SIGMAS * sd + FLOOR
                entry[key] = [max(0.0, mean - half), mean + half]
                entry[key + "_mean"] = mean
                entry[key + "_sd"] = sd
            points[point.name] = entry
            print(f"{point.name}: thr {entry['throughput']} loss {entry['loss']}", flush=True)
    payload = {
        "method": f"mean +- ({SIGMAS:g} sd + {FLOOR:g}) over run seeds 1..{SEEDS}",
        "generated": time.strftime("%Y-%m-%d"),
        "points": points,
    }
    with open(BANDS_PATH, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
