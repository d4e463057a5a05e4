"""Reproducible per-slot Poisson packet arrivals.

Arrivals are attributed to slot starts: a packet counted in slot s is ready
at the start of s (in SW mode its first replica goes into slot s).
"""

from __future__ import annotations

import numpy as np

from .model import TrafficConfig


def generate_arrivals(cfg: TrafficConfig, rng: np.random.Generator) -> np.ndarray:
    """Independent Poisson(mean_arrival_rate) arrival count per slot, as an
    int64 array of length total_slots.

    numpy's Poisson sampler is exact (inversion / transformed rejection),
    not a normal approximation, so the tail is faithful at high rates.
    """
    return rng.poisson(cfg.mean_arrival_rate, size=cfg.total_slots).astype(np.int64, copy=False)
