"""Replica slot selection under framed (FR) and sliding-window (SW) rules."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .model import AccessMode, SchemeConfig


@dataclass(frozen=True)
class FrameGrid:
    """Partition of the timeline into frames of frame_length slots."""

    frame_length: int
    origin: int = 0

    def frame_index(self, slot: int) -> int:
        return (slot - self.origin) // self.frame_length

    def frame_start(self, frame: int) -> int:
        return self.origin + frame * self.frame_length

    def tx_frame_start(self, arrival_slot: int) -> int:
        """Start of the frame a packet ready at ``arrival_slot`` transmits in.

        Always the first frame start strictly after the ready slot: a packet
        ready exactly at a frame boundary waits one full frame, which keeps
        every decode delay strictly above the one-slot floor.
        """
        return self.origin + self.frame_length * (self.frame_index(arrival_slot) + 1)


def sample_without_replacement(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """k distinct uniform draws from range(n), unsorted.

    Rejection for sparse draws (typical: degree << window), partial shuffle
    when k is a sizable fraction of n. Both are exact.
    """
    if k == 0:
        return np.empty(0, dtype=np.int64)
    if k > n:
        raise ValueError(f"cannot draw {k} distinct values from range({n})")
    if 3 * k >= n:
        return rng.permutation(n)[:k].astype(np.int64, copy=False)
    picked: set[int] = set()
    while len(picked) < k:
        picked.update(rng.integers(0, n, size=k - len(picked)).tolist())
    return np.fromiter(picked, dtype=np.int64, count=k)


def place_fr(arrival_slot: int, degree: int, grid: FrameGrid, rng: np.random.Generator) -> tuple[int, ...]:
    """Replica slots for a framed packet: ``degree`` distinct slots drawn
    uniformly without replacement from the packet's transmission frame."""
    n_f = grid.frame_length
    if degree > n_f:
        raise ValueError(f"degree {degree} exceeds frame of {n_f} slots")
    start = grid.tx_frame_start(arrival_slot)
    offsets = sample_without_replacement(rng, n_f, degree)
    offsets.sort()
    return tuple(int(start + o) for o in offsets)


def place_sw(arrival_slot: int, degree: int, window_slots: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Replica slots for a sliding-window packet.

    The first replica is sent in the ready slot itself; the remaining
    degree-1 replicas land uniformly without replacement in the next
    window_slots-1 slots.
    """
    if degree > window_slots:
        raise ValueError(f"degree {degree} exceeds window of {window_slots} slots")
    if degree == 1:
        return (arrival_slot,)
    offsets = sample_without_replacement(rng, window_slots - 1, degree - 1)
    offsets.sort()
    return (arrival_slot, *(int(arrival_slot + 1 + o) for o in offsets))


def place_replicas(
    scheme: SchemeConfig, arrival_slots: np.ndarray, degrees: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Replica slots of every packet in CSR form: ``(flat, offsets)``.

    Packet ``p`` owns ``flat[offsets[p]:offsets[p+1]]``, sorted ascending.
    Wide windows (``3 * max_degree`` under the number of eligible offsets)
    take one uniform pool draw for all replicas and redraw, in packet order,
    only the rows that came out with a duplicate; narrow windows call
    ``place_fr``/``place_sw`` once per packet. Both are exact uniform
    sampling without replacement, and the draws come from ``rng`` in the
    same order on every call, so a seed fixes the placement.
    """
    fr = scheme.mode is AccessMode.FR
    n_window = scheme.window_slots
    arrival_slots = np.asarray(arrival_slots, dtype=np.int64)
    degrees = np.asarray(degrees, dtype=np.int64)
    offsets = np.zeros(len(degrees) + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])
    if 3 * scheme.degree_distribution.max_degree < (n_window if fr else n_window - 1):
        return _place_wide(fr, n_window, arrival_slots, degrees, offsets, rng), offsets
    grid = FrameGrid(n_window)
    rows = [
        place_fr(t, l, grid, rng) if fr else place_sw(t, l, n_window, rng)
        for t, l in zip(arrival_slots.tolist(), degrees.tolist())
    ]
    return np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=int(offsets[-1])), offsets


def _place_wide(fr, n_window, arrival_slots, degrees, offsets, rng) -> np.ndarray:
    """Pool placement: FR rows draw every replica offset from [0, N_f);
    SW rows start with offset 0 (the arrival slot) and draw the other
    ``degree - 1`` from [1, N_sw)."""
    n_replicas = int(offsets[-1])
    if n_replicas == 0:
        return np.empty(0, dtype=np.int64)
    # low: smallest drawn offset, and the count of undrawn entries heading a row
    low = 0 if fr else 1
    if fr:
        vals = rng.integers(0, n_window, size=n_replicas)
        base = (arrival_slots // n_window + 1) * n_window
    else:
        vals = np.zeros(n_replicas, dtype=np.int64)
        drawn = np.ones(n_replicas, dtype=bool)
        drawn[offsets[:-1]] = False
        if n_replicas > len(degrees):
            vals[drawn] = rng.integers(1, n_window, size=n_replicas - len(degrees))
        base = arrival_slots
    # One sort of row * N + offset sorts every row; equal neighbours are duplicates.
    key = np.repeat(np.arange(len(degrees), dtype=np.int64) * n_window, degrees) + vals
    key.sort()
    dup_rows = np.unique(key[1:][key[1:] == key[:-1]] // n_window)
    vals = key % n_window
    for p in dup_rows.tolist():
        lo, hi = int(offsets[p]) + low, int(offsets[p + 1])
        picked = set(vals[lo:hi].tolist())
        while len(picked) < hi - lo:
            picked.update(rng.integers(low, n_window, size=hi - lo - len(picked)).tolist())
        vals[lo:hi] = sorted(picked)
    return vals + np.repeat(base, degrees)


def shared_window_slots(arrival_gap_slots: int, window_slots: int) -> int:
    """Number of eligible slots shared by two packets whose ready slots are
    ``arrival_gap_slots`` apart; same-slot arrivals share the full window."""
    if arrival_gap_slots < 0:
        raise ValueError(f"arrival gap must be >= 0, got {arrival_gap_slots}")
    return max(0, window_slots - arrival_gap_slots)
