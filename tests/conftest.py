from typing import NamedTuple

import numpy as np
import pytest

from craloha import DegreeDistribution, SchemeConfig, TrafficConfig, named_distribution
from craloha.analytics import oracle_decode
from craloha.decoder import peel


def make_scheme(mode="SW", window=100, dist="crdsa2", n_rx=None, i_max=50):
    if isinstance(dist, str):
        dist = named_distribution(dist)
    if n_rx is None and mode == "SW":
        n_rx = 5 * window
    return SchemeConfig(
        mode=mode,
        window_slots=window,
        degree_distribution=dist,
        receiver_memory_slots=n_rx,
        max_ic_iterations=i_max,
    )


def make_traffic(lam=0.5, total=20_000, warmup=None, seed=1, window=100):
    if warmup is None:
        warmup = min(10 * window, total - 1)
    return TrafficConfig(
        mean_arrival_rate=lam, total_slots=total, warmup_slots=warmup, rng_seed=seed
    )


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def degree1():
    return DegreeDistribution(((1, 1.0),))


class Fed(NamedTuple):
    """Decoder outcome keyed by the caller's packet ids."""

    order: list  # decoded ids in resolution order
    decode_slot: dict  # decoded id -> slot at whose end it resolved
    clean: set  # ids resolved from a slot holding one instance when ingested
    lost: dict  # id -> slot at which it stopped being restorable
    iteration_cap_hits: int


def _csr(placements):
    """Sorted packet ids and the CSR arrays of a ``{packet id: replica
    slots}`` mapping, each packet's slots ascending."""
    ids = sorted(placements)
    rows = [sorted(placements[pid]) for pid in ids]
    offsets = np.cumsum([0] + [len(r) for r in rows])
    flat = np.array([s for r in rows for s in r], dtype=np.int64)
    return ids, flat, offsets


def feed(placements, capacity, frame_scoped=False, i_max=50, n_slots=None):
    """Decode a ``{packet id: replica slots}`` mapping over slots
    ``0 .. n_slots-1`` (default: through the last replica slot) with a
    ``capacity``-slot memory, or ``capacity``-slot frames if
    ``frame_scoped``. The deadlines and loss slots are worked out here, not
    by ``placement.last_decode_slot``, so the slot-by-slot reference checks
    the receiver rule independently."""
    ids, flat, offsets = _csr(placements)
    if n_slots is None:
        n_slots = int(flat.max()) + 1 if len(flat) else 0
    first = flat[offsets[:-1]]
    if frame_scoped:
        # the frame closes at the end of its last slot
        last = first - first % capacity + capacity - 1
        lost_at = last
    else:
        # the first replica slot is evicted when slot first + capacity is ingested
        last = first + capacity - 1
        lost_at = first + capacity
    out = peel(flat, offsets, last, n_slots, i_max=i_max)
    lost = (out.decode_slots < 0) & (lost_at < n_slots)
    return Fed(
        order=[ids[p] for p in out.order],
        decode_slot={ids[p]: int(out.decode_slots[p]) for p in out.order},
        clean={ids[p] for p in np.flatnonzero(out.clean)},
        lost={ids[p]: int(lost_at[p]) for p in np.flatnonzero(lost)},
        iteration_cap_hits=out.iteration_cap_hits,
    )


def oracle(placements):
    """The fixpoint oracle's decoded id set of a ``{packet id: replica
    slots}`` mapping."""
    ids, flat, offsets = _csr(placements)
    return {ids[p] for p in np.flatnonzero(oracle_decode(flat, offsets))}
