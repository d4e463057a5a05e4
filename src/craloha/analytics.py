"""Closed-form placement/delay/throughput quantities and a peeling oracle.

The per-slot placement probability is evaluated term by term from the
sequential-placement factors (it telescopes to degree/horizon for both the
framed and the sliding-window rule), and the fixpoint oracle re-decodes a
run's replica placements by repeated full rescans with no memory bound.
"""

from __future__ import annotations

import math

import numpy as np

from .model import AccessMode, SchemeConfig


def p_i(i: int, n: int) -> float:
    """Probability the i-th replica of a packet lands in a given slot out of
    n, given the slot holds none of the packet's earlier replicas."""
    if not 1 <= i <= n:
        raise ValueError(f"need 1 <= i <= n, got i={i}, n={n}")
    return 1.0 / (n - i + 1)


def p_not(j: int, n: int) -> float:
    """Probability that none of j sequentially placed replicas occupies a
    given slot out of n."""
    if not 0 <= j <= n:
        raise ValueError(f"need 0 <= j <= n, got j={j}, n={n}")
    return (n - j) / n


def p_first(window_slots: int, n: int) -> float:
    """Probability that a packet's ready slot fell within the window_slots-1
    slots before a given slot, so its window still covers that slot."""
    return (window_slots - 1) / n


def p_uins_fr_terms(degree: int, n_frame: int) -> list[float]:
    """Per-replica contributions to the framed per-slot placement probability."""
    if not 1 <= degree <= n_frame:
        raise ValueError(f"need 1 <= degree <= n_frame, got {degree}, {n_frame}")
    return [p_not(i - 1, n_frame) * p_i(i, n_frame) for i in range(1, degree + 1)]


def p_uins_fr(degree: int, n_frame: int) -> float:
    """Probability a framed packet puts a replica in a given frame slot;
    the term-by-term sum telescopes to degree/n_frame."""
    return sum(p_uins_fr_terms(degree, n_frame))


def p_uins_sw_terms(degree: int, horizon: int, window_slots: int) -> list[float]:
    """Per-replica contributions for the sliding-window rule.

    Term 0 is the first-replica term 1/horizon; terms j=1..degree-1 carry
    the window factor (window_slots-1)/horizon times the in-window placement
    factors over m = window_slots-1 candidate slots. When the window is
    saturated (degree == window_slots) the last factor pair degenerates to
    0 * 1/0; its algebraic product is 1/m, which is used directly.
    """
    if not 1 <= degree <= window_slots:
        raise ValueError(f"need 1 <= degree <= window_slots, got {degree}, {window_slots}")
    if window_slots > horizon:
        raise ValueError(f"window {window_slots} exceeds horizon {horizon}")
    terms = [p_i(1, horizon)]
    if degree == 1:
        return terms
    m = window_slots - 1
    factor = p_first(window_slots, horizon)
    for j in range(1, degree):
        inner = 1.0 / m if j == m else p_not(j, m) * p_i(j + 1, m)
        terms.append(factor * inner)
    return terms


def p_uins_sw(degree: int, horizon: int, window_slots: int) -> float:
    """Probability a sliding-window packet puts a replica in a given slot,
    averaged over a ready slot uniform on the preceding horizon; equals
    degree/horizon, the framed value."""
    return sum(p_uins_sw_terms(degree, horizon, window_slots))


def delay_support_slots(scheme: SchemeConfig) -> tuple[int, int]:
    """(min, max) of ``decode_slot - ready_slot + 1``, both inclusive: FR
    strictly above the one-slot floor and at most two frame spans, SW
    within the receiver memory span."""
    if scheme.mode is AccessMode.FR:
        return 2, 2 * scheme.window_slots
    return 1, scheme.receiver_memory_slots


def sa_throughput(g: float) -> float:
    """Classical slotted-ALOHA throughput G*exp(-G), the degree-1 oracle."""
    if g < 0:
        raise ValueError(f"load must be >= 0, got {g}")
    return g * math.exp(-g)


def oracle_decode(replica_flat, replica_offsets) -> np.ndarray:
    """Peeling fixpoint of a placement set by repeated full rescans.

    Takes the CSR pair ``peel`` takes: packet ``p``'s replica slots are
    ``replica_flat[replica_offsets[p]:replica_offsets[p+1]]``, distinct
    non-negative ints in any order. No memory bound and no ordering
    assumptions; returns the per-packet mask of the unique maximal
    decodable set. Each round counts the undecoded replicas per slot and
    decodes every packet with a replica alone in its slot; the rounds end
    when none is, so the undecoded remainder is a stopping set: every slot
    it occupies holds at least two of its instances.
    """
    flat = np.asarray(replica_flat, dtype=np.int64)
    offsets = np.asarray(replica_offsets, dtype=np.int64)
    owner = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    decoded = np.zeros(len(offsets) - 1, dtype=bool)
    slots = flat
    while len(slots):
        newly = owner[np.bincount(slots)[slots] == 1]
        if not len(newly):
            break
        decoded[newly] = True
        keep = ~decoded[owner]
        slots, owner = slots[keep], owner[keep]
    return decoded
