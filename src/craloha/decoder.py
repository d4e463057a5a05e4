"""Bounded receiver slot memory and the iterative peeling IC process.

The gateway ingests one slot at a time, keeps the most recent N_rx slots,
and at each slot end peels: any live slot holding exactly one instance of a
still-restorable packet resolves that packet, whose replicas are then
cancelled from every slot, possibly cascading.

A packet stays restorable only while its earliest replica slot is at or
above the live lower bound: ``t - N_rx + 1`` at slot ``t``, or the start of
the current frame for a frame-scoped (FR) memory. Once it falls below, the
packet is lost for good, and its remaining instances stay in their slots as
uncancellable interference. This is what bounds the decode delay by the
receiver memory span.

The run is decoded in one call over flat arrays, in the count/XOR
representation of LT and IBLT peeling decoders: each slot keeps the number
of its undecoded instances and the XOR of their packet ids, so a singleton
slot names its packet. Decoding a packet cancels its replicas in every
slot, future ones included, so only two kinds of slot need a visit: a slot
that holds exactly one instance when it is ingested, and a slot left with
one instance by a cancellation.
"""

from __future__ import annotations

import heapq
from array import array
from typing import NamedTuple

import numpy as np


class PeelOutcome(NamedTuple):
    """Per-packet result of one ``peel`` call, indexed by packet id."""

    decode_slots: np.ndarray  # slot at whose end the packet resolved; -1 if not decoded
    lost_at: np.ndarray  # slot at which an undecoded packet stopped being restorable; -1 otherwise
    order: np.ndarray  # decoded packet ids in resolution order
    clean: np.ndarray  # resolved from a slot that held one instance when ingested
    iteration_cap_hits: int


def peel(
    replica_flat: np.ndarray,
    replica_offsets: np.ndarray,
    n_slots: int,
    capacity: int,
    frame_scoped: bool = False,
    i_max: int = 50,
) -> PeelOutcome:
    """Stream slots ``0 .. n_slots-1`` through a ``capacity``-slot memory.

    Packet ``p``'s replica slots are ``replica_flat[replica_offsets[p] :
    replica_offsets[p+1]]``, sorted ascending. A ``frame_scoped`` memory
    holds the current frame of ``capacity`` slots (FR): a frame's undecoded
    packets are lost when it closes.

    Each slot's peel is a sequence of ascending scans: every decodable
    singleton met resolves its packet, and singletons created behind the
    scan position wait for the next scan. ``i_max`` caps the scans per
    slot; a cascade the cap cuts off resumes at the next slot unless a
    frame boundary clears it, and each such cut counts as one cap hit.

    An eviction happens when slot ``t`` is ingested (``lost_at = first
    replica + capacity``), a frame close at the end of the frame's last
    slot. A packet still restorable after the last slot keeps ``lost_at``
    at -1.
    """
    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")
    flat_a = np.asarray(replica_flat, dtype=np.int64)
    offsets_a = np.asarray(replica_offsets, dtype=np.int64)
    n = len(offsets_a) - 1
    first_a = flat_a[offsets_a[:-1]]
    size = max(n_slots, int(flat_a.max()) + 1 if len(flat_a) else 0)
    owner = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets_a))
    count_a = np.bincount(flat_a, minlength=size)
    xor_a = np.zeros(size, dtype=np.int64)
    np.bitwise_xor.at(xor_a, flat_a, owner)

    # Python-level buffers for the loop: int64 arrays, and a list for flat,
    # whose per-packet slices iterate fastest. A sorted list is a valid heap.
    events = np.flatnonzero(count_a[:n_slots] == 1).tolist()
    count = array("q", count_a.tobytes())
    xor = array("q", xor_a.tobytes())
    first = array("q", first_a.tobytes())
    offsets = array("q", offsets_a.tobytes())
    flat = flat_a.tolist()
    del owner, count_a, xor_a
    decode = array("q", [-1]) * n
    clean = bytearray(n)
    order: list[int] = []
    born: set[int] = set()  # slots that held one restorable instance when ingested
    carried: list[int] = []  # cap-cut candidates, resumed at slot resume_at
    resume_at = -1
    cap_hits = 0
    last = -1
    heappop, heappush, heapify = heapq.heappop, heapq.heappush, heapq.heapify
    while events:
        t = heappop(events)
        if t == last:
            continue
        if t >= n_slots:
            break
        last = t
        lo = t - t % capacity if frame_scoped else t - capacity + 1
        queue = [s for s in carried if count[s] == 1 and first[xor[s]] >= lo] if resume_at == t else []
        if count[t] == 1 and first[xor[t]] >= lo:
            born.add(t)
            queue.append(t)
        passes = 0
        while queue and passes < i_max:
            passes += 1
            heapify(queue)
            carry = []
            while queue:
                s = heappop(queue)
                if count[s] != 1:
                    continue  # emptied meanwhile
                p = xor[s]  # restorable: checked when s was queued
                decode[p] = t
                order.append(p)
                if s in born:
                    clean[p] = 1
                for r in flat[offsets[p] : offsets[p + 1]]:
                    c = count[r] - 1
                    count[r] = c
                    xor[r] ^= p
                    if c != 1:
                        continue
                    if r > t:
                        heappush(events, r)  # singleton on ingestion, unless cancelled further
                    elif first[xor[r]] < lo:
                        continue  # inert interference, never decodable
                    elif r > s:
                        heappush(queue, r)
                    else:
                        carry.append(r)
            queue = carry
        if queue:
            # resumed at the next slot, where a frame boundary or an eviction
            # filters out the packets that stopped being restorable
            cap_hits += 1
            carried, resume_at = queue, t + 1
            heappush(events, t + 1)

    decode_slots = np.array(decode, dtype=np.int64)
    if frame_scoped:
        lost_at = first_a - first_a % capacity + capacity - 1
    else:
        lost_at = first_a + capacity
    lost_at[(decode_slots >= 0) | (lost_at >= n_slots)] = -1
    return PeelOutcome(
        decode_slots=decode_slots,
        lost_at=lost_at,
        order=np.asarray(order, dtype=np.int64),
        clean=np.frombuffer(clean, dtype=np.uint8).astype(bool),
        iteration_cap_hits=cap_hits,
    )
