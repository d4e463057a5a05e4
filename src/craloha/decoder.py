"""Bounded receiver slot memory and the iterative peeling IC process.

The gateway ingests one slot at a time and at each slot end peels: any
slot holding exactly one instance of a still-restorable packet resolves
that packet, whose replicas are then cancelled from every slot, possibly
cascading.

The receiver rule comes in as one deadline per packet: packet ``p``
resolves at the end of slot ``t`` only while ``t <= last_slots[p]``. Past
its deadline the packet is lost for good, and its remaining instances stay
in their slots as uncancellable interference. This is what bounds the
decode delay by the receiver memory span.

The run is decoded in one call over flat arrays, in the count/XOR
representation of LT and IBLT peeling decoders: each slot keeps the number
of its undecoded instances and the XOR of their packet ids, so a singleton
slot names its packet. Decoding a packet cancels its replicas in every
slot, future ones included, so only two kinds of slot need a visit: a slot
that holds exactly one instance when it is ingested, and a slot left with
one instance by a cancellation.

A numpy pre-pass first resolves, in rounds, every packet left alone in its
first replica slot once the packets of earlier rounds are cancelled. This
is exact: no packet resolves before its first replica slot, and every other
instance there belongs to a packet with an earlier first slot that the
pre-pass has resolved, so the packet resolves clean at the end of that
slot. It is the only decode there, or the last decode of the first scan
when a cut-off cascade resumes there. The remaining slots are visited by a
forward scan over one flag per slot; every flag is raised ahead of the scan
position, by a cancellation that leaves a later slot with one instance or
by a cut-off cascade resuming at the next slot. Where no cascade resumes,
the first scan holds at most the slot itself, a decodable singleton when
ingested: its packet is decoded directly, and the heap-ordered scans start
only if the cancellations left a decodable singleton behind the slot. Where
a cascade resumes, the heap-ordered scans start at the first, over the
cascade's candidates and the slot itself if it is a decodable singleton.

The loop holds each slot's count and XOR as one Python int, and reads the
replica slots, offsets and deadlines in place, so it holds no Python int per
replica. The XORs are built by one scatter per degree position, without a
per-replica array of owner ids.
"""

from __future__ import annotations

import heapq
from array import array
from typing import NamedTuple

import numpy as np


class PeelOutcome(NamedTuple):
    """Per-packet result of one ``peel`` call, indexed by packet id."""

    decode_slots: np.ndarray  # slot at whose end the packet resolved; -1 if not decoded
    order: np.ndarray  # decoded packet ids in resolution order
    clean: np.ndarray  # resolved from a slot that held one instance when ingested
    iteration_cap_hits: int


def peel(
    replica_flat: np.ndarray,
    replica_offsets: np.ndarray,
    last_slots: np.ndarray,
    n_slots: int,
    i_max: int = 50,
) -> PeelOutcome:
    """Stream slots ``0 .. n_slots-1`` through the receiver.

    Packet ``p``'s replica slots are ``replica_flat[replica_offsets[p] :
    replica_offsets[p+1]]``, sorted ascending, and ``p`` resolves at the end
    of slot ``t`` only while ``t <= last_slots[p]``.

    Each slot's peel is a sequence of ascending scans, the first over the
    candidates of a cascade resuming at the slot and the slot itself: every
    decodable singleton met resolves its packet, and singletons created
    behind the scan position wait for the next scan. ``i_max`` caps the
    scans per slot; a cascade the cap cuts off resumes at the next slot,
    without the packets whose deadline has passed, and each such cut counts
    as one cap hit.
    """
    if i_max < 1:
        raise ValueError(f"i_max must be >= 1, got {i_max}")
    flat_a = np.asarray(replica_flat, dtype=np.int64)
    offsets_a = np.asarray(replica_offsets, dtype=np.int64)
    n = len(offsets_a) - 1
    first_a = flat_a[offsets_a[:-1]]
    last_a = np.asarray(last_slots, dtype=np.int64)
    early = np.flatnonzero(last_a < first_a)
    if len(early):
        p = int(early[0])
        raise ValueError(
            f"packet {p} has last slot {int(last_a[p])} before its first replica slot {int(first_a[p])}"
        )
    size = max(n_slots, int(flat_a.max()) + 1 if len(flat_a) else 0)
    count_a = np.bincount(flat_a, minlength=size)
    xor_a = _slot_xors(flat_a, offsets_a, first_a, size)
    decode = array("q", [-1]) * n
    clean = bytearray(n)
    pre_ids = _resolve_first_slots(flat_a, offsets_a, first_a, count_a, xor_a, n_slots, decode, clean)
    del first_a
    singles = count_a[:n_slots] == 1
    if not singles.any():
        return _outcome(decode, clean, array("q"), pre_ids, 0)  # nothing left to visit

    # Buffers for the loop: a flag per slot that is to be visited, raised
    # only ahead of the scan position, and a list each for count and xor, one
    # Python int per slot: the loop reads and writes them most, and a list
    # item is read without boxing a new int. Count's small values are cached
    # ints; xor holds a 32-byte int per occupied slot. Flat, offsets and
    # last, one item per replica or packet, are read in place through
    # memoryviews of the int64 arrays: a list would hold a 32-byte int each.
    flags = bytearray(size + 1)
    flags[:n_slots] = singles.tobytes()
    del singles
    count = count_a.tolist()
    del count_a
    xor = xor_a.tolist()
    del xor_a
    flat, offsets, last = map(memoryview, (flat_a, offsets_a, last_a))
    order = array("q")
    met: list[int] = []  # pre-resolved packets ordered by a resumed cascade
    carried: list[int] = []  # cap-cut candidates, resumed at slot resume_at
    resume_at = -1
    cap_hits = 0
    heappop, heappush, heapify, find = heapq.heappop, heapq.heappush, heapq.heapify, flags.find
    t = find(1, 0, n_slots)
    while t >= 0:
        if resume_at != t:
            # The first pass holds at most the born singleton: decoded here,
            # without the heap. Its cancellations behind t are pass 2.
            p = xor[t]
            if count[t] != 1 or last[p] < t:
                t = find(1, t + 1, n_slots)
                continue
            decode[p] = t
            order.append(p)
            clean[p] = 1
            queue = []
            for r in flat[offsets[p] : offsets[p + 1]]:
                c = count[r] - 1
                count[r] = c
                xor[r] ^= p
                if c != 1:
                    continue
                if r > t:
                    flags[r] = 1
                elif last[xor[r]] >= t:
                    queue.append(r)
            if not queue:
                t = find(1, t + 1, n_slots)
                continue
            born, pre, passes = True, -1, 1
        else:
            # the first pass: a resumed cascade's candidates, then a born singleton
            queue = [s for s in carried if count[s] == 1 and last[xor[s]] >= t]
            born = count[t] == 1 and last[xor[t]] >= t
            pre = -1
            if born:
                queue.append(t)
            elif count[t] == 0 and decode[xor[t]] == t:
                pre = xor[t]  # resolved at t by the pre-pass: last of the first pass
                met.append(pre)
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
                if s == t and born:
                    clean[p] = 1
                for r in flat[offsets[p] : offsets[p + 1]]:
                    c = count[r] - 1
                    count[r] = c
                    xor[r] ^= p
                    if c != 1:
                        continue
                    if r > t:
                        flags[r] = 1  # singleton on ingestion, unless cancelled further
                    elif last[xor[r]] < t:
                        continue  # inert interference, never decodable
                    elif r > s:
                        heappush(queue, r)
                    else:
                        carry.append(r)  # behind the scan: the next pass
            if pre >= 0:
                order.append(pre)
                pre = -1
            queue = carry
        if pre >= 0:
            order.append(pre)  # no first pass ran
        if queue:
            # resumed at the next slot, which filters out the packets whose
            # deadline has passed
            cap_hits += 1
            carried, resume_at = queue, t + 1
            flags[t + 1] = 1
        t = find(1, t + 1, n_slots)

    if met:
        pre_ids = pre_ids[~np.isin(pre_ids, met)]
    return _outcome(decode, clean, order, pre_ids, cap_hits)


def _outcome(decode, clean, order, pre_ids, cap_hits) -> PeelOutcome:
    """The outcome from the loop's buffers; each pre-resolved packet in
    ``pre_ids`` is the only decode at its slot."""
    decode_slots = np.frombuffer(decode, dtype=np.int64)
    main = np.frombuffer(order, dtype=np.int64)
    order_a = np.insert(main, np.searchsorted(decode_slots[main], decode_slots[pre_ids]), pre_ids)
    return PeelOutcome(
        decode_slots=decode_slots,
        order=order_a,
        clean=np.frombuffer(clean, dtype=bool),
        iteration_cap_hits=cap_hits,
    )


def _slot_xors(flat, offsets, first, size):
    """Per slot, the XOR of the ids of the packets with a replica there, by
    one scatter per degree position: no per-replica array of owner ids."""
    xor = np.zeros(size, dtype=np.int64)
    np.bitwise_xor.at(xor, first, np.arange(len(first)))
    deg = np.diff(offsets)
    for j in range(1, int(deg.max()) if len(deg) else 0):
        ids = np.flatnonzero(deg > j)  # the packets with a replica at position j
        np.bitwise_xor.at(xor, flat[offsets[ids] + j], ids)
    return xor


def _resolve_first_slots(flat, offsets, first, count, xor, n_slots, decode, clean):
    """Resolve, before the slot loop, every packet left alone in its first
    replica slot once the packets found in earlier rounds are cancelled.

    Such a packet resolves clean at the end of its first slot ``f``, as it
    would in the slot loop: it cannot resolve earlier, all its replicas
    being at or after ``f``, and every other instance in ``f`` belongs to a
    packet that an earlier round resolved at its own first slot, before
    ``f``, so ``f`` holds the packet alone when it is ingested. Writes the
    decodes into the ``decode``/``clean`` buffers, cancels the packets'
    replicas from ``count``/``xor`` (``f`` keeps the id in ``xor``, with a
    zero count) and returns their ids in slot order.
    """
    decode, clean = np.frombuffer(decode, dtype=np.int64), np.frombuffer(clean, dtype=np.uint8)
    resolved = np.zeros(len(count), dtype=bool)
    slots = np.flatnonzero(count[:n_slots] == 1)
    while True:
        ids = xor[slots]
        hit = first[ids] == slots
        if not hit.any():
            return xor[np.flatnonzero(resolved)]
        slots, ids = slots[hit], ids[hit]
        resolved[slots] = True
        decode[ids] = slots
        clean[ids] = 1
        count[slots] = 0
        # cancel every later replica of the resolved packets
        start = offsets[ids] + 1
        lengths = offsets[ids + 1] - start
        ends = lengths.cumsum()
        touched = flat[(start - ends + lengths).repeat(lengths) + np.arange(ends[-1])]
        np.subtract.at(count, touched, 1)
        np.bitwise_xor.at(xor, touched, ids.repeat(lengths))
        touched = distinct(touched[touched < n_slots])
        slots = touched[count[touched] == 1]


def distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values by one sort: ``np.unique`` without
    ``return_inverse`` hashes on numpy >= 2.3, which took 4.2 ms against
    0.25 ms for this on 20k int64 values, and 24 ms against 1 ms on the
    90k replica keys of a 50k-slot trace. That path also calls
    ``np.ma.is_masked``, whose import of ``numpy.ma`` costs a fresh process
    13-15 ms and 1.3 MB."""
    v = np.sort(values)
    keep = np.ones(len(v), dtype=bool)
    keep[1:] = v[1:] != v[:-1]
    return v[keep]
