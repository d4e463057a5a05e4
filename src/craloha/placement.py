"""Replica slot selection under framed (FR) and sliding-window (SW) rules."""

from __future__ import annotations

import numpy as np

from .decoder import _kernel
from .model import AccessMode, SchemeConfig


def tx_frame_start(arrival_slots, frame_length: int):
    """Start of the frame a packet ready at ``arrival_slots`` transmits in
    (elementwise for an array of ready slots), with frames of
    ``frame_length`` slots starting at slot 0.

    Always the first frame start strictly after the ready slot: a packet
    ready exactly at a frame boundary waits one full frame, which keeps
    every decode delay strictly above the one-slot floor.
    """
    return frame_length * (arrival_slots // frame_length + 1)


def last_decode_slot(scheme: SchemeConfig, ready_slots):
    """Last slot at whose end a packet ready at ``ready_slots`` can still
    resolve (elementwise for an array): the receiver rule.

    A packet stays restorable for N_rx slots from its transmission start,
    so through ``start + N_rx - 1``. The start is the ready slot in SW and
    the next frame start in FR, whose N_rx is the frame length.
    """
    start = tx_frame_start(ready_slots, scheme.window_slots) if scheme.mode is AccessMode.FR else ready_slots
    return start + scheme.receiver_memory_slots - 1


def place_replicas(
    scheme: SchemeConfig, arrival_slots: np.ndarray, degrees: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Replica slots of every packet in CSR form: ``(flat, offsets)``.

    Packet ``p`` owns ``flat[offsets[p]:offsets[p+1]]``, sorted ascending.
    An FR packet puts its ``degree`` replicas uniformly without replacement
    in the frame after its ready slot. An SW packet sends its first replica
    in the ready slot and the other ``degree - 1`` uniformly without
    replacement in the next ``N_sw - 1`` slots.

    The rows draw by Floyd's subset sampling (Bentley & Floyd, CACM 30(9),
    1987), in one call of the compiled ``craloha_place``. With ``low`` 0
    (FR) or 1 (SW, whose column 0 is offset 0), column ``i`` from ``low`` to
    ``d - 1`` of a degree-``d`` row draws ``t`` uniform on ``[low, N - d +
    i]`` and takes ``N - d + i`` where ``t`` is already in the row. That is
    exact with no rejection step.

    The draws are numpy's own. The C loop reads ``rng``'s bit generator,
    under its lock, exactly as ``rng.integers(low, N - d + i + 1,
    size=count)`` would: for each degree ``d`` in ascending order, column
    ``i`` by column over that degree's ``count`` packets in packet order.
    So ``flat``, ``offsets`` and the state ``rng`` is left in are, bit for
    bit, those of a numpy loop over these calls, and a seed fixes the
    placement. A degree outside ``1..window_slots``, or ``arrival_slots``
    and ``degrees`` of different lengths, raise ``ValueError``.
    """
    n_window = scheme.window_slots
    arrival_slots = np.ascontiguousarray(arrival_slots, dtype=np.int64)
    degrees = np.ascontiguousarray(degrees, dtype=np.int64)
    n = len(degrees)
    if len(arrival_slots) != n:
        raise ValueError(f"arrival_slots has {len(arrival_slots)} entries for {n} packets")
    max_degree = int(degrees.max(initial=0))
    if n and (degrees.min() < 1 or max_degree > n_window):
        p = int(np.flatnonzero((degrees < 1) | (degrees > n_window))[0])
        raise ValueError(
            f"packet {p} has degree {int(degrees[p])}; {scheme.mode.value} degrees must lie in 1..{n_window}"
        )
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])
    flat = np.empty(int(offsets[-1]), dtype=np.int64)
    # FR draws every offset from [0, N_f) after the frame start; SW keeps
    # offset 0 (the ready slot) and draws the rest from [1, N_sw).
    fr = scheme.mode is AccessMode.FR
    low = 0 if fr else 1
    start = tx_frame_start(arrival_slots, n_window) if fr else arrival_slots
    # by_degree: the packets grouped by degree; draws: room for any one
    # degree's draws
    counts, by_degree = np.zeros(max_degree + 1, np.int64), np.empty(n, np.int64)
    draws = np.empty(len(flat) - n * low, np.int64)
    bitgen = rng.bit_generator
    with bitgen.lock:
        _kernel.craloha_place(
            start, degrees, offsets, n, n_window, low, bitgen.ctypes.bit_generator, max_degree, counts, by_degree,
            draws, flat,
        )
    return flat, offsets
