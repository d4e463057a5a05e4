"""Replica slot selection under framed (FR) and sliding-window (SW) rules."""

from __future__ import annotations

import numpy as np

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

    The rows of each degree ``d`` draw together by Floyd's subset sampling
    (Bentley & Floyd, CACM 30(9), 1987). With ``low`` 0 (FR) or 1 (SW, whose
    column 0 is offset 0), column ``i`` from ``low`` to ``d - 1`` draws
    ``t`` uniform on ``[low, N - d + i]`` and takes ``N - d + i`` where
    ``t`` is already in the row. That is exact with no rejection step, and
    the draws come from ``rng`` degree by degree in ascending order, a
    column at a time, so a seed fixes the placement. A degree outside
    ``1..window_slots`` raises ``ValueError``.
    """
    fr = scheme.mode is AccessMode.FR
    n_window = scheme.window_slots
    arrival_slots = np.asarray(arrival_slots, dtype=np.int64)
    degrees = np.asarray(degrees, dtype=np.int64)
    bad = np.flatnonzero((degrees < 1) | (degrees > n_window))
    if len(bad):
        p = int(bad[0])
        raise ValueError(
            f"packet {p} has degree {int(degrees[p])}; {scheme.mode.value} degrees must lie in 1..{n_window}"
        )
    offsets = np.zeros(len(degrees) + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])
    flat = np.empty(int(offsets[-1]), dtype=np.int64)
    # FR draws every offset from [0, N_f) after the frame start; SW keeps
    # offset 0 (the ready slot) and draws the rest from [1, N_sw).
    low = 0 if fr else 1
    start = tx_frame_start(arrival_slots, n_window) if fr else arrival_slots
    for d in np.flatnonzero(np.bincount(degrees)).tolist():
        rows = np.flatnonzero(degrees == d)
        # picks[i] is column i of every degree-d row; each new column is
        # moved down to its place, so the columns stay sorted
        picks = np.zeros((d, len(rows)), dtype=np.int64)
        for i in range(low, d):
            t = rng.integers(low, n_window - d + i + 1, size=len(rows))
            t[(picks[low:i] == t).any(axis=0)] = n_window - d + i
            picks[i] = t
            for j in range(i, low, -1):
                hi = np.maximum(picks[j - 1], picks[j])
                np.minimum(picks[j - 1], picks[j], out=picks[j - 1])
                picks[j] = hi
        picks += start[rows]
        flat[offsets[rows] + np.arange(d)[:, None]] = picks
    return flat, offsets
