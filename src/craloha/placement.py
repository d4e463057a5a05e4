"""Replica slot selection under framed (FR) and sliding-window (SW) rules."""

from __future__ import annotations

import numpy as np

from .decoder import distinct
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


def last_decode_slot(scheme: SchemeConfig, first_slots):
    """Last slot at whose end a packet with first replica in ``first_slots``
    can still resolve (elementwise for an array): the receiver rule.

    SW keeps a packet restorable while its first replica slot is among the
    N_rx most recent slots, so through ``first + N_rx - 1``; FR keeps it
    through the last slot of its frame.
    """
    if scheme.mode is AccessMode.FR:
        n_f = scheme.window_slots
        return first_slots - first_slots % n_f + n_f - 1
    return first_slots + scheme.receiver_memory_slots - 1


def place_replicas(
    scheme: SchemeConfig, arrival_slots: np.ndarray, degrees: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Replica slots of every packet in CSR form: ``(flat, offsets)``.

    Packet ``p`` owns ``flat[offsets[p]:offsets[p+1]]``, sorted ascending.
    An FR packet puts its ``degree`` replicas uniformly without replacement
    in the frame after its ready slot. An SW packet sends its first replica
    in the ready slot and the other ``degree - 1`` uniformly without
    replacement in the next ``N_sw - 1`` slots. Wide windows
    (``3 * max_degree`` under the number of eligible offsets) take one
    uniform pool draw and redraw the rows that came out with a duplicate;
    narrow windows shuffle each row's eligible offsets. Both are exact, and
    the draws come from ``rng`` in the same order on every call, so a seed
    fixes the placement. A degree outside ``1..window_slots`` raises
    ``ValueError``.
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
    # FR draws every offset from [0, N_f) after the frame start; SW keeps
    # offset 0 (the ready slot) and draws the rest from [1, N_sw).
    low = 0 if fr else 1
    k = degrees - low
    if k.any():
        wide = 3 * scheme.degree_distribution.max_degree < n_window - low
        vals = (_sample_wide if wide else _sample_narrow)(k, low, n_window, rng)
    else:
        vals = np.zeros(0, dtype=np.int64)
    if not fr:
        # each SW row starts with offset 0; allocated after the draw, so
        # that the two do not peak together
        drawn = np.ones(int(offsets[-1]), dtype=bool)
        drawn[offsets[:-1]] = False
        placed = np.zeros(len(drawn), dtype=np.int64)
        placed[drawn] = vals
        vals = placed
    vals += np.repeat(tx_frame_start(arrival_slots, n_window) if fr else arrival_slots, degrees)
    return vals, offsets


def _sample_wide(k, low, n, rng) -> np.ndarray:
    """Row ``p`` draws ``k[p]`` distinct values from [low, n), rows
    concatenated, each sorted: one pool draw, then a redraw, in row order,
    of only the rows that came out with a duplicate.

    A row redraws as many values as it lacks distinct ones, round after
    round, until it has ``k[p]``. The rows take their redraws in order from
    one batched buffer, and the generator is then set to where it would be
    after only the values they took: ``rng.integers`` draws split across
    calls equal one batched draw and leave the same state, so the values
    and the final state are those of one call per round."""
    koff = np.zeros(len(k) + 1, dtype=np.int64)
    np.cumsum(k, out=koff[1:])
    # One sort of row * n + value sorts every row; equal neighbours are duplicates.
    key = np.repeat(np.arange(len(k), dtype=np.int64) * n, k)
    key += rng.integers(low, n, size=int(koff[-1]))
    key.sort()
    dup_rows = distinct(key[1:][key[1:] == key[:-1]] // n)
    vals = np.remainder(key, n, out=key)
    if not len(dup_rows):
        return vals
    # the duplicate rows' positions in vals, row after row
    sizes = k[dup_rows]
    ends = np.cumsum(sizes)
    pos = np.arange(ends[-1]) + np.repeat(koff[dup_rows] - ends + sizes, sizes)
    dup_vals = vals[pos].tolist()
    rows = [set(dup_vals[lo:hi]) for lo, hi in zip((ends - sizes).tolist(), ends.tolist())]
    batch = len(pos) - sum(map(len, rows))  # what the first round lacks
    state = rng.bit_generator.state
    pool: list[int] = []
    used = 0
    for picked, size in zip(rows, sizes.tolist()):
        while len(picked) < size:
            need = size - len(picked)
            if used + need > len(pool):
                pool += rng.integers(low, n, size=batch + need).tolist()
            picked.update(pool[used : used + need])
            used += need
    rng.bit_generator.state = state
    rng.integers(low, n, size=used)
    vals[pos] = [v for picked in rows for v in sorted(picked)]
    return vals


def _sample_narrow(k, low, n, rng) -> np.ndarray:
    """Same contract as ``_sample_wide``, for windows holding few more
    values than a row draws: one Fisher-Yates shuffle of [low, n) per row,
    whose first ``k[p]`` entries are a uniform ``k[p]``-subset."""
    kmax = int(k.max())
    eligible = np.arange(low, n, dtype=np.min_scalar_type(n))
    picks = rng.permuted(np.broadcast_to(eligible, (len(k), n - low)), axis=1)[:, :kmax]
    # Entries past a row's k become n, which sorts last and is dropped.
    picks[np.arange(kmax) >= k[:, None]] = n
    picks.sort(axis=1)
    return picks[picks < n].astype(np.int64)
