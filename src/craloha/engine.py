"""One run: arrivals, replica placement, receiver peeling, finalization.

A run simulates ``total_slots`` of Poisson arrivals plus an arrival-free
drain so every in-flight packet resolves one way or the other. It places
every packet's replicas first, then streams the slots through the receiver
in one decoder call, finalizes each packet as decoded or lost, and checks
the delay-support invariants as hard postconditions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytics import delay_support_slots
from .decoder import PeelOutcome, peel
from .model import AccessMode, SchemeConfig, TimeConfig, TrafficConfig, sample_degrees
from .placement import last_decode_slot, place_replicas, tx_frame_start

TRACE_FIELDS = ("slot_index", "packet_id", "event", "cause")


class SimulationInvariantError(RuntimeError):
    """A hard postcondition of the run was violated."""


@dataclass(frozen=True, eq=False)
class RunResult:
    """Finalized per-packet outcomes plus the configuration echo.

    Packet fields are stored columnar (decode_slots holds -1 for lost
    packets). Packet ``p``'s replica slots are
    ``replica_flat[replica_offsets[p]:replica_offsets[p+1]]``, ascending.
    """

    scheme: SchemeConfig
    traffic: TrafficConfig
    time: TimeConfig
    arrival_slots: np.ndarray
    replica_flat: np.ndarray
    replica_offsets: np.ndarray
    decode_slots: np.ndarray

    @property
    def n_packets(self) -> int:
        return len(self.arrival_slots)

    @property
    def lost(self) -> np.ndarray:
        """Per-packet lost flag: ``decode_slots < 0``."""
        return self.decode_slots < 0

    def measurement_mask(self) -> np.ndarray:
        """Packets whose arrival falls in [warmup, total_slots)."""
        return (self.arrival_slots >= self.traffic.warmup_slots) & (
            self.arrival_slots < self.traffic.total_slots
        )

    def decoded_mask(self) -> np.ndarray:
        return self.decode_slots >= 0

    def delays_ms(self) -> np.ndarray:
        """Per-packet delivery delay in ms; NaN for lost packets.

        Counted from the ready slot (FR frame waiting included) to the end of
        the slot whose peel resolved the packet, plus one-way propagation.
        """
        d = np.full(self.n_packets, np.nan)
        ok = self.decoded_mask()
        d[ok] = self.time.propagation_delay_ms + (
            self.decode_slots[ok] - self.arrival_slots[ok] + 1
        ) * self.time.slot_duration_ms
        return d


def generate_arrivals(cfg: TrafficConfig, rng: np.random.Generator) -> np.ndarray:
    """Independent Poisson(mean_arrival_rate) arrival count per slot, as an
    int64 array of length total_slots.

    Arrivals are attributed to slot starts: a packet counted in slot s is
    ready at the start of s (in SW mode its first replica goes into slot s).
    numpy's Poisson sampler is exact (inversion / transformed rejection),
    not a normal approximation, so the tail is faithful at high rates.
    """
    return rng.poisson(cfg.mean_arrival_rate, size=cfg.total_slots).astype(np.int64, copy=False)


def drain_end_slot(scheme: SchemeConfig, traffic: TrafficConfig) -> int:
    """Exclusive end of the simulated slot range, drain included.

    SW drains N_rx arrival-free slots. FR drains to the end of the frame a
    packet ready at the last arrival slot would transmit in (exactly N_f
    extra slots when total_slots is frame-aligned).
    """
    if scheme.mode is AccessMode.FR:
        return tx_frame_start(traffic.total_slots - 1, scheme.window_slots) + scheme.window_slots
    return traffic.total_slots + scheme.receiver_memory_slots


def run_simulation(
    scheme: SchemeConfig,
    traffic: TrafficConfig,
    time: TimeConfig = TimeConfig(),
    trace_path=None,
) -> RunResult:
    """Simulate one run; deterministic given the configs and seed."""
    rng = np.random.default_rng(traffic.rng_seed)
    arrivals = generate_arrivals(traffic, rng)
    n_packets = int(arrivals.sum())
    degrees = sample_degrees(scheme.degree_distribution, rng, n_packets)
    arrival_slots = np.repeat(np.arange(traffic.total_slots, dtype=np.int64), arrivals)
    flat, offsets = place_replicas(scheme, arrival_slots, degrees, rng)
    del arrivals, degrees  # unused from here on; freed before the peel's peak

    fr = scheme.mode is AccessMode.FR
    end_slot = drain_end_slot(scheme, traffic)
    first = flat[offsets[:-1]]
    last = last_decode_slot(scheme, first)
    outcome = peel(flat, offsets, last, end_slot, i_max=scheme.max_ic_iterations)
    # The drain outlasts every packet's restorability, so each undecoded
    # packet has been lost by the last slot; the postconditions check it.
    lost = outcome.decode_slots < 0
    # An SW packet is evicted when the slot after its last one is ingested,
    # an FR packet lost when its frame closes at the end of its last slot.
    lost_at = np.where(lost, last + (not fr), -1)
    if trace_path is not None:
        _write_trace(trace_path, flat, offsets, outcome, lost_at, fr)

    result = RunResult(
        scheme=scheme,
        traffic=traffic,
        time=time,
        arrival_slots=arrival_slots,
        replica_flat=flat,
        replica_offsets=offsets,
        decode_slots=outcome.decode_slots,
    )
    _check_postconditions(result, first, lost_at, end_slot)
    return result


# Trace phases within one slot, in the order the receiver runs them.
_EVICT, _REPLICA, _DECODE, _FRAME_CLOSE = range(4)
# A trace line's "event,cause" tail, by tag: loss, replica, IC decode,
# clean decode, as one row of bytes each, padded with 0 bytes. A chunk of
# _TRACE_CHUNK lines is encoded as one uint8 matrix, a line per row: the
# slot digits, a comma, the id digits and the tail row, with 0 wherever the
# line is shorter than the matrix. No trace byte is 0, so dropping the 0s
# leaves the chunk's lines.
_TRACE_TAILS = np.array(
    [
        list(tail.ljust(15, b"\0"))
        for tail in (b",loss,-\r\n", b",replica,-\r\n", b",decode,ic\r\n", b",decode,clean\r\n")
    ],
    dtype=np.uint8,
)
# a phase's tag; a decode's tag is raised by one when it was clean
_PHASE_TAG = np.array([0, 1, 2, 0], dtype=np.uint8)
_TRACE_CHUNK = 8192


def _write_trace(path, flat, offsets, outcome: PeelOutcome, lost_at, fr: bool) -> None:
    """One CSV line per replica ingestion, decode, and loss, grouped by slot:
    evictions, replicas, decodes, then frame-close losses."""
    order = outcome.order
    lost = np.flatnonzero(lost_at >= 0)
    n_rep, n_dec = len(flat), len(order)
    # The sort key (slot * 4 + phase) << bits | index: the index is the
    # packet id of a replica or loss row and the position in order of a
    # decode row, so every key is distinct and sorts rows as the receiver
    # emits them, and each row's slot, phase and packet come back from it.
    bits = max(len(offsets) - 2, 1).bit_length()
    key = np.concatenate([flat, outcome.decode_slots[order], lost_at[lost]])
    key *= 4
    phases = np.array([_REPLICA, _DECODE, _FRAME_CLOSE if fr else _EVICT], dtype=np.uint8)
    key += np.repeat(phases, [n_rep, n_dec, len(lost)])
    key <<= bits
    packets = np.arange(len(offsets) - 1, dtype=np.min_scalar_type(len(offsets)))
    key[:n_rep] += np.repeat(packets, np.diff(offsets))
    key[n_rep : n_rep + n_dec] += np.arange(n_dec)
    key[n_rep + n_dec :] += lost
    key.sort()
    with open(path, "wb") as fh:
        fh.write(",".join(TRACE_FIELDS).encode() + b"\r\n")
        # A matrix per chunk, not per file: one for the whole file would add
        # about 30 bytes per line to the run's peak memory.
        for start in range(0, len(key), _TRACE_CHUNK):
            k = key[start : start + _TRACE_CHUNK]
            ids = k & ((1 << bits) - 1)
            phase = (k >> bits) & 3
            slot = k >> (bits + 2)
            tag = _PHASE_TAG[phase]
            decode = phase == _DECODE
            ids[decode] = order[ids[decode]]
            tag[decode] += outcome.clean[ids[decode]]
            ws, wp = len(str(slot[-1])), len(str(ids.max()))
            line = np.zeros((len(k), ws + 1 + wp + _TRACE_TAILS.shape[1]), dtype=np.uint8)
            _put_digits(line[:, :ws], slot)
            line[:, ws] = ord(",")
            _put_digits(line[:, ws + 1 : ws + 1 + wp], ids)
            line[:, ws + 1 + wp :] = np.take(_TRACE_TAILS, tag, axis=0)
            fh.write(line[line != 0])


def _put_digits(cols, values) -> None:
    """Write non-negative ``values`` in decimal into the uint8 matrix
    ``cols``, one per row, right-aligned; columns left of a value stay 0."""
    q = values
    for j in range(cols.shape[1] - 1, -1, -1):
        r = q // 10
        d = q - r * 10
        d += ord("0")
        if j < cols.shape[1] - 1:
            d *= q > 0
        cols[:, j] = d
        q = r


def _check_postconditions(r: RunResult, first: np.ndarray, lost_at: np.ndarray, end_slot: int) -> None:
    decoded = r.decoded_mask()
    if bool(np.any(lost_at >= end_slot)):
        raise SimulationInvariantError("conservation violated: packet restorable past the drain")
    if bool(np.any(r.decode_slots[decoded] < first[decoded])):
        raise SimulationInvariantError("decode before first replica slot")
    # Delay support, asserted on every run.
    diff = r.decode_slots[decoded] - r.arrival_slots[decoded] + 1
    lo, hi = delay_support_slots(r.scheme)
    out = (diff < lo) | (diff > hi)
    if bool(out.any()):
        raise SimulationInvariantError(
            f"delay support violated for packets {np.flatnonzero(decoded)[out][:5].tolist()} "
            f"(mode={r.scheme.mode.value}, diffs={diff[out][:5].tolist()})"
        )
