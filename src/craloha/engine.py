"""One run (arrivals, replica placement, peeling, finalization) and its trace.

A run simulates ``total_slots`` of Poisson arrivals plus an arrival-free
drain so every in-flight packet resolves one way or the other. It places
every packet's replicas first, then streams the slots through the receiver
in one decoder call, finalizes each packet as decoded or lost, and checks
the delay-support invariants as hard postconditions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .analytics import delay_support_slots
from .decoder import PeelOutcome, peel
from .model import AccessMode, SchemeConfig, TimeConfig, TrafficConfig, sample_degrees
from .placement import last_decode_slot, place_replicas


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

    def delay_slots(self) -> np.ndarray:
        """Per-packet delay in whole slots, ``decode_slot - ready_slot + 1``:
        from the start of the ready slot (FR frame waiting included) to the
        end of the slot whose peel resolved the packet. Meaningless for lost
        packets."""
        return self.decode_slots - self.arrival_slots + 1

    def delays_ms(self) -> np.ndarray:
        """Per-packet delivery delay in ms; NaN for lost packets."""
        d = np.full(self.n_packets, np.nan)
        ok = self.decoded_mask()
        d[ok] = self.time.delay_ms(self.delay_slots()[ok])
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
    """Exclusive end of the simulated slot range, drain included: one past
    the slot in which a packet ready at the last arrival slot is finalized."""
    return _finalized_at(scheme, last_decode_slot(scheme, traffic.total_slots - 1)) + 1


def _finalized_at(scheme: SchemeConfig, last):
    """The slot in which a packet still undecoded at its last decode slot
    ``last`` is lost: that slot in FR, whose frame closes at its end; the
    next in SW, whose ingestion evicts the packet."""
    return last + (scheme.mode is AccessMode.SW)


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

    end_slot = drain_end_slot(scheme, traffic)
    last = last_decode_slot(scheme, arrival_slots)
    outcome = peel(flat, offsets, last, end_slot, i_max=scheme.max_ic_iterations)
    # The drain outlasts every packet's restorability, so each undecoded
    # packet has been lost by the last slot; the postconditions check it.
    lost_at = np.where(outcome.decode_slots < 0, _finalized_at(scheme, last), -1)
    if trace_path is not None:
        _write_trace(trace_path, flat, offsets, outcome, lost_at, scheme.mode is AccessMode.FR)

    result = RunResult(
        scheme=scheme,
        traffic=traffic,
        time=time,
        arrival_slots=arrival_slots,
        replica_flat=flat,
        replica_offsets=offsets,
        decode_slots=outcome.decode_slots,
    )
    _check_postconditions(result, lost_at, end_slot)
    return result


# Trace phases within one slot, in the order the receiver runs them.
_EVICT, _REPLICA, _DECODE, _FRAME_CLOSE = range(4)
_TRACE_HEADER = b"slot_index,packet_id,event,cause"
# A trace line's "event,cause" tail, by tag: loss, replica, IC decode,
# clean decode. The writer and the reader both take the format from here.
_TAILS = (b",loss,-", b",replica,-", b",decode,ic", b",decode,clean")
# The tails as rows of bytes, CRLF-ended and padded with 0 bytes. A chunk of
# _TRACE_CHUNK lines is encoded as one uint8 matrix, a line per row: the
# slot digits, a comma, the id digits and the tail row, with 0 wherever the
# line is shorter than the matrix. No trace byte is 0, so dropping the 0s
# leaves the chunk's lines.
_TRACE_TAILS = np.array([list((tail + b"\r\n").ljust(15, b"\0")) for tail in _TAILS], dtype=np.uint8)
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
        fh.write(_TRACE_HEADER + b"\r\n")
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


class TraceError(ValueError):
    """A trace file that ``run --trace`` could not have written."""


# Past the header, a line is a slot and a packet id in decimal without sign
# or leading zero, at most 18 digits each so both fit int64, and a tail.
_ID = rb"(?:0|[1-9][0-9]{0,17})"
_HEADER_LINE = re.compile(re.escape(_TRACE_HEADER) + rb"\r?\n")
_TRACE_LINE = re.compile(_ID + b"," + _ID + b"(?:" + b"|".join(map(re.escape, _TAILS)) + rb")\r?\n")
# Event and cause are wider than any name in _TAILS, so a longer field
# (loadtxt truncates it) never equals one; each compares as one uint64.
_TRACE_DTYPE = np.dtype([("slot", np.int64), ("pid", np.int64), ("event", "S8"), ("cause", "S8")])
_TAIL_WORDS = np.array([t[1:].split(b",") for t in _TAILS], dtype="S8").view(np.uint64)
_READ_BYTES = 1 << 20


def read_trace(path) -> np.ndarray:
    """The lines of the trace at ``path`` past its header, as ``_TRACE_DTYPE``
    records; raises TraceError naming the first line the writer could not
    have written."""
    if (rows := _load_trace(path)) is not None:
        return rows
    with open(path, "rb") as fh:
        for n, line in enumerate(fh, 1):
            if not (_TRACE_LINE if n > 1 else _HEADER_LINE).fullmatch(line):
                raise TraceError(f"malformed trace line {n}: {line[:80]!r} is not a line run --trace writes")
    raise TraceError("malformed trace line 1: the file is empty")


def _load_trace(path):
    """One ``np.loadtxt`` parse of the trace at ``path``, or None unless every
    line is one the writer could have written. loadtxt also takes blank lines,
    a lone CR, and fields with a sign, a leading zero or space or trailing
    NULs, all longer than the writer's. So the rows stand when there is one per
    LF, ids have at most 18 digits, and the writer's lines for them, with the
    file's line ends and no bytes for an unknown tail, fill the file exactly."""
    lf, cr, crlf, last = 0, 0, 0, b""
    with open(path, "rb") as fh:
        header = fh.readline()
        while chunk := fh.read(_READ_BYTES):
            b = np.frombuffer(chunk, dtype=np.uint8)
            is_lf, is_cr = b == 10, b == 13
            lf += np.count_nonzero(is_lf)
            cr += np.count_nonzero(is_cr)
            # a CRLF split across two chunks counts too
            crlf += np.count_nonzero(is_cr[:-1] & is_lf[1:]) + (last == b"\r" and b[0] == 10)
            last = chunk[-1:]
        size = fh.tell()
    # a body of line ends alone holds no row, and loadtxt would warn of that
    rows = np.empty(0, _TRACE_DTYPE)
    if lf + cr < size - len(header):
        try:
            rows = np.loadtxt(path, _TRACE_DTYPE, delimiter=",", comments=None, ndmin=1, skiprows=1)
        except ValueError:
            return None
    slot, pid = rows["slot"], rows["pid"]
    event, cause = rows["event"].view(np.uint64), rows["cause"].view(np.uint64)
    # a row matches at most one tail, as the tails are distinct
    per_tail = [np.count_nonzero((event == e) & (cause == c)) for e, c in _TAIL_WORDS]
    top = max(slot.max(initial=0), pid.max(initial=0))
    written = len(header) + 3 * len(rows) + sum(n * len(t) for n, t in zip(per_tail, _TAILS)) + lf + crlf
    for k in range(1, len(str(top))):  # each id's digits past its first
        written += np.count_nonzero(slot >= 10**k) + np.count_nonzero(pid >= 10**k)
    valid = _HEADER_LINE.fullmatch(header) and last in (b"", b"\n") and top < 10**18
    return rows if valid and len(rows) == lf and written == size else None


def _check_postconditions(r: RunResult, lost_at: np.ndarray, end_slot: int) -> None:
    decoded = r.decoded_mask()
    if bool(np.any(lost_at >= end_slot)):
        raise SimulationInvariantError("conservation violated: packet restorable past the drain")
    if bool(np.any(r.decode_slots[decoded] < r.replica_flat[r.replica_offsets[:-1][decoded]])):
        raise SimulationInvariantError("decode before first replica slot")
    # Delay support, asserted on every run.
    diff = r.delay_slots()[decoded]
    lo, hi = delay_support_slots(r.scheme)
    out = (diff < lo) | (diff > hi)
    if bool(out.any()):
        raise SimulationInvariantError(
            f"delay support violated for packets {np.flatnonzero(decoded)[out][:5].tolist()} "
            f"(mode={r.scheme.mode.value}, diffs={diff[out][:5].tolist()})"
        )
