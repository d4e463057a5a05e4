"""One run: arrivals, replica placement, receiver peeling, finalization.

A run simulates ``total_slots`` of Poisson arrivals plus an arrival-free
drain so every in-flight packet resolves one way or the other. It places
every packet's replicas first, then streams the slots through the receiver
in one decoder call, finalizes each packet as decoded or lost, and checks
the delay-support invariants as hard postconditions.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .decoder import PeelOutcome, peel
from .model import AccessMode, SchemeConfig, TimeConfig, TrafficConfig, sample_degrees
from .placement import FrameGrid, place_replicas
from .traffic import generate_arrivals

TRACE_FIELDS = ("slot_index", "packet_id", "event", "cause")


class SimulationInvariantError(RuntimeError):
    """A hard postcondition of the run was violated."""


@dataclass(frozen=True, eq=False)
class RunResult:
    """Finalized per-packet outcomes plus the configuration echo.

    Packet fields are stored columnar (decode_slots holds -1 for lost
    packets). Packet ``p``'s replica slots are
    ``replica_flat[replica_offsets[p]:replica_offsets[p+1]]``, ascending.
    ``slot_occupancy`` counts the instances transmitted in each simulated
    slot, before any decoding.
    """

    scheme: SchemeConfig
    traffic: TrafficConfig
    time: TimeConfig
    rng_seed: int
    slots_simulated: int
    arrival_slots: np.ndarray
    degrees: np.ndarray
    replica_flat: np.ndarray
    replica_offsets: np.ndarray
    decode_slots: np.ndarray
    lost: np.ndarray
    slot_occupancy: np.ndarray

    @property
    def n_packets(self) -> int:
        return len(self.arrival_slots)

    @property
    def warmup_slots(self) -> int:
        return self.traffic.warmup_slots

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


def drain_end_slot(scheme: SchemeConfig, traffic: TrafficConfig) -> int:
    """Exclusive end of the simulated slot range, drain included.

    SW drains N_rx arrival-free slots. FR drains to the end of the frame a
    packet ready at the last arrival slot would transmit in (exactly N_f
    extra slots when total_slots is frame-aligned).
    """
    if scheme.mode is AccessMode.FR:
        grid = FrameGrid(scheme.window_slots)
        return grid.tx_frame_start(traffic.total_slots - 1) + scheme.window_slots
    return traffic.total_slots + scheme.receiver_memory_slots


def run_simulation(
    scheme: SchemeConfig,
    traffic: TrafficConfig,
    time: TimeConfig = TimeConfig(),
    trace_path=None,
) -> RunResult:
    """Simulate one run; deterministic given the configs and seed."""
    rng = np.random.default_rng(traffic.rng_seed)
    arrivals = generate_arrivals(traffic, rng).per_slot_counts
    n_packets = int(arrivals.sum())
    degrees = sample_degrees(scheme.degree_distribution, rng, n_packets)
    arrival_slots = np.repeat(np.arange(traffic.total_slots, dtype=np.int64), arrivals)
    flat, offsets = place_replicas(scheme, arrival_slots, degrees, rng)

    fr = scheme.mode is AccessMode.FR
    end_slot = drain_end_slot(scheme, traffic)
    outcome = peel(
        flat,
        offsets,
        end_slot,
        scheme.receiver_memory_slots,
        frame_scoped=fr,
        i_max=scheme.max_ic_iterations,
    )
    # The drain outlasts every packet's restorability, so each undecoded
    # packet has been lost by the last slot; the postconditions check it.
    lost = outcome.lost_at >= 0
    if trace_path is not None:
        _write_trace(trace_path, flat, offsets, outcome, fr)

    result = RunResult(
        scheme=scheme,
        traffic=traffic,
        time=time,
        rng_seed=traffic.rng_seed,
        slots_simulated=end_slot,
        arrival_slots=arrival_slots,
        degrees=degrees,
        replica_flat=flat,
        replica_offsets=offsets,
        decode_slots=outcome.decode_slots,
        lost=lost,
        slot_occupancy=np.bincount(flat, minlength=end_slot),
    )
    _check_postconditions(result)
    return result


# Trace phases within one slot, in the order the receiver runs them.
_EVICT, _REPLICA, _DECODE, _FRAME_CLOSE = range(4)


def _write_trace(path, flat, offsets, outcome: PeelOutcome, fr: bool) -> None:
    """One CSV line per replica ingestion, decode, and loss, grouped by slot:
    evictions, replicas, decodes, then frame-close losses."""
    order = outcome.order
    lost = np.flatnonzero(outcome.lost_at >= 0)
    slot = np.concatenate([flat, outcome.decode_slots[order], outcome.lost_at[lost]])
    pid = np.concatenate([np.repeat(np.arange(len(offsets) - 1), np.diff(offsets)), order, lost])
    phase = np.repeat(
        [_REPLICA, _DECODE, _FRAME_CLOSE if fr else _EVICT], [len(flat), len(order), len(lost)]
    )
    event = np.array(["loss", "replica", "decode", "loss"], dtype=object)[phase]
    cause = np.full(len(slot), "-", dtype=object)
    cause[len(flat) : len(flat) + len(order)] = np.where(outcome.clean[order], "clean", "ic")
    rows = np.argsort(slot * 4 + phase, kind="stable")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(TRACE_FIELDS)
        w.writerows(zip(slot[rows].tolist(), pid[rows].tolist(), event[rows], cause[rows]))


def _check_postconditions(r: RunResult) -> None:
    decoded = r.decoded_mask()
    if not bool(np.all(decoded ^ r.lost)):
        raise SimulationInvariantError("conservation violated: packet neither decoded nor lost")
    if not decoded.any():
        return
    diff = r.decode_slots[decoded] - r.arrival_slots[decoded] + 1
    if int(diff.min()) < 1:
        raise SimulationInvariantError("decode before arrival")
    first_replica = r.replica_flat[r.replica_offsets[:-1]][decoded]
    if bool(np.any(r.decode_slots[decoded] < first_replica)):
        raise SimulationInvariantError("decode before first replica slot")
    # Delay support, asserted on every run: FR strictly above the one-slot
    # floor and at most two frame spans; SW within the receiver memory span.
    if r.scheme.mode is AccessMode.FR:
        lo_ok = diff >= 2
        hi_ok = diff <= 2 * r.scheme.window_slots
    else:
        lo_ok = diff >= 1
        hi_ok = diff <= r.scheme.receiver_memory_slots
    if not bool(np.all(lo_ok & hi_ok)):
        bad = np.flatnonzero(decoded)[~(lo_ok & hi_ok)][:5]
        raise SimulationInvariantError(
            f"delay support violated for packets {bad.tolist()} "
            f"(mode={r.scheme.mode.value}, diffs={diff[~(lo_ok & hi_ok)][:5].tolist()})"
        )
