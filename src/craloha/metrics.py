"""Reduction of a run to throughput, loss rate, and delay statistics.

All reductions use the measurement window (arrivals in [warmup,
total_slots)); delay statistics cover correctly received packets only,
loss is reported separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import RunResult

DEFAULT_QUANTILES = (0.5, 0.9, 0.95, 0.99)


@dataclass(frozen=True, eq=False)
class DelayDistribution:
    """Histogram, pdf, cdf and summary statistics of decode delays.

    A decoded delay is ``time.delay_ms(k)`` for a whole slot delay ``k``
    inside the mode's delay support, so the record holds each distinct delay
    once, ascending in ``distinct_ms``, with the number of decoded packets
    at or below it in ``cum_counts``: no array is per packet.
    """

    bin_width_ms: float
    lower_edges_ms: np.ndarray
    counts: np.ndarray
    pdf: np.ndarray
    cdf: np.ndarray
    mean_ms: float
    quantiles: dict[float, float]
    n_decoded: int
    distinct_ms: np.ndarray
    cum_counts: np.ndarray

    @property
    def mode_ms(self) -> float:
        """Lower edge of the most occupied bin."""
        if self.n_decoded == 0:
            return float("nan")
        return float(self.lower_edges_ms[int(np.argmax(self.counts))])


def throughput(r: RunResult) -> float:
    """Decoded packets per slot over the measurement window."""
    window = r.traffic.total_slots - r.traffic.warmup_slots
    decoded = int(np.count_nonzero(r.measurement_mask() & r.decoded_mask()))
    return decoded / window


def loss_rate(r: RunResult) -> float:
    """Lost / arrived over the measurement window (0 for no arrivals)."""
    mask = r.measurement_mask()
    arrived = int(np.count_nonzero(mask))
    if arrived == 0:
        return 0.0
    return int(np.count_nonzero(mask & ~r.decoded_mask())) / arrived


def delay_distribution(r: RunResult, bin_width_ms: float = 1.0) -> DelayDistribution:
    """Delay histogram over decoded packets, with bins aligned to multiples
    of the bin width. Returns an explicit empty distribution when nothing
    decoded."""
    if not 0 < bin_width_ms < math.inf:
        raise ValueError(f"bin_width_ms must be > 0 and finite, got {bin_width_ms}")
    per_slot = np.bincount(r.delay_slots()[r.measurement_mask() & r.decoded_mask()])
    slots = np.flatnonzero(per_slot)
    if len(slots) == 0:
        none, counts = np.empty(0), np.empty(0, dtype=np.int64)
        return DelayDistribution(
            bin_width_ms, lower_edges_ms=none, counts=counts, pdf=none, cdf=none, mean_ms=math.nan,
            quantiles=dict.fromkeys(DEFAULT_QUANTILES, math.nan), n_decoded=0, distinct_ms=none, cum_counts=counts,
        )
    hits = per_slot[slots]
    delays = r.time.delay_ms(slots)
    cum = np.cumsum(hits)
    n = int(cum[-1])
    k = np.floor(delays / bin_width_ms).astype(np.int64)
    counts = np.bincount(k - k[0], weights=hits).astype(np.int64)
    pdf = counts / n
    # The inverted-cdf q-quantile is the delay of the ceil(n*q)-th packet.
    at = np.searchsorted(cum, n * np.array(DEFAULT_QUANTILES), side="left")
    return DelayDistribution(
        bin_width_ms=bin_width_ms,
        lower_edges_ms=np.arange(k[0], k[-1] + 1) * bin_width_ms,
        counts=counts,
        pdf=pdf,
        cdf=np.cumsum(pdf),
        mean_ms=float((hits * delays).sum() / n),
        quantiles={q: float(delays[i]) for q, i in zip(DEFAULT_QUANTILES, at)},
        n_decoded=n,
        distinct_ms=delays,
        cum_counts=cum,
    )


def cdf_at(d: DelayDistribution, timeout_ms: float) -> float:
    """Fraction of decoded packets delivered within ``timeout_ms``."""
    i = int(np.searchsorted(d.distinct_ms, timeout_ms, side="right"))
    return float(d.cum_counts[i - 1]) / d.n_decoded if i else 0.0
