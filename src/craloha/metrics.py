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
    """Histogram, pdf, cdf and summary statistics of decode delays."""

    bin_width_ms: float
    lower_edges_ms: np.ndarray
    counts: np.ndarray
    pdf: np.ndarray
    cdf: np.ndarray
    mean_ms: float
    quantiles: dict[float, float]
    n_decoded: int
    delays_ms: np.ndarray  # sorted raw delays

    @property
    def mode_ms(self) -> float:
        """Lower edge of the most occupied bin."""
        if self.n_decoded == 0:
            return float("nan")
        return float(self.lower_edges_ms[int(np.argmax(self.counts))])


def _window_delays(r: RunResult) -> np.ndarray:
    mask = r.measurement_mask() & r.decoded_mask()
    d = r.delays_ms()[mask]
    d.sort()
    return d


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
    delays = _window_delays(r)
    n = len(delays)
    if n == 0:
        empty = np.empty(0)
        return DelayDistribution(
            bin_width_ms=bin_width_ms,
            lower_edges_ms=empty,
            counts=np.empty(0, dtype=np.int64),
            pdf=empty,
            cdf=empty,
            mean_ms=float("nan"),
            quantiles={q: float("nan") for q in DEFAULT_QUANTILES},
            n_decoded=0,
            delays_ms=empty,
        )
    k = np.floor(delays / bin_width_ms).astype(np.int64)
    counts = np.bincount(k - k[0])
    edges = (np.arange(k[0], k[-1] + 1)) * bin_width_ms
    pdf = counts / n
    quantiles = {
        q: float(np.quantile(delays, q, method="inverted_cdf")) for q in DEFAULT_QUANTILES
    }
    return DelayDistribution(
        bin_width_ms=bin_width_ms,
        lower_edges_ms=edges,
        counts=counts,
        pdf=pdf,
        cdf=np.cumsum(pdf),
        mean_ms=float(delays.mean()),
        quantiles=quantiles,
        n_decoded=n,
        delays_ms=delays,
    )


def cdf_at(d: DelayDistribution, timeout_ms: float) -> float:
    """Fraction of decoded packets delivered within ``timeout_ms``."""
    if d.n_decoded == 0:
        return 0.0
    return float(np.searchsorted(d.delays_ms, timeout_ms, side="right")) / d.n_decoded
