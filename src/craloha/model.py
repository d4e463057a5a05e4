"""Shared vocabulary for framed and sliding-window diversity slotted ALOHA.

Time is slot-granular: slots are indexed by nonnegative integers on an
unbounded timeline, and wall-clock time is slot_index * slot_duration_ms.
Load G is identified with the mean arrival rate (packets per slot).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

# Tolerance for degree-probability normalization.
PROB_TOL = 1e-9


class ConfigError(ValueError):
    """A configuration value violates one of its invariants."""


class AccessMode(str, Enum):
    """Channel access discipline: framed or sliding-window."""

    FR = "FR"
    SW = "SW"


@dataclass(frozen=True)
class TimeConfig:
    """Slot duration and one-way source-to-gateway propagation delay."""

    slot_duration_ms: float = 1.0
    propagation_delay_ms: float = 250.0

    def __post_init__(self) -> None:
        if not self.slot_duration_ms > 0:
            raise ConfigError(f"slot_duration_ms must be > 0, got {self.slot_duration_ms}")
        if self.propagation_delay_ms < 0:
            raise ConfigError(f"propagation_delay_ms must be >= 0, got {self.propagation_delay_ms}")


def _check_degree_entries(entries: tuple[tuple[int, float], ...]) -> None:
    if not entries:
        raise ConfigError("degree distribution needs at least one (degree, probability) entry")
    degrees = [l for l, _ in entries]
    if any(l < 1 for l in degrees):
        raise ConfigError(f"degrees must be >= 1, got {sorted(degrees)}")
    if len(set(degrees)) != len(degrees):
        raise ConfigError(f"duplicate degrees in {sorted(degrees)}")
    for l, p in entries:
        if not 0.0 <= p <= 1.0:
            raise ConfigError(f"probability for degree {l} out of [0,1]: {p}")
    total = sum(p for _, p in entries)
    if abs(total - 1.0) > PROB_TOL:
        raise ConfigError(f"degree probabilities sum to {total!r}, not 1 within {PROB_TOL}")


@dataclass(frozen=True)
class DegreeDistribution:
    """Probability mass over replica counts (burst degrees).

    ``entries`` is canonicalized to a degree-sorted tuple of
    ``(degree, probability)`` pairs and validated on construction.
    """

    entries: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        entries = tuple(sorted((int(l), float(p)) for l, p in self.entries))
        object.__setattr__(self, "entries", entries)
        _check_degree_entries(entries)
        object.__setattr__(self, "_degrees", np.array([l for l, _ in entries], dtype=np.int64))
        object.__setattr__(self, "_cum", np.cumsum([p for _, p in entries]))

    @property
    def max_degree(self) -> int:
        return self.entries[-1][0]

    def __str__(self) -> str:
        return "+".join(f"{p:g}x^{l}" for l, p in self.entries)


def validate_degree_distribution(d: DegreeDistribution) -> DegreeDistribution:
    """Re-check all invariants of ``d`` and return it unchanged."""
    _check_degree_entries(d.entries)
    return d


def mean_degree(d: DegreeDistribution) -> float:
    """Average number of replicas per packet, sum(l * p_l)."""
    return float(sum(l * p for l, p in d.entries))


def sample_degree(d: DegreeDistribution, rng: np.random.Generator) -> int:
    """Draw one burst degree; deterministic given the generator state."""
    return int(sample_degrees(d, rng, 1)[0])


def sample_degrees(d: DegreeDistribution, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw ``n`` i.i.d. burst degrees as an int array."""
    u = rng.random(n)
    idx = np.searchsorted(d._cum, u, side="right")
    # u can land at/above the last cumulative value when the sum is 1-eps.
    np.clip(idx, 0, len(d.entries) - 1, out=idx)
    return d._degrees[idx]


# Distributions usable by name in experiment configs. crdsa2/crdsa3 are the
# regular 2- and 3-replica schemes; irsa4 and irsa8 are the irregular
# distributions with maximum degree 4 and 8.
NAMED_DISTRIBUTIONS: dict[str, DegreeDistribution] = {
    "crdsa2": DegreeDistribution(((2, 1.0),)),
    "crdsa3": DegreeDistribution(((3, 1.0),)),
    "irsa4": DegreeDistribution(((2, 0.5102), (4, 0.4898))),
    "irsa8": DegreeDistribution(((2, 0.5), (3, 0.28), (8, 0.22))),
}


def named_distribution(name: str) -> DegreeDistribution:
    try:
        return NAMED_DISTRIBUTIONS[name]
    except KeyError:
        known = ", ".join(sorted(NAMED_DISTRIBUTIONS))
        raise ConfigError(f"unknown distribution {name!r} (known: {known})") from None


@dataclass(frozen=True)
class SchemeConfig:
    """One access scheme: mode, window/frame size, receiver memory, IC cap.

    ``window_slots`` is the frame length N_f in FR mode and the sliding
    window N_sw in SW mode. ``receiver_memory_slots`` (N_rx) may be omitted
    in FR mode, where it is frame-scoped and forced equal to the frame
    length; in SW mode it is required and must be >= the window.
    """

    mode: AccessMode
    window_slots: int
    degree_distribution: DegreeDistribution
    receiver_memory_slots: Optional[int] = None
    max_ic_iterations: int = 50

    def __post_init__(self) -> None:
        object.__setattr__(self, "mode", AccessMode(self.mode))
        if self.window_slots < 1:
            raise ConfigError(f"window_slots must be >= 1, got {self.window_slots}")
        if self.max_ic_iterations < 1:
            raise ConfigError(f"max_ic_iterations must be >= 1, got {self.max_ic_iterations}")
        dmax = self.degree_distribution.max_degree
        if dmax > self.window_slots:
            raise ConfigError(
                f"max degree {dmax} exceeds window of {self.window_slots} slots"
            )
        n_rx = self.receiver_memory_slots
        if self.mode is AccessMode.FR:
            if n_rx is None:
                n_rx = self.window_slots
            elif n_rx != self.window_slots:
                raise ConfigError(
                    f"FR receiver memory is frame-scoped: expected {self.window_slots}, got {n_rx}"
                )
        else:
            if n_rx is None:
                raise ConfigError("SW mode requires receiver_memory_slots")
            if n_rx < self.window_slots:
                raise ConfigError(
                    f"receiver_memory_slots {n_rx} < window of {self.window_slots} slots"
                )
        object.__setattr__(self, "receiver_memory_slots", int(n_rx))


@dataclass(frozen=True)
class TrafficConfig:
    """Poisson arrival intensity and the simulated/measured horizon."""

    mean_arrival_rate: float
    total_slots: int
    warmup_slots: int = 0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.mean_arrival_rate < 0:
            raise ConfigError(f"mean_arrival_rate must be >= 0, got {self.mean_arrival_rate}")
        if self.total_slots < 1:
            raise ConfigError(f"total_slots must be >= 1, got {self.total_slots}")
        if not 0 <= self.warmup_slots < self.total_slots:
            raise ConfigError(
                f"warmup_slots must be in [0, total_slots), got {self.warmup_slots}"
            )
        if not 0 <= self.rng_seed < 2**64:
            raise ConfigError(f"rng_seed must be a 64-bit unsigned integer, got {self.rng_seed}")
