"""craloha: framed and sliding-window contention-resolution diversity
slotted ALOHA (CRDSA / IRSA) simulation and analysis."""

from .analytics import oracle_decode, p_uins_fr, p_uins_sw, sa_throughput
from .engine import RunResult, SimulationInvariantError, run_simulation
from .metrics import DelayDistribution, cdf_at, delay_distribution, loss_rate, throughput
from .model import (
    AccessMode,
    ConfigError,
    DegreeDistribution,
    SchemeConfig,
    TimeConfig,
    TrafficConfig,
    mean_degree,
    named_distribution,
)

__version__ = "0.1.0"

__all__ = [
    "AccessMode",
    "ConfigError",
    "DegreeDistribution",
    "DelayDistribution",
    "RunResult",
    "SchemeConfig",
    "SimulationInvariantError",
    "TimeConfig",
    "TrafficConfig",
    "cdf_at",
    "delay_distribution",
    "loss_rate",
    "mean_degree",
    "named_distribution",
    "oracle_decode",
    "p_uins_fr",
    "p_uins_sw",
    "run_simulation",
    "sa_throughput",
    "throughput",
]
