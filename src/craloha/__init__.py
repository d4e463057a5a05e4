"""craloha: framed and sliding-window contention-resolution diversity
slotted ALOHA (CRDSA / IRSA) simulation and analysis."""

from .analytics import (
    delay_bounds,
    oracle_decode,
    p_first,
    p_i,
    p_not,
    p_uins_fr,
    p_uins_sw,
    sa_throughput,
    slot_degree_pmf,
)
from .engine import RunResult, SimulationInvariantError, run_simulation
from .metrics import DelayDistribution, cdf_at, delay_distribution, loss_rate, throughput
from .model import (
    AccessMode,
    ConfigError,
    DegreeDistribution,
    NAMED_DISTRIBUTIONS,
    SchemeConfig,
    TimeConfig,
    TrafficConfig,
    mean_degree,
    named_distribution,
    sample_degree,
    sample_degrees,
    validate_degree_distribution,
)
from .placement import FrameGrid, place_fr, place_sw, shared_window_slots
from .traffic import ArrivalSchedule, generate_arrivals

__version__ = "0.1.0"

__all__ = [
    "AccessMode",
    "ArrivalSchedule",
    "ConfigError",
    "DegreeDistribution",
    "DelayDistribution",
    "FrameGrid",
    "NAMED_DISTRIBUTIONS",
    "RunResult",
    "SchemeConfig",
    "SimulationInvariantError",
    "TimeConfig",
    "TrafficConfig",
    "cdf_at",
    "delay_bounds",
    "delay_distribution",
    "generate_arrivals",
    "loss_rate",
    "mean_degree",
    "named_distribution",
    "oracle_decode",
    "p_first",
    "p_i",
    "p_not",
    "p_uins_fr",
    "p_uins_sw",
    "place_fr",
    "place_sw",
    "run_simulation",
    "sa_throughput",
    "sample_degree",
    "sample_degrees",
    "shared_window_slots",
    "slot_degree_pmf",
    "throughput",
    "validate_degree_distribution",
]
