import numpy as np
import pytest

from craloha import (
    TimeConfig,
    cdf_at,
    delay_distribution,
    loss_rate,
    run_simulation,
    throughput,
)
from craloha.engine import RunResult
from craloha.model import TrafficConfig

from conftest import make_scheme, make_traffic


def make_result(arrivals, decode_slots, total_slots, warmup=0):
    """Hand-built RunResult for constructed traces."""
    n = len(arrivals)
    scheme = make_scheme("SW", window=max(total_slots, 2), n_rx=4 * max(total_slots, 2))
    traffic = TrafficConfig(
        mean_arrival_rate=0.5, total_slots=total_slots, warmup_slots=warmup, rng_seed=0
    )
    return RunResult(
        scheme=scheme,
        traffic=traffic,
        time=TimeConfig(),
        arrival_slots=np.asarray(arrivals, dtype=np.int64),
        replica_flat=np.asarray(arrivals, dtype=np.int64),
        replica_offsets=np.arange(n + 1, dtype=np.int64),
        decode_slots=np.asarray(decode_slots, dtype=np.int64),
    )


class TestThroughput:
    def test_zero_arrivals(self):
        r = make_result([], [], total_slots=100)
        assert throughput(r) == 0.0

    def test_one_clean_arrival_per_slot(self):
        # constructed deterministic trace: every slot one degree-1 packet,
        # all decoded in their own slot
        n = 50
        r = make_result(range(n), range(n), total_slots=n)
        assert throughput(r) == 1.0

    def test_window_filtering(self):
        # packets before warmup are excluded from the count
        r = make_result([0, 1, 5, 6], [0, 1, 5, 6], total_slots=10, warmup=5)
        assert throughput(r) == 2 / 5


class TestLossRate:
    def test_conservation(self):
        scheme = make_scheme("SW", window=50, dist="crdsa2", n_rx=150)
        traffic = make_traffic(lam=0.8, total=20_000, warmup=500, seed=2, window=50)
        r = run_simulation(scheme, traffic)
        mask = r.measurement_mask()
        arrived = int(mask.sum())
        decoded = int((mask & r.decoded_mask()).sum())
        lost = int((mask & r.lost).sum())
        assert decoded == arrived - lost
        assert loss_rate(r) == pytest.approx(lost / arrived)

    def test_unresolvable_pair_loses_everything(self):
        r = make_result([0, 0], [-1, -1], total_slots=4)
        assert loss_rate(r) == 1.0

    def test_no_arrivals_in_window(self):
        r = make_result([], [], total_slots=10)
        assert loss_rate(r) == 0.0


class TestDelayDistribution:
    def test_single_packet(self):
        r = make_result([3], [3], total_slots=10)
        d = delay_distribution(r, bin_width_ms=1.0)
        assert d.n_decoded == 1
        assert d.mode_ms == 251.0
        assert d.pdf.tolist() == [1.0]
        assert d.cdf[-1] == 1.0
        assert d.mean_ms == 251.0
        assert d.quantiles[0.5] == 251.0

    def test_empty_distribution(self):
        r = make_result([0, 1], [-1, -1], total_slots=4)
        d = delay_distribution(r)
        assert d.n_decoded == 0
        assert len(d.counts) == 0
        assert np.isnan(d.mean_ms)
        assert np.isnan(d.quantiles[0.9])
        assert np.isnan(d.mode_ms)
        assert cdf_at(d, 1e9) == 0.0

    def test_pdf_sums_to_one_and_cdf_monotone(self):
        scheme = make_scheme("SW", window=50, n_rx=250)
        traffic = make_traffic(lam=0.6, total=20_000, warmup=500, seed=5, window=50)
        d = delay_distribution(run_simulation(scheme, traffic))
        assert d.pdf.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(np.diff(d.cdf) >= -1e-15)
        assert d.cdf[-1] == pytest.approx(1.0, abs=1e-12)

    def test_mean_within_one_bin_of_binned_mean(self):
        scheme = make_scheme("SW", window=50, n_rx=250)
        traffic = make_traffic(lam=0.6, total=20_000, warmup=500, seed=6, window=50)
        for width in (1.0, 5.0):
            d = delay_distribution(run_simulation(scheme, traffic), bin_width_ms=width)
            binned_mean = float((d.lower_edges_ms * d.pdf).sum())
            assert abs(d.mean_ms - binned_mean) <= width

    def test_bad_bin_width(self):
        r = make_result([0], [0], total_slots=2)
        for width in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                delay_distribution(r, bin_width_ms=width)

    def test_quantiles_come_from_observed_delays(self):
        r = make_result([0, 1, 2, 3], [0, 2, 4, 9], total_slots=12)
        d = delay_distribution(r)
        # delays: 251, 252, 253, 257
        assert d.quantiles[0.5] == 252.0
        assert d.quantiles[0.99] == 257.0


class TestCdfAt:
    def test_edges(self):
        r = make_result([0, 1], [0, 3], total_slots=6)
        d = delay_distribution(r)  # delays 251 and 253
        assert cdf_at(d, 250.9) == 0.0
        assert cdf_at(d, 251.0) == 0.5
        assert cdf_at(d, float("inf")) == 1.0

    def test_fr_cdf_pinned_at_support_edges(self):
        scheme = make_scheme("FR", window=100)
        traffic = make_traffic(lam=0.6, total=50_000, warmup=1000, seed=7, window=100)
        d = delay_distribution(run_simulation(scheme, traffic))
        assert cdf_at(d, 251.0) == 0.0
        assert cdf_at(d, 450.0) == 1.0
