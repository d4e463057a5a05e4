import dataclasses

import numpy as np
import pytest

from craloha import (
    DegreeDistribution,
    TimeConfig,
    cdf_at,
    delay_distribution,
    loss_rate,
    run_simulation,
    throughput,
)
from craloha.analytics import delay_support_slots
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
    def test_lost_share_of_measured_arrivals(self):
        # packets 5, 6 and 7 arrive in [warmup, total_slots) and 5 and 7 are
        # lost: 2/3, where the whole run gives 3/5 and the decoded share 1/3
        r = make_result([0, 1, 5, 6, 7], [-1, 1, -1, 6, -1], total_slots=10, warmup=5)
        assert loss_rate(r) == pytest.approx(2 / 3)

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


# (mode, window, n_rx, dist, lambda, seed): SW with a saturated memory, FR,
# a degree-1 SW point and an IRSA point past its peak.
_POINTS = [
    ("SW", 100, 500, "irsa8", 0.85, 1),
    ("FR", 100, None, "crdsa2", 0.6, 2),
    ("SW", 1, 10, DegreeDistribution(((1, 1.0),)), 0.5, 3),
    ("SW", 20, 60, "irsa4", 1.2, 1),
]
_TIMES = [TimeConfig(), TimeConfig(0.37, 12.3), TimeConfig(2.0, 0.0)]


class TestCountsMatchPerPacketReference:
    """The distribution from counts per distinct slot delay equals the one
    from the sorted per-packet delays of ``RunResult.delays_ms``."""

    @pytest.fixture(scope="class", params=_POINTS, ids=lambda p: f"{p[0]}{p[1]}-{p[4]}")
    def run(self, request):
        mode, window, n_rx, dist, lam, seed = request.param
        scheme = make_scheme(mode, window=window, dist=dist, n_rx=n_rx)
        return run_simulation(scheme, make_traffic(lam=lam, total=20_000, seed=seed, window=window))

    @pytest.mark.parametrize("time", _TIMES, ids=lambda t: f"{t.slot_duration_ms}/{t.propagation_delay_ms}")
    @pytest.mark.parametrize("width", [0.3, 1.0, 2.5, 10.0])
    def test_equal_to_reference(self, run, time, width):
        r = dataclasses.replace(run, time=time)
        d = delay_distribution(r, bin_width_ms=width)
        ref = np.sort(r.delays_ms()[r.measurement_mask() & r.decoded_mask()])
        n = len(ref)
        k = np.floor(ref / width).astype(np.int64)
        assert d.n_decoded == n > 0
        assert d.counts.dtype == np.int64
        assert np.array_equal(d.counts, np.bincount(k - k[0]))
        assert np.array_equal(d.lower_edges_ms, np.arange(k[0], k[-1] + 1) * width)
        assert np.array_equal(d.pdf, d.counts / n)
        assert np.array_equal(d.cdf, np.cumsum(d.counts / n))
        for q, v in d.quantiles.items():
            assert v == np.quantile(ref, q, method="inverted_cdf")
        for t in [0.0, 1e9, *np.unique(ref), *(np.unique(ref) - 1e-9), *(np.unique(ref) + 1e-9)]:
            assert cdf_at(d, t) == np.searchsorted(ref, t, side="right") / n
        integer_timing = time.slot_duration_ms.is_integer() and time.propagation_delay_ms.is_integer()
        assert d.mean_ms == (ref.mean() if integer_timing else pytest.approx(ref.mean(), rel=1e-15))
        # no array grows with the packet count: one entry per distinct
        # delay, and the histogram spans at most the support's bins
        lo, hi = delay_support_slots(r.scheme)
        assert len(d.distinct_ms) == len(d.cum_counts) <= hi
        bins = int(time.delay_ms(hi) // width - time.delay_ms(lo) // width) + 1
        for a in (d.lower_edges_ms, d.counts, d.pdf, d.cdf):
            assert len(a) <= max(hi, bins)
