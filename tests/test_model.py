import numpy as np
import pytest

from craloha import (
    AccessMode,
    ConfigError,
    DegreeDistribution,
    SchemeConfig,
    TimeConfig,
    TrafficConfig,
    mean_degree,
    named_distribution,
)
from craloha.model import sample_degrees

IRSA4 = ((2, 0.5102), (4, 0.4898))
IRSA8 = ((2, 0.5), (3, 0.28), (8, 0.22))


class TestDegreeDistribution:
    def test_paper_irsa4_valid(self):
        d = DegreeDistribution(IRSA4)
        assert d.entries == IRSA4
        assert d.max_degree == 4

    def test_single_degree_crdsa_valid(self):
        assert DegreeDistribution(((2, 1.0),)).entries == ((2, 1.0),)

    def test_non_normalized_rejected(self):
        with pytest.raises(ConfigError, match="sum"):
            DegreeDistribution(((2, 0.6), (3, 0.6)))

    def test_duplicate_degree_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            DegreeDistribution(((2, 0.5), (2, 0.5)))

    def test_zero_degree_rejected(self):
        with pytest.raises(ConfigError, match=">= 1"):
            DegreeDistribution(((0, 0.5), (2, 0.5)))

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            DegreeDistribution(())

    def test_probability_range_rejected(self):
        with pytest.raises(ConfigError, match="out of"):
            DegreeDistribution(((1, -0.2), (2, 1.2)))

    def test_normalization_tolerance(self):
        # within 1e-9 is accepted, outside is not
        DegreeDistribution(((2, 0.5), (3, 0.5 + 5e-10)))
        with pytest.raises(ConfigError):
            DegreeDistribution(((2, 0.5), (3, 0.5 + 5e-9)))

    def test_entries_sorted_canonically(self):
        d = DegreeDistribution(((8, 0.22), (2, 0.5), (3, 0.28)))
        assert [l for l, _ in d.entries] == [2, 3, 8]


class TestMeanDegree:
    def test_regular(self):
        assert mean_degree(DegreeDistribution(((2, 1.0),))) == 2.0

    def test_irsa4(self):
        assert mean_degree(DegreeDistribution(IRSA4)) == pytest.approx(2.9796, abs=1e-12)

    def test_irsa8(self):
        assert mean_degree(DegreeDistribution(IRSA8)) == pytest.approx(3.60, abs=1e-12)


class TestSampleDegree:
    def test_degenerate_always_two(self, rng):
        d = DegreeDistribution(((2, 1.0),))
        assert np.all(sample_degrees(d, rng, 100) == 2)

    def test_reproducible(self):
        d = DegreeDistribution(IRSA8)
        a = sample_degrees(d, np.random.default_rng(7), 10_000)
        b = sample_degrees(d, np.random.default_rng(7), 10_000)
        assert np.array_equal(a, b)

    def test_irsa8_degree3_frequency(self):
        # 3-sigma band around 0.28 at 1e6 draws
        d = DegreeDistribution(IRSA8)
        draws = sample_degrees(d, np.random.default_rng(5), 1_000_000)
        freq = np.mean(draws == 3)
        assert 0.2786 <= freq <= 0.2814

    def test_irsa4_empirical_mean(self):
        d = DegreeDistribution(IRSA4)
        draws = sample_degrees(d, np.random.default_rng(6), 1_000_000)
        assert abs(draws.mean() - 2.9796) < 0.005

    @pytest.mark.parametrize(
        "entries",
        [
            IRSA8,
            # a zero-probability entry first and in the middle, and a sum of
            # 1 - 1e-10, so u can land past the last cumulative value
            ((1, 0.0), (2, 0.25), (3, 0.0), (4, 0.25), (6, 0.5 - 1e-10)),
            ((2, 1.0),),
        ],
        ids=["irsa8", "zeros-short-sum", "single"],
    )
    def test_index_is_searchsorted_clipped(self, entries):
        # u at 0, at each cumulative value exactly (a tie goes to the next
        # entry), one ulp either side of it, and at 1 - 1e-17 (which rounds
        # to 1.0) and the largest double below 1
        d = DegreeDistribution(entries)
        cum = d._cum
        u = np.concatenate([[0.0, 1 - 1e-17, 1 - 2**-53], cum, np.nextafter(cum, 0), np.nextafter(cum, 1)])

        class Stub:
            def random(self, n):
                assert n == len(u)
                return u.copy()

        want = d._degrees[np.clip(np.searchsorted(cum, u, side="right"), 0, len(entries) - 1)]
        assert np.array_equal(sample_degrees(d, Stub(), len(u)), want)

    def test_all_frequencies_within_4sigma(self):
        n = 1_000_000
        for name in ("irsa4", "irsa8"):
            d = named_distribution(name)
            draws = sample_degrees(d, np.random.default_rng(11), n)
            for l, p in d.entries:
                tol = 4 * np.sqrt(p * (1 - p) / n)
                assert abs(np.mean(draws == l) - p) < tol, (name, l)


class TestNamedDistributions:
    def test_catalog(self):
        assert named_distribution("crdsa2").entries == ((2, 1.0),)
        assert named_distribution("crdsa3").entries == ((3, 1.0),)
        assert named_distribution("irsa4").entries == IRSA4
        assert named_distribution("irsa8").entries == IRSA8

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown distribution"):
            named_distribution("bogus")


class TestSchemeConfig:
    def test_fr_memory_defaults_to_frame(self):
        s = SchemeConfig(mode="FR", window_slots=100, degree_distribution=named_distribution("crdsa2"))
        assert s.receiver_memory_slots == 100
        assert s.mode is AccessMode.FR

    def test_fr_memory_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="frame-scoped"):
            SchemeConfig(
                mode="FR",
                window_slots=100,
                degree_distribution=named_distribution("crdsa2"),
                receiver_memory_slots=200,
            )

    def test_sw_requires_memory(self):
        with pytest.raises(ConfigError, match="requires receiver_memory_slots"):
            SchemeConfig(mode="SW", window_slots=100, degree_distribution=named_distribution("crdsa2"))

    def test_sw_memory_below_window_rejected(self):
        with pytest.raises(ConfigError, match="receiver_memory_slots"):
            SchemeConfig(
                mode="SW",
                window_slots=100,
                degree_distribution=named_distribution("crdsa2"),
                receiver_memory_slots=99,
            )

    def test_degree_exceeding_window_rejected(self):
        with pytest.raises(ConfigError, match="max degree"):
            SchemeConfig(
                mode="SW",
                window_slots=4,
                degree_distribution=named_distribution("irsa8"),
                receiver_memory_slots=8,
            )


class TestTimeAndTraffic:
    def test_time_defaults(self):
        t = TimeConfig()
        assert t.slot_duration_ms == 1.0 and t.propagation_delay_ms == 250.0

    def test_time_validation(self):
        with pytest.raises(ConfigError):
            TimeConfig(slot_duration_ms=0.0)
        with pytest.raises(ConfigError):
            TimeConfig(propagation_delay_ms=-1.0)

    @pytest.mark.parametrize(
        "kwargs",
        (
            {"slot_duration_ms": float("inf")},
            {"propagation_delay_ms": float("nan")},
            {"propagation_delay_ms": float("inf")},
        ),
        ids=("inf-slot", "nan-propagation", "inf-propagation"),
    )
    def test_non_finite_time_rejected(self, kwargs):
        with pytest.raises(ConfigError, match="finite"):
            TimeConfig(**kwargs)

    def test_traffic_validation(self):
        with pytest.raises(ConfigError):
            TrafficConfig(mean_arrival_rate=-0.1, total_slots=10)
        with pytest.raises(ConfigError):
            TrafficConfig(mean_arrival_rate=0.5, total_slots=10, warmup_slots=10)
        with pytest.raises(ConfigError):
            TrafficConfig(mean_arrival_rate=0.5, total_slots=10, rng_seed=-1)

    @pytest.mark.parametrize("lam", (float("nan"), float("inf")))
    def test_non_finite_load_rejected(self, lam):
        with pytest.raises(ConfigError, match="finite"):
            TrafficConfig(mean_arrival_rate=lam, total_slots=10)
