import math

import numpy as np

from craloha import TrafficConfig
from craloha.engine import generate_arrivals


def _slots(lam, total, seed):
    cfg = TrafficConfig(mean_arrival_rate=lam, total_slots=total, warmup_slots=0, rng_seed=seed)
    return generate_arrivals(cfg, np.random.default_rng(seed))


def _schedule(lam, total, seed):
    """Arrival count per slot, from the run's ready slots."""
    return np.bincount(_slots(lam, total, seed), minlength=total)


def test_zero_rate_gives_all_zero():
    counts = _schedule(0.0, 1000, 1)
    assert counts.shape == (1000,)
    assert not counts.any()


def test_sample_mean_within_4sigma():
    counts = _schedule(0.6, 1_000_000, 2)
    assert abs(counts.mean() - 0.6) < 0.0031


def test_per_frame_totals_poisson_mean():
    # framed view: totals over disjoint 200-slot frames, 5000 frames
    counts = _schedule(0.5, 1_000_000, 3)
    frames = counts.reshape(5000, 200).sum(axis=1)
    assert abs(frames.mean() - 100.0) < 1.3


def test_window_sums_variance_over_mean_near_one():
    counts = _schedule(0.7, 1_000_000, 4)
    windows = counts.reshape(-1, 100).sum(axis=1)
    ratio = windows.var() / windows.mean()
    assert abs(ratio - 1.0) < 0.05


def test_seed_determinism():
    assert np.array_equal(_schedule(0.9, 50_000, 7), _schedule(0.9, 50_000, 7))
    assert not np.array_equal(_schedule(0.9, 50_000, 7), _schedule(0.9, 50_000, 8))


def test_slots_int64_ascending_in_range():
    slots = _slots(0.8, 100_000, 5)
    assert slots.dtype == np.int64
    assert np.all(slots[1:] >= slots[:-1])
    assert slots[0] >= 0 and slots[-1] < 100_000


def test_count_pmf_within_4sigma():
    # P(count = k) per slot against the Poisson(0.6) pmf, 4 binomial sd
    total = 1_000_000
    counts = _schedule(0.6, total, 9)
    for k in range(4):
        p = math.exp(-0.6) * 0.6**k / math.factorial(k)
        assert abs(np.mean(counts == k) - p) < 4 * math.sqrt(p * (1 - p) / total), k


def test_neighbouring_counts_uncorrelated():
    total = 1_000_000
    counts = _schedule(0.6, total, 10).astype(float)
    assert abs(np.corrcoef(counts[:-1], counts[1:])[0, 1]) < 4 / math.sqrt(total)
