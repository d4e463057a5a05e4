import numpy as np

from craloha import TrafficConfig
from craloha.engine import generate_arrivals


def _schedule(lam, total, seed):
    cfg = TrafficConfig(mean_arrival_rate=lam, total_slots=total, warmup_slots=0, rng_seed=seed)
    return generate_arrivals(cfg, np.random.default_rng(seed))


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
