import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from craloha import DegreeDistribution, FrameGrid, place_fr, place_sw, shared_window_slots
from craloha.placement import place_replicas, sample_without_replacement

from conftest import make_scheme


class TestFrameGrid:
    def test_frame_index(self):
        g = FrameGrid(100)
        assert g.frame_index(0) == 0
        assert g.frame_index(99) == 0
        assert g.frame_index(100) == 1

    def test_tx_frame_is_strictly_after_ready_slot(self):
        g = FrameGrid(100)
        # mid-frame arrivals use the next frame; boundary arrivals wait a
        # full frame so the decode delay stays above the one-slot floor
        assert g.tx_frame_start(5) == 100
        assert g.tx_frame_start(99) == 100
        assert g.tx_frame_start(100) == 200
        assert g.tx_frame_start(0) == 100

    def test_origin_offset(self):
        g = FrameGrid(10, origin=3)
        assert g.frame_index(3) == 0
        assert g.tx_frame_start(3) == 13
        assert g.tx_frame_start(12) == 13


class TestPlaceFr:
    def test_replicas_land_in_next_frame(self, rng):
        for _ in range(200):
            slots = place_fr(5, 2, FrameGrid(100), rng)
            assert len(slots) == 2 and len(set(slots)) == 2
            assert all(100 <= s <= 199 for s in slots)
            assert list(slots) == sorted(slots)

    def test_full_frame_occupancy(self, rng):
        # degree equal to the frame length fills the transmission frame
        assert place_fr(50, 100, FrameGrid(100), rng) == tuple(range(100, 200))

    def test_degree_above_frame_rejected(self, rng):
        with pytest.raises(ValueError):
            place_fr(0, 11, FrameGrid(10), rng)

    def test_per_slot_frequency_uniform(self):
        # coarse check here; the 4-sigma check at 1e6 placements is in acceptance
        rng = np.random.default_rng(2)
        counts = np.zeros(50, dtype=int)
        n = 200_000
        for _ in range(n):
            for s in place_fr(7, 3, FrameGrid(50), rng):
                counts[s - 50] += 1
        freq = counts / n
        tol = 5 * np.sqrt(0.06 * 0.94 / n)
        assert np.abs(freq - 3 / 50).max() < tol


class TestPlaceSw:
    def test_degree_one_is_immediate(self, rng):
        assert place_sw(7, 1, 1, rng) == (7,)
        assert place_sw(7, 1, 100, rng) == (7,)

    def test_saturated_window(self, rng):
        assert place_sw(7, 4, 4, rng) == (7, 8, 9, 10)

    def test_first_replica_at_ready_slot(self, rng):
        for _ in range(200):
            slots = place_sw(31, 3, 20, rng)
            assert slots[0] == 31
            assert len(set(slots)) == 3
            assert all(32 <= s <= 50 for s in slots[1:])
            assert list(slots) == sorted(slots)

    def test_degree_above_window_rejected(self, rng):
        with pytest.raises(ValueError):
            place_sw(0, 5, 4, rng)

    def test_offsets_equally_distributed(self):
        # each offset in [1, 99] within 3 sigma of 1/99 at 1e6 placements
        rng = np.random.default_rng(1)
        counts = np.zeros(100, dtype=int)
        n = 1_000_000
        for _ in range(n):
            counts[place_sw(0, 2, 100, rng)[1]] += 1
        p = 1 / 99
        tol = 3 * np.sqrt(p * (1 - p) / n)
        assert np.abs(counts[1:] / n - p).max() < tol


class TestSharedWindowSlots:
    def test_same_slot_arrivals_share_everything(self):
        assert shared_window_slots(0, 100) == 100

    def test_disjoint_windows(self):
        assert shared_window_slots(100, 100) == 0
        assert shared_window_slots(150, 100) == 0

    def test_partial_overlap(self):
        assert shared_window_slots(37, 100) == 63

    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError):
            shared_window_slots(-1, 100)

    @given(gap=st.integers(0, 400), window=st.integers(1, 300))
    @settings(max_examples=200, derandomize=True)
    def test_matches_interval_intersection(self, gap, window):
        a = set(range(0, window))
        b = set(range(gap, gap + window))
        assert shared_window_slots(gap, window) == len(a & b)


class TestSampleWithoutReplacement:
    @given(n=st.integers(1, 64), k=st.integers(0, 64), seed=st.integers(0, 2**16))
    @settings(max_examples=200, derandomize=True)
    def test_distinct_and_in_range(self, n, k, seed):
        if k > n:
            with pytest.raises(ValueError):
                sample_without_replacement(np.random.default_rng(seed), n, k)
            return
        out = sample_without_replacement(np.random.default_rng(seed), n, k)
        assert len(out) == k
        assert len(set(out.tolist())) == k
        assert all(0 <= v < n for v in out.tolist())

    def test_dense_draw_uniform(self):
        # partial-shuffle branch: drawing n-1 of n hits every value uniformly
        rng = np.random.default_rng(9)
        counts = np.zeros(6, dtype=int)
        n = 60_000
        for _ in range(n):
            for v in sample_without_replacement(rng, 6, 5):
                counts[v] += 1
        freq = counts / (5 * n)
        assert np.abs(freq - 1 / 6).max() < 0.01


def _pool_reference(fr, n_window, arrival_slots, degrees, rng):
    """Per-packet loop over one pool draw, completing duplicate rows with
    fresh draws in packet order: the reference for the vectorized path."""
    total = int(degrees.sum())
    if fr:
        pool = rng.integers(0, n_window, size=total).tolist() if total else []
    else:
        n_extra = total - len(degrees)
        pool = rng.integers(1, n_window, size=n_extra).tolist() if n_extra else []
    rows, pos = [], 0
    for t, l in zip(arrival_slots.tolist(), degrees.tolist()):
        k = l if fr else l - 1
        picked = set(pool[pos : pos + k])
        pos += k
        while len(picked) < k:
            picked.update(rng.integers(0 if fr else 1, n_window, size=k - len(picked)).tolist())
        if fr:
            base = (t // n_window + 1) * n_window
            rows.append(sorted(base + v for v in picked))
        else:
            rows.append([t] + sorted(t + v for v in picked))
    return rows


class TestPlaceReplicas:
    @staticmethod
    def _inputs(seed, n=3_000, horizon=2_000):
        rng = np.random.default_rng(seed)
        arrivals = np.sort(rng.integers(0, horizon, size=n))
        degrees = rng.choice([1, 2, 3, 8], size=n)
        return arrivals, degrees

    @staticmethod
    def _rows(flat, offsets):
        return [flat[offsets[p] : offsets[p + 1]].tolist() for p in range(len(offsets) - 1)]

    @pytest.mark.parametrize("mode", ["FR", "SW"])
    def test_wide_path_matches_loop_reference(self, mode):
        # window 30 with degree 8 makes duplicate pool rows common
        scheme = make_scheme(mode, window=30, dist=DegreeDistribution(((1, 0.2), (2, 0.3), (3, 0.2), (8, 0.3))))
        arrivals, degrees = self._inputs(5)
        flat, offsets = place_replicas(scheme, arrivals, degrees, np.random.default_rng(9))
        ref_rng = np.random.default_rng(9)
        ref = _pool_reference(mode == "FR", 30, arrivals, degrees, ref_rng)
        assert self._rows(flat, offsets) == ref
        assert np.array_equal(np.diff(offsets), degrees)

    @pytest.mark.parametrize("mode", ["FR", "SW"])
    def test_narrow_path_calls_per_packet_samplers(self, mode):
        scheme = make_scheme(mode, window=20, dist="irsa8")
        arrivals, _ = self._inputs(6, n=500, horizon=300)
        degrees = np.random.default_rng(1).choice([2, 3, 8], size=len(arrivals))
        flat, offsets = place_replicas(scheme, arrivals, degrees, np.random.default_rng(4))
        rng = np.random.default_rng(4)
        grid = FrameGrid(20)
        ref = [
            list(place_fr(t, l, grid, rng) if mode == "FR" else place_sw(t, l, 20, rng))
            for t, l in zip(arrivals.tolist(), degrees.tolist())
        ]
        assert self._rows(flat, offsets) == ref

    def test_no_packets(self):
        scheme = make_scheme("SW", window=100, dist="crdsa2")
        flat, offsets = place_replicas(scheme, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.random.default_rng(0))
        assert len(flat) == 0 and offsets.tolist() == [0]
