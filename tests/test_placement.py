import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chisquare

from craloha import DegreeDistribution
from craloha.placement import last_decode_slot, place_replicas, tx_frame_start

from conftest import make_scheme


def _place(mode, window, arrivals, degrees, rng, max_degree):
    """``place_replicas`` under a scheme whose distribution has
    ``max_degree``, while ``degrees`` sets the rows."""
    scheme = make_scheme(mode, window=window, dist=DegreeDistribution(((max_degree, 1.0),)))
    arrivals = np.broadcast_to(np.asarray(arrivals, dtype=np.int64), np.shape(degrees))
    return place_replicas(scheme, arrivals, degrees, rng)


def _rows(flat, offsets):
    return [flat[offsets[p] : offsets[p + 1]].tolist() for p in range(len(offsets) - 1)]


class TestFrameGrid:
    def test_frame_index(self):
        # slots 0..99 are frame 0 and transmit in frame 1; slot 100 opens frame 1
        assert tx_frame_start(0, 100) == tx_frame_start(99, 100) == 100
        assert tx_frame_start(100, 100) == 200
        assert tx_frame_start(np.array([0, 99, 100, 250]), 100).tolist() == [100, 100, 200, 300]

    def test_tx_frame_is_strictly_after_ready_slot(self):
        # mid-frame arrivals use the next frame; boundary arrivals wait a
        # full frame so the decode delay stays above the one-slot floor
        assert tx_frame_start(5, 100) == 100
        assert tx_frame_start(99, 100) == 100
        assert tx_frame_start(100, 100) == 200
        assert tx_frame_start(0, 100) == 100


class TestLastDecodeSlot:
    def test_fr_frame_last_slot(self):
        # ready in frame 0 transmits in frame 1, restorable to its last slot
        scheme = make_scheme("FR", window=100)
        assert last_decode_slot(scheme, 0) == last_decode_slot(scheme, 99) == 199
        assert last_decode_slot(scheme, 100) == 299

    def test_sw_memory_span(self):
        assert last_decode_slot(make_scheme("SW", window=100, n_rx=500), 7) == 506

    def test_elementwise(self):
        fr, sw = make_scheme("FR", window=100), make_scheme("SW", window=100, n_rx=500)
        ready = np.array([0, 99, 100, 7])
        assert last_decode_slot(fr, ready).tolist() == [199, 199, 299, 199]
        assert last_decode_slot(sw, ready).tolist() == [499, 598, 599, 506]


class TestPlaceFr:
    def test_replicas_land_in_next_frame(self, rng):
        flat, offsets = _place("FR", 100, 5, np.full(200, 2), rng, 2)
        for slots in _rows(flat, offsets):
            assert len(slots) == 2 and len(set(slots)) == 2
            assert all(100 <= s <= 199 for s in slots)
            assert slots == sorted(slots)

    def test_full_frame_occupancy(self, rng):
        # degree equal to the frame length fills the transmission frame
        flat, offsets = _place("FR", 100, 50, np.array([100]), rng, 100)
        assert _rows(flat, offsets) == [list(range(100, 200))]

    def test_degree_above_frame_rejected(self, rng):
        with pytest.raises(ValueError):
            _place("FR", 10, 0, np.array([11]), rng, 10)

    def test_per_slot_frequency_uniform(self):
        # coarse check here; the 4-sigma check at 1e6 placements is in acceptance
        n = 200_000
        tol = 5 * np.sqrt(0.06 * 0.94 / n)
        flat, _ = _place("FR", 50, 7, np.full(n, 3), np.random.default_rng(2), 3)
        freq = np.bincount(flat - 50, minlength=50) / n
        assert np.abs(freq - 3 / 50).max() < tol


class TestPlaceSw:
    def test_degree_one_is_immediate(self, rng):
        for window in (1, 100):
            flat, offsets = _place("SW", window, 7, np.array([1]), rng, 1)
            assert _rows(flat, offsets) == [[7]]

    def test_saturated_window(self, rng):
        flat, offsets = _place("SW", 4, 7, np.array([4]), rng, 4)
        assert _rows(flat, offsets) == [[7, 8, 9, 10]]

    def test_first_replica_at_ready_slot(self, rng):
        flat, offsets = _place("SW", 20, 31, np.full(200, 3), rng, 3)
        for slots in _rows(flat, offsets):
            assert slots[0] == 31
            assert len(set(slots)) == 3
            assert all(32 <= s <= 50 for s in slots[1:])
            assert slots == sorted(slots)

    def test_degree_above_window_rejected(self, rng):
        with pytest.raises(ValueError):
            _place("SW", 4, 0, np.array([5]), rng, 4)

    def test_offsets_equally_distributed(self):
        # chi-square goodness of fit of offsets 1..99 to uniform, 1e6 placements
        n = 1_000_000
        flat, _ = _place("SW", 100, 0, np.full(n, 2), np.random.default_rng(1), 2)
        counts = np.bincount(flat[1::2], minlength=100)
        assert chisquare(counts[1:]).pvalue > 1e-4


class TestSampleWithoutReplacement:
    """Every row is a uniform draw without replacement from its eligible
    offsets, up to a degree equal to the window."""

    @given(
        mode=st.sampled_from(["FR", "SW"]),
        n=st.integers(1, 64),
        k=st.integers(0, 64),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=200, derandomize=True)
    def test_distinct_and_in_range(self, mode, n, k, seed):
        rng = np.random.default_rng(seed)
        degrees = np.full(3, k)
        if not 1 <= k <= n:
            with pytest.raises(ValueError):
                _place(mode, n, 40, degrees, rng, n)
            return
        flat, offsets = _place(mode, n, 40, degrees, rng, n)
        lo = tx_frame_start(40, n) if mode == "FR" else 40
        for slots in _rows(flat, offsets):
            assert len(slots) == k
            assert len(set(slots)) == k
            assert all(lo <= s < lo + n for s in slots)
            assert mode == "FR" or slots[0] == 40

    def test_dense_draw_uniform(self):
        # drawing 5 of 6 hits every frame slot uniformly
        n = 60_000
        flat, _ = _place("FR", 6, 0, np.full(n, 5), np.random.default_rng(9), 6)
        freq = np.bincount(flat - 6, minlength=6) / (5 * n)
        assert np.abs(freq - 1 / 6).max() < 0.01


def _floyd_reference(fr, n_window, arrival_slots, degrees, rng):
    """Per-packet Floyd subset sampling with a ``set``, over the same
    ``rng.integers`` calls as ``place_replicas`` (degree ascending, then
    column by column): the reference for the vectorized path."""
    low = 0 if fr else 1
    draws = [[] for _ in range(len(degrees))]
    for d in sorted(set(degrees.tolist())):
        rows = np.flatnonzero(degrees == d).tolist()
        for i in range(low, d):
            for p, t in zip(rows, rng.integers(low, n_window - d + i + 1, size=len(rows)).tolist()):
                draws[p].append(t)
    out = []
    for t, d, picks in zip(arrival_slots.tolist(), degrees.tolist(), draws):
        picked = set()
        for j, v in zip(range(n_window - d + low, n_window), picks):
            picked.add(j if v in picked else v)
        if fr:
            base = (t // n_window + 1) * n_window
            out.append(sorted(base + v for v in picked))
        else:
            out.append([t] + sorted(t + v for v in picked))
    return out


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

    @staticmethod
    def _generator(kind, seed):
        """A numpy Generator over the bit generator ``kind``. "PCG64-pending"
        has drawn one 32-bit word, so its next 32-bit draw is the buffered
        other half of a 64-bit output."""
        if kind == "PCG64-pending":
            rng = np.random.Generator(np.random.PCG64(seed))
            rng.integers(0, 10)
            return rng
        return np.random.Generator(getattr(np.random, kind)(seed))

    @pytest.mark.parametrize(
        "mode,window,n,bitgen",
        [
            # window 30 with degree 8 makes Floyd's fallback common
            pytest.param("FR", 30, 3_000, "PCG64", id="FR"),
            pytest.param("SW", 30, 3_000, "PCG64", id="SW"),
            # a benchmark window
            pytest.param("SW", 200, 45_000, "PCG64", id="SW-200"),
            # degree 8 in 25 slots: most degree-8 rows take the fallback
            pytest.param("FR", 25, 10_000, "PCG64", id="FR-25"),
            # numpy's other bit generators; MT19937 makes 32-bit words natively
            pytest.param("FR", 30, 2_000, "Philox", id="FR-Philox"),
            pytest.param("SW", 30, 2_000, "SFC64", id="SW-SFC64"),
            pytest.param("FR", 30, 2_000, "MT19937", id="FR-MT19937"),
            pytest.param("SW", 30, 2_000, "MT19937", id="SW-MT19937"),
            pytest.param("SW", 30, 2_000, "PCG64-pending", id="SW-pending-word"),
            pytest.param("FR", 30, 2_000, "PCG64-pending", id="FR-pending-word"),
            # degree 8 fills the window: a column whose range is one value
            # draws nothing
            pytest.param("FR", 8, 2_000, "PCG64", id="FR-degree-is-window"),
            pytest.param("SW", 8, 2_000, "PCG64", id="SW-degree-is-window"),
            # ranges of 2**32 - 1 (a bare 32-bit word) and above (numpy's
            # 64-bit branch)
            pytest.param("FR", 2**32, 30, "PCG64", id="FR-2**32"),
            pytest.param("SW", 2**32 + 1, 30, "PCG64-pending", id="SW-2**32+1-pending-word"),
            pytest.param("FR", 2**33, 30, "PCG64", id="FR-2**33"),
            pytest.param("SW", 2**33, 30, "PCG64-pending", id="SW-2**33-pending-word"),
        ],
    )
    def test_wide_path_matches_loop_reference(self, mode, window, n, bitgen):
        scheme = make_scheme(mode, window=window, dist=DegreeDistribution(((1, 0.2), (2, 0.3), (3, 0.2), (8, 0.3))))
        arrivals, degrees = self._inputs(5, n=n, horizon=2 * n // 3)
        rng, ref_rng = self._generator(bitgen, 9), self._generator(bitgen, 9)
        flat, offsets = place_replicas(scheme, arrivals, degrees, rng)
        ref = _floyd_reference(mode == "FR", window, arrivals, degrees, ref_rng)
        assert self._rows(flat, offsets) == ref
        assert np.array_equal(np.diff(offsets), degrees)
        # the batched columns leave the generator where the reference's calls
        # do (assert_equal: Philox, SFC64 and MT19937 states hold arrays)
        np.testing.assert_equal(rng.bit_generator.state, ref_rng.bit_generator.state)
        assert rng.integers(0, 2**62) == ref_rng.integers(0, 2**62)

    @pytest.mark.parametrize("mode", ["FR", "SW"])
    def test_narrow_rows_sorted_distinct_in_window(self, mode):
        # irsa8 on a 20-slot window: degree-8 rows fill 8 of 20 slots
        scheme = make_scheme(mode, window=20, dist="irsa8")
        arrivals, _ = self._inputs(6, n=500, horizon=300)
        degrees = np.random.default_rng(1).choice([1, 2, 3, 8], size=len(arrivals))
        flat, offsets = place_replicas(scheme, arrivals, degrees, np.random.default_rng(4))
        assert np.array_equal(np.diff(offsets), degrees)
        starts = tx_frame_start(arrivals, 20) if mode == "FR" else arrivals
        for row, t, lo in zip(self._rows(flat, offsets), arrivals.tolist(), starts.tolist()):
            assert all(a < b for a, b in zip(row, row[1:]))
            assert lo <= row[0] and row[-1] < lo + 20
            assert mode == "FR" or row[0] == t

    @pytest.mark.parametrize("mode,window,degree", [("FR", 5, 2), ("SW", 6, 3), ("FR", 12, 3)])
    def test_subsets_uniform(self, mode, window, degree):
        # 2 of 5 offsets (10 subsets) or 3 of 12 (220): each subset within
        # 4 sigma of its uniform share
        n = 100_000
        scheme = make_scheme(mode, window=window, dist=DegreeDistribution(((degree, 1.0),)))
        flat, _ = place_replicas(scheme, np.zeros(n, dtype=np.int64), np.full(n, degree), np.random.default_rng(3))
        rows = flat.reshape(n, degree) - (window if mode == "FR" else 0)
        if mode == "SW":
            assert (rows[:, 0] == 0).all()
            rows = rows[:, 1:]
        masks = (1 << rows).sum(axis=1)
        subsets, counts = np.unique(masks, return_counts=True)
        n_subsets = math.comb(window - (mode == "SW"), rows.shape[1])
        assert len(subsets) == n_subsets
        share = 1 / n_subsets
        tol = 4 * np.sqrt(share * (1 - share) / n)
        assert np.abs(counts / n - share).max() < tol

    @pytest.mark.parametrize(
        "mode,window,max_degree,bad",
        [
            ("FR", 200, 2, 201),
            ("FR", 200, 2, 0),
            ("FR", 20, 8, 21),
            ("SW", 200, 2, 201),
            ("SW", 20, 8, 21),
            ("SW", 20, 8, 0),
        ],
    )
    def test_out_of_range_degree_rejected(self, mode, window, max_degree, bad):
        scheme = make_scheme(mode, window=window, dist=DegreeDistribution(((max_degree, 1.0),)))
        degrees = np.array([2, 2, bad, 2, bad])
        with pytest.raises(ValueError, match=rf"packet 2 has degree {bad}\b"):
            place_replicas(scheme, np.arange(5), degrees, np.random.default_rng(0))

    def test_no_packets(self):
        scheme = make_scheme("SW", window=100, dist="crdsa2")
        flat, offsets = place_replicas(scheme, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.random.default_rng(0))
        assert len(flat) == 0 and offsets.tolist() == [0]

