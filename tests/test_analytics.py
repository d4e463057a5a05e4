import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from craloha import (
    DegreeDistribution,
    SchemeConfig,
    named_distribution,
    p_uins_fr,
    p_uins_sw,
    sa_throughput,
)
from craloha.analytics import (
    delay_support_slots,
    oracle_decode,
    p_first,
    p_i,
    p_not,
    p_uins_fr_terms,
    p_uins_sw_terms,
)

from conftest import oracle


def residual_placements(placements, decoded):
    """Placements of the packets not in ``decoded`` (the stopping set)."""
    return {pid: slots for pid, slots in placements.items() if pid not in decoded}


class TestPlacementFactors:
    def test_p_i(self):
        assert p_i(1, 100) == pytest.approx(1 / 100)
        assert p_i(3, 100) == pytest.approx(1 / 98)
        with pytest.raises(ValueError):
            p_i(0, 100)
        with pytest.raises(ValueError):
            p_i(101, 100)

    def test_p_not(self):
        assert p_not(0, 100) == 1.0
        assert p_not(2, 100) == pytest.approx(0.98)
        # telescoping product form: (N-1)/N * (N-2)/(N-1) * ... = (N-j)/N
        prod = math.prod((100 - i) / (100 - i + 1) for i in range(1, 6))
        assert p_not(5, 100) == pytest.approx(prod)

    def test_p_first(self):
        assert p_first(100, 100) == pytest.approx(0.99)
        assert p_first(1, 100) == 0.0


class TestPUinS:
    def test_fr_telescopes_to_l_over_n(self):
        assert p_uins_fr(2, 100) == pytest.approx(0.02, abs=1e-15)
        assert p_uins_fr(1, 1) == 1.0
        assert p_uins_fr(3, 7) == pytest.approx(3 / 7, abs=1e-15)

    def test_fr_terms_all_equal_inverse_n(self):
        terms = p_uins_fr_terms(3, 7)
        assert len(terms) == 3
        assert all(t == pytest.approx(1 / 7, abs=1e-15) for t in terms)

    def test_sw_equals_fr(self):
        assert p_uins_sw(2, 100, 100) == pytest.approx(p_uins_fr(2, 100), abs=1e-15)

    def test_sw_degree_one_is_first_replica_term(self):
        assert p_uins_sw(1, 250, 100) == pytest.approx(1 / 250, abs=1e-15)

    def test_sw_smaller_window_same_result(self):
        assert p_uins_sw(4, 200, 50) == pytest.approx(0.02, abs=1e-15)

    def test_sw_saturated_window(self):
        # degree == window: the last factor pair degenerates but the sum holds
        assert p_uins_sw(8, 1000, 8) == pytest.approx(8 / 1000, abs=1e-15)
        assert p_uins_sw(2, 10, 2) == pytest.approx(0.2, abs=1e-15)

    def test_sw_terms_structure(self):
        terms = p_uins_sw_terms(4, 200, 50)
        assert terms[0] == pytest.approx(1 / 200, abs=1e-15)
        assert sum(terms) == pytest.approx(4 / 200, abs=1e-15)

    def test_exhaustive_small_grid(self):
        for l in range(1, 6):
            for n_sw in range(l, 13):
                for n in range(n_sw, 21):
                    lhs = p_uins_fr(l, n)
                    rhs = p_uins_sw(l, n, n_sw)
                    assert abs(lhs - l / n) < 1e-12, (l, n_sw, n)
                    assert abs(rhs - l / n) < 1e-12, (l, n_sw, n)

    @given(data=st.data())
    @settings(max_examples=300, derandomize=True)
    def test_random_triples(self, data):
        l = data.draw(st.integers(1, 8))
        n_sw = data.draw(st.integers(l, 200))
        n = data.draw(st.integers(n_sw, 1000))
        assert abs(p_uins_fr(l, n) - l / n) < 1e-12
        assert abs(p_uins_sw(l, n, n_sw) - l / n) < 1e-12

    def test_preconditions(self):
        with pytest.raises(ValueError):
            p_uins_fr(5, 4)
        with pytest.raises(ValueError):
            p_uins_sw(3, 10, 2)
        with pytest.raises(ValueError):
            p_uins_sw(2, 10, 20)


class TestDelayBounds:
    def test_fr(self):
        s = SchemeConfig(mode="FR", window_slots=100, degree_distribution=named_distribution("crdsa2"))
        assert delay_support_slots(s) == (2, 200)

    def test_sw(self):
        s = SchemeConfig(
            mode="SW", window_slots=100, degree_distribution=named_distribution("crdsa2"),
            receiver_memory_slots=500,
        )
        assert delay_support_slots(s) == (1, 500)

    def test_degenerate_frame(self):
        s = SchemeConfig(
            mode="FR", window_slots=1, degree_distribution=DegreeDistribution(((1, 1.0),))
        )
        assert delay_support_slots(s) == (2, 2)


class TestSaThroughput:
    def test_peak(self):
        assert sa_throughput(1.0) == pytest.approx(0.3679, abs=5e-5)

    def test_zero(self):
        assert sa_throughput(0.0) == 0.0

    def test_half(self):
        assert sa_throughput(0.5) == pytest.approx(0.3033, abs=5e-5)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sa_throughput(-0.1)


class TestOracleDecode:
    def test_waterfall_layout_fully_decodes(self):
        # users 1..3 fully collided, user 4 holds the only clean instance
        placements = {1: (0, 1), 2: (0, 1, 2), 3: (2, 3), 4: (3, 4)}
        assert oracle(placements) == {1, 2, 3, 4}

    def test_minimal_stopping_set(self):
        placements = {1: (0, 1), 2: (0, 1)}
        decoded = oracle(placements)
        assert decoded == set()
        residual = residual_placements(placements, decoded)
        assert set(residual) == {1, 2}

    def test_idempotent(self):
        placements = {1: (0, 1), 2: (0, 2), 3: (1, 2), 4: (3,), 5: (3, 4)}
        decoded = oracle(placements)
        rest = residual_placements(placements, decoded)
        assert oracle(rest) == set()

    def test_placement_order_invariant(self):
        items = [(1, (0, 1)), (2, (0, 2)), (3, (2, 5)), (4, (5, 6)), (5, (6, 7))]
        a = oracle(dict(items))
        b = oracle(dict(reversed(items)))
        assert a == b
        # nor does the order of a packet's slots, or of the packets, matter
        flat, offsets = [1, 0, 2, 0, 5, 2, 6, 5, 7, 6], [0, 2, 4, 6, 8, 10]
        assert oracle_decode(flat, offsets).tolist() == oracle_decode(flat[::-1], offsets).tolist()[::-1]

    def test_accepts_sequence_input(self):
        # the CSR pair may be plain lists; the mask is indexed by packet
        assert oracle_decode([0, 0, 1], [0, 1, 3]).tolist() == [True, True]
        assert oracle_decode([], [0]).tolist() == []

    def test_residual_is_stopping_set_on_random_instances(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            k = int(rng.integers(1, 12))
            placements = {}
            for pid in range(k):
                deg = int(rng.integers(1, 4))
                slots = rng.choice(20, size=deg, replace=False)
                placements[pid] = tuple(int(s) for s in slots)
            decoded = oracle(placements)  # oracle_decode raises on violation
            residual = residual_placements(placements, decoded)
            occupancy = {}
            for slots in residual.values():
                for s in slots:
                    occupancy[s] = occupancy.get(s, 0) + 1
            assert all(c >= 2 for c in occupancy.values())
