import heapq
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import craloha.decoder
from craloha.decoder import peel
from craloha.engine import generate_arrivals
from craloha.model import sample_degrees
from craloha.placement import place_replicas

from conftest import feed, make_scheme, make_traffic, oracle


@st.composite
def _csr_with_faults(draw):
    """A small valid ``(flat, offsets, last)`` triple with 0-3 faults injected:
    bad offset ends, an empty row, a non-ascending row, a negative first
    slot, a short ``last`` and a late ``last``."""
    row = st.lists(st.integers(0, 30), min_size=1, max_size=4, unique=True).map(sorted)
    rows = draw(st.lists(row, min_size=1, max_size=6))
    last = [row[0] + draw(st.integers(0, 5)) for row in rows]
    faults = draw(st.lists(st.sampled_from(["ends", "empty", "unsorted", "negative", "short", "late"]), max_size=3))
    # row faults first, in the drawn order; the two that cut across rows after
    for fault in faults:
        if fault == "empty":
            p = draw(st.integers(0, len(rows)))
            rows.insert(p, [])
            last.insert(p, draw(st.integers(0, 30)))
        elif fault == "unsorted" and (long := [p for p, row in enumerate(rows) if len(row) > 1]):
            row = rows[draw(st.sampled_from(long))]
            j = draw(st.integers(0, len(row) - 2))
            row[j + 1] = row[j] - draw(st.integers(0, 2))  # repeated or descending
        elif fault in ("negative", "late") and (full := [p for p, row in enumerate(rows) if row]):
            p = draw(st.sampled_from(full))
            if fault == "negative":
                rows[p][0] = -draw(st.integers(1, 3))
            else:
                last[p] = rows[p][0] - draw(st.integers(1, 3))
    if "short" in faults:
        last = last[: -draw(st.integers(1, len(last)))]
    flat = [s for row in rows for s in row]
    offsets = [0]
    for row in rows:
        offsets.append(offsets[-1] + len(row))
    if "ends" in faults:
        if draw(st.booleans()):
            offsets[0] = draw(st.integers(1, 2))
        else:
            offsets[-1] += draw(st.sampled_from([-1, 1]))
    return flat, offsets, last


def _first_fault(flat, offsets, last):
    """The message for the first of ``peel``'s six input rules the triple
    breaks, each rule over every packet before the next; None if none."""
    n = len(offsets) - 1
    if offsets[0] != 0 or offsets[n] != len(flat):
        p = 0 if n < 1 or offsets[0] != 0 else n - 1
        return f"packet {p}: replica_offsets must run from 0 to len(replica_flat) = {len(flat)}"
    for p in range(n):
        if offsets[p + 1] <= offsets[p]:
            return f"packet {p} has no replica slots"
    for p in range(n):
        row = flat[offsets[p] : offsets[p + 1]]
        for a, b in zip(row, row[1:]):
            if b <= a:
                return f"packet {p} has replica slots not strictly ascending: {b} after {a}"
    for p in range(n):
        if flat[offsets[p]] < 0:
            return f"packet {p} has negative replica slot {flat[offsets[p]]}"
    if len(last) != n:
        return f"last_slots has {len(last)} entries for {n} packets"
    for p in range(n):
        if last[p] < flat[offsets[p]]:
            return f"packet {p} has last slot {last[p]} before its first replica slot {flat[offsets[p]]}"
    return None


class TestIngest:
    def test_capacity_eviction(self):
        # singletons resolve in the slot they arrive in
        fed = feed({1: (5, 8), 2: (6, 8), 3: (7, 8)}, 3)
        assert fed.decode_slot == {1: 5, 2: 6, 3: 7}
        assert fed.lost == {}
        # two packets per slot so nothing decodes; slot 5 slides out of the
        # three-slot memory when slot 8 is ingested, slot 6 at slot 9
        pl = {1: (5, 6), 2: (5, 6), 3: (6, 7), 4: (7, 8), 5: (7, 8), 6: (8, 9)}
        fed = feed(pl, 3, n_slots=9)
        assert fed.order == []
        assert fed.lost == {1: 8, 2: 8}
        assert feed(pl, 3, n_slots=10).lost == {1: 8, 2: 8, 3: 9}

    def test_earliest_replica_eviction_loses_packet(self):
        # a stopping pair never resolves; both packets are lost the moment
        # slot 0 slides out of the two-slot window (at ingest of slot 2)
        placements = {1: (0, 1), 2: (0, 1)}
        fed = feed(placements, 2)
        assert fed.order == [] and fed.lost == {}
        fed = feed(placements, 2, n_slots=4)
        assert fed.order == [] and fed.lost == {1: 2, 2: 2}

    def test_dead_instance_blocks_slot(self):
        # packet 10 (slots 0,3) is pinned by a stopping pair in slot 0 and
        # dies when slot 0 evicts at t=4; its instance in slot 3 stays as
        # uncancellable interference, so packet 20 (slots 3,6) never becomes
        # singleton in slot 3 and, with slot 6 also blocked, dies in turn
        placements = {
            10: (0, 3),
            1: (0, 1),
            2: (0, 1),
            20: (3, 6),
            3: (6, 7),
            4: (6, 7),
            30: (8, 9),
        }
        fed = feed(placements, 4, n_slots=12)
        assert set(fed.decode_slot) == {30}
        assert 10 in fed.lost and 20 in fed.lost
        assert set(fed.lost) == {10, 1, 2, 20, 3, 4}

    def test_last_slot_before_first_replica_rejected(self):
        with pytest.raises(ValueError, match="before its first replica slot"):
            peel(np.array([0, 3, 5]), np.array([0, 1, 3]), np.array([0, 2]), 6)

    @pytest.mark.parametrize(
        "flat, offsets, last, message",
        [
            ([0, 3, 5], [1, 3], [9], r"packet 0: replica_offsets must run from 0 to len\(replica_flat\) = 3"),
            ([0, 3, 5], [0, 1, 2], [9, 9], r"packet 1: replica_offsets must run from 0 to len\(replica_flat\) = 3"),
            ([0, 3, 5], [0, 0, 3], [9, 9], "packet 0 has no replica slots"),
            ([0, 3, 5], [0, 2, 1, 3], [9, 9, 9], "packet 1 has no replica slots"),
            ([0, 5, 3], [0, 1, 3], [9, 9], "packet 1 has replica slots not strictly ascending: 3 after 5"),
            ([0, 4, 4], [0, 1, 3], [9, 9], "packet 1 has replica slots not strictly ascending: 4 after 4"),
            ([0, -2, 4], [0, 1, 3], [9, 9], "packet 1 has negative replica slot -2"),
            ([0, 3, 5], [0, 1, 3], [9], "last_slots has 1 entries for 2 packets"),
        ],
        ids=[
            "offsets-start", "offsets-end", "empty-row", "offsets-descend", "unsorted", "repeated", "negative", "short-last"
        ],
    )
    def test_malformed_input_names_first_bad_packet(self, flat, offsets, last, message):
        # the compiled loop indexes its buffers by these values unchecked; a
        # repeated slot would also cancel itself out of the slot's XOR
        with pytest.raises(ValueError, match=message):
            peel(np.array(flat), np.array(offsets), np.array(last), 10)

    @pytest.mark.parametrize(
        "flat, offsets, last, message",
        [
            ([5, 3, 4], [0, 2, 2, 3], [9, 9, 9], "packet 1 has no replica slots"),
            ([-1, 2, 5, 3], [0, 2, 4], [9, 9], "packet 1 has replica slots not strictly ascending: 3 after 5"),
            ([0, 4, -3], [0, 2, 3], [-1], "packet 1 has negative replica slot -3"),
            ([4, 2, 6], [0, 1, 3], [0, 1], "packet 0 has last slot 0 before its first replica slot 4"),
        ],
        ids=["empty-before-unsorted", "unsorted-before-negative", "negative-before-short-last", "late-twice"],
    )
    def test_two_faults_name_the_earlier_check(self, flat, offsets, last, message):
        # each check runs over every packet before the next one does, so an
        # earlier check's fault at a later packet wins
        with pytest.raises(ValueError, match=message):
            peel(np.array(flat), np.array(offsets), np.array(last), 10)

    @given(csr=_csr_with_faults())
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_check_order_matches_per_packet_reference(self, csr):
        flat, offsets, last = csr
        message = _first_fault(flat, offsets, last)
        args = (np.array(flat, np.int64), np.array(offsets, np.int64), np.array(last, np.int64), 40)
        if message is None:
            assert len(peel(*args).decode_slots) == len(last)
        else:
            with pytest.raises(ValueError) as info:
                peel(*args)
            assert str(info.value) == message

    def test_iteration_cap_must_be_positive(self):
        with pytest.raises(ValueError, match="i_max"):
            peel(np.array([0]), np.array([0, 1]), np.array([0]), 1, i_max=0)


class TestBuffers:
    def test_zero_packets(self):
        out = peel(np.zeros(0, dtype=np.int64), np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64), 5)
        assert out.decode_slots.dtype == np.int64 and len(out.decode_slots) == 0
        assert out.order.dtype == np.int64 and len(out.order) == 0
        assert out.clean.dtype == bool and len(out.clean) == 0
        assert out.iteration_cap_hits == 0

    def test_read_only_inputs_decode_unchanged(self):
        scheme = make_scheme("SW", window=50, dist="irsa8", n_rx=150, i_max=2)
        rng = np.random.default_rng(8)
        arrivals = generate_arrivals(make_traffic(lam=0.8, total=3_000), rng)
        flat, offsets = place_replicas(scheme, arrivals, sample_degrees(scheme.degree_distribution, rng, len(arrivals)), rng)
        last = flat[offsets[:-1]] + 149
        ref = peel(flat.copy(), offsets.copy(), last.copy(), 3_150, i_max=2)
        before = [a.tobytes() for a in (flat, offsets, last)]
        for a in (flat, offsets, last):
            a.setflags(write=False)
        out = peel(flat, offsets, last, 3_150, i_max=2)
        assert [a.tobytes() for a in (flat, offsets, last)] == before
        for got, want in zip(out[:3], ref[:3]):
            assert np.array_equal(got, want)
        assert out.iteration_cap_hits == ref.iteration_cap_hits > 0


class TestPeel:
    def test_waterfall_cascade_order(self):
        # users 1-3 fully collided; user 4 has the only clean instance; the
        # cascade resolves 4, then 3, then 2, then 1
        placements = {1: (0, 1), 2: (0, 1, 2), 3: (2, 3), 4: (3, 4)}
        fed = feed(placements, 10)
        assert fed.order == [4, 3, 2, 1]
        assert fed.clean == {4}
        assert all(s == 4 for s in fed.decode_slot.values())

    def test_no_singletons_no_events(self):
        assert feed({1: (0, 1), 2: (0, 1)}, 10).order == []
        fed = feed({}, 10)
        assert fed.order == [] and fed.lost == {}

    def test_fixpoint_is_stable(self):
        placements = {1: (0, 2), 2: (0, 1), 3: (1, 2)}
        fed = feed(placements, 10)
        for extra in (1, 5):
            assert feed(placements, 10, n_slots=3 + extra).decode_slot == fed.decode_slot

    def test_clean_cause_for_born_singleton(self):
        fed = feed({1: (0, 3)}, 10)
        assert fed.order == [1] and fed.clean == {1}

    def test_iteration_cap_defers_backward_cascade(self):
        # the singleton in slot 4 unlocks a chain running backwards, one scan
        # pass per link; with a 1-pass cap the cascade spreads over later
        # slots instead of finishing at the end of slot 4
        placements = {1: (0, 1), 2: (0, 1), 3: (1, 2), 4: (2, 3), 5: (3, 4)}
        full = feed(placements, 10, i_max=50)
        capped = feed(placements, 10, i_max=1, n_slots=9)
        assert set(full.decode_slot) == set(capped.decode_slot) == {3, 4, 5}
        assert all(s == 4 for s in full.decode_slot.values())
        assert capped.iteration_cap_hits > 0
        assert full.iteration_cap_hits == 0
        assert max(capped.decode_slot.values()) > 4

    def test_first_slot_chain_resolves_clean(self):
        # only slot 0 is a singleton when ingested; cancelling packet 1
        # leaves packet 2 alone in its first slot, and cancelling 2 leaves
        # 3 alone in its own: each resolves clean, at its first slot
        fed = feed({1: (0, 2), 2: (2, 4), 3: (4, 5)}, 10)
        assert fed.order == [1, 2, 3]
        assert fed.decode_slot == {1: 0, 2: 2, 3: 4}
        assert fed.clean == {1, 2, 3}

    def test_resumed_cascade_meets_first_slot_singleton(self):
        # the 1-pass cap cuts the backward chain at slots 4 and 5; slot 5
        # also holds packet 0 alone in its first slot, which the resumed
        # first pass pops after the carried slot 3
        placements = {1: (0, 1), 2: (0, 1), 3: (1, 2), 4: (2, 3), 5: (3, 4), 0: (5, 7)}
        fed = feed(placements, 10, i_max=1)
        assert fed.order == [5, 4, 0, 3]
        assert fed.decode_slot == {5: 4, 4: 5, 0: 5, 3: 6}
        assert fed.clean == {5, 0}
        assert fed.iteration_cap_hits == 2

    def test_frame_boundary_clears_cut_cascade(self):
        # the same backward chain inside one 5-slot frame: uncapped it
        # resolves at the frame's last slot; a cascade cut there is not
        # resumed, and the frame's undecoded packets are lost when it closes
        placements = {1: (0, 1), 2: (0, 1), 3: (1, 2), 4: (2, 3), 5: (3, 4)}
        full = feed(placements, 5, frame_scoped=True, i_max=50)
        assert full.decode_slot == {3: 4, 4: 4, 5: 4}
        capped = feed(placements, 5, frame_scoped=True, i_max=1, n_slots=10)
        assert capped.decode_slot == {5: 4}
        assert capped.lost == {1: 4, 2: 4, 3: 4, 4: 4}
        assert capped.iteration_cap_hits == 1

    def test_truncated_cascade_when_memory_barely_covers_window(self):
        # a resolvable cascade spanning twice the memory: the trigger lands
        # in slot 13, but the early links died when their first slots slid
        # out of the 9-slot memory; doubling the memory rescues the chain
        placements = {
            1: (0, 4),    # rescuable only through slot 4
            7: (0, 5),    # stopping pair pinning slot 0
            8: (0, 5),
            2: (4, 8),
            3: (8, 12),
            4: (12, 13),  # trigger: slot 13 is clean
        }
        small = feed(placements, 9, n_slots=24)
        assert set(small.decode_slot) == {3, 4}
        assert set(small.lost) == {1, 2, 7, 8}
        big = feed(placements, 18, n_slots=24)
        assert set(big.decode_slot) == {1, 2, 3, 4}
        assert set(big.lost) == {7, 8}
        # the rescued packets all resolve at the end of the trigger slot
        assert all(s == 13 for s in big.decode_slot.values())


def _random_placements(data, n_max, degree_max, n_slots):
    k = data.draw(st.integers(1, n_max))
    placements = {}
    for pid in range(k):
        degree = data.draw(st.integers(1, degree_max))
        slots = data.draw(
            st.lists(st.integers(0, n_slots - 1), min_size=degree, max_size=degree, unique=True)
        )
        placements[pid] = tuple(sorted(slots))
    return placements


def _slot_by_slot(placements, capacity, frame_scoped, i_max, n_slots):
    """Reference receiver: per-slot sets, and every peel rescans all live
    slots. Returns (decode slots, clean ids, loss slots, cap hits, decoded
    ids in pop order)."""
    by_slot = defaultdict(set)
    for pid, slots in placements.items():
        for s in slots:
            by_slot[s].add(pid)
    live, born = {}, set()
    decoded, clean, lost, hits, order = {}, set(), {}, 0, []
    for t in range(n_slots):
        evicted = live.pop(t - capacity, set())
        for pid in evicted - lost.keys():
            lost[pid] = t
        live[t] = by_slot[t] - decoded.keys()
        if len(live[t]) == 1 and not live[t] & lost.keys():
            born.add(t)
        queue = [s for s, ids in live.items() if len(ids) == 1 and not ids & lost.keys()]
        passes = 0
        while queue and passes < i_max:
            passes += 1
            heapq.heapify(queue)
            carry = []
            while queue:
                s = heapq.heappop(queue)
                if len(live[s]) != 1 or live[s] & lost.keys():
                    continue
                (pid,) = live[s]
                decoded[pid] = t
                order.append(pid)
                if s in born:
                    clean.add(pid)
                for r in placements[pid]:
                    if r in live:
                        live[r].discard(pid)
                        if r != s and len(live[r]) == 1 and not live[r] & lost.keys():
                            (heapq.heappush(queue, r) if r > s else carry.append(r))
            queue = carry
        hits += bool(queue)
        if frame_scoped and (t + 1) % capacity == 0:
            for ids in live.values():
                for pid in ids - lost.keys():
                    lost[pid] = t
            live.clear()
    return decoded, clean, lost, hits, order


class TestAgainstSlotBySlotReference:
    @given(data=st.data())
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_matches_reference(self, data):
        # memories shorter than a packet's span leave dead instances in
        # later slots; caps of 1-2 passes cut cascades across slots
        placements = _random_placements(data, 14, 4, 16)
        capacity = data.draw(st.integers(2, 12))
        frame_scoped = data.draw(st.booleans())
        if frame_scoped:
            # FR placement keeps every packet inside one frame
            placements = {
                pid: tuple(sorted({slots[0] - slots[0] % capacity + s % capacity for s in slots}))
                for pid, slots in placements.items()
            }
        i_max = data.draw(st.sampled_from([1, 2, 50]))
        n_slots = 20
        fed = feed(placements, capacity, frame_scoped=frame_scoped, i_max=i_max, n_slots=n_slots)
        ref = _slot_by_slot(placements, capacity, frame_scoped, i_max, n_slots)
        assert (fed.decode_slot, fed.clean, fed.lost, fed.iteration_cap_hits, fed.order) == ref

    @pytest.mark.parametrize(
        "mode, window, n_rx, dist, lam, i_max",
        [
            ("SW", 50, 150, "irsa8", 0.8, 1),
            ("SW", 50, 150, "irsa8", 0.8, 2),
            ("FR", 50, None, "irsa8", 0.8, 2),
            ("FR", 50, None, "crdsa2", 0.6, 1),
            ("SW", 20, 40, "crdsa3", 0.7, 1),
        ],
    )
    def test_whole_run_under_binding_cap(self, mode, window, n_rx, dist, lam, i_max):
        # real placements over 3k slots, where the cap cuts hundreds of
        # cascades: far past the few packets the random instances hold
        scheme = make_scheme(mode, window, dist, n_rx, i_max)
        traffic = make_traffic(lam, total=3000, seed=3, window=window)
        rng = np.random.default_rng(traffic.rng_seed)
        arrivals = generate_arrivals(traffic, rng)
        degrees = sample_degrees(scheme.degree_distribution, rng, len(arrivals))
        flat, offsets = place_replicas(scheme, arrivals, degrees, rng)
        placements = {p: tuple(flat[offsets[p] : offsets[p + 1]].tolist()) for p in range(len(offsets) - 1)}
        capacity = n_rx or window
        fed = feed(placements, capacity, frame_scoped=mode == "FR", i_max=i_max, n_slots=3000 + capacity)
        ref = _slot_by_slot(placements, capacity, mode == "FR", i_max, 3000 + capacity)
        assert fed.iteration_cap_hits > 0
        assert (fed.decode_slot, fed.clean, fed.lost, fed.iteration_cap_hits, fed.order) == ref


class TestRelabelInvariance:
    @given(data=st.data())
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_permuted_ids_keep_decode_slots(self, data):
        # ids only name packets: the XOR of a singleton slot must recover
        # whichever id it holds, and no decision may depend on id order
        placements = _random_placements(data, 10, 3, 12)
        perm = data.draw(st.permutations(list(placements)))
        relabelled = {perm[pid]: slots for pid, slots in placements.items()}
        for i_max in (1, 50):
            a = feed(placements, 8, i_max=i_max, n_slots=14)
            b = feed(relabelled, 8, i_max=i_max, n_slots=14)
            assert {perm[pid]: s for pid, s in a.decode_slot.items()} == b.decode_slot
            assert {perm[pid]: s for pid, s in a.lost.items()} == b.lost
            assert {perm[pid] for pid in a.clean} == b.clean


class TestAgainstOracle:
    @given(data=st.data())
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_streaming_matches_fixpoint_oracle(self, data):
        placements = _random_placements(data, 12, 4, 15)
        fed = feed(placements, 15, n_slots=15)
        assert set(fed.decode_slot) == oracle(placements)

    def test_imax_cap_nonbinding_on_random_workload(self):
        rng = np.random.default_rng(8)
        placements = {}
        t = 0
        for pid in range(400):
            t += int(rng.integers(0, 3))
            deg = int(rng.integers(1, 4))
            extra = rng.choice(49, size=deg - 1, replace=False) + 1
            placements[pid] = tuple(sorted([t] + [t + int(o) for o in extra]))
        a = feed(placements, 250, i_max=50)
        b = feed(placements, 250, i_max=10**6)
        assert a.decode_slot == b.decode_slot
        assert a.iteration_cap_hits == 0

    def test_live_residual_is_stopping_set(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            placements = {
                pid: tuple(sorted(int(s) for s in rng.choice(18, size=int(rng.integers(1, 4)), replace=False)))
                for pid in range(int(rng.integers(2, 12)))
            }
            fed = feed(placements, 18, n_slots=18)
            assert fed.lost == {}
            undecoded = [pid for pid in placements if pid not in fed.decode_slot]
            # every slot holding a restorable instance must hold >= 2 instances
            for pid in undecoded:
                for s in placements[pid]:
                    assert sum(s in placements[q] for q in undecoded) >= 2, (pid, s)


class TestFrameReset:
    def test_unresolved_pair_lost_at_reset(self):
        fed = feed({1: (0, 1), 2: (0, 1)}, 4, frame_scoped=True, n_slots=4)
        assert fed.order == []
        assert fed.lost == {1: 3, 2: 3}

    def test_fully_decoded_frame_resets_clean(self):
        fed = feed({1: (0, 1), 2: (1, 2)}, 4, frame_scoped=True, n_slots=4)
        assert set(fed.decode_slot) == {1, 2}
        assert fed.lost == {}


def _fresh_package(root):
    """A copy of the craloha package under ``root`` with no compiled loop."""
    pkg = root / "craloha"
    shutil.copytree(Path(craloha.decoder.__file__).parent, pkg, ignore=shutil.ignore_patterns("__pycache__"))
    return pkg


def _python(root, code):
    """Start ``python -c code`` importing craloha from ``root`` only."""
    env = {**os.environ, "PYTHONPATH": str(root)}
    pipe = subprocess.PIPE
    return subprocess.Popen([sys.executable, "-c", code], cwd=root, env=env, stdout=pipe, stderr=pipe, text=True)


class TestLoader:
    """The compiled loop is built on first import, in fresh processes."""

    def test_missing_compiler_names_the_command(self, tmp_path):
        pkg = _fresh_package(tmp_path)
        code = "import sysconfig; sysconfig.get_config_vars()['CC'] = '/nonexistent/cc'; import craloha.decoder"
        _, err = _python(tmp_path, code).communicate(timeout=60)
        assert "ImportError: craloha.decoder needs a C compiler; `/nonexistent/cc -O2" in err
        assert not list((pkg / "__pycache__").glob("peel.*"))

    def test_concurrent_first_imports_leave_one_library(self, tmp_path):
        pkg = _fresh_package(tmp_path)
        # both start importing at the same moment, so their compiles overlap
        code = f"import time; time.sleep(max(0, {time.time() + 0.5} - time.time())); import craloha.decoder"
        procs = [_python(tmp_path, code) for _ in range(2)]
        for proc in procs:
            _, err = proc.communicate(timeout=60)
            assert proc.returncode == 0, err
        assert len(list((pkg / "__pycache__").glob("peel.*"))) == 1

    def test_source_builds_without_warnings(self, tmp_path):
        # the import builds with the same compiler but shows no warning
        cc = shlex.split(sysconfig.get_config_var("CC") or "")
        src = Path(craloha.decoder.__file__).with_name("peel.c")
        cmd = [*cc, "-O2", "-shared", "-fPIC", "-Wall", "-Wextra", "-Werror", "-o", str(tmp_path / "peel.so"), str(src)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_edited_source_never_loads_a_stale_library(self, tmp_path):
        pkg = _fresh_package(tmp_path)
        assert _python(tmp_path, "import craloha.decoder").wait(timeout=60) == 0
        (stale,) = (pkg / "__pycache__").glob("peel.*")
        stale.write_bytes(b"not a library")  # loading it would raise
        with open(pkg / "peel.c", "a") as fh:
            fh.write("/* edited */\n")
        code = "from craloha.decoder import peel; print(peel([0], [0, 1], [0], 1).order)"
        out, err = _python(tmp_path, code).communicate(timeout=60)
        assert out == "[0]\n", err
        libs = list((pkg / "__pycache__").glob("peel.*"))
        assert len(libs) == 2 and stale in libs
