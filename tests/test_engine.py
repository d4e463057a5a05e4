import csv
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import craloha.engine

from craloha import (
    DegreeDistribution,
    RunResult,
    TimeConfig,
    TrafficConfig,
    loss_rate,
    oracle_decode,
    run_simulation,
    throughput,
)
from craloha.decoder import PeelOutcome
from craloha.engine import SimulationInvariantError, drain_end_slot

from conftest import make_scheme, make_traffic


class TestDeterminism:
    def test_identical_seed_identical_result(self):
        scheme = make_scheme("SW", window=50, dist="irsa4", n_rx=150)
        traffic = make_traffic(lam=0.7, total=20_000, warmup=500, seed=99, window=50)
        a = run_simulation(scheme, traffic)
        b = run_simulation(scheme, traffic)
        assert np.array_equal(a.arrival_slots, b.arrival_slots)
        assert np.array_equal(a.replica_flat, b.replica_flat)
        assert np.array_equal(a.replica_offsets, b.replica_offsets)
        assert np.array_equal(a.decode_slots, b.decode_slots)
        assert np.array_equal(a.lost, b.lost)

    def test_different_seed_differs(self):
        scheme = make_scheme("SW", window=50, dist="irsa4", n_rx=150)
        a = run_simulation(scheme, make_traffic(lam=0.7, total=20_000, warmup=500, seed=1, window=50))
        b = run_simulation(scheme, make_traffic(lam=0.7, total=20_000, warmup=500, seed=2, window=50))
        assert not np.array_equal(a.arrival_slots, b.arrival_slots)


def _digest(r):
    """sha256 prefix of (decode_slots, lost), as perfbench/bench.py's digest."""
    h = hashlib.sha256()
    h.update(np.asarray(r.decode_slots, dtype=np.int64).tobytes())
    h.update(np.asarray(r.lost, dtype=bool).tobytes())
    return h.hexdigest()[:16]


# (mode, window, n_rx, dist, lambda, i_max, seed) -> digest over 10,000 slots.
# Covers windows far wider than the degree and windows only a few slots
# wider, FR and SW, crdsa2 and irsa8, degree 1, and an i_max=1 point where
# the cap binds. In the two SW points whose rows draw at most one offset
# (crdsa2 on 100 slots, degree 1), placement makes one uniform draw per row
# in packet order, or none, so their digests pin that part of the stream.
GOLDEN = {
    ("FR", 100, None, "crdsa2", 0.55, 50, 11): "3e3ce50a529ce758",
    ("FR", 100, None, "irsa8", 0.7, 50, 12): "86e5c64e9d043aaa",
    ("SW", 100, 300, "crdsa2", 0.55, 50, 13): "763d39f0b95c0ee0",
    ("SW", 100, 500, "irsa8", 0.8, 50, 14): "c92f3c93aeaae34f",
    ("FR", 20, None, "irsa8", 0.6, 50, 15): "b98644adb676b503",
    ("SW", 5, 15, "crdsa2", 0.4, 50, 16): "ba188b6d147d4c7a",
    ("SW", 1, 10, "deg1", 1.0, 50, 17): "40713f13119641df",
    ("SW", 50, 150, "irsa8", 0.8, 1, 18): "85a9242f846e5355",
}


# The same configs -> sha256 prefix of the --trace CSV, which also pins the
# resolution order, the clean/ic cause of each decode and the loss rows.
GOLDEN_TRACE = {
    ("FR", 100, None, "crdsa2", 0.55, 50, 11): "62f5de7772afe703",
    ("FR", 100, None, "irsa8", 0.7, 50, 12): "c73cc6703cdd635b",
    ("SW", 100, 300, "crdsa2", 0.55, 50, 13): "19bdf9f21f2fdbfd",
    ("SW", 100, 500, "irsa8", 0.8, 50, 14): "eafb340a236c379d",
    ("FR", 20, None, "irsa8", 0.6, 50, 15): "e078041580fb790a",
    ("SW", 5, 15, "crdsa2", 0.4, 50, 16): "335f36a8ef70cc01",
    ("SW", 1, 10, "deg1", 1.0, 50, 17): "c10f2d55d8e32868",
    ("SW", 50, 150, "irsa8", 0.8, 1, 18): "87164edd698cb04a",
}


def _golden_run(mode, window, n_rx, dist, lam, i_max, seed, trace_path=None):
    if dist == "deg1":
        dist = DegreeDistribution(((1, 1.0),))
    scheme = make_scheme(mode, window=window, dist=dist, n_rx=n_rx, i_max=i_max)
    traffic = make_traffic(lam=lam, total=10_000, warmup=500, seed=seed, window=window)
    return run_simulation(scheme, traffic, trace_path=trace_path)


class TestGoldenDigest:
    """Fixed-seed outputs pinned bit for bit: placement and decoding changes
    that keep the model must keep these digests."""

    @pytest.mark.parametrize("case", list(GOLDEN), ids=lambda c: "-".join(map(str, c)))
    def test_outputs_unchanged(self, case):
        assert _digest(_golden_run(*case)) == GOLDEN[case]

    @pytest.mark.parametrize("case", list(GOLDEN_TRACE), ids=lambda c: "-".join(map(str, c)))
    def test_trace_unchanged(self, case, tmp_path):
        path = tmp_path / "trace.csv"
        _golden_run(*case, trace_path=path)
        assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == GOLDEN_TRACE[case]

    def test_iteration_cap_binds_on_capped_point(self):
        capped = ("SW", 50, 150, "irsa8", 0.8, 1, 18)
        uncapped = capped[:5] + (50,) + capped[6:]
        assert _digest(_golden_run(*capped)) != _digest(_golden_run(*uncapped))


def _sw_run(dist, lam, seed, n_rx=500, i_max=50):
    """One 20k-slot SW run on a 100-slot window, shared by the relations."""
    scheme = make_scheme("SW", window=100, dist=dist, n_rx=n_rx, i_max=i_max)
    return run_simulation(scheme, make_traffic(lam=lam, total=20_000, seed=seed))


_SW_POINTS = [(d, lam, seed) for d, lam in (("crdsa2", 0.6), ("irsa8", 0.85), ("irsa4", 0.8)) for seed in (1, 2)]


def _nested(runs):
    """Each run's decoded set contains the previous run's."""
    return all(np.all(b.decoded_mask()[a.decoded_mask()]) for a, b in zip(runs, runs[1:]))


class TestMetamorphic:
    """Exact relations between whole runs that need no second decoder."""

    @pytest.mark.parametrize("dist,lam,seed", _SW_POINTS)
    def test_sw_monotone_in_receiver_memory(self, dist, lam, seed):
        # Placement never reads N_rx, and a packet ready at slot r stays
        # restorable through r + N_rx - 1: more memory only moves deadlines
        # later, so, with the i_max cap not binding on these points, no
        # decode is lost and none comes later.
        runs = [_sw_run(dist, lam, seed, n_rx) for n_rx in (100, 200, 500, 10**6)]
        assert all(np.array_equal(r.replica_flat, runs[0].replica_flat) for r in runs)
        assert _nested(runs)
        for a, b in zip(runs, runs[1:]):
            ok = a.decoded_mask()
            assert np.all(b.decode_slots[ok] <= a.decode_slots[ok])

    @pytest.mark.parametrize("dist,lam,seed", _SW_POINTS)
    def test_sw_memory_over_the_horizon_matches_oracle(self, dist, lam, seed):
        r = _sw_run(dist, lam, seed, 10**6)
        assert np.array_equal(r.decoded_mask(), oracle_decode(r.replica_flat, r.replica_offsets))

    @pytest.mark.parametrize("case", [c for c in GOLDEN if c[0] == "FR"], ids=lambda c: "-".join(map(str, c)))
    def test_fr_matches_oracle(self, case):
        # Frames share no slot and each packet's deadline is its frame's end.
        r = _golden_run(*case)
        assert np.array_equal(r.decoded_mask(), oracle_decode(r.replica_flat, r.replica_offsets))

    @pytest.mark.parametrize("dist,lam,seed", _SW_POINTS)
    def test_sw_nested_in_iteration_cap(self, dist, lam, seed):
        # Observed, not derived: a higher cap has decoded a superset on
        # every point tried, but nothing in the receiver rule implies it.
        assert _nested([_sw_run(dist, lam, seed, i_max=i_max) for i_max in (1, 2, 3, 50)])


class TestZeroTraffic:
    def test_no_packets_no_losses(self):
        scheme = make_scheme("SW", window=10, n_rx=20)
        traffic = make_traffic(lam=0.0, total=5_000, warmup=100, window=10)
        r = run_simulation(scheme, traffic)
        assert r.n_packets == 0
        assert throughput(r) == 0.0
        assert loss_rate(r) == 0.0


class TestPeakMemory:
    @pytest.mark.parametrize("mode,n_rx", [("SW", 500), ("FR", None)])
    def test_peak_bytes_per_replica(self, mode, n_rx):
        # Placement and peeling work in numpy arrays alone; a Python int per
        # replica (a list of ids or slots) would by itself cost 40 B. The
        # count is deterministic: about 28.4 B (SW) and 29.5 B (FR) per
        # replica.
        scheme = make_scheme(mode, window=100, dist="irsa8", n_rx=n_rx)
        traffic = make_traffic(lam=0.8, total=20_000, seed=3)
        run_simulation(scheme, traffic)  # warm-up: lazy imports and caches
        tracemalloc.start()
        try:
            r = run_simulation(scheme, traffic)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / len(r.replica_flat) <= 50


class TestDrainMemory:
    def test_peak_independent_of_receiver_memory(self):
        # A longer memory lengthens the SW drain past the last replica slot
        # but decodes the same 61,061 replicas, so the decoder's per-slot
        # buffers must end at the last replica slot: sized to the drain, they
        # would take about 250 MB at N_rx=10^7.
        traffic = make_traffic(lam=0.85, total=20_000, seed=1)
        peaks = []
        for n_rx in (500, 10**7):
            scheme = make_scheme("SW", window=100, dist="irsa8", n_rx=n_rx)
            run_simulation(scheme, traffic)  # warm-up: lazy imports and caches
            tracemalloc.start()
            try:
                run_simulation(scheme, traffic)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.2 * peaks[0]


class TestConservation:
    @pytest.mark.parametrize("mode,dist", [("SW", "crdsa2"), ("SW", "irsa8"), ("FR", "irsa4")])
    def test_every_packet_finalized(self, mode, dist):
        scheme = make_scheme(mode, window=60, dist=dist, n_rx=None if mode == "FR" else 180)
        traffic = make_traffic(lam=0.9, total=30_000, warmup=600, seed=3, window=60)
        r = run_simulation(scheme, traffic)
        decoded = r.decoded_mask()
        assert bool(np.all(decoded ^ r.lost))
        assert decoded.sum() + r.lost.sum() == r.n_packets

    def test_fr_unaligned_total_slots_still_drains(self):
        # total not a multiple of the frame: the drain extends to the end of
        # the last used frame so nothing is left open
        scheme = make_scheme("FR", window=100, n_rx=None)
        traffic = make_traffic(lam=0.5, total=1_150, warmup=100, seed=4, window=100)
        r = run_simulation(scheme, traffic)
        assert drain_end_slot(scheme, traffic) == 1_300
        assert bool(np.all(r.decoded_mask() ^ r.lost))

    def test_fr_aligned_drain_is_one_frame(self):
        scheme = make_scheme("FR", window=100, n_rx=None)
        traffic = make_traffic(lam=0.5, total=2_000, warmup=100, window=100)
        assert drain_end_slot(scheme, traffic) == 2_100


class TestPostconditions:
    """Each postcondition fires on a run that breaks it."""

    @pytest.fixture(params=[("SW", 150), ("FR", None)], ids=["SW", "FR"])
    def point(self, request):
        mode, n_rx = request.param
        scheme = make_scheme(mode, window=50, dist="crdsa2", n_rx=n_rx)
        return scheme, make_traffic(lam=0.5, total=5_000, window=50)

    @staticmethod
    def _shift_decodes(monkeypatch, shift):
        peel = craloha.engine.peel

        def shifted(*args, **kwargs):
            out = peel(*args, **kwargs)
            d = out.decode_slots
            return out._replace(decode_slots=np.where(d >= 0, d + shift, d))

        monkeypatch.setattr(craloha.engine, "peel", shifted)

    def test_drain_too_short(self, point, monkeypatch):
        monkeypatch.setattr(craloha.engine, "drain_end_slot", lambda _, traffic: traffic.total_slots)
        with pytest.raises(SimulationInvariantError, match="conservation violated"):
            run_simulation(*point)

    def test_decode_before_first_replica(self, point, monkeypatch):
        self._shift_decodes(monkeypatch, -1)
        with pytest.raises(SimulationInvariantError, match="decode before first replica slot"):
            run_simulation(*point)

    def test_decode_past_delay_support(self, point, monkeypatch):
        self._shift_decodes(monkeypatch, 400)
        with pytest.raises(SimulationInvariantError, match="delay support violated"):
            run_simulation(*point)


class TestDelaySupport:
    def test_sw_within_memory_span(self):
        scheme = make_scheme("SW", window=100, n_rx=500)
        traffic = make_traffic(lam=0.8, total=50_000, warmup=1000, seed=5, window=100)
        r = run_simulation(scheme, traffic)  # engine asserts internally too
        d = r.delays_ms()[r.decoded_mask()]
        assert d.min() >= 251.0
        assert d.max() <= 750.0

    def test_fr_strictly_above_floor_and_within_two_frames(self):
        scheme = make_scheme("FR", window=100)
        traffic = make_traffic(lam=0.8, total=50_000, warmup=1000, seed=5, window=100)
        r = run_simulation(scheme, traffic)
        d = r.delays_ms()[r.decoded_mask()]
        assert d.min() > 251.0
        assert d.max() <= 450.0

    def test_low_load_loss_is_negligible(self):
        for mode, n_rx in (("SW", 500), ("FR", None)):
            scheme = make_scheme(mode, window=100, dist="crdsa2", n_rx=n_rx)
            traffic = make_traffic(lam=0.1, total=100_000, warmup=1000, seed=6, window=100)
            assert loss_rate(run_simulation(scheme, traffic)) < 1e-2

    def test_throughput_never_exceeds_one(self):
        scheme = make_scheme("SW", window=20, dist="crdsa2", n_rx=60)
        traffic = make_traffic(lam=3.0, total=20_000, warmup=200, seed=7, window=20)
        assert throughput(run_simulation(scheme, traffic)) <= 1.0


def _one_packet_result(decode_slot, time=TimeConfig()):
    """Hand-built run holding one degree-2 packet ready at slot 10."""
    scheme = make_scheme("SW", window=20, n_rx=60)
    traffic = TrafficConfig(mean_arrival_rate=0.5, total_slots=20, warmup_slots=0, rng_seed=0)
    return RunResult(
        scheme=scheme,
        traffic=traffic,
        time=time,
        arrival_slots=np.array([10]),
        replica_flat=np.array([10, 12]),
        replica_offsets=np.array([0, 2]),
        decode_slots=np.array([decode_slot]),
    )


class TestPacketDelay:
    def test_decoded_delay_formula(self):
        assert _one_packet_result(10).delays_ms()[0] == 251.0
        slow = TimeConfig(slot_duration_ms=2.0, propagation_delay_ms=100.0)
        assert _one_packet_result(14, slow).delays_ms()[0] == 110.0

    def test_lost_packet_has_no_delay(self):
        assert np.isnan(_one_packet_result(-1).delays_ms()[0])

    def test_replica_rows_match_arrays(self):
        scheme = make_scheme("SW", window=20, n_rx=60)
        traffic = make_traffic(lam=0.4, total=3_000, warmup=100, seed=8, window=20)
        r = run_simulation(scheme, traffic)
        assert len(r.replica_offsets) == r.n_packets + 1
        degrees = {l for l, _ in scheme.degree_distribution.entries}
        assert set(np.diff(r.replica_offsets).tolist()) <= degrees
        assert r.replica_offsets[-1] == len(r.replica_flat)
        delays = r.delays_ms()
        for i in (0, r.n_packets // 2, r.n_packets - 1):
            row = r.replica_flat[r.replica_offsets[i] : r.replica_offsets[i + 1]]
            assert row[0] == r.arrival_slots[i]  # SW: first replica in the ready slot
            assert np.all(np.diff(row) > 0) and row[-1] < r.arrival_slots[i] + 20
            assert (r.decode_slots[i] < 0) == r.lost[i] == np.isnan(delays[i])
            if not r.lost[i]:
                assert r.decode_slots[i] >= row[0]


class TestTrace:
    def test_trace_schema_and_consistency(self, tmp_path):
        scheme = make_scheme("SW", window=20, n_rx=100)
        traffic = make_traffic(lam=0.5, total=2_000, warmup=100, seed=9, window=20)
        path = tmp_path / "trace.csv"
        r = run_simulation(scheme, traffic, trace_path=path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert set(rows[0]) == {"slot_index", "packet_id", "event", "cause"}
        slots = [int(x["slot_index"]) for x in rows]
        assert slots == sorted(slots)  # grouped by slot, in stream order
        decodes = {int(x["packet_id"]): int(x["slot_index"]) for x in rows if x["event"] == "decode"}
        losses = {int(x["packet_id"]) for x in rows if x["event"] == "loss"}
        replicas = {}
        for x in rows:
            if x["event"] == "replica":
                replicas.setdefault(int(x["packet_id"]), []).append(int(x["slot_index"]))
        assert len(replicas) == r.n_packets
        for pid, slots in replicas.items():
            row = r.replica_flat[r.replica_offsets[pid] : r.replica_offsets[pid + 1]]
            assert sorted(slots) == row.tolist()
        decoded_ids = set(np.flatnonzero(r.decoded_mask()).tolist())
        assert set(decodes) == decoded_ids
        assert losses == set(np.flatnonzero(r.lost).tolist())
        for pid, s in decodes.items():
            assert s == r.decode_slots[pid]


def _fstring_trace(path, flat, offsets, outcome, lost_at, fr):
    """The reference writer: one f-string per row, in the encoder's row
    order. Returns the rows' slots, packet ids and tails."""
    order = outcome.order
    lost = np.flatnonzero(lost_at >= 0)
    slot = np.concatenate([flat, outcome.decode_slots[order], lost_at[lost]])
    pid = np.concatenate([np.repeat(np.arange(len(offsets) - 1), np.diff(offsets)), order, lost])
    phase = np.repeat([1, 2, 3 if fr else 0], [len(flat), len(order), len(lost)])
    tag = np.array([0, 1, 2, 0])[phase]
    tag[len(flat) : len(flat) + len(order)] += outcome.clean[order]
    tails = (",loss,-\r\n", ",replica,-\r\n", ",decode,ic\r\n", ",decode,clean\r\n")
    rows = np.argsort(slot * 4 + phase, kind="stable")
    with open(path, "w", newline="") as fh:
        fh.write("slot_index,packet_id,event,cause\r\n")
        for s, p, t in zip(slot[rows].tolist(), pid[rows].tolist(), tag[rows].tolist()):
            fh.write(f"{s},{p}{tails[t]}")
    return slot[rows], pid[rows], tag[rows]


def _assert_reads_back(path, ref_rows):
    """The reader returns exactly the reference writer's rows."""
    slot, pid, tag = ref_rows
    rows = craloha.engine.read_trace(path)
    assert rows["slot"].tolist() == slot.tolist()
    assert rows["pid"].tolist() == pid.tolist()
    events = np.array([b"loss", b"replica", b"decode", b"decode"])[tag]
    causes = np.array([b"-", b"-", b"ic", b"clean"])[tag]
    assert rows["event"].tolist() == events.tolist()
    assert rows["cause"].tolist() == causes.tolist()


class TestTraceEncoding:
    """The byte encoder writes exactly what the reference writer writes, and
    the reader reads back the reference writer's rows."""

    # case -> (scheme kwargs, traffic kwargs, rows per chunk or None, what
    # the written trace must show for the case to cover what it names)
    CASES = {
        "zero-traffic": (
            dict(mode="SW", window=10, n_rx=20),
            dict(lam=0.0, total=500, warmup=10),
            None,
            lambda data: data == b"slot_index,packet_id,event,cause\r\n",
        ),
        "one-slot": (
            dict(mode="SW", window=5, n_rx=10),
            dict(lam=3.0, total=1, warmup=0),
            None,
            lambda data: b",replica," in data,
        ),
        "fr-frame-close": (
            dict(mode="FR", window=20, dist="irsa8"),
            dict(lam=0.9, total=2_000, warmup=100),
            None,
            lambda data: b",loss,-\r\n" in data,
        ),
        "sw-evictions": (
            dict(mode="SW", window=20, n_rx=40, dist="irsa8"),
            dict(lam=0.9, total=2_000, warmup=100),
            None,
            lambda data: b",loss,-\r\n" in data,
        ),
        "many-chunks": (
            dict(mode="SW", window=100, n_rx=500, dist="irsa4"),
            dict(lam=0.6, total=10_000, warmup=1_000),
            None,
            lambda data: data.count(b"\n") > 2 * craloha.engine._TRACE_CHUNK,
        ),
        "chunks-of-7": (
            dict(mode="FR", window=10, dist="crdsa2"),
            dict(lam=0.7, total=300, warmup=10),
            7,
            lambda data: data.count(b"\n") > 70,
        ),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_reference_writer(self, case, tmp_path, monkeypatch):
        scheme_kw, traffic_kw, chunk, covers = self.CASES[case]
        if chunk is not None:
            monkeypatch.setattr(craloha.engine, "_TRACE_CHUNK", chunk)
        calls = []
        write = craloha.engine._write_trace

        def spy(path, *args):
            calls.append(args)
            write(path, *args)

        monkeypatch.setattr(craloha.engine, "_write_trace", spy)
        path, ref = tmp_path / "trace.csv", tmp_path / "ref.csv"
        run_simulation(make_scheme(**scheme_kw), make_traffic(seed=5, **traffic_kw), trace_path=path)
        ref_rows = _fstring_trace(ref, *calls[0])
        data = path.read_bytes()
        assert data == ref.read_bytes()
        assert covers(data)
        _assert_reads_back(path, ref_rows)

    def test_widest_slots_round_trip(self, tmp_path):
        # 18-digit slots, the widest the reader takes: two packets leave the
        # sort key one index bit, so (slot * 4 + 3) << 1 still fits int64
        top = 10**18 - 1
        flat = np.array([top - 3, top - 1, top - 2, top], dtype=np.int64)
        offsets = np.array([0, 2, 4], dtype=np.int64)
        outcome = PeelOutcome(np.array([top - 1, -1]), np.array([0]), np.array([False, False]), 0)
        args = (flat, offsets, outcome, np.array([-1, top]), True)
        path, ref = tmp_path / "trace.csv", tmp_path / "ref.csv"
        craloha.engine._write_trace(path, *args)
        ref_rows = _fstring_trace(ref, *args)
        assert path.read_bytes() == ref.read_bytes()
        assert b"999999999999999999,1,loss,-" in path.read_bytes()
        _assert_reads_back(path, ref_rows)

    def test_crlf_split_across_read_chunks(self, tmp_path, monkeypatch):
        path = tmp_path / "trace.csv"
        path.write_bytes(b"slot_index,packet_id,event,cause\r\n0,0,replica,-\r\n12,0,decode,clean\r\n")
        for size in range(1, 20):  # every split of the body, CR | LF among them
            monkeypatch.setattr(craloha.engine, "_READ_BYTES", size)
            assert craloha.engine.read_trace(path)["slot"].tolist() == [0, 12]

    def test_writer_peak_bytes_per_line(self, tmp_path, monkeypatch):
        # The writer's own traced peak on a 50k-slot SW irsa4 run at
        # lambda=0.6 (119,570 lines) is 15.5 B per line: the int64 sort key
        # and the temporaries that build it. An argsort row array or a
        # per-line int64 array of packet ids would add 8 B each. The count
        # is deterministic.
        peaks = []
        write = craloha.engine._write_trace

        def traced(path, *args):
            tracemalloc.start()
            try:
                write(path, *args)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()

        monkeypatch.setattr(craloha.engine, "_write_trace", traced)
        scheme = make_scheme("SW", window=100, dist="irsa4", n_rx=50_000)
        traffic = make_traffic(lam=0.6, total=50_000, warmup=1_000, seed=7)
        path = tmp_path / "trace.csv"
        run_simulation(scheme, traffic, trace_path=path)  # warm-up: lazy imports and caches
        run_simulation(scheme, traffic, trace_path=path)
        assert peaks[-1] / path.read_bytes().count(b"\n") <= 17


class TestTraceGrammar:
    """The reader's ``np.loadtxt`` path keeps a file exactly when every line
    matches the grammar, and otherwise the walk names the first line that
    does not."""

    LINES = (b"0,0,replica,-\r\n", b"3,0,decode,clean\n", b"12,1,decode,ic\r\n", b"999999999999999999,5,loss,-\n")
    # bytes np.loadtxt parses or skips where the writer writes none
    NOISE = (b" ", b"+", b"-", b"0", b"\0", b"\r", b"\n", b",", b'"', b"9", b"x", b"1234567890123456789", b"replica")

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        st.lists(st.sampled_from(LINES), max_size=5),
        st.lists(st.tuples(st.integers(0, 120), st.integers(0, 2), st.sampled_from(NOISE)), max_size=3),
        st.sampled_from([1, 2, 7, 1 << 20]),
    )
    def test_fast_path_accepts_exactly_the_grammar(self, tmp_path_factory, lines, edits, read_bytes):
        data = bytearray(b"slot_index,packet_id,event,cause\r\n" + b"".join(lines))
        for pos, cut, noise in edits:
            data[pos : pos + cut] = noise
        path = tmp_path_factory.getbasetemp() / "grammar.csv"
        path.write_bytes(data)
        split = [ln + b"\n" for ln in bytes(data).split(b"\n")]
        split[-1] = split[-1][:-1]  # the text after the last LF
        forms = [craloha.engine._HEADER_LINE] + [craloha.engine._TRACE_LINE] * len(split)
        bad = [n for n, (form, ln) in enumerate(zip(forms, split), 1) if ln and not form.fullmatch(ln)]
        saved, craloha.engine._READ_BYTES = craloha.engine._READ_BYTES, read_bytes
        try:
            assert (craloha.engine._load_trace(path) is None) == bool(bad)
            if bad:
                with pytest.raises(craloha.engine.TraceError, match=f"line {bad[0]}:"):
                    craloha.engine.read_trace(path)
            else:
                fields = [ln.rstrip(b"\r\n").split(b",") for ln in split[1:] if ln]
                assert craloha.engine.read_trace(path).tolist() == [(int(s), int(p), e, c) for s, p, e, c in fields]
        finally:
            craloha.engine._READ_BYTES = saved
