"""Self-test of the benchmark: smoke runs and the correctness gates.

    python3 -m pytest perfbench -q

The smoke runs take about a minute per workload on two cores.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
from tracer import Tracer, covered  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, cwd: Path = HERE.parent, extra=()) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_declared_metric(workload, trace):
    proc = _run(workload, trace, extra=() if trace else ("--heldout-seed", "1009"))
    assert proc.returncode == 0, proc.stderr
    *_, record_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    record = json.loads(record_line)["record"]
    assert record["absent_layers"] == []
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        assert len(record["heldout_points"]) == len(record["points"])
        return
    layers = {k: v["value"] for k, v in result["metrics"].items()}
    if workload in ("fr-wide", "sw-wide"):
        assert layers["placement.calls"] == 0
    if workload == "narrow":
        assert layers["placement.calls"] == layers["traffic.packets"] > 0
    assert (layers["decoder.frame_reset_s"] > 0) == (workload in ("fr-wide", "narrow"))
    for name in ("analytics.oracle_decode_s", "engine.trace_write_s"):
        assert (layers[name] > 0) == (workload == "cli")
    for row in record["points"]:
        if "layers" in row:
            assert ("decoder.frame_reset" in row["layers"]) == row["name"].startswith("FR")


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.iterdir():
        if path.is_file():
            (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = _run("fr-wide", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_band_gate_rejects_values_outside_the_band():
    bands = bench.load_bands()
    point = bench.WORKLOADS["sw-wide"][3]
    band = bands[point.name]
    thr, loss = band["throughput_mean"], band["loss_mean"]
    assert bench.point_failures(point, thr, loss, bands) == []
    assert bench.point_failures(point, band["throughput"][1] + 1e-3, loss, bands)
    assert bench.point_failures(point, thr, band["loss"][1] + 1e-3, bands)


def test_band_gate_rejects_a_decoder_that_drops_decodes(monkeypatch):
    from craloha import decoder

    peel = decoder.ReceiverMemory.peel

    def lossy_peel(self, *args, **kwargs):
        return [ev for ev in peel(self, *args, **kwargs) if ev.packet_id % 20]

    point = bench.WORKLOADS["sw-wide"][2]
    bands = bench.load_bands()
    assert bench.run_point(point, 7, bands, None)["failures"] == []
    monkeypatch.setattr(decoder.ReceiverMemory, "peel", lossy_peel)
    assert bench.run_point(point, 7, bands, None)["failures"]


def test_slotted_aloha_gate():
    point = bench.WORKLOADS["narrow"][2]
    assert point.dist == "deg1"
    ref = point.lam * 2.718281828459045 ** (-point.lam)
    bands = {point.name: {"throughput": [0.0, 1.0], "loss": [0.0, 1.0]}}
    assert bench.point_failures(point, ref + 0.005, 0.5, bands) == []
    assert bench.point_failures(point, ref + 0.02, 0.5, bands)


def test_oracle_gate_rejects_a_corrupted_trace(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text(bench.RUN_CONF.format(seed=5, out=tmp_path / "out", slots=2000))
    trace = tmp_path / "trace.csv"
    rc, out, _ = bench.run_command([sys.executable, "-m", "craloha.cli", "run", str(conf), "--trace", str(trace)])
    assert rc == 0, out
    rc, out, _ = bench.run_command([sys.executable, "-m", "craloha.cli", "oracle", str(trace)])
    assert bench.oracle_failure(rc, out) is None
    lines = trace.read_text().splitlines()
    first_decode = next(i for i, ln in enumerate(lines) if ",decode," in ln)
    trace.write_text("\n".join(lines[:first_decode] + lines[first_decode + 1 :]) + "\n")
    rc, out, _ = bench.run_command([sys.executable, "-m", "craloha.cli", "oracle", str(trace)])
    assert bench.oracle_failure(rc, out) is not None


def test_sweep_gate_rejects_changed_outputs(tmp_path):
    cli = bench.CliWorkload(tmp_path / "w")
    cli.sweep_digests[2] = "0" * 16  # a first pass whose outputs differed
    res = cli.one_pass(2, traced=False)
    rows = {r["name"]: r["failures"] for r in res["rows"]}
    assert [f[:6] for f in rows.pop("sweep")] == ["sweep:"]
    assert rows == {"run": [], "oracle": []}
    assert bench.tally([res]) == (3, 1, [f for r in res["rows"] for f in r["failures"]])


def test_failed_counts_points_not_reasons():
    point = bench.WORKLOADS["narrow"][2]
    bands = {point.name: {"throughput": [0.0, 0.01], "loss": [0.0, 0.01]}}
    reasons = bench.point_failures(point, 0.9, 0.5, bands)
    assert len(reasons) == 3  # throughput band, loss band, G e^-G
    passes = [{"rows": [{"failures": reasons}, {"failures": []}]}, {"rows": [{"failures": []}]}]
    assert bench.tally(passes) == (3, 1, reasons)


def test_absent_symbol_is_reported_not_fatal(monkeypatch):
    from craloha import decoder

    monkeypatch.delattr(decoder.ReceiverMemory, "frame_reset")
    tracer = Tracer()
    tracer.install_engine()
    try:
        assert tracer.absent == ["craloha.engine:ReceiverMemory.frame_reset"]
    finally:
        tracer.uninstall()
    assert not hasattr(decoder.ReceiverMemory, "frame_reset")


def test_uninstall_restores_the_program():
    from craloha import engine

    before = (engine.place_sw, engine.ReceiverMemory.peel)
    tracer = Tracer()
    tracer.install_engine()
    assert engine.place_sw is not before[0]
    tracer.uninstall()
    assert (engine.place_sw, engine.ReceiverMemory.peel) == before


def test_covered_merges_overlapping_children():
    assert covered(0.0, 10.0, [(1, 3), (2, 5), (8, 12), (-2, -1)]) == pytest.approx(6.0)
