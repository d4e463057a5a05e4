"""Workload process of the craloha benchmark.

``run.py`` starts this script once per run, in a fresh interpreter, and
reads the JSON object it prints last. It runs one workload's points one
after another (a closed loop from one process) for ``--seconds``, checks
every output, and reports per-pass timings. With ``--trace 1`` it alternates
untraced and traced passes; the traced ones install ``tracer.py``'s wrappers
and give the per-layer split.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from run import HERE, ROOT, SRC, child_env

sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from craloha import (  # noqa: E402
    DegreeDistribution,
    SchemeConfig,
    TrafficConfig,
    delay_distribution,
    loss_rate,
    named_distribution,
    run_simulation,
    throughput,
)
from tracer import Tracer, clock, covered, read_sink  # noqa: E402

BANDS_PATH = HERE / "bands.json"
CLI_WORKERS = 2
# |throughput - G e^-G| allowed on the degree-1 point (slotted ALOHA).
SA_TOLERANCE = 0.01
COMMAND_TIMEOUT_S = 120
RUN_SLOTS = 50_000


@dataclass(frozen=True)
class Point:
    """One simulation point; its RNG seed is derived from the run's seed."""

    name: str
    mode: str
    window: int
    n_rx: int | None
    dist: str
    lam: float
    total_slots: int = 100_000
    warmup: int = 1000

    def configs(self, seed: int) -> tuple[SchemeConfig, TrafficConfig]:
        if self.dist == "deg1":
            dist = DegreeDistribution(((1, 1.0),))
        else:
            dist = named_distribution(self.dist)
        scheme = SchemeConfig(
            mode=self.mode,
            window_slots=self.window,
            degree_distribution=dist,
            receiver_memory_slots=self.n_rx,
        )
        traffic = TrafficConfig(
            mean_arrival_rate=self.lam,
            total_slots=self.total_slots,
            warmup_slots=self.warmup,
            rng_seed=seed,
        )
        return scheme, traffic


# Why each workload exists is recorded in BENCHMARK.json; the selector the
# narrow points sit behind is the engine's `3 * max_degree < window` bulk
# placement test, which all wide points pass and all narrow points fail.
WORKLOADS: dict[str, tuple[Point, ...]] = {
    "fr-wide": (
        Point("FR200-crdsa2-0.4", "FR", 200, None, "crdsa2", 0.4),
        Point("FR200-crdsa2-0.6", "FR", 200, None, "crdsa2", 0.6),
        Point("FR200-irsa8-0.6", "FR", 200, None, "irsa8", 0.6),
        Point("FR200-irsa8-0.75", "FR", 200, None, "irsa8", 0.75),
    ),
    "sw-wide": (
        Point("SW200x1000-crdsa2-0.4", "SW", 200, 1000, "crdsa2", 0.4),
        Point("SW200x1000-crdsa2-0.6", "SW", 200, 1000, "crdsa2", 0.6),
        Point("SW200x1000-irsa8-0.6", "SW", 200, 1000, "irsa8", 0.6),
        Point("SW200x1000-irsa8-0.85", "SW", 200, 1000, "irsa8", 0.85),
    ),
    "narrow": (
        Point("FR20-irsa8-0.6", "FR", 20, None, "irsa8", 0.6),
        Point("SW20x100-irsa8-0.6", "SW", 20, 100, "irsa8", 0.6),
        Point("SW1x10-deg1-1.0", "SW", 1, 10, "deg1", 1.0),
    ),
    "cli": (),
}

SWEEP_CONF = """\
mode=SW
window=100
n_rx=500
dist=irsa4
lambda=0.3:0.9:0.2
total_slots=20000
warmup=1000
seed={seed}
replications=2
out={out}
format=both
hist=on
timestamp=off
workers={workers}
"""

# N_rx >= total_slots, so memory never binds and the unbounded oracle must
# reproduce the decoder's events exactly.
RUN_CONF = """\
mode=SW
window=100
n_rx={slots}
dist=irsa4
lambda=0.6
total_slots={slots}
warmup=1000
seed={seed}
out={out}
timestamp=off
"""


def point_seed(seed: int, index: int) -> int:
    """Independent 32-bit RNG seed for point ``index`` of a run."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def load_bands() -> dict:
    with open(BANDS_PATH) as fh:
        return json.load(fh)["points"]


def digest(result) -> str:
    """Hash of the per-packet outcome arrays (decode slot, lost flag)."""
    h = hashlib.sha256()
    h.update(np.asarray(result.decode_slots, dtype=np.int64).tobytes())
    h.update(np.asarray(result.lost, dtype=bool).tobytes())
    return h.hexdigest()[:16]


def point_failures(point: Point, thr: float, loss: float, bands: dict) -> list[str]:
    """Reasons a point's outputs are wrong; empty when they pass."""
    band = bands.get(point.name)
    if band is None:
        return [f"{point.name}: no band recorded"]
    fails = []
    for key, value in (("throughput", thr), ("loss", loss)):
        lo, hi = band[key]
        if not lo <= value <= hi:
            fails.append(f"{point.name}: {key} {value:.6f} outside [{lo:.6f}, {hi:.6f}]")
    if point.dist == "deg1":
        ref = point.lam * math.exp(-point.lam)
        if abs(thr - ref) > SA_TOLERANCE:
            fails.append(f"{point.name}: throughput {thr:.6f} vs G e^-G {ref:.6f}")
    return fails


def oracle_failure(returncode: int, stdout: str) -> str | None:
    if returncode != 0 or "MATCH" not in stdout:
        return f"oracle: exit {returncode}: {stdout.strip()[-200:]}"
    return None


def run_point(point: Point, seed: int, bands: dict, tracer: Tracer | None) -> dict:
    row = {"name": point.name, "seed": seed}
    try:
        scheme, traffic = point.configs(seed)
        if tracer is not None:
            tracer.begin_point(point.name)
        t0 = clock()
        r = run_simulation(scheme, traffic)
        t1 = clock()
        thr = throughput(r)
        loss = loss_rate(r)
        delay_distribution(r)
        t2 = clock()
    except Exception as exc:  # a failed point is counted, the run goes on
        if tracer is not None:
            tracer.point = None
        row["failures"] = [f"{point.name}: {type(exc).__name__}: {exc}"]
        return row
    if tracer is not None:
        rec = tracer.end_point(t0, t1, r)
        tracer.emit({"kind": "span", "name": "metrics.reduce", "start": t1, "end": t2})
        row["layers"] = rec["layers"]
        row["counters"] = rec["counters"]
    row.update(
        packets=len(r.decode_slots),
        run_s=t1 - t0,
        reduce_s=t2 - t1,
        throughput=thr,
        loss=loss,
        digest=digest(r),
        failures=point_failures(point, thr, loss, bands),
    )
    return row


def sim_pass(points, seed: int, bands: dict, tracer: Tracer | None) -> dict:
    """One pass over the points. ``steps`` splits the pass wall by point,
    ``busy`` is each point's run_simulation + reduction time."""
    rows, steps = [], {}
    last = clock()
    for i, p in enumerate(points):
        rows.append(run_point(p, point_seed(seed, i), bands, tracer))
        now = clock()
        steps[p.name], last = now - last, now
    ok = [r for r in rows if "packets" in r]
    return {
        "steps": steps,
        "busy": {r["name"]: r["run_s"] + r["reduce_s"] for r in ok},
        "packets": {r["name"]: r["packets"] for r in ok},
        "rows": rows,
    }


# -- cli workload -----------------------------------------------------------


def run_command(argv: list[str]) -> tuple[int, str, float]:
    """(exit code, output, wall seconds); a command that hangs fails."""
    start = clock()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1, f"timed out after {COMMAND_TIMEOUT_S} s", clock() - start
    return proc.returncode, proc.stdout + proc.stderr, clock() - start


def tree_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            h.update(path.relative_to(directory).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


class CliWorkload:
    """sweep, then run --trace, then oracle on that trace, as subprocesses."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.sweep_digests: dict[int, str] = {}  # run seed -> first pass's outputs

    def _argv(self, args: list[str], tag: str | None, spans: Path) -> list[str]:
        if tag is None:
            return [sys.executable, "-m", "craloha.cli", *args]
        return [sys.executable, str(HERE / "tracer.py"), "--spans", str(spans), "--tag", tag, "--", *args]

    def one_pass(self, run_seed: int, traced: bool) -> dict:
        seed = point_seed(run_seed, 0)
        if self.workdir.exists():
            shutil.rmtree(self.workdir)
        sweep_dir, run_dir, spans = (self.workdir / d for d in ("sweep", "run", "spans"))
        for d in (sweep_dir, run_dir, spans):
            d.mkdir(parents=True)
        sweep_conf = self.workdir / "sweep.conf"
        sweep_conf.write_text(SWEEP_CONF.format(seed=seed, out=sweep_dir / "out", workers=CLI_WORKERS))
        run_conf = self.workdir / "run.conf"
        run_conf.write_text(RUN_CONF.format(seed=seed, out=run_dir / "out", slots=RUN_SLOTS))
        trace_csv = self.workdir / "trace.csv"
        rows, walls = {}, {}
        commands = [
            ("sweep", ["sweep", str(sweep_conf)]),
            ("run", ["run", str(run_conf), "--trace", str(trace_csv)]),
            ("oracle", ["oracle", str(trace_csv)]),
        ]
        if traced:
            # Same config without --trace: the difference is the engine's
            # trace-writing cost. Not part of the pass wall.
            commands.append(("run-notrace", ["run", str(run_conf)]))
        packets = 0
        for name, args in commands:
            rc, out, wall = run_command(self._argv(args, name if traced else None, spans))
            walls[name] = wall
            row = rows[name] = {"name": name, "seed": seed, "failures": []}
            if name == "oracle":
                fail = oracle_failure(rc, out)
                if fail:
                    row["failures"].append(fail)
                m = re.search(r"packets=(\d+)", out)
                packets = row["packets"] = int(m.group(1)) if m else 0
            elif rc != 0:
                row["failures"].append(f"{name}: exit {rc}: {out.strip()[-200:]}")
        sweep_digest = rows["sweep"]["digest"] = tree_digest(sweep_dir)
        first = self.sweep_digests.setdefault(run_seed, sweep_digest)
        if sweep_digest != first:
            rows["sweep"]["failures"].append(f"sweep: outputs {sweep_digest} differ from first pass {first}")
        return {
            "steps": {name: walls[name] for name in ("sweep", "run", "oracle")},
            "busy": {"run": walls["run"]},
            "packets": {"run": packets},
            "rows": list(rows.values()),
            "records": read_sink(spans) if traced else [],
        }


# -- per-layer reduction ----------------------------------------------------

LAYER_METRICS = (
    "decoder.ingest_s",
    "decoder.ingest_calls",
    "decoder.peel_s",
    "decoder.peel_calls",
    "decoder.peel_busy_ratio",
    "decoder.frame_reset_s",
    "decoder.decodes_clean",
    "decoder.decodes_ic",
    "decoder.lost_evicted",
    "decoder.lost_frame",
    "decoder.max_cascade",
    "decoder.iteration_cap_hits",
    "engine.run_s",
    "engine.self_s",
    "engine.lost_drain",
    "engine.trace_write_s",
    "placement.place_s",
    "placement.calls",
    "traffic.generate_arrivals_s",
    "traffic.packets",
    "model.sample_degrees_s",
    "model.replicas",
    "metrics.reduce_s",
    "analytics.oracle_decode_s",
    "analytics.oracle_packets",
    "cli.parse_config_s",
    "cli.sweep_points_s",
    "cli.self_s",
    "cli.parallel_efficiency",
)

_TIMED = {
    "decoder.ingest": ("decoder.ingest_s", "decoder.ingest_calls"),
    "decoder.peel": ("decoder.peel_s", "decoder.peel_calls"),
    "decoder.frame_reset": ("decoder.frame_reset_s", None),
    "placement.place": ("placement.place_s", "placement.calls"),
    "traffic.generate_arrivals": ("traffic.generate_arrivals_s", None),
    "model.sample_degrees": ("model.sample_degrees_s", None),
}
_SUMMED = (
    "decoder.decodes_clean",
    "decoder.decodes_ic",
    "decoder.lost_evicted",
    "decoder.lost_frame",
    "decoder.iteration_cap_hits",
    "traffic.packets",
    "model.replicas",
)


def _engine_self(point: dict) -> float:
    """run_simulation span minus the engine's wrapped children."""
    return point["end"] - point["start"] - sum(acc[1] for acc in point["layers"].values())


def pass_layers(records: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass from its span records."""
    m = dict.fromkeys(LAYER_METRICS, 0.0)
    extra = [r for r in records if r.get("tag") == "run-notrace"]
    records = [r for r in records if r.get("tag") != "run-notrace"]
    points = [r for r in records if r["kind"] == "point"]
    spans = [r for r in records if r["kind"] == "span"]
    busy = 0
    for p in points:
        layers, counters = p["layers"], p["counters"]
        m["engine.run_s"] += p["end"] - p["start"]
        m["engine.self_s"] += _engine_self(p)
        for key, (time_metric, calls_metric) in _TIMED.items():
            acc = layers.get(key)
            if acc:
                m[time_metric] += acc[1]
                if calls_metric:
                    m[calls_metric] += acc[0]
        for key in _SUMMED:
            m[key] += counters.get(key, 0)
        busy += counters.get("decoder.peel_busy", 0)
        m["decoder.max_cascade"] = max(m["decoder.max_cascade"], counters.get("decoder.max_cascade", 0))
        if p["lost_total"] is not None:
            m["engine.lost_drain"] += (
                p["lost_total"] - counters.get("decoder.lost_evicted", 0) - counters.get("decoder.lost_frame", 0)
            )
    if m["decoder.peel_calls"]:
        m["decoder.peel_busy_ratio"] = busy / m["decoder.peel_calls"]
    for s in spans:
        dur = s["end"] - s["start"]
        m[s["name"] + "_s"] += dur
        if s["name"] == "analytics.oracle_decode":
            m["analytics.oracle_packets"] += s.get("packets", 0)

    commands = [r for r in records if r["kind"] == "command"]
    if commands:
        children = [(r["start"], r["end"]) for r in points + spans]
        m["cli.self_s"] = sum(
            c["end"] - c["start"] - covered(c["start"], c["end"], children) for c in commands
        )
        sweep = [r for r in points + spans if r["tag"] == "sweep"]
        m["cli.sweep_points_s"] = sum(r["end"] - r["start"] for r in sweep)
        sweep_cmd = [c for c in commands if c["tag"] == "sweep"]
        if sweep_cmd:
            wall = sweep_cmd[0]["end"] - sweep_cmd[0]["start"]
            m["cli.parallel_efficiency"] = m["cli.sweep_points_s"] / (CLI_WORKERS * wall)

    if extra:
        # Trace lines are written from the engine's own loop, so compare the
        # engine's self time; the decoder's share stays out of the noise.
        m["engine.trace_write_s"] = sum(_engine_self(p) for p in points if p["tag"] == "run") - sum(
            _engine_self(p) for p in extra if p["kind"] == "point"
        )
    return m


# -- measurement ------------------------------------------------------------


def peak_rss_mb() -> float:
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


def typical(passes: list[dict], field: str) -> dict[str, float]:
    """Per point (or command), the median over passes of ``field``.

    Medians per point rather than per pass keep a stall in one point from
    spoiling its whole pass."""
    names = dict.fromkeys(name for p in passes for name in p[field])
    return {n: statistics.median(p[field][n] for p in passes if n in p[field]) for n in names}


def tally(passes: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons): one unit per point or command, failed
    if any check on it failed, however many."""
    rows = [r for p in passes for r in p["rows"]]
    return len(rows), sum(1 for r in rows if r["failures"]), [f for r in rows for f in r["failures"]]


def measure(workload: str, seed: int, seconds: float, trace: bool, heldout: int | None) -> dict:
    bands = load_bands()
    points = WORKLOADS[workload]
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    cli = CliWorkload(workdir) if workload == "cli" else None
    absent: set[str] = set()

    def one_pass(pass_seed: int, traced: bool) -> dict:
        if cli is not None:
            res = cli.one_pass(pass_seed, traced)
        elif not traced:
            res = sim_pass(points, pass_seed, bands, None)
        else:
            tracer = Tracer()
            tracer.install_engine()
            try:
                res = sim_pass(points, pass_seed, bands, tracer)
            finally:
                tracer.uninstall()
            res["records"] = tracer.records
            absent.update(tracer.absent)
        for rec in res.get("records", ()):
            if rec["kind"] == "absent":
                absent.update(rec["names"])
        return res

    min_passes = 2 if trace else 3
    untraced, traced = [], []
    start = clock()
    try:
        while True:
            untraced.append(one_pass(seed, False))
            if trace:
                traced.append(one_pass(seed, True))
            if len(untraced) >= min_passes and clock() - start >= seconds:
                break
        held = one_pass(heldout, False) if heldout is not None else None
    finally:
        if workdir.exists():
            shutil.rmtree(workdir)
        if cli is not None and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    attempted, failed, failures = tally(untraced + traced + ([held] if held else []))
    busy = typical(untraced, "busy")
    packets = sum(untraced[0]["packets"].get(name, 0) for name in busy)
    out = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "passes": len(untraced),
        "e2e": {
            "packets_per_s": packets / sum(busy.values()) if busy else 0.0,
            "wall_s": sum(typical(untraced, "steps").values()),
            "peak_rss_mb": peak_rss_mb(),
        },
        "step_s": typical(untraced, "steps"),
        "points": untraced[0]["rows"],
        "absent_layers": sorted(absent),
    }
    if held:
        out["heldout_points"] = held["rows"]
    if trace:
        per_pass = [pass_layers(p["records"]) for p in traced]
        layers = {k: statistics.median(pp[k] for pp in per_pass) for k in LAYER_METRICS}
        layers["trace_overhead"] = sum(typical(traced, "steps").values()) / out["e2e"]["wall_s"] - 1
        out["layers"] = layers
        out["traced_passes"] = len(traced)
        if cli is None:
            # One traced pass's per-point accumulators, e.g. frame_reset
            # appears only on FR points.
            by_name = {r["name"]: r for r in traced[0]["rows"]}
            for row in out["points"]:
                row.update(layers=by_name[row["name"]].get("layers"), counters=by_name[row["name"]].get("counters"))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--heldout-seed", type=int, default=None)
    args = parser.parse_args(argv)
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.heldout_seed)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
