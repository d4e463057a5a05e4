"""Experiment front end: config parsing, single runs, and arrival-rate sweeps.

Config files are flat key=value text, one key per line, ``#`` comments::

    mode=SW              # FR or SW (required)
    window=100           # frame / sliding-window slots (required)
    n_rx=500             # receiver memory; required for SW, frame-scoped in FR
    dist=crdsa2          # named (crdsa2, crdsa3, irsa4, irsa8) or inline "2:0.5,3:0.5"
    lambda=0.6           # required; also "0.1,0.2" or "0.1:1.2:0.1" (start:stop:step)
    total_slots=100000   # required
    warmup=1000          # default 10*window
    seed=1               # base seed; replication k uses seed+k
    replications=1
    t_slot=1.0
    t_p=250.0
    i_max=50
    bin_width_ms=1.0
    out=results          # output path prefix
    format=csv           # csv | json | both
    hist=off             # sweep: also write per-run histograms
    timestamp=on         # header timestamp line
    workers=1            # concurrent runs for sweeps

Subcommands: ``run`` (single point, full histogram), ``sweep`` (lambda sweep
with replications), ``analytic`` (per-slot placement probability terms and
the FR/SW equality check), ``oracle`` (re-decode a run trace with the
unbounded fixpoint oracle and diff against the decoder's events).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import statistics
import sys
from dataclasses import dataclass, replace
from functools import partial
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .analytics import oracle_decode, p_uins_fr, p_uins_fr_terms, p_uins_sw, p_uins_sw_terms
from .engine import TraceError, read_trace, run_simulation
from .metrics import delay_distribution, loss_rate, throughput
from .model import (
    AccessMode,
    ConfigError,
    DegreeDistribution,
    NAMED_DISTRIBUTIONS,
    SchemeConfig,
    TimeConfig,
    TrafficConfig,
    named_distribution,
)

SUMMARY_COLUMNS = (
    "lambda",
    "mode",
    "dist",
    "window",
    "n_rx",
    "seeds",
    "throughput_mean",
    "throughput_sd",
    "loss_rate_mean",
    "delay_mean_ms",
    "delay_p50_ms",
    "delay_p95_ms",
    "delay_p99_ms",
)

HIST_COLUMNS = ("delay_ms", "count", "pdf", "cdf")


@dataclass(frozen=True)
class ExperimentSpec:
    """A parsed, validated experiment: the model's configs plus the settings
    only the front end reads.

    ``traffic`` holds one row per lambda, in config order, of one
    TrafficConfig per replication; replication k of a row uses seed+k.
    """

    scheme: SchemeConfig
    time: TimeConfig
    traffic: tuple[tuple[TrafficConfig, ...], ...]
    dist_name: str
    bin_width_ms: float
    out: str
    format: str
    hist: bool
    timestamp: bool
    workers: int


_MAX_LAMBDAS = 10_000


def _parse_lambda(raw: str) -> tuple[float, ...]:
    if ":" in raw:
        parts = raw.split(":")
        if len(parts) != 3:
            raise ValueError("range form is start:stop:step")
        start, stop, step = (float(p) for p in parts)
        # a non-finite bound or step would never end the walk below
        if not (math.isfinite(start + stop + step) and step > 0 and stop >= start):
            raise ValueError("range needs finite start, stop and step, step > 0 and stop >= start")
        vals, k = [], 0
        while (v := start + k * step) <= stop + 1e-12:
            if k == _MAX_LAMBDAS:  # one line must not ask for a near-endless sweep
                raise ValueError(f"range gives more than {_MAX_LAMBDAS} values")
            vals.append(round(v, 12))
            k += 1
        return tuple(vals)
    return tuple(float(p) for p in raw.split(","))


def _parse_dist(raw: str) -> tuple[str, DegreeDistribution]:
    if raw in NAMED_DISTRIBUTIONS:
        return raw, named_distribution(raw)
    if ":" not in raw:
        known = ", ".join(sorted(NAMED_DISTRIBUTIONS))
        raise ValueError(f"unknown distribution {raw!r} (named: {known}; inline: 'l:p,l:p')")
    entries = []
    for part in raw.split(","):
        try:
            l, p = part.split(":")
            entries.append((int(l), float(p)))
        except ValueError:
            raise ValueError(f"bad entry {part!r}: expected degree:probability, as in '2:0.5,3:0.5'") from None
    return raw, DegreeDistribution(tuple(entries))


def _checked(parse, ok, rule: str):
    """``parse``, then a ValueError stating ``rule`` unless ``ok(value)``."""
    def parser(raw: str):
        if not ok(value := parse(raw)):
            raise ValueError(f"{rule}, got {value!r}")
        return value
    return parser


def _parse_bool(raw: str) -> bool:
    spelled = {"on": True, "true": True, "1": True, "off": False, "false": False, "0": False}
    if (value := spelled.get(raw.lower())) is None:
        raise ValueError(f"expected on/off, true/false or 1/0, got {raw!r}")
    return value


_REQUIRED = object()

# key -> (parser, default). A config must set the _REQUIRED keys; a None
# default is derived from other keys (n_rx from mode, warmup from window).
_KEYS = {
    "mode": (lambda s: AccessMode(s.upper()), _REQUIRED),
    "window": (int, _REQUIRED),
    "n_rx": (int, None),
    "dist": (_parse_dist, _parse_dist("crdsa2")),
    "lambda": (_parse_lambda, _REQUIRED),
    "total_slots": (int, _REQUIRED),
    "warmup": (int, None),
    "seed": (int, 0),
    "replications": (_checked(int, lambda v: v >= 1, "replications must be >= 1"), 1),
    "t_slot": (float, TimeConfig.slot_duration_ms),
    "t_p": (float, TimeConfig.propagation_delay_ms),
    "i_max": (int, SchemeConfig.max_ic_iterations),
    "bin_width_ms": (_checked(float, lambda v: 0 < v < math.inf, "bin_width_ms must be > 0 and finite"), 1.0),
    "out": (str, "results"),
    "format": (_checked(str, lambda v: v in ("csv", "json", "both"), "format must be csv, json or both"), "csv"),
    "hist": (_parse_bool, False),
    "timestamp": (_parse_bool, True),
    "workers": (_checked(int, lambda v: v >= 1, "workers must be >= 1"), 1),
}


def _traffic(lam: float, total_slots: int, warmup: int, seed: int) -> TrafficConfig:
    try:
        return TrafficConfig(lam, total_slots, warmup, seed)
    except ConfigError as exc:
        raise ConfigError(f"lambda={lam:g} seed={seed}: {exc}") from None


def parse_config(text: str) -> ExperimentSpec:
    """Parse and validate flat key=value config text.

    Every bad line, unknown or duplicate key, bad value and missing key is
    collected and reported together, each line's problem prefixed with its
    line number. Checks across keys and on every (lambda, seed) point then
    run before the spec is returned, so no bad point is found midway
    through a sweep.
    """
    values: dict[str, object] = {}
    errors: list[str] = []
    seen_lines: dict[str, int] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected key=value, got {line!r}")
            continue
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _KEYS:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in seen_lines:
            errors.append(f"line {lineno}: duplicate key {key!r} (first on line {seen_lines[key]})")
            continue
        seen_lines[key] = lineno
        parser, _ = _KEYS[key]
        try:
            values[key] = parser(raw)
        except (ValueError, ConfigError) as exc:
            errors.append(f"line {lineno}: bad value for {key!r}: {exc}")
    for key, (_, default) in _KEYS.items():
        if key not in seen_lines:
            if default is _REQUIRED:
                errors.append(f"missing required key {key!r}")
            values[key] = default
    if errors:
        raise ConfigError("\n".join(errors))

    window, total_slots = values["window"], values["total_slots"]
    warmup = values["warmup"]
    if warmup is None:
        warmup = 10 * window
        if warmup >= total_slots:
            raise ConfigError(
                f"default warmup (10*window = {warmup}) does not fit in "
                f"total_slots={total_slots}; set warmup explicitly"
            )
    if values["mode"] is AccessMode.SW and values["n_rx"] is None:
        raise ConfigError("missing required key 'n_rx' (required in SW mode)")
    dist_name, dist = values["dist"]
    seeds = [values["seed"] + k for k in range(values["replications"])]
    scheme = SchemeConfig(values["mode"], window, dist, values["n_rx"], values["i_max"])
    time = TimeConfig(values["t_slot"], values["t_p"])
    traffic = tuple(
        tuple(_traffic(lam, total_slots, warmup, seed) for seed in seeds) for lam in values["lambda"]
    )
    return ExperimentSpec(
        scheme=scheme,
        time=time,
        traffic=traffic,
        dist_name=dist_name,
        **{k: values[k] for k in ("bin_width_ms", "out", "format", "hist", "timestamp", "workers")},
    )


def _run_point(
    scheme: SchemeConfig, time: TimeConfig, bin_width_ms: float, traffic: TrafficConfig, trace_path=None
) -> dict:
    lam, seed = traffic.mean_arrival_rate, traffic.rng_seed
    try:
        r = run_simulation(scheme, traffic, time, trace_path=trace_path)
    except Exception as exc:
        raise RuntimeError(f"point lambda={lam} seed={seed} failed: {exc}") from exc
    dist = delay_distribution(r, bin_width_ms)
    return {
        "lambda": lam,
        "seed": seed,
        "throughput": throughput(r),
        "loss_rate": loss_rate(r),
        "delay_mean_ms": dist.mean_ms,
        "delay_p50_ms": dist.quantiles[0.5],
        "delay_p95_ms": dist.quantiles[0.95],
        "delay_p99_ms": dist.quantiles[0.99],
        "hist": (dist.lower_edges_ms.tolist(), dist.counts.tolist(), dist.pdf.tolist(), dist.cdf.tolist()),
    }


def _aggregate(spec: ExperimentSpec, points: list[dict]) -> dict:
    thr = [p["throughput"] for p in points]
    return {
        "lambda": points[0]["lambda"],
        "mode": spec.scheme.mode.value,
        "dist": spec.dist_name,
        "window": spec.scheme.window_slots,
        "n_rx": spec.scheme.receiver_memory_slots,
        "seeds": len(points),
        "throughput_mean": statistics.fmean(thr),
        "throughput_sd": statistics.stdev(thr) if len(thr) > 1 else 0.0,
        "loss_rate_mean": statistics.fmean(p["loss_rate"] for p in points),
        "delay_mean_ms": statistics.fmean(p["delay_mean_ms"] for p in points),
        "delay_p50_ms": statistics.fmean(p["delay_p50_ms"] for p in points),
        "delay_p95_ms": statistics.fmean(p["delay_p95_ms"] for p in points),
        "delay_p99_ms": statistics.fmean(p["delay_p99_ms"] for p in points),
    }


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _write_csv(path: Path, columns, rows, timestamp: bool) -> None:
    with open(path, "w", newline="") as fh:
        if timestamp:
            fh.write(f"# generated {datetime.now(timezone.utc).isoformat()}\n")
        w = csv.writer(fh)
        w.writerow(columns)
        w.writerows([_fmt(v) for v in row] for row in rows)


def _write_summary_json(path: Path, spec: ExperimentSpec, rows: list[dict], timestamp: bool) -> None:
    scheme, first = spec.scheme, spec.traffic[0][0]
    payload = {
        "config": {
            "mode": scheme.mode.value,
            "window": scheme.window_slots,
            "n_rx": scheme.receiver_memory_slots,
            "dist": spec.dist_name,
            "dist_entries": list(scheme.degree_distribution.entries),
            "lambdas": [row[0].mean_arrival_rate for row in spec.traffic],
            "total_slots": first.total_slots,
            "warmup": first.warmup_slots,
            "seed": first.rng_seed,
            "replications": len(spec.traffic[0]),
            "t_slot": spec.time.slot_duration_ms,
            "t_p": spec.time.propagation_delay_ms,
            "i_max": scheme.max_ic_iterations,
            "bin_width_ms": spec.bin_width_ms,
        },
        "rows": rows,
    }
    if timestamp:
        payload["generated"] = datetime.now(timezone.utc).isoformat()
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_summaries(spec: ExperimentSpec, rows: list[dict], timestamp: bool) -> Path:
    """Write the summary files ``spec.format`` asks for; returns the output prefix."""
    out = Path(spec.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    if spec.format in ("csv", "both"):
        table = ([row[c] for c in SUMMARY_COLUMNS] for row in rows)
        _write_csv(out.with_name(out.name + "_summary.csv"), SUMMARY_COLUMNS, table, timestamp)
    if spec.format in ("json", "both"):
        _write_summary_json(out.with_name(out.name + "_summary.json"), spec, rows, timestamp)
    return out


def run_sweep(spec: ExperimentSpec) -> list[dict]:
    """Run every (lambda, seed) point, aggregate per lambda, write outputs.

    Returns the summary rows. Points may run in parallel (workers > 1) and
    are aggregated in deterministic order.
    """
    run = partial(_run_point, spec.scheme, spec.time, spec.bin_width_ms)
    jobs = [t for row in spec.traffic for t in row]
    # The pool may start all its workers at the first submit, so it gets at
    # most one per point, and a single point runs in this process.
    if (workers := min(spec.workers, len(jobs))) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            points = list(pool.map(run, jobs))
    else:
        points = [run(t) for t in jobs]
    per_lambda = len(spec.traffic[0])
    rows = [_aggregate(spec, points[i : i + per_lambda]) for i in range(0, len(points), per_lambda)]
    out = _write_summaries(spec, rows, spec.timestamp)
    if spec.hist:
        for p in points:
            hist_path = out.with_name(f"{out.name}_hist_l{p['lambda']:g}_s{p['seed']}.csv")
            _write_csv(hist_path, HIST_COLUMNS, zip(*p["hist"]), spec.timestamp)
    return rows


def _cmd_run(args) -> int:
    spec = parse_config(Path(args.config).read_text())
    if len(spec.traffic) != 1:
        print("run expects a single lambda value; use the sweep subcommand for lists", file=sys.stderr)
        return 2
    if len(spec.traffic[0]) != 1:
        print("run executes one replication; ignoring replications>1", file=sys.stderr)
        spec = replace(spec, traffic=((spec.traffic[0][0],),))
    point = _run_point(spec.scheme, spec.time, spec.bin_width_ms, spec.traffic[0][0], trace_path=args.trace)
    row = _aggregate(spec, [point])
    out = _write_summaries(spec, [row], spec.timestamp)
    _write_csv(out.with_name(out.name + "_hist.csv"), HIST_COLUMNS, zip(*point["hist"]), spec.timestamp)
    print(
        f"lambda={row['lambda']:g} throughput={row['throughput_mean']:.4f} "
        f"loss={row['loss_rate_mean']:.4g} mean_delay={row['delay_mean_ms']:.2f}ms"
    )
    return 0


def _cmd_sweep(args) -> int:
    spec = parse_config(Path(args.config).read_text())
    rows = run_sweep(spec)
    for row in rows:
        print(
            f"lambda={row['lambda']:g} throughput={row['throughput_mean']:.4f}"
            f"±{row['throughput_sd']:.4f} loss={row['loss_rate_mean']:.4g}"
        )
    return 0


def _cmd_analytic(args) -> int:
    l, n_f, n_sw = args.degree, args.n_frame, args.n_window
    if not 1 <= l <= n_sw <= n_f:
        print(f"need 1 <= l <= N_sw <= N_f, got l={l}, N_sw={n_sw}, N_f={n_f}", file=sys.stderr)
        return 2
    fr_terms = p_uins_fr_terms(l, n_f)
    sw_terms = p_uins_sw_terms(l, n_f, n_sw)
    print(f"FR per-slot placement probability, l={l}, N_f={n_f}")
    for i, t in enumerate(fr_terms, start=1):
        print(f"  replica {i}: {t:.12f}")
    fr = p_uins_fr(l, n_f)
    print(f"  sum = {fr:.12f}   l/N_f = {l / n_f:.12f}")
    print(f"SW per-slot placement probability, l={l}, N_sw={n_sw}, horizon N_f={n_f}")
    print(f"  first replica: {sw_terms[0]:.12f}")
    for j, t in enumerate(sw_terms[1:], start=1):
        print(f"  replica {j + 1} (windowed): {t:.12f}")
    sw = p_uins_sw(l, n_f, n_sw)
    print(f"  sum = {sw:.12f}   l/N_f = {l / n_f:.12f}")
    equal = abs(fr - sw) < 1e-12 and abs(fr - l / n_f) < 1e-12
    print(f"equality FR == SW == l/N_f: {'OK' if equal else 'VIOLATED'}")
    return 0 if equal else 1


def distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values by one sort: ``np.unique`` without
    ``return_inverse`` hashes on numpy >= 2.3, which took 4.2 ms against
    0.25 ms for this on 20k int64 values, and 24 ms against 1 ms on the
    90k replica keys of a 50k-slot trace. That path also calls
    ``np.ma.is_masked``, whose import of ``numpy.ma`` costs a fresh process
    13-15 ms and 1.3 MB."""
    v = np.sort(values)
    keep = np.ones(len(v), dtype=bool)
    keep[1:] = v[1:] != v[:-1]
    return v[keep]


def _cmd_oracle(args) -> int:
    try:
        rows = read_trace(args.trace)
    except TraceError as exc:
        print(exc, file=sys.stderr)
        return 2
    replica = rows["event"] == b"replica"
    # Dense packet and slot ids, then the CSR rows sorted by (packet, slot);
    # a repeated (packet, slot) line counts once.
    ids, packet = np.unique(rows["pid"][replica], return_inverse=True)
    slot_values, slot = np.unique(rows["slot"][replica], return_inverse=True)
    n_slots = max(len(slot_values), 1)
    pairs = distinct(packet * n_slots + slot)
    offsets = np.searchsorted(pairs // n_slots, np.arange(len(ids) + 1))
    oracle = ids[oracle_decode(pairs % n_slots, offsets)]
    decoder_decoded = distinct(rows["pid"][rows["event"] == b"decode"])
    only_oracle = np.setdiff1d(oracle, decoder_decoded, assume_unique=True).tolist()
    only_decoder = np.setdiff1d(decoder_decoded, oracle, assume_unique=True).tolist()
    print(f"packets={len(ids)} decoder_decoded={len(decoder_decoded)} oracle_decoded={len(oracle)}")
    if not only_oracle and not only_decoder:
        print("MATCH: decoder events equal the unbounded-memory fixpoint")
        return 0
    if only_oracle:
        print(f"oracle-only ({len(only_oracle)}): {only_oracle[:20]}")
    if only_decoder:
        print(f"decoder-only ({len(only_decoder)}): {only_decoder[:20]}")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="craloha",
        description="Framed / sliding-window CRDSA-IRSA simulator and sweep runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single simulation with full delay histogram")
    p_run.add_argument("config")
    p_run.add_argument("--trace", default=None, help="write a decode/loss event trace CSV")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="lambda sweep with replications")
    p_sweep.add_argument("config")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_an = sub.add_parser("analytic", help="placement probability terms and FR/SW equality")
    p_an.add_argument("degree", type=int)
    p_an.add_argument("n_frame", type=int)
    p_an.add_argument("n_window", type=int)
    p_an.set_defaults(func=_cmd_analytic)

    p_or = sub.add_parser("oracle", help="re-decode a trace and diff against decoder events")
    p_or.add_argument("trace")
    p_or.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error:\n{exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
