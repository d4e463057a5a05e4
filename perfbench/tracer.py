"""Outside-in tracing of craloha's layers for the benchmark.

Wrappers are installed by name on the attributes callers look up (module
globals of ``craloha.engine`` and ``craloha.cli``, methods of the receiver
memory class), so the program under test is not edited. A symbol that is
missing is reported as an absent layer instead of failing the run.

Per-slot calls are folded into per-point ``[count, total_s, max_s]``
accumulators; everything else becomes a span record. Records stay in memory,
or, with a sink directory, are appended to ``spans-<pid>.jsonl`` there so
that sweep worker processes (which inherit the wrappers by fork) report too.

Run as a script, it is a traced launcher for the CLI::

    python3 perfbench/tracer.py --spans DIR --tag TAG -- sweep exp.conf
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import time
from pathlib import Path

import numpy as np

# Timestamps use the system-wide monotonic clock so spans recorded in sweep
# workers line up with the launcher's command span.
clock = time.monotonic

_MISSING = object()


def _resolve(path: str):
    """(owner, attribute name) for a dotted ``module:Attr.attr`` path."""
    module_name, _, attr_path = path.partition(":")
    owner = importlib.import_module(module_name)
    *parents, name = attr_path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    getattr(owner, name)  # raises AttributeError when the symbol is gone
    return owner, name


class Point:
    """Accumulators for one ``run_simulation`` call."""

    def __init__(self, name):
        self.name = name
        self.layers: dict[str, list] = {}  # key -> [count, total_s, max_s]
        self.counters: dict[str, int] = {}

    def add(self, key: str, dt: float) -> None:
        acc = self.layers.get(key)
        if acc is None:
            self.layers[key] = [1, dt, dt]
        else:
            acc[0] += 1
            acc[1] += dt
            if dt > acc[2]:
                acc[2] = dt

    def count(self, key: str, n: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def peak(self, key: str, n: int) -> None:
        if n > self.counters.get(key, -1):
            self.counters[key] = n


# Observers turn a wrapped call's arguments and result into counters.
def _obs_arrivals(point, args, out):
    point.count("traffic.packets", int(np.sum(getattr(out, "per_slot_counts", out))))


def _obs_degrees(point, args, out):
    point.count("model.replicas", int(np.sum(out)))


def _obs_ingest(point, args, out):
    point.count("decoder.lost_evicted", len(out))


def _obs_peel(point, args, out):
    n = len(out)
    point.count("decoder.peel_busy", 1 if n else 0)
    point.peak("decoder.max_cascade", n)
    for ev in out:
        cause = getattr(getattr(ev, "cause", None), "value", None)
        point.count("decoder.decodes_ic" if cause == "ic" else "decoder.decodes_clean", 1)
    hits = getattr(args[0], "iteration_cap_hits", None)
    if hits is not None:
        point.counters["decoder.iteration_cap_hits"] = int(hits)


def _obs_frame_reset(point, args, out):
    point.count("decoder.lost_frame", len(out))


# (lookup path, accumulator key, observer): the engine's children.
ENGINE_TARGETS = (
    ("craloha.engine:generate_arrivals", "traffic.generate_arrivals", _obs_arrivals),
    ("craloha.engine:sample_degrees", "model.sample_degrees", _obs_degrees),
    ("craloha.engine:place_fr", "placement.place", None),
    ("craloha.engine:place_sw", "placement.place", None),
    ("craloha.engine:ReceiverMemory.ingest_slot", "decoder.ingest", _obs_ingest),
    ("craloha.engine:ReceiverMemory.peel", "decoder.peel", _obs_peel),
    ("craloha.engine:ReceiverMemory.frame_reset", "decoder.frame_reset", _obs_frame_reset),
)

# (lookup path, span name): what the CLI calls into.
CLI_SPANS = (
    ("craloha.cli:delay_distribution", "metrics.reduce"),
    ("craloha.cli:throughput", "metrics.reduce"),
    ("craloha.cli:loss_rate", "metrics.reduce"),
    ("craloha.cli:oracle_decode", "analytics.oracle_decode"),
    ("craloha.cli:parse_config", "cli.parse_config"),
)
CLI_POINT = "craloha.cli:run_simulation"


class Tracer:
    def __init__(self, sink: Path | None = None):
        self.sink = sink
        self.tag = None
        self.point: Point | None = None
        self.records: list[dict] = []
        self.absent: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def _patch(self, path: str, make_wrapper) -> None:
        try:
            owner, name = _resolve(path)
        except (ImportError, AttributeError):
            self.absent.append(path)
            return
        saved = owner.__dict__.get(name, _MISSING) if isinstance(owner, type) else getattr(owner, name)
        self._saved.append((owner, name, saved))
        setattr(owner, name, make_wrapper(getattr(owner, name)))

    def install_engine(self) -> None:
        for path, key, observe in ENGINE_TARGETS:
            self._patch(path, lambda fn, k=key, o=observe: self._folded(k, fn, o))

    def install_cli(self) -> None:
        self._patch(CLI_POINT, self._point_wrapper)
        for path, name in CLI_SPANS:
            self._patch(path, lambda fn, n=name: self._span_wrapper(n, fn))

    def uninstall(self) -> None:
        for owner, name, saved in reversed(self._saved):
            if saved is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, saved)
        self._saved.clear()

    # -- wrappers -----------------------------------------------------------

    def _folded(self, key, fn, observe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
            point = self.point
            if point is not None:
                point.add(key, dt)
                if observe is not None:
                    observe(point, args, out)
            return out

        return wrapper

    def _point_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.begin_point(None)
            start = clock()
            out = fn(*args, **kwargs)
            self.end_point(start, clock(), out)
            return out

        return wrapper

    def _span_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            out = fn(*args, **kwargs)
            extra = {}
            if name == "analytics.oracle_decode" and args:
                extra["packets"] = len(args[0])
            self.emit({"kind": "span", "name": name, "start": start, "end": clock(), **extra})
            return out

        return wrapper

    # -- records ------------------------------------------------------------

    def begin_point(self, name) -> None:
        self.point = Point(name)

    def end_point(self, start: float, end: float, result) -> dict:
        point, self.point = self.point, None
        lost = getattr(result, "lost", None)
        rec = {
            "kind": "point",
            "name": point.name,
            "start": start,
            "end": end,
            "layers": point.layers,
            "counters": point.counters,
            "lost_total": int(np.count_nonzero(lost)) if lost is not None else None,
        }
        self.emit(rec)
        return rec

    def emit(self, rec: dict) -> None:
        rec["tag"] = self.tag
        rec["pid"] = os.getpid()
        if self.sink is None:
            self.records.append(rec)
        else:
            with open(self.sink / f"spans-{os.getpid()}.jsonl", "a") as fh:
                fh.write(json.dumps(rec) + "\n")


def read_sink(sink: Path) -> list[dict]:
    records = []
    for path in sorted(sink.glob("spans-*.jsonl")):
        with open(path) as fh:
            records.extend(json.loads(line) for line in fh if line.strip())
    return records


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for s, e in sorted(intervals):
        s, e = max(s, cursor), min(e, end)
        if e > s:
            total += e - s
            cursor = e
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run one craloha CLI command with layer tracing")
    parser.add_argument("--spans", required=True, type=Path, help="directory for span records")
    parser.add_argument("--tag", required=True, help="label stored with every record")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="-- followed by craloha CLI arguments")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    from craloha import cli

    tracer = Tracer(sink=args.spans)
    tracer.tag = args.tag
    tracer.install_cli()
    tracer.install_engine()
    if tracer.absent:
        tracer.emit({"kind": "absent", "names": tracer.absent})
    start = clock()
    try:
        return cli.main(command)
    finally:
        tracer.emit({"kind": "command", "name": command[0], "start": start, "end": clock()})


if __name__ == "__main__":
    raise SystemExit(main())
