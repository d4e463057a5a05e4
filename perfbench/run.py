"""craloha benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload fr-wide --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (``src/craloha`` must exist; nothing
is installed). The workload runs in a fresh process (``bench.py``) for
``--seconds``. With ``--trace 0`` the last line carries the end-to-end
metrics named in ``BENCHMARK.json``; with ``--trace 1`` the per-layer ones.
``setup_s`` is the median over several fresh interpreters of the time to
``import craloha, craloha.cli``. The line before the last is a record of the
machine, the seeds, per-point digests and any absent layer.

``--heldout-seed N`` adds one untimed, fully checked pass on seed ``N`` so
a claim can be re-checked on inputs not used while it was written.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

IMPORT = "import craloha, craloha.cli"
SETUP_SAMPLES = 15
IMPORTTIME_SAMPLES = 3
# Every run must end within 180 s; the workload gets what set-up leaves.
RUN_BUDGET_S = 170


def fail(msg: str, code: int = 1) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return code


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def machine_record() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        **versions,
        "loadavg_start": list(os.getloadavg()),
    }


def setup_samples(n: int) -> list[float]:
    """Wall seconds from a fresh interpreter to the package imported."""
    walls = []
    for _ in range(n):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", IMPORT], cwd=ROOT, env=child_env(), capture_output=True)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"import failed: {proc.stderr.decode()[-300:]}")
    return walls


def importtime_sample() -> dict[str, float]:
    """Cumulative import seconds of the package and of craloha.analytics,
    which pulls in scipy.stats."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", IMPORT], cwd=ROOT, env=child_env(), capture_output=True, text=True
    )
    if proc.returncode != 0:
        raise RuntimeError(f"import failed: {proc.stderr[-300:]}")
    cumulative = {}
    for line in proc.stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cum, name = line.split("|")
            name = name.strip()
            if cum.strip().isdigit():
                cumulative[name] = int(cum) / 1e6
    return {
        "setup.import_s": cumulative.get("craloha", 0.0) + cumulative.get("craloha.cli", 0.0),
        "setup.analytics_import_s": cumulative.get("craloha.analytics", 0.0),
    }


def run_workload(args, budget: float) -> dict:
    argv = [
        sys.executable, str(HERE / "bench.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]  # fmt: skip
    if args.heldout_seed is not None:
        argv += ["--heldout-seed", str(args.heldout_seed)]
    # Own process group, so a timeout also stops the CLI commands and
    # sweep workers the workload started.
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"workload exceeded {budget:.0f} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    started = time.perf_counter()
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}", 2)
    parser = argparse.ArgumentParser(description="craloha benchmark")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--heldout-seed", type=int, default=None)
    args = parser.parse_args(argv)
    if args.seed < 0 or (args.heldout_seed is not None and args.heldout_seed < 0):
        return fail("seeds must be >= 0", 2)
    if not (SRC / "craloha" / "__init__.py").is_file() or not (SRC / "craloha" / "cli.py").is_file():
        return fail(f"no craloha sources under {SRC}; run from a source checkout", 2)

    record = {"workload": args.workload, "seed": args.seed, "heldout_seed": args.heldout_seed, **machine_record()}
    extra: dict[str, float] = {}
    try:
        if args.trace:
            samples = [importtime_sample() for _ in range(IMPORTTIME_SAMPLES)]
            extra = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
        else:
            setup_samples(1)  # compile bytecode once; users run with it cached
            walls = setup_samples(SETUP_SAMPLES)
            extra["setup_s"] = statistics.median(walls)
            record["setup_samples_s"] = walls
        result = run_workload(args, RUN_BUDGET_S - (time.perf_counter() - started))
    except (RuntimeError, OSError, ValueError) as exc:
        return fail(str(exc))

    values = {**result.get("e2e", {}), **result.get("layers", {}), **extra}
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        return fail(f"metrics not produced: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    record.update({k: v for k, v in result.items() if k not in ("attempted", "failed", "e2e", "layers")})
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
