"""chiptopple benchmark: run one workload and print its metrics as the last stdout line.

    python3 bench/run.py --workload {verify,sweep,kernel} --seed N --seconds S --trace {0,1}

Each unit of work runs in a fresh worker process (`worker.py`, `--jobs 1`).
With --trace 0 units are repeated until the next one would end after S
seconds (at least one) and the end-to-end metrics are reported. With
--trace 1 one untraced and one traced unit are run; the per-layer metrics
come from the traced one, whose outputs and failures must equal the
untraced one's. Outputs are checked against values this package computes
itself. See bench/README.md for the metrics and what each one should move.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probes
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 9
UNIT_TIMEOUT_S = 170
EDGE_TIMEOUT_S = 60

_IMPORT_CLI = "import sys, time; sys.path.insert(0, sys.argv[1]); import chiptopple.cli; print(time.time())"


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (missing sources, a crashed worker)."""


def _run(cmd: list[str], timeout: float, env: dict | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, env=env, cwd=ROOT)


def setup_seconds() -> float:
    """Time from launching a fresh interpreter until `chiptopple.cli` is imported."""
    start = time.time()
    proc = _run([sys.executable, "-c", _IMPORT_CLI, str(SRC)], timeout=60)
    if proc.returncode != 0:
        raise BenchError(f"importing chiptopple.cli failed:\n{proc.stderr[-2000:]}")
    return float(proc.stdout.strip()) - start


def run_worker(workload: str, seed: int, trace: bool) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed)] + (["--trace"] if trace else [])
    start = time.perf_counter()
    proc = _run(cmd, timeout=UNIT_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    unit = json.loads(proc.stdout.strip().splitlines()[-1])
    unit["process_s"] = time.perf_counter() - start
    return unit


def run_edge(request: tuple) -> tuple[bool, str]:
    """One cold command-line request; fails on a traceback, a nonzero exit or a wrong value."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = _run([sys.executable, "-m", "chiptopple.cli", *workloads.edge_command(request)], EDGE_TIMEOUT_S, env)
    if proc.returncode != 0 or "Traceback" in proc.stderr:
        last = proc.stderr.strip().splitlines()[-1:] or [""]
        return False, f"edge {request}: exit {proc.returncode}, {last[0][:200]}"
    if proc.stdout.strip() != workloads.expected_edge(request):
        return False, f"edge {request}: wrong value"
    return True, ""


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def environment(seed: int) -> dict:
    git_dir = ROOT / ".git"
    revision = None
    if git_dir.is_dir():
        proc = _run(["git", "--git-dir", str(git_dir), "rev-parse", "HEAD"], timeout=30)
        revision = proc.stdout.strip() or None
    sources = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        sources.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_revision": revision,
        "source_sha256": sources.hexdigest(),
        "loadavg_start": os.getloadavg(),
    }


def measure(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    schema = json.loads((ROOT / "docs" / "schemas" / "verify-report.schema.json").read_text())
    info = environment(seed)
    # The host's speed changes in phases of several seconds, so the setup
    # samples are spread over the run: half before the units, one after
    # each unit, and the rest at the end.
    setup = [setup_seconds() for _ in range(SETUP_SAMPLES // 2)]
    units: list[dict] = []
    begin = time.perf_counter()
    while not units or (
        not trace and time.perf_counter() - begin + statistics.median(u["process_s"] for u in units) <= seconds
    ):
        units.append(run_worker(workload, seed, trace=False))
        setup.append(setup_seconds())
    setup += [setup_seconds() for _ in range(SETUP_SAMPLES - len(setup))]
    traced = run_worker(workload, seed, trace=True) if trace else None

    attempted = failed = 0
    problems: list[str] = []
    errors: list[str] = []
    for unit in units + ([traced] if traced else []):
        tried, lost, wrong = workloads.check_unit(workload, seed, unit["outputs"], schema)
        attempted += tried
        failed += lost
        problems += wrong
        errors += unit["errors"]
    if workload == "kernel":
        for request in workloads.EDGE_REQUESTS:
            ok, message = run_edge(request)
            attempted += 1
            failed += not ok
            errors += [message] if message else []

    # Every unit repeats the same operations. The fastest unit depends on
    # whether a run caught one of the host's fast phases, so each time is
    # the median over the run's units. An operation is a kernel request, a sweep harness
    # call, or the whole verify command.
    walls = [u["wall_s"] for u in units]
    if traced is None:
        wall = statistics.median(walls)
        op_ms = [statistics.median(times) for times in zip(*(u["op_ms"] for u in units))]
        work = workloads.work_per_unit(workload, units[0]["outputs"])
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (wall, "s"),
            "throughput_per_s": (work / wall, "1/s"),
            "op_p50_ms": (percentile(op_ms, 0.50), "ms"),
            "op_p99_ms": (percentile(op_ms, 0.99), "ms"),
            "peak_rss_mb": (statistics.median(u["peak_rss_mb"] for u in units), "MB"),
        }
        info["op_samples"] = len(op_ms)
    else:
        if workloads.digest(traced["outputs"]) != workloads.digest(units[0]["outputs"]):
            problems.append("the traced unit's outputs differ from the untraced unit's")
        if traced["errors"] != units[0]["errors"]:
            problems.append("the traced unit's failures differ from the untraced unit's")
        if traced["wrappers_left"]:
            problems.append(f"wrappers left installed: {traced['wrappers_left']}")
        metrics = {name: (value, probes.unit_of(name)) for name, value in traced["layers"].items()}
        metrics["trace.overhead_ratio"] = (traced["wall_s"] / units[0]["wall_s"], "ratio")
        write_spans(workload, seed, traced["spans"])

    info.update(
        workload=workload,
        seconds=seconds,
        trace=int(trace),
        loadavg_end=os.getloadavg(),
        units=len(units) + (traced is not None),
        unit_wall_s=walls + ([traced["wall_s"]] if traced else []),
        setup_samples_s=setup,
        errors=errors[:20],
        problems=problems[:20],
    )
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return info, result


def write_spans(workload: str, seed: int, spans: list) -> None:
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    fields = ("label", "parent", "start", "end", "self_s")
    path = out / f"{workload}-seed{seed}-spans.json"
    path.write_text(json.dumps([dict(zip(fields, span)) for span in spans]))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "chiptopple" / "__init__.py").is_file():
        print(f"error: no chiptopple sources under {SRC}", file=sys.stderr)
        return 2
    try:
        info, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"run": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
