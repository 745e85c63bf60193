"""Record one BENCH_<label>.json: the benchmark on every workload plus the tier-1 suite.

    python3 tools/bench_record.py <label>

Runs, one after another and from the checkout this script lives in,
`python3 bench/run.py --workload W --seed 1 --seconds S --trace T` for
every workload W that `BENCHMARK.json` lists, once with --trace 0 and once
with --trace 1 (S is its `run_seconds`), then the tier-1 suite with
`--durations=10`. Writes `BENCH_<label>.json` at the checkout's root,
with the checkout's path (peak RSS moves by about 0.6 MB with the name of
the directory); the format is `docs/schemas/bench-record.schema.json`. To
record another commit, run the copy of this script in that commit's
checkout.
"""
from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=10"]
SUMMARY = re.compile(r"(\d+) (passed|failed|errors?|skipped|xfailed|xpassed|deselected)")
DURATION = re.compile(r"^([\d.]+)s (call|setup|teardown)\s+(\S+)$")


class RecordError(RuntimeError):
    """A benchmark run failed, so there is nothing to record."""


def bench_runs(workloads: list[str], seconds: int) -> list[dict]:
    runs = []
    for trace in (0, 1):
        for workload in workloads:
            command = [
                sys.executable, "bench/run.py", "--workload", workload,
                "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace),
            ]
            print(" ".join(command[1:]), file=sys.stderr, flush=True)
            proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                raise RecordError(f"{' '.join(command[1:])} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
            run_line, result_line = proc.stdout.strip().splitlines()[-2:]
            runs.append({
                "workload": workload,
                "trace": trace,
                "run": json.loads(run_line)["run"],
                "result": json.loads(result_line),
            })
    return runs


def tier1() -> dict:
    print("tier-1 suite", file=sys.stderr, flush=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=ROOT, capture_output=True, text=True, env=env)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    counts = {kind.rstrip("s") if kind.startswith("error") else kind: int(n)
              for n, kind in SUMMARY.findall(lines[-1] if lines else "")}
    durations = [
        {"seconds": float(m[1]), "phase": m[2], "test": m[3]}
        for m in map(DURATION.match, lines) if m
    ]
    return {
        "command": ["python", *TIER1[1:]],
        "exit_code": proc.returncode,
        "summary": lines[-1] if lines else "",
        "counts": counts,
        "wall_s": wall,
        "durations": durations,
    }


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not re.fullmatch(r"[A-Za-z0-9_.-]+", argv[0]):
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    label = argv[0]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    try:
        runs = bench_runs(workloads, spec["run_seconds"])
    except RecordError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record = {
        "label": label, "checkout": str(ROOT), "seed": SEED, "seconds": spec["run_seconds"], "runs": runs,
        "tier1": tier1(),
    }
    path = ROOT / f"BENCH_{label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(path, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
