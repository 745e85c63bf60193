"""Run one unit of a workload in this fresh process and print the result as one JSON line.

    python3 bench/worker.py <workload> <seed> [--trace]

With --trace the library is wrapped by `probes.install` for the unit and
unwrapped afterwards; the line then also carries the per-layer metrics and
the recorded spans.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import chiptopple

    if Path(chiptopple.__file__).resolve().parent != src / "chiptopple":
        print(f"chiptopple was imported from {chiptopple.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    tracer = None
    if args.trace:
        import probes
        from tracer import Tracer

        tracer = Tracer()
        caches_before = probes.cache_state()
        probes.install(tracer)
    try:
        unit = workloads.run_unit(args.workload, args.seed, tracer)
    finally:
        if tracer is not None:
            tracer.remove()
    unit["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        unit["layers"] = probes.layer_metrics(tracer, unit["wall_s"], caches_before)
        unit["spans"] = [dataclasses.astuple(span) for span in tracer.spans]
        unit["wrappers_left"] = probes.installed_wrappers()
    print(json.dumps(unit))
    return 0


if __name__ == "__main__":
    sys.exit(main())
