"""Count the calls that `chiptopple verify --n-max 6` makes into polybernoulli.

    python3 bench/kernel_mix.py

Prints, per function (and per method where the function takes one), the
calls made from outside polybernoulli: a count_N_pi call is one call
however many b_number calls it makes inside. The kernel workload makes as
many requests of each kind (`workloads.KERNEL_MIX`); the script exits
with 1 when that table no longer matches this count.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import probes
import tracer
import workloads

METHOD_ARG = {"poly_bernoulli_B": (2, "closed", "B"), "poly_bernoulli_C": (2, "closed", "C"),
              "count_rp_toppleable": (3, "delta", "count_rp_toppleable")}


def _label(name: str):
    if name not in METHOD_ARG:
        return None
    index, default, prefix = METHOD_ARG[name]

    def relabel(args: tuple, kwargs: dict) -> str:
        return f"{prefix}.{args[index] if len(args) > index else kwargs.get('method', default)}"

    return relabel


def count_mix() -> dict[str, int]:
    from click.testing import CliRunner

    from chiptopple import cli, polybernoulli

    counter = tracer.Tracer()
    bindings = probes._bindings(probes._modules())
    for name, fn in probes._public_functions("polybernoulli", polybernoulli):
        counter.patch_everywhere(bindings, fn, counter.wrap(name, fn, relabel=_label(name)))
    try:
        result = CliRunner().invoke(cli.cli, workloads.VERIFY_ARGS)
    finally:
        counter.remove()
    if result.exit_code != 0:
        raise RuntimeError(f"verify exited with {result.exit_code}")
    mix = {label: stat.calls for (label, parent), stat in counter.stats.items() if parent == tracer.ROOT}
    return dict(sorted(mix.items(), key=lambda item: (-item[1], item[0])))


def main() -> int:
    mix = count_mix()
    print(json.dumps(mix, indent=2))
    if mix != workloads.KERNEL_MIX:
        print("workloads.KERNEL_MIX differs from this count", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
