"""Which library calls the traced run wraps, and the per-layer metrics read from them.

Every public function of the eight modules is wrapped wherever a
`chiptopple` module binds it (harness, for one, imports the engine's
functions by name). Generators are timed per next(). Three private hooks
are added: the verify sections `harness._verify_*` (as spans),
`Configuration.__post_init__` (counted as validations) and the
`permutations` iterator that families draws candidates from (counted, not
timed). The recursive cached `stirling2` is left alone, because a wrapper
would double its stack depth and move where `RecursionError` hits; its
cache statistics are read instead. Methods other than
`Configuration.__post_init__` are not wrapped, so their time counts for
their caller.
"""
from __future__ import annotations

import importlib
import inspect
import itertools

from tracer import Tracer

LAYERS = ("core", "engine", "characterize", "polybernoulli", "families", "bijections", "harness", "cli")
SECTIONS = (
    "kernel", "toppleable", "rp_toppleable", "all_r", "resultants", "marked",
    "engine", "correspondences", "families", "bijections", "core",
)
CACHED = ("stirling2", "b_number", "c_number")
UNWRAPPED = {("polybernoulli", "stirling2")}


def _modules() -> dict[str, object]:
    return {name: importlib.import_module(f"chiptopple.{name}") for name in LAYERS}


def _bindings(modules: dict[str, object]) -> list[object]:
    return [importlib.import_module("chiptopple"), *modules.values()]


def _public_functions(name: str, module: object) -> list[tuple[str, object]]:
    out = []
    for attr, value in vars(module).items():
        if attr.startswith("_") or (name, attr) in UNWRAPPED:
            continue
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value) or hasattr(value, "cache_info"):
            out.append((attr, value))
    return out


def _method_label(kind: str):
    def relabel(args: tuple, kwargs: dict) -> str:
        method = args[2] if len(args) > 2 else kwargs.get("method", "closed")
        return f"polybernoulli.{kind}.{method}"

    return relabel


def cache_state() -> dict[str, tuple[int, int]]:
    pb = importlib.import_module("chiptopple.polybernoulli")
    return {name: (getattr(pb, name).cache_info().hits, getattr(pb, name).cache_info().misses) for name in CACHED}


def install(tracer: Tracer) -> None:
    modules = _modules()
    bindings = _bindings(modules)

    def add_topples(count: int) -> None:
        tracer.counts["engine.topples"] += count

    special = {
        ("polybernoulli", "poly_bernoulli_B"): {"relabel": _method_label("B")},
        ("polybernoulli", "poly_bernoulli_C"): {"relabel": _method_label("C")},
        ("engine", "stabilize_passes"): {
            "on_return": lambda result: add_topples(sum(s.topples for s in result[1].passes))
        },
        ("engine", "stabilize_random"): {"on_return": lambda result: add_topples(result[1])},
    }
    for name, module in modules.items():
        for attr, fn in _public_functions(name, module):
            options = special.get((name, attr), {})
            wrapper = tracer.wrap(f"{name}.{attr}", fn, span=name == "harness", **options)
            tracer.patch_everywhere(bindings, fn, wrapper)
    harness = modules["harness"]
    for section in SECTIONS:
        attr = f"_verify_{section}"
        if attr in vars(harness):
            tracer.patch(harness, attr, tracer.wrap(f"harness.verify.{section}", vars(harness)[attr], span=True))
    configuration = modules["core"].Configuration
    tracer.patch(
        configuration,
        "__post_init__",
        tracer.wrap("core.Configuration.validate", configuration.__dict__["__post_init__"]),
    )
    families = modules["families"]
    if vars(families).get("permutations") is itertools.permutations:
        tracer.patch(
            families, "permutations", tracer.count_items("families.enumerate_family.scanned", itertools.permutations)
        )


def installed_wrappers() -> list[str]:
    """Names in the library that still hold a wrapper (empty after `Tracer.remove`)."""
    modules = _modules()
    found = []
    for module in _bindings(modules):
        for attr, value in vars(module).items():
            if getattr(value, "__bench_wrapper__", False):
                found.append(f"{module.__name__}.{attr}")
    post_init = modules["core"].Configuration.__dict__["__post_init__"]
    if getattr(post_init, "__bench_wrapper__", False):
        found.append("chiptopple.core.Configuration.__post_init__")
    return found


def layer_metrics(tracer: Tracer, wall_s: float, caches_before: dict[str, tuple[int, int]]) -> dict[str, float]:
    """Every per-layer metric, 0 where the workload never reaches the layer."""
    stats = tracer.by_label()
    counts = tracer.counts
    out: dict[str, float] = {}

    def calls(label: str) -> int:
        return stats[label].calls if label in stats else 0

    def us_per_call(label: str) -> float:
        n = calls(label)
        return stats[label].total_s / n * 1e6 if n else 0.0

    def self_s(label: str) -> float:
        return stats[label].self_s if label in stats else 0.0

    items = counts["harness.enumerate_configurations.items"]
    out["harness.enumerate_configurations.items"] = items
    out["harness.enumerate_configurations.us_per_item"] = (
        stats["harness.enumerate_configurations"].total_s / items * 1e6 if items else 0.0
    )
    out["harness.iter_permutations.items"] = counts["harness.iter_permutations.items"]
    for section in SECTIONS:
        label = f"harness.verify.{section}"
        out[f"{label}_s"] = stats[label].total_s if label in stats else 0.0
    for name in ("brute_count_toppleable", "resultant_table", "schedule_independence"):
        out[f"harness.{name}.self_s"] = self_s(f"harness.{name}")

    for name in ("stabilize_passes", "stabilize_random", "resultant"):
        out[f"engine.{name}.calls"] = calls(f"engine.{name}")
        out[f"engine.{name}.us_per_call"] = us_per_call(f"engine.{name}")
    out["engine.topples"] = counts["engine.topples"]

    out["core.Configuration.validations"] = calls("core.Configuration.validate")
    out["core.Configuration.validate_us"] = us_per_call("core.Configuration.validate")
    out["core.reverse_complement.us_per_call"] = us_per_call("core.reverse_complement")
    out["core.lift.us_per_call"] = us_per_call("core.lift")
    out["core.records.calls"] = calls("core.records")

    for name in ("is_p_toppleable", "is_rp_toppleable", "is_all_r_toppleable"):
        out[f"characterize.{name}.us_per_call"] = us_per_call(f"characterize.{name}")

    for kind in "BC":
        for method in ("closed", "inclusion_exclusion", "recurrence"):
            label = f"polybernoulli.{kind}.{method}"
            out[f"{label}.us_per_call"] = us_per_call(label)
    after = cache_state()
    for name in CACHED:
        hits = after[name][0] - caches_before[name][0]
        misses = after[name][1] - caches_before[name][1]
        out[f"polybernoulli.{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    for name in ("count_rp_toppleable", "count_N_pi"):
        out[f"polybernoulli.{name}.us_per_call"] = us_per_call(f"polybernoulli.{name}")

    scanned = counts["families.enumerate_family.scanned"]
    yielded = counts["families.enumerate_family.items"]
    out["families.enumerate_family.scanned"] = scanned
    out["families.enumerate_family.yielded"] = yielded
    out["families.enumerate_family.yield_ratio"] = yielded / scanned if scanned else 0.0
    out["families.count_acyclic_orientations.self_s"] = self_s("families.count_acyclic_orientations")

    for name in ("callan_to_vesztergombi", "vesztergombi_to_callan", "phi", "phi_inverse"):
        out[f"bijections.{name}.us_per_call"] = us_per_call(f"bijections.{name}")

    # cli.self_s is the verify command's time outside verify_identities
    module_self = dict.fromkeys(LAYERS, 0.0)
    for label, stat in stats.items():
        module = label.split(".", 1)[0]
        if module in module_self:
            module_self[module] += stat.self_s
    for module, seconds in module_self.items():
        out[f"{module}.self_s"] = seconds
        out[f"{module}.share"] = seconds / wall_s
    return out


def unit_of(name: str) -> str:
    if name.endswith(("_ratio", ".share")):
        return "ratio"
    if name.endswith(("_s", ".self_s")):
        return "s"
    if name.endswith(("_us", ".us_per_call", ".us_per_item")):
        return "us"
    return "count"
