"""Tests of the benchmark's own helpers: inputs, oracle, tracer and probes.

    python3 -m pytest bench/tests
"""
from __future__ import annotations

import json
from collections import Counter
from itertools import count
from math import factorial
from pathlib import Path

import pytest

import probes
import workloads
from oracle import PolyBernoulli, stirling_rows
from tracer import Tracer

# The published type B and C tables for indices 0..5. The printed B(4,4)
# reads 6906, a known misprint; the formulas and brute force give 6902.
B_TABLE = [
    [1, 1, 1, 1, 1, 1],
    [1, 2, 4, 8, 16, 32],
    [1, 4, 14, 46, 146, 454],
    [1, 8, 46, 230, 1066, 4718],
    [1, 16, 146, 1066, 6902, 41506],
    [1, 32, 454, 4718, 41506, 329462],
]
C_TABLE = [
    [1, 0, 0, 0, 0, 0],
    [1, 1, 1, 1, 1, 1],
    [1, 3, 7, 15, 31, 63],
    [1, 7, 31, 115, 391, 1267],
    [1, 15, 115, 675, 3451, 16275],
    [1, 31, 391, 3451, 25231, 164731],
]


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_streams_repeat_for_the_same_seed(seed):
    assert workloads.kernel_stream(seed) == workloads.kernel_stream(seed)
    assert workloads.sweep_plan(seed) == workloads.sweep_plan(seed)
    assert len(workloads.kernel_stream(seed)) >= 1000


def test_streams_differ_between_seeds():
    assert workloads.kernel_stream(1) != workloads.kernel_stream(2)
    assert workloads.sweep_plan(1) != workloads.sweep_plan(2)


def test_oracle_matches_the_published_tables():
    oracle = PolyBernoulli(5)
    assert [[oracle.B(n, k) for k in range(6)] for n in range(6)] == B_TABLE
    assert [[oracle.C(n, k) for k in range(6)] for n in range(6)] == C_TABLE


def test_oracle_agrees_with_the_inclusion_exclusion_sum():
    oracle = PolyBernoulli(30)
    s = stirling_rows(30, 30)
    for n in range(31):
        for k in (0, 1, 7, 30):
            ie = sum((-1) ** (n - m) * factorial(m) * s[n][m] * (m + 1) ** k for m in range(n + 1))
            assert oracle.B(n, k) == ie


def test_oracle_reaches_the_edge_indices():
    assert workloads.expected_edge(("B", 1, 1500, "recurrence")) == str(2**1500)
    narrow = PolyBernoulli(1200, 3)
    assert narrow.B(3, 1200) == narrow.B(1200, 3)


def _mix_kind(request):
    kind = request[0]
    if kind in ("B", "C"):
        return f"{kind}.{request[3]}"
    if kind == "count_rp_toppleable":
        return f"{kind}.{request[4]}"
    return kind


@pytest.mark.parametrize("seed", [0, 7])
def test_kernel_stream_follows_the_verify_mix(seed):
    kinds = Counter(_mix_kind(request) for request in workloads.kernel_stream(seed))
    assert kinds == Counter(workloads.KERNEL_MIX)


@pytest.mark.parametrize("seed", [0, 7])
def test_every_recurrence_request_extends_the_cache(seed):
    top = workloads.RECURRENCE_MAX
    for kind in "BC":
        points = [(n, k) for name, n, k, *method in workloads.kernel_stream(seed)
                  if name == kind and method == ["recurrence"]]
        assert points[-1] == (top, top)
        for before, after in zip(points, points[1:]):
            assert after != before and after[0] >= before[0] and after[1] >= before[1]


def test_kernel_expectations_cover_every_request_kind():
    oracle = PolyBernoulli(workloads.KERNEL_MAX)
    stream = workloads.kernel_stream(7)
    first = {_mix_kind(request): request for request in reversed(stream)}
    assert first.keys() == workloads.KERNEL_MIX.keys()
    for request in first.values():
        assert workloads.expected_kernel(oracle, request) >= 0


def _fake_clock():
    ticks = count()
    return lambda: float(next(ticks))


def test_self_time_is_the_span_minus_what_its_children_cover():
    tracer = Tracer(clock=_fake_clock())
    leaf = tracer.wrap("leaf", lambda: None)

    def middle():
        leaf()
        leaf()

    outer = tracer.wrap("outer", tracer.wrap("middle", middle, span=True), span=True)
    outer()
    outer_span, middle_span = tracer.spans
    assert (outer_span.parent, middle_span.parent) == (None, 0)
    leaves = tracer.stats[("leaf", "middle")]
    assert leaves.calls == 2
    assert middle_span.self_s == middle_span.end - middle_span.start - leaves.total_s
    assert outer_span.self_s == outer_span.end - outer_span.start - (middle_span.end - middle_span.start)
    assert min(outer_span.self_s, middle_span.self_s, leaves.self_s) > 0
    assert tracer.by_label()["outer"].self_s == outer_span.self_s


def _count_to(n):
    yield from range(n)


def test_generators_are_timed_per_item():
    tracer = Tracer(clock=_fake_clock())
    gen = tracer.wrap("gen", _count_to)
    assert list(gen(3)) == [0, 1, 2]
    assert tracer.counts["gen.items"] == 3
    assert tracer.stats[("gen", "<bench>")].calls == 4  # three items and the final StopIteration


def test_recursion_is_not_counted_twice():
    tracer = Tracer(clock=_fake_clock())
    calls = {}

    def fact(n):
        return 1 if n == 0 else n * calls["fact"](n - 1)

    calls["fact"] = tracer.wrap("fact", fact)
    assert calls["fact"](4) == 24
    stats = tracer.by_label()["fact"]
    assert stats.calls == 1
    assert stats.total_s == tracer.stats[("fact", "<bench>")].total_s


def _library_state():
    import chiptopple

    state = {}
    for module in probes._bindings(probes._modules()):
        state.update({(module.__name__, attr): value for attr, value in vars(module).items()})
    core = probes._modules()["core"]
    state[("Configuration", "__post_init__")] = core.Configuration.__dict__["__post_init__"]
    return state, chiptopple


def test_every_wrapper_is_removed_after_a_traced_run():
    before, chiptopple = _library_state()
    tracer = Tracer()
    caches = probes.cache_state()
    probes.install(tracer)
    try:
        assert probes.installed_wrappers()
        traced = chiptopple.harness.brute_count_toppleable(4, 2, "simulate")
        table = chiptopple.harness.resultant_table(4, 2).counts
    finally:
        tracer.remove()
    assert probes.installed_wrappers() == []
    after, _ = _library_state()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert traced == chiptopple.harness.brute_count_toppleable(4, 2, "simulate")
    assert table == chiptopple.harness.resultant_table(4, 2).counts
    metrics = probes.layer_metrics(tracer, 1.0, caches)
    assert metrics["engine.stabilize_passes.calls"] > 0
    assert metrics["harness.enumerate_configurations.items"] == 60 + 12  # |S(4,2)| + |S(3,2)|


def test_stirling2_is_not_wrapped():
    _, chiptopple = _library_state()
    original = chiptopple.polybernoulli.stirling2
    tracer = Tracer()
    probes.install(tracer)
    try:
        assert chiptopple.polybernoulli.stirling2 is original
    finally:
        tracer.remove()


def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    names = [metric["name"] for metric in spec["per_layer"]]
    reported = probes.layer_metrics(Tracer(), 1.0, probes.cache_state())
    assert names == list(reported) + ["trace.overhead_ratio"]
    assert all(metric["unit"] == probes.unit_of(metric["name"]) for metric in spec["per_layer"])
