"""The benchmark's workloads: seeded inputs, one timed unit of work, and its checks.

A unit runs in a fresh worker process (`worker.py`) and returns its outputs
as JSON values; `check_unit` compares them with values this package
computes itself (`oracle.py`, the stored verify digest, the report schema),
outside the timed region and outside the worker.

Why these workloads:
  verify  the user's "check every identity" command. The families section
          does most of the work; engine, harness and bijections do the
          rest; the kernel almost nothing. n-max 6 is the smallest size at
          which sharing one simulation per (n,p) across sections can show.
  sweep   exhaustive toppling of S(7,p) for p = 1..4 (4 x 20 160
          configurations per call). Engine, core construction and harness
          enumeration do the work; families does none. p <= 4 covers every
          pass count min(p, n-p+1); larger p mirrors these shapes.
  kernel  a seeded stream of poly-Bernoulli requests in a cold process,
          as many of each kind as verify makes (`KERNEL_MIX`). Only here
          do the kernel's caches and index sizes matter.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import random
import time
from pathlib import Path

from oracle import PolyBernoulli

WORKLOADS = ("verify", "sweep", "kernel")

VERIFY_ARGS = ["verify", "--n-max", "6", "--jobs", "1", "--format", "json"]
REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())

SWEEP_N = 7
SWEEP_PS = (1, 2, 3, 4)
CONFIGS_PER_CALL = 20160  # |S(7,p)| = C(8,2) * 6!

KERNEL_MAX = 200  # largest index of a kernel request
RECURRENCE_MAX = 90  # the recurrence walks end at (90, 90); see `_walk`

# How many calls `chiptopple verify --n-max 6` makes into polybernoulli
# from outside the module, per function and method, as counted by
# `python3 bench/kernel_mix.py`. A kernel unit makes the same number of
# requests of each kind, at larger indices.
KERNEL_MIX = {
    "count_resultant_class": 2265,
    "count_N_pi": 1550,
    "c_number": 1511,
    "b_number": 794,
    "count_rp_toppleable.delta": 732,
    "count_rp_toppleable.c_sum": 112,
    "B.closed": 169,
    "B.inclusion_exclusion": 169,
    "B.recurrence": 169,
    "C.closed": 169,
    "C.inclusion_exclusion": 169,
    "C.recurrence": 169,
    "forward_difference": 121,
    "count_toppleable_configs": 21,
    "count_all_r_toppleable": 21,
}

# Cold command-line requests. Only indices the recursive kernel handles
# today are used: every benchmark operation must succeed, so requests that
# hit Python's recursion limit (B(1200,3), B(1,1500) by the recurrence;
# ROADMAP item 4) are not part of the workload.
EDGE_REQUESTS = (("B", 400, 3, "closed"),)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def sweep_plan(seed: int) -> list[tuple]:
    """(name, args) of every harness call in one sweep unit."""
    plan = []
    for p in SWEEP_PS:
        plan.append(("brute_count_toppleable", (SWEEP_N, p, "simulate")))
        plan.append(("brute_count_toppleable", (SWEEP_N, p, "characterize")))
        plan.append(("schedule_independence", (SWEEP_N, p, 1, seed)))
        plan.append(("resultant_table", (SWEEP_N + 1, p)))
    return plan


def _skewed(rng: random.Random, top: int) -> int:
    """0..top, small values more likely, so that some keys repeat."""
    return int((top + 1) * rng.random() ** 2)


def _walk(rng: random.Random, steps: int, top: int) -> list[tuple[int, int]]:
    """
    `steps` points, in order, of a seeded monotone lattice path from (0,0)
    to (top,top). The recurrence's cache keeps every (n',k') <= (n,k) that
    a request for (n,k) computes; each point lies outside the rectangles of
    the points before it, so every request extends that cache instead of
    hitting it, and every seed ends with the same (top+1)^2 entries.
    """
    moves = [0] * top + [1] * top
    rng.shuffle(moves)
    path, n, k = [], 0, 0
    for move in moves:
        n, k = n + 1 - move, k + move
        path.append((n, k))
    picks = sorted(rng.sample(range(len(path) - 1), steps - 1)) + [len(path) - 1]
    return [path[i] for i in picks]


def _resultant_request(rng: random.Random) -> tuple:
    n = rng.randint(3, 40)
    p = rng.randint(1, n - 1)
    cut = n - p
    prefix = rng.sample(range(1, cut + 1), cut)
    suffix = rng.sample(range(cut + 1, n + 1), p)
    perm = tuple(prefix + suffix)
    lrec = [v for i, v in enumerate(prefix) if v == max(prefix[: i + 1])]
    rrec = [v for i, v in enumerate(suffix) if v == min(suffix[i:])]
    r = rng.choice(lrec + rrec)
    return ("count_N_pi", perm, r, p)


def _request(rng: random.Random, kind: str) -> tuple:
    """One request of a `KERNEL_MIX` kind other than the recurrence, with seeded indices."""
    top = KERNEL_MAX
    if kind in ("b_number", "c_number"):
        return (kind, _skewed(rng, top), _skewed(rng, top))
    if kind[:2] in ("B.", "C."):
        return (kind[0], rng.randint(0, top), rng.randint(0, top), kind[2:])
    if kind.startswith("count_rp_toppleable."):
        n = rng.randint(1, 60)
        return ("count_rp_toppleable", n, rng.randint(1, n), rng.randint(1, n + 1), kind.split(".")[1])
    if kind in ("count_toppleable_configs", "count_all_r_toppleable"):
        n = rng.randint(1, top)
        return (kind, n, rng.randint(1, n))
    if kind == "count_resultant_class":
        return (kind, rng.randint(1, 100), rng.randint(1, 100))
    if kind == "forward_difference":
        order = rng.randint(0, 20)
        return (kind, rng.randint(0, 100), order, rng.randint(0, top - order))
    if kind == "count_N_pi":
        return _resultant_request(rng)
    raise ValueError(f"unknown request kind {kind!r}")


def kernel_stream(seed: int) -> list[tuple]:
    """
    Seeded kernel requests, `KERNEL_MIX[kind]` of each kind. The seed picks
    the indices and the order. Recurrence requests follow one `_walk` per
    type, kept in walk order at seeded places in the stream.
    """
    rng = random.Random(seed)
    rest = [
        _request(rng, kind)
        for kind, quota in KERNEL_MIX.items()
        if not kind.endswith(".recurrence")
        for _ in range(quota)
    ]
    rng.shuffle(rest)
    walks = [
        [(kind, n, k, "recurrence") for n, k in _walk(rng, KERNEL_MIX[f"{kind}.recurrence"], RECURRENCE_MAX)]
        for kind in "BC"
    ]
    recurrence = iter([request for pair in zip(*walks) for request in pair])
    total = len(rest) + 2 * len(walks[0])
    places = set(rng.sample(range(total), total - len(rest)))
    others = iter(rest)
    return [next(recurrence) if index in places else next(others) for index in range(total)]


def kernel_call(pb, request: tuple) -> int:
    kind, *args = request
    if kind in "BC":
        fn = pb.poly_bernoulli_B if kind == "B" else pb.poly_bernoulli_C
        return fn(*args)
    if kind == "forward_difference":
        k, order, at = args
        return pb.forward_difference(lambda i: pb.b_number(i, k), order, at)
    return getattr(pb, kind)(*args)


def expected_kernel(oracle: PolyBernoulli, request: tuple) -> int:
    kind, *args = request
    if kind in ("B", "b_number"):
        return oracle.B(args[0], args[1])
    if kind in ("C", "c_number"):
        return oracle.C(args[0], args[1])
    if kind == "count_rp_toppleable":
        return oracle.rp(*args[:3])
    if kind == "forward_difference":
        k, order, at = args
        return oracle.delta_B(order, at, k)
    if kind == "count_toppleable_configs":
        return oracle.toppleable(*args)
    if kind == "count_all_r_toppleable":
        return oracle.all_r(*args)
    if kind == "count_resultant_class":
        return oracle.half(*args)
    if kind == "count_N_pi":
        return oracle.n_pi(*args)
    raise ValueError(f"unknown request {kind!r}")


def edge_command(request: tuple) -> list[str]:
    kind, n, k, method = request
    return ["polybernoulli", kind, "--n", str(n), "--k", str(k), "--method", method]


# ---------------------------------------------------------------------------
# One unit of work (runs inside the worker process)
# ---------------------------------------------------------------------------

def _timed(ops: list, outputs: list, errors: list, fn, *args) -> None:
    start = time.perf_counter_ns()
    try:
        value = fn(*args)
    except Exception as exc:  # an operation that raises is counted as failed
        value = None
        errors.append(f"{type(exc).__name__}: {exc}"[:300])
    ops.append((time.perf_counter_ns() - start) / 1e6)
    outputs.append(value)


def run_unit(workload: str, seed: int, tracer=None) -> dict:
    """Run one unit; in the traced run, `tracer` times the verify command as the `cli` span."""
    from chiptopple import cli, harness, polybernoulli

    ops: list[float] = []
    outputs: list = []
    errors: list[str] = []
    if workload == "verify":
        from click.testing import CliRunner

        def invoke():
            with tracer.span("cli.verify") if tracer else contextlib.nullcontext():
                return CliRunner().invoke(cli.cli, VERIFY_ARGS)

        start = time.perf_counter()
        _timed(ops, outputs, errors, invoke)
        wall = time.perf_counter() - start
        result = outputs[0]
        if result is not None and result.exception is not None and not isinstance(result.exception, SystemExit):
            errors.append(f"{type(result.exception).__name__}: {result.exception}"[:300])
            outputs[0] = None
        elif result is not None:
            outputs[0] = {"exit_code": result.exit_code, "stdout": result.stdout}
    elif workload == "sweep":
        plan = sweep_plan(seed)
        start = time.perf_counter()
        for name, args in plan:
            _timed(ops, outputs, errors, getattr(harness, name), *args)
        wall = time.perf_counter() - start
        outputs = [None if out is None else _sweep_output(out) for out in outputs]
    elif workload == "kernel":
        stream = kernel_stream(seed)
        start = time.perf_counter()
        for request in stream:
            _timed(ops, outputs, errors, kernel_call, polybernoulli, request)
        wall = time.perf_counter() - start
        outputs = [None if out is None else str(out) for out in outputs]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"wall_s": wall, "op_ms": ops, "outputs": outputs, "errors": errors}


def work_per_unit(workload: str, outputs: list) -> int:
    """Report items checked (verify), configurations visited (sweep) or requests (kernel)."""
    if workload == "verify":
        return len(json.loads(outputs[0]["stdout"])["items"]) if outputs[0] else 1
    if workload == "sweep":
        return len(outputs) * CONFIGS_PER_CALL
    return len(outputs)


def _sweep_output(value) -> object:
    if isinstance(value, int):
        return value
    return {"n": value.n, "p": value.p, "counts": [list(row) for row in value.counts]}


# ---------------------------------------------------------------------------
# Checks (run in the parent, outside the timed region)
# ---------------------------------------------------------------------------

def digest(outputs: list) -> str:
    return hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()


@functools.cache
def expected_outputs(workload: str, seed: int) -> list:
    """What a sweep or kernel unit must return, from the oracle."""
    if workload == "sweep":
        oracle = PolyBernoulli(SWEEP_N + 1)
        expected: list = []
        for name, args in sweep_plan(seed):
            n, p = args[0], args[1]
            if name == "brute_count_toppleable":
                expected.append(oracle.toppleable(n, p))
            elif name == "schedule_independence":
                expected.append(CONFIGS_PER_CALL * args[2])
            else:
                rows = [[oracle.half(i, j) for j in range(1, p + 1)] for i in range(1, n - p + 1)]
                expected.append({"n": n, "p": p, "counts": rows})
        return expected
    oracle = PolyBernoulli(KERNEL_MAX)
    return [str(expected_kernel(oracle, request)) for request in kernel_stream(seed)]


def check_unit(workload: str, seed: int, outputs: list, schema: dict) -> tuple[int, int, list[str]]:
    """
    (attempted, failed, problems). An operation fails when it raised or
    returned a wrong value; on verify each report item is an operation, and
    a mismatch item, a stdout that differs from the reference or fails the
    schema, or a nonzero exit fails the command. `problems` lists the wrong
    values; an exception is a failure but not a wrong value.
    """
    problems: list[str] = []
    if workload == "verify":
        return _check_verify(outputs[0], schema, problems) + (problems,)
    expected = expected_outputs(workload, seed)
    failed = 0
    for index, (got, want) in enumerate(zip(outputs, expected)):
        if got != want:
            failed += 1
            if got is not None:
                problems.append(f"{workload} op {index}: wrong value")
    return len(expected), failed, problems


def _check_verify(output: dict | None, schema: dict, problems: list[str]) -> tuple[int, int]:
    import jsonschema

    if output is None:
        return 1, 1
    stdout = output["stdout"]
    try:
        report = json.loads(stdout)
        jsonschema.validate(report, schema)
    except (ValueError, jsonschema.ValidationError) as exc:
        problems.append(f"verify stdout is not a valid report: {str(exc)[:200]}")
        return 1, 1
    items = report["items"]
    failed = sum(1 for item in items if item["status"] == "mismatch")
    if hashlib.sha256(stdout.encode()).hexdigest() != REFERENCE["verify_stdout_sha256"]:
        problems.append("verify stdout differs from the reference")
        failed += 1
    if output["exit_code"] != 0:
        problems.append(f"verify exited with {output['exit_code']}")
        failed += 1
    return len(items), min(failed, len(items))


def expected_edge(request: tuple) -> str:
    _, n, k, _ = request
    return str(PolyBernoulli(max(n, k), min(n, k)).B(n, k))
