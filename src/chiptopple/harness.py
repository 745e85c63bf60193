"""Exhaustive enumeration, brute-force counters, table builders, and the
identity-verification report.

Enumeration is chunkable: permutations and configurations are indexed
lexicographically, workers handle disjoint rank ranges, and partial
results (counts or tallies) merge by addition, so results do not depend on
the worker count; ``multiprocessing`` is imported only where a pool of two
or more workers starts. The configuration counters, ``resultant_table``
and the verify sweep walk chip words: they topple them through
``engine.resultants`` and test the window on the word, so they build a
``Configuration`` only for a library function that takes one. The
verification report replays every counting identity of the library by
independent brute force and flags the few places where the published
tables disagree with their own formulas as documented discrepancies
instead of failures. What all of S(n,p) shares, the pass structure and the
empty site of its one network, it reads once per (n,p) from that network.
One sweep per run topples each configuration once and serves what varies
by configuration: the resultants, the random schedules, the lift and
mirror round trips and, through the two (permutation, r) readings of each
configuration, the (r,p) counts, the every-r verdicts, the marked fibers
and the windowed readings. The sweep and the all-r counts share one pool
per run. Only the fixed-size claims (the S_6 marked tables and fiber-class
array, the S(3,2) listing and the phi loop) topple on their own. The
permutation sets are built once per run too: one bit-sliced families scan
per size, and each decomposable set by construction.
"""
from __future__ import annotations

import dataclasses
import json
import os
from collections import Counter
from functools import cache, partial, reduce
from itertools import chain, combinations, compress, islice, permutations, product, repeat, tee
from math import comb, factorial
from operator import add, eq, itemgetter
from typing import Callable, Hashable, Iterator, Mapping

from . import bijections, characterize, engine, families, polybernoulli
from .core import (
    Configuration,
    Perm,
    format_configuration,
    identity,
    inverse,
    left_record_values,
    lift,
    map_w,
    marked_split,
    record_class,
    records,
    reverse_complement,
    reverse_complement_perm,
    unlift,
)
from .engine import resultant, resultants
from .families import CallanWord, CapExceeded

PERM_CAP = 8  # enumerate at most 8! permutations by default
CONFIG_CAP = 7  # enumerate configurations up to n = 7 by default
ENGINE_N = 6  # verify checks the pass structure, the (r,p) counts and the every-r verdicts up to n = 6
READING_N = 5  # and the marked fibers and windowed readings up to n = 5
ROUND_TRIP_SIZE = 7  # and the Callan/Vesztergombi round trips on sizes 2..7

Sweep = dict[tuple[int, int], Counter]  # (n, p) -> tally of S(n,p), see _sweep_chunk
Facts = dict[tuple[int, int], dict[str, int]]  # (n, p) -> _pass_facts(n, p)
Members = dict[tuple[str, int, int], list[Perm]]  # family key -> members read off its lanes, see _scan_families


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def iter_permutations(n: int, lo: int = 0, hi: int | None = None) -> Iterator[Perm]:
    """Permutations of 1..n with lexicographic ranks in [lo, hi)."""
    yield from islice(permutations(range(1, n + 1)), lo, hi)


def configuration_count(n: int) -> int:
    return factorial(n + 1) // 2


def _chip_words(n: int, p: int, lo: int = 0, hi: int | None = None) -> Iterator[tuple[int, ...]]:
    """The chip words (``Configuration.chips``) of ``enumerate_configurations(n, p, lo, hi)``."""
    if n > CONFIG_CAP:
        raise CapExceeded(f"n = {n} exceeds the configuration cap {CONFIG_CAP}")
    if not 1 <= p <= n:
        raise ValueError(f"p outside 1..{n}")
    if lo < 0 or (hi is not None and hi < 0):
        raise ValueError("rank bounds must be non-negative")
    chips = tuple(range(1, n + 2))
    per_pair = factorial(n - 1)
    total = comb(n + 1, 2) * per_pair
    hi = total if hi is None else min(hi, total)
    if lo >= hi:
        return
    pairs = list(combinations(chips, 2))
    # arrangement + pair, read with the pair moved to indices p-1 and p
    place = itemgetter(*range(p - 1), n - 1, n, *range(p - 1, n - 1))
    for pair_index in range(lo // per_pair, (hi + per_pair - 1) // per_pair):
        pair = pairs[pair_index]
        singles = tuple(c for c in chips if c not in pair)
        base = pair_index * per_pair
        arrangements = islice(permutations(singles), max(lo - base, 0), min(hi - base, per_pair))
        yield from map(place, map(add, arrangements, repeat(pair)))


def enumerate_configurations(
    n: int, p: int, lo: int = 0, hi: int | None = None
) -> Iterator[Configuration]:
    """
    Stream the configurations of n+1 chips with the pair at site p, each
    exactly once: (n+1 choose 2) pair choices times (n-1)! arrangements,
    ordered by (pair, arrangement) rank. ``lo``/``hi`` select a rank range;
    a negative bound raises ``ValueError``.
    """
    yield from map(partial(Configuration._trusted, n, p), _chip_words(n, p, lo, hi))


# ---------------------------------------------------------------------------
# Brute-force counters (worker functions are module level so that the
# process pool can pickle them)
# ---------------------------------------------------------------------------

def _count_chunk(args: tuple[Callable, Callable, tuple, int, int]) -> int:
    """Count the items of ``enumerator(*sizes, lo, hi)`` that ``test`` accepts."""
    enumerator, test, sizes, lo, hi = args
    return sum(map(test, enumerator(*sizes, lo, hi)))


def _window_chunk(args: tuple[int, int, int, int]) -> int:
    """Count the chip words of S(n,p) with ranks in [lo, hi) inside their windows, the test built once per chunk."""
    n, p, lo, hi = args
    return sum(map(characterize._window(n, p), _chip_words(n, p, lo, hi)))


def _resultant_perms(n: int, p: int, lo: int, hi: int | None) -> Iterator[Perm]:
    """The resultant permutations of the configurations of S(n,p) with ranks in [lo, hi), in order."""
    return map(itemgetter(0), resultants(n, p, _chip_words(n, p, lo, hi)))


def _pass_facts(n: int, p: int) -> dict[str, int]:
    """
    The facts of the network that all of S(n,p) shares, by name: the pass
    count, the first pass's topplings beyond n, whether the arms are frozen
    (each pass's arm registers are a prefix and a suffix of the final read
    order, hole included, that no later pass touches) and the empty site.
    """
    passes = engine._program(n, p).passes
    order = passes[-1].left_arm + (0,) + passes[-1].right_arm  # register 0: the hole
    touched: set[int] = set()
    frozen = True
    for step in reversed(passes):
        left, right = step.left_arm, step.right_arm
        frozen &= left == order[: len(left)] and right == order[len(order) - len(right) :]
        frozen &= touched.isdisjoint(left + right)
        touched.update(chain.from_iterable(step.comparators))
    first = len(passes[0].comparators) - n
    return {"passes": len(passes), "first pass": first, "arms frozen": frozen, "empty site": order.index(0)}


def _sweep_chunk(args: tuple[int, int, int, int, int]) -> Counter:
    """
    Topple the chip words of S(n,p) with ranks in [lo, hi) once each and
    tally the facts that vary by configuration: tally[fact, value] counts
    the configurations on which fact took value. The facts are the
    resultant and the window verdict; for n <= ENGINE_N also whether the
    mirrored word, toppled in S(n, n+1-p), gives the mirrored resultant.
    A configuration is also read twice, as the two ``unlift`` readings
    (q, r), r either chip of the pair, so S(n,p) holds every (q, r) once:
    for n <= ENGINE_N, "rp toppleable" r counts the readings toppling to
    the identity, T(n,p,r), and "toppleable readings" q counts the r for
    which q does; for n <= READING_N, (("marked", r), resultant) counts
    the fiber that ``resultant_counts_marked(n + 1, p, r)`` gives, and
    "reading window" is whether the window verdict agrees with the
    Vesztergombi window of ``map_w(config, r)``, read after site p. For
    n <= READING_N it also tallies "schedules agree" (the random schedules
    of seeds 0..seeds-1, each built once per chunk as a network by
    ``engine._seeded``, all reach the pass network's pair), "lift inverts
    unlift" (for both readings) and "mirror involution"
    (``reverse_complement`` goes to S(n, n+1-p) and back). Only these
    library calls get a ``Configuration``, unvalidated, for n <= READING_N;
    above it the mirror and the readings are read off the word. The window
    test is built once per chunk (``characterize._window``).
    """
    n, p, seeds, lo, hi = args
    tally: Counter = Counter()
    words, fed = tee(_chip_words(n, p, lo, hi))
    in_window = characterize._window(n, p)
    mirror_run = engine._program(n, n + 1 - p).run if n <= ENGINE_N else None
    seeded = [engine._seeded(n, p, seed) for seed in range(seeds)] if n <= READING_N else []
    for chips, (perm, empty_site) in zip(words, resultants(n, p, fed)):
        window = in_window(chips)
        tally["resultant", perm] += 1
        tally["window", window] += 1
        if n > ENGINE_N:
            continue
        if n > READING_N:
            # the mirror and the readings on the word, as reverse_complement and unlift build them
            mirror_chips = tuple([n + 2 - c for c in reversed(chips)])
            read = chips[p - 1 : p + 1] if window else ()
            readings = [(tuple([c if c < r else c - 1 for c in chips if c != r]), r) for r in read]
        else:
            config = Configuration._trusted(n, p, chips)
            mirror = reverse_complement(config)
            mirror_chips = mirror.chips
            readings = unlift(config)
        mirrored, _ = mirror_run(mirror_chips)
        tally["mirror commutes", mirrored == reverse_complement_perm(perm)] += 1
        for q, r in readings:
            if window:
                tally["rp toppleable", r] += 1
                tally["toppleable readings", q] += 1
            if n <= READING_N:
                tally[("marked", r), perm] += 1
                star = map_w(config, r)
                windowed = families.is_vesztergombi(star, p, n - p + 1) and star[p] == r
                tally["reading window", window == windowed] += 1
        if n > READING_N:
            continue
        scheduled = all(run(chips) == (perm, empty_site) for run in seeded)
        lifted = len(readings) == 2 and all(lift(q, r, p) == config for q, r in readings)
        tally["schedules agree", scheduled] += 1
        tally["lift inverts unlift", lifted] += 1
        tally["mirror involution", mirror.p == n + 1 - p and reverse_complement(mirror) == config] += 1
    return tally


def _observed(tally: Counter, fact: Hashable) -> dict:
    """The values that fact took in a sweep tally, with their counts."""
    return {value: count for (name, value), count in tally.items() if name == fact}


def _decomposable(m: int, p: int) -> list[Perm]:
    """
    The permutations of 1..m whose first m-p entries are a permutation of
    1..m-p, the resultants at doubled site p, by construction: every
    arrangement of 1..m-p followed by every arrangement of m-p+1..m.
    """
    halves = permutations(range(1, m - p + 1)), permutations(range(m - p + 1, m + 1))
    return [head + tail for head, tail in product(*halves)]


def _scan_families() -> tuple[dict[int, Counter], Members]:
    """
    One bit-sliced ``families.family_lanes`` scan per size 2..8. Returns,
    by size, the count of every family key, including the Callan words by
    first letter, keyed ("callan_first", underlined, overlined, first);
    and, for sizes up to ROUND_TRIP_SIZE, the Callan and Vesztergombi
    members by key, in lexicographic order.
    """
    counts: dict[int, Counter] = {}
    members: Members = {}
    for size in range(2, 9):
        lanes = families.family_lanes(size)
        counts[size] = Counter({key: mask.bit_count() for key, mask in lanes.items()})
        if size <= ROUND_TRIP_SIZE:
            perms = list(permutations(range(1, size + 1)))  # lane m is perms[m]
            for key, mask in lanes.items():
                if key[0] in ("callan", "vesztergombi"):
                    members[key] = list(compress(perms, map(int, reversed(f"{mask:b}"))))
    return counts, members


def _always(sweep: Sweep, fact: str) -> bool:
    """Did a yes/no fact hold on every configuration that tallies it?"""
    return not any(tally[fact, False] for tally in sweep.values())


def _chunked(total: int, pieces: int) -> list[tuple[int, int]]:
    size = max(1, -(-total // pieces))
    return [(lo, min(lo + size, total)) for lo in range(0, total, size)]


def _pool_size(jobs: int, items: int) -> int:
    """Workers to start: no more than asked for, than CPUs, or than items of work."""
    return min(jobs, os.cpu_count() or 1, items)


def _parallel_sum(items: list[tuple[Callable, tuple, int]], jobs: int) -> list:
    """
    For each item ``(worker, prefix, total)``, run ``worker`` on ``prefix +
    (lo, hi)`` over the ranks 0..total and add up the results (ints or
    Counters). All items share one pool of ``_pool_size(jobs, sum of
    totals)`` workers, four chunks per worker each; with one worker each
    item is one call in process. Returns the sums in item order.
    """
    workers = _pool_size(jobs, sum(total for _, _, total in items))
    if workers <= 1:
        return [worker(prefix + (0, total)) for worker, prefix, total in items]
    # imported here: the pool loads multiprocessing, about 15 ms and 2 MB
    # that a process which never starts a pool need not pay
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = [
            [pool.submit(worker, prefix + span) for span in _chunked(total, 4 * workers)]
            for worker, prefix, total in items
        ]
        return [reduce(add, (part.result() for part in item)) for item in parts]


def brute_count_toppleable(n: int, p: int, oracle: str = "simulate", jobs: int = 1) -> int:
    """Count configurations toppling to the sorted state, by enumeration."""
    # the window test is generated in the worker: a function made by exec does not pickle
    workers = {
        "simulate": (_count_chunk, (_resultant_perms, partial(eq, identity(n + 1)), (n, p))),
        "characterize": (_window_chunk, (n, p)),
    }
    if oracle not in workers:
        raise ValueError(f"unknown oracle {oracle!r}")
    next(_chip_words(n, p, 0, 0), None)  # bad sizes raise here, before any pool starts
    return _parallel_sum([(*workers[oracle], configuration_count(n))], jobs)[0]


def _permutation_item(n: int, test: Callable[[Perm], bool]) -> tuple[Callable, tuple, int]:
    """The ``_parallel_sum`` item counting the permutations of 1..n that ``test`` accepts."""
    if n < 0:
        raise ValueError("n must be at least 0")
    if n > PERM_CAP:
        raise CapExceeded(f"n = {n} exceeds the permutation cap {PERM_CAP}")
    test(tuple(range(1, n + 1)))  # a bad site or chip raises here, before any pool starts
    return _count_chunk, (iter_permutations, test, (n,)), factorial(n)


def _all_r_item(n: int, p: int) -> tuple[Callable, tuple, int]:
    return _permutation_item(n, partial(characterize.is_all_r_toppleable, p=p))


def brute_T(n: int, p: int, r: int, jobs: int = 1) -> int:
    """Count permutations of 1..n that topple to the identity with chip r at p."""
    return _parallel_sum([_permutation_item(n, partial(characterize.is_rp_toppleable, r=r, p=p))], jobs)[0]


def brute_all_r_toppleable(n: int, p: int, jobs: int = 1) -> int:
    """Count permutations toppleable for every choice of the extra chip."""
    return _parallel_sum([_all_r_item(n, p)], jobs)[0]


# ---------------------------------------------------------------------------
# Resultant tables
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class ClassArray:
    """
    Fiber sizes of the toppling map on S(n-1, p), classified by the record
    counts of the resultant: counts[i-1][j-1] is the number of
    configurations toppling to any one resultant with i left records in
    the prefix and j right records in the suffix.
    """

    n: int
    p: int
    counts: tuple[tuple[int, ...], ...]


def fiber_classes(fibers: Mapping[Perm, int], key: Callable[[Perm], Hashable]) -> dict:
    """
    The one fiber size of each class of resultants under ``key``. Raises
    when two resultants of a class have different fiber sizes, which would
    mean the dynamics is broken.
    """
    sizes: dict = {}
    for perm, size in fibers.items():
        cls = key(perm)
        if sizes.setdefault(cls, size) != size:
            raise AssertionError(f"class {cls} has unequal fibers {sizes[cls]} and {size}")
    return sizes


def resultant_table(n: int, p: int) -> ClassArray:
    """
    Topple every configuration in S(n-1, p) and classify the resultants
    (in S_n) by record counts. Raises if two resultants in the same class
    have different fiber sizes.
    """
    if not 1 <= p <= n - 1:
        raise ValueError(f"p outside 1..{n - 1}")
    fibers = Counter(_resultant_perms(n - 1, p, 0, None))
    sizes = fiber_classes(fibers, lambda perm: record_class(perm, p))
    counts = tuple(tuple(sizes[i, j] for j in range(1, p + 1)) for i in range(1, n - p + 1))
    return ClassArray(n=n, p=p, counts=counts)


def group_by_resultant(n: int, p: int) -> dict[Perm, list[Configuration]]:
    """
    The configurations of S(n,p) grouped by resultant, in enumeration
    order, toppling each once. Holds every configuration in memory, so it
    is meant for small n.
    """
    fibers: dict[Perm, list[Configuration]] = {}
    for config in enumerate_configurations(n, p):
        fibers.setdefault(resultant(config)[0], []).append(config)
    return fibers


def resultant_counts_marked(n: int, p: int, r: int) -> dict[Perm, int]:
    """
    Fiber sizes of the toppling map restricted to a fixed added chip:
    every permutation of 1..n-1 is lifted with chip r at site p and
    toppled; the result maps each reachable resultant in S_n to the
    number of permutations toppling to it. Values sum to (n-1)!.
    """
    if not 1 <= p <= n - 1 or not 1 <= r <= n:
        raise ValueError(f"(p, r) = ({p}, {r}) out of range for resultants in S_{n}")
    if n - 1 > PERM_CAP:
        raise CapExceeded(f"n - 1 = {n - 1} exceeds the permutation cap {PERM_CAP}")
    out: Counter[Perm] = Counter()
    for perm in iter_permutations(n - 1):
        image, _ = resultant(lift(perm, r, p))
        out[image] += 1
    return dict(out)


def marked_class_table(
    n: int, p: int, r: int
) -> tuple[dict[tuple[int, int, int], int], dict[Perm, int]]:
    """
    Group ``resultant_counts_marked`` by the (a, b, k) class of
    ``marked_split``. Raises when members of one class disagree.
    """
    fibers = resultant_counts_marked(n, p, r)
    return fiber_classes(fibers, lambda perm: marked_split(perm, p, r)), fibers


# ---------------------------------------------------------------------------
# Schedule independence
# ---------------------------------------------------------------------------

def schedule_independence(n: int, p: int, seeds: int, base_seed: int = 0) -> int:
    """
    Stabilize every configuration of S(n,p) under ``seeds`` random
    schedules and compare with the pass stabilizer. Returns the number of
    runs; raises on the first disagreement. A seed's schedule is one
    comparator network of S(n,p), built once and run on every chip word.
    """
    next(_chip_words(n, p, 0, 0), None)  # bad sizes raise here, before any network is built
    runs = 0
    for seed in range(base_seed, base_seed + seeds):
        run = engine._seeded(n, p, seed)
        words, fed = tee(_chip_words(n, p))
        for chips, reference in zip(words, resultants(n, p, fed)):
            if run(chips) != reference:
                config = Configuration._trusted(n, p, chips)
                raise AssertionError(f"seed {seed} disagrees on {format_configuration(config)}")
            runs += 1
    return runs


# ---------------------------------------------------------------------------
# Verification report
# ---------------------------------------------------------------------------

MATCH = "match"
MISMATCH = "mismatch"
DOCUMENTED = "documented-discrepancy"

# Printed table values that contradict the formulas they sit next to; the
# verify report calls these out instead of failing on them.
PRINTED_B44 = 6906  # every formula and the exhaustive count give 6902
PRINTED_TABLE2_ROWS = {4: (16, 73, 115, 73, 16), 5: (32, 227, 533, 533, 227, 32)}


@dataclasses.dataclass(frozen=True)
class VerifyItem:
    claim: str
    params: str
    expected: str
    actual: str
    status: str


@dataclasses.dataclass
class VerifyReport:
    n_max: int
    items: list[VerifyItem] = dataclasses.field(default_factory=list)

    def add(self, claim: str, params: object, expected: object, actual: object) -> None:
        status = MATCH if expected == actual else MISMATCH
        self.items.append(VerifyItem(claim, str(params), str(expected), str(actual), status))

    def note(self, claim: str, params: object, expected: object, actual: object) -> None:
        self.items.append(VerifyItem(claim, str(params), str(expected), str(actual), DOCUMENTED))

    @property
    def ok(self) -> bool:
        return all(item.status != MISMATCH for item in self.items)

    def summary(self) -> dict[str, int]:
        counts = Counter(item.status for item in self.items)
        return {status: counts.get(status, 0) for status in (MATCH, MISMATCH, DOCUMENTED)}

    def to_json(self) -> str:
        return json.dumps(
            {
                "n_max": self.n_max,
                "ok": self.ok,
                "summary": self.summary(),
                "items": [dataclasses.asdict(item) for item in self.items],
            },
            indent=2,
        )

    def format_text(self) -> str:
        lines = []
        for item in self.items:
            flag = {MATCH: "ok", MISMATCH: "FAIL", DOCUMENTED: "note"}[item.status]
            lines.append(f"[{flag:4}] {item.claim} {item.params}: expected {item.expected}, got {item.actual}")
        s = self.summary()
        lines.append(f"{s[MATCH]} matched, {s[MISMATCH]} mismatched, {s[DOCUMENTED]} documented")
        return "\n".join(lines)


def _clipped(n_max: int, bound: int) -> tuple[range, str]:
    """The sizes 1..min(n_max, bound) of a claim checked up to bound, and its label."""
    return range(1, min(n_max, bound) + 1), f"n<=min({n_max},{bound})"


def _verify_kernel(report: VerifyReport) -> None:
    b, c = polybernoulli.b_number, polybernoulli.c_number
    b_table = [
        [1, 1, 1, 1, 1, 1],
        [1, 2, 4, 8, 16, 32],
        [1, 4, 14, 46, 146, 454],
        [1, 8, 46, 230, 1066, 4718],
        [1, 16, 146, 1066, 6902, 41506],
        [1, 32, 454, 4718, 41506, 329462],
    ]
    c_table = [
        [1, 0, 0, 0, 0, 0],
        [1, 1, 1, 1, 1, 1],
        [1, 3, 7, 15, 31, 63],
        [1, 7, 31, 115, 391, 1267],
        [1, 15, 115, 675, 3451, 16275],
        [1, 31, 391, 3451, 25231, 164731],
    ]
    report.add("type B table 0..5", "", b_table, [[b(n, k) for k in range(6)] for n in range(6)])
    report.add("type C table 0..5", "", c_table, [[c(n, k) for k in range(6)] for n in range(6)])
    report.note("printed B(4,4) vs every formula and the brute Vesztergombi count", "", PRINTED_B44, b(4, 4))
    agree = all(
        len({polybernoulli.poly_bernoulli_B(n, k, method) for method in polybernoulli.METHODS}) == 1
        and len({polybernoulli.poly_bernoulli_C(n, k, method) for method in polybernoulli.METHODS}) == 1
        for n in range(13)
        for k in range(13)
    )
    report.add("three-method agreement 0..12", "", True, agree)
    report.add(
        "B symmetry B(n,k)=B(k,n)", "0..12", True, all(b(n, k) == b(k, n) for n in range(13) for k in range(13))
    )
    report.add(
        "C symmetry C(n+1,k)=C(k+1,n)",
        "0..12",
        True,
        all(c(n + 1, k) == c(k + 1, n) for n in range(12) for k in range(12)),
    )
    report.add(
        "B(n,k) = sum_i binom(k,i) C(n,i)",
        "0..10",
        True,
        all(b(n, k) == sum(comb(k, i) * c(n, i) for i in range(k + 1)) for n in range(11) for k in range(11)),
    )
    report.add(
        "B(n,k) = C(n,k) + C(n+1,k-1)",
        "k>=1, 0..10",
        True,
        all(b(n, k) == c(n, k) + c(n + 1, k - 1) for n in range(11) for k in range(1, 11)),
    )
    # the alternating inverse relation holds with the C indices transposed
    report.add(
        "alternating transform of B columns gives transposed C",
        "Delta^n B(0,k) = C(k,n), 0..10",
        True,
        all(
            polybernoulli.forward_difference(lambda i, k=k: b(i, k), n, 0) == c(k, n)
            for n in range(11)
            for k in range(11)
        ),
    )
    report.note(
        "printed inverse relation C(n,k) = (-1)^n sum_i (-1)^i binom(n,i) B(i,k)",
        "(n,k)=(2,3)",
        c(2, 3),
        sum((-1) ** i * comb(2, i) * b(i, 3) for i in range(3)),
    )
    report.add(
        "parity: B(n,k) even for n,k >= 1",
        "1..10",
        True,
        all(b(n, k) % 2 == 0 for n in range(1, 11) for k in range(1, 11)),
    )
    report.add("B(n,1) = 2^n", "0..12", True, all(b(n, 1) == 2**n for n in range(13)))


def _verify_toppleable(report: VerifyReport, sweep: Sweep) -> None:
    formula = {(n, p): polybernoulli.count_toppleable_configs(n, p) for n, p in sweep}
    for (n, p), tally in sweep.items():
        simulated = tally["resultant", identity(n + 1)]
        report.add("toppleable configurations", f"n={n} p={p}", formula[n, p], simulated)
        report.add("window oracle agrees with simulation", f"n={n} p={p}", simulated, tally["window", True])
    for label, printed in PRINTED_TABLE2_ROWS.items():
        n = label + 1
        if (n, 1) in formula:
            report.note(
                "printed toppleable-count row label off by one",
                f"printed row n={label} equals computed n={n}",
                printed,
                tuple(formula[n, p] for p in range(1, n + 1)),
            )


T_TABLE_N5 = (
    (16, 8, 4, 2, 1, 1),
    (46, 32, 22, 15, 15, 16),
    (46, 38, 31, 31, 38, 46),
    (16, 15, 15, 22, 32, 46),
    (1, 1, 2, 4, 8, 16),
)
T_TABLE_N4 = (
    (8, 4, 2, 1, 1),
    (14, 10, 7, 7, 8),
    (8, 7, 7, 10, 14),
    (1, 1, 2, 4, 8),
)


def _verify_rp_toppleable(report: VerifyReport, n_max: int, sweep: Sweep) -> None:
    count = polybernoulli.count_rp_toppleable
    cells = {n: [(p, r) for p in range(1, n + 1) for r in range(1, n + 2)] for n in range(1, n_max + 1)}
    swept = range(1, min(n_max, ENGINE_N) + 1)
    delta = {(n, p, r): count(n, p, r, "delta") for n in swept for p, r in cells[n]}
    for n, table in ((4, T_TABLE_N4), (5, T_TABLE_N5)):
        built = tuple(tuple(count(n, p, r) for r in range(1, n + 2)) for p in range(1, n + 1))
        report.add("printed (r,p)-toppleable table", f"n={n}", table, built)
    for n in swept:
        brute = all(delta[n, p, r] == sweep[n, p]["rp toppleable", r] for p, r in cells[n])
        c_sum = all(delta[n, p, r] == count(n, p, r, "c_sum") for p, r in cells[n])
        report.add("difference formula vs brute force", f"n={n}, all (p,r)", True, brute)
        report.add("difference formula vs C-number sums", f"n={n}, all (p,r)", True, c_sum)
    for n in range(2, n_max + 1):
        low = all(
            sum(count(n, p, r) for r in range(1, n - p + 2)) == polybernoulli.c_number(n - p + 1, p)
            for p in range(1, n + 1)
        )
        high = all(
            sum(count(n, p, r) for r in range(n - p + 2, n + 2)) == polybernoulli.c_number(p, n - p + 1)
            for p in range(1, n + 1)
        )
        report.add("low-r sum is C(n-p+1,p)", f"n={n}", True, low)
        report.add("high-r sum is C(p,n-p+1) (upper limit n+1)", f"n={n}", True, high)
    values = {(n, p, r): count(n, p, r) for n in range(2, n_max + 1) for p, r in cells[n]}
    recursion = all(
        value
        == (
            sum(count(n - 1, p, i) for i in range(r, n + 1))
            if r <= n - p + 1
            else sum(count(n - 1, p - 1, i) for i in range(1, r))
        )
        for (n, p, r), value in values.items()
        if (p <= n - 1 if r <= n - p + 1 else p >= 2)  # it says nothing at (p,r) = (n,1) and (1,n+1)
    )
    report.add("deletion recursion for the counts", f"n<={n_max}", True, recursion)


def _verify_all_r(report: VerifyReport, all_r: dict[tuple[int, int], int]) -> None:
    for n in dict.fromkeys(n for n, _ in all_r):
        agree = all(count == polybernoulli.count_all_r_toppleable(m, p) for (m, p), count in all_r.items() if m == n)
        report.add("all-r toppleable count is C(p,n-p)", f"n={n}", True, agree)


S32_FIBERS = {
    "1234": ("1,(2,3),4", "1,(2,4),3", "1,(3,4),2", "2,(1,3),4", "2,(1,4),3", "3,(1,2),4", "3,(1,4),2"),
    "1243": ("4,(1,2),3", "4,(1,3),2"),
    "2134": ("2,(3,4),1", "3,(2,4),1"),
    "2143": ("4,(2,3),1",),
}


def _verify_resultants(
    report: VerifyReport, n_max: int, sweep: Sweep, facts: Facts, decomposable: Callable[..., list[Perm]]
) -> None:
    # the resultants of S(n,p) for p < n, by n
    fibers = {
        n: [(p, _observed(sweep[n, p], "resultant")) for p in range(1, n)]
        for n in range(2, min(n_max, CONFIG_CAP) + 1)
    }
    for n, split in fibers.items():
        empty = all(facts[n, p]["empty site"] == n - p + 1 for p, _ in split)
        support = all(set(fiber) == set(decomposable(n + 1, p)) for p, fiber in split)
        classes = all(
            size == polybernoulli.count_resultant_class(*record_class(perm, p))
            for p, fiber in split
            for perm, size in fiber.items()
        )
        summed = all(sum(fiber.values()) == configuration_count(n) for _, fiber in split)
        report.add("empty site lands on n-p+1", f"n={n}", True, empty)
        report.add("resultant support equals decomposable-prefix set", f"n={n}", True, support)
        report.add("fiber sizes are B(i,j)/2", f"n={n}", True, classes)
        report.add("fibers sum to (n+1)!/2", f"n={n}", True, summed)
    table = resultant_table(6, 2)
    report.add(
        "fiber-class array for resultants in S_6 at p=2",
        "",
        ((1, 2), (2, 7), (4, 23), (8, 73)),
        table.counts,
    )
    grouped = group_by_resultant(3, 2)
    listed_ok = all(
        sorted(map(format_configuration, grouped.get(tuple(map(int, text)), ()))) == sorted(configs)
        for text, configs in S32_FIBERS.items()
    )
    report.add("exact fibers over S(3,2)", "", True, listed_ok)


N6_P2_R2_TABLE = {(0, 1, 1): 2, (0, 1, 2): 4, (0, 2, 1): 4, (0, 2, 2): 14,
                  (1, 1, 1): 2, (1, 1, 2): 10, (1, 2, 1): 4, (1, 2, 2): 32}
N6_P3_TABLE = ((1, 1, 1), (1, 3, 7), (1, 7, 31))


def _verify_marked(report: VerifyReport, n_max: int, sweep: Sweep, decomposable: Callable[..., list[Perm]]) -> None:
    grouped, _ = marked_class_table(6, 2, 2)
    report.add("marked fiber table for resultants in S_6, p=r=2", "", N6_P2_R2_TABLE, grouped)
    for r in (3, 4):
        sizes = fiber_classes(resultant_counts_marked(6, 3, r), lambda perm: record_class(perm, 3))
        built = tuple(tuple(sizes[i, j] for j in (1, 2, 3)) for i in (1, 2, 3))
        report.add("marked fiber table for resultants in S_6, p=3", f"r={r}", N6_P3_TABLE, built)
    # resultants in S_n of the readings of S(n-1,p), by n
    fibers = {
        n: [(p, r, _observed(sweep[n - 1, p], ("marked", r))) for p in range(1, n) for r in range(1, n + 1)]
        for n in range(2, min(n_max, READING_N + 1) + 1)
    }
    for n, marked in fibers.items():
        keyed = all(
            set(fiber) == {perm for perm in decomposable(n, p) if families.validate_r_placement(perm, p, r)}
            for p, r, fiber in marked
        )
        formula = all(
            count == polybernoulli.count_N_pi(perm, r, p) for p, r, fiber in marked for perm, count in fiber.items()
        )
        summed = all(sum(fiber.values()) == factorial(n - 1) for _, _, fiber in marked)
        report.add("marked fibers keyed by the record placement rule", f"n={n}", True, keyed)
        report.add("marked fibers match the difference formula", f"n={n}", True, formula)
        report.add("marked fibers sum to (n-1)!", f"n={n}", True, summed)


def _verify_engine(report: VerifyReport, n_max: int, seeds: int, sweep: Sweep, facts: Facts) -> None:
    read = f"{_clipped(n_max, READING_N)[1]}, {seeds} seeds"
    report.add("random schedules agree with passes", read, True, _always(sweep, "schedules agree"))
    network = {(n, p): fact for (n, p), fact in facts.items() if n <= ENGINE_N}
    passes_ok = all(fact["passes"] == min(p, n - p + 1) for (n, p), fact in network.items())
    swept = _clipped(n_max, ENGINE_N)[1]
    report.add("reverse-complement commutes with the resultant", swept, True, _always(sweep, "mirror commutes"))
    report.add("pass count is min(p, n-p+1)", swept, True, passes_ok)
    frozen = all(fact["arms frozen"] for fact in network.values())
    report.add("arms are frozen prefixes/suffixes of the final state", swept, True, frozen)
    first = {fact["first pass"] for fact in network.values()}
    report.note("first pass comprises n topplings (text says n+1)", "offset of measured count from n", {0}, first)


def _verify_correspondences(
    report: VerifyReport, n_max: int, sweep: Sweep, family_counts: dict[int, Counter]
) -> None:
    sizes, read = _clipped(n_max, READING_N)
    callan = all(
        sweep[n, p]["rp toppleable", r] == family_counts[n + 1]["callan_first", n - p + 1, p, r]
        for n in sizes
        for p in range(1, n + 1)
        for r in range(1, n + 2)
    )
    report.add("toppleable permutations map onto windowed readings", read, True, _always(sweep, "reading window"))
    report.add("toppleable count equals Callan words with fixed first letter", read, True, callan)
    sizes, label = _clipped(n_max, ENGINE_N)
    window = all(
        characterize.is_all_r_toppleable(perm, p) == (sweep[n, p]["toppleable readings", perm] == n + 1)
        for n in sizes
        for p in range(1, n + 1)
        for perm in iter_permutations(n)
    )
    report.add("inverse window equals toppleability for every r", label, True, window)


def _verify_families(report: VerifyReport, family_counts: dict[int, Counter]) -> None:
    b, c = polybernoulli.b_number, polybernoulli.c_number
    # (n, k, counts of size n+k) for every split of every size
    splits = [(total - k, k, counts) for total, counts in family_counts.items() for k in range(1, total)]
    every = f"sizes<={max(family_counts)}"
    first = 7  # Callan first letters are checked up to this size
    report.add(
        "Vesztergombi counts are B(n,k)",
        every,
        True,
        all(counts["vesztergombi", k, n] == b(n, k) for n, k, counts in splits),
    )
    report.add(
        "Callan counts are B(U,O)", every, True, all(counts["callan", k, n] == b(k, n) for n, k, counts in splits)
    )
    report.add(
        "Callan underline/overline symmetry",
        every,
        True,
        all(counts["callan", k, n] == counts["callan", n, k] for n, k, counts in splits),
    )
    report.add(
        "Callan words starting underlined are C(U,O)",
        f"sizes<={first}",
        True,
        all(
            sum(counts["callan_first", k, n, r] for r in range(1, k + 1)) == c(k, n)
            for n, k, counts in splits
            if n + k <= first
        ),
    )
    report.add(
        "half-open window counts are C(n,k)",
        every,
        True,
        all(counts["window_c", n, k] == c(n, k) for n, k, counts in splits),
    )
    report.add(
        "excedance-set counts are C(n,k)",
        every,
        True,
        all(counts["excedance_set", n, k] == c(n, k) for n, k, counts in splits),
    )
    ao_ok = all(
        families.count_acyclic_orientations(n, k) == b(n, k)
        for n in range(1, 5)
        for k in range(1, 5)
        if n * k <= 16
    )
    report.add("acyclic orientation counts are B(n,k)", "nk<=16", True, ao_ok)
    for mode in ("unique_sink_anywhere", "unique_sink_fixed_vertex"):
        report.note(
            "unique-sink orientation count vs C(n,k)",
            f"(2,2) mode={mode}",
            c(2, 2),
            families.count_acyclic_orientations(2, 2, mode),
        )


def _callan_round_trips(total: int, members: Members) -> Iterator[tuple[bool, bool]]:
    """
    For each split (u, o) of total, from the members of ``_scan_families``:
    do the Callan words map onto the Vesztergombi permutations and back,
    and does each word's first letter sit at the position of o+1 in its
    image?
    """
    for u in range(1, total):
        o = total - u
        words = members["callan", u, o]
        images = [bijections.callan_to_vesztergombi(CallanWord(values=w, underlined=u, overlined=o)) for w in words]
        yield (
            sorted(images) == members["vesztergombi", u, o]
            and all(bijections.vesztergombi_to_callan(sigma, u, o).values == w for w, sigma in zip(words, images)),
            all(sigma.index(o + 1) + 1 == w[0] for w, sigma in zip(words, images)),
        )


def _reduces_fiber(perm: Perm, fiber: list[Configuration], p: int) -> bool:
    """
    Does phi take the fiber of perm one to one onto p-toppleable
    configurations that phi_inverse takes back, and has the fiber
    B(i,j)/2 members?
    """
    reduced = [bijections.phi(config, perm) for config in fiber]
    return (
        all(
            bijections.phi_inverse(image, perm, p) == config and characterize.is_p_toppleable(image)
            for image, config in zip(reduced, fiber)
        )
        and len(set(reduced)) == len(fiber)
        and len(fiber) == polybernoulli.count_resultant_class(*record_class(perm, p))
    )


def _verify_bijections(report: VerifyReport, members: Members) -> None:
    word = CallanWord(
        values=(5, 7, 12, 11, 1, 4, 8, 14, 3, 6, 9, 15, 13, 10, 2),
        underlined=9,
        overlined=6,
    )
    image = bijections.callan_to_vesztergombi(word)
    report.add(
        "fifteen-element worked example",
        "",
        (1, 6, 4, 8, 7, 10, 12, 11, 13, 3, 2, 9, 5, 14, 15),
        image,
    )
    report.add(
        "worked example roundtrip",
        "",
        word.values,
        bijections.vesztergombi_to_callan(image, 9, 6).values,
    )
    sizes = range(2, ROUND_TRIP_SIZE + 1)
    trips = [trip for total in sizes for trip in _callan_round_trips(total, members)]
    report.add("Callan/Vesztergombi exhaustive roundtrip", f"sizes<={sizes[-1]}", True, all(ok for ok, _ in trips))
    report.add("first letter sits at the position of O+1", f"sizes<={sizes[-1]}", True, all(ok for _, ok in trips))
    sizes = range(1, 6)
    reduced = all(
        _reduces_fiber(perm, fiber, p)
        for n in sizes
        for p in range(1, n + 1)
        for perm, fiber in group_by_resultant(n, p).items()
    )
    report.add("record-skeleton reduction is a fiber bijection", f"n<={sizes[-1]}", True, reduced)


def _verify_core(report: VerifyReport, n_max: int, sweep: Sweep) -> None:
    sizes, label = _clipped(n_max, 7)
    stirling1 = [(1,)]  # row n: the unsigned Stirling numbers of the first kind c(n, 0..n)
    for n in sizes:
        row = stirling1[-1] + (0,)
        stirling1.append(tuple((row[k - 1] if k else 0) + (n - 1) * row[k] for k in range(n + 1)))
    records_ok = all(
        Counter(len(left_record_values(perm)) for perm in iter_permutations(n))
        == Counter(dict(enumerate(stirling1[n])))
        for n in sizes
    )
    report.add("left-record distribution is Stirling-1", label, True, records_ok)
    sizes, label = _clipped(n_max, 6)
    inv_ok = all(
        set(left_record_values(perm)) == {pos for pos, _ in records(inverse(perm), "right_min")}
        for n in sizes
        for perm in iter_permutations(n)
    )
    report.add("left-record values become right-minimum positions under inversion", label, True, inv_ok)
    read = _clipped(n_max, READING_N)[1]
    report.add("the two unlift readings invert lift", read, True, _always(sweep, "lift inverts unlift"))
    report.add("reverse-complement is an involution onto S(n,n+1-p)", read, True, _always(sweep, "mirror involution"))


def verify_identities(n_max: int = 7, jobs: int = 1, seeds: int = 5) -> VerifyReport:
    """
    Recompute every counting claim of the library by brute force and
    return the itemized report. Exit-code users: ``report.ok`` is False
    only on unexplained mismatches; known printed-table glitches are
    emitted as documented discrepancies.
    """
    # one pool: one toppling per configuration of S(n,p), read by every
    # section that checks a fact about S(n,p), and the all-r counts
    swept = [(n, p) for n in range(1, min(n_max, CONFIG_CAP) + 1) for p in range(1, n + 1)]
    counted = [(n, p) for n in range(1, min(n_max, PERM_CAP) + 1) for p in range(1, n + 1)]
    sums = _parallel_sum(
        [(_sweep_chunk, (n, p, seeds), configuration_count(n)) for n, p in swept]
        + [_all_r_item(n, p) for n, p in counted],
        jobs,
    )
    sweep: Sweep = dict(zip(swept, sums))
    all_r = dict(zip(counted, sums[len(swept) :]))
    facts: Facts = {key: _pass_facts(*key) for key in swept}
    # one families scan per size, read by the families, correspondences and
    # bijections sections, and each decomposable set built once, for the
    # resultants and marked sections
    family_counts, members = _scan_families()
    decomposable = cache(_decomposable)
    report = VerifyReport(n_max=n_max)
    _verify_kernel(report)
    _verify_toppleable(report, sweep)
    _verify_rp_toppleable(report, n_max, sweep)
    _verify_all_r(report, all_r)
    _verify_resultants(report, n_max, sweep, facts, decomposable)
    _verify_marked(report, n_max, sweep, decomposable)
    _verify_engine(report, n_max, seeds, sweep, facts)
    _verify_correspondences(report, n_max, sweep, family_counts)
    _verify_families(report, family_counts)
    _verify_bijections(report, members)
    _verify_core(report, n_max, sweep)
    return report
