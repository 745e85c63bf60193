"""Toppling dynamics on the extended path of sites 0..n+1.

A toppling removes the two chips a < b from a doubled site and sends a one
site left and b one site right. Two stabilizers are provided: a seeded
random schedule (site uniform over eligible sites) and the deterministic
pass schedule, which topples the doubled site once and then every other
eligible site until only the doubled site remains. Both reach the same
final state after the same number of topplings. The final state has one
form, the ``resultant`` pair: the permutation of 1..n+1 read left to
right skipping the hole, and the hole's site; the last pass snapshot's
arms read it.

Invariant: under any schedule, no site holds more than two chips, and an
empty site lies between any two doubled sites. Proof sketch: the start has
one doubled site. A toppling empties a doubled site x, whose neighbours held
one chip at most and so end with two at most. The empty x separates its two
sides; a neighbour that becomes doubled held a chip, so the hole that cut x
off from the doubled sites beyond that neighbour lies beyond it too. Labels
never decide which site may topple, so the invariant holds for labelled
chips, and every toppling takes both chips of its site.

Since labels never choose a site, the pass schedule topples the same sites
in the same order for every configuration of S(n,p); labels only decide
which chip of a pair goes left. Each toppling is thus a compare-exchange
of two chip slots, and the schedule is a comparator network of p(n+1-p)
comparators over n+1 registers, where register k starts as
``config.chips[k-1]``. ``_schedule`` yields it pass by pass, with the
layout each pass leaves, as a run over registers (which only heights
steer) finds it; that run raises any ``ConfinementError`` and the one-hole
``ValueError``. Up to n = 8, the largest n that the harness enumerates,
the passes are kept with a ``run`` function generated from their
comparators, as ``dataclasses`` generates ``__init__``. Above that nothing
is kept: ``resultant`` applies each pass as it comes, in O(n) memory.
``stabilize_passes`` keeps nothing for any n: it yields each snapshot as
its pass comes, so a trace holds one pass at a time and raises its errors
on iteration. A seed's draws depend only on how many sites are
eligible, so its random schedule is one network per (n,p) too, which
``_random_schedule`` yields in passes of up to n+1 comparators.
``stabilize_random`` applies each pass as it comes, as ``resultant`` does
above n = 8, and ``_seeded`` keeps the network as one generated ``run``
for ``schedule_independence`` and verify's sweep.

The random schedule draws only at real choice points: when two or more
sites are eligible. A draw from range(m) is the remainder of a pool
divided by m, and the pool keeps the quotient. The pool starts as the
512-bit block blake2b(f"{seed}/{block}") for block 0, and the next block
is hashed whenever the pool falls below 2^64. A draw thus reduces a
number of at least 2^64, so its bias is below m/2^64. A run without a
choice point (every p=1 and p=n configuration) hashes nothing, and a seed
replays its schedule through ``topple --random --seed``.
"""
from __future__ import annotations

import dataclasses
from functools import lru_cache, partial
from typing import Callable, Iterable, Iterator, NamedTuple

from .core import Configuration, Perm


class ConfinementError(RuntimeError):
    """A chip was about to leave the segment 0..n+1 (dynamics bug)."""


@dataclasses.dataclass(frozen=True)
class PassSnapshot:
    """
    The chips after one pass: the left arm, each active site (a pair
    ascending) and the right arm, left to right, and the pass's topplings.
    """

    left_arm: tuple[int, ...]
    active: tuple[tuple[int, ...], ...]
    right_arm: tuple[int, ...]
    topples: int


def _read_resultant(low: list[int]) -> tuple[Perm, int]:
    """The resultant of the first chip of each site (0 for none), after the one-hole check."""
    # n+1 chips on n+2 sites leave a hole; exactly one also rules out a doubled site
    if low.count(0) != 1:
        raise ValueError("final state must have exactly one empty site")
    empty_site = low.index(0)
    return tuple(low[:empty_site] + low[empty_site + 1 :]), empty_site


_REFILL = 1 << 64


# 1 024 blocks (about 0.25 MB): callers that replay a few seeds on every configuration, as the tests do, hash each block once
@lru_cache(maxsize=1024, typed=True)
def _block(seed: int, block: int) -> int:
    """The 512-bit block blake2b(f"{seed}/{block}") as a little-endian int."""
    # imported here: hashlib loads OpenSSL, about 3.6 MB of RSS that a
    # process which never draws (the kernel, say) need not map
    import hashlib

    return int.from_bytes(hashlib.blake2b(f"{seed}/{block}".encode()).digest(), "little")


class _Draws:
    """The draws of one seed, taken by divmod from hashed 512-bit blocks."""

    __slots__ = ("seed", "block", "pool")

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.block = 0
        self.pool = 0

    def below(self, m: int) -> int:
        """The next draw from range(m)."""
        if self.pool < _REFILL:
            self.pool = _block(self.seed, self.block)
            self.block += 1
        self.pool, value = divmod(self.pool, m)
        return value


class _Pass(NamedTuple):
    """One pass of the schedule: its comparators and the registers of the layout it leaves."""

    comparators: tuple[tuple[int, int], ...]
    left_arm: tuple[int, ...]
    active: tuple[tuple[int, ...], ...]
    right_arm: tuple[int, ...]


class _Program(NamedTuple):
    """The kept pass schedule of S(n,p) as a comparator network."""

    passes: tuple[_Pass, ...]
    run: Callable[[tuple[int, ...]], tuple[Perm, int]]  # chip word -> resultant pair


_MEMO_N = 8  # harness enumerations topple up to n = 8: PERM_CAP-size permutations, lifted
_PROGRAMS: dict[tuple[int, int], _Program] = {}


def _schedule(n: int, p: int) -> Iterator[_Pass]:
    """
    Yield the passes of S(n,p) as a run over registers finds them: low[x]
    and high[x] are the registers of the first and second chip at site x, 0
    for none, and toppling x is the comparator (low[x], high[x]), which
    sends the smaller chip left and the larger right. A site is pushed on
    its step from one chip to two and, by the invariant, holds exactly two
    when it is popped. The one-hole check runs before the last pass is
    yielded, so that pass has no active part.
    """
    low = [0, *range(1, p + 1), *range(p + 2, n + 2), 0]
    high = [0] * len(low)
    high[p] = p + 1
    while high[p]:
        comparators = []
        stack = [p]
        while stack:
            site = stack.pop()
            if not 0 < site <= n:
                raise ConfinementError(f"end site {site} became eligible")
            i = low[site]
            j = high[site]
            low[site] = high[site] = 0
            comparators.append((i, j))
            left = site - 1
            if low[left]:
                high[left] = i
                if left != p:
                    stack.append(left)
            else:
                low[left] = i
            right = site + 1
            if low[right]:
                high[right] = j
                if right != p:
                    stack.append(right)
            else:
                low[right] = j
        if not high[p]:
            _read_resultant(low)  # the one-hole check, before the last pass
        first_hole = low.index(0)
        last_hole = n + 1 - low[::-1].index(0)
        yield _Pass(
            tuple(comparators),
            tuple(low[:first_hole]),
            tuple([(low[x], high[x]) if high[x] else (low[x],) for x in range(first_hole + 1, last_hole) if low[x]]),
            tuple(low[last_hole + 1 :]),
        )


def _program(n: int, p: int) -> _Program:
    """The kept program of S(n,p), n <= _MEMO_N: its passes and their generated ``run``."""
    program = _PROGRAMS.get((n, p))
    if program is None:
        passes = tuple(_schedule(n, p))
        program = _PROGRAMS[n, p] = _Program(passes, _generate(passes))
    return program


def _generate(passes: tuple[_Pass, ...]) -> Callable:
    """``run`` of a kept program, register k in local wk; the source holds only ints."""
    last = passes[-1]
    order = last.left_arm + last.right_arm
    lines = ["def run(chips):", f"    {''.join(f'w{k}, ' for k in range(1, len(order) + 1))}= chips"]
    for step in passes:
        lines += [f"    if w{i} > w{j}: w{i}, w{j} = w{j}, w{i}" for i, j in step.comparators]
    lines.append(f"    return ({''.join(f'w{r}, ' for r in order)}), {len(last.left_arm)}")
    namespace: dict = {}
    exec("\n".join(lines), namespace)
    return namespace["run"]


def _random_schedule(n: int, p: int, seed: int) -> Iterator[_Pass]:
    """
    Yield seed's random schedule on S(n,p) as ``_schedule`` yields the
    passes, over the same registers, but with the site drawn from the
    eligible ones: passes of up to n+1 comparators, with empty layouts,
    and a last pass whose arms give the read order and the empty site.
    """
    draw = _Draws(seed).below
    low = [0, *range(1, p + 1), *range(p + 2, n + 2), 0]
    high = [0] * len(low)
    high[p] = p + 1
    eligible = [p]
    comparators = []
    last = n + 1
    while eligible:
        if len(eligible) > 1:
            idx = draw(len(eligible))
            site = eligible[idx]
            eligible[idx] = eligible[-1]
            eligible.pop()
        else:
            site = eligible.pop()
        i = low[site]
        j = high[site]
        low[site] = high[site] = 0
        comparators.append((i, j))
        for near, chip in ((site - 1, i), (site + 1, j)):
            if low[near]:
                if near in (0, last):
                    raise ConfinementError(f"site {near} accumulated two chips")
                high[near] = chip
                eligible.append(near)
            else:
                low[near] = chip
        if len(comparators) > n:
            yield _Pass(tuple(comparators), (), (), ())
            comparators = []
    order, empty_site = _read_resultant(low)
    yield _Pass(tuple(comparators), order[:empty_site], (), order[empty_site:])


def _seeded(n: int, p: int, seed: int) -> Callable[[tuple[int, ...]], tuple[Perm, int]]:
    """``run`` of seed's random schedule on S(n,p), the network ``_random_schedule`` yields."""
    return _generate(tuple(_random_schedule(n, p, seed)))


def _run(w: list[int], comparators: tuple[tuple[int, int], ...]) -> None:
    """Apply the comparators to the registers w in place."""
    for i, j in comparators:
        a = w[i]
        b = w[j]
        if a > b:
            w[i] = b
            w[j] = a


def _applied(passes: Iterable[_Pass], chips: tuple[int, ...]) -> tuple[tuple[Perm, int], int]:
    """The resultant pair of a chip word, each pass applied as it comes, and the comparators applied."""
    w = [0, *chips]
    topples = 0
    for step in passes:
        _run(w, step.comparators)
        topples += len(step.comparators)
    return (tuple([w[r] for r in step.left_arm + step.right_arm]), len(step.left_arm)), topples


def _streamed(n: int, p: int, chips: tuple[int, ...]) -> tuple[Perm, int]:
    """The resultant pair of a chip word of S(n,p), n > _MEMO_N: each pass applied as it is found."""
    return _applied(_schedule(n, p), chips)[0]


def stabilize_random(config: Configuration, seed: int) -> tuple[tuple[Perm, int], int]:
    """
    Stabilize under the seeded random schedule. Returns the ``resultant``
    pair and the toppling count; neither depends on the seed.
    """
    return _applied(_random_schedule(config.n, config.p, seed), config.chips)


def stabilize_passes(config: Configuration) -> Iterator[PassSnapshot]:
    """
    Stabilize in passes: topple the doubled site once, then every eligible
    site other than it until none remains; repeat until stable. Yields a
    snapshot after each pass, as the pass is found: the last one's arms,
    left then right, are the resultant permutation, and its left arm's
    length is the empty site. A generator, it raises any
    ``ConfinementError`` and the one-hole ``ValueError`` on iteration.
    """
    w = [0, *config.chips]
    read = w.__getitem__
    for step in _schedule(config.n, config.p):
        _run(w, step.comparators)
        yield PassSnapshot(
            left_arm=tuple(map(read, step.left_arm)),
            active=tuple([tuple(sorted(map(read, site))) for site in step.active]),
            right_arm=tuple(map(read, step.right_arm)),
            topples=len(step.comparators),
        )


def resultant(config: Configuration) -> tuple[Perm, int]:
    """
    The permutation of 1..n+1 left by stabilization, read left to right
    skipping the empty site, plus the empty site's index.
    """
    if config.n > _MEMO_N:
        return _streamed(config.n, config.p, config.chips)
    return _program(config.n, config.p).run(config.chips)


def resultants(n: int, p: int, words: Iterable[tuple[int, ...]]) -> Iterator[tuple[Perm, int]]:
    """The ``resultant`` pair of each chip word of S(n,p) in ``words``, in order."""
    if not 1 <= p <= n:
        raise ValueError(f"p outside 1..{n}")
    return map(partial(_streamed, n, p) if n > _MEMO_N else _program(n, p).run, words)
