"""Toppling dynamics on the extended path of sites 0..n+1.

A toppling removes the two chips a < b from a doubled site and sends a one
site left and b one site right. Two stabilizers are provided: a seeded
random schedule (site uniform over eligible sites) and the deterministic
pass schedule, which topples the doubled site once and then every other
eligible site until only the doubled site remains. Both reach the same
final state after the same number of topplings; the random one exists so
that tests can exercise schedule independence. The pass schedule is one
loop: it drives ``stabilize_passes``, which records a snapshot after each
pass, and ``resultant``, which records nothing. All three stabilizers give
the final state in one form, the ``resultant`` pair: the permutation of
1..n+1 read left to right skipping the hole, and the hole's site.

Invariant: under any schedule, no site holds more than two chips, and an
empty site lies between any two doubled sites. Proof sketch: the start has
one doubled site. A toppling empties a doubled site x, whose neighbours held
one chip at most and so end with two at most. The empty x separates its two
sides; a neighbour that becomes doubled held a chip, so the hole that cut x
off from the doubled sites beyond that neighbour lies beyond it too. Labels
never decide which site may topple, so the invariant holds for labelled
chips, and every toppling takes both chips of its site.

The random schedule draws only at real choice points: when two or more
sites are eligible. A draw from range(m) is the remainder of a pool
divided by m, and the pool keeps the quotient. The pool starts as the
512-bit block blake2b(f"{seed}/{block}") for block 0, and the next block
is hashed whenever the pool falls below 2^64. A draw thus reduces a number
of at least 2^64, so its bias is below m/2^64. A run without a choice
point (every p=1 and p=n configuration) hashes nothing, and a seed replays
its schedule through ``topple --random --seed``.
"""
from __future__ import annotations

import dataclasses
import json
from typing import Iterator

from .core import Configuration, Perm


class ConfinementError(RuntimeError):
    """A chip was about to leave the segment 0..n+1 (dynamics bug)."""


@dataclasses.dataclass(frozen=True)
class PassSnapshot:
    left_arm: tuple[int, ...]
    active: tuple[tuple[int, ...], ...]
    right_arm: tuple[int, ...]
    topples: int


@dataclasses.dataclass(frozen=True)
class PassTrace:
    passes: tuple[PassSnapshot, ...]

    def to_json(self) -> str:
        return json.dumps(
            [
                {
                    "left_arm": list(s.left_arm),
                    "active": [list(c) for c in s.active],
                    "right_arm": list(s.right_arm),
                    "topples": s.topples,
                }
                for s in self.passes
            ]
        )


def _working_state(config: Configuration) -> list[list[int]]:
    return [[]] + [list(content) for content in config.sites] + [[]]


def _stable_resultant(state: list[list[int]]) -> tuple[Perm, int]:
    """The resultant of a stable state, read left to right skipping the hole, and the hole's site."""
    # n+1 chips on n+2 sites leave at least one hole; exactly one also rules
    # out a doubled site
    occupancy = tuple([chips[0] if chips else 0 for chips in state])
    if occupancy.count(0) != 1:
        raise ValueError("final state must have exactly one empty site")
    empty_site = occupancy.index(0)
    return occupancy[:empty_site] + occupancy[empty_site + 1 :], empty_site


_REFILL = 1 << 64


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
            # imported here: hashlib loads OpenSSL, about 3.6 MB of RSS that a
            # process which never draws (the kernel, say) need not map
            import hashlib

            digest = hashlib.blake2b(f"{self.seed}/{self.block}".encode()).digest()
            self.pool = int.from_bytes(digest, "little")
            self.block += 1
        self.pool, value = divmod(self.pool, m)
        return value


def stabilize_random(config: Configuration, seed: int) -> tuple[tuple[Perm, int], int]:
    """
    Stabilize under the seeded random schedule. Returns the ``resultant``
    pair and the toppling count; neither depends on the seed.
    """
    draw = _Draws(seed).below
    state = _working_state(config)
    eligible = [config.p]
    topples = 0
    last = config.n + 1
    while eligible:
        idx = draw(len(eligible)) if len(eligible) > 1 else 0
        site = eligible[idx]
        eligible[idx] = eligible[-1]
        eligible.pop()
        chips = state[site]
        a, b = chips
        if a > b:
            a, b = b, a
        chips.clear()
        left = state[site - 1]
        left.append(a)
        if len(left) == 2:
            if site - 1 == 0:
                raise ConfinementError("site 0 accumulated two chips")
            eligible.append(site - 1)
        right = state[site + 1]
        right.append(b)
        if len(right) == 2:
            if site + 1 == last:
                raise ConfinementError(f"site {last} accumulated two chips")
            eligible.append(site + 1)
        topples += 1
    return _stable_resultant(state), topples


def _passes(state: list[list[int]], p: int) -> Iterator[int]:
    """
    Run the pass schedule on ``state`` in place and yield the toppling
    count of each pass. A site is pushed on its step from one chip to two
    and, by the invariant, holds exactly two when it is popped.
    """
    last = len(state) - 1
    while len(state[p]) == 2:
        topples = 0
        stack = [p]
        while stack:
            site = stack.pop()
            if site == 0 or site == last:
                raise ConfinementError(f"end site {site} became eligible")
            chips = state[site]
            a, b = chips
            if a > b:
                a, b = b, a
            chips.clear()
            left = state[site - 1]
            right = state[site + 1]
            left.append(a)
            right.append(b)
            topples += 1
            if len(left) == 2 and site - 1 != p:
                stack.append(site - 1)
            if len(right) == 2 and site + 1 != p:
                stack.append(site + 1)
        yield topples


def _snapshot(state: list[list[int]], topples: int) -> PassSnapshot:
    holes = [i for i, chips in enumerate(state) if not chips]
    first, last = holes[0], holes[-1]
    return PassSnapshot(
        left_arm=tuple(state[i][0] for i in range(first)),
        active=tuple(tuple(sorted(state[i])) for i in range(first + 1, last) if state[i]),
        right_arm=tuple(state[i][0] for i in range(last + 1, len(state))),
        topples=topples,
    )


def stabilize_passes(config: Configuration) -> tuple[tuple[Perm, int], PassTrace]:
    """
    Stabilize in passes: topple the doubled site once, then every eligible
    site other than it until none remains; repeat until stable. Returns the
    ``resultant`` pair and a snapshot (left arm, active part, right arm)
    after each pass.
    """
    state = _working_state(config)
    passes = tuple(_snapshot(state, topples) for topples in _passes(state, config.p))
    return _stable_resultant(state), PassTrace(passes)


def resultant(config: Configuration) -> tuple[Perm, int]:
    """
    The permutation of 1..n+1 left by stabilization, read left to right
    skipping the empty site, plus the empty site's index.
    """
    state = _working_state(config)
    for _ in _passes(state, config.p):
        pass
    return _stable_resultant(state)
