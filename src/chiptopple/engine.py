"""Toppling dynamics on the extended path of sites 0..n+1.

A toppling removes two chips a < b from a site and sends a one site left
and b one site right. Two stabilizers are provided: a seeded random
schedule (site uniform over eligible sites, pair uniform over 2-subsets)
and the deterministic pass schedule, which topples the doubled site once
and then every other eligible site until only the doubled site remains.
Both reach the same final state; the random one exists so that tests can
exercise schedule independence. The pass schedule is one loop: it drives
``stabilize_passes``, which records a snapshot after each pass, and
``resultant``, which records nothing.
"""
from __future__ import annotations

import dataclasses
import json
import random
from typing import Iterator

from .core import Configuration, Perm


class ConfinementError(RuntimeError):
    """A chip was about to leave the segment 0..n+1 (dynamics bug)."""


@dataclasses.dataclass(frozen=True)
class FinalState:
    """Stabilized chips: one chip on every site of 0..n+1 except one."""

    n: int
    occupancy: tuple[int, ...]  # chip per site, 0 at the empty site
    empty_site: int

    def __post_init__(self) -> None:
        if len(self.occupancy) != self.n + 2:
            raise ValueError("occupancy must cover sites 0..n+1")
        empties = [i for i, c in enumerate(self.occupancy) if c == 0]
        if empties != [self.empty_site]:
            raise ValueError("final state must have exactly one empty site")

    def permutation(self) -> Perm:
        """The resultant: occupancy read left to right, skipping the hole."""
        return tuple(c for c in self.occupancy if c != 0)


@dataclasses.dataclass(frozen=True)
class PassSnapshot:
    left_arm: tuple[int, ...]
    active: tuple[tuple[int, ...], ...]
    right_arm: tuple[int, ...]
    topples: int


@dataclasses.dataclass(frozen=True)
class PassTrace:
    n: int
    p: int
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


def _final_state(n: int, state: list[list[int]]) -> FinalState:
    # n+1 chips on n+2 sites leave at least one hole; FinalState checks
    # that there is exactly one, which also rules out a doubled site
    occupancy = tuple(chips[0] if chips else 0 for chips in state)
    return FinalState(n=n, occupancy=occupancy, empty_site=occupancy.index(0))


def stabilize_random(config: Configuration, seed: int) -> tuple[FinalState, int]:
    """
    Stabilize under the seeded random schedule; the final state does not
    depend on the seed. Returns the final state and the toppling count.
    """
    rng = random.Random(seed)
    state = _working_state(config)
    eligible = [config.p]
    topples = 0
    last = config.n + 1
    while eligible:
        idx = rng.randrange(len(eligible))
        site = eligible[idx]
        chips = state[site]
        if len(chips) == 2:
            a, b = chips
            if a > b:
                a, b = b, a
            chips.clear()
            eligible[idx] = eligible[-1]
            eligible.pop()
        else:
            a, b = sorted(rng.sample(chips, 2))
            chips.remove(a)
            chips.remove(b)
            if len(chips) < 2:
                eligible[idx] = eligible[-1]
                eligible.pop()
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
    return _final_state(config.n, state), topples


def _passes(state: list[list[int]], p: int) -> Iterator[int]:
    """
    Run the pass schedule on ``state`` in place and yield the toppling
    count of each pass. Sites are not kept sorted: a toppling sorts only a
    site holding three chips or more, to take its two smallest.
    """
    last = len(state) - 1
    while len(state[p]) >= 2:
        topples = 0
        stack = [p]
        while stack:
            site = stack.pop()
            chips = state[site]
            if len(chips) < 2:
                continue
            if site == 0 or site == last:
                raise ConfinementError(f"end site {site} became eligible")
            if len(chips) == 2:
                a, b = chips
                if a > b:
                    a, b = b, a
                chips.clear()
            else:
                chips.sort()
                a, b = chips[0], chips[1]
                del chips[:2]
            state[site - 1].append(a)
            state[site + 1].append(b)
            topples += 1
            for neighbour in (site - 1, site + 1):
                if neighbour != p and len(state[neighbour]) >= 2:
                    stack.append(neighbour)
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


def stabilize_passes(config: Configuration) -> tuple[FinalState, PassTrace]:
    """
    Stabilize in passes: topple the doubled site once, then every eligible
    site other than it until none remains; repeat until stable. Records a
    snapshot (left arm, active part, right arm) after each pass.
    """
    state = _working_state(config)
    passes = tuple(_snapshot(state, topples) for topples in _passes(state, config.p))
    return _final_state(config.n, state), PassTrace(n=config.n, p=config.p, passes=passes)


def resultant(config: Configuration) -> tuple[Perm, int]:
    """
    The permutation of 1..n+1 left by stabilization, read left to right
    skipping the empty site, plus the empty site's index.
    """
    state = _working_state(config)
    for _ in _passes(state, config.p):
        pass
    final = _final_state(config.n, state)
    return final.permutation(), final.empty_site
