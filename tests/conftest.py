"""Shared brute-force oracles, deliberately independent of the library's own
enumeration layer: plain itertools products that the production code never
touches."""
from __future__ import annotations

from itertools import combinations, groupby, permutations

import pytest
from hypothesis import strategies as st

from chiptopple.core import Configuration, make_configuration


def oracle_configurations(n: int, p: int) -> list[Configuration]:
    """Every configuration of n+1 chips on n sites with the pair at p."""
    out = []
    chips = range(1, n + 2)
    for pair in combinations(chips, 2):
        rest = [c for c in chips if c not in pair]
        for arrangement in permutations(rest):
            contents: list[int | tuple[int, int]] = []
            it = iter(arrangement)
            for site in range(1, n + 1):
                contents.append(pair if site == p else next(it))
            out.append(make_configuration(contents))
    return out


@st.composite
def small_configurations(draw):
    """A configuration with up to ten sites, built by the validating literal builder."""
    n = draw(st.integers(1, 10))
    p = draw(st.integers(1, n))
    chips = list(range(1, n + 2))
    shuffled = draw(st.permutations(chips))
    pair = tuple(sorted(shuffled[:2]))
    rest = iter(shuffled[2:])
    contents = [pair if site == p else next(rest) for site in range(1, n + 1)]
    return make_configuration(contents)


def oracle_permutations(n: int):
    return permutations(range(1, n + 1))


def oracle_is_callan(perm: tuple[int, ...], underlined: int) -> bool:
    """Runs of values <= underlined increase, runs of larger values decrease."""
    for low, run in groupby(perm, key=lambda value: value <= underlined):
        run = list(run)
        if run != sorted(run, reverse=not low):
            return False
    return True


def oracle_acyclic_orientations(n: int, k: int, mode: str = "all") -> int:
    """
    Acyclic orientations of K_{n,k}, one orientation at a time: build the
    orientation's adjacency lists, Kahn-peel it, and read its sinks.
    """
    edges = [(a, n + b) for a in range(n) for b in range(k)]
    vertices = n + k
    total = 0
    for mask in range(1 << len(edges)):
        out: list[list[int]] = [[] for _ in range(vertices)]
        indegree = [0] * vertices
        for e, (a, b) in enumerate(edges):
            src, dst = (a, b) if mask >> e & 1 else (b, a)
            out[src].append(dst)
            indegree[dst] += 1
        # Kahn peeling: acyclic iff all vertices get removed
        order = [v for v in range(vertices) if indegree[v] == 0]
        seen = 0
        while order:
            v = order.pop()
            seen += 1
            for w in out[v]:
                indegree[w] -= 1
                if indegree[w] == 0:
                    order.append(w)
        if seen != vertices:
            continue
        sinks = [v for v in range(vertices) if not out[v]]
        if mode == "all":
            total += 1
        elif mode == "unique_sink_anywhere" and len(sinks) == 1:
            total += 1
        elif mode == "unique_sink_fixed_vertex" and n >= 1 and sinks == [0]:
            total += 1
    return total


@pytest.fixture(scope="session")
def s32_configurations() -> list[Configuration]:
    return oracle_configurations(3, 2)
