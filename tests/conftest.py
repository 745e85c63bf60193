"""Shared brute-force oracles, deliberately independent of the library's own
enumeration layer: plain itertools products that the production code never
touches."""
from __future__ import annotations

from itertools import combinations, groupby, permutations
from math import factorial

import pytest
from hypothesis import strategies as st

from chiptopple import engine
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


def oracle_chip_words(n: int, p: int) -> list[tuple[int, ...]]:
    """
    Every chip word of S(n,p) in rank order: the permutations of 1..n+1
    whose entries at indices p-1 and p (the pair) ascend, sorted by the
    pair, then by the other chips in site order.
    """
    words = [word for word in permutations(range(1, n + 2)) if word[p - 1] < word[p]]
    return sorted(words, key=lambda word: (word[p - 1 : p + 1], word[: p - 1] + word[p + 1 :]))


def oracle_stabilize_random(config: Configuration, seed: int) -> tuple[tuple[tuple[int, ...], int], int]:
    """
    The seeded random schedule as a labelled simulation: the chips
    themselves, not registers, move between sites, and the resultant pair
    is read off the final sites. Returns that pair and the toppling count.
    It shares only the draws (``engine._Draws``, which define what a seed
    means) and the error type with the library.
    """
    draw = engine._Draws(seed).below
    # low[x] and high[x]: the first and second chip at site x, 0 for none
    chips, p = config.chips, config.p
    low = [0, *chips[:p], *chips[p + 1 :], 0]
    high = [0] * len(low)
    high[p] = chips[p]
    eligible = [p]
    topples = 0
    last = config.n + 1
    while eligible:
        if len(eligible) > 1:
            idx = draw(len(eligible))
            site = eligible[idx]
            eligible[idx] = eligible[-1]
            eligible.pop()
        else:
            site = eligible.pop()
        a = low[site]
        b = high[site]
        if a > b:
            a, b = b, a
        low[site] = high[site] = 0
        left = site - 1
        if low[left]:
            if left == 0:
                raise engine.ConfinementError("site 0 accumulated two chips")
            high[left] = a
            eligible.append(left)
        else:
            low[left] = a
        right = site + 1
        if low[right]:
            if right == last:
                raise engine.ConfinementError(f"site {last} accumulated two chips")
            high[right] = b
            eligible.append(right)
        else:
            low[right] = b
        topples += 1
    if low.count(0) != 1:
        raise ValueError("final state must have exactly one empty site")
    empty_site = low.index(0)
    return (tuple(low[:empty_site] + low[empty_site + 1 :]), empty_site), topples


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


def oracle_callan_to_vesztergombi(
    values: tuple[int, ...], underlined: int, overlined: int
) -> tuple[int, ...]:
    """
    The Callan-to-Vesztergombi map built block by block: cut the word into
    its maximal runs first, give every follower its predecessor's value
    plus O+1 (underlined) or minus U+1 (overlined) and the first letter
    O+1, then hand the missing values in ascending order to the other
    underlined leaders and then to the overlined ones, in block order.
    """
    u, o = underlined, overlined
    total = u + o
    sigma = [0] * (total + 1)  # 1-based positions
    blocks = [tuple(run) for _, run in groupby(values, key=lambda value: value <= u)]
    for block in blocks:
        if block[0] <= u:
            for prev, elem in zip(block, block[1:]):
                sigma[elem] = prev + o + 1
        else:
            for prev, elem in zip(block, block[1:]):
                sigma[elem] = prev - u - 1
    sigma[values[0]] = o + 1
    underlined_leaders = []
    overlined_leaders = []
    for block in blocks[1:]:  # the word's first element already got O+1
        if block[0] <= u:
            underlined_leaders.append(block[0])
        else:
            overlined_leaders.append(block[0])
    used = {v for v in sigma[1:] if v}
    missing = [v for v in range(1, total + 1) if v not in used]
    head, tail = missing[: len(underlined_leaders)], missing[len(underlined_leaders) :]
    for leader, value in zip(underlined_leaders, head):
        sigma[leader] = value
    for leader, value in zip(overlined_leaders, tail):
        sigma[leader] = value
    return tuple(sigma[1:])


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


def oracle_poly_bernoulli(top: int) -> tuple[list[list[int]], list[list[int]]]:
    """
    The tables B[n][k] and C[n][k] for 0 <= n,k <= top as the textbook
    sums, term by term: (m!)^2 S(n+1,m+1) S(k+1,m+1) for B and
    (m!)^2 S(n+1,m+1) S(k,m) for C, over a Stirling triangle of its own
    built row by row from S(n,m) = m S(n-1,m) + S(n-1,m-1).
    """
    stirling = [[1]]  # stirling[n][m] = S(n, m) for 0 <= m <= n
    for n in range(1, top + 2):
        above = stirling[-1] + [0]
        stirling.append([0] + [m * above[m] + above[m - 1] for m in range(1, n + 1)])

    def s(n: int, m: int) -> int:
        return stirling[n][m] if m <= n else 0

    def table(shift: int) -> list[list[int]]:
        # shift = 1 for B (S(k+1, m+1)), 0 for C (S(k, m))
        return [
            [
                sum(
                    factorial(m) ** 2 * s(n + 1, m + 1) * s(k + shift, m + shift)
                    for m in range(min(n, k) + 1)
                )
                for k in range(top + 1)
            ]
            for n in range(top + 1)
        ]

    return table(1), table(0)


@pytest.fixture(scope="session")
def textbook_poly_bernoulli() -> tuple[list[list[int]], list[list[int]]]:
    return oracle_poly_bernoulli(40)


@pytest.fixture(scope="session")
def s32_configurations() -> list[Configuration]:
    return oracle_configurations(3, 2)
