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


@pytest.fixture(scope="session")
def s32_configurations() -> list[Configuration]:
    return oracle_configurations(3, 2)
