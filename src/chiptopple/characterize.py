"""Closed-form toppleability tests.

A configuration stabilizes to the sorted arrangement exactly when every
chip starts inside a window around its target site; the same window on the
inverse of a permutation characterizes being toppleable for every choice
of the extra chip. None of these predicates run the dynamics; agreement
with the simulator is checked in the test suite.

``is_p_toppleable_word`` tests one chip word of any S(n,p). A caller that
tests every word of one S(n,p) (the characterizing oracle of
``harness.brute_count_toppleable`` and the verify sweep) builds the same
window once per call or chunk with ``_window(n, p)``: one straight-line
function, generated with ``exec``, that compares each single chip with its
bound.
"""
from __future__ import annotations

from typing import Callable

from .core import Configuration, Perm, inverse, lift


def is_p_toppleable(config: Configuration) -> bool:
    """
    Window test: chip i (1 <= i <= n+1) must sit on a site in
    [p+i-n-1, p+i-1]. See ``is_p_toppleable_word``.
    """
    return is_p_toppleable_word(config.chips, config.n, config.p)


def is_p_toppleable_word(chips: tuple[int, ...], n: int, p: int) -> bool:
    """
    The window test on a chip word of S(n,p) (``Configuration.chips``).
    Both chips of the pair sit on p, where the window is never violated. A
    single chip c on site s < p can only sit left of its window, so it
    needs c - s <= n+1-p; one on site s > p can only sit right of it, so
    it needs c - s >= 1-p.
    """
    top = n + 1 - p
    for site, chip in enumerate(chips[: p - 1], 1):
        if chip - site > top:
            return False
    bottom = 1 - p
    for site, chip in enumerate(chips[p + 1 :], p + 1):
        if chip - site < bottom:
            return False
    return True


def _window(n: int, p: int) -> Callable[[tuple[int, ...]], bool]:
    """
    ``is_p_toppleable_word`` on the chip words of S(n,p) as one function,
    chip k of the word in local ck; the source holds only ints.
    """
    top = n + 1 - p
    bottom = 1 - p
    bounds = [f"c{k} <= {k + 1 + top}" for k in range(p - 1)]
    bounds += [f"c{k} >= {k + bottom}" for k in range(p + 1, n + 1)]
    lines = [
        "def window(chips):",
        f"    {''.join(f'c{k}, ' for k in range(n + 1))}= chips",
        f"    return {' and '.join(bounds) or 'True'}",
    ]
    namespace: dict = {}
    exec("\n".join(lines), namespace)
    return namespace["window"]


def is_rp_toppleable(perm: Perm, r: int, p: int) -> bool:
    """Does perm with chip r added at site p topple to the identity?"""
    return is_p_toppleable(lift(perm, r, p))


def is_all_r_toppleable(perm: Perm, p: int) -> bool:
    """
    Is perm (r,p)-toppleable for every r in 1..n+1? Equivalent inverse
    window: p+i-n <= position of i <= p+i-1 for all values i.
    """
    n = len(perm)
    if not 1 <= p <= n:
        raise ValueError(f"site {p} outside 1..{n}")
    inv = inverse(perm)
    return all(p + i - n <= inv[i - 1] <= p + i - 1 for i in range(1, n + 1))
