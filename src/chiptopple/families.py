"""Recognizers and brute-force enumerators for the permutation families counted
by poly-Bernoulli numbers, plus validation of resultant permutations.

Conventions: a Callan word over 1..U+O has underlined values 1..U and
overlined values U+1..U+O; maximal runs of underlined values must increase
and runs of overlined values must decrease. A (k,n)-Vesztergombi
permutation lives in S_{k+n} with the displacement window -k..n. Counts:
Callan(U,O) and Vesztergombi(k,n) are B(U,O) and B(n,k); the type C
families are the excedance-set family, the half-open window family, and
Callan words that start underlined.

The recognizers in ``FAMILIES`` are the specification behind
``enumerate_family`` and ``count_family``. ``family_lanes`` instead
classifies every permutation of 1..N at every split at once, bit-sliced:
bit m of each int stands for the m-th permutation in lexicographic order.
Its planes ge[i][t], the lanes whose entry at position i is at least t,
follow from those of N-1 by the block rule of ``_planes``, and each family
is an AND of planes over the positions:

- Vesztergombi (k, N-k) and the half-open window (N-k, k) bound every
  entry between two planes;
- excedance set (N-k, k) takes the lanes above the diagonal at positions
  1..k and on or below it after;
- Callan (u, N-u) takes the lanes where every entry but the last starts an
  ascent exactly when it is <= u.
"""
from __future__ import annotations

import dataclasses
from itertools import permutations
from math import factorial
from typing import Callable, Iterator

from .core import Perm, left_record_values, right_record_values, split_at

DEFAULT_PERM_CAP = 9  # enumerate at most 9! permutations
AO_BIT_CAP = 20  # at most 2^20 orientations
CALLAN_SIZES = "need at least one underlined and one overlined value"


class CapExceeded(RuntimeError):
    """An enumeration would be larger than the configured cap."""


@dataclasses.dataclass(frozen=True)
class CallanWord:
    """A Callan word: increasing underlined runs, decreasing overlined runs."""

    values: Perm
    underlined: int
    overlined: int

    def __post_init__(self) -> None:
        violation = _callan_violation(self.values, self.underlined, self.overlined)
        if violation is not None:
            raise ValueError(violation)


def _callan_violation(values: Perm, underlined: int, overlined: int) -> str | None:
    """The first rule that values breaks as a Callan word, or None."""
    u, o = underlined, overlined
    if u < 1 or o < 1:
        return CALLAN_SIZES
    if set(values) != set(range(1, u + o + 1)):
        return f"values must be a permutation of 1..{u + o}"
    start = 0  # where the current block began
    for i in range(1, len(values)):
        low = values[i] <= u
        if (values[i - 1] <= u) != low:
            start = i
        elif (values[i - 1] < values[i]) != low:
            end = i + 1
            while end < len(values) and (values[end] <= u) == low:
                end += 1
            if low:
                return f"underlined block {tuple(values[start:end])} is not increasing"
            return f"overlined block {tuple(values[start:end])} is not decreasing"
    return None


def is_callan(perm: Perm, underlined: int, overlined: int) -> bool:
    """
    Does perm (over 1..underlined+overlined) have increasing low-value runs
    and decreasing high-value runs?

    >>> is_callan((4, 3, 1, 2), 2, 2)
    True
    >>> is_callan((3, 4, 1, 2), 2, 2)
    False
    """
    if len(perm) != underlined + overlined:
        raise ValueError("length must be underlined + overlined")
    return _callan_violation(perm, underlined, overlined) is None


def is_vesztergombi(perm: Perm, k: int, n: int) -> bool:
    """
    Displacement window: -k <= perm_i - i <= n at every position, for perm
    in S_{k+n}.

    >>> is_vesztergombi((1, 2, 3, 4), 2, 2)
    True
    """
    if len(perm) != k + n:
        raise ValueError(f"permutation length {len(perm)} is not k + n = {k + n}")
    return all(-k <= v - i <= n for i, v in enumerate(perm, start=1))


def excedance_set(perm: Perm) -> frozenset[int]:
    """Positions i with perm_i > i."""
    return frozenset(i for i, v in enumerate(perm, start=1) if v > i)


def _in_half_open_window(perm: Perm, n: int, k: int) -> bool:
    return all(-k <= v - i < n for i, v in enumerate(perm, start=1))


def _has_excedance_prefix(perm: Perm, n: int, k: int) -> bool:
    return excedance_set(perm) == frozenset(range(1, k + 1))


def _is_callan_first(perm: Perm, underlined: int, overlined: int, first: int) -> bool:
    return perm[0] == first and is_callan(perm, underlined, overlined)


# family name -> (parameter names, recognizer taking the permutation and
# those parameters); the first two parameters add up to the size.
FAMILIES: dict[str, tuple[tuple[str, ...], Callable[..., bool]]] = {
    "vesztergombi": (("k", "n"), is_vesztergombi),
    "callan": (("underlined", "overlined"), is_callan),
    "callan_first": (("underlined", "overlined", "first"), _is_callan_first),
    "window_c": (("n", "k"), _in_half_open_window),
    "excedance_set": (("n", "k"), _has_excedance_prefix),
}


def is_p_resultant(perm: Perm, p: int) -> bool:
    """
    Can perm in S_n arise by toppling some configuration with doubled site
    p? Holds exactly when the first n-p entries are a permutation of
    1..n-p.
    """
    n = len(perm)
    if not 1 <= p <= n - 1:
        raise ValueError(f"p outside 1..{n - 1}")
    return split_at(perm, p) is not None


def validate_r_placement(perm: Perm, p: int, r: int) -> bool:
    """
    Can the resultant perm arise from a configuration whose added chip was
    r? Requires r to be a left record of the prefix when r <= n-p, and a
    right record of the suffix otherwise.
    """
    n = len(perm)
    if not 1 <= r <= n:
        raise ValueError(f"r outside 1..{n}")
    if not is_p_resultant(perm, p):
        return False
    cut = n - p
    if r <= cut:
        return r in left_record_values(perm[:cut])
    return r in right_record_values(perm[cut:])


def _check_cap(m: int) -> None:
    if m > DEFAULT_PERM_CAP:
        raise CapExceeded(f"would enumerate {m}! permutations; cap is {DEFAULT_PERM_CAP}!")


def enumerate_family(family: str, **params: int) -> Iterator[Perm]:
    """
    Stream the members of a recognizable family, each exactly once.

    Families and their parameters:
      vesztergombi(k, n)            window -k..n in S_{k+n}
      callan(underlined, overlined) Callan words
      callan_first(underlined, overlined, first) Callan words starting
                                    with the given value
      window_c(n, k)                half-open window -k <= perm_i - i < n
      excedance_set(n, k)           excedance set exactly {1..k} in S_{n+k}
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    names, recognize = FAMILIES[family]
    if any(params.get(name) is None for name in names):
        raise ValueError(f"{family} needs {', '.join(names)}")
    args = [params[name] for name in names]
    if names[0] == "underlined" and min(args[:2]) < 1:
        raise ValueError(CALLAN_SIZES)
    if min(args[:2]) < 0:
        raise ValueError(f"{family} sizes must be at least 0")
    size = args[0] + args[1]
    _check_cap(size)
    for values in permutations(range(1, size + 1)):
        if recognize(values, *args):
            yield values


def count_family(family: str, **params: int) -> int:
    return sum(1 for _ in enumerate_family(family, **params))


def _planes(size: int) -> list[list[int]]:
    """
    ge[i][t] for positions 0 <= i < size and thresholds 0 <= t <= size+1:
    the lanes whose entry at position i is at least t, lane m being the
    m-th permutation of 1..size in lexicographic order. Block b, the
    (size-1)! lanes whose entry 0 is b+1, lists the permutations of the
    other values in order, which are those of 1..size-1 with every value
    above b+1 raised by one. So position 0 is at least t in blocks t-1..,
    and block b of position i >= 1 is ge_{size-1}[i-1][t] for t <= b+1 and
    ge_{size-1}[i-1][t-1] above.
    """
    ge = [[1, 1, 0]]
    for m in range(2, size + 1):
        width = factorial(m - 1)
        full = (1 << m * width) - 1
        first = [full >> s << s for s in (max(t - 1, 0) * width for t in range(m + 2))]
        ge = [first] + [
            [sum(row[t if t <= b + 1 else t - 1] << b * width for b in range(m)) for t in range(m + 2)]
            for row in ge
        ]
    return ge


def family_lanes(size: int) -> dict[tuple, int]:
    """
    The lanes of every family at every split of size, bit m standing for
    the m-th permutation of 1..size in lexicographic order. Keys are
    (family, x, y) for x + y = size, x, y >= 1, with the parameters in the
    order of ``FAMILIES``, and ("callan_first", u, o, first) for every
    first letter 1..size.
    """
    _check_cap(size)
    ge = _planes(size)
    full, top = ge[0][0], size + 1

    def band(below: int, above: int) -> int:
        """The lanes with i - below <= v <= i + above at every position i."""
        lanes = full
        for i, row in enumerate(ge, start=1):
            lanes &= row[max(i - below, 0)] & ~row[min(i + above + 1, top)]
        return lanes

    # ascents[i]: entry i is v and entry i+1 at least v+1, for some v (disjoint terms)
    ascents = [sum((row[v] ^ row[v + 1]) & after[v + 1] for v in range(1, size)) for row, after in zip(ge, ge[1:])]
    lanes: dict[tuple, int] = {}
    for x in range(1, size):
        y = size - x
        lanes["vesztergombi", x, y] = band(x, y)
        lanes["window_c", x, y] = band(y, x - 1)
        excedances = full
        for i, row in enumerate(ge, start=1):
            excedances &= row[i + 1] if i <= y else full ^ row[i + 1]
        lanes["excedance_set", x, y] = excedances
        broken = 0  # lanes where some entry starts an ascent and is > x, or a descent and is <= x
        for row, ascent in zip(ge, ascents):
            broken |= ascent ^ full ^ row[x + 1]
        callan = lanes["callan", x, y] = full ^ broken
        for first in range(1, top):
            lanes["callan_first", x, y, first] = callan & (ge[0][first] ^ ge[0][first + 1])
    return lanes


def count_acyclic_orientations(n: int, k: int, mode: str = "all") -> int:
    """
    Brute-force count of acyclic orientations of the complete bipartite
    graph on parts of sizes n and k (2^(nk) orientations tried).

    mode 'all' counts every AO; 'unique_sink_anywhere' keeps those with
    exactly one sink; 'unique_sink_fixed_vertex' keeps those whose unique
    sink is the first vertex of the n-side part (none when n = 0).

    All orientations are tried at once, bit-sliced: bit m of every int
    below stands for orientation m, in which edge e points from the n-side
    to the k-side exactly when bit e of m is set. Sinks are peeled in
    parallel: a vertex is removed in a lane once every edge at it points
    into it or leads to a removed vertex. Each round removes a sink of
    every acyclic lane that has vertices left, and no vertex of a cycle is
    ever removed, so after at most n+k rounds a lane is acyclic exactly
    when all its vertices are removed.
    """
    if mode not in ("all", "unique_sink_anywhere", "unique_sink_fixed_vertex"):
        raise ValueError(f"unknown mode {mode!r}")
    if n < 0 or k < 0:
        raise ValueError("part sizes must be at least 0")
    edges = n * k
    if edges > AO_BIT_CAP:
        raise CapExceeded(f"{edges} edges exceeds the {AO_BIT_CAP}-bit cap")
    lanes = 1 << edges
    full = (1 << lanes) - 1
    # into[v]: (lanes where the edge points into v, other end) per edge at v
    into: list[list[tuple[int, int]]] = [[] for _ in range(n + k)]
    for e in range(edges):
        half = 1 << e
        forward = ((1 << half) - 1) << half  # bit e set, over a period of 2^(e+1) lanes
        width = half << 1
        while width < lanes:
            forward |= forward << width
            width <<= 1
        a, b = divmod(e, k)
        into[a].append((full ^ forward, n + b))
        into[n + b].append((forward, a))
    removed = [0] * (n + k)
    for _ in range(n + k):
        for v, incident in enumerate(into):
            peeled = full
            for lanes_into, w in incident:
                peeled &= lanes_into | removed[w]
            removed[v] = peeled
    kept = full
    for peeled in removed:
        kept &= peeled
    if mode != "all":
        sinks = []
        for incident in into:
            sink = full
            for lanes_into, _ in incident:
                sink &= lanes_into
            sinks.append(sink)
        if mode == "unique_sink_anywhere":
            once = twice = 0  # lanes with at least one sink, at least two
            for sink in sinks:
                twice |= once & sink
                once |= sink
            kept &= once ^ twice
        elif n >= 1:
            others = 0
            for sink in sinks[1:]:
                others |= sink
            kept &= sinks[0] & (full ^ others)
        else:
            kept = 0
    return kept.bit_count()
