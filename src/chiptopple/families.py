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
``enumerate_family`` and ``count_family``. ``memberships`` instead
classifies each permutation v of 1..N at every split (x, N-x),
1 <= x <= N-1, with one scan, by three interval rules. With
D+ = max(v_i - i) and D- = max(i - v_i):

- Vesztergombi (k, N-k) holds exactly when D- <= k <= N - D+, and the
  half-open window (N-k, k) exactly when D- <= k <= N - 1 - D+;
- excedance set (N-j, j) holds exactly when the excedance set is {1..j};
- Callan (u, N-u) holds exactly when every value that starts an ascent is
  <= u and every value that starts a descent is > u.
"""
from __future__ import annotations

import dataclasses
from itertools import permutations
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

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Maximal runs of same-class values, in word order."""
        out: list[list[int]] = []
        for value in self.values:
            cls = value <= self.underlined
            if out and (out[-1][0] <= self.underlined) == cls:
                out[-1].append(value)
            else:
                out.append([value])
        return tuple(tuple(b) for b in out)


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


def _split_ranges(values: Perm) -> dict[str, range]:
    """
    For each two-parameter family of ``FAMILIES``, the first parameters x
    in 1..N-1 for which values (a permutation of 1..N) belongs to the
    family at the split (x, N - x), by the interval rules of the module
    docstring, from one scan of values.
    """
    size = len(values)
    rise = fall = 0  # D+ and D-
    excedances = last_excedance = 0
    ascent, descent = 1, size  # bounds on Callan's u before any step is seen
    previous = size + 1  # the first value ends no step
    for i, v in enumerate(values, start=1):
        if v > i:
            excedances += 1
            last_excedance = i
            if v - i > rise:
                rise = v - i
        elif i - v > fall:
            fall = i - v
        if previous < v:
            if previous > ascent:
                ascent = previous
        elif previous < descent:
            descent = previous
        previous = v
    least_k = max(fall, 1)
    prefix = 0 < excedances == last_excedance  # the excedance set is {1..excedances}
    return {
        "vesztergombi": range(least_k, size - max(rise, 1) + 1),
        "callan": range(ascent, descent),
        "window_c": range(rise + 1, size - least_k + 1),
        "excedance_set": range(size - excedances, size - excedances + prefix),
    }


def memberships(size: int) -> Iterator[tuple[tuple[str, int, int], Perm]]:
    """
    (key, permutation) for every family membership at every split of size,
    from one pass over S_size in lexicographic order: key (family, x, y)
    with x + y = size, the parameters in the order of ``FAMILIES``.
    """
    _check_cap(size)
    for values in permutations(range(1, size + 1)):
        for name, xs in _split_ranges(values).items():
            for x in xs:
                yield (name, x, size - x), values


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
