"""Constructive bijections.

``callan_to_vesztergombi`` sends a Callan word with U underlined and O
overlined values to a (U,O)-Vesztergombi permutation. Every element but
the first points at its predecessor in the word: a follower a within an
underlined block gets value pred + O + 1, a follower b within an
overlined block gets pred - U - 1, and the word's first element always
gets value O+1 (so the first word letter is recoverable as the position
of O+1). An element that starts a new block is a leader; the leaders take
the still-missing values: leaders of underlined blocks receive the
smallest ones in word order, leaders of overlined blocks the rest, again
ascending in word order. ``vesztergombi_to_callan`` walks that pass back:
it reads each follower off its value, starts at the position of O+1, and
at the end of each block goes on at the next leader of the other class.

``phi`` reduces a configuration toppling to a resultant perm down to the
record skeleton: non-record chips sit on forced sites, so deleting them
and relabelling leaves a smaller toppleable configuration that carries all
the remaining freedom.
"""
from __future__ import annotations

from .core import Configuration, Perm, make_permutation, record_class, record_split
from .families import CALLAN_SIZES, CallanWord, is_p_resultant, is_vesztergombi


def callan_to_vesztergombi(word: CallanWord) -> Perm:
    """
    Map a Callan word to a (U,O)-Vesztergombi permutation, in one pass
    over the word. Word elements double as positions of the output.
    """
    u, o = word.underlined, word.overlined
    values = word.values
    sigma = [0] * (u + o + 1)  # 1-based positions
    sigma[values[0]] = o + 1
    leaders: tuple[list[int], list[int]] = [], []  # underlined, overlined block leaders in word order
    for prev, elem in zip(values, values[1:]):
        low = elem <= u
        if (prev <= u) != low:
            leaders[not low].append(elem)
        else:
            sigma[elem] = prev + o + 1 if low else prev - u - 1
    missing = sorted(set(range(1, u + o + 1)).difference(sigma))
    for leader, value in zip(leaders[0] + leaders[1], missing):
        sigma[leader] = value
    result = tuple(sigma[1:])
    if not is_vesztergombi(result, u, o):
        raise AssertionError(f"image {result} left the Vesztergombi window")
    return result


def vesztergombi_to_callan(sigma: Perm, underlined: int, overlined: int) -> CallanWord:
    """
    Invert ``callan_to_vesztergombi`` in one pass over sigma. An underlined
    element valued at least O+2 follows value - O - 1, an overlined one
    valued at most O-1 follows value + U + 1; every other element but the
    start leads a block, and a class's leaders come in word order as their
    values ascend, since the forward map handed them the missing values so.
    Raises ValueError unless sigma is a (U,O)-Vesztergombi permutation.
    """
    sigma = make_permutation(sigma)
    u, o = underlined, overlined
    if u < 1 or o < 1:
        raise ValueError(CALLAN_SIZES)
    if not is_vesztergombi(sigma, u, o):
        raise ValueError(f"{sigma} is not ({u},{o})-Vesztergombi")
    start = sigma.index(o + 1) + 1
    follower: dict[int, int] = {}
    leaders: tuple[list, list] = [], []  # (value, element) of underlined, overlined leaders
    for elem, value in enumerate(sigma, start=1):
        if elem <= u and value >= o + 2:
            follower[value - o - 1] = elem
        elif elem > u and value <= o - 1:
            follower[value + u + 1] = elem
        elif elem != start:
            leaders[elem > u].append((value, elem))
    queues = [sorted(found, reverse=True) for found in leaders]  # the next leader last
    values = [start]
    for _ in range(u + o - 1):  # a bad decoding stops here and fails below
        last = values[-1]
        queue = queues[last <= u]
        if last in follower:
            values.append(follower[last])
        elif queue:
            values.append(queue.pop()[1])
    word = CallanWord(values=tuple(values), underlined=u, overlined=o)
    if callan_to_vesztergombi(word) != sigma:
        raise AssertionError(f"roundtrip failed for {sigma}")
    return word


def phi(config: Configuration, perm: Perm, verify: bool = False) -> Configuration:
    """
    Collapse a configuration that topples to the resultant perm onto its
    record skeleton: drop every chip (with its site) that is neither a
    left record of the prefix nor a right record of the suffix, then
    relabel the i+j surviving chips order-preservingly. The image lies in
    S(i+j-1, j) with the pair on site j.

    With ``verify=True`` the resultant of config is recomputed and checked
    against perm first.
    """
    n, p = config.n, config.p
    if len(perm) != n + 1:
        raise ValueError(f"resultant must have {n + 1} entries")
    if not is_p_resultant(perm, p):
        raise ValueError(f"{perm} is not a resultant for doubled site {p}")
    if verify:
        from .engine import resultant

        actual, _ = resultant(config)
        if actual != perm:
            raise ValueError(f"configuration topples to {actual}, not {perm}")
    lrec, rrec = record_split(perm, p)
    relabel = {chip: index for index, chip in enumerate(lrec + rrec, start=1)}
    if not all(c in relabel for c in config.pair):
        raise ValueError("a chip of the doubled site is not a record; resultant mismatch")
    site = 1 + sum(c in relabel for c in config.chips[: p - 1])
    if site != len(rrec):
        raise ValueError(f"the doubled site lands on site {site}, not {len(rrec)}; resultant mismatch")
    # relabelling keeps the order, so the pair stays ascending
    chips = tuple([relabel[c] for c in config.chips if c in relabel])
    return Configuration(n=len(chips) - 1, p=site, chips=chips)


def _infer_p(perm: Perm, i: int, j: int) -> int:
    n = len(perm) - 1
    matches = [
        p for p in range(1, n + 1) if is_p_resultant(perm, p) and record_class(perm, p) == (i, j)
    ]
    if len(matches) != 1:
        raise ValueError(
            f"cannot infer the doubled site for {perm} with record counts ({i}, {j}); "
            f"candidates {matches}"
        )
    return matches[0]


def phi_inverse(reduced: Configuration, perm: Perm, p: int | None = None) -> Configuration:
    """
    Rebuild the configuration toppling to perm from its record skeleton.
    Chips of the reduced configuration are relabelled to the record values
    of perm; every other value of perm is a non-record with a forced site:
    the one at 1-based position m of perm goes to site p+m-1 when it
    belongs to the prefix and to site p+m-n-1 when it belongs to the
    suffix. The remaining sites receive the skeleton in order. ``p`` may be omitted when the record
    counts determine it.
    """
    i = reduced.n + 1 - reduced.p
    j = reduced.p
    if p is None:
        p = _infer_p(perm, i, j)
    n = len(perm) - 1
    if not 1 <= p <= n:
        raise ValueError(f"p outside 1..{n}")
    if not is_p_resultant(perm, p):
        raise ValueError(f"{perm} is not a resultant for doubled site {p}")
    lrec, rrec = record_split(perm, p)
    if len(lrec) != i or len(rrec) != j:
        raise ValueError(
            f"skeleton shape ({i},{j}) does not match the records of {perm} at p={p}"
        )
    keep = lrec + rrec
    placed: dict[int, int] = {}
    cut = n + 1 - p
    for m, value in enumerate(perm, start=1):
        if value not in keep:
            placed[p + m - 1 if m <= cut else p + m - n - 1] = value
    free_sites = [site for site in range(1, n + 1) if site not in placed]
    if len(free_sites) != reduced.n:
        raise ValueError("forced sites collide; invalid perm/skeleton combination")
    if free_sites[j - 1] != p:
        raise ValueError("doubled site would not land on p; invalid combination")
    chips = [0] * (n + 1)
    for site, value in placed.items():
        chips[site - 1 if site < p else site] = value
    # the skeleton's chips fill the free slots in order, its pair at p
    skeleton = iter([keep[c - 1] for c in reduced.chips])
    return Configuration(n=n, p=p, chips=tuple([c or next(skeleton) for c in chips]))
