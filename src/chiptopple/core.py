"""Permutations, chip configurations with a doubled site, and conversions between them.

Permutations use one-line notation as tuples of the values 1..n; tuple
indexing is 0-based while all the combinatorial statements below speak of
1-based positions. Configurations place the n+1 labelled chips 1..n+1 on
sites 1..n with exactly one site (the doubled site p) holding an unordered
pair. A configuration stores its chips as one word of n+1 chips in site
order, the pair ascending at indices p-1 and p. A marked configuration is a
configuration with one chip r of the pair named as the chip that was added
on top of a permutation; code passes it as the configuration and r.
"""
from __future__ import annotations

import dataclasses
import re
from typing import Iterable, Sequence

Perm = tuple[int, ...]

# Ordered (position, value) pairs, 1-based positions; values and positions
# are strictly increasing along the list for both record directions.
RecordList = tuple[tuple[int, int], ...]


def make_permutation(values: Iterable[int]) -> Perm:
    """
    Validate one-line notation and return it as a tuple.

    >>> make_permutation([6, 2, 1, 4, 3, 5, 7])
    (6, 2, 1, 4, 3, 5, 7)
    >>> make_permutation([1, 1, 2])
    Traceback (most recent call last):
    ...
    ValueError: not a permutation of 1..3: (1, 1, 2)
    """
    perm = tuple(values)
    if not perm:
        raise ValueError("empty sequence is not a permutation")
    n = len(perm)
    if set(perm) != set(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {perm}")
    return perm


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def inverse(perm: Perm) -> Perm:
    """
    Positions of each value: result[v-1] is where v sits in perm (1-based).

    >>> inverse((6, 2, 1, 4, 3, 5, 7))
    (3, 2, 5, 4, 6, 1, 7)
    """
    inv = [0] * len(perm)
    for pos, value in enumerate(perm, start=1):
        inv[value - 1] = pos
    return tuple(inv)


def records(perm: Perm, direction: str = "left_max") -> RecordList:
    """
    Record positions and values of a permutation.

    ``left_max`` lists the left-to-right maxima (position j with
    perm_j = max of the prefix); ``right_min`` lists the right-to-left
    minima (perm_j = min of the suffix). The first, respectively last,
    entry is always a record.

    >>> records((4, 1, 2, 3))
    ((1, 4),)
    >>> records((5, 6), "right_min")
    ((1, 5), (2, 6))
    """
    out: list[tuple[int, int]] = []
    best: int | None = None
    if direction == "left_max":
        for pos, value in enumerate(perm, start=1):
            if best is None or value > best:
                out.append((pos, value))
                best = value
        return tuple(out)
    if direction == "right_min":
        for pos in range(len(perm), 0, -1):
            value = perm[pos - 1]
            if best is None or value < best:
                out.append((pos, value))
                best = value
        return tuple(reversed(out))
    raise ValueError(f"unknown record direction: {direction!r}")


def left_record_values(perm: Perm) -> tuple[int, ...]:
    return tuple(value for _, value in records(perm, "left_max"))


def right_record_values(perm: Perm) -> tuple[int, ...]:
    return tuple(value for _, value in records(perm, "right_min"))


def split_at(perm: Perm, p: int) -> tuple[Perm, Perm] | None:
    """
    Split perm in S_n into its first n-p entries and last p entries,
    provided the prefix is a permutation of 1..n-p. Returns None when the
    prefix condition fails (the permutation is not decomposable there).
    The right part keeps its original values n-p+1..n.

    >>> split_at((1, 2, 4, 3), 2)
    ((1, 2), (4, 3))
    >>> split_at((2, 4, 1, 3), 2) is None
    True
    """
    n = len(perm)
    if not 1 <= p <= n:
        raise ValueError(f"p out of range: {p}")
    cut = n - p
    left = perm[:cut]
    if set(left) != set(range(1, cut + 1)):
        return None
    return left, perm[cut:]


def record_split(perm: Perm, p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """
    Left-record values of the first n-p entries and right-record values
    of the last p entries; their lengths are the ``record_class``.

    >>> record_split((2, 1, 3, 5, 4), 2)
    ((2, 3), (4,))
    """
    cut = len(perm) - p
    return left_record_values(perm[:cut]), right_record_values(perm[cut:])


def record_class(perm: Perm, p: int) -> tuple[int, int]:
    """
    The record class (i, j) of a resultant: the lengths of ``record_split``.

    >>> record_class((2, 1, 3, 5, 4), 2)
    (2, 1)
    """
    lrec, rrec = record_split(perm, p)
    return len(lrec), len(rrec)


def marked_split(perm: Perm, p: int, r: int) -> tuple[int, int, int]:
    """
    Class key of a marked resultant: (a, b, k) with a left records of the
    prefix below r, b above it, and k right records of the suffix. For
    r > n-p the added chip lands in the suffix, and the key is read as on
    the mirrored instance: suffix records above r, suffix records below
    r, and the prefix record count.

    >>> marked_split((2, 1, 3, 5, 4), 2, 1), marked_split((2, 1, 3, 5, 4), 2, 5)
    ((0, 2, 1), (0, 1, 2))
    """
    lrec, rrec = record_split(perm, p)
    if r > len(perm) - p:
        return sum(v > r for v in rrec), sum(v < r for v in rrec), len(lrec)
    return sum(v < r for v in lrec), sum(v > r for v in lrec), len(rrec)


def reverse_complement_perm(perm: Perm) -> Perm:
    """Reverse the positions and complement the values v -> n+1-v."""
    n = len(perm)
    return tuple(n + 1 - v for v in reversed(perm))


@dataclasses.dataclass(frozen=True)
class Configuration:
    """
    n+1 labelled chips on sites 1..n, with an unordered pair at site p.

    ``chips`` holds the n+1 chips in site order with the pair ascending at
    indices p-1 and p: chip index k sits on site k+1 before the pair and on
    site k after it.
    """

    n: int
    p: int
    chips: tuple[int, ...]

    def __post_init__(self) -> None:
        n, p, chips = self.n, self.p, self.chips
        if n < 1:
            raise ValueError("configuration needs at least one site")
        if not 1 <= p <= n:
            raise ValueError(f"doubled site {p} outside 1..{n}")
        if len(chips) != n + 1:
            raise ValueError(f"{len(chips)} chips on {n} sites, expected {n + 1}")
        if chips[p - 1] > chips[p]:
            raise ValueError(f"the pair at site {p} must be ascending")
        if set(chips) != set(range(1, n + 2)):
            raise ValueError(f"chip labels must be exactly 1..{n + 1}")

    @property
    def pair(self) -> tuple[int, int]:
        return self.chips[self.p - 1 : self.p + 1]  # type: ignore[return-value]

    @classmethod
    def _trusted(cls, n: int, p: int, chips: tuple[int, ...]) -> "Configuration":
        """Build without validation, for producers whose output is valid by construction."""
        config = object.__new__(cls)
        config.__dict__.update(n=n, p=p, chips=chips)
        return config


def make_configuration(site_contents: Sequence[int | Iterable[int]]) -> Configuration:
    """
    Build a configuration from per-site contents; exactly one entry must be
    a pair, which determines the doubled site.

    >>> make_configuration([1, (3, 2), 4]).pair
    (2, 3)
    """
    chips: list[int] = []
    p = 0
    bad = ""  # the first site of 0 or 3+ chips; a missing or second pair is reported first
    for i, content in enumerate(site_contents, start=1):
        content = [content] if isinstance(content, int) else sorted(content)
        if len(content) == 2:
            if p:
                raise ValueError("more than one doubled site")
            p = i
        elif len(content) != 1 and not bad:
            bad = f"site {i} holds {len(content)} chips, expected 1"
        chips += content
    if not p:
        raise ValueError("no doubled site found")
    if bad:
        raise ValueError(bad)
    return Configuration(n=len(chips) - 1, p=p, chips=tuple(chips))


def lift(perm: Perm, r: int, p: int) -> Configuration:
    """
    Place chip perm_i at site i after bumping every value >= r up by one,
    then add the chip r at site p, where it is the mark.

    >>> config = lift((6, 2, 1, 4, 3, 5, 7), 2, 5)
    >>> config.chips, config.pair
    ((7, 3, 1, 5, 2, 4, 6, 8), (2, 4))
    """
    n = len(perm)
    if not 1 <= r <= n + 1:
        raise ValueError(f"extra chip {r} outside 1..{n + 1}")
    if not 1 <= p <= n:
        raise ValueError(f"site {p} outside 1..{n}")
    chips = [value if value < r else value + 1 for value in perm]
    chips.insert(p - 1 if r < chips[p - 1] else p, r)
    return Configuration(n=n, p=p, chips=tuple(chips))


def unlift(config: Configuration) -> tuple[tuple[Perm, int], tuple[Perm, int]]:
    """
    The two (permutation, r) readings of a configuration: delete either
    chip of the pair and close the label gap. Returned with r ascending;
    ``lift`` is a left inverse of both readings.
    """
    return tuple(  # type: ignore[return-value]
        (make_permutation([c if c < r else c - 1 for c in config.chips if c != r]), r)
        for r in config.pair
    )


def map_w(config: Configuration, mark: int) -> Perm:
    """
    Read config with the chip ``mark`` of its pair marked as a permutation
    of 1..n+1: the unmarked chips in site order with the mark spliced in
    right after site p.

    >>> map_w(lift((6, 2, 1, 4, 3, 5, 7), 2, 5), 2)
    (7, 3, 1, 5, 4, 2, 6, 8)
    """
    low, high = config.pair
    if mark not in (low, high):
        raise ValueError(f"mark {mark} is not at the doubled site")
    chips, p = config.chips, config.p
    return chips[: p - 1] + ((high, low) if mark == low else (low, high)) + chips[p + 1 :]


def reverse_complement(config: Configuration) -> Configuration:
    """
    Reflect sites i -> n+1-i and complement chips c -> n+2-c. An involution
    carrying the doubled site p to n+1-p.
    """
    top = config.n + 2
    # the reversal swaps the pair and complementing swaps it back: it stays ascending
    chips = tuple([top - c for c in reversed(config.chips)])
    return Configuration._trusted(config.n, config.n + 1 - config.p, chips)


# ---------------------------------------------------------------------------
# Text literals
#
# Configuration: comma-separated chips in site order, doubled site in
# parentheses, e.g. "7,3,1,5,(2,4),6,8". Permutation: contiguous digits
# when n <= 9 (e.g. "6214357"), comma-separated otherwise. Chips are ASCII
# digits; spaces may surround any chip or pair, and nothing else is read.
# ---------------------------------------------------------------------------

_CHIPS = r" *[0-9]+ *(?:, *[0-9]+ *)*"
_CHIPS_RE = re.compile(_CHIPS)
_PAIR_RE = re.compile(r"\(([^()]*)\)")
_CONFIGURATION_RE = re.compile(rf"(?:{_CHIPS},)? *\({_CHIPS}\) *(?:,{_CHIPS})?")


def _chip_values(tokens: list[str], kind: str, text: str) -> list[int]:
    """
    The values of a literal's chip tokens. No chip exceeds the number of
    chips, so a token with more significant digits than that number is
    rejected before ``int`` reads it.
    """
    width = len(str(len(tokens)))
    if any(len(tok.strip().lstrip("0")) > width for tok in tokens):
        raise ValueError(f"cannot parse {kind} literal: {text!r}")
    return [int(tok) for tok in tokens]


def parse_permutation(text: str) -> Perm:
    text = text.strip()
    if not _CHIPS_RE.fullmatch(text):
        raise ValueError(f"cannot parse permutation literal: {text!r}")
    return make_permutation(_chip_values(text.split(",") if "," in text else list(text), "permutation", text))


def format_permutation(perm: Perm) -> str:
    if len(perm) <= 9:
        return "".join(str(v) for v in perm)
    return ",".join(str(v) for v in perm)


def parse_configuration(text: str) -> Configuration:
    text = text.strip()
    if "*" in text:
        raise ValueError("unexpected marked chip in plain configuration literal")
    match = _PAIR_RE.search(text)
    if match is None:
        raise ValueError(f"configuration literal has no doubled site: {text!r}")
    raw_pair = match.group(1)
    if _CHIPS_RE.fullmatch(raw_pair) and raw_pair.count(",") != 1:
        raise ValueError(f"doubled site must hold exactly two chips: ({raw_pair})")
    if _PAIR_RE.search(text, match.end()):
        raise ValueError("more than one doubled site")
    if not _CONFIGURATION_RE.fullmatch(text):
        raise ValueError(f"cannot parse configuration literal: {text!r}")
    chips = _chip_values(re.findall("[0-9]+", text), "configuration", text)
    p = text.count(",", 0, match.start())  # chips before the pair
    return make_configuration([*chips[:p], chips[p : p + 2], *chips[p + 2 :]])


def format_configuration(config: Configuration) -> str:
    parts = list(map(str, config.chips))
    i = config.p - 1
    parts[i : i + 2] = [f"({parts[i]},{parts[i + 1]})"]
    return ",".join(parts)
