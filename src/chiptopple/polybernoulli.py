"""Poly-Bernoulli numbers of types B and C and the counting formulas built on them.

Everything is exact integer arithmetic. Each of B(n,k) and C(n,k) comes in
three independent flavours (closed sum over Stirling numbers, signed
inclusion-exclusion sum, and a column recurrence) that must agree; the
default cached accessors use the closed formula. The B array is OEIS
A099594.

The two sums are evaluated by Horner's rule on their factorial weights,
from the top index down, so no term builds m! or (m!)^2. Each recurrence
entry is one dot product of a binomial row with the previous column, and
the columns are filled row by row so that one binomial row serves every
column that needs that row.
"""
from __future__ import annotations

from functools import cache, partial
from itertools import count, repeat
from math import comb
from operator import add, mul
from typing import Callable, Iterator, Sequence

from .core import Perm, marked_split, split_at
from .families import validate_r_placement

METHODS = ("closed", "inclusion_exclusion", "recurrence")

# Tables kept as columns and filled without recursion. Entry t of column c
# depends only on the entries before it in column c and on entries 0..t of
# column c-1, so a column is never longer than the one before it.
_STIRLING: list[list[int]] = []  # _STIRLING[m][t] = S(m+t, m), from the diagonal down
_B_RECURRENCE: list[list[int]] = []  # _B_RECURRENCE[k][n] = B(n, k)
_C_RECURRENCE: list[list[int]] = []  # _C_RECURRENCE[k][n] = C(n, k)


def _extend(
    columns: list[list[int]], last: int, depth: int, rows: Callable[[int], Iterator[Callable[[int], int]]]
) -> None:
    """
    Grow columns 0..last to ``depth`` entries each, row-major: rows(t0)
    yields, for t = t0, t0+1, ..., the function that maps c to entry t of
    column c, and that function is called for the short columns in
    ascending c, so entry t of column c-1 is in place before column c
    needs it. What a row shares between its entries (a binomial row for
    the recurrences) is built once per row and dropped after it. Only the
    columns that are too short are touched.
    """
    short = last
    while short >= 0 and (short >= len(columns) or len(columns[short]) < depth):
        short -= 1
    while len(columns) <= last:
        columns.append([])
    # the columns first..last are the ones t entries long: a suffix, since
    # no column is longer than the one before it
    start, first = len(columns[last]), last
    for t, entry in zip(range(start, depth), rows(start)):
        while first > short + 1 and len(columns[first - 1]) == t:
            first -= 1
        try:
            for c in range(first, last + 1):
                columns[c].append(entry(c))
        except MemoryError:
            columns.clear()  # given back here, before the unwinding (a generator's close, say) must allocate
            raise


def _stirling_entry(t: int, m: int) -> int:
    if t == 0:
        return 1
    left = _STIRLING[m - 1][t] if m else 0
    return m * _STIRLING[m][t - 1] + left


def _stirling_rows(start: int) -> Iterator[Callable[[int], int]]:
    for t in count(start):
        yield partial(_stirling_entry, t)


def _binomial_rows(entry: Callable[[int, list[int], int], int], start: int) -> Iterator[Callable[[int], int]]:
    """
    Rows for ``_extend`` whose entries read a binomial row: row n maps c to
    entry(n, [binom(n, 0), ..., binom(n, n)], c). Each binomial row after
    the first comes from the one before by Pascal's rule.
    """
    row = list(map(comb, repeat(start), range(start + 1)))
    for n in count(start):
        yield partial(entry, n, row)
        row = [1, *map(add, row, row[1:]), 1]


@cache
def stirling2(n: int, m: int) -> int:
    """
    Stirling number of the second kind: set partitions of n elements into
    m non-empty parts. S(0,0) = 1 and S(n,m) = 0 for m > n. Computed column
    by column from S(n,m) = m S(n-1,m) + S(n-1,m-1), for the columns up to
    m only.

    >>> [stirling2(4, m) for m in range(5)]
    [0, 1, 7, 6, 1]
    """
    if n < 0 or m < 0:
        raise ValueError("negative index")
    if m > n:
        return 0
    _extend(_STIRLING, m, n - m + 1, _stirling_rows)
    return _STIRLING[m][n - m]


@cache
def b_number(n: int, k: int) -> int:
    """
    Cached B(n,k) via the closed formula, by Horner's rule on (m!)^2: from
    m = min(n,k) down, total = total (m+1)^2 + S(n+1,m+1) S(k+1,m+1).
    """
    total = 0
    for m in range(min(n, k), -1, -1):
        total = total * (m + 1) ** 2 + stirling2(n + 1, m + 1) * stirling2(k + 1, m + 1)
    return total


def _b_inclusion_exclusion(n: int, k: int) -> int:
    """
    Horner's rule on m!, with the sign (-1)^(n-m) folded in: from m = n
    down, total = S(n,m) (m+1)^k - (m+1) total gives the sum times (-1)^n.
    """
    total = 0
    for m in range(n, -1, -1):
        total = stirling2(n, m) * (m + 1) ** k - (m + 1) * total
    return -total if n % 2 else total


def _b_recurrence_entry(n: int, binomials: list[int], k: int) -> int:
    if k == 0 or n == 0:
        return 1
    # sum over m of binom(n,m) B(n-m+1,k-1), read as binom(n,j-1) B(j,k-1)
    # for j = n-m+1 since binom(n,m) = binom(n,n-m)
    previous = _B_RECURRENCE[k - 1]
    return previous[n] + sum(map(mul, binomials, previous[1 : n + 1]))


def _b_recurrence(n: int, k: int) -> int:
    _extend(_B_RECURRENCE, k, n + 1, partial(_binomial_rows, _b_recurrence_entry))
    return _B_RECURRENCE[k][n]


@cache
def c_number(n: int, k: int) -> int:
    """
    Cached C(n,k) via the closed formula, by Horner's rule on (m!)^2: from
    m = min(n,k) down, total = total (m+1)^2 + S(n+1,m+1) S(k,m).
    """
    total = 0
    for m in range(min(n, k), -1, -1):
        total = total * (m + 1) ** 2 + stirling2(n + 1, m + 1) * stirling2(k, m)
    return total


def _c_inclusion_exclusion(n: int, k: int) -> int:
    """
    Horner's rule on m!, with the sign (-1)^(k+m) folded in: from m = k
    down, total = (m+1)^n S(k+1,m+1) - (m+1) total gives the sum times (-1)^k.
    """
    # The sum runs over the second index: the same sum over the first one
    # produces the transposed array (it disagrees with C(2,1) = 3 already).
    total = 0
    for m in range(k, -1, -1):
        total = (m + 1) ** n * stirling2(k + 1, m + 1) - (m + 1) * total
    return -total if k % 2 else total


def _c_recurrence_entry(n: int, binomials: list[int], k: int) -> int:
    if k == 0:
        return 1
    if n == 0:
        return 0
    return sum(map(mul, binomials, _C_RECURRENCE[k - 1][1 : n + 1]))


def _c_recurrence(n: int, k: int) -> int:
    _extend(_C_RECURRENCE, k, n + 1, partial(_binomial_rows, _c_recurrence_entry))
    return _C_RECURRENCE[k][n]


def _drop_tables() -> None:
    """Empty the kept tables and the accessors' caches, giving back the memory they hold."""
    for table, accessor in zip((_STIRLING, _B_RECURRENCE, _C_RECURRENCE), (stirling2, b_number, c_number)):
        table.clear()
        accessor.cache_clear()


_B_METHODS: dict[str, Callable[[int, int], int]] = {
    "closed": b_number,
    "inclusion_exclusion": _b_inclusion_exclusion,
    "recurrence": _b_recurrence,
}

_C_METHODS: dict[str, Callable[[int, int], int]] = {
    "closed": c_number,
    "inclusion_exclusion": _c_inclusion_exclusion,
    "recurrence": _c_recurrence,
}


def _evaluate(methods: dict[str, Callable[[int, int], int]], n: int, k: int, method: str) -> int:
    """The value at (n, k) by the named one of ``methods``, after the index and method checks."""
    if n < 0 or k < 0:
        raise ValueError("negative index")
    try:
        fn = methods[method]
    except KeyError:
        raise ValueError(f"unknown method {method!r}") from None
    return fn(n, k)


def poly_bernoulli_B(n: int, k: int, method: str = "closed") -> int:
    """
    Type B poly-Bernoulli number B(n,k).

    closed: sum over m of (m!)^2 S(n+1,m+1) S(k+1,m+1);
    inclusion_exclusion: sum over m of (-1)^(n-m) m! S(n,m) (m+1)^k;
    recurrence: B(n,k+1) = B(n,k) + sum_m binom(n,m) B(n-m+1,k) with the
    column B(n,0) = 1.

    >>> poly_bernoulli_B(2, 2)
    14
    >>> poly_bernoulli_B(5, 5)
    329462
    """
    return _evaluate(_B_METHODS, n, k, method)


def poly_bernoulli_C(n: int, k: int, method: str = "closed") -> int:
    """
    Type C poly-Bernoulli number C(n,k).

    closed: sum over m of (m!)^2 S(n+1,m+1) S(k,m);
    inclusion_exclusion: sum over m of (-1)^(k+m) m! (m+1)^n S(k+1,m+1);
    recurrence: C(n,k+1) = sum_m binom(n,m) C(n-m+1,k) for n >= 1, with
    C(n,0) = 1 and C(0,k) = 0 for k >= 1.

    >>> poly_bernoulli_C(2, 2)
    7
    >>> poly_bernoulli_C(5, 5)
    164731
    """
    return _evaluate(_C_METHODS, n, k, method)


def forward_difference(f: Callable[[int], int], order: int, at: int) -> int:
    """
    Iterated forward difference of an integer family: order m at base x is
    sum over j of (-1)^(m-j) binom(m,j) f(x+j); order 0 is f itself.

    >>> forward_difference(lambda n: n * n, 2, 0)
    2
    """
    if order < 0:
        raise ValueError("negative order")
    terms = list(map(mul, map(comb, repeat(order), range(order + 1)), map(f, range(at, at + order + 1))))
    # term j carries the sign (-1)^(order-j): positive where j has order's parity
    return sum(terms[order % 2 :: 2]) - sum(terms[1 - order % 2 :: 2])


def binomial_transform(prefix: Sequence[int]) -> tuple[int, ...]:
    """
    Alternating binomial transform: b_n = sum_k (-1)^k binom(n,k) a_k.
    Involutive on sequences; related to forward differences by
    Delta^m f at 0 = (-1)^m b_m.

    >>> binomial_transform((1, 1, 1))
    (1, 0, 0)
    >>> binomial_transform((1, 2, 4))
    (1, -1, 1)
    """
    return tuple(
        sum((-1) ** k * comb(n, k) * prefix[k] for k in range(n + 1))
        for n in range(len(prefix))
    )


def count_toppleable_configs(n: int, p: int) -> int:
    """
    Configurations of n+1 chips on n sites (pair at p) that topple to the
    sorted arrangement: B(n-p+1, p)/2, the resultant class of the identity.
    """
    if not 1 <= p <= n:
        raise ValueError(f"p outside 1..{n}")
    return count_resultant_class(n - p + 1, p)


def count_rp_toppleable(n: int, p: int, r: int, method: str = "delta") -> int:
    """
    Number of permutations of 1..n that topple to the identity when chip r
    is added at site p.

    delta: Delta^(r-1) B(n-p+1-r, p) in the first index for r <= n-p+1,
    the mirrored parameters (n+1-p, n+2-r) otherwise. c_sum: binomially
    weighted sums of type C numbers, split along the same boundary.

    >>> count_rp_toppleable(5, 2, 3)
    22
    """
    if not 1 <= p <= n or not 1 <= r <= n + 1:
        raise ValueError(f"(p, r) = ({p}, {r}) outside range for n = {n}")
    if method == "delta":
        if r > n - p + 1:
            return count_rp_toppleable(n, n + 1 - p, n + 2 - r, method)
        return forward_difference(lambda i: b_number(i, p), r - 1, n - p + 1 - r)
    if method == "c_sum":
        if r <= n - p + 1:
            top = n - p + 1 - r
            return sum(comb(top, i) * c_number(p, n - p - i) for i in range(top + 1))
        top = r - n + p - 2
        return sum(comb(top, i) * c_number(n - p + 1, p - i - 1) for i in range(top + 1))
    raise ValueError(f"unknown method {method!r}")


def count_all_r_toppleable(n: int, p: int) -> int:
    """Permutations toppleable for every extra chip value: C(p, n-p)."""
    if not 1 <= p <= n:
        raise ValueError(f"p outside 1..{n}")
    return c_number(p, n - p)


def count_resultant_class(i: int, j: int) -> int:
    """
    Configurations toppling to any fixed resultant whose left part has i
    records and right part j records: B(i,j)/2. B is even there, so the
    division is exact; a remainder would mean the kernel is broken.
    """
    if i < 1 or j < 1:
        raise ValueError("record counts must be at least 1")
    value = b_number(i, j)
    if value % 2:
        raise ArithmeticError(f"B({i},{j}) = {value} is odd")
    return value // 2


def count_N_pi(perm: Perm, r: int, p: int) -> int:
    """
    Number of permutations of 1..n-1 that topple to the resultant perm (in
    S_n) when chip r is added at site p.

    For r <= n-p, with the left-record values of the prefix splitting into
    a records below r and b above it and k right-records in the suffix,
    this is Delta^a B(b,k) in the first index; at r = n-p it collapses to
    C(k, a). Larger r goes through the reverse-complement symmetry.
    Raises when perm is not a resultant reachable with chip r.
    """
    n = len(perm)
    if not 1 <= p <= n - 1 or not 1 <= r <= n:
        raise ValueError(f"(p, r) = ({p}, {r}) outside range for a resultant in S_{n}")
    if not validate_r_placement(perm, p, r):
        if split_at(perm, p) is None:
            raise ValueError(f"{perm} is not decomposable at prefix length {n - p}")
        raise ValueError(f"chip {r} cannot produce resultant {perm} at site {p}")
    a, b, k = marked_split(perm, p, r)
    return forward_difference(lambda i: b_number(i, k), a, b)
