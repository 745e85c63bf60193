"""Expected values for the benchmark, computed without the library.

Stirling numbers of the second kind are built row by row (no recursion),
so the oracle reaches indices where the library's recursive kernel fails.
The poly-Bernoulli values and the counting formulas below restate the
paper's identities in this module's own code; the benchmark compares the
library's outputs against them outside the timed region.
"""
from __future__ import annotations

from math import comb, factorial


def stirling_rows(n_max: int, m_max: int) -> list[list[int]]:
    """rows[n][m] = S(n, m) for 0 <= n <= n_max and 0 <= m <= m_max."""
    rows = [[1] + [0] * m_max]
    for n in range(1, n_max + 1):
        prev = rows[-1]
        row = [0] * (m_max + 1)
        for m in range(1, min(n, m_max) + 1):
            row[m] = m * prev[m] + prev[m - 1]
        rows.append(row)
    return rows


def left_maxima(values) -> list[int]:
    out: list[int] = []
    for v in values:
        if not out or v > out[-1]:
            out.append(v)
    return out


def right_minima(values) -> list[int]:
    out: list[int] = []
    for v in reversed(values):
        if not out or v < out[-1]:
            out.append(v)
    return out


class PolyBernoulli:
    """
    B(n,k) and C(n,k) for max(n,k) <= size and min(n,k) <= width, with
    the counting formulas that are built on them.

    >>> oracle = PolyBernoulli(5)
    >>> oracle.B(5, 5), oracle.C(5, 5)
    (329462, 164731)
    """

    def __init__(self, size: int, width: int | None = None) -> None:
        width = size if width is None else width
        self.size, self.width = size, width
        self._s = stirling_rows(size + 1, width + 1)
        self._fact2 = [factorial(m) ** 2 for m in range(width + 1)]

    def _check(self, n: int, k: int) -> None:
        if min(n, k) < 0 or max(n, k) > self.size or min(n, k) > self.width:
            raise ValueError(f"({n}, {k}) outside the oracle's range")

    def B(self, n: int, k: int) -> int:
        """sum over m of (m!)^2 S(n+1,m+1) S(k+1,m+1)."""
        self._check(n, k)
        s = self._s
        return sum(self._fact2[m] * s[n + 1][m + 1] * s[k + 1][m + 1] for m in range(min(n, k) + 1))

    def C(self, n: int, k: int) -> int:
        """sum over m of (m!)^2 S(n+1,m+1) S(k,m)."""
        self._check(n, k)
        s = self._s
        return sum(self._fact2[m] * s[n + 1][m + 1] * s[k][m] for m in range(min(n, k) + 1))

    def delta_B(self, order: int, at: int, k: int) -> int:
        """Forward difference of order `order` of i -> B(i, k) at i = at."""
        return sum((-1) ** (order - j) * comb(order, j) * self.B(at + j, k) for j in range(order + 1))

    def toppleable(self, n: int, p: int) -> int:
        """Configurations of S(n,p) that topple to the sorted state."""
        return self.half(n - p + 1, p)

    def half(self, i: int, j: int) -> int:
        value = self.B(i, j)
        if value % 2:
            raise ArithmeticError(f"B({i},{j}) is odd")
        return value // 2

    def rp(self, n: int, p: int, r: int) -> int:
        """Permutations of 1..n that sort with chip r added at site p."""
        if r > n - p + 1:
            p, r = n + 1 - p, n + 2 - r
        return self.delta_B(r - 1, n - p + 1 - r, p)

    def all_r(self, n: int, p: int) -> int:
        return self.C(p, n - p)

    def n_pi(self, perm: tuple[int, ...], r: int, p: int) -> int:
        """Permutations of 1..n-1 toppling to perm with chip r at site p."""
        n = len(perm)
        if r > n - p:
            perm = tuple(n + 1 - v for v in reversed(perm))
            p, r = n - p, n + 1 - r
        lrec = left_maxima(perm[: n - p])
        a = sum(1 for v in lrec if v < r)
        b = sum(1 for v in lrec if v > r)
        return self.delta_B(a, b, len(right_minima(perm[n - p :])))
