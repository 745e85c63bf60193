import random
import tracemalloc
from itertools import pairwise, permutations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiptopple import polybernoulli
from chiptopple.polybernoulli import (
    METHODS,
    b_number,
    binomial_transform,
    c_number,
    count_N_pi,
    count_all_r_toppleable,
    count_resultant_class,
    count_rp_toppleable,
    count_toppleable_configs,
    forward_difference,
    poly_bernoulli_B,
    poly_bernoulli_C,
    stirling2,
)

# Table values for 0 <= n,k <= 5. The (4,4) entry of the printed B table
# reads 6906, but all three formulas, the symmetry relations, and the
# exhaustive window count over S_8 give 6902; the frozen value is the
# computed one and the discrepancy is asserted explicitly below.
B_TABLE = [
    [1, 1, 1, 1, 1, 1],
    [1, 2, 4, 8, 16, 32],
    [1, 4, 14, 46, 146, 454],
    [1, 8, 46, 230, 1066, 4718],
    [1, 16, 146, 1066, 6902, 41506],
    [1, 32, 454, 4718, 41506, 329462],
]
C_TABLE = [
    [1, 0, 0, 0, 0, 0],
    [1, 1, 1, 1, 1, 1],
    [1, 3, 7, 15, 31, 63],
    [1, 7, 31, 115, 391, 1267],
    [1, 15, 115, 675, 3451, 16275],
    [1, 31, 391, 3451, 25231, 164731],
]


def partitions_into(n: int, m: int) -> int:
    """Set-partition counting oracle: enumerate block assignments."""
    count = 0
    for assignment in _assignments(n):
        if max(assignment, default=-1) + 1 == m:
            count += 1
    return count


def _assignments(n: int):
    # restricted growth strings encode set partitions uniquely
    def extend(prefix):
        if len(prefix) == n:
            yield prefix
            return
        top = max(prefix, default=-1)
        for value in range(top + 2):
            yield from extend(prefix + [value])

    yield from extend([])


class TestStirling:
    @pytest.mark.parametrize("n", range(0, 8))
    def test_against_partition_oracle(self, n):
        for m in range(0, n + 2):
            assert stirling2(n, m) == partitions_into(n, m)

    def test_examples(self):
        assert stirling2(3, 2) == 3
        assert stirling2(4, 2) == 7
        assert all(stirling2(n, 1) == 1 for n in range(1, 10))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            stirling2(-1, 0)


class TestTables:
    @pytest.mark.parametrize("method", METHODS)
    def test_b_table(self, method):
        for n in range(6):
            for k in range(6):
                assert poly_bernoulli_B(n, k, method) == B_TABLE[n][k]

    @pytest.mark.parametrize("method", METHODS)
    def test_c_table(self, method):
        for n in range(6):
            for k in range(6):
                assert poly_bernoulli_C(n, k, method) == C_TABLE[n][k]

    def test_printed_b44_differs_from_every_method(self):
        assert all(poly_bernoulli_B(4, 4, method) == 6902 != 6906 for method in METHODS)

    def test_three_methods_agree_up_to_12(self):
        for n in range(13):
            for k in range(13):
                assert len({poly_bernoulli_B(n, k, m) for m in METHODS}) == 1
                assert len({poly_bernoulli_C(n, k, m) for m in METHODS}) == 1

    def test_symmetries(self):
        for n in range(13):
            for k in range(13):
                assert b_number(n, k) == b_number(k, n)
                if n < 12 and k < 12:
                    assert c_number(n + 1, k) == c_number(k + 1, n)

    def test_relations(self):
        for n in range(11):
            for k in range(11):
                assert b_number(n, k) == sum(
                    comb(k, i) * c_number(n, i) for i in range(k + 1)
                )
                if k >= 1:
                    assert b_number(n, k) == c_number(n, k) + c_number(n + 1, k - 1)

    def test_parity_and_powers(self):
        for n in range(1, 11):
            assert b_number(n, 1) == 2**n
            for k in range(1, 11):
                assert b_number(n, k) % 2 == 0

    @given(st.integers(0, 4), st.integers(2000, 2500))
    @settings(max_examples=20, deadline=None)
    def test_methods_agree_past_the_recursion_limit(self, small, big):
        assert len({poly_bernoulli_B(small, big, method) for method in METHODS}) == 1
        assert poly_bernoulli_C(big, small, "closed") == poly_bernoulli_C(
            big, small, "inclusion_exclusion"
        )

    @pytest.mark.parametrize("method", METHODS)
    def test_b_against_textbook_sum(self, method, textbook_poly_bernoulli):
        b_table, _ = textbook_poly_bernoulli
        for n, row in enumerate(b_table):
            for k, expected in enumerate(row):
                assert poly_bernoulli_B(n, k, method) == expected, (n, k)

    @pytest.mark.parametrize("method", METHODS)
    def test_c_against_textbook_sum(self, method, textbook_poly_bernoulli):
        _, c_table = textbook_poly_bernoulli
        for n, row in enumerate(c_table):
            for k, expected in enumerate(row):
                assert poly_bernoulli_C(n, k, method) == expected, (n, k)

    def test_textbook_oracle_reads_the_printed_tables(self, textbook_poly_bernoulli):
        b_table, c_table = textbook_poly_bernoulli
        assert [row[:6] for row in b_table[:6]] == B_TABLE
        assert [row[:6] for row in c_table[:6]] == C_TABLE

    def test_recurrence_fill_keeps_one_binomial_row(self, monkeypatch):
        # the three columns to n = 600 take a few hundred kB; every binomial
        # row up to 600 kept at once would take about 12 MB
        monkeypatch.setattr(polybernoulli, "_B_RECURRENCE", [])
        tracemalloc.start()
        try:
            value = poly_bernoulli_B(600, 2, "recurrence")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == 2 * 3**600 - 2**600
        assert peak < 2_000_000

    def test_narrow_request_keeps_a_narrow_triangle(self):
        # B(3000,3) needs the columns S(.,0..4) only; the full triangle to
        # row 3001 would hold about 4.5 million big integers
        polybernoulli._drop_tables()
        value = poly_bernoulli_B(3000, 3)
        assert len(polybernoulli._STIRLING) == 5
        # inclusion-exclusion over the side of size 3
        assert value == 2**3000 - 6 * 3**3000 + 6 * 4**3000

    def test_each_sum_fills_the_triangle_once_and_not_through_stirling2(self, monkeypatch):
        polybernoulli._drop_tables()
        fill = polybernoulli._stirling_fill
        calls = []

        def counted(*args):
            calls.append(args)
            fill(*args)

        monkeypatch.setattr(polybernoulli, "_stirling_fill", counted)
        points = [(0, 0), (7, 3), (3, 60), (60, 41), (25, 25)]
        for n, k in points:
            for evaluate in (poly_bernoulli_B, poly_bernoulli_C):
                assert evaluate(n, k, "closed") == evaluate(n, k, "inclusion_exclusion"), (evaluate, n, k)
        assert len(calls) == 4 * len(points)
        assert stirling2.cache_info().misses == 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fill_order_does_not_matter(self, seed, textbook_poly_bernoulli):
        # wide and narrow requests interleaved, so columns grow out of order
        polybernoulli._drop_tables()
        points = [(40, 2), (3, 40), (25, 25), (0, 40), (40, 0), (17, 33), (33, 17), (40, 40), (2, 3)]
        requests = [
            (kind, method, n, k)
            for kind in "BC" for method in METHODS for n, k in points
        ]
        random.Random(seed).shuffle(requests)
        evaluate = {"B": poly_bernoulli_B, "C": poly_bernoulli_C}
        tables = dict(zip("BC", textbook_poly_bernoulli))
        for kind, method, n, k in requests:
            assert evaluate[kind](n, k, method) == tables[kind][n][k], (kind, method, n, k)
        # each Stirling column reaches at least as deep a row as the next one
        assert all(len(left) > len(right) for left, right in pairwise(polybernoulli._STIRLING))
        for table in (polybernoulli._B_RECURRENCE, polybernoulli._C_RECURRENCE):
            assert all(len(left) >= len(right) for left, right in pairwise(table))

    def test_errors(self):
        with pytest.raises(ValueError):
            poly_bernoulli_B(-1, 0)
        with pytest.raises(ValueError):
            poly_bernoulli_C(0, 0, "magic")


class TestDifferenceAndTransform:
    def test_difference_examples(self):
        assert forward_difference(lambda i: b_number(i, 1), 0, 4) == 16
        assert forward_difference(lambda i: b_number(i, 2), 1, 1) == 10
        assert forward_difference(lambda i: b_number(i, 2), 2, 1) == 22

    def test_transform_examples(self):
        assert binomial_transform((1, 1, 1, 1)) == (1, 0, 0, 0)
        assert binomial_transform((1, 2, 4)) == (1, -1, 1)

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=9).map(tuple))
    @settings(max_examples=80)
    def test_transform_is_involutive(self, seq):
        assert binomial_transform(binomial_transform(seq)) == seq

    @given(st.lists(st.integers(-20, 20), min_size=1, max_size=8).map(tuple))
    @settings(max_examples=80)
    def test_difference_matches_transform(self, seq):
        transformed = binomial_transform(seq)
        for m in range(len(seq)):
            delta = forward_difference(lambda i: seq[i], m, 0)
            assert delta == (-1) ** m * transformed[m]

    def test_b_columns_transform_to_transposed_c(self):
        # alternating transform of (B(i,k))_i lands on C with the indices
        # swapped; the straight reading fails already at n=2, k=3
        for k in range(9):
            column = tuple(b_number(i, k) for i in range(9))
            transformed = binomial_transform(column)
            for n in range(9):
                assert transformed[n] == (-1) ** n * c_number(k, n)
        assert binomial_transform(tuple(b_number(i, 3) for i in range(3)))[2] != c_number(2, 3)

    @pytest.mark.parametrize(
        "f",
        [lambda i: b_number(i, 3), lambda i: (-2) ** i + i**3 - 7, lambda i: 5],
        ids=["B(i,3)", "mixed-sign", "constant"],
    )
    def test_difference_matches_its_definition(self, f):
        # Delta^m f(x) by differencing the values f(x..x+m) m times
        for order in range(21):
            for at in (0, 1, 6, 17):
                values = [f(at + j) for j in range(order + 1)]
                for _ in range(order):
                    values = [b - a for a, b in zip(values, values[1:])]
                assert forward_difference(f, order, at) == values[0], (order, at)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            forward_difference(lambda i: i, -1, 0)


class TestCounts:
    def test_toppleable_configs(self):
        assert count_toppleable_configs(3, 2) == 7
        assert count_toppleable_configs(1, 1) == 1
        assert count_toppleable_configs(5, 2) == 73

    def test_rp_toppleable_examples(self):
        assert count_rp_toppleable(5, 2, 3) == 22
        assert count_rp_toppleable(4, 2, 2) == 10
        for n in range(1, 9):
            assert count_rp_toppleable(n, n, 1) == 1

    def test_rp_methods_agree(self):
        for n in range(1, 8):
            for p in range(1, n + 1):
                for r in range(1, n + 2):
                    assert count_rp_toppleable(n, p, r, "delta") == count_rp_toppleable(
                        n, p, r, "c_sum"
                    )

    def test_printed_rp_tables(self):
        n5 = [
            [16, 8, 4, 2, 1, 1],
            [46, 32, 22, 15, 15, 16],
            [46, 38, 31, 31, 38, 46],
            [16, 15, 15, 22, 32, 46],
            [1, 1, 2, 4, 8, 16],
        ]
        n4 = [[8, 4, 2, 1, 1], [14, 10, 7, 7, 8], [8, 7, 7, 10, 14], [1, 1, 2, 4, 8]]
        assert [[count_rp_toppleable(5, p, r) for r in range(1, 7)] for p in range(1, 6)] == n5
        assert [[count_rp_toppleable(4, p, r) for r in range(1, 6)] for p in range(1, 5)] == n4

    def test_first_column_is_b(self):
        for n in range(2, 9):
            for p in range(1, n):
                assert count_rp_toppleable(n, p, 1) == b_number(n - p, p)

    def test_all_r(self):
        assert count_all_r_toppleable(4, 2) == 7
        assert count_all_r_toppleable(5, 3) == 31
        for n in range(1, 9):
            assert count_all_r_toppleable(n, n) == 1

    def test_resultant_class(self):
        assert count_resultant_class(4, 2) == 73
        assert count_resultant_class(1, 1) == 1
        assert count_resultant_class(3, 2) == 23
        with pytest.raises(ValueError):
            count_resultant_class(0, 1)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            count_toppleable_configs(3, 4)
        with pytest.raises(ValueError):
            count_rp_toppleable(3, 1, 5)
        with pytest.raises(ValueError):
            count_rp_toppleable(3, 1, 1, "guess")


class TestCountNpi:
    def test_table_rows(self):
        assert count_N_pi((1, 2, 4, 3, 6, 5), 2, 2) == 2
        assert count_N_pi((1, 2, 3, 4, 5, 6), 2, 2) == 32
        assert count_N_pi((1, 2, 3, 4, 6, 5), 3, 3) == 7

    def test_mirrored_r(self):
        # r = 4 > n-p at p=3, n=6 reuses the mirrored instance
        assert count_N_pi((1, 2, 3, 4, 5, 6), 4, 3) == 31
        assert count_N_pi((1, 2, 3, 4, 5, 6), 3, 3) == 31

    def test_collapses_to_c_number(self):
        # r = n-p forces b = 0 and the difference becomes C(k, a)
        for suffix in permutations((4, 5, 6)):
            perm = (1, 2, 3) + suffix
            value = count_N_pi(perm, 3, 3)
            from chiptopple.core import right_record_values

            k = len(right_record_values(suffix))
            assert value == c_number(k, 2)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="not decomposable"):
            count_N_pi((2, 4, 1, 5, 3, 6), 2, 2)  # prefix holds 5: not decomposable
        with pytest.raises(ValueError, match="chip 2 cannot produce"):
            count_N_pi((1, 4, 2, 3, 5, 6), 2, 2)  # 2 is not a prefix record
        with pytest.raises(ValueError):
            count_N_pi((1, 2, 3, 4), 1, 4)  # p too large for a resultant
