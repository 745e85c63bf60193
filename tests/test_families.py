import pytest

from chiptopple.bijections import callan_to_vesztergombi
from chiptopple.families import (
    FAMILIES,
    CallanWord,
    CapExceeded,
    _planes,
    count_acyclic_orientations,
    count_family,
    enumerate_family,
    excedance_set,
    family_lanes,
    is_callan,
    is_p_resultant,
    is_vesztergombi,
    validate_r_placement,
)
from chiptopple.polybernoulli import b_number, c_number
from conftest import (
    oracle_acyclic_orientations,
    oracle_callan_to_vesztergombi,
    oracle_is_callan,
    oracle_permutations,
)

VESZ_15 = (1, 6, 4, 8, 7, 10, 12, 11, 13, 3, 2, 9, 5, 14, 15)

# the fourteen words over {1,2} underlined, {3,4} overlined
CALLAN_22 = {
    (1, 2, 4, 3), (1, 4, 3, 2), (1, 3, 2, 4), (1, 4, 2, 3),
    (2, 4, 3, 1), (2, 3, 1, 4), (2, 4, 1, 3),
    (3, 1, 2, 4), (3, 1, 4, 2), (3, 2, 4, 1),
    (4, 1, 2, 3), (4, 1, 3, 2), (4, 2, 3, 1), (4, 3, 1, 2),
}


class TestVesztergombi:
    def test_fifteen_element_example(self):
        assert is_vesztergombi(VESZ_15, 9, 6)

    def test_identity(self):
        assert is_vesztergombi(tuple(range(1, 5)), 2, 2)

    def test_count_22(self):
        assert count_family("vesztergombi", k=2, n=2) == 14

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            is_vesztergombi((1, 2, 3), 1, 1)


class TestCallan:
    def test_recognizer(self):
        assert is_callan((4, 3, 1, 2), 2, 2)
        assert not is_callan((3, 4, 1, 2), 2, 2)

    def test_full_list_22(self):
        assert set(enumerate_family("callan", underlined=2, overlined=2)) == CALLAN_22

    def test_starting_underlined_is_c(self):
        starting = [w for w in CALLAN_22 if w[0] <= 2]
        assert len(starting) == c_number(2, 2) == 7

    def test_blocks(self):
        word = CallanWord(values=(5, 7, 12, 11, 1, 4, 8, 14, 3, 6, 9, 15, 13, 10, 2),
                          underlined=9, overlined=6)
        # seven blocks, (5,7) (12,11) (1,4,8) (14) (3,6,9) (15,13,10) (2): the oracle cuts them with groupby
        assert callan_to_vesztergombi(word) == oracle_callan_to_vesztergombi(word.values, 9, 6)

    def test_invalid_words_rejected(self):
        with pytest.raises(ValueError):
            CallanWord(values=(2, 1, 3, 4), underlined=2, overlined=2)
        with pytest.raises(ValueError):
            CallanWord(values=(1, 2, 3), underlined=2, overlined=2)
        with pytest.raises(ValueError):
            CallanWord(values=(1, 2), underlined=2, overlined=0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            is_callan((1, 2, 3), 2, 2)

    def test_recognizer_matches_run_oracle(self):
        for size in range(2, 8):
            for perm in oracle_permutations(size):
                for u in range(1, size):
                    assert is_callan(perm, u, size - u) == oracle_is_callan(perm, u), (perm, u)


class TestEnumerateFamily:
    def test_callan_first_matches_toppleable_count(self):
        assert count_family("callan_first", underlined=4, overlined=2, first=3) == 22

    def test_window_c(self):
        assert count_family("window_c", n=2, k=1) == 3

    def test_excedance(self):
        assert excedance_set((1, 2, 3)) == frozenset()
        assert excedance_set((2, 1)) == {1}
        assert count_family("excedance_set", n=2, k=1) == 3

    def test_family_counts_match_numbers(self):
        for total in range(2, 8):
            table = {key: lanes.bit_count() for key, lanes in family_lanes(total).items()}
            for k in range(1, total):
                n = total - k
                assert count_family("vesztergombi", k=k, n=n) == table["vesztergombi", k, n] == b_number(n, k)
                assert count_family("callan", underlined=k, overlined=n) == table["callan", k, n] == b_number(k, n)
                assert count_family("window_c", n=n, k=k) == table["window_c", n, k] == c_number(n, k)
                assert count_family("excedance_set", n=n, k=k) == table["excedance_set", n, k] == c_number(n, k)
                for r in range(1, total + 1):
                    assert table["callan_first", k, n, r] == count_family(
                        "callan_first", underlined=k, overlined=n, first=r
                    ), (k, n, r)
                assert sum(table["callan_first", k, n, r] for r in range(1, k + 1)) == c_number(k, n)

    def test_family_members_are_the_enumerations(self):
        perms = list(oracle_permutations(5))
        lanes = family_lanes(5)
        for (name, *params), mask in lanes.items():
            members = [perm for m, perm in enumerate(perms) if mask >> m & 1]
            assert members == list(enumerate_family(name, **dict(zip(FAMILIES[name][0], params))))
        assert len(lanes) == 4 * 4 + 4 * 5

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            count_family("ramanujan", n=1, k=1)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            list(enumerate_family("vesztergombi", k=6, n=6))

    def test_callan_first_needs_first(self):
        with pytest.raises(ValueError):
            count_family("callan_first", underlined=2, overlined=2)


class TestFamilyLanes:
    def test_planes_are_their_definition(self):
        for size in range(1, 8):
            perms = list(oracle_permutations(size))
            planes = _planes(size)
            assert len(planes) == size
            for i, row in enumerate(planes):
                assert len(row) == size + 2
                for t, lanes in enumerate(row):
                    assert lanes == sum(1 << m for m, perm in enumerate(perms) if perm[i] >= t), (size, i, t)

    def test_scan_matches_recognizers(self):
        """Every split of every permutation of size <= 8, each family's lanes
        against its recognizer, and Callan also against the run oracle."""
        for size in range(1, 9):
            perms = list(oracle_permutations(size))
            lanes = family_lanes(size)
            splits = [(x, size - x) for x in range(1, size)]
            keys = [(name, x, y) for name in FAMILIES if name != "callan_first" for x, y in splits]
            keys += [("callan_first", u, o, first) for u, o in splits for first in range(1, size + 1)]
            assert sorted(lanes) == sorted(keys)
            for name, *params in keys:
                recognize = FAMILIES[name][1]
                accepted = sum(1 << m for m, perm in enumerate(perms) if recognize(perm, *params))
                assert lanes[(name, *params)] == accepted, (name, *params)
            for u, o in splits:
                runs = sum(1 << m for m, perm in enumerate(perms) if oracle_is_callan(perm, u))
                assert lanes["callan", u, o] == runs, u


class TestAcyclicOrientations:
    def test_single_edge(self):
        assert count_acyclic_orientations(1, 1) == 2

    def test_two_by_two(self):
        assert count_acyclic_orientations(2, 2) == 14

    def test_matches_b_numbers(self):
        for n in range(21):
            for k in range(21):
                if n * k <= 20:
                    assert count_acyclic_orientations(n, k) == b_number(n, k), (n, k)
        assert count_acyclic_orientations(4, 5) == 41506
        assert count_acyclic_orientations(2, 10) == 117074
        assert count_acyclic_orientations(1, 20) == 2**20

    @pytest.mark.parametrize("mode", ["all", "unique_sink_anywhere", "unique_sink_fixed_vertex"])
    def test_matches_the_one_at_a_time_oracle(self, mode):
        for n in range(13):
            for k in range(13):
                if n * k <= 12:
                    assert count_acyclic_orientations(n, k, mode) == oracle_acyclic_orientations(n, k, mode), (n, k)

    def test_matches_the_oracle_at_four_by_four(self):
        assert count_acyclic_orientations(4, 4) == oracle_acyclic_orientations(4, 4)

    def test_unique_sink_modes_documented(self):
        # neither naive unique-sink reading reproduces C(2,2) = 7
        assert count_acyclic_orientations(2, 2, "unique_sink_anywhere") == 12
        assert count_acyclic_orientations(2, 2, "unique_sink_fixed_vertex") == 3
        # with n = 0 there is no n-side vertex to be the sink
        assert count_acyclic_orientations(0, 1, "unique_sink_fixed_vertex") == 0

    def test_cap_and_mode_errors(self):
        with pytest.raises(CapExceeded):
            count_acyclic_orientations(5, 5)
        with pytest.raises(ValueError):
            count_acyclic_orientations(1, 1, "sideways")


class TestResultantValidation:
    def test_examples(self):
        assert is_p_resultant((1, 2, 4, 3), 2)
        assert not is_p_resultant((2, 4, 1, 3), 2)

    def test_placement_example(self):
        assert validate_r_placement((2, 1, 4, 3, 6, 5), 2, 2)
        assert not validate_r_placement((1, 4, 2, 3, 6, 5), 2, 2)

    def test_placement_right_side(self):
        # r beyond the prefix must be a right record of the suffix
        assert validate_r_placement((1, 2, 4, 3, 6, 5), 2, 5)
        assert not validate_r_placement((1, 2, 4, 3, 6, 5), 2, 6)

    def test_range_errors(self):
        with pytest.raises(ValueError):
            is_p_resultant((1, 2), 2)
        with pytest.raises(ValueError):
            validate_r_placement((1, 2, 3), 1, 4)
