import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiptopple.core import (
    Configuration,
    format_configuration,
    format_permutation,
    identity,
    inverse,
    left_record_values,
    lift,
    make_configuration,
    make_permutation,
    map_w,
    marked_split,
    parse_configuration,
    parse_permutation,
    records,
    reverse_complement,
    reverse_complement_perm,
    right_record_values,
    split_at,
    unlift,
)
from conftest import oracle_configurations, oracle_permutations, small_configurations

perms = st.integers(1, 7).flatmap(lambda n: st.permutations(list(range(1, n + 1)))).map(tuple)


class TestMakePermutation:
    def test_singleton(self):
        assert make_permutation([1]) == (1,)

    def test_seven_element_example(self):
        assert make_permutation((6, 2, 1, 4, 3, 5, 7)) == (6, 2, 1, 4, 3, 5, 7)

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            make_permutation((1, 1, 2))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            make_permutation((1, 3))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            make_permutation(())


class TestInverse:
    def test_identity(self):
        assert inverse(identity(5)) == identity(5)

    def test_lookup(self):
        assert inverse((6, 2, 1, 4, 3, 5, 7)) == (3, 2, 5, 4, 6, 1, 7)

    def test_transposition(self):
        assert inverse((2, 1)) == (2, 1)

    @given(perms)
    def test_involution(self, perm):
        assert inverse(inverse(perm)) == perm


class TestRecords:
    def test_left_max_single(self):
        assert records((4, 1, 2, 3), "left_max") == ((1, 4),)

    def test_right_min(self):
        assert right_record_values((6, 5)) == (5,)
        assert right_record_values((5, 6)) == (5, 6)

    def test_identity_all_records(self):
        assert [pos for pos, _ in records(identity(6))] == list(range(1, 7))

    def test_unknown_direction(self):
        with pytest.raises(ValueError):
            records((1,), "sideways")

    @given(perms)
    def test_record_lists_strictly_increase(self, perm):
        for direction in ("left_max", "right_min"):
            recs = records(perm, direction)
            positions = [pos for pos, _ in recs]
            values = [val for _, val in recs]
            assert positions == sorted(set(positions))
            assert values == sorted(set(values))

    @given(perms)
    def test_left_record_values_are_right_min_positions_of_inverse(self, perm):
        mirrored = {pos for pos, _ in records(inverse(perm), "right_min")}
        assert set(left_record_values(perm)) == mirrored

    def test_suffix_values_allowed(self):
        # record statistics also apply to value-preserving suffixes
        assert right_record_values((5, 4, 6)) == (4, 6)


class TestSplitAt:
    def test_example(self):
        assert split_at((1, 2, 4, 3), 2) == ((1, 2), (4, 3))

    def test_not_decomposable(self):
        assert split_at((2, 4, 1, 3), 2) is None

    def test_identity_always_splits(self):
        for p in range(1, 5):
            assert split_at(identity(5), p) is not None

    def test_p_out_of_range(self):
        with pytest.raises(ValueError):
            split_at((1, 2), 5)


class TestLiftUnlift:
    def test_lift_example(self):
        lifted = lift((6, 2, 1, 4, 3, 5, 7), 2, 5)
        assert lifted == parse_configuration("7,3,1,5,(2,4),6,8")
        assert 2 in lifted.pair

    def test_second_reading_same_configuration(self):
        first = lift((6, 2, 1, 4, 3, 5, 7), 2, 5)
        second = lift((6, 3, 1, 4, 2, 5, 7), 4, 5)
        assert first == second
        assert 4 in second.pair

    def test_smallest(self):
        lifted = lift((1,), 1, 1)
        assert lifted.chips == (1, 2)
        assert 1 in lifted.pair

    def test_range_errors(self):
        with pytest.raises(ValueError):
            lift((1, 2), 4, 1)
        with pytest.raises(ValueError):
            lift((1, 2), 1, 3)

    def test_unlift_example(self):
        config = parse_configuration("7,3,1,5,(2,4),6,8")
        assert unlift(config) == (((6, 2, 1, 4, 3, 5, 7), 2), ((6, 3, 1, 4, 2, 5, 7), 4))

    def test_unlift_smallest(self):
        config = make_configuration([(1, 2)])
        assert unlift(config) == (((1,), 1), ((1,), 2))

    def test_unlift_simple(self):
        config = parse_configuration("1,(2,3),4")
        assert unlift(config) == (((1, 2, 3), 2), ((1, 2, 3), 3))

    @pytest.mark.parametrize("n,p", [(n, p) for n in range(1, 5) for p in range(1, n + 1)])
    def test_lift_inverts_both_readings(self, n, p):
        for config in oracle_configurations(n, p):
            readings = unlift(config)
            assert len(readings) == 2
            for perm, r in readings:
                assert lift(perm, r, p) == config


class TestMapW:
    def test_example(self):
        assert map_w(lift((6, 2, 1, 4, 3, 5, 7), 2, 5), 2) == (7, 3, 1, 5, 4, 2, 6, 8)

    def test_smallest(self):
        assert map_w(lift((1,), 2, 1), 2) == (1, 2)

    def test_three_sites(self):
        assert map_w(parse_configuration("1,(2,3),4"), 2) == (1, 3, 2, 4)

    def test_mark_must_be_at_the_doubled_site(self):
        with pytest.raises(ValueError) as info:
            map_w(parse_configuration("1,(2,3),4"), 4)
        assert str(info.value) == "mark 4 is not at the doubled site"

    @given(perms, st.data())
    @settings(max_examples=60)
    def test_output_is_permutation_with_mark_after_p(self, perm, data):
        n = len(perm)
        r = data.draw(st.integers(1, n + 1))
        p = data.draw(st.integers(1, n))
        star = map_w(lift(perm, r, p), r)
        assert sorted(star) == list(range(1, n + 2))
        assert star[p] == r


class TestReverseComplement:
    def test_fixed_point_smallest(self):
        config = make_configuration([(1, 2)])
        assert reverse_complement(config) == config

    def test_self_symmetric(self):
        config = parse_configuration("1,(2,3),4")
        assert reverse_complement(config) == config

    def test_two_step_example(self):
        config = parse_configuration("4,(3,2),1")
        assert reverse_complement(config) == config

    @pytest.mark.parametrize("n,p", [(n, p) for n in range(1, 5) for p in range(1, n + 1)])
    def test_involution_and_p_map(self, n, p):
        for config in oracle_configurations(n, p):
            mirrored = reverse_complement(config)
            assert mirrored.p == n + 1 - p
            assert reverse_complement(mirrored) == config

    @given(small_configurations())
    def test_image_equals_validated_configuration(self, config):
        mirrored = reverse_complement(config)
        assert mirrored == Configuration(n=mirrored.n, p=mirrored.p, chips=mirrored.chips)

    @given(perms)
    def test_perm_variant_is_involution(self, perm):
        assert reverse_complement_perm(reverse_complement_perm(perm)) == perm

    def test_marked_split_past_the_prefix_is_the_mirrored_key(self):
        # the definition: for r > n-p, mirror so that the added chip lands in the prefix
        def mirrored_key(perm, p, r):
            n = len(perm)
            if r > n - p:
                return mirrored_key(reverse_complement_perm(perm), n - p, n + 1 - r)
            lrec, rrec = left_record_values(perm[: n - p]), right_record_values(perm[n - p :])
            return sum(v < r for v in lrec), sum(v > r for v in lrec), len(rrec)

        for n in range(1, 8):
            for perm in oracle_permutations(n):
                for p in range(1, n + 1):
                    for r in range(1, n + 2):
                        assert marked_split(perm, p, r) == mirrored_key(perm, p, r), (perm, p, r)


class TestLiterals:
    def test_configuration_roundtrip(self):
        text = "7,3,1,5,(2,4),6,8"
        assert format_configuration(parse_configuration(text)) == text

    def test_pair_is_unordered(self):
        assert parse_configuration("1,(3,2),4") == parse_configuration("1,(2,3),4")

    def test_permutation_digits_and_commas(self):
        assert parse_permutation("6214357") == (6, 2, 1, 4, 3, 5, 7)
        assert parse_permutation("6,2,1,4,3,5,7") == (6, 2, 1, 4, 3, 5, 7)
        assert format_permutation(tuple(range(1, 11))).count(",") == 9

    def test_spaces_around_chips_and_pair(self):
        assert parse_configuration("1, (2,3), 4") == parse_configuration("1,(2,3),4")
        assert parse_configuration(" 1 ,( 3 , 2 ) ,4 ") == parse_configuration("1,(2,3),4")
        assert parse_permutation("2, 1, 3") == (2, 1, 3)

    def test_bad_literals(self):
        with pytest.raises(ValueError):
            parse_configuration("1,2,3")
        with pytest.raises(ValueError):
            parse_configuration("1,(2,3),(4,5)")
        with pytest.raises(ValueError):
            parse_configuration("1,(2*,3),4")
        with pytest.raises(ValueError):
            parse_permutation("12x")
        # anything outside the grammar is one error that names the literal
        for text in [
            "1,2(3,4)", "(3,4)1,2", "(3,4),,1,2", "1,(2,3),,", "+1,(2,3)", "1_0,(2,3)",
            "(3,4),1,2,", "1,,2,(3,4)", "()", "1;(2,3)", "(a,b)", "1,(2,3),4 5", "(\uff11,2)",
        ]:
            with pytest.raises(ValueError) as info:
                parse_configuration(text)
            assert str(info.value) == f"cannot parse configuration literal: {text!r}"
        for text in ["+1,2", "2,1_0,3,4,5,6,7,8,9,1", "\u0661\u0662", "1,,2", "1 2", ""]:
            with pytest.raises(ValueError) as info:
                parse_permutation(text)
            assert str(info.value) == f"cannot parse permutation literal: {text!r}"
        for text, message in [
            ("1,2,3", "configuration literal has no doubled site: '1,2,3'"),
            ("1,(2,3,4)", "doubled site must hold exactly two chips: (2,3,4)"),
            ("(1,2),(3,4)", "more than one doubled site"),
            ("1,(2*,3),4", "unexpected marked chip in plain configuration literal"),
        ]:
            with pytest.raises(ValueError) as info:
                parse_configuration(text)
            assert str(info.value) == message


class TestConfigurationValidation:
    @pytest.mark.parametrize(
        "n,p,chips,message",
        [
            (0, 1, (1,), "configuration needs at least one site"),
            (3, 0, (1, 2, 3, 4), "doubled site 0 outside 1..3"),
            (3, 4, (1, 2, 3, 4), "doubled site 4 outside 1..3"),
            (3, 2, (1, 2, 3), "3 chips on 3 sites, expected 4"),
            (3, 2, (1, 2, 3, 4, 5), "5 chips on 3 sites, expected 4"),
            (3, 2, (1, 3, 2, 4), "the pair at site 2 must be ascending"),
            (3, 2, (1, 2, 3, 3), "chip labels must be exactly 1..4"),
            (3, 2, (1, 2, 3, 5), "chip labels must be exactly 1..4"),
        ],
    )
    def test_constructor_messages(self, n, p, chips, message):
        with pytest.raises(ValueError) as info:
            Configuration(n=n, p=p, chips=chips)
        assert str(info.value) == message

    def test_make_configuration_contract(self):
        # an int and a one-element iterable are both a single chip
        config = make_configuration([1, (2, 3), (4,)])
        assert (config.n, config.p, config.chips) == (3, 2, (1, 2, 3, 4))
        assert make_configuration([[4], (3, 1), 2]).chips == (4, 1, 3, 2)
        for contents, message in [
            ([1, 2, 3], "no doubled site found"),
            ([(1, 2), (3, 4)], "more than one doubled site"),
            ([1, (2, 3), (4, 5, 6)], "site 3 holds 3 chips, expected 1"),
            ([(1, 2, 3), (4, 5)], "site 1 holds 3 chips, expected 1"),
        ]:
            with pytest.raises(ValueError) as info:
                make_configuration(contents)
            assert str(info.value) == message

    def test_wrong_chip_set(self):
        with pytest.raises(ValueError):
            make_configuration([1, (2, 5), 4])

    def test_two_pairs_rejected(self):
        with pytest.raises(ValueError):
            make_configuration([(1, 2), (3, 4)])

    def test_no_pair_rejected(self):
        with pytest.raises(ValueError):
            make_configuration([1, 2, 3])


def test_left_record_distribution_matches_stirling_first_kind():
    # independent triangle: c(n,k) = c(n-1,k-1) + (n-1) c(n-1,k)
    table = {(0, 0): 1}
    for n in range(1, 8):
        for k in range(n + 1):
            table[(n, k)] = table.get((n - 1, k - 1), 0) + (n - 1) * table.get((n - 1, k), 0)
    for n in range(1, 8):
        seen = {}
        for perm in oracle_permutations(n):
            k = len(left_record_values(perm))
            seen[k] = seen.get(k, 0) + 1
        for k in range(1, n + 1):
            assert seen.get(k, 0) == table[(n, k)]
