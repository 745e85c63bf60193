import random

import pytest

from chiptopple.characterize import (
    _window,
    is_all_r_toppleable,
    is_p_toppleable,
    is_p_toppleable_word,
    is_rp_toppleable,
)
from chiptopple.core import identity, parse_configuration
from chiptopple.engine import resultant
from conftest import oracle_configurations, oracle_permutations


class TestWindowOnConfigurations:
    def test_toppleable_example(self):
        assert is_p_toppleable(parse_configuration("1,(2,3),4"))

    def test_big_example_not_toppleable(self):
        # chip 7 on site 1 sits left of its window
        assert not is_p_toppleable(parse_configuration("7,3,1,5,(2,4),6,8"))

    def test_reversed_not_toppleable(self):
        assert not is_p_toppleable(parse_configuration("4,(3,2),1"))

    @pytest.mark.parametrize("n,p", [(n, p) for n in range(1, 6) for p in range(1, n + 1)])
    def test_window_equals_simulation(self, n, p):
        for config in oracle_configurations(n, p):
            assert is_p_toppleable(config) == (resultant(config)[0] == tuple(range(1, n + 2)))

    @pytest.mark.parametrize("n,p", [(n, p) for n in range(1, 8) for p in range(1, n + 1)])
    def test_word_form_equals_window_and_simulation(self, n, p):
        window = _window(n, p)
        for config in oracle_configurations(n, p):
            toppled = resultant(config)[0] == tuple(range(1, n + 2))
            generated = window(config.chips)
            assert generated == is_p_toppleable_word(config.chips, n, p) == is_p_toppleable(config) == toppled

    @pytest.mark.parametrize("n", range(8, 13))
    def test_generated_window_equals_word_form_past_the_cap(self, n):
        # seeded walks of adjacent swaps from the sorted word, so that both verdicts occur
        rng = random.Random(n)
        verdicts = set()
        for p in range(1, n + 1):
            window = _window(n, p)
            for _ in range(300):
                chips = list(range(1, n + 2))
                for _ in range(rng.randrange(3 * n)):
                    k = rng.randrange(n)
                    chips[k], chips[k + 1] = chips[k + 1], chips[k]
                chips[p - 1 : p + 1] = sorted(chips[p - 1 : p + 1])
                verdict = is_p_toppleable_word(tuple(chips), n, p)
                assert window(tuple(chips)) == verdict
                verdicts.add(verdict)
        assert verdicts == {False, True}


class TestMarkedWindow:
    def test_small_true(self):
        assert is_rp_toppleable((1, 2, 3), 2, 2)

    def test_identity_s2_extra_top(self):
        assert is_rp_toppleable((1, 2), 3, 2)

    def test_count_over_s5(self):
        count = sum(1 for perm in oracle_permutations(5) if is_rp_toppleable(perm, 3, 2))
        assert count == 22

    def test_range_errors(self):
        with pytest.raises(ValueError):
            is_rp_toppleable((1, 2), 4, 1)
        with pytest.raises(ValueError):
            is_rp_toppleable((1, 2), 1, 0)


class TestAllR:
    def test_identity_everywhere(self):
        for p in range(1, 6):
            assert is_all_r_toppleable(identity(5), p)

    def test_swap_fails_at_one(self):
        assert not is_all_r_toppleable((2, 1), 1)

    def test_count_s4_p2(self):
        count = sum(1 for perm in oracle_permutations(4) if is_all_r_toppleable(perm, 2))
        assert count == 7

    def test_p_out_of_range(self):
        with pytest.raises(ValueError):
            is_all_r_toppleable((1, 2), 3)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_window_equals_conjunction_over_r(self, n):
        for p in range(1, n + 1):
            for perm in oracle_permutations(n):
                conjunction = all(is_rp_toppleable(perm, r, p) for r in range(1, n + 2))
                assert is_all_r_toppleable(perm, p) == conjunction
