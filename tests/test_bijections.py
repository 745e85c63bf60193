import pytest

from chiptopple.bijections import (
    callan_to_vesztergombi,
    phi,
    phi_inverse,
    vesztergombi_to_callan,
)
from chiptopple.characterize import is_p_toppleable
from chiptopple.core import (
    left_record_values,
    parse_configuration,
    right_record_values,
)
from chiptopple.engine import resultant
from chiptopple.families import CallanWord, enumerate_family
from chiptopple.polybernoulli import b_number
from conftest import oracle_callan_to_vesztergombi, oracle_configurations

WORD_15 = (5, 7, 12, 11, 1, 4, 8, 14, 3, 6, 9, 15, 13, 10, 2)
SIGMA_15 = (1, 6, 4, 8, 7, 10, 12, 11, 13, 3, 2, 9, 5, 14, 15)


class TestCallanVesztergombi:
    def test_worked_example_forward(self):
        word = CallanWord(values=WORD_15, underlined=9, overlined=6)
        assert callan_to_vesztergombi(word) == SIGMA_15

    def test_worked_example_backward(self):
        assert vesztergombi_to_callan(SIGMA_15, 9, 6).values == WORD_15

    def test_smallest(self):
        word = CallanWord(values=(1, 2), underlined=1, overlined=1)
        sigma = callan_to_vesztergombi(word)
        assert vesztergombi_to_callan(sigma, 1, 1).values == (1, 2)

    def test_one_one_families_match(self):
        words = list(enumerate_family("callan", underlined=1, overlined=1))
        images = {
            callan_to_vesztergombi(CallanWord(values=w, underlined=1, overlined=1))
            for w in words
        }
        assert len(words) == len(images) == b_number(1, 1) == 2

    @pytest.mark.parametrize(
        "u,o", [(u, o) for total in range(2, 7) for u in range(1, total) for o in [total - u]]
    )
    def test_exhaustive_bijection(self, u, o):
        words = [
            CallanWord(values=w, underlined=u, overlined=o)
            for w in enumerate_family("callan", underlined=u, overlined=o)
        ]
        targets = sorted(enumerate_family("vesztergombi", k=u, n=o))
        images = [callan_to_vesztergombi(w) for w in words]
        assert sorted(images) == targets
        for word, sigma in zip(words, images):
            assert vesztergombi_to_callan(sigma, u, o).values == word.values
            # the first letter of the word is the position of O+1
            assert sigma.index(o + 1) + 1 == word.values[0]

    def test_one_pass_map_equals_block_oracle(self):
        # every Callan word of sizes 2..8 against the block-by-block construction,
        # and the walk back from each image
        words = [
            CallanWord(values=w, underlined=u, overlined=total - u)
            for total in range(2, 9)
            for u in range(1, total)
            for w in enumerate_family("callan", underlined=u, overlined=total - u)
        ]
        assert len(words) == 23_300
        for word in words:
            expected = oracle_callan_to_vesztergombi(word.values, word.underlined, word.overlined)
            assert callan_to_vesztergombi(word) == expected, word
            assert vesztergombi_to_callan(expected, word.underlined, word.overlined).values == word.values
        assert oracle_callan_to_vesztergombi(WORD_15, 9, 6) == SIGMA_15

    def test_rejects_non_vesztergombi(self):
        with pytest.raises(ValueError):
            vesztergombi_to_callan((3, 2, 1), 1, 2)  # 3 at position 1 breaks -k <= v - i

    @pytest.mark.parametrize("sigma", [(2, 2), (1, 1)])
    def test_rejects_non_permutations(self, sigma):
        # both lie inside the (1,1) displacement window
        with pytest.raises(ValueError, match=r"not a permutation of 1\.\.2"):
            vesztergombi_to_callan(sigma, 1, 1)


class TestPhi:
    def test_example(self):
        config = parse_configuration("4,(1,2),3")
        perm, _ = resultant(config)
        assert perm == (1, 2, 4, 3)
        reduced = phi(config, perm)
        assert reduced == parse_configuration("(1,2),3")
        assert phi_inverse(reduced, perm) == config

    def test_identity_resultant_keeps_everything(self):
        config = parse_configuration("1,(2,3),4")
        perm, _ = resultant(config)
        assert perm == (1, 2, 3, 4)
        assert phi(config, perm) == config

    def test_fiber_of_1243(self):
        fiber = [
            config
            for config in oracle_configurations(3, 2)
            if resultant(config)[0] == (1, 2, 4, 3)
        ]
        assert len(fiber) == b_number(2, 1) // 2 == 2
        images = {phi(config, (1, 2, 4, 3)) for config in fiber}
        assert images == {
            parse_configuration("(1,2),3"),
            parse_configuration("(1,3),2"),
        }

    def test_phi_inverse_second_skeleton(self):
        assert phi_inverse(parse_configuration("(1,3),2"), (1, 2, 4, 3)) == (
            parse_configuration("4,(1,3),2")
        )

    @pytest.mark.parametrize("n,p", [(n, p) for n in range(1, 6) for p in range(1, n + 1)])
    def test_exhaustive_roundtrip(self, n, p):
        fibers = {}
        for config in oracle_configurations(n, p):
            perm, _ = resultant(config)
            fibers.setdefault(perm, []).append(config)
        for perm, members in fibers.items():
            cut = (n + 1) - p
            i = len(left_record_values(perm[:cut]))
            j = len(right_record_values(perm[cut:]))
            assert len(members) == b_number(i, j) // 2
            images = set()
            for config in members:
                reduced = phi(config, perm)
                assert reduced.n == i + j - 1 and reduced.p == j
                assert is_p_toppleable(reduced)
                assert phi_inverse(reduced, perm, p) == config
                images.add(reduced)
            skeletons = {
                K for K in oracle_configurations(i + j - 1, j) if is_p_toppleable(K)
            }
            assert images == skeletons

    def test_verify_flag_rejects_wrong_resultant(self):
        config = parse_configuration("4,(1,2),3")
        with pytest.raises(ValueError):
            phi(config, (1, 2, 3, 4), verify=True)

    @pytest.mark.parametrize(
        "text,perm,message",
        [
            ("3,(1,2),4", (1, 2, 4, 3), "the doubled site lands on site 2, not 1; resultant mismatch"),
            ("1,(2,3),4", (2, 1, 3, 4), "the doubled site lands on site 1, not 2; resultant mismatch"),
        ],
    )
    def test_pair_off_its_skeleton_site_is_a_mismatch(self, text, perm, message):
        # both pair chips are records, but the kept chips put the pair on the wrong site
        with pytest.raises(ValueError) as info:
            phi(parse_configuration(text), perm)
        assert str(info.value) == message

    def test_non_resultant_rejected(self):
        config = parse_configuration("4,(1,2),3")
        with pytest.raises(ValueError):
            phi(config, (2, 3, 1, 4))

    def test_phi_inverse_shape_mismatch(self):
        with pytest.raises(ValueError):
            phi_inverse(parse_configuration("(1,2),3"), (1, 2, 3, 4), 2)
