import cProfile
import functools
import hashlib
import json
import pstats
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiptopple.core import make_configuration, parse_configuration, reverse_complement, reverse_complement_perm
from chiptopple import characterize, engine, harness
from chiptopple.engine import resultant, stabilize_passes, stabilize_random
from conftest import oracle_configurations, oracle_stabilize_random, small_configurations


FIXED_POINTS = [
    ("1,(2,3),4", (1, 2, 3, 4), 2),
    ("(1,2)", (1, 2), 1),
    ("4,(3,2),1", (2, 1, 4, 3), 2),
    ("4,(1,2),3", (1, 2, 4, 3), 2),
]


class TestStabilize:
    @pytest.mark.parametrize("text,perm,empty", FIXED_POINTS)
    def test_random_schedule_examples(self, text, perm, empty):
        config = parse_configuration(text)
        for seed in (0, 1, 17):
            final, _ = stabilize_random(config, seed)
            assert final == (perm, empty)

    @pytest.mark.parametrize("text,perm,empty", FIXED_POINTS)
    def test_resultant(self, text, perm, empty):
        assert resultant(parse_configuration(text)) == (perm, empty)

    def test_occupancy_example(self):
        final, _ = stabilize_random(parse_configuration("1,(2,3),4"), 5)
        assert final == ((1, 2, 3, 4), 2)  # occupancy (1, 2, 0, 3, 4)

    def test_one_hole_check(self):
        # first chips of sites 0..3 with site 2 doubled (2 under 3): two holes
        with pytest.raises(ValueError) as info:
            engine._read_resultant([1, 0, 2, 0])
        assert str(info.value) == "final state must have exactly one empty site"
        assert engine._read_resultant([1, 2, 0, 3]) == ((1, 2, 3), 2)

    def test_pass_counts(self):
        assert len(list(stabilize_passes(parse_configuration("1,(2,3),4")))) == 2
        assert len(list(stabilize_passes(make_configuration([(1, 2)])))) == 1

    @pytest.mark.parametrize("n,p", [(n, p) for n in range(1, 6) for p in range(1, n + 1)])
    def test_pass_structure(self, n, p):
        for config in oracle_configurations(n, p):
            (perm, empty_site), trace = _traced(config)
            assert len(trace) == min(p, n - p + 1)
            assert empty_site == n - p + 1
            occupancy = list(perm[:empty_site]) + [0] + list(perm[empty_site:])
            grown = 0
            for snap in trace:
                assert len(snap.left_arm) > grown
                grown = len(snap.left_arm)
                assert list(snap.left_arm) == occupancy[: len(snap.left_arm)]
                assert list(snap.right_arm) == occupancy[len(occupancy) - len(snap.right_arm) :]
            # the first pass topples every site holding two chips exactly once
            assert trace[0].topples == n
            assert (perm, empty_site) == resultant(config)

    def test_first_pass_moves_every_chip_once_per_site(self):
        trace = list(stabilize_passes(parse_configuration("7,3,1,5,(2,4),6,8")))
        assert trace[0].topples == 7
        assert len(trace) == 3

    def test_trace_json_shape(self):
        # the JSON form of a snapshot that ``topple --trace`` writes
        payload = [json.loads(json.dumps(vars(s))) for s in stabilize_passes(parse_configuration("4,(3,2),1"))]
        assert len(payload) == 2
        for snap in payload:
            assert set(snap) == {"left_arm", "active", "right_arm", "topples"}


class TestScheduleIndependence:
    @given(small_configurations(), st.integers(0, 2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_random_matches_passes(self, config, seed):
        reference, _ = _traced(config)
        final, _ = stabilize_random(config, seed)
        assert final == reference

    @pytest.mark.parametrize("n", range(1, 7))
    def test_count_and_resultant_do_not_depend_on_schedule(self, n):
        for p in range(1, n + 1):
            for config in oracle_configurations(n, p):
                final, trace = _traced(config)
                count = sum(snap.topples for snap in trace)
                for seed in range(3):
                    assert stabilize_random(config, seed) == oracle_stabilize_random(config, seed) == (final, count)
                assert resultant(config) == final

    @given(small_configurations())
    @settings(max_examples=60, deadline=None)
    def test_symmetry_conjugation(self, config):
        perm, _ = resultant(config)
        mirrored, _ = resultant(reverse_complement(config))
        assert mirrored == reverse_complement_perm(perm)

    @given(small_configurations())
    @settings(max_examples=60, deadline=None)
    def test_exactly_one_empty_site(self, config):
        (perm, empty_site), _ = _traced(config)
        assert 0 <= empty_site <= config.n + 1
        assert sorted(perm) == list(range(1, config.n + 2))


def _traced(config):
    """The snapshots of ``stabilize_passes`` and the resultant pair that the last one's arms give."""
    trace = list(stabilize_passes(config))
    last = trace[-1]
    return (last.left_arm + last.right_arm, len(last.left_arm)), trace


def _shuffled_configuration(n, p, rng):
    chips = list(range(1, n + 2))
    rng.shuffle(chips)
    return make_configuration([*chips[: p - 1], chips[p - 1 : p + 1], *chips[p + 1 :]])


class TestCompiledSchedule:
    """The pass schedule is a comparator network compiled once per (n, p)."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_closed_form_toppling_count(self, n):
        rng = random.Random(n)
        for p in range(1, n + 1):
            for _ in range(3):
                config = _shuffled_configuration(n, p, rng)
                (_, empty_site), trace = _traced(config)
                count = p * (n + 1 - p)
                assert sum(snap.topples for snap in trace) == count
                assert [stabilize_random(config, seed)[1] for seed in range(3)] == [count] * 3
                assert len(trace) == min(p, n - p + 1)
                assert empty_site == n - p + 1

    def test_programs_are_kept_up_to_n_8(self):
        rng = random.Random(9)
        engine._program.cache_clear()
        for n in range(9, 13):
            for p in range(1, n + 1):
                config = _shuffled_configuration(n, p, rng)
                resultant(config)
                list(stabilize_passes(config))
                list(engine.resultants(n, p, [config.chips]))
        assert engine._program.cache_info().currsize == 0
        for n in range(1, 9):
            for p in range(1, n + 1):
                resultant(_shuffled_configuration(n, p, rng))
        assert engine._program.cache_info().currsize == 36

    @pytest.mark.parametrize("p", [1, 7, 20, 33, 40, 100, 200])
    def test_unkept_program_agrees_with_the_random_schedule(self, p):
        for n in (40, 200):
            if p > n:
                continue
            config = _shuffled_configuration(n, p, random.Random(p))
            kept = engine._program.cache_info()
            final = resultant(config)
            assert _traced(config)[0] == final
            assert list(engine.resultants(n, p, [config.chips])) == [final]
            for seed in range(3):
                labelled = oracle_stabilize_random(config, seed)
                assert labelled[0] == final
                assert stabilize_random(config, seed) == labelled
            assert engine._program.cache_info() == kept

    def test_resultant_memory_is_linear_above_n_8(self):
        """One ``resultant`` call holds O(n) memory, not the p(n+1-p) comparators of its network."""
        peaks = {}
        for n in (400, 800, 1600):
            config = _shuffled_configuration(n, n // 2, random.Random(n))
            tracemalloc.start()
            try:
                resultant(config)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[800] < 2.5 * peaks[400]
        assert peaks[1600] < 1_000_000

    def test_random_schedule_memory_is_linear_above_n_8(self, monkeypatch):
        """One ``stabilize_random`` call holds O(n) memory, not the p(n+1-p) comparators of its schedule."""
        # the block cache has its own bound (1 024 blocks), and whether a run hits or refills it
        # depends on what ran before, so blocks are hashed uncached here; a first, untraced run
        # does the one-off work (the hashlib import, the interpreter's free lists)
        monkeypatch.setattr(engine, "_block", engine._block.__wrapped__)
        peaks = {}
        for n in (400, 800):
            config = _shuffled_configuration(n, n // 2, random.Random(n))
            stabilize_random(config, 0)
            tracemalloc.start()
            try:
                stabilize_random(config, 0)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[800] < 2.5 * peaks[400]
        assert peaks[800] < 1_000_000

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 40])
    def test_last_pass_leaves_one_hole(self, n):
        for p in range(1, n + 1):
            *_, last = engine._schedule(n, p)
            assert last.active == ()
            assert sorted(last.left_arm + last.right_arm) == list(range(1, n + 2))
            assert len(last.left_arm) == n - p + 1

    @pytest.mark.parametrize("n", range(1, 8))
    def test_generated_run_matches_the_interpreter_and_the_random_schedule(self, n):
        for p in range(1, n + 1):
            configs = list(harness.enumerate_configurations(n, p))
            generated = list(engine.resultants(n, p, harness._chip_words(n, p)))
            assert len(generated) == len(configs)
            for config, final in zip(configs, generated):
                assert final == _interpreted(n, p, config.chips)
                assert final == oracle_stabilize_random(config, n)[0]
                assert final == resultant(config)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_seeded_network_is_the_random_schedule(self, n):
        for p in range(1, n + 1):
            for seed in range(3):
                run = engine._seeded(n, p, seed)
                for config in harness.enumerate_configurations(n, p):
                    assert run(config.chips) == oracle_stabilize_random(config, seed)[0]

    def test_generated_run_on_a_sample_at_n_8(self):
        rng = random.Random(8)
        for p in range(1, 9):
            run = engine._program(8, p)
            for _ in range(300):
                config = _shuffled_configuration(8, p, rng)
                final = run(config.chips)
                assert final == _interpreted(8, p, config.chips)
                assert final == engine._streamed(8, p, config.chips)
                assert final == oracle_stabilize_random(config, p)[0]

    @pytest.mark.parametrize("p", [1, 5, 8])
    def test_only_kept_programs_are_generated(self, p):
        config = _shuffled_configuration(9, p, random.Random(p))
        kept = engine._program.cache_info()
        resultant(config)
        list(stabilize_passes(config))
        list(engine.resultants(9, p, [config.chips]))
        assert engine._program.cache_info() == kept
        assert isinstance(engine._runner(9, p), functools.partial)
        assert engine._runner(8, p) is engine._program(8, p)

    @pytest.mark.parametrize("n,p", [(7, 4), (8, 1), (40, 17)])
    def test_trace_is_lazy_and_keeps_no_program(self, monkeypatch, n, p):
        yielded = []
        schedule = engine._schedule

        def counted(n, p):
            for step in schedule(n, p):
                yielded.append(step)
                yield step

        monkeypatch.setattr(engine, "_schedule", counted)
        kept = engine._program.cache_info()
        snapshots = stabilize_passes(_shuffled_configuration(n, p, random.Random(n)))
        assert yielded == []
        first = next(snapshots)
        assert len(yielded) == 1
        assert first.topples == n
        rest = list(snapshots)
        assert len(yielded) == 1 + len(rest) == min(p, n - p + 1)
        assert engine._program.cache_info() == kept

    def test_trace_raises_on_iteration(self, monkeypatch):
        def two_holes(low):
            raise ValueError("final state must have exactly one empty site")

        monkeypatch.setattr(engine, "_read_resultant", two_holes)
        snapshots = stabilize_passes(parse_configuration("7,3,1,5,(2,4),6,8"))
        assert next(snapshots).topples == 7  # the check runs before the last pass, the third
        next(snapshots)
        with pytest.raises(ValueError, match="exactly one empty site"):
            next(snapshots)

    def test_resultants_checks_the_site(self):
        with pytest.raises(ValueError):
            engine.resultants(3, 4, [])

    def test_generated_functions_name_their_kind_and_sizes(self):
        assert engine._program(7, 3).__code__.co_filename == "<network S(7,3)>"
        assert engine._seeded(7, 3, 2).__code__.co_filename == "<seeded S(7,3) seed 2>"
        assert characterize._window(7, 3).__code__.co_filename == "<window S(7,3)>"

    def test_a_profile_names_the_network(self):
        profile = cProfile.Profile()
        profile.runcall(harness.brute_count_toppleable, 4, 2, "simulate")
        assert ("<network S(4,2)>", 1, "run") in pstats.Stats(profile).stats


def _interpreted(n, p, chips):
    """The resultant pair of ``_run`` over the passes of S(n,p), read through the arms of the last."""
    w = [0, *chips]
    for last in engine._schedule(n, p):
        engine._run(w, last.comparators)
    return tuple([w[r] for r in last.left_arm + last.right_arm]), len(last.left_arm)


def _reachable_heights(start):
    """Every chip-count vector reachable from ``start`` by toppling any interior site with two chips or more."""
    seen = {start}
    frontier = [start]
    while frontier:
        heights = frontier.pop()
        for x in range(1, len(heights) - 1):
            if heights[x] >= 2:
                after = list(heights)
                after[x] -= 2
                after[x - 1] += 1
                after[x + 1] += 1
                after = tuple(after)
                if after not in seen:
                    seen.add(after)
                    frontier.append(after)
    return seen


def test_height_invariant_under_every_toppling_order():
    """The invariant that lets the engine topple exactly two chips per site, walked without engine code."""
    for n, p in [(n, p) for n in range(1, 9) for p in range(1, n + 1)]:
        start = (0,) + (1,) * (p - 1) + (2,) + (1,) * (n - p) + (0,)
        for heights in _reachable_heights(start):
            assert max(heights) <= 2, heights
            doubled = [x for x, h in enumerate(heights) if h == 2]
            assert all(0 in heights[a:b] for a, b in zip(doubled, doubled[1:])), heights
            assert heights[0] < 2 and heights[-1] < 2, heights


class TestDraws:
    """The seed drives the random schedule: a constant draw would pass every other test."""

    @pytest.mark.parametrize("m", [2, 3])
    def test_first_draw_is_near_uniform(self, m):
        seeds = 5000
        counts = Counter(engine._Draws(seed).below(m) for seed in range(seeds))
        assert sorted(counts) == list(range(m))
        assert all(abs(count - seeds / m) <= 0.05 * seeds / m for count in counts.values())

    def test_a_seed_replays_its_draws(self):
        for seed in (0, 1, -5, 10**30):
            first, second = engine._Draws(seed), engine._Draws(seed)
            assert [first.below(m) for m in range(2, 202)] == [second.below(m) for m in range(2, 202)]
            assert first.block > 1  # the draws spent more than one 512-bit block

    def test_draws_are_blake2b_blocks_taken_by_divmod(self):
        for seed in (0, 1, -5, 10**30):
            pool, block, expected = 0, 0, []
            for m in range(2, 202):
                if pool < 1 << 64:
                    digest = hashlib.blake2b(f"{seed}/{block}".encode()).digest()
                    pool, block = int.from_bytes(digest, "little"), block + 1
                pool, value = divmod(pool, m)
                expected.append(value)
            draws = engine._Draws(seed)
            assert [draws.below(m) for m in range(2, 202)] == expected

    def test_draws_only_at_choice_points(self, monkeypatch):
        taken = []

        class Recorded(engine._Draws):
            __slots__ = ()

            def below(self, m):
                taken.append(m)
                return super().below(m)

        monkeypatch.setattr(engine, "_Draws", Recorded)
        stabilize_random(parse_configuration("(1,2),3,4"), 0)  # p = 1: every step is forced
        assert taken == []
        for seed in range(10):
            taken.clear()
            stabilize_random(parse_configuration("4,(3,2),1"), seed)
            assert taken == [2]  # sites 1 and 3 both eligible, once; a pair draw would add m = 6

    def test_seeded_network_draws_only_at_choice_points(self, monkeypatch):
        taken = []

        class Recorded(engine._Draws):
            __slots__ = ()

            def below(self, m):
                taken.append(m)
                return super().below(m)

        monkeypatch.setattr(engine, "_Draws", Recorded)
        engine._seeded(3, 1, 0)  # p = 1: every step is forced
        assert taken == []
        for seed in range(10):
            taken.clear()
            run = engine._seeded(3, 2, seed)  # the network of 4,(3,2),1
            assert taken == [2]
            assert run((4, 2, 3, 1)) == stabilize_random(parse_configuration("4,(3,2),1"), seed)[0]
