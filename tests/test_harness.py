import concurrent.futures
import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from concurrent.futures import Future
from itertools import permutations
from math import factorial
from pathlib import Path

import pytest

from chiptopple import bijections, characterize, engine, families, harness, polybernoulli
from chiptopple.core import Configuration, lift, parse_configuration, reverse_complement
from chiptopple.families import CapExceeded
from chiptopple.harness import (
    DOCUMENTED,
    MATCH,
    MISMATCH,
    brute_T,
    brute_all_r_toppleable,
    brute_count_toppleable,
    configuration_count,
    enumerate_configurations,
    fiber_classes,
    group_by_resultant,
    iter_permutations,
    marked_class_table,
    resultant_counts_marked,
    resultant_table,
    schedule_independence,
    verify_identities,
)
from conftest import oracle_chip_words, oracle_configurations


@pytest.fixture()
def in_process_pools(monkeypatch):
    """Two CPUs, and a process pool that runs each task in process and records it."""
    pools = []

    class InProcessPool:
        def __init__(self, max_workers):
            self.max_workers = max_workers
            self.tasks = []
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, task):
            self.tasks.append(task)
            done = Future()
            done.set_result(fn(task))
            return done

    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return pools


class TestRanking:
    def test_iteration_matches_itertools(self):
        assert list(iter_permutations(4)) == [
            tuple(p) for p in permutations(range(1, 5))
        ]

    def test_chunks_cover_everything(self):
        full = list(iter_permutations(5))
        chunked = [
            perm
            for lo in range(0, 120, 17)
            for perm in iter_permutations(5, lo, min(lo + 17, 120))
        ]
        assert chunked == full


class TestEnumerateConfigurations:
    @pytest.mark.parametrize("n,p,total", [(3, 2, 12), (1, 1, 1), (4, 2, 60)])
    def test_counts(self, n, p, total):
        configs = list(enumerate_configurations(n, p))
        assert len(configs) == total == configuration_count(n)
        assert len(set(configs)) == total

    @pytest.mark.parametrize("n,p", [(n, p) for n in range(1, 5) for p in range(1, n + 1)])
    def test_matches_oracle(self, n, p):
        assert set(enumerate_configurations(n, p)) == set(oracle_configurations(n, p))

    @pytest.mark.parametrize("n,p", [(n, p) for n in range(1, 6) for p in range(1, n + 1)])
    def test_yields_validated_configurations(self, n, p):
        for config in enumerate_configurations(n, p):
            assert config == Configuration(n=config.n, p=config.p, chips=config.chips)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_chip_words_match_the_oracle(self, n):
        # ranges that are empty, cross pair blocks, or end past the total
        per_pair, total = factorial(n - 1), configuration_count(n)
        spans = [(0, None), (0, 0), (3, 3), (5, 2), (per_pair - 1, per_pair + 1), (per_pair // 2, 3 * per_pair + 1)]
        spans += [(max(total - 3, 0), total + 5), (total + 2, total + 9), (max(total - per_pair - 1, 0), None)]
        for p in range(1, n + 1):
            words = oracle_chip_words(n, p)
            for lo, hi in spans:
                assert list(harness._chip_words(n, p, lo, hi)) == words[lo:hi]

    def test_range_slicing(self):
        full = list(enumerate_configurations(4, 3))
        pieces = [
            config
            for lo in range(0, 60, 13)
            for config in enumerate_configurations(4, 3, lo, min(lo + 13, 60))
        ]
        assert pieces == full

    def test_cap(self):
        with pytest.raises(CapExceeded):
            next(enumerate_configurations(8, 1))

    @pytest.mark.parametrize("lo,hi", [(-5, 3), (0, -2)])
    def test_negative_ranks_raise(self, lo, hi):
        with pytest.raises(ValueError):
            list(enumerate_configurations(3, 2, lo, hi))
        with pytest.raises(ValueError):
            list(iter_permutations(3, lo, hi))


class TestBruteCounts:
    def test_toppleable_examples(self):
        assert brute_count_toppleable(3, 2) == 7
        assert brute_count_toppleable(2, 1) == 2
        assert brute_count_toppleable(5, 3) == 115

    def test_both_oracles_agree(self):
        for n in range(1, 6):
            for p in range(1, n + 1):
                assert brute_count_toppleable(n, p, "simulate") == brute_count_toppleable(
                    n, p, "characterize"
                )

    def test_unknown_oracle(self):
        with pytest.raises(ValueError):
            brute_count_toppleable(2, 1, "tea-leaves")

    def test_parallel_matches_serial(self):
        assert brute_count_toppleable(5, 2, jobs=2) == brute_count_toppleable(5, 2)
        assert brute_T(5, 2, 3, jobs=2) == 22

    def test_window_oracle_crosses_a_real_pool(self, monkeypatch):
        # the generated window test does not pickle: each worker builds its own
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        for p in range(1, 6):
            assert brute_count_toppleable(5, p, "characterize", jobs=2) == brute_count_toppleable(5, p, "characterize")

    def test_importing_the_cli_loads_no_pool(self):
        # multiprocessing is imported where a pool starts, not by every CLI call
        env = {**os.environ, "PYTHONPATH": str(Path(harness.__file__).parents[1])}
        check = 'import sys, chiptopple.cli; assert "multiprocessing" not in sys.modules'
        subprocess.run([sys.executable, "-c", check], env=env, check=True, timeout=60)

    def test_pool_size_is_bounded(self, monkeypatch):
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
        assert harness._pool_size(1, 40) == 1
        assert harness._pool_size(3, 40) == 3
        assert harness._pool_size(10**6, 40) == 4
        assert harness._pool_size(10**6, 2) == 2
        assert harness._pool_size(2, 0) == 0
        monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
        assert harness._pool_size(10**6, 40) == 1

    @pytest.mark.parametrize(
        "count",
        [
            lambda: brute_count_toppleable(4, 5, "simulate", jobs=2),
            lambda: brute_count_toppleable(4, 5, "characterize", jobs=2),
            lambda: brute_T(4, 5, 1, jobs=2),
            lambda: brute_T(4, 1, 6, jobs=2),
            lambda: brute_all_r_toppleable(4, 5, jobs=2),
        ],
        ids=["toppleable", "toppleable-window", "rp-site", "rp-chip", "all-r"],
    )
    def test_bad_sizes_raise_before_a_pool_starts(self, monkeypatch, count):
        def no_pool(max_workers):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        with pytest.raises(ValueError):
            count()

    def test_chunks_follow_the_workers(self, in_process_pools):
        # a huge --jobs on two CPUs cuts four chunks per worker started,
        # not per job asked for; the fake pool runs them in process
        def span(args):
            return args[2] - args[1]

        assert harness._parallel_sum([(span, ("tag",), 100)], 2000) == [100]
        [pool] = in_process_pools
        assert pool.max_workers == 2
        assert len(pool.tasks) == 8
        assert [task[1:] for task in pool.tasks] == harness._chunked(100, 8)
        assert all(task[0] == "tag" for task in pool.tasks)
        # two items share one pool and keep their own sums
        in_process_pools.clear()
        assert harness._parallel_sum([(span, ("a",), 100), (span, ("b",), 10)], 2000) == [100, 10]
        [pool] = in_process_pools
        assert [task[1:] for task in pool.tasks] == harness._chunked(100, 8) + harness._chunked(10, 8)

    @pytest.mark.parametrize("n,p", [(3, 2), (4, 1), (5, 3)])
    def test_sweep_merges_like_one_chunk(self, monkeypatch, n, p):
        # two CPUs, so jobs=2 merges the chunks of a two-worker pool
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        item = (harness._sweep_chunk, (n, p, 2), configuration_count(n))
        [serial] = harness._parallel_sum([item], 1)
        [merged] = harness._parallel_sum([item], 2)
        assert merged == serial
        assert sum(harness._observed(merged, "resultant").values()) == configuration_count(n)

    @pytest.mark.parametrize(
        "n,p", [(n, p) for n in range(1, 6) for p in range(1, n + 1)] + [(6, 1), (6, 3)]
    )
    def test_sweep_readings_match_the_public_counters(self, n, p):
        tally = harness._sweep_chunk((n, p, 3, 0, configuration_count(n)))
        for fact in ("schedules agree", "lift inverts unlift", "mirror involution"):
            expected = {True: configuration_count(n)} if n <= harness.READING_N else {}
            assert harness._observed(tally, fact) == expected
        for r in range(1, n + 2):
            assert tally["rp toppleable", r] == brute_T(n, p, r)
            marked = harness._observed(tally, ("marked", r))
            if n <= harness.READING_N:
                assert marked == resultant_counts_marked(n + 1, p, r)
            else:
                assert marked == {}
        assert tally["reading window", False] == 0
        assert tally["reading window", True] == (2 * configuration_count(n) if n <= harness.READING_N else 0)
        # every permutation q is read once with each r: its toppleable readings are the r that topple it
        for q in iter_permutations(n):
            expected = sum(characterize.is_rp_toppleable(q, r, p) for r in range(1, n + 2))
            assert tally["toppleable readings", q] == (expected if n <= harness.ENGINE_N else 0)

    @pytest.mark.parametrize("n,p", [(n, p) for n in range(1, 7) for p in range(1, n + 1)])
    def test_pass_facts_match_the_traced_loop(self, n, p):
        # the network is read once per (n,p); the reference traces every configuration
        tally = harness._sweep_chunk((n, p, 1, 0, configuration_count(n)))
        reference = _traced_facts(n, p)
        assert _network_facts(n, p, tally) == reference
        assert reference["arms frozen", True] == configuration_count(n)
        claims = _engine_claims(n, p, tally)
        assert {status for _, status in claims} == {MATCH, DOCUMENTED}

    def test_T_examples(self):
        assert brute_T(5, 2, 3) == 22
        # row p=3 of the n=4 table reads (8, 7, 7, 10, 14); r=5 is its last entry
        assert brute_T(4, 3, 5) == 14
        assert brute_T(5, 1, 1) == 16

    def test_all_r(self):
        assert brute_all_r_toppleable(4, 2) == 7

    def test_perm_cap(self):
        with pytest.raises(CapExceeded):
            brute_T(9, 1, 1)


def _traced_facts(n, p):
    """
    The resultant, empty site and pass facts of every configuration of
    S(n,p), each read from its own ``stabilize_passes`` trace: the arms
    are frozen when every snapshot's arms equal the ends of the final
    occupancy (the resultant with a 0 put back at the empty site).
    """
    tally = Counter()
    for config in enumerate_configurations(n, p):
        trace = list(engine.stabilize_passes(config))
        perm, empty_site = trace[-1].left_arm + trace[-1].right_arm, len(trace[-1].left_arm)
        occupancy = perm[:empty_site] + (0,) + perm[empty_site:]
        frozen = all(
            snap.left_arm == occupancy[: len(snap.left_arm)]
            and snap.right_arm == occupancy[len(occupancy) - len(snap.right_arm) :]
            for snap in trace
        )
        tally["resultant", perm] += 1
        tally["empty site", empty_site] += 1
        tally["passes", len(trace)] += 1
        tally["first pass", trace[0].topples - n] += 1
        tally["arms frozen", frozen] += 1
    return tally


def _network_facts(n, p, tally):
    """
    The traced tally as verify reads it: the resultants from the sweep
    tally, and each of ``_pass_facts(n, p)``, read once from the network,
    counted for every configuration of S(n,p).
    """
    facts = Counter({key: count for key, count in tally.items() if key[0] == "resultant"})
    facts.update({fact: configuration_count(n) for fact in harness._pass_facts(n, p).items()})
    return facts


def _engine_claims(n, p, tally):
    """``_verify_engine``'s (claim, status) pairs, fed the sweep tally and the pass facts of S(n,p) alone."""
    report = harness.VerifyReport(n_max=n)
    harness._verify_engine(report, n, 1, {(n, p): tally}, {(n, p): harness._pass_facts(n, p)})
    return [(item.claim, item.status) for item in report.items]


def _break(request, monkeypatch, edit):
    """
    Rewrite the passes of every network by ``edit`` where they come from,
    ``_schedule``, so the kept programs (emptied, then rebuilt) and the
    streamed traces both run the broken network. monkeypatch cannot restore
    a cache, so the kept programs are emptied again at teardown: no broken
    network reaches a later test.
    """
    schedule = engine._schedule
    monkeypatch.setattr(engine, "_schedule", lambda n, p: edit(tuple(schedule(n, p))))
    engine._program.cache_clear()
    request.addfinalizer(engine._program.cache_clear)


def _drop_last_first_pass_comparator(passes):
    first, *rest = passes
    return (first._replace(comparators=first.comparators[:-1]), *rest)


def _append_arm_comparator(passes):
    # the first register of the read order sits in the first pass's left arm;
    # a comparator with the next one swaps them on some configurations only
    first, last = passes[0], passes[-1]
    order = last.left_arm + last.right_arm
    return (*passes[:-1], last._replace(comparators=last.comparators + ((first.left_arm[0], order[1]),)))


ARMS_CLAIM = "arms are frozen prefixes/suffixes of the final state"


class TestBrokenNetwork:
    """The word-level loops read the network: a dropped comparator must show."""

    def test_simulating_oracle_and_table_change(self, request, monkeypatch):
        _break(request, monkeypatch, _drop_last_first_pass_comparator)
        assert brute_count_toppleable(2, 1, "simulate") == 1  # 2 with the whole network
        assert resultant_table(3, 1).counts == ((1,), (1,))  # ((1,), (2,))
        assert brute_count_toppleable(4, 2, "simulate") == 9  # 23
        with pytest.raises(AssertionError):
            resultant_table(5, 2)  # a class with unequal fibers

    def test_characterizing_oracle_does_not_change(self, request, monkeypatch):
        _break(request, monkeypatch, _drop_last_first_pass_comparator)
        assert brute_count_toppleable(4, 2, "characterize") == 23

    @pytest.mark.parametrize("n,p", [(3, 2), (4, 2), (5, 3)])
    def test_dropped_comparator_keeps_the_traced_tallies(self, request, monkeypatch, n, p):
        _break(request, monkeypatch, _drop_last_first_pass_comparator)
        tally = harness._sweep_chunk((n, p, 1, 0, configuration_count(n)))
        reference = _traced_facts(n, p)
        assert _network_facts(n, p, tally) == reference
        assert harness._pass_facts(n, p)["first pass"] == -1
        claims = dict(_engine_claims(n, p, tally))
        assert claims[ARMS_CLAIM] == MATCH
        assert claims["random schedules agree with passes"] == MISMATCH

    @pytest.mark.parametrize("n,p", [(3, 2), (4, 2), (5, 3)])
    def test_a_comparator_on_a_frozen_arm_shows(self, request, monkeypatch, n, p):
        _break(request, monkeypatch, _append_arm_comparator)
        tally = harness._sweep_chunk((n, p, 1, 0, configuration_count(n)))
        # the network flags all of S(n,p); the traced values only the configurations it swaps
        assert harness._pass_facts(n, p)["arms frozen"] is False
        assert 0 < _traced_facts(n, p)["arms frozen", False] < configuration_count(n)
        assert (ARMS_CLAIM, MISMATCH) in _engine_claims(n, p, tally)

    def test_an_arm_across_the_final_hole_shows(self, request, monkeypatch):
        # S(1,1) split in two passes, the first claiming both registers as its
        # left arm; no later comparator touches them, but the hole lies between
        def across(passes):
            [only] = passes
            return only._replace(left_arm=(1, 2), right_arm=()), only._replace(comparators=())

        _break(request, monkeypatch, across)
        assert harness._pass_facts(1, 1)["arms frozen"] is False
        assert harness._observed(_traced_facts(1, 1), "arms frozen") == {False: 1}
        tally = harness._sweep_chunk((1, 1, 1, 0, 1))
        assert (ARMS_CLAIM, MISMATCH) in _engine_claims(1, 1, tally)


class TestResultantTable:
    def test_s6_p2(self):
        table = resultant_table(6, 2)
        assert table.counts == ((1, 2), (2, 7), (4, 23), (8, 73))

    def test_s4_p2_with_fibers(self):
        assert resultant_table(4, 2).counts == ((1, 2), (2, 7))
        fibers = group_by_resultant(3, 2)
        assert len(fibers[(1, 2, 3, 4)]) == 7
        assert len(fibers[(2, 1, 4, 3)]) == 1
        assert sum(map(len, fibers.values())) == configuration_count(3)

    def test_trivial(self):
        assert resultant_table(2, 1).counts == ((1,),)

    def test_p_range(self):
        with pytest.raises(ValueError):
            resultant_table(4, 4)

    def test_class_with_two_fiber_sizes_raises(self):
        assert fiber_classes({(1, 2): 3, (2, 1): 3, (1,): 1}, len) == {2: 3, 1: 1}
        with pytest.raises(AssertionError, match="unequal fibers 3 and 4"):
            fiber_classes({(1, 2): 3, (2, 1): 4}, len)


class TestMarkedCounts:
    def test_identity_fiber_is_toppleable_count(self):
        fibers = resultant_counts_marked(6, 2, 2)
        assert fibers[(1, 2, 3, 4, 5, 6)] == 32
        assert sum(fibers.values()) == factorial(5)

    def test_p3_both_r(self):
        for r in (3, 4):
            fibers = resultant_counts_marked(6, 3, r)
            assert fibers[(1, 2, 3, 4, 5, 6)] == 31
            assert sum(fibers.values()) == factorial(5)
        assert resultant_counts_marked(6, 3, 3) == resultant_counts_marked(6, 3, 4)

    def test_class_table(self):
        grouped, fibers = marked_class_table(6, 2, 2)
        assert grouped == {
            (0, 1, 1): 2, (0, 1, 2): 4, (0, 2, 1): 4, (0, 2, 2): 14,
            (1, 1, 1): 2, (1, 1, 2): 10, (1, 2, 1): 4, (1, 2, 2): 32,
        }
        assert sum(fibers.values()) == factorial(5)

    def test_class_table_mirrored_r(self):
        # r above the prefix is classified through the mirrored instance
        assert marked_class_table(6, 3, 4)[0] == marked_class_table(6, 3, 3)[0]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            resultant_counts_marked(6, 6, 1)


def test_schedule_independence_counts_runs():
    assert schedule_independence(3, 2, 4) == 12 * 4
    assert schedule_independence(4, 1, 3, base_seed=7) == 60 * 3
    assert schedule_independence(3, 2, 0) == 0


@pytest.mark.parametrize(
    "args,error,message",
    [
        ((8, 1, 1), CapExceeded, "n = 8 exceeds the configuration cap 7"),
        ((3, 0, 1), ValueError, "p outside 1..3"),
        ((3, 4, 1), ValueError, "p outside 1..3"),
        ((3, 4, 0), ValueError, "p outside 1..3"),
    ],
)
def test_schedule_independence_rejects_bad_sizes(args, error, message):
    with pytest.raises(error) as info:
        schedule_independence(*args)
    assert str(info.value) == message


def test_schedule_independence_fails_loudly(monkeypatch):
    seeded = engine._seeded

    def broken(n, p, seed):
        run = seeded(n, p, seed)
        return lambda chips: ((), 0) if chips == (1, 2, 3, 4) else run(chips)

    monkeypatch.setattr(engine, "_seeded", broken)
    with pytest.raises(AssertionError) as info:
        schedule_independence(3, 2, 2)
    assert str(info.value) == "seed 0 disagrees on 1,(2,3),4"


class TestVerifyReport:
    def test_small_run_is_clean(self):
        report = verify_identities(n_max=3, seeds=2)
        assert report.ok
        summary = report.summary()
        assert summary[MISMATCH] == 0
        assert summary[MATCH] > 50
        assert summary[DOCUMENTED] >= 4

    def test_json_round_trips(self):
        report = verify_identities(n_max=2, seeds=1)
        # the report bytes are pinned: a refactor of verify must not change them
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == (
            "4066a1b601955c9b647ca60b55f5f38f313a570c5a579d06aeee66505cf7a039"
        )
        payload = json.loads(report.to_json())
        assert payload["ok"] is True
        assert payload["summary"]["mismatch"] == 0
        assert {item["status"] for item in payload["items"]} <= {
            "match", "mismatch", "documented-discrepancy"
        }

    @pytest.mark.parametrize("n_max", [2, 4, 6])
    def test_one_pool_per_run(self, in_process_pools, n_max):
        verify_identities(n_max, jobs=2, seeds=1)
        assert [pool.max_workers for pool in in_process_pools] == [2]

    def test_one_job_starts_no_pool(self, in_process_pools):
        verify_identities(4, jobs=1, seeds=1)
        assert in_process_pools == []

    def test_pool_gives_the_same_bytes(self):
        single = verify_identities(4, jobs=1).to_json()
        assert verify_identities(4, jobs=2).to_json() == single
        # pinned at n_max 4 too, where every n-ranged claim reads at least one size
        assert hashlib.sha256(single.encode()).hexdigest() == (
            "fdecbc17f64f80b3258ee9734104b83eadcbb0a199acfad84e4bf86961928985"
        )

    @pytest.mark.parametrize(
        "name,claims",
        [
            ("_seeded", ["random schedules agree with passes"]),
            ("lift", ["the two unlift readings invert lift"]),
            (
                "reverse_complement",
                [
                    "reverse-complement commutes with the resultant",
                    "reverse-complement is an involution onto S(n,n+1-p)",
                ],
            ),
            ("phi_inverse", ["record-skeleton reduction is a fiber bijection"]),
        ],
    )
    def test_a_folded_check_still_fails(self, monkeypatch, name, claims):
        # break the function on one configuration of S(3,2): exactly the
        # claims that read it turn into mismatches
        module = {"_seeded": engine, "phi_inverse": bijections}.get(name, harness)
        real = getattr(module, name)
        target, other = parse_configuration("1,(2,3),4"), parse_configuration("4,(2,3),1")

        def broken_on_config(config, *args):
            return real(other if config == target else config, *args)

        def broken_lift(perm, r, p):
            config = real(perm, r, p)
            return lift((3, 2, 1), r, p) if config == target else config

        def broken_seeded(n, p, seed):
            run = real(n, p, seed)
            return lambda chips: run(other.chips if chips == target.chips else chips)

        broken = {"lift": broken_lift, "_seeded": broken_seeded}.get(name, broken_on_config)
        monkeypatch.setattr(module, name, broken)
        report = verify_identities(n_max=3, seeds=2)
        assert [item.claim for item in report.items if item.status == MISMATCH] == claims

    def test_a_flipped_every_r_verdict_fails(self, monkeypatch):
        # flip the inverse-window verdict on one permutation of S_3 at p = 2:
        # the all-r count and its check against the sweep's readings both fail
        real = characterize.is_all_r_toppleable

        def flipped(perm, p):
            return real(perm, p) != (perm == (1, 3, 2) and p == 2)

        monkeypatch.setattr(characterize, "is_all_r_toppleable", flipped)
        report = verify_identities(n_max=3, seeds=1)
        assert [item.claim for item in report.items if item.status == MISMATCH] == [
            "all-r toppleable count is C(p,n-p)",
            "inverse window equals toppleability for every r",
        ]

    @pytest.mark.parametrize(
        "module,name,corrupt,claim",
        [
            (
                families,
                "family_lanes",
                # one lane too many at size 8, which the round trips (sizes <= 7) do not read: the
                # last lane, 8,7,...,1, lies outside the window -1..7
                lambda lanes, size: {**lanes, ("vesztergombi", 1, 7): lanes["vesztergombi", 1, 7] | 1 << factorial(8) - 1}
                if size == 8
                else lanes,
                "Vesztergombi counts are B(n,k)",
            ),
            # one permutation short in a decomposable set D(m,p) that, at
            # n_max 3, only the support claim or only the marked claim reads
            (
                harness,
                "_decomposable",
                lambda perms, *args: perms[args == (4, 2) :],
                "resultant support equals decomposable-prefix set",
            ),
            (
                harness,
                "_decomposable",
                lambda perms, *args: perms[args == (3, 2) :],
                "marked fibers keyed by the record placement rule",
            ),
            (
                harness,
                "_decomposable",
                lambda perms, *args: perms[args == (2, 1) :],
                "marked fibers keyed by the record placement rule",
            ),
            (
                polybernoulli,
                "count_N_pi",
                lambda count, *args: count + (args == ((1, 2, 3), 1, 1)),
                "marked fibers match the difference formula",
            ),
            (
                polybernoulli,
                "count_rp_toppleable",
                lambda count, *args: count + (args == (2, 1, 1, "c_sum")),
                "difference formula vs C-number sums",
            ),
            (
                bijections,
                "phi_inverse",
                lambda config, reduced, perm, *rest: reverse_complement(config) if perm == (1, 2, 3, 4) else config,
                "record-skeleton reduction is a fiber bijection",
            ),
        ],
    )
    def test_a_rewritten_claim_still_fails(self, monkeypatch, module, name, corrupt, claim):
        # corrupt one value that a claim reads: exactly that claim turns into
        # a mismatch (an all() over nothing would still read True)
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: corrupt(real(*args), *args))
        report = verify_identities(n_max=3, seeds=1)
        assert [item.claim for item in report.items if item.status == MISMATCH] == [claim]

    def test_one_family_scan_per_size(self, monkeypatch):
        scanned = []
        real = families.family_lanes

        def counted(size):
            scanned.append(size)
            return real(size)

        monkeypatch.setattr(families, "family_lanes", counted)
        verify_identities(n_max=3, jobs=1, seeds=1)
        assert scanned == list(range(2, 9))

    def test_text_format_mentions_counts(self):
        report = verify_identities(n_max=2, seeds=1)
        text = report.format_text()
        assert "matched" in text and "documented" in text
