"""Unit tests for pair scheduling."""

import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pluralitysim import schedulers as scheduling
from pluralitysim.engine import FixedSteps, init_configuration, run
from pluralitysim.schedulers import (RoundRobin, StarvationAdversary,
                                     UniformRandom, canonical_pair,
                                     fairness_audit, make_scheduler,
                                     pair_count, pair_index)


def pair_list(scheduler, start, count):
    """scheduler.pairs(start, count) as a list of (first, second) tuples."""
    return list(zip(*scheduler.pairs(start, count)))


def scalar_schedule(scheduler, steps):
    """The pair of each step, computed one step at a time by rank lookup in
    the enumerated pair list and, for UniformRandom, one scalar draw per
    step; independent of the closed form the schedulers use."""
    ranked = list(combinations(range(scheduler.n), 2))
    total = len(ranked)
    if isinstance(scheduler, RoundRobin):
        return [ranked[t % total] for t in steps]
    if isinstance(scheduler, UniformRandom):
        rng = np.random.default_rng(scheduler.seed)
        drawn = [ranked[int(rng.integers(total))]
                 for _ in range(max(steps, default=-1) + 1)]
        return [drawn[t] for t in steps]
    cut = ranked.index(scheduler.excluded)
    pairs = []
    for t in steps:
        if t >= scheduler.release_step:
            rank = (t - scheduler.release_step) % total
        else:
            rank = t % (total - 1)
            if rank >= cut:
                rank += 1
        pairs.append(ranked[rank])
    return pairs


@st.composite
def schedulers(draw):
    kind = draw(st.sampled_from(["roundrobin", "random", "adversary"]))
    # up to 120 agents, so that populations beyond the pair table's 91
    # are drawn too
    n = draw(st.integers(2 if kind != "adversary" else 3, 120))
    if kind == "roundrobin":
        return RoundRobin(n)
    if kind == "random":
        return UniformRandom(n, seed=draw(st.integers(0, 2**32)))
    excluded = draw(st.sampled_from(list(combinations(range(n), 2))))
    return StarvationAdversary(n, excluded, draw(st.integers(0, 200)))


class TestPairIndexing:
    def test_canonical_pair_orders_and_rejects_loops(self):
        assert canonical_pair(3, 1) == (1, 3)
        assert canonical_pair(1, 3) == (1, 3)
        with pytest.raises(ValueError):
            canonical_pair(2, 2)

    def test_pair_count_follows_the_count_rule(self):
        assert [pair_count(n) for n in (0, 1, 2, 5)] == [0, 0, 1, 10]
        assert pair_count(np.int64(5)) == 10
        for n in (-3, True, 2.0):
            with pytest.raises(ValueError,
                               match="^n must be a non-negative integer"):
                pair_count(n)

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 20, 41, 91, 92])
    def test_matches_lexicographic_enumeration(self, n):
        expected = list(combinations(range(n), 2))
        assert [pair_list(RoundRobin(n), i, 1)[0]
                for i in range(pair_count(n))] == expected

    @given(st.integers(2, 200), st.integers(0, 10**6))
    def test_round_trips_through_pair_index(self, n, raw):
        index = raw % pair_count(n)
        [pair] = pair_list(RoundRobin(n), index, 1)
        assert 0 <= pair[0] < pair[1] < n
        assert pair_index(pair, n) == index

    @pytest.mark.parametrize("n", [10**6, 10**8, 3 * 10**9])
    def test_round_trips_at_the_edge_ranks_of_large_populations(self, n):
        # round-robin's integer walk and the closed form of the other
        # schedulers; from n = 10**8 on, 8*r exceeds 2**53 and the closed
        # form's float first guess is inexact, so its integer correction
        # has to run; 3 * 10**9 is the largest n the int64 arithmetic is
        # allowed
        total = pair_count(n)
        expected = {0: (0, 1), total - 1: (n - 2, n - 1)}
        # the first pair whose first agent is n - m has rank
        # total - m*(m-1)/2; the rank before it is the last pair of n - m - 1
        for m in (n - 1, n - 2, n - 3, n // 2, 3):
            edge = total - m * (m - 1) // 2
            expected[edge] = (n - m, n - m + 1)
            expected[edge - 1] = (n - m - 1, n - 1)
        for index in (*expected, total // 2):
            [pair] = pair_list(RoundRobin(n), index, 1)
            assert 0 <= pair[0] < pair[1] < n
            assert pair == expected.get(index, pair)
            assert pair_index(pair, n) == index
            assert scheduling._pairs_from_indices(np.array([index]), n) == (
                [pair[0]], [pair[1]])

    def test_rejects_out_of_range_indices(self):
        with pytest.raises(ValueError):
            RoundRobin(3).pairs(-1, 1)
        with pytest.raises(ValueError):
            RoundRobin(4).pairs(1.5, 1)
        with pytest.raises(ValueError):
            RoundRobin(3 * 10**9 + 1).pairs(0, 1)
        with pytest.raises(ValueError):
            pair_index((1, 1), 3)


class TestPairTable:
    def test_table_equals_the_closed_form_at_every_rank(self):
        for n in range(2, 93):
            ranks = np.arange(pair_count(n), dtype=np.int64)
            tabled = scheduling._pairs_from_indices(ranks, n)
            computed = scheduling._closed_form(ranks, n)
            assert tabled == tuple(part.tolist() for part in computed)

    def test_only_populations_up_to_91_agents_keep_a_table(self, monkeypatch):
        # 91 agents have 4095 pairs, 92 agents 4186; round-robin order
        # keeps its round as lists, apart from UniformRandom's tables
        monkeypatch.setattr(scheduling, "_PAIR_TABLES", {})
        monkeypatch.setattr(scheduling, "_ROUNDS", {})
        run(init_configuration([0, 1] * 46, 2), RoundRobin(92), FixedSteps(5000))
        assert scheduling._PAIR_TABLES == scheduling._ROUNDS == {}
        UniformRandom(91, seed=0).pairs(0, 10)
        assert list(scheduling._PAIR_TABLES) == [91]
        assert len(scheduling._PAIR_TABLES[91][0]) == pair_count(91)
        assert scheduling._ROUNDS == {}
        RoundRobin(91).pairs(10, 10)
        assert list(scheduling._ROUNDS) == [91]
        assert scheduling._ROUNDS[91] == tuple(
            part.tolist() for part in scheduling._PAIR_TABLES[91])

    @pytest.mark.parametrize("sched", [
        RoundRobin(7), UniformRandom(7, seed=3),
        StarvationAdversary(7, (1, 2), release_step=9)],
        ids=["roundrobin", "random", "adversary"])
    def test_changing_returned_pairs_changes_no_later_result(self, sched):
        for start, count in ((0, pair_count(7)), (5, 30)):
            expected = scalar_schedule(sched, range(start, start + count))
            firsts, seconds = sched.pairs(start, count)
            firsts[:] = [5] * count
            seconds[:] = [6] * count
            assert pair_list(sched, start, count) == expected
        assert [pair_list(RoundRobin(7), i, 1)[0]
                for i in range(pair_count(7))] == list(combinations(range(7), 2))


class TestRoundRobin:
    def test_cycles_in_lexicographic_order(self):
        sched = RoundRobin(3)
        assert pair_list(sched, 0, 4) == [(0, 1), (0, 2), (1, 2), (0, 1)]

    def test_one_cycle_covers_every_pair_once(self):
        n = 6
        sched = RoundRobin(n)
        prefix = pair_list(sched, 0, pair_count(n))
        assert fairness_audit(prefix, n) == {
            pair: 1 for pair in combinations(range(n), 2)}

    def test_needs_two_agents(self):
        with pytest.raises(ValueError):
            RoundRobin(1).pairs(0, 1)

    def test_rejects_negative_steps(self):
        with pytest.raises(ValueError):
            RoundRobin(3).pairs(-1, 1)
        with pytest.raises(ValueError):
            RoundRobin(3).pairs(0, -1)

    def test_spans_equal_the_closed_form(self):
        # slices of the kept round (n <= 91), repeated for spans that cross
        # a round's end, and row walks (every span of n >= 92) alike
        for n in range(2, 96):
            total = pair_count(n)
            for start in (0, total // 2, total - 1, 3 * total):
                for count in (0, 1, total - 1, total, 2 * total + 3, 4096):
                    assert RoundRobin(n).pairs(start, count) == \
                        scheduling._pairs_from_indices(
                            (start + np.arange(count)) % total, n)

    def test_spans_need_no_numpy(self, monkeypatch):
        # round-robin spans, and adversary spans without the first or the
        # last pair that hold the release; then a whole adversary run
        scheds = []
        for n in (2, 8, 91, 92, 300):
            total = pair_count(n)
            scheds += [(RoundRobin(n), start, count) for start, count in (
                (0, total), (5, 4096), (total - 1, 3))]
            if n > 2:
                scheds += [(StarvationAdversary(n, pair, release), start, count)
                           for pair in ((0, 1), (n - 2, n - 1))
                           for release, start, count in (
                               (10, 0, 30), (total + 3, total - 2, 4096))]
        expected = [scalar_schedule(sched, range(start, start + count))
                    for sched, start, count in scheds]
        adversary = StarvationAdversary(6, (2, 4), release_step=40)
        config = init_configuration([0, 1, 1, 2, 2, 2], 3)
        expected_run = run(config, adversary, FixedSteps(100))

        class NoNumpy:
            def __getattr__(self, name):
                raise AssertionError(f"numpy.{name} was used")

        monkeypatch.setattr(scheduling, "_ROUNDS", {})
        monkeypatch.setattr(scheduling, "np", NoNumpy())
        assert [pair_list(sched, start, count)
                for sched, start, count in scheds] == expected
        assert run(config, adversary, FixedSteps(100)) == expected_run

    def test_size_alone_picks_the_kept_round(self, monkeypatch):
        # once the round of an n <= 91 is kept, no span is walked, not even
        # one that runs past the round's end
        spans = {n: [(start, count) for start in (0, pair_count(n) - 1, 12_345)
                     for count in (0, 1, pair_count(n), 2 * pair_count(n) + 3,
                                   4096)]
                 for n in (2, 3, 8, 30, 91)}
        expected = {n: [scalar_schedule(RoundRobin(n), range(start, start + count))
                        for start, count in spans[n]] for n in spans}
        for n in spans:
            RoundRobin(n).pairs(0, 1)

        def no_walk(*args):
            raise AssertionError("a kept round was walked")

        monkeypatch.setattr(scheduling, "_walk", no_walk)
        for n in spans:
            assert [pair_list(RoundRobin(n), start, count)
                    for start, count in spans[n]] == expected[n]


@pytest.mark.parametrize("make, plain", [
    (lambda: RoundRobin(4).pairs(np.int64(2), 2),
     lambda: RoundRobin(4).pairs(2, 2)),
    (lambda: RoundRobin(4).pairs(2, np.int64(2)),
     lambda: RoundRobin(4).pairs(2, 2)),
    (lambda: UniformRandom(4, seed=0).pairs(np.int64(2), 3),
     lambda: UniformRandom(4, seed=0).pairs(2, 3)),
    (lambda: StarvationAdversary(4, (0, 1), np.int64(3)).pairs(0, 4),
     lambda: StarvationAdversary(4, (0, 1), 3).pairs(0, 4)),
    (lambda: RoundRobin(4).pairs(True, 2), None),
    (lambda: RoundRobin(4).pairs(0, False), None),
    (lambda: StarvationAdversary(4, (0, 1), True), None),
    (lambda: RoundRobin(-3).pairs(0, 3), None),
    (lambda: UniformRandom(-3, seed=0).pairs(0, 3), None),
    (lambda: StarvationAdversary(-3, (0, 1), 0), None),
], ids=["numpy-start", "numpy-count", "numpy-random-start", "numpy-release",
        "bool-start", "bool-count", "bool-release", "negative-n-roundrobin",
        "negative-n-random", "negative-n-adversary"])
def test_scheduler_integers_follow_the_color_rule(make, plain):
    # numpy integers act as the plain int they hold; bool and negative
    # values are rejected
    if plain is None:
        with pytest.raises(ValueError, match="must be a non-negative integer"):
            make()
    else:
        assert make() == plain()


class TestUniformRandom:
    def test_same_seed_same_schedule(self):
        a = UniformRandom(10, seed=42)
        b = UniformRandom(10, seed=42)
        assert pair_list(a, 0, 50) == pair_list(b, 0, 50)

    def test_query_order_does_not_matter(self):
        a = UniformRandom(10, seed=7)
        b = UniformRandom(10, seed=7)
        forward = pair_list(a, 0, 30)
        backward = [pair_list(b, t, 1)[0] for t in reversed(range(30))]
        assert forward == list(reversed(backward))

    def test_different_seeds_diverge(self):
        a = UniformRandom(10, seed=1)
        b = UniformRandom(10, seed=2)
        assert pair_list(a, 0, 30) != pair_list(b, 0, 30)

    def test_long_prefix_hits_every_pair(self):
        n = 5
        sched = UniformRandom(n, seed=3)
        counts = fairness_audit(pair_list(sched, 0, 600), n)
        assert all(count > 0 for count in counts.values())

    def test_needs_two_agents(self):
        with pytest.raises(ValueError):
            UniformRandom(1, seed=0).pairs(0, 1)

    def test_pinned_prefix(self):
        # the stream of one scalar Generator.integers draw per step
        assert pair_list(UniformRandom(10, seed=42), 0, 8) == [
            (0, 5), (4, 9), (3, 9), (2, 5), (2, 5), (5, 9), (0, 4), (4, 6)]
        assert pair_list(UniformRandom(7, seed=[5, 1]), 0, 8) == [
            (0, 3), (3, 5), (3, 5), (1, 5), (4, 5), (2, 6), (3, 6), (3, 6)]

    def test_keeps_no_per_step_list(self):
        sched = UniformRandom(50, seed=9)
        tracemalloc.start()
        try:
            sched.pairs(0, 1000)
            before, _ = tracemalloc.get_traced_memory()
            for start in range(1000, 200_000, 4096):
                sched.pairs(start, 4096)
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert after - before < 64 * 1024

    def test_unseeded_schedule_replays_after_a_rewind(self):
        sched = UniformRandom(10, seed=None)
        first = pair_list(sched, 0, 20)
        assert pair_list(sched, 0, 20) == first


class TestStarvationAdversary:
    def test_starves_the_excluded_pair_until_release(self):
        sched = StarvationAdversary(4, excluded=(0, 2), release_step=30)
        prefix = pair_list(sched, 0, 30)
        assert (0, 2) not in prefix
        counts = fairness_audit(prefix, 4)
        assert counts[(0, 2)] == 0
        assert all(count > 0 for pair, count in counts.items()
                   if pair != (0, 2))

    def test_release_restarts_a_full_round_robin(self):
        sched = StarvationAdversary(4, excluded=(0, 2), release_step=10)
        post = pair_list(sched, 10, pair_count(4))
        assert post == list(combinations(range(4), 2))

    def test_canonicalizes_the_excluded_pair(self):
        sched = StarvationAdversary(5, excluded=(3, 1), release_step=0)
        assert sched.excluded == (1, 3)

    def test_rejects_bad_configurations(self):
        with pytest.raises(ValueError):
            StarvationAdversary(3, excluded=(0, 3), release_step=0)
        with pytest.raises(ValueError):
            StarvationAdversary(3, excluded=(1, 1), release_step=0)
        with pytest.raises(ValueError):
            StarvationAdversary(3, excluded=(0, 1), release_step=-1)

    @pytest.mark.parametrize("n", [3, 4, 8, 30, 91, 92, 120])
    def test_spans_equal_the_scalar_schedule(self, n):
        # the kept round (n <= 91) and walks (n >= 92), without the first,
        # the last and a middle pair, released before, inside and after
        # each span
        total = pair_count(n)
        lap = total - 1
        counts = [0, 1, lap, total, 4096] + ([2 * total + 3] if n <= 30 else [])
        for rank in (0, total // 2, lap):
            excluded = list(combinations(range(n), 2))[rank]
            for start in (0, lap - 1, lap, 3 * total + 2):
                for count in counts:
                    for release in (0, start + 1, start + count // 2, 2**62):
                        sched = StarvationAdversary(n, excluded, release)
                        assert pair_list(sched, start, count) == scalar_schedule(
                            sched, range(start, start + count))

    def test_two_agents_have_nothing_else_to_schedule(self):
        sched = StarvationAdversary(2, excluded=(0, 1), release_step=5)
        with pytest.raises(ValueError):
            sched.pairs(0, 1)
        with pytest.raises(ValueError):
            sched.pairs(3, 3)
        assert pair_list(sched, 5, 2) == [(0, 1), (0, 1)]


class TestBatchedPairs:
    @given(schedulers(), st.lists(st.integers(0, 300), min_size=1, max_size=6),
           st.integers(0, 400), st.integers(0, 200))
    def test_any_split_and_rewind_matches_the_scalar_schedule(
            self, sched, counts, rewind, tail):
        got = []
        start = 0
        for count in counts:
            got += pair_list(sched, start, count)
            start += count
        assert got == scalar_schedule(sched, range(start))
        rewind = min(rewind, start)
        assert pair_list(sched, rewind, tail) == scalar_schedule(
            sched, range(rewind, rewind + tail))

    def test_skipping_ahead_matches_the_scalar_schedule(self):
        for sched in (RoundRobin(9), UniformRandom(9, seed=4),
                      StarvationAdversary(9, (2, 5), release_step=70_000)):
            assert pair_list(sched, 69_990, 20) == scalar_schedule(
                sched, range(69_990, 70_010))

    def test_pair_at_is_one_step_of_pairs(self):
        for sched in (RoundRobin(6), UniformRandom(6, seed=2),
                      StarvationAdversary(6, (1, 4), release_step=20)):
            assert [sched.pair_at(t) for t in range(40)] == pair_list(sched, 0, 40)

    @given(schedulers(), st.integers(0, 10**5), st.integers(0, 300))
    @example(RoundRobin(4), 7, 0)
    @example(RoundRobin(91), 4000, 300)
    @example(RoundRobin(92), 4000, 300)
    @example(UniformRandom(91, seed=1), 0, 300)
    @example(UniformRandom(92, seed=1), 0, 300)
    @example(StarvationAdversary(91, (0, 1), 100), 0, 300)
    @example(StarvationAdversary(92, (0, 1), 100), 0, 300)
    def test_pairs_are_canonical_int_lists(self, sched, start, count):
        # the table (n <= 91) and the closed form (n >= 92) alike
        firsts, seconds = sched.pairs(start, count)
        assert type(firsts) is list and type(seconds) is list
        assert len(firsts) == len(seconds) == count
        assert all(type(i) is type(j) is int and 0 <= i < j < sched.n
                   for i, j in zip(firsts, seconds))


class TestMakeScheduler:
    def test_builds_each_kind(self):
        assert isinstance(make_scheduler("roundrobin", 4), RoundRobin)
        assert isinstance(make_scheduler("random", 4, seed=1), UniformRandom)
        adversary = make_scheduler("adversary", 4, excluded=(1, 2))
        assert isinstance(adversary, StarvationAdversary)
        # default release is far beyond any desk-scale run
        assert (1, 2) not in pair_list(adversary, 0, 100)

    def test_kind_labels_match(self):
        assert make_scheduler("roundrobin", 3).kind == "roundrobin"
        assert make_scheduler("random", 3, seed=0).kind == "random"
        assert make_scheduler("adversary", 3).kind == "adversary"

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            make_scheduler("sorted", 3)


class TestFairnessAudit:
    def test_counts_and_canonicalizes(self):
        counts = fairness_audit([(1, 0), (0, 1), (2, 0)], 3)
        assert counts == {(0, 1): 2, (0, 2): 1, (1, 2): 0}

    def test_rejects_foreign_pairs(self):
        with pytest.raises(ValueError):
            fairness_audit([(0, 5)], 3)

    @pytest.mark.parametrize("n", [-1, True, 2.0])
    def test_rejects_a_bad_population_size(self, n):
        with pytest.raises(ValueError, match="^n must be a non-negative integer"):
            fairness_audit([], n)
