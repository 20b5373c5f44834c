"""Unit tests for pair scheduling."""

import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pluralitysim.schedulers import (RoundRobin, StarvationAdversary,
                                     UniformRandom, canonical_pair,
                                     fairness_audit, make_scheduler,
                                     pair_count, pair_from_index, pair_index)


def pair_list(scheduler, start, count):
    """scheduler.pairs(start, count) as a list of (first, second) tuples."""
    firsts, seconds = scheduler.pairs(start, count)
    return list(zip(firsts.tolist(), seconds.tolist()))


def scalar_schedule(scheduler, steps):
    """The pair of each step, computed one step at a time with the scalar
    pair_from_index and, for UniformRandom, one scalar draw per step."""
    n = scheduler.n
    total = pair_count(n)
    if isinstance(scheduler, RoundRobin):
        return [pair_from_index(t % total, n) for t in steps]
    if isinstance(scheduler, UniformRandom):
        rng = np.random.default_rng(scheduler.seed)
        drawn = [pair_from_index(int(rng.integers(total)), n)
                 for _ in range(max(steps, default=-1) + 1)]
        return [drawn[t] for t in steps]
    pairs = []
    for t in steps:
        if t >= scheduler.release_step:
            rank = (t - scheduler.release_step) % total
        else:
            rank = t % (total - 1)
            if rank >= pair_index(scheduler.excluded, n):
                rank += 1
        pairs.append(pair_from_index(rank, n))
    return pairs


@st.composite
def schedulers(draw):
    kind = draw(st.sampled_from(["roundrobin", "random", "adversary"]))
    n = draw(st.integers(2 if kind != "adversary" else 3, 40))
    if kind == "roundrobin":
        return RoundRobin(n)
    if kind == "random":
        return UniformRandom(n, seed=draw(st.integers(0, 2**32)))
    excluded = pair_from_index(draw(st.integers(0, pair_count(n) - 1)), n)
    return StarvationAdversary(n, excluded, draw(st.integers(0, 200)))


class TestPairIndexing:
    def test_canonical_pair_orders_and_rejects_loops(self):
        assert canonical_pair(3, 1) == (1, 3)
        assert canonical_pair(1, 3) == (1, 3)
        with pytest.raises(ValueError):
            canonical_pair(2, 2)

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 20, 41])
    def test_matches_lexicographic_enumeration(self, n):
        expected = list(combinations(range(n), 2))
        assert [pair_from_index(i, n) for i in range(pair_count(n))] == expected

    @given(st.integers(2, 200), st.integers(0, 10**6))
    def test_round_trips_through_pair_index(self, n, raw):
        index = raw % pair_count(n)
        pair = pair_from_index(index, n)
        assert 0 <= pair[0] < pair[1] < n
        assert pair_index(pair, n) == index

    def test_rejects_out_of_range_indices(self):
        with pytest.raises(ValueError):
            pair_from_index(3, 3)
        with pytest.raises(ValueError):
            pair_from_index(-1, 3)
        with pytest.raises(ValueError):
            pair_index((1, 1), 3)


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

    def test_pairs_are_canonical_int_arrays(self):
        firsts, seconds = UniformRandom(30, seed=1).pairs(0, 500)
        assert firsts.dtype == seconds.dtype == np.int64
        assert ((0 <= firsts) & (firsts < seconds) & (seconds < 30)).all()
        empty = RoundRobin(4).pairs(7, 0)
        assert [len(part) for part in empty] == [0, 0]


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
