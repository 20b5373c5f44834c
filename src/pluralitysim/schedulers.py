"""Pair schedules: who interacts at each step.

A scheduler maps each step index to one unordered pair of agent indices,
deterministically. pairs(start, count) returns the pairs of a run of
consecutive steps as two integer arrays (firsts, seconds) with
firsts < seconds elementwise, and pair_at(step) is its one-step form;
the interaction rule is symmetric, so nothing is lost by ignoring order.
RoundRobin cycles the canonical pair list in lexicographic order and is
weakly fair by construction: every pair recurs in every window of
n*(n-1)/2 steps. UniformRandom draws pairs independently from a seeded
generator and is weakly fair with probability one, but gives no
per-sample guarantee; tests that need guaranteed convergence use
RoundRobin. StarvationAdversary withholds one pair until a release step,
deliberately violating weak fairness, so that tests can show safety holds
anyway and that convergence genuinely needs fairness.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

AgentPair = tuple[int, int]


def canonical_pair(first: int, second: int) -> AgentPair:
    """Order a pair of distinct agent indices as (low, high)."""
    if first == second:
        raise ValueError(f"a pair needs two distinct agents, got ({first}, {second})")
    return (first, second) if first < second else (second, first)


def pair_count(n: int) -> int:
    """Number of unordered pairs over n agents."""
    return n * (n - 1) // 2


def pair_from_index(index: int, n: int) -> AgentPair:
    """The index-th canonical pair in lexicographic order.

    Order is (0,1), (0,2), ..., (0,n-1), (1,2), ..., (n-2,n-1). Computed
    arithmetically so no pair list is materialized.
    """
    total = pair_count(n)
    if not 0 <= index < total:
        raise ValueError(f"pair index {index} outside [0, {total - 1}]")
    # Rank from the end: the last pair (n-2, n-1) has r = 1. The smallest m
    # with m*(m-1)/2 >= r gives first = n - m.
    r = total - index
    m = (1 + math.isqrt(8 * r - 7)) // 2
    while m * (m - 1) // 2 < r:
        m += 1
    while (m - 1) * (m - 2) // 2 >= r:
        m -= 1
    first = n - m
    second = n - r + (m - 1) * (m - 2) // 2
    return (first, second)


def pair_index(pair: AgentPair, n: int) -> int:
    """Inverse of pair_from_index."""
    i, j = pair
    if not 0 <= i < j < n:
        raise ValueError(f"{pair!r} is not a canonical pair for n={n}")
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


def _check_step(step: int) -> int:
    if not isinstance(step, int) or step < 0:
        raise ValueError(f"step index must be a non-negative integer, got {step!r}")
    return step


def _check_span(start: int, count: int, n: int) -> int:
    # Validates a pairs() request; returns the number of canonical pairs.
    _check_step(start)
    if not isinstance(count, int) or count < 0:
        raise ValueError(f"pair count must be a non-negative integer, got {count!r}")
    total = pair_count(n)
    if total == 0:
        raise ValueError(f"scheduler needs at least two agents, got n={n}")
    return total


def _pairs_from_indices(index: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """pair_from_index over an array of valid indices, as (firsts, seconds).

    Uses the same closed form; the float square root is only a first
    guess that integer comparisons then correct.
    """
    r = pair_count(n) - np.asarray(index, dtype=np.int64)
    m = (1 + np.sqrt(8 * r - 7).astype(np.int64)) // 2
    while (low := m * (m - 1) // 2 < r).any():
        m += low
    while (high := (m - 1) * (m - 2) // 2 >= r).any():
        m -= high
    return n - m, n - r + (m - 1) * (m - 2) // 2


def _cycle(start: int, count: int, period: int) -> np.ndarray:
    # Positions start, start+1, ... of a cycle of the given period.
    return (start % period + np.arange(count, dtype=np.int64)) % period


class _Schedule:
    def pair_at(self, step: int) -> AgentPair:
        """The pair of one step: pairs(step, 1) as a tuple of ints."""
        firsts, seconds = self.pairs(step, 1)
        return int(firsts[0]), int(seconds[0])


class RoundRobin(_Schedule):
    """Cycle through all canonical pairs in lexicographic order."""

    kind = "roundrobin"

    def __init__(self, n: int):
        self.n = n

    def pairs(self, start: int, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Pairs of steps start .. start+count-1 as (firsts, seconds) arrays."""
        total = _check_span(start, count, self.n)
        return _pairs_from_indices(_cycle(start, count, total), self.n)


_SKIP_CHUNK = 1 << 16   # draws discarded at a time when skipping ahead


class UniformRandom(_Schedule):
    """One independent uniformly random pair per step.

    Deterministic given the seed: the same (seed, step) always yields the
    same pair, regardless of query order. Pair indices are drawn in
    batches from one generator whose cursor follows the requests; a
    request behind the cursor re-seeds and a request ahead of it skips
    draws, so no drawn pair is kept.
    """

    kind = "random"

    def __init__(self, n: int, seed):
        self.n = n
        self.seed = seed
        # Fixed once, so that re-seeding replays the stream even for None.
        self._seed_sequence = (seed if isinstance(seed, np.random.SeedSequence)
                               else np.random.SeedSequence(seed))
        self._rng = np.random.default_rng(self._seed_sequence)
        self._cursor = 0

    def _draw(self, total: int, count: int) -> np.ndarray:
        self._cursor += count
        return self._rng.integers(total, size=count)

    def pairs(self, start: int, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Pairs of steps start .. start+count-1 as (firsts, seconds) arrays."""
        total = _check_span(start, count, self.n)
        if start < self._cursor:
            self._rng = np.random.default_rng(self._seed_sequence)
            self._cursor = 0
        while self._cursor < start:
            self._draw(total, min(start - self._cursor, _SKIP_CHUNK))
        return _pairs_from_indices(self._draw(total, count), self.n)


class StarvationAdversary(_Schedule):
    """Round-robin that skips one pair until a release step.

    Before ``release_step`` the excluded pair never occurs, so the schedule
    is not weakly fair; from ``release_step`` on it behaves as a fresh
    round-robin over all pairs. Safety properties must survive the unfair
    prefix; convergence need not.
    """

    kind = "adversary"

    def __init__(self, n: int, excluded: AgentPair, release_step: int):
        i, j = canonical_pair(*excluded)
        if not 0 <= i < j < n:
            raise ValueError(f"excluded pair {excluded!r} invalid for n={n}")
        if not isinstance(release_step, int) or release_step < 0:
            raise ValueError(f"release step must be a non-negative integer, got {release_step!r}")
        self.n = n
        self.excluded = (i, j)
        self.release_step = release_step
        self._excluded_rank = pair_index((i, j), n)

    def pairs(self, start: int, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Pairs of steps start .. start+count-1 as (firsts, seconds) arrays."""
        total = _check_span(start, count, self.n)
        starved = min(max(self.release_step - start, 0), count)
        if starved and total <= 1:
            raise ValueError(
                f"n={self.n} leaves no pair besides the excluded one before release"
            )
        before = _cycle(start, starved, max(total - 1, 1))
        before += before >= self._excluded_rank
        after = _cycle(start + starved - self.release_step, count - starved, total)
        return _pairs_from_indices(np.concatenate((before, after)), self.n)


Scheduler = RoundRobin | UniformRandom | StarvationAdversary


def make_scheduler(kind: str, n: int, seed=None,
                   excluded: AgentPair = (0, 1),
                   release_step: int | None = None) -> Scheduler:
    """Build a scheduler by kind name: roundrobin, random, or adversary."""
    if kind == "roundrobin":
        return RoundRobin(n)
    if kind == "random":
        return UniformRandom(n, seed)
    if kind == "adversary":
        if release_step is None:
            release_step = 2**62  # effectively never within any desk-scale run
        return StarvationAdversary(n, excluded, release_step)
    raise ValueError(f"unknown scheduler kind {kind!r}")


def fairness_audit(schedule_prefix, n: int) -> dict[AgentPair, int]:
    """Occurrence count of every canonical pair in a schedule prefix.

    Returns a dict keyed by all n*(n-1)/2 canonical pairs, zeros included.
    """
    counts = {pair: 0 for pair in combinations(range(n), 2)}
    for raw in schedule_prefix:
        pair = canonical_pair(*raw)
        if pair not in counts:
            raise ValueError(f"pair {raw!r} invalid for n={n}")
        counts[pair] += 1
    return counts
