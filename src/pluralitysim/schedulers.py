"""Pair schedules: who interacts at each step.

A scheduler maps each step index to one unordered pair of agent indices,
deterministically. pairs(start, count) returns the pairs of a run of
consecutive steps as two new lists of ints (firsts, seconds) with
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

Round-robin order has one implementation, and it needs no numpy: a
population with at most 4096 pairs (n <= 91) keeps its whole round as
two lists, walked once and kept for the process, and hands out slices of
them, of the round repeated for a span past its end; a larger population
is walked row by row from each span's first pair, found by integer
arithmetic. StarvationAdversary takes its spans from it and cuts the
excluded pair out. UniformRandom turns its numpy arrays of drawn pair
ranks into pairs through one function, the one place where numpy values
become ints: a population with at most 4096 pairs reads them from a
table of all its pairs, built on first use and kept for the process;
larger populations compute them in closed form, which is exact up to
n = 3*10**9, the most agents any scheduler accepts.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .protocol import _count

AgentPair = tuple[int, int]

_MAX_AGENTS = 3 * 10**9   # above this, m*(m-1) in _closed_form overflows
_TABLE_PAIRS = 4096       # most pairs of a population that gets a pair table

# n -> (firsts, seconds) of all pairs of n agents, for tabled populations:
# as arrays for UniformRandom, which indexes them with drawn ranks, and as
# lists for round-robin order, which slices them.
_PAIR_TABLES: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_ROUNDS: dict[int, tuple[list[int], list[int]]] = {}


def canonical_pair(first: int, second: int) -> AgentPair:
    """Order a pair of distinct agent indices as (low, high)."""
    if first == second:
        raise ValueError(f"a pair needs two distinct agents, got ({first}, {second})")
    return (first, second) if first < second else (second, first)


def pair_count(n: int) -> int:
    """Number of unordered pairs over n agents."""
    n = _count(n, "n")
    return n * (n - 1) // 2


def pair_index(pair: AgentPair, n: int) -> int:
    """The rank of a canonical pair in lexicographic order.

    Order is (0,1), (0,2), ..., (0,n-1), (1,2), ..., (n-2,n-1).
    """
    i, j = pair
    if not 0 <= i < j < n:
        raise ValueError(f"{pair!r} is not a canonical pair for n={n}")
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


def _check_span(start: int, count: int, n: int) -> tuple[int, int, int]:
    # Validates a pairs() request; returns start, count and the number of
    # canonical pairs as plain ints.
    start = _count(start, "step index")
    count = _count(count, "pair count")
    total = n * (n - 1) // 2
    if total == 0:
        raise ValueError(f"scheduler needs at least two agents, got n={n}")
    if n > _MAX_AGENTS:
        raise ValueError(f"n={n} is above {_MAX_AGENTS}, the most agents the "
                         "int64 pair arithmetic supports")
    return start, count, total


def _pairs_from_indices(index: np.ndarray, n: int) -> tuple[list[int], list[int]]:
    """The canonical pairs of an array of valid indices, as (firsts, seconds).

    Read from the population's pair table, built on first use, when it
    has at most _TABLE_PAIRS pairs, else computed in closed form; either
    way returned as two new lists of ints.
    """
    total = n * (n - 1) // 2
    if total > _TABLE_PAIRS:
        firsts, seconds = _closed_form(index, n)
    else:
        table = _PAIR_TABLES.get(n)
        if table is None:
            table = _PAIR_TABLES[n] = _closed_form(np.arange(total, dtype=np.int64), n)
        firsts, seconds = table[0][index], table[1][index]
    return firsts.tolist(), seconds.tolist()


def _closed_form(index: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The canonical pairs of an array of valid indices, computed.

    Rank from the end: the last pair (n-2, n-1) has r = 1, and the
    smallest m with m*(m-1)/2 >= r gives first = n - m. The float square
    root is only a first guess that integer comparisons then raise.
    """
    r = pair_count(n) - np.asarray(index, dtype=np.int64)
    # For that smallest m, 8r - 7 lies in [(2m-3)**2, (2m-1)**2), so its exact
    # root is below 2m - 1; below 2**65 the float root is within 1e-6 of the
    # exact one, so the guess is never above m and only ever needs raising.
    m = (1 + np.sqrt(8.0 * r - 7).astype(np.int64)) // 2
    while (low := m * (m - 1) // 2 < r).any():
        m += low
    return n - m, n - r + (m - 1) * (m - 2) // 2


def _walk(rank: int, count: int, n: int) -> tuple[list[int], list[int]]:
    """count round-robin pairs from the pair of a valid rank on, wrapping
    at the round's end, as two new lists (firsts, seconds).

    The first pair is found as in _closed_form, with an exact integer
    root: for r and m as there, isqrt(8r - 7) is 2m - 3 or 2m - 2. Then
    each row of pairs (i, i+1) .. (i, n-1) is added in one piece.
    """
    r = n * (n - 1) // 2 - rank
    m = (3 + math.isqrt(8 * r - 7)) // 2
    i, j = n - m, n - r + (m - 1) * (m - 2) // 2
    firsts: list[int] = []
    seconds: list[int] = []
    while count:
        take = min(count, n - j)
        firsts += [i] * take
        seconds += range(j, j + take)
        count -= take
        i = i + 1 if i < n - 2 else 0
        j = i + 1
    return firsts, seconds


def _round_robin(step: int, count: int, n: int) -> tuple[list[int], list[int]]:
    """The round-robin pairs of steps step .. step+count-1 of n agents, as
    two new lists (firsts, seconds).

    Which path a span takes depends on n alone: a population with at most
    _TABLE_PAIRS pairs slices its kept round, walked on first use and
    repeated as often as a span past the round's end needs, and a larger
    population is walked.
    """
    total = n * (n - 1) // 2
    rank = step % total
    if total > _TABLE_PAIRS:
        return _walk(rank, count, n)
    whole = _ROUNDS.get(n) or _ROUNDS.setdefault(n, _walk(0, total, n))
    laps = (rank + count - 1) // total + 1
    if laps > 1:
        whole = whole[0] * laps, whole[1] * laps
    return whole[0][rank:rank + count], whole[1][rank:rank + count]


class _Schedule:
    def pair_at(self, step: int) -> AgentPair:
        """The pair of one step: pairs(step, 1) as a tuple of ints."""
        firsts, seconds = self.pairs(step, 1)
        return firsts[0], seconds[0]


class RoundRobin(_Schedule):
    """Cycle through all canonical pairs in lexicographic order."""

    kind = "roundrobin"

    def __init__(self, n: int):
        self.n = _count(n, "n")

    def pairs(self, start: int, count: int) -> tuple[list[int], list[int]]:
        """Pairs of steps start .. start+count-1 as (firsts, seconds) lists."""
        start, count, _ = _check_span(start, count, self.n)
        return _round_robin(start, count, self.n)


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
        self.n = _count(n, "n")
        self.seed = seed
        # Fixed once, so that re-seeding replays the stream even for None.
        self._seed_sequence = (seed if isinstance(seed, np.random.SeedSequence)
                               else np.random.SeedSequence(seed))
        self._rng = np.random.default_rng(self._seed_sequence)
        self._cursor = 0

    def _draw(self, total: int, count: int) -> np.ndarray:
        self._cursor += count
        return self._rng.integers(total, size=count)

    def pairs(self, start: int, count: int) -> tuple[list[int], list[int]]:
        """Pairs of steps start .. start+count-1 as (firsts, seconds) lists."""
        start, count, total = _check_span(start, count, self.n)
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
        n = _count(n, "n")
        i, j = canonical_pair(*excluded)
        if not 0 <= i < j < n:
            raise ValueError(f"excluded pair {excluded!r} invalid for n={n}")
        self.n = n
        self.excluded = (i, j)
        self.release_step = _count(release_step, "release step")
        self._excluded_rank = pair_index((i, j), n)

    def pairs(self, start: int, count: int) -> tuple[list[int], list[int]]:
        """Pairs of steps start .. start+count-1 as (firsts, seconds) lists."""
        start, count, total = _check_span(start, count, self.n)
        starved = min(max(self.release_step - start, 0), count)
        if starved and total <= 1:
            raise ValueError(
                f"n={self.n} leaves no pair besides the excluded one before release"
            )
        # Before the release the schedule cycles through a lap of the other
        # total - 1 pairs: the round-robin span that starts just after the
        # excluded pair, with that pair cut out, and step start lies offset
        # pairs into such a lap. In the span taken here the excluded pair
        # sits at positions lap - offset + j*total, and exactly skips of
        # them fall inside it, which leaves starved pairs. The rest is
        # round-robin counted from the release step.
        lap, cut = max(total - 1, 1), self._excluded_rank
        offset = (start - cut) % lap
        skips = (starved + offset) // lap
        firsts, seconds = _round_robin(cut + 1 + offset, starved + skips, self.n)
        del firsts[lap - offset::total], seconds[lap - offset::total]
        rest = _round_robin(max(start - self.release_step, 0), count - starved, self.n)
        firsts += rest[0]
        seconds += rest[1]
        return firsts, seconds


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
    counts = {pair: 0 for pair in combinations(range(_count(n, "n")), 2)}
    for raw in schedule_prefix:
        pair = canonical_pair(*raw)
        if pair not in counts:
            raise ValueError(f"pair {raw!r} invalid for n={n}")
        counts[pair] += 1
    return counts
