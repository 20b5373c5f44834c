"""Closed-form predictions used to check simulation outcomes.

Everything here is computed directly from the input color multiset and
never simulates: the layered duplicate-free partition of the inputs, the
bra-ket cycle each layer induces on the color circle, the stable bra-ket
multiset a run must settle into, and the plurality winner. The engine is
checked against these, never the other way around.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

# A multiset of (bra, ket) pairs, as counts.
BraKetMultiset = Counter


@dataclass(frozen=True)
class GreedyPartition:
    """Layers G_1 .. G_q of the input colors, duplicate-free per layer.

    Layer p holds exactly the colors appearing at least p times, so the
    layers are nested (G_1 is every distinct color, G_q the most frequent
    ones) and their multiset union restores the input.
    """

    sets: tuple[frozenset[int], ...]

    @property
    def depth(self) -> int:
        return len(self.sets)


def greedy_partition(input_colors) -> GreedyPartition:
    """Partition the input multiset into nested duplicate-free layers.

    Computed by the multiplicity-threshold closed form: layer p is the set
    of colors with multiplicity >= p, for p = 1 .. max multiplicity. This
    is equivalent to repeatedly draining one copy of every present color.
    """
    counts = Counter(input_colors)
    if not counts:
        raise ValueError("input color multiset must not be empty")
    depth = max(counts.values())
    sets = tuple(
        frozenset(c for c, m in counts.items() if m >= p)
        for p in range(1, depth + 1)
    )
    return GreedyPartition(sets)


def circle_braket_set(colors) -> BraKetMultiset:
    """Bra-ket cycle linking a duplicate-free color set in sorted order.

    For sorted elements g0 < g1 < ... < gm this is the set of arcs
    (g0, g1), (g1, g2), ..., (gm, g0); a singleton {c} wraps to the
    self-loop (c, c).
    """
    ordered = sorted(set(colors))
    if not ordered:
        raise ValueError("color set must not be empty")
    m = len(ordered)
    return Counter((ordered[i], ordered[(i + 1) % m]) for i in range(m))


def predicted_stable_multiset(input_colors) -> BraKetMultiset:
    """The bra-ket multiset every quiescent run must reach.

    Multiset union of the circle bra-ket sets of all greedy layers. Its
    size equals the population size and it balances bras against kets by
    construction.
    """
    prediction: BraKetMultiset = Counter()
    for layer in greedy_partition(input_colors).sets:
        prediction += circle_braket_set(layer)
    return prediction


def brute_majority(input_colors) -> tuple[int, bool]:
    """Plurality winner by direct counting.

    Returns (winner, unique). The winner is the smallest color among those
    with maximal multiplicity, so the result is deterministic; unique is
    True iff that argmax is the only one.
    """
    counts = Counter(input_colors)
    if not counts:
        raise ValueError("input color multiset must not be empty")
    best = max(counts.values())
    winners = [c for c, m in counts.items() if m == best]
    return min(winners), len(winners) == 1


def braket_balanced(braket_counts: BraKetMultiset) -> bool:
    """True iff every color has as many bras as kets in the multiset."""
    bras: Counter = Counter()
    kets: Counter = Counter()
    for (bra, ket), mult in braket_counts.items():
        bras[bra] += mult
        kets[ket] += mult
    return bras == kets


def majority_by_partition(input_colors) -> tuple[int, bool]:
    """Plurality winner read off the greedy partition instead of counting.

    The deepest layer is exactly the set of colors with maximal
    multiplicity, so the winner is its smallest element and it is unique
    iff the layer is a singleton. Cross-checks brute_majority.
    """
    deepest = greedy_partition(input_colors).sets[-1]
    return min(deepest), len(deepest) == 1
