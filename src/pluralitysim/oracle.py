"""Closed-form predictions used to check simulation outcomes.

Everything here is computed directly from the input color multiset and
never simulates: the layered duplicate-free partition of the inputs, the
bra-ket cycle each layer induces on the color circle, the stable bra-ket
multiset a run must settle into, and the plurality winner by counting.
The engine is checked against these, never the other way around; the
slower independent recomputations that check these in turn live with
the tests.
"""

from __future__ import annotations

from collections import Counter

# A multiset of (bra, ket) pairs, as counts.
BraKetMultiset = Counter


def greedy_partition(input_colors) -> tuple[frozenset[int], ...]:
    """Partition the input multiset into nested duplicate-free layers.

    Returns the layers G_1 .. G_q. Layer p is the set of colors with
    multiplicity >= p, for p = 1 .. max multiplicity, so G_1 holds every
    distinct color, G_q the most frequent ones, and the multiset union of
    the layers restores the input. This closed form is equivalent to
    repeatedly draining one copy of every present color.
    """
    counts = Counter(input_colors)
    if not counts:
        raise ValueError("input color multiset must not be empty")
    depth = max(counts.values())
    return tuple(
        frozenset(c for c, m in counts.items() if m >= p)
        for p in range(1, depth + 1)
    )


def circle_braket_set(colors) -> BraKetMultiset:
    """Bra-ket cycle linking a duplicate-free color set in sorted order.

    For sorted elements g0 < g1 < ... < gm this is the set of arcs
    (g0, g1), (g1, g2), ..., (gm, g0); a singleton {c} wraps to the
    self-loop (c, c).
    """
    colors = set(colors)
    if not colors:
        raise ValueError("color set must not be empty")
    return Counter(_circle_arcs(colors))


def _circle_arcs(colors: frozenset[int] | set[int]):
    # The arcs (g0, g1), ..., (gm, g0) of a non-empty duplicate-free set.
    ordered = sorted(colors)
    return zip(ordered, ordered[1:] + ordered[:1])


def predicted_stable_multiset(input_colors) -> BraKetMultiset:
    """The bra-ket multiset every quiescent run must reach.

    Multiset union of the circle bra-ket sets of all greedy layers,
    counted in one pass over the arcs of every layer. Its size equals the
    population size and it balances bras against kets by construction.
    """
    return Counter(arc for layer in greedy_partition(input_colors)
                   for arc in _circle_arcs(layer))


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
