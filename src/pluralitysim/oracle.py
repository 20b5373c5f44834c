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
    return tuple(frozenset(g for g, _ in arcs) for arcs in _layer_arcs(input_colors))


def _counts(input_colors) -> dict:
    # Multiplicity of every input color, in a dict: cheaper than a Counter.
    counts: dict = {}
    for c in input_colors:
        counts[c] = counts.get(c, 0) + 1
    if not counts:
        raise ValueError("input color multiset must not be empty")
    return counts


def circle_braket_set(colors) -> BraKetMultiset:
    """Bra-ket cycle linking a duplicate-free color set in sorted order.

    For sorted elements g0 < g1 < ... < gm this is the set of arcs
    (g0, g1), (g1, g2), ..., (gm, g0); a singleton {c} wraps to the
    self-loop (c, c).
    """
    return Counter(_layer_arcs(set(colors))[0])


def _layer_arcs(input_colors) -> list[list[tuple[int, int]]]:
    # The circle arcs of every greedy layer, G_1's first, from one count of
    # the inputs. A layer keeps the sorted colors of the one before that have
    # copies left, so the deepest holds the most frequent colors, least first.
    counts = _counts(input_colors)
    layers, layer, p = [], sorted(counts), 1
    while layer:
        layers.append(list(zip(layer, layer[1:] + layer[:1])))
        p += 1
        layer = [c for c in layer if counts[c] >= p]
    return layers


def predicted_stable_multiset(input_colors) -> BraKetMultiset:
    """The bra-ket multiset every quiescent run must reach.

    Multiset union of the circle bra-ket sets of all greedy layers. Its
    size equals the population size and it balances bras against kets by
    construction.
    """
    return Counter([arc for arcs in _layer_arcs(input_colors) for arc in arcs])


def brute_majority(input_colors) -> tuple[int, bool]:
    """Plurality winner by direct counting.

    Returns (winner, unique). The winner is the smallest color among those
    with maximal multiplicity, so the result is deterministic; unique is
    True iff that argmax is the only one.
    """
    counts = _counts(input_colors)
    best = max(counts.values())
    winners = [c for c, m in counts.items() if m == best]
    return min(winners), len(winners) == 1
