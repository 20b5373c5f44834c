"""Slow independent reference implementations used only by tests.

These deliberately avoid the closed forms and the engine internals: the
layer partition is computed by draining, stability of a bra-ket multiset
by checking all pairs directly, the set of quiescent outcomes by
exhaustive search over every schedule, and a single interaction step
through the validated public rule instead of the engine's transition
table. Tests compare the fast library code against these.
"""

from collections import Counter
from itertools import permutations

from pluralitysim.engine import Configuration, TraceEvent
from pluralitysim.protocol import AgentState, apply_interaction, check_k, weight


def potential_less(weights_a, weights_b) -> bool:
    """Lexicographic order on two sorted-ascending weight vectors.

    True iff weights_a comes strictly before weights_b. This is the order
    the configuration potential follows: it must strictly drop at every
    ket exchange.
    """
    a = tuple(weights_a)
    b = tuple(weights_b)
    if len(a) != len(b):
        raise ValueError(f"weight vectors differ in length: {len(a)} vs {len(b)}")
    return a < b


def mod_range(x: int, y: int, p: int, closed: bool = True) -> set[int]:
    """Residues reached walking the circle mod p from x to y.

    Closed ranges include both endpoints: [2,7] mod 10 is {2,...,7} and
    wrapping works, e.g. the open range (8,3) mod 10 is {9, 0, 1, 2}.
    Degenerate cases: [x,x] is {x mod p}; the open range (x,x) walks the
    whole circle and yields every residue except x, which follows the
    index formula rather than intuition; (x, x+1) is empty.
    """
    check_k(p)
    if x < 0 or y < 0:
        raise ValueError(f"range endpoints must be non-negative, got ({x}, {y})")
    distance = (y - x) % p
    if closed:
        return {(x + t) % p for t in range(distance + 1)}
    if distance == 0:
        distance = p
    return {(x + t) % p for t in range(1, distance)}


def quiescent_by_pairs(config):
    """True iff no two distinct agents of the configuration would change
    anything, checked by applying the rule to every pair of agents."""
    states = config.states
    return not any(
        result.exchanged or result.out_changed
        for i in range(len(states)) for j in range(i + 1, len(states))
        for result in [apply_interaction(states[i], states[j], config.k)])


def step(config, pair):
    """Apply one interaction functionally; the population is not mutated.

    Returns (configuration after, TraceEvent). When the interaction
    changes nothing the input configuration object is returned as-is. The
    event's step field is 0.
    """
    i, j = pair
    if i == j or not (0 <= i < config.n and 0 <= j < config.n):
        raise ValueError(f"pair {pair!r} invalid for n={config.n}")
    a, b = config.states[i], config.states[j]
    result = apply_interaction(a, b, config.k)
    event = TraceEvent(0, pair, (a, b), (result.a, result.b),
                       result.exchanged, result.out_changed)
    if not (result.exchanged or result.out_changed):
        return config, event
    states = list(config.states)
    states[i], states[j] = result.a, result.b
    return Configuration(config.k, tuple(states)), event


def greedy_drain(input_colors):
    """Layer partition by literal draining.

    Repeatedly remove one copy of every color still present; each sweep
    is one layer.
    """
    remaining = Counter(input_colors)
    layers = []
    while remaining:
        layer = frozenset(remaining)
        layers.append(layer)
        remaining -= Counter(layer)
    return layers


def is_exchange_stable(brakets, k):
    """True iff no two arcs of the multiset would swap kets.

    Checks every unordered pair of arcs, including an arc against another
    copy of itself when its multiplicity is at least two.
    """
    counts = Counter(brakets)
    arcs = list(counts)
    for idx, (b1, k1) in enumerate(arcs):
        candidates = arcs[idx:] if counts[(b1, k1)] > 1 else arcs[idx + 1:]
        for b2, k2 in candidates:
            kept = min(weight(b1, k1, k), weight(b2, k2, k))
            swapped = min(weight(b1, k2, k), weight(b2, k1, k))
            if swapped < kept:
                return False
    return True


def stable_matchings(input_colors, k):
    """All exchange-stable bra-ket multisets pairing the inputs with
    themselves.

    Bras are the input multiset and so are the kets (interactions only
    permute kets), so every candidate outcome is some assignment of the
    ket multiset onto the bras. Factorial cost; keep n small.
    """
    colors = tuple(input_colors)
    outcomes = {}
    for kets in set(permutations(colors)):
        counts = Counter(zip(colors, kets))
        key = frozenset(counts.items())
        if key not in outcomes and is_exchange_stable(counts.elements(), k):
            outcomes[key] = counts
    return list(outcomes.values())


def exhaustive_quiescent_outcomes(input_colors, k):
    """Bra-ket multisets of every quiescent configuration reachable from
    the given inputs under any schedule whatsoever.

    Breadth-first search over configuration multisets; exponential, keep
    n tiny. A configuration is quiescent when no pair of its states would
    change anything.
    """
    start = tuple(sorted(AgentState(c, c, c) for c in input_colors))
    seen = {start}
    frontier = [start]
    outcomes = set()
    while frontier:
        cfg = frontier.pop()
        quiescent = True
        for i in range(len(cfg)):
            for j in range(i + 1, len(cfg)):
                a, b, exchanged, out_changed = apply_interaction(
                    cfg[i], cfg[j], k)
                if not (exchanged or out_changed):
                    continue
                quiescent = False
                nxt = list(cfg)
                nxt[i], nxt[j] = a, b
                nxt = tuple(sorted(nxt))
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        if quiescent:
            outcomes.add(frozenset(
                Counter((s.bra, s.ket) for s in cfg).items()))
    return [Counter(dict(m)) for m in outcomes]
