"""Slow independent reference implementations used only by tests.

These deliberately avoid the closed forms and the engine internals: the
layer partition is computed by draining, stability of a bra-ket multiset
by checking all pairs directly, bra-ket balance by tallying bras against
kets, the set of quiescent outcomes by exhaustive search over every
schedule, the reachable agent states by the same search over decoded
states, the predicted stable multiset as a sum of per-layer Counters, a
single interaction step through the validated public rule instead of
the engine's transition table, the interaction rule written directly on
full (bra, ket, out) states instead of on bra-kets, the runtime
invariants and
the sorted weight vector on decoded states instead of on table entries,
the least rotation of a color multiset by sorting every rotation
instead of comparing count vectors, and the rotation-reduced instances
by filtering every sorted multiset instead of walking count vectors.
all_states lists the k**3 states as triples, and configuration builds a
population from AgentStates by encoding each one by hand.
Tests compare the fast library code against these.
"""

from collections import Counter
from itertools import combinations_with_replacement, product

from pluralitysim.engine import Configuration, TraceEvent
from pluralitysim.protocol import (AgentState, InteractionResult, _weight,
                                   apply_interaction, check_k, validate_state,
                                   weight)


def all_states(k):
    """The full state space for a given k: all k**3 (bra, ket, out) triples."""
    check_k(k)
    colors = range(k)
    return [AgentState(b, t, o) for b, t, o in product(colors, colors, colors)]


def configuration(k, states):
    """The Configuration of these AgentStates, each checked against k and
    encoded as (bra*k + ket)*k + out."""
    states = [validate_state(s, k) for s in states]
    return Configuration(k, tuple((s.bra * k + s.ket) * k + s.out
                                  for s in states))


def reference_interaction(a, b, k):
    """The interaction rule on two full states, unvalidated: swap kets iff
    the smaller weight strictly drops, then a post-swap self-loop writes
    its color into both outs. Returns an InteractionResult."""
    # Step 1: swap kets iff the smaller of the two weights strictly drops.
    kept = min(_weight(a.bra, a.ket, k), _weight(b.bra, b.ket, k))
    swapped = min(_weight(a.bra, b.ket, k), _weight(b.bra, a.ket, k))
    exchanged = swapped < kept
    if exchanged:
        a, b = AgentState(a.bra, b.ket, a.out), AgentState(b.bra, a.ket, b.out)

    # Step 2, on the post-swap states: a self-loop broadcasts its color.
    # The two states can never be self-loops of different colors here: two
    # distinct self-loops always profit from swapping (k, k -> both < k),
    # and a swap that created two distinct self-loops would have raised the
    # minimum weight to k and therefore never happens.
    loop = None
    if a.bra == a.ket:
        loop = a.bra
    elif b.bra == b.ket:
        loop = b.bra
    out_changed = loop is not None and (a.out != loop or b.out != loop)
    if out_changed:
        a = AgentState(a.bra, a.ket, loop)
        b = AgentState(b.bra, b.ket, loop)
    return InteractionResult(a, b, exchanged, out_changed)


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


def sorted_weights(config) -> tuple[int, ...]:
    """Ascending vector of all agents' bra-ket weights, recomputed from
    the decoded states through the public weight function."""
    return tuple(sorted(weight(s.bra, s.ket, config.k) for s in config.states))


def braket_balanced(braket_counts) -> bool:
    """True iff every color has as many bras as kets in the multiset."""
    bras: Counter = Counter()
    kets: Counter = Counter()
    for (bra, ket), mult in braket_counts.items():
        bras[bra] += mult
        kets[ket] += mult
    return bras == kets


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
    states = list(config.states)    # decoded once per step
    a, b = states[i], states[j]
    result = apply_interaction(a, b, config.k)
    event = TraceEvent(0, pair, (a, b), (result.a, result.b),
                       result.exchanged, result.out_changed)
    if not (result.exchanged or result.out_changed):
        return config, event
    states[i], states[j] = result.a, result.b
    return configuration(config.k, states), event


def safety_violation(event):
    """Why a TraceEvent breaks the bra-ket balance, or None if it keeps it."""
    (a0, b0), (a1, b1) = event.pre, event.post
    if a1.bra != a0.bra or b1.bra != b0.bra:
        return "interaction moved a bra"
    if sorted((a1.ket, b1.ket)) != sorted((a0.ket, b0.ket)):
        return "interaction changed the ket multiset"
    if not event.exchanged and (a1.ket != a0.ket or b1.ket != b0.ket):
        return "kets moved without an exchange flag"
    return None


def full_violation(event, k):
    """Why a TraceEvent breaks the weight-vector drop, or None if it keeps it.

    The sorted weight vector of the whole population drops
    lexicographically iff the smallest value in the multiset difference of
    the old and new pair weights sits on the new side.
    """
    (a0, b0), (a1, b1) = event.pre, event.post
    old = Counter((weight(a0.bra, a0.ket, k), weight(b0.bra, b0.ket, k)))
    new = Counter((weight(a1.bra, a1.ket, k), weight(b1.bra, b1.ket, k)))
    gone = old - new
    came = new - old
    if event.exchanged:
        if not gone:
            return "ket exchange left all weights unchanged"
        if min(came) >= min(gone):
            return "ket exchange did not lower the weight vector"
    elif gone or came:
        return "weights changed without a ket exchange"
    return None


def least_sorted_rotation(colors, k):
    """Least sorted tuple among the rotations (c + r) % k of the colors."""
    return min(tuple(sorted((c + r) % k for c in colors)) for r in range(k))


def all_instances(n_max, k_max):
    """Every instance (k, colors) with 1 <= n <= n_max, 1 <= k <= k_max, no
    symmetry reduction: the sorted multisets in the order of
    combinations_with_replacement for each k and n."""
    for k in range(1, k_max + 1):
        for n in range(1, n_max + 1):
            for combo in combinations_with_replacement(range(k), n):
                yield k, combo


def instances_by_filter(n_max, k_max):
    """enumerate_instances(n_max, k_max) by filtering all_instances.

    Keeps a multiset when color 0 is among its most frequent colors and no
    rotation of its count vector is lexicographically greater.
    """
    for k, combo in all_instances(n_max, k_max):
        counts = [combo.count(c) for c in range(k)]
        if max(counts) == counts[0] and all(
                counts[r:] + counts[:r] <= counts for r in range(k)):
            yield k, combo


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


def stable_multiset_by_layers(input_colors):
    """The predicted stable bra-ket multiset as a sum of one Counter per
    drained layer, each the arcs of that layer's colors in sorted order
    around the circle."""
    prediction = Counter()
    for layer in greedy_drain(input_colors):
        ordered = sorted(layer)
        m = len(ordered)
        prediction += Counter(
            (ordered[i], ordered[(i + 1) % m]) for i in range(m))
    return prediction


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


def reachable_states_by_search(input_colors, k):
    """Every agent state in any configuration reachable from the given
    inputs under any schedule, by search over sorted tuples of
    AgentStates through the validated public rule; exponential, keep n
    tiny."""
    start = tuple(sorted(AgentState(c, c, c) for c in input_colors))
    seen_configs = {start}
    frontier = [start]
    states_seen = set(start)
    while frontier:
        cfg = frontier.pop()
        for i in range(len(cfg)):
            for j in range(i + 1, len(cfg)):
                result = apply_interaction(cfg[i], cfg[j], k)
                if not (result.exchanged or result.out_changed):
                    continue
                nxt = list(cfg)
                nxt[i], nxt[j] = result.a, result.b
                nxt = tuple(sorted(nxt))
                if nxt not in seen_configs:
                    seen_configs.add(nxt)
                    frontier.append(nxt)
                    states_seen.add(result.a)
                    states_seen.add(result.b)
    return states_seen


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
