"""End-to-end checking of runs against the closed-form predictions.

An instance is (k, input colors). For each instance this module runs the
round-robin schedule to quiescence with full runtime assertions, then
compares the outcome against the oracle module: the final bra-ket
multiset must equal the prediction, and with a unique plurality winner
every agent must output it. Instance generators cover exhaustive
enumeration (deduplicated under circle rotation, the symmetry the
dynamics actually have), random sampling, and exhaustive reachability,
whose search applies the engine's checked transitions at full assertions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations

from .engine import (InvariantViolation, UntilQuiescent, _apply, _drive,
                     _self_loops, _state, _table)
from .engine import run  # noqa: F401  (bench/tracer.py hooks verify.run)
from .oracle import _layer_arcs, brute_majority
from .protocol import AgentState, _count
from .schedulers import RoundRobin


def _greatest_rotations(n: int, k: int):
    """Yield each count vector of n agents over k colors that no rotation
    of it exceeds, greatest first; the yielded list is reused.

    counts[c] is the number of agents of color c. Adding r mod k to every
    color turns counts into counts[k-r:] + counts[:k-r]. Of two multisets
    of one size, the sorted colors of the one with the lexicographically
    greater count vector are the less, so the least sorted rotation of a
    multiset has its orbit's greatest count vector, and greatest first is
    the order of the sorted colors. Such a vector starts at its maximum:
    the walk bounds every later count by counts[0] and compares only the
    rotations that start at that maximum.
    """
    counts = [0] * k

    def fill(color: int, left: int, top: int):
        if color == k - 1:
            counts[color] = left
            yield counts
            return
        least = max(0, left - top * (k - 1 - color))
        for m in range(min(left, top), least - 1, -1):
            counts[color] = m
            yield from fill(color + 1, left - m, top)

    for top in range(n, -(-n // k) - 1, -1):
        counts[0] = top
        for vector in fill(1, n - top, top) if k > 1 else [counts]:
            if all(vector[r:] + vector[:r] <= vector
                   for r in range(1, k) if vector[r] == top):
                yield vector


def enumerate_instances(n_max: int, k_max: int):
    """Yield every instance (k, colors) with 1 <= n <= n_max, 1 <= k <= k_max.

    Colors come as sorted tuples (agent order never affects the checked
    properties, only the step-by-step schedule), in the order of
    combinations_with_replacement for each k and n. Rotation-equivalent
    multisets are yielded once: a multiset is yielded exactly when it is
    its orbit's least sorted rotation, that is when no rotation of its
    count vector is greater. Both bounds follow the rule of counts,
    checked as iteration starts; a bound of 0 yields nothing.
    """
    n_max, k_max = _count(n_max, "n_max"), _count(k_max, "k_max")
    for k in range(1, k_max + 1):
        for n in range(1, n_max + 1):
            for counts in _greatest_rotations(n, k):
                yield k, tuple([c for c, m in enumerate(counts) for _ in range(m)])


def random_instance(rng, n_max: int, k_max: int):
    """One uniformly sampled instance: n, k, then i.i.d. colors, drawn from
    rng, a numpy Generator."""
    n_max, k_max = _count(n_max, "n_max", 1), _count(k_max, "k_max", 1)
    n = int(rng.integers(1, n_max + 1))
    k = int(rng.integers(1, k_max + 1))
    return k, tuple(int(c) for c in rng.integers(0, k, size=n))


@dataclass(frozen=True)
class InstanceFailure:
    """One instance that failed a check, verbatim, with the reason."""

    k: int
    colors: tuple[int, ...]
    check: str
    detail: str


@dataclass
class VerifyReport:
    """Tally of a verification battery."""

    instances: int = 0
    unique_majority_instances: int = 0
    tie_instances: int = 0
    failures: list[InstanceFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        head = (f"{self.instances} instances "
                f"({self.unique_majority_instances} unique-majority, "
                f"{self.tie_instances} tie): ")
        if self.ok:
            return head + "all checks passed"
        return head + f"{len(self.failures)} FAILED"


def checked_run(colors, k: int,
                cap_cycles: int | None = None) -> InstanceFailure | None:
    """Round-robin run of one instance with every check armed.

    Returns None when all of these hold, else the first failure:
    the bra-ket balance after every step and the weight-vector drop at
    every exchange (runtime assertions), quiescence within the cap, final
    bra-ket multiset equal to the prediction, and all outputs equal to
    the plurality winner when it is unique. The engine's run loop steps
    the list of self-loop codes in place, with no Configuration or run()
    result built.
    """
    k, codes = _self_loops(colors, k)
    # A fresh agent outputs its color: the validated colors as plain ints.
    colors = tuple([code % k for code in codes])
    try:
        total, _, _, quiescence_step = _drive(
            codes, k, RoundRobin(len(codes)), UntilQuiescent(cap_cycles),
            "full", "off", None)
    except InvariantViolation as violation:
        return InstanceFailure(k, colors, "invariant", str(violation))
    if quiescence_step is None:
        return InstanceFailure(k, colors, "termination",
                               f"not quiescent after {total} interactions")
    # Bra-ket indices bra*k + ket sort as their (bra, ket) pairs do.
    layers = _layer_arcs(colors)
    predicted = sorted([g * k + h for arcs in layers for g, h in arcs])
    reached = sorted([code // k for code in codes])
    if reached != predicted:
        return InstanceFailure(
            k, colors, "stable-multiset",
            f"reached {[divmod(g, k) for g in reached]}, "
            f"predicted {[divmod(g, k) for g in predicted]}")
    # The deepest layer holds the most frequent colors: a single arc there
    # is the self-loop of a unique winner.
    deepest = layers[-1]
    if len(deepest) == 1 and any(code % k != deepest[0][0] for code in codes):
        outputs = dict(Counter([code % k for code in codes]))
        return InstanceFailure(
            k, colors, "output", f"winner {deepest[0][0]} but outputs {outputs}")
    return None


def verify_battery(instances, cap_cycles: int | None = None) -> VerifyReport:
    """Run checked_run over an iterable of (k, colors) instances, tallying
    one instance at a time."""
    report = VerifyReport()
    for k, colors in instances:
        report.instances += 1
        if brute_majority(colors)[1]:
            report.unique_majority_instances += 1
        else:
            report.tie_instances += 1
        failure = checked_run(colors, k, cap_cycles)
        if failure is not None:
            report.failures.append(failure)
    return report


def reachable_state_set(input_colors, k: int) -> set[AgentState]:
    """Every agent state occurring in any configuration reachable from
    the given inputs under any schedule.

    Depth-first search over configurations as sorted tuples of state
    codes, applying every unordered pair of agents at every node through
    the run kernel at full assertions, so the search reads the same
    checked transitions as every run. A rule that fails a check raises
    InvariantViolation with step 0 and a pair of indices into the sorted
    configuration. Exponential in general; meant for the exhaustive
    small-population check that nothing outside the k**3 state
    enumeration ever appears.
    """
    k, codes = _self_loops(input_colors, k)
    table = _table(k)
    start = tuple(sorted(codes))
    seen = {start}
    frontier = [start]
    while frontier:
        codes = frontier.pop()
        for i, j in combinations(range(len(codes)), 2):
            after = list(codes)
            if any(_apply(after, [i], [j], 0, k, table, "full", "off", [])):
                after = tuple(sorted(after))
                if after not in seen:
                    seen.add(after)
                    frontier.append(after)
    return {_state(code, k) for code in set().union(*seen)}
