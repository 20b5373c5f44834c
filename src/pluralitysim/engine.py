"""Population runs: drive a configuration through scheduled interactions.

A Configuration is the ordered population of agents, each one integer
code s = (bra*k + ket)*k + out in [0, k**3); it checks every code in one
loop and keeps them as a new tuple. _drive, the one run loop, applies
scheduler pairs in order to a list of those codes until quiescence or a
cap and counts what happened. run() wraps it, checking its options and
returning the final Configuration, metrics and an optional trace; the
verify battery and the CLI's sweep trials call it directly on lists of
self-loop codes and build no Configuration. Each interaction is a lookup
in a transition table keyed on the two agents' bra-ket pairs (at most
k**4 entries). An entry is what the rule protocol._braket_rule gives for the
two bra-kets: the two new bra-kets, whether the kets were exchanged and
the color a post-swap self-loop broadcasts (or -1), with both bra-kets
multiplied by k so that adding an out gives a code; the out fields
follow in a few integer operations. There is one table per process for
each k and rule. The rule is looked up as protocol._braket_rule whenever
a table is fetched or filled, so a rule patched in there gets tables of
its own. AgentStates exist only where a code is shown: each view, trace
and error decodes it by arithmetic.

Two runtime invariants hold for every transition of the rule: the global
bra-ket balance (safety) and the strict lexicographic drop of the sorted
weight vector at every ket exchange (full). A transition depends on
nothing but the two bra-kets, so the table has one fill rule: every
transition computed, by a run step or a quiescence scan, is checked once
against both invariants and kept iff it passes both. _checked decodes
the key once, and both checks read the bra-kets the rule returns, never
a table entry. The run's assertion level ("off", "safety" or "full")
decides only which failures raise InvariantViolation, with the step and
pair of that use; a failing transition is never kept, so every later use
checks it again. Runs at every level therefore cost the same per step.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

from . import protocol
from .protocol import (AgentState, _count, _integer, _interact, _weight,
                       check_color, check_k)
from .schedulers import AgentPair, Scheduler


def _check_code(value, k: int) -> int:
    # A state code in [0, k**3) as a plain int, by the rule colors follow.
    code = _integer(value)
    if code is None or not 0 <= code < k**3:
        raise ValueError(f"code {value!r} is not an integer in [0, {k**3 - 1}]")
    return code


@dataclass(frozen=True)
class Configuration:
    """The population at an instant: k plus one state code per agent.

    codes[i] = (bra*k + ket)*k + out, the layout of run traces. Construction
    checks k and, in one loop, every code, and stores the codes as a new
    tuple of plain ints. It does not check the bra-ket balance: that is a
    property of reachable populations (initial states are self-loops and
    interactions only permute kets), enforced during runs. states decodes
    the codes; the other views are the two multisets the checks read:
    bra-ket pairs and outs.
    """

    k: int
    codes: tuple[int, ...]

    def __post_init__(self):
        k = check_k(self.k)
        codes = tuple([_check_code(code, k) for code in self.codes])
        if not codes:
            raise ValueError("a population needs at least one agent")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "codes", codes)

    @property
    def n(self) -> int:
        return len(self.codes)

    @property
    def states(self) -> tuple[AgentState, ...]:
        """The agents' decoded states, one new AgentState per agent."""
        k = self.k
        return tuple([_state(code, k) for code in self.codes])

    def braket_counts(self) -> Counter:
        """Multiset view of (bra, ket) pairs, outs ignored."""
        return Counter([divmod(code // self.k, self.k) for code in self.codes])

    def output_counts(self) -> Counter:
        """Multiset view of the out fields."""
        return Counter([code % self.k for code in self.codes])


class TraceEvent(NamedTuple):
    """One recorded interaction: the pair, its states before and after."""

    step: int
    pair: AgentPair
    pre: tuple[AgentState, AgentState]
    post: tuple[AgentState, AgentState]
    exchanged: bool
    out_changed: bool


@dataclass(frozen=True)
class RunTrace:
    """Event log of a run.

    run's trace mode decides which steps are kept: "changes" (the default)
    keeps only steps that exchanged kets or updated an out field; "full"
    keeps every step; "off" keeps nothing.

    Each kept step is one record of ints, (step, i, j, a, b, new_a, new_b,
    exchanged, out_changed), where a and b are the codes of agents i and j
    before the step and new_a and new_b after it. Codes are opaque keys:
    state(code) decodes one, and events decodes the whole log.
    """

    records: tuple[tuple[int, ...], ...]
    k: int

    def state(self, code: int) -> AgentState:
        """The agent state a record's code stands for; rejects non-codes."""
        return _state(_check_code(code, self.k), self.k)

    @property
    def events(self) -> tuple[TraceEvent, ...]:
        """The records as TraceEvents, decoded on each access."""
        k = self.k
        return tuple(TraceEvent(step, (i, j), (_state(a, k), _state(b, k)),
                                (_state(new_a, k), _state(new_b, k)),
                                exchanged, out_changed)
                     for step, i, j, a, b, new_a, new_b, exchanged, out_changed
                     in self.records)


@dataclass(frozen=True)
class RunMetrics:
    """Summary counters of a run.

    quiescence_step is the interaction count at which a quiescence check
    first succeeded (None if none did within the run); checks run at step
    0, at every round boundary and where the budget runs out. converged
    mirrors it. Always ket_exchanges <= total_interactions, and
    quiescence_step <= total_interactions when present.
    """

    total_interactions: int
    ket_exchanges: int
    out_updates: int
    quiescence_step: int | None
    converged: bool
    final_outputs: Counter = field(default_factory=Counter)


class RunResult(NamedTuple):
    """run() output; unpacks as (final, trace, metrics)."""

    final: Configuration
    trace: RunTrace
    metrics: RunMetrics


@dataclass(frozen=True)
class UntilQuiescent:
    """Stop at the first successful quiescence check, capped for safety.

    The cap is counted in round-robin cycles of n*(n-1)/2 interactions;
    None means the default of 50 * n**2 cycles. Reaching the cap is a
    non-converged outcome, not an error: an unfair schedule may simply
    never get there.
    """

    max_cycles: int | None = None


@dataclass(frozen=True)
class FixedSteps:
    """Run exactly this many interactions, quiescent or not."""

    steps: int


StopPolicy = UntilQuiescent | FixedSteps

DEFAULT_CAP_CYCLES_FACTOR = 50  # default cap: 50 * n**2 cycles

ASSERTION_LEVELS = ("off", "safety", "full")


class InvariantViolation(AssertionError):
    """A runtime invariant failed during a run; carries the offending step."""

    def __init__(self, message: str, step: int, pair: AgentPair,
                 pre: tuple[AgentState, AgentState],
                 post: tuple[AgentState, AgentState]):
        super().__init__(
            f"{message} (step {step}, pair {pair}, {pre[0]} x {pre[1]} "
            f"-> {post[0]} x {post[1]})"
        )
        self.step = step
        self.pair = pair
        self.pre = pre
        self.post = post


def _self_loops(input_colors, k: int) -> tuple[int, list[int]]:
    """k and the self-loop code of each input color, checked as plain ints."""
    k = check_k(k)
    loop = k * k + k + 1    # code of the self-loop of color c is c * loop
    codes = [check_color(value, k) * loop for value in input_colors]
    if not codes:
        raise ValueError("a population needs at least one agent")
    return k, codes


def init_configuration(input_colors, k: int) -> Configuration:
    """Population of fresh agents: each input color becomes a self-loop."""
    k, codes = _self_loops(input_colors, k)
    return Configuration(k, tuple(codes))


# Both checks read a transition as the rule gives it, through bra-ket
# indices bra*k + ket: g and h of agents a and b before it, g1 and h1
# after it, and the exchange flag. Neither reads an out field or a table
# entry.
def _check_safety(g: int, h: int, g1: int, h1: int, exchanged: bool,
                  k: int) -> str | None:
    """Why the transition breaks the bra-ket balance, or None if it keeps it."""
    # Bras never move and kets are only swapped between the two agents, so
    # the global per-color bra/ket balance is conserved step by step.
    if g1 // k != g // k or h1 // k != h // k:
        return "interaction moved a bra"
    kets, kets1 = (g % k, h % k), (g1 % k, h1 % k)
    if kets1 != kets:
        if kets1 != kets[::-1]:
            return "interaction changed the ket multiset"
        if not exchanged:
            return "kets moved without an exchange flag"
    return None


def _check_full(g: int, h: int, g1: int, h1: int, exchanged: bool,
                k: int) -> str | None:
    """Why the transition breaks the weight-vector drop, or None if it keeps it."""
    # Only the two participants' weights can change, so the sorted weight
    # vector of the whole population drops lexicographically iff the
    # pair's sorted weights do. A transition that moves nothing keeps them.
    if (g1, h1) == (g, h):
        return "ket exchange left all weights unchanged" if exchanged else None
    old = sorted((_weight(g // k, g % k, k), _weight(h // k, h % k, k)))
    new = sorted((_weight(g1 // k, g1 % k, k), _weight(h1 // k, h1 % k, k)))
    if exchanged:
        if new == old:
            return "ket exchange left all weights unchanged"
        if new > old:
            return "ket exchange did not lower the weight vector"
    elif new != old:
        return "weights changed without a ket exchange"
    return None


BATCH = 4096  # most scheduler pairs fetched and applied at a time

# (k, rule) -> {bra-ket pair key: transition that passed both checks}.
# The rule is part of the key so that a replaced rule never reuses
# another's entries.
_TABLES: dict[tuple, dict[int, tuple[int, int, bool, int]]] = {}


def _table(k: int) -> dict[int, tuple[int, int, bool, int]]:
    """The checked transition table of this k, for the current rule."""
    return _TABLES.setdefault((k, protocol._braket_rule), {})


def _state(code: int, k: int) -> AgentState:
    """The AgentState of an unchecked code."""
    bra_ket, out = divmod(code, k)
    return AgentState(bra_ket // k, bra_ket % k, out)


def _checked(key: int, k: int,
             table: dict) -> tuple[tuple[int, int, bool, int], str | None, str]:
    """The transition for key, kept in the table iff it passes both checks.

    key = (bra_a*k + ket_a)*k*k + bra_b*k + ket_b, decoded here once into
    the two bra-kets the rule and both checks read. The entry is the
    rule's result with both new bra-kets multiplied by k, so that adding
    an out gives a code: (new bra-ket of a times k, new bra-ket of b times
    k, exchanged, broadcast color or -1). Returns (entry, reason, level):
    reason says why the transition failed a check, or is None, and level
    is the assertion level of the failed check, "safety" or "full".
    """
    g, h = divmod(key, k * k)
    g1, h1, exchanged, loop = protocol._braket_rule(g, h, k)
    reason, level = _check_safety(g, h, g1, h1, exchanged, k), "safety"
    if reason is None:
        reason, level = _check_full(g, h, g1, h1, exchanged, k), "full"
    entry = g1 * k, h1 * k, exchanged, loop
    if reason is None:
        table[key] = entry
    return entry, reason, level


def _settled(codes, k: int, table: dict) -> bool:
    """True iff no two agents of the coded population would change anything.

    Scans each unordered pair of the distinct codes present rather than
    of agents, with the null-step test of _apply; a code meets itself
    only when at least two agents hold it. A transition the table
    lacks is filled through _checked; a failing one answers the scan but
    raises nothing here.
    """
    shared: dict[int, bool] = {}    # code -> held by at least two agents
    for code in codes:
        shared[code] = code in shared
    present = list(shared)
    kk = k * k
    for idx, a in enumerate(present):
        row = a // k * kk
        for b in present[idx if shared[a] else idx + 1:]:
            key = row + b // k
            _, _, exchanged, loop = table.get(key) or _checked(key, k, table)[0]
            if exchanged or (loop >= 0 and not a % k == loop == b % k):
                return False
    return True


def is_quiescent(config: Configuration) -> bool:
    """True iff no pair of present states would change anything.

    Every unordered pair of distinct present states counts, plus each
    state present at least twice against itself. A population of one
    agent is quiescent by definition.
    """
    return _settled(config.codes, config.k, _table(config.k))


def _apply(codes: list[int], firsts: list[int], seconds: list[int], start: int,
           k: int, table: dict, assertions: str, trace: str,
           records: list[tuple[int, ...]]):
    """Apply one batch of scheduled interactions to the codes in place.

    A transition the table lacks is filled through _checked; its failure
    raises InvariantViolation at this step and pair if the assertion level
    includes the failed check, with protocol._interact's post-states.
    Appends a trace record per kept step to records. Returns (ket
    exchanges, out updates) of the batch.
    """
    exchanges = out_updates = 0
    kk = k * k
    record_changes = trace != "off"
    record_nulls = trace == "full"
    for step, i, j in zip(range(start, start + len(firsts)), firsts, seconds):
        a = codes[i]
        b = codes[j]
        key = a // k * kk + b // k
        try:
            entry = table[key]
        except KeyError:
            entry, reason, level = _checked(key, k, table)
            # "full" raises every failure, "safety" only a safety failure
            if reason is not None and assertions in ("full", level):
                pre = _state(a, k), _state(b, k)
                raise InvariantViolation(reason, step, (i, j), pre,
                                         _interact(*pre, k)[:2])
        # The out arithmetic of protocol._interact on codes: this loop runs
        # once per interaction. A null step, most of them, leaves before
        # any other out arithmetic.
        new_a, new_b, exchanged, loop = entry
        if not exchanged and (loop < 0 or a % k == loop == b % k):
            if record_nulls:
                records.append((step, i, j, a, b, a, b, False, False))
            continue
        if loop < 0:
            out_changed = False
            new_a += a % k
            new_b += b % k
        else:
            out_changed = a % k != loop or b % k != loop
            new_a += loop
            new_b += loop
        codes[i] = new_a
        codes[j] = new_b
        exchanges += exchanged
        out_updates += out_changed
        if record_changes:
            records.append((step, i, j, a, b, new_a, new_b, exchanged,
                            out_changed))
    return exchanges, out_updates


def _drive(codes: list[int], k: int, scheduler: Scheduler, policy: StopPolicy,
           assertions: str, trace: str, sink: Callable | None):
    """The one run loop: step the codes in place until the policy stops.

    Checks quiescence and fetches batches as run() describes, and hands
    each batch's trace records to sink (unused when trace is "off").
    Returns (interactions, ket exchanges, out updates, quiescence step or
    None).
    """
    n = len(codes)
    round_length = max(n * (n - 1) // 2, 1)
    stop_on_quiescence = isinstance(policy, UntilQuiescent)
    if stop_on_quiescence:
        cycles = policy.max_cycles
        if cycles is None:
            cycles = DEFAULT_CAP_CYCLES_FACTOR * n * n
        limit = _count(cycles, "cap") * round_length
    else:
        limit = _count(policy.steps, "step budget")
    if limit > 0 and n < 2:
        # A single agent has no pairs; any step budget collapses to zero.
        limit = 0

    table = _table(k)
    records: list[tuple[int, ...]] = []
    total = exchanges = out_updates = 0
    quiescence_step = None
    while True:
        # The one quiescence check: step 0, each round boundary, the budget's end.
        if quiescence_step is None and (total % round_length == 0 or total == limit):
            quiescence_step = total if _settled(codes, k, table) else None
        if total == limit or (stop_on_quiescence and quiescence_step is not None):
            break
        # A batch never crosses the next quiescence check.
        count = min(BATCH, limit - total)
        if quiescence_step is None:
            count = min(count, round_length - total % round_length)
        firsts, seconds = scheduler.pairs(total, count)
        batch_exchanges, batch_out_updates = _apply(
            codes, firsts, seconds, total, k, table,
            assertions, trace, records)
        if records:
            sink(records)
            records = []
        total += count
        exchanges += batch_exchanges
        out_updates += batch_out_updates
    return total, exchanges, out_updates, quiescence_step


def run(config: Configuration, scheduler: Scheduler,
        policy: StopPolicy | None = None, *,
        assertions: str = "safety",
        trace: str = "changes",
        sink: Callable[[list[tuple[int, ...]]], object] | None = None
        ) -> RunResult:
    """Drive the configuration through the schedule until the policy stops.

    Quiescence is checked before the first interaction, after each round
    of n*(n-1)/2 interactions and where the budget runs out. Under
    UntilQuiescent the run stops at the first successful check or at the
    cap, whichever comes first; under FixedSteps it runs exactly the
    requested number of interactions and the checks only feed the
    metrics. The scheduler must be built for config.n agents. Assertion
    levels: "off", "safety" (bra-ket conservation), "full" (safety plus
    the weight-vector drop at each exchange); any violation raises
    InvariantViolation.

    sink(records) receives the trace records of each batch, at most BATCH
    in step order, as soon as the batch is applied; a batch with no record
    makes no call. With a sink the returned trace holds no records, so a
    run's memory does not grow with its trace; without one the records
    are kept in the returned trace.

    run checks its options, wraps _drive, the one run loop, around a copy
    of the codes and builds the result objects from what it returns.
    """
    if assertions not in ASSERTION_LEVELS:
        raise ValueError(f"assertions must be one of {ASSERTION_LEVELS}, "
                         f"got {assertions!r}")
    if trace not in ("off", "changes", "full"):
        raise ValueError(f'trace must be "off", "changes" or "full", got {trace!r}')
    if policy is None:
        policy = UntilQuiescent()
    if scheduler.n != config.n:
        raise ValueError(f"scheduler is for n={scheduler.n} agents, "
                         f"the configuration has {config.n}")

    codes = list(config.codes)
    kept: list[tuple[int, ...]] = []
    total, exchanges, out_updates, quiescence_step = _drive(
        codes, config.k, scheduler, policy, assertions, trace,
        kept.extend if sink is None else sink)
    final = Configuration(config.k, tuple(codes))
    metrics = RunMetrics(total, exchanges, out_updates, quiescence_step,
                         quiescence_step is not None, final.output_counts())
    return RunResult(final, RunTrace(tuple(kept), config.k), metrics)
