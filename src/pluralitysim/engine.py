"""Population runs: drive a configuration through scheduled interactions.

A Configuration is the ordered population of agent states. run() applies
scheduler pairs in order until quiescence or a cap, collecting metrics and
an optional trace. Inside a run each agent is one integer code
s = (bra*k + ket)*k + out, and each interaction is a lookup in a
transition table keyed on the two agents' bra-ket pairs (at most k**4
entries). An entry holds the two new bra-kets, whether the kets were
exchanged and the color a post-swap self-loop broadcasts (or -1), so the
out fields follow in a few integer operations. The table is filled from
the interaction rule the first time a pair of bra-kets meets and is kept
per process for each k, assertion level and rule.

run() can assert two runtime invariants: the global bra-ket balance
(safety level) and the strict lexicographic drop of the sorted weight
vector at every ket exchange (full level). Both are checked on each
transition when a run first uses it, with the step and pair of that use,
so a violation names the exact step. A transition depends on nothing but
the two bra-kets, so that one check covers every later step that repeats
it, and a run with checks armed costs no more per step than one without.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

from .protocol import (AgentState, _interact, _weight, check_color, check_k,
                       validate_state)
from .schedulers import AgentPair, Scheduler, pair_count


@dataclass(frozen=True)
class Configuration:
    """The population at an instant: k plus one state per agent.

    Construction validates every color against k but not the bra-ket
    balance; balance is a property of reachable populations (initial
    states are self-loops and interactions only permute kets), enforced
    during runs, not a precondition of the type.
    """

    k: int
    states: tuple[AgentState, ...]

    def __post_init__(self):
        check_k(self.k)
        if not self.states:
            raise ValueError("a population needs at least one agent")
        for state in self.states:
            validate_state(state, self.k)

    @property
    def n(self) -> int:
        return len(self.states)

    def state_counts(self) -> Counter:
        """Multiset view: state -> multiplicity."""
        return Counter(self.states)

    def braket_counts(self) -> Counter:
        """Multiset view of (bra, ket) pairs, outs ignored."""
        return Counter((s.bra, s.ket) for s in self.states)

    def output_counts(self) -> Counter:
        """Multiset view of the out fields."""
        return Counter(s.out for s in self.states)

    def sorted_weights(self) -> tuple[int, ...]:
        """Ascending vector of all agents' bra-ket weights."""
        return tuple(sorted(_weight(s.bra, s.ket, self.k) for s in self.states))


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

    mode "changes" (the default) keeps only steps that exchanged kets or
    updated an out field; "full" keeps every step; "off" keeps nothing.
    """

    mode: str
    events: tuple[TraceEvent, ...] = ()


@dataclass(frozen=True)
class RunMetrics:
    """Summary counters of a run.

    quiescence_step is the interaction count at which a quiescence check
    first succeeded (None if none did within the run); converged mirrors
    it. Always ket_exchanges <= total_interactions, and quiescence_step
    <= total_interactions when present.
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


def init_configuration(input_colors, k: int) -> Configuration:
    """Population of fresh agents: each input color becomes a self-loop."""
    k = check_k(k)
    colors = [check_color(c, k) for c in input_colors]
    if not colors:
        raise ValueError("a population needs at least one agent")
    return Configuration(k, tuple(AgentState(c, c, c) for c in colors))


def _pair_weights(a: AgentState, b: AgentState, k: int) -> tuple[int, int]:
    return _weight(a.bra, a.ket, k), _weight(b.bra, b.ket, k)


def _check_safety(event: TraceEvent):
    # Bras never move and kets are only swapped between the two agents, so
    # the global per-color bra/ket balance is conserved step by step.
    (a0, b0), (a1, b1) = event.pre, event.post
    if a1.bra != a0.bra or b1.bra != b0.bra:
        raise InvariantViolation("interaction moved a bra", event.step,
                                 event.pair, event.pre, event.post)
    if sorted((a1.ket, b1.ket)) != sorted((a0.ket, b0.ket)):
        raise InvariantViolation("interaction changed the ket multiset",
                                 event.step, event.pair, event.pre, event.post)
    if not event.exchanged and (a1.ket != a0.ket or b1.ket != b0.ket):
        raise InvariantViolation("kets moved without an exchange flag",
                                 event.step, event.pair, event.pre, event.post)


def _check_full(event: TraceEvent, k: int):
    # Only the two participants' weights can change, so the sorted weight
    # vector of the whole population drops lexicographically iff the
    # smallest value in the multiset difference of {old pair weights} and
    # {new pair weights} sits on the new side.
    (a0, b0), (a1, b1) = event.pre, event.post
    old = Counter(_pair_weights(a0, b0, k))
    new = Counter(_pair_weights(a1, b1, k))
    gone = old - new
    came = new - old
    if event.exchanged:
        if not gone:
            raise InvariantViolation("ket exchange left all weights unchanged",
                                     event.step, event.pair, event.pre, event.post)
        if min(came) >= min(gone):
            raise InvariantViolation("ket exchange did not lower the weight vector",
                                     event.step, event.pair, event.pre, event.post)
    elif gone or came:
        raise InvariantViolation("weights changed without a ket exchange",
                                 event.step, event.pair, event.pre, event.post)


BATCH = 4096  # most scheduler pairs fetched and applied at a time

# (k, assertion level, rule) -> {bra-ket pair key: transition}. The rule is
# part of the key so that a replaced rule never reuses another's entries.
_TABLES: dict[tuple, dict[int, tuple[int, int, bool, int]]] = {}


def _table(k: int, assertions: str) -> dict[int, tuple[int, int, bool, int]]:
    """The transition table a run at this k and level uses, for the current rule.

    The "off" table is the raw one: its entries come straight from the
    rule. A run at "safety" or "full" copies a raw entry into its own
    table only once the entry has passed that level's checks.
    """
    return _TABLES.setdefault((k, assertions, _interact), {})


def _transition(key: int, k: int) -> tuple[int, int, bool, int]:
    """Table entry for key = (bra_a*k + ket_a)*k*k + bra_b*k + ket_b.

    Returns (new bra-ket of a times k, new bra-ket of b times k, exchanged,
    broadcast color or -1). The rule is probed with outs 0 and 1: no
    broadcast leaves both unchanged, so out_changed tells whether one
    happened. With k = 1 every out is 0 and a broadcast changes nothing.
    """
    bra_ket_a, bra_ket_b = divmod(key, k * k)
    result = _interact(AgentState(bra_ket_a // k, bra_ket_a % k, 0),
                       AgentState(bra_ket_b // k, bra_ket_b % k, 1 % k), k)
    a, b = result.a, result.b
    return ((a.bra * k + a.ket) * k, (b.bra * k + b.ket) * k,
            result.exchanged, a.out if result.out_changed else -1)


def _raw_entry(key: int, k: int, raw: dict) -> tuple[int, int, bool, int]:
    entry = raw.get(key)
    if entry is None:
        entry = raw[key] = _transition(key, k)
    return entry


def _post(entry: tuple[int, int, bool, int], a: int, b: int,
          k: int) -> tuple[int, int, bool]:
    """Codes of agents a and b after the transition, and out_changed."""
    new_a, new_b, _, loop = entry
    if loop < 0:
        return new_a + a % k, new_b + b % k, False
    return new_a + loop, new_b + loop, a % k != loop or b % k != loop


def _encode(state: AgentState, k: int) -> int:
    return int((state.bra * k + state.ket) * k + state.out)


def _decode(code: int, k: int, decoded: dict[int, AgentState]) -> AgentState:
    # One shared AgentState per code for a whole run.
    state = decoded.get(code)
    if state is None:
        bra_ket, out = divmod(code, k)
        state = decoded[code] = AgentState(bra_ket // k, bra_ket % k, out)
    return state


def _event(step: int, pair: AgentPair, a: int, b: int, new_a: int, new_b: int,
           exchanged: bool, out_changed: bool, k: int,
           decoded: dict[int, AgentState]) -> TraceEvent:
    return TraceEvent(step, pair, (_decode(a, k, decoded), _decode(b, k, decoded)),
                      (_decode(new_a, k, decoded), _decode(new_b, k, decoded)),
                      exchanged, out_changed)


def _first_use(key: int, a: int, b: int, step: int, pair: AgentPair, k: int,
               raw: dict, assertions: str, decoded: dict[int, AgentState]):
    """The transition for a key the run's table lacks, checked at this step."""
    entry = _raw_entry(key, k, raw)
    if assertions != "off":
        new_a, new_b, out_changed = _post(entry, a, b, k)
        event = _event(step, pair, a, b, new_a, new_b, entry[2], out_changed,
                       k, decoded)
        _check_safety(event)
        if assertions == "full":
            _check_full(event, k)
    return entry


def _settled(codes, k: int, raw: dict) -> bool:
    """True iff no two agents of the coded population would change anything.

    Scans the bra-ket pairs present rather than agents: an exchange
    depends on the bra-kets alone, and a broadcast of color c changes
    nothing only if every agent on both bra-kets already outputs c. A
    bra-ket meets itself only when at least two agents hold it. Reads
    raw entries: only steps are checked.
    """
    sizes: Counter = Counter()
    only_out: dict[int, int] = {}   # bra-ket -> its one out color, else -2
    for code, mult in Counter(codes).items():
        bra_ket, out = divmod(code, k)
        sizes[bra_ket] += mult
        only_out[bra_ket] = out if only_out.get(bra_ket, out) == out else -2
    present = list(only_out)
    kk = k * k
    for idx, g in enumerate(present):
        for h in present[idx if sizes[g] > 1 else idx + 1:]:
            _, _, exchanged, loop = _raw_entry(g * kk + h, k, raw)
            if exchanged or (loop >= 0 and not only_out[g] == only_out[h] == loop):
                return False
    return True


def is_quiescent(config: Configuration) -> bool:
    """True iff no pair of present states would change anything.

    Every unordered pair of distinct present states counts, plus each
    state present at least twice against itself. A population of one
    agent is quiescent by definition.
    """
    k = check_k(config.k)
    return _settled([_encode(s, k) for s in config.states], k, _table(k, "off"))


def _apply(codes: list[int], firsts: list[int], seconds: list[int], start: int,
           k: int, table: dict, raw: dict, assertions: str, trace: str,
           events: list[TraceEvent], decoded: dict[int, AgentState]):
    """Apply one batch of scheduled interactions to the codes in place.

    Returns (ket exchanges, out updates) of the batch.
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
            entry = table[key] = _first_use(key, a, b, step, (i, j), k, raw,
                                            assertions, decoded)
        # _post, inlined: this loop runs once per interaction
        new_a, new_b, exchanged, loop = entry
        if loop < 0:
            out_changed = False
            new_a += a % k
            new_b += b % k
        else:
            out_changed = a % k != loop or b % k != loop
            new_a += loop
            new_b += loop
        if exchanged or out_changed:
            codes[i] = new_a
            codes[j] = new_b
            exchanges += exchanged
            out_updates += out_changed
            if record_changes:
                events.append(_event(step, (i, j), a, b, new_a, new_b,
                                     exchanged, out_changed, k, decoded))
        elif record_nulls:
            events.append(_event(step, (i, j), a, b, a, b, False, False,
                                 k, decoded))
    return exchanges, out_updates


def run(config: Configuration, scheduler: Scheduler,
        policy: StopPolicy | None = None, *,
        assertions: str = "safety",
        trace: str = "changes",
        check_interval: int | None = None) -> RunResult:
    """Drive the configuration through the schedule until the policy stops.

    Quiescence is checked before the first interaction, then every
    check_interval interactions (default: one full round of n*(n-1)/2).
    Under UntilQuiescent the run stops at the first successful check or at
    the cap, whichever comes first; under FixedSteps it always executes
    exactly the requested number of interactions and the checks only feed
    the metrics. Assertion levels: "off", "safety" (bra-ket conservation),
    "full" (safety plus the weight-vector drop at each exchange); any
    violation raises InvariantViolation.
    """
    if assertions not in ASSERTION_LEVELS:
        raise ValueError(f"assertions must be one of {ASSERTION_LEVELS}, "
                         f"got {assertions!r}")
    if trace not in ("off", "changes", "full"):
        raise ValueError(f'trace must be "off", "changes" or "full", got {trace!r}')
    if policy is None:
        policy = UntilQuiescent()

    n, k = config.n, check_k(config.k)
    round_length = max(pair_count(n), 1)
    if check_interval is None:
        check_interval = round_length
    elif check_interval < 1:
        raise ValueError(f"check interval must be positive, got {check_interval}")

    if isinstance(policy, UntilQuiescent):
        cycles = policy.max_cycles
        if cycles is None:
            cycles = DEFAULT_CAP_CYCLES_FACTOR * n * n
        if cycles < 0:
            raise ValueError(f"cap must be non-negative, got {cycles}")
        limit = cycles * round_length
        stop_on_quiescence = True
    else:
        if policy.steps < 0:
            raise ValueError(f"step budget must be non-negative, got {policy.steps}")
        limit = policy.steps
        stop_on_quiescence = False
    if limit > 0 and pair_count(n) == 0:
        # A single agent has no pairs; any step budget collapses to zero.
        limit = 0

    table, raw = _table(k, assertions), _table(k, "off")
    codes = [_encode(s, k) for s in config.states]
    decoded: dict[int, AgentState] = {}
    events: list[TraceEvent] = []
    total = exchanges = out_updates = 0
    quiescence_step = 0 if _settled(codes, k, raw) else None
    while total < limit and not (stop_on_quiescence and quiescence_step is not None):
        # A batch never crosses the next quiescence check.
        count = min(BATCH, limit - total)
        if quiescence_step is None:
            count = min(count, check_interval - total % check_interval)
        firsts, seconds = scheduler.pairs(total, count)
        batch_exchanges, batch_out_updates = _apply(
            codes, firsts.tolist(), seconds.tolist(), total, k, table, raw,
            assertions, trace, events, decoded)
        total += count
        exchanges += batch_exchanges
        out_updates += batch_out_updates
        if (quiescence_step is None and total % check_interval == 0
                and _settled(codes, k, raw)):
            quiescence_step = total
    if quiescence_step is None and _settled(codes, k, raw):
        # The budget ran out between checks; record the late detection.
        quiescence_step = total

    final = Configuration(k, tuple(_decode(c, k, decoded) for c in codes))
    metrics = RunMetrics(
        total_interactions=total,
        ket_exchanges=exchanges,
        out_updates=out_updates,
        quiescence_step=quiescence_step,
        converged=quiescence_step is not None,
        final_outputs=final.output_counts(),
    )
    return RunResult(final, RunTrace(trace, tuple(events)), metrics)
