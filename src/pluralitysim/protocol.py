"""Agent states and the pairwise interaction rule.

An agent stores a triple (bra, ket, out) of colors drawn from the integer
circle [0, k-1], so there are exactly k**3 distinct states for a given k.
The bra-ket part encodes a directed arc on the color circle; its weight is
the circular distance from bra to ket, except that a self-loop (bra == ket)
weighs the full k. When two agents interact they first swap kets if that
strictly lowers the smaller of their two weights, then any self-loop among
the resulting pair broadcasts its color into both out fields.

The rule reads only the two bra-kets, so it is defined once, on bra-ket
indices bra*k + ket: _braket_rule gives the new bra-kets, whether the
kets were exchanged and the broadcast color (or -1). The engine fills its
transition tables from it, and apply_interaction derives full states from
it by writing the broadcast color, if any, into both outs. Every reader
looks it up by this name when it runs, so a rule patched in here reaches
them all.

Everything in this module is a pure function of its arguments; populations
and sequencing live in the engine module.
"""

from __future__ import annotations

import operator
from typing import NamedTuple


class AgentState(NamedTuple):
    """One agent's (bra, ket, out) color triple."""

    bra: int
    ket: int
    out: int


class InteractionResult(NamedTuple):
    """Outcome of one pairwise interaction, in argument order."""

    a: AgentState
    b: AgentState
    exchanged: bool     # the ket swap happened
    out_changed: bool   # at least one out field changed value


def _integer(value) -> int | None:
    # Any integer type, numpy's included, as a plain int; None for
    # anything else. bool is an int subclass but never a color or a k.
    # An exact int, the common case, is returned before the slower tests.
    if type(value) is int:
        return value
    if isinstance(value, bool):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


def _count(value, what: str, least: int = 0) -> int:
    # An integer of any integer type, at least least (0 or 1), as a plain
    # int by the rule colors follow; used for k, indices, counts, budgets.
    number = _integer(value)
    if number is None or number < least:
        kind = "positive" if least else "non-negative"
        raise ValueError(f"{what} must be a {kind} integer, got {value!r}")
    return number


def check_k(k: int) -> int:
    """Validate the number of colors; the circle needs k >= 1.

    Returns k as a plain int.
    """
    return _count(k, "k", 1)


def check_color(value: int, k: int) -> int:
    """Validate one color against the circle [0, k-1].

    Returns the color as a plain int.
    """
    color = _integer(value)
    if color is None:
        raise ValueError(f"color {value!r} is not an integer")
    if not 0 <= color < k:
        raise ValueError(f"color {value!r} outside [0, {k - 1}]")
    return color


def validate_state(state: AgentState, k: int) -> AgentState:
    # The state with every field checked and stored as a plain int.
    return AgentState(check_color(state.bra, k), check_color(state.ket, k),
                      check_color(state.out, k))


def _weight(bra: int, ket: int, k: int) -> int:
    # Self-loops weigh k, the maximum; everything else is in [1, k-1].
    return k if bra == ket else (ket - bra) % k


def weight(bra: int, ket: int, k: int) -> int:
    """Weight of a bra-ket: k for a self-loop, else (ket - bra) mod k."""
    k = check_k(k)
    return _weight(check_color(bra, k), check_color(ket, k), k)


def init_agent(input_color: int, k: int) -> AgentState:
    """Initial state of an agent holding ``input_color``: a self-loop on it."""
    color = check_color(input_color, check_k(k))
    return AgentState(color, color, color)


def _braket_rule(g: int, h: int, k: int) -> tuple[int, int, bool, int]:
    # The rule on two bra-kets g and h, each bra*k + ket: returns their new
    # bra-kets, whether the kets were exchanged and the color a post-swap
    # self-loop broadcasts, or -1 if there is none.
    bra_g, ket_g = divmod(g, k)
    bra_h, ket_h = divmod(h, k)
    # Step 1: swap kets iff the smaller of the two weights strictly drops.
    exchanged = (min(_weight(bra_g, ket_h, k), _weight(bra_h, ket_g, k))
                 < min(_weight(bra_g, ket_g, k), _weight(bra_h, ket_h, k)))
    ket_g, ket_h = (ket_h, ket_g) if exchanged else (ket_g, ket_h)
    # Step 2, on the post-swap bra-kets: a self-loop broadcasts its color.
    # The two can never be self-loops of different colors here: two
    # distinct self-loops always profit from swapping (k, k -> both < k),
    # and a swap that created two distinct self-loops would have raised the
    # minimum weight to k and therefore never happens.
    loop = bra_g if bra_g == ket_g else bra_h if bra_h == ket_h else -1
    return bra_g * k + ket_g, bra_h * k + ket_h, exchanged, loop


def _interact(a: AgentState, b: AgentState, k: int) -> InteractionResult:
    # The rule on full states: the outs become the broadcast color, if any.
    g, h, exchanged, loop = _braket_rule(a.bra * k + a.ket, b.bra * k + b.ket, k)
    out_a, out_b = (a.out, b.out) if loop < 0 else (loop, loop)
    return InteractionResult(AgentState(*divmod(g, k), out_a),
                             AgentState(*divmod(h, k), out_b), exchanged,
                             out_a != a.out or out_b != b.out)


def apply_interaction(a: AgentState, b: AgentState, k: int) -> InteractionResult:
    """Apply one interaction between two agents.

    Returns the two updated states (in argument order) plus flags saying
    whether the kets were exchanged and whether any out field changed.
    Symmetric in a and b, and deterministic.
    """
    k = check_k(k)
    return _interact(validate_state(a, k), validate_state(b, k), k)

