"""Agent states and the pairwise interaction rule.

An agent stores a triple (bra, ket, out) of colors drawn from the integer
circle [0, k-1], so there are exactly k**3 distinct states for a given k.
The bra-ket part encodes a directed arc on the color circle; its weight is
the circular distance from bra to ket, except that a self-loop (bra == ket)
weighs the full k. When two agents interact they first swap kets if that
strictly lowers the smaller of their two weights, then any self-loop among
the resulting pair broadcasts its color into both out fields.

Everything in this module is a pure function of its arguments; populations
and sequencing live in the engine module.
"""

from __future__ import annotations

import operator
from itertools import product
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
    if isinstance(value, bool):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


def check_k(k: int) -> int:
    """Validate the number of colors; the circle needs k >= 1.

    Returns k as a plain int.
    """
    value = _integer(k)
    if value is None or value < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    return value


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
    check_color(state.bra, k)
    check_color(state.ket, k)
    check_color(state.out, k)
    return state


def _weight(bra: int, ket: int, k: int) -> int:
    # Self-loops weigh k, the maximum; everything else is in [1, k-1].
    return k if bra == ket else (ket - bra) % k


def weight(bra: int, ket: int, k: int) -> int:
    """Weight of a bra-ket: k for a self-loop, else (ket - bra) mod k."""
    check_k(k)
    check_color(bra, k)
    check_color(ket, k)
    return _weight(bra, ket, k)


def init_agent(input_color: int, k: int) -> AgentState:
    """Initial state of an agent holding ``input_color``: a self-loop on it."""
    color = check_color(input_color, check_k(k))
    return AgentState(color, color, color)


def _interact(a: AgentState, b: AgentState, k: int) -> InteractionResult:
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


def apply_interaction(a: AgentState, b: AgentState, k: int) -> InteractionResult:
    """Apply one interaction between two agents.

    Returns the two updated states (in argument order) plus flags saying
    whether the kets were exchanged and whether any out field changed.
    Symmetric in a and b, and deterministic.
    """
    check_k(k)
    validate_state(a, k)
    validate_state(b, k)
    return _interact(a, b, k)


def all_states(k: int) -> list[AgentState]:
    """The full state space for a given k: all k**3 (bra, ket, out) triples."""
    check_k(k)
    colors = range(k)
    return [AgentState(b, t, o) for b, t, o in product(colors, colors, colors)]
