"""Unit tests for agent states and the pairwise interaction rule."""

from enum import IntEnum

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracle_reference import all_states, reference_interaction
from pluralitysim.protocol import (AgentState, _braket_rule, _count, _interact,
                                   apply_interaction, check_color, check_k,
                                   init_agent, weight)


@st.composite
def interactions(draw, k_max=6):
    """A k together with two valid agent states."""
    k = draw(st.integers(1, k_max))
    color = st.integers(0, k - 1)
    a = AgentState(draw(color), draw(color), draw(color))
    b = AgentState(draw(color), draw(color), draw(color))
    return k, a, b


class TestWeight:
    def test_self_loop_weighs_k(self):
        assert weight(2, 2, 5) == 5
        assert weight(0, 0, 1) == 1

    def test_circular_distance(self):
        assert weight(1, 3, 5) == 2
        assert weight(3, 1, 5) == 3
        assert weight(0, 4, 5) == 4

    @given(interactions())
    def test_range_and_loop_characterization(self, case):
        k, a, _ = case
        w = weight(a.bra, a.ket, k)
        assert 1 <= w <= k
        assert (w == k) == (a.bra == a.ket)

    @given(interactions())
    def test_opposite_arcs_sum_to_k(self, case):
        k, a, _ = case
        if a.bra != a.ket:
            assert weight(a.bra, a.ket, k) + weight(a.ket, a.bra, k) == k

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            weight(0, 0, 0)
        with pytest.raises(ValueError):
            weight(2, 0, 2)
        with pytest.raises(ValueError):
            weight(0, -1, 3)


class TestIntegerChecks:
    def test_other_integer_types_become_exact_ints(self):
        class Color(IntEnum):
            TWO = 2

        for value in (Color.TWO, np.int64(2)):
            for checked in (check_color(value, 3), check_k(value),
                            _count(value, "step index")):
                assert checked == 2 and type(checked) is int

    def test_true_is_rejected(self):
        with pytest.raises(ValueError, match="color True is not an integer"):
            check_color(True, 2)
        with pytest.raises(ValueError, match="k must be a positive integer"):
            check_k(True)
        with pytest.raises(ValueError, match="step index must be"):
            _count(True, "step index")


class TestInitAgent:
    def test_fresh_agent_is_a_self_loop_on_its_color(self):
        assert init_agent(3, 5) == AgentState(3, 3, 3)

    def test_rejects_color_outside_circle(self):
        with pytest.raises(ValueError):
            init_agent(2, 2)


class TestApplyInteraction:
    def test_two_distinct_self_loops_swap(self):
        a, b, exchanged, out_changed = apply_interaction(
            AgentState(0, 0, 0), AgentState(1, 1, 1), 2)
        assert (a, b) == (AgentState(0, 1, 0), AgentState(1, 0, 1))
        assert exchanged and not out_changed

    def test_stable_pair_is_untouched(self):
        a0, b0 = AgentState(0, 1, 1), AgentState(1, 0, 1)
        a, b, exchanged, out_changed = apply_interaction(a0, b0, 2)
        assert (a, b) == (a0, b0)
        assert not exchanged and not out_changed

    def test_self_loop_broadcasts_without_exchange(self):
        a, b, exchanged, out_changed = apply_interaction(
            AgentState(2, 2, 2), AgentState(0, 1, 0), 3)
        assert (a, b) == (AgentState(2, 2, 2), AgentState(0, 1, 2))
        assert not exchanged and out_changed

    def test_far_apart_self_loops_swap_without_broadcast(self):
        a, b, exchanged, out_changed = apply_interaction(
            AgentState(1, 1, 1), AgentState(3, 3, 3), 4)
        assert (a, b) == (AgentState(1, 3, 1), AgentState(3, 1, 3))
        assert exchanged and not out_changed

    def test_k1_population_is_inert(self):
        only = AgentState(0, 0, 0)
        assert apply_interaction(only, only, 1) == (only, only, False, False)

    def test_rejects_mismatched_colors(self):
        with pytest.raises(ValueError):
            apply_interaction(AgentState(0, 0, 0), AgentState(2, 0, 0), 2)

    @given(interactions())
    def test_symmetric_in_its_arguments(self, case):
        k, a, b = case
        ra, rb, exchanged, out_changed = apply_interaction(a, b, k)
        rb2, ra2, exchanged2, out_changed2 = apply_interaction(b, a, k)
        assert (ra, rb, exchanged, out_changed) == (ra2, rb2, exchanged2,
                                                    out_changed2)

    @given(interactions())
    def test_conserves_bras_and_the_ket_multiset(self, case):
        k, a, b = case
        ra, rb, exchanged, _ = apply_interaction(a, b, k)
        assert (ra.bra, rb.bra) == (a.bra, b.bra)
        assert sorted((ra.ket, rb.ket)) == sorted((a.ket, b.ket))
        if not exchanged:
            assert (ra.ket, rb.ket) == (a.ket, b.ket)

    @given(interactions())
    def test_exchange_strictly_lowers_the_pair_minimum_weight(self, case):
        k, a, b = case
        ra, rb, exchanged, _ = apply_interaction(a, b, k)
        before = min(weight(a.bra, a.ket, k), weight(b.bra, b.ket, k))
        after = min(weight(ra.bra, ra.ket, k), weight(rb.bra, rb.ket, k))
        if exchanged:
            assert after < before
        else:
            assert after == before

    @given(interactions())
    def test_outs_only_move_to_a_present_self_loop_color(self, case):
        k, a, b = case
        ra, rb, _, out_changed = apply_interaction(a, b, k)
        if out_changed:
            loops = {s.bra for s in (ra, rb) if s.bra == s.ket}
            assert ra.out == rb.out and ra.out in loops
        else:
            assert (ra.out, rb.out) == (a.out, b.out)

    @given(interactions())
    def test_idempotent_once_nothing_changes(self, case):
        k, a, b = case
        ra, rb, exchanged, out_changed = apply_interaction(a, b, k)
        if not exchanged and not out_changed:
            assert (ra, rb) == (a, b)
        again = apply_interaction(ra, rb, k)
        if not again.exchanged and not again.out_changed:
            assert (again.a, again.b) == (ra, rb)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_never_yields_two_distinct_self_loops(self, k):
        # Exhaustive over all state pairs, reachable or not: after an
        # interaction the pair never holds self-loops of two colors, which
        # is what makes the broadcast step well defined.
        states = all_states(k)
        for a in states:
            for b in states:
                ra, rb, _, _ = apply_interaction(a, b, k)
                if ra.bra == ra.ket and rb.bra == rb.ket:
                    assert ra.bra == rb.bra


class TestBraketRule:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_apply_interaction_equals_the_full_state_reference(self, k):
        states = all_states(k)
        for a in states:
            for b in states:
                assert apply_interaction(a, b, k) == (
                    reference_interaction(a, b, k)), (a, b)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_rotation_equivariant_on_every_key(self, k):
        # Rotating both bra-kets by r rotates the new bra-kets and a
        # broadcast color by r and keeps the exchange flag.
        def rotated(g, r):
            return (g // k + r) % k * k + (g % k + r) % k

        for g in range(k * k):
            for h in range(k * k):
                new_g, new_h, exchanged, loop = _braket_rule(g, h, k)
                for r in range(1, k):
                    assert _braket_rule(rotated(g, r), rotated(h, r), k) == (
                        rotated(new_g, r), rotated(new_h, r), exchanged,
                        -1 if loop < 0 else (loop + r) % k), (g, h, r)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_symmetric_on_every_key(self, k):
        for g in range(k * k):
            for h in range(k * k):
                new_g, new_h, exchanged, loop = _braket_rule(g, h, k)
                assert _braket_rule(h, g, k) == (new_h, new_g, exchanged,
                                                 loop), (g, h)


class TestAllStates:
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_enumerates_exactly_k_cubed_distinct_states(self, k):
        states = all_states(k)
        assert len(states) == k**3
        assert len(set(states)) == k**3

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            all_states(0)


def _invariants_hold(state, k):
    # I1: a self-loop outputs its own color. I2: an agent that outputs the
    # color after its bra holds the weight-1 arc to that color.
    bra, ket, out = state
    return ((bra != ket or out == bra)
            and (out != (bra + 1) % k or ket == (bra + 1) % k))


class TestReachableStateInvariants:
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_i1_i2_inductive_over_k3_minus_2k2_plus_3k_states(self, k):
        allowed = [s for s in all_states(k) if _invariants_hold(s, k)]
        assert len(allowed) == k**3 - 2 * k**2 + 3 * k
        assert all(_invariants_hold(AgentState(c, c, c), k) for c in range(k))
        for a in allowed:
            for b in allowed:
                result = _interact(a, b, k)
                assert _invariants_hold(result.a, k), (a, b)
                assert _invariants_hold(result.b, k), (a, b)
