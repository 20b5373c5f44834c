"""Unit tests for configurations, quiescence detection, and run()."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_reference import potential_less, quiescent_by_pairs, step
from pluralitysim.engine import (Configuration, FixedSteps,
                                 InvariantViolation, TraceEvent,
                                 UntilQuiescent, _check_full, _check_safety,
                                 init_configuration, is_quiescent, run)
from pluralitysim.oracle import predicted_stable_multiset
from pluralitysim.protocol import (AgentState, InteractionResult, _interact,
                                   all_states, apply_interaction)
from pluralitysim.schedulers import RoundRobin, StarvationAdversary, make_scheduler


@st.composite
def instances(draw, k_max=4, n_max=8):
    k = draw(st.integers(1, k_max))
    colors = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=n_max))
    return k, colors


class TestConfiguration:
    def test_views(self):
        config = Configuration(2, (AgentState(0, 1, 0), AgentState(1, 0, 1),
                                   AgentState(1, 1, 1)))
        assert config.n == 3
        assert config.braket_counts() == Counter(
            {(0, 1): 1, (1, 0): 1, (1, 1): 1})
        assert config.output_counts() == Counter({0: 1, 1: 2})
        assert config.state_counts()[AgentState(1, 1, 1)] == 1
        assert config.sorted_weights() == (1, 1, 2)

    def test_rejects_colors_outside_k(self):
        with pytest.raises(ValueError):
            Configuration(2, (AgentState(0, 2, 0),))

    def test_rejects_empty_population(self):
        with pytest.raises(ValueError):
            Configuration(2, ())

    def test_init_configuration_builds_self_loops(self):
        config = init_configuration([2, 0], 3)
        assert config.states == (AgentState(2, 2, 2), AgentState(0, 0, 0))
        with pytest.raises(ValueError):
            init_configuration([], 3)
        with pytest.raises(ValueError):
            init_configuration([3], 3)

    def test_rejects_bool_colors(self):
        with pytest.raises(ValueError, match="not an integer"):
            init_configuration([True, False], 2)
        with pytest.raises(ValueError):
            init_configuration([0, 1], True)

    def test_accepts_numpy_integer_colors(self):
        config = init_configuration([np.int64(0), np.int8(1)], np.int64(2))
        assert config.k == 2 and type(config.k) is int
        assert config.states == (AgentState(0, 0, 0), AgentState(1, 1, 1))
        assert all(type(c) is int for s in config.states for c in s)
        _, _, metrics = run(config, RoundRobin(2))
        assert metrics.converged


class TestStep:
    def test_applies_one_interaction_functionally(self):
        config = init_configuration([0, 1], 2)
        after, event = step(config, (0, 1))
        assert config.states == (AgentState(0, 0, 0), AgentState(1, 1, 1))
        assert after.states == (AgentState(0, 1, 0), AgentState(1, 0, 1))
        assert event.exchanged and not event.out_changed
        assert event.pre == config.states and event.post == after.states

    def test_noop_returns_the_same_object(self):
        config = Configuration(2, (AgentState(0, 1, 1), AgentState(1, 0, 1)))
        after, event = step(config, (0, 1))
        assert after is config
        assert not event.exchanged and not event.out_changed

    def test_rejects_bad_pairs(self):
        config = init_configuration([0, 1], 2)
        with pytest.raises(ValueError):
            step(config, (0, 0))
        with pytest.raises(ValueError):
            step(config, (0, 2))


class TestIsQuiescent:
    def test_uniform_self_loops_are_quiescent(self):
        assert is_quiescent(init_configuration([2, 2, 2], 3))

    def test_distinct_self_loops_would_swap(self):
        config = Configuration(4, (AgentState(1, 1, 1), AgentState(3, 3, 3)))
        assert not is_quiescent(config)

    def test_pending_broadcast_blocks_quiescence(self):
        config = Configuration(2, (AgentState(0, 1, 0), AgentState(1, 0, 1),
                                   AgentState(1, 1, 1)))
        assert not is_quiescent(config)

    def test_duplicate_state_interacts_with_itself(self):
        # two copies of the same self-loop still broadcast to their outs
        config = Configuration(2, (AgentState(1, 1, 0), AgentState(1, 1, 0)))
        assert not is_quiescent(config)
        assert is_quiescent(Configuration(2, (AgentState(1, 1, 0),)))

    @given(st.integers(1, 4).flatmap(lambda k: st.tuples(
        st.just(k), st.lists(st.tuples(*[st.integers(0, k - 1)] * 3),
                             min_size=1, max_size=7))))
    @settings(max_examples=300, deadline=None)
    def test_matches_a_check_of_every_agent_pair(self, case):
        k, triples = case
        config = Configuration(k, tuple(AgentState(*t) for t in triples))
        assert is_quiescent(config) == quiescent_by_pairs(config)

    @given(instances())
    @settings(max_examples=60, deadline=None)
    def test_settled_population_is_quiescent(self, case):
        k, colors = case
        final, _, _ = run(init_configuration(colors, k),
                          RoundRobin(len(colors)))
        assert is_quiescent(final)


class TestRun:
    def test_majority_run_settles_with_all_outputs_on_the_winner(self):
        final, trace, metrics = run(init_configuration([0, 1, 1], 2),
                                    RoundRobin(3), assertions="full")
        assert metrics.total_interactions == 3
        assert metrics.ket_exchanges == 1
        assert metrics.out_updates == 1
        assert metrics.quiescence_step == 3
        assert metrics.converged
        assert metrics.final_outputs == Counter({1: 3})
        assert final.states == (AgentState(0, 1, 1), AgentState(1, 0, 1),
                                AgentState(1, 1, 1))
        assert len(trace.events) == 2  # thinned: only changing steps

    def test_trace_modes(self):
        config = init_configuration([0, 1, 1], 2)
        _, full, _ = run(config, RoundRobin(3), trace="full")
        _, changes, _ = run(config, RoundRobin(3), trace="changes")
        _, off, _ = run(config, RoundRobin(3), trace="off")
        assert [len(t.events) for t in (full, changes, off)] == [3, 2, 0]
        assert [e for e in full.events
                if e.exchanged or e.out_changed] == list(changes.events)

    def test_single_agent_is_immediately_quiescent(self):
        final, _, metrics = run(init_configuration([0], 1), RoundRobin(1))
        assert metrics == type(metrics)(
            total_interactions=0, ket_exchanges=0, out_updates=0,
            quiescence_step=0, converged=True, final_outputs=Counter({0: 1}))
        assert final.states == (AgentState(0, 0, 0),)

    def test_quiescent_start_costs_no_interactions(self):
        _, _, metrics = run(init_configuration([1, 1, 1], 2), RoundRobin(3))
        assert metrics.total_interactions == 0
        assert metrics.quiescence_step == 0

    def test_fixed_steps_runs_exactly_that_many(self):
        config = init_configuration([0, 1, 1], 2)
        _, _, m1 = run(config, RoundRobin(3), FixedSteps(1))
        assert (m1.total_interactions, m1.converged, m1.quiescence_step) == (
            1, False, None)
        _, _, m2 = run(config, RoundRobin(3), FixedSteps(2))
        assert (m2.total_interactions, m2.converged, m2.quiescence_step) == (
            2, True, 2)
        _, _, m9 = run(config, RoundRobin(3), FixedSteps(9))
        assert (m9.total_interactions, m9.quiescence_step) == (9, 3)
        assert m9.ket_exchanges == 1

    def test_check_interval_controls_detection_granularity(self):
        config = init_configuration([0, 1, 1], 2)
        _, _, metrics = run(config, RoundRobin(3), check_interval=1)
        assert metrics.quiescence_step == 2
        assert metrics.total_interactions == 2

    def test_zero_cap_reports_nonconvergence_without_stepping(self):
        _, _, metrics = run(init_configuration([0, 1, 1], 2), RoundRobin(3),
                            UntilQuiescent(max_cycles=0))
        assert (metrics.total_interactions, metrics.converged) == (0, False)

    def test_starved_pair_blocks_convergence_but_not_safety(self):
        # agent 0 can only learn the majority color from agent 1, the lone
        # self-loop after the first exchange; starving (0, 1) stalls it
        config = init_configuration([0, 1, 1], 2)
        adversary = StarvationAdversary(3, excluded=(0, 1), release_step=2**62)
        final, _, metrics = run(config, adversary, UntilQuiescent(max_cycles=5),
                                assertions="full")
        assert not metrics.converged
        assert metrics.quiescence_step is None
        assert final.output_counts()[0] == 1

    def test_releasing_the_starved_pair_restores_convergence(self):
        config = init_configuration([0, 1, 1], 2)
        adversary = StarvationAdversary(3, excluded=(0, 1), release_step=6)
        final, _, metrics = run(config, adversary, assertions="full")
        assert metrics.converged
        assert final.output_counts() == Counter({1: 3})

    def test_rejects_bad_options(self):
        config = init_configuration([0, 1], 2)
        with pytest.raises(ValueError):
            run(config, RoundRobin(2), assertions="paranoid")
        with pytest.raises(ValueError):
            run(config, RoundRobin(2), trace="some")
        with pytest.raises(ValueError):
            run(config, RoundRobin(2), check_interval=0)
        with pytest.raises(ValueError):
            run(config, RoundRobin(2), FixedSteps(-1))
        with pytest.raises(ValueError):
            run(config, RoundRobin(2), UntilQuiescent(-1))

    @given(instances(), st.sampled_from(["roundrobin", "random"]),
           st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_metrics_invariants_hold(self, case, kind, seed):
        k, colors = case
        scheduler = make_scheduler(kind, len(colors), seed=seed)
        final, _, m = run(init_configuration(colors, k), scheduler,
                          UntilQuiescent(max_cycles=500), assertions="full")
        assert m.ket_exchanges <= m.total_interactions
        assert m.out_updates <= m.total_interactions
        if m.quiescence_step is not None:
            assert m.quiescence_step <= m.total_interactions
        assert m.converged == (m.quiescence_step is not None)
        assert m.final_outputs == final.output_counts()
        assert sum(m.final_outputs.values()) == len(colors)

    @given(instances())
    @settings(max_examples=60, deadline=None)
    def test_roundrobin_settles_into_the_predicted_multiset(self, case):
        k, colors = case
        final, _, metrics = run(init_configuration(colors, k),
                                RoundRobin(len(colors)), assertions="full")
        assert metrics.converged
        assert final.braket_counts() == predicted_stable_multiset(colors)

    @given(instances())
    @settings(max_examples=60, deadline=None)
    def test_full_trace_replays_and_the_potential_only_falls(self, case):
        # cross-check the incremental runtime assertions against a full
        # recomputation of the sorted weight vector at every step
        k, colors = case
        config = init_configuration(colors, k)
        final, trace, metrics = run(config, RoundRobin(len(colors)),
                                    assertions="full", trace="full")
        assert len(trace.events) == metrics.total_interactions
        current = config
        for event in trace.events:
            i, j = event.pair
            assert (current.states[i], current.states[j]) == event.pre
            before = current.sorted_weights()
            current, echo = step(current, event.pair)
            assert (echo.exchanged, echo.out_changed) == (
                event.exchanged, event.out_changed)
            after = current.sorted_weights()
            if event.exchanged:
                assert potential_less(after, before)
            else:
                assert after == before
        assert current.states == final.states


class TestTransitionTable:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_every_state_pair_steps_like_apply_interaction(self, k):
        states = all_states(k)
        for a in states:
            for b in states:
                final, trace, _ = run(Configuration(k, (a, b)), RoundRobin(2),
                                      FixedSteps(1), assertions="full",
                                      trace="full")
                (event,) = trace.events
                expected = apply_interaction(a, b, k)
                assert final.states == (expected.a, expected.b), (a, b)
                assert event.post == (expected.a, expected.b), (a, b)
                assert (event.exchanged, event.out_changed) == (
                    expected.exchanged, expected.out_changed), (a, b)

    def test_full_run_after_off_run_still_checks(self, monkeypatch):
        monkeypatch.setattr("pluralitysim.engine._interact", _clobber_kets)
        config = init_configuration([0, 1, 1], 2)
        run(config, RoundRobin(3), FixedSteps(3), assertions="off")
        for level in ("safety", "full"):
            with pytest.raises(InvariantViolation) as info:
                run(config, RoundRobin(3), FixedSteps(3), assertions=level)
            assert (info.value.step, info.value.pair) == (0, (0, 1))

    def test_each_transition_is_checked_once_per_rule(self, monkeypatch):
        calls = []

        def counting_check(event, k):
            calls.append(event.step)

        def rule(a, b, k):
            return _interact(a, b, k)

        monkeypatch.setattr("pluralitysim.engine._interact", rule)
        monkeypatch.setattr("pluralitysim.engine._check_full", counting_check)
        config = init_configuration([0, 1, 1, 2, 2, 2], 3)
        _, _, first = run(config, RoundRobin(6), assertions="full")
        checked = len(calls)
        assert 0 < checked < first.total_interactions
        run(config, RoundRobin(6), assertions="full")
        assert len(calls) == checked

    def test_violation_first_met_after_a_scan_names_its_step(self, monkeypatch):
        def moves_a_bra_between_loops(a, b, k):
            # wrong only when self-loops of colors 0 and 1 meet
            result = _interact(a, b, k)
            if (a.bra, a.ket, b.bra, b.ket) == (0, 0, 1, 1):
                return result._replace(a=result.a._replace(bra=1))
            return result

        monkeypatch.setattr("pluralitysim.engine._interact",
                            moves_a_bra_between_loops)
        # the opening quiescence scan already meets the faulty pair of
        # bra-kets; the schedule reaches it at step 1
        with pytest.raises(InvariantViolation) as info:
            run(init_configuration([0, 0, 1], 2), RoundRobin(3))
        assert (info.value.step, info.value.pair) == (1, (0, 2))


def _clobber_kets(a, b, k):
    # overwrites both kets with a's bra
    return InteractionResult(AgentState(a.bra, a.bra, a.out),
                             AgentState(b.bra, a.bra, b.out), True, False)


class TestRuntimeAssertions:
    def _event(self, pre, post, exchanged, out_changed=False):
        return TraceEvent(0, (0, 1), pre, post, exchanged, out_changed)

    def test_moved_bra_is_caught(self):
        event = self._event((AgentState(0, 1, 0), AgentState(1, 0, 1)),
                            (AgentState(1, 1, 0), AgentState(0, 0, 1)), True)
        with pytest.raises(InvariantViolation):
            _check_safety(event)

    def test_changed_ket_multiset_is_caught(self):
        event = self._event((AgentState(0, 1, 0), AgentState(1, 0, 1)),
                            (AgentState(0, 1, 0), AgentState(1, 1, 1)), True)
        with pytest.raises(InvariantViolation):
            _check_safety(event)

    def test_silent_ket_swap_is_caught(self):
        event = self._event((AgentState(0, 1, 0), AgentState(1, 0, 1)),
                            (AgentState(0, 0, 0), AgentState(1, 1, 1)), False)
        with pytest.raises(InvariantViolation):
            _check_safety(event)

    def test_exchange_that_keeps_weights_is_caught(self):
        event = self._event((AgentState(0, 1, 0), AgentState(1, 0, 1)),
                            (AgentState(0, 1, 0), AgentState(1, 0, 1)), True)
        with pytest.raises(InvariantViolation):
            _check_full(event, 2)

    def test_exchange_that_raises_the_potential_is_caught(self):
        event = self._event((AgentState(0, 1, 0), AgentState(1, 0, 1)),
                            (AgentState(0, 0, 0), AgentState(1, 1, 1)), True)
        with pytest.raises(InvariantViolation):
            _check_full(event, 2)

    def test_legitimate_exchange_passes_both_levels(self):
        event = self._event((AgentState(0, 0, 0), AgentState(1, 1, 1)),
                            (AgentState(0, 1, 0), AgentState(1, 0, 1)), True)
        _check_safety(event)
        _check_full(event, 2)

    def test_buggy_interaction_rule_aborts_the_run(self, monkeypatch):
        def clobber_kets(a, b, k):
            # deliberately overwrites both kets with a's bra
            from pluralitysim.protocol import InteractionResult
            return InteractionResult(AgentState(a.bra, a.bra, a.out),
                                     AgentState(b.bra, a.bra, b.out),
                                     True, False)

        monkeypatch.setattr("pluralitysim.engine._interact", clobber_kets)
        with pytest.raises(InvariantViolation) as info:
            run(init_configuration([0, 1, 1], 2), RoundRobin(3))
        assert info.value.step == 0
        assert info.value.pair == (0, 1)
