"""Unit tests for configurations, quiescence detection, and run()."""

import re
from collections import Counter
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracle_reference import (all_states, configuration, full_violation,
                              potential_less, quiescent_by_pairs,
                              reference_interaction, safety_violation,
                              sorted_weights, step)
from pluralitysim import engine, protocol
from pluralitysim.engine import (Configuration, FixedSteps,
                                 InvariantViolation, RunTrace, TraceEvent,
                                 UntilQuiescent, _check_full, _check_safety,
                                 init_configuration, is_quiescent, run)
from pluralitysim.oracle import predicted_stable_multiset
from pluralitysim.protocol import (AgentState, _braket_rule, apply_interaction,
                                   weight)
from pluralitysim.schedulers import (RoundRobin, StarvationAdversary,
                                     make_scheduler, pair_count)
from pluralitysim.verify import reachable_state_set


def small_configurations():
    # Every multiset of at most 4 codes for k <= 2 and of at most 3 codes
    # for k = 3, balanced or not: 4 557 configurations.
    for k, n_max in ((1, 4), (2, 4), (3, 3)):
        for n in range(1, n_max + 1):
            for codes in combinations_with_replacement(range(k**3), n):
                yield Configuration(k, codes)


@st.composite
def instances(draw, k_max=4, n_max=8):
    k = draw(st.integers(1, k_max))
    colors = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=n_max))
    return k, colors


class TestConfiguration:
    def test_views(self):
        config = configuration(2, (AgentState(0, 1, 0), AgentState(1, 0, 1),
                                   AgentState(1, 1, 1)))
        assert config.codes == (2, 5, 7)
        assert config.n == 3
        assert config.braket_counts() == Counter(
            {(0, 1): 1, (1, 0): 1, (1, 1): 1})
        assert config.output_counts() == Counter({0: 1, 1: 2})
        assert Counter(config.states)[AgentState(1, 1, 1)] == 1
        assert sorted_weights(config) == (1, 1, 2)

    def test_rejects_colors_outside_k(self):
        # at k = 2 the codes are 0 .. 7; a color outside k leaves that range
        config = Configuration(2, (np.int64(0), np.uint8(7), 5))
        assert config.codes == (0, 7, 5)
        assert all(type(code) is int for code in config.codes)
        for code in (-1, 8, np.int64(8), 2**64):
            with pytest.raises(ValueError, match=re.escape(
                    f"code {code!r} is not an integer in [0, 7]")):
                Configuration(2, (0, code))

    def test_rejects_empty_population(self):
        with pytest.raises(ValueError):
            Configuration(2, ())
        with pytest.raises(ValueError):
            Configuration(2, [])

    def test_stores_any_iterable_of_codes_as_a_tuple(self):
        codes = (0, 7, 5)
        assert Configuration(2, codes).codes is codes
        for given in ([0, 7, 5], iter(codes), (0, np.int8(7), 5)):
            config = Configuration(2, given)
            assert type(config.codes) is tuple and config.codes == codes

    def test_init_configuration_builds_self_loops(self):
        config = init_configuration([2, 0], 3)
        assert config.codes == (26, 0)
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

    def test_errors_name_the_first_invalid_agent(self):
        cases = [
            ((0, 9, -3, 9), r"code 9 is not an integer in \[0, 7\]"),
            ((7, [1], 9), r"code \[1\] is not an integer"),
            ((7, 1.0), "code 1.0 is not an integer"),
            ((7, True, 9), "code True is not an integer"),
            ((7, True), "code True is not an integer"),
            ((7, AgentState(1, 1, 1)), r"code AgentState\(bra=1, ket=1, out=1\) "),
        ]
        for codes, message in cases:
            with pytest.raises(ValueError, match=message):
                Configuration(2, codes)

    def test_each_agent_is_validated_less_than_twice(self, monkeypatch):
        calls = []
        real = protocol.check_color

        def counted(value, k):
            calls.append(value)
            return real(value, k)

        for module in (protocol, engine):
            if hasattr(module, "check_color"):
                monkeypatch.setattr(module, "check_color", counted)
        n = 1000
        colors = np.random.default_rng(5).integers(0, 4, size=n).tolist()
        run(init_configuration(colors, 4), RoundRobin(n), FixedSteps(5000))
        assert 0 < len(calls) < 2 * n


class TestStep:
    def test_applies_one_interaction_functionally(self):
        config = init_configuration([0, 1], 2)
        after, event = step(config, (0, 1))
        assert config.states == (AgentState(0, 0, 0), AgentState(1, 1, 1))
        assert after.states == (AgentState(0, 1, 0), AgentState(1, 0, 1))
        assert event.exchanged and not event.out_changed
        assert event.pre == config.states and event.post == after.states

    def test_noop_returns_the_same_object(self):
        config = configuration(2, (AgentState(0, 1, 1), AgentState(1, 0, 1)))
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
        config = configuration(4, (AgentState(1, 1, 1), AgentState(3, 3, 3)))
        assert not is_quiescent(config)

    def test_pending_broadcast_blocks_quiescence(self):
        config = configuration(2, (AgentState(0, 1, 0), AgentState(1, 0, 1),
                                   AgentState(1, 1, 1)))
        assert not is_quiescent(config)

    def test_duplicate_state_interacts_with_itself(self):
        # two copies of the same self-loop still broadcast to their outs
        config = configuration(2, (AgentState(1, 1, 0), AgentState(1, 1, 0)))
        assert not is_quiescent(config)
        assert is_quiescent(configuration(2, (AgentState(1, 1, 0),)))

    @given(st.integers(1, 4).flatmap(lambda k: st.tuples(
        st.just(k), st.lists(st.tuples(*[st.integers(0, k - 1)] * 3),
                             min_size=1, max_size=7))))
    @settings(max_examples=300, deadline=None)
    def test_matches_a_check_of_every_agent_pair(self, case):
        k, triples = case
        config = configuration(k, [AgentState(*t) for t in triples])
        assert is_quiescent(config) == quiescent_by_pairs(config)

    def test_matches_a_check_of_every_agent_pair_on_small_multisets(self):
        for config in small_configurations():
            assert is_quiescent(config) == quiescent_by_pairs(config), config

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

    def test_trace_records_decode_to_the_events(self):
        _, trace, _ = run(init_configuration([0, 2, 1, 2, 1], 3), RoundRobin(5),
                          trace="full")
        assert len(trace.records) == len(trace.events) > 0
        for record, event in zip(trace.records, trace.events):
            step, i, j, a, b, new_a, new_b, exchanged, out_changed = record
            assert event == TraceEvent(
                step, (i, j), (trace.state(a), trace.state(b)),
                (trace.state(new_a), trace.state(new_b)), exchanged,
                out_changed)
            assert all(type(field) in (int, bool) for field in record)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_every_code_decodes_by_arithmetic(self, k):
        trace = RunTrace((), k)
        for code in range(k**3):
            bra_ket, out = divmod(code, k)
            state = trace.state(np.int64(code))
            assert state == AgentState(bra_ket // k, bra_ket % k, out)
            assert all(type(color) is int for color in state)
            assert trace.state(code) == state

    def test_state_rejects_what_is_not_a_code(self):
        trace = RunTrace((), 2)
        for value in (-1, 8, 100, True):
            with pytest.raises(ValueError, match=re.escape(
                    f"code {value!r} is not an integer in [0, 7]")):
                trace.state(value)

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
            run(config, RoundRobin(2), FixedSteps(-1))
        with pytest.raises(ValueError):
            run(config, RoundRobin(2), UntilQuiescent(-1))

    @pytest.mark.parametrize("n", [2, 7])
    def test_rejects_a_scheduler_for_another_population(self, n):
        config = init_configuration([0, 1, 1, 0, 1], 2)
        with pytest.raises(ValueError, match=f"n={n} agents"):
            run(config, RoundRobin(n))

    @pytest.mark.parametrize("policy", [
        UntilQuiescent(1.5), UntilQuiescent(True), UntilQuiescent("2"),
        FixedSteps(False)])
    def test_rejects_budgets_that_are_not_integers(self, policy):
        with pytest.raises(ValueError, match="must be a non-negative integer"):
            run(init_configuration([0, 1, 1], 2), RoundRobin(3), policy)

    def test_accepts_numpy_integer_budgets(self):
        config = init_configuration([0, 1, 1], 2)
        _, _, fixed = run(config, RoundRobin(3), FixedSteps(np.int64(2)))
        assert fixed.total_interactions == 2
        _, _, capped = run(config, RoundRobin(3), UntilQuiescent(np.int64(1)))
        assert (capped.total_interactions, capped.converged) == (3, True)

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
            states = current.states     # decoded once per replayed event
            assert (states[i], states[j]) == event.pre
            before = sorted_weights(current)
            current, echo = step(current, event.pair)
            assert (echo.exchanged, echo.out_changed) == (
                event.exchanged, event.out_changed)
            after = sorted_weights(current)
            if event.exchanged:
                assert potential_less(after, before)
            else:
                assert after == before
        assert current.states == final.states

    @given(instances(), st.sampled_from(["roundrobin", "random", "adversary"]),
           st.sampled_from(["changes", "full", "off"]),
           st.integers(1, 40) | st.just(engine.BATCH),
           st.integers(0, 2**32), st.none() | st.integers(0, 100))
    @settings(max_examples=150, deadline=None)
    def test_a_sink_gets_the_records_batch_by_batch(self, case, kind, mode,
                                                    batch, seed, release):
        k, colors = case
        n = len(colors)
        assume(kind != "adversary" or n >= 3)
        config = init_configuration(colors, k)

        def run_with(**sink):
            scheduler = make_scheduler(kind, n, seed=seed, release_step=release)
            return run(config, scheduler, UntilQuiescent(max_cycles=20),
                       trace=mode, **sink)

        batches = []
        original = engine.BATCH
        engine.BATCH = batch
        try:
            kept = run_with()
            sunk = run_with(sink=batches.append)
        finally:
            engine.BATCH = original
        assert [record for records in batches for record in records] == list(
            kept.trace.records)
        assert all(0 < len(records) <= batch for records in batches)
        if mode == "off":
            assert batches == []
        assert sunk.trace.records == ()
        assert (sunk.final, sunk.metrics) == (kept.final, kept.metrics)


class TestQuiescenceCheckPoints:
    @given(instances(),
           st.sampled_from(["roundrobin", "random", "release-0",
                            "release-round", "starved"]),
           st.integers(0, 2**32), st.data())
    @settings(max_examples=150, deadline=None)
    def test_first_quiescent_check_point_of_the_replayed_trace(
            self, case, kind, seed, data):
        # Checks run at 0, R, 2R, ... and at the budget, where R is one
        # round; quiescence_step is the first at which the reference
        # finds the replayed population quiescent.
        k, colors = case
        n = len(colors)
        round_length = max(pair_count(n), 1)
        releases = {"release-0": 0, "release-round": round_length,
                    "starved": 2**62}
        if kind in releases:
            assume(n >= 3)
            scheduler = StarvationAdversary(n, (0, 1), releases[kind])
        else:
            scheduler = make_scheduler(kind, n, seed=seed)
        if data.draw(st.booleans(), label="until quiescent"):
            cap = data.draw(st.sampled_from([0, 1, 3]), label="cap")
            policy, budget = UntilQuiescent(cap), cap * round_length
        else:
            rounds = data.draw(st.integers(0, 3), label="rounds")
            extra = data.draw(st.integers(0, round_length - 1), label="extra")
            budget = rounds * round_length + extra
            policy = FixedSteps(budget)
        if n == 1:
            budget = 0
        config = init_configuration(colors, k)
        final, trace, metrics = run(config, scheduler, policy,
                                    assertions="full", trace="full")

        total = metrics.total_interactions
        if total:
            firsts, seconds = scheduler.pairs(0, total)
            assert [(event.step, event.pair) for event in trace.events] == list(
                enumerate(zip(firsts, seconds)))
        checks = {*range(0, budget + 1, round_length), budget}
        expected = None
        current = config
        for event in [*trace.events, None]:
            at = total if event is None else event.step
            if expected is None and at in checks and quiescent_by_pairs(current):
                expected = at
            if event is not None:
                i, j = event.pair
                states = current.states     # decoded once per replayed event
                assert (states[i], states[j]) == event.pre
                current, _ = step(current, event.pair)
        assert current.states == final.states
        assert metrics.quiescence_step == expected
        stops_early = isinstance(policy, UntilQuiescent) and expected is not None
        assert total == (expected if stops_early else budget)

    def test_batches_stop_at_round_boundaries_longer_than_a_batch(self):
        # 100 agents make rounds of 4 950 pairs, more than engine.BATCH:
        # a batch that crossed a round boundary would skip the check
        # there, and the run would go on to the cap.
        assert pair_count(100) > engine.BATCH
        _, _, metrics = run(init_configuration([0] * 60 + [1] * 40, 2),
                            RoundRobin(100), UntilQuiescent(5))
        assert metrics.quiescence_step == metrics.total_interactions == 9900


class TestQuiescenceScans:
    @pytest.mark.parametrize("scheduler, policy, scans", [
        # a starved run scans at steps 0, 3, ..., 15 and hits its cap
        (StarvationAdversary(3, (0, 1), 2**62), UntilQuiescent(5), 6),
        (RoundRobin(3), FixedSteps(0), 1),
        # a converged run scans at step 0 and at 3, where it settles
        (RoundRobin(3), UntilQuiescent(), 2),
    ], ids=["starved-cap", "zero-budget", "converged"])
    def test_each_check_point_is_scanned_once(self, monkeypatch, scheduler,
                                              policy, scans):
        calls = []
        settled = engine._settled
        monkeypatch.setattr(engine, "_settled",
                            lambda *args: calls.append(args) or settled(*args))
        run(init_configuration([0, 1, 1], 2), scheduler, policy)
        assert len(calls) == scans


def _clobber_kets(g, h, k):
    # overwrites both kets with the bra of g
    bra = g // k
    return bra * k + bra, h // k * k + bra, True, -1


def _shifts_the_bra_of_g(g, h, k):
    # g's new bra-ket gets the next bra, mod k
    new_g, new_h, exchanged, loop = _braket_rule(g, h, k)
    return (new_g + k) % (k * k), new_h, exchanged, loop


def _drops_the_exchange_flag(g, h, k):
    new_g, new_h, _, loop = _braket_rule(g, h, k)
    return new_g, new_h, False, loop


def _flags_still_transitions(g, h, k):
    # sets the exchange flag on every transition that moves nothing
    new_g, new_h, exchanged, loop = _braket_rule(g, h, k)
    return new_g, new_h, exchanged or (new_g, new_h) == (g, h), loop


def _swaps_when_the_weight_sum_drops(g, h, k):
    # swaps the kets iff the sum of the two weights drops, not the
    # minimum: another rule, but one whose every transition passes both checks
    (bra_g, ket_g), (bra_h, ket_h) = divmod(g, k), divmod(h, k)
    exchanged = (weight(bra_g, ket_h, k) + weight(bra_h, ket_g, k)
                 < weight(bra_g, ket_g, k) + weight(bra_h, ket_h, k))
    if exchanged:
        ket_g, ket_h = ket_h, ket_g
    loop = bra_g if bra_g == ket_g else bra_h if bra_h == ket_h else -1
    return bra_g * k + ket_g, bra_h * k + ket_h, exchanged, loop


RULE_MUTANTS = (_shifts_the_bra_of_g, _drops_the_exchange_flag,
                _flags_still_transitions, _swaps_when_the_weight_sum_drops,
                _clobber_kets)


class TestTransitionTable:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_every_state_pair_steps_like_apply_interaction(self, k):
        states = all_states(k)
        for a in states:
            for b in states:
                final, trace, _ = run(configuration(k, (a, b)), RoundRobin(2),
                                      FixedSteps(1), assertions="full",
                                      trace="full")
                (event,) = trace.events
                expected = apply_interaction(a, b, k)
                assert final.states == (expected.a, expected.b), (a, b)
                assert event.post == (expected.a, expected.b), (a, b)
                assert (event.exchanged, event.out_changed) == (
                    expected.exchanged, expected.out_changed), (a, b)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_every_key_gets_the_entry_of_the_full_state_reference(self, k):
        # The entry the reference rule gives when probed with outs 0 and 1:
        # a broadcast changes at least one of them. At k = 1 both outs are
        # 0, so the probe cannot see the broadcast of color 0 that the
        # bra-ket rule names; the codes a run gives are the same.
        for key in range(k**4):
            g, h = divmod(key, k * k)
            result = reference_interaction(AgentState(g // k, g % k, 0),
                                           AgentState(h // k, h % k, 1 % k), k)
            a, b = result.a, result.b
            loop = a.out if result.out_changed else 0 if k == 1 else -1
            assert engine._checked(key, k, {}) == (
                ((a.bra * k + a.ket) * k, (b.bra * k + b.ket) * k,
                 result.exchanged, loop), None, "full"), key

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("mutant", RULE_MUTANTS,
                             ids=[mutant.__name__[1:] for mutant in RULE_MUTANTS])
    def test_every_key_of_a_mutant_gets_the_reference_reason_and_level(
            self, monkeypatch, mutant, k):
        monkeypatch.setattr("pluralitysim.protocol._braket_rule", mutant)
        table = {}
        for key in range(k**4):
            g, h = divmod(key, k * k)
            new_g, new_h, exchanged, loop = mutant(g, h, k)
            pre, post = [(AgentState(*divmod(a, k), 0), AgentState(*divmod(b, k), 0))
                         for a, b in ((g, h), (new_g, new_h))]
            event = TraceEvent(0, (0, 1), pre, post, exchanged, False)
            reason, level = safety_violation(event), "safety"
            if reason is None:
                reason, level = full_violation(event, k), "full"
            assert engine._checked(key, k, table) == (
                (new_g * k, new_h * k, exchanged, loop), reason, level), key
            assert (key in table) == (reason is None), key

    def test_full_run_after_off_run_still_checks(self, monkeypatch):
        monkeypatch.setattr("pluralitysim.protocol._braket_rule", _clobber_kets)
        config = init_configuration([0, 1, 1], 2)
        run(config, RoundRobin(3), FixedSteps(3), assertions="off")
        for level in ("safety", "full"):
            with pytest.raises(InvariantViolation) as info:
                run(config, RoundRobin(3), FixedSteps(3), assertions=level)
            assert (info.value.step, info.value.pair) == (0, (0, 1))
            assert info.value.post == apply_interaction(*info.value.pre, 2)[:2]

    def test_each_transition_is_checked_once_per_rule(self, monkeypatch):
        calls = []

        def counting_check(g, h, g1, h1, exchanged, k):
            calls.append((g, h))

        def rule(g, h, k):
            return _braket_rule(g, h, k)

        monkeypatch.setattr("pluralitysim.protocol._braket_rule", rule)
        monkeypatch.setattr("pluralitysim.engine._check_full", counting_check)
        config = init_configuration([0, 1, 1, 2, 2, 2], 3)
        run(config, RoundRobin(6), assertions="full")
        checked = len(calls)
        assert checked == len(set(calls)) > 0
        run(config, RoundRobin(6), assertions="full")
        assert len(calls) == checked

    def test_runs_after_a_full_run_make_no_further_checks(self, monkeypatch):
        calls = []

        def counted(check):
            def counting_check(*args):
                calls.append(check.__name__)
                return check(*args)
            return counting_check

        def rule(g, h, k):
            return _braket_rule(g, h, k)

        monkeypatch.setattr("pluralitysim.protocol._braket_rule", rule)
        for name in ("_check_safety", "_check_full"):
            monkeypatch.setattr(f"pluralitysim.engine.{name}",
                                counted(getattr(engine, name)))
        config = init_configuration([0, 1, 1, 2, 2, 2], 3)
        run(config, RoundRobin(6), assertions="full")
        checked = len(calls)
        assert checked > 0
        for level in ("off", "safety"):
            run(config, RoundRobin(6), assertions=level)
        assert len(calls) == checked

    @pytest.mark.parametrize("levels", [("safety", "full"), ("full", "safety")],
                             ids=["safety-first", "full-first"])
    def test_a_transition_failing_only_the_weight_drop_raises_only_at_full(
            self, monkeypatch, levels):
        def claims_twin_exchanges(g, h, k):
            # flags an exchange that moves nothing when two self-loops of
            # one color meet: balanced, but the weight vector stays put
            new_g, new_h, exchanged, loop = _braket_rule(g, h, k)
            twins = g == h and g // k == g % k
            return new_g, new_h, exchanged or twins, loop

        monkeypatch.setattr("pluralitysim.protocol._braket_rule",
                            claims_twin_exchanges)
        config = init_configuration([0, 1, 1, 1], 2)
        for level in levels:
            if level == "safety":
                _, _, metrics = run(config, RoundRobin(4), FixedSteps(12),
                                    assertions="safety")
                assert metrics.total_interactions == 12
                continue
            # the first two self-loops of color 1 to meet are agents 2 and 3
            with pytest.raises(InvariantViolation,
                               match="ket exchange left all weights unchanged") as info:
                run(config, RoundRobin(4), FixedSteps(12), assertions="full")
            assert (info.value.step, info.value.pair) == (5, (2, 3))
            assert info.value.post == apply_interaction(*info.value.pre, 2)[:2]

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_checks_agree_with_the_event_reference(self, k):
        # every pair of bra-kets before and after, with both exchange flags
        brakets = [AgentState(bra, ket, 0) for bra in range(k) for ket in range(k)]
        pairs = [(a, b) for a in brakets for b in brakets]
        for pre in pairs:
            for post in pairs:
                for exchanged in (False, True):
                    transition = _transition_of(pre, post, exchanged, k)
                    event = TraceEvent(0, (0, 1), pre, post, exchanged, False)
                    assert _check_safety(*transition) == safety_violation(event)
                    assert _check_full(*transition) == full_violation(event, k)

    def test_violation_first_met_after_a_scan_names_its_step(self, monkeypatch):
        monkeypatch.setattr("pluralitysim.protocol._braket_rule",
                            _moves_a_bra_between_loops)
        # the opening quiescence scan already meets the faulty pair of
        # bra-kets; the schedule reaches it at step 1
        with pytest.raises(InvariantViolation) as info:
            run(init_configuration([0, 0, 1], 2), RoundRobin(3))
        assert (info.value.step, info.value.pair) == (1, (0, 2))

    def test_a_scan_keeps_only_transitions_that_pass_both_checks(
            self, monkeypatch):
        def rule(g, h, k):
            return _braket_rule(g, h, k)

        # self-loops 0 and 1 meet through key 3 of k = 2
        loops = init_configuration([0, 1], 2)
        monkeypatch.setattr("pluralitysim.protocol._braket_rule",
                            _moves_a_bra_between_loops)
        assert not is_quiescent(loops)
        assert 3 not in engine._TABLES[(2, _moves_a_bra_between_loops)]
        monkeypatch.setattr("pluralitysim.protocol._braket_rule", rule)
        assert not is_quiescent(loops)
        # a settled triangle of k = 3 scans the keys of its three bra-kets
        # (0, 1), (1, 2) and (2, 0), that is 1, 5 and 6
        triangle = configuration(3, (AgentState(0, 1, 0), AgentState(1, 2, 0),
                                     AgentState(2, 0, 0)))
        assert is_quiescent(triangle)
        assert set(engine._TABLES[(2, rule)]) == {3}
        assert set(engine._TABLES[(3, rule)]) == {1 * 9 + 5, 1 * 9 + 6, 5 * 9 + 6}
        for k, used in ((2, _moves_a_bra_between_loops), (2, rule), (3, rule)):
            for key, entry in engine._TABLES[(k, used)].items():
                g, h = divmod(key, k * k)
                transition = g, h, entry[0] // k, entry[1] // k, entry[2], k
                assert _check_safety(*transition) is None
                assert _check_full(*transition) is None


def _moves_a_bra_between_loops(g, h, k):
    # wrong only when self-loops of colors 0 and 1 meet: g's bra becomes 1
    new_g, new_h, exchanged, loop = _braket_rule(g, h, k)
    if (g, h) == (0, k + 1):
        new_g = k + new_g % k
    return new_g, new_h, exchanged, loop


def _transition_of(pre, post, exchanged, k=2):
    # The checks' (g, h, g1, h1, exchanged, k) for the bra-kets of two
    # states before and after an interaction.
    (a, b), (a1, b1) = pre, post
    return (a.bra * k + a.ket, b.bra * k + b.ket,
            a1.bra * k + a1.ket, b1.bra * k + b1.ket, exchanged, k)


def _never_swaps(g, h, k):
    # keeps both kets; a self-loop, g's first, still broadcasts its color
    loop = g // k if g // k == g % k else h // k if h // k == h % k else -1
    return g, h, False, loop


class TestOneRuleSite:
    def test_a_rule_patched_in_protocol_reaches_every_reader(self, monkeypatch):
        monkeypatch.setattr("pluralitysim.protocol._braket_rule", _never_swaps)
        loops = (AgentState(0, 0, 0), AgentState(1, 1, 1))
        assert apply_interaction(*loops, 2) == (
            AgentState(0, 0, 0), AgentState(1, 1, 0), False, True)
        _, _, metrics = run(init_configuration([0, 1], 2), RoundRobin(2))
        assert (metrics.ket_exchanges, metrics.out_updates) == (0, 1)
        # two arcs of k = 3 the shipped rule swaps into a loop of weight 3
        arcs = configuration(3, (AgentState(0, 2, 0), AgentState(2, 1, 0)))
        assert is_quiescent(arcs)
        assert reachable_state_set([0, 1], 2) == {
            AgentState(0, 0, 0), AgentState(1, 1, 1), AgentState(1, 1, 0)}
        for config in small_configurations():
            assert is_quiescent(config) == quiescent_by_pairs(config), config
        monkeypatch.undo()
        assert not is_quiescent(arcs)


class TestRuntimeAssertions:
    def test_moved_bra_is_caught(self):
        transition = _transition_of((AgentState(0, 1, 0), AgentState(1, 0, 1)),
                                    (AgentState(1, 1, 0), AgentState(0, 0, 1)), True)
        assert _check_safety(*transition) == "interaction moved a bra"

    def test_changed_ket_multiset_is_caught(self):
        transition = _transition_of((AgentState(0, 1, 0), AgentState(1, 0, 1)),
                                    (AgentState(0, 1, 0), AgentState(1, 1, 1)), True)
        assert _check_safety(*transition) == "interaction changed the ket multiset"

    def test_silent_ket_swap_is_caught(self):
        transition = _transition_of((AgentState(0, 1, 0), AgentState(1, 0, 1)),
                                    (AgentState(0, 0, 0), AgentState(1, 1, 1)), False)
        assert _check_safety(*transition) == "kets moved without an exchange flag"

    def test_exchange_that_keeps_weights_is_caught(self):
        transition = _transition_of((AgentState(0, 1, 0), AgentState(1, 0, 1)),
                                    (AgentState(0, 1, 0), AgentState(1, 0, 1)), True)
        assert _check_full(*transition) == "ket exchange left all weights unchanged"

    def test_exchange_that_raises_the_potential_is_caught(self):
        transition = _transition_of((AgentState(0, 1, 0), AgentState(1, 0, 1)),
                                    (AgentState(0, 0, 0), AgentState(1, 1, 1)), True)
        assert _check_full(*transition) == (
            "ket exchange did not lower the weight vector")

    def test_legitimate_exchange_passes_both_levels(self):
        transition = _transition_of((AgentState(0, 0, 0), AgentState(1, 1, 1)),
                                    (AgentState(0, 1, 0), AgentState(1, 0, 1)), True)
        assert _check_safety(*transition) is None
        assert _check_full(*transition) is None

    def test_buggy_interaction_rule_aborts_the_run(self, monkeypatch):
        monkeypatch.setattr("pluralitysim.protocol._braket_rule", _clobber_kets)
        with pytest.raises(InvariantViolation) as info:
            run(init_configuration([0, 1, 1], 2), RoundRobin(3))
        assert info.value.step == 0
        assert info.value.pair == (0, 1)
