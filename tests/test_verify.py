"""Unit tests for instance enumeration and the verification battery."""

import tracemalloc
from collections import Counter
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_reference
from oracle_reference import (all_instances, all_states, checked_run_through_run,
                              instances_by_filter, least_sorted_rotation,
                              reachable_states_by_search)
from pluralitysim import cli, engine, protocol, verify
from pluralitysim.engine import InvariantViolation
from pluralitysim.protocol import AgentState
from pluralitysim.verify import (checked_run, enumerate_instances,
                                 random_instance, reachable_state_set,
                                 verify_battery)
from test_engine import RULE_MUTANTS


@st.composite
def instances(draw, k_max=6, n_max=10):
    k = draw(st.integers(1, k_max))
    colors = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=n_max))
    return k, colors


class TestEnumerateInstances:
    def test_counts_up_to_rotation(self):
        assert sum(1 for _ in enumerate_instances(5, 4)) == 68

    def test_counts_without_symmetry_reduction(self):
        full = list(all_instances(3, 3))
        # sum over k<=3, n<=3 of C(n+k-1, n)
        assert len(full) == 3 + (2 + 3 + 4) + (3 + 6 + 10)

    def test_yields_valid_sorted_instances(self):
        for k, colors in enumerate_instances(4, 3):
            assert 1 <= len(colors) <= 4
            assert all(0 <= c < k for c in colors)
            assert tuple(sorted(colors)) == colors

    def test_reduced_set_covers_every_orbit(self):
        # Reference: canonicalize every multiset by sorting its rotations
        # and keep each orbit's first appearance, in enumeration order.
        for n_max, k_max in ((6, 5), (8, 6), (5, 9)):
            expected = []
            for k in range(1, k_max + 1):
                for n in range(1, n_max + 1):
                    seen = set()
                    for colors in combinations_with_replacement(range(k), n):
                        canonical = least_sorted_rotation(colors, k)
                        if canonical not in seen:
                            seen.add(canonical)
                            expected.append((k, canonical))
            assert list(enumerate_instances(n_max, k_max)) == expected

    def test_count_vector_walk_matches_the_filter(self):
        # Every n <= 8 at every k <= 9, in order.
        assert list(enumerate_instances(8, 9)) == list(instances_by_filter(8, 9))

    @pytest.mark.parametrize("n_max, k_max, name", [
        (True, 2, "n_max"), (-1, 3, "n_max"), (2.0, 3, "n_max"),
        (3, -2, "k_max"), (3, False, "k_max")])
    def test_rejects_bad_bounds_naming_them(self, n_max, k_max, name):
        with pytest.raises(ValueError,
                           match=f"^{name} must be a non-negative integer"):
            list(enumerate_instances(n_max, k_max))

    def test_numpy_bounds_act_as_plain_ints(self):
        assert list(enumerate_instances(np.int64(4), np.uint8(3))) == list(
            enumerate_instances(4, 3))


class TestRandomInstance:
    def test_is_deterministic_given_the_seed(self):
        a = [random_instance(np.random.default_rng(5), 20, 6)
             for _ in range(3)]
        b = [random_instance(np.random.default_rng(5), 20, 6)
             for _ in range(3)]
        assert a == b

    def test_respects_the_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            k, colors = random_instance(rng, 9, 5)
            assert 1 <= k <= 5
            assert 1 <= len(colors) <= 9
            assert all(isinstance(c, int) and 0 <= c < k for c in colors)

    @pytest.mark.parametrize("n_max, k_max, name", [
        (0, 3, "n_max"), (-1, 3, "n_max"), (True, 3, "n_max"),
        (3, 0, "k_max"), (3, 1.5, "k_max")])
    def test_rejects_bad_bounds_naming_them(self, n_max, k_max, name):
        with pytest.raises(ValueError, match=f"^{name} must be a positive integer"):
            random_instance(np.random.default_rng(0), n_max, k_max)


class TestCheckedRun:
    def test_passes_on_a_well_behaved_instance(self):
        assert checked_run([0, 1, 1], 2) is None

    def test_flags_missing_convergence(self):
        failure = checked_run([0, 1, 1], 2, cap_cycles=0)
        assert failure is not None
        assert failure.check == "termination"
        assert failure.colors == (0, 1, 1)

    def test_flags_invariant_violations(self, monkeypatch):
        monkeypatch.setattr("pluralitysim.protocol._braket_rule", _clobber_kets)
        failure = checked_run([0, 1, 1], 2)
        assert failure is not None
        assert failure.check == "invariant"

    def test_flags_a_wrong_prediction(self, monkeypatch):
        monkeypatch.setattr("pluralitysim.verify._layer_arcs", lambda colors: [])
        failure = checked_run([0, 1, 1], 2)
        assert failure is not None
        assert failure.check == "stable-multiset"
        assert failure.detail == ("reached [(0, 1), (1, 0), (1, 1)], "
                                  "predicted []")

    def test_flags_wrong_outputs(self, monkeypatch):
        # the same arcs, regrouped so that the deepest layer names 0 the
        # unique winner
        monkeypatch.setattr("pluralitysim.verify._layer_arcs",
                            lambda colors: [[(1, 0), (1, 1)], [(0, 1)]])
        failure = checked_run([0, 1, 1], 2)
        assert failure is not None
        assert failure.check == "output"
        assert failure.detail == "winner 0 but outputs {1: 3}"

    def test_output_detail_counts_outputs_in_first_seen_order(self, monkeypatch):
        # [1, 0] settles into (1, 0), (0, 1) with outs 1 and 0; a deepest
        # layer of (1, 0) alone names 1 the winner
        for module in (verify, oracle_reference):
            monkeypatch.setattr(module, "_layer_arcs",
                                lambda colors: [[(0, 1)], [(1, 0)]])
        expected = verify.InstanceFailure(2, (1, 0), "output",
                                          "winner 1 but outputs {1: 1, 0: 1}")
        assert checked_run_through_run([1, 0], 2) == expected
        assert checked_run([1, 0], 2) == expected

    def test_flags_two_swapped_kets_with_the_exact_detail(self, monkeypatch):
        # The run settles into (0, 1), (1, 2), (2, 0), (2, 2); swapping the
        # kets of agents 0 and 1 keeps the balance but not the multiset.
        real_drive = verify._drive

        def swapped(codes, k, *args):
            counts = real_drive(codes, k, *args)
            a, b = codes[:2]
            ket_a, ket_b = a // k % k, b // k % k
            codes[:2] = a + (ket_b - ket_a) * k, b + (ket_a - ket_b) * k
            return counts

        monkeypatch.setattr("pluralitysim.verify._drive", swapped)
        assert checked_run([0, 1, 2, 2], 3) == verify.InstanceFailure(
            3, (0, 1, 2, 2), "stable-multiset",
            "reached [(0, 2), (1, 1), (2, 0), (2, 2)], "
            "predicted [(0, 1), (1, 2), (2, 0), (2, 2)]")

    def test_failures_hold_plain_ints(self):
        failure = checked_run(np.array([0, 1, 1, 2]), 3, cap_cycles=0)
        assert failure.check == "termination"
        assert failure.colors == (0, 1, 1, 2)
        assert all(type(c) is int for c in failure.colors)
        report = verify_battery([(np.int64(3), (np.int64(0), np.uint8(1)))],
                                cap_cycles=0)
        (failure,) = report.failures
        assert (failure.k, failure.colors) == (3, (0, 1))
        assert type(failure.k) is int
        assert all(type(c) is int for c in failure.colors)


def outcome(check, colors, k, cap_cycles=None):
    # what the check returns, or the type and message of what it raises
    try:
        return check(colors, k, cap_cycles)
    except Exception as error:
        return type(error), str(error)


class TestCheckedRunAgainstRun:
    # checked_run steps the codes through the engine's run loop itself;
    # checked_run_through_run reads the same checks from run()'s result.
    @pytest.mark.parametrize("cap_cycles", [None, 0, 1])
    def test_every_instance_up_to_eight_agents_and_six_colors(self, cap_cycles):
        failures = 0
        for k, colors in enumerate_instances(8, 6):
            expected = checked_run_through_run(colors, k, cap_cycles)
            assert checked_run(colors, k, cap_cycles) == expected, (k, colors)
            failures += expected is not None
        # cap 0 passes only the 48 one-color instances (one per k and n), and
        # cap 1 fails the 680 of the pinned verify-cap-1 call's FAIL lines
        assert failures == {None: 0, 0: 982 - 48, 1: 680}[cap_cycles]

    @pytest.mark.parametrize("mutant", RULE_MUTANTS,
                             ids=[mutant.__name__[1:] for mutant in RULE_MUTANTS])
    def test_every_small_instance_under_a_rule_mutant(self, monkeypatch, mutant):
        monkeypatch.setattr("pluralitysim.protocol._braket_rule", mutant)
        checks = set()
        for k, colors in enumerate_instances(5, 4):
            expected = outcome(checked_run_through_run, colors, k)
            assert outcome(checked_run, colors, k) == expected, (k, colors)
            checks.add(getattr(expected, "check", expected))
        assert checks - {None}

    @pytest.mark.parametrize("colors, k", [
        ([], 3), ((), 1), ([0, True], 2), ([0, 2], 2), ([1, 0], 1), ([0], 0),
        ([0], -1), ([0], 1.0), (["0"], 2)])
    def test_bad_inputs_raise_the_same_error(self, colors, k):
        expected = outcome(checked_run_through_run, colors, k)
        assert isinstance(expected, tuple) and expected[0] is ValueError
        assert outcome(checked_run, colors, k) == expected

    @pytest.mark.parametrize("cap_cycles", [None, 0])
    def test_numpy_inputs_act_as_plain_ints(self, cap_cycles):
        for colors, k in ((np.array([0, 1, 1, 2]), np.int64(3)),
                          ((np.uint8(1), np.int32(0)), np.int16(2))):
            expected = checked_run_through_run(colors, k, cap_cycles)
            failure = checked_run(colors, k, cap_cycles)
            assert failure == expected
            assert (failure is None) == (cap_cycles is None)
            assert failure is None or all(
                type(value) is int for value in (failure.k, *failure.colors))


class TestVerifyBattery:
    def test_exhaustive_small_battery_is_clean(self):
        report = verify_battery(enumerate_instances(4, 3))
        assert report.ok
        assert report.instances == 24
        assert (report.unique_majority_instances + report.tie_instances
                == report.instances)
        assert "all checks passed" in report.summary()

    def test_reports_failures_with_the_instance(self):
        report = verify_battery([(2, (0, 1, 1))], cap_cycles=0)
        assert not report.ok
        assert report.failures[0].check == "termination"
        assert "1 FAILED" in report.summary()

    def test_one_majority_count_per_instance(self, monkeypatch):
        calls = []
        real = verify.brute_majority

        def counted(colors):
            calls.append(colors)
            return real(colors)

        monkeypatch.setattr(verify, "brute_majority", counted)
        report = verify_battery(enumerate_instances(8, 6))
        assert report.ok
        assert report.instances == len(calls) == 982

    def test_each_input_color_is_validated_exactly_once(self, monkeypatch):
        calls = []
        real = protocol.check_color

        def counted(value, k):
            calls.append(value)
            return real(value, k)

        for module in (protocol, engine, verify):
            if hasattr(module, "check_color"):
                monkeypatch.setattr(module, "check_color", counted)
        instances = list(enumerate_instances(5, 3))
        assert verify_battery(instances).ok
        assert len(calls) == sum(len(colors) for _, colors in instances) == 125

    def test_needs_no_run_result(self, monkeypatch, capsys):
        # the battery steps codes through the run loop itself: neither it
        # nor the verify command builds a population or run()'s results
        class Raises:
            def __init__(self, name):
                self.name = name

            def __call__(self, *args, **kwargs):
                raise AssertionError(f"{self.name} was called")

        for module, name in ((verify, "run"), (engine, "RunMetrics"),
                             (engine, "RunTrace"), (engine, "RunResult"),
                             (engine, "Configuration")):
            monkeypatch.setattr(module, name, Raises(name))
        report = verify_battery(enumerate_instances(6, 4))
        assert report.ok and report.instances == 105
        assert cli.main(["verify", "--n-max", "6", "--k-max", "4"]) == 0
        assert capsys.readouterr().out.endswith("all checks passed\n")

    def test_memory_does_not_grow_with_the_instance_count(self):
        # The battery tallies one instance at a time, so ten times the
        # instances must not raise its peak.
        def peak_over(count):
            start, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            report = verify_battery((1, (0,)) for _ in range(count))
            _, peak = tracemalloc.get_traced_memory()
            assert report.ok and report.instances == count
            return peak - start

        tracemalloc.start()
        try:
            peak_over(100)      # fills the k = 1 tables
            few, many = peak_over(2_000), peak_over(20_000)
        finally:
            tracemalloc.stop()
        assert many - few < 100 * 1024


class TestReachableStateSet:
    def test_single_agent_reaches_nothing_new(self):
        assert reachable_state_set([2], 3) == {AgentState(2, 2, 2)}

    def test_two_opposed_agents(self):
        # one swap is the only move; outs never change (no self-loop forms)
        assert reachable_state_set([0, 1], 2) == {
            AgentState(0, 0, 0), AgentState(1, 1, 1),
            AgentState(0, 1, 0), AgentState(1, 0, 1)}

    @given(instances(k_max=3, n_max=4))
    @settings(max_examples=30, deadline=None)
    def test_stays_inside_the_cubed_enumeration(self, case):
        k, colors = case
        assert reachable_state_set(colors, k) <= set(all_states(k))

    @pytest.mark.parametrize("n_max, k_max", [(5, 4), (6, 3)])
    def test_equals_the_search_over_decoded_states(self, n_max, k_max):
        for k in range(1, k_max + 1):
            for n in range(1, n_max + 1):
                for colors in combinations_with_replacement(range(k), n):
                    assert reachable_state_set(colors, k) == (
                        reachable_states_by_search(colors, k)), (colors, k)

    def test_a_rule_failing_a_check_raises(self, monkeypatch):
        monkeypatch.setattr("pluralitysim.protocol._braket_rule", _clobber_kets)
        with pytest.raises(InvariantViolation,
                           match="interaction changed the ket multiset") as info:
            reachable_state_set([0, 1, 1], 2)
        assert (info.value.step, info.value.pair) == (0, (0, 1))


def _clobber_kets(g, h, k):
    # overwrites both kets with the bra of g
    bra = g // k
    return bra * k + bra, h // k * k + bra, True, -1
