"""Unit tests for instance enumeration and the verification battery."""

import tracemalloc
from collections import Counter
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_reference import (all_instances, all_states, instances_by_filter,
                              least_sorted_rotation, reachable_states_by_search)
from pluralitysim import engine, protocol, verify
from pluralitysim.engine import Configuration, InvariantViolation
from pluralitysim.protocol import AgentState
from pluralitysim.verify import (checked_run, enumerate_instances,
                                 random_instance, reachable_state_set,
                                 verify_battery)


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

    def test_flags_two_swapped_kets_with_the_exact_detail(self, monkeypatch):
        # The run settles into (0, 1), (1, 2), (2, 0), (2, 2); swapping the
        # kets of agents 0 and 1 keeps the balance but not the multiset.
        real_run = verify.run

        def swapped(*args, **kwargs):
            final, trace, metrics = real_run(*args, **kwargs)
            (a, b, *rest), k = final.codes, final.k
            ket_a, ket_b = a // k % k, b // k % k
            codes = (a + (ket_b - ket_a) * k, b + (ket_a - ket_b) * k, *rest)
            return Configuration(k, codes), trace, metrics

        monkeypatch.setattr("pluralitysim.verify.run", swapped)
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
