"""Unit tests for the closed-form outcome predictions."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_reference import (exhaustive_quiescent_outcomes, greedy_drain,
                              is_exchange_stable, mod_range, potential_less)
from pluralitysim.oracle import (braket_balanced, brute_majority,
                                 circle_braket_set, greedy_partition,
                                 majority_by_partition,
                                 predicted_stable_multiset)


@st.composite
def color_multisets(draw, k_max=8, n_max=20):
    k = draw(st.integers(1, k_max))
    colors = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=n_max))
    return k, colors


class TestGreedyPartition:
    def test_layers_by_multiplicity_threshold(self):
        partition = greedy_partition([0, 0, 1, 2])
        assert partition.sets == (frozenset({0, 1, 2}), frozenset({0}))
        assert partition.depth == 2

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            greedy_partition([])

    @given(color_multisets())
    def test_matches_literal_draining(self, case):
        _, colors = case
        assert list(greedy_partition(colors).sets) == greedy_drain(colors)

    @given(color_multisets())
    def test_layers_nest_and_restore_the_input(self, case):
        _, colors = case
        partition = greedy_partition(colors)
        for upper, lower in zip(partition.sets, partition.sets[1:]):
            assert lower <= upper
        restored = Counter()
        for layer in partition.sets:
            restored += Counter(layer)
        assert restored == Counter(colors)
        assert partition.depth == max(Counter(colors).values())


class TestCircleBraketSet:
    def test_singleton_becomes_a_self_loop(self):
        assert circle_braket_set([2]) == Counter({(2, 2): 1})

    def test_two_colors_become_opposite_arcs(self):
        assert circle_braket_set({1, 3}) == Counter({(1, 3): 1, (3, 1): 1})

    def test_links_sorted_colors_with_wraparound(self):
        assert circle_braket_set([3, 0, 2]) == Counter(
            {(0, 2): 1, (2, 3): 1, (3, 0): 1})

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            circle_braket_set([])

    @given(st.sets(st.integers(0, 9), min_size=1, max_size=10))
    def test_each_color_has_one_bra_and_one_ket(self, colors):
        arcs = circle_braket_set(colors)
        assert sum(arcs.values()) == len(colors)
        assert Counter(b for b, _ in arcs.elements()) == Counter(colors)
        assert Counter(t for _, t in arcs.elements()) == Counter(colors)


class TestPredictedStableMultiset:
    def test_majority_example(self):
        assert predicted_stable_multiset([0, 0, 1]) == Counter(
            {(0, 0): 1, (0, 1): 1, (1, 0): 1})

    def test_tie_example(self):
        assert predicted_stable_multiset([0, 1]) == Counter(
            {(0, 1): 1, (1, 0): 1})

    @given(color_multisets())
    def test_size_balance_and_marginals(self, case):
        _, colors = case
        predicted = predicted_stable_multiset(colors)
        assert sum(predicted.values()) == len(colors)
        assert braket_balanced(predicted)
        assert Counter(b for b, _ in predicted.elements()) == Counter(colors)

    @given(color_multisets())
    def test_prediction_is_exchange_stable(self, case):
        k, colors = case
        predicted = predicted_stable_multiset(colors)
        assert is_exchange_stable(predicted.elements(), k)

    @given(color_multisets(k_max=3, n_max=4))
    @settings(max_examples=40, deadline=None)
    def test_only_quiescent_outcome_under_any_schedule(self, case):
        # Exhaustive search over every schedule: all quiescent reachable
        # configurations carry exactly the predicted bra-ket multiset.
        k, colors = case
        outcomes = exhaustive_quiescent_outcomes(colors, k)
        assert outcomes == [predicted_stable_multiset(colors)]


class TestMajority:
    def test_unique_winner(self):
        assert brute_majority([0, 1, 1]) == (1, True)

    def test_tie_reports_the_smallest_winner(self):
        assert brute_majority([0, 1]) == (0, False)
        assert brute_majority([2, 2, 0, 0, 1]) == (0, False)

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            brute_majority([])

    @given(color_multisets())
    def test_partition_criterion_agrees_with_counting(self, case):
        _, colors = case
        assert majority_by_partition(colors) == brute_majority(colors)


class TestPotentialLess:
    def test_orders_sorted_vectors_lexicographically(self):
        assert potential_less((1, 3), (2, 2))
        assert not potential_less((2, 2), (1, 3))
        assert not potential_less((1, 3), (1, 3))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            potential_less((1,), (1, 2))


class TestBraketBalanced:
    def test_balanced_and_unbalanced(self):
        assert braket_balanced(Counter({(0, 1): 1, (1, 0): 1}))
        assert not braket_balanced(Counter({(0, 1): 1}))


class TestModRange:
    def test_plain_closed_range(self):
        assert mod_range(2, 7, 10) == {2, 3, 4, 5, 6, 7}

    def test_wrapping_open_range(self):
        assert mod_range(8, 3, 10, closed=False) == {9, 0, 1, 2}

    def test_wrapping_closed_range(self):
        assert mod_range(8, 3, 10) == {8, 9, 0, 1, 2, 3}

    def test_degenerate_ranges(self):
        assert mod_range(4, 4, 10) == {4}
        assert mod_range(4, 4, 10, closed=False) == set(range(10)) - {4}
        assert mod_range(4, 5, 10, closed=False) == set()

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            mod_range(0, 1, 0)
        with pytest.raises(ValueError):
            mod_range(-1, 1, 5)

    @given(st.integers(0, 11), st.integers(0, 11), st.integers(1, 12))
    def test_closed_size_and_open_complement(self, x, y, p):
        x, y = x % p, y % p
        closed = mod_range(x, y, p)
        assert len(closed) == (y - x) % p + 1
        if x != y:
            assert mod_range(x, y, p, closed=False) == closed - {x, y}
            assert closed | mod_range(y, x, p) == set(range(p))
