"""Unit tests for the closed-form outcome predictions."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_reference import (all_instances, braket_balanced,
                              exhaustive_quiescent_outcomes, greedy_drain,
                              is_exchange_stable, potential_less,
                              stable_multiset_by_layers)
from pluralitysim.oracle import (_layer_arcs, brute_majority,
                                 circle_braket_set, greedy_partition,
                                 predicted_stable_multiset)


@st.composite
def color_multisets(draw, k_max=8, n_max=20):
    k = draw(st.integers(1, k_max))
    colors = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=n_max))
    return k, colors


class TestGreedyPartition:
    def test_layers_by_multiplicity_threshold(self):
        assert greedy_partition([0, 0, 1, 2]) == (frozenset({0, 1, 2}),
                                                  frozenset({0}))

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            greedy_partition([])

    @given(color_multisets())
    def test_matches_literal_draining(self, case):
        _, colors = case
        assert list(greedy_partition(colors)) == greedy_drain(colors)

    @given(color_multisets())
    def test_layers_nest_and_restore_the_input(self, case):
        _, colors = case
        partition = greedy_partition(colors)
        for upper, lower in zip(partition, partition[1:]):
            assert lower <= upper
        restored = Counter()
        for layer in partition:
            restored += Counter(layer)
        assert restored == Counter(colors)
        assert len(partition) == max(Counter(colors).values())


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

    def test_equals_the_per_layer_sum_on_every_small_multiset(self):
        instances = 0
        for k, colors in all_instances(8, 5):
            assert predicted_stable_multiset(colors) == (
                stable_multiset_by_layers(colors)), (k, colors)
            instances += 1
        assert instances == 1996

    @given(color_multisets(), st.data())
    def test_equals_the_per_layer_sum_on_unsorted_mixed_integer_lists(
            self, case, data):
        _, colors = case
        types = st.sampled_from([int, np.int64, np.int32, np.uint8])
        colors = [data.draw(types)(c) for c in colors]
        assert predicted_stable_multiset(colors) == (
            stable_multiset_by_layers(colors))

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


class TestLayerArcs:
    def test_layers_of_an_example(self):
        assert _layer_arcs([2, 0, 2, 1, 2, 0]) == [
            [(0, 1), (1, 2), (2, 0)], [(0, 2), (2, 0)], [(2, 2)]]

    def test_encoded_arcs_winner_and_prediction_on_every_small_instance(self):
        # The comparison checked_run makes: sorted codes bra*k + ket of the
        # arcs against those of the prediction, and the deepest layer's
        # least bra and size against counting.
        instances = 0
        for k, colors in all_instances(8, 6):
            layers = _layer_arcs(colors)
            encoded = sorted(g * k + h for layer in layers for g, h in layer)
            reference = stable_multiset_by_layers(colors)
            assert encoded == sorted(g * k + h for g, h in reference.elements())
            # decoding keeps the order, so a failure's detail keeps its text
            assert [divmod(code, k) for code in encoded] == sorted(
                predicted_stable_multiset(colors).elements()), (k, colors)
            deepest = layers[-1]
            assert (min(deepest)[0], len(deepest) == 1) == brute_majority(colors)
            instances += 1
        assert instances == 4998    # sum of C(n+k-1, n) over n <= 8, k <= 6


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
        # The deepest layer holds exactly the colors of top multiplicity.
        deepest = greedy_partition(colors)[-1]
        assert (min(deepest), len(deepest) == 1) == brute_majority(colors)


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

