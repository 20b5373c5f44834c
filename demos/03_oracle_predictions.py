"""Predicting the outcome of a run without running it.

The input multiset alone determines where any fair run must settle:
slice the inputs into duplicate-free layers, link each layer into a
cycle on the color circle, and take the multiset union. This script
computes that prediction, then runs the population and compares.
"""

from pluralitysim import (RoundRobin, brute_majority, circle_braket_set,
                          greedy_partition, init_configuration,
                          predicted_stable_multiset, run)

colors = [0, 0, 0, 2, 2, 5, 6]
k = 8
print(f"inputs: {colors} on the {k}-color circle")

partition = greedy_partition(colors)
print("\nlayers (colors appearing at least p times):")
for p, layer in enumerate(partition, start=1):
    arcs = sorted(circle_braket_set(layer).elements())
    print(f"  layer {p}: {sorted(layer)} -> cycle {arcs}")

predicted = predicted_stable_multiset(colors)
print("\npredicted stable bra-ket multiset (union of the layer cycles):")
print(f"  {sorted(predicted.elements())}")

winner, unique = brute_majority(colors)
print(f"\nplurality winner: {winner} (unique: {unique})")

final, _, metrics = run(init_configuration(colors, k), RoundRobin(len(colors)))
reached = final.braket_counts()
print(f"\nround-robin run settled after {metrics.quiescence_step} interactions")
print(f"  reached multiset: {sorted(reached.elements())}")
print(f"  matches prediction: {reached == predicted}")
print(f"  outputs: {dict(metrics.final_outputs)}")

print("\nties still settle, they just cannot elect anyone:")
tie = [0, 0, 1, 1]
final, _, _ = run(init_configuration(tie, 2), RoundRobin(4))
print(f"  inputs {tie}: stable multiset "
      f"{sorted(final.braket_counts().elements())}, "
      f"prediction {sorted(predicted_stable_multiset(tie).elements())}")
