"""Why fairness matters: three schedulers on the same population.

Round-robin guarantees every pair a turn in every cycle, the seeded
random scheduler is fair with probability one, and the starvation
adversary withholds one pair forever. Safety (the bra-ket balance)
survives all three; convergence does not.
"""

from pluralitysim import (RoundRobin, StarvationAdversary, UniformRandom,
                          UntilQuiescent, fairness_audit, init_configuration,
                          pair_count, run)

colors = [0, 1, 1]
config = init_configuration(colors, 2)
n = config.n

print(f"population {colors}: agent 0 must hear from agent 1, the only")
print("agent that ends up a self-loop, to learn the majority color")

print("\nround-robin: quiescent, everyone outputs 1")
final, _, metrics = run(config, RoundRobin(n), assertions="full")
print(f"  {metrics.quiescence_step} interactions, "
      f"outputs {dict(metrics.final_outputs)}")

print("\nseeded random scheduler: same outcome, different path")
final, _, metrics = run(config, UniformRandom(n, seed=13), assertions="full")
print(f"  {metrics.quiescence_step} interactions, "
      f"outputs {dict(metrics.final_outputs)}")

print("\nadversary starving pair (0, 1): runs into the cap instead")
adversary = StarvationAdversary(n, excluded=(0, 1), release_step=2**62)
final, _, metrics = run(config, adversary, UntilQuiescent(max_cycles=20),
                        assertions="full")
print(f"  converged: {metrics.converged} after "
      f"{metrics.total_interactions} interactions")
print(f"  outputs stuck at {dict(metrics.final_outputs)}, yet the bra-ket")
print("  balance held at every step (full assertions were on)")

print("\nrelease the pair at step 12 and convergence returns")
adversary = StarvationAdversary(n, excluded=(0, 1), release_step=12)
final, _, metrics = run(config, adversary, assertions="full")
print(f"  converged: {metrics.converged}, "
      f"outputs {dict(metrics.final_outputs)}")

print("\nschedule audits over one round-robin cycle and a starved prefix")
cycle = pair_count(n)
print(f"  round-robin, {cycle} steps: "
      f"{fairness_audit(zip(*RoundRobin(n).pairs(0, cycle)), n)}")
starved = StarvationAdversary(n, excluded=(0, 1), release_step=2**62)
print(f"  adversary, 12 steps:  "
      f"{fairness_audit(zip(*starved.pairs(0, 12)), n)}")
