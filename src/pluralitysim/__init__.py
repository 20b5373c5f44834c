"""Simulation and verification of a k**3-state plurality consensus protocol.

Agents hold (bra, ket, out) color triples and interact pairwise: kets are
exchanged when that lowers the smaller bra-ket weight, and self-loops
broadcast their color into the out fields. Under any weakly fair schedule
the population reaches a predictable stable bra-ket multiset, and when one
color holds a strict plurality every agent ends up outputting it.

The protocol module defines states and the interaction rule, engine runs
populations under schedulers, oracle predicts outcomes in closed form, and
verify checks runs against those predictions end to end.
"""

from .engine import (Configuration, FixedSteps, InvariantViolation,
                     RunMetrics, RunResult, RunTrace, StopPolicy, TraceEvent,
                     UntilQuiescent, init_configuration, is_quiescent, run)
from .oracle import (brute_majority, circle_braket_set, greedy_partition,
                     predicted_stable_multiset)
from .protocol import (AgentState, InteractionResult, apply_interaction,
                       init_agent, weight)
from .schedulers import (AgentPair, RoundRobin, Scheduler,
                         StarvationAdversary, UniformRandom, canonical_pair,
                         fairness_audit, make_scheduler, pair_count,
                         pair_index)
from .verify import (InstanceFailure, VerifyReport, checked_run,
                     enumerate_instances, random_instance,
                     reachable_state_set, verify_battery)

__version__ = "0.1.0"

__all__ = [
    "AgentPair", "AgentState", "Configuration", "FixedSteps",
    "InstanceFailure", "InteractionResult", "InvariantViolation",
    "RoundRobin", "RunMetrics", "RunResult", "RunTrace", "Scheduler",
    "StarvationAdversary", "StopPolicy", "TraceEvent", "UniformRandom",
    "UntilQuiescent", "VerifyReport", "apply_interaction",
    "brute_majority", "canonical_pair", "checked_run", "circle_braket_set",
    "enumerate_instances", "fairness_audit", "greedy_partition",
    "init_agent", "init_configuration", "is_quiescent", "make_scheduler",
    "pair_count", "pair_index",
    "predicted_stable_multiset", "random_instance", "reachable_state_set",
    "run", "verify_battery", "weight", "__version__",
]
