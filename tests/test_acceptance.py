"""Acceptance gate: six end-to-end criteria, one printed verdict each.

Every criterion prints a single line of the form

    ACCEPTANCE <i> PASS|FAIL [<elapsed>/<budget>] <what was checked>

through the capture-disabled channel so the verdicts always appear in the
test output. All comparisons are exact; there are no tolerances anywhere.
"""

import time
from itertools import combinations

import numpy as np

from cli_calls import CALLS, digest, pinned
from oracle_reference import (all_instances, all_states, braket_balanced,
                              greedy_drain)
from pluralitysim.engine import UntilQuiescent, init_configuration, run
from pluralitysim.oracle import brute_majority, greedy_partition
from pluralitysim.schedulers import StarvationAdversary
from pluralitysim.verify import (enumerate_instances, random_instance,
                                 reachable_state_set, verify_battery)

RNG_SEED = 20260818


def _verdict(capsys, number, label, budget, check):
    start = time.perf_counter()
    try:
        detail = check()
        failed = None
    except Exception as error:
        detail = f"{type(error).__name__}: {error}"
        failed = detail
    elapsed = time.perf_counter() - start
    over_budget = budget is not None and elapsed >= budget
    ok = failed is None and not over_budget
    shown_budget = f"{budget:.0f}s" if budget is not None else "no budget"
    with capsys.disabled():
        print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'} "
              f"[{elapsed:.1f}s/{shown_budget}] {label}: {detail}")
    assert failed is None, f"criterion {number}: {failed}"
    assert not over_budget, (
        f"criterion {number} took {elapsed:.1f}s, budget {shown_budget}")


def test_criterion_1_exhaustive_small_instances(capsys):
    def check():
        report = verify_battery(enumerate_instances(5, 4))
        assert report.ok, report.failures[:3]
        assert report.instances == 68
        return (f"{report.instances} instance classes, "
                f"{report.unique_majority_instances} unique-majority, "
                f"{report.tie_instances} tie, zero tolerance")

    _verdict(capsys, 1,
             "all n<=5, k<=4 inputs up to rotation: balance at every step, "
             "potential drop at every exchange, predicted multiset, "
             "winner outputs", 120, check)


def test_criterion_2_randomized_instances(capsys):
    def check():
        rng = np.random.default_rng(RNG_SEED)
        instances = (random_instance(rng, 50, 8) for _ in range(1000))
        report = verify_battery(instances, cap_cycles=2000)
        assert report.ok, report.failures[:3]
        assert report.instances == 1000
        assert report.unique_majority_instances > 0
        assert report.tie_instances > 0
        return (f"1000 seeded instances, "
                f"{report.unique_majority_instances} unique-majority, "
                f"{report.tie_instances} tie, zero tolerance")

    _verdict(capsys, 2,
             "1000 random instances with n<=50, k<=8 pass every check",
             300, check)


def test_criterion_3_state_space_containment(capsys):
    def check():
        instances = 0
        for k, colors in all_instances(4, 4):
            enumeration = set(all_states(k))
            assert len(enumeration) == k**3
            reached = reachable_state_set(colors, k)
            assert reached <= enumeration, (k, colors)
            instances += 1
        assert instances == 121
        return f"{instances} initial configurations explored exhaustively"

    _verdict(capsys, 3,
             "no reachable agent state falls outside the k**3 enumeration "
             "for any n<=4, k<=4 input", 60, check)


def test_criterion_4_safety_under_unfairness(capsys):
    def check():
        rng = np.random.default_rng(RNG_SEED + 4)
        for _ in range(100):
            n = int(rng.integers(3, 21))
            k = int(rng.integers(2, 7))
            colors = [int(c) for c in rng.integers(0, k, size=n)]
            excluded = list(combinations(range(n), 2))[
                int(rng.integers(n * (n - 1) // 2))]
            scheduler = StarvationAdversary(n, excluded, release_step=2**62)
            final, _, _ = run(init_configuration(colors, k), scheduler,
                              UntilQuiescent(max_cycles=5),
                              assertions="safety", trace="off")
            assert braket_balanced(final.braket_counts()), (k, colors)
        return "100 starved runs, balance asserted at every step"

    _verdict(capsys, 4,
             "bra-ket balance holds under a starvation adversary, "
             "convergence not required", 60, check)


def test_criterion_5_closed_forms_vs_references(capsys):
    def check():
        instances = 0
        for k, colors in all_instances(8, 5):
            partition = greedy_partition(colors)
            assert list(partition) == greedy_drain(colors)
            deepest = partition[-1]
            assert (min(deepest), len(deepest) == 1) == brute_majority(colors)
            instances += 1
        assert instances == 1996
        return f"{instances} multisets, both closed forms agree exactly"

    _verdict(capsys, 5,
             "layer partition matches literal draining and the "
             "singleton-layer winner criterion matches counting "
             "for all n<=8, k<=5", 60, check)


def test_criterion_6_byte_identical_determinism(capsys):
    def check():
        pins = pinned()
        changed = [name for name, argv in CALLS
                   if digest(argv) != pins.get(name)]
        assert not changed, f"outputs differ from the pinned digests: {changed}"
        return (f"{len(CALLS)} CLI calls, exit codes and output bytes equal "
                f"to those pinned by another process")

    _verdict(capsys, 6,
             "run, sweep and verify invocations with identical seeds "
             "produce byte-identical outputs", None, check)
