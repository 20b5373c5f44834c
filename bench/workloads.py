"""The three benchmark workloads: their inputs, CLI arguments and checks.

Repetition r of a run gets the inputs of input_seed(seed, r), so the same
benchmark seed gives the same inputs, and the median over repetitions
averages over many inputs as well as over timing noise. Checks never trust
the CLI's exit code: they re-derive the outcome from the output files and
the package's closed-form oracle.

Repetitions are kept to about a second, so that a run's median rests on
twenty or so of them: single repetitions vary by 10-15 % on a shared
two-core host. See BENCHMARK.json for why each workload exists.
- run-trace reaches quiescence after two round-robin rounds for about 90 %
  of inputs at n = 300 and after three or more for the rest; the median
  over repetitions is robust to those;
- sweep-random pools 60 random-scheduler trials per repetition, since
  one trial's convergence time varies by about 50 %;
- verify-exhaustive does not depend on the seed at all.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
from collections import Counter
from typing import NamedTuple

FULL = {
    "run-trace": {"n": 300, "k": 16},
    "sweep-random": {"n": 30, "k_list": (4, 8), "trials": 30},
    "verify-exhaustive": {"n_max": 8, "k_max": 6},
}
# A few seconds in total; exercises every code path of the full sizes.
SMOKE = {
    "run-trace": {"n": 40, "k": 4},
    "sweep-random": {"n": 12, "k_list": (3, 4), "trials": 2},
    "verify-exhaustive": {"n_max": 5, "k_max": 3},
}
# Rotation-distinct instances of the exhaustive battery, by (n_max, k_max).
VERIFY_INSTANCES = {(8, 6): 982, (5, 3): 35}

NAMES = tuple(FULL)


def sizes(workload: str, smoke: bool) -> dict:
    return (SMOKE if smoke else FULL)[workload]


def input_seed(seed: int, rep: int) -> int:
    """Seed of the inputs of one repetition, drawn from the benchmark seed."""
    import numpy as np

    return int(np.random.SeedSequence([seed % 2**64, rep]).generate_state(1)[0])


def run_trace_colors(seed: int, n: int, k: int) -> list[int]:
    """Uniform colors with a unique plurality, so every output is checkable.

    Draws with a tie are redrawn from the next sub-seed.
    """
    import numpy as np

    attempt = 0
    while True:
        rng = np.random.default_rng([seed, attempt])
        colors = rng.integers(0, k, size=n).tolist()
        top = Counter(colors).most_common(2)
        if len(top) == 1 or top[0][1] > top[1][1]:
            return colors
        attempt += 1


def output_files(workload: str, workdir: str) -> list[str]:
    """The deterministic files one repetition writes, in digest order."""
    if workload == "run-trace":
        return [os.path.join(workdir, "metrics.jsonl"),
                os.path.join(workdir, "trace.jsonl")]
    return [os.path.join(workdir, "out.txt")]


def prepare(workload: str, seed: int, smoke: bool, workdir: str) -> list[str]:
    """Generate the inputs of input_seed `seed` into workdir; returns the CLI
    arguments."""
    size = sizes(workload, smoke)
    if workload == "run-trace":
        colors_path = os.path.join(workdir, "colors.txt")
        with open(colors_path, "w", encoding="utf-8") as handle:
            handle.write(" ".join(map(str, run_trace_colors(seed, size["n"], size["k"]))))
        metrics_path, trace_path = output_files(workload, workdir)
        return ["run", "--colors", colors_path, "--k", str(size["k"]),
                "--scheduler", "roundrobin", "--assert", "safety",
                "--trace", trace_path, "--out", metrics_path]
    (out_path,) = output_files(workload, workdir)
    if workload == "sweep-random":
        return ["sweep", "--n-list", str(size["n"]),
                "--k-list", ",".join(map(str, size["k_list"])),
                "--trials", str(size["trials"]), "--scheduler", "random",
                "--seed", str(seed), "--out", out_path]
    if workload == "verify-exhaustive":
        return ["verify", "--n-max", str(size["n_max"]),
                "--k-max", str(size["k_max"]), "--out", out_path]
    raise ValueError(f"unknown workload {workload!r}")


def instances_per_rep(workload: str, smoke: bool) -> int:
    """Simulated populations one repetition attempts."""
    size = sizes(workload, smoke)
    if workload == "run-trace":
        return 1
    if workload == "sweep-random":
        return len(size["k_list"]) * size["trials"]
    return VERIFY_INSTANCES[(size["n_max"], size["k_max"])]


class Outcome(NamedTuple):
    """What the checks found in one repetition's outputs."""

    failed: int                 # simulated populations that failed a check
    interactions: int | None    # simulated interactions, when the outputs say
    problems: list[str]


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def check_run_trace(colors: list[int], k: int, metrics_text: str,
                    trace_text: str) -> Outcome:
    """Replay the change trace from the initial self-loops.

    The replayed final bra-ket multiset must equal the oracle's prediction,
    every output must be the plurality winner, and the metrics document
    must agree with the replay and report quiescence after the last change.
    """
    from pluralitysim.oracle import brute_majority, predicted_stable_multiset

    problems = []
    doc = json.loads(metrics_text)
    states = [[c, c, c] for c in colors]
    exchanges = out_updates = 0
    last_step = -1
    for number, line in enumerate(trace_text.splitlines()):
        event = json.loads(line)
        i, j = event["pair"]
        if event["pre"] != [states[i], states[j]]:
            problems.append(f"trace line {number}: pre states do not match the replay")
            break
        if event["step"] <= last_step or not (event["exchanged"] or event["out_changed"]):
            problems.append(f"trace line {number}: step out of order or unchanged")
            break
        last_step = event["step"]
        states[i], states[j] = event["post"]
        exchanges += event["exchanged"]
        out_updates += event["out_changed"]
    winner, unique = brute_majority(colors)
    reached = Counter((bra, ket) for bra, ket, _ in states)
    if reached != predicted_stable_multiset(colors):
        problems.append("replayed bra-ket multiset differs from the prediction")
    outputs = Counter(out for _, _, out in states)
    if not unique:
        problems.append("inputs have no unique plurality")
    elif set(outputs) != {winner}:
        problems.append(f"outputs {dict(outputs)} are not all the winner {winner}")
    expected = {
        "n": len(colors), "k": k, "converged": True, "tie": not unique,
        "winner": winner if unique else None, "ket_exchanges": exchanges,
        "out_updates": out_updates,
        "final_outputs_histogram": {str(c): m for c, m in outputs.items()},
    }
    for key, value in expected.items():
        if doc.get(key) != value:
            problems.append(f"metrics {key}={doc.get(key)!r}, replay gives {value!r}")
    if last_step >= (doc.get("quiescence_step") or 0):
        problems.append(f"trace runs past quiescence_step {doc.get('quiescence_step')}")
    return Outcome(1 if problems else 0, doc.get("total_interactions"), problems)


def check_sweep(text: str, n: int, k_list, trials: int, seed: int) -> Outcome:
    """Every (n, k) row must be present and report converged == trials."""
    rows = list(csv.DictReader(io.StringIO(text)))
    problems = []
    failed = 0
    interactions = 0
    if [(int(r["n"]), int(r["k"])) for r in rows] != [(n, k) for k in k_list]:
        return Outcome(len(k_list) * trials, None,
                       [f"sweep rows {[(r['n'], r['k']) for r in rows]} are not n={n}, k={list(k_list)}"])
    for row in rows:
        if int(row["trials"]) != trials or int(row["seed"]) != seed:
            problems.append(f"row k={row['k']} reports trials={row['trials']} seed={row['seed']}")
            failed += trials
            continue
        missing = trials - int(row["converged"])
        if missing:
            problems.append(f"row k={row['k']}: {missing} of {trials} trials did not converge")
            failed += missing
        interactions += round(float(row["mean_interactions"]) * trials)
    return Outcome(failed, interactions, problems)


_SUMMARY = re.compile(r"(\d+) instances \((\d+) unique-majority, (\d+) tie\): "
                      r"(all checks passed|(\d+) FAILED)")


def check_verify(text: str, expected_instances: int) -> Outcome:
    """The summary must report every expected instance, all passed."""
    match = _SUMMARY.fullmatch(text.partition("\n")[0])
    if match is None:
        return Outcome(expected_instances, None, ["verify summary is unreadable"])
    instances, unique, tie, _, failed = match.groups()
    failed = int(failed or 0)
    problems = [f"{failed} instances FAILED"] if failed else []
    if int(instances) != expected_instances or int(unique) + int(tie) != int(instances):
        problems.append(f"summary counts {instances} instances, expected {expected_instances}")
        failed = expected_instances
    return Outcome(failed, None, problems)


def verify_interactions(n_max: int, k_max: int) -> int:
    """Interactions the verify battery simulates, recounted through the
    public API (the verify command reports none)."""
    from pluralitysim import RoundRobin, enumerate_instances, init_configuration, run

    total = 0
    for k, colors in enumerate_instances(n_max, k_max):
        config = init_configuration(colors, k)
        total += run(config, RoundRobin(config.n), assertions="off",
                     trace="off").metrics.total_interactions
    return total


def check(workload: str, seed: int, smoke: bool, workdir: str) -> Outcome:
    """Check the output files of the repetition with input_seed `seed`."""
    size = sizes(workload, smoke)
    paths = output_files(workload, workdir)
    try:
        texts = [_read(path) for path in paths]
    except OSError as error:
        return Outcome(instances_per_rep(workload, smoke), None, [f"missing output: {error}"])
    try:
        if workload == "run-trace":
            colors = run_trace_colors(seed, size["n"], size["k"])
            return check_run_trace(colors, size["k"], *texts)
        if workload == "sweep-random":
            return check_sweep(texts[0], size["n"], size["k_list"], size["trials"], seed)
        return check_verify(texts[0], instances_per_rep(workload, smoke))
    except (ValueError, KeyError, TypeError, IndexError) as error:
        return Outcome(instances_per_rep(workload, smoke), None,
                       [f"unreadable output: {error!r}"])
