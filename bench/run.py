"""Benchmark of the pluralitysim CLI on three workloads.

Usage, from the root of the repository:
    python3 bench/run.py --workload run-trace --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload sweep-random --seed 1 --seconds 1 --trace 1 --smoke

Each repetition runs `pluralitysim.cli.main` once in its own process,
one process at a time, until --seconds have passed (at least three
repetitions). Repetition r runs on inputs drawn from (--seed, r).
Every output is checked against the package's oracle and the checks, not
the exit code, decide `correct` and `failed`.

With --trace 0 the last line of stdout is the end-to-end result:
    wall_s              median process wall time of one repetition
    setup_s             median time from spawning the process to the CLI call
    interactions_per_s  simulated interactions per second of the CLI call
    instances_per_s     simulated populations per second of the CLI call
    peak_rss_mb         median peak resident memory of one repetition
With --trace 1, untraced and traced repetitions alternate and the result
holds the per-layer metrics of the traced ones (bench/tracer.py) and the
tracing overhead. fail_rate is failed / attempted; attempted counts the
populations simulated. The line before the result is a record of the
environment, the seed, every repetition and the sha256 of the outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_LIMIT_S = 150    # a run ends well within the 180 s a caller allows it

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "interactions_per_s": "1/s",
                    "instances_per_s": "1/s", "peak_rss_mb": "MB"}


def median(values):
    return statistics.median(values) if values else None


def environment(seed: int) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "seed": seed}


def digest(paths) -> dict:
    out = {}
    for path in paths:
        sha = hashlib.sha256()
        try:
            with open(path, "rb") as handle:
                for block in iter(lambda: handle.read(1 << 20), b""):
                    sha.update(block)
        except OSError:
            out[os.path.basename(path)] = None
            continue
        out[os.path.basename(path)] = sha.hexdigest()
    return out


def repetition(workload, seed, smoke, traced, workdir, timeout) -> dict:
    """Run one repetition on the inputs of input seed `seed` in a fresh
    process, killed after `timeout` seconds; returns its measurements."""
    os.makedirs(workdir)
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    argv = [sys.executable, os.path.join(HERE, "child.py"), workload, str(seed),
            str(int(smoke)), str(int(traced)), workdir]
    start = time.monotonic()
    try:
        subprocess.run(argv + [repr(start)], env=env, stdout=sys.stderr,
                       timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        pass
    wall_s = time.monotonic() - start
    try:
        with open(os.path.join(workdir, "result.json"), encoding="utf-8") as handle:
            rep = json.load(handle)
    except (OSError, ValueError):
        rep = {"exit_code": None}
    rep.update(traced=traced, wall_s=wall_s,
               digest=digest(workloads.output_files(workload, workdir)))
    return rep


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> tuple[dict, dict]:
    """Repeat the workload for `seconds`; returns (result, record)."""
    min_reps = 2 if trace else 3
    per_rep = workloads.instances_per_rep(workload, smoke)
    reps = []
    problems = set()
    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=os.path.join(ROOT, ".bench_tmp"))
    try:
        began = time.monotonic()
        while True:
            workdir = os.path.join(tmp, f"rep{len(reps)}")
            # Traced and untraced repetitions alternate on the same inputs.
            inputs = workloads.input_seed(seed, len(reps) // 2 if trace else len(reps))
            rep = repetition(workload, inputs, smoke, trace and len(reps) % 2 == 1, workdir,
                             timeout=max(1.0, RUN_LIMIT_S - (time.monotonic() - began)))
            outcome = workloads.check(workload, inputs, smoke, workdir)
            problems.update(outcome.problems)
            failed = outcome.failed
            if rep["exit_code"] != 0:
                # A failing exit the outputs do not explain fails the whole repetition.
                problems.add(f"exit code {rep['exit_code']}")
                failed = failed or per_rep
            rep.update(failed=failed, interactions=outcome.interactions)
            reps.append(rep)
            shutil.rmtree(workdir)
            elapsed = time.monotonic() - began
            typical = median([r["wall_s"] for r in reps])
            if (len(reps) >= min_reps and elapsed + typical > seconds
                    or elapsed + typical > RUN_LIMIT_S):
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = per_rep * len(reps)
    failed = sum(r["failed"] for r in reps)
    timed = [r for r in reps if "cli_s" in r]
    plain = [r for r in timed if not r["traced"]]
    traced = [r for r in timed if r["traced"]]
    if trace:
        metrics = layer_metrics(traced, plain)
    else:
        if workload == "verify-exhaustive":
            size = workloads.sizes(workload, smoke)
            interactions = workloads.verify_interactions(size["n_max"], size["k_max"])
            for rep in reps:
                rep["interactions"] = interactions
        metrics = {
            "wall_s": median([r["wall_s"] for r in plain]),
            "setup_s": median([r["setup_s"] for r in plain]),
            "interactions_per_s": median([r["interactions"] / r["cli_s"] for r in plain
                                          if r["interactions"]]),
            "instances_per_s": median([per_rep / r["cli_s"] for r in plain]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
        }
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in metrics.items()}
    correct = failed == 0 and not problems and len(timed) == len(reps)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {
        "workload": workload, "why": workload_why(workload), "smoke": smoke,
        "trace": trace, "env": environment(seed), "fail_rate": failed / attempted,
        "problems": sorted(problems)[:20],
        "reps": [{key: rep.get(key) for key in ("traced", "exit_code", "failed",
                                                "wall_s", "setup_s", "cli_s",
                                                "peak_rss_mb", "interactions", "digest")}
                 for rep in reps],
    }
    return result, record


def layer_unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_ms", "ms"), ("_fraction", "ratio"),
                         ("bytes_out", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


def layer_metrics(traced: list, plain: list) -> dict:
    """Median of each per-layer metric over the traced repetitions."""
    names = list(traced[0]["layers"]) if traced else []
    metrics = {}
    for name in names:
        values = [rep["layers"][name] for rep in traced]
        metrics[name] = {"value": None if None in values else statistics.median_low(values),
                         "unit": layer_unit(name)}
    traced_s = median([r["cli_s"] for r in traced])
    untraced_s = median([r["cli_s"] for r in plain])
    overhead = None if None in (traced_s, untraced_s) else traced_s - untraced_s
    metrics["tracing.traced_s"] = {"value": traced_s, "unit": "s"}
    metrics["tracing.untraced_s"] = {"value": untraced_s, "unit": "s"}
    metrics["tracing.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def workload_why(workload: str):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            spec = json.load(handle)
    except (OSError, ValueError):
        return None
    return next((w["why"] for w in spec.get("workloads", []) if w.get("name") == workload),
                None)


def summary(workload: str, result: dict, record: dict) -> str:
    lines = [f"{workload}: correct={result['correct']} attempted={result['attempted']} "
             f"failed={result['failed']} fail_rate={record['fail_rate']:.4g} "
             f"reps={len(record['reps'])}"]
    for name, metric in result["metrics"].items():
        value = metric["value"]
        shown = "null" if value is None else f"{value:.6g}"
        lines.append(f"  {name:28s} {shown:>14s} {metric['unit']}")
    lines.extend(f"  problem: {p}" for p in record["problems"])
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "pluralitysim", "cli.py")):
        print(f"error: no pluralitysim sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        result, record = measure(name, args.seed, args.seconds, bool(args.trace), args.smoke)
        print(summary(name, result, record), file=sys.stderr)
        print(json.dumps({"record": record}))
        print(json.dumps(result) if args.workload != "all"
              else json.dumps({"workload": name, **result}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
