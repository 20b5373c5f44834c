"""Tests of the benchmark itself, on the smoke sizes.

Run from the root of the repository:
    python3 -m pytest -q bench
"""

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402
from pluralitysim import cli, engine, oracle, verify  # noqa: E402


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_of_every_workload(trace):
    proc = bench("--workload", "all", "--seed", "7", "--seconds", "0",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()
               if line.startswith('{"workload"')]
    assert [r.pop("workload") for r in results] == [w["name"] for w in spec()["workloads"]]
    wanted = spec()["per_layer" if trace else "end_to_end"]
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in wanted}
        values = {name: m["value"] for name, m in result["metrics"].items()}
        assert all(isinstance(v, (int, float)) for v in values.values())
        if trace:
            assert values["tracing.self_sum_s"] <= values["tracing.traced_s"]
        else:
            assert all(v > 0 for v in values.values())


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "verify-exhaustive", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def smoke_outputs(workload, seed, workdir):
    args = workloads.prepare(workload, seed, True, str(workdir))
    assert cli.main(args) == 0
    return [open(p, encoding="utf-8").read()
            for p in workloads.output_files(workload, str(workdir))]


def test_run_trace_check_replays_the_trace(tmp_path):
    size = workloads.SMOKE["run-trace"]
    colors = workloads.run_trace_colors(3, size["n"], size["k"])
    check = lambda metrics, trace: workloads.check_run_trace(colors, size["k"], metrics, trace)
    metrics_text, trace_text = smoke_outputs("run-trace", 3, tmp_path)
    good = check(metrics_text, trace_text)
    assert good.failed == 0 and good.problems == []
    assert good.interactions == json.loads(metrics_text)["total_interactions"]

    lines = trace_text.splitlines()
    dropped = "\n".join(lines[:-1])
    assert check(metrics_text, dropped).failed == 1
    event = json.loads(lines[0])
    event["post"][0][1], event["post"][1][1] = event["post"][1][1], event["post"][0][1]
    swapped = "\n".join([json.dumps(event)] + lines[1:])
    assert check(metrics_text, swapped).failed == 1
    doc = json.loads(metrics_text)
    doc["winner"] = (doc["winner"] + 1) % size["k"]
    assert check(json.dumps(doc), trace_text).failed == 1


def test_sweep_and_verify_checks_count_failures(tmp_path):
    size = workloads.SMOKE["sweep-random"]
    (text,) = smoke_outputs("sweep-random", 3, tmp_path)
    check = lambda t: workloads.check_sweep(t, size["n"], size["k_list"], size["trials"], 3)
    assert check(text).failed == 0 and check(text).interactions > 0
    header, first, second = text.splitlines()
    fields = first.split(",")
    fields[4] = str(size["trials"] - 1)
    assert check("\n".join([header, ",".join(fields), second])).failed == 1
    assert check("\n".join([header, first])).failed == len(size["k_list"]) * size["trials"]

    (summary,) = smoke_outputs("verify-exhaustive", 3, tmp_path)
    assert workloads.check_verify(summary, 35).failed == 0
    assert workloads.check_verify(summary, 36).failed == 36
    assert workloads.check_verify("35 instances (30 unique-majority, 5 tie): 2 FAILED",
                                  35).failed == 2


def test_missing_hook_reports_its_layer_as_null():
    trimmed = types.SimpleNamespace(**{name: value for name, value in vars(engine).items()
                                       if name != "_check_full"})
    spans = tracer.Tracer()
    assert spans.install(cli, verify, trimmed, oracle) == {"engine.full"}
    try:
        metrics = spans.metrics()
    finally:
        spans.uninstall()
    assert metrics["engine.full_checks"] is None and metrics["engine.full_self_s"] is None
    assert metrics["engine.safety_checks"] == 0
    assert verify.run is engine.run and cli.make_scheduler.__module__ == "pluralitysim.schedulers"
