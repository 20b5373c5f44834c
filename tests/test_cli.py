"""Command line behavior: grammars, formats, determinism, exit codes."""

import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from pluralitysim import cli, verify
from pluralitysim.cli import (EXIT_NO_CONVERGENCE, EXIT_OK, EXIT_USAGE,
                              EXIT_VIOLATION, METRICS_FIELDS, SWEEP_FIELDS,
                              TRACE_FIELDS, main, parse_color_list)
from pluralitysim.engine import init_configuration, run
from pluralitysim.protocol import _braket_rule
from pluralitysim.schedulers import RoundRobin


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def metrics_of(out):
    lines = out.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


class TestParseColorList:
    def test_plain_and_histogram_tokens_mix(self):
        assert parse_color_list("0,1,1") == [0, 1, 1]
        assert parse_color_list("0:3, 1:2") == [0, 0, 0, 1, 1]
        assert parse_color_list("2 0:2 2") == [2, 0, 0, 2]

    def test_rejects_garbage(self):
        for text in ("", "a", "1:b", "-1", "1:-2"):
            with pytest.raises(Exception):
                parse_color_list(text)

    def test_an_empty_count_is_a_usage_error_naming_the_token(self, capsys):
        code, out, err = run_cli(capsys, "run", "--colors", "0:,1:2")
        assert (code, out, err) == (
            EXIT_USAGE, "", "error: cannot parse color token '0:'\n")

    def test_a_count_above_the_agent_limit_is_a_usage_error(self, capsys):
        # The count is refused before a list of that length is built.
        code, out, err = run_cli(capsys, "run", "--colors",
                                 "1,0:99999999999999999999")
        assert (code, out, err) == (
            EXIT_USAGE, "", "error: color token '0:99999999999999999999' takes "
            "the population above 3000000000 agents\n")


class TestRunCommand:
    def test_majority_run_metrics_document(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--colors", "0,1,1")
        assert code == EXIT_OK
        doc = metrics_of(out)
        assert set(doc) == set(METRICS_FIELDS)
        assert doc == {
            "n": 3, "k": 2, "scheduler": "roundrobin", "seed": 0,
            "total_interactions": 3, "ket_exchanges": 1, "out_updates": 1,
            "quiescence_step": 3, "converged": True, "tie": False,
            "winner": 1, "final_outputs_histogram": {"1": 3},
        }

    def test_histogram_tokens_give_the_same_run(self, capsys):
        _, inline, _ = run_cli(capsys, "run", "--colors", "0,1,1")
        _, hist, _ = run_cli(capsys, "run", "--colors", "0:1,1:2")
        assert inline == hist

    def test_colors_from_a_file(self, capsys, tmp_path):
        path = tmp_path / "colors.txt"
        path.write_text("# two ones, one zero\n0\n1:2\n")
        code, out, _ = run_cli(capsys, "run", "--colors", str(path))
        assert code == EXIT_OK
        assert metrics_of(out)["n"] == 3

    def test_k_is_inferred_from_the_largest_color(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--colors", "0,2")
        assert code == EXIT_OK
        assert metrics_of(out)["k"] == 3

    def test_explicit_k_bounds_the_colors(self, capsys):
        code, _, err = run_cli(capsys, "run", "--colors", "0,2", "--k", "2")
        assert code == EXIT_USAGE
        assert "outside" in err

    def test_tie_converges_with_a_null_winner(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--colors", "0,1")
        assert code == EXIT_OK
        doc = metrics_of(out)
        assert doc["tie"] is True
        assert doc["winner"] is None
        assert doc["converged"] is True
        assert doc["final_outputs_histogram"] == {"0": 1, "1": 1}

    def test_n_must_match_explicit_colors(self, capsys):
        code, _, err = run_cli(capsys, "run", "--colors", "0,1", "--n", "3")
        assert code == EXIT_USAGE
        assert "--n" in err

    def test_exactly_one_input_source(self, capsys):
        code, _, _ = run_cli(capsys, "run")
        assert code == EXIT_USAGE
        code, _, _ = run_cli(capsys, "run", "--colors", "0,1",
                             "--random-colors", "uniform")
        assert code == EXIT_USAGE

    def test_uniform_random_colors(self, capsys):
        args = ("run", "--random-colors", "uniform", "--n", "20", "--k", "4",
                "--seed", "9")
        code, first, _ = run_cli(capsys, *args)
        assert code in (EXIT_OK, EXIT_NO_CONVERGENCE)
        code2, second, _ = run_cli(capsys, *args)
        assert first == second
        doc = metrics_of(first)
        assert doc["n"] == 20 and doc["k"] == 4 and doc["seed"] == 9

    def test_weights_imply_k(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--random-colors",
                               "weights=1,0,3", "--n", "12")
        assert code == EXIT_OK
        assert metrics_of(out)["k"] == 3

    def test_planted_margin_forces_a_unique_winner(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--random-colors", "planted=2",
                               "--n", "9", "--k", "3", "--seed", "4")
        assert code == EXIT_OK
        doc = metrics_of(out)
        assert doc["tie"] is False
        hist = doc["final_outputs_histogram"]
        assert hist == {str(doc["winner"]): 9}

    def test_random_colors_usage_errors(self, capsys):
        cases = [
            ("--random-colors", "uniform"),                      # no --n
            ("--random-colors", "uniform", "--n", "5"),          # no --k
            ("--random-colors", "planted=6", "--n", "5", "--k", "2"),
            ("--random-colors", "planted=0", "--n", "5", "--k", "2"),
            ("--random-colors", "mixture=1", "--n", "5", "--k", "2"),
            ("--random-colors", "weights=1,x", "--n", "5"),
            ("--random-colors", "weights=1,2", "--n", "5", "--k", "3"),
        ]
        for case in cases:
            code, _, err = run_cli(capsys, "run", *case)
            assert code == EXIT_USAGE, case
            assert err

    @pytest.mark.parametrize("weights", ["nan,1", "inf,1", "1,-inf",
                                         "1e308,1e308"],
                             ids=["nan", "inf", "negative-inf", "overflowing-sum"])
    def test_non_finite_weights_are_usage_errors_naming_them(self, capsys,
                                                             weights):
        code, out, err = run_cli(capsys, "run", "--random-colors",
                                 f"weights={weights}", "--n", "5")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == (f"error: weights {weights!r} must be finite with a "
                       "finite sum\n")

    def test_k_must_be_positive(self, capsys):
        for inputs in (("--random-colors", "uniform", "--n", "5"),
                       ("--colors", "0")):
            code, _, err = run_cli(capsys, "run", *inputs, "--k", "0")
            assert code == EXIT_USAGE, inputs
            assert "--k" in err

    def test_starved_run_exits_nonzero(self, capsys):
        code, out, err = run_cli(capsys, "run", "--colors", "0,1,1",
                                 "--scheduler", "adversary", "--cap", "10")
        assert code == EXIT_NO_CONVERGENCE
        doc = metrics_of(out)
        assert doc["converged"] is False
        assert doc["quiescence_step"] is None
        assert "no quiescence" in err

    def test_released_adversary_converges(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--colors", "0,1,1",
                               "--scheduler", "adversary",
                               "--adversary-release", "6")
        assert code == EXIT_OK
        assert metrics_of(out)["converged"] is True

    @pytest.mark.parametrize("scheduler", ["roundrobin", "random"])
    @pytest.mark.parametrize("flag, value", [("--adversary-exclude", "1,2"),
                                             ("--adversary-release", "5")])
    def test_adversary_flags_need_the_adversary(self, capsys, scheduler, flag,
                                                value):
        code, out, err = run_cli(capsys, "run", "--colors", "0,1,1",
                                 "--scheduler", scheduler, flag, value)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: {flag} needs --scheduler adversary\n"

    @pytest.mark.parametrize("arg, message", [
        ("--adversary-exclude=1:2",
         "cannot parse --adversary-exclude value '1:2'"),
        ("--adversary-exclude=-1,2",
         "--adversary-exclude must be non-negative, got -1"),
        ("--adversary-exclude=a,b",
         "cannot parse --adversary-exclude value 'a'"),
        ("--adversary-exclude=", "--adversary-exclude is empty"),
        ("--adversary-exclude=0,5",
         "--adversary-exclude needs two distinct agents below n=3, got 0,5"),
        ("--adversary-exclude=1,1",
         "--adversary-exclude needs two distinct agents below n=3, got 1,1"),
    ], ids=["count-token", "negative", "not-a-number", "empty", "out-of-range",
            "same-agent"])
    def test_adversary_exclude_errors_name_the_flag(self, capsys, arg,
                                                    message):
        code, out, err = run_cli(capsys, "run", "--colors", "0,1,1",
                                 "--scheduler", "adversary", arg)
        assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")

    def test_adversary_needs_two_agents(self, capsys):
        code, out, err = run_cli(capsys, "run", "--colors", "0",
                                 "--scheduler", "adversary")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == ("error: --scheduler adversary needs at least two "
                       "agents, got n=1\n")
        code, _, err = run_cli(capsys, "run", "--colors", "0", "--scheduler",
                               "adversary", "--adversary-exclude", "0,1")
        assert (code, err) == (EXIT_USAGE, "error: --adversary-exclude needs "
                               "two distinct agents below n=1, got 0,1\n")

    @pytest.mark.parametrize("extra", [
        (), ("--adversary-release", "3"), ("--fixed-steps", "0"),
        ("--adversary-exclude", "1,0"),
    ], ids=["never-released", "released-later", "zero-budget", "exclude"])
    @pytest.mark.parametrize("colors", ["0,1", "0,0"])
    def test_adversary_with_two_agents_needs_release_zero(self, capsys, colors,
                                                          extra):
        code, out, err = run_cli(capsys, "run", "--colors", colors,
                                 "--scheduler", "adversary", *extra)
        assert (code, out, err) == (
            EXIT_USAGE, "", "error: --scheduler adversary with n=2 starves "
            "the only pair; it needs --adversary-release 0\n")

    def test_adversary_with_two_agents_runs_when_released_at_once(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--colors", "0,1",
                               "--scheduler", "adversary",
                               "--adversary-release", "0")
        assert code == EXIT_OK
        assert metrics_of(out)["converged"] is True

    def test_fixed_steps_policy(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--colors", "0,1,1",
                               "--fixed-steps", "9")
        assert code == EXIT_OK
        assert metrics_of(out)["total_interactions"] == 9
        code, out, _ = run_cli(capsys, "run", "--colors", "0,1,1",
                               "--fixed-steps", "1")
        assert code == EXIT_NO_CONVERGENCE

    def test_cap_and_fixed_steps_are_a_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "run", "--colors", "0,1,1,2",
                                 "--fixed-steps", "10", "--cap", "5")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: --cap and --fixed-steps exclude each other\n"

    def test_trace_file_holds_the_changing_steps(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        code, _, _ = run_cli(capsys, "run", "--colors", "0,1,1",
                             "--trace", str(trace_path))
        assert code == EXIT_OK
        events = [json.loads(line)
                  for line in trace_path.read_text().splitlines()]
        assert len(events) == 2
        assert all(set(e) == set(TRACE_FIELDS) for e in events)
        assert events[0] == {
            "step": 0, "pair": [0, 1],
            "pre": [[0, 0, 0], [1, 1, 1]], "post": [[0, 1, 0], [1, 0, 1]],
            "exchanged": True, "out_changed": False,
        }

    @pytest.mark.parametrize("fmt", ["json-lines", "csv"])
    def test_trace_bytes_match_the_serialized_events(self, capsys, tmp_path,
                                                     fmt):
        # Two-digit agents and colors, ket exchanges and broadcasts.
        colors = [0, 11, 3, 11, 7, 10, 2, 11, 5, 9, 11, 1, 4, 6]
        trace_path = tmp_path / "trace.txt"
        code, _, _ = run_cli(capsys, "run", "--colors", ",".join(map(str, colors)),
                             "--k", "12", "--trace", str(trace_path),
                             "--format", fmt)
        assert code == EXIT_OK
        _, trace, metrics = run(init_configuration(colors, 12),
                                RoundRobin(len(colors)))
        assert metrics.ket_exchanges and metrics.out_updates
        rows = [{"step": e.step, "pair": list(e.pair),
                 "pre": [list(s) for s in e.pre],
                 "post": [list(s) for s in e.post],
                 "exchanged": e.exchanged, "out_changed": e.out_changed}
                for e in trace.events]
        assert any(max(row["pair"]) >= 10 for row in rows)
        assert any(max(row["pre"][0]) >= 10 for row in rows)
        if fmt == "json-lines":
            expected = "".join(json.dumps(row, sort_keys=True,
                                          separators=(",", ":")) + "\n"
                               for row in rows)
        else:
            def cell(value):
                if isinstance(value, bool):
                    return "true" if value else "false"
                if isinstance(value, list):
                    return json.dumps(value, separators=(",", ":"))
                return value

            buffer = io.StringIO()
            writer = csv.writer(buffer, lineterminator="\n")
            writer.writerow(TRACE_FIELDS)
            for row in rows:
                writer.writerow([cell(row[f]) for f in TRACE_FIELDS])
            expected = buffer.getvalue()
        assert trace_path.read_bytes() == expected.encode("utf-8")

    def test_out_file_replaces_stdout(self, capsys, tmp_path):
        out_path = tmp_path / "metrics.json"
        code, out, _ = run_cli(capsys, "run", "--colors", "0,1,1",
                               "--out", str(out_path))
        assert code == EXIT_OK
        assert out == ""
        assert json.loads(out_path.read_text())["winner"] == 1

    def test_csv_metrics_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--colors", "0,1",
                               "--format", "csv")
        assert code == EXIT_OK
        header, row = list(csv.reader(io.StringIO(out)))
        assert header == list(METRICS_FIELDS)
        doc = dict(zip(header, row))
        assert doc["converged"] == "true"
        assert doc["winner"] == ""
        assert json.loads(doc["final_outputs_histogram"]) == {"0": 1, "1": 1}

    def test_assert_levels_are_accepted(self, capsys):
        for level in ("off", "safety", "full"):
            code, _, _ = run_cli(capsys, "run", "--colors", "0,1,1",
                                 "--assert", level)
            assert code == EXIT_OK


class TestVerifyCommand:
    def test_exhaustive_battery_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n-max", "3",
                               "--k-max", "3")
        assert code == EXIT_OK
        assert "all checks passed" in out

    def test_randomized_battery_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n-max", "10",
                               "--k-max", "4", "--instances", "25",
                               "--seed", "3")
        assert code == EXIT_OK
        assert "25 instances" in out

    def test_zero_cap_surfaces_termination_failures(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n-max", "2",
                               "--k-max", "2", "--cap", "0")
        assert code == EXIT_VIOLATION
        assert "FAIL check=termination" in out

    def test_instance_count_must_be_positive(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--n-max", "3", "--k-max", "3",
                             "--instances", "0")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("flag", ["--n-max", "--k-max"])
    @pytest.mark.parametrize("sampled", [(), ("--instances", "4")])
    def test_sizes_must_be_positive(self, capsys, flag, sampled):
        sizes = {"--n-max": "3", "--k-max": "3", flag: "0"}
        code, out, err = run_cli(capsys, "verify", *sum(sizes.items(), ()),
                                 *sampled)
        assert code == EXIT_USAGE
        assert flag in err
        assert out == ""

    @pytest.mark.parametrize("count", [1, 3])
    def test_prints_the_report_verify_battery_builds(self, capsys, monkeypatch,
                                                     count):
        # The library and the command build their report in one function.
        calls, battery = [], verify.verify_battery

        def counted_battery(*args):
            calls.append(args)
            return battery(*args)

        monkeypatch.setattr(cli, "verify_battery", counted_battery)
        report = battery(verify.enumerate_instances(6, 4), cap_cycles=1)
        assert len(report.failures) > 1
        expected = report.summary() + "\n" + "".join(
            f"FAIL check={f.check} k={f.k} colors={list(f.colors)}: {f.detail}\n"
            for f in report.failures)
        forbid_fork(monkeypatch, count)
        assert run_cli(capsys, "verify", "--n-max", "6", "--k-max", "4",
                       "--cap", "1") == (EXIT_VIOLATION, expected, "")
        assert [cap for _, cap in calls] == [1]


class TestOutputPaths:
    @pytest.mark.parametrize("args", [
        ("run", "--colors", "0,1,1"),
        ("verify", "--n-max", "2", "--k-max", "2"),
        ("sweep", "--n-list", "4", "--k-list", "2", "--trials", "1"),
    ], ids=["run", "verify", "sweep"])
    def test_an_empty_out_path_is_a_usage_error_before_any_work(
            self, capsys, monkeypatch, args):
        monkeypatch.setattr(cli, "run", None)   # calling either would raise
        monkeypatch.setattr(cli, "verify_battery", None)
        assert run_cli(capsys, *args, "--out", "") == (
            EXIT_USAGE, "", "error: --out must be a path or -, got ''\n")

    @pytest.mark.parametrize("spelling", ["relative", "hard-link"])
    def test_out_and_trace_naming_one_file_is_a_usage_error_before_the_run(
            self, capsys, monkeypatch, tmp_path, spelling):
        monkeypatch.setattr(cli, "run", None)   # calling it would raise
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "run.jsonl"
        if spelling == "relative":
            other = "run.jsonl"
        else:
            path.write_text("an earlier file\n")
            os.link(path, tmp_path / "alias.jsonl")
            other = "alias.jsonl"
        code, out, err = run_cli(capsys, "run", "--colors", "0,1,1",
                                 "--out", str(path), "--trace", other)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == (f"error: --out {str(path)!r} and --trace {other!r} "
                       f"name the same file\n")
        if spelling == "relative":
            assert not path.exists()
        else:
            assert path.read_text() == "an earlier file\n"


class TestSweepCommand:
    def test_deterministic_csv_grid(self, capsys):
        args = ("sweep", "--n-list", "3,5", "--k-list", "2", "--trials", "3",
                "--seed", "1")
        code, first, _ = run_cli(capsys, *args)
        assert code == EXIT_OK
        code2, second, _ = run_cli(capsys, *args)
        assert first == second
        header, *rows = list(csv.reader(io.StringIO(first)))
        assert header == list(SWEEP_FIELDS)
        assert [row[0] for row in rows] == ["3", "5"]
        for row in rows:
            doc = dict(zip(header, row))
            assert doc["converged"] == "3"
            assert float(doc["mean_interactions"]) <= float(
                doc["max_interactions"])

    def test_json_lines_variant(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--n-list", "4", "--k-list",
                               "2,3", "--trials", "2", "--format",
                               "json-lines")
        assert code == EXIT_OK
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 2
        assert all(set(row) == set(SWEEP_FIELDS) for row in rows)

    def test_trials_must_be_positive(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--n-list", "3", "--k-list",
                             "2", "--trials", "0")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("flag, value, message", [
        ("--n-list", "10:2", "cannot parse --n-list value '10:2'"),
        ("--n-list", "-5", "--n-list must be positive, got -5"),
        ("--n-list", "3,0", "--n-list must be positive, got 0"),
        ("--k-list", "2:3", "cannot parse --k-list value '2:3'"),
        ("--k-list", "-1", "--k-list must be positive, got -1"),
        ("--k-list", ",", "--k-list is empty"),
    ], ids=["n-count-token", "n-negative", "n-zero", "k-count-token",
            "k-negative", "k-empty"])
    def test_size_lists_are_positive_integers(self, capsys, flag, value,
                                              message):
        sizes = {"--n-list": "3", "--k-list": "2", flag: value}
        code, out, err = run_cli(capsys, "sweep", "--n-list", sizes["--n-list"],
                                 "--k-list", sizes["--k-list"], "--trials", "1")
        assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")


class TestBudgetFlags:
    @pytest.mark.parametrize("args, flag", [
        (("run", "--colors", "0,1,1", "--cap", "-1"), "--cap"),
        (("sweep", "--n-list", "3", "--k-list", "2", "--cap", "-1"), "--cap"),
        (("verify", "--n-max", "3", "--k-max", "2", "--cap", "-1"), "--cap"),
        (("run", "--colors", "0,1,1", "--fixed-steps", "-2"), "--fixed-steps"),
        (("run", "--colors", "0,1,1", "--scheduler", "adversary",
          "--adversary-release", "-1"), "--adversary-release"),
        (("run", "--colors", "0,1,1", "--seed", "-1"), "--seed"),
        (("run", "--random-colors", "uniform", "--n", "5", "--k", "3",
          "--seed", "-1"), "--seed"),
        (("sweep", "--n-list", "3", "--k-list", "2", "--seed", "-3"), "--seed"),
        (("verify", "--n-max", "3", "--k-max", "2", "--seed", "-2"), "--seed"),
    ], ids=["run-cap", "sweep-cap", "verify-cap", "run-fixed-steps",
            "run-adversary-release", "run-seed", "run-random-colors-seed",
            "sweep-seed", "verify-seed"])
    def test_negative_budgets_are_usage_errors_naming_the_flag(
            self, capsys, args, flag):
        code, out, err = run_cli(capsys, *args)
        assert code == EXIT_USAGE
        assert err == f"error: {flag} must be non-negative, got {args[-1]}\n"
        assert out == ""


class TestPopulationFlags:
    @pytest.mark.parametrize("args, flag", [
        (("run", "--random-colors", "uniform", "--n", "3000000001", "--k",
          "2"), "--n"),
        (("sweep", "--n-list", "6,3000000001", "--k-list", "2", "--trials",
          "1"), "--n-list"),
        (("verify", "--n-max", "3000000001", "--k-max", "2", "--instances",
          "1"), "--n-max"),
        (("verify", "--n-max", "3000000001", "--k-max", "2"), "--n-max"),
    ], ids=["run-n", "sweep-n-list", "verify-sampled", "verify-exhaustive"])
    def test_a_size_above_the_agent_limit_is_a_usage_error_before_any_draw(
            self, capsys, monkeypatch, args, flag):
        # numpy would allocate the colors before any later check saw n
        monkeypatch.setattr(cli, "np", None)   # any draw would raise
        monkeypatch.setattr(cli, "verify_battery", None)
        code, out, err = run_cli(capsys, *args)
        assert (code, out, err) == (
            EXIT_USAGE, "",
            f"error: {flag} must be at most 3000000000, got 3000000001\n")


def _bump_ket(g, h, k):
    # a rule that changes the ket multiset at every step: g's ket moves on
    return g // k * k + (g % k + 1) % k, h, True, -1


class TestInvariantViolations:
    @pytest.mark.parametrize("args", [
        ("run", "--colors", "0,1,1"),
        ("sweep", "--n-list", "3", "--k-list", "2", "--trials", "1"),
    ])
    def test_exit_4_with_the_violation_on_stderr(self, capsys, monkeypatch,
                                                 args):
        monkeypatch.setattr("pluralitysim.engine._braket_rule", _bump_ket)
        code, out, err = run_cli(capsys, *args)
        assert code == EXIT_VIOLATION
        assert err.startswith("invariant violation: interaction changed "
                              "the ket multiset (step 0")
        assert out == ""


class TestRunTrace:
    """run --trace spools the trace batch by batch and copies it after the
    metrics; every case also runs under -X dev -W error, so a spool left
    open would fail it."""

    def test_an_empty_trace_path_is_a_usage_error_before_the_run(
            self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run", None)   # calling it would raise
        code, out, err = run_cli(capsys, "run", "--colors", "0,1,1",
                                 "--trace", "")
        assert code == EXIT_USAGE
        assert err == "error: --trace must be a path or -, got ''\n"
        assert out == ""

    def test_a_run_that_raises_mid_trace_touches_no_file(
            self, capsys, monkeypatch, tmp_path):
        fills = []

        def late_bump_ket(g, h, k):
            # the shipped rule for the first ten table fills, then a rule
            # that changes the ket multiset
            fills.append((g, h))
            if len(fills) <= 10:
                return _braket_rule(g, h, k)
            return _bump_ket(g, h, k)

        batches = []
        trace_sink = cli._trace_sink

        def counted_sink(*args):
            sink = trace_sink(*args)
            return lambda records: (batches.append(len(records)), sink(records))

        monkeypatch.setattr("pluralitysim.engine._braket_rule", late_bump_ket)
        monkeypatch.setattr("pluralitysim.engine.BATCH", 4)
        monkeypatch.setattr(cli, "_trace_sink", counted_sink)
        trace_path, metrics_path = tmp_path / "trace.jsonl", tmp_path / "m.jsonl"
        trace_path.write_bytes(b"an earlier trace\n")
        code, out, err = run_cli(capsys, "run", "--colors", "0:5,1:4,2:3,3:2",
                                 "--trace", str(trace_path),
                                 "--out", str(metrics_path))
        assert code == EXIT_VIOLATION
        assert err.startswith("invariant violation: interaction changed "
                              "the ket multiset (step ")
        assert len(batches) > 2     # records were spooled before the violation
        assert out == ""
        assert trace_path.read_bytes() == b"an earlier trace\n"
        assert not metrics_path.exists()

    def test_a_trace_path_that_cannot_be_opened_fails_after_the_metrics(
            self, capsys, tmp_path):
        trace_path = tmp_path / "missing" / "trace.jsonl"
        metrics_path = tmp_path / "m.jsonl"
        code, out, err = run_cli(capsys, "run", "--colors", "0,1,1",
                                 "--trace", str(trace_path),
                                 "--out", str(metrics_path))
        assert code == EXIT_USAGE
        assert err == (f"error: [Errno 2] No such file or directory: "
                       f"'{trace_path}'\n")
        assert out == ""
        assert json.loads(metrics_path.read_text())["winner"] == 1

    @pytest.mark.parametrize("fmt", ["json-lines", "csv"])
    def test_trace_to_stdout_follows_the_metrics(self, capsys, tmp_path, fmt):
        args = ("run", "--colors", "0,1,1,2,2,2", "--format", fmt)
        code, metrics, _ = run_cli(capsys, *args)
        assert code == EXIT_OK
        trace_path = tmp_path / "trace"
        code, _, _ = run_cli(capsys, *args, "--trace", str(trace_path))
        assert code == EXIT_OK
        code, out, _ = run_cli(capsys, *args, "--trace", "-")
        assert code == EXIT_OK
        assert out == metrics + trace_path.read_text()
        assert run_cli(capsys, *args, "--out", "-", "--trace", "-") == (
            EXIT_OK, out, "")
        assert len(out.splitlines()) > len(metrics.splitlines()) + 1

    @pytest.mark.parametrize("fmt, expected", [
        ("json-lines", ""), ("csv", ",".join(TRACE_FIELDS) + "\n")])
    def test_a_run_without_changes_writes_an_empty_trace(self, capsys,
                                                         tmp_path, fmt,
                                                         expected):
        trace_path = tmp_path / "trace"
        code, _, _ = run_cli(capsys, "run", "--colors", "2:5", "--format", fmt,
                             "--trace", str(trace_path))
        assert code == EXIT_OK
        assert trace_path.read_text() == expected

    def test_memory_stays_below_the_size_of_the_trace(self, capsys, tmp_path):
        # 300 agents, k = 16: about 28,000 records in 3.3 MiB of trace
        colors = np.random.default_rng(1).integers(0, 16, size=300).tolist()
        trace_path = tmp_path / "trace.jsonl"
        tracemalloc.start()
        try:
            code, _, _ = run_cli(capsys, "run", "--colors",
                                 ",".join(map(str, colors)), "--k", "16",
                                 "--trace", str(trace_path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert peak < trace_path.stat().st_size


def forbid_fork(monkeypatch, count):
    """Give this process `count` CPUs and make any fork fail the test."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(count)), raising=False)

    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", fork, raising=False)


class TestInProcess:
    """verify and sweep run every instance and trial in the calling
    process, however many CPUs it may use."""

    @pytest.mark.parametrize("args, code", [
        (("verify", "--n-max", "6", "--k-max", "4", "--cap", "1"),
         EXIT_VIOLATION),
        (("verify", "--n-max", "9", "--k-max", "5", "--instances", "40",
          "--seed", "2", "--cap", "1"), EXIT_VIOLATION),
        (("sweep", "--n-list", "5,9", "--k-list", "2,3", "--trials", "4",
          "--seed", "1", "--scheduler", "random"), EXIT_OK),
        (("sweep", "--n-list", "4,7", "--k-list", "3,2", "--trials", "5",
          "--seed", "2", "--format", "json-lines"), EXIT_OK),
    ], ids=["verify-exhaustive", "verify-sampled", "sweep-random-csv",
            "sweep-roundrobin-json-lines"])
    def test_outputs_come_from_the_calling_process(self, capsys, monkeypatch,
                                                   tmp_path, args, code):
        forbid_fork(monkeypatch, 4)
        path = tmp_path / "out"
        code_printed, out, err = run_cli(capsys, *args)
        assert (code_printed, err) == (code, "")
        assert run_cli(capsys, *args, "--out", str(path)) == (code, "", "")
        assert path.read_text() == out
        if args[0] == "verify":
            assert out.count("\nFAIL ") > 1

    def test_a_raising_trial_stops_the_command_at_that_trial(
            self, capsys, monkeypatch):
        def lose_the_flag(g, h, k):
            # at k = 3, an exchange between bras 0 and 2 claims it was none
            new_g, new_h, exchanged, loop = _braket_rule(g, h, k)
            if k == 3 and exchanged and {g // k, h // k} == {0, 2}:
                return new_g, new_h, False, loop
            return new_g, new_h, exchanged, loop

        monkeypatch.setattr("pluralitysim.engine._braket_rule", lose_the_flag)
        forbid_fork(monkeypatch, 4)
        # Of the 12 trials, 5 and 10 raise: the command stops at trial 5.
        args = ("sweep", "--n-list", "4,6", "--k-list", "2,3", "--trials", "3",
                "--seed", "7", "--scheduler", "random")
        code, out, err = run_cli(capsys, *args)
        assert (code, out) == (EXIT_VIOLATION, "")
        assert err == ("invariant violation: kets moved without an exchange "
                       "flag (step 1, pair (2, 3), AgentState(bra=0, ket=0, "
                       "out=0) x AgentState(bra=2, ket=1, out=2) -> "
                       "AgentState(bra=0, ket=1, out=0) x AgentState(bra=2, "
                       "ket=0, out=2))\n")


class TestProcessLevel:
    def test_console_entry_point_and_argparse_exit_code(self):
        ok = subprocess.run(
            [sys.executable, "-m", "pluralitysim", "run", "--colors", "0,1,1"],
            capture_output=True, text=True)
        assert ok.returncode == 0
        assert json.loads(ok.stdout)["winner"] == 1
        bad = subprocess.run(
            [sys.executable, "-m", "pluralitysim", "run", "--nonsense"],
            capture_output=True, text=True)
        assert bad.returncode == 2
