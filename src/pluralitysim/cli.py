"""Command line front end: run, verify, sweep.

Deterministic by construction: identical arguments (including seeds)
produce byte-identical outputs, so there are no timestamps or timing
fields anywhere.

Metrics document fields, exactly: n, k, scheduler, seed,
total_interactions, ket_exchanges, out_updates, quiescence_step,
converged, tie, winner, final_outputs_histogram. Trace event fields,
exactly: step, pair, pre, post, exchanged, out_changed. Sweep row
fields, exactly: n, k, trials, seed, converged, mean_interactions,
max_interactions, mean_ket_exchanges, max_ket_exchanges.

Formats: "json-lines" writes one JSON object per line (the metrics
document is a single line); "csv" writes a header row plus data rows,
with list- or mapping-valued cells JSON-encoded.

Exit codes: 0 success; 2 usage error; 3 no quiescence within the cap;
4 runtime invariant violation or failed correctness check.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import shutil
import sys
import tempfile
from contextlib import nullcontext
from itertools import product

import numpy as np

from .engine import (FixedSteps, InvariantViolation, UntilQuiescent, _state,
                     init_configuration, run)
from .oracle import brute_majority
from .schedulers import _MAX_AGENTS, make_scheduler
from .verify import enumerate_instances, random_instance, verify_battery

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_VIOLATION = 4

METRICS_FIELDS = ("n", "k", "scheduler", "seed", "total_interactions",
                  "ket_exchanges", "out_updates", "quiescence_step",
                  "converged", "tie", "winner", "final_outputs_histogram")
TRACE_FIELDS = ("step", "pair", "pre", "post", "exchanged", "out_changed")
SWEEP_FIELDS = ("n", "k", "trials", "seed", "converged", "mean_interactions",
                "max_interactions", "mean_ket_exchanges", "max_ket_exchanges")


class UsageError(Exception):
    """Bad arguments detected after argparse; maps to exit code 2."""


def _check_flag(flag: str, value: int | None, positive: bool = False):
    """Usage error naming the flag unless value is None or in range.

    Counts, caps and steps must be non-negative, sizes positive.
    """
    if value is not None and value < (1 if positive else 0):
        kind = "positive" if positive else "non-negative"
        raise UsageError(f"{flag} must be {kind}, got {value}")


def _check_agents(flag: str, value: int):
    """Usage error naming the flag if value is more agents than a
    population may hold (schedulers._MAX_AGENTS); checked before any draw."""
    if value > _MAX_AGENTS:
        raise UsageError(f"{flag} must be at most {_MAX_AGENTS}, got {value}")


def parse_color_list(text: str) -> list[int]:
    """Colors from inline text: "0,1,1" or "0:3, 1:2" (color:count)."""
    colors: list[int] = []
    for token in text.replace(",", " ").split():
        color, colon, count = token.partition(":")
        try:
            c = int(color)
            m = int(count) if colon else 1
        except ValueError:
            raise UsageError(f"cannot parse color token {token!r}") from None
        if c < 0 or m < 0:
            raise UsageError(f"negative value in color token {token!r}")
        if len(colors) + m > _MAX_AGENTS:
            raise UsageError(f"color token {token!r} takes the population "
                             f"above {_MAX_AGENTS} agents")
        colors.extend([c] * m)
    if not colors:
        raise UsageError("empty color list")
    return colors


def parse_size_list(flag: str, text: str, positive: bool = True) -> list[int]:
    """Integers from "10,20" or "10 20", checked as by _check_flag;
    errors name the flag."""
    sizes = []
    for token in text.replace(",", " ").split():
        try:
            size = int(token)
        except ValueError:
            raise UsageError(f"cannot parse {flag} value {token!r}") from None
        _check_flag(flag, size, positive)
        sizes.append(size)
    if not sizes:
        raise UsageError(f"{flag} is empty")
    return sizes


def load_colors(value: str) -> list[int]:
    """Colors from a file path if one exists, else inline text.

    Files hold the same tokens as inline lists, whitespace or newline
    separated; lines starting with # are comments.
    """
    if os.path.exists(value):
        with open(value, encoding="utf-8") as handle:
            lines = [line for line in handle
                     if line.strip() and not line.lstrip().startswith("#")]
        return parse_color_list(" ".join(lines))
    return parse_color_list(value)


def _planted_counts(n: int, k: int, margin: int,
                    rng: np.random.Generator) -> list[int]:
    # Uniform draw, then move agents onto a random winner until it leads
    # every other color by at least the margin.
    counts = np.bincount(rng.integers(0, k, size=n), minlength=k).tolist()
    winner = int(rng.integers(k))
    while True:
        runner_up = max((m for c, m in enumerate(counts) if c != winner),
                        default=0)
        if counts[winner] >= runner_up + margin:
            return counts
        donor = max((c for c in range(k) if c != winner),
                    key=lambda c: counts[c])
        counts[donor] -= 1
        counts[winner] += 1


def make_random_colors(spec_text: str, n: int, k: int | None,
                       rng: np.random.Generator) -> tuple[list[int], int]:
    """Instantiate a --random-colors spec; returns (colors, k).

    Grammar: "uniform" draws i.i.d. colors; "weights=w0,w1,..." draws from
    the normalized weights (k defaults to their count); "planted=<margin>"
    draws uniformly and then forces a random color to lead every other by
    at least <margin> agents.
    """
    kind, _, arg = spec_text.partition("=")
    if kind == "uniform":
        if arg:
            raise UsageError("uniform takes no argument")
        if k is None:
            raise UsageError("--random-colors uniform needs --k")
        return [int(c) for c in rng.integers(0, k, size=n)], k
    if kind == "weights":
        try:
            weights = [float(w) for w in arg.split(",")]
        except ValueError:
            raise UsageError(f"cannot parse weights {arg!r}") from None
        if k is None:
            k = len(weights)
        elif k != len(weights):
            raise UsageError(f"{len(weights)} weights but --k {k}")
        total = sum(weights)
        if not math.isfinite(total):   # a nan or infinite weight, or overflow
            raise UsageError(f"weights {arg!r} must be finite with a finite sum")
        if any(w < 0 for w in weights) or total <= 0:
            raise UsageError("weights must be non-negative and not all zero")
        p = np.asarray(weights) / total
        return [int(c) for c in rng.choice(k, size=n, p=p)], k
    if kind == "planted":
        try:
            margin = int(arg)
        except ValueError:
            raise UsageError(f"cannot parse planted margin {arg!r}") from None
        if k is None:
            raise UsageError("--random-colors planted needs --k")
        if not 1 <= margin <= n:
            raise UsageError(f"planted margin must be in [1, {n}], got {margin}")
        counts = _planted_counts(n, k, margin, rng)
        colors = [c for c, m in enumerate(counts) for _ in range(m)]
        return [colors[i] for i in rng.permutation(n)], k
    raise UsageError(f"unknown --random-colors spec {spec_text!r}")


def resolve_inputs(args: argparse.Namespace) -> tuple[list[int], int]:
    """Produce the input color list and k from the `run` arguments."""
    if (args.colors is None) == (args.random_colors is None):
        raise UsageError("exactly one of --colors and --random-colors is needed")
    _check_flag("--k", args.k, positive=True)
    if args.colors is not None:
        colors = load_colors(args.colors)
        if args.n is not None and args.n != len(colors):
            raise UsageError(f"--n {args.n} but {len(colors)} colors given")
        k = args.k if args.k is not None else max(colors) + 1
        return colors, k
    if args.n is None or args.n < 1:
        raise UsageError("--random-colors needs --n >= 1")
    _check_agents("--n", args.n)
    rng = np.random.default_rng([args.seed or 0, 0])
    return make_random_colors(args.random_colors, args.n, args.k, rng)


def _json_line(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (dict, list, tuple)):
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    return value


def render_rows(rows, fields, fmt: str) -> str:
    """Serialize dict rows with a fixed field order to json-lines or csv."""
    if fmt == "json-lines":
        return "".join(_json_line(row) for row in rows)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(fields)
    for row in rows:
        writer.writerow([_csv_cell(row[f]) for f in fields])
    return buffer.getvalue()


def _opened(path: str | None):
    """Stdout for None or "-", else the file at path opened for writing."""
    if path is None or path == "-":
        return nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8")


def write_text(path: str | None, text: str):
    with _opened(path) as handle:
        handle.write(text)


# Most codes (k**3) whose state texts a trace lists up front; above it they
# are encoded on first use, so memory does not grow with k**3.
_LISTED_STATES = 4096


class _StateText(dict):
    """Trace code -> JSON text of its state, encoded on first use."""

    def __init__(self, k: int):
        super().__init__()
        self.k = k

    def __missing__(self, code: int) -> str:
        text = self[code] = "[%d,%d,%d]" % _state(code, self.k)
        return text


def _trace_sink(spool, n: int, k: int, fmt: str):
    """A run sink that renders each batch of trace records into spool.

    Writes the same bytes as render_rows over the event rows: json-lines
    with sorted keys, or csv with one header and JSON-encoded list cells.
    Each line joins precomputed texts: the JSON text of each state, listed
    by code up front when there are at most _LISTED_STATES codes and
    otherwise encoded on first use; the text of each agent index; and,
    for each pair of flags, the fixed text around them.
    """
    if k**3 <= _LISTED_STATES:
        # code = (bra * k + ket) * k + out, so product runs in code order
        state = [f"[{bra},{ket},{out}]"
                 for bra, ket, out in product(range(k), repeat=3)]
    else:
        state = _StateText(k)
    index = [str(i) for i in range(n)]
    # The words of (exchanged, out_changed) at 2 * exchanged + out_changed.
    flags = list(product(("false", "true"), repeat=2))
    if fmt == "json-lines":
        head = [f'{{"exchanged":{exchanged},"out_changed":{out_changed},"pair":['
                for exchanged, out_changed in flags]
        return lambda records: spool.write("".join([
            f'{head[2 * exchanged + out_changed]}{index[i]},{index[j]}],'
            f'"post":[{state[new_a]},{state[new_b]}],'
            f'"pre":[{state[a]},{state[b]}],"step":{step}}}\n'
            for step, i, j, a, b, new_a, new_b, exchanged, out_changed
            in records]))
    # Every list cell holds a comma, so csv quotes each one.
    spool.write(",".join(TRACE_FIELDS) + "\n")
    tail = [f",{exchanged},{out_changed}\n" for exchanged, out_changed in flags]
    return lambda records: spool.write("".join([
        f'{step},"[{index[i]},{index[j]}]","[{state[a]},{state[b]}]",'
        f'"[{state[new_a]},{state[new_b]}]"{tail[2 * exchanged + out_changed]}'
        for step, i, j, a, b, new_a, new_b, exchanged, out_changed
        in records]))


def _same_file(first: str, second: str) -> bool:
    """Whether two paths name one file: the same file if both exist, else
    the same path once symlinks and .. are resolved."""
    if os.path.exists(first) and os.path.exists(second):
        return os.path.samefile(first, second)
    return os.path.realpath(first) == os.path.realpath(second)


def cmd_run(args: argparse.Namespace) -> int:
    """Execute one run and write its metrics (and trace); returns exit code."""
    _check_flag("--seed", args.seed)
    if (args.seed is not None and args.random_colors is None
            and args.scheduler != "random"):
        raise UsageError("--seed needs --random-colors or --scheduler random")
    seed = args.seed or 0
    if (args.out not in (None, "-") and args.trace not in (None, "-")
            and _same_file(args.out, args.trace)):
        raise UsageError(f"--out {args.out!r} and --trace {args.trace!r} "
                         f"name the same file")
    if args.scheduler != "adversary":
        for flag, value in (("--adversary-exclude", args.adversary_exclude),
                            ("--adversary-release", args.adversary_release)):
            if value is not None:
                raise UsageError(f"{flag} needs --scheduler adversary")
    if args.cap is not None and args.fixed_steps is not None:
        raise UsageError("--cap and --fixed-steps exclude each other")
    colors, k = resolve_inputs(args)
    n = len(colors)
    exclude = [0, 1]
    if args.adversary_exclude is not None:
        exclude = parse_size_list("--adversary-exclude", args.adversary_exclude,
                                  positive=False)
        if len(exclude) != 2:
            raise UsageError("--adversary-exclude needs exactly two indices")
        if exclude[0] == exclude[1] or max(exclude) >= n:
            raise UsageError(f"--adversary-exclude needs two distinct agents "
                             f"below n={n}, got {exclude[0]},{exclude[1]}")
    elif args.scheduler == "adversary" and n < 2:
        raise UsageError(f"--scheduler adversary needs at least two agents, "
                         f"got n={n}")
    _check_flag("--adversary-release", args.adversary_release)
    if args.scheduler == "adversary" and n == 2 and args.adversary_release != 0:
        # Two agents have one pair: the adversary has nothing to offer
        # before it releases that pair.
        raise UsageError("--scheduler adversary with n=2 starves the only "
                         "pair; it needs --adversary-release 0")
    _check_flag("--fixed-steps", args.fixed_steps)
    _check_flag("--cap", args.cap)
    scheduler = make_scheduler(
        args.scheduler, n,
        seed=[seed, 1] if args.scheduler == "random" else None,
        excluded=tuple(exclude),
        release_step=args.adversary_release)
    if args.fixed_steps is not None:
        policy = FixedSteps(args.fixed_steps)
    else:
        policy = UntilQuiescent(args.cap)
    config = init_configuration(colors, k)
    # The trace goes batch by batch into an anonymous spool file and is
    # copied to its target after the metrics: memory holds one batch, and
    # a run that raises touches no file.
    with (tempfile.TemporaryFile("w+", encoding="utf-8", newline="")
          if args.trace else nullcontext()) as spool:
        sink = _trace_sink(spool, n, k, args.format) if args.trace else None
        _, _, metrics = run(config, scheduler, policy,
                            assertions=args.assertion_level,
                            trace="changes" if args.trace else "off", sink=sink)

        winner, unique = brute_majority(colors)
        doc = {
            "n": n,
            "k": k,
            "scheduler": scheduler.kind,
            "seed": seed,
            "total_interactions": metrics.total_interactions,
            "ket_exchanges": metrics.ket_exchanges,
            "out_updates": metrics.out_updates,
            "quiescence_step": metrics.quiescence_step,
            "converged": metrics.converged,
            "tie": not unique,
            "winner": winner if unique else None,
            "final_outputs_histogram": {
                str(c): metrics.final_outputs[c]
                for c in sorted(metrics.final_outputs)
            },
        }
        write_text(args.out, render_rows([doc], METRICS_FIELDS, args.format))
        if args.trace:
            spool.seek(0)
            with _opened(args.trace) as target:
                shutil.copyfileobj(spool, target)

    if not metrics.converged:
        print(f"no quiescence within {metrics.total_interactions} interactions",
              file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    if unique:
        outputs = metrics.final_outputs
        if set(outputs) != {winner}:
            print(f"converged but outputs {dict(outputs)} != winner {winner}",
                  file=sys.stderr)
            return EXIT_VIOLATION
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    _check_flag("--n-max", args.n_max, positive=True)
    _check_agents("--n-max", args.n_max)
    _check_flag("--k-max", args.k_max, positive=True)
    _check_flag("--instances", args.instances, positive=True)
    _check_flag("--cap", args.cap)
    _check_flag("--seed", args.seed)
    if args.instances is None and args.seed is not None:
        raise UsageError("--seed needs --instances")
    if args.instances is not None:
        rng = np.random.default_rng(args.seed or 0)
        instances = (random_instance(rng, args.n_max, args.k_max)
                     for _ in range(args.instances))
    else:
        instances = enumerate_instances(args.n_max, args.k_max)
    report = verify_battery(instances, args.cap)
    lines = [report.summary() + "\n"]
    for f in report.failures:
        lines.append(f"FAIL check={f.check} k={f.k} "
                     f"colors={list(f.colors)}: {f.detail}\n")
    write_text(args.out, "".join(lines))
    return EXIT_OK if report.ok else EXIT_VIOLATION


def cmd_sweep(args: argparse.Namespace) -> int:
    n_values = parse_size_list("--n-list", args.n_list)
    _check_agents("--n-list", max(n_values))
    k_values = parse_size_list("--k-list", args.k_list)
    _check_flag("--trials", args.trials, positive=True)
    _check_flag("--cap", args.cap)
    _check_flag("--seed", args.seed)
    trials = args.trials
    rows = []
    all_converged = True
    for n, k in product(n_values, k_values):
        interactions, exchanges, converged = [], [], 0
        for trial in range(trials):
            rng = np.random.default_rng([args.seed, n, k, trial])
            colors = [int(c) for c in rng.integers(0, k, size=n)]
            scheduler = make_scheduler(args.scheduler, n,
                                       seed=[args.seed, n, k, trial, 1])
            _, _, metrics = run(init_configuration(colors, k), scheduler,
                                UntilQuiescent(args.cap),
                                assertions="safety", trace="off")
            interactions.append(metrics.total_interactions)
            exchanges.append(metrics.ket_exchanges)
            converged += metrics.converged
        all_converged &= converged == trials
        rows.append({
            "n": n, "k": k, "trials": trials, "seed": args.seed,
            "converged": converged,
            "mean_interactions": round(sum(interactions) / trials, 6),
            "max_interactions": max(interactions),
            "mean_ket_exchanges": round(sum(exchanges) / trials, 6),
            "max_ket_exchanges": max(exchanges),
        })
    write_text(args.out, render_rows(rows, SWEEP_FIELDS, args.format))
    return EXIT_OK if all_converged else EXIT_NO_CONVERGENCE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pluralitysim",
        description="Simulate a k**3-state plurality consensus protocol "
                    "and check it against closed-form predictions.",
        epilog="exit codes: 0 ok, 2 usage, 3 no quiescence within cap, "
               "4 invariant violation or failed check")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser(
        "run", help="simulate one population and write a metrics document")
    p_run.add_argument("--k", type=int, default=None,
                       help="number of colors (default: max color + 1)")
    p_run.add_argument("--n", type=int, default=None,
                       help="population size (needed with --random-colors)")
    p_run.add_argument("--colors", default=None,
                       help="input colors: inline list like 0,1,1 or 0:3,1:2, "
                            "or a path to a file of the same tokens")
    p_run.add_argument("--random-colors", default=None, metavar="SPEC",
                       help="uniform | weights=w0,w1,... | planted=<margin>")
    p_run.add_argument("--scheduler", default="roundrobin",
                       choices=["roundrobin", "random", "adversary"])
    p_run.add_argument("--seed", type=int, default=None,
                       help="seed for random colors and the random scheduler "
                            "(needs one of them; default 0)")
    p_run.add_argument("--cap", type=int, default=None,
                       help="stop after this many scheduling cycles of "
                            "n*(n-1)/2 interactions (default 50*n*n)")
    p_run.add_argument("--fixed-steps", type=int, default=None,
                       help="run exactly this many interactions instead of "
                            "running to quiescence")
    p_run.add_argument("--assert", dest="assertion_level", default="safety",
                       choices=["off", "safety", "full"],
                       help="runtime invariant checking level")
    p_run.add_argument("--trace", default=None, metavar="PATH",
                       help="write the changing-step event trace here")
    p_run.add_argument("--format", default="json-lines",
                       choices=["json-lines", "csv"])
    p_run.add_argument("--out", default=None, metavar="PATH",
                       help="metrics destination (default stdout)")
    p_run.add_argument("--adversary-exclude", default=None, metavar="I,J",
                       help="pair the adversary scheduler starves (default 0,1)")
    p_run.add_argument("--adversary-release", type=int, default=None,
                       help="step at which the starved pair is released "
                            "(default: never)")
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser(
        "verify", help="check runs against the closed-form predictions")
    p_verify.add_argument("--n-max", type=int, required=True)
    p_verify.add_argument("--k-max", type=int, required=True)
    p_verify.add_argument("--instances", type=int, default=None,
                          help="sample this many random instances instead of "
                               "enumerating exhaustively")
    p_verify.add_argument("--seed", type=int, default=None,
                          help="seed for the sampled instances (needs "
                               "--instances; default 0)")
    p_verify.add_argument("--cap", type=int, default=None,
                          help="scheduling-cycle cap per instance")
    p_verify.add_argument("--out", default=None, metavar="PATH")
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser(
        "sweep", help="aggregate convergence cost over an n x k grid")
    p_sweep.add_argument("--n-list", required=True, metavar="N1,N2,...")
    p_sweep.add_argument("--k-list", required=True, metavar="K1,K2,...")
    p_sweep.add_argument("--trials", type=int, default=10)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--scheduler", default="roundrobin",
                         choices=["roundrobin", "random"])
    p_sweep.add_argument("--cap", type=int, default=None)
    p_sweep.add_argument("--format", default="csv",
                         choices=["json-lines", "csv"])
    p_sweep.add_argument("--out", default=None, metavar="PATH")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for flag in ("out", "trace"):
            if getattr(args, flag, None) == "":
                raise UsageError(f"--{flag} must be a path or -, got ''")
        return args.func(args)
    except (UsageError, ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    except InvariantViolation as violation:
        print(f"invariant violation: {violation}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
