"""The CLI calls and demos whose output bytes are pinned.

CALLS lists each call as (name, argv); argv names its output files under
the placeholder {dir}. digest(argv) runs one call in this process through
pluralitysim.cli.main and returns its exit code and one sha256 over the
exit code, stdout, stderr and every output file. run_demo(script) runs
one of demos 01-05 in a fresh process and digests its stdout.

tests/cli_digests.json pins (exit code, sha256) for every call and for
each demo as demo-<stem>. Criterion 6 of tests/test_acceptance.py and
tests/test_demos.py compare against it, exactly. A change that alters
these bytes on purpose rewrites the file with

    PYTHONPATH=src python tests/cli_calls.py

and lists every changed name in CHANGES.md. A new call is added to CALLS
and pinned the same way.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

from pluralitysim import cli

HERE = pathlib.Path(__file__).resolve().parent
PINNED = HERE / "cli_digests.json"
DEMOS = sorted(HERE.parent.glob("demos/*.py"))

SIX_COLORS = "0:9,1:7,2:6,3:5,4:3,5:2"
RANDOM_25 = ["run", "--random-colors", "uniform", "--n", "25", "--k", "5",
             "--scheduler", "random", "--seed", "11"]

CALLS = [
    ("run-trace-csv",
     ["run", "--colors", SIX_COLORS, "--k", "6", "--assert", "full",
      "--format", "csv", "--trace", "{dir}/run-trace-csv.trace",
      "--out", "{dir}/run-trace-csv.metrics"]),
    ("run-planted-random",
     ["run", "--random-colors", "planted=3", "--n", "40", "--k", "5",
      "--seed", "7", "--scheduler", "random"]),
    # the one draw of colors from given weights
    ("run-weights-random",
     ["run", "--random-colors", "weights=1,0,3,2", "--n", "30", "--seed", "5",
      "--scheduler", "random"]),
    ("run-adversary",
     ["run", "--colors", "0,1,1,2,2,2", "--k", "3", "--scheduler", "adversary",
      "--adversary-release", "6"]),
    ("sweep-json-lines",
     ["sweep", "--n-list", "6,12", "--k-list", "2,4", "--trials", "5",
      "--seed", "3", "--format", "json-lines"]),
    ("verify-sampled",
     ["verify", "--n-max", "10", "--k-max", "6", "--instances", "200",
      "--seed", "1"]),
    # exits 4 with 35 FAIL lines on unsorted sampled colors
    ("verify-sampled-cap-1",
     ["verify", "--n-max", "10", "--k-max", "6", "--instances", "200",
      "--seed", "1", "--cap", "1"]),
    # a sampled battery without --seed draws from seed 0
    ("verify-sampled-default-seed",
     ["verify", "--n-max", "6", "--k-max", "4", "--instances", "50"]),
    ("verify-exhaustive", ["verify", "--n-max", "8", "--k-max", "6"]),
    # exits 4 with 680 FAIL lines, so failure rendering is compared
    ("verify-cap-1", ["verify", "--n-max", "8", "--k-max", "6", "--cap", "1"]),
    # 91 agents read their pairs from a table, 92 compute them
    ("run-random-91",
     ["run", "--random-colors", "uniform", "--n", "91", "--k", "6",
      "--scheduler", "random", "--seed", "2"]),
    ("run-random-92",
     ["run", "--random-colors", "uniform", "--n", "92", "--k", "6",
      "--scheduler", "random", "--seed", "2"]),
    # tables above k = 6: a traced full-assertion run at k = 16 and a
    # random-scheduler sweep at k = 8
    ("run-k16",
     ["run", "--random-colors", "uniform", "--n", "120", "--k", "16",
      "--seed", "4", "--assert", "full", "--trace", "{dir}/run-k16.trace"]),
    ("sweep-k8",
     ["sweep", "--n-list", "30", "--k-list", "8", "--trials", "5",
      "--scheduler", "random", "--seed", "2"]),
    # traces above k = 16, whose state texts are encoded on first use
    # rather than listed up front, in both formats
    ("run-k20",
     ["run", "--random-colors", "uniform", "--n", "60", "--k", "20",
      "--seed", "6", "--trace", "{dir}/run-k20.trace"]),
    ("run-k20-csv",
     ["run", "--random-colors", "uniform", "--n", "60", "--k", "20",
      "--seed", "6", "--format", "csv", "--trace", "{dir}/run-k20-csv.trace"]),
    # a starved run ends on a round boundary and exits 3; the budget of 2
    # ends mid-round where quiescence is found; a zero budget exits 3
    ("run-starved-cap",
     ["run", "--colors", "0,1,1", "--scheduler", "adversary", "--cap", "10",
      "--trace", "{dir}/run-starved-cap.trace"]),
    ("run-fixed-steps-2",
     ["run", "--colors", "0,1,1", "--fixed-steps", "2", "--format", "csv"]),
    ("run-fixed-steps-0", ["run", "--colors", "0,1,1", "--fixed-steps", "0"]),
    # run spools its trace and copies it after the metrics: to a file, to
    # stdout, to a path that cannot be opened (exit 2 after the metrics
    # are written) and an empty one
    ("run-trace-json-lines",
     ["run", "--colors", SIX_COLORS, "--k", "6",
      "--trace", "{dir}/run-trace-json-lines.trace"]),
    ("run-trace-stdout",
     ["run", "--colors", SIX_COLORS, "--k", "6", "--trace", "-"]),
    ("run-trace-bad-path",
     ["run", "--colors", "0,1,1", "--trace", "/nonexistent-dir/t.jsonl",
      "--out", "{dir}/run-trace-bad-path.metrics"]),
    ("run-trace-one-color",
     ["run", "--colors", "2:5", "--trace", "{dir}/run-trace-one-color.trace"]),
    # quiescence scans that see more codes than bra-kets: a tie that
    # settles with mixed outs, and an adversary run of 40 agents with 353
    # out updates
    ("run-tie-k3",
     ["run", "--colors", "0:4,1:4,2:4", "--k", "3",
      "--trace", "{dir}/run-tie-k3.trace"]),
    ("run-adversary-40",
     ["run", "--random-colors", "uniform", "--n", "40", "--k", "5",
      "--seed", "3", "--scheduler", "adversary",
      "--trace", "{dir}/run-adversary-40.trace"]),
    # the adversary above the 91-agent pair table, so that all three
    # schedulers are pinned on both sides of it
    ("run-adversary-120",
     ["run", "--random-colors", "uniform", "--n", "120", "--k", "5",
      "--seed", "3", "--scheduler", "adversary",
      "--adversary-release", "20000",
      "--trace", "{dir}/run-adversary-120.trace"]),
    # the adversary without its first pair: the last rank excluded at a
    # tabled n, a middle rank above the table, and a run that stalls after
    # one exchange until the excluded pair's first turn at exactly step 1000
    ("run-adversary-40-last",
     ["run", "--random-colors", "uniform", "--n", "40", "--k", "5",
      "--seed", "3", "--scheduler", "adversary",
      "--adversary-exclude", "38,39", "--adversary-release", "700",
      "--trace", "{dir}/run-adversary-40-last.trace"]),
    ("run-adversary-100-mid",
     ["run", "--random-colors", "uniform", "--n", "100", "--k", "5",
      "--seed", "3", "--scheduler", "adversary",
      "--adversary-exclude", "40,41", "--adversary-release", "9000",
      "--trace", "{dir}/run-adversary-100-mid.trace"]),
    ("run-adversary-stall-release",
     ["run", "--colors", "0,1,0", "--k", "2", "--scheduler", "adversary",
      "--adversary-exclude", "0,1", "--adversary-release", "1000",
      "--trace", "-"]),
    # a seeded random run in both formats and with its trace and metrics
    # written to files, and a random-scheduler sweep
    ("run-random-25", RANDOM_25),
    ("run-random-25-csv", RANDOM_25 + ["--format", "csv"]),
    ("run-random-25-files",
     RANDOM_25 + ["--trace", "{dir}/run-random-25.trace",
                  "--out", "{dir}/run-random-25.metrics"]),
    ("sweep-random",
     ["sweep", "--n-list", "5,9", "--k-list", "2,4", "--trials", "5",
      "--seed", "3", "--scheduler", "random"]),
    # the calls CI also makes through the installed console script
    ("console-run", ["run", "--colors", "0,1,1"]),
    ("console-verify", ["verify", "--n-max", "4", "--k-max", "3"]),
    ("console-sweep",
     ["sweep", "--n-list", "6", "--k-list", "2", "--trials", "2"]),
    ("console-sweep-random",
     ["sweep", "--n-list", "6", "--k-list", "2,3", "--trials", "2",
      "--scheduler", "random"]),
]


def digest(argv) -> tuple[int, str]:
    """Run cli.main(argv) in this process; return (exit code, sha256).

    {dir} in argv becomes a fresh temporary directory, and its path
    becomes {dir} again in stdout and stderr. The digest covers the exit
    code, stdout, stderr and every file left in the directory, in sorted
    name order.
    """
    with tempfile.TemporaryDirectory() as directory:
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main([arg.replace("{dir}", directory) for arg in argv])
        parts = [("exit", b"%d" % code)]
        for label, stream in (("stdout", out), ("stderr", err)):
            text = stream.getvalue().replace(directory, "{dir}")
            parts.append((label, text.encode()))
        for name in sorted(os.listdir(directory)):
            parts.append((name, pathlib.Path(directory, name).read_bytes()))
    # Each part is length-prefixed, so no two splits of the bytes collide.
    sha = hashlib.sha256()
    for label, data in parts:
        sha.update(b"%s %d\n" % (label.encode(), len(data)))
        sha.update(data)
    return code, sha.hexdigest()


def run_demo(script):
    """Run a demo in a fresh process, in dev mode with warnings as errors.

    Returns the CompletedProcess and (exit code, sha256 of stdout).
    """
    result = subprocess.run([sys.executable, "-X", "dev", "-W", "error",
                             str(script)], capture_output=True, timeout=120)
    return result, (result.returncode,
                    hashlib.sha256(result.stdout).hexdigest())


def pinned() -> dict[str, tuple[int, str]]:
    """The pinned (exit code, sha256) of every call and demo, by name."""
    entries = json.loads(PINNED.read_text(encoding="utf-8"))
    return {name: tuple(entry) for name, entry in entries.items()}


def main():
    digests = {name: digest(argv) for name, argv in CALLS}
    for script in DEMOS:
        digests[f"demo-{script.stem}"] = run_demo(script)[1]
    PINNED.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")


if __name__ == "__main__":
    main()
