"""One repetition of a workload, in a fresh single-threaded process.

Usage (from bench/run.py, not by hand):
    python3 bench/child.py WORKLOAD SEED SMOKE TRACE WORKDIR START

SEED is the input seed of this repetition. START is the parent's
time.monotonic() just before it spawned this process, so setup_s covers
interpreter start, imports and input generation up to the first call into
the CLI. The result goes to WORKDIR/result.json.
"""

import json
import os
import resource
import sys
import time


def main(argv):
    workload, seed, smoke, traced, workdir, start = argv
    seed, smoke, traced, start = int(seed), smoke == "1", traced == "1", float(start)
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    from pluralitysim import cli, engine, oracle, verify

    import workloads

    args = workloads.prepare(workload, seed, smoke, workdir)
    call = cli.main
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(cli, verify, engine, oracle)
        call = tracer.span("cli", cli.main)
    began = time.monotonic()
    code = call(args)
    cli_s = time.monotonic() - began
    result = {
        "exit_code": code,
        "setup_s": began - start,
        "cli_s": cli_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "layers": tracer.metrics() if tracer else None,
    }
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv[1:])
