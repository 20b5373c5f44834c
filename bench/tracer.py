"""Per-layer spans recorded from outside the package.

install() replaces the module-level names the CLI, the verifier and the
engine call through with timed wrappers, so no source file changes. Each
span adds its duration to its caller's child time; a layer's self time is
its total minus that child time, so self times over all layers add up to
the duration of the outermost span, the CLI call. Counts are kept at the
same boundaries. Everything stays in memory until metrics() is read.

A hook whose name the package no longer has is skipped, and the metrics of
its layer read None instead of a number.
"""

from __future__ import annotations

import statistics
import time


class _TimedScheduler:
    """Scheduler proxy whose pair_at is a span; everything else passes through."""

    def __init__(self, inner, pair_at):
        self._inner = inner
        self.pair_at = pair_at

    def __getattr__(self, name):
        return getattr(self._inner, name)


class Tracer:
    """Spans and counts of one traced CLI call, aggregated per layer."""

    def __init__(self):
        self._stack = [0.0]          # child time of each open span
        self._stats = {}             # layer -> [calls, total_s, self_s]
        self.missing = set()         # layers with a hook that is gone
        self.nulls = 0               # kernel calls in the run loop that changed nothing
        self.trace_events = 0
        self.detection_lag = 0
        self.bytes_out = 0
        self.instance_s = []         # inclusive duration of each verified instance
        self._in_quiescence = False
        self._run_steps = self._run_last_change = 0
        self._restore = []

    def span(self, layer, fn, observe=None):
        """fn wrapped in a span of the layer; observe(args, result, elapsed) runs after."""
        stats = self._stats.setdefault(layer, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stack[-1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - child
            if observe is not None:
                observe(args, result, elapsed)
            return result

        return wrapper

    def install(self, cli, verify, engine, oracle):
        """Wrap every hook; returns the layers reported as None."""
        def timed(layer, observe=None):
            return lambda fn: self.span(layer, fn, observe)

        oracle_hooks = [(module, name) for module in (cli, verify)
                        for name, value in vars(module).items()
                        if callable(value)
                        and getattr(value, "__module__", None) == oracle.__name__]
        hooks = [  # layer, wrapper maker, the (module, name) hooks that feed it
            ("protocol", self._interact, [(engine, "_interact")]),
            ("engine.safety", timed("engine.safety"), [(engine, "_check_safety")]),
            ("engine.full", timed("engine.full"), [(engine, "_check_full")]),
            ("engine.quiescence", self._quiescence, [(engine, "is_quiescent")]),
            ("engine.run", self._run, [(cli, "run"), (verify, "run")]),
            ("schedulers", self._scheduler_factory,
             [(cli, "make_scheduler"), (verify, "RoundRobin")]),
            ("oracle", timed("oracle"), oracle_hooks),
            ("verify", timed("verify", self._instance), [(verify, "checked_run")]),
            ("cli.render", timed("cli.render"), [(cli, "render_rows")]),
            ("cli.write", timed("cli.write", self._written), [(cli, "write_text")]),
        ]
        for layer, make, targets in hooks:
            if not targets:
                self.missing.add(layer)
            for module, name in targets:
                if not hasattr(module, name):
                    self.missing.add(layer)
                    continue
                original = getattr(module, name)
                self._restore.append((module, name, original))
                setattr(module, name, make(original))
        return self.missing

    def uninstall(self):
        for module, name, original in reversed(self._restore):
            setattr(module, name, original)
        self._restore.clear()

    # hook makers -------------------------------------------------------

    def _interact(self, fn):
        timed = self.span("protocol", fn)

        def interact(a, b, k):
            if self._in_quiescence:
                return fn(a, b, k)      # part of the quiescence scan's time
            result = timed(a, b, k)
            self._run_steps += 1
            if result.exchanged or result.out_changed:
                self._run_last_change = self._run_steps
            else:
                self.nulls += 1
            return result

        return interact

    def _quiescence(self, fn):
        timed = self.span("engine.quiescence", fn)

        def is_quiescent(config):
            self._in_quiescence = True
            try:
                return timed(config)
            finally:
                self._in_quiescence = False

        return is_quiescent

    def _run(self, fn):
        def observe(args, result, elapsed):
            events = getattr(getattr(result, "trace", None), "events", ())
            self.trace_events += len(events)
            self.detection_lag += self._run_steps - self._run_last_change

        timed = self.span("engine.run", fn, observe)

        def run(*args, **kwargs):
            self._run_steps = self._run_last_change = 0
            return timed(*args, **kwargs)

        return run

    def _scheduler_factory(self, factory):
        def make(*args, **kwargs):
            scheduler = factory(*args, **kwargs)
            if not hasattr(scheduler, "pair_at"):
                self.missing.add("schedulers")
                return scheduler
            return _TimedScheduler(scheduler, self.span("schedulers", scheduler.pair_at))

        return make

    def _instance(self, args, result, elapsed):
        self.instance_s.append(elapsed)

    def _written(self, args, result, elapsed):
        text = args[1] if len(args) > 1 else ""
        self.bytes_out += len(text.encode("utf-8"))

    # results -----------------------------------------------------------

    def _layer(self, layer):
        return self._stats.get(layer, [0, 0.0, 0.0])

    def metrics(self) -> dict:
        """Per-layer metrics by name; None for layers with a missing hook."""
        calls = lambda layer: self._layer(layer)[0]
        self_s = lambda layer: self._layer(layer)[2]
        kernel_calls = calls("protocol")
        instance_ms = sorted(1000 * s for s in self.instance_s)
        if len(instance_ms) >= 2:
            cuts = statistics.quantiles(instance_ms, n=100, method="inclusive")
            p50, p99 = cuts[49], cuts[98]
        else:
            p50 = p99 = instance_ms[0] if instance_ms else 0.0
        values = {
            "schedulers.pairs": ("schedulers", calls("schedulers")),
            "schedulers.self_s": ("schedulers", self_s("schedulers")),
            "protocol.calls": ("protocol", kernel_calls),
            "protocol.self_s": ("protocol", self_s("protocol")),
            "protocol.null_fraction": ("protocol",
                                       self.nulls / kernel_calls if kernel_calls else 0.0),
            "engine.run_self_s": ("engine.run", self_s("engine.run")),
            "engine.trace_events": ("engine.run", self.trace_events),
            "engine.safety_checks": ("engine.safety", calls("engine.safety")),
            "engine.safety_self_s": ("engine.safety", self_s("engine.safety")),
            "engine.full_checks": ("engine.full", calls("engine.full")),
            "engine.full_self_s": ("engine.full", self_s("engine.full")),
            "engine.quiescence_checks": ("engine.quiescence", calls("engine.quiescence")),
            "engine.quiescence_s": ("engine.quiescence", self._layer("engine.quiescence")[1]),
            "engine.detection_lag": ("protocol", self.detection_lag),
            "oracle.calls": ("oracle", calls("oracle")),
            "oracle.self_s": ("oracle", self_s("oracle")),
            "verify.instances": ("verify", calls("verify")),
            "verify.self_s": ("verify", self_s("verify")),
            "verify.instance_p50_ms": ("verify", p50),
            "verify.instance_p99_ms": ("verify", p99),
            "cli.render_s": ("cli.render", self_s("cli.render")),
            "cli.write_s": ("cli.write", self_s("cli.write")),
            "cli.bytes_out": ("cli.write", self.bytes_out),
            "cli.self_s": ("cli", self_s("cli")),
        }
        out = {name: None if layer in self.missing else value
               for name, (layer, value) in values.items()}
        out["tracing.self_sum_s"] = sum(stats[2] for stats in self._stats.values())
        return out
