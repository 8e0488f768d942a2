"""Benchmark of the crossings simulator and logic, end to end and per layer.

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

One process, one client, closed loop: each operation starts when the last
one has finished.  `--trace 0` times whole operations and prints the
end-to-end metrics; `--trace 1` alternates untraced and traced passes over
the same operations and prints the per-layer metrics.  The last line of
output is one JSON object; the lines before it say the same for a reader.
Metric names and units come from BENCHMARK.json at the repository root.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

from spans import GUARDS, LAYERS, Tracer, evaluator_ms, layer_of, summarize
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MODULES = ("automata", "comm", "controllers", "formulas", "harness", "logic",
           "randomgen", "scenario", "snapshot", "views")
TIME_CAP_S = 150.0   # stop adding passes past this, whatever min_passes says
MIN_TRACED_PASSES = 2  # so that span counts can be compared between passes


class SetupError(Exception):
    pass


class Program:
    """A fresh import of every crossings module."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "crossings" or m.startswith("crossings.")]:
            del sys.modules[name]
        self.modules = {m: importlib.import_module("crossings." + m) for m in MODULES}
        if not self.modules["harness"].__file__.startswith(SRC + os.sep):
            raise SetupError(f"crossings imported from outside {SRC}")
        for name, mod in self.modules.items():
            setattr(self, name, mod)


class Pass:
    def __init__(self):
        self.seconds = []       # per op
        self.counts = []        # per op, exact-repeat fingerprint
        self.failed = 0
        self.failures = []
        self.units = 0
        # traced passes only
        self.spans = None       # summarize() of the pass's spans
        self.counters = None
        self.distinct_guards = 0
        self.eval_ms = None

    @property
    def wall(self) -> float:
        return sum(self.seconds)


def run_pass(wl, tracer=None) -> Pass:
    out = Pass()
    for op in wl.ops:
        prepared = wl.prepare(op)
        gc.unfreeze()
        gc.collect()
        gc.freeze()
        if tracer is None:
            t0 = perf_counter()
            result = wl.timed(prepared)
            out.seconds.append(perf_counter() - t0)
        else:
            tracer.begin_op(op.kind)
            try:
                result = wl.timed(prepared)
            finally:
                out.seconds.append(tracer.end_op())
        counts, failures, units = wl.check(op, prepared, result)
        out.counts.append(counts)
        out.units += units
        if failures:
            out.failed += 1
            out.failures.append(f"{op.label}: {'; '.join(failures)}")
        del prepared, result    # freed here, not inside the next op's timer
    return out


def compare_repeats(wl, passes) -> None:
    """Marks ops whose exact counts differ from the first pass as failed."""
    for p in passes[1:]:
        for i, (first, now) in enumerate(zip(passes[0].counts, p.counts)):
            if first != now:
                p.failed += 1
                p.failures.append(f"{wl.ops[i].label}: counts differ from the "
                                  f"first pass: {first} vs {now}")


def setup(cls, seed, out_dir):
    """Imports crossings afresh and builds the workload's inputs, timed.

    Callers drop the previous set-up first; the surviving heap is collected
    and frozen, so every set-up starts from the same heap."""
    gc.unfreeze()
    gc.collect()
    gc.freeze()
    t0 = perf_counter()
    prog = Program()
    wl = cls(prog, seed, out_dir)
    return prog, wl, perf_counter() - t0


def percentile(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def exact_totals(passes) -> dict:
    totals: dict = {}
    for counts in passes[0].counts:
        for key, value in counts.items():
            if isinstance(value, int):
                totals[key] = totals.get(key, 0) + int(value)
    return totals


def untraced_run(cls, seed, seconds, out_dir):
    setups = []
    for _ in range(cls.setup_reps):
        prog = wl = None
        prog, wl, took = setup(cls, seed, out_dir)
        setups.append(took)
    passes = []
    start = perf_counter()
    while True:
        passes.append(run_pass(wl))
        elapsed = perf_counter() - start
        if elapsed > TIME_CAP_S:
            break
        if len(passes) >= cls.min_passes and \
                elapsed + statistics.median(p.wall for p in passes) > seconds:
            break
    compare_repeats(wl, passes)
    samples = [s for p in passes for s in p.seconds]
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_per_s": statistics.median(p.units / p.wall for p in passes),
        "latency_ms_p50": statistics.median(samples) * 1000.0,
        "latency_ms_tail": percentile(samples, cls.tail_pct) * 1000.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    op_word = "verdict" if cls.unit == "verdicts" else "run"
    above = sum(1 for s in samples if s * 1000.0 > metrics["latency_ms_tail"])
    notes = {
        "throughput_per_s": f"{cls.unit}_per_s, median of {len(passes)} passes",
        "latency_ms_p50": f"{op_word}_ms_p50 over n={len(samples)}",
        "latency_ms_tail": f"{op_word}_ms_p{cls.tail_pct} over n={len(samples)}, "
                           f"{above} above",
        "setup_s": f"median of {len(setups)} set-ups: import, inputs, parsing"
                   + (", snapshot sampling" if cls.name == "formulas" else ""),
        "peak_rss_mb": "ru_maxrss of this process",
    }
    return wl, passes, metrics, notes


def traced_run(cls, seed, seconds, out_dir):
    """Untraced and traced passes in turn; per-layer metrics from the traced."""
    prog, wl, _ = setup(cls, seed, out_dir)
    tracer = Tracer()
    tracer.install(prog.modules)
    tracer.on = True
    cls(prog, seed, out_dir)                 # set-up again, traced
    tracer.on = False
    setup_layers = summarize(tracer.spans)
    tracer.uninstall()

    plain, traced = [], []
    start = perf_counter()
    while True:
        plain.append(run_pass(wl))
        tracer.reset()
        tracer.install(prog.modules)
        try:
            p = run_pass(wl, tracer)
        finally:
            tracer.uninstall()
        p.spans = summarize(tracer.spans)
        p.counters = dict(tracer.counters)
        p.distinct_guards = len(tracer.guard_keys)
        p.eval_ms = evaluator_ms(tracer.spans, tracer.op_kinds)
        traced.append(p)
        elapsed = perf_counter() - start
        if elapsed > TIME_CAP_S:
            break
        if len(traced) >= MIN_TRACED_PASSES and \
                elapsed + plain[-1].wall + traced[-1].wall > seconds:
            break
    tracer.write(os.path.join(out_dir, "spans.tsv"))
    passes = plain + traced
    compare_repeats(wl, passes)
    # span counts must repeat exactly between traced passes as well
    first = traced[0]
    for p in traced[1:]:
        if {k: v[0] for k, v in p.spans.items()} != {k: v[0] for k, v in first.spans.items()} \
                or p.counters != first.counters:
            p.failures.append("span counts differ between traced passes")
    metrics = layer_metrics(traced, plain, setup_layers)
    notes = {"trace.overhead_s": f"traced minus untraced wall, {len(plain)} passes each"}
    if cls.min_coverage:
        notes["trace.coverage"] = f"must be at least {cls.min_coverage}"
    if metrics["trace.coverage"] < cls.min_coverage:
        traced[-1].failures.append(
            f"layer spans cover {metrics['trace.coverage']:.3f} of traced time, "
            f"below {cls.min_coverage}")
    if tracer.missing:
        notes["missing hooks"] = ", ".join(tracer.missing)
    return wl, passes, metrics, notes


def layer_metrics(traced, plain, setup_layers) -> dict:
    first_stats, counters = traced[0].spans, traced[0].counters

    def calls(name):
        return first_stats.get(name, [0])[0]

    def self_s(name):
        return statistics.median(p.spans.get(name, [0, 0.0])[1] for p in traced)

    m = {}
    for name in ("views.car_fragments", "views.build_multiview",
                 "automata.enabled_transition", "automata.invariant_ok",
                 "comm.broadcast", "snapshot.evolve", "snapshot.apply_action") + GUARDS:
        m[name + ".calls"] = calls(name)
        m[name + ".self_s"] = self_s(name)
    lookups, builds = calls("logic.view_context"), calls("logic.eval_context")
    m["logic.view_context.calls"] = lookups
    m["logic.eval_context.builds"] = builds
    m["logic.view_context.hit_ratio"] = max(0.0, 1.0 - builds / lookups) if lookups else 0.0
    guard_calls = sum(calls(g) for g in GUARDS)
    m["formulas.guard.distinct_ratio"] = \
        traced[0].distinct_guards / guard_calls if guard_calls else 0.0
    pooled: dict = {}
    for p in traced:
        for kind, values in p.eval_ms.items():
            pooled.setdefault(kind, []).extend(values)
    for kind in ("ca", "col", "oc", "lc", "pc"):
        values = pooled.get(kind)
        m["logic.eval_formula.ms_p50." + kind] = statistics.median(values) if values else 0.0
    m["logic.eval_formula.self_s"] = self_s("logic.eval_formula")
    m["logic.parse.self_s"] = self_s("logic.parse")
    m["automata.enabled_transition.fired"] = counters.get("automata.enabled_transition.fired", 0)
    m["automata.matching_input.calls"] = calls("automata.matching_input")
    m["automata.matching_input.accepted"] = counters.get("automata.matching_input.accepted", 0)
    m["automata.fire.calls"] = calls("automata.fire")
    m["comm.broadcast.offered"] = counters.get("comm.broadcast.offered", 0)
    m["comm.broadcast.accepted"] = counters.get("comm.broadcast.accepted", 0)
    m["snapshot.can_apply.calls"] = calls("snapshot.can_apply")
    for name in ("harness.microstep", "harness.monitor", "harness.check_invariants",
                 "harness.write_trace"):
        m[name + ".self_s"] = self_s(name)
    m["harness.trace_events"] = sum(c.get("events", 0) for c in traced[0].counts)
    for name in ("scenario.parse_scenario", "randomgen.sweep_scenario_text"):
        m[name + ".self_s"] = setup_layers.get(name, [0, 0.0])[1]
    shares = {layer: [] for layer in LAYERS}
    coverage = []
    for p in traced:
        per_layer = dict.fromkeys(LAYERS, 0.0)
        for name, (_n, own, _total) in p.spans.items():
            if layer_of(name) in per_layer:
                per_layer[layer_of(name)] += own
        for layer in LAYERS:
            shares[layer].append(per_layer[layer] / p.wall)
        coverage.append(sum(per_layer.values()) / p.wall)
    for layer in LAYERS:
        m[layer + ".share"] = statistics.median(shares[layer])
    m["trace.coverage"] = statistics.median(coverage)
    m["trace.overhead_s"] = statistics.median(p.wall for p in traced) - \
        statistics.median(p.wall for p in plain)
    return m


def report(cls, seed, trace, spec, wl, passes, metrics, notes) -> dict:
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(declared) != set(metrics):
        raise SetupError("metrics differ from BENCHMARK.json: "
                         f"{sorted(set(declared) ^ set(metrics))}")
    attempted = sum(len(p.seconds) for p in passes)
    failed = sum(p.failed for p in passes)
    kind = "per-layer (traced)" if trace else "end-to-end (untraced)"
    print(f"== {cls.name} seed {seed}: {kind}, {len(passes)} passes x {len(wl.ops)} ops, "
          "each op built fresh from text, no warm-up discarded")
    for name in sorted(metrics) if trace else declared:
        note = notes.get(name, "")
        print(f"  {name:40s} {metrics[name]:14.6g} {declared[name]:6s} {note}")
    for key in sorted(set(notes) - set(metrics)):
        print(f"  {key}: {notes[key]}")
    print(f"  failed_share {failed / attempted:.4g} ({failed} of {attempted} ops)")
    print("  exact counts per pass, equal in every pass: " + " ".join(
        f"{k}={v}" for k, v in exact_totals(passes).items()))
    for op, counts in zip(wl.ops, passes[0].counts):
        if "sha256" in counts:
            print(f"  trace {op.label} sha256 {counts['sha256']}")
    for p in passes:
        for line in p.failures:
            print("  FAILED " + line)
    return {
        "correct": not any(p.failures for p in passes),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": declared[name]}
                    for name in declared},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        if not os.path.isfile(os.path.join(SRC, "crossings", "__init__.py")):
            raise SetupError(f"no crossings package under {SRC}")
        sys.path.insert(0, SRC)
        if args.workload == "all":
            return run_each(args)
        cls = WORKLOADS[args.workload]
        out_dir = os.path.join(ROOT, ".bench_out", cls.name)
        os.makedirs(out_dir, exist_ok=True)
        run = traced_run if args.trace else untraced_run
        result = report(cls, args.seed, args.trace, spec,
                        *run(cls, args.seed, args.seconds, out_dir))
        print(json.dumps(result), flush=True)
    except (SetupError, OSError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def run_each(args) -> int:
    """Runs every workload in a child process of its own, one after the
    other, so that its peak RSS and its import time are its own."""
    worst = 0
    for name in sorted(WORKLOADS):
        child = subprocess.run([sys.executable, os.path.abspath(__file__),
                                "--workload", name, "--seed", str(args.seed),
                                "--seconds", str(args.seconds), "--trace", str(args.trace)])
        worst = max(worst, child.returncode)
    return worst


if __name__ == "__main__":
    sys.exit(main())
