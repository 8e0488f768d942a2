"""The three benchmark workloads: inputs, timed operations and output checks.

Every workload has a fixed pool of inputs, run in a fixed order.  The
workload seed only picks the other car `c` of each `@pc(c)` verdict in
`formulas`; `sweep` and `scripted` run the same inputs under every seed.
Inputs chosen by seed made the per-seed medians swing far beyond any usable
regression bound: a `@ca` verdict costs 0.2 to 3.7 s depending on the
snapshot, sweep run times vary by about 20% between scenarios with the same
number of cars, and even turning the intersection (renaming every node)
changes the order of the chop search and so the cost of a verdict by up to
half.  The order stays fixed because a run pays for dropping the previous
run's module-global caches (`Simulation.__init__` clears them): up to 0.15 s
after `left-turn`, so a shuffled order moved whole percentiles.

Each operation is built fresh from text before it is timed.  Car states
carry memo dicts keyed on `id()`, and the view caches are process-global, so
reusing a parsed scenario would let later repetitions run other code.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import replace
from importlib import resources

CAR_COUNTS = range(2, 9)          # what randomgen draws for a sweep scenario


def sweep_seeds_by_car_count(randomgen, per_count: int) -> dict:
    """{car count: the first `per_count` generator seeds, from 0 up, with it}."""
    picked = {n: [] for n in CAR_COUNTS}
    for seed in range(100_000):
        text = randomgen.sweep_scenario_text(seed)
        n = sum(1 for line in text.splitlines() if line.startswith("car "))
        if n in picked and len(picked[n]) < per_count:
            picked[n].append(seed)
            if all(len(v) == per_count for v in picked.values()):
                return picked
    raise RuntimeError("randomgen never produced some car count in 2..8")


def _event_counts(events) -> dict:
    counts = {"events": len(events), "transitions": 0, "messages": 0,
              "verdicts": 0, "violations": 0}
    for ev in events:
        if ev.kind == "ControllerTransition":
            counts["transitions"] += 1
        elif ev.kind == "Message" and dict(ev.payload).get("role") == "send":
            counts["messages"] += 1
        elif ev.kind == "SafetyVerdict":
            counts["verdicts"] += 1
        elif ev.kind == "Violation":
            counts["violations"] += 1
    return counts


def _state_sequence(events, inst_uid: str) -> list:
    seq = ["q0"]
    for ev in events:
        if ev.kind == "ControllerTransition":
            d = dict(ev.payload)
            if d["inst"] == inst_uid and d["to"] != seq[-1]:
                seq.append(d["to"])
    return seq


class Op:
    """One timed operation: a label, its input and what the checks need."""

    __slots__ = ("label", "kind", "data")

    def __init__(self, label, kind, data):
        self.label = label
        self.kind = kind
        self.data = data


class Sweep:
    """Random sweep scenarios run back to back, no trace written.

    The safety gate's traffic: 2-8 cars over 80 ticks, read-heavy (view
    projection and guard checks).  Four scenarios per car count keep the
    car-count mix of the generator in every run.
    """

    name = "sweep"
    unit = "ticks"
    min_passes = 2
    min_coverage = 0.9     # share of traced time inside layer spans
    tail_pct = 80          # 2 passes x 28 runs leave 11 samples above p80
    setup_reps = 5
    per_count = 4

    def __init__(self, prog, seed: int, out_dir: str):
        self.prog = prog
        self.ops = []
        for seeds in sweep_seeds_by_car_count(prog.randomgen, self.per_count).values():
            for s in seeds:
                text = prog.randomgen.sweep_scenario_text(s)
                label = f"sweep-{s}"
                prog.scenario.parse_scenario(text, name=label)  # rejects bad input now
                self.ops.append(Op(label, "run", text))

    def prepare(self, op):
        return self.prog.scenario.parse_scenario(op.data, name=op.label)

    def timed(self, scenario):
        return self.prog.harness.run(scenario)

    def check(self, op, scenario, result):
        verdict, events = result
        counts = _event_counts(events)
        counts["ticks"] = scenario.ticks
        failures = []
        if not verdict.safe:
            failures.append("unsafe verdict")
        if counts["violations"]:
            failures.append(f"{counts['violations']} Violation events")
        return counts, failures, scenario.ticks


class Scripted:
    """The six bundled scenarios, each run and written out as a trace file.

    Action- and message-heavy where sweep is read-heavy: helper yes/no/
    timeout exchanges, a seven-car left turn with 19k events, and
    four-right-turns, the only input that releases reservations.
    """

    name = "scripted"
    unit = "ticks"
    min_passes = 7
    min_coverage = 0.9
    # 7 passes x 6 runs leave 10.5 samples above p75, which falls in the
    # middle of the four-right-turns runs rather than at their lower edge
    tail_pct = 75
    setup_reps = 5

    _SEQUENCES = {
        "lone-left-turn": ["q0", "q1", "q2", "q5", "q0"],
        "helper-yes": ["q0", "q1", "q2", "q3", "q4", "q0"],
    }

    def __init__(self, prog, seed: int, out_dir: str):
        self.prog = prog
        self.out_dir = out_dir
        root = resources.files("crossings").joinpath("scenarios")
        self.ops = []
        for name in prog.scenario.bundled_scenarios():
            text = root.joinpath(name + ".scn").read_text()
            prog.scenario.parse_scenario(text, name=name)
            self.ops.append(Op(name, name, text))

    def prepare(self, op):
        return self.prog.scenario.parse_scenario(op.data, name=op.kind)

    def timed(self, scenario):
        verdict, events = self.prog.harness.run(scenario)
        path = os.path.join(self.out_dir, scenario.name + ".trace")
        self.prog.harness.write_trace(events, path)
        return verdict, events, path

    def check(self, op, scenario, result):
        verdict, events, path = result
        counts = _event_counts(events)
        counts["ticks"] = scenario.ticks
        with open(path, "rb") as fh:
            counts["sha256"] = hashlib.sha256(fh.read()).hexdigest()
        failures = []
        if not verdict.safe:
            failures.append("unsafe verdict")
        want = self._SEQUENCES.get(op.kind)
        if want is not None and _state_sequence(events, "E/crossing/0") != want:
            failures.append("crossing controller left the criterion-3 sequence")
        if op.kind == "four-right-turns":
            done = {dict(ev.payload)["car"] for ev in events
                    if ev.kind == "Action" and dict(ev.payload)["kind"] == "wd rc"}
            missing = sorted(set(scenario.cars) - done)
            if missing:
                failures.append(f"no 'wd rc' from {','.join(missing)}")
        return counts, failures, scenario.ticks


class Formulas:
    """The `crossings check` path on snapshots sampled from sweep runs.

    Each operation parses a protocol builtin, builds the ego's multi-view
    and evaluates it; the only workload that runs the chop search.  `@ca`
    is judged on view 0, as the controllers do; the others hold if they
    hold in some view.  `@ph` is left out: one verdict takes 2-12 s.
    """

    name = "formulas"
    unit = "verdicts"
    min_passes = 3
    min_coverage = 0.0
    # 3 passes x 35 verdicts leave 10.5 samples above p90, the middle of the
    # @ca verdicts
    tail_pct = 90
    setup_reps = 3
    sample_tick = 40
    kinds = ("ca", "col", "oc", "lc", "pc")

    def __init__(self, prog, seed: int, out_dir: str):
        self.prog = prog
        rng = random.Random(seed)
        self.samples = []
        self.ops = []
        for (s,) in sweep_seeds_by_car_count(prog.randomgen, 1).values():
            text = prog.randomgen.sweep_scenario_text(s)
            scenario = prog.scenario.parse_scenario(text, name=f"sweep-{s}")
            sim = prog.harness.Simulation(scenario)
            sim.run(max_ticks=self.sample_tick)
            ts = sim.ts
            ego = next(c for c in ts.car_ids() if prog.views.build_multiview(
                scenario.topo, ts, c, scenario.h_b, scenario.h_f).views)
            other = rng.choice([c for c in ts.car_ids() if c != ego])
            self.samples.append((text, dict(ts.cars), ego))
            formulas = {"ca": "@ca", "col": "@col", "oc": "@oc(ego)",
                        "lc": "@lc(ego)", "pc": f"@pc({other})"}
            for kind in self.kinds:
                self.ops.append(Op(f"sweep-{s}:{ego}:{formulas[kind]}", kind,
                                   (len(self.samples) - 1, formulas[kind], other)))

    def prepare(self, op):
        # No Simulation is built here, so drop the snapshot-keyed caches the
        # way Simulation.__init__ does; every op then starts from the same heap
        reset = getattr(self.prog.harness, "_reset_shared_caches", None)
        if reset is not None:
            reset()
        text, cars, ego = self.samples[op.data[0]]
        scenario = self.prog.scenario.parse_scenario(text)
        # replace() drops the memos the sampling run left on the car states
        ts = self.prog.snapshot.TrafficSnapshot(
            {cid: replace(s) for cid, s in cars.items()}, scenario.topo.net)
        return scenario, ts, ego, op.kind, op.data[1]

    def timed(self, prepared):
        scenario, ts, ego, kind, text = prepared
        logic = self.prog.logic
        f = logic.parse(text, params=scenario.params)
        mv = self.prog.views.build_multiview(scenario.topo, ts, ego,
                                             scenario.h_b, scenario.h_f)
        nu = logic.default_valuation(ts, ego)
        if kind == "ca":
            return logic.eval_formula(ts, mv.views[0], nu, f), mv
        return logic.eval_multiview(ts, mv, nu, f, mode="exists"), mv

    def check(self, op, prepared, result):
        scenario, ts, ego = prepared[:3]
        verdict, mv = result
        fm = self.prog.formulas
        if op.kind == "ca":
            direct = fm.check_ca(ts, mv, ego, scenario.params)
        elif op.kind == "col":
            direct = fm.col_witness(ts, mv, ego) is not None
        elif op.kind == "oc":
            direct = fm.check_oc(ts, mv, ego)
        elif op.kind == "lc":
            direct = fm.check_lc(ts, mv, ego)
        else:
            direct = op.data[2] in fm.pc_cars(ts, mv, ego)
        failures = [] if verdict == direct else [
            f"evaluator says {verdict}, direct check says {direct}"]
        return {"verdicts": 1, "true": int(verdict)}, failures, 1


WORKLOADS = {w.name: w for w in (Sweep, Scripted, Formulas)}
