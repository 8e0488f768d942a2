"""Per-layer spans, recorded from outside the program.

Wrappers rebind the module and class attributes through which the layers of
`crossings` call each other (``harness.build_multiview``,
``controllers.check_ca``, ``ControllerInstance.fire``, ``Bus.broadcast``, ...).
Each call made while the tracer is on records a span ``[name, start, end,
parent]`` in memory; a span's self time is its duration minus that of its
direct children.  Nothing under ``src/`` changes: `uninstall` puts every
original back.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter

# span name -> every binding that carries calls into it ("module.attr" or
# "module.Class.attr"); `from x import f` copies f into the importing module,
# so each copy is wrapped
HOOKS = (
    ("views.build_multiview", ("harness.build_multiview", "scenario.build_multiview",
                               "views.build_multiview")),
    ("views.car_fragments", ("logic.car_fragments", "formulas.car_fragments",
                             "views.car_fragments")),
    ("snapshot.safety_envelope", ("views.safety_envelope",)),
    ("snapshot.physical_extent", ("views.physical_extent",)),
    ("logic.view_context", ("logic._context", "formulas._context")),
    ("logic.eval_context", ("logic.EvalContext.__init__",)),
    ("logic.eval_formula", ("logic.eval_formula",)),
    ("logic.eval_multiview", ("logic.eval_multiview",)),
    ("logic.parse", ("logic.parse",)),
    ("formulas.check_ca", ("controllers.check_ca", "formulas.check_ca")),
    ("formulas.check_oc", ("controllers.check_oc", "formulas.check_oc")),
    ("formulas.check_lc", ("controllers.check_lc", "formulas.check_lc")),
    ("formulas.pc_cars", ("controllers.pc_cars", "formulas.pc_cars")),
    ("formulas.ph_cars", ("controllers.ph_cars", "formulas.ph_cars")),
    ("formulas.col_witness", ("controllers.col_witness", "harness.col_witness",
                              "scenario.col_witness", "formulas.col_witness")),
    ("automata.enabled_transition", ("automata.ControllerInstance.enabled_transition",)),
    ("automata.matching_input", ("automata.ControllerInstance.matching_input",)),
    ("automata.fire", ("automata.ControllerInstance.fire",)),
    ("automata.invariant_ok", ("automata.ControllerInstance.invariant_ok",)),
    ("automata.advance", ("automata.ControllerInstance.advance",)),
    ("comm.broadcast", ("comm.Bus.broadcast",)),
    ("snapshot.evolve", ("harness.evolve_snapshot",)),
    ("snapshot.apply_action", ("harness.apply_action",)),
    ("snapshot.can_apply", ("automata.can_apply", "snapshot.can_apply")),
    ("harness.microstep", ("harness.Simulation.microstep",)),
    ("harness.deliver", ("harness.Simulation._deliver",)),
    ("harness.monitor", ("harness.Simulation.monitor",)),
    ("harness.check_invariants", ("harness.Simulation.check_invariants",)),
    ("harness.update_stall", ("harness.Simulation._update_stall",)),
    ("trace.emit_snapshot", ("harness.Simulation._emit_snapshot",)),
    ("trace.record_transition", ("harness.Simulation._record_transition",)),
    ("harness.write_trace", ("harness.write_trace",)),
    ("scenario.parse_scenario", ("scenario.parse_scenario", "randomgen.parse_scenario")),
    ("randomgen.sweep_scenario_text", ("randomgen.sweep_scenario_text",)),
)

GUARDS = ("formulas.check_ca", "formulas.check_oc", "formulas.check_lc",
          "formulas.pc_cars", "formulas.ph_cars", "formulas.col_witness")
LAYERS = ("views", "logic", "formulas", "automata", "comm", "snapshot", "harness", "trace")
OP_SPAN = "bench.op"


def layer_of(name: str) -> str:
    return "trace" if name == "harness.write_trace" else name.split(".", 1)[0]


def _count_fired(tracer, args, kwargs, result):
    if result is not None:
        tracer.counters["automata.enabled_transition.fired"] += 1


def _count_accepted(tracer, args, kwargs, result):
    if result is not None:
        tracer.counters["automata.matching_input.accepted"] += 1


def _count_offers(tracer, args, kwargs, result):
    tracer.counters["comm.broadcast.offered"] += len(result)
    tracer.counters["comm.broadcast.accepted"] += sum(1 for _, ok in result if ok)


def _guard_key(name):
    def record(tracer, args, kwargs, result):
        ts, car = args[0], args[2]
        ground_truth = kwargs.get("ground_truth", args[3] if len(args) > 3 else None)
        # the snapshot stays referenced until the op ends, so its id is unique
        tracer.keep.append(ts)
        tracer.guard_keys.add((tracer.ops, name, id(ts), car, ground_truth is True))
    return record


_AFTER = {
    "automata.enabled_transition": _count_fired,
    "automata.matching_input": _count_accepted,
    "comm.broadcast": _count_offers,
    **{g: _guard_key(g) for g in GUARDS},
}


class Tracer:
    def __init__(self):
        self.on = False
        self.spans: list = []
        self.op_kinds: dict = {}       # root span index -> op kind
        self.counters: Counter = Counter()
        self.guard_keys: set = set()
        self.keep: list = []
        self.ops = 0
        self.missing: list = []
        self._stack: list = []
        self._patches: list = []

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Wrap every hook binding found; a binding that is gone is listed in
        `missing` and its metrics read zero."""
        self.missing = []
        for name, paths in HOOKS:
            for path in paths:
                mod, *inner, attr = path.split(".")
                owner = modules.get(mod)
                for part in inner:
                    owner = getattr(owner, part, None)
                fn = getattr(owner, "__dict__", {}).get(attr)
                if not callable(fn):
                    self.missing.append(path)
                    continue
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    # -- recording -----------------------------------------------------------

    def reset(self) -> None:
        self.spans = []
        self.op_kinds = {}
        self.counters = Counter()
        self.guard_keys = set()
        self.ops = 0

    def begin_op(self, kind) -> None:
        self.op_kinds[len(self.spans)] = kind
        self._stack.append(len(self.spans))
        self.spans.append([OP_SPAN, perf_counter(), 0.0, -1])
        self.on = True

    def end_op(self) -> float:
        self.on = False
        span = self.spans[self._stack.pop()]
        span[2] = perf_counter()
        self.keep = []
        self.ops += 1
        return span[2] - span[1]

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("index\tname\tstart\tend\tparent\n")
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\n")


def summarize(spans) -> dict:
    """name -> [calls, self seconds, total seconds]."""
    child = [0.0] * len(spans)
    for _name, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out: dict = {}
    for i, (name, t0, t1, _parent) in enumerate(spans):
        row = out.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += (t1 - t0) - child[i]
        row[2] += t1 - t0
    return out


def evaluator_ms(spans, op_kinds) -> dict:
    """op kind -> [ms in the evaluator entry point, one per op]."""
    out: dict = {}
    for name, t0, t1, parent in spans:
        if parent in op_kinds and name in ("logic.eval_formula", "logic.eval_multiview"):
            out.setdefault(op_kinds[parent], []).append((t1 - t0) * 1000.0)
    return out
