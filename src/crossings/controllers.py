"""The crossing, helper and road controllers.

The crossing controller claims the segments of the upcoming intersection,
probes for potential collisions and helpers, asks the helpers over the
``cross`` channel when it cannot see far enough itself, and reserves only
after every potential helper vouched with a ``yes``.  Helpers answer from
their own local knowledge (their own claimed/reserved segments), decline
conflicts immediately and guard an enquirer they committed to against third
cars.  The road controller here is reduced to withdrawing lane claims near a
crossing; overtaking is not modelled.
"""

from __future__ import annotations

from .automata import (
    ControllerDefinition,
    ActionSpec,
    Guard,
    GuardEnv,
    InputSpec,
    OutputSpec,
    Transition,
    clock_ge,
    clock_le,
    clock_lt,
    g_and,
    g_not,
    g_or,
)
from .comm import Bus
from .formulas import check_ca, check_lc, check_oc, col_witness, pc_cars, ph_cars
from .params import ProtocolParams
from .snapshot import Action, ActionKind


def standard_channels(bus: Bus) -> None:
    bus.declare_channel("cross", 2)   # (car, crossing segments)
    bus.declare_channel("yes", 2)     # (enquirer, helper)
    bus.declare_channel("no", 1)      # (car)
    bus.declare_channel("finished", 1)  # (car)


# -- spatial guards ----------------------------------------------------------

def _ca(env: GuardEnv) -> bool:
    return check_ca(env.ts, env.mv, env.car, env.params)


def _pc_any(env: GuardEnv) -> bool:
    return bool(pc_cars(env.ts, env.mv, env.car))


def _ph_any(env: GuardEnv) -> bool:
    return bool(ph_cars(env.ts, env.mv, env.car, env.params))


def _unanswered_ph(env: GuardEnv) -> bool:
    return bool(ph_cars(env.ts, env.mv, env.car, env.params) - env.data["H"])


def _lc_self(env: GuardEnv) -> bool:
    return check_lc(env.ts, env.mv, env.car)


def _col_self(env: GuardEnv) -> bool:
    return col_witness(env.ts, env.mv, env.car) is not None


def _oc_self(env: GuardEnv) -> bool:
    return check_oc(env.ts, env.mv, env.car)


G_CA = Guard("ca(ego)", _ca)
G_PC_ANY = Guard("E c: pc(c)", _pc_any)
G_PH_ANY = Guard("E c: ph(c)", _ph_any)
G_UNANSWERED = Guard("E c in I\\H: ph(c)", _unanswered_ph)
G_LC = Guard("lc(ego)", _lc_self)
G_COL = Guard("col(ego)", _col_self)
G_OC = Guard("oc(ego)", _oc_self)


def phinv_holds(env: GuardEnv, enquirer, segments) -> bool:
    """Receiver-side potential-helper check for a crossing request."""
    if enquirer == env.car:
        return False
    if env.cs_own() & frozenset(segments):
        return False
    if check_lc(env.ts, env.mv, env.car):
        return False
    return check_oc(env.ts, env.mv, env.car) or check_ca(env.ts, env.mv, env.car, env.params)


def _phinv_stored(env: GuardEnv) -> bool:
    return phinv_holds(env, env.data["h"], env.data["cs_h"])


G_PHINV_STORED = Guard("phinv(h, cs_h)", _phinv_stored)


# -- actions -----------------------------------------------------------------

def _simple_action(kind: ActionKind) -> ActionSpec:
    return ActionSpec(kind.value, lambda env, _k=kind: Action(_k))


ACT_CC = _simple_action(ActionKind.CLAIM_CROSSING)
ACT_WD_CC = _simple_action(ActionKind.WITHDRAW_CLAIM_CROSSING)
ACT_RC = _simple_action(ActionKind.RESERVE_CROSSING)
ACT_WD_RC = _simple_action(ActionKind.WITHDRAW_RESERVE_CROSSING)
ACT_WD_CL = ActionSpec(
    "wd cl",
    lambda env: Action(ActionKind.WITHDRAW_CLAIM_LANE)
    if env.ts.cars[env.car].clm
    else None,
)


def crossing_controller(params: ProtocolParams) -> ControllerDefinition:
    """Crossing manoeuvre protocol.

    q0 safe, q1/q2 crossing ahead (claiming), q3 waiting for helper answers,
    q4/q5 on the crossing (with and without helpers involved).
    """
    invariants = {
        "q0": g_not(G_COL),
        "q1": G_CA,
        "q2": g_and(G_CA, clock_le("x", lambda p: p.t_o, "t_o")),
        "q3": g_and(G_CA, g_not(G_PC_ANY), clock_le("x", lambda p: p.t_w, "t_w")),
        "q4": g_and(clock_le("x", lambda p: p.t_cr, "t_cr"), G_OC),
        "q5": g_and(clock_le("x", lambda p: p.t_cr, "t_cr"), G_OC),
    }
    send_cross = OutputSpec(
        "cross", lambda env: (env.car, env.ts.cars[env.car].cclm), "cross!(ego, cs)"
    )
    send_finished = OutputSpec("finished", lambda env: (env.car,), "finished!ego")
    transitions = (
        Transition("q0", "q1", "crossing ahead", guard=G_CA),
        Transition("q1", "q2", "claim crossing", actions=(ACT_CC,), resets=("x",)),
        Transition("q2", "q1", "potential collision", guard=G_PC_ANY,
                   actions=(ACT_WD_CC,)),
        Transition(
            "q2", "q5", "reserve without helpers",
            guard=g_and(g_not(G_PC_ANY), g_not(G_PH_ANY), g_not(G_LC)),
            actions=(ACT_RC,), resets=("x",),
        ),
        Transition(
            "q2", "q3", "ask helpers",
            guard=g_and(G_PH_ANY, g_not(G_PC_ANY), g_not(G_LC)),
            outputs=(send_cross,),
            updates=(("H", lambda env: frozenset()),),
            resets=("x",),
        ),
        Transition(
            "q3", "q3", "collect yes",
            input=InputSpec("yes", ("c", "d"),
                            Guard("c = ego", lambda env: env.data["c"] == env.car)),
            updates=(("H", lambda env: env.data["H"] | {env.data["d"]}),),
        ),
        Transition(
            "q3", "q1", "no received",
            input=InputSpec("no", ("c",),
                            Guard("c = ego", lambda env: env.data["c"] == env.car)),
            actions=(ACT_WD_CC,), outputs=(send_finished,),
        ),
        Transition(
            "q3", "q4", "all helpers answered",
            guard=g_and(
                clock_ge("x", lambda p: p.t_w, "t_w"),
                g_not(G_UNANSWERED), g_not(G_PC_ANY), g_not(G_LC),
            ),
            actions=(ACT_RC,), resets=("x",),
        ),
        Transition(
            "q3", "q1", "helper timeout",
            guard=g_and(clock_ge("x", lambda p: p.t_w, "t_w"), G_UNANSWERED),
            actions=(ACT_WD_CC,), outputs=(send_finished,),
        ),
        Transition(
            "q4", "q0", "manoeuvre finished",
            guard=clock_ge("x", lambda p: p.t_cr, "t_cr"),
            actions=(ACT_WD_RC,), outputs=(send_finished,),
        ),
        Transition(
            "q5", "q0", "manoeuvre finished",
            guard=clock_ge("x", lambda p: p.t_cr, "t_cr"),
            actions=(ACT_WD_RC,),
        ),
    )
    return ControllerDefinition(
        name="crossing",
        initial="q0",
        invariants=invariants,
        transitions=transitions,
        data0={"H": frozenset()},
    )


def helper_controller(params: ProtocolParams) -> ControllerDefinition:
    """Answering side of the crossing protocol.

    q0 idle; q1/q3/q5 are urgent decline states; q2 committing to an
    enquirer (answer due within t); q4 guarding the enquirer's manoeuvre.
    """
    conflict_guard = Guard(
        "c != a & cs n cs_a != {}",
        lambda env: env.data["c"] != env.car
        and bool(frozenset(env.data["cs"]) & env.cs_own()),
    )
    phinv_guard = Guard(
        "phinv(c, cs)",
        lambda env: phinv_holds(env, env.data["c"], env.data["cs"]),
    )
    third_conflict = Guard(
        "c != h & cs_h n cs != {}",
        lambda env: env.data["c"] != env.data["h"]
        and bool(frozenset(env.data["cs"]) & frozenset(env.data["cs_h"])),
    )
    finished_from_h = Guard("c = h", lambda env: env.data["c"] == env.data["h"])
    send_no_d = OutputSpec("no", lambda env: (env.data["d"],), "no!d")
    send_no_h = OutputSpec("no", lambda env: (env.data["h"],), "no!h")
    send_yes = OutputSpec("yes", lambda env: (env.data["h"], env.car), "yes!(h, a)")

    invariants = {
        "q2": g_and(G_PHINV_STORED, clock_lt("x", lambda p: p.t, "t")),
        "q4": g_and(G_PHINV_STORED,
                    clock_le("x", lambda p: p.t_w + p.t_cr, "t_w + t_cr")),
    }
    transitions = (
        Transition(
            "q0", "q1", "initial request conflicts",
            input=InputSpec("cross", ("c", "cs"), conflict_guard),
            updates=(("d", lambda env: env.data["c"]),),
        ),
        Transition(
            "q0", "q2", "initial request accepted",
            input=InputSpec("cross", ("c", "cs"), phinv_guard),
            updates=(
                ("h", lambda env: env.data["c"]),
                ("cs_h", lambda env: frozenset(env.data["cs"])),
            ),
            resets=("x",),
        ),
        Transition("q1", "q0", "decline", outputs=(send_no_d,)),
        Transition(
            "q2", "q0", "enquirer finished early",
            input=InputSpec("finished", ("c",), finished_from_h),
            outputs=(send_no_h,),
        ),
        Transition(
            "q2", "q3", "conflicting third request",
            input=InputSpec("cross", ("c", "cs"), third_conflict),
            updates=(("d", lambda env: env.data["c"]),),
        ),
        Transition(
            "q2", "q4", "commit with yes",
            guard=g_and(G_PHINV_STORED, clock_lt("x", lambda p: p.t, "t")),
            outputs=(send_yes,), resets=("x",),
        ),
        Transition(
            "q2", "q0", "cannot help",
            guard=g_or(clock_ge("x", lambda p: p.t, "t"), g_not(G_PHINV_STORED)),
            outputs=(send_no_h,),
        ),
        Transition("q3", "q2", "decline", outputs=(send_no_d,)),
        Transition(
            "q4", "q5", "conflicting third request",
            input=InputSpec("cross", ("c", "cs"), third_conflict),
            updates=(("d", lambda env: env.data["c"]),),
        ),
        Transition(
            "q4", "q0", "enquirer finished",
            input=InputSpec("finished", ("c",), finished_from_h),
        ),
        Transition(
            "q4", "q0", "helping expired",
            guard=g_or(g_not(G_PHINV_STORED),
                       clock_ge("x", lambda p: p.t_cr + p.t_w, "t_cr + t_w")),
        ),
        Transition("q5", "q4", "decline", outputs=(send_no_d,)),
    )
    return ControllerDefinition(
        name="helper",
        initial="q0",
        invariants=invariants,
        transitions=transitions,
        data0={"h": None, "cs_h": frozenset(), "d": None},
    )


def road_controller_stub() -> ControllerDefinition:
    """Withdraws lane claims near a crossing and inhibits new ones there.

    The lane-change behaviour between intersections is out of scope; only
    the crossing-zone restriction is kept.
    """
    has_claim = Guard("clm != {}", lambda env: bool(env.ts.cars[env.car].clm))
    transitions = (
        Transition("idle", "hold", "crossing zone entered", guard=G_CA),
        Transition("hold", "hold", "withdraw lane claim",
                   guard=has_claim, actions=(ACT_WD_CL,)),
        Transition("hold", "idle", "crossing zone left", guard=g_not(G_CA)),
    )
    return ControllerDefinition(
        name="road",
        initial="idle",
        invariants={},
        transitions=transitions,
    )
