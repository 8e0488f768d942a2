"""The crossing, helper and road controllers, as declarations only.

The crossing controller claims the segments of the upcoming intersection,
probes for potential collisions and helpers, asks the helpers over the
``cross`` channel when it cannot see far enough itself, and reserves only
after every potential helper vouched with a ``yes``.  Helpers answer from
their own local knowledge (their own claimed/reserved segments), decline
conflicts immediately and guard an enquirer they committed to against third
cars.  The road controller here is reduced to withdrawing lane claims near a
crossing; overtaking is not modelled.

Nothing here decides a predicate: a spatial guard calls its direct check in
`formulas` (``phinv`` included), and a clock guard names the `ProtocolParams`
fields whose sum bounds it, read once from the controller's ``params``.
"""

from __future__ import annotations

from functools import partial

from .automata import (
    ControllerDefinition,
    Guard,
    InputSpec,
    OutputSpec,
    Transition,
    clock_guard,
    g_and,
    g_not,
    g_or,
)
from .comm import Bus
from .formulas import (check_ca, check_lc, check_oc, check_phinv, col_witness, pc_cars,
                       ph_cars)
from .params import ProtocolParams
from .snapshot import ActionKind


def standard_channels(bus: Bus) -> None:
    bus.declare_channel("cross", 2)   # (car, crossing segments)
    bus.declare_channel("yes", 2)     # (enquirer, helper)
    bus.declare_channel("no", 1)      # (car)
    bus.declare_channel("finished", 1)  # (car)


# -- spatial guards ----------------------------------------------------------
# (each calls its `formulas` check through this module's global name, so a
# rebinding of that name reaches the guard too)

G_CA = Guard("ca(ego)", lambda env: check_ca(env.ts, env.mv, env.car, env.params))
G_PC_ANY = Guard("E c: pc(c)", lambda env: bool(pc_cars(env.ts, env.mv, env.car)))
G_PH_ANY = Guard("E c: ph(c)",
                 lambda env: bool(ph_cars(env.ts, env.mv, env.car, env.params)))
G_UNANSWERED = Guard(
    "E c in I\\H: ph(c)",
    lambda env: bool(ph_cars(env.ts, env.mv, env.car, env.params) - env.data["H"]),
)
G_LC = Guard("lc(ego)", lambda env: check_lc(env.ts, env.mv, env.car))
G_COL = Guard("col(ego)", lambda env: col_witness(env.ts, env.mv, env.car) is not None)
G_OC = Guard("oc(ego)", lambda env: check_oc(env.ts, env.mv, env.car))
G_PHINV_STORED = Guard(
    "phinv(h, cs_h)",
    lambda env: check_phinv(env.ts, env.mv, env.car, env.data["h"], env.data["cs_h"],
                            env.params),
)


def crossing_controller(params: ProtocolParams) -> ControllerDefinition:
    """Crossing manoeuvre protocol.

    q0 safe, q1/q2 crossing ahead (claiming), q3 waiting for helper answers,
    q4/q5 on the crossing (with and without helpers involved).

    A failed claim cycle (``q2 -> q1`` on a potential collision, ``q3 -> q1``
    on a ``no`` or a helper timeout) backs off one answer window: it resets
    ``x`` and sets ``failed``, and ``q1 -> q2`` waits for ``x >= t_w`` while
    ``failed`` holds.  ``q0 -> q1`` clears ``failed``, so the first claim
    after entering q1 does not wait.  The paper's controller re-claims at
    once; the stronger guard only removes runs, and q1's invariant ``ca``
    still holds while the car waits.
    """
    x = partial(clock_guard, params)
    invariants = {
        "q0": g_not(G_COL),
        "q1": G_CA,
        "q2": g_and(G_CA, x("<=", "t_o")),
        "q3": g_and(G_CA, g_not(G_PC_ANY), x("<=", "t_w")),
        "q4": g_and(x("<=", "t_cr"), G_OC),
        "q5": g_and(x("<=", "t_cr"), G_OC),
    }
    send_cross = OutputSpec("cross", lambda env: (env.car, env.ts.cars[env.car].cclm))
    send_finished = OutputSpec("finished", lambda env: (env.car,))
    not_failed = Guard("!failed", lambda env: not env.data["failed"])
    set_failed = (("failed", lambda env: True),)
    transitions = (
        Transition("q0", "q1", "crossing ahead", guard=G_CA,
                   updates=(("failed", lambda env: False),)),
        Transition("q1", "q2", "claim crossing",
                   guard=g_or(not_failed, x(">=", "t_w")),
                   actions=(ActionKind.CLAIM_CROSSING,), reset=True),
        Transition("q2", "q1", "potential collision", guard=G_PC_ANY,
                   actions=(ActionKind.WITHDRAW_CLAIM_CROSSING,), updates=set_failed,
                   reset=True),
        Transition(
            "q2", "q5", "reserve without helpers",
            guard=g_and(g_not(G_PC_ANY), g_not(G_PH_ANY), g_not(G_LC)),
            actions=(ActionKind.RESERVE_CROSSING,), reset=True,
        ),
        Transition(
            "q2", "q3", "ask helpers",
            guard=g_and(G_PH_ANY, g_not(G_PC_ANY), g_not(G_LC)),
            outputs=(send_cross,),
            updates=(("H", lambda env: frozenset()),),
            reset=True,
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
            actions=(ActionKind.WITHDRAW_CLAIM_CROSSING,), outputs=(send_finished,),
            updates=set_failed, reset=True,
        ),
        Transition(
            "q3", "q4", "all helpers answered",
            guard=g_and(
                x(">=", "t_w"),
                g_not(G_UNANSWERED), g_not(G_PC_ANY), g_not(G_LC),
            ),
            actions=(ActionKind.RESERVE_CROSSING,), reset=True,
        ),
        Transition(
            "q3", "q1", "helper timeout",
            guard=g_and(x(">=", "t_w"), G_UNANSWERED),
            actions=(ActionKind.WITHDRAW_CLAIM_CROSSING,), outputs=(send_finished,),
            updates=set_failed, reset=True,
        ),
        Transition(
            "q4", "q0", "manoeuvre finished",
            guard=x(">=", "t_cr"),
            actions=(ActionKind.WITHDRAW_RESERVE_CROSSING,), outputs=(send_finished,),
        ),
        Transition(
            "q5", "q0", "manoeuvre finished",
            guard=x(">=", "t_cr"),
            actions=(ActionKind.WITHDRAW_RESERVE_CROSSING,),
        ),
    )
    return ControllerDefinition(
        name="crossing",
        initial="q0",
        invariants=invariants,
        transitions=transitions,
        data0={"H": frozenset(), "failed": False},
    )


def helper_controller(params: ProtocolParams) -> ControllerDefinition:
    """Answering side of the crossing protocol.

    q0 idle; q1/q3/q5 are urgent decline states; q2 committing to an
    enquirer (answer due within t); q4 guarding the enquirer's manoeuvre.
    """
    x = partial(clock_guard, params)
    conflict_guard = Guard(
        "c != a & cs n cs_a != {}",
        lambda env: env.data["c"] != env.car
        and bool(frozenset(env.data["cs"])
                 & (env.ts.cars[env.car].cclm | env.ts.cars[env.car].cres)),
    )
    phinv_guard = Guard(
        "phinv(c, cs)",
        lambda env: check_phinv(env.ts, env.mv, env.car, env.data["c"], env.data["cs"],
                                env.params),
    )
    third_conflict = Guard(
        "c != h & cs_h n cs != {}",
        lambda env: env.data["c"] != env.data["h"]
        and bool(frozenset(env.data["cs"]) & frozenset(env.data["cs_h"])),
    )
    finished_from_h = Guard("c = h", lambda env: env.data["c"] == env.data["h"])
    send_no_d = OutputSpec("no", lambda env: (env.data["d"],))
    send_no_h = OutputSpec("no", lambda env: (env.data["h"],))
    send_yes = OutputSpec("yes", lambda env: (env.data["h"], env.car))

    invariants = {
        "q2": g_and(G_PHINV_STORED, x("<", "t")),
        "q4": g_and(G_PHINV_STORED,
                    x("<=", "t_w", "t_cr")),
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
            reset=True,
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
            guard=g_and(G_PHINV_STORED, x("<", "t")),
            outputs=(send_yes,), reset=True,
        ),
        Transition(
            "q2", "q0", "cannot help",
            guard=g_or(x(">=", "t"), g_not(G_PHINV_STORED)),
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
                       x(">=", "t_cr", "t_w")),
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
    """Withdraws a lane claim once its car is near a crossing.

    No action claims a lane: claims come only from scenario text.  The
    lane-change behaviour between intersections is out of scope; only the
    crossing-zone restriction is kept.
    """
    has_claim = Guard("clm != {}", lambda env: bool(env.ts.cars[env.car].clm))
    transitions = (
        Transition("idle", "hold", "crossing zone entered", guard=G_CA),
        Transition("hold", "hold", "withdraw lane claim",
                   guard=has_claim, actions=(ActionKind.WITHDRAW_CLAIM_LANE,)),
        Transition("hold", "idle", "crossing zone left", guard=g_not(G_CA)),
    )
    return ControllerDefinition(
        name="road",
        initial="idle",
        invariants={},
        transitions=transitions,
    )
