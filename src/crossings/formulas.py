"""Named protocol formulas, as ASTs and as direct interval checks.

The AST builders give the exact logic-level formulation of every check the
controllers use (reachable from concrete syntax as ``@ca``, ``@pc(c)``, ...).
The ``geom_*`` functions compute the same predicates straight from the
projected occupancy intervals; the controller engine and the safety monitor
call these on every tick, so they avoid chop search where the pattern allows
it.  They also project only the cars that can change the verdict: those whose
node-local occupancy meets the ego's, or the stretch in question, on a shared
network node (the broad phase in ``views``).  Only the one-lane condition of
``ph`` builds a full evaluation context over every car.  ``test_formulas``
pins both routes against each other on randomized snapshots, and the narrowed
checks against all-car scans.
"""

from __future__ import annotations

from typing import Optional

from .logic import (
    EPS,
    And,
    Cl,
    Cs,
    Dir,
    Eq,
    EvalContext,
    Exists,
    Formula,
    Free,
    LenCmp,
    Not,
    Re,
    SetDisjoint,
    TRUE,
    _context,
    _intersects_open,
    ands,
    chops,
    ors,
    somewhere,
)
from .params import ProtocolParams
from .snapshot import TrafficSnapshot
from .views import (
    NODE_TOL,
    Kind,
    MultiView,
    View,
    car_fragment,
    cars_meeting,
    merge_runs,
    node_occupancy,
)


def _fresh(taken: str) -> str:
    return "c" if taken != "c" else "c2"


def safe_formula(actor: str = "ego") -> Formula:
    """No other car's reservation overlaps the actor's anywhere."""
    v = _fresh(actor)
    return Not(Exists(v, And(Not(Eq(v, actor)), somewhere(And(Re(actor), Re(v))))))


def col_formula(actor: str = "ego") -> Formula:
    """Some other car's reservation overlaps the actor's."""
    v = _fresh(actor)
    return Exists(v, And(Not(Eq(v, actor)), somewhere(And(Re(actor), Re(v)))))


def pc_formula(c: str, actor: str = "ego") -> Formula:
    """Potential collision: the actor's claim meets c's reservation or claim."""
    return And(Not(Eq(c, actor)), somewhere(And(Cl(actor), ors(Re(c), Cl(c)))))


def oc_formula(c: str) -> Formula:
    """c reserves space on the crossing."""
    return somewhere(And(Re(c), Cs()))


def ol_formula() -> Formula:
    """Exactly one lane, with free space or some car on it (never zero lanes)."""
    v = "olc"
    return ors(chops(TRUE, Free(), TRUE), Exists(v, ors(Re(v), Cl(v))))


def ocac_formula(c: str, params: ProtocolParams, actor: str = "ego") -> Formula:
    """c approaches the crossing from the opposite side within d_c + max_se."""
    gap = ands(Not(somewhere(Cs())), Free(), LenCmp("<", params.d_c_prime))
    upper = chops(Cs(), gap, Re(c))
    from .logic import HChop, VChop

    return HChop(
        somewhere(VChop(ol_formula(), Re(actor))),
        And(somewhere(VChop(upper, ol_formula())), Dir(c)),
    )


def lc_formula(c: str) -> Formula:
    """c is mid lane change: its reservation covers both lanes at one stretch."""
    from .logic import VChop

    return somewhere(VChop(Re(c), Re(c)))


def ph_formula(c: str, params: ProtocolParams, actor: str = "ego") -> Formula:
    """c is a potential helper: on the crossing or approaching, not changing lanes."""
    return ands(
        Not(Eq(c, actor)),
        ors(oc_formula(c), ocac_formula(c, params, actor)),
        Not(lc_formula(c)),
    )


def ca_formula(params: ProtocolParams, actor: str = "ego") -> Formula:
    """A crossing lies ahead within d_c with only free space before it."""
    gap = ands(Free(), LenCmp("<", params.d_c), Not(somewhere(Cs())))
    return somewhere(chops(Re(actor), gap, Cs()))


def phinv_formula(c: str, cs_var: str, params: ProtocolParams) -> Formula:
    """Receiver-side helper check for a crossing request ``(c, cs_var)``.

    The magic variable ``csa`` must be bound to the receiver's own claimed
    plus reserved crossing segments when this is evaluated.
    """
    return ands(
        Not(Eq("ego", c)),
        ors(oc_formula("ego"), ca_formula(params)),
        Not(lc_formula("ego")),
        SetDisjoint("csa", cs_var),
    )


# name -> (builder taking the params and then the arguments, min, max arguments)
_BUILTINS = {
    "safe": (lambda p, *a: safe_formula(*a), 0, 1),
    "col": (lambda p, *a: col_formula(*a), 0, 1),
    "ca": (ca_formula, 0, 1),
    "pc": (lambda p, *a: pc_formula(*a), 1, 2),
    "oc": (lambda p, c: oc_formula(c), 1, 1),
    "ol": (lambda p: ol_formula(), 0, 0),
    "ocac": (lambda p, c, *a: ocac_formula(c, p, *a), 1, 2),
    "lc": (lambda p, c: lc_formula(c), 1, 1),
    "ph": (lambda p, c, *a: ph_formula(c, p, *a), 1, 2),
    "phinv": (lambda p, c, v: phinv_formula(c, v, p), 2, 2),
    "disjoint": (lambda p, u, v: SetDisjoint(u, v), 2, 2),
}


def builtin(name: str, args: list, params: Optional[ProtocolParams]) -> Formula:
    """Resolve an @-builtin reference from the concrete syntax."""
    if name not in _BUILTINS:
        raise KeyError(name)
    build, lo, hi = _BUILTINS[name]
    if not (lo <= len(args) <= hi):
        raise TypeError(f"takes {lo} to {hi} arguments, got {len(args)}")
    return build(params or ProtocolParams(), *args)


# ---------------------------------------------------------------------------
# direct interval checks


def _res(ctx: EvalContext, lane: int, car: str):
    return ctx.by_key.get((lane, Kind.RESERVED, car), [])


def _overlap_pos(a, b) -> bool:
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi - lo > EPS:
            return True
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return False


def _frag_res(ts: TrafficSnapshot, view: View, car: str):
    """Reserved runs per lane of one car, from its fragment alone."""
    merged = car_fragment(ts, car, view).merged
    return [merged.get((lane, Kind.RESERVED), []) for lane in (0, 1)]


def geom_oc(ts: TrafficSnapshot, view: View, car: str) -> bool:
    res = _frag_res(ts, view, car)
    for lane in (0, 1):
        span = view.crossing_span(lane)
        if span and _overlap_pos(res[lane], [span]):
            return True
    return False


def geom_lc(ts: TrafficSnapshot, view: View, car: str) -> bool:
    return _overlap_pos(*_frag_res(ts, view, car))


def geom_pc(ts: TrafficSnapshot, view: View, ego: str, c: str) -> bool:
    if c == ego:
        return False
    mine = car_fragment(ts, ego, view).merged
    theirs = car_fragment(ts, c, view).merged
    for lane in (0, 1):
        claim = mine.get((lane, Kind.CLAIMED))
        if not claim:
            continue
        if _overlap_pos(claim, theirs.get((lane, Kind.RESERVED), [])) or \
                _overlap_pos(claim, theirs.get((lane, Kind.CLAIMED), [])):
            return True
    return False


def _occupied(ts: TrafficSnapshot, view: View, lane: int, lo: float, hi: float):
    """Merged runs, of every kind, of the cars on the nodes whose spans on
    the lane meet [lo, hi]: all of the lane's occupancy that can reach into
    that stretch (the broad phase in `views`)."""
    near = [(s.node, 0.0, ts.net.weights[s.node]) for s in view.lanes[lane].spans
            if s.lo < hi + NODE_TOL and lo < s.hi + NODE_TOL]
    runs = []
    for c in cars_meeting(ts, near, view.owner, claims=True):
        merged = car_fragment(ts, c, view).merged
        runs.extend(merged.get((lane, Kind.RESERVED), ()))
        runs.extend(merged.get((lane, Kind.CLAIMED), ()))
    return merge_runs(runs)


def geom_ca(ts: TrafficSnapshot, view: View, ego: str, d_c: float) -> bool:
    res = _frag_res(ts, view, ego)
    for lane in (0, 1):
        span = view.crossing_span(lane)
        if span is None:
            continue
        start = span[0]
        for lo, hi in res[lane]:
            if hi >= start - EPS or start - hi >= d_c - EPS:
                continue
            if not _intersects_open(_occupied(ts, view, lane, hi, start), hi, start):
                return True
    return False


def _gaps(intervals, lo_bound, hi_bound):
    """Maximal free stretches of [lo_bound, hi_bound] between the intervals."""
    out = []
    cursor = lo_bound
    for lo, hi in intervals:
        if lo > cursor:
            out.append((cursor, min(lo, hi_bound)))
        cursor = max(cursor, hi)
        if cursor >= hi_bound:
            break
    if cursor < hi_bound:
        out.append((cursor, hi_bound))
    return [(lo, hi) for lo, hi in out if hi - lo > EPS]


def _one_lane_slice_ok(ctx: EvalContext, lane: int, p_lo, p_hi, q_lo, q_hi) -> bool:
    """Can the one-lane condition hold on some [p, q], p in [p_lo, p_hi),
    q in (q_lo, q_hi]?  Either a free stretch fits inside the widest window
    or a single reservation/claim interval covers a valid [p, q] whole."""
    if p_lo >= p_hi - EPS or q_lo >= q_hi - EPS:
        return False
    a, b = ctx.extent
    window_lo, window_hi = max(p_lo, a), min(q_hi, b)
    for g_lo, g_hi in _gaps(ctx.any_occ.get(lane, []), window_lo, window_hi):
        if min(g_hi, window_hi) - max(g_lo, window_lo) > EPS:
            return True
    for (lane_i, _kind, _car), intervals in ctx.by_key.items():
        if lane_i != lane:
            continue
        for k_lo, k_hi in intervals:
            if max(k_lo, p_lo) < p_hi - EPS and k_hi > q_lo + EPS:
                return True
    return False


def geom_ocac(ts: TrafficSnapshot, view: View, ego: str, c: str,
              params: ProtocolParams) -> bool:
    """Direct form of the opposing-approacher pattern.

    On the upper lane: crossing cells, then a free stretch shorter than
    d_c + max_se, then c's perceived reservation, with c heading along its
    lane.  The lower lane must carry the ego reservation earlier on and
    satisfy the one-lane condition beside the pattern.
    """
    if c == ego or not ts.cars[c].heading_with_lane:
        return False
    span = view.crossing_span(1)
    if span is None or not car_fragment(ts, c, view).intervals:
        return False
    ego_intervals = _frag_res(ts, view, ego)[0]
    if not ego_intervals:
        return False
    ctx = _context(ts, view)
    s1, t1 = span
    min_lo = min(lo for lo, _ in ego_intervals)
    p_lo = max(s1, min_lo)  # the cs part starts after some ego reservation
    if p_lo >= t1 - EPS:
        return False
    for j1, j2 in _res(ctx, 1, c):
        if j1 <= t1 + EPS or j1 - t1 >= params.d_c_prime - EPS:
            continue
        if _intersects_open(ctx.any_occ.get(1, []), t1, j1):
            continue
        if _one_lane_slice_ok(ctx, 0, p_lo, t1, j1, j2):
            return True
    return False


def geom_ph(ts: TrafficSnapshot, view: View, ego: str, c: str,
            params: ProtocolParams) -> bool:
    if c == ego:
        return False
    if geom_lc(ts, view, c):
        return False
    return geom_oc(ts, view, c) or geom_ocac(ts, view, ego, c, params)


# ---------------------------------------------------------------------------
# guard checks over a multi-view, used by the controllers and the monitor
#
# Guards re-evaluate many times against one snapshot during a micro-step, so
# each verdict is kept in the snapshot's store.


def _verdict(ts, mv, key, compute):
    full = (id(mv),) + key
    hit = ts.cache.get(full)
    if hit is not None:
        return hit[1]
    value = compute()
    ts.cache[full] = (mv, value)  # the multi-view pins the id in the key
    return value


def pc_cars(ts: TrafficSnapshot, mv: MultiView, ego: str) -> set:
    """Cars in potential collision with the ego claim, in any view.

    Only the cars whose reservations or claims share a node with the ego
    claim are projected (the broad phase in `views`).
    """

    def compute():
        claimed = node_occupancy(ts, ego, mv.owner)[1]
        near = cars_meeting(ts, claimed, mv.owner, claims=True)
        out = set()
        for view in mv.views:
            for c in near:
                if c != ego and c not in out and geom_pc(ts, view, ego, c):
                    out.add(c)
        return out

    return _verdict(ts, mv, ("pc", ego), compute)


def ph_cars(ts: TrafficSnapshot, mv: MultiView, ego: str,
            params: ProtocolParams) -> set:
    """Potential helpers for the ego manoeuvre, in any view."""

    def compute():
        out = set()
        for view in mv.views:
            for c in sorted(ts.cars):
                if c != ego and c not in out and geom_ph(ts, view, ego, c, params):
                    out.add(c)
        return out

    return _verdict(ts, mv, ("ph", ego), compute)


def check_ca(ts: TrafficSnapshot, mv: MultiView, ego: str,
             params: ProtocolParams) -> bool:
    """Crossing-ahead, judged on the view aligned with the ego path."""
    if not mv.views:
        return False
    return _verdict(
        ts, mv, ("ca", ego),
        lambda: geom_ca(ts, mv.views[0], ego, params.d_c),
    )


def check_oc(ts: TrafficSnapshot, mv: MultiView, car: str) -> bool:
    """Reservation on a crossing, read from the car's own fragments only."""
    return _verdict(ts, mv, ("oc", car),
                    lambda: any(geom_oc(ts, v, car) for v in mv.views))


def check_lc(ts: TrafficSnapshot, mv: MultiView, car: str) -> bool:
    """Mid lane change, read from the car's own fragments only."""
    return _verdict(ts, mv, ("lc", car),
                    lambda: any(geom_lc(ts, v, car) for v in mv.views))


def col_witness(ts: TrafficSnapshot, mv: MultiView, ego: str,
                ground_truth: bool = False) -> Optional[tuple]:
    """First (car, view index) whose reservation overlaps the ego's.

    Works straight off the per-car fragments: the monitor calls this for
    every car on every tick, so no full evaluation context is assembled, and
    only the rivals, the cars whose reservations meet the ego's on a node
    (the broad phase in `views`), are projected at all.
    """

    def compute():
        reserved = node_occupancy(ts, ego, mv.owner, ground_truth)[0]
        rivals = [c for c in cars_meeting(ts, reserved, mv.owner, ground_truth)
                  if c != ego]
        if not rivals:
            return None
        for idx, view in enumerate(mv.views):
            mine = car_fragment(ts, ego, view, ground_truth).merged
            for lane_idx in (0, 1):
                ego_runs = mine.get((lane_idx, Kind.RESERVED))
                if not ego_runs:
                    continue
                for c in rivals:
                    runs = car_fragment(ts, c, view, ground_truth).merged.get(
                        (lane_idx, Kind.RESERVED))
                    if runs and _overlap_pos(ego_runs, runs):
                        return (c, idx)
        return None

    return _verdict(ts, mv, ("col", ego, ground_truth), compute)
