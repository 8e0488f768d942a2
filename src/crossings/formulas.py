"""Named protocol formulas, as ASTs and as direct interval checks.

The AST builders give the exact logic-level formulation of every check the
controllers use (reachable from concrete syntax as ``@ca``, ``@pc(c)``, ...).
Beside them live the direct checks, the one definition of each predicate the
controllers decide on every tick (``check_phinv`` included): the ``geom_*``
functions and the multi-view checks built on them decide the predicates on
projected occupancy runs by the run rules in ``views``, and project only the
cars that can change the verdict: those whose node-local occupancy meets
the ego's, or the window in question, on a shared network node (the broad
phase in ``views``); a free stretch is tested in place on the nodes under
it (``views.stretch_occupied``).  The own-car checks decide on the car's
node entries placed along the multi-view's lane pairs and lay out no view:
``check_ca`` on the first pair, ``check_oc`` on every lane of every pair,
``check_lc`` on both lanes of each pair and on lane entries alone, since
crossing cells on both lanes of a view are no lane change (``geom_oc`` and
``geom_lc`` are the same readings on a view's lanes).  Only ``ph_cars``
reads every car: it asks ``geom_ph`` of each on every view, and each of
those reads that car's runs first.  The monitor judges on the nodes
(``views.collisions``).  ``test_formulas`` pins both routes against each
other on randomized snapshots and on scenes where the guards are true, and
the narrowed checks against all-car scans; ``test_own_car_checks`` pins the
own-car checks against the per-view readings in ``tests/reference.py``.
"""

from __future__ import annotations

import functools
from typing import Optional

from .logic import (
    And,
    Cl,
    Cs,
    Dir,
    Eq,
    Exists,
    Formula,
    Free,
    HChop,
    LenCmp,
    Not,
    Re,
    SetDisjoint,
    TRUE,
    VChop,
    ands,
    chops,
    ors,
    somewhere,
)
from .params import ProtocolParams
from .snapshot import TrafficSnapshot
from .views import (
    EPS,
    Kind,
    MultiView,
    View,
    VirtualLane,
    car_fragment,
    car_runs,
    cars_meeting,
    clipped_crossing_span,
    gaps,
    lane_runs,
    near_fragments,
    node_occupancy,
    occupied,
    overlap_pos,
    stretch_occupied,
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
    return HChop(
        somewhere(VChop(ol_formula(), Re(actor))),
        And(somewhere(VChop(upper, ol_formula())), Dir(c)),
    )


def lc_formula(c: str) -> Formula:
    """c is mid lane change: its reservation covers both lanes off the crossing."""
    return somewhere(And(VChop(Re(c), Re(c)), Not(somewhere(Cs()))))


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


def check_phinv(ts: TrafficSnapshot, mv: MultiView, ego: str, c: str, segments,
                params: ProtocolParams) -> bool:
    """Direct form of ``phinv_formula``, the receiver ``ego`` judging c's
    request for ``segments``: ``lc`` and ``oc`` in any view, ``ca`` on view
    0, and ``csa`` read from the ego's own claimed and reserved segments."""
    s = ts.cars[ego]
    return c != ego and not (s.cclm | s.cres) & frozenset(segments) \
        and (check_oc(ts, mv, ego) or check_ca(ts, mv, ego, params)) \
        and not check_lc(ts, mv, ego)


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


def _oc_on_lanes(ts: TrafficSnapshot, lanes, owner: str, extent, car: str) -> bool:
    """``oc`` of the car as ``owner`` sees it, on virtual lanes laid over
    ``extent``: one of its crossing entries is placed more than EPS inside
    the extent on one of the lanes.  A crossing cell is owned whole, so that
    piece lies in the lane's crossing span; lanes are laid node after node,
    so an entry on a lane node never reaches into it."""
    a, b = extent
    for node, _, _ in node_occupancy(ts, car, owner)[0]:
        if node.is_crossing:
            for vlane in lanes:
                for span in vlane.placements.get(node, ()):
                    if min(span.hi, b) - max(span.lo, a) > EPS:
                        return True
    return False


def geom_oc(ts: TrafficSnapshot, view: View, car: str) -> bool:
    return _oc_on_lanes(ts, view.lanes, view.owner, view.extent, car)


def _lc_on_lanes(ts: TrafficSnapshot, lanes, owner: str, extent, car: str) -> bool:
    """``lc`` of the car as ``owner`` sees it, on two virtual lanes laid over
    ``extent``: its runs on lane nodes (``lane_runs``) overlap.  The upper
    lane is read first: it holds the car's lane runs only mid lane change."""
    upper = lane_runs(ts, lanes[1], owner, extent, car)
    return bool(upper) and overlap_pos(lane_runs(ts, lanes[0], owner, extent, car), upper)


def geom_lc(ts: TrafficSnapshot, view: View, car: str) -> bool:
    return _lc_on_lanes(ts, view.lanes, view.owner, view.extent, car)


def geom_pc(ts: TrafficSnapshot, view: View, ego: str, c: str) -> bool:
    if c == ego:
        return False
    mine = car_fragment(ts, ego, view)
    theirs = car_fragment(ts, c, view)
    for lane in (0, 1):
        claim = mine.get((lane, Kind.CLAIMED))
        if not claim:
            continue
        if overlap_pos(claim, theirs.get((lane, Kind.RESERVED), [])) or \
                overlap_pos(claim, theirs.get((lane, Kind.CLAIMED), [])):
            return True
    return False


def _ca_on_lane(ts: TrafficSnapshot, vlane: VirtualLane, owner: str, extent,
               ego: str, d_c: float) -> bool:
    """Does one of the ego's lane runs on the virtual lane end less than d_c
    before its crossing span, with only free space between?"""
    span = clipped_crossing_span(vlane, extent)
    if span is None:
        return False
    start = span[0]
    for _, hi in lane_runs(ts, vlane, owner, extent, ego):
        if hi < start - EPS and start - hi < d_c - EPS and \
                not stretch_occupied(ts, vlane, owner, extent, hi, start):
            return True
    return False


def _one_lane_slice_ok(fragments, lane: int, p_lo, p_hi, q_lo, q_hi,
                       window_lo, window_hi) -> bool:
    """Can the one-lane condition hold on some [p, q], p in [p_lo, p_hi),
    q in (q_lo, q_hi], inside [window_lo, window_hi]?  Either a free stretch
    fits inside the window or a single reservation/claim interval covers a
    valid [p, q] whole.  Both lie in the window, so the fragments need hold
    only the cars near it."""
    if p_lo >= p_hi - EPS or q_lo >= q_hi - EPS:
        return False
    if gaps(occupied(fragments, lane), window_lo, window_hi):
        return True
    for merged in fragments:
        for kind in (Kind.RESERVED, Kind.CLAIMED):
            for k_lo, k_hi in merged.get((lane, kind), ()):
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
    theirs = car_fragment(ts, c, view)
    if span is None or not theirs:
        return False
    ego_intervals = car_runs(ts, view, ego, 0)
    if not ego_intervals:
        return False
    s1, t1 = span
    p_lo = max(s1, ego_intervals[0][0])  # the cs part starts after some ego reservation
    if p_lo >= t1 - EPS:
        return False
    a, b = view.extent
    for j1, j2 in theirs.get((1, Kind.RESERVED), []):
        if j1 <= t1 + EPS or j1 - t1 >= params.d_c_prime - EPS:
            continue
        window = (max(p_lo, a), min(j2, b))
        if not stretch_occupied(ts, view.lanes[1], view.owner, view.extent, t1, j1) and \
                _one_lane_slice_ok(near_fragments(ts, view, 0, *window), 0,
                                   p_lo, t1, j1, j2, *window):
            return True
    return False


def geom_ph(ts: TrafficSnapshot, view: View, ego: str, c: str,
            params: ProtocolParams) -> bool:
    return c != ego and (geom_oc(ts, view, c) or geom_ocac(ts, view, ego, c, params)) \
        and not geom_lc(ts, view, c)


# ---------------------------------------------------------------------------
# guard checks over a multi-view, used by the controllers

_MISS = object()  # a stored None is a verdict, not a miss


def _per_snapshot(check):
    """Keep a guard check's verdicts in the snapshot's store.

    Guards re-evaluate many times against one snapshot during a micro-step.
    A verdict reads every car, so it is kept per snapshot and keyed on the
    check, the multi-view (one object per car and snapshot) and the rest of
    the call's arguments.
    """

    @functools.wraps(check)
    def kept(ts, mv, *args):
        key = (check, mv, *args)
        hit = ts.cache.get(key, _MISS)
        if hit is _MISS:
            hit = ts.cache[key] = check(ts, mv, *args)
        return hit

    return kept


@_per_snapshot
def pc_cars(ts: TrafficSnapshot, mv: MultiView, ego: str) -> set:
    """Cars in potential collision with the ego claim, in any view.

    Only the cars whose reservations or claims share a node with the ego
    claim are projected (the broad phase in `views`).
    """
    claimed = node_occupancy(ts, ego, mv.owner)[1]
    near = [c for c in cars_meeting(ts, claimed, mv.owner, claims=True) if c != ego]
    out = set()
    if not near:
        return out
    for view in mv.views:
        for c in near:
            if c not in out and geom_pc(ts, view, ego, c):
                out.add(c)
    return out


@_per_snapshot
def ph_cars(ts: TrafficSnapshot, mv: MultiView, ego: str,
            params: ProtocolParams) -> set:
    """Potential helpers for the ego manoeuvre, in any view."""
    out = set()
    for view in mv.views:
        for c in sorted(ts.cars):
            if c != ego and c not in out and geom_ph(ts, view, ego, c, params):
                out.add(c)
    return out


@_per_snapshot
def check_ca(ts: TrafficSnapshot, mv: MultiView, ego: str,
             params: ProtocolParams) -> bool:
    """Crossing-ahead, judged on the lane pair aligned with the ego path
    (view 0's), on the ego's lane entries placed along it.  Its crossing
    entries are left out: they lie in the crossing span and never end
    before it begins.  The upper lane holds lane entries of the ego only
    mid lane change, and is read only when the lower one fails."""
    pair = mv.pairs[0]
    return _ca_on_lane(ts, pair.forward, mv.owner, mv.extent, ego, params.d_c) or \
        _ca_on_lane(ts, pair.backward, mv.owner, mv.extent, ego, params.d_c)


@_per_snapshot
def check_oc(ts: TrafficSnapshot, mv: MultiView, car: str) -> bool:
    """Reservation on a crossing, read from the car's own node entries on
    every lane of the lane pairs (``_oc_on_lanes``)."""
    return _oc_on_lanes(ts, [lane for pair in mv.pairs
                            for lane in (pair.forward, pair.backward)],
                       mv.owner, mv.extent, car)


@_per_snapshot
def check_lc(ts: TrafficSnapshot, mv: MultiView, car: str) -> bool:
    """Mid lane change on some lane pair (``_lc_on_lanes``)."""
    return any(_lc_on_lanes(ts, (pair.forward, pair.backward), mv.owner, mv.extent, car)
               for pair in mv.pairs)


@_per_snapshot
def col_witness(ts: TrafficSnapshot, mv: MultiView, ego: str) -> Optional[tuple]:
    """First (car, view index) whose reservation overlaps the ego's, as the
    ego perceives them.

    Works straight off the per-car fragments: no full evaluation context is
    assembled, and only the rivals, the cars whose reservations meet the
    ego's on a node (the broad phase in `views`), are projected at all.
    """
    reserved = node_occupancy(ts, ego, mv.owner)[0]
    rivals = [c for c in cars_meeting(ts, reserved, mv.owner) if c != ego]
    if not rivals:
        return None
    for idx, view in enumerate(mv.views):
        mine = car_fragment(ts, ego, view)
        for lane_idx in (0, 1):
            ego_runs = mine.get((lane_idx, Kind.RESERVED))
            if not ego_runs:
                continue
            for c in rivals:
                runs = car_fragment(ts, c, view).get((lane_idx, Kind.RESERVED))
                if runs and overlap_pos(ego_runs, runs):
                    return (c, idx)
    return None
