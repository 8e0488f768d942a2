"""Local views: straightened virtual lane pairs around an ego car.

A view flattens the bent geometry at an intersection into two parallel
virtual lanes sharing one coordinate axis (ego-path coordinates: 0 is the
start of the node the ego rear is on).  The multi-view bundles one such
window per approach road of the upcoming intersection but the one the ego
path enters it from, so that cars hidden from one window appear in a
sibling window; view 0 runs toward the road the path leaves it by.  A
multi-view holds the car's lane pairs and lays its views out when they are
first read (``MultiView``).  Here
alone live what each car perceives (``node_occupancy``), the monitor's
ground truth on the network nodes (``collisions``), a car's projection on a
view (``car_fragment``: merged runs per lane and kind), the broad phase and
the rules on occupancy runs (from ``merge_runs`` on); ``formulas`` and
``logic`` decide predicates.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import IntEnum
from typing import Optional

from .network import NodeId, Topology, shortest_directed_path
from .snapshot import PathExhausted, TrafficSnapshot, physical_extent, safety_envelope

EPS = 1e-9  # interval ends closer than this count as touching


class Kind(IntEnum):
    RESERVED = 0
    CLAIMED = 1


@dataclass(frozen=True)
class Span:
    """Placement of one node on a view axis.

    ``reversed`` marks nodes whose own coordinates run against the axis
    (lanes of the opposite driving direction).
    """

    node: NodeId
    lo: float
    hi: float
    reversed: bool = False


@dataclass(frozen=True, eq=False)
class VirtualLane:
    """One straightened lane of a view.  Lanes are built once per path
    position and kept on the topology, so they compare by identity, and
    derived state keyed on a lane holds it for as long as the entry lives."""

    nodes: tuple[NodeId, ...]
    spans: tuple[Span, ...]

    def __post_init__(self):
        pieces = [s for s in self.spans if s.node.is_crossing]
        raw = (min(p.lo for p in pieces), max(p.hi for p in pieces)) \
            if pieces else None
        object.__setattr__(self, "raw_crossing_span", raw)
        placements: dict = {}  # node -> its spans on this lane
        for span in self.spans:
            placements.setdefault(span.node, []).append(span)
        object.__setattr__(self, "placements", placements)


@dataclass(frozen=True)
class View:
    owner: str
    lanes: tuple[VirtualLane, VirtualLane]  # index 0 below (ego side), 1 above
    extent: tuple[float, float]
    target: str = ""  # road segment this window runs into

    def crossing_span(self, lane_idx: int) -> Optional[tuple[float, float]]:
        """Clipped span covered by crossing segments on one virtual lane."""
        return clipped_crossing_span(self.lanes[lane_idx], self.extent)


def clipped_crossing_span(vlane: VirtualLane, extent) -> Optional[tuple[float, float]]:
    """The span covered by crossing segments on a virtual lane, clipped to
    the extent; None when nothing of it is left."""
    raw = vlane.raw_crossing_span
    if raw is None:
        return None
    lo, hi = max(raw[0], extent[0]), min(raw[1], extent[1])
    return (lo, hi) if hi > lo else None


class MultiView:
    """One car's views, all sharing the extent X = [pos - h_b, pos + h_f];
    built once per car and snapshot, compared by identity.

    It holds the car's lane pairs, as the topology keeps them, and the
    extent; its views are laid out on the first read of ``views``, so a
    check that decides on the car's own nodes and the lane pairs lays out
    none.
    """

    def __init__(self, owner: str, pairs: tuple, extent: tuple):
        self.owner = owner
        self.pairs = pairs
        self.extent = extent

    @functools.cached_property
    def views(self) -> tuple:
        return tuple(View(owner=self.owner, lanes=(p.forward, p.backward),
                          extent=self.extent, target=p.target) for p in self.pairs)


@dataclass(frozen=True)
class LanePair:
    forward: VirtualLane
    backward: VirtualLane
    target: str


def _first_crossing_ahead(ts, s):
    """(index, distance from rear to its entry) of the next crossing segment."""
    dist = ts.net.weights[s.node] - s.pos
    for j in range(s.curr + 1, len(s.path)):
        if s.path[j].is_crossing:
            return j, dist
        dist += ts.net.weights[s.path[j]]
    return None, None


def _last_crossing_behind(ts, s):
    """(index, distance from its exit back to the rear) of the crossing the
    car most recently traversed."""
    dist = s.pos
    for j in range(s.curr - 1, -1, -1):
        if s.path[j].is_crossing:
            return j, dist
        dist += ts.net.weights[s.path[j]]
    return None, None


def _lay_forward(topo, nodes, start):
    spans = []
    x = start
    for n in nodes:
        w = topo.net.weights[n]
        spans.append(Span(n, x, x + w, reversed=False))
        x += w
    return tuple(spans)


def _lay_backward(topo, nodes, entry_boundary):
    """Backward lane layout: ego-side lane right-aligned at the entry boundary."""
    first = nodes[0]
    w0 = topo.net.weights[first]
    spans = [Span(first, entry_boundary - w0, entry_boundary, reversed=True)]
    x = entry_boundary
    for n in nodes[1:]:
        w = topo.net.weights[n]
        spans.append(Span(n, x, x + w, reversed=True))
        x += w
    return tuple(spans)


def virtual_lanes(topo: Topology, ts: TrafficSnapshot, e: str,
                  h_f: float = float("inf"),
                  h_b: float = float("inf")) -> tuple[LanePair, ...]:
    """Straightened lane pairs for the ego car.

    One pair per approach road of the relevant intersection (the one ahead
    within h_f, the one under the car, or the one just traversed within
    h_b), but the road the path enters it from (the u-turn direction).  With
    no crossing in reach the result is the single pair of ego's own road
    segment.  The forward lane always begins at ego's anchor lane; the
    backward lane is aligned with it at the anchor lane's end.
    """
    if e not in ts.cars:
        raise KeyError(f"unknown car {e}")
    s = ts.cars[e]

    def anchor_before(idx):
        for j in range(idx - 1, -1, -1):
            if s.path[j].is_lane:
                return j
        return None

    cr = None
    anchor_idx = None
    if s.node.is_crossing:
        anchor_idx = anchor_before(s.curr)
        if anchor_idx is None:
            raise ValueError(f"{e} is on a crossing with no entry lane in its path")
        cr = topo.intersection_of[s.node]
    else:
        j, dist = _first_crossing_ahead(ts, s)
        if j is not None and dist <= h_f:
            anchor_idx = s.curr
            cr = topo.intersection_of[s.path[j]]
        else:
            k, behind = _last_crossing_behind(ts, s)
            if k is not None and behind <= h_b:
                anchor_idx = anchor_before(k)
                cr = topo.intersection_of[s.path[k]]

    if cr is None or anchor_idx is None:
        return _own_path_pair(topo, (s.node,), 0, 0)
    pairs = _crossing_pairs(topo, s.path, anchor_idx, s.curr, cr.id)
    if pairs:
        return pairs
    # partial topologies can leave no closed pair through the crossing;
    # fall back to a window along the car's own path so it is never blind
    return _own_path_pair(topo, s.path, anchor_idx, s.curr)


def _on_topology(build):
    """Keep a lane-pair builder's results in the topology's store.

    Lane geometry depends only on the topology and the ego path (anchor,
    current node, intersection), never on car positions, so a car's pairs
    are built once per path position, not per tick, and go with the topology.
    """

    def memoized(topo, *args):
        key = (build, *args)
        hit = topo.cache.get(key)
        if hit is None:
            hit = topo.cache[key] = build(topo, *args)
        return hit

    return memoized


@_on_topology
def _own_path_pair(topo, path, anchor_idx, curr):
    net = topo.net
    anchor = path[anchor_idx]
    end = anchor_idx + 1
    while end < len(path) and path[end].is_crossing:
        end += 1
    nodes = path[anchor_idx:min(end + 1, len(path))]
    anchor_start = -sum(net.weights[path[j]] for j in range(anchor_idx, curr))
    partner = net.lane_partner(anchor)
    fwd = VirtualLane(nodes, _lay_forward(topo, nodes, anchor_start))
    bwd = VirtualLane((partner,), _lay_backward(topo, (partner,),
                                                anchor_start + net.weights[anchor]))
    exit_lane = nodes[-1] if nodes[-1].is_lane else anchor
    return (LanePair(fwd, bwd, topo.segment_of[exit_lane].id),)


@_on_topology
def _crossing_pairs(topo, path, anchor_idx, curr, cr_id):
    net = topo.net
    anchor = path[anchor_idx]
    anchor_start = -sum(net.weights[path[j]] for j in range(anchor_idx, curr))
    partner = net.lane_partner(anchor)
    entry = anchor_idx  # the lane from which the path enters the crossing
    while path[entry + 1].is_lane:
        entry += 1
    approaches = sorted(topo.pre_segments(cr_id) - {topo.segment_of[path[entry]].id})
    # the road the path leaves by comes first, the others by id
    own_exit = next((topo.segment_of[n].id for n in path[entry + 1:]
                     if n.is_lane and topo.segment_of[n].id in approaches), None)
    approaches.sort(key=lambda r: r != own_exit)

    seg_lanes = {seg.id: seg.lanes for seg in topo.segments}
    entry_boundary = anchor_start + net.weights[anchor]
    pairs = []
    for rj in approaches:
        fwd_nodes = shortest_directed_path(net, anchor, seg_lanes[rj], "forwards")
        bwd_directed = shortest_directed_path(net, partner, seg_lanes[rj],
                                              "backwards")
        if fwd_nodes is None or bwd_directed is None:
            continue  # one-way feeder, no closed pair through the crossing
        bwd_nodes = tuple(reversed(bwd_directed))
        fwd = VirtualLane(fwd_nodes, _lay_forward(topo, fwd_nodes, anchor_start))
        bwd = VirtualLane(bwd_nodes, _lay_backward(topo, bwd_nodes, entry_boundary))
        pairs.append(LanePair(fwd, bwd, rj))
    return tuple(pairs)


def build_multiview(topo: Topology, ts: TrafficSnapshot, e: str,
                    h_b: float, h_f: float) -> MultiView:
    """The car's multi-view: one view per virtual lane pair, all sharing
    X = [pos - h_b, pos + h_f], laid out on the first read of ``views``.

    The multi-view depends on the car's own state alone, so it is kept in
    the snapshot's per-car store.
    """
    if not (h_b > 0 and h_f > 0):
        raise ValueError("horizons must be positive")
    memo = ts.car_cache[e]
    key = (topo, h_b, h_f)
    hit = memo.get(key)
    if hit is None:
        pairs = virtual_lanes(topo, ts, e, h_f=h_f, h_b=h_b)
        s = ts.cars[e]
        hit = memo[key] = MultiView(e, pairs, (s.pos - h_b, s.pos + h_f))
    return hit


def _extent_entries(ts: TrafficSnapshot, cid: str, extent) -> list:
    """Node-local entries (node, lo, hi) of a car's ``extent`` walk, kept in
    the snapshot's per-car store; a car changing lanes holds the same stretch
    of the antiparallel partner lane, so that interval flips."""
    memo = ts.car_cache[cid]
    entries = memo.get(extent)
    if entries is None:
        try:
            walked = extent(ts, cid)
        except PathExhausted:
            walked = ()
        res = ts.cars[cid].res
        entries = memo[extent] = []
        for node, (lo, hi) in walked:
            entries.append((node, lo, hi))
            if len(res) == 2 and node in res and (
                    partner := ts.net.lane_partner(node)) in res:
                w = ts.net.weights[partner]
                entries.append((partner, w - hi, w - lo))
    return entries


def node_occupancy(ts: TrafficSnapshot, cid: str, owner):
    """(reserved, claimed) node-local entries (node, lo, hi) of one car, as
    car_fragment projects them onto a view owned by ``owner`` (None: as
    every other car sees it), kept in the snapshot's per-car store."""
    mode = "own" if cid == owner else "seen"
    memo = ts.car_cache[cid]
    hit = memo.get(mode)
    if hit is not None:
        return hit
    s, weights = ts.cars[cid], ts.net.weights
    # the owner sees its safety envelope, the others the car
    reserved = _extent_entries(ts, cid, safety_envelope if mode == "own"
                               else physical_extent)
    if mode == "own" and s.cres:
        touched = {n for n, _, _ in reserved}
        reserved = reserved + [(n, 0.0, weights[n])
                               for n in sorted(s.cres) if n not in touched]
    claimed = [(n, 0.0, weights[n]) for n in sorted(s.clm | s.cclm)]
    memo[mode] = (reserved, claimed)
    return reserved, claimed


def collisions(ts: TrafficSnapshot) -> dict:
    """{car: (lowest rival id, lowest node they collide on)} over ground
    truth, worst-case physical space and not bookkeeping: every car's safety
    envelope with its lane-change partner interval, no claims.  Two cars
    collide on a crossing cell they share or where their entries on a lane
    overlap by more than EPS.  No view is read, so no car is out of sight."""
    by_node: dict = {}  # node -> [(car, lo, hi)] in car id order
    for cid in sorted(ts.cars):
        for node, lo, hi in _extent_entries(ts, cid, safety_envelope):
            by_node.setdefault(node, []).append((cid, lo, hi))
    out: dict = {}
    for node, entries in sorted(by_node.items()):
        for a, a_lo, a_hi in entries:
            for b, b_lo, b_hi in entries:
                if a != b and (a not in out or b < out[a][0]) and (
                        node.is_crossing or min(a_hi, b_hi) - max(a_lo, b_lo) > EPS):
                    out[a] = (b, node)
    return out


_EMPTY: dict = {}  # shared by every car with nothing on a view; read only


def merge_runs(intervals):
    """The intervals sorted, with those that overlap or touch within EPS
    joined into one run."""
    out = []
    for lo, hi in sorted(intervals):
        if out and lo <= out[-1][1] + EPS:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def overlap_pos(a, b) -> bool:
    """Do two lists of merged runs overlap by more than EPS?"""
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


def overlaps(a, b) -> tuple:
    """The overlaps longer than EPS of each run of a with each run of b;
    neither list need be sorted or merged."""
    return tuple((lo, hi) for p in a for q in b
                 if (hi := min(p[1], q[1])) - (lo := max(p[0], q[0])) > EPS)


def gaps(runs, lo_bound, hi_bound) -> list:
    """The free stretches longer than EPS of [lo_bound, hi_bound] between runs."""
    out = []
    cursor = lo_bound
    for lo, hi in runs:
        if lo > cursor:
            out.append((cursor, min(lo, hi_bound)))
        cursor = max(cursor, hi)
        if cursor >= hi_bound:
            break
    if cursor < hi_bound:
        out.append((cursor, hi_bound))
    return [(lo, hi) for lo, hi in out if hi - lo > EPS]


def occupied(fragments, lane: int) -> list:
    """The lane's runs of every kind in the fragments' merged runs, merged."""
    runs = []
    for merged in fragments:
        runs.extend(merged.get((lane, Kind.RESERVED), ()))
        runs.extend(merged.get((lane, Kind.CLAIMED), ()))
    return merge_runs(runs)


def _placed(span: Span, lo: float, hi: float, extent) -> tuple:
    """A node-local entry (lo, hi) of the span's node on the view axis,
    clipped to the extent: a crossing cell is owned whole, a reversed span
    flips the entry."""
    if span.node.is_crossing:
        lo, hi = span.lo, span.hi
    elif span.reversed:
        lo, hi = span.hi - hi, span.hi - lo
    else:
        lo, hi = span.lo + lo, span.lo + hi
    return max(lo, extent[0]), min(hi, extent[1])


def car_fragment(ts: TrafficSnapshot, cid: str, view: View) -> dict:
    """One car's projected occupancy on a view, clipped to X: its merged
    runs per (lane, kind), kept in the snapshot's per-car store; a car with
    nothing left on the view after clipping gets the one shared empty dict.

    Reserved space is the car's extent: the full safety envelope for the
    view owner, sensor-perceived physical size for the others.  The owner
    additionally projects the full spans of its own reserved crossing
    segments (a reserved cell is owned whole, and the car knows its own
    books), which is what keeps its on-crossing invariant true for the whole
    manoeuvre.  Claims project over the claimed nodes' full spans.  The
    safety monitor projects nothing: it judges ground truth on the nodes
    (``collisions``).
    """
    memo = ts.car_cache[cid]
    lanes = view.lanes
    key = (lanes, view.extent, "own" if cid == view.owner else "seen")
    hit = memo.get(key)
    if hit is not None:
        return hit
    reserved_nodes, claimed_nodes = node_occupancy(ts, cid, view.owner)
    placements = ((0, lanes[0].placements), (1, lanes[1].placements))
    fragment = {}  # (lane, kind) -> runs
    for kind, nodes in ((Kind.RESERVED, reserved_nodes), (Kind.CLAIMED, claimed_nodes)):
        for node, lo_local, hi_local in nodes:
            for lane_idx, on_lane in placements:
                for span in on_lane.get(node, ()):
                    lo, hi = _placed(span, lo_local, hi_local, view.extent)
                    if hi > lo:
                        fragment.setdefault((lane_idx, kind), []).append((lo, hi))
    for runs_key, runs in fragment.items():
        if len(runs) > 1:
            fragment[runs_key] = merge_runs(runs)
    fragment = memo[key] = fragment or _EMPTY
    return fragment


def lane_runs(ts: TrafficSnapshot, vlane: VirtualLane, owner: str, extent,
              car: str) -> list:
    """The merged runs that the car's reserved entries on lane nodes, as
    ``owner`` sees the car, make on a virtual lane, placed as car_fragment
    places them but with no view laid out.  Crossing entries are left out."""
    runs = []
    on_lane = vlane.placements
    for node, lo_local, hi_local in node_occupancy(ts, car, owner)[0]:
        if not node.is_crossing:
            for span in on_lane.get(node, ()):
                lo, hi = _placed(span, lo_local, hi_local, extent)
                if hi > lo:
                    runs.append((lo, hi))
    return merge_runs(runs) if len(runs) > 1 else runs


def car_runs(ts: TrafficSnapshot, view: View, car: str, lane: int,
             kind: Kind = Kind.RESERVED) -> list:
    """One car's merged runs of one kind on one lane of the view."""
    return car_fragment(ts, car, view).get((lane, kind), [])


# Broad phase.  _lay_forward and _lay_backward lay distinct nodes end to end
# on a virtual lane, so two cars' runs on one lane can overlap by more than
# EPS only where both cars occupy one node.  The checks in `formulas`
# therefore project only the cars that pass the node-local tests below.  Its
# tolerance is far above EPS, so that two runs joined across an EPS-wide gap
# by merge_runs still count as meeting on a node.
# Entries on crossing nodes always cover the whole node, as car_fragment
# projects them, so two cars on one crossing node always meet.
NODE_TOL = 1e-6


def cars_meeting(ts: TrafficSnapshot, entries, owner: str,
                 claims: bool = False) -> list:
    """Ids, in id order, of the cars whose reserved entries (with ``claims``,
    also their claimed ones) meet the node-local ``entries`` on some node.

    Every car whose projection can overlap the entries' projection on a
    view owned by ``owner`` is listed; see the broad-phase note above.
    """
    if not entries:
        return []
    index: dict = {}
    for node, lo, hi in entries:
        index.setdefault(node, []).append((lo, hi))
    out = []
    for cid in sorted(ts.cars):
        reserved, claimed = node_occupancy(ts, cid, owner)
        for node, lo, hi in (reserved + claimed if claims and claimed else reserved):
            near = index.get(node)
            if near and any(lo < b + NODE_TOL and a < hi + NODE_TOL for a, b in near):
                out.append(cid)
                break
    return out


def _near(vlane: VirtualLane, x1: float, x2: float) -> list:
    """The spans of the virtual lane that meet the stretch [x1, x2]."""
    return [s for s in vlane.spans if s.lo < x2 + NODE_TOL and x1 < s.hi + NODE_TOL]


def near_fragments(ts: TrafficSnapshot, view: View, lane: int,
                   x1: float, x2: float) -> list:
    """The merged runs ((lane, kind) -> runs) of each car on the nodes whose
    spans meet the stretch [x1, x2] of the lane: of every car whose runs can
    reach into it."""
    near = [(s.node, 0.0, ts.net.weights[s.node])
            for s in _near(view.lanes[lane], x1, x2)]
    return [car_fragment(ts, c, view)
            for c in cars_meeting(ts, near, view.owner, claims=True)]


def stretch_occupied(ts: TrafficSnapshot, vlane: VirtualLane, owner: str,
                     extent, x1: float, x2: float) -> bool:
    """Does a run of some car on the virtual lane, as ``owner`` sees the
    cars in the view ``(vlane, extent)`` is a lane of, reach more than EPS
    into the open stretch (x1, x2)?  The entries on the nodes under the
    stretch, read from a node index of every car's entries as it sees itself
    (own) and as the others see it, are placed as car_fragment places them
    and tested alone: past 3 EPS of stretch, a merged run reaches in only
    through one of its pieces.  No view need be laid out."""
    shown = ts.cache.get(stretch_occupied)  # node -> [(car, own, lo, hi)]
    if shown is None:
        shown = ts.cache[stretch_occupied] = {}
        for cid in ts.cars:
            for own, car_owner in ((False, None), (True, cid)):
                for entries in node_occupancy(ts, cid, car_owner):
                    for node, lo, hi in entries:
                        shown.setdefault(node, []).append((cid, own, lo, hi))
    for span in _near(vlane, x1, x2):
        for c, own, lo_local, hi_local in shown.get(span.node, ()):
            if own == (c == owner):
                lo, hi = _placed(span, lo_local, hi_local, extent)
                if lo < hi and lo < x2 - EPS and hi > x1 + EPS:
                    return True
    return False


def twist(view: View) -> View:
    """Rotate a view by 180 degrees: axis mirrored, lanes swapped."""
    a, b = view.extent
    total = a + b

    def flip(vlane: VirtualLane) -> VirtualLane:
        spans = tuple(
            Span(s.node, total - s.hi, total - s.lo, reversed=not s.reversed)
            for s in reversed(vlane.spans)
        )
        return VirtualLane(tuple(reversed(vlane.nodes)), spans)

    return View(
        owner=view.owner,
        lanes=(flip(view.lanes[1]), flip(view.lanes[0])),
        extent=(a, b),
        target=view.target,
    )
