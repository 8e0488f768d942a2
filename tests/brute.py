"""Brute-force references for projection and for the occupancy rules that
left `src`.

`brute_projection` lays every car's node-local occupancy onto every span of
both virtual lanes the slow way: no placement index, no shared empty dict,
no memo.  Besides the two modes `car_fragment` projects in (the view owner
and the others), it keeps the ground-truth mode the safety monitor used to
read on each monitored car's views: every car's full safety envelope and
nothing else.  `per_view_rivals` is that per-view monitor, kept as the
reference for `views.collisions`.  `intersects_open` is the run rule that
the free-stretch tests in `formulas` replaced with `views.stretch_occupied`.
"""

from crossings.snapshot import PathExhausted, physical_extent, safety_envelope
from crossings.views import EPS, Kind, overlap_pos


def intersects_open(runs, x1, x2) -> bool:
    """Does a merged run reach more than EPS into the open stretch (x1, x2)?"""
    for lo, hi in runs:
        if lo >= x2 - EPS:
            break
        if hi > x1 + EPS:
            return True
    return False


def node_entries(ts, cid, own, ground_truth):
    """[(node, lo, hi, kind)] in node-local coordinates."""
    s = ts.cars[cid]
    net = ts.net
    try:
        extent = safety_envelope(ts, cid) if own or ground_truth \
            else physical_extent(ts, cid)
    except PathExhausted:
        extent = []
    out = []
    for node, (lo, hi) in extent:
        out.append((node, lo, hi, Kind.RESERVED))
        # mid lane change: the partner lane holds the same stretch, flipped
        partner = net.lane_partner(node) if node.is_lane else None
        if len(s.res) == 2 and node in s.res and partner in s.res:
            w = net.weights[partner]
            out.append((partner, w - hi, w - lo, Kind.RESERVED))
    if own:
        covered = {entry[0] for entry in out}
        out.extend((n, 0.0, net.weights[n], Kind.RESERVED)
                   for n in s.cres if n not in covered)
    # ground truth is the full envelope and nothing else: no claims
    if not ground_truth:
        out.extend((n, 0.0, net.weights[n], Kind.CLAIMED) for n in s.clm | s.cclm)
    return out


def brute_projection(ts, cid, view, ground_truth=False, seen=None):
    """{(lane, kind): merged runs} of one car on a view; adds the (crossing,
    reversed, kind) case of each projected interval to ``seen``."""
    own = not ground_truth and cid == view.owner
    a, b = view.extent
    entries = node_entries(ts, cid, own, ground_truth)
    intervals = []
    for lane_idx in (0, 1):
        for span in view.lanes[lane_idx].spans:
            for node, lo, hi, kind in entries:
                if node != span.node:
                    continue
                if node.is_crossing:
                    lo, hi = span.lo, span.hi
                elif span.reversed:
                    lo, hi = span.hi - hi, span.hi - lo
                else:
                    lo, hi = span.lo + lo, span.lo + hi
                lo, hi = max(lo, a), min(hi, b)
                if hi > lo:
                    intervals.append((lane_idx, kind, lo, hi))
                    if seen is not None:
                        seen.add((node.is_crossing, span.reversed, kind))
    merged = {}
    for lane_idx, kind, lo, hi in sorted(intervals):
        runs = merged.setdefault((lane_idx, kind), [])
        if runs and lo <= runs[-1][1] + EPS:
            runs[-1] = (runs[-1][0], max(runs[-1][1], hi))
        else:
            runs.append((lo, hi))
    return merged


def ground_truth_nodes(ts):
    """{car: the nodes its ground truth lies on}."""
    return {c: {e[0] for e in node_entries(ts, c, False, True)} for c in ts.cars}


def per_view_rivals(ts, mv, ego, nodes=None):
    """The ground-truth reading on the ego's own views: (rivals whose
    envelope overlaps the ego's on some lane of some view, rivals that lie
    on one view with the ego).  Only the cars sharing a network node with
    the ego (``nodes``: `ground_truth_nodes`) are projected: runs of cars on
    distinct nodes cannot overlap."""
    nodes = nodes or ground_truth_nodes(ts)
    near = [c for c in sorted(ts.cars) if c != ego and nodes[ego] & nodes[c]]
    overlapping, together = set(), set()
    for view in mv.views:
        ego_runs = brute_projection(ts, ego, view, ground_truth=True)
        if not ego_runs:
            continue
        for c in near:
            theirs = brute_projection(ts, c, view, ground_truth=True)
            if theirs:
                together.add(c)
            if any(overlap_pos(ego_runs.get((lane, Kind.RESERVED), []),
                               theirs.get((lane, Kind.RESERVED), []))
                   for lane in (0, 1)):
                overlapping.add(c)
    return overlapping, together


def assert_agrees_on_views(hits, ts, mv, ego, nodes=None) -> bool:
    """`views.collisions`' verdict ``hits`` on the ego agrees with the
    per-view reading wherever the ego and the rival lie on one view: the
    rival is the lowest-id one that overlaps on a view, or a lower-id car on
    none of the ego's views with it.  Returns whether the verdicts differ
    (only a rival off the ego's views makes them)."""
    hit = hits.get(ego)
    overlapping, together = per_view_rivals(ts, mv, ego, nodes)
    if overlapping:
        assert hit is not None, (ego, overlapping)
        assert hit[0] == min(overlapping) or (
            hit[0] < min(overlapping) and hit[0] not in together), (ego, hit, overlapping)
    else:
        assert hit is None or hit[0] not in together, (ego, hit)
    return (hit is None) != (not overlapping)
