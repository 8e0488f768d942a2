"""Static road topology: weighted lane / crossing-segment graph and its coarse view.

Nodes are lanes (continuous, directed) and crossing segments (discrete cells
of an intersection).  Lanes paired by an undirected edge form a road segment;
crossing segments that are strongly connected under directed edges form an
intersection.  Collapsing those components gives the coarse graph used to
find the approach roads of an intersection.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence


class NodeKind(Enum):
    LANE = 0
    CROSSING = 1


class NodeId:
    """A lane ("7") or crossing segment ("c3"). Ordering is (kind, index)."""

    __slots__ = ("kind", "index", "_key", "_hash")

    def __init__(self, kind: NodeKind, index: int):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "_key", (kind.value, index))
        object.__setattr__(self, "_hash", hash((kind.value, index)))

    def __setattr__(self, name, value):
        raise AttributeError("NodeId is immutable")

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return self is other or (
            isinstance(other, NodeId) and self._key == other._key
        )

    def __lt__(self, other):
        return self._key < other._key

    def __le__(self, other):
        return self._key <= other._key

    def __gt__(self, other):
        return self._key > other._key

    def __ge__(self, other):
        return self._key >= other._key

    def __repr__(self):
        return f"NodeId({self.kind.name}, {self.index})"

    @property
    def is_lane(self) -> bool:
        return self.kind is NodeKind.LANE

    @property
    def is_crossing(self) -> bool:
        return self.kind is NodeKind.CROSSING

    def __str__(self) -> str:
        return f"c{self.index}" if self.is_crossing else str(self.index)

    @staticmethod
    def parse(text: str) -> "NodeId":
        text = text.strip()
        if text.startswith("c"):
            return cs(int(text[1:]))
        return lane(int(text))


_INTERNED: dict = {}


def lane(i: int) -> NodeId:
    node = _INTERNED.get((0, i))
    if node is None:
        node = _INTERNED[(0, i)] = NodeId(NodeKind.LANE, i)
    return node


def cs(i: int) -> NodeId:
    node = _INTERNED.get((1, i))
    if node is None:
        node = _INTERNED[(1, i)] = NodeId(NodeKind.CROSSING, i)
    return node


# edge kinds that may carry a directed edge
_ALLOWED_DIRECTED = {
    (NodeKind.LANE, NodeKind.CROSSING),
    (NodeKind.CROSSING, NodeKind.LANE),
    (NodeKind.CROSSING, NodeKind.CROSSING),
    (NodeKind.LANE, NodeKind.LANE),
}


class UrbanRoadNetwork:
    """Weighted mixed graph of lanes and crossing segments.

    Immutable by convention after construction; every downstream module holds
    a read-only reference.
    """

    def __init__(self, weights, directed=(), undirected=()):
        self.weights: dict[NodeId, float] = dict(weights)
        self.directed: frozenset[tuple[NodeId, NodeId]] = frozenset(directed)
        self.undirected: frozenset[tuple[NodeId, NodeId]] = frozenset(
            tuple(sorted(e)) for e in undirected
        )
        self._succ: dict[NodeId, list[NodeId]] = {n: [] for n in self.weights}
        self._pred: dict[NodeId, list[NodeId]] = {n: [] for n in self.weights}
        for u, v in self.directed:
            if u in self._succ and v in self._pred:
                self._succ[u].append(v)
                self._pred[v].append(u)
        for adj in (self._succ, self._pred):
            for n in adj:
                adj[n].sort()

    @property
    def nodes(self) -> set[NodeId]:
        return set(self.weights)

    def weight(self, n: NodeId) -> float:
        return self.weights[n]

    def successors(self, n: NodeId) -> list[NodeId]:
        return self._succ.get(n, [])

    def predecessors(self, n: NodeId) -> list[NodeId]:
        return self._pred.get(n, [])

    def lane_partner(self, n: NodeId) -> Optional[NodeId]:
        """The unique lane joined to ``n`` by an undirected edge, if any."""
        partners = [b if a == n else a for a, b in self.undirected if n in (a, b)]
        return partners[0] if len(partners) == 1 else None


@dataclass(frozen=True)
class RoadSegment:
    id: str
    lanes: frozenset[NodeId]


@dataclass(frozen=True)
class Intersection:
    id: str
    segments: frozenset[NodeId]


@dataclass(frozen=True)
class CoarseNetwork:
    road_nodes: frozenset[str]
    crossing_nodes: frozenset[str]
    edges: frozenset[tuple[str, str]]


def validate_network(net: UrbanRoadNetwork) -> list[str]:
    """Return a list of violation descriptions; empty means the network is sound."""
    problems = []
    for n, w in net.weights.items():
        if not (w > 0 and w == w and w != float("inf")):
            problems.append(f"node {n} has non-positive weight {w}")
    for a, b in net.undirected:
        if a not in net.weights or b not in net.weights:
            problems.append(f"undirected edge ({a},{b}) references unknown node")
            continue
        if not (a.is_lane and b.is_lane):
            problems.append(f"undirected edge ({a},{b}) must join two lanes")
        if a == b:
            problems.append(f"undirected self-edge on {a}")
    for u, v in net.directed:
        if u not in net.weights or v not in net.weights:
            problems.append(f"directed edge ({u},{v}) references unknown node")
            continue
        if (u.kind, v.kind) not in _ALLOWED_DIRECTED:
            problems.append(f"directed edge ({u},{v}) has forbidden node kinds")
        if u == v:
            problems.append(f"directed self-edge on {u}")
    # every lane pairs with exactly one partner lane
    for n in net.weights:
        if n.is_lane:
            count = sum(1 for e in net.undirected if n in e)
            if count != 1:
                problems.append(f"lane {n} belongs to {count} road segments, expected 1")
    return problems


def strongly_connected_components(nodes, succ) -> list[frozenset]:
    """Iterative Tarjan over the given adjacency (restricted to ``nodes``)."""
    nodes = sorted(nodes)
    node_set = set(nodes)
    index: dict[NodeId, int] = {}
    low: dict[NodeId, int] = {}
    on_stack: set[NodeId] = set()
    stack: list[NodeId] = []
    out: list[frozenset] = []
    counter = [0]

    for root in nodes:
        if root in index:
            continue
        work = [(root, iter([s for s in succ(root) if s in node_set]))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter([s for s in succ(w) if s in node_set])))
                    advanced = True
                    break
                elif w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                out.append(frozenset(comp))
    return out


def components(net: UrbanRoadNetwork):
    """Partition nodes into road segments and intersections.

    Road segments are the undirected lane pairs; intersections are the
    strongly connected components of the crossing-segment subgraph.  Default
    ids are r0, r1, ... by smallest lane index and cr (single intersection)
    or cr0, cr1, ... by smallest segment index.
    """
    seg_sets = sorted(
        ({a, b} for a, b in net.undirected),
        key=lambda s: min(n.index for n in s),
    )
    segments = [RoadSegment(f"r{i}", frozenset(s)) for i, s in enumerate(seg_sets)]

    cs_nodes = [n for n in net.weights if n.is_crossing]
    sccs = strongly_connected_components(
        cs_nodes, lambda n: [s for s in net.successors(n) if s.is_crossing]
    )
    sccs.sort(key=lambda c: min(n.index for n in c))
    if len(sccs) == 1:
        intersections = [Intersection("cr", sccs[0])]
    else:
        intersections = [Intersection(f"cr{i}", c) for i, c in enumerate(sccs)]
    return segments, intersections


class Topology:
    """A validated network together with its component structure and coarse graph."""

    def __init__(self, net: UrbanRoadNetwork, segment_names=None, intersection_names=None):
        problems = validate_network(net)
        if problems:
            raise ValueError("invalid network: " + "; ".join(problems))
        self.net = net
        segments, intersections = components(net)
        if segment_names:
            segments = [_rename(s, segment_names, RoadSegment) for s in segments]
        if intersection_names:
            intersections = [_rename(i, intersection_names, Intersection) for i in intersections]
        self.segments = segments
        self.intersections = intersections
        self.segment_of: dict[NodeId, RoadSegment] = {}
        for seg in segments:
            for n in seg.lanes:
                self.segment_of[n] = seg
        self.intersection_of: dict[NodeId, Intersection] = {}
        for inter in intersections:
            for n in inter.segments:
                self.intersection_of[n] = inter
        self.coarse = self._coarsen()
        # what is derived from the topology alone (the virtual lane pairs
        # that `views` builds per ego path position) lives and dies with it
        self.cache: dict = {}

    def _coarsen(self) -> CoarseNetwork:
        edges = set()
        for u, v in self.net.directed:
            if u.is_lane and v.is_crossing:
                edges.add((self.segment_of[u].id, self.intersection_of[v].id))
            elif u.is_crossing and v.is_lane:
                edges.add((self.intersection_of[u].id, self.segment_of[v].id))
        return CoarseNetwork(
            road_nodes=frozenset(s.id for s in self.segments),
            crossing_nodes=frozenset(i.id for i in self.intersections),
            edges=frozenset(edges),
        )

    def component_id(self, n: NodeId) -> str:
        return self.segment_of[n].id if n.is_lane else self.intersection_of[n].id

    def coarsen_path(self, path: Sequence[NodeId]) -> list[str]:
        """Component ids along ``path`` with adjacent duplicates collapsed."""
        check_path(self.net, path)
        out: list[str] = []
        for n in path:
            cid = self.component_id(n)
            if not out or out[-1] != cid:
                out.append(cid)
        return out

    def pre_segments(self, cr_id: str) -> set[str]:
        """All road segments with a coarse edge into intersection ``cr_id``."""
        if cr_id not in self.coarse.crossing_nodes:
            raise KeyError(f"unknown intersection {cr_id!r}")
        return {r for (r, c) in self.coarse.edges if c == cr_id}


def _rename(comp, names, cls):
    for name, node_set in names.items():
        if frozenset(node_set) == (comp.lanes if cls is RoadSegment else comp.segments):
            if cls is RoadSegment:
                return RoadSegment(name, comp.lanes)
            return Intersection(name, comp.segments)
    return comp


def check_path(net: UrbanRoadNetwork, path: Sequence[NodeId]) -> None:
    """Raise ValueError naming the first bad adjacency of an invalid path."""
    if not path:
        raise ValueError("empty path")
    for n in path:
        if n not in net.weights:
            raise ValueError(f"path node {n} not in network")
    for a, b in zip(path, path[1:]):
        if (a, b) not in net.directed:
            raise ValueError(f"path adjacency {a} -> {b} is not a directed edge")


def shortest_directed_path(
    net: UrbanRoadNetwork,
    start: NodeId,
    targets: Iterable[NodeId],
    direction: str = "forwards",
) -> Optional[tuple[NodeId, ...]]:
    """Minimum-hop directed path between ``start`` and ``targets``.

    Forwards: from ``start`` into the target set, following edge direction.
    Backwards: from a target into ``start``, still following edge direction
    (the search runs on the reversed graph and the result is flipped).
    Ties break on the lexicographically smallest node sequence, so the result
    is reproducible.  Returns None when unreachable.
    """
    targets = set(targets)
    if start not in net.weights:
        raise KeyError(f"unknown node {start}")
    for t in targets:
        if t not in net.weights:
            raise KeyError(f"unknown node {t}")
    backwards = direction.lower() == "backwards"
    succ = net.predecessors if backwards else net.successors

    if start in targets:
        return (start,)

    # uniform edge weights: a heap ordered by (hops, path key) yields the
    # lexicographically smallest minimum-hop path
    best: dict[NodeId, tuple] = {}
    heap = [(0, (start._key,), (start,))]
    while heap:
        hops, key, path = heapq.heappop(heap)
        node = path[-1]
        if node in best and best[node] <= (hops, key):
            continue
        best[node] = (hops, key)
        if node in targets:
            return tuple(reversed(path)) if backwards else path
        for nxt in succ(node):
            if nxt not in best:
                heapq.heappush(heap, (hops + 1, key + (nxt._key,), path + (nxt,)))
    return None
