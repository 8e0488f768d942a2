"""Static road topology: weighted lane / crossing-cell graph and its coarse view.

The road model of UMLSL as plain values.  A node is a ``(kind, index)``
pair: a lane (kind 0, continuous, directed) or a crossing cell (kind 1, a
discrete segment of an intersection).  Lanes paired by an undirected edge
form a road segment; crossing cells that reach each other over directed
edges between cells form an intersection.  Collapsing those components
gives the coarse graph used to find the approach roads of an intersection.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, NamedTuple, Optional, Sequence

LANE, CROSSING = 0, 1


class NodeId(NamedTuple):
    """A lane ("7", kind 0) or crossing cell ("c3", kind 1).

    A plain ``(kind, index)`` tuple: nodes hash, compare and order as
    tuples, lanes before cells and each kind by index.
    """

    kind: int
    index: int

    @property
    def is_lane(self) -> bool:
        return self.kind == LANE

    @property
    def is_crossing(self) -> bool:
        return self.kind == CROSSING

    def __str__(self) -> str:
        return f"c{self.index}" if self.is_crossing else str(self.index)

    @staticmethod
    def parse(text: str) -> "NodeId":
        text = text.strip()
        return cs(int(text[1:])) if text.startswith("c") else lane(int(text))


def lane(i: int) -> NodeId:
    return NodeId(LANE, i)


def cs(i: int) -> NodeId:
    return NodeId(CROSSING, i)


class ComponentNameError(ValueError):
    """A component name that fits no component, names one twice, or is
    another component's id."""

    def __init__(self, name: str, problem: str):
        super().__init__(f"name {name!r} {problem}")
        self.name = name


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
        self._prefix: dict = {}  # path -> prefix_sums(path)

    def successors(self, n: NodeId) -> list[NodeId]:
        return self._succ.get(n, [])

    def predecessors(self, n: NodeId) -> list[NodeId]:
        return self._pred.get(n, [])

    def prefix_sums(self, path: tuple) -> list[float]:
        """Where each node of ``path`` starts along it, then its length."""
        out = self._prefix.get(path)
        if out is None:
            weights = map(self.weights.__getitem__, path)
            out = self._prefix[path] = list(accumulate(weights, initial=0.0))
        return out

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
        elif u == v:
            problems.append(f"directed self-edge on {u}")
    # every lane pairs with exactly one partner lane
    for n in net.weights:
        if n.is_lane:
            count = sum(1 for e in net.undirected if n in e)
            if count != 1:
                problems.append(f"lane {n} belongs to {count} road segments, expected 1")
    return problems


def _intersection_cells(net: UrbanRoadNetwork) -> list[frozenset[NodeId]]:
    """Classes of crossing cells that reach each other over edges between
    cells, ordered by smallest cell.  Each cell's reach is searched once, so
    the cost grows with the square of the cells one cell can reach."""
    reach = {}
    for n in sorted(n for n in net.weights if n.is_crossing):
        seen, todo = {n}, [n]
        while todo:
            for m in net.successors(todo.pop()):
                if m.is_crossing and m not in seen:
                    seen.add(m)
                    todo.append(m)
        reach[n] = seen
    classes = {frozenset(m for m in seen if n in reach[m])
               for n, seen in reach.items()}
    return sorted(classes, key=min)


def components(net: UrbanRoadNetwork, segment_names=None, intersection_names=None):
    """Partition nodes into road segments (the undirected lane pairs) and
    intersections (classes of crossing cells that reach each other).

    A component takes the name that ``segment_names`` or
    ``intersection_names`` (name -> node set) gives exactly its nodes; the
    others get r0, r1, ... by smallest lane and cr (a single intersection) or
    cr0, cr1, ... by smallest cell.  A name that fits no component, names one
    twice or is another's id raises ``ComponentNameError``.
    """
    pairs = sorted((frozenset(e) for e in net.undirected), key=min)
    cells = _intersection_cells(net)
    seg_ids = _ids(pairs, segment_names, "road segment", lambda i: f"r{i}")
    cr_ids = _ids(cells, intersection_names, "intersection",
                  lambda i: "cr" if len(cells) == 1 else f"cr{i}")
    ids = seg_ids + cr_ids
    for name in [*(segment_names or ()), *(intersection_names or ())]:
        if ids.count(name) > 1:
            raise ComponentNameError(name, "is also another component's id")
    return ([RoadSegment(i, s) for i, s in zip(seg_ids, pairs)],
            [Intersection(i, c) for i, c in zip(cr_ids, cells)])


def _ids(node_sets, names, what, default) -> list[str]:
    given: dict = {}  # node set -> its name
    for name, nodes in (names or {}).items():
        nodes = frozenset(nodes)
        if nodes not in node_sets:
            listed = " ".join(map(str, sorted(nodes)))
            raise ComponentNameError(name, f"is given to {listed or 'no node'}, "
                                           f"which is not one {what}")
        if nodes in given:
            raise ComponentNameError(name, f"names the {what} {given[nodes]!r} again")
        given[nodes] = name
    return [given.get(s, default(i)) for i, s in enumerate(node_sets)]


class Topology:
    """A validated network together with its component structure and coarse graph."""

    def __init__(self, net: UrbanRoadNetwork, segment_names=None, intersection_names=None):
        problems = validate_network(net)
        if problems:
            raise ValueError("invalid network: " + "; ".join(problems))
        self.net = net
        self.segments, self.intersections = components(
            net, segment_names, intersection_names)
        self.segment_of: dict[NodeId, RoadSegment] = {
            n: seg for seg in self.segments for n in seg.lanes}
        self.intersection_of: dict[NodeId, Intersection] = {
            n: inter for inter in self.intersections for n in inter.segments}
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
            crossing_nodes=frozenset(i.id for i in self.intersections),
            edges=frozenset(edges),
        )

    def coarsen_path(self, path: Sequence[NodeId]) -> list[str]:
        """Component ids along ``path`` with adjacent duplicates collapsed."""
        check_path(self.net, path)
        out: list[str] = []
        for n in path:
            cid = self.segment_of[n].id if n.is_lane else self.intersection_of[n].id
            if not out or out[-1] != cid:
                out.append(cid)
        return out

    def pre_segments(self, cr_id: str) -> set[str]:
        """All road segments with a coarse edge into intersection ``cr_id``."""
        if cr_id not in self.coarse.crossing_nodes:
            raise KeyError(f"unknown intersection {cr_id!r}")
        return {r for (r, c) in self.coarse.edges if c == cr_id}


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

    # uniform edge weights: a heap ordered by (hops, path) pops each node
    # first on its lexicographically smallest minimum-hop path
    done: set[NodeId] = set()
    heap = [(0, (start,))]
    while heap:
        hops, path = heapq.heappop(heap)
        node = path[-1]
        if node in done:
            continue
        done.add(node)
        if node in targets:
            return tuple(reversed(path)) if backwards else path
        for nxt in succ(node):
            if nxt not in done:
                heapq.heappush(heap, (hops + 1, path + (nxt,)))
    return None
