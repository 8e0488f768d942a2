import random

import pytest

from crossings.network import (
    NodeId,
    Topology,
    UrbanRoadNetwork,
    cs,
    lane,
    shortest_directed_path,
    validate_network,
)


def path(*names):
    return tuple(NodeId.parse(n) for n in names)


class TestNodeId:
    def test_lanes_order_before_cells_and_by_index(self):
        nodes = [cs(3), lane(5), cs(0), lane(12), lane(2)]
        assert sorted(nodes) == [lane(2), lane(5), lane(12), cs(0), cs(3)]

    def test_parse_inverts_str(self):
        for n in [lane(0), lane(7), lane(31), cs(0), cs(3), cs(12)]:
            assert NodeId.parse(str(n)) == n
        assert [str(lane(7)), str(cs(3))] == ["7", "c3"]

    def test_equal_nodes_built_apart_are_equal(self):
        a, b = NodeId(1, 4), NodeId.parse("c4")
        assert a is not b
        assert a == b == cs(4) and hash(a) == hash(b) == hash((1, 4))
        assert len({a, b, cs(4)}) == 1
        assert a.is_crossing and not a.is_lane and lane(4).is_lane


def mutual_reachability_partition(net):
    """Brute force: Warshall's transitive closure over the edges between
    cells; cells a and b share an intersection iff each reaches the other."""
    cells = [n for n in net.weights if n.is_crossing]
    reach = {(a, b): a == b or (a, b) in net.directed for a in cells for b in cells}
    for k in cells:
        for a in cells:
            for b in cells:
                reach[a, b] = reach[a, b] or (reach[a, k] and reach[k, b])
    return {frozenset(b for b in cells if reach[a, b] and reach[b, a]) for a in cells}


class TestValidate:
    def test_demo_network_is_clean(self, net):
        assert validate_network(net) == []

    def test_zero_weight_is_flagged(self, net):
        bad = UrbanRoadNetwork(
            {**net.weights, lane(7): 0.0}, net.directed, net.undirected
        )
        problems = validate_network(bad)
        assert len(problems) == 1 and "7" in problems[0] and "weight" in problems[0]

    def test_lane_to_crossing_pairing_is_flagged(self, net):
        bad = UrbanRoadNetwork(
            net.weights, net.directed, list(net.undirected) + [(lane(7), cs(0))]
        )
        assert any("must join two lanes" in p for p in validate_network(bad))

    def test_unpaired_lane_is_flagged(self):
        net = UrbanRoadNetwork({lane(0): 10.0, lane(1): 10.0, lane(2): 10.0},
                               undirected=[(lane(0), lane(1))])
        assert any("lane 2" in p for p in validate_network(net))


class TestComponents:
    def test_demo_network_components(self, topo):
        assert {s.id for s in topo.segments} == {"r0", "r1", "r2", "r3"}
        assert [i.id for i in topo.intersections] == ["cr"]
        assert topo.intersections[0].segments == frozenset(cs(i) for i in range(4))
        assert topo.segment_of[lane(7)].id == "r0"
        assert topo.segment_of[lane(4)].id == "r3"

    def test_single_road_no_intersection(self, straight_road):
        assert len(straight_road.segments) == 1
        assert straight_road.intersections == []

    def test_partition(self, topo):
        seen = set()
        for seg in topo.segments:
            assert not (seg.lanes & seen)
            seen |= seg.lanes
        for inter in topo.intersections:
            assert not (inter.segments & seen)
            seen |= inter.segments
        assert seen == set(topo.net.weights)

    def test_two_intersections_against_brute_force(self):
        # two 2-cell crossings joined by a road segment in between
        weights = {lane(i): 50.0 for i in range(4)}
        weights.update({cs(i): 5.0 for i in range(4)})
        directed = [
            (cs(0), cs(1)), (cs(1), cs(0)),
            (cs(2), cs(3)), (cs(3), cs(2)),
            (lane(0), cs(0)), (cs(1), lane(2)),
            (lane(3), cs(2)), (cs(3), lane(1)),
        ]
        undirected = [(lane(0), lane(1)), (lane(2), lane(3))]
        net = UrbanRoadNetwork(weights, directed, undirected)
        topo = Topology(net)
        assert len(topo.intersections) == 2

        assert ({i.segments for i in topo.intersections}
                == mutual_reachability_partition(net))

    def test_random_crossing_digraphs_against_brute_force(self):
        # cells c0..c(n-1) with random one-way and two-way links, a forced
        # two-cell cycle and lone cells; lane detours between cells must not
        # join them
        rng = random.Random(11)
        for trial in range(60):
            n = rng.randint(1, 7)
            cells = [cs(i) for i in range(n)]
            directed = {(a, b) for a in cells for b in cells
                        if a != b and rng.random() < 0.25}
            if n >= 2:
                a, b = rng.sample(cells, 2)
                directed |= {(a, b), (b, a)}
            weights = {c: 5.0 for c in cells}
            weights.update({lane(0): 50.0, lane(1): 50.0})
            a, b = rng.choice(cells), rng.choice(cells)
            directed |= {(a, lane(1)), (lane(1), b), (b, lane(0)), (lane(0), a)}
            net = UrbanRoadNetwork(weights, directed, [(lane(0), lane(1))])
            topo = Topology(net)
            found = [i.segments for i in topo.intersections]
            assert set(found) == mutual_reachability_partition(net), trial
            assert len(found) == len(set(found))
            assert found == sorted(found, key=min)
            assert [i.id for i in topo.intersections] == (
                ["cr"] if len(found) == 1
                else [f"cr{k}" for k in range(len(found))])


class TestCoarsen:
    def test_demo_coarse_edges_both_directions(self, topo):
        expected = set()
        for r in ("r0", "r1", "r2", "r3"):
            expected.add((r, "cr"))
            expected.add(("cr", r))
        assert topo.coarse.edges == frozenset(expected)

    def test_road_only_network_has_no_edges(self, straight_road):
        assert straight_road.coarse.edges == frozenset()

    def test_one_way_feeder(self):
        # feeder road into a crossing with no way back out to it
        weights = {lane(0): 10.0, lane(1): 10.0, lane(2): 10.0, lane(3): 10.0,
                   cs(0): 4.0}
        directed = [(lane(0), cs(0)), (cs(0), lane(2))]
        undirected = [(lane(0), lane(1)), (lane(2), lane(3))]
        topo = Topology(UrbanRoadNetwork(weights, directed, undirected))
        feeder = topo.segment_of[lane(0)].id
        out = topo.segment_of[lane(2)].id
        # oracle: direct membership scan of the directed edge set
        assert (feeder, "cr") in topo.coarse.edges
        assert ("cr", feeder) not in topo.coarse.edges
        assert ("cr", out) in topo.coarse.edges
        assert (out, "cr") not in topo.coarse.edges


class TestCoarsenPath:
    def test_left_turn_path(self, topo):
        assert topo.coarsen_path(path("7", "c0", "c1", "c2", "4")) == ["r0", "cr", "r3"]

    def test_single_node_path(self, topo):
        assert topo.coarsen_path(path("7")) == ["r0"]

    def test_all_turn_variants(self, topo):
        # oracle: component lookup plus duplicate collapse, done by hand
        assert topo.coarsen_path(path("7", "c0", "0")) == ["r0", "cr", "r1"]
        assert topo.coarsen_path(path("7", "c0", "c1", "2")) == ["r0", "cr", "r2"]
        assert topo.coarsen_path(path("5", "c3", "c0", "c1", "2")) == ["r3", "cr", "r2"]

    def test_invalid_adjacency_names_the_pair(self, topo):
        with pytest.raises(ValueError, match="7 -> c1"):
            topo.coarsen_path(path("7", "c1"))


class TestShortestPath:
    def test_forwards_into_far_segment(self, net, topo):
        targets = next(s.lanes for s in topo.segments if s.id == "r3")  # {4, 5}
        found = shortest_directed_path(net, lane(7), targets)
        assert found == path("7", "c0", "c1", "c2", "4")

    def test_zero_hop_when_already_inside(self, net):
        assert shortest_directed_path(net, lane(7), {lane(7), lane(6)}) == (lane(7),)

    def test_unreachable(self, net):
        # lane 6 points away from the crossing: nothing leads to lane 7
        assert shortest_directed_path(net, lane(6), {cs(0)}) is None

    def test_backwards_follows_edge_direction(self, net):
        found = shortest_directed_path(net, lane(6), {lane(4), lane(5)}, "backwards")
        assert found == path("5", "c3", "6")

    def test_not_longer_than_exhaustive_enumeration(self, net):
        # oracle: enumerate all directed paths up to depth 8
        rng = random.Random(7)
        nodes = sorted(net.weights)
        for _ in range(25):
            start = rng.choice(nodes)
            goal = rng.choice(nodes)
            best = None
            frontier = [(start,)]
            for _depth in range(8):
                nxt = []
                for p in frontier:
                    if p[-1] == goal:
                        best = len(p) if best is None else min(best, len(p))
                        continue
                    for succ in net.successors(p[-1]):
                        if succ not in p:
                            nxt.append(p + (succ,))
                frontier = nxt
            found = shortest_directed_path(net, start, {goal})
            if best is not None:
                assert found is not None and len(found) <= best

    def test_tie_break_is_lexicographic(self):
        # two equal-hop routes; the lexicographically smaller node sequence wins
        weights = {lane(0): 10.0, lane(1): 10.0, lane(2): 10.0, lane(3): 10.0,
                   cs(0): 4.0, cs(1): 4.0}
        directed = [
            (lane(0), cs(0)), (lane(0), cs(1)),
            (cs(0), lane(2)), (cs(1), lane(2)),
            (cs(0), cs(1)), (cs(1), cs(0)),
        ]
        undirected = [(lane(0), lane(1)), (lane(2), lane(3))]
        net = UrbanRoadNetwork(weights, directed, undirected)
        assert shortest_directed_path(net, lane(0), {lane(2)}) == path("0", "c0", "2")


class TestPreSegments:
    def test_demo_intersection_has_four_approaches(self, topo):
        assert topo.pre_segments("cr") == {"r0", "r1", "r2", "r3"}

    def test_unknown_intersection(self, topo):
        with pytest.raises(KeyError):
            topo.pre_segments("nowhere")

    def test_matches_edge_scan_on_random_networks(self):
        rng = random.Random(3)
        for _ in range(10):
            weights = {lane(i): 10.0 for i in range(6)}
            weights[cs(0)] = 4.0
            undirected = [(lane(0), lane(1)), (lane(2), lane(3)), (lane(4), lane(5))]
            directed = []
            for i in range(0, 6, 2):
                if rng.random() < 0.7:
                    directed.append((lane(i), cs(0)))
                if rng.random() < 0.7:
                    directed.append((cs(0), lane(i + 1)))
            if not directed:
                directed.append((lane(0), cs(0)))
            topo = Topology(UrbanRoadNetwork(weights, directed, undirected))
            oracle = {
                topo.segment_of[u].id
                for (u, v) in topo.net.directed
                if u.is_lane and v.is_crossing
            }
            assert topo.pre_segments("cr") == oracle

    def test_single_feeder(self):
        weights = {lane(0): 10.0, lane(1): 10.0, cs(0): 4.0}
        topo = Topology(UrbanRoadNetwork(
            weights, [(lane(0), cs(0)), (cs(0), lane(1))], [(lane(0), lane(1))]
        ))
        assert topo.pre_segments("cr") == {topo.segment_of[lane(0)].id}
