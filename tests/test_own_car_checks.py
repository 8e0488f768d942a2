"""The own-car checks (`ca`, `oc`, `lc`) decided on the car's node entries
and its lane pairs must agree with the per-view readings in
`tests/reference.py`: `ca` on view 0, `oc` and `lc` in any view.  No check
lays out a view, and `geom_oc` and `geom_lc` are `oc`'s and `lc`'s
readings on one view.  They rest on a layout fact: no lane span of a
virtual lane reaches into its crossing span.  A multi-view lays its views
out only when they are read, and a car with nothing to read them for lays
out none."""

import random
from collections import Counter

import pytest

from crossings import formulas
from crossings.harness import Simulation
from crossings.network import NodeId, lane
from crossings.params import ProtocolParams
from crossings.randomgen import NETWORK_TEXT, negative_scenario, sweep_scenario_text
from crossings.scenario import bundled_scenarios, load_scenario, parse_scenario
from crossings.snapshot import TrafficSnapshot
from crossings.views import EPS, LanePair, MultiView, Span, VirtualLane, build_multiview

from conftest import TWO_LANES_BEFORE_THE_CROSSING, make_car
from gridgen import _TOPO, H_B, H_F, random_scene
from reference import ca_on_view, lc_on_view, oc_on_view

# the checks undecorated, so that every call decides afresh instead of
# reading a verdict the run already kept in the snapshot
CHECK_CA = formulas.check_ca.__wrapped__
CHECK_OC = formulas.check_oc.__wrapped__
CHECK_LC = formulas.check_lc.__wrapped__
GEOM_OC, GEOM_LC = formulas.geom_oc, formulas.geom_lc


def path(*names):
    return tuple(NodeId.parse(n) for n in names)


def _agree(topo, ts, h_b, h_f, params) -> Counter:
    """Every car as the ego, and every car as the subject of `oc`/`lc` on
    each car's multi-view: the checks decide on a multi-view that has laid
    out no view and agree with the per-view readings.  Returns how often
    each check read true."""
    seen = Counter()
    for ego in sorted(ts.cars):
        mv = build_multiview(topo, ts, ego, h_b, h_f)
        bare = MultiView(ego, mv.pairs, mv.extent)
        ca = CHECK_CA(ts, bare, ego, params)
        oc = {c: CHECK_OC(ts, bare, c) for c in ts.cars}
        lc = {c: CHECK_LC(ts, bare, c) for c in ts.cars}
        assert "views" not in vars(bare)
        views = mv.views
        assert ca == ca_on_view(ts, views[0], ego, params.d_c), ("ca", ego)
        seen["ca"] += ca
        for c in sorted(ts.cars):
            for name, check, geom, on_view in (("oc", oc, GEOM_OC, oc_on_view),
                                               ("lc", lc, GEOM_LC, lc_on_view)):
                on_views = [on_view(ts, v, c) for v in views]
                assert [geom(ts, v, c) for v in views] == on_views, (name, ego, c)
                assert check[c] == any(on_views), (name, ego, c)
                seen[name] += check[c]
    return seen


def _crossing_reached(vlane):
    """The lane spans of a virtual lane that reach more than EPS into its
    crossing span."""
    raw = vlane.raw_crossing_span
    return [s for s in vlane.spans if raw and not s.node.is_crossing
            and min(s.hi, raw[1]) - max(s.lo, raw[0]) > EPS]


def _lanes_clear_of_crossing(topo):
    """Every virtual lane the topology has built keeps its lane spans out of
    its crossing span: `oc` reads only crossing entries on that ground."""
    lanes = [vlane for pairs in topo.cache.values() for pair in pairs
             for vlane in (pair.forward, pair.backward)]
    assert lanes
    for vlane in lanes:
        assert not _crossing_reached(vlane), vlane.nodes


def _run_agreeing(scenario, seen):
    """Run the scenario, checking each tick's first snapshot and every
    snapshot a guard reads on the way, then the lanes it built."""
    sim = Simulation(scenario)
    checked: list = [None]

    def check(ts):
        if checked[0] is not ts:
            checked[0] = ts
            seen.update(_agree(scenario.topo, ts, scenario.h_b, scenario.h_f,
                               scenario.params))

    env_for = sim.env_for

    def env_for_checked(inst):
        check(sim.ts)
        return env_for(inst)

    sim.env_for = env_for_checked
    for _ in range(scenario.ticks):
        check(sim.ts)
        sim.step()
    check(sim.ts)
    _lanes_clear_of_crossing(scenario.topo)


# no car of these runs holds two lanes, so none reads `lc`
def test_sweep_runs():
    seen = Counter()
    for seed in range(100):
        _run_agreeing(parse_scenario(sweep_scenario_text(seed)), seen)
    assert seen["ca"] and seen["oc"] and not seen["lc"], seen


def test_negative_runs():
    seen = Counter()
    for seed in range(60):
        _run_agreeing(negative_scenario(seed), seen)
    assert seen["ca"] and seen["oc"] and not seen["lc"], seen


@pytest.mark.parametrize("name", bundled_scenarios())
def test_bundled_runs(name):
    seen = Counter()
    _run_agreeing(load_scenario(name), seen)
    assert (seen["ca"] or seen["oc"]) and not seen["lc"], seen


def test_two_lanes_before_the_crossing():
    seen = Counter()
    _run_agreeing(parse_scenario(TWO_LANES_BEFORE_THE_CROSSING), seen)
    assert seen["ca"] and seen["oc"] and not seen["lc"], seen


def test_random_scenes():
    # lane changes (some with the ego's own lane blocked before the
    # crossing), lane claims, crossing claims and reservations, cars off the
    # views and cars facing against their lane
    rng = random.Random(24)
    params = ProtocolParams(d_c=20.0, max_se=15.0)
    kinds = set()
    seen = Counter()
    for _ in range(1000):
        ts, _view = random_scene(rng, max_cars=6, blocked_lane_change=True)
        seen.update(_agree(_TOPO, ts, H_B, H_F, params))
        for s in ts.cars.values():
            kinds |= {k for k, held in (("lane change", len(s.res) == 2),
                                        ("claim", s.clm), ("cclm", s.cclm),
                                        ("cres", s.cres)) if held}
    assert kinds == {"lane change", "claim", "cclm", "cres"}
    assert seen["ca"] and seen["oc"] and seen["lc"], seen
    _lanes_clear_of_crossing(_TOPO)


def test_the_layout_check_flags_a_lane_inside_the_crossing_span():
    # cells in the order lane, crossing, lane, crossing: lane 2 lies between
    # the two crossing cells, so inside the lane's crossing span
    nodes = tuple(NodeId.parse(n) for n in ("7", "c0", "2", "c1"))
    spans = tuple(Span(n, 10.0 * i, 10.0 * (i + 1)) for i, n in enumerate(nodes))
    assert [s.node for s in _crossing_reached(VirtualLane(nodes, spans))] == [nodes[2]]
    laid = VirtualLane(nodes[:2], spans[:2])
    assert laid.raw_crossing_span == (10.0, 20.0) and not _crossing_reached(laid)


def test_a_lane_change_reads_the_partner_lane():
    # E straddles lanes 7 and 6 close to c0; B ahead on lane 7 fills view
    # 0's lower lane before the crossing, but lane 6 beside it is free
    net = _TOPO.net
    ts = TrafficSnapshot({
        "E": make_car(path("7", "c0", "c1", "2"), 120.0, speed=0.0,
                      res=frozenset({lane(7), lane(6)})),
        "B": make_car(path("7", "c0", "0"), 136.0, speed=0.0),
    }, net)
    params = ProtocolParams(d_c=40.0, max_se=15.0)
    mv = build_multiview(_TOPO, ts, "E", H_B, H_F)
    assert CHECK_CA(ts, mv, "E", params)
    assert "views" not in vars(mv)
    pair = mv.pairs[0]
    lower_only = MultiView("E", (LanePair(pair.forward, pair.forward, pair.target),),
                           mv.extent)
    assert not CHECK_CA(ts, lower_only, "E", params)  # B blocks the lower lane


def test_a_quiet_car_lays_out_no_view():
    # E in q0, far from the crossing and holding no crossing booking; B on
    # another approach, no rival of E's
    scenario = parse_scenario(NETWORK_TEXT + """[cars]
car E path=7,c0,c1,c2,4 pos=20 speed=8 size=4
car B path=1,c1,c2,4 pos=30 speed=8 size=4
""")
    sim = Simulation(scenario)
    ts = sim.ts
    sim.step()
    assert {i.defn.name: i.state for i in sim.instances if i.car == "E"} == {
        "road": "idle", "crossing": "q0"}
    mv = build_multiview(scenario.topo, ts, "E", scenario.h_b, scenario.h_f)
    assert (formulas.check_ca.__wrapped__, mv, "E", scenario.params) in ts.cache
    assert "views" not in vars(mv)
    assert mv.views  # laid out now, on this read


def test_loading_lays_out_every_car_s_lane_pairs(monkeypatch):
    # the `formulas` benchmark times `build_multiview` on a fresh load: the
    # lane pairs must be on the topology by then
    import crossings.views as views

    searches = []
    search = views.shortest_directed_path

    def counted(*args, **kwargs):
        searches.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(views, "shortest_directed_path", counted)
    loads = [*(lambda n=n: load_scenario(n) for n in bundled_scenarios()),
             *(lambda t=sweep_scenario_text(seed): parse_scenario(t) for seed in range(20))]
    for load in loads:
        before = len(searches)
        scenario = load()
        loaded = len(searches)
        assert loaded > before, scenario.name
        ts = scenario.snapshot()
        for cid in ts.cars:
            assert build_multiview(scenario.topo, ts, cid, scenario.h_b,
                                   scenario.h_f).views
        assert len(searches) == loaded, scenario.name
