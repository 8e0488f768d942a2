"""The fast interval checks must agree with their formula counterparts."""

import random
from importlib import resources

import pytest

from crossings.formulas import (
    ca_formula,
    check_ca,
    check_lc,
    check_phinv,
    col_formula,
    col_witness,
    geom_lc,
    geom_oc,
    geom_pc,
    geom_ph,
    lc_formula,
    oc_formula,
    pc_cars,
    pc_formula,
    ph_cars,
    ph_formula,
    phinv_formula,
    safe_formula,
)
from crossings.harness import Simulation
from crossings.logic import (
    EPS,
    Eq,
    EvalContext,
    Not,
    SetDisjoint,
    ands,
    default_valuation,
    eval_formula,
    eval_multiview,
    ors,
    pretty,
)
from crossings.network import NodeId, cs, lane
from crossings.params import ProtocolParams
from crossings.randomgen import negative_scenario, sweep_scenario
from crossings.scenario import load_scenario, parse_scenario
from crossings.snapshot import TrafficSnapshot
from crossings.views import (
    Kind,
    build_multiview,
    car_fragment,
    collisions,
    overlap_pos,
)

from brute import assert_agrees_on_views, ground_truth_nodes, intersects_open
from conftest import make_car, single_view
from gridgen import _TOPO, H_B, H_F, random_scene

PARAMS = ProtocolParams(d_c=20.0, max_se=15.0)


def path(*names):
    return tuple(NodeId.parse(n) for n in names)


class TestEquivalence:
    """Interval checks == formula evaluation, on randomized snapshots."""

    def test_per_view_checks(self):
        rng = random.Random(31)
        checked = 0
        for _ in range(60):
            ts, view = random_scene(rng)
            ctx = EvalContext(ts, view)
            nu = default_valuation(ts, "E")
            for c in sorted(ts.cars):
                assert geom_oc(ts, view, c) == eval_formula(
                    ts, view, nu, oc_formula(c)
                ), ("oc", c)
                assert geom_lc(ts, view, c) == eval_formula(
                    ts, view, nu, lc_formula(c)
                ), ("lc", c)
                assert geom_pc(ts, view, "E", c) == eval_formula(
                    ts, view, nu, pc_formula(c)
                ), ("pc", c)
                if c != "E":
                    assert _col_pair(ctx, "E", c) == eval_formula(
                        ts, view, nu, _pair_col(c)
                    ), ("col", c)
                assert geom_ph(ts, view, "E", c, PARAMS) == eval_formula(
                    ts, view, nu, ph_formula(c, PARAMS)
                ), ("ph", c)
                checked += 1
        assert checked > 150

    def test_ca_check(self):
        rng = random.Random(77)
        for _ in range(60):
            ts, view = random_scene(rng)
            nu = default_valuation(ts, "E")
            assert check_ca(ts, single_view(view), "E", PARAMS) == eval_formula(
                ts, view, nu, ca_formula(PARAMS)
            )

    def test_col_existential(self):
        rng = random.Random(13)
        for _ in range(40):
            ts, view = random_scene(rng)
            nu = default_valuation(ts, "E")
            direct = col_witness(ts, single_view(view), "E") is not None
            assert direct == eval_formula(ts, view, nu, col_formula())
            assert direct != eval_formula(ts, view, nu, safe_formula()) or \
                len(ts.cars) == 1


def _col_pair(ctx, a, b):
    """Do the reservations of cars a and b overlap on one lane of the view?"""
    return a != b and any(
        overlap_pos(ctx.runs(lane, Kind.RESERVED, a),
                    ctx.runs(lane, Kind.RESERVED, b))
        for lane in (0, 1))


def _pair_col(c):
    from crossings.logic import And, Re, somewhere

    return somewhere(And(Re("ego"), Re(c)))


class TestBehaviour:
    def test_ca_sees_the_crossing_within_reach(self, topo):
        ts = TrafficSnapshot(
            {"E": make_car(path("7", "c0", "c1", "2"), 135.0, speed=8.0)}, topo.net
        )
        mv = build_multiview(topo, ts, "E", h_b=50.0, h_f=150.0)
        assert check_ca(ts, mv, "E", PARAMS)
        far = TrafficSnapshot(
            {"E": make_car(path("7", "c0", "c1", "2"), 30.0, speed=8.0)}, topo.net
        )
        mv_far = build_multiview(topo, far, "E", h_b=50.0, h_f=150.0)
        assert not check_ca(far, mv_far, "E", PARAMS)

    def test_ca_fails_with_a_car_in_between(self, topo):
        ts = TrafficSnapshot(
            {
                "E": make_car(path("7", "c0", "c1", "2"), 125.0, speed=8.0),
                "B": make_car(path("7", "c0", "c1", "2"), 140.0, speed=8.0),
            },
            topo.net,
        )
        mv = build_multiview(topo, ts, "E", h_b=50.0, h_f=150.0)
        assert not check_ca(ts, mv, "E", PARAMS)

    def test_pc_triggers_on_claim_overlap(self, topo):
        shared = frozenset({cs(0), cs(1)})
        ts = TrafficSnapshot(
            {
                "E": make_car(path("7", "c0", "c1", "2"), 130.0, speed=8.0,
                              cclm=shared),
                "C": make_car(path("1", "c1", "c2", "4"), 130.0, speed=8.0,
                              cclm=frozenset({cs(1), cs(2)})),
            },
            topo.net,
        )
        mv = build_multiview(topo, ts, "E", h_b=50.0, h_f=150.0)
        assert any(geom_pc(ts, v, "E", "C") for v in mv.views)

    def test_crossing_reservations_of_others_stay_invisible(self, topo):
        # imperfect knowledge: a reservation not physically backed is unseen
        ts = TrafficSnapshot(
            {
                "E": make_car(path("7", "c0", "c1", "2"), 130.0, speed=8.0,
                              cclm=frozenset({cs(0), cs(1)})),
                "A": make_car(path("5", "c3", "c0", "0"), 60.0, speed=8.0,
                              cres=frozenset({cs(3), cs(0)})),
            },
            topo.net,
        )
        mv = build_multiview(topo, ts, "E", h_b=50.0, h_f=150.0)
        assert all(not geom_pc(ts, v, "E", "A") for v in mv.views)

    def test_monitor_sees_braking_distance_invasion(self, topo):
        # E reserved c0/c1 and approaches; A's envelope (with its reserved
        # cells on the way) already stretches onto c0.  Sensors show neither.
        ts = TrafficSnapshot(
            {
                "E": make_car(path("7", "c0", "c1", "2"), 145.0, speed=8.0,
                              braking=4.0, cres=frozenset({cs(0), cs(1)})),
                "A": make_car(path("5", "c3", "c0", "0"), 145.0, speed=8.0,
                              braking=8.0, cres=frozenset({cs(3), cs(0)})),
            },
            topo.net,
        )
        mv = build_multiview(topo, ts, "E", h_b=50.0, h_f=150.0)
        assert collisions(ts) == {"E": ("A", cs(0)), "A": ("E", cs(0))}
        assert col_witness(ts, mv, "E") is None

    def test_ph_detects_car_on_crossing(self, topo):
        ts = TrafficSnapshot(
            {
                "E": make_car(path("7", "c0", "c1", "2"), 130.0, speed=8.0),
                "A": make_car(path("5", "c3", "6"), 1.0, curr=1, speed=5.0,
                              size=3.0, braking=0.0, cres=frozenset({cs(3)})),
            },
            topo.net,
        )
        mv = build_multiview(topo, ts, "E", h_b=50.0, h_f=150.0)
        assert ph_cars(ts, mv, "E", PARAMS) == {"A"}

    def test_ph_detects_opposing_approacher_within_reach(self, topo):
        params = ProtocolParams(d_c=60.0, max_se=40.0)
        near = TrafficSnapshot(
            {
                "E": make_car(path("7", "c0", "c1", "c2", "4"), 100.0, speed=8.0),
                "D": make_car(path("5", "c3", "6"), 100.0, speed=8.0),
            },
            topo.net,
        )
        mv = build_multiview(topo, near, "E", h_b=50.0, h_f=150.0)
        assert ph_cars(near, mv, "E", params) == {"D"}
        # driving away from the crossing instead: not a helper
        away = TrafficSnapshot(
            {
                "E": near.cars["E"],
                "D": make_car(path("5", "c3", "6"), 100.0, speed=8.0,
                              heading_with_lane=False),
            },
            topo.net,
        )
        mv2 = build_multiview(topo, away, "E", h_b=50.0, h_f=150.0)
        assert ph_cars(away, mv2, "E", params) == set()

    def test_lane_change_shows_on_both_lanes_of_own_segment(self, topo):
        # a straddling car reserves the same stretch of both paired lanes, so
        # the two projections align vertically on its own road segment
        ts = TrafficSnapshot(
            {
                "E": make_car(path("7", "c0", "c1", "c2", "4"), 100.0, speed=8.0,
                              res=frozenset({lane(7), lane(6)})),
            },
            topo.net,
        )
        mv = build_multiview(topo, ts, "E", h_b=50.0, h_f=150.0)
        assert geom_lc(ts, mv.views[0], "E")
        nu = default_valuation(ts, "E")
        assert eval_formula(ts, mv.views[0], nu, lc_formula("E"))

    def test_phinv_formula_reads_the_magic_set_variable(self, topo):
        ts = TrafficSnapshot(
            {
                "E": make_car(path("7", "c0", "c1", "c2", "4"), 100.0, speed=8.0),
                "D": make_car(path("5", "c3", "6"), 100.0, speed=8.0),
            },
            topo.net,
        )
        mv = build_multiview(topo, ts, "D", h_b=50.0, h_f=150.0)
        nu = default_valuation(ts, "D")
        nu["req"] = frozenset({cs(0), cs(1), cs(2)})
        nu["csa"] = frozenset({cs(3)})
        f = phinv_formula("E", "req", ProtocolParams())
        assert eval_multiview(ts, mv, nu, f, mode="exists")
        nu["csa"] = frozenset({cs(0)})
        assert not eval_multiview(ts, mv, nu, f, mode="exists")


# ---------------------------------------------------------------------------
# broad phase: the narrowed checks against all-car scans over full contexts


def _brute_col(ts, mv, ego):
    for idx, view in enumerate(mv.views):
        merged = {c: car_fragment(ts, c, view) for c in sorted(ts.cars)}
        for lane_idx in (0, 1):
            mine = merged[ego].get((lane_idx, Kind.RESERVED))
            if not mine:
                continue
            for c, theirs in merged.items():
                if c != ego and overlap_pos(
                        mine, theirs.get((lane_idx, Kind.RESERVED), [])):
                    return (c, idx)
    return None


def _brute_pc(ts, mv, ego):
    out = set()
    for view in mv.views:
        ctx = EvalContext(ts, view)
        for lane_idx in (0, 1):
            mine = ctx.runs(lane_idx, Kind.CLAIMED, ego)
            if not mine:
                continue
            for c in ctx.car_ids:
                if c != ego and any(
                    overlap_pos(mine, ctx.runs(lane_idx, kind, c))
                    for kind in Kind
                ):
                    out.add(c)
    return out


def _brute_ca(ts, mv, ego, d_c):
    ctx = EvalContext(ts, mv.views[0])
    for lane_idx in (0, 1):
        span = ctx.crossing_span[lane_idx]
        if span is None:
            continue
        start = span[0]
        for lo, hi in ctx.runs(lane_idx, Kind.RESERVED, ego):
            if hi < start - EPS and start - hi < d_c - EPS and not intersects_open(
                ctx.any_occ.get(lane_idx, []), hi, start
            ):
                return True
    return False


def _assert_narrowed_checks_exact(topo, ts, h_b, h_f, params, seen):
    """Every car as ego: col(ego), pc and ca equal the brute force, and the
    monitor's node-level ground truth agrees with the per-view reading."""
    hits, nodes = collisions(ts), ground_truth_nodes(ts)
    for ego in sorted(ts.cars):
        mv = build_multiview(topo, ts, ego, h_b, h_f)
        where = (ego, {c: (s.node, s.pos) for c, s in ts.cars.items()})
        witness = col_witness(ts, mv, ego)
        assert witness == _brute_col(ts, mv, ego), where
        seen["col"] += witness is not None
        assert not assert_agrees_on_views(hits, ts, mv, ego, nodes), where
        seen["col"] += ego in hits
        pc = pc_cars(ts, mv, ego)
        assert pc == _brute_pc(ts, mv, ego), where
        seen["pc"] += bool(pc)
        ca = check_ca(ts, mv, ego, params)
        assert ca == _brute_ca(ts, mv, ego, params.d_c), where
        seen["ca"] += ca


def _run_checked(scenario, seen, every=1):
    sim = Simulation(scenario)
    for tick in range(scenario.ticks):
        if tick % every == 0:
            _assert_narrowed_checks_exact(scenario.topo, sim.ts, scenario.h_b,
                                          scenario.h_f, scenario.params, seen)
        sim.step()


class TestBroadPhase:
    """Projecting only the cars that share a node with the ego is exact."""

    def test_sweep_snapshots(self):
        seen = dict.fromkeys(("col", "pc", "ca"), 0)
        for seed in (0, 2, 5, 6, 11):
            _run_checked(sweep_scenario(seed), seen, every=4)
        assert seen["ca"]

    def test_every_negative_conflict(self):
        seen = dict.fromkeys(("col", "pc", "ca"), 0)
        conflicts = set()
        for seed in range(40):
            scenario = negative_scenario(seed)
            key = tuple((s.path, s.cres) for _, s in sorted(scenario.cars.items()))
            if key in conflicts:
                continue
            conflicts.add(key)
            _run_checked(scenario, seen)
        assert len(conflicts) == 6
        assert seen["col"]

    def test_lane_change_and_followers(self, topo):
        seen = dict.fromkeys(("col", "pc", "ca"), 0)
        for ts in _lane_change_scenes(topo):
            _assert_narrowed_checks_exact(topo, ts, 50.0, 150.0, PARAMS, seen)
        assert seen["col"] and seen["pc"] and seen["ca"]

    def test_random_scenes(self):
        rng = random.Random(5)
        seen = dict.fromkeys(("col", "pc", "ca"), 0)
        for _ in range(60):
            ts, view = random_scene(rng)
            _assert_narrowed_checks_exact(_TOPO, ts, H_B, H_F, PARAMS, seen)
        assert seen["pc"] and seen["ca"]

    def test_crossing_ahead_with_the_gap_taken(self, topo):
        seen = dict.fromkeys(("col", "pc", "ca"), 0)
        for ts in _gap_scenes(topo):
            _assert_narrowed_checks_exact(topo, ts, 50.0, 150.0, PARAMS, seen)
            mv = build_multiview(topo, ts, "E", 50.0, 150.0)
            assert check_ca(ts, mv, "E", PARAMS) == (len(ts.cars) == 1)


def _lane_change_scenes(topo):
    # E straddles lanes 7 and 6 (partner-lane entries) and D comes the
    # other way on lane 6 beside it; B follows E on lane 7, its envelope
    # overlapping, touching or short of E's; F claims lane 6, and G and
    # H claim crossing cells they share
    route = path("7", "c0", "c1", "c2", "4")
    for gap in (2.0, 3.75, 4.0, 6.0, 12.0):
        yield TrafficSnapshot(
            {
                "E": make_car(route, 100.0, speed=8.0,
                              res=frozenset({lane(7), lane(6)})),
                "B": make_car(route, 100.0 - 4.0 - gap, speed=8.0,
                              braking=4.0),
                "D": make_car(path("5", "c3", "6"), 44.0, curr=2,
                              speed=8.0),
                "F": make_car(route, 60.0, speed=8.0,
                              clm=frozenset({lane(6)})),
                "G": make_car(route, 130.0, speed=8.0,
                              cclm=frozenset({cs(0), cs(1), cs(2)})),
                "H": make_car(path("1", "c1", "c2", "4"), 130.0, speed=8.0,
                              cclm=frozenset({cs(1), cs(2)})),
            },
            topo.net,
        )


def _gap_scenes(topo):
    # E is within d_c of c0; the gap before it is free, taken by Z, or
    # claimed whole by J from the partner lane (claims are not free)
    route = path("7", "c0", "c1", "2")
    ego = make_car(route, 128.0, speed=8.0)
    for others in (
        {},
        {"Z": make_car(route, 140.0, speed=0.0, size=4.0)},
        {"J": make_car(path("6"), 100.0, speed=8.0,
                       clm=frozenset({lane(7)}))},
    ):
        yield TrafficSnapshot({"E": ego, **others}, topo.net)


# ---------------------------------------------------------------------------
# evaluator and guard checks on scenes where the guards are true


def _assert_guard_formulas_agree(topo, ts, h_b, h_f, params, seen):
    """Every car as ego: @col, and @lc, @pc and @ph of every other car, by
    the evaluator over the multi-view and by the guard checks."""
    for ego in sorted(ts.cars):
        mv = build_multiview(topo, ts, ego, h_b, h_f)
        if not mv.views:
            continue
        nu = default_valuation(ts, ego)

        def agree(kind, f, direct):
            got = eval_multiview(ts, mv, nu, f, mode="exists")
            assert got == direct, (kind, ego, pretty(f))
            seen[kind] += direct

        agree("col", col_formula(), col_witness(ts, mv, ego) is not None)
        for c in sorted(ts.cars):
            if c != ego:
                agree("lc", lc_formula(c), check_lc(ts, mv, c))
                agree("pc", pc_formula(c), c in pc_cars(ts, mv, ego))
                agree("ph", ph_formula(c, params), c in ph_cars(ts, mv, ego, params))


class TestTrueGuards:
    """The evaluator says true where the guard checks do: a wrong false on
    @col, @lc, @pc or @ph fails here."""

    def test_negative_conflicts(self):
        seen = dict.fromkeys(("col", "lc", "pc", "ph"), 0)
        conflicts = set()
        for seed in range(40):
            scenario = negative_scenario(seed)
            key = tuple((s.path, s.cres) for _, s in sorted(scenario.cars.items()))
            if key in conflicts:
                continue
            conflicts.add(key)
            sim = Simulation(scenario)
            for tick in range(scenario.ticks):
                if tick % 2 == 0:
                    _assert_guard_formulas_agree(scenario.topo, sim.ts, scenario.h_b,
                                                 scenario.h_f, scenario.params, seen)
                sim.step()
        assert len(conflicts) == 6
        # no car here holds two lanes: lc is true only in the lane-change scenes
        assert seen["col"] and seen["ph"] and not seen["lc"], seen

    def test_lane_change_and_claim_scenes(self, topo):
        seen = dict.fromkeys(("col", "lc", "pc", "ph"), 0)
        for ts in [*_lane_change_scenes(topo), *_gap_scenes(topo)]:
            _assert_guard_formulas_agree(topo, ts, 50.0, 150.0, PARAMS, seen)
        assert all(seen.values()), seen


# ---------------------------------------------------------------------------
# phinv: the guard check against the formula's conjuncts


def _requests(ts):
    """(enquirer, segments) pairs a receiver may be asked about: each car's
    claimed crossing cells and the run of crossing cells next on its path."""
    for c, s in sorted(ts.cars.items()):
        if s.cclm:
            yield c, s.cclm
        i = s.curr
        while i < len(s.path) and not s.path[i].is_crossing:
            i += 1
        j = i
        while j < len(s.path) and s.path[j].is_crossing:
            j += 1
        if j > i:
            yield c, frozenset(s.path[i:j])


def _assert_phinv_agrees(topo, ts, h_b, h_f, params, seen):
    """Every car as receiver, against every request: ``check_phinv`` equals
    ``phinv_formula``'s conjuncts, each evaluated under the mode the guard
    judges it in: lc and oc in some view, ca on view 0, the request's
    segments disjoint from csa = the receiver's cclm | cres; and it equals
    the formula judged whole in some view."""
    for ego in sorted(ts.cars):
        mv = build_multiview(topo, ts, ego, h_b, h_f)
        if not mv.views:
            continue
        nu = default_valuation(ts, ego)
        nu["csa"] = ts.cars[ego].cclm | ts.cars[ego].cres
        lc = eval_multiview(ts, mv, nu, lc_formula("ego"), mode="exists")
        on_or_ahead = eval_multiview(ts, mv, nu, oc_formula("ego"), mode="exists") \
            or eval_formula(ts, mv.views[0], nu, ca_formula(params))
        for c, segments in _requests(ts):
            nu["req"] = segments
            not_self, disjoint = (Not(Eq("ego", c)), SetDisjoint("csa", "req"))
            assert phinv_formula(c, "req", params) == ands(
                not_self, ors(oc_formula("ego"), ca_formula(params)),
                Not(lc_formula("ego")), disjoint)
            rest = eval_formula(ts, mv.views[0], nu, ands(not_self, disjoint)) \
                and on_or_ahead
            got = check_phinv(ts, mv, ego, c, segments, params)
            assert got == (rest and not lc), (ego, c, sorted(map(str, segments)))
            assert got == eval_multiview(
                ts, mv, nu, phinv_formula(c, "req", params), mode="exists"), (ego, c)
            seen["true"] += got
            seen["lc"] += rest and lc


class TestPhinv:
    """The helper's ``phinv`` check is its formula, conjunct by conjunct and
    judged whole in some view."""

    def test_sweep_snapshots(self):
        # no sweep car holds two lanes, so lc is false throughout; on seed 24
        # from tick 28, F holds cres c0-c2 while E asks it about c3
        seen = dict.fromkeys(("true", "lc"), 0)
        for seed in (0, 2, 5, 24):
            scenario = sweep_scenario(seed)
            sim = Simulation(scenario)
            for tick in range(scenario.ticks):
                if tick % 4 == 0:
                    _assert_phinv_agrees(scenario.topo, sim.ts, scenario.h_b,
                                         scenario.h_f, scenario.params, seen)
                sim.step()
        assert seen["true"] and not seen["lc"], seen

    def test_guard_scenes(self, topo):
        seen = dict.fromkeys(("true", "lc"), 0)
        # besides the scenes above: E mid lane change within reach of c0,
        # asked by D about c3
        changing = TrafficSnapshot(
            {
                "E": make_car(path("7", "c0", "c1", "c2", "4"), 130.0, speed=8.0,
                              res=frozenset({lane(7), lane(6)})),
                "D": make_car(path("5", "c3", "6"), 100.0, speed=8.0),
            },
            topo.net,
        )
        for ts in [*_lane_change_scenes(topo), *_gap_scenes(topo), changing]:
            _assert_phinv_agrees(topo, ts, 50.0, 150.0, PARAMS, seen)
        conflicts = set()
        for seed in range(40):
            scenario = negative_scenario(seed)
            key = tuple((s.path, s.cres) for _, s in sorted(scenario.cars.items()))
            if key in conflicts:
                continue
            conflicts.add(key)
            sim = Simulation(scenario)
            for tick in range(scenario.ticks):
                if tick % 2 == 0:
                    _assert_phinv_agrees(scenario.topo, sim.ts, scenario.h_b,
                                         scenario.h_f, scenario.params, seen)
                sim.step()
        assert seen["true"] and seen["lc"], seen

    def test_a_car_holding_its_crossing_run_vouches(self):
        # lone-left-turn's E holds c0-c2, whose cells lie on both lanes of its
        # view toward r2: that is no lane change, so E may vouch for a
        # request on c3 that its booking does not touch
        text = resources.files("crossings").joinpath(
            "scenarios", "lone-left-turn.scn").read_text()
        scenario = parse_scenario(text.replace("size=4", "size=4 cres=c0,c1,c2"))
        ts = scenario.snapshot()
        mv = build_multiview(scenario.topo, ts, "E", scenario.h_b, scenario.h_f)
        assert not check_lc(ts, mv, "E")
        assert check_phinv(ts, mv, "E", "D", {cs(3)}, scenario.params)


class TestVerdictStore:
    def test_each_params_gets_its_own_verdict(self):
        # on one snapshot and multi-view, a verdict for one ProtocolParams
        # must not answer a call with another
        scenario = load_scenario("left-turn")
        near, far = ProtocolParams(d_c=1.0, max_se=1.0), ProtocolParams(d_c=200.0)
        ts = scenario.snapshot()
        mv = build_multiview(scenario.topo, ts, "E", scenario.h_b, scenario.h_f)
        for params, ahead, helpers in ((far, True, {"A", "C", "D"}),
                                       (near, False, {"A"}), (far, True, {"A", "C", "D"})):
            assert check_ca(ts, mv, "E", params) is ahead
            assert ph_cars(ts, mv, "E", params) == helpers
