import math
import random
from types import SimpleNamespace

import pytest

from crossings import logic
from crossings.logic import (
    EPS,
    And,
    Cl,
    Cs,
    Dir,
    Eq,
    EvalContext,
    Exists,
    Free,
    HChop,
    LenCmp,
    LogicError,
    Not,
    ParseError,
    Re,
    TRUE,
    VChop,
    chops,
    default_valuation,
    eval_formula,
    eval_multiview,
    invert,
    ors,
    parse,
    pretty,
    somewhere,
)
from crossings.network import NodeId, cs, lane
from crossings.snapshot import TrafficSnapshot
from crossings.views import Kind, build_multiview, twist

from conftest import make_car, single_view
import gridgen
from gridgen import GRID_POINTS, random_scene
from reference import oracle_eval


def path(*names):
    return tuple(NodeId.parse(n) for n in names)


@pytest.fixture
def busy(topo):
    cars = {
        "E": make_car(path("7", "c0", "c1", "c2", "4"), 100.0, speed=8.0, size=4.0),
        "D": make_car(path("5", "c3", "6"), 100.0, speed=8.0, size=4.0),
        "B": make_car(path("7", "c0", "c1", "c2", "4"), 40.0, speed=8.0, size=4.0),
    }
    return TrafficSnapshot(cars, topo.net)


@pytest.fixture
def busy_mv(topo, busy):
    return build_multiview(topo, busy, "E", h_b=50.0, h_f=150.0)


class TestParse:
    def test_chop_is_right_associative(self):
        got = parse("re(ego) ; free ; (cs & free)")
        assert got == HChop(Re("ego"), HChop(Free(), And(Cs(), Free())))

    def test_true(self):
        assert parse("true") == TRUE

    def test_somewhere_expands(self):
        got = parse("<free & l > 5.0>")
        want = somewhere(And(Free(), LenCmp(">", 5.0)))
        assert got == want
        assert want == HChop(
            TRUE,
            HChop(VChop(TRUE, VChop(And(Free(), LenCmp(">", 5.0)), TRUE)), TRUE),
        )

    def test_all_atoms(self):
        assert parse("cl(c) & dir(c) & x = y") == And(
            Cl("c"), And(Dir("c"), Eq("x", "y"))
        )
        assert parse("l = 0") == LenCmp("=", 0.0)

    def test_quantifier_and_vertical(self):
        got = parse("E c. ([re(c) / re(c)])")
        assert got == Exists("c", VChop(Re("c"), Re("c")))

    def test_negation_binds_tightest(self):
        assert parse("!free & cs") == And(Not(Free()), Cs())

    def test_syntax_error_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse("re(ego) ;; free")
        assert "position 9" in str(err.value)

    def test_unknown_atom(self):
        with pytest.raises(ParseError, match="unknown atom"):
            parse("blorb(x)")

    def test_builtins_parse(self):
        for text in ("@safe", "@col", "@ca", "@pc(c)", "@oc(c)", "@ol",
                     "@ocac(c)", "@lc(c)", "@ph(c)", "@phinv(c, cs)",
                     "@disjoint(a, b)"):
            parse(text)

    def test_names_a_car(self):
        # an id is accepted when formulas can name it wherever they name cars
        for cid in ("E", "A2", "_x", "olc", "c"):
            assert logic.names_a_car(cid)
            assert parse(f"re({cid}) & {cid} = {cid} & @pc({cid})") == And(
                Re(cid), And(Eq(cid, cid), parse(f"@pc({cid})")))
        for cid in ("ego", "true", "free", "cs", "re", "cl", "dir", "l",
                    "1A", "a-b", "E.", "@ol", ""):
            assert not logic.names_a_car(cid)

    def test_roundtrip_through_pretty(self):
        rng = random.Random(1)
        for _ in range(200):
            f = random_formula(rng, depth=4)
            assert parse(pretty(f)) == f


def random_formula(rng, depth, car_vars=("E", "D", "B")):
    atoms = [
        lambda: TRUE,
        lambda: Free(),
        lambda: Cs(),
        lambda: Re(rng.choice(car_vars)),
        lambda: Cl(rng.choice(car_vars)),
        lambda: Dir(rng.choice(car_vars)),
        lambda: Eq(rng.choice(car_vars), rng.choice(car_vars)),
        lambda: LenCmp(rng.choice("<>="), rng.randrange(1, 48) * 0.25),
    ]
    if depth <= 1:
        return rng.choice(atoms)()
    ops = ["atom", "not", "and", "hchop", "vchop", "exists"]
    op = rng.choice(ops)
    if op == "atom":
        return rng.choice(atoms)()
    if op == "not":
        return Not(random_formula(rng, depth - 1, car_vars))
    if op == "and":
        return And(random_formula(rng, depth - 1, car_vars),
                   random_formula(rng, depth - 1, car_vars))
    if op == "hchop":
        return HChop(random_formula(rng, depth - 1, car_vars),
                     random_formula(rng, depth - 1, car_vars))
    if op == "vchop":
        return VChop(random_formula(rng, depth - 1, car_vars),
                     random_formula(rng, depth - 1, car_vars))
    return Exists("q", random_formula(rng, depth - 1, ("q",) + car_vars))


class TestEval:
    def test_reservation_free_crossing_holds_somewhere(self, busy, busy_mv):
        nu = default_valuation(busy, "E")
        f = parse("<re(ego) ; free ; (cs & free)>")
        assert eval_formula(busy, busy_mv.views[0], nu, f)

    def test_free_needs_positive_length(self, busy, busy_mv):
        nu = default_valuation(busy, "E")
        # a chop part of length zero cannot satisfy free
        f = parse("(free & l = 0) ; true")
        assert not eval_formula(busy, busy_mv.views[0], nu, f)
        assert eval_formula(busy, busy_mv.views[0], nu, parse("(l = 0) ; true"))

    def test_whole_view_is_not_one_lane(self, busy, busy_mv):
        nu = default_valuation(busy, "E")
        assert not eval_formula(busy, busy_mv.views[0], nu, Free())

    def test_vertical_chop_singles_out_a_lane(self, busy, busy_mv):
        # both operands need a lane of their own once they demand m = 1:
        # E reserves on the lower lane, D on the upper one
        nu = default_valuation(busy, "E")
        assert eval_formula(busy, busy_mv.views[0], nu, parse("<[free / re(E)]>"))
        assert not eval_formula(busy, busy_mv.views[0], nu, parse("<[re(E) / free]>"))
        assert eval_formula(busy, busy_mv.views[0], nu, parse("<[re(D) / free]>"))
        assert not eval_formula(busy, busy_mv.views[0], nu, parse("<[free / re(D)]>"))

    def test_dir_follows_heading(self, topo):
        cars = {
            "E": make_car(path("7", "c0", "c1", "c2", "4"), 100.0, speed=8.0),
            "D": make_car(path("5", "c3", "6"), 100.0, speed=8.0,
                          heading_with_lane=False),
        }
        ts = TrafficSnapshot(cars, topo.net)
        mv = build_multiview(topo, ts, "E", h_b=50.0, h_f=150.0)
        nu = default_valuation(ts, "E")
        assert eval_formula(ts, mv.views[0], nu, Dir("E"))
        assert not eval_formula(ts, mv.views[0], nu, Dir("D"))

    def test_unbound_variable(self, busy, busy_mv):
        nu = default_valuation(busy, "E")
        with pytest.raises(LogicError, match="unbound"):
            eval_formula(busy, busy_mv.views[0], nu, Re("nobody"))

    def test_disjoint_needs_sets(self, busy, busy_mv):
        # car ids are strings: comparing their letters would be a verdict
        view = busy_mv.views[0]
        nu = default_valuation(busy, "E")
        nu["cells"] = frozenset({cs(0)})
        nu["more"] = frozenset({cs(1)})
        with pytest.raises(LogicError, match="'ego'"):
            eval_formula(busy, view, nu, parse("@disjoint(ego, cells)"))
        with pytest.raises(LogicError, match="'B'"):
            eval_formula(busy, view, nu, parse("@disjoint(cells, B)"))
        with pytest.raises(LogicError, match="'c'"):
            eval_formula(busy, view, nu, parse("E c. @disjoint(c, cells)"))
        with pytest.raises(LogicError, match="'ego'"):
            eval_formula(busy, view, nu, parse("cs & @disjoint(ego, cells)"))
        assert eval_formula(busy, view, nu, parse("@disjoint(cells, more)"))
        assert not eval_formula(busy, view, nu, parse("@disjoint(cells, cells)"))

    def test_exists_ranges_over_snapshot_cars(self, busy, busy_mv):
        nu = default_valuation(busy, "E")
        f = parse("E c. (<re(c) & cs>)")
        assert not eval_formula(busy, busy_mv.views[0], nu, f)
        g = parse("E c. (!(c = ego) & <re(c)>)")
        assert eval_formula(busy, busy_mv.views[0], nu, g)


class TestMultiView:
    def test_true_under_both_modes(self, busy, busy_mv):
        nu = default_valuation(busy, "E")
        assert eval_multiview(busy, busy_mv, nu, TRUE, mode="forall")
        assert eval_multiview(busy, busy_mv, nu, TRUE, mode="exists")

    def test_modes_differ_when_one_view_sees_a_car(self, topo):
        cars = {
            "E": make_car(path("7", "c0", "c1", "c2", "4"), 100.0, speed=8.0),
            "C": make_car(path("1", "c1", "2"), 100.0, speed=8.0),
        }
        ts = TrafficSnapshot(cars, topo.net)
        mv = build_multiview(topo, ts, "E", h_b=50.0, h_f=150.0)
        nu = default_valuation(ts, "E")
        f = parse("<re(C)>")
        per_view = [eval_formula(ts, v, nu, f) for v in mv.views]
        assert any(per_view) and not all(per_view)
        assert eval_multiview(ts, mv, nu, f, mode="exists")
        assert not eval_multiview(ts, mv, nu, f, mode="forall")
        # the law itself: fold-or / fold-and of the per-view results
        assert eval_multiview(ts, mv, nu, f, mode="exists") == any(per_view)
        assert eval_multiview(ts, mv, nu, f, mode="forall") == all(per_view)

    def test_single_view_modes_coincide(self, topo, busy):
        mv = build_multiview(topo, busy, "E", h_b=50.0, h_f=150.0)
        single = single_view(mv.views[0])
        nu = default_valuation(busy, "E")
        f = parse("<re(ego) ; free ; cs>")
        assert eval_multiview(busy, single, nu, f, "forall") == \
            eval_multiview(busy, single, nu, f, "exists") == \
            eval_formula(busy, mv.views[0], nu, f)

    def test_empty_multiview_is_refused(self, busy):
        from crossings.views import MultiView

        with pytest.raises(LogicError, match="empty"):
            eval_multiview(busy, MultiView("E", (), (0.0, 0.0)), {"ego": "E"}, TRUE)


class TestInvert:
    def test_chop_order_mirrors(self):
        core = HChop(Re("E"), HChop(Free(), Cs()))
        assert invert(core) == HChop(HChop(Cs(), Free()), Re("E"))
        assert invert(invert(core)) == core

    def test_inverted_somewhere_is_semantically_the_mirror(self, busy, busy_mv):
        # the mirrored chop chain holds on the twisted view exactly where the
        # hand-mirrored formula does
        nu = default_valuation(busy, "E")
        v = twist(busy_mv.views[0])
        mechanical = invert(somewhere(HChop(Re("E"), HChop(Free(), Cs()))))
        by_hand = somewhere(HChop(Cs(), HChop(Free(), Re("E"))))
        assert eval_formula(busy, v, nu, mechanical) == \
            eval_formula(busy, v, nu, by_hand) is True

    def test_atom_fixed(self):
        assert invert(Re("E")) == Re("E")
        assert invert(parse("l < 2.5")) == parse("l < 2.5")

    def test_twist_law_on_scenario(self, busy, busy_mv):
        nu = default_valuation(busy, "E")
        f = parse("<re(E) ; free ; cs>")
        v = busy_mv.views[0]
        assert eval_formula(busy, v, nu, f)
        assert eval_formula(busy, twist(v), nu, invert(f))

    def test_twist_law_randomized(self, topo, busy):
        rng = random.Random(9)
        mv = build_multiview(topo, busy, "E", h_b=50.0, h_f=150.0)
        nu = default_valuation(busy, "E")
        checked = 0
        for _ in range(150):
            f = random_formula(rng, depth=rng.randint(1, 4))
            v = mv.views[rng.randrange(len(mv.views))]
            lhs = eval_formula(busy, v, nu, f)
            rhs = eval_formula(busy, twist(v), nu, invert(f))
            assert lhs == rhs, pretty(f)
            checked += 1
        assert checked == 150


class TestChopLaws:
    def test_associativity(self, busy, busy_mv):
        rng = random.Random(4)
        nu = default_valuation(busy, "E")
        for _ in range(60):
            a = random_formula(rng, depth=2)
            b = random_formula(rng, depth=2)
            c = random_formula(rng, depth=2)
            v = busy_mv.views[rng.randrange(3)]
            left = eval_formula(busy, v, nu, HChop(HChop(a, b), c))
            right = eval_formula(busy, v, nu, HChop(a, HChop(b, c)))
            assert left == right, (pretty(a), pretty(b), pretty(c))

    def test_zero_length_chop_residue(self, busy, busy_mv):
        nu = default_valuation(busy, "E")
        # true and l = 0 hold on empty residues at the view border
        assert eval_formula(busy, busy_mv.views[0], nu, parse("(l = 0) ; true"))
        assert eval_formula(busy, busy_mv.views[0], nu, parse("true ; (l = 0)"))
        assert not eval_formula(busy, busy_mv.views[0], nu, parse("cs ; true"))


class TestExactness:
    """Closed-form answers: chops of any depth, exact atom bounds."""

    @pytest.mark.parametrize("k", [4, 5, 6, 7])
    def test_equal_parts_tile_the_view(self, busy, busy_mv, k):
        # k parts of length d within EPS each: the whole view is tiled
        # exactly when k * d is within k * EPS of its length
        view = busy_mv.views[0]
        nu = default_valuation(busy, "E")
        a, b = view.extent
        d = (b - a) / k

        def tiles(part):
            return eval_formula(busy, view, nu, chops(*[LenCmp("=", part)] * k))

        assert tiles(d)
        assert tiles(d + 0.5 * EPS) and tiles(d - 0.5 * EPS)
        assert not tiles(d + 2 * EPS) and not tiles(d - 2 * EPS)

    def with_runs(self, monkeypatch, busy, view, claim, reservation):
        crafted = {(0, Kind.CLAIMED, "E"): [claim], (0, Kind.RESERVED, "D"): [reservation]}
        ctx = EvalContext(busy, view)
        projected = ctx.runs
        monkeypatch.setattr(ctx, "runs", lambda lane, kind, car: crafted.get(
            (lane, kind, car), projected(lane, kind, car)))
        monkeypatch.setattr(logic, "EvalContext", lambda ts, v: ctx)
        return eval_formula(busy, view, default_valuation(busy, "E"),
                            parse("<cl(E) & re(D)>"))

    def test_touching_runs_do_not_overlap(self, monkeypatch, busy, busy_mv):
        # atom bounds are exact: a claim that ends where a reservation
        # starts shares no slice longer than EPS with it
        view = busy_mv.views[0]
        p = sum(view.extent) / 2
        assert not self.with_runs(monkeypatch, busy, view, (p - 5, p), (p, p + 5))
        assert self.with_runs(monkeypatch, busy, view, (p - 5, p), (p - 2 * EPS, p + 5))

    def test_touching_crossing_cells_do_not_overlap(self, topo):
        # E claims c1 and reserves c2, the next cell on its path
        cars = {"E": make_car(path("7", "c0", "c1", "c2", "4"), 100.0, speed=8.0,
                              cclm=frozenset({NodeId.parse("c1")}),
                              cres=frozenset({NodeId.parse("c2")}))}
        ts = TrafficSnapshot(cars, topo.net)
        view = build_multiview(topo, ts, "E", h_b=50.0, h_f=150.0).views[0]
        nu = default_valuation(ts, "E")
        assert eval_formula(ts, view, nu, parse("<cl(E) ; re(E)>"))
        assert not eval_formula(ts, view, nu, parse("<cl(E) & re(E)>"))

    def test_closed_forms_are_the_closures(self):
        # the domain of _Zones and the zone of each box are written already
        # closed; both must be what Floyd-Warshall makes of their constraints
        rng = random.Random(5)
        le0 = logic._LE0
        for _ in range(5000):
            a = rng.choice((0.0, -10.0, rng.uniform(-300, 300)))
            b = a + rng.choice((0.0, 49.95, rng.uniform(-1, 300)))
            domain = logic._close(logic._constraints(
                (1, (-a, 0)), (2, (-a, 0)), (3, (b, 0)), (5, le0), (6, (b, 0))), 3)
            zones = logic._Zones(SimpleNamespace(view=SimpleNamespace(extent=(a, b))), {})
            assert zones.all == ([domain] if domain else [])
            if domain is None:
                continue
            lo = rng.choice((a, rng.uniform(a, b)))
            hi = min(b, rng.choice((b, rng.uniform(lo, b), lo + 2 * EPS, lo + 1.000001 * EPS)))
            if hi - lo <= EPS:
                continue
            box = logic._constraints((1, (-lo, 0)), (5, (-EPS, -1)), (6, (hi, 0)))
            closed = logic._close(tuple(map(min, domain, box)), 3)
            if closed is None:
                # rounding hi - EPS empties a box longer than EPS by less
                # than a rounding step; the box rule keeps it, as reals do
                assert hi - lo - EPS < 4 * math.ulp(max(abs(lo), abs(hi)))
            else:
                assert logic._box(lo, hi) == closed

    def test_five_chops_with_three_length_constants(self):
        f = parse("[true / true ; l < 1.73 ; l = 10.25 ; free & l > 11.01"
                  " ; free & l > 13.28]")
        rng = random.Random(8)
        verdicts = set()
        for _ in range(6):
            ts, view = random_scene(rng)
            nu = default_valuation(ts, "E")
            got = eval_formula(ts, view, nu, f)
            assert got == oracle_eval(ts, view, nu, f, points=GRID_POINTS)
            verdicts.add(got)
        assert verdicts == {True, False}


def _rooted(rng, depth, car_vars, identities):
    """A formula with !, &, an ``ors`` disjunction, E or somewhere at the
    root, and with even odds one of them again below it."""
    op = rng.choice(("not", "and", "or", "exists", "somewhere"))
    if op == "exists":
        var = f"v{sum(v.startswith('v') for v in car_vars)}"
        car_vars = tuple(car_vars) + (var,)

    def sub():
        if depth > 2 and rng.random() < 0.5:
            return _rooted(rng, depth - 1, car_vars, identities)
        return gridgen.random_formula(rng, rng.randint(1, depth - 1), car_vars, identities)

    if op == "not":
        return Not(sub())
    if op == "and":
        return And(sub(), sub())
    if op == "or":
        return ors(sub(), sub())
    if op == "exists":
        return Exists(var, sub())
    return somewhere(sub())


def _agree_with_the_oracle(shapes, rng, scenes=50, any_ego=False):
    """Each shape agrees with the dense-grid oracle on random scenes, with
    more than 50 verdicts each way; ``any_ego`` binds ego to a random car
    instead of E, whose view it is."""
    verdicts = {True: 0, False: 0}
    for _ in range(scenes):
        ts, view = random_scene(rng)
        nu = default_valuation(ts, rng.choice(sorted(ts.cars)) if any_ego else "E")
        for f in shapes:
            got = eval_formula(ts, view, nu, f)
            assert got == oracle_eval(ts, view, nu, f, points=GRID_POINTS), pretty(f)
            verdicts[got] += 1
    assert min(verdicts.values()) > 50, verdicts


class TestMembership:
    """The top-down membership test against membership in the full truth set."""

    def test_chops_around_a_middle_other_than_the_lane_split(self):
        # true ; X ; true holds exactly when X holds on some slice, also
        # when X is not the lane split that ``somewhere`` puts there
        shapes = [parse(text) for text in (
            "true ; re(ego) ; true",
            "true ; [re(ego) / re(ego)] ; true",
            "true ; (free & l < 5) ; true",
            "true ; [true / re(ego)] ; true",
            "true ; [free & l > 3 / cs] ; true",
            "true ; [free / re(ego)] ; true",
        )]
        _agree_with_the_oracle(shapes, random.Random(17))

    def test_shapes_where_boxes_meet_zones(self):
        # truth sets stay one-lane boxes under &, | and E x. and turn into
        # zones below a length bound, a horizontal chop or a negation; the
        # oracle knows neither, so it checks both sides of that boundary.
        # l > 6 reads a box's bounds after it became a zone, [free / free]
        # asks a root set of boxes, and the last row meets a union of boxes
        # and zones again
        re_or_cs = ors(Re("ego"), Cs())  # the syntax has no |
        shapes = [parse(text) for text in (
            "<re(ego) & l < 5>",
            "<re(ego) & l > 6>",
            "<re(ego) ; free>",
            "<!cs & re(ego)>",
            "<[re(ego) / free] & E c. cl(c)>",
            "re(ego)",
            "free",
            "[free / free]",
        )] + [somewhere(And(re_or_cs, Not(Free()))), chops(TRUE, re_or_cs, TRUE),
              somewhere(And(ors(Re("ego"), parse("cs & l > 4")), Not(Cs())))]
        # with ego = E every re(ego) row would hold on every scene
        _agree_with_the_oracle(shapes, random.Random(19), scenes=30, any_ego=True)

    @pytest.mark.parametrize("identities", [False, True])
    def test_member_agrees_with_the_truth_set(self, identities):
        rng = random.Random(600 + identities)
        verdicts = {True: 0, False: 0}
        for _ in range(250):
            if identities:
                ts, view = random_scene(rng, max_cars=7, off_view=2)
            else:
                ts, view = random_scene(rng)
            f = _rooted(rng, rng.randint(2, 6), tuple(sorted(ts.cars)), identities)
            nu = default_valuation(ts, "E")
            scope = logic._scope(nu, f)
            ctx = EvalContext(ts, view)
            top_down = logic._Zones(ctx, scope).member(f, nu, ())
            full = logic._Zones(ctx, scope)
            assert top_down == full.holds(full.run(f, nu, (), (0, 1))), pretty(f)
            verdicts[top_down] += 1
        assert min(verdicts.values()) > 50, verdicts
