import random

import pytest

from crossings.logic import (
    And,
    Cl,
    Cs,
    Dir,
    Eq,
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
    default_valuation,
    eval_formula,
    eval_multiview,
    invert,
    parse,
    pretty,
    somewhere,
)
from crossings.network import NodeId, cs, lane
from crossings.snapshot import TrafficSnapshot
from crossings.views import build_multiview, twist

from conftest import make_car


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
        from crossings.views import MultiView

        mv = build_multiview(topo, busy, "E", h_b=50.0, h_f=150.0)
        single = MultiView("E", (mv.views[0],))
        nu = default_valuation(busy, "E")
        f = parse("<re(ego) ; free ; cs>")
        assert eval_multiview(busy, single, nu, f, "forall") == \
            eval_multiview(busy, single, nu, f, "exists") == \
            eval_formula(busy, mv.views[0], nu, f)

    def test_empty_multiview_is_refused(self, busy):
        from crossings.views import MultiView

        with pytest.raises(LogicError, match="empty"):
            eval_multiview(busy, MultiView("E", ()), {"ego": "E"}, TRUE)


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
    @pytest.mark.slow
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
