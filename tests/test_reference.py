"""Zone evaluator versus the dense-grid brute force."""

import random

import pytest

from crossings.logic import default_valuation, eval_formula, parse, pretty
from crossings.network import NodeId
from crossings.snapshot import TrafficSnapshot
from crossings.views import build_multiview
from conftest import make_car
from gridgen import GRID_POINTS, H_B, H_F, random_instance
from reference import oracle_eval


def duel(seed: int, rounds: int, max_depth: int = 4, identities: bool = False) -> int:
    rng = random.Random(seed)
    disagreements = []
    for _ in range(rounds):
        ts, view, f = random_instance(rng, max_depth=max_depth, identities=identities)
        nu = default_valuation(ts, "E")
        fast = eval_formula(ts, view, nu, f)
        slow = oracle_eval(ts, view, nu, f, points=GRID_POINTS)
        if fast != slow:
            disagreements.append((pretty(f), fast, slow))
    assert not disagreements, disagreements[:3]
    return rounds


def test_atoms_and_shallow_formulas_agree():
    duel(seed=100, rounds=40, max_depth=2)


def test_medium_formulas_agree():
    duel(seed=200, rounds=40, max_depth=3)


def test_deep_formulas_agree():
    duel(seed=300, rounds=30, max_depth=4)


def test_very_deep_formulas_agree():
    duel(seed=400, rounds=100, max_depth=6)


def test_identity_formulas_agree():
    # disjunctions under chops and negations, occupancy atoms meeting
    # somewhere, nested quantifiers over fresh names, equalities between
    # them, and at least two cars off the view
    duel(seed=500, rounds=150, max_depth=6, identities=True)


@pytest.mark.parametrize("far, want", [(("B",), False), (("B", "C"), True)])
def test_two_distinct_cars_off_the_view(topo, far, want):
    # E c. E d. with c != d and neither reserving anything on the view holds
    # only when two cars are off the view: one stand-in must not serve both
    def car(route, pos):
        return make_car([NodeId.parse(p) for p in route.split(",")], pos)

    cars = {"E": car("7,c0,c1,c2,4", 100.0)}
    for name, route in zip(far, ("3,c2,4", "5,c3,6")):
        cars[name] = car(route, 20.0)
    ts = TrafficSnapshot(cars, topo.net)
    f = parse("E c. E d. (!(c = d) & !<re(c)> & !<re(d)>)")
    nu = default_valuation(ts, "E")
    for view in build_multiview(topo, ts, "E", h_b=H_B, h_f=H_F).views:
        assert eval_formula(ts, view, nu, f) is want
        assert oracle_eval(ts, view, nu, f, points=GRID_POINTS) is want
