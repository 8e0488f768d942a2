"""Random (view, formula) instances for the evaluator-vs-brute-force duels.

All geometry (positions, sizes, braking distances, claim sets) sits on a
0.25 m lattice and the view window is 49.95 m long, so a 1000-point chop
grid (step 0.05 m) passes through every point where any atom can change
truth value.  Length constants are 0.25 multiples as well.  Under these
conditions the dense grid search is exhaustive, which is what makes a
zero-disagreement comparison meaningful rather than lucky.
"""

from __future__ import annotations

import random
from dataclasses import replace

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
    Not,
    Re,
    TRUE,
    VChop,
    ors,
    somewhere,
)
from crossings.network import NodeId
from crossings.randomgen import ROUTES
from crossings.snapshot import CarState, TrafficSnapshot
from crossings.views import build_multiview, car_fragment

from conftest import demo_topology

H_B = 10.0
H_F = 39.95
GRID_POINTS = 1000

_TOPO = demo_topology()


def q(rng: random.Random, lo: float, hi: float) -> float:
    """A 0.25-lattice value in [lo, hi]."""
    steps = int((hi - lo) / 0.25)
    return lo + 0.25 * rng.randint(0, steps)


def random_scene(rng: random.Random, max_cars: int = 5, off_view: int = 0,
                 blocked_lane_change: bool = False):
    """A snapshot around the demo crossing plus one of the ego's views;
    drawn again until at least ``off_view`` cars have no runs on it.  With
    ``blocked_lane_change``, a quarter of the scenes put the ego mid lane
    change just before its crossing behind a car on its own lane, so that
    only the partner lane can be free up to the crossing."""
    while True:
        ts, view = _scene(rng, max_cars, blocked_lane_change)
        if not off_view or sum(not car_fragment(ts, c, view)
                               for c in ts.cars) >= off_view:
            return ts, view


def _scene(rng: random.Random, max_cars: int, blocked_lane_change: bool):
    n_cars = rng.randint(1, max_cars)
    cars = {}
    entries = [7, 1, 3, 5]
    rng.shuffle(entries)
    names = ["E", "B", "C", "D", "F", "G", "H"][:n_cars]
    for i, name in enumerate(names):
        entry = entries[i % 4]
        intent = rng.choice(("right", "straight", "left"))
        path = tuple(NodeId.parse(p) for p in ROUTES[entry][intent].split(","))
        pos = q(rng, 15.0, 140.0)
        size = rng.choice((2.0, 3.0, 4.0, 4.75))
        braking = q(rng, 0.0, 6.0)
        crossing_run = frozenset(n for n in path if n.is_crossing)
        cclm = frozenset()
        cres = frozenset()
        if rng.random() < 0.3:
            cclm = crossing_run
        elif rng.random() < 0.3:
            cres = crossing_run
        clm = frozenset()
        res = frozenset({path[0]})
        if not cclm and rng.random() < 0.2:
            clm = frozenset({_TOPO.net.lane_partner(path[0])})
        elif not cclm and rng.random() < 0.15:
            res = res | {_TOPO.net.lane_partner(path[0])}
        cars[name] = CarState(
            path=path,
            curr=0,
            pos=pos,
            speed=q(rng, 0.0, 15.0),
            size=size,
            braking=braking,
            heading_with_lane=rng.random() < 0.85,
            res=res,
            clm=clm,
            cclm=cclm,
            cres=cres,
        )
    if blocked_lane_change and rng.random() < 0.25:
        _block_behind(rng, cars)
    ts = TrafficSnapshot(cars, _TOPO.net)
    mv = build_multiview(_TOPO, ts, "E", h_b=H_B, h_f=H_F)
    view = mv.views[rng.randrange(len(mv.views))]
    return ts, view


def _block_behind(rng: random.Random, cars: dict) -> None:
    """E on both lanes of its road with its envelope's front 10-19 m before
    the crossing, and a standing car Z between it and the crossing."""
    e = cars["E"]
    entry = e.path[0]
    front = q(rng, 131.0, 140.0)
    cars["E"] = replace(e, pos=front - e.size - e.braking, clm=frozenset(),
                        cclm=frozenset(), cres=frozenset(),
                        res=frozenset({entry, _TOPO.net.lane_partner(entry)}))
    cars["Z"] = CarState(path=e.path, curr=0, pos=q(rng, front + 0.25, 146.0),
                         speed=0.0, size=2.0, braking=0.0, res=frozenset({entry}))


def random_formula(rng: random.Random, depth: int, car_vars, identities: bool = False):
    """A random formula; ``identities`` adds the shapes the evaluator's set
    identities meet: disjunctions (the ``ors`` shape), two occupancy atoms
    meeting somewhere (the protocol's overlap shape), quantifiers over fresh
    variable names and equalities between quantified variables."""
    atoms = [
        lambda: TRUE,
        lambda: Free(),
        lambda: Cs(),
        lambda: Re(rng.choice(car_vars)),
        lambda: Cl(rng.choice(car_vars)),
        lambda: Dir(rng.choice(car_vars)),
        lambda: Eq(rng.choice(car_vars), rng.choice(car_vars)),
        lambda: LenCmp(rng.choice("<>="), q(rng, 0.25, 12.0)),
    ]
    ops = ["atom", "not", "and", "and", "hchop", "hchop", "vchop", "exists"]
    bound = [v for v in car_vars if v.startswith("v")]
    if identities:
        ops += ["or"] * 3 + ["exists"] * 3 + ["meet"] * 4
        if bound:
            atoms.append(lambda: Eq(rng.choice(bound), rng.choice(car_vars)))
    if depth <= 1:
        return rng.choice(atoms)()
    op = rng.choice(ops)
    sub = lambda: random_formula(rng, depth - 1, car_vars, identities)  # noqa: E731
    if op == "atom":
        return rng.choice(atoms)()
    if op == "not":
        return Not(sub())
    if op == "and":
        return And(sub(), sub())
    if op == "or":
        return ors(sub(), sub())
    if op == "hchop":
        return HChop(sub(), sub())
    if op == "meet":
        return somewhere(And(rng.choice(atoms[1:5])(), rng.choice(atoms[1:5])()))
    if op == "vchop":
        return VChop(sub(), sub())
    var = f"v{len(bound)}" if identities else "v"
    return Exists(var, random_formula(rng, depth - 1, tuple(car_vars) + (var,), identities))


def random_instance(rng: random.Random, max_depth: int = 4, identities: bool = False):
    """A scene and a formula over its cars; ``identities`` draws up to seven
    cars, at least two of them off the view, and the identity-rich formulas."""
    if identities:
        ts, view = random_scene(rng, max_cars=7, off_view=2)
    else:
        ts, view = random_scene(rng)
    f = random_formula(rng, rng.randint(1, max_depth), tuple(sorted(ts.cars)), identities)
    return ts, view, f
