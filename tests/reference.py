"""Brute-force reference evaluation of formulas over a dense chop grid.

This is the slow, obviously-correct counterpart of the candidate-point
evaluator in ``logic``: the view axis is sampled with a fixed dense grid and
every horizontal chop exhaustively tries every grid point inside its slice.
Truth tables over all grid sub-slices are held as boolean matrices; a chop
is then an or-and matrix product.  Demands are propagated lazily (a single
entry only ever needs one row and one column of its operands) so that deeply
nested chops stay affordable.

Interval data comes from the same projection as the production evaluator;
only the satisfaction search differs, which is exactly what the equivalence
suite compares.
"""

from __future__ import annotations

import numpy as np

from crossings.logic import (
    EPS,
    And,
    Cl,
    Cs,
    Dir,
    Eq,
    EvalContext,
    Exists,
    Formula,
    Free,
    HChop,
    LenCmp,
    LogicError,
    Not,
    Re,
    SetDisjoint,
    TrueF,
    VChop,
)
from crossings.snapshot import TrafficSnapshot
from crossings.views import Kind, View


class GridOracle:
    def __init__(self, ts: TrafficSnapshot, view: View, points: int = 1000,
                 ground_truth: bool = False):
        self.ctx = EvalContext(ts, view, ground_truth)
        a, b = view.extent
        self.x = np.linspace(a, b, points)
        self.n = points
        idx = np.arange(points)
        self.tri = idx[:, None] <= idx[None, :]
        self.length = self.x[None, :] - self.x[:, None]
        self._full: dict = {}

    # -- atom truth tables ---------------------------------------------------

    def _const(self, value: bool):
        return self.tri if value else np.zeros((self.n, self.n), dtype=bool)

    def _free(self, lane: int):
        ivs = self.ctx.any_occ.get(lane, [])
        bound = np.full(self.n, np.inf)
        ptr = 0
        for i, xi in enumerate(self.x):
            while ptr < len(ivs) and ivs[ptr][1] <= xi + EPS:
                ptr += 1
            if ptr < len(ivs):
                bound[i] = ivs[ptr][0]
        return self.tri & (self.length > EPS) & (self.x[None, :] <= bound[:, None] + EPS)

    def _contained(self, ivs):
        reach = np.full(self.n, -np.inf)
        ptr = -1
        for i, xi in enumerate(self.x):
            while ptr + 1 < len(ivs) and ivs[ptr + 1][0] <= xi + EPS:
                ptr += 1
            if ptr >= 0 and xi <= ivs[ptr][1] + EPS:
                reach[i] = ivs[ptr][1]
        return self.tri & (self.length > EPS) & (self.x[None, :] <= reach[:, None] + EPS)

    def _cs(self, lane: int):
        span = self.ctx.crossing_span.get(lane)
        if span is None:
            return self._const(False)
        lo, hi = span
        return (
            self.tri
            & (self.length > EPS)
            & (self.x[:, None] >= lo - EPS)
            & (self.x[None, :] <= hi + EPS)
        )

    # -- demand-driven evaluation ---------------------------------------------

    def _lookup(self, nu, var):
        try:
            return nu[var]
        except KeyError:
            raise LogicError(f"unbound variable {var!r}") from None

    def full(self, f: Formula, nu_token, lanes):
        key = (id(f), nu_token, lanes)
        hit = self._full.get(key)
        if hit is not None:
            return hit
        out = self._compute_full(f, nu_token, lanes)
        self._full[key] = out
        return out

    def _compute_full(self, f, nu_token, lanes):
        nu = dict(nu_token)
        if isinstance(f, TrueF):
            return self.tri
        if isinstance(f, Eq):
            return self._const(self._lookup(nu, f.u) == self._lookup(nu, f.v))
        if isinstance(f, SetDisjoint):
            u, v = self._lookup(nu, f.u), self._lookup(nu, f.v)
            return self._const(not (frozenset(u) & frozenset(v)))
        if isinstance(f, Dir):
            car = self._lookup(nu, f.var)
            return self._const(car in self.ctx.visible and bool(self.ctx.heading.get(car)))
        if isinstance(f, LenCmp):
            if f.op == "<":
                return self.tri & (self.length < f.d - EPS)
            if f.op == ">":
                return self.tri & (self.length > f.d + EPS)
            return self.tri & (np.abs(self.length - f.d) <= EPS)
        if isinstance(f, Free):
            if len(lanes) != 1:
                return self._const(False)
            return self._free(lanes[0])
        if isinstance(f, Cs):
            if len(lanes) != 1:
                return self._const(False)
            return self._cs(lanes[0])
        if isinstance(f, (Re, Cl)):
            if len(lanes) != 1:
                return self._const(False)
            kind = Kind.RESERVED if isinstance(f, Re) else Kind.CLAIMED
            car = self._lookup(nu, f.var)
            return self._contained(self.ctx.by_key.get((lanes[0], kind, car), []))
        if isinstance(f, Not):
            return self.tri & ~self.full(f.f, nu_token, lanes)
        if isinstance(f, And):
            return self.full(f.a, nu_token, lanes) & self.full(f.b, nu_token, lanes)
        if isinstance(f, Exists):
            out = self._const(False)
            for cid in self.ctx.car_ids:
                out = out | self.full(f.f, nu_token + ((f.var, cid),), lanes)
            return out
        if isinstance(f, VChop):
            out = self._const(False)
            for t in range(len(lanes) + 1):
                lower, upper = lanes[:t], lanes[t:]
                out = out | (
                    self.full(f.upper, nu_token, upper)
                    & self.full(f.lower, nu_token, lower)
                )
            return out
        if isinstance(f, HChop):
            a = self.full(f.a, nu_token, lanes).astype(np.float32)
            b = self.full(f.b, nu_token, lanes).astype(np.float32)
            return (a @ b) > 0.5
        raise LogicError(f"cannot evaluate node {type(f).__name__}")

    def row(self, f, nu_token, lanes, i):
        """Truth over all slices [x_i, x_j], j >= i."""
        if isinstance(f, HChop):
            va = self.row(f.a, nu_token, lanes, i)
            fb = self.full(f.b, nu_token, lanes)
            return (va[:, None] & fb).any(axis=0)
        if isinstance(f, Not):
            return self.tri[i] & ~self.row(f.f, nu_token, lanes, i)
        if isinstance(f, And):
            return self.row(f.a, nu_token, lanes, i) & self.row(f.b, nu_token, lanes, i)
        if isinstance(f, Exists):
            out = np.zeros(self.n, dtype=bool)
            for cid in self.ctx.car_ids:
                out |= self.row(f.f, nu_token + ((f.var, cid),), lanes, i)
            return out
        if isinstance(f, VChop):
            out = np.zeros(self.n, dtype=bool)
            for t in range(len(lanes) + 1):
                lower, upper = lanes[:t], lanes[t:]
                out |= self.row(f.upper, nu_token, upper, i) & self.row(
                    f.lower, nu_token, lower, i
                )
            return out
        return self.full(f, nu_token, lanes)[i]

    def col(self, f, nu_token, lanes, j):
        """Truth over all slices [x_i, x_j], i <= j."""
        if isinstance(f, HChop):
            fa = self.full(f.a, nu_token, lanes)
            vb = self.col(f.b, nu_token, lanes, j)
            return (fa & vb[None, :]).any(axis=1)
        if isinstance(f, Not):
            return self.tri[:, j] & ~self.col(f.f, nu_token, lanes, j)
        if isinstance(f, And):
            return self.col(f.a, nu_token, lanes, j) & self.col(f.b, nu_token, lanes, j)
        if isinstance(f, Exists):
            out = np.zeros(self.n, dtype=bool)
            for cid in self.ctx.car_ids:
                out |= self.col(f.f, nu_token + ((f.var, cid),), lanes, j)
            return out
        if isinstance(f, VChop):
            out = np.zeros(self.n, dtype=bool)
            for t in range(len(lanes) + 1):
                lower, upper = lanes[:t], lanes[t:]
                out |= self.col(f.upper, nu_token, upper, j) & self.col(
                    f.lower, nu_token, lower, j
                )
            return out
        return self.full(f, nu_token, lanes)[:, j]

    def entry(self, f, nu_token, lanes, i, j) -> bool:
        if isinstance(f, HChop):
            va = self.row(f.a, nu_token, lanes, i)
            vb = self.col(f.b, nu_token, lanes, j)
            return bool((va[i : j + 1] & vb[i : j + 1]).any())
        if isinstance(f, Not):
            return not self.entry(f.f, nu_token, lanes, i, j)
        if isinstance(f, And):
            return self.entry(f.a, nu_token, lanes, i, j) and self.entry(
                f.b, nu_token, lanes, i, j
            )
        if isinstance(f, Exists):
            return any(
                self.entry(f.f, nu_token + ((f.var, cid),), lanes, i, j)
                for cid in self.ctx.car_ids
            )
        if isinstance(f, VChop):
            return any(
                self.entry(f.upper, nu_token, lanes[t:], i, j)
                and self.entry(f.lower, nu_token, lanes[:t], i, j)
                for t in range(len(lanes) + 1)
            )
        return bool(self.full(f, nu_token, lanes)[i, j])


def oracle_eval(ts: TrafficSnapshot, view: View, nu: dict, f: Formula,
                points: int = 1000, ground_truth: bool = False) -> bool:
    """Evaluate ``f`` on the full view by dense-grid chop search."""
    oracle = GridOracle(ts, view, points=points, ground_truth=ground_truth)
    token = tuple(sorted(nu.items()))
    return oracle.entry(f, token, (0, 1), 0, oracle.n - 1)
