"""Spatial interval logic over traffic views.

Formulas describe one straightened two-lane view: atoms talk about free
space, crossing cells, reservations and claims; a horizontal chop splits the
view at a point along the lanes, a vertical chop splits it between lanes.
Satisfaction is checked against (snapshot, view, valuation).

The evaluator is exact.  It computes the set of sub-slices [x1, x2] of the
view on which each sub-formula holds.  Atoms hold inside exact interval
bounds (no EPS widening) on slices longer than EPS, so an atom's set is a
tuple of boxes (lo, hi), each the slices with lo <= x1, x2 <= hi and
x2 - x1 > EPS: re/cl give one per merged run, cs one for the crossing span,
free one per gap between the merged occupancy runs, each clipped to the view
and kept if still longer than EPS.  Sets stay boxes under & (two boxes meet
in their overlap, ``views.overlaps``) and under union (a | b, E x. and the
lane splits of the vertical chop), which covers the ``somewhere`` shapes of
the protocol builtins.  Other operators read zones: convex sets cut out by
difference constraints (x_i - x_j < c or <= c) over (0, x1, x2), kept as
closed difference-bound matrices, the DBMs of timed-automata checkers, in a
list.  A box becomes the zone of its own bounds, written closed (``_box``):
the same set, and closed DBMs are canonical, so where boxes become zones
changes no verdict.  Only a box longer than EPS by less than a rounding step
tells them apart: closing its bounds in floating point would empty it, and
the box keeps it, as exact arithmetic does.  Negation is a set difference;
a horizontal chop joins its operands' zones at a shared middle point and
eliminates it.  The formula holds on the view when the whole view is in its
set.  There is no search and no cap.  The test suite pits it against a
dense-grid brute force.

Set identities save work; each is exact because every truth set lies inside
the domain D, the sub-slices of the view:
- a | b, which ``ors`` writes as !(!a & !b), is the union A + B:
  D - ((D - A) & (D - B)) = A + B for A and B inside D;
- D & X = X in conjunction and vertical chop, since X lies inside D;
- !{} = D (``_minus`` of nothing hands D back) and !D = {};
- E x. evaluates its body for one car off the view that no free variable
  of the body names, not for each: such cars are interchangeable, as
  swapping two maps the context onto itself (their runs are empty, dir is
  false for them, = tells them apart only from named cars, and @disjoint
  refuses car ids).

The verdict asks only whether the whole view [a, b] is in the root's set,
and that is decided top-down, building truth sets only below the operators
that need them; each step is exact because [a, b] lies in D:
- [a, b] in D - A exactly when it is not in A, so ! negates the answer
  (and the ``ors`` shape becomes "in A or in B");
- [a, b] in A & B when it is in both, and in the union over E x. when it
  is in one binding's set;
- true ; X ; true, the outer chops of ``somewhere``, holds on [a, b]
  exactly when X is non-empty: [a, x1] and [x2, b] lie in D = true for any
  [x1, x2] in X;
- X = [true / [g / true]], the lane split of ``somewhere``, is the union of
  g's sets on the lane sets (), (0,), (1,) and (0, 1), since true is D on
  every lane set and D & Y = Y: it is non-empty when one of them is.
Other roots fall back to the full set; [a, b] is in a box when lo <= a,
b <= hi and b - a > EPS.  Runs, projected per car on demand
(``EvalContext``), and the rules on them come from ``views``.  One walk
over the formula per verdict checks its variables and finds the free
variables of each E x., shared by every view of a multi-view.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import le
from .snapshot import TrafficSnapshot
from .views import EPS, Kind, MultiView, View, car_fragment, car_runs, gaps, occupied, overlaps


class LogicError(ValueError):
    pass


class ParseError(LogicError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# ---------------------------------------------------------------------------
# abstract syntax


@dataclass(frozen=True)
class Formula:
    pass


@dataclass(frozen=True)
class TrueF(Formula):
    pass


@dataclass(frozen=True)
class Eq(Formula):
    u: str
    v: str


@dataclass(frozen=True)
class Free(Formula):
    pass


@dataclass(frozen=True)
class Cs(Formula):
    pass


@dataclass(frozen=True)
class Re(Formula):
    var: str


@dataclass(frozen=True)
class Cl(Formula):
    var: str


@dataclass(frozen=True)
class Dir(Formula):
    var: str


@dataclass(frozen=True)
class Not(Formula):
    f: Formula


@dataclass(frozen=True)
class And(Formula):
    a: Formula
    b: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    f: Formula


@dataclass(frozen=True)
class HChop(Formula):
    a: Formula
    b: Formula


@dataclass(frozen=True)
class VChop(Formula):
    upper: Formula
    lower: Formula


@dataclass(frozen=True)
class LenCmp(Formula):
    op: str  # '<', '=', '>'
    d: float


@dataclass(frozen=True)
class SetDisjoint(Formula):
    """Data constraint: the set values of two variables do not intersect."""

    u: str
    v: str


TRUE = TrueF()


def ands(*fs: Formula) -> Formula:
    out = fs[-1]
    for f in reversed(fs[:-1]):
        out = And(f, out)
    return out


def ors(*fs: Formula) -> Formula:
    # disjunction is sugar: !(!a & !b)
    out = fs[-1]
    for f in reversed(fs[:-1]):
        out = Not(And(Not(f), Not(out)))
    return out


def chops(*fs: Formula) -> Formula:
    out = fs[-1]
    for f in reversed(fs[:-1]):
        out = HChop(f, out)
    return out


def somewhere(f: Formula) -> Formula:
    """true ; (true / f / true) ; true -- f holds on some sub-slice."""
    return HChop(TRUE, HChop(VChop(TRUE, VChop(f, TRUE)), TRUE))


def default_valuation(ts: TrafficSnapshot, ego: str) -> dict:
    """ego plus every car id bound to itself."""
    nu = {cid: cid for cid in ts.cars}
    nu["ego"] = ego
    return nu


# ---------------------------------------------------------------------------
# evaluation


class EvalContext:
    """Occupancy of one view as the evaluator reads it, projected per car on
    demand: re, cl and dir read one car's runs; only free (``any_occ``)
    and the stand-in rule of E x. (``visible``) read every car."""

    def __init__(self, ts: TrafficSnapshot, view: View):
        self.ts = ts
        self.view = view
        self.car_ids = sorted(ts.cars)
        self.crossing_span = {i: view.crossing_span(i) for i in (0, 1)}

    def runs(self, lane: int, kind: Kind, car) -> list:
        """One car's merged runs of one kind on one lane of the view."""
        if car not in self.ts.cars:
            return []
        return car_runs(self.ts, self.view, car, lane, kind)

    def dir(self, car) -> bool:
        """Is the car on the view and heading along its lane?"""
        state = self.ts.cars.get(car)
        return bool(state and state.heading_with_lane
                    and car_fragment(self.ts, car, self.view))

    @cached_property
    def visible(self) -> set:
        """The cars with runs on the view."""
        return {cid for cid in self.car_ids if car_fragment(self.ts, cid, self.view)}

    @cached_property
    def any_occ(self) -> dict:
        """lane -> the merged runs of every car, reserved or claimed."""
        fragments = [car_fragment(self.ts, cid, self.view) for cid in self.car_ids]
        return {lane: occupied(fragments, lane) for lane in (0, 1)}


# Zones.  A zone is a closed difference-bound matrix over (x0 = 0, x1, x2),
# flattened row by row: entry 3*i + j bounds x_i - x_j.  A bound is (c, s),
# s = -1 for '<' and 0 for '<=', so tuple order is tightness order.  A truth
# set is a tuple of boxes longer than EPS, or a list of zones with no empty
# zone and no zone inside another.

_INF = float("inf")
_NONE = (_INF, 0)  # no bound
_LE0 = (0.0, 0)
_OPEN = (_LE0, _NONE, _NONE, _NONE, _LE0, _NONE, _NONE, _NONE, _LE0)
_LEFT = [4 * p + q for p in (0, 1, 2) for q in (0, 1, 2)]   # (x0, x1, x)
_RIGHT = [4 * p + q for p in (0, 2, 3) for q in (0, 2, 3)]  # (x0, x, x2)
_OUTER = [4 * p + q for p in (0, 1, 3) for q in (0, 1, 3)]  # (x0, x1, x2)


# Floyd-Warshall steps per matrix size: for k, then i != k, the entries
# (i, k) and, for each j != k, (i, j) and (k, j).  Paths through k that start
# or end at k cannot improve on a zero diagonal.
_STEPS = {n: [(i * n + k, [(i * n + j, k * n + j) for j in range(n) if j != k])
              for k in range(n) for i in range(n) if i != k] for n in (3, 4)}


def _close(m, n: int):
    """Floyd-Warshall closure of an n-variable matrix; None if it is empty."""
    m = list(m)
    for ik, row in _STEPS[n]:
        ci, si = m[ik]
        if ci == _INF:
            continue
        for ij, kj in row:
            cj, sj = m[kj]
            bound = (ci + cj, si if si < sj else sj)
            if bound < m[ij]:
                m[ij] = bound
    if any(m[i * n + i] < _LE0 for i in range(n)):
        return None
    return tuple(m)


def _constraints(*entries):
    """The matrix with only the given (entry, bound) constraints."""
    m = list(_OPEN)
    for k, bound in entries:
        m[k] = bound
    return tuple(m)


def _prune(zones) -> list:
    """Drop empty and repeated zones and zones inside another."""
    live = list(dict.fromkeys(z for z in zones if z is not None))
    if len(live) < 2:
        return live
    return [z for z in live
            if not any(w is not z and all(map(le, z, w)) for w in live)]


def _meet(zs, ws) -> list:
    return _prune(_close(map(min, z, w), 3) for z in zs for w in ws)


def _tighten(z, k: int, bound):
    """Zone z with entry k = 3*i + j tightened to bound, closed again in one
    pass over the paths through the new edge; None if that empties it."""
    if bound >= z[k]:
        return z
    i, j = divmod(k, 3)
    c, s = bound
    cji, sji = z[3 * j + i]
    if (c + cji, min(s, sji)) < _LE0:
        return None
    m = list(z)
    for p in range(3):
        cp, sp = z[3 * p + i]
        if cp == _INF:
            continue
        cp, sp = cp + c, sp if sp < s else s
        for q in range(3):
            cq, sq = z[3 * j + q]
            path = (cp + cq, sp if sp < sq else sq)
            if path < m[3 * p + q]:
                m[3 * p + q] = path
    return tuple(m)


def _minus(zs, ws) -> list:
    """zs without the union of ws: each w is cut away through its negated
    constraints, x_j - x_i < -c for x_i - x_j <= c and <= -c for < c.  A z
    that one cut leaves whole is disjoint from w and stays as it is."""
    for w in ws:
        cuts = [(3 * (k % 3) + k // 3, (-c, -1 - s))
                for k, (c, s) in enumerate(w) if k % 4 and c != _INF]
        out = []
        for z in zs:
            pieces = [_tighten(z, k, bound) for k, bound in cuts]
            out += [z] if z in pieces else pieces
        zs = _prune(out)
    return zs


def _chop(zs, ws) -> list:
    """Slices [x1, x2] split by some x into a zs slice [x1, x] and a ws
    slice [x, x2]: the two zones joined over (x0, x1, x, x2), x eliminated."""
    out = []
    for z in zs:
        for w in ws:
            m = [_NONE] * 16
            for k, bound in zip(_LEFT, z):
                m[k] = bound
            for k, bound in zip(_RIGHT, w):
                m[k] = min(m[k], bound)
            m = _close(m, 4)
            if m is not None:
                out.append(tuple(m[k] for k in _OUTER))
    return _prune(out)


def _box(lo, hi) -> tuple:
    """The zone lo <= x1, x2 <= hi, x2 - x1 > EPS of a box inside the view,
    closed: the domain's bounds add nothing to it."""
    return (_LE0, (-lo, 0), (-lo - EPS, -1), (hi - EPS, -1), _LE0, (-EPS, -1),
            (hi, 0), (hi - lo, 0), _LE0)


def _length(op: str, d: float) -> tuple:
    if op == "<":
        return _constraints((7, (d - EPS, -1)))
    if op == ">":
        return _constraints((5, (-d - EPS, -1)))
    return _constraints((7, (d + EPS, 0)), (5, (EPS - d, 0)))


_KIND = {Re: Kind.RESERVED, Cl: Kind.CLAIMED}
_BOTH = (0, 1)
_LANE_SETS = ((0,), (1,), _BOTH, ())  # single lanes first: atoms hold only there


class _Zones:
    """Truth sets over the sub-slices of one view, memoised per sub-formula,
    valuation and lane set, and membership of the whole view in them."""

    def __init__(self, ctx: EvalContext, scope: dict):
        self.ctx = ctx
        self.scope = scope  # id(E x. node) -> free variables of it
        a, b = ctx.view.extent
        # the domain a <= x1 <= x2 <= b, closed
        self.all = [(_LE0, (-a, 0), (-a, 0), (b, 0), _LE0, _LE0, (b, 0), (b - a, 0), _LE0)
                    ] if a <= b else []
        self.memo: dict = {}

    def zones(self, s) -> list:
        """The truth set s as zones: each box the zone of its constraints."""
        return _prune([_box(lo, hi) for lo, hi in s]) if type(s) is tuple else s

    def holds(self, s) -> bool:
        """Is the whole view [a, b] in the truth set?"""
        a, b = self.ctx.view.extent
        if type(s) is tuple:
            return b - a > EPS and any(lo <= a and b <= hi for lo, hi in s)
        v = (0.0, a, b)
        return any(all((v[k // 3] - v[k % 3], 0) <= bound for k, bound in enumerate(z))
                   for z in s)

    def member(self, f, nu, nu_token) -> bool:
        """Is the whole view [a, b] in the truth set of f over both lanes?
        Decided top-down, so truth sets are built only below the operators
        that need them."""
        kind = type(f)
        if kind is Not:
            return not self.member(f.f, nu, nu_token)
        if kind is And:
            return self.member(f.a, nu, nu_token) and self.member(f.b, nu, nu_token)
        if kind is Exists:
            return any(self.member(f.f, child, token)
                       for child, token in self._bindings(f, nu, nu_token))
        if kind is HChop and type(f.a) is TrueF and type(f.b) is HChop \
                and type(f.b.b) is TrueF:
            x = f.b.a  # true ; X ; true: X holds on some slice
            if type(x) is VChop and type(x.upper) is TrueF and type(x.lower) is VChop \
                    and type(x.lower.lower) is TrueF:
                # X = [true / [g / true]]: g holds on some slice of some lane set
                g = x.lower.upper
                return any(self.run(g, nu, nu_token, lanes) for lanes in _LANE_SETS)
            return bool(self.run(x, nu, nu_token, _BOTH))
        return self.holds(self.run(f, nu, nu_token, _BOTH))

    def run(self, f, nu, nu_token, lanes):
        key = (id(f), nu_token, lanes)
        hit = self.memo.get(key)
        if hit is None:
            hit = self.memo[key] = self._eval(f, nu, nu_token, lanes)
        return hit

    def _bindings(self, f, nu, nu_token):
        """(valuation, token) for each car E x. ranges over; the first car
        off the view that no free variable of the body names stands in for
        all such cars."""
        ctx = self.ctx
        named = [nu[v] for v in self.scope[id(f)]]
        stood_in = False
        for cid in ctx.car_ids:
            if cid not in ctx.visible and cid not in named:
                if stood_in:
                    continue
                stood_in = True
            child = dict(nu)
            child[f.var] = cid
            yield child, nu_token + ((f.var, cid),)

    def _runs(self, f, nu, lane) -> list:
        """The intervals inside which a one-lane atom holds on a slice."""
        ctx = self.ctx
        kind = type(f)
        if kind is Free:
            return gaps(ctx.any_occ[lane], -_INF, _INF)
        if kind is Cs:
            span = ctx.crossing_span[lane]
            return [span] if span else []
        return ctx.runs(lane, _KIND[kind], nu[f.var])

    def _meet(self, zs, ws):
        """zs & ws, with D & X = X: every truth set lies inside D."""
        if zs is self.all or not ws:
            return ws
        if ws is self.all or not zs:
            return zs
        if type(zs) is tuple and type(ws) is tuple:
            return overlaps(zs, ws)
        return _meet(self.zones(zs), self.zones(ws))

    def _union(self, sets):
        """The union of truth sets, as boxes while every set is boxes."""
        sets = [s for s in sets if s]
        if all(type(s) is tuple for s in sets):
            return tuple(box for s in sets for box in s)
        return _prune([z for s in sets for z in self.zones(s)])

    def _eval(self, f, nu, nu_token, lanes):
        kind = type(f)
        if kind is TrueF:
            return self.all
        if kind is Eq:
            return self.all if nu[f.u] == nu[f.v] else []
        if kind is SetDisjoint:
            return [] if nu[f.u] & nu[f.v] else self.all
        if kind is Dir:
            return self.all if self.ctx.dir(nu[f.var]) else []
        if kind is LenCmp:
            return _meet(self.all, [_length(f.op, f.d)])
        if kind is Free or kind is Cs or kind is Re or kind is Cl:
            if len(lanes) != 1:
                return []
            return overlaps(self._runs(f, nu, lanes[0]), [self.ctx.view.extent])
        if kind is Not:
            g = f.f
            if type(g) is And and type(g.a) is Not and type(g.b) is Not:
                # a | b: D - ((D - A) & (D - B)) = A | B for A, B inside D
                return self._union((self.run(g.a.f, nu, nu_token, lanes),
                                    self.run(g.b.f, nu, nu_token, lanes)))
            inner = self.run(g, nu, nu_token, lanes)
            return [] if inner is self.all else _minus(self.all, self.zones(inner))
        if kind is And:
            left = self.run(f.a, nu, nu_token, lanes)
            return self._meet(left, self.run(f.b, nu, nu_token, lanes)) if left else []
        if kind is Exists:
            return self._union([self.run(f.f, child, token, lanes)
                                for child, token in self._bindings(f, nu, nu_token)])
        if kind is VChop:
            return self._union([self._meet(self.run(f.upper, nu, nu_token, lanes[t:]),
                                           self.run(f.lower, nu, nu_token, lanes[:t]))
                                for t in range(len(lanes) + 1)])
        if kind is HChop:
            left = self.run(f.a, nu, nu_token, lanes)
            return _chop(self.zones(left),
                         self.zones(self.run(f.b, nu, nu_token, lanes))) if left else []
        raise LogicError(f"cannot evaluate node {kind.__name__}")


def _scope(nu: dict, f: Formula) -> dict:
    """One walk over the formula per verdict: every free variable must be
    bound and @disjoint must read sets.  Returns the free variables of each
    E x. node by id, which the stand-in rule reads on every view."""
    if "ego" not in nu:
        raise LogicError("valuation must bind 'ego'")
    scope: dict = {}
    disjoint: list = []  # (variable, bound by a quantifier) per @disjoint operand

    def walk(g, bound, free: set) -> None:
        """Add the free variables of g to free."""
        kind = type(g)
        if kind is Not:
            walk(g.f, bound, free)
        elif kind is And or kind is HChop:
            walk(g.a, bound, free)
            walk(g.b, bound, free)
        elif kind is VChop:
            walk(g.upper, bound, free)
            walk(g.lower, bound, free)
        elif kind is Exists:
            inner = scope[id(g)] = set()
            walk(g.f, bound | {g.var}, inner)
            inner.discard(g.var)
            free |= inner
        elif kind is Re or kind is Cl or kind is Dir:
            free.add(g.var)
        elif kind is Eq or kind is SetDisjoint:
            free.update((g.u, g.v))
            if kind is SetDisjoint:
                disjoint.extend((v, v in bound) for v in (g.u, g.v))

    free: set = set()
    walk(f, frozenset(), free)
    unbound = free - set(nu)
    if unbound:
        raise LogicError(f"unbound variable {sorted(unbound)[0]!r}")
    for var, quantified in disjoint:
        if quantified or not isinstance(nu[var], (set, frozenset)):
            raise LogicError(f"@disjoint needs sets, {var!r} is not bound to one")
    return scope


def _member(ts: TrafficSnapshot, view: View, nu: dict, f: Formula, scope: dict) -> bool:
    zones = _Zones(EvalContext(ts, view), scope)
    return bool(zones.all) and zones.member(f, nu, ())


def eval_formula(ts: TrafficSnapshot, view: View, nu: dict, f: Formula) -> bool:
    """Does the formula hold on the full view under the given valuation?"""
    return _member(ts, view, nu, f, _scope(nu, f))


def eval_multiview(ts: TrafficSnapshot, mv: MultiView, nu: dict, f: Formula,
                   mode: str = "forall") -> bool:
    """Satisfaction over the multi-view: conjunction or disjunction per view."""
    if not mv.views:
        raise LogicError("empty multi-view")
    if mode not in ("forall", "exists"):
        raise LogicError(f"unknown mode {mode!r}")
    scope = _scope(nu, f)
    results = (_member(ts, v, nu, f, scope) for v in mv.views)
    return all(results) if mode == "forall" else any(results)


def invert(f: Formula) -> Formula:
    """Mirror a formula for a view twisted by 180 degrees.

    Both chop orders swap: the axis flips (horizontal) and the lanes trade
    places (vertical).  Validated against ``views.twist`` by the test suite.
    """
    if isinstance(f, HChop):
        return HChop(invert(f.b), invert(f.a))
    if isinstance(f, VChop):
        return VChop(invert(f.lower), invert(f.upper))
    if isinstance(f, Not):
        return Not(invert(f.f))
    if isinstance(f, And):
        return And(invert(f.a), invert(f.b))
    if isinstance(f, Exists):
        return Exists(f.var, invert(f.f))
    return f


# ---------------------------------------------------------------------------
# concrete syntax
#
#   formula := quant | chop
#   quant   := 'E' IDENT '.' unary
#   chop    := conj (';' chop)?
#   conj    := unary ('&' conj)?
#   unary   := '!' unary | primary
#   primary := 'true' | 'free' | 'cs' | 're(' v ')' | 'cl(' v ')' | 'dir(' v ')'
#            | 'l' ('<'|'>'|'=') NUMBER | IDENT '=' IDENT | '(' formula ')'
#            | '<' formula '>' | '[' formula '/' formula ']' | '@' NAME args


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and (text[j].isdigit() or text[j] == "."):
                j += 1
            tokens.append(("number", text[i:j], i))
            i = j
            continue
        if ch in "!&;/[]<>()=.,@":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("eof", "", len(text)))
    return tokens


# how deep a parsed formula may nest, so that parsing and evaluating it stay
# far inside Python's recursion limit: each operator, bracket or parenthesis
# around a sub-formula is one level, ``<f>`` four (the chops it stands for);
# the builtins are built, not parsed, and are at most 21 deep
MAX_DEPTH = 64


class _Parser:
    def __init__(self, text: str, params=None):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.params = params
        self.depth = 0

    def nested(self, parse, at, levels=1) -> Formula:
        """``parse()`` a sub-formula ``levels`` deeper, within MAX_DEPTH."""
        self.depth += levels
        if self.depth > MAX_DEPTH:
            raise ParseError(f"formula nested deeper than {MAX_DEPTH} levels", at)
        f = parse()
        self.depth -= levels
        return f

    def peek(self, ahead=0):
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self) -> Formula:
        f = self.formula()
        tok = self.peek()
        if tok[0] != "eof":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return f

    def formula(self) -> Formula:
        return self.chop()

    def chop(self) -> Formula:
        left = self.conj()
        if self.peek()[0] == ";":
            at = self.next()[2]
            return HChop(left, self.nested(self.chop, at))
        return left

    def conj(self) -> Formula:
        left = self.unary()
        if self.peek()[0] == "&":
            at = self.next()[2]
            return And(left, self.nested(self.conj, at))
        return left

    def unary(self) -> Formula:
        tok = self.peek()
        if tok[0] == "!":
            self.next()
            return Not(self.nested(self.unary, tok[2]))
        if tok[0] == "ident" and tok[1] == "E" and self.peek(1)[0] == "ident" \
                and self.peek(2)[0] == ".":
            self.next()
            var = self.next()[1]
            self.next()  # '.'
            return Exists(var, self.nested(self.unary, tok[2]))
        return self.primary()

    def primary(self) -> Formula:
        tok = self.next()
        kind, text, at = tok
        if kind == "(":
            f = self.nested(self.formula, at)
            self.expect(")")
            return f
        if kind == "<":
            f = self.nested(self.formula, at, 4)
            self.expect(">")
            return somewhere(f)
        if kind == "[":
            upper = self.nested(self.formula, at)
            self.expect("/")
            lower = self.nested(self.formula, at)
            self.expect("]")
            return VChop(upper, lower)
        if kind == "@":
            return self.builtin()
        if kind == "ident":
            if text == "true":
                return TRUE
            if text == "free":
                return Free()
            if text == "cs":
                return Cs()
            if text in ("re", "cl", "dir"):
                self.expect("(")
                var = self.expect("ident")[1]
                self.expect(")")
                return {"re": Re, "cl": Cl, "dir": Dir}[text](var)
            if text == "l" and self.peek()[0] in ("<", ">", "="):
                op = self.next()[0]
                num = self.expect("number")
                try:
                    d = float(num[1])
                except ValueError:
                    raise ParseError(f"bad number {num[1]!r}", num[2]) from None
                return LenCmp(op, d)
            if self.peek()[0] == "=":
                self.next()
                rhs = self.expect("ident")[1]
                return Eq(text, rhs)
            if self.peek()[0] == "(":
                raise ParseError(f"unknown atom {text!r}", at)
            raise ParseError(f"bare identifier {text!r} is not a formula", at)
        raise ParseError(f"unexpected token {text!r}", at)

    def builtin(self) -> Formula:
        from . import formulas

        name_tok = self.expect("ident")
        name = name_tok[1]
        args = []
        if self.peek()[0] == "(":
            self.next()
            if self.peek()[0] != ")":
                args.append(self.expect("ident")[1])
                while self.peek()[0] == ",":
                    self.next()
                    args.append(self.expect("ident")[1])
            self.expect(")")
        try:
            return formulas.builtin(name, args, self.params)
        except KeyError:
            raise ParseError(f"unknown builtin @{name}", name_tok[2]) from None
        except TypeError as exc:
            raise ParseError(f"@{name}: {exc}", name_tok[2]) from None


def parse(text: str, params=None) -> Formula:
    """Parse concrete syntax; ``params`` feed distance bounds of @builtins."""
    return _Parser(text, params).parse()


def names_a_car(text: str) -> bool:
    """Can formulas name a car ``text``: not ``ego``, and one identifier?"""
    try:  # a word of the syntax does not read as this equation
        return text != "ego" and _Parser(f"{text} = {text}").parse() == Eq(text, text)
    except ParseError:
        return False


def _needs_parens(child: Formula, level: int) -> bool:
    child_level = (
        1 if isinstance(child, HChop)
        else 2 if isinstance(child, (And, Exists))
        else 3 if isinstance(child, Not)
        else 4
    )
    return child_level < level


def pretty(f: Formula) -> str:
    """Canonical concrete syntax; ``parse(pretty(f)) == f`` for core nodes."""
    def p(g, level):
        text = pretty(g)
        return f"({text})" if _needs_parens(g, level) else text

    if isinstance(f, TrueF):
        return "true"
    if isinstance(f, Free):
        return "free"
    if isinstance(f, Cs):
        return "cs"
    if isinstance(f, Re):
        return f"re({f.var})"
    if isinstance(f, Cl):
        return f"cl({f.var})"
    if isinstance(f, Dir):
        return f"dir({f.var})"
    if isinstance(f, Eq):
        return f"{f.u} = {f.v}"
    if isinstance(f, LenCmp):
        return f"l {f.op} {f.d}"
    if isinstance(f, SetDisjoint):
        return f"@disjoint({f.u}, {f.v})"
    if isinstance(f, Not):
        return "!" + p(f.f, 4)
    if isinstance(f, And):
        return f"{p(f.a, 3)} & {p(f.b, 2)}"
    if isinstance(f, Exists):
        return f"E {f.var}. ({pretty(f.f)})"
    if isinstance(f, HChop):
        return f"{p(f.a, 2)} ; {p(f.b, 1)}"
    if isinstance(f, VChop):
        return f"[{pretty(f.upper)} / {pretty(f.lower)}]"
    raise LogicError(f"cannot print node {type(f).__name__}")
