"""Spatial interval logic over traffic views.

Formulas describe one straightened two-lane view: atoms talk about free
space, crossing cells, reservations and claims; a horizontal chop splits the
view at a point along the lanes, a vertical chop splits it between lanes.
Satisfaction is checked against (snapshot, view, valuation).

The evaluator searches chop points over a finite candidate set: occupancy
interval endpoints, crossing-span boundaries, the slice endpoints, points at
every length-comparison constant's distance from those, and midpoints of
consecutive candidates.  Atom truth only changes at such points.  The
length-constant shifts are capped, though: ``_Eval.chop_points`` adds them
for at most ``min(chop depth, 3)`` rounds and stops adding once a slice has
more than 1,500 points, so the search is exhaustive only within those caps.
The test suite pits it against a dense-grid brute force.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from .snapshot import TrafficSnapshot
from .views import EPS, Kind, MultiView, View, car_fragments, merge_runs


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
    """Occupancy of one view digested for the evaluator."""

    def __init__(self, ts: TrafficSnapshot, view: View, ground_truth: bool = False):
        self.view = view
        self.extent = view.extent
        frags = car_fragments(ts, view, ground_truth)
        self.car_ids = list(frags)
        self.heading = {cid: ts.cars[cid].heading_with_lane for cid in ts.cars}
        self.visible = {cid for cid, f in frags.items() if f.intervals}
        self.by_key: dict = {}   # (lane, kind, car) -> merged [(lo, hi)]
        self.any_occ: dict = {}  # lane -> merged [(lo, hi)]
        raw_any: dict = {0: [], 1: []}
        for cid, frag in frags.items():
            for (lane_idx, kind), runs in frag.merged.items():
                self.by_key[(lane_idx, kind, cid)] = runs
                raw_any[lane_idx].extend(runs)
        for lane_idx, ivs in raw_any.items():
            self.any_occ[lane_idx] = merge_runs(ivs)
        self.crossing_span = {i: view.crossing_span(i) for i in (0, 1)}
        self._base_points = None

    @property
    def base_points(self):
        """Interval endpoints where atom truth can flip (chop candidates)."""
        if self._base_points is None:
            base = set(self.extent)
            for ivs in self.by_key.values():
                for lo, hi in ivs:
                    base.add(lo)
                    base.add(hi)
            for span in self.crossing_span.values():
                if span:
                    base.add(span[0])
                    base.add(span[1])
            self._base_points = _dedupe(sorted(base))
        return self._base_points


def _dedupe(values):
    out = []
    for v in values:
        if not out or v - out[-1] > EPS:
            out.append(v)
    return out


def _covered_by_one(intervals, x1, x2) -> bool:
    i = bisect_right([lo for lo, _ in intervals], x1 + EPS) - 1
    if i < 0:
        return False
    lo, hi = intervals[i]
    return lo - EPS <= x1 and x2 <= hi + EPS


def _intersects_open(intervals, x1, x2) -> bool:
    for lo, hi in intervals:
        if lo >= x2 - EPS:
            break
        if hi > x1 + EPS:
            return True
    return False


def _len_consts(f: Formula) -> set:
    if isinstance(f, LenCmp):
        return {f.d}
    out = set()
    for child in _children(f):
        out |= _len_consts(child)
    return out


def _chop_depth(f: Formula) -> int:
    if isinstance(f, HChop):
        return 1 + max(_chop_depth(f.a), _chop_depth(f.b))
    kids = _children(f)
    return max((_chop_depth(k) for k in kids), default=0)


def _children(f: Formula):
    if isinstance(f, Not):
        return (f.f,)
    if isinstance(f, (And, HChop)):
        return (f.a, f.b)
    if isinstance(f, VChop):
        return (f.upper, f.lower)
    if isinstance(f, Exists):
        return (f.f,)
    return ()


class _Eval:
    def __init__(self, ctx: EvalContext, f: Formula):
        self.ctx = ctx
        self.memo: dict = {}
        self.chop_cache: dict = {}
        self.consts = sorted(_len_consts(f))
        self.rounds = min(_chop_depth(f), 3)

    def chop_points(self, x1, x2):
        key = (x1, x2)
        cached = self.chop_cache.get(key)
        if cached is not None:
            return cached
        base = self.ctx.base_points
        pts = {round(x1, 9): x1, round(x2, 9): x2}
        lo_i = bisect_left(base, x1)
        hi_i = bisect_right(base, x2)
        pts.update((round(p, 9), p) for p in base[lo_i:hi_i])
        if self.consts:
            frontier = dict(pts)
            for _ in range(self.rounds):
                new = {}
                for p in frontier.values():
                    for d in self.consts:
                        for cand in (p + d, p - d):
                            if x1 < cand < x2:
                                key = round(cand, 9)
                                if key not in pts and key not in new:
                                    new[key] = cand
                pts.update(new)
                if not new or len(pts) > 1500:
                    break
                frontier = new
        ordered = _dedupe(sorted(pts.values()))
        with_mids = []
        for i, p in enumerate(ordered):
            with_mids.append(p)
            if i + 1 < len(ordered):
                with_mids.append((p + ordered[i + 1]) / 2.0)
        self.chop_cache[key] = with_mids
        return with_mids

    def run(self, f, nu, nu_token, lanes, x1, x2) -> bool:
        key = (id(f), nu_token, lanes, x1, x2)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        out = self._eval(f, nu, nu_token, lanes, x1, x2)
        self.memo[key] = out
        return out

    def _lookup(self, nu, var):
        try:
            return nu[var]
        except KeyError:
            raise LogicError(f"unbound variable {var!r}") from None

    def _eval(self, f, nu, nu_token, lanes, x1, x2) -> bool:
        ctx = self.ctx
        if isinstance(f, TrueF):
            return True
        if isinstance(f, Eq):
            return self._lookup(nu, f.u) == self._lookup(nu, f.v)
        if isinstance(f, SetDisjoint):
            u, v = self._lookup(nu, f.u), self._lookup(nu, f.v)
            return not (frozenset(u) & frozenset(v))
        if isinstance(f, LenCmp):
            length = x2 - x1
            if f.op == "<":
                return length < f.d - EPS
            if f.op == ">":
                return length > f.d + EPS
            return abs(length - f.d) <= EPS
        if isinstance(f, Free):
            if len(lanes) != 1 or x2 - x1 <= EPS:
                return False
            return not _intersects_open(ctx.any_occ.get(lanes[0], []), x1, x2)
        if isinstance(f, Cs):
            if len(lanes) != 1 or x2 - x1 <= EPS:
                return False
            span = ctx.crossing_span.get(lanes[0])
            return span is not None and span[0] - EPS <= x1 and x2 <= span[1] + EPS
        if isinstance(f, (Re, Cl)):
            if len(lanes) != 1 or x2 - x1 <= EPS:
                return False
            kind = Kind.RESERVED if isinstance(f, Re) else Kind.CLAIMED
            car = self._lookup(nu, f.var)
            ivs = ctx.by_key.get((lanes[0], kind, car), [])
            return _covered_by_one(ivs, x1, x2)
        if isinstance(f, Dir):
            car = self._lookup(nu, f.var)
            return car in ctx.visible and bool(ctx.heading.get(car))
        if isinstance(f, Not):
            return not self.run(f.f, nu, nu_token, lanes, x1, x2)
        if isinstance(f, And):
            return self.run(f.a, nu, nu_token, lanes, x1, x2) and self.run(
                f.b, nu, nu_token, lanes, x1, x2
            )
        if isinstance(f, Exists):
            for cid in ctx.car_ids:
                child = dict(nu)
                child[f.var] = cid
                if self.run(f.f, child, nu_token + ((f.var, cid),), lanes, x1, x2):
                    return True
            return False
        if isinstance(f, VChop):
            for t in range(len(lanes) + 1):
                lower, upper = lanes[:t], lanes[t:]
                if self.run(f.upper, nu, nu_token, upper, x1, x2) and self.run(
                    f.lower, nu, nu_token, lower, x1, x2
                ):
                    return True
            return False
        if isinstance(f, HChop):
            for x in self.chop_points(x1, x2):
                if self.run(f.a, nu, nu_token, lanes, x1, x) and self.run(
                    f.b, nu, nu_token, lanes, x, x2
                ):
                    return True
            return False
        raise LogicError(f"cannot evaluate node {type(f).__name__}")


def _context(ts: TrafficSnapshot, view: View, ground_truth: bool = False) -> EvalContext:
    """The view's evaluation context, built once per snapshot."""
    key = ("ctx", id(view), ground_truth)
    hit = ts.cache.get(key)
    if hit is not None:
        return hit[1]
    ctx = EvalContext(ts, view, ground_truth)
    ts.cache[key] = (view, ctx)  # the view pins the id in the key
    return ctx


def free_variables(f: Formula, bound: frozenset = frozenset()) -> set:
    if isinstance(f, (Re, Cl, Dir)):
        return {f.var} - bound
    if isinstance(f, (Eq, SetDisjoint)):
        return {f.u, f.v} - bound
    if isinstance(f, Exists):
        return free_variables(f.f, bound | {f.var})
    out = set()
    for child in _children(f):
        out |= free_variables(child, bound)
    return out


def eval_formula(ts: TrafficSnapshot, view: View, nu: dict, f: Formula,
                 ground_truth: bool = False) -> bool:
    """Does the formula hold on the full view under the given valuation?"""
    if "ego" not in nu:
        raise LogicError("valuation must bind 'ego'")
    unbound = free_variables(f) - set(nu)
    if unbound:
        raise LogicError(f"unbound variable {sorted(unbound)[0]!r}")
    ctx = _context(ts, view, ground_truth)
    a, b = view.extent
    return _Eval(ctx, f).run(f, nu, (), (0, 1), a, b)


def eval_multiview(ts: TrafficSnapshot, mv: MultiView, nu: dict, f: Formula,
                   mode: str = "forall", ground_truth: bool = False) -> bool:
    """Satisfaction over the multi-view: conjunction or disjunction per view."""
    if not mv.views:
        raise LogicError("empty multi-view")
    if mode not in ("forall", "exists"):
        raise LogicError(f"unknown mode {mode!r}")
    results = (eval_formula(ts, v, nu, f, ground_truth) for v in mv.views)
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


_KEYWORDS = {"true", "free", "cs", "re", "cl", "dir", "l", "E"}


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


class _Parser:
    def __init__(self, text: str, params=None):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.params = params

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
            self.next()
            return HChop(left, self.chop())
        return left

    def conj(self) -> Formula:
        left = self.unary()
        if self.peek()[0] == "&":
            self.next()
            return And(left, self.conj())
        return left

    def unary(self) -> Formula:
        tok = self.peek()
        if tok[0] == "!":
            self.next()
            return Not(self.unary())
        if tok[0] == "ident" and tok[1] == "E" and self.peek(1)[0] == "ident" \
                and self.peek(2)[0] == ".":
            self.next()
            var = self.next()[1]
            self.next()  # '.'
            return Exists(var, self.unary())
        return self.primary()

    def primary(self) -> Formula:
        tok = self.next()
        kind, text, at = tok
        if kind == "(":
            f = self.formula()
            self.expect(")")
            return f
        if kind == "<":
            f = self.formula()
            self.expect(">")
            return somewhere(f)
        if kind == "[":
            upper = self.formula()
            self.expect("/")
            lower = self.formula()
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
                if d < 0:
                    raise ParseError("length bound must be non-negative", num[2])
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
