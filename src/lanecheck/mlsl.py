"""Spatial interval logic over lane/road views.

Formulas talk about a view (a lane band crossed with a road extent): `free`
says the single-lane sub-extent is unoccupied, `re(c)`/`cl(c)` say the
sub-extent is exactly car c's visible interval on a lane it has reserved
resp. claimed.  A horizontal chop `phi ; psi` splits the extent at some
point, a vertical chop `[upper / lower]` splits the lane band, and
`<phi>` ("somewhere") is the derived pattern embedding phi in an arbitrary
sub-view.

A horizontal chop holds on [r, t] when some split point s in [r, t] has
the left part true on [r, s] and the right part on [s, t]; there is no
other chop rule.  `eval` has two algorithms for it, picked by chop_mode.
"fast" is evaluated bottom-up: each subformula gets, per lane band and
left end r, the set of right ends t where it holds as one bitmask, so a
horizontal chop is a relational composition of such rows and a vertical
chop composes them over lane splits (the usual dynamic program for chop
in interval temporal logic).  "sweep" is the direct top-down recursion
over every split point and serves as the reference in tests.

The fast rows run on the formula compiled once (_Program, cached per
distinct formula): its subformulas are numbered, each with an int tag, its
children and its free variables, and a row is memoised under one packed
int key of (node, lane band, r, the node's variable bindings).

The compiler folds `<phi>`, which is [true / [(true ; (phi ; true)) /
true]], into one node, by unfolding the chop rules on lanes ll..ln and
extent [r, t]:
  - the outer vertical chop splits at some m in [ll - 1, ln] with true
    below, the inner one at some m' in [m, ln] with true above, so the
    middle part holds on the sub-band [a, b] = [m + 1, m'] for some
    ll <= a <= ln + 1 and a - 1 <= b <= ln (b = a - 1 is an empty band);
  - on that band, true ; (phi ; true) holds on [r, t] iff phi holds on
    some [s, u] with r <= s <= u <= t (the two split points, true on both
    flanks).
So <phi> holds on [r, t] iff t >= u*, the least u for which phi holds on
some such [a, b] and [s, u] with s >= r, and its row from r is the span
from u* to the view's end.  As u >= s, the scan over s for a band stops
once s reaches the least u found so far.  This is the one chop rule
unfolded, not another rule.

The module also carries `cc` and `pc`, the collision checks by interval
arithmetic, and builders for their formula counterparts, so tests can
cross-validate the two.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple, Union

from .traffic import CarState, TrafficSnapshot, View


class MlslError(Exception):
    pass


class ParseError(MlslError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class EvalError(MlslError):
    pass


# ---------------------------------------------------------------------------
# Formula AST


class Formula:
    __slots__ = ()

    def __str__(self) -> str:
        return format_formula(self)


@dataclass(frozen=True)
class TrueF(Formula):
    pass


@dataclass(frozen=True)
class VarEq(Formula):
    left: str
    right: str


@dataclass(frozen=True)
class Free(Formula):
    pass


@dataclass(frozen=True)
class Re(Formula):
    car: str


@dataclass(frozen=True)
class Cl(Formula):
    car: str


@dataclass(frozen=True)
class Not(Formula):
    sub: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class ExistsCar(Formula):
    var: str
    sub: Formula


@dataclass(frozen=True)
class HChop(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class VChop(Formula):
    lower: Formula
    upper: Formula


def or_(a: Formula, b: Formula) -> Formula:
    """Disjunction, desugared: the core syntax has no or node."""
    return Not(And(Not(a), Not(b)))


def somewhere(phi: Formula) -> Formula:
    """phi holds in some sub-view: true lane bands around (true ; phi ; true)."""
    middle = HChop(TrueF(), HChop(phi, TrueF()))
    return VChop(lower=TrueF(), upper=VChop(lower=middle, upper=TrueF()))


def _somewhere_payload(f: Formula) -> Optional[Formula]:
    # recognise the somewhere() shape so the printer can fold it back
    if not (isinstance(f, VChop) and f.lower == TrueF() and isinstance(f.upper, VChop)):
        return None
    inner = f.upper
    if inner.upper != TrueF() or not isinstance(inner.lower, HChop):
        return None
    mid = inner.lower
    if mid.left != TrueF() or not isinstance(mid.right, HChop) or mid.right.right != TrueF():
        return None
    return mid.right.left


# ---------------------------------------------------------------------------
# Concrete syntax

_KEYWORDS = {"true", "free", "re", "cl", "exists"}

# precedence levels: exists 0 < chop 1 < and 2 < not 3 < atoms 4


def format_formula(f: Formula) -> str:
    def fmt(g: Formula, min_prec: int) -> str:
        payload = _somewhere_payload(g)
        if payload is not None:
            return f"<{fmt(payload, 0)}>"
        if isinstance(g, TrueF):
            return "true"
        if isinstance(g, Free):
            return "free"
        if isinstance(g, Re):
            return f"re({g.car})"
        if isinstance(g, Cl):
            return f"cl({g.car})"
        if isinstance(g, VarEq):
            return f"{g.left} = {g.right}"
        if isinstance(g, VChop):
            return f"[{fmt(g.upper, 0)} / {fmt(g.lower, 0)}]"
        if isinstance(g, Not):
            return _wrap(f"!{fmt(g.sub, 3)}", 3, min_prec)
        if isinstance(g, And):
            return _wrap(f"{fmt(g.left, 2)} & {fmt(g.right, 3)}", 2, min_prec)
        if isinstance(g, HChop):
            return _wrap(f"{fmt(g.left, 1)} ; {fmt(g.right, 2)}", 1, min_prec)
        if isinstance(g, ExistsCar):
            return _wrap(f"exists {g.var}. {fmt(g.sub, 0)}", 0, min_prec)
        raise MlslError(f"unknown formula node {g!r}")

    def _wrap(text: str, p: int, min_prec: int) -> str:
        return text if p >= min_prec else f"({text})"

    return fmt(f, 0)


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: List[Tuple[str, str, int]] = []
        self._run()
        self.idx = 0

    def _run(self):
        text, i, n = self.text, 0, len(self.text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                word = text[i:j]
                kind = word if word in _KEYWORDS else "ident"
                self.tokens.append((kind, word, i))
                i = j
                continue
            if ch in "=!&;.()<>[]/":
                self.tokens.append((ch, ch, i))
                i += 1
                continue
            raise ParseError(f"unexpected character {ch!r}", i)
        self.tokens.append(("eof", "", n))

    def peek(self) -> Tuple[str, str, int]:
        return self.tokens[self.idx]

    def next(self) -> Tuple[str, str, int]:
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect(self, kind: str) -> Tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok


def parse(text: str, lane_vars: Iterable[str] = ()) -> Formula:
    """Parse the concrete formula syntax.

    Grammar: `true`, `free`, `re(c)`, `cl(c)`, `u = v`, `!phi`,
    `phi & phi`, `phi ; phi` (horizontal chop), `exists c. phi`,
    `[upper / lower]` (vertical chop, upper half written first),
    `<phi>` (somewhere), parentheses.  Precedence `!` > `&` > `;`,
    `exists` reaches right as far as possible.

    `lane_vars` declares identifiers of lane sort; equating a lane-sort
    variable with a car-sort one (or using it inside re/cl) is an error.
    """
    tz = _Tokenizer(text)
    vareqs: List[Tuple[str, str, int]] = []
    recl_args: List[Tuple[str, int]] = []

    def p_formula() -> Formula:
        if tz.peek()[0] == "exists":
            tz.next()
            var = tz.expect("ident")[1]
            tz.expect(".")
            return ExistsCar(var, p_formula())
        return p_chop()

    def p_chop() -> Formula:
        f = p_and()
        while tz.peek()[0] == ";":
            tz.next()
            f = HChop(f, p_and())
        return f

    def p_and() -> Formula:
        f = p_unary()
        while tz.peek()[0] == "&":
            tz.next()
            f = And(f, p_unary())
        return f

    def p_unary() -> Formula:
        if tz.peek()[0] == "!":
            tz.next()
            return Not(p_unary())
        return p_atom()

    def p_atom() -> Formula:
        kind, word, pos = tz.next()
        if kind == "true":
            return TrueF()
        if kind == "free":
            return Free()
        if kind in ("re", "cl"):
            tz.expect("(")
            _, arg, argpos = tz.expect("ident")
            tz.expect(")")
            recl_args.append((arg, argpos))
            return Re(arg) if kind == "re" else Cl(arg)
        if kind == "ident":
            if tz.peek()[0] == "=":
                tz.next()
                rkind, rword, rpos = tz.next()
                if rkind != "ident":
                    raise ParseError(f"expected identifier after '=', found {rword!r}", rpos)
                vareqs.append((word, rword, pos))
                return VarEq(word, rword)
            raise ParseError(f"bare identifier {word!r} is not a formula", pos)
        if kind == "(":
            f = p_formula()
            tz.expect(")")
            return f
        if kind == "<":
            f = p_formula()
            tz.expect(">")
            return somewhere(f)
        if kind == "[":
            upper = p_formula()
            tz.expect("/")
            lower = p_formula()
            tz.expect("]")
            return VChop(lower=lower, upper=upper)
        raise ParseError(f"unexpected token {word!r}", pos)

    f = p_formula()
    tz.expect("eof")
    _check_sorts(f, frozenset(lane_vars), vareqs, recl_args)
    return f


def _check_sorts(
    f: Formula,
    lane_vars: FrozenSet[str],
    vareqs: List[Tuple[str, str, int]],
    recl_args: List[Tuple[str, int]],
) -> None:
    car_vars = {"ego"}

    def walk(g: Formula):
        if isinstance(g, (Re, Cl)):
            car_vars.add(g.car)
        elif isinstance(g, ExistsCar):
            car_vars.add(g.var)
            walk(g.sub)
        elif isinstance(g, Not):
            walk(g.sub)
        elif isinstance(g, (And, HChop)):
            walk(g.left)
            walk(g.right)
        elif isinstance(g, VChop):
            walk(g.lower)
            walk(g.upper)

    walk(f)
    for arg, pos in recl_args:
        if arg in lane_vars:
            raise ParseError(f"lane variable {arg!r} used as a car", pos)
    for u, v, pos in vareqs:
        u_car, v_car = u in car_vars, v in car_vars
        u_lane, v_lane = u in lane_vars, v in lane_vars
        if (u_car and v_lane) or (u_lane and v_car):
            raise ParseError(f"comparing variables of different sorts: {u} = {v}", pos)


# ---------------------------------------------------------------------------
# Evaluation (Definition-4 style satisfaction)

Valuation = Mapping[str, Union[str, int]]


@functools.lru_cache(maxsize=None)
def _free_vars(f: Formula) -> Tuple[str, ...]:
    if isinstance(f, (Re, Cl)):
        return (f.car,)
    if isinstance(f, VarEq):
        return tuple(sorted({f.left, f.right}))
    if isinstance(f, Not):
        return _free_vars(f.sub)
    if isinstance(f, ExistsCar):
        return tuple(v for v in _free_vars(f.sub) if v != f.var)
    if isinstance(f, (And, HChop)):
        return tuple(sorted(set(_free_vars(f.left)) | set(_free_vars(f.right))))
    if isinstance(f, VChop):
        return tuple(sorted(set(_free_vars(f.lower)) | set(_free_vars(f.upper))))
    return ()


class _Ctx:
    """One sweep evaluation (_eval): the cars' extents and lane sets, and
    its memo."""

    __slots__ = ("names", "ext", "res", "clm", "memo")

    def __init__(self, ts: TrafficSnapshot):
        self.names = tuple(sorted(ts.cars))
        self.ext = {n: (ts.cars[n].pos, ts.cars[n].pos + ts.cars[n].size) for n in self.names}
        self.res = {n: ts.cars[n].res for n in self.names}
        self.clm = {n: ts.cars[n].clm for n in self.names}
        # nested chops revisit the same node on the same subview many
        # times, once per split combination above it; results only depend
        # on the subview and the node's free-variable bindings
        self.memo: Dict[tuple, bool] = {}

    def visible(self, r: int, t: int) -> Tuple[str, ...]:
        ext = self.ext
        return tuple(n for n in self.names if ext[n][0] <= t and ext[n][1] >= r)


def _eval(ctx: _Ctx, ll: int, ln: int, r: int, t: int, nu: Dict[str, Union[str, int]], f: Formula) -> bool:
    if isinstance(f, TrueF):
        return True
    if isinstance(f, VarEq):
        return _lookup(nu, f.left) == _lookup(nu, f.right)
    if isinstance(f, Free):
        if ln != ll or t <= r:
            return False
        for n in ctx.names:
            a, b = ctx.ext[n]
            if a <= t and b >= r and max(a, r) < t and min(b, t) > r:
                return False
        return True
    if isinstance(f, (Re, Cl)):
        if ln != ll or t <= r:
            return False
        alpha = _lookup(nu, f.car)
        ext = ctx.ext.get(alpha)
        if ext is None:
            raise EvalError(f"variable {f.car!r} valuates to unknown car {alpha!r}")
        a, b = ext
        if a > t or b < r:
            return False  # invisible here
        lanes = ctx.res[alpha] if isinstance(f, Re) else ctx.clm[alpha]
        # the single view lane must be exactly the car's lane set within the
        # band, and the visible part of the car must fill the extent
        return ll in lanes and a <= r and b >= t
    if isinstance(f, Not):
        return not _eval(ctx, ll, ln, r, t, nu, f.sub)
    if isinstance(f, And):
        return _eval(ctx, ll, ln, r, t, nu, f.left) and _eval(ctx, ll, ln, r, t, nu, f.right)
    if isinstance(f, ExistsCar):
        key = (id(f), ll, ln, r, t, tuple(nu.get(v) for v in _free_vars(f)))
        hit = ctx.memo.get(key, _MISSING)
        if hit is not _MISSING:
            return hit
        shadowed = nu.get(f.var, _MISSING)
        result = False
        for alpha in ctx.visible(r, t):
            nu[f.var] = alpha
            if _eval(ctx, ll, ln, r, t, nu, f.sub):
                result = True
                break
        _restore(nu, f.var, shadowed)
        ctx.memo[key] = result
        return result
    if isinstance(f, HChop):
        key = (id(f), ll, ln, r, t, tuple(nu.get(v) for v in _free_vars(f)))
        hit = ctx.memo.get(key, _MISSING)
        if hit is not _MISSING:
            return hit
        result = False
        for s in range(r, t + 1):
            if _eval(ctx, ll, ln, r, s, nu, f.left) and _eval(ctx, ll, ln, s, t, nu, f.right):
                result = True
                break
        ctx.memo[key] = result
        return result
    if isinstance(f, VChop):
        key = (id(f), ll, ln, r, t, tuple(nu.get(v) for v in _free_vars(f)))
        hit = ctx.memo.get(key, _MISSING)
        if hit is not _MISSING:
            return hit
        result = False
        for m in range(ll - 1, ln + 1):
            if _eval(ctx, ll, m, r, t, nu, f.lower) and _eval(ctx, m + 1, ln, r, t, nu, f.upper):
                result = True
                break
        ctx.memo[key] = result
        return result
    raise MlslError(f"unknown formula node {f!r}")


_MISSING = object()


def _restore(nu: Dict[str, Union[str, int]], var: str, old):
    if old is _MISSING:
        nu.pop(var, None)
    else:
        nu[var] = old


def _lookup(nu: Mapping[str, Union[str, int]], var: str):
    try:
        return nu[var]
    except KeyError:
        raise EvalError(f"unbound variable {var!r}") from None


# node tags of a compiled formula; every tag from _NOT on is memoised
_TRUE, _VAREQ, _FREE, _RE, _CL, _NOT, _AND, _EXISTS, _HCHOP, _VCHOP, _SOME = range(11)


class _Program:
    """A formula with its subformulas numbered in preorder, the root as 0.

    Node k has tag tags[k] and operands one[k], two[k]: child node numbers,
    or variable slots for VarEq (both), Re/Cl (one) and the variable bound
    by ExistsCar (one; its body is two).  fv[k] holds the slots free in
    node k, vars[slot] the variable's name.  Equal subformulas share one
    node, and a somewhere() shape is one _SOME node over its payload.
    """

    __slots__ = ("tags", "one", "two", "fv", "vars")

    def __init__(self, phi: Formula):
        self.tags: List[int] = []
        self.one: List[int] = []
        self.two: List[int] = []
        self.fv: List[Tuple[int, ...]] = []
        self.vars: List[str] = []
        slots: Dict[str, int] = {}
        numbered: Dict[Formula, int] = {}

        def slot(var: str) -> int:
            if var not in slots:
                slots[var] = len(self.vars)
                self.vars.append(var)
            return slots[var]

        def node(f: Formula) -> int:
            k = numbered.get(f)
            if k is not None:
                return k
            k = numbered[f] = len(self.tags)
            for column in (self.tags, self.one, self.two, self.fv):
                column.append(None)
            payload = _somewhere_payload(f)
            one = two = -1
            if payload is not None:
                tag, one = _SOME, node(payload)
                free = self.fv[one]
            elif isinstance(f, TrueF):
                tag, free = _TRUE, ()
            elif isinstance(f, Free):
                tag, free = _FREE, ()
            elif isinstance(f, VarEq):
                tag, one, two = _VAREQ, slot(f.left), slot(f.right)
                free = tuple(sorted({one, two}))
            elif isinstance(f, (Re, Cl)):
                tag, one = (_RE if isinstance(f, Re) else _CL), slot(f.car)
                free = (one,)
            elif isinstance(f, Not):
                tag, one = _NOT, node(f.sub)
                free = self.fv[one]
            elif isinstance(f, (And, HChop)):
                tag, one, two = (_AND if isinstance(f, And) else _HCHOP), node(f.left), node(f.right)
                free = tuple(sorted(set(self.fv[one]) | set(self.fv[two])))
            elif isinstance(f, VChop):
                tag, one, two = _VCHOP, node(f.lower), node(f.upper)
                free = tuple(sorted(set(self.fv[one]) | set(self.fv[two])))
            elif isinstance(f, ExistsCar):
                tag, one, two = _EXISTS, slot(f.var), node(f.sub)
                free = tuple(v for v in self.fv[two] if v != one)
            else:
                raise MlslError(f"unknown formula node {f!r}")
            self.tags[k], self.one[k], self.two[k], self.fv[k] = tag, one, two, free
            return k

        node(phi)


@functools.lru_cache(maxsize=256)
def _compile(phi: Formula) -> _Program:
    """phi's program.  Formulas are frozen and hashable, so an equal
    formula built anew per call compiles once; the bound keeps formulas
    that are each evaluated once (random tests, a CLI session) from
    growing the cache without end."""
    return _Program(phi)


class _Rows:
    """One fast evaluation: the compiled program, the view, the cars by
    index, the valuation by slot, and the row memo.

    Values are coded as small ints: car k (in name order) is k, another
    value the caller bound is a code after the cars, and an unbound slot
    holds `unbound`, the largest code.  A memo key packs (node, band, r)
    into the low `fixed` values and the node's binding digits, base
    `unbound + 1`, above them.  Every operand ranges over a window of
    fixed width (node in [0, N), ln in [L - 1, H], ll in [L, H + 1], r in
    [lo, hi] for the view's lanes L..H and extent lo..hi), so the low part
    decodes to one (node, band, r); the node fixes how many digits follow.
    """

    __slots__ = ("prog", "values", "env", "unbound", "lo", "hi", "ext", "res", "clm",
                 "width", "nodes", "fixed", "memo")

    def __init__(self, prog: _Program, ts: TrafficSnapshot, view: View, nu: Valuation):
        names = sorted(ts.cars)
        cars = [ts.cars[n] for n in names]
        self.prog = prog
        self.values: List[Union[str, int]] = list(names)
        codes = {n: k for k, n in enumerate(names)}
        bound = [nu.get(v, _MISSING) for v in prog.vars]
        for value in bound:
            if value is not _MISSING and value not in codes:
                codes[value] = len(self.values)
                self.values.append(value)
        self.unbound = len(self.values)
        self.env = [self.unbound if value is _MISSING else codes[value] for value in bound]
        self.lo, self.hi = view.extent.lo, view.extent.hi
        self.ext = [(c.pos, c.pos + c.size) for c in cars]
        self.res = [c.res for c in cars]
        self.clm = [c.clm for c in cars]
        self.width = view.lane_hi - view.lane_lo + 2
        self.nodes = len(prog.tags)
        self.fixed = self.nodes * self.width * self.width * (self.hi - self.lo + 1)
        self.memo: Dict[int, int] = {}

    def value(self, slot: int) -> int:
        """The code bound to slot, or EvalError if it is unbound."""
        code = self.env[slot]
        if code == self.unbound:
            raise EvalError(f"unbound variable {self.prog.vars[slot]!r}")
        return code

    def car(self, slot: int) -> int:
        """The car index bound to slot, or EvalError."""
        alpha = self.value(slot)
        if alpha >= len(self.ext):
            raise EvalError(f"variable {self.prog.vars[slot]!r} valuates to unknown car "
                            f"{self.values[alpha]!r}")
        return alpha


def _span(ctx: _Rows, x: int, y: int) -> int:
    """Row bits of the right ends x..y, clipped to the view's extent."""
    y = min(y, ctx.hi)
    return ((1 << (y - x + 1)) - 1) << (x - ctx.lo) if x <= y else 0


def _row(ctx: _Rows, ll: int, ln: int, r: int, node: int) -> int:
    """The right ends t in [r, hi] where node holds on lanes ll..ln, extent [r, t].

    Bit t - lo of the result stands for t.  Each row is computed once per
    (node, band, r, binding), not once per path of chop points leading
    there.
    """
    prog = ctx.prog
    tag = prog.tags[node]
    if tag == _TRUE:
        return _span(ctx, r, ctx.hi)
    if tag == _RE or tag == _CL:
        if ln != ll or r >= ctx.hi:
            return 0
        alpha = ctx.car(prog.one[node])
        a, b = ctx.ext[alpha]
        lanes = ctx.res[alpha] if tag == _RE else ctx.clm[alpha]
        return _span(ctx, r + 1, b) if ll in lanes and a <= r else 0
    if tag == _VAREQ:
        u, v = ctx.value(prog.one[node]), ctx.value(prog.two[node])
        return _span(ctx, r, ctx.hi) if u == v else 0
    if tag == _FREE:
        if ln != ll:
            return 0
        # free on [r, t] iff r < t and every car reaching past r starts at t or later
        end = ctx.hi
        for a, b in ctx.ext:
            if b > r:
                end = min(end, a)
        return _span(ctx, r + 1, end)
    env = ctx.env
    binding = 0
    for slot in prog.fv[node]:
        binding = binding * (ctx.unbound + 1) + env[slot]
    width = ctx.width
    key = node + ctx.nodes * (ln + width * (ll + width * r)) + ctx.fixed * binding
    memo = ctx.memo
    row = memo.get(key)
    if row is not None:
        return row
    if tag == _SOME:
        # the least u such that the payload holds on some sub-band and
        # some [s, u] with r <= s; see the module docstring
        sub, lo, best = prog.one[node], ctx.lo, ctx.hi + 1
        for a in range(ll, ln + 2):
            for b in range(a - 1, ln + 1):
                s = r
                while s < best:
                    found = _row(ctx, a, b, s, sub)
                    if found:
                        best = min(best, lo + (found & -found).bit_length() - 1)
                    s += 1
        row = _span(ctx, best, ctx.hi)
    elif tag == _AND:
        row = _row(ctx, ll, ln, r, prog.one[node])
        if row:
            row &= _row(ctx, ll, ln, r, prog.two[node])
    elif tag == _NOT:
        row = _span(ctx, r, ctx.hi) & ~_row(ctx, ll, ln, r, prog.one[node])
    elif tag == _EXISTS:
        var, sub = prog.one[node], prog.two[node]
        shadowed = env[var]
        row = 0
        for alpha, (a, b) in enumerate(ctx.ext):
            if b >= r:  # visible on [r, t] from t = a on
                env[var] = alpha
                row |= _row(ctx, ll, ln, r, sub) & _span(ctx, max(a, r), ctx.hi)
        env[var] = shadowed
    elif tag == _HCHOP:
        # some split point s in [r, t] with the left part on [r, s] and the
        # right part on [s, t]: the right rows of every s in the left row
        row = 0
        left, right = _row(ctx, ll, ln, r, prog.one[node]), prog.two[node]
        while left:
            low = left & -left
            left ^= low
            row |= _row(ctx, ll, ln, ctx.lo + low.bit_length() - 1, right)
    else:  # _VCHOP
        row = 0
        lower, upper = prog.one[node], prog.two[node]
        for m in range(ll - 1, ln + 1):
            below = _row(ctx, ll, m, r, lower)
            if below:
                row |= below & _row(ctx, m + 1, ln, r, upper)
    memo[key] = row
    return row


def eval(ts: TrafficSnapshot, view: View, nu: Valuation, phi: Formula,
         chop_mode: str = "fast") -> bool:  # noqa: A001 — name fixed by the API
    """Satisfaction of phi over the view, under valuation nu.

    nu must bind `ego` (and every other free variable of phi).  Both
    chop_modes apply the one chop rule, a split at some point of the
    extent; chop_mode picks the algorithm: "fast" builds rows bottom-up
    (_row, over phi compiled once), "sweep" recurses top-down over every
    split point (_eval, the reference the tests compare against).
    """
    if chop_mode not in ("fast", "sweep"):
        raise ValueError(f"chop_mode must be 'fast' or 'sweep', got {chop_mode!r}")
    if "ego" not in nu:
        raise EvalError("valuation must bind 'ego'")
    lo, hi = view.extent.lo, view.extent.hi
    if chop_mode == "sweep":
        return _eval(_Ctx(ts), view.lane_lo, view.lane_hi, lo, hi, dict(nu), phi)
    ctx = _Rows(_compile(phi), ts, view, nu)
    return bool(_row(ctx, view.lane_lo, view.lane_hi, lo, 0) >> (hi - lo) & 1)


# ---------------------------------------------------------------------------
# Interval-arithmetic collision checks.  The checker asks these questions
# through lane bitmasks and its pair lists; cc and pc are the interval
# reference that the formulas below are compared against.


def _meet(a: CarState, b: CarState) -> bool:
    """Overlapping intervals.  The test is strict (merely touching endpoints
    do not count): a car whose visible part has zero length can never
    satisfy a re/cl atom, so the formula side never sees touching as
    overlap either."""
    return a.pos < b.pos + b.size and b.pos < a.pos + a.size


def cc(ts: TrafficSnapshot, ego: str) -> bool:
    """No other car's reservation shares a lane with ego's and meets it."""
    mine = ts.car(ego)
    return not any(c != ego and mine.res & car.res and _meet(mine, car)
                   for c, car in ts.cars.items())


def pc(ts: TrafficSnapshot, ego: str, c: str) -> bool:
    """c's claim or reservation shares a lane with ego's claim and meets it."""
    if c == ego:
        return False
    other = ts.car(c)
    mine = ts.car(ego)
    return bool(mine.clm & (other.res | other.clm)) and _meet(mine, other)


def cc_formula() -> Formula:
    """No car distinct from ego has a reservation overlapping ego's, anywhere."""
    return Not(
        ExistsCar(
            "c",
            And(Not(VarEq("c", "ego")), somewhere(And(Re("ego"), Re("c")))),
        )
    )


def collision_formula() -> Formula:
    """Two distinct cars have overlapping reservations somewhere."""
    return ExistsCar("c", ExistsCar("d", And(
        Not(VarEq("c", "d")), somewhere(And(Re("c"), Re("d"))))))


def pc_formula(c: str = "c") -> Formula:
    """Car c's claim or reservation overlaps ego's claim somewhere."""
    return And(
        Not(VarEq(c, "ego")),
        somewhere(And(Cl("ego"), or_(Re(c), Cl(c)))),
    )


def exists_pc_formula(var: str = "c") -> Formula:
    """Some car potentially collides with ego's claim."""
    return ExistsCar(var, pc_formula(var))
