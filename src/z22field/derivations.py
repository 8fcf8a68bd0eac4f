"""Graded derivations and the superspace differential operators.

A derivation is determined by its action on generators and extends to
products through the graded Leibniz rule

    D(ab) = D(a) b + (-1)^parity(deg D, deg a) a D(b).

A homogeneous coefficient times a derivation is again a derivation, so
every superspace operator sum(c_i D_i) is one more generator action,
g -> sum(c_i D_i(g)), built by `combine`.

Total derivatives know the jet bookkeeping: the time derivative of a jet
raises its first index, the space derivative its second, and function
symbols chain through the formal field derivatives of their family.

The coordinate derivatives act from the left; the degree-(1,1)
coordinate derivative implements z**2 = y as the explicit z derivative
plus 2z times the total derivative along y.

`apply_many` applies a sequence of derivations to one expression in one
walk over its terms.  `apply` and `columns` walk one derivation: the
first sums over the terms of an expression, the second keeps the image
of each monomial of a list apart.  Each derivation memoises the image of
every generator it has met, as a list of (monomial, coefficient, packed
mask) triples (see `_ImageMemo`); generators are interned and finitely
many, so the memo is keyed by generator only, never by an expression or
a potential.  An action that raises stores nothing.  A walk of many
derivations routes each distinct generator once to the derivations with
a nonzero image of it, so a factor that none of them moves costs one
lookup.  Its table lives in `_routes`, a least-recently-used memo keyed
by the tuple of derivation objects alone and bounded at ROUTE_TABLES
tuples, so repeated walks of one tuple (the jet partials of every
Euler-Lagrange request) route each generator once between them; a walk
of one derivation takes its memo, which holds each generator's route,
as that table.  Every walk is `_walk`.  For the factor g**e of a
monomial, with P the factors before it and R the monomial less one power
of g, the Leibniz term of an image monomial m is

    (-1)^(parity(deg D, deg P) + parity(deg m, deg P)) e c m*R,

one monomial merge per image term, and none when m or R is the empty
monomial: a canonical monomial times 1 is itself.  The merge is
`expr._mono_mul`, the ring's product table, keyed by the pair of
monomials and bounded at `expr.PRODUCTS` pairs like the routing tables
at ROUTE_TABLES.  Each Leibniz term is added straight into that
derivation's result by the rule of `_add_terms`, restated inline.  No
two terms of one image give one product (m -> m*R is injective on the
products that survive), so each result equals the three-product form
prefix * D(g) * g**(e-1) * suffix term for term and in order.  The
total derivatives, jet partials and coordinate partials are cached per
stage name or generator, so their memos last for the whole process.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, lru_cache
from itertools import product
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .core import (DEG00, DEG01, DEG10, DEG11, FIELD_BASES, TRIG, Degree,
                   GaussianRational, Generator, QONE, QZERO, coord, field,
                   fjet, pairjet, parity, trig)
from .expr import (_MASK_PARITY, ONE_EXPR, GradedExpr, _mono_mask,
                   _mono_mul, gexp, parse, scalar)

# how many derivation tuples keep their routing tables (see `_routes`)
ROUTE_TABLES = 8


# ----------------------------------------------------------------------
# the derivation type
# ----------------------------------------------------------------------

class _ImageMemo(dict):
    """generator -> the route [(0, [(monomial, coefficient, mask), ...])]
    of one action, or [] where its image is zero, filled on the first
    lookup of each generator; a walk of this derivation alone reads it
    as its routing table.  The mask packs the degree of the derivation
    plus that of the monomial, as in Generator.mask; a unit coefficient
    is stored as None, so the walk skips its product."""

    __slots__ = ("action", "dmask")

    def __init__(self, action: Callable[[Generator], Optional[GradedExpr]],
                 dmask: int):
        super().__init__()
        self.action = action
        self.dmask = dmask

    def __missing__(self, g: Generator) -> List[tuple]:
        img = self.action(g)
        terms = [] if img is None else [
            (m, None if c == QONE else c, self.dmask ^ _mono_mask(m))
            for m, c in img.terms.items()]
        route = self[g] = [(0, terms)] if terms else []
        return route


class GeneratorDerivation:
    """Derivation given by a generator action plus graded Leibniz."""

    def __init__(self, name: str, degree: Degree,
                 action: Callable[[Generator], Optional[GradedExpr]]):
        self.name = name
        self.degree = degree
        self.action = action
        self._images = _ImageMemo(action, degree.a | degree.b << 1)

    def __call__(self, expr: GradedExpr) -> GradedExpr:
        return self.apply(expr)

    def __repr__(self) -> str:
        return f"<GeneratorDerivation {self.name}>"

    def apply(self, expr: GradedExpr) -> GradedExpr:
        return GradedExpr(
            _walk(expr.terms.items(), self._images, (self,), [None])[0])

    def columns(self, monos: Sequence[tuple]) -> List[dict]:
        """The terms of D(m) for each canonical monomial m, each equal to
        apply(GradedExpr({m: 1})).terms in value and order; no routing
        table is built."""
        return [_walk(((m, QONE),), self._images, (self,), [None])[0] or {}
                for m in monos]


def apply_many(derivations: Sequence[GeneratorDerivation],
               expr: GradedExpr) -> List[GradedExpr]:
    """Each derivation applied to expr, in one walk over its terms.

    Result i equals what derivation i's own Leibniz pass gives, in value
    and in term order.  The routing table is keyed by generator and kept
    by `_routes` for the tuple of derivations, so the next walk of the
    same tuple reuses it: a factor that no derivation moves costs one
    lookup, and the rest of a monomial is cut once for every derivation
    that moves its factor.
    """
    derivations = tuple(derivations)
    # None until a derivation's first nonzero Leibniz term
    outs = _walk(expr.terms.items(), _routes(derivations), derivations,
                 [None] * len(derivations))
    return list(map(GradedExpr, outs))


@lru_cache(maxsize=ROUTE_TABLES)
def _routes(derivations: Tuple[GeneratorDerivation, ...]
            ) -> Dict[Generator, list]:
    """The routing table of walks of these derivations, filled by `_walk`.

    Keyed by the derivation objects alone, which hash by identity, and
    never by an expression or a potential; the route of a generator is
    fixed by the derivations' image memos, so a table never goes stale.
    The least recently used of more than ROUTE_TABLES tuples is dropped.
    """
    return {}


def _walk(terms, routes: Dict[Generator, list],
          derivations: Sequence[GeneratorDerivation],
          outs: List[Optional[dict]]) -> List[Optional[dict]]:
    """outs with the Leibniz terms of each (monomial, coefficient) of
    terms added to outs[i] for each (i, image) of the route of a factor:
    the one rule of every walk.  A route missing from routes is built
    from the derivations' image memos and kept there."""
    for mono, c in terms:
        pmask = 0
        for k, (g, e) in enumerate(mono):
            route = routes.get(g)
            if route is None:
                # (index, image) of each derivation that moves g, in
                # their order; a derivation alone keeps its own route
                route = []
                for i, d in enumerate(derivations):
                    own = d._images[g]
                    if own:
                        route.append((i, own[0][1]))
                routes[g] = route
            if route:
                coeff = c if e == 1 else c * e
                # D(g^e) = e D(g) g^(e-1): g commutes with itself
                # whenever its powers survive
                if e == 1:
                    rest = mono[:k] + mono[k + 1:]
                else:
                    rest = mono[:k] + ((g, e - 1),) + mono[k + 1:]
                for i, img in route:
                    out = outs[i]
                    for m2, c2, mask in img:
                        # an image term and a cut monomial are both
                        # canonical, so an empty one needs no merge; a
                        # jet partial's image is the empty monomial
                        if m2 and rest:
                            hit = _mono_mul(m2, rest)
                            if hit is None:
                                continue
                            sign, prod = hit
                        else:
                            sign, prod = 0, m2 or rest
                        cc = coeff if c2 is None else coeff * c2
                        if sign ^ _MASK_PARITY[mask & pmask]:
                            cc = -cc
                        # the rule of `_add_terms`, inline: fed by a
                        # generator, this loop ran about 7% slower
                        if out is None:
                            out = outs[i] = {prod: cc}
                            continue
                        acc = out.get(prod)
                        if acc is not None:
                            cc = acc + cc
                        if cc._a or cc._b:
                            out[prod] = cc
                        elif acc is not None:
                            del out[prod]
            if type(e) is int and e & 1:
                pmask ^= g.mask
    return outs


def combine(name: str, degree: Degree,
            pieces: Sequence[Tuple[GradedExpr, GeneratorDerivation]]
            ) -> GeneratorDerivation:
    """The derivation sum of coefficient * derivation over the pieces.

    A homogeneous coefficient c times a derivation D is a derivation of
    degree deg c + deg D, so the sum is fixed by its generator images.
    """
    for cf, dv in pieces:
        d = cf.degree()
        if d is None or d + dv.degree != degree:
            raise ValueError(f"inhomogeneous piece in {name}")

    def act(g: Generator) -> Optional[GradedExpr]:
        out = None
        for cf, dv in pieces:
            img = dv.action(g)
            if img is not None and img.terms:
                out = cf * img if out is None else out + cf * img
        return out

    return GeneratorDerivation(name, degree, act)


# ----------------------------------------------------------------------
# formal field derivatives of function symbols
# ----------------------------------------------------------------------

def fn_field_derivative(g: Generator, which: str) -> Optional[GradedExpr]:
    """Formal derivative of a function symbol by phi00 or phi11.

    Encodes the derivative towers: the abstract family F only sees phi00;
    trig symbols follow core.TRIG; potential pairs step their derivative
    index with the two slots swapping under the (1,1) derivative.
    """
    if g.kind != "fn":
        return None
    base = g.base
    if base == "F":
        if which == "phi00":
            return gexp(fjet(g.jet[0] + 1))
        return None
    row = TRIG.get(base)
    if row is not None:
        if which != row.field:
            return None
        img = gexp(trig(row.target))
        if row.ypow:
            img = gexp(coord("y"), row.ypow) * img
        return img if row.sign > 0 else -img
    if base.endswith("pair"):
        m, slot = g.jet
        space = g.space
        if which == "phi00":
            return gexp(pairjet(m + 1, slot, space))
        if which == "phi11":
            if slot == 0:
                img = gexp(pairjet(m + 1, 1, space))
                if space == "y":
                    img = gexp(coord("y")) * img
                return img
            return gexp(pairjet(m + 1, 0, space))
        return None
    raise ValueError(f"unknown function symbol {g.name}")


def fn_chain(g: Generator, image: Callable[[str], GradedExpr]) -> GradedExpr:
    """Chain rule through a function symbol: the sum over phi00 and phi11
    of its formal field derivative times image(field)."""
    out = GradedExpr.zero()
    for which in ("phi00", "phi11"):
        part = fn_field_derivative(g, which)
        if part is not None and part.terms:
            out = out + part * image(which)
    return out


# ----------------------------------------------------------------------
# total derivatives
# ----------------------------------------------------------------------

@cache
def total_t(space: str) -> GeneratorDerivation:
    """Total time derivative for jets of the given stage."""
    tname = coord("t")

    def act(g: Generator) -> Optional[GradedExpr]:
        if g is tname:
            return ONE_EXPR
        if g.kind == "field" and g.space == space:
            m, n = g.jet
            return gexp(field(g.base, m + 1, n, space))
        if g.kind == "fn":
            return _jet_chain(g, 1, 0, space)
        return None

    return GeneratorDerivation(f"D_t[{space}]", DEG00, act)


@cache
def total_space(space: str) -> GeneratorDerivation:
    """Total derivative along the measure coordinate of the given stage."""
    cname = coord("y") if space == "y" else coord("x")

    def act(g: Generator) -> Optional[GradedExpr]:
        if g is cname:
            return ONE_EXPR
        if g.kind == "field" and g.space == space:
            m, n = g.jet
            return gexp(field(g.base, m, n + 1, space))
        if g.kind == "fn":
            if space == "y" and g.space == "y":  # first-stage symbols pack y
                raise ValueError(
                    f"{g.name} carries explicit measure dependence")
            return _jet_chain(g, 0, 1, space)
        return None

    return GeneratorDerivation(f"D_{space}", DEG00, act)


def _jet_chain(g: Generator, dm: int, dn: int, space: str) -> GradedExpr:
    """A total derivative through a function symbol of the given stage."""
    if g.space is not None and g.space != space:
        raise ValueError(f"{g.name} does not live in stage {space!r}")
    return fn_chain(g, lambda b: gexp(field(b, dm, dn, space)))


def jet_prolongation(table: Dict[str, GradedExpr], stage: str
                     ) -> Callable[[str, int, int], GradedExpr]:
    """(base, m, n) -> D_t^m D_space^n table[base] on the given stage.

    Each jet is built from its neighbour of one lower order and memoised
    for the life of the returned function.  Total derivatives commute,
    so the order in which they are applied does not change the result.
    """
    dt, dsp = total_t(stage), total_space(stage)
    memo: Dict[Tuple[str, int, int], GradedExpr] = {}

    def jet(base: str, m: int, n: int) -> GradedExpr:
        key = (base, m, n)
        hit = memo.get(key)
        if hit is None:
            if m:
                hit = dt.apply(jet(base, m - 1, n))
            elif n:
                hit = dsp.apply(jet(base, 0, n - 1))
            else:
                hit = table[base]
            memo[key] = hit
        return hit

    return jet


@cache
def jet_partial(gen: Generator) -> GeneratorDerivation:
    """Left partial derivative by a single jet variable.

    Function symbols depend on the undifferentiated (0,0) and (1,1)
    bases only, so the symbol chain rule fires just for those targets;
    partials by proper jets treat every symbol as a constant.
    """
    chain = (gen.kind == "field" and gen.jet == (0, 0)
             and gen.base in ("phi00", "phi11"))
    space = gen.space

    def act(g: Generator) -> Optional[GradedExpr]:
        if g is gen:
            return ONE_EXPR
        if chain and g.kind == "fn" and g.space in (None, space):
            return fn_field_derivative(g, gen.base)
        return None

    return GeneratorDerivation(f"d/d{gen.name}", gen.degree, act)


def solve_linear(eq: GradedExpr, gen: Generator) -> GradedExpr:
    """The root in gen of eq = 0, for eq linear in gen with a scalar
    coefficient."""
    rest, coeff = eq.split_gen(gen)
    if set(coeff.terms) != {()}:
        raise AssertionError(f"equation is not linear in {gen.name}")
    return scalar(GaussianRational(-1) / coeff.terms[()]) * rest


def rewrite_jets(e: GradedExpr, solved: Dict[str, GradedExpr],
                 order: Dict[str, int]) -> GradedExpr:
    """e with each second-stage jet (m, n) of a base b in solved, m >=
    order[b], replaced by D_t^(m - order[b]) D_x^n solved[b], the value
    of field(b, order[b], 0, "x"), until none is left (Olver 1993, 2.3).

    Order 0 substitutes algebraic solutions; the field equations' time
    orders reduce on shell.  Solutions of lower time order than their
    jets lower the top rewritten time order each round; else it raises.
    """
    jet, top = jet_prolongation(solved, "x"), math.inf
    while True:
        subs = {g: jet(g.base, g.jet[0] - order[g.base], g.jet[1])
                for g in e.generators()
                if g.kind == "field" and g.space == "x"
                and g.base in solved and g.jet[0] >= order[g.base]}
        if not subs:
            return e
        top, last = max(g.jet[0] for g in subs), top
        if top >= last:
            raise RuntimeError("jet rewriting did not lower the time order")
        e = e.substitute(subs)


@cache
def partial_coord(name: str) -> GeneratorDerivation:
    """Left derivative by the explicit occurrences of one coordinate."""
    c = coord(name)

    def act(g: Generator) -> Optional[GradedExpr]:
        return ONE_EXPR if g is c else None

    return GeneratorDerivation(f"d_{name}", c.degree, act)


def partial_z() -> GeneratorDerivation:
    """Degree-(1,1) coordinate derivative with z**2 = y built in: the
    explicit z derivative plus 2z times the derivative along y."""
    return combine("d_z", DEG11, [(ONE_EXPR, partial_coord("z")),
                                  (parse("2*z", "y"), total_space("y"))])


# ----------------------------------------------------------------------
# superspace operators
# ----------------------------------------------------------------------

@cache
def superspace_operators() -> Dict[str, GeneratorDerivation]:
    """The seven named operators acting on first-stage superspace."""
    dt, dz = total_t("y"), partial_z()
    d10, d01 = partial_coord("th10"), partial_coord("th01")
    c = lambda text: parse(text, "y")
    pieces = {
        "H": [(c("i"), dt)],
        "Z": [(c("i"), dz)],
        "Q10": [(ONE_EXPR, d10), (c("i*th10"), dt), (c("1/2*th01"), dz)],
        "Q01": [(ONE_EXPR, d01), (c("i*th01"), dt), (c("-1/2*th10"), dz)],
        "L11": [(c("-2*i*z"), dt), (c("-1/2*i*t"), dz),
                (c("1/2*th01"), d10), (c("-1/2*th10"), d01)],
        "D10": [(ONE_EXPR, d10), (c("-i*th10"), dt), (c("-1/2*th01"), dz)],
        "D01": [(ONE_EXPR, d01), (c("-i*th01"), dt), (c("1/2*th10"), dz)],
    }
    return {n: combine(n, OP_DEGREE[n], p) for n, p in pieces.items()}


# ----------------------------------------------------------------------
# structure constants
# ----------------------------------------------------------------------

# canonical bracket values for ordered pairs (first index <= second in the
# listing below); entries are lists of (coefficient, operator name)
_ORDER = ("H", "Z", "Q10", "Q01", "L11", "D10", "D01")

Terms = List[Tuple[GaussianRational, str]]
STRUCTURE: Dict[Tuple[str, str], Terms] = {
    ("H", "H"): [],
    ("H", "Z"): [],
    ("H", "Q10"): [],
    ("H", "Q01"): [],
    ("H", "L11"): [(GaussianRational(0, Fraction(-1, 2)), "Z")],
    ("H", "D10"): [],
    ("H", "D01"): [],
    ("Z", "Z"): [],
    ("Z", "Q10"): [],
    ("Z", "Q01"): [],
    ("Z", "L11"): [(GaussianRational(0, -2), "H")],
    ("Z", "D10"): [],
    ("Z", "D01"): [],
    ("Q10", "Q10"): [(GaussianRational(2), "H")],
    ("Q10", "Q01"): [(GaussianRational(0, 1), "Z")],
    ("Q10", "L11"): [(GaussianRational(Fraction(-1, 2)), "Q01")],
    ("Q10", "D10"): [],
    ("Q10", "D01"): [],
    ("Q01", "Q01"): [(GaussianRational(2), "H")],
    ("Q01", "L11"): [(GaussianRational(Fraction(1, 2)), "Q10")],
    ("Q01", "D10"): [],
    ("Q01", "D01"): [],
    ("L11", "L11"): [],
    ("L11", "D10"): [(GaussianRational(Fraction(-1, 2)), "D01")],
    ("L11", "D01"): [(GaussianRational(Fraction(1, 2)), "D10")],
    ("D10", "D10"): [(GaussianRational(-2), "H")],
    ("D10", "D01"): [(GaussianRational(0, -1), "Z")],
    ("D01", "D01"): [(GaussianRational(-2), "H")],
}


OP_DEGREE: Dict[str, Degree] = {
    "H": DEG00, "Z": DEG11, "Q10": DEG10, "Q01": DEG01, "L11": DEG11,
    "D10": DEG10, "D01": DEG01,
}

def bracket_sign(a: str, b: str) -> int:
    """The sign s of the graded bracket [a, b} = ab + s ba of two named
    operators, -(-1)^parity(deg a, deg b): +1 for an anticommutator, -1
    for a commutator.  Every bracket check reads it here."""
    return 1 if parity(OP_DEGREE[a], OP_DEGREE[b]) else -1


def bracket_value(a: str, b: str) -> Terms:
    """Structure constants of the ordered bracket [a, b}."""
    if (a, b) in STRUCTURE:
        return STRUCTURE[(a, b)]
    # [a,b} = s [b,a}: anticommutators are symmetric, commutators flip
    s = bracket_sign(a, b)
    return [(c * s, nm) for c, nm in STRUCTURE[(b, a)]]


def bracket_residuals(ops: Dict[str, GeneratorDerivation],
                      probes: Dict[str, GradedExpr],
                      relations: Sequence[Tuple[str, str, int, Terms]]
                      ) -> List[Dict[str, str]]:
    """The nonzero residuals of each relation (outer, inner, sign, rhs),
    by probe name: outer(inner(p)) + sign inner(outer(p)) must equal the
    sum of c ops[r](p) over the (c, r) of rhs on every probe p.

    One walk of all the ops over a probe gives its first images; one more
    walk over each first image applies only the ops that some relation
    composes with it.  A relation with a nonzero right side also fails,
    under the key `commutator`, when its left side vanishes on every
    probe: both sides vanish when, e.g., two parameter copies are not
    independent, but a nonzero bracket must act.
    """
    names = tuple(ops)
    partners: Dict[str, set] = {n: set() for n in names}
    for a, b, _, _ in relations:
        partners[a].add(b)
        partners[b].add(a)
    first = {p: dict(zip(names, apply_many([ops[n] for n in names], e)))
             for p, e in probes.items()}
    # each image walked by one tuple of ops for all probes in a row, so
    # the walks of that tuple share one routing table
    second = {}
    for x in names:
        ys = [y for y in names if y in partners[x]]
        for p, images in first.items():
            second.update(zip([(p, y, x) for y in ys],
                              apply_many([ops[y] for y in ys], images[x])))
    out = []
    for a, b, sign, rhs in relations:
        residuals = {}
        moved = False
        for p, images in first.items():
            diff = second[p, a, b] + sign * second[p, b, a]
            moved = moved or not diff.is_zero()
            for c, r in rhs:
                diff = diff - scalar(c) * images[r]
            if not diff.is_zero():
                residuals[p] = str(diff)
        if rhs and not moved:
            residuals["commutator"] = "0 on every probe"
        out.append(residuals)
    return out


def verify_structure_constants() -> List[dict]:
    """Check every bracket relation on a probe set of generators.

    Returns one report per relation: the bracket applied to each probe minus
    the expected right side, which must vanish identically.  Composition is
    associative, so operators that realise the table satisfy its Jacobi
    identity, which `verify_jacobi` checks on the table.
    """
    ops = superspace_operators()
    gens = [coord(n) for n in ("t", "y", "z", "th10", "th01")]
    gens += [field(b, 0, 0, "y") for b in FIELD_BASES]
    pairs = sorted(STRUCTURE, key=lambda ab: tuple(map(_ORDER.index, ab)))
    relations = [(a, b, bracket_sign(a, b), STRUCTURE[a, b])
                 for a, b in pairs]
    residuals = bracket_residuals(
        {n: ops[n] for n in _ORDER}, {g.name: gexp(g) for g in gens},
        relations)
    reports = []
    for (a, b, s, rhs), res in zip(relations, residuals):
        sym = "{%s,%s}" if s > 0 else "[%s,%s]"
        rh = " + ".join(f"({c}) {nm}" for c, nm in rhs) if rhs else "0"
        reports.append({"relation": f"{sym % (a, b)} = {rh}",
                        "status": "ok" if not res else "fail",
                        "residuals": res})
    return reports


def _add_bracket(acc: Dict[str, GaussianRational], sign: int,
                 xs: Terms, ys: Terms) -> None:
    """acc += sign * [xs, ys}, bilinear in the two (coefficient, name)
    lists."""
    for cx, x in xs:
        for cy, y in ys:
            for c, nm in bracket_value(x, y):
                acc[nm] = acc.get(nm, QZERO) + sign * cx * cy * c


def verify_jacobi() -> List[dict]:
    """Graded Jacobi identity of the structure-constant table.

    For each of the 343 ordered triples of the seven operators, checks
    [A,[B,C]} = [[A,B},C} - s(A,B) [B,[A,C]} with s = `bracket_sign`
    and every bracket read from `STRUCTURE` through `bracket_value`: the
    table defines a Z2 x Z2 colour Lie superalgebra.  The residual must be literal zero in Q(i); a report's
    residuals map an operator name to its nonzero coefficient.  That the
    operators realise the table is `verify_structure_constants`'s check.
    """
    reports = []
    for a, b, c in product(_ORDER, repeat=3):
        acc: Dict[str, GaussianRational] = {}
        _add_bracket(acc, 1, [(QONE, a)], bracket_value(b, c))
        _add_bracket(acc, -1, bracket_value(a, b), [(QONE, c)])
        _add_bracket(acc, bracket_sign(a, b), [(QONE, b)],
                     bracket_value(a, c))
        residuals = {nm: k for nm, k in acc.items() if k}
        reports.append({
            "relation": f"jacobi({a},{b},{c})",
            "status": "ok" if not residuals else "fail",
            "residuals": residuals,
        })
    return reports
