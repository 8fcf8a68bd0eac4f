"""Prepotential calculus.

Everything downstream of the action treats the interaction through an
abstract derivative tower: the canonical pair symbols produced by
splitting a function of phi00 + z*phi11 into even and odd powers of the
(1,1) field, plus the F-family of repeated (0,0)-derivatives.  A
FunctionSymbol supplies concrete replacements for that tower:

    poly:c0,c1,...   finite polynomial, exact closed forms
    cos / sin        the tower of a start symbol in core.TRIG, the one
                     place the sine/cosine calculus lives
    abstract         keep the tower symbolic (generic mode)

The pair symbols are exact objects; truncated power series are only
produced on request (display, term-by-term recognition, constraint
reports at a finite order).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from .core import (TRIG, GaussianRational, Generator, coord, field, fjet,
                   pairjet, trig, trig_of)
from .derivations import apply_many, jet_partial
from .expr import (GradedExpr, ONE_EXPR, ZERO_EXPR, _add_terms, _products,
                   gexp, scalar)

# a trigonometric kind is the tower of its start symbol in core.TRIG
_TRIG_KINDS = {"cos": "C00", "sin": "S00"}
# the (1,1)-field trig symbols and the pair slot of each: its parity
_SLOT11 = {n: r.odd for n, r in TRIG.items() if r.field == "phi11"}


def _tower(name: str, order: int) -> Tuple[int, str]:
    """(sign, symbol) of the order-th field derivative of a trig symbol:
    its rule in core.TRIG stepped order times, measure powers dropped."""
    sign = 1
    for _ in range(order):
        row = TRIG[name]
        sign, name = sign * row.sign, row.target
    return sign, name


# `Fraction("1e999999999")` computes 10**999999999 before anything can
# refuse it, so `poly:` coefficients are screened for their exponent first
MAX_DECIMAL_EXPONENT = 1000
_EXPONENT = re.compile(r"[eE][-+]?([0-9_]+)")


class FunctionSymbol:
    """A degree (0,0) function of one even argument, given by its
    derivative tower."""

    def __init__(self, kind: str, coeffs: Optional[List[Fraction]] = None):
        if kind not in ("poly", "abstract") and kind not in _TRIG_KINDS:
            raise ValueError(f"unknown potential kind {kind!r}")
        self.kind = kind
        coeffs = list(coeffs) if coeffs else []
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        # a tuple, so the image memo below cannot go stale
        self.coeffs = tuple(coeffs)
        if kind == "poly":
            self.name = "poly:" + ",".join(str(c) for c in self.coeffs)
        else:
            self.name = kind
        # closed forms of the pair and F-symbols, keyed by generator, and
        # the derivative heads, keyed by (order, space); both memos live
        # and die with this instance, and no caller mutates what they hold
        self._images: Dict[Generator, GradedExpr] = {}
        self._heads: Dict[Tuple[int, str], GradedExpr] = {}

    def derivative(self, order: int, space: str = "x") -> GradedExpr:
        """order-th derivative evaluated on the (0,0) field, as an
        expression in that field and the trig/abstract symbols; built
        once per instance."""
        head = self._heads.get((order, space))
        if head is None:
            if order < 0:
                raise ValueError("derivative order must be >= 0")
            head = self._heads[order, space] = self._head(order, space)
        return head

    def _head(self, order: int, space: str) -> GradedExpr:
        if self.kind == "poly":
            # sum over k of c_k k!/(k-order)! phi00**(k-order), one
            # monomial per k
            f00 = field("phi00", 0, 0, space)
            terms = {}
            for k in range(order, len(self.coeffs)):
                c = self.coeffs[k]
                if c:
                    mono = ((f00, k - order),) if k > order else ()
                    terms[mono] = GaussianRational(c * math.perm(k, order))
            return GradedExpr(terms)
        if self.kind in _TRIG_KINDS:
            sign, sym = _tower(_TRIG_KINDS[self.kind], order)
            return scalar(sign) * gexp(trig(sym))
        return gexp(fjet(order))

    def image(self, g: Generator) -> GradedExpr:
        """Closed form of the pair symbol or F-symbol g for this
        potential, built once per instance."""
        img = self._images.get(g)
        if img is None:
            img = self._images[g] = self._closed_form(g)
        return img

    def _closed_form(self, g: Generator) -> GradedExpr:
        if g.base == "F":
            return self.derivative(g.jet[0], "x")
        m, slot = g.jet
        sp = g.space
        if self.kind == "poly":
            return pair_series(m, slot, sp, -1,
                               fsub=lambda k: self.derivative(k, sp))
        return self.derivative(m + slot, sp) * gexp(trig_of("phi11", sp, slot))

    def __repr__(self) -> str:
        return f"FunctionSymbol({self.name})"


def _coefficient(tok: str) -> Fraction:
    m = _EXPONENT.search(tok)
    if m:
        digits = m.group(1).replace("_", "").lstrip("0")
        if (len(digits) > len(str(MAX_DECIMAL_EXPONENT))
                or int(digits or 0) > MAX_DECIMAL_EXPONENT):
            raise ValueError(f"{tok!r} has a decimal exponent beyond "
                             f"{MAX_DECIMAL_EXPONENT}")
    return Fraction(tok)


def parse_potential(spec: str) -> FunctionSymbol:
    """CLI grammar: `poly:c0,c1,...` | `cos` | `sin` | `abstract`."""
    spec = spec.strip()
    if spec == "abstract" or spec in _TRIG_KINDS:
        return FunctionSymbol(spec)
    if spec.startswith("poly:"):
        body = spec[len("poly:"):]
        if not body:
            raise ValueError("poly: needs at least one coefficient")
        try:
            # inside the try: the name's str() refuses an integer past
            # Python's digit limit
            return FunctionSymbol(
                "poly", [_coefficient(tok.strip()) for tok in body.split(",")])
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad polynomial coefficient in {spec!r}: {exc}")
    raise ValueError(f"unknown potential spec {spec!r}")


# ----------------------------------------------------------------------
# pair symbols: series expansion and concrete replacement
# ----------------------------------------------------------------------

def _fact(n: int) -> Fraction:
    return Fraction(math.factorial(n))


def pair_series(m: int, slot: int, sp: str, truncation_order: int,
                fsub: Optional[Callable[[int], GradedExpr]] = None
                ) -> GradedExpr:
    """Defining series of the pair symbol pairjet(m, slot, sp), keeping
    powers of the (1,1) field up to truncation_order.

    fsub maps a derivative order to its replacement; the default keeps
    the abstract F-family.  For a terminating fsub (a polynomial) pass
    truncation_order = -1 to expand until the tower vanishes.

    Built in one pass: each head monomial merges with y**n phi11**p
    through `_products` into one terms dict, by `_add_terms`, so the
    terms come out in the order of the sum of products.
    """
    if fsub is None:
        fsub = lambda k: gexp(fjet(k))
    f11 = field("phi11", 0, 0, sp)
    y = coord("y") if sp == "y" else None
    terms = {}
    n = 0
    while True:
        p = 2 * n + slot
        if truncation_order >= 0 and p > truncation_order:
            break
        head = fsub(p + m)
        if head.is_zero():
            if truncation_order < 0:
                break
            n += 1
            continue
        # the canonical monomial y**n phi11**p: coordinates sort first
        mono = ((y, n),) if y is not None and n else ()
        if p:
            mono += ((f11, p),)
        inv = GaussianRational(1 / _fact(p))
        _add_terms(terms, _products(head.terms.items(), ((mono, inv),)))
        n += 1
    return GradedExpr(terms)


def specialize_potential(expr: GradedExpr, V: FunctionSymbol) -> GradedExpr:
    """Replace every pair symbol and F-symbol in expr by its closed form
    for the given potential.  Exact: polynomial towers terminate, the
    trigonometric tower closes on the S/C symbols, abstract is identity.
    """
    if V.kind == "abstract":
        return expr
    mapping = {g: V.image(g) for g in expr.generators()
               if g.kind == "fn"
               and (g.base == "F" or g.base.endswith("pair"))}
    return expr.substitute(mapping) if mapping else expr


def trig_series(expr: GradedExpr, truncation_order: int) -> GradedExpr:
    """Expand the (1,1)-field trig symbols into truncated power series:
    the pair series of the symbol's parity slot, each head the sign of
    its tower (the even symbols it asks for are 1 at zero field)."""
    mapping = {g: pair_series(0, _SLOT11[g.base], g.space, truncation_order,
                              fsub=lambda k, b=g.base: scalar(_tower(b, k)[0]))
               for g in expr.generators() if g.base in _SLOT11}
    return expr.substitute(mapping) if mapping else expr


# ----------------------------------------------------------------------
# potential pairs
# ----------------------------------------------------------------------

class PotentialPair(NamedTuple):
    """The two slot functions of a potential at a given stage.

    closed marks exact pairs (terminating polynomial, recognized trig
    closed form, or the abstract symbols themselves); for closed pairs
    truncation_order only controls series displays.
    """
    v00: GradedExpr
    v11: GradedExpr
    stage: str
    truncation_order: int
    closed: bool


def potential_components(V: FunctionSymbol, stage: str = "x",
                         truncation_order: int = 4) -> PotentialPair:
    """Slot functions of V at the requested stage.

    Every kind comes back in closed form (`abstract` as its own pair
    symbols); the trig closed form is accepted only after a term-by-term
    comparison with the defining series at the requested order.
    """
    if stage not in ("y", "x"):
        raise ValueError(f"unknown stage {stage!r}")
    if truncation_order < 0:
        raise ValueError("truncation_order must be >= 0")
    p00, p11 = pairjet(1, 0, stage), pairjet(1, 1, stage)
    v00 = specialize_potential(gexp(p00), V)
    v11 = specialize_potential(gexp(p11), V)
    if V.kind in _TRIG_KINDS:
        # recognize the closed form against the series it abbreviates
        for closed, sym in ((v00, p00), (v11, p11)):
            want = pair_series(*sym.jet, stage, truncation_order,
                               fsub=lambda k: V.derivative(k, stage))
            got = trig_series(closed, truncation_order)
            if got != want:
                raise AssertionError(
                    f"closed form for {sym.name} disagrees with its series "
                    f"at order {truncation_order}")
    return PotentialPair(v00, v11, stage, truncation_order, True)


def series_pair(V: FunctionSymbol, stage: str = "x",
                truncation_order: int = 4) -> PotentialPair:
    """Truncated-series form of the slot functions (never closed).

    Useful for finite-order constraint reports and for displays; the
    identities linking the two slots hold exactly below the truncation
    order and are dropped at its edge.
    """
    if stage not in ("y", "x"):
        raise ValueError(f"unknown stage {stage!r}")
    if truncation_order < 0:
        raise ValueError("truncation_order must be >= 0")
    fsub = lambda k: V.derivative(k, stage)
    v00 = pair_series(1, 0, stage, truncation_order, fsub=fsub)
    v11 = pair_series(1, 1, stage, truncation_order, fsub=fsub)
    return PotentialPair(v00, v11, stage, truncation_order, False)


# ----------------------------------------------------------------------
# the defining constraint
# ----------------------------------------------------------------------

def _phi11_weight(mono, stage: str) -> int:
    """Lowest power of the (1,1) field in a monomial; a sine counts one."""
    f11 = field("phi11", 0, 0, stage)
    return sum(e if g is f11 else e * _SLOT11.get(g.base, 0) for g, e in mono)


def _drop_high_orders(e: GradedExpr, stage: str, cut: int) -> GradedExpr:
    kept = {m: c for m, c in e.terms.items() if _phi11_weight(m, stage) < cut}
    return GradedExpr(kept)


def check_potential_constraint(pair: PotentialPair) -> dict:
    """Verify d00 v00 = d11 v11 and d11 v00 = d00 v11.

    Closed pairs must satisfy both identities exactly.  Series pairs are
    compared below the truncation order, where the identities are exact;
    the dropped edge orders are reported.
    """
    st = pair.stage
    d = [jet_partial(field(b, 0, 0, st)) for b in ("phi00", "phi11")]
    d00_v00, d11_v00 = apply_many(d, pair.v00)
    d00_v11, d11_v11 = apply_many(d, pair.v11)
    r1 = d00_v00 - d11_v11
    if st == "y":
        # first-stage slots pack explicit measure powers: the odd-slot
        # identity acquires one factor of the measure coordinate
        d00_v11 = gexp(coord("y")) * d00_v11
    r2 = d11_v00 - d00_v11
    edge: List[int] = []
    if not pair.closed:
        cut = pair.truncation_order
        for r in (r1, r2):
            for m in r.terms:
                w = _phi11_weight(m, st)
                if w >= cut and w not in edge:
                    edge.append(w)
        r1 = _drop_high_orders(r1, st, cut)
        r2 = _drop_high_orders(r2, st, cut)
    ok = r1.is_zero() and r2.is_zero()
    return {"ok": ok, "residual_00": r1, "residual_11": r2,
            "edge_orders": sorted(edge), "closed": pair.closed,
            "stage": st}


# ----------------------------------------------------------------------
# the superspace potential
# ----------------------------------------------------------------------

def superspace_potential() -> GradedExpr:
    """V of the superfield, exactly, in first-stage pair symbols.

    The nilpotent part of the superfield cubes to zero, so the Taylor
    expansion around the theta-free body stops after the quadratic
    term; the coefficient of order k is the k-th derivative pair.
    """
    from .superfield import superfield
    z = gexp(coord("z"))
    body = (gexp(field("phi00", 0, 0, "y"))
            + z * gexp(field("phi11", 0, 0, "y")))
    nil = superfield("y") - body
    out = ZERO_EXPR
    nk = ONE_EXPR
    for k in range(3):
        if k:
            nk = nk * nil
        layer = gexp(pairjet(k, 0, "y")) + z * gexp(pairjet(k, 1, "y"))
        out = out + scalar(Fraction(1) / _fact(k)) * nk * layer
    return out
