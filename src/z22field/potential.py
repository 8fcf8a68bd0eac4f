"""Prepotential calculus.

Everything downstream of the action treats the interaction through an
abstract derivative tower: the canonical pair symbols produced by
splitting a function of phi00 + z*phi11 into even and odd powers of the
(1,1) field, plus the F-family of repeated (0,0)-derivatives.  A
FunctionSymbol supplies concrete replacements for that tower:

    poly:c0,c1,...   finite polynomial, exact closed forms
    cos / sin        trigonometric, closed forms in the S/C symbols
    abstract         keep the tower symbolic (generic mode)

The pair symbols are exact objects; truncated power series are only
produced on request (display, term-by-term recognition, constraint
reports at a finite order).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional

from .core import Generator, coord, field, fjet, pairjet, trig
from .derivations import jet_partial
from .expr import GradedExpr, ONE_EXPR, ZERO_EXPR, gexp, scalar

# derivative four-cycles for the trigonometric symbols; entry k is the
# k-th derivative as (sign, symbol-name) acting on the (0,0) field
_COS_CYCLE = ((1, "C00"), (-1, "S00"), (-1, "C00"), (1, "S00"))
_SIN_CYCLE = ((1, "S00"), (1, "C00"), (-1, "S00"), (-1, "C00"))

# `Fraction("1e999999999")` computes 10**999999999 before anything can
# refuse it, so `poly:` coefficients are screened for their exponent first
MAX_DECIMAL_EXPONENT = 1000
_EXPONENT = re.compile(r"[eE][-+]?([0-9_]+)")


class FunctionSymbol:
    """A degree (0,0) function of one even argument, given by its
    derivative tower."""

    def __init__(self, kind: str, coeffs: Optional[List[Fraction]] = None):
        if kind not in ("poly", "cos", "sin", "abstract"):
            raise ValueError(f"unknown potential kind {kind!r}")
        self.kind = kind
        self.coeffs = list(coeffs) if coeffs else []
        while self.coeffs and self.coeffs[-1] == 0:
            self.coeffs.pop()
        if kind == "poly":
            self.name = "poly:" + ",".join(str(c) for c in self.coeffs)
        else:
            self.name = kind

    def derivative(self, order: int, space: str = "x") -> GradedExpr:
        """order-th derivative evaluated on the (0,0) field, as an
        expression in that field and the trig/abstract symbols."""
        if order < 0:
            raise ValueError("derivative order must be >= 0")
        if self.kind == "poly":
            out = ZERO_EXPR
            w = gexp(field("phi00", 0, 0, space))
            for k in range(order, len(self.coeffs)):
                c = self.coeffs[k]
                if c == 0:
                    continue
                fall = Fraction(math.perm(k, order))
                term = scalar(c * fall)
                if k > order:
                    term = term * w ** (k - order)
                out = out + term
            return out
        if self.kind in ("cos", "sin"):
            cyc = _COS_CYCLE if self.kind == "cos" else _SIN_CYCLE
            sgn, sym = cyc[order % 4]
            return scalar(sgn) * gexp(trig(sym))
        return gexp(fjet(order))

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
    if spec in ("cos", "sin", "abstract"):
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


def pair_series(g: Generator, truncation_order: int,
                fsub: Optional[Callable[[int], GradedExpr]] = None
                ) -> GradedExpr:
    """Defining series of one pair symbol, keeping powers of the (1,1)
    field up to truncation_order.

    fsub maps a derivative order to its replacement; the default keeps
    the abstract F-family.  For a terminating fsub (a polynomial) pass
    truncation_order = -1 to expand until the tower vanishes.
    """
    m, slot = g.jet
    sp = g.space
    if fsub is None:
        fsub = lambda k: gexp(fjet(k))
    f11 = gexp(field("phi11", 0, 0, sp))
    y = gexp(coord("y")) if sp == "y" else None
    out = ZERO_EXPR
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
        term = scalar(Fraction(1) / _fact(p)) * head
        if p:
            term = term * f11 ** p
        if y is not None and n:
            term = term * y ** n
        out = out + term
        n += 1
    return out


def _pair_generators(expr: GradedExpr) -> List[Generator]:
    return [g for g in expr.generators()
            if g.kind == "fn" and g.base.endswith("pair")]


def _f_generators(expr: GradedExpr) -> List[Generator]:
    return [g for g in expr.generators() if g.kind == "fn" and g.base == "F"]


def specialize_potential(expr: GradedExpr, V: FunctionSymbol) -> GradedExpr:
    """Replace every pair symbol and F-symbol in expr by its closed form
    for the given potential.  Exact: polynomial towers terminate, the
    trigonometric tower closes on the S/C symbols, abstract is identity.
    """
    if V.kind == "abstract":
        return expr
    mapping: Dict[Generator, GradedExpr] = {}
    for g in _pair_generators(expr):
        m, slot = g.jet
        sp = g.space
        if V.kind == "poly":
            mapping[g] = pair_series(g, -1, fsub=lambda k: V.derivative(k, sp))
        else:
            head = V.derivative(m + slot, sp)
            tail = trig(("C11y" if slot == 0 else "S11y") if sp == "y"
                        else ("C11" if slot == 0 else "S11"))
            mapping[g] = head * gexp(tail)
    for g in _f_generators(expr):
        mapping[g] = V.derivative(g.jet[0], "x")
    return expr.substitute(mapping) if mapping else expr


def trig_series(expr: GradedExpr, truncation_order: int) -> GradedExpr:
    """Expand the (1,1)-field trig symbols into truncated power series."""
    mapping: Dict[Generator, GradedExpr] = {}
    for g in expr.generators():
        if g.kind != "fn" or g.base not in ("S11y", "C11y", "S11", "C11"):
            continue
        sp = g.space
        f11 = gexp(field("phi11", 0, 0, sp))
        y = gexp(coord("y")) if sp == "y" else None
        slot = 1 if g.base.startswith("S") else 0
        acc = ZERO_EXPR
        n = 0
        while 2 * n + slot <= truncation_order:
            p = 2 * n + slot
            term = scalar(Fraction((-1) ** n) / _fact(p))
            if p:
                term = term * f11 ** p
            if y is not None and n:
                term = term * y ** n
            acc = acc + term
            n += 1
        mapping[g] = acc
    return expr.substitute(mapping) if mapping else expr


# ----------------------------------------------------------------------
# potential pairs
# ----------------------------------------------------------------------

@dataclass
class PotentialPair:
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

    Polynomials and trig potentials come back in closed form; the trig
    closed form is accepted only after a term-by-term comparison with
    the defining series at the requested order.
    """
    if stage not in ("y", "x"):
        raise ValueError(f"unknown stage {stage!r}")
    if truncation_order < 0:
        raise ValueError("truncation_order must be >= 0")
    p00, p11 = pairjet(1, 0, stage), pairjet(1, 1, stage)
    if V.kind == "abstract":
        return PotentialPair(gexp(p00), gexp(p11), stage, truncation_order,
                             True)
    v00 = specialize_potential(gexp(p00), V)
    v11 = specialize_potential(gexp(p11), V)
    if V.kind in ("cos", "sin"):
        # recognize the closed form against the series it abbreviates
        for closed, sym in ((v00, p00), (v11, p11)):
            want = pair_series(sym, truncation_order,
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
    fsub = None if V.kind == "abstract" else (
        lambda k: V.derivative(k, stage))
    v00 = pair_series(pairjet(1, 0, stage), truncation_order, fsub=fsub)
    v11 = pair_series(pairjet(1, 1, stage), truncation_order, fsub=fsub)
    return PotentialPair(v00, v11, stage, truncation_order, False)


# ----------------------------------------------------------------------
# the defining constraint
# ----------------------------------------------------------------------

def _phi11_weight(mono, stage: str) -> int:
    f11 = field("phi11", 0, 0, stage)
    w = 0
    for g, e in mono:
        if g is f11:
            w += e
        elif g.kind == "fn" and g.base in ("S11y", "S11"):
            w += e
    return w


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
    d00 = jet_partial(field("phi00", 0, 0, st))
    d11 = jet_partial(field("phi11", 0, 0, st))
    r1 = d00(pair.v00) - d11(pair.v11)
    r2 = d11(pair.v00) - d00(pair.v11)
    if st == "y":
        # first-stage slots pack explicit measure powers: the odd-slot
        # identity acquires one factor of the measure coordinate
        r2 = d11(pair.v00) - gexp(coord("y")) * d00(pair.v11)
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
