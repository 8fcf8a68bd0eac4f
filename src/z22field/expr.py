"""Sparse canonical polynomials over the graded generator ring.

A monomial is a tuple of (generator, exponent) pairs sorted by the fixed
generator order; an expression is a dict mapping monomials to nonzero
GaussianRational coefficients.  Multiplication reorders factors with the
(-1)^(a1*a2+b1*b2) swap sign, folds the square of the degree-(1,1)
coordinate z into y, kills squares of nilpotent generators, and drops any
monomial that is second order or higher in one group of infinitesimal
parameters.

Exponents are positive integers except on the measure coordinates y and x,
which may carry arbitrary nonzero rationals (negative and fractional
powers both occur in intermediate steps of the coordinate change between
the two stages).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Tuple, Union

from .core import (DEG00, Degree, GaussianRational, Generator, QONE,
                   Y, ZC, coord, parity)

Exponent = Union[int, Fraction]
Monomial = Tuple[Tuple[Generator, Exponent], ...]

_RATIONAL_EXP_OK = frozenset({"y", "x"})


def _exp_degree(g: Generator, e: Exponent) -> Degree:
    """Degree of g**e; fractional exponents only occur on (0,0) generators."""
    if isinstance(e, int):
        return g.degree if (e & 1) else DEG00
    return DEG00


def _normalize_exp(e: Exponent) -> Exponent:
    if isinstance(e, Fraction) and e.denominator == 1:
        return int(e)
    return e


# ----------------------------------------------------------------------
# monomial kernel
# ----------------------------------------------------------------------

# swap-sign exponent of two packed degree masks m1, m2: the parity of
# a1*a2 + b1*b2, i.e. of the number of set bits in m1 & m2
_MASK_PARITY = (0, 1, 1, 0)


def _mono_mul(m1: Monomial, m2: Monomial):
    """Merge two canonical monomials.

    Returns (sign_exponent, monomial) or None when the product vanishes;
    sign_exponent is 0 or 1.
    """
    n1, n2 = len(m1), len(m2)
    # suffix degree masks of m1 for crossing signs; fractional exponents
    # only sit on (0,0) generators, so like even powers they carry no degree
    suffix = [0] * (n1 + 1)
    acc = 0
    for i in range(n1 - 1, -1, -1):
        g, e = m1[i]
        if type(e) is int and e & 1:
            acc ^= g.mask
        suffix[i] = acc

    out = []
    sign = 0
    i = j = 0
    z_seen = 0
    while i < n1 or j < n2:
        if j >= n2 or (i < n1 and m1[i][0].sort_key <= m2[j][0].sort_key):
            if j < n2 and m1[i][0] is m2[j][0]:
                g, e1 = m1[i]
                e2 = m2[j][1]
                # the m2 factor crosses what is left of m1 beyond position i
                if type(e2) is int and e2 & 1:
                    sign ^= _MASK_PARITY[g.mask & suffix[i + 1]]
                e = _normalize_exp(e1 + e2)
                i += 1
                j += 1
                if e == 0:
                    continue
                if g.nilpotent and (not isinstance(e, int) or e >= 2):
                    return None
                if g is ZC and isinstance(e, int) and e >= 2:
                    z_seen = e
                    continue
                out.append((g, e))
            else:
                out.append(m1[i])
                i += 1
        else:
            g, e = m2[j]
            if type(e) is int and e & 1:
                sign ^= _MASK_PARITY[g.mask & suffix[i]]
            out.append((g, e))
            j += 1

    if z_seen:
        # z**2 -> y; the result is even so no extra signs appear
        carry, rem = divmod(z_seen, 2)
        if rem:
            out.append((ZC, 1))
        merged = _mono_mul(tuple(sorted(out, key=lambda p: p[0].sort_key)),
                           ((Y, carry),))
        if merged is None:
            return None
        s2, mono = merged
        return (sign ^ s2, mono)

    mono = tuple(out)
    if _eps_overflow(mono):
        return None
    return (sign, mono)


def _eps_overflow(mono: Monomial) -> bool:
    """True when any infinitesimal-parameter group appears at order >= 2."""
    counts = {}
    for g, e in mono:
        grp = g.eps_group
        if grp is not None:
            c = counts.get(grp, 0) + e
            if c >= 2:
                return True
            counts[grp] = c
    return False


def _mono_degree(m: Monomial) -> Degree:
    d = DEG00
    for g, e in m:
        d = d + _exp_degree(g, e)
    return d


def _mono_dim(m: Monomial) -> Fraction:
    return sum((Fraction(e) * g.dim for g, e in m), Fraction(0))


def _mono_star_sign(m: Monomial) -> int:
    """Sign exponent for reversing the factor order of a monomial."""
    # factors with even exponent contribute e_i*e_j = even to every pair,
    # and fractional exponents only sit on (0,0) generators
    odd = [g.degree for g, e in m if isinstance(e, int) and (e & 1)]
    s = 0
    for a in range(len(odd)):
        for b in range(a + 1, len(odd)):
            s += parity(odd[a], odd[b])
    return s


def _mono_sort_token(m: Monomial):
    return tuple((g.sort_key, Fraction(e)) for g, e in m)


# ----------------------------------------------------------------------
# expressions
# ----------------------------------------------------------------------

class GradedExpr:
    """Polynomial with Gaussian-rational coefficients in canonical form."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[dict] = None):
        self.terms = terms if terms is not None else {}

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero() -> "GradedExpr":
        return GradedExpr({})

    @staticmethod
    def const(c) -> "GradedExpr":
        cc = _as_scalar(c)
        if not cc:
            return GradedExpr({})
        return GradedExpr({(): cc})

    @staticmethod
    def gen(g: Generator, e: Exponent = 1) -> "GradedExpr":
        e = _normalize_exp(Fraction(e) if not isinstance(e, int) else e)
        if e == 0:
            return GradedExpr({(): QONE})
        if not isinstance(e, int) or e < 0:
            if g.base not in _RATIONAL_EXP_OK:
                raise ValueError(f"{g.name} does not admit exponent {e}")
        elif e >= 2 and g.nilpotent:
            return GradedExpr({})
        if g is ZC and isinstance(e, int) and e >= 2:
            mono = ((Y, e // 2), (ZC, 1)) if e & 1 else ((Y, e // 2),)
            return GradedExpr({mono: QONE})
        return GradedExpr({((g, e),): QONE})

    @staticmethod
    def from_terms(pairs: Iterable) -> "GradedExpr":
        terms = {}
        for mono, c in pairs:
            cc = _as_scalar(c)
            if not cc:
                continue
            acc = terms.get(mono)
            tot = cc if acc is None else acc + cc
            if tot:
                terms[mono] = tot
            elif acc is not None:
                del terms[mono]
        return GradedExpr(terms)

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        o = _as_expr(other)
        if o is None:
            return NotImplemented
        if not self.terms:
            return GradedExpr(dict(o.terms))
        if not o.terms:
            return GradedExpr(dict(self.terms))
        terms = dict(self.terms)
        for mono, c in o.terms.items():
            acc = terms.get(mono)
            tot = c if acc is None else acc + c
            if tot:
                terms[mono] = tot
            elif acc is not None:
                del terms[mono]
        return GradedExpr(terms)

    __radd__ = __add__

    def __sub__(self, other):
        o = _as_expr(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = _as_expr(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __neg__(self):
        return GradedExpr({m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        o = _as_expr(other)
        if o is None:
            return NotImplemented
        if not self.terms or not o.terms:
            return GradedExpr({})
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in o.terms.items():
                hit = _mono_mul(m1, m2)
                if hit is None:
                    continue
                sign, mono = hit
                c = c1 * c2
                if sign & 1:
                    c = -c
                acc = terms.get(mono)
                tot = c if acc is None else acc + c
                if tot:
                    terms[mono] = tot
                elif acc is not None:
                    del terms[mono]
        return GradedExpr(terms)

    def __rmul__(self, other):
        # scalars commute with everything; graded factors use __mul__
        o = _as_expr(other)
        if o is None:
            return NotImplemented
        return o * self

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("expression powers must be nonnegative integers")
        out = GradedExpr({(): QONE})
        for _ in range(n):
            out = out * self
        return out

    # -- structure -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        o = _as_expr(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        raise TypeError("GradedExpr is not hashable")

    def degree(self) -> Optional[Degree]:
        """Common Z2 x Z2 degree of all terms, None when mixed; zero -> (0,0)."""
        out = None
        for mono in self.terms:
            d = _mono_degree(mono)
            if out is None:
                out = d
            elif out != d:
                return None
        return out if out is not None else DEG00

    def scaling_dim(self) -> Optional[Fraction]:
        """Common scaling dimension, None when mixed or zero."""
        out = None
        for mono in self.terms:
            d = _mono_dim(mono)
            if out is None:
                out = d
            elif out != d:
                return None
        return out

    def star(self) -> "GradedExpr":
        """Graded star: conjugate coefficients, reverse factor order."""
        terms = {}
        for mono, c in self.terms.items():
            cc = c.conj()
            if _mono_star_sign(mono) & 1:
                cc = -cc
            terms[mono] = cc
        return GradedExpr(terms)

    # -- substitution ----------------------------------------------------

    def substitute(self, mapping: dict) -> "GradedExpr":
        """Ring substitution generator -> expression, applied in one pass."""
        out = GradedExpr({})
        for mono, c in self.terms.items():
            acc = GradedExpr.const(c)
            for g, e in mono:
                img = mapping.get(g)
                if img is None:
                    acc = acc * GradedExpr.gen(g, e)
                else:
                    acc = acc * _expr_pow(img, e)
                if not acc.terms:
                    break
            out = out + acc
        return out

    def restrict_theta(self) -> "GradedExpr":
        """Drop every term containing th10 or th01."""
        th10, th01 = coord("th10"), coord("th01")
        terms = {m: c for m, c in self.terms.items()
                 if all(g is not th10 and g is not th01 for g, _ in m)}
        return GradedExpr(terms)

    def strip_left(self, g: Generator) -> "GradedExpr":
        """Write self = g * R (exactly) and return R.

        Every term must contain g to the first power; the sign of moving g
        out through the factors standing before it is accounted for.
        """
        terms = {}
        for mono, c in self.terms.items():
            prefix_deg = DEG00
            hit = False
            rest = []
            for gg, e in mono:
                if gg is g:
                    if e != 1:
                        raise ValueError(f"{g.name} appears with exponent {e}")
                    hit = True
                    continue
                if not hit:
                    prefix_deg = prefix_deg + _exp_degree(gg, e)
                rest.append((gg, e))
            if not hit:
                raise ValueError(f"term lacks factor {g.name}: {mono}")
            cc = c
            if parity(g.degree, prefix_deg) & 1:
                cc = -cc
            terms[tuple(rest)] = cc
        return GradedExpr(terms)

    def split_gen(self, g: Generator):
        """Return (P, Q) with self = P + g*Q and P free of g."""
        without = {}
        with_g = {}
        for mono, c in self.terms.items():
            if any(gg is g for gg, _ in mono):
                with_g[mono] = c
            else:
                without[mono] = c
        q = GradedExpr(with_g).strip_left(g) if with_g else GradedExpr({})
        return GradedExpr(without), q

    def generators(self):
        seen = set()
        for mono in self.terms:
            for g, _ in mono:
                if g not in seen:
                    seen.add(g)
                    yield g

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _mono_sort_token(kv[0]))

    # -- display ---------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for mono, c in self.sorted_terms():
            factors = []
            for g, e in mono:
                if e == 1:
                    factors.append(g.name)
                elif isinstance(e, int):
                    factors.append(f"{g.name}^{e}")
                else:
                    factors.append(f"{g.name}^({e})")
            body = "*".join(factors)
            cs = str(c)
            if body:
                if cs == "1":
                    bits.append(body)
                elif cs == "-1":
                    bits.append(f"-{body}")
                else:
                    bits.append(f"{cs}*{body}")
            else:
                bits.append(cs)
        out = bits[0]
        for b in bits[1:]:
            out += " - " + b[1:] if b.startswith("-") else " + " + b
        return out

    __repr__ = __str__


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

def _as_scalar(c) -> Optional[GaussianRational]:
    if isinstance(c, GaussianRational):
        return c
    if isinstance(c, (int, Fraction)):
        return GaussianRational(c)
    return None


def _as_expr(x) -> Optional[GradedExpr]:
    if isinstance(x, GradedExpr):
        return x
    c = _as_scalar(x)
    if c is None:
        return None
    return GradedExpr.const(c) if c else GradedExpr({})


def _expr_pow(expr: GradedExpr, e: Exponent) -> GradedExpr:
    if isinstance(e, int) and e >= 0:
        return expr ** e
    # rational or negative power: only legal for a single unit-coefficient
    # monomial in rational-exponent generators (used by the y -> x**2 map)
    if len(expr.terms) != 1:
        raise ValueError(f"cannot raise a sum to power {e}")
    (mono, c), = expr.terms.items()
    if c != QONE:
        raise ValueError(f"cannot raise coefficient {c} to power {e}")
    out = GradedExpr({(): QONE})
    for g, ee in mono:
        out = out * GradedExpr.gen(g, _normalize_exp(Fraction(ee) * Fraction(e)))
    return out


ZERO_EXPR = GradedExpr({})
ONE_EXPR = GradedExpr({(): QONE})


def gexp(g: Generator, e: Exponent = 1) -> GradedExpr:
    """Shorthand for GradedExpr.gen."""
    return GradedExpr.gen(g, e)


def scalar(c) -> GradedExpr:
    return GradedExpr.const(c)
