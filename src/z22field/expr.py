"""Sparse canonical polynomials over the graded generator ring.

A monomial is a tuple of (generator, exponent) pairs sorted by the fixed
generator order; an expression is a dict mapping monomials to nonzero
GaussianRational coefficients.  Multiplication reorders factors with the
(-1)^(a1*a2+b1*b2) swap sign, folds the square of the degree-(1,1)
coordinate z into y, kills squares of nilpotent generators, and drops any
monomial that is second order or higher in one group of infinitesimal
parameters; `_eps_overflow` is that one truncation check.  Every builder
merges terms by the rule of `_add_terms`, which keeps each monomial in
its first place and no zero coefficient in a terms dict; every product
of two sums goes through `_add_products`, which writes each product
into the terms by that rule.  A scalar factor skips it and scales each
coefficient in place: a canonical monomial times 1 is itself.  Every
merge of two monomials is `_mono_mul`, whose results live in the product
table: a least-recently-used memo keyed by the pair of canonical
monomials, never by an expression or a potential, and bounded at
PRODUCTS pairs.

Exponents are positive integers except on the measure coordinates y and x,
which may carry arbitrary nonzero rationals (negative and fractional
powers both occur in intermediate steps of the coordinate change between
the two stages).

`str` prints an expression in one text form and `parse` reads it back:
`parse(str(e), stage) == e` at the stage of e's field jets.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Tuple, Union

from .core import (_COORD_DATA, DEG00, DEG01, DEG10, DEG11, FIELD_BASES, QI,
                   QONE, TRIG, Y, ZC, Degree, GaussianRational, Generator,
                   coord, field, fjet, pairjet, param, parity, ratio, trig)

Exponent = Union[int, Fraction]
Monomial = Tuple[Tuple[Generator, Exponent], ...]

_RATIONAL_EXP_OK = frozenset({"y", "x"})

# how many monomial pairs keep their product (see `_mono_mul`)
PRODUCTS = 1024


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
# the degree packed in a mask a | b << 1
_MASK_DEGREE = (DEG00, DEG10, DEG01, DEG11)


@lru_cache(maxsize=PRODUCTS)
def _mono_mul(m1: Monomial, m2: Monomial):
    """Merge two canonical monomials in one pass.

    Returns (sign_exponent, monomial) or None when the product vanishes;
    sign_exponent is 0 or 1.  Both are immutable, so the product table
    keeps them, keyed by the pair of monomials; the least recently used
    of more than PRODUCTS pairs is dropped.  The pair is a sound key
    because equal monomials carry the same exponent types: an int, or a
    Fraction that is not integral.

    The swap sign is bilinear mod 2, so it is kept with one running
    mask: `placed` packs the degree of the odd m2 factors emitted so far,
    and each odd m1 factor emitted after them crosses all of them at
    once.  Fractional exponents only sit on (0,0) generators, so like
    even powers they carry no degree.  The merged monomial passes
    `_eps_overflow` once, so a raw factor such as (eps00, 2) still
    vanishes.
    """
    if not m1 or not m2:
        mono = m1 or m2
        return None if _eps_overflow(mono) else (0, mono)
    n1, n2 = len(m1), len(m2)
    out = []
    sign = placed = 0
    i = j = 0
    z_seen = 0
    while i < n1 and j < n2:
        f1 = m1[i]
        f2 = m2[j]
        g = f1[0]
        if g is f2[0]:
            e1 = f1[1]
            e2 = f2[1]
            i += 1
            j += 1
            cross = g.mask & placed
            if cross and type(e1) is int and e1 & 1:
                sign ^= _MASK_PARITY[cross]
            if type(e2) is int and e2 & 1:
                placed ^= g.mask
            e = e1 + e2
            if type(e) is not int and e.denominator == 1:
                e = int(e)
            if not e:
                continue
            if g.nilpotent and (type(e) is not int or e >= 2):
                return None
            if g is ZC and type(e) is int and e >= 2:
                z_seen = e
                continue
            out.append((g, e))
        elif g.sort_key <= f2[0].sort_key:
            cross = g.mask & placed
            if cross:
                e1 = f1[1]
                if type(e1) is int and e1 & 1:
                    sign ^= _MASK_PARITY[cross]
            out.append(f1)
            i += 1
        else:
            g, e2 = f2
            if type(e2) is int and e2 & 1:
                placed ^= g.mask
            out.append(f2)
            j += 1
    if j < n2:
        # nothing of m1 is left for these m2 factors to cross
        out.extend(m2[j:])
    elif i < n1:
        tail = m1[i:]
        if placed:
            sign ^= _MASK_PARITY[_mono_mask(tail) & placed]
        out.extend(tail)

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

    return None if _eps_overflow(out) else (sign, tuple(out))


def _eps_overflow(mono: Monomial) -> bool:
    """True when any infinitesimal-parameter group appears at order >= 2:
    the one truncation check of the ring.  Eps parameters only carry
    positive integer exponents."""
    seen = ()
    for g, e in mono:
        grp = g.eps_group
        if grp is not None:
            if e >= 2 or grp in seen:
                return True
            seen += (grp,)
    return False


def _add_terms(terms: dict, items) -> dict:
    """terms with each (monomial, coefficient) of items added in place:
    the one merge rule of the ring.  A monomial keeps the place where it
    first appears; one whose sum reaches zero is dropped, and placed last
    if it comes back, so a terms dict never holds a zero coefficient.
    `_add_products` and `derivations._walk` restate the rule inline, and
    each tests a sum for zero on its numerators, without a call."""
    for mono, c in items:
        acc = terms.get(mono)
        if acc is not None:
            c = acc + c
        if c._a or c._b:
            terms[mono] = c
        elif acc is not None:
            del terms[mono]
    return terms


def _add_products(terms: dict, items1, items2) -> dict:
    """terms with the signed product of each term of items1 by each term
    of items2 added in place, row by row, by the rule of `_add_terms`:
    the one product merge of the ring.  items2 is iterated once per term
    of items1; a product that vanishes adds nothing."""
    for m1, c1 in items1:
        for m2, c2 in items2:
            hit = _mono_mul(m1, m2)
            if hit is None:
                continue
            c = c1 * c2
            sign, mono = hit
            if sign:
                c = -c
            acc = terms.get(mono)
            if acc is not None:
                c = acc + c
            if c._a or c._b:
                terms[mono] = c
            elif acc is not None:
                del terms[mono]
    return terms


def _mono_mask(m: Monomial) -> int:
    """Degree of a monomial packed as a 2-bit mask, like Generator.mask."""
    mask = 0
    for g, e in m:
        # a fractional exponent only sits on a (0,0) generator, mask 0
        gm = g.mask
        if gm and e & 1:
            mask ^= gm
    return mask


def _mono_dim_ratio(m: Monomial) -> Tuple[int, int]:
    """Scaling dimension of a monomial as integers (p, q), exactly p / q.

    Generators carry twice their dimension as an int, so the sum is kept
    over the common denominator 2k, where k multiplies the denominators
    of the rational exponents met so far (k = 1 for integer exponents).
    """
    num, k = 0, 1
    for g, e in m:
        d2 = g.dim2
        if d2:
            if type(e) is int:
                num += e * d2 * k
            else:
                num = num * e.denominator + e.numerator * d2 * k
                k *= e.denominator
    return num, 2 * k


def _mono_star_sign(m: Monomial) -> int:
    """Sign exponent (0 or 1) for reversing the factor order of a monomial.

    Every pair of odd factors swaps once; as in `_mono_mul`, a running
    mask of the odd factors met so far stands in for the pairs.  Factors
    with even exponent contribute e_i*e_j = even to every pair, and
    fractional exponents only sit on (0,0) generators, whose mask is 0.
    """
    s = seen = 0
    for g, e in m:
        gm = g.mask
        if gm and e & 1:
            s ^= _MASK_PARITY[gm & seen]
            seen ^= gm
    return s


def _mono_sort_token(m: Monomial):
    return tuple((g.sort_key, e) for g, e in m)


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
        cc = GaussianRational.coerce(c)
        if cc is None:
            raise TypeError(f"{c!r} is not an exact scalar")
        return GradedExpr({(): cc}) if cc else GradedExpr({})

    @staticmethod
    def gen(g: Generator, e: Exponent = 1) -> "GradedExpr":
        if e == 1:
            return GradedExpr({((g, 1),): QONE})
        e = _normalize_exp(Fraction(e) if not isinstance(e, int) else e)
        if e == 0:
            return GradedExpr({(): QONE})
        if not isinstance(e, int) or e < 0:
            if g.base not in _RATIONAL_EXP_OK:
                raise ValueError(f"{g.name} does not admit exponent {e}")
        elif g.nilpotent and e >= 2 or _eps_overflow(((g, e),)):
            return GradedExpr({})
        if g is ZC and isinstance(e, int) and e >= 2:
            mono = ((Y, e // 2), (ZC, 1)) if e & 1 else ((Y, e // 2),)
            return GradedExpr({mono: QONE})
        return GradedExpr({((g, e),): QONE})

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        o = _as_expr(other)
        if o is None:
            return NotImplemented
        if not self.terms:
            return GradedExpr(dict(o.terms))
        return GradedExpr(_add_terms(dict(self.terms), o.terms.items()))

    __radd__ = __add__

    def __sub__(self, other):
        # self + (-other) in one pass, without the negated temporary
        o = _as_expr(other)
        if o is None:
            return NotImplemented
        return GradedExpr(_add_terms(dict(self.terms),
                                     ((m, -c) for m, c in o.terms.items())))

    def __rsub__(self, other):
        o = _as_expr(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return GradedExpr({m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        o = _as_expr(other)
        if o is None:
            return NotImplemented
        a, b = self.terms, o.terms
        # a scalar side skips the product table: _mono_mul((), m) is m
        # with no sign on a canonical monomial, and no product of two
        # nonzero scalars is zero
        if len(b) == 1 and () in b:
            k = b[()]
            return GradedExpr({m: c * k for m, c in a.items()})
        if len(a) == 1 and () in a:
            k = a[()]
            return GradedExpr({m: k * c for m, c in b.items()})
        return GradedExpr(_add_products({}, a.items(), b.items()))

    def __rmul__(self, other):
        # scalars commute with everything; graded factors use __mul__
        o = _as_expr(other)
        if o is None:
            return NotImplemented
        return o * self

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("expression powers must be nonnegative integers")
        if n and len(self.terms) == 1:
            (mono, c), = self.terms.items()
            if len(mono) == 1:
                # (c g**e)**n = c**n g**(e*n): a generator commutes with
                # itself, and gen folds z**2 and kills nilpotent squares
                # and eps overflows
                (g, e), = mono
                return GradedExpr({m: c ** n
                                   for m in GradedExpr.gen(g, e * n).terms})
        if not n:
            return GradedExpr({(): QONE})
        if n == 2 and all(_mono_mask(m) in (0, 3) for m in self.terms):
            return self._commuting_square()
        # 1 * self is self, term for term and in order
        out = GradedExpr(dict(self.terms))
        for _ in range(n - 1):
            out = out * self
        return out

    def _commuting_square(self) -> "GradedExpr":
        """self * self for a sum whose terms all have degree (0,0) or
        (1,1): any two of them commute (_MASK_PARITY[m1 & m2] is 0), so
        only the products i <= j are merged, the off-diagonal ones
        doubled.  Each monomial first appears where it does in self *
        self; a monomial whose running sum cancels before its last
        contribution may be re-placed elsewhere."""
        items = list(self.terms.items())
        terms = {}
        for i, (m1, c1) in enumerate(items):
            _add_products(terms, items[i:i + 1], items[i:i + 1])
            _add_products(terms, ((m1, c1 + c1),), items[i + 1:])
        return GradedExpr(terms)

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
            m = _mono_mask(mono)
            if out is None:
                out = m
            elif out != m:
                return None
        return DEG00 if out is None else _MASK_DEGREE[out]

    def scaling_dim(self) -> Optional[Fraction]:
        """Common scaling dimension, None when mixed or zero."""
        out = None
        for mono in self.terms:
            p, q = _mono_dim_ratio(mono)
            if out is None:
                out = (p, q)
            elif p * out[1] != out[0] * q:
                return None
        return None if out is None else Fraction(*out)

    def star(self) -> "GradedExpr":
        """Graded star: conjugate coefficients, reverse factor order."""
        terms = {}
        for mono, c in self.terms.items():
            cc = c.conj()
            if _mono_star_sign(mono):
                cc = -cc
            terms[mono] = cc
        return GradedExpr(terms)

    def is_real(self) -> bool:
        """Whether self.star() == self, read term by term without building
        the star: by the sign rule of `star`, a coefficient must be
        imaginary where its monomial reverses with a sign and real
        elsewhere, i.e. the other numerator of its triple is zero."""
        for mono, c in self.terms.items():
            if c._a if _mono_star_sign(mono) else c._b:
                return False
        return True

    # -- substitution ----------------------------------------------------

    def substitute(self, mapping: dict) -> "GradedExpr":
        """Ring substitution generator -> expression, applied in one pass."""
        terms = {}
        for mono, c in self.terms.items():
            # the factors before the first mapped one stay as they are: a
            # prefix of a canonical monomial is canonical
            k = 0
            while k < len(mono) and mono[k][0] not in mapping:
                k += 1
            acc = {mono[:k]: c}
            for g, e in mono[k:]:
                img = mapping.get(g)
                if img is None:
                    f = GradedExpr.gen(g, e)
                else:
                    # a first power is the image itself, uncopied
                    f = img if e == 1 else _expr_pow(img, e)
                acc = _add_products({}, acc.items(), f.terms.items())
                if not acc:
                    break
            _add_terms(terms, acc.items())
        return GradedExpr(terms)

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
        out = ""
        for mono, c in self.sorted_terms():
            body = "*".join([g.name if e == 1 else f"{g.name}^{e}"
                             if type(e) is int else f"{g.name}^({e})"
                             for g, e in mono])
            term = str(c)
            if body:
                # a unit coefficient prints as its sign alone
                term = (body if term == "1" else "-" + body if term == "-1"
                        else f"{term}*{body}")
            if not out:
                out = term
            elif term[0] == "-":
                out += " - " + term[1:]
            else:
                out += " + " + term
        return out or "0"

    __repr__ = __str__


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

def _as_expr(x) -> Optional[GradedExpr]:
    if isinstance(x, GradedExpr):
        return x
    c = GaussianRational.coerce(x)
    if c is None:
        return None
    return GradedExpr({(): c}) if c else GradedExpr({})


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


# ----------------------------------------------------------------------
# reading the printed form back
# ----------------------------------------------------------------------

# a coefficient as GaussianRational.__str__ prints it, before `*` or the
# end; a factor with its exponent
_N = r"\d+(?:/[1-9]\d*)?"
_COEF = re.compile(rf"(?:({_N})(\*i)?|(i)|\((-?{_N})([+-])(?:({_N})\*)?i\))"
                   r"(?=\*|$)")
_FACTOR = re.compile(r"(\w+)(?:\^(-?\d+|\(-?\d+/[1-9]\d*\)))?")


def _rational(s: str) -> GaussianRational:
    p, _, q = s.partition("/")
    return ratio(int(p), int(q or 1))


def _coefficient(m) -> GaussianRational:
    real, times_i, unit, re_, sign, im = m.groups()
    if re_ is not None:
        b = _rational(im) if im else QONE
        return _rational(re_) + (b if sign == "+" else -b) * QI
    c = _rational(real) if real else QONE
    return c * QI if times_i or unit else c


def _generator(name: str, stage: str) -> Generator:
    """The generator printed as name; a field jet named without a space
    letter (a bare field or a pure time jet) is read at stage."""
    base, _, jet = name.partition("_")
    space = jet.lstrip("t")
    if base in FIELD_BASES and space[:1] not in ("", stage):
        raise ValueError(f"{name!r} is not a jet at stage {stage!r}")
    try:
        if base in FIELD_BASES:
            g = field(base, len(jet) - len(space), len(space), stage)
        elif base[:1] == "V":
            g = pairjet(0 if base[-2] == "B" else 1 + int(jet or 0),
                        int(base[-1]), "y" if base[1] == "t" else "x")
        elif base[:1] == "F":
            g = fjet(int(base[2:] or 0))
        elif name in TRIG:
            g = trig(name)
        else:
            g = coord(name) if name in _COORD_DATA else param(name)
    except (KeyError, ValueError, IndexError):
        g = None
    if g is None or g.name != name:
        raise ValueError(f"unknown name {name!r}")
    return g


def parse(text: str, stage: str) -> GradedExpr:
    """The expression that `str` prints as text, its jets read at stage.

    Terms are joined by ` + ` and ` - `.  A term is an optional
    coefficient as `GaussianRational.__str__` prints it, then factors
    `name`, `name^n`, `name^-n` or `name^(p/q)` joined by `*`; each name
    resolves through the `core` factories.  Malformed text raises
    ValueError naming the bad token.
    """
    if stage not in ("y", "x"):
        raise ValueError(f"unknown stage {stage!r}")
    parts = re.split(r" ([+-]) ", f" - {text[1:]}" if text[:1] == "-"
                     else f" + {text}")[1:]
    terms, gens = {}, {}
    for sign, tok in zip(parts[::2], parts[1::2]):
        if not tok:
            raise ValueError(f"cannot parse {text!r}: " + (
                f"dangling {sign!r}" if text else "empty text"))
        m = _COEF.match(tok)
        c, rest = (_coefficient(m), tok[m.end():]) if m else (QONE, "*" + tok)
        mono, odd = [], sign == "-"
        for fac in rest.split("*")[1:]:
            f = _FACTOR.fullmatch(fac)
            if f is None:
                raise ValueError(f"cannot parse {text!r}: " + (
                    f"bad factor {fac!r}" if fac else "dangling '*'"))
            name, e = f.groups()
            g = gens.get(name) or gens.setdefault(name,
                                                  _generator(name, stage))
            if not e and (not mono or mono[-1][0].sort_key < g.sort_key):
                # canonical order: the factor goes last, with no sign
                mono.append((g, 1))
                continue
            power = GradedExpr.gen(g, Fraction(e.strip("()")) if e else 1).terms
            hit = power and _mono_mul(tuple(mono), next(iter(power)))
            if not hit:
                break
            odd ^= hit[0]
            mono = list(hit[1])
        else:
            if not _eps_overflow(mono):
                _add_terms(terms, ((tuple(mono), -c if odd else c),))
    return GradedExpr(terms)
