"""Scalars and generators for the graded polynomial engine.

Everything symbolic in this package lives in one ring: polynomials in a
fixed set of generators (coordinates, transformation parameters, component
field jets, function-symbol jets) with Gaussian-rational coefficients.
Each generator carries a Z2 x Z2 degree, and two generators of degrees
(a1,b1), (a2,b2) pick up the sign (-1)^(a1*a2 + b1*b2) when swapped.

Generators are interned: calling a factory twice with the same data hands
back the same object, so identity comparison and dict keying are cheap.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd
from typing import NamedTuple, Optional, Union

Rat = Union[int, Fraction]


# ----------------------------------------------------------------------
# degrees
# ----------------------------------------------------------------------

class Degree(NamedTuple):
    a: int
    b: int

    # group law of Z2 x Z2, not tuple concatenation
    def __add__(self, other: "Degree") -> "Degree":  # type: ignore[override]
        return Degree((self.a + other.a) & 1, (self.b + other.b) & 1)

    def __str__(self) -> str:
        return f"({self.a},{self.b})"


DEG00 = Degree(0, 0)
DEG10 = Degree(1, 0)
DEG01 = Degree(0, 1)
DEG11 = Degree(1, 1)


def parity(d1: Degree, d2: Degree) -> int:
    """Exponent of the swap sign for two homogeneous factors: 0 or 1."""
    return (d1.a * d2.a + d1.b * d2.b) & 1


# ----------------------------------------------------------------------
# exact complex scalars
# ----------------------------------------------------------------------

class GaussianRational:
    """Complex number (a + b*i)/d with integer a, b, d.

    The triple is normalised, d > 0 and gcd(a, b, d) == 1, so equal values
    have equal triples; zero is (0, 0, 1).  `re` and `im` are exact
    Fraction views of the real and imaginary parts.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: Rat = 0, im: Rat = 0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        re, im = Fraction(re), Fraction(im)
        p, q = re.numerator, re.denominator
        r, s = im.numerator, im.denominator
        # over the common denominator of two reduced fractions the triple
        # is already coprime
        d = q * s // gcd(q, s)
        self._a, self._b, self._d = p * (d // q), r * (d // s), d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- coercion ------------------------------------------------------

    @staticmethod
    def coerce(value) -> Optional["GaussianRational"]:
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        return None

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = GaussianRational.coerce(other)
            if other is None:
                return NotImplemented
        d1, d2 = self._d, other._d
        return _reduced(self._a * d2 + other._a * d1,
                        self._b * d2 + other._b * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        o = GaussianRational.coerce(other)
        if o is None:
            return NotImplemented
        return _reduced(self._a * o._d - o._a * self._d,
                        self._b * o._d - o._b * self._d, self._d * o._d)

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            if type(other) is int:
                # gcd(a, b, d) = 1 makes gcd(k a, k b, d) = gcd(k, d), so
                # the scaled triple reduces by that alone
                d = self._d
                if d != 1:
                    g = gcd(other, d)
                    if g != 1:
                        other //= g
                        d //= g
                return _triple(self._a * other, self._b * other, d)
            other = GaussianRational.coerce(other)
            if other is None:
                return NotImplemented
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        return _reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2,
                        self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = GaussianRational.coerce(other)
        if o is None:
            return NotImplemented
        a1, b1, a2, b2 = self._a, self._b, o._a, o._b
        norm = a2 * a2 + b2 * b2
        if norm == 0:
            raise ZeroDivisionError("division by zero scalar")
        d2 = o._d
        return _reduced(d2 * (a1 * a2 + b1 * b2), d2 * (b1 * a2 - a1 * b2),
                        self._d * norm)

    # a sign change, here and in conj, keeps a normalised triple normalised
    def __neg__(self):
        return _triple(-self._a, -self._b, self._d)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("scalar powers must be nonnegative integers")
        out = GaussianRational(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conj(self) -> "GaussianRational":
        return _triple(self._a, -self._b, self._d)

    # -- predicates / hashing -------------------------------------------

    def __bool__(self) -> bool:
        return self._a != 0 or self._b != 0

    def __eq__(self, other) -> bool:
        if type(other) is not GaussianRational:
            other = GaussianRational.coerce(other)
            if other is None:
                return NotImplemented
        return (self._a == other._a and self._b == other._b
                and self._d == other._d)

    def __hash__(self) -> int:
        # a real scalar hashes like the int or Fraction it equals
        if self._b == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    # -- display ---------------------------------------------------------

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            if im == 1:
                return "i"
            if im == -1:
                return "-i"
            return f"{im}*i"
        sign = "+" if im > 0 else "-"
        mag = abs(im)
        ipart = "i" if mag == 1 else f"{mag}*i"
        return f"({re}{sign}{ipart})"


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """Scalar (a + b*i)/d for d > 0, divided through by gcd(a, b, d)."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    z = object.__new__(GaussianRational)
    z._a, z._b, z._d = a, b, d
    return z


def _triple(a: int, b: int, d: int) -> GaussianRational:
    """Scalar (a + b*i)/d from a triple that is already normalised."""
    z = object.__new__(GaussianRational)
    z._a, z._b, z._d = a, b, d
    return z


def ratio(p: int, q: int) -> GaussianRational:
    """The real scalar p/q of two integers, q > 0, in lowest terms."""
    return _reduced(p, 0, q)


QONE = GaussianRational(1)
QI = GaussianRational(0, 1)
QZERO = GaussianRational(0)


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------

# sort ranks: coordinates in the fixed order t,y,x,z,th10,th01, then
# parameters, then even field jets, then odd field jets, then function jets
_RANK_T = 0
_RANK_Y = 1
_RANK_X = 2
_RANK_Z = 3
_RANK_TH10 = 4
_RANK_TH01 = 5
_RANK_PARAM = 6
_RANK_EVEN_FIELD = 7
_RANK_ODD_FIELD = 8
_RANK_FN = 9


class Generator:
    """Interned graded symbol.

    kind      one of "coord", "param", "field", "fn"
    space     None (shared), "y" (first-stage jets) or "x" (second-stage)
    base      family name; equals name for coordinates and parameters
    jet       () for coords/params, (m, n) for field jets, family-specific
              index tuple for function jets
    dim       scaling dimension as a Fraction
    dim2      twice dim, an int: every dimension is a multiple of 1/2
    nilpotent True when the square vanishes identically
    eps_group truncation group tag for small parameters, else None
    mask      the degree (a, b) packed as the 2-bit int a | b << 1
    """

    __slots__ = ("name", "kind", "degree", "mask", "dim", "dim2",
                 "nilpotent", "eps_group", "space", "base", "jet", "sort_key")

    _registry: dict = {}

    def __init__(self, name, kind, degree, dim, nilpotent, eps_group,
                 space, base, jet, sort_key):
        self.name = name
        self.kind = kind
        self.degree = degree
        self.mask = degree.a | degree.b << 1
        self.dim = Fraction(dim)
        self.dim2, rem = divmod(2 * self.dim.numerator, self.dim.denominator)
        if rem:
            raise ValueError(f"{name}: dimension {dim} is not a multiple "
                             "of 1/2")
        self.nilpotent = nilpotent
        self.eps_group = eps_group
        self.space = space
        self.base = base
        self.jet = jet
        self.sort_key = sort_key

    def __repr__(self) -> str:
        return self.name

    # interning makes default identity hash/eq sufficient and fast


def _intern(name, kind, degree, dim, nilpotent, eps_group, space, base,
            jet, sort_key) -> Generator:
    key = (kind, name, space)
    hit = Generator._registry.get(key)
    if hit is not None:
        return hit
    g = Generator(name, kind, degree, dim, nilpotent, eps_group, space,
                  base, jet, sort_key)
    Generator._registry[key] = g
    return g


# -- coordinates -------------------------------------------------------

_COORD_DATA = {
    # name: (degree, dim, space, rank, nilpotent)
    "t":    (DEG00, Fraction(-1), None, _RANK_T, False),
    "y":    (DEG00, Fraction(-2), "y", _RANK_Y, False),
    "x":    (DEG00, Fraction(-1), "x", _RANK_X, False),
    "z":    (DEG11, Fraction(-1), "y", _RANK_Z, False),
    "th10": (DEG10, Fraction(-1, 2), "y", _RANK_TH10, True),
    "th01": (DEG01, Fraction(-1, 2), "y", _RANK_TH01, True),
}


def coord(name: str) -> Generator:
    deg, dim, space, rank, nil = _COORD_DATA[name]
    return _intern(name, "coord", deg, dim, nil, None, space, name, (),
                   (rank, name, 0, 0))


# -- parameters --------------------------------------------------------

_PARAM_DATA = {
    # name: (degree, dim, nilpotent, eps_group, subrank)
    "eps00":  (DEG00, Fraction(-1), False, "e", 0),
    "eps11":  (DEG11, Fraction(-1), False, "e", 0),
    "eps10":  (DEG10, Fraction(-1, 2), True, "e", 0),
    "eps01":  (DEG01, Fraction(-1, 2), True, "e", 0),
    "epsL":   (DEG11, Fraction(0), False, "e", 0),
    "alpha":  (DEG11, Fraction(1), False, None, 1),
    "deltaz": (DEG11, Fraction(-1), False, "dz", 2),
}


def param(name: str) -> Generator:
    """Transformation parameter; append "p" for an independent primed copy."""
    base = name
    group_suffix = ""
    if name.endswith("p") and name[:-1] in _PARAM_DATA:
        base = name[:-1]
        group_suffix = "2"
    deg, dim, nil, group, sub = _PARAM_DATA[base]
    if group == "e" and group_suffix:
        group = "e2"
    return _intern(name, "param", deg, dim, nil, group, None, name, (),
                   (_RANK_PARAM, sub, name, 0))


# -- component field jets ----------------------------------------------

_FIELD_DATA = {
    # base: (degree, dim in y-stage, dim in x-stage, odd)
    "phi00": (DEG00, Fraction(0), Fraction(0), False),
    "phi11": (DEG11, Fraction(1), Fraction(0), False),
    "A00":   (DEG00, Fraction(2), Fraction(1), False),
    "A11":   (DEG11, Fraction(1), Fraction(1), False),
    "psi10": (DEG10, Fraction(1, 2), Fraction(1, 2), True),
    "psi01": (DEG01, Fraction(1, 2), Fraction(1, 2), True),
    "lam10": (DEG10, Fraction(3, 2), Fraction(1, 2), True),
    "lam01": (DEG01, Fraction(3, 2), Fraction(1, 2), True),
}

FIELD_BASES = ("phi00", "phi11", "A00", "A11", "psi10", "psi01",
               "lam10", "lam01")

# rescaled by one power of x when passing from the y-stage to the x-stage
X_WEIGHTED = frozenset({"phi11", "A00", "lam10", "lam01"})


def field(base: str, m: int = 0, n: int = 0, space: str = "y") -> Generator:
    """Jet of a component field: m time derivatives, n space derivatives."""
    name = base + "_" + "t" * m + space * n if m or n else base
    hit = Generator._registry.get(("field", name, space))
    if hit is not None:
        return hit
    deg, dim_y, dim_x, odd = _FIELD_DATA[base]
    if space == "y":
        dim = dim_y + m + 2 * n
    elif space == "x":
        dim = dim_x + m + n
    else:
        raise ValueError(f"unknown space {space!r}")
    rank = _RANK_ODD_FIELD if odd else _RANK_EVEN_FIELD
    return _intern(name, "field", deg, dim, odd, None, space, base, (m, n),
                   (rank, base, m, n))


# -- function-symbol jets ----------------------------------------------
#
# Three families, of scaling dimension 0 but for the first-stage odd slot:
#   fjet(k)          abstract derivative tower F, Fd1, Fd2, ... standing for
#                    the k-th derivative of a scalar function of phi00
#   trig(name)       sines/cosines of phi00 (shared) and phi11 (per
#                    stage), whose calculus lives only in TRIG below
#   pairjet(m,s,sp)  derivative tower of a potential pair; s=0 was even
#                    slot, s=1 the (1,1) slot, m counts derivatives with
#                    one extra step for the undifferentiated body

def fjet(k: int) -> Generator:
    name = "F" if k == 0 else f"Fd{k}"
    return _intern(name, "fn", DEG00, 0, False, None, None, "F", (k,),
                   (_RANK_FN, "F", k, 0))


# One row per sine/cosine symbol: generator data; odd, 1 for a sine (0 at
# zero field) and 0 for a cosine (1 there); LaTeX; the derivative by
# `field`, sign * y**ypow * target; and a first-stage symbol's x-stage image
# x**xpow * xname as (xname, xpow).  The first-stage odd-slot symbol packs
# one more power of the (1,1) field than of y**(1/2), hence dimension 1.
TrigRow = namedtuple("TrigRow", "degree space dim odd latex field sign "
                     "target ypow x_image")
TRIG = {
    "S00":  TrigRow(DEG00, None, 0, 1, r"\sin\varphi_{00}",
                    "phi00", 1, "C00", 0, None),
    "C00":  TrigRow(DEG00, None, 0, 0, r"\cos\varphi_{00}",
                    "phi00", -1, "S00", 0, None),
    "S11y": TrigRow(DEG11, "y", 1, 1, r"\mathcal{S}_{11}",
                    "phi11", 1, "C11y", 0, ("S11", -1)),
    "C11y": TrigRow(DEG00, "y", 0, 0, r"\mathcal{C}_{11}",
                    "phi11", -1, "S11y", 1, ("C11", 0)),
    "S11":  TrigRow(DEG11, "x", 0, 1, r"\sin\varphi_{11}",
                    "phi11", 1, "C11", 0, None),
    "C11":  TrigRow(DEG00, "x", 0, 0, r"\cos\varphi_{11}",
                    "phi11", -1, "S11", 0, None),
}


def trig(name: str) -> Generator:
    row = TRIG[name]
    return _intern(name, "fn", row.degree, row.dim, False, None, row.space,
                   name, (), (_RANK_FN, name, 0, 0))


def trig_of(base: str, space: Optional[str], odd: int) -> Generator:
    """The sine (odd = 1) or cosine (odd = 0) of a field at a stage."""
    return trig(next(n for n, r in TRIG.items()
                     if (r.field, r.space, r.odd) == (base, space, odd)))


def pairjet(m: int, slot: int, space: str) -> Generator:
    """Jet of a canonical potential pair.

    m = 0 is the generating body, m = 1 the pair components themselves,
    m >= 2 their repeated (0,0)-derivatives.  slot 0 carries degree (0,0),
    slot 1 degree (1,1).
    """
    if slot not in (0, 1):
        raise ValueError("slot must be 0 or 1")
    if space == "y":
        stem = "Vt"
    elif space == "x":
        stem = "V"
    else:
        raise ValueError(f"unknown space {space!r}")
    if m == 0:
        name = f"{stem}B{slot}"
    else:
        name = stem + ("00", "11")[slot] + (f"_{m - 1}" if m != 1 else "")
    hit = Generator._registry.get(("fn", name, space))
    if hit is not None:
        return hit
    deg = DEG00 if slot == 0 else DEG11
    # first-stage odd slot: one surplus power of the dimension-1 field
    dim = Fraction(1) if (space == "y" and slot == 1) else Fraction(0)
    return _intern(name, "fn", deg, dim, False, None, space, stem + "pair",
                   (m, slot), (_RANK_FN, stem + "pair", m, slot))


# ----------------------------------------------------------------------
# convenience handles
# ----------------------------------------------------------------------

Y = coord("y")
ZC = coord("z")
