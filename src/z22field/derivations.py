"""Graded derivations and the superspace differential operators.

A derivation is determined by its action on generators and extends to
products through the graded Leibniz rule

    D(ab) = D(a) b + (-1)^parity(deg D, deg a) a D(b).

Total derivatives know the jet bookkeeping: the time derivative of a jet
raises its first index, the space derivative its second, and function
symbols chain through the formal field derivatives of their family.

The odd coordinate derivatives act from the left; the degree-(1,1)
coordinate derivative implements z**2 = y by sending y to 2z and first
stage jets f^(m,n) to 2z f^(m,n+1).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .core import (DEG00, DEG01, DEG10, DEG11, Degree, GaussianRational,
                   Generator, QI, QONE, coord, field, fjet, pairjet, param,
                   parity, trig)
from .expr import (GradedExpr, _exp_degree, gexp, scalar)

ONE = GradedExpr.const(1)


# ----------------------------------------------------------------------
# derivation classes
# ----------------------------------------------------------------------

class Derivation:
    """Base interface: a graded operator acting on expressions."""

    name: str
    degree: Degree

    def apply(self, expr: GradedExpr) -> GradedExpr:
        raise NotImplementedError

    def __call__(self, expr: GradedExpr) -> GradedExpr:
        return self.apply(expr)

    def __repr__(self) -> str:
        return f"<{self.__class__.__name__} {self.name}>"


class GeneratorDerivation(Derivation):
    """Derivation given by a generator action plus graded Leibniz."""

    def __init__(self, name: str, degree: Degree,
                 action: Callable[[Generator], Optional[GradedExpr]]):
        self.name = name
        self.degree = degree
        self.action = action

    def apply(self, expr: GradedExpr) -> GradedExpr:
        out = GradedExpr.zero()
        deg = self.degree
        for mono, c in expr.terms.items():
            prefix_parity = 0
            for k, (g, e) in enumerate(mono):
                img = self.action(g)
                if img is not None and img.terms:
                    if e != 1 and parity(deg, g.degree):
                        # never reached in this ring: repeated factors are
                        # even relative to every operator we build
                        raise ValueError(
                            f"power rule needs commuting factor: {g.name}^{e}")
                    coeff = c * e
                    if prefix_parity & 1:
                        coeff = -coeff
                    term = GradedExpr({mono[:k]: coeff})
                    if e != 1:
                        term = term * gexp(g, e - 1)
                    term = term * img
                    if k + 1 < len(mono):
                        term = term * GradedExpr({mono[k + 1:]: QONE})
                    out = out + term
                prefix_parity += parity(deg, _exp_degree(g, e))
        return out


class CompositeDerivation(Derivation):
    """Sum of coefficient * derivation pieces, e.g. a superspace operator."""

    def __init__(self, name: str, degree: Degree,
                 pieces: Sequence[Tuple[GradedExpr, Derivation]]):
        self.name = name
        self.degree = degree
        self.pieces = list(pieces)
        for cf, dv in self.pieces:
            d = cf.degree()
            if d is None or d + dv.degree != degree:
                raise ValueError(f"inhomogeneous piece in {name}")

    def apply(self, expr: GradedExpr) -> GradedExpr:
        out = GradedExpr.zero()
        for cf, dv in self.pieces:
            out = out + cf * dv.apply(expr)
        return out


class BracketDerivation(Derivation):
    """Graded commutator A B - (-1)^parity(degA, degB) B A."""

    def __init__(self, a: Derivation, b: Derivation):
        self.a = a
        self.b = b
        self.sign = -1 if parity(a.degree, b.degree) else 1
        self.degree = a.degree + b.degree
        bra = "{%s,%s}" if self.sign == 1 else "[%s,%s]"
        self.name = bra % (a.name, b.name)

    def apply(self, expr: GradedExpr) -> GradedExpr:
        first = self.a.apply(self.b.apply(expr))
        second = self.b.apply(self.a.apply(expr))
        return first - scalar(self.sign) * second


def bracket(a: Derivation, b: Derivation) -> BracketDerivation:
    return BracketDerivation(a, b)


# ----------------------------------------------------------------------
# formal field derivatives of function symbols
# ----------------------------------------------------------------------

def fn_field_derivative(g: Generator, which: str) -> Optional[GradedExpr]:
    """Formal derivative of a function symbol by phi00 or phi11.

    Encodes the derivative towers: the abstract family F only sees phi00;
    the trig symbols rotate into each other (the first-stage pair picks up
    explicit factors of y); potential pairs step their derivative index
    with the two slots swapping under the (1,1) derivative.
    """
    if g.kind != "fn":
        return None
    base = g.base
    if base == "F":
        if which == "phi00":
            return gexp(fjet(g.jet[0] + 1))
        return None
    if base == "S00":
        return gexp(trig("C00")) if which == "phi00" else None
    if base == "C00":
        return -gexp(trig("S00")) if which == "phi00" else None
    if base == "S11y":
        return gexp(trig("C11y")) if which == "phi11" else None
    if base == "C11y":
        if which == "phi11":
            return -(gexp(coord("y")) * gexp(trig("S11y")))
        return None
    if base == "S11":
        return gexp(trig("C11")) if which == "phi11" else None
    if base == "C11":
        return -gexp(trig("S11")) if which == "phi11" else None
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


def _fn_has_explicit_measure(g: Generator) -> bool:
    return g.base in ("S11y", "C11y") or g.base == "Vtpair"


# ----------------------------------------------------------------------
# total derivatives
# ----------------------------------------------------------------------

def total_t(space: str) -> GeneratorDerivation:
    """Total time derivative for jets of the given stage."""
    tname = coord("t")

    def act(g: Generator) -> Optional[GradedExpr]:
        if g is tname:
            return ONE
        if g.kind == "field" and g.space == space:
            m, n = g.jet
            return gexp(field(g.base, m + 1, n, space))
        if g.kind == "fn":
            return _fn_chain(g, 1, 0, space)
        return None

    return GeneratorDerivation(f"D_t[{space}]", DEG00, act)


def total_space(space: str) -> GeneratorDerivation:
    """Total derivative along the measure coordinate of the given stage."""
    cname = coord("y") if space == "y" else coord("x")

    def act(g: Generator) -> Optional[GradedExpr]:
        if g is cname:
            return ONE
        if g.kind == "field" and g.space == space:
            m, n = g.jet
            return gexp(field(g.base, m, n + 1, space))
        if g.kind == "fn":
            if space == "y" and _fn_has_explicit_measure(g):
                raise ValueError(
                    f"{g.name} carries explicit measure dependence")
            return _fn_chain(g, 0, 1, space)
        return None

    return GeneratorDerivation(f"D_{space}", DEG00, act)


def _fn_chain(g: Generator, dm: int, dn: int, space: str) -> Optional[GradedExpr]:
    """Chain rule for a total derivative through a function symbol."""
    if g.space is not None and g.space != space:
        raise ValueError(f"{g.name} does not live in stage {space!r}")
    out = GradedExpr.zero()
    for which in ("phi00", "phi11"):
        part = fn_field_derivative(g, which)
        if part is not None and part.terms:
            out = out + part * gexp(field(which, dm, dn, space))
    return out


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
            return ONE
        if chain and g.kind == "fn" and g.space in (None, space):
            return fn_field_derivative(g, gen.base)
        return None

    return GeneratorDerivation(f"d/d{gen.name}", gen.degree, act)


def partial_z() -> GeneratorDerivation:
    """Degree-(1,1) coordinate derivative with z**2 = y built in."""
    zc, yc = coord("z"), coord("y")
    two_z = scalar(2) * gexp(zc)

    def act(g: Generator) -> Optional[GradedExpr]:
        if g is zc:
            return ONE
        if g is yc:
            return two_z
        if g.kind == "field" and g.space == "y":
            m, n = g.jet
            return two_z * gexp(field(g.base, m, n + 1, "y"))
        if g.kind == "fn":
            if _fn_has_explicit_measure(g):
                raise ValueError(
                    f"{g.name} carries explicit measure dependence")
            chain = _fn_chain(g, 0, 1, "y")
            return two_z * chain if chain is not None else None
        return None

    return GeneratorDerivation("d_z", DEG11, act)


def partial_theta(which: str) -> GeneratorDerivation:
    """Left derivative by one of the nilpotent coordinates."""
    th = coord(which)
    deg = DEG10 if which == "th10" else DEG01

    def act(g: Generator) -> Optional[GradedExpr]:
        return ONE if g is th else None

    return GeneratorDerivation(f"d_{which}", deg, act)


def measure_shift() -> GeneratorDerivation:
    """First-order shift of the degree-(1,1) coordinate by deltaz."""
    zc, yc = coord("z"), coord("y")
    dz = gexp(param("deltaz"))

    def act(g: Generator) -> Optional[GradedExpr]:
        if g is zc:
            return dz
        if g is yc:
            return scalar(2) * gexp(zc) * dz
        if g.kind == "field" and g.space == "y":
            m, n = g.jet
            return scalar(2) * gexp(zc) * dz * gexp(field(g.base, m, n + 1, "y"))
        if g.kind == "fn" and _fn_has_explicit_measure(g):
            raise ValueError(f"{g.name} carries explicit measure dependence")
        return None

    return GeneratorDerivation("delta_z-shift", DEG00, act)


# ----------------------------------------------------------------------
# superspace operators
# ----------------------------------------------------------------------

@cache
def superspace_operators() -> Dict[str, Derivation]:
    """The seven named operators acting on first-stage superspace."""
    dt = total_t("y")
    dz = partial_z()
    d10 = partial_theta("th10")
    d01 = partial_theta("th01")
    th10 = gexp(coord("th10"))
    th01 = gexp(coord("th01"))
    tqe = gexp(coord("t"))
    zq = gexp(coord("z"))
    i = scalar(QI)
    half = scalar(Fraction(1, 2))

    ops: Dict[str, Derivation] = {}
    ops["H"] = CompositeDerivation("H", DEG00, [(i, dt)])
    ops["Z"] = CompositeDerivation("Z", DEG11, [(i, dz)])
    ops["Q10"] = CompositeDerivation("Q10", DEG10, [
        (ONE, d10), (i * th10, dt), (half * th01, dz)])
    ops["Q01"] = CompositeDerivation("Q01", DEG01, [
        (ONE, d01), (i * th01, dt), (-(half * th10), dz)])
    ops["L11"] = CompositeDerivation("L11", DEG11, [
        (scalar(GaussianRational(0, -2)) * zq, dt),
        (-(i * half) * tqe, dz),
        (half * th01, d10),
        (-(half * th10), d01)])
    ops["D10"] = CompositeDerivation("D10", DEG10, [
        (ONE, d10), (-(i * th10), dt), (-(half * th01), dz)])
    ops["D01"] = CompositeDerivation("D01", DEG01, [
        (ONE, d01), (-(i * th01), dt), (half * th10, dz)])
    return ops


# ----------------------------------------------------------------------
# structure constants
# ----------------------------------------------------------------------

# canonical bracket values for ordered pairs (first index <= second in the
# listing below); entries are lists of (coefficient, operator name)
_ORDER = ("H", "Z", "Q10", "Q01", "L11", "D10", "D01")

STRUCTURE: Dict[Tuple[str, str], List[Tuple[GaussianRational, str]]] = {
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


def bracket_value(a: str, b: str) -> List[Tuple[GaussianRational, str]]:
    """Structure constants of the ordered bracket [a, b}."""
    if (a, b) in STRUCTURE:
        return STRUCTURE[(a, b)]
    flip = STRUCTURE[(b, a)]
    sgn = -1 if parity(OP_DEGREE[a], OP_DEGREE[b]) == 0 else 1
    # [a,b} = -(-1)^p [b,a}: anticommutators are symmetric, commutators flip
    return [(c * sgn, nm) for c, nm in flip]


def default_probe_set() -> List[GradedExpr]:
    probes = [gexp(coord(n)) for n in ("t", "y", "z", "th10", "th01")]
    for base in ("phi00", "phi11", "A00", "A11", "psi10", "psi01",
                 "lam10", "lam01"):
        probes.append(gexp(field(base, 0, 0, "y")))
    return probes


def _probe_name(e: GradedExpr) -> str:
    (mono, _), = e.terms.items()
    return mono[0][0].name


def _apply_layers(ops: Dict[str, Derivation], names: Sequence[str],
                  probes: List[GradedExpr]):
    """Precompute single and double operator applications on the probes."""
    z1 = {}
    for n in names:
        op = ops[n]
        for i, p in enumerate(probes):
            z1[(n, i)] = op.apply(p)
    z2 = {}
    for n2 in names:
        op = ops[n2]
        for n1 in names:
            for i in range(len(probes)):
                z2[(n2, n1, i)] = op.apply(z1[(n1, i)])
    return z1, z2


def verify_structure_constants() -> List[dict]:
    """Check every bracket relation on a probe set of generators.

    Returns one report per relation: the bracket applied to each probe minus
    the expected right side, which must vanish identically.
    """
    ops = superspace_operators()
    probes = default_probe_set()
    z1, z2 = _apply_layers(ops, _ORDER, probes)
    reports = []
    for (a, b), rhs in sorted(STRUCTURE.items(),
                              key=lambda kv: (_ORDER.index(kv[0][0]),
                                              _ORDER.index(kv[0][1]))):
        pab = parity(OP_DEGREE[a], OP_DEGREE[b])
        sym = "{%s,%s}" if pab else "[%s,%s]"
        residuals = {}
        for i, p in enumerate(probes):
            # commutator: minus; anticommutator: plus
            got = z2[(a, b, i)] - scalar(1 if not pab else -1) * z2[(b, a, i)]
            want = GradedExpr.zero()
            for c, nm in rhs:
                want = want + scalar(c) * z1[(nm, i)]
            diff = got - want
            if not diff.is_zero():
                residuals[_probe_name(p)] = str(diff)
        rh = " + ".join(f"({c}) {nm}" for c, nm in rhs) if rhs else "0"
        reports.append({
            "relation": f"{sym % (a, b)} = {rh}",
            "status": "ok" if not residuals else "fail",
            "residuals": residuals,
        })
    return reports


def verify_jacobi() -> List[dict]:
    """Graded Jacobi identity for every ordered triple of the five symmetry
    operators.

    Expands both sides into triple compositions and evaluates them through
    shared caches; the nested-bracket definition is exercised directly in
    the test suite against this expansion.
    """
    ops = superspace_operators()
    probes = default_probe_set()
    names = ("H", "Z", "Q10", "Q01", "L11")
    z1, z2 = _apply_layers(ops, names, probes)
    t3 = {}
    for n3 in names:
        op = ops[n3]
        for n2 in names:
            for n1 in names:
                for i in range(len(probes)):
                    t3[(n3, n2, n1, i)] = op.apply(z2[(n2, n1, i)])

    def sg(x: str, y: str) -> int:
        return -1 if parity(OP_DEGREE[x], OP_DEGREE[y]) else 1

    reports = []
    for a in names:
        for b in names:
            for c in names:
                s_ab, s_ac, s_bc = sg(a, b), sg(a, c), sg(b, c)
                residuals = {}
                for i, p in enumerate(probes):
                    # [A,[B,C]] - [[A,B],C] - (-1)^(A,B) [B,[A,C]] probe by probe
                    lhs = (t3[(a, b, c, i)]
                           - scalar(s_bc) * t3[(a, c, b, i)]
                           - scalar(s_ab * s_ac) * t3[(b, c, a, i)]
                           + scalar(s_ab * s_ac * s_bc) * t3[(c, b, a, i)])
                    r1 = (t3[(a, b, c, i)]
                          - scalar(s_ab) * t3[(b, a, c, i)]
                          - scalar(s_ac * s_bc) * t3[(c, a, b, i)]
                          + scalar(s_ac * s_bc * s_ab) * t3[(c, b, a, i)])
                    r2 = (t3[(b, a, c, i)]
                          - scalar(s_ac) * t3[(b, c, a, i)]
                          - scalar(s_ab * s_bc) * t3[(a, c, b, i)]
                          + scalar(s_ab * s_bc * s_ac) * t3[(c, a, b, i)])
                    diff = lhs - r1 - scalar(s_ab) * r2
                    if not diff.is_zero():
                        residuals[_probe_name(p)] = str(diff)
                reports.append({
                    "relation": f"jacobi({a},{b},{c})",
                    "status": "ok" if not residuals else "fail",
                    "residuals": residuals,
                })
    return reports
