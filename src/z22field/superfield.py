"""Scalar superfield: component content, symmetry variations, closure.

The superfield packs eight component fields into the nilpotent coordinates,

    Phi = phi00 + z phi11 + th10 (i psi10 + z lam01)
        + th01 (i psi01 + z lam10) + th10 th01 (A11 + z A00),

and is real: star(Phi) = Phi.  Variations are computed by applying the
superspace operators to this expansion and re-reading the slots with the
same left theta-derivatives used for integration, so every sign in the
tables is produced mechanically.

Field variations use the opposite operator signs from coordinate
variations (the standard active/passive flip):

    coords:  delta X = (-i e00 H - i e11 Z + e10 Q10 + e01 Q01) X
             delta_L X = -i eL L11 X
    fields:  delta Phi = (i e00 H + i e11 Z - e10 Q10 - e01 Q01
                          + i eL L11) Phi

The second-stage tables come from the first-stage ones through the ring
map that rescales the measure coordinate and a subset of the fields.

The first-stage table of each symmetry and the stage-map image of each
jet are memoised with functools.cache: they are keyed by names and jet
indices alone, so the memo stays as small as the field content.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Dict, List, Optional

from .core import (DEG00, FIELD_BASES, GaussianRational, Generator, QI,
                   X_WEIGHTED, coord, field, pairjet, param, parity, trig)
from .derivations import (Derivation, GeneratorDerivation, STRUCTURE,
                          OP_DEGREE, fn_field_derivative, partial_theta,
                          superspace_operators, total_space, total_t)
from .expr import GradedExpr, gexp, scalar

_I = scalar(QI)
_HALF = scalar(Fraction(1, 2))

VAR_NAMES = ("H", "Z", "Q10", "Q01", "L11")

PARAM_OF = {"H": "eps00", "Z": "eps11", "Q10": "eps10", "Q01": "eps01",
            "L11": "epsL"}

# prefactors in the variation rules
_KAPPA_FIELD = {"H": GaussianRational(0, 1), "Z": GaussianRational(0, 1),
                "Q10": GaussianRational(-1), "Q01": GaussianRational(-1),
                "L11": GaussianRational(0, 1)}


# ----------------------------------------------------------------------
# expansion and slot extraction
# ----------------------------------------------------------------------

def superfield(space: str = "y") -> GradedExpr:
    z = gexp(coord("z"))
    th10 = gexp(coord("th10"))
    th01 = gexp(coord("th01"))
    f = lambda b: gexp(field(b, 0, 0, space))
    return (f("phi00") + z * f("phi11")
            + th10 * (_I * f("psi10") + z * f("lam01"))
            + th01 * (_I * f("psi01") + z * f("lam10"))
            + th10 * th01 * (f("A11") + z * f("A00")))


def split_components(E: GradedExpr) -> Dict[str, GradedExpr]:
    """Invert the superfield packing on any expression of the same shape.

    Works for the superfield itself and for anything derived from it
    linearly (variations), returning the eight slot coefficients.
    """
    d10 = partial_theta("th10")
    d01 = partial_theta("th01")
    zc = coord("z")
    minus_i = scalar(GaussianRational(0, -1))

    body = E.restrict_theta()
    c_phi00, c_phi11 = body.split_gen(zc)

    t10 = d10.apply(E).restrict_theta()
    a10, b10 = t10.split_gen(zc)

    t01 = d01.apply(E).restrict_theta()
    a01, b01 = t01.split_gen(zc)

    t11 = d10.apply(d01.apply(E)).restrict_theta()
    c_a11, c_a00 = t11.split_gen(zc)

    return {
        "phi00": c_phi00, "phi11": c_phi11,
        "psi10": minus_i * a10, "lam01": b10,
        "psi01": minus_i * a01, "lam10": b01,
        "A11": c_a11, "A00": c_a00,
    }


# ----------------------------------------------------------------------
# variations
# ----------------------------------------------------------------------

def _primed(name: str) -> str:
    return name + "p"


def coordinate_variations(name: str) -> Dict[str, GradedExpr]:
    """Action of one symmetry on the superspace coordinates."""
    ops = superspace_operators()
    eps = gexp(param(PARAM_OF[name]))
    k = scalar(-_KAPPA_FIELD[name])
    out = {}
    for cn in ("t", "y", "z", "th10", "th01"):
        out[cn] = k * eps * ops[name].apply(gexp(coord(cn)))
    return out


@cache
def _pre_table(name: str) -> Dict[str, GradedExpr]:
    ops = superspace_operators()
    eps = gexp(param(PARAM_OF[name]))
    k = scalar(_KAPPA_FIELD[name])
    return split_components(k * eps * ops[name].apply(superfield("y")))


def variation_table(name: str, stage: str = "y",
                    primed: bool = False) -> Dict[str, GradedExpr]:
    """Variation of each component field, parameter included."""
    table = _pre_table(name)
    if stage == "x":
        mapped = {}
        for base, entry in table.items():
            img = stage_map(entry)
            if base in X_WEIGHTED:
                img = gexp(coord("x")) * img
            mapped[base] = img
        table = mapped
    elif stage != "y":
        raise ValueError(f"unknown stage {stage!r}")
    if primed:
        src = param(PARAM_OF[name])
        dst = gexp(param(_primed(PARAM_OF[name])))
        table = {b: e.substitute({src: dst}) for b, e in table.items()}
    return table


def prolonged_derivation(table: Dict[str, GradedExpr], stage: str,
                         label: str = "delta") -> Derivation:
    """Even derivation on a stage's jet ring, built from a base-field table.

    Coordinates and parameters are inert; jets prolong through the total
    derivatives; function symbols chain through their field arguments.
    """
    dt = total_t(stage)
    dsp = total_space(stage)
    cache: Dict[tuple, GradedExpr] = {}

    def jet_image(base: str, m: int, n: int) -> GradedExpr:
        key = (base, m, n)
        hit = cache.get(key)
        if hit is not None:
            return hit
        if m == 0 and n == 0:
            img = table[base]
        elif m > 0:
            img = dt.apply(jet_image(base, m - 1, n))
        else:
            img = dsp.apply(jet_image(base, 0, n - 1))
        cache[key] = img
        return img

    def act(g: Generator) -> Optional[GradedExpr]:
        if g.kind == "field" and g.space == stage:
            m, n = g.jet
            return jet_image(g.base, m, n)
        if g.kind == "fn":
            out = GradedExpr.zero()
            for which in ("phi00", "phi11"):
                part = fn_field_derivative(g, which)
                if part is not None and part.terms:
                    out = out + part * jet_image(which, 0, 0)
            return out
        return None

    return GeneratorDerivation(label, DEG00, act)


def variation_derivation(name: str, stage: str = "y", primed: bool = False,
                         parameter: Optional[GradedExpr] = None) -> Derivation:
    """The variation as an even derivation on the stage's jet ring.

    With `parameter` given, the table's own parameter is stripped off and
    replaced by that expression (used to state closure).
    """
    base_table = variation_table(name, stage, primed)
    if parameter is not None:
        eps = param(_primed(PARAM_OF[name]) if primed else PARAM_OF[name])
        base_table = {b: parameter * e.strip_left(eps)
                      for b, e in base_table.items()}
    label = f"delta_{name}" + ("'" if primed else "")
    return prolonged_derivation(base_table, stage, label)


# ----------------------------------------------------------------------
# stage map
# ----------------------------------------------------------------------

@cache
def _stage_field_image(base: str, m: int, n: int) -> GradedExpr:
    if m > 0:
        return _HALF * total_t("x").apply(_stage_field_image(base, m - 1, n))
    if n > 0:
        return (_HALF * gexp(coord("x"), -1)
                * total_space("x").apply(_stage_field_image(base, 0, n - 1)))
    img = gexp(field(base, 0, 0, "x"))
    return gexp(coord("x"), -1) * img if base in X_WEIGHTED else img


def stage_map(expr: GradedExpr) -> GradedExpr:
    """Ring map from first-stage to second-stage variables.

    Doubles the time coordinate, replaces the quadratic measure coordinate
    by the square of the linear one, rescales half of the fields by the
    measure coordinate, and rewrites jets through the chain rule.  The
    nilpotent coordinates must already be gone.
    """
    mapping: Dict[Generator, GradedExpr] = {}
    for g in expr.generators():
        if g.kind == "coord":
            if g.name == "t":
                mapping[g] = scalar(2) * gexp(coord("t"))
            elif g.name == "y":
                mapping[g] = gexp(coord("x"), 2)
            elif g.name in ("z", "th10", "th01"):
                raise ValueError(f"stage map applied to {g.name}-dependent term")
        elif g.kind == "field":
            if g.space != "y":
                raise ValueError(f"{g.name} is not a first-stage jet")
            m, n = g.jet
            mapping[g] = _stage_field_image(g.base, m, n)
        elif g.kind == "fn":
            if g.base == "S11y":
                mapping[g] = gexp(coord("x"), -1) * gexp(trig("S11"))
            elif g.base == "C11y":
                mapping[g] = gexp(trig("C11"))
            elif g.base == "Vtpair":
                m, slot = g.jet
                img = gexp(pairjet(m, slot, "x"))
                if slot == 1:
                    img = gexp(coord("x"), -1) * img
                mapping[g] = img
            # shared symbols (F family, S00, C00) pass through unchanged
    return expr.substitute(mapping)


# ----------------------------------------------------------------------
# closure
# ----------------------------------------------------------------------

def closure_report(stage: str = "y") -> List[dict]:
    """Check that two variations compose into the algebra's bracket.

    For each unordered pair the commutator of the variations (independent
    parameter copies) must equal the variation along the bracket with the
    composite parameter fixed by the algebra; both sides are compared as
    full expressions on every component field.
    """
    reports = []
    pairs = [(a, b) for i, a in enumerate(VAR_NAMES)
             for b in VAR_NAMES[i:]]
    derivs = {n: variation_derivation(n, stage) for n in VAR_NAMES}
    derivs_p = {n: variation_derivation(n, stage, primed=True)
                for n in VAR_NAMES}
    for a, b in pairs:
        Da, Dbp = derivs[a], derivs_p[b]
        p_ab = parity(OP_DEGREE[a], OP_DEGREE[b])
        eps_a = gexp(param(PARAM_OF[a]))
        eps_bp = gexp(param(_primed(PARAM_OF[b])))
        composite = eps_a * eps_bp
        rhs_pieces = []
        for c_r, r in STRUCTURE[(a, b)]:
            # commuting the first parameter through the second operator
            # reverses the operator order, hence the overall minus:
            # [D_A(e), D_B(e')] = -(-1)^p kap_A kap_B e e' [G_A, G_B}
            coeff = (_KAPPA_FIELD[a] * _KAPPA_FIELD[b] * c_r
                     / _KAPPA_FIELD[r])
            if not p_ab:
                coeff = -coeff
            rhs_pieces.append((scalar(coeff) * composite, r))
        residuals = {}
        for fb in FIELD_BASES:
            probe = gexp(field(fb, 0, 0, stage))
            lhs = Da.apply(Dbp.apply(probe)) - Dbp.apply(Da.apply(probe))
            want = GradedExpr.zero()
            for pexpr, r in rhs_pieces:
                want = want + variation_derivation(r, stage,
                                                   parameter=pexpr).apply(probe)
            diff = lhs - want
            if not diff.is_zero():
                residuals[fb] = str(diff)
        reports.append({
            "pair": f"({a},{b})",
            "stage": stage,
            "status": "ok" if not residuals else "fail",
            "residuals": residuals,
        })
    return reports


# ----------------------------------------------------------------------
# audits
# ----------------------------------------------------------------------

def reality_check() -> bool:
    phi = superfield("y")
    return (phi.star() - phi).is_zero()


def degree_audit(stage: str = "y") -> List[str]:
    """Every variation entry must carry the degree of its field."""
    problems = []
    for name in VAR_NAMES:
        for fb, entry in variation_table(name, stage).items():
            if entry.is_zero():
                continue
            # the parameter degree equals the operator degree, so the
            # entry must carry exactly the field's own degree
            want = field(fb, 0, 0, stage).degree
            if entry.degree() != want:
                problems.append(f"{name}:{fb} degree {entry.degree()} != {want}")
    return problems


def dimension_audit(stage: str = "y") -> List[str]:
    """Each parameter's dimension offsets its operator's, so a variation
    entry must scale exactly like the field it varies."""
    problems = []
    for name in VAR_NAMES:
        for fb, entry in variation_table(name, stage).items():
            if entry.is_zero():
                continue
            want = field(fb, 0, 0, stage).dim
            got = entry.scaling_dim()
            if got != want:
                problems.append(f"{name}:{fb} dim {got} != {want}")
    return problems
