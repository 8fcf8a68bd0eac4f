"""Scalar superfield: component content, symmetry variations, closure.

The superfield packs eight component fields into the nilpotent coordinates,

    Phi = phi00 + z phi11 + th10 (i psi10 + z lam01)
        + th01 (i psi01 + z lam10) + th10 th01 (A11 + z A00),

and is real: star(Phi) = Phi.  Variations are computed by applying the
superspace operators to this expansion and re-reading the slots with
left theta-derivatives and strips, so every sign in the tables is
produced mechanically; `theta_theta_layers` is the one reader of the
th10 th01 slot, which the integral (`action.berezin_layer`) reads too.

Field variations use the opposite operator signs from coordinate
variations (the standard active/passive flip):

    coords:  delta X = (-i e00 H - i e11 Z + e10 Q10 + e01 Q01) X
             delta_L X = -i eL L11 X
    fields:  delta Phi = (i e00 H + i e11 Z - e10 Q10 - e01 Q01
                          + i eL L11) Phi

The second-stage tables come from the first-stage ones through the ring
map that rescales the measure coordinate and a subset of the fields.

`variation_table(name, stage)` is the one variation stage: memoised with
functools.cache, its second-stage table maps the cached first-stage one.
It and the stage-map image of each jet are keyed by names and jet
indices alone, so the memos stay as small as the field content.  The
closure check takes its independent copy of a variation through
`variation_derivation`'s `parameter`, not through a second table, and
composes the variations in `derivations.bracket_residuals`, the bracket
check of the superspace operators and of the D-module matrices too.
`table_comparison_report` reads the hand-checked tables of `reference`
only when it is called, so `verify-tables` loads no layer above this one.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement
from typing import Dict, List, Optional, Tuple

from .core import (DEG00, FIELD_BASES, TRIG, Generator, QI, QONE,
                   X_WEIGHTED, coord, field, pairjet, param, trig)
from .derivations import (GeneratorDerivation, STRUCTURE, bracket_residuals,
                          bracket_sign, fn_chain, jet_prolongation,
                          partial_coord, superspace_operators, total_space,
                          total_t)
from .expr import GradedExpr, gexp, scalar

_I = scalar(QI)
_HALF = scalar(Fraction(1, 2))

VAR_NAMES = ("H", "Z", "Q10", "Q01", "L11")
# the unordered pairs of the variations, (H,H), (H,Z), ... (L11,L11)
VAR_PAIRS = tuple(combinations_with_replacement(VAR_NAMES, 2))

PARAM_OF = {"H": "eps00", "Z": "eps11", "Q10": "eps10", "Q01": "eps01",
            "L11": "epsL"}

# prefactors in the variation rules
_KAPPA_FIELD = {"H": QI, "Z": QI, "Q10": -QONE, "Q01": -QONE, "L11": QI}


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


def theta_theta_layers(E: GradedExpr) -> Tuple[GradedExpr, GradedExpr]:
    """The th10 th01 slot of E, split in z: its (A11, A00) layers."""
    th10, th01 = coord("th10"), coord("th01")
    slot = GradedExpr({m: c for m, c in E.terms.items()
                       if {th10, th01} <= {g for g, _ in m}})
    return slot.strip_left(th10).strip_left(th01).split_gen(coord("z"))


def split_components(E: GradedExpr) -> Dict[str, GradedExpr]:
    """Invert the superfield packing on any expression of the same shape.

    Works for the superfield itself and for anything derived from it
    linearly (variations), returning the eight slot coefficients.
    """
    minus_i = scalar(-QI)
    # the body, th10 and th01 slots, each split in z
    (c_phi00, c_phi11), (a10, b10), (a01, b01) = (
        t.restrict_theta().split_gen(coord("z"))
        for t in (E, partial_coord("th10").apply(E),
                  partial_coord("th01").apply(E)))
    c_a11, c_a00 = theta_theta_layers(E)
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
def variation_table(name: str, stage: str) -> Dict[str, GradedExpr]:
    """Variation of each component field, parameter included.

    The first-stage table is read off the superfield; the second-stage
    table is the stage map of the cached first-stage one.  Tables are
    shared, so no caller mutates them.
    """
    if stage == "y":
        ops = superspace_operators()
        eps = gexp(param(PARAM_OF[name]))
        k = scalar(_KAPPA_FIELD[name])
        return split_components(k * eps * ops[name].apply(superfield("y")))
    if stage != "x":
        raise ValueError(f"unknown stage {stage!r}")
    x = gexp(coord("x"))
    return {b: x * stage_map(e) if b in X_WEIGHTED else stage_map(e)
            for b, e in variation_table(name, "y").items()}


def table_comparison_report() -> Dict[str, dict]:
    """Engine variation tables against the hand-checked ones, entry by
    entry: five symmetries, eight fields, both stages."""
    from . import reference
    pre = reference.pre_variation_tables()
    post = reference.post_variation_tables()
    coord_tabs = reference.coordinate_variation_tables()
    out: Dict[str, dict] = {}
    for name in VAR_NAMES:
        rows: Dict[str, bool] = {}
        for stage, tab in (("y", pre[name]), ("x", post[name])):
            eng = variation_table(name, stage)
            for base, want in tab.items():
                rows[f"{stage}:{base}"] = eng[base] == want
        coords = coordinate_variations(name)
        for cn, want in coord_tabs[name].items():
            rows[f"coord:{cn}"] = coords[cn] == want
        out[name] = {"ok": all(rows.values()), "entries": rows}
    return out


def prolonged_derivation(table: Dict[str, GradedExpr], stage: str,
                         label: str = "delta") -> GeneratorDerivation:
    """Even derivation on a stage's jet ring, built from a base-field table.

    Coordinates and parameters are inert; jets prolong through the total
    derivatives; function symbols chain through their field arguments.
    """
    jet = jet_prolongation(table, stage)

    def act(g: Generator) -> Optional[GradedExpr]:
        if g.kind == "field" and g.space == stage:
            m, n = g.jet
            return jet(g.base, m, n)
        if g.kind == "fn":
            return fn_chain(g, table.__getitem__)
        return None

    return GeneratorDerivation(label, DEG00, act)


def variation_derivation(name: str, stage: str = "y",
                         parameter: Optional[GradedExpr] = None
                         ) -> GeneratorDerivation:
    """The variation as an even derivation on the stage's jet ring.

    With `parameter` given, the table's own parameter is stripped off and
    replaced by that expression (used to state closure).
    """
    base_table = variation_table(name, stage)
    if parameter is not None:
        eps = param(PARAM_OF[name])
        base_table = {b: parameter * e.strip_left(eps)
                      for b, e in base_table.items()}
    return prolonged_derivation(base_table, stage, f"delta_{name}")


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
            if g.base in TRIG and TRIG[g.base].x_image:
                name, xpow = TRIG[g.base].x_image
                img = gexp(trig(name))
                mapping[g] = gexp(coord("x"), xpow) * img if xpow else img
            elif g.base == "Vtpair":
                m, slot = g.jet
                img = gexp(pairjet(m, slot, "x"))
                if slot == 1:
                    img = gexp(coord("x"), -1) * img
                mapping[g] = img
            # shared symbols (F family, phi00 trig) pass through unchanged
    return expr.substitute(mapping)


# ----------------------------------------------------------------------
# closure
# ----------------------------------------------------------------------

def closure_report(stage: str = "y") -> List[dict]:
    """Check that two variations compose into the algebra's bracket.

    For each unordered pair the commutator of the variations (independent
    parameter copies) must equal the variation along the bracket with the
    composite parameter fixed by the algebra; both sides are compared as
    full expressions on every component field by `bracket_residuals`,
    which also fails a pair with a nonzero bracket whose commutator
    vanishes on every field.
    """
    ops = {n: variation_derivation(n, stage) for n in VAR_NAMES}
    copies = {n: gexp(param(_primed(PARAM_OF[n]))) for n in VAR_NAMES}
    ops.update((n + "'", variation_derivation(n, stage, parameter=copies[n]))
               for n in VAR_NAMES)
    relations = []
    for a, b in VAR_PAIRS:
        composite = gexp(param(PARAM_OF[a])) * copies[b]
        # commuting the first parameter through the second operator
        # reverses the operator order, hence the bracket sign s:
        # [D_A(e), D_B(e')] = s kap_A kap_B e e' [G_A, G_B}
        kap = _KAPPA_FIELD[a] * _KAPPA_FIELD[b] * bracket_sign(a, b)
        rhs = []
        for c_r, r in STRUCTURE[(a, b)]:
            key = f"{r}[{a},{b}]"
            ops[key] = variation_derivation(r, stage, parameter=composite)
            rhs.append((kap * c_r / _KAPPA_FIELD[r], key))
        relations.append((a, b + "'", -1, rhs))
    probes = {fb: gexp(field(fb, 0, 0, stage)) for fb in FIELD_BASES}
    return [{"pair": f"({a},{b})", "stage": stage,
             "status": "ok" if not res else "fail", "residuals": res}
            for (a, b), res in zip(VAR_PAIRS,
                                   bracket_residuals(ops, probes, relations))]


# ----------------------------------------------------------------------
# audits
# ----------------------------------------------------------------------

def reality_check() -> bool:
    return superfield("y").is_real()


def _audit(stage: str, key: str, measure) -> List[str]:
    """Each nonzero variation entry must have, by measure, the `key`
    attribute of the field it varies."""
    problems = []
    for name in VAR_NAMES:
        for fb, entry in variation_table(name, stage).items():
            if entry.is_zero():
                continue
            want, got = getattr(field(fb, 0, 0, stage), key), measure(entry)
            if got != want:
                problems.append(f"{name}:{fb} {key} {got} != {want}")
    return problems


def degree_audit(stage: str = "y") -> List[str]:
    """Every variation entry must carry the degree of its field."""
    return _audit(stage, "degree", GradedExpr.degree)


def dimension_audit(stage: str = "y") -> List[str]:
    """Each parameter's dimension offsets its operator's, so a variation
    entry must scale exactly like the field it varies."""
    return _audit(stage, "dim", GradedExpr.scaling_dim)
