"""Jet-space variational calculus for the two-dimensional component model.

Field equations come from left partials, so for any even variation delta
built by prolongation the chain rule gives the exact polynomial identity

    delta(L) = sum_f delta(f) E_f + D_t N0 + D_x N1 .

A sparse exact linear solver certifies invariance by rewriting delta(L)
as D_t K0 + D_x K1 with zero residual; the conserved current is j = N - K
with the transformation parameter stripped off the left.

The on-shell stages `field_equations`, `solved_forms`, `generic_eom_report`
and `action.auxiliary_solution` (keyed by nothing) and `eliminated_variation`
(keyed by symmetry name) are memoised with functools.cache and shared, so no
caller mutates them.  No memo is keyed by an expression: reductions and
certificates take any input, and such a memo would grow without bound.
The worked examples specialise `field_equations()` to a potential with
`potential.specialize_potential`, unmemoised: no memo is keyed by a
potential either.
"""

from functools import cache
from typing import Dict, List, Optional, Sequence, Tuple

from .core import (FIELD_BASES, TRIG, GaussianRational, Generator, coord,
                   field, fjet, pairjet, param, trig, trig_of)
from .expr import GradedExpr, _mono_sort_token, gexp, scalar
from .derivations import (apply_many, jet_partial, jet_prolongation,
                          solve_linear, total_space, total_t)
from .superfield import (PARAM_OF, coordinate_variations,
                         prolonged_derivation, variation_table,
                         variation_derivation)
from .action import auxiliary_jets, lagrangian
from .potential import parse_potential, specialize_potential
from . import reference

BOSONS = ("phi00", "phi11")
FERMIONS = ("psi10", "lam10", "psi01", "lam01")
DYNAMICAL = BOSONS + FERMIONS
AUXILIARY = ("A00", "A11")
SYMMETRIES = ("H", "Z", "Q10", "Q01", "L11")
# leading time order of each field equation: bosons are second order in
# time, fermions first
_TIME_ORDER = {b: 2 if b in BOSONS else 1 for b in DYNAMICAL}

_ONE = GaussianRational(1)
# on-shell rewriting stops well before this; divergence certificates widen
# their candidate pool at most this many times
_ONSHELL_ROUNDS = 200
_DIVERGENCE_ROUNDS = 3


# ----------------------------------------------------------------------
# field equations
# ----------------------------------------------------------------------

def euler_lagrange(lag: GradedExpr) -> Dict[str, GradedExpr]:
    """Rows E_f = d_f L - D_t d_{f_t} L - D_x d_{f_x} L.

    One pass over the generators checks the order and finds the bases;
    one walk takes all three jet partials of every base.
    """
    found = set()
    for g in lag.generators():
        if g.kind == "field":
            if sum(g.jet) > 1:
                raise ValueError(f"{g.name}: the density must be first order")
            if g.space == "x":
                found.add(g.base)
    bases = [b for b in FIELD_BASES if b in found]
    parts = apply_many([jet_partial(field(b, m, n, "x")) for b in bases
                        for m, n in ((0, 0), (1, 0), (0, 1))], lag)
    dt, dx = total_t("x"), total_space("x")
    return {b: parts[3 * k] - dt(parts[3 * k + 1]) - dx(parts[3 * k + 2])
            for k, b in enumerate(bases)}


@cache
def field_equations() -> Dict[str, GradedExpr]:
    """Rows of the auxiliary-eliminated Lagrangian, by base name."""
    return euler_lagrange(lagrangian(eliminate=True))


@cache
def solved_forms() -> Dict[str, GradedExpr]:
    """Each dynamical equation solved for its leading time jet, by base
    name: the value replaces field(b, _TIME_ORDER[b], 0, "x").

    The leading coefficient is a nonzero scalar, so the rewrite is exact.
    """
    return {b: solve_linear(eq, field(b, _TIME_ORDER[b], 0, "x"))
            for b, eq in field_equations().items()}


def reduce_onshell(e: GradedExpr) -> GradedExpr:
    """Rewrite reducible time jets through the solved field equations.

    Every pass replaces a jet at or above its equation's time order by a
    prolonged right side of strictly lower time order, so the loop
    terminates.
    """
    solved = solved_forms()
    jet = jet_prolongation(solved, "x")
    cur = e
    for _ in range(_ONSHELL_ROUNDS):
        subs = {g: jet(g.base, g.jet[0] - _TIME_ORDER[g.base], g.jet[1])
                for g in cur.generators()
                if g.kind == "field" and g.space == "x"
                and g.base in solved and g.jet[0] >= _TIME_ORDER[g.base]}
        if not subs:
            return cur
        cur = cur.substitute(subs)
    raise RuntimeError("on-shell reduction did not stabilize")


# ----------------------------------------------------------------------
# exact divergence certificates
# ----------------------------------------------------------------------

def _mono_expr(mono) -> GradedExpr:
    # a term key, with or without some powers removed, is canonical: the
    # ordered product of its factors gives it back
    return GradedExpr({mono: _ONE})


def _traded(mono, i: int, new: Generator,
            drop: Optional[Generator] = None) -> List[tuple]:
    """mono with one power of factor i traded for new and, when drop is
    given, one power of the first factor that is drop removed."""
    rest = []
    for j, (g, e) in enumerate(mono):
        if j == i:
            e -= 1
        elif g is drop:
            drop = None
            e -= 1
        if e:
            rest.append((g, e))
    return list((gexp(new) * _mono_expr(tuple(rest))).terms)


def _lowered(mono, which: str) -> List[tuple]:
    """Monomials obtained by trading one jet derivative of one factor."""
    outs = []
    for i, (g, e) in enumerate(mono):
        if g.kind != "field" or g.space != "x":
            continue
        m, n = g.jet
        if which == "t":
            if m == 0:
                continue
            low = field(g.base, m - 1, n, "x")
        else:
            if n == 0:
                continue
            low = field(g.base, m, n - 1, "x")
        outs.extend(_traded(mono, i, low))
    return outs


def _raised(mono, which: str) -> List[tuple]:
    g = coord("t") if which == "t" else coord("x")
    e = gexp(g) * _mono_expr(mono)
    return list(e.terms.keys())


def _fn_antiderivatives(g: Generator) -> List[Tuple[Generator, str]]:
    """Symbols whose field derivative contains g, with the chain field."""
    out: List[Tuple[Generator, str]] = []
    if g.kind != "fn":
        return out
    base = g.base
    if base.endswith("pair"):
        m, slot = g.jet
        if m >= 1:
            out.append((pairjet(m - 1, slot, g.space), "phi00"))
            out.append((pairjet(m - 1, 1 - slot, g.space), "phi11"))
    elif base == "F":
        if g.jet[0] >= 1:
            out.append((fjet(g.jet[0] - 1), "phi00"))
    else:
        out += [(trig(h), r.field) for h, r in TRIG.items()
                if r.target == base]
    return out


def _chain_lowered(mono, which: str) -> List[tuple]:
    """Trade one first-order jet factor against a lowered function symbol.

    Inverts the chain rule: D(h) contributes g * jet, so a monomial
    carrying both g and the matching jet admits the candidate with h in
    place of g and one jet power removed.
    """
    jet_of = {wf: field(wf, 1, 0, "x") if which == "t"
              else field(wf, 0, 1, "x") for wf in ("phi00", "phi11")}
    outs = []
    for i, (g, e) in enumerate(mono):
        for h, wf in _fn_antiderivatives(g):
            jg = jet_of[wf]
            if any(gg is jg for gg, _ in mono):
                outs.extend(_traded(mono, i, h, jg))
    return outs


def _solve_sparse(columns: List[dict], rhs: dict) -> Optional[List]:
    """Exact Gauss-Jordan; free variables pinned to zero.

    Rows are indexed by monomials in canonical order and the first row
    carrying a column becomes its pivot, so the outcome is deterministic.
    """
    universe = set(rhs)
    for col in columns:
        universe.update(col)
    row_list = sorted(universe, key=_mono_sort_token)
    row_index = {m: k for k, m in enumerate(row_list)}

    table: List[Dict[int, GaussianRational]] = [dict() for _ in row_list]
    col_rows: List[set] = [set() for _ in columns]
    for ci, col in enumerate(columns):
        for mono, c in col.items():
            ri = row_index[mono]
            table[ri][ci] = c
            col_rows[ci].add(ri)
    b = [GaussianRational(0)] * len(row_list)
    for mono, c in rhs.items():
        b[row_index[mono]] = c

    pivot_of: Dict[int, int] = {}
    used = set()
    for ci in range(len(columns)):
        live = sorted(r for r in col_rows[ci] if r not in used)
        if not live:
            continue
        pr = live[0]
        used.add(pr)
        pivot_of[ci] = pr
        inv = _ONE / table[pr][ci]
        for cj, v in list(table[pr].items()):
            table[pr][cj] = v * inv
        b[pr] = b[pr] * inv
        for r in list(col_rows[ci]):
            if r == pr:
                continue
            f = table[r].pop(ci)
            col_rows[ci].discard(r)
            for cj, v in table[pr].items():
                if cj == ci:
                    continue
                w = table[r].get(cj, GaussianRational(0)) - f * v
                if not w:
                    if cj in table[r]:
                        del table[r][cj]
                        col_rows[cj].discard(r)
                else:
                    table[r][cj] = w
                    col_rows[cj].add(r)
            b[r] = b[r] - f * b[pr]

    # an unpivoted row ties free columns only, which are pinned to zero,
    # so its right side must already be zero
    if any(b[r] for r in range(len(row_list)) if r not in used):
        return None

    sol = [GaussianRational(0)] * len(columns)
    for ci, pr in pivot_of.items():
        sol[ci] = b[pr]
    return sol


def divergence_split(s: GradedExpr) -> Tuple[GradedExpr, GradedExpr]:
    """Write s = D_t K0 + D_x K1 exactly, raising if no form exists.

    Candidate monomials trade one time jet (toward K0) or one space jet
    (toward K1); when explicit coordinates appear, coordinate-raised
    monomials join the pool.  Free coefficients are pinned to zero, so
    the certificate is deterministic.
    """
    if not s.terms:
        return GradedExpr.zero(), GradedExpr.zero()
    dt, dx = total_t("x"), total_space("x")
    tgen, xgen = coord("t"), coord("x")
    has_coord = any(g is tgen or g is xgen for g in s.generators())

    seen0: Dict[tuple, None] = {}
    seen1: Dict[tuple, None] = {}

    def extend(monos) -> None:
        for mono in monos:
            for which, seen in (("t", seen0), ("x", seen1)):
                for mm in _lowered(mono, which) + _chain_lowered(mono, which):
                    seen.setdefault(mm)
                if has_coord:
                    for mm in _raised(mono, which):
                        seen.setdefault(mm)

    extend(sorted(s.terms.keys(), key=_mono_sort_token))
    for _ in range(_DIVERGENCE_ROUNDS):
        cands0 = sorted(seen0, key=_mono_sort_token)
        cands1 = sorted(seen1, key=_mono_sort_token)
        cols = [dt(_mono_expr(m)).terms for m in cands0]
        cols += [dx(_mono_expr(m)).terms for m in cands1]
        sol = _solve_sparse(cols, s.terms)
        if sol is not None:
            k0 = GradedExpr.zero()
            k1 = GradedExpr.zero()
            for c, mono in zip(sol[:len(cands0)], cands0):
                if c:
                    k0 = k0 + scalar(c) * _mono_expr(mono)
            for c, mono in zip(sol[len(cands0):], cands1):
                if c:
                    k1 = k1 + scalar(c) * _mono_expr(mono)
            if dt(k0) + dx(k1) != s:
                raise AssertionError("divergence certificate failed")
            return k0, k1
        produced = set()
        for col in cols:
            produced.update(col.keys())
        extend(sorted(produced, key=_mono_sort_token))
    raise ValueError("no exact divergence form found")


# ----------------------------------------------------------------------
# Noether currents
# ----------------------------------------------------------------------

@cache
def eliminated_variation(name: str):
    """Variation with the auxiliaries traded for their algebraic solutions."""
    table = variation_table(name, "x")
    mapping = auxiliary_jets(table.values())
    table = {b: e.substitute(mapping) for b, e in table.items()
             if b not in AUXILIARY}
    return prolonged_derivation(table, "x", f"delta_{name}[onshell]")


def noether(name: str) -> dict:
    """Canonical current, boundary certificate, and their difference, for
    the auxiliary-eliminated Lagrangian."""
    lag = lagrangian(eliminate=True)
    delta = eliminated_variation(name)
    eps = param(PARAM_OF[name])
    dt, dx = total_t("x"), total_space("x")
    eqs = field_equations()
    dl = delta(lag)

    # the momenta dL/db_t and dL/db_x of every base, in one walk
    momenta = apply_many([jet_partial(field(b, m, n, "x")) for b in eqs
                          for m, n in ((1, 0), (0, 1))], lag)
    n0 = GradedExpr.zero()
    n1 = GradedExpr.zero()
    onshell = GradedExpr.zero()
    for k, b in enumerate(eqs):
        df = delta(gexp(field(b, 0, 0, "x")))
        n0 = n0 + df * momenta[2 * k]
        n1 = n1 + df * momenta[2 * k + 1]
        onshell = onshell + df * eqs[b]
    if dl != onshell + dt(n0) + dx(n1):
        raise AssertionError(f"chain-rule identity failed for {name}")

    k0, k1 = divergence_split(dl)
    j0, j1 = n0 - k0, n1 - k1
    return {
        "name": name,
        "parameter": eps,
        "delta_lagrangian": dl,
        "canonical": (n0, n1),
        "boundary": (k0, k1),
        "dressed": (j0, j1),
        "current": (j0.strip_left(eps), j1.strip_left(eps)),
    }


def current_table() -> Dict[str, dict]:
    return {name: noether(name) for name in SYMMETRIES}


def _anchor_scale(engine: GradedExpr,
                  ref: GradedExpr) -> Optional[GaussianRational]:
    for mono, c in ref.sorted_terms():
        ec = engine.terms.get(mono)
        if ec is not None:
            return ec / c
    return None


def _scaled_residuals(engine: Sequence[GradedExpr],
                      ref: Sequence[GradedExpr]
                      ) -> Tuple[Optional[GaussianRational],
                                 Tuple[GradedExpr, ...]]:
    """One scale, pinned on the first entry pair that shares a monomial,
    and the residuals engine - scale * ref entry by entry; with no shared
    monomial, None and the engine entries."""
    scale = next((s for s in map(_anchor_scale, engine, ref)
                  if s is not None), None)
    if scale is None:
        return None, tuple(engine)
    return scale, tuple(e - scalar(scale) * r for e, r in zip(engine, ref))


def current_comparison() -> Dict[str, dict]:
    """Engine currents against the hand-checked pairs, with conservation.

    The scale is pinned on the first shared monomial; any leftover
    difference must be an improvement term, conserved identically
    off-shell (a trivial law, Olver 4.3), and is reported rather than
    discarded.  With no shared monomial it fails.
    """
    data = current_table()
    refs = reference.reference_currents()
    dt, dx = total_t("x"), total_space("x")
    out: Dict[str, dict] = {}
    for name, item in data.items():
        j0, j1 = item["current"]
        scale, (res0, res1) = _scaled_residuals((j0, j1), refs[name])
        div = reduce_onshell(dt(j0) + dx(j1))
        entry = {
            "scale": scale,
            "matches_reference": not res0.terms and not res1.terms,
            "conserved": not div.terms,
        }
        if res0.terms or res1.terms:
            entry["improvement"] = (res0, res1)
            entry["improvement_conserved"] = (
                scale is not None and not (dt(res0) + dx(res1)).terms)
        out[name] = entry
    return out


def invariance_report(eliminate: bool = False) -> Dict[str, dict]:
    """Exact divergence certificates for the five variations."""
    lag = lagrangian(eliminate=eliminate)
    out: Dict[str, dict] = {}
    for name in SYMMETRIES:
        delta = (eliminated_variation(name) if eliminate
                 else variation_derivation(name, "x"))
        dl = delta(lag)
        try:
            k0, k1 = divergence_split(dl)
            out[name] = {"ok": True, "boundary": (k0, k1)}
        except ValueError:
            out[name] = {"ok": False, "residual": dl}
    return out


def table_comparison_report() -> Dict[str, dict]:
    """Engine variation tables against the hand-checked ones, entry by
    entry: five symmetries, eight fields, both stages."""
    pre = reference.pre_variation_tables()
    post = reference.post_variation_tables()
    out: Dict[str, dict] = {}
    for name in SYMMETRIES:
        rows: Dict[str, bool] = {}
        for stage, tab in (("y", pre[name]), ("x", post[name])):
            eng = variation_table(name, stage)
            for base, want in tab.items():
                rows[f"{stage}:{base}"] = eng[base] == want
        coords = coordinate_variations(name)
        for cn, want in reference.coordinate_variation_tables()[name].items():
            rows[f"coord:{cn}"] = coords[cn] == want
        out[name] = {"ok": all(rows.values()), "entries": rows}
    return out


# ----------------------------------------------------------------------
# equations of motion against the hand-checked displays
# ----------------------------------------------------------------------

def eom_comparison(engine: Dict[str, GradedExpr],
                   ref: Dict[str, GradedExpr]) -> Dict[str, dict]:
    """Row-by-row match up to one recorded scale per row."""
    out: Dict[str, dict] = {}
    for b, ref_row in ref.items():
        scale, (res,) = _scaled_residuals((engine[b],), (ref_row,))
        out[b] = {"scale": scale, "exact": not res.terms, "residual": res}
    return out


def _specialized_equations(spec: str) -> Dict[str, GradedExpr]:
    """Field equations with the pair symbols of a parsed potential spec in
    closed form; not memoised, since no memo is keyed by a potential."""
    V = parse_potential(spec)
    return {b: specialize_potential(e, V)
            for b, e in field_equations().items()}


@cache
def generic_eom_report() -> Dict[str, dict]:
    return eom_comparison(field_equations(), reference.generic_eom())


def quadratic_eom_report() -> Dict[str, dict]:
    return eom_comparison(_specialized_equations("poly:0,0,1/2"),
                          reference.quadratic_eom_printed())


def trig_eom_report() -> Dict[str, dict]:
    """Trigonometric rows against the literal displays.

    Scales are pinned by the generic comparison, so the residual here is
    exactly (scale times) the discrepancy between the displayed rows and
    the field equations of the displayed Lagrangian.  The displays flip
    some fermion-term signs, so those residuals are expected; each one
    must vanish when the fermions are switched off.
    """
    engine = _specialized_equations("cos")
    printed = reference.sg_eom_printed()
    scales = {b: e["scale"] for b, e in generic_eom_report().items()}
    rep: Dict[str, dict] = {}
    for b, ref_row in printed.items():
        scale = scales[b]
        res = engine[b] - scalar(scale) * ref_row
        subs = {g: GradedExpr.zero() for g in res.generators()
                if g.kind == "field" and g.base in FERMIONS}
        rep[b] = {"scale": scale, "exact": not res.terms, "residual": res,
                  "residual_fermionic": not res.substitute(subs).terms}
    return rep


def _sector_off(e: GradedExpr, keep: str) -> GradedExpr:
    """Shut off the complementary boson sector and all fermions."""
    other = "phi11" if keep == "phi00" else "phi00"
    subs: Dict[Generator, GradedExpr] = {}
    for g in e.generators():
        if g.kind == "field" and (g.base == other or g.base in FERMIONS):
            subs[g] = GradedExpr.zero()
        elif g.base in TRIG and TRIG[g.base].field == other:
            # sines vanish at zero field and cosines are one
            subs[g] = GradedExpr.const(1 - TRIG[g.base].odd)
    return e.substitute(subs)


def sine_gordon_reduction() -> Dict[str, dict]:
    """Single-field reductions of the trigonometric system, both sectors."""
    eqs = _specialized_equations("cos")
    ref00 = reference.sg_reduced_eom()

    def mirror(e: GradedExpr) -> GradedExpr:
        subs: Dict[Generator, GradedExpr] = {}
        for g in e.generators():
            if g.kind == "field" and g.base == "phi00":
                subs[g] = gexp(field("phi11", g.jet[0], g.jet[1], "x"))
            elif g.base in TRIG:
                subs[g] = gexp(trig_of("phi11", "x", TRIG[g.base].odd))
        return e.substitute(subs)

    return eom_comparison({b: _sector_off(eqs[b], b) for b in BOSONS},
                          {"phi00": ref00, "phi11": mirror(ref00)})
