"""Jet-space variational calculus for the two-dimensional component model.

Field equations come from left partials, so for any even variation delta
built by prolongation the chain rule gives the exact polynomial identity

    delta(L) = sum_f delta(f) E_f + D_t N0 + D_x N1 .

A sparse exact linear solver certifies invariance by rewriting delta(L)
as D_t K0 + D_x K1 with zero residual; the conserved current is j = N - K
with the transformation parameter stripped off the left.
"""

from typing import Dict, List, Optional, Tuple

from .core import (FIELD_BASES, GaussianRational, Generator, coord, field,
                   fjet, pairjet, param, trig)
from .expr import GradedExpr, _mono_sort_token, gexp, scalar
from .derivations import jet_partial, total_t, total_space
from .superfield import (PARAM_OF, coordinate_variations,
                         prolonged_derivation, variation_table,
                         variation_derivation)
from .action import auxiliary_jets, auxiliary_solution, lagrangian
from . import reference

BOSONS = ("phi00", "phi11")
FERMIONS = ("psi10", "lam10", "psi01", "lam01")
DYNAMICAL = BOSONS + FERMIONS
AUXILIARY = ("A00", "A11")
SYMMETRIES = ("H", "Z", "Q10", "Q01", "L11")

_ONE = GaussianRational(1)
# on-shell rewriting stops well before this; divergence certificates widen
# their candidate pool at most this many times
_ONSHELL_ROUNDS = 200
_DIVERGENCE_ROUNDS = 3


# ----------------------------------------------------------------------
# field equations
# ----------------------------------------------------------------------

def _bases_present(lag: GradedExpr) -> Tuple[str, ...]:
    found = {g.base for g in lag.generators()
             if g.kind == "field" and g.space == "x"}
    return tuple(b for b in FIELD_BASES if b in found)


def euler_lagrange(lag: GradedExpr) -> Dict[str, GradedExpr]:
    """Rows E_f = d_f L - D_t d_{f_t} L - D_x d_{f_x} L."""
    for g in lag.generators():
        if g.kind == "field" and sum(g.jet) > 1:
            raise ValueError(f"{g.name}: the density must be first order")
    dt, dx = total_t("x"), total_space("x")
    out = {}
    for b in _bases_present(lag):
        row = jet_partial(field(b, 0, 0, "x"))(lag)
        row = row - dt(jet_partial(field(b, 1, 0, "x"))(lag))
        row = row - dx(jet_partial(field(b, 0, 1, "x"))(lag))
        out[b] = row
    return out


def solved_forms() -> Dict[Generator, GradedExpr]:
    """Each dynamical equation solved for its leading time jet.

    Bosons are second order in time, fermions first; the leading
    coefficient is a nonzero scalar, so the rewrite is exact.
    """
    eqs = euler_lagrange(lagrangian(eliminate=True))
    out: Dict[Generator, GradedExpr] = {}
    for b, eq in eqs.items():
        if b in AUXILIARY:
            continue
        lead = field(b, 2 if b in BOSONS else 1, 0, "x")
        rest, coeff = eq.split_gen(lead)
        if set(coeff.terms.keys()) != {()}:
            raise AssertionError(f"{b} row is not linear in {lead.name}")
        out[lead] = scalar(GaussianRational(-1) / coeff.terms[()]) * rest
    return out


def reduce_onshell(e: GradedExpr,
                   solved: Optional[Dict[Generator, GradedExpr]] = None
                   ) -> GradedExpr:
    """Rewrite reducible time jets through the solved field equations.

    Every pass replaces a jet at or above its equation's time order by a
    prolonged right side of strictly lower time order, so the loop
    terminates.
    """
    if solved is None:
        solved = solved_forms()
    order = {lead.base: lead.jet[0] for lead in solved}
    dt, dx = total_t("x"), total_space("x")
    images: Dict[Generator, GradedExpr] = {}

    def image(g: Generator) -> GradedExpr:
        hit = images.get(g)
        if hit is None:
            m, n = g.jet
            m0 = order[g.base]
            hit = solved[field(g.base, m0, 0, "x")]
            for _ in range(n):
                hit = dx(hit)
            for _ in range(m - m0):
                hit = dt(hit)
            images[g] = hit
        return hit

    cur = e
    for _ in range(_ONSHELL_ROUNDS):
        subs = {g: image(g) for g in cur.generators()
                if g.kind == "field" and g.space == "x"
                and g.base in order and g.jet[0] >= order[g.base]}
        if not subs:
            return cur
        cur = cur.substitute(subs)
    raise RuntimeError("on-shell reduction did not stabilize")


# ----------------------------------------------------------------------
# exact divergence certificates
# ----------------------------------------------------------------------

def _mono_expr(mono) -> GradedExpr:
    out = GradedExpr.const(_ONE)
    for g, e in mono:
        out = out * gexp(g, e)
    return out


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
        acc = GradedExpr.const(_ONE)
        for j, (gg, ee) in enumerate(mono):
            if j == i:
                acc = acc * gexp(low)
                if ee != 1:
                    acc = acc * gexp(gg, ee - 1)
            else:
                acc = acc * gexp(gg, ee)
        outs.extend(acc.terms.keys())
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
    elif base in ("S00", "C00"):
        out.append((trig("C00" if base == "S00" else "S00"), "phi00"))
    elif base in ("S11", "C11"):
        out.append((trig("C11" if base == "S11" else "S11"), "phi11"))
    elif base in ("S11y", "C11y"):
        out.append((trig("C11y" if base == "S11y" else "S11y"), "phi11"))
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
            if not any(gg is jg for gg, _ in mono):
                continue
            acc = GradedExpr.const(_ONE)
            removed = False
            for j, (gg, ee) in enumerate(mono):
                if j == i:
                    acc = acc * gexp(h)
                    if ee != 1:
                        acc = acc * gexp(gg, ee - 1)
                elif gg is jg and not removed:
                    removed = True
                    if ee != 1:
                        acc = acc * gexp(gg, ee - 1)
                else:
                    acc = acc * gexp(gg, ee)
            outs.extend(acc.terms.keys())
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

    for r in range(len(row_list)):
        if r not in used and not table[r] and b[r]:
            return None
    # with Gauss-Jordan sweeps the unused rows must be consistent too
    for r in range(len(row_list)):
        if r not in used and table[r]:
            # row still ties free columns only; rhs must already be zero
            if b[r]:
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
            for mm in _lowered(mono, "t"):
                seen0.setdefault(mm)
            for mm in _lowered(mono, "x"):
                seen1.setdefault(mm)
            for mm in _chain_lowered(mono, "t"):
                seen0.setdefault(mm)
            for mm in _chain_lowered(mono, "x"):
                seen1.setdefault(mm)
            if has_coord:
                for mm in _raised(mono, "t"):
                    seen0.setdefault(mm)
                for mm in _raised(mono, "x"):
                    seen1.setdefault(mm)

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

def eliminated_variation(name: str):
    """Variation with the auxiliaries traded for their algebraic solutions."""
    table = variation_table(name, "x")
    mapping = auxiliary_jets(table.values(), auxiliary_solution())
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
    eqs = euler_lagrange(lag)
    dl = delta(lag)

    n0 = GradedExpr.zero()
    n1 = GradedExpr.zero()
    onshell = GradedExpr.zero()
    for b in eqs:
        df = delta(gexp(field(b, 0, 0, "x")))
        n0 = n0 + df * jet_partial(field(b, 1, 0, "x"))(lag)
        n1 = n1 + df * jet_partial(field(b, 0, 1, "x"))(lag)
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


def current_comparison() -> Dict[str, dict]:
    """Engine currents against the hand-checked pairs, with conservation.

    The scale is pinned on the first shared monomial; any leftover
    difference must itself be a conserved pair (an improvement term) and
    is reported rather than discarded.
    """
    data = current_table()
    refs = reference.reference_currents()
    solved = solved_forms()
    dt, dx = total_t("x"), total_space("x")
    out: Dict[str, dict] = {}
    for name, item in data.items():
        j0, j1 = item["current"]
        r0, r1 = refs[name]
        scale = _anchor_scale(j0, r0)
        if scale is None:
            scale = _anchor_scale(j1, r1)
        if scale is None:
            res0, res1 = j0, j1
        else:
            res0 = j0 - scalar(scale) * r0
            res1 = j1 - scalar(scale) * r1
        div = reduce_onshell(dt(j0) + dx(j1), solved)
        entry = {
            "scale": scale,
            "matches_reference": not res0.terms and not res1.terms,
            "conserved": not div.terms,
        }
        if res0.terms or res1.terms:
            idiv = reduce_onshell(dt(res0) + dx(res1), solved)
            entry["improvement"] = (res0, res1)
            entry["improvement_conserved"] = not idiv.terms
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

def specialization_map(spec: Dict[str, GradedExpr]
                       ) -> Dict[Generator, GradedExpr]:
    """Name-keyed potential data as a generator substitution."""
    out: Dict[Generator, GradedExpr] = {}
    for m in range(0, 8):
        for slot in (0, 1):
            g = pairjet(m, slot, "x")
            if g.name in spec:
                out[g] = spec[g.name]
    return out


def eom_table(spec: Optional[Dict[str, GradedExpr]] = None
              ) -> Dict[str, GradedExpr]:
    """Field equations of the auxiliary-eliminated Lagrangian, optionally
    specialized to name-keyed potential data."""
    eqs = euler_lagrange(lagrangian(eliminate=True))
    if spec is not None:
        subs = specialization_map(spec)
        eqs = {b: e.substitute(subs) for b, e in eqs.items()}
    return eqs


def eom_comparison(engine: Dict[str, GradedExpr],
                   ref: Dict[str, GradedExpr]) -> Dict[str, dict]:
    """Row-by-row match up to one recorded scale per row."""
    out: Dict[str, dict] = {}
    for b, ref_row in ref.items():
        row = engine[b]
        scale = _anchor_scale(row, ref_row)
        res = row - scalar(scale) * ref_row if scale is not None else row
        out[b] = {"scale": scale, "exact": not res.terms, "residual": res}
    return out


def generic_eom_report() -> Dict[str, dict]:
    return eom_comparison(eom_table(), reference.generic_eom())


def quadratic_eom_report() -> Dict[str, dict]:
    return eom_comparison(eom_table(spec=reference.quadratic_specialization()),
                          reference.quadratic_eom_printed())


def trig_eom_report() -> Dict[str, dict]:
    """Trigonometric rows against the literal displays.

    Scales are pinned by the generic comparison, so the residual here is
    exactly (scale times) the discrepancy between the displayed rows and
    the field equations of the displayed Lagrangian.  The displays flip
    some fermion-term signs, so those residuals are expected; each one
    must vanish when the fermions are switched off.
    """
    engine = eom_table(spec=reference.trigonometric_specialization())
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
    sin_off = "S11" if keep == "phi00" else "S00"
    cos_one = "C11" if keep == "phi00" else "C00"
    subs: Dict[Generator, GradedExpr] = {}
    for g in e.generators():
        if g.kind == "field" and (g.base == other or g.base in FERMIONS):
            subs[g] = GradedExpr.zero()
        elif g.kind == "fn" and g.base == sin_off:
            subs[g] = GradedExpr.zero()
        elif g.kind == "fn" and g.base == cos_one:
            subs[g] = GradedExpr.const(_ONE)
    return e.substitute(subs)


def sine_gordon_reduction() -> Dict[str, dict]:
    """Single-field reductions of the trigonometric system, both sectors."""
    eqs = eom_table(spec=reference.trigonometric_specialization())
    ref00 = reference.sg_reduced_eom()

    def mirror(e: GradedExpr) -> GradedExpr:
        subs: Dict[Generator, GradedExpr] = {}
        for g in e.generators():
            if g.kind == "field" and g.base == "phi00":
                subs[g] = gexp(field("phi11", g.jet[0], g.jet[1], "x"))
            elif g.kind == "fn" and g.base in ("S00", "C00"):
                subs[g] = gexp(trig("S11" if g.base == "S00" else "C11"))
        return e.substitute(subs)

    out: Dict[str, dict] = {}
    for keep, ref in (("phi00", ref00), ("phi11", mirror(ref00))):
        row = _sector_off(eqs[keep], keep)
        scale = _anchor_scale(row, ref)
        res = row - scalar(scale) * ref if scale is not None else row
        out[keep] = {"scale": scale, "exact": not res.terms, "residual": res}
    return out
