"""Jet-space variational calculus for the two-dimensional component model.

Field equations come from left partials, so for any even variation delta
built by prolongation the chain rule gives the exact polynomial identity

    delta(L) = sum_f delta(f) E_f + D_t N0 + D_x N1 .

A sparse exact linear solver certifies invariance by rewriting delta(L)
as D_t K0 + D_x K1 with zero residual; the conserved current is j = N - K
with the transformation parameter stripped off the left.  The candidate
pool for K0 and K1 is built once from the monomials of delta(L), and an
expression that pool cannot absorb has no certificate.  The solver
returns the solution on the greedy column basis in candidate order, free
columns pinned to zero.  A column with a private row (no other live
column touches it) is in that basis, and dropping it changes no other
column's membership, since no combination that uses it keeps that row
at zero.  So such columns are peeled first, each valued by its private
row and subtracted from the right side; Gauss-Jordan eliminates only
the rest.

The on-shell stages `field_equations`, `solved_forms` and
`action.auxiliary_solution` (keyed by nothing) and `eliminated_variation`
(keyed by symmetry name) are memoised with functools.cache and shared, so no
caller mutates them.  Reductions and display comparisons keep no memo;
`trig_eom_report` takes the generic comparison that pins its scales.  The
divergence certificates keep one bounded by the number of symmetries,
keyed by the canonical term set: `noether` reads back the certificates
`invariance_report` built, and a stream of other inputs only evicts.
The worked examples specialise `field_equations()` to a potential with
`potential.specialize_potential`, unmemoised: no memo is keyed by a
potential either.
"""

from functools import cache, lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .core import (FIELD_BASES, QONE, QZERO, TRIG, GaussianRational,
                   Generator, coord, field, fjet, pairjet, param, trig,
                   trig_of)
from .expr import (GradedExpr, _add_terms, _mono_mul, _mono_sort_token,
                   gexp, scalar)
from .derivations import (apply_many, jet_partial, rewrite_jets,
                          solve_linear, total_space, total_t)
from .superfield import (PARAM_OF, VAR_NAMES, coordinate_variations,
                         prolonged_derivation, variation_table,
                         variation_derivation)
from .action import eliminate_auxiliary, lagrangian
from . import reference

BOSONS = ("phi00", "phi11")
FERMIONS = ("psi10", "lam10", "psi01", "lam01")
DYNAMICAL = BOSONS + FERMIONS
AUXILIARY = ("A00", "A11")
SYMMETRIES = VAR_NAMES
# leading time order of each field equation: bosons are second order in
# time, fermions first
_TIME_ORDER = {b: 2 if b in BOSONS else 1 for b in DYNAMICAL}


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
    """Rewrite reducible time jets through the solved field equations,
    whose right sides are of lower time order than their jets."""
    return rewrite_jets(e, solved_forms(), _TIME_ORDER)


# ----------------------------------------------------------------------
# exact divergence certificates
# ----------------------------------------------------------------------

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
    hit = _mono_mul(((new, 1),), tuple(rest))
    return [] if hit is None else [hit[1]]


def _raised(mono, which: str) -> List[tuple]:
    hit = _mono_mul(((coord(which), 1),), mono)
    return [] if hit is None else [hit[1]]


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


# the first-order jets of each chain field, toward K0 and toward K1
_CHAIN_JETS = {wf: (field(wf, 1, 0, "x"), field(wf, 0, 1, "x"))
               for wf in ("phi00", "phi11")}


def _solve_sparse(columns: List[dict], rhs: dict) -> Optional[List]:
    """The solution on the greedy column basis, free columns pinned to
    zero, or None: columns with a private row are peeled off first."""
    b = dict(rhs)
    touching: Dict[tuple, set] = {}
    for ci, col in enumerate(columns):
        for mono in col:
            touching.setdefault(mono, set()).add(ci)
    sol = [QZERO] * len(columns)
    live = set(range(len(columns)))
    private = [m for m, cis in touching.items() if len(cis) == 1]
    while private:
        r = private.pop()
        if len(touching[r]) != 1:
            continue
        ci, = touching[r]
        live.discard(ci)
        col = columns[ci]
        br = b.get(r)
        if br:
            x = sol[ci] = br / col[r]
            _add_terms(b, ((mono, -(x * c)) for mono, c in col.items()))
        for mono in col:
            touching[mono].discard(ci)
            if len(touching[mono]) == 1:
                private.append(mono)
    return _gauss_jordan(columns, sorted(live), b, sol)


def _gauss_jordan(columns: List[dict], live: List[int], rhs: dict,
                  sol: List) -> Optional[List]:
    """sol with the live columns solved by exact Gauss-Jordan in column
    order, free ones pinned to zero, or None; a column's pivot is its
    first unused row in canonical order."""
    rows: Dict[tuple, Dict[int, GaussianRational]] = {
        m: {} for m in sorted(set(rhs).union(*(columns[ci] for ci in live)),
                              key=_mono_sort_token)}
    for ci in live:
        for mono, c in columns[ci].items():
            rows[mono][ci] = c
    b = {m: rhs.get(m, QZERO) for m in rows}
    pivots: Dict[tuple, int] = {}
    for ci in live:
        pr = next((m for m, row in rows.items()
                   if ci in row and m not in pivots), None)
        if pr is None:
            continue
        pivots[pr] = ci
        prow = rows[pr]
        inv = QONE / prow[ci]
        for cj in prow:
            prow[cj] = prow[cj] * inv
        b[pr] = b[pr] * inv
        for m, row in rows.items():
            if m == pr or ci not in row:
                continue
            f = row.pop(ci)
            _add_terms(row, ((cj, -(f * v)) for cj, v in prow.items()
                             if cj != ci))
            b[m] = b[m] - f * b[pr]
    # an unpivoted row ties free columns only, which are pinned to zero,
    # so its right side must already be zero
    if any(b[m] for m in rows if m not in pivots):
        return None
    for m, ci in pivots.items():
        sol[ci] = b[m]
    return sol


def divergence_split(s: GradedExpr) -> Tuple[GradedExpr, GradedExpr]:
    """Write s = D_t K0 + D_x K1 exactly, raising if no form exists.

    Certificates are memoised by the canonical term set of s, in a memo
    bounded at one entry per symmetry: `noether` asks again for the ones
    `invariance_report` built.  A failure is never stored, so it raises
    on every call.
    """
    if not s.terms:
        return GradedExpr.zero(), GradedExpr.zero()
    return _solved_split(frozenset(s.terms.items()))


@lru_cache(maxsize=len(SYMMETRIES))
def _solved_split(terms: frozenset) -> Tuple[GradedExpr, GradedExpr]:
    """The certificate of the expression with these terms, checked.

    Candidate monomials trade one time jet (toward K0) or one space jet
    (toward K1), or invert the chain rule: D(h) contributes g * jet, so a
    monomial carrying g and the matching first-order jet admits h in
    place of g with one jet power removed.  When explicit coordinates
    appear, coordinate-raised monomials join the pool.  One walk of each
    monomial of s emits both directions, and that one pool is solved
    once: no certificate the engine meets needs a wider one.  Free
    coefficients are pinned to zero, so the certificate is deterministic.
    """
    s = GradedExpr(dict(terms))
    dt, dx = total_t("x"), total_space("x")
    tgen, xgen = coord("t"), coord("x")
    has_coord = any(g is tgen or g is xgen for g in s.generators())

    seen = (set(), set())   # K0 and K1 candidates, sorted before use
    for mono in s.terms:
        for i, (g, _) in enumerate(mono):
            if g.kind == "field" and g.space == "x":
                m, n = g.jet
                if m:
                    seen[0].update(_traded(
                        mono, i, field(g.base, m - 1, n, "x")))
                if n:
                    seen[1].update(_traded(
                        mono, i, field(g.base, m, n - 1, "x")))
            for h, wf in _fn_antiderivatives(g):
                for pool, jg in zip(seen, _CHAIN_JETS[wf]):
                    if any(gg is jg for gg, _ in mono):
                        pool.update(_traded(mono, i, h, jg))
        if has_coord:
            for pool, which in zip(seen, "tx"):
                pool.update(_raised(mono, which))

    cands0 = sorted(seen[0], key=_mono_sort_token)
    cands1 = sorted(seen[1], key=_mono_sort_token)
    sol = _solve_sparse(dt.columns(cands0) + dx.columns(cands1), s.terms)
    if sol is None:
        raise ValueError("no exact divergence form found")
    k0 = GradedExpr({m: c for m, c in zip(cands0, sol) if c})
    k1 = GradedExpr({m: c for m, c in zip(cands1, sol[len(cands0):]) if c})
    if dt(k0) + dx(k1) != s:
        raise AssertionError("divergence certificate failed")
    return k0, k1


# ----------------------------------------------------------------------
# Noether currents
# ----------------------------------------------------------------------

@cache
def eliminated_variation(name: str):
    """Variation with the auxiliaries traded for their algebraic solutions."""
    table = {b: eliminate_auxiliary(e)
             for b, e in variation_table(name, "x").items()
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
    discarded.  With no shared monomial it fails, and so does a symmetry
    with no divergence certificate, whose entry records why.
    """
    refs = reference.reference_currents()
    dt, dx = total_t("x"), total_space("x")
    out: Dict[str, dict] = {}
    for name in SYMMETRIES:
        try:
            j0, j1 = noether(name)["current"]
        except ValueError as exc:
            out[name] = {"scale": None, "matches_reference": False,
                         "conserved": False, "certificate": str(exc)}
            continue
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
    coord_tabs = reference.coordinate_variation_tables()
    out: Dict[str, dict] = {}
    for name in SYMMETRIES:
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
    from .potential import parse_potential, specialize_potential
    V = parse_potential(spec)
    return {b: specialize_potential(e, V)
            for b, e in field_equations().items()}


def generic_eom_report() -> Dict[str, dict]:
    return eom_comparison(field_equations(), reference.generic_eom())


def quadratic_eom_report() -> Dict[str, dict]:
    return eom_comparison(_specialized_equations("poly:0,0,1/2"),
                          reference.quadratic_eom_printed())


def trig_eom_report(generic: Dict[str, dict]) -> Dict[str, dict]:
    """Trigonometric rows against the literal displays.

    Scales are pinned by `generic`, the generic comparison, so the
    residual here is exactly (scale times) the discrepancy between the
    displayed rows and the field equations of the displayed Lagrangian.
    The displays misprint some fermion terms, so each residual must be
    scale times its row of `reference.sg_eom_errata`, term for term.
    """
    engine = _specialized_equations("cos")
    errata = reference.sg_eom_errata()
    rep: Dict[str, dict] = {}
    for b, ref_row in reference.sg_eom_printed().items():
        scale = generic[b]["scale"]
        res = engine[b] - scalar(scale) * ref_row
        rep[b] = {"scale": scale, "exact": not res.terms, "residual": res,
                  "matches_erratum": res == scalar(scale) * errata[b]}
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
