"""Euler-Lagrange rows, conservation laws, invariance certificates."""

import hashlib
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from z22field import variational
from z22field import (GradedExpr, coord, field, gexp, param,
                      parse_potential, scalar)
from z22field.core import (TRIG, GaussianRational, QI, QONE, QZERO, fjet,
                           pairjet, trig)
from z22field.expr import _mono_sort_token, parse
from z22field.derivations import fn_field_derivative, total_space, total_t
from z22field.potential import specialize_potential
from z22field.action import auxiliary_solution, lagrangian
from z22field.variational import (DYNAMICAL, FERMIONS, SYMMETRIES,
                                  _fn_antiderivatives,
                                  _solve_sparse,
                                  current_comparison,
                                  divergence_split, euler_lagrange,
                                  field_equations,
                                  generic_eom_report,
                                  invariance_report, noether,
                                  quadratic_eom_report, reduce_onshell,
                                  sine_gordon_reduction, solved_forms,
                                  table_comparison_report, trig_eom_report)
from z22field import reference

_half = scalar(Fraction(1, 2))


def _f(base, m=0, n=0):
    return gexp(field(base, m, n, "x"))


# ----------------------------------------------------------------------
# the variational derivative on hand-checked toy densities
# ----------------------------------------------------------------------

def test_euler_lagrange_wave_oracle():
    # L = (phi_t^2 - phi_x^2)/2 - (m^2/2) phi^2, worked by hand
    m = gexp(param("alpha"))
    phi, pt, px = _f("phi00"), _f("phi00", 1, 0), _f("phi00", 0, 1)
    lag = _half * (pt * pt - px * px) - _half * m * m * phi * phi
    row = euler_lagrange(lag)["phi00"]
    want = -(_f("phi00", 2, 0) - _f("phi00", 0, 2) + m * m * phi)
    assert row == want


def test_euler_lagrange_first_order_fermion():
    # L = i psi psi_t: delta/delta psi = 2 i psi_t for a nilpotent field
    psi = _f("psi10")
    lag = scalar(QI) * psi * _f("psi10", 1, 0)
    row = euler_lagrange(lag)["psi10"]
    assert row == scalar(2) * scalar(QI) * _f("psi10", 1, 0)


def test_euler_lagrange_rejects_higher_jets():
    bad = _f("phi00", 2, 0) * _f("phi00")
    with pytest.raises(ValueError):
        euler_lagrange(bad)


@pytest.mark.parametrize("jet", [("psi10", 1, 1, "x"), ("phi11", 0, 2, "x"),
                                 ("A00", 2, 0, "y")])
def test_euler_lagrange_rejects_a_second_order_factor_anywhere(jet):
    # the order check runs over every generator, whatever the stage, and
    # before any partial is taken
    bad = _f("phi00", 1, 0) * _f("phi00") + gexp(field(*jet))
    with pytest.raises(ValueError, match="first order"):
        euler_lagrange(bad)


# sha256 of the rows f"{b}={row}", sorted by base and joined by newlines,
# of the auxiliary-eliminated Lagrangian
_ROW_DIGESTS = {
    None: "b278eb1b0a5a4c592287f782a4c6a5857df50770a5ac7bc62a36453f2a399378",
    "cos": "9b32ad45a4337e8780a60c5576d21cd2090b6d16f876e83143c202cacc1e8de8",
    "sin": "d11d0029e106cd4bbba913a5aee5a93069f65b4ad747c0dbb698ebde255387d9",
    "poly:1,-2,3/4,0,5,-1/3,2,1/7,-3/2":
        "b8c22e5fd5ad16a51317b94b17c1875dc0a1dfb465fd9b6c3bb8ec2b01b8ce6e",
}


@pytest.mark.parametrize("spec", list(_ROW_DIGESTS), ids=str)
def test_euler_lagrange_rows_match_their_pinned_digest(spec):
    V = parse_potential(spec) if spec else None
    rows = euler_lagrange(lagrangian(V, eliminate=True))
    assert sorted(rows) == sorted(DYNAMICAL)
    text = "\n".join(f"{b}={rows[b]}" for b in sorted(rows))
    assert hashlib.sha256(text.encode()).hexdigest() == _ROW_DIGESTS[spec]


# degree 8, with zero, negative and fractional coefficients
_POLY8 = "poly:1,-2,3/4,0,5,-1/3,2,1/7,-3/2"


@pytest.mark.parametrize("spec", ["cos", "sin", "poly:0,0,1/2", _POLY8])
def test_specialisation_commutes_with_the_field_equations(spec):
    # specialising the generic rows gives the rows of the specialised
    # Lagrangian, row by row
    V = parse_potential(spec)
    rows = euler_lagrange(lagrangian(V, eliminate=True))
    generic = field_equations()
    assert sorted(rows) == sorted(generic)
    for b, row in rows.items():
        assert specialize_potential(generic[b], V) == row, b


# every function symbol the antiderivative pool may meet
_FN_SYMBOLS = ([trig(n) for n in TRIG] + [fjet(k) for k in range(4)]
               + [pairjet(m, s, sp) for m in range(4) for s in (0, 1)
                  for sp in ("x", "y")])


@pytest.mark.parametrize("g", _FN_SYMBOLS, ids=lambda g: g.name)
def test_antiderivatives_invert_the_field_derivatives(g):
    # each (h, f) in the pool of g has g in the support of dh/df ...
    for h, f in _fn_antiderivatives(g):
        d = fn_field_derivative(h, f)
        assert d is not None and g in d.generators(), (h, f)
    # ... and each function symbol in the support of dg/df has (g, f) in
    # its pool
    for f in ("phi00", "phi11"):
        d = fn_field_derivative(g, f)
        for h in (d.generators() if d is not None else ()):
            if h.kind == "fn":
                assert (g, f) in _fn_antiderivatives(h), (h, f)


# ----------------------------------------------------------------------
# solved forms and on-shell reduction
# ----------------------------------------------------------------------

def test_solved_forms_annihilate_the_equations():
    eqs = field_equations()
    for base, e in eqs.items():
        assert reduce_onshell(e).is_zero(), base


def test_reduce_onshell_is_idempotent():
    e = _f("phi00", 2, 1) + _f("psi10", 1, 0) * _f("lam10")
    once = reduce_onshell(e)
    assert reduce_onshell(once) == once


# ----------------------------------------------------------------------
# divergence recognition
# ----------------------------------------------------------------------

def test_divergence_split_roundtrip():
    dt, dx = total_t("x"), total_space("x")
    k0 = _f("phi00", 1, 0) * _f("phi11") + gexp(trig("S00"))
    k1 = _f("psi10") * _f("lam10") * gexp(trig("C11"))
    s = dt(k0) + dx(k1)
    r0, r1 = divergence_split(s)
    assert dt(r0) + dx(r1) == s


def test_divergence_split_with_explicit_coordinates():
    dt, dx = total_t("x"), total_space("x")
    k0 = gexp(coord("x")) * _f("phi00", 0, 1)
    s = dt(k0)
    r0, r1 = divergence_split(s)
    assert dt(r0) + dx(r1) == s


@pytest.mark.parametrize("s", [
    _f("phi00"),
    # these two reach the solver with candidates, which cannot absorb them
    _f("phi00", 1, 0) * _f("phi11"),
    _f("phi00") - _f("lam10", 1, 0) * _f("psi10"),
], ids=["phi00", "phi00_t*phi11", "phi00-lam10_t*psi10"])
def test_divergence_split_rejects_non_divergence(s):
    with pytest.raises(ValueError):
        divergence_split(s)


def _reference_solve_sparse(columns, rhs):
    """Plain exact Gauss-Jordan over every column, free variables pinned
    to zero: the solver as it stood before columns with a private row
    were peeled off first."""
    universe = set(rhs)
    for col in columns:
        universe.update(col)
    row_list = sorted(universe, key=_mono_sort_token)
    row_index = {m: k for k, m in enumerate(row_list)}

    table = [dict() for _ in row_list]
    col_rows = [set() for _ in columns]
    for ci, col in enumerate(columns):
        for mono, c in col.items():
            ri = row_index[mono]
            table[ri][ci] = c
            col_rows[ci].add(ri)
    b = [QZERO] * len(row_list)
    for mono, c in rhs.items():
        b[row_index[mono]] = c

    pivot_of = {}
    used = set()
    for ci in range(len(columns)):
        live = sorted(r for r in col_rows[ci] if r not in used)
        if not live:
            continue
        pr = live[0]
        used.add(pr)
        pivot_of[ci] = pr
        inv = QONE / table[pr][ci]
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
                w = table[r].get(cj, QZERO) - f * v
                if not w:
                    if cj in table[r]:
                        del table[r][cj]
                        col_rows[cj].discard(r)
                else:
                    table[r][cj] = w
                    col_rows[cj].add(r)
            b[r] = b[r] - f * b[pr]

    if any(b[r] for r in range(len(row_list)) if r not in used):
        return None
    sol = [QZERO] * len(columns)
    for ci, pr in pivot_of.items():
        sol[ci] = b[pr]
    return sol


_ROWS = [((field("phi00", 0, 0, "x"), k),) for k in range(1, 9)]
_gaussian = st.builds(GaussianRational, st.integers(-3, 3),
                      st.integers(-3, 3))
_nonzero = _gaussian.filter(bool)


def _combination(cols, coeffs):
    out = {}
    for col, a in zip(cols, coeffs):
        for mono, c in col.items():
            w = out.get(mono, QZERO) + a * c
            if w:
                out[mono] = w
            else:
                out.pop(mono, None)
    return out


@st.composite
def _systems(draw):
    """Sparse systems over Q(i) whose columns are fresh, duplicates of
    earlier ones or combinations of two earlier ones, with a right side
    in the column span or drawn freely (often inconsistent)."""
    rows = _ROWS[:draw(st.integers(1, len(_ROWS)))]

    def fresh():
        picks = draw(st.lists(st.sampled_from(rows), unique=True,
                              max_size=len(rows)))
        return {r: draw(_nonzero) for r in picks}

    cols = []
    for _ in range(draw(st.integers(0, 9))):
        kind = draw(st.sampled_from(("fresh", "fresh", "copy", "combo")))
        if kind == "fresh" or not cols:
            cols.append(fresh())
        elif kind == "copy":
            cols.append(dict(draw(st.sampled_from(cols))))
        else:
            pair = draw(st.lists(st.sampled_from(cols), min_size=2,
                                 max_size=2))
            cols.append(_combination(pair, [draw(_nonzero), draw(_nonzero)]))
    if cols and draw(st.booleans()):
        rhs = _combination(cols, [draw(_gaussian) for _ in cols])
    else:
        rhs = fresh()
    return cols, rhs


@settings(max_examples=300, deadline=None)
@given(_systems())
def test_peeling_returns_the_gauss_jordan_solution(system):
    cols, rhs = system
    want = _reference_solve_sparse(cols, rhs)
    got = _solve_sparse(cols, rhs)
    assert got == want
    if got is not None:
        assert _combination(cols, got) == rhs


def test_a_private_row_is_peeled_off_before_elimination(monkeypatch):
    # phi^1 is private to column 0 and phi^3 to column 2; the duplicate
    # columns 1 and 3 share phi^2 and reach elimination, where the second
    # copy is pinned to zero
    r1, r2, r3 = _ROWS[:3]
    two = GaussianRational(2)
    cols = [{r1: two, r2: QONE}, {r2: QONE}, {r3: QI, r2: QONE}, {r2: QONE}]
    rhs = {r1: QONE, r2: QONE, r3: QI}
    sent = []
    real = variational._gauss_jordan
    monkeypatch.setattr(variational, "_gauss_jordan",
                        lambda c, live, b, sol: sent.append(list(live))
                        or real(c, live, b, sol))
    got = _solve_sparse(cols, rhs)
    assert got == _reference_solve_sparse(cols, rhs)
    assert got == [GaussianRational(Fraction(1, 2)), GaussianRational(
        Fraction(-1, 2)), QONE, QZERO]
    assert sent == [[1, 3]]


_K_GENS = ([field(b, m, n, "x") for b in ("phi00", "phi11", "psi10", "lam10")
            for m, n in ((0, 0), (1, 0), (0, 1))]
           + [trig(h) for h in ("S00", "C00", "S11", "C11")]
           + [coord("t"), coord("x")])
_k_terms = st.tuples(st.builds(GaussianRational, st.integers(-2, 2),
                               st.integers(-2, 2)),
                     st.lists(st.sampled_from(_K_GENS), min_size=1,
                              max_size=3))
_k_exprs = st.lists(_k_terms, max_size=3).map(
    lambda ts: sum((scalar(c) * _product(gs) for c, gs in ts),
                   GradedExpr.zero()))


def _product(gens):
    out = scalar(1)
    for g in gens:
        out = out * gexp(g)
    return out


def _split_terms(s):
    try:
        k0, k1 = divergence_split(s)
    except ValueError as exc:
        return str(exc)
    return list(k0.terms.items()), list(k1.terms.items())


@settings(max_examples=40, deadline=None)
@given(_k_exprs, _k_exprs)
def test_divergence_split_is_the_gauss_jordan_certificate(k0, k1):
    s = total_t("x")(k0) + total_space("x")(k1)
    # each pass solves afresh, so the memo is never compared with itself
    variational._solved_split.cache_clear()
    got = _split_terms(s)
    variational._solved_split.cache_clear()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(variational, "_solve_sparse", _reference_solve_sparse)
        want = _split_terms(s)
    assert got == want


def test_columns_reaching_elimination_are_pinned(monkeypatch):
    # the work the peeling leaves to Gauss-Jordan, counted without timing:
    # a regression to eliminating every column fails here
    real = variational._gauss_jordan
    counts = []

    def counted(cols, live, b, sol):
        counts[-1][1] = len(live)
        return real(cols, live, b, sol)

    def solve(cols, rhs):
        counts.append([len(cols), None])
        return _solve_sparse(cols, rhs)

    monkeypatch.setattr(variational, "_gauss_jordan", counted)
    monkeypatch.setattr(variational, "_solve_sparse", solve)
    for eliminate, total, l11 in ((True, 359, 222), (False, 383, 238)):
        counts.clear()
        variational._solved_split.cache_clear()
        rep = invariance_report(eliminate=eliminate)
        assert all(e["ok"] for e in rep.values())
        # one solve per symmetry, L11's last; L11 is peeled whole
        assert len(counts) == len(SYMMETRIES)
        assert sum(n for n, _ in counts) == total
        assert sum(k for _, k in counts) == 32
        assert counts[-1] == [l11, 0]


def _count_splits(monkeypatch):
    """Calls of divergence_split and solves of _solve_sparse, from now."""
    counts = {"calls": 0, "solves": 0}
    real_split, real_solve = divergence_split, _solve_sparse

    def split(s):
        counts["calls"] += 1
        return real_split(s)

    def solve(cols, rhs):
        counts["solves"] += 1
        return real_solve(cols, rhs)

    monkeypatch.setattr(variational, "divergence_split", split)
    monkeypatch.setattr(variational, "_solve_sparse", solve)
    return counts


def test_check_currents_solves_each_certificate_once(monkeypatch, capsys):
    from z22field.cli import main
    variational._solved_split.cache_clear()
    counts = _count_splits(monkeypatch)
    assert main(["check-currents", "--format", "json"]) == 0
    capsys.readouterr()
    # invariance_report and noether each ask for the five certificates;
    # the second asks are memo hits
    assert counts == {"calls": 10, "solves": 5}


def test_a_failed_split_is_not_memoised(monkeypatch):
    s = _f("phi00", 1, 0) * _f("phi11")
    counts = _count_splits(monkeypatch)
    solves = []
    for _ in range(2):
        with pytest.raises(ValueError):
            variational.divergence_split(s)
        solves.append(counts["solves"])
    # the second call runs the whole search again
    assert solves[0] > 0 and solves[1] == 2 * solves[0]


def test_the_certificate_memo_is_bounded_by_the_symmetries():
    variational._solved_split.cache_clear()
    dt = total_t("x")
    for k in range(len(SYMMETRIES) + 1):
        s = dt(_f("phi00", 0, k) * _f("phi11"))
        r0, r1 = divergence_split(s)
        assert dt(r0) + total_space("x")(r1) == s
    info = variational._solved_split.cache_info()
    assert info.misses == len(SYMMETRIES) + 1
    assert info.currsize == len(SYMMETRIES)


# ----------------------------------------------------------------------
# conserved currents
# ----------------------------------------------------------------------

def test_all_five_currents_conserved():
    comp = current_comparison()
    assert set(comp) == set(SYMMETRIES)
    for name, entry in comp.items():
        assert entry["conserved"], name


def test_currents_match_displays_up_to_improvement():
    comp = current_comparison()
    for name, entry in comp.items():
        if not entry["matches_reference"]:
            assert entry["improvement_conserved"], name
    # the time-translation and boost currents match on the nose
    assert comp["H"]["matches_reference"]
    assert comp["L11"]["matches_reference"]


def test_current_scales_are_pinned():
    comp = current_comparison()
    assert comp["H"]["scale"] == GaussianRational(Fraction(-1, 2))
    assert comp["L11"]["scale"] == GaussianRational(-1)
    assert comp["Z"]["scale"] == GaussianRational(-1)
    assert comp["Q10"]["scale"] == -QI
    assert comp["Q01"]["scale"] == -QI


def test_noether_identity_residual_free():
    # noether() asserts the chain-rule identity internally; surviving
    # the call for every symmetry is the check
    for name in SYMMETRIES:
        out = noether(name)
        j0, j1 = out["current"]
        assert not (j0.is_zero() and j1.is_zero()), name


def test_term_keys_are_their_own_factor_products():
    lag = lagrangian(eliminate=True)
    keys = list(lag.terms)
    for name in SYMMETRIES:
        keys += list(noether(name)["delta_lagrangian"].terms)
    # each key, and each key with one power of one field factor removed
    # (the candidates of a divergence certificate)
    monos = set(keys)
    for mono in keys:
        for i, (g, e) in enumerate(mono):
            if g.kind == "field":
                monos.add(mono[:i] + ((g, e - 1),) * (e > 1) + mono[i + 1:])
    for mono in monos:
        prod = scalar(1)
        for g, e in mono:
            prod = prod * gexp(g, e)
        assert GradedExpr({mono: QONE}) == prod, mono


# ----------------------------------------------------------------------
# invariance certificates
# ----------------------------------------------------------------------

@pytest.mark.parametrize("eliminate", [False, True])
def test_lagrangian_invariance(eliminate):
    rep = invariance_report(eliminate=eliminate)
    for name, entry in rep.items():
        assert entry["ok"], (name, entry.get("residual"))


# ----------------------------------------------------------------------
# tables and equations against the displays
# ----------------------------------------------------------------------

def test_variation_tables_match():
    rep = table_comparison_report()
    assert all(entry["ok"] for entry in rep.values())


_SCALES = {"phi00": GaussianRational(-1), "phi11": GaussianRational(-1),
           "psi10": GaussianRational(2), "lam10": GaussianRational(-2),
           "psi01": GaussianRational(2), "lam01": GaussianRational(2)}


def test_generic_equations_match_display():
    rep = generic_eom_report()
    for base, entry in rep.items():
        assert entry["exact"], base
        assert entry["scale"] == _SCALES[base], base


def test_quadratic_equations_match_display():
    rep = quadratic_eom_report()
    for base, entry in rep.items():
        assert entry["exact"], base


def test_trigonometric_equations_match_up_to_fermion_bilinears():
    # the printed coupled system misprints fermion terms in every row;
    # each discrepancy must be exactly its recorded erratum
    rep = trig_eom_report(generic_eom_report())
    for base, entry in rep.items():
        assert entry["matches_erratum"] and not entry["exact"], base


def test_trig_errata_are_nonzero_and_purely_fermionic():
    for base, row in reference.sg_eom_errata().items():
        assert row.terms, base
        assert all(any(g.base in FERMIONS for g, _ in mono)
                   for mono in row.terms), base


def test_sine_gordon_reductions_exact():
    rep = sine_gordon_reduction()
    for base, entry in rep.items():
        assert entry["exact"], base
        assert entry["scale"] == GaussianRational(-1)


# ----------------------------------------------------------------------
# the on-shell chain, pinned expression by expression
# ----------------------------------------------------------------------

# The chain as it stood before its stages were memoised, one sorted line
# `<label> <expression>` per expression (72 lines; the file's sha256 is
# 989289fd...a9a232).  The report artifacts carry only flags and scales,
# so this is what shows that no current or certificate moved.
CHAIN = Path(__file__).with_name("onshell_chain.txt")


def _chain_entries():
    """(label, expression) of every expression of the on-shell chain."""
    out = [(f"eq {b}", e) for b, e in field_equations().items()]
    out += [(f"solved {b}", e) for b, e in solved_forms().items()]
    out += [(f"aux {b}", e) for b, e in auxiliary_solution().items()]
    for name in SYMMETRIES:
        item = noether(name)
        for key in ("canonical", "boundary", "current"):
            out += [(f"noether {name} {key}{k}", e)
                    for k, e in enumerate(item[key])]
    for elim in (False, True):
        for name, entry in invariance_report(eliminate=elim).items():
            out += [(f"invariance {elim} {name} {k}", e)
                    for k, e in enumerate(entry["boundary"])]
    for name, entry in current_comparison().items():
        out += [(f"improvement {name} {k}", e)
                for k, e in enumerate(entry.get("improvement", ()))]
    for b, entry in sine_gordon_reduction().items():
        out.append((f"reduction {b} {entry['scale']}", entry["residual"]))
    return out


def test_onshell_chain_is_pinned_expression_by_expression():
    entries = _chain_entries()
    got = sorted(f"{label} {e}" for label, e in entries)
    want = CHAIN.read_text().splitlines()
    assert len(got) == len(want) == 72
    for line, pinned in zip(got, want):
        assert line == pinned
    # each expression reads back from its line
    for label, e in entries:
        assert parse(str(e), "x") == e, label
