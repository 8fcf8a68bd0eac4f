"""Operator algebra: structure constants, Jacobi, total derivatives."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from z22field import (DEG00, DEG10, GaussianRational, GradedExpr, coord,
                      field, gexp, lagrangian, param, parse_potential, scalar)
from z22field import derivations, variational
from z22field.core import QI, QONE, pairjet, trig
from z22field.core import parity
from z22field.derivations import (OP_DEGREE, STRUCTURE, _ORDER,
                                  GeneratorDerivation, combine, jet_partial,
                                  jet_prolongation, partial_coord,
                                  superspace_operators, total_space, total_t,
                                  verify_jacobi, verify_structure_constants)
from z22field.expr import ONE_EXPR, _exp_degree
from z22field.superfield import variation_table
from z22field.variational import (SYMMETRIES, eliminated_variation,
                                  euler_lagrange, solved_forms)


def test_structure_constants_all_relations():
    reports = verify_structure_constants()
    assert len(reports) == 28
    for r in reports:
        assert r["status"] == "ok", f"{r['relation']}: {r['residuals']}"


def test_jacobi_identity():
    reports = verify_jacobi()
    assert len(reports) == 7 ** 3
    assert len({r["relation"] for r in reports}) == 7 ** 3
    for r in reports:
        assert r["status"] == "ok", f"{r['relation']}: {r['residuals']}"


NONZERO = [key for key, rhs in STRUCTURE.items() if rhs]


def _failures():
    return [r for r in verify_jacobi() if r["status"] == "fail"]


@pytest.mark.parametrize("key", NONZERO, ids=lambda k: "%s,%s" % k)
def test_jacobi_fails_on_a_flipped_structure_constant(key, monkeypatch):
    assert len(NONZERO) == 12
    monkeypatch.setitem(STRUCTURE, key,
                        [(-c, name) for c, name in STRUCTURE[key]])
    failed = _failures()
    assert failed
    assert all(r["residuals"] and all(r["residuals"].values())
               for r in failed)


@pytest.mark.parametrize("sign", [1, -1])
def test_jacobi_fails_when_the_flip_sign_ignores_parity(sign, monkeypatch):
    def flip_ignoring_parity(a, b):
        if (a, b) in STRUCTURE:
            return STRUCTURE[(a, b)]
        return [(c * sign, name) for c, name in STRUCTURE[(b, a)]]

    monkeypatch.setattr(derivations, "bracket_value", flip_ignoring_parity)
    assert _failures()


# powers of the even generators, among them the (1,1) ones that the odd
# operators see with parity 1
POWER_BASES = [field("phi00", 0, 0, "y"), field("phi11", 0, 0, "y"),
               field("A00", 0, 0, "y"), field("A11", 0, 0, "y"),
               field("phi11", 1, 0, "y"), coord("t"), coord("y")]


@pytest.mark.parametrize("name", _ORDER)
def test_power_rule_agrees_with_leibniz(name):
    op = superspace_operators()[name]
    for g in POWER_BASES:
        for e in (2, 3):
            low = gexp(g, e - 1)
            sign = scalar((-1) ** ((e - 1) * parity(op.degree, g.degree)))
            want = op(low) * gexp(g) + sign * low * op(gexp(g))
            assert op(gexp(g, e)) == want, (g.name, e)


def test_combine_rejects_an_inhomogeneous_piece():
    th01 = gexp(coord("th01"))
    with pytest.raises(ValueError, match="inhomogeneous piece in bad"):
        combine("bad", DEG10, [(th01, total_t("y"))])
    with pytest.raises(ValueError, match="inhomogeneous piece in mixed"):
        combine("mixed", DEG00, [(scalar(1) + th01, total_t("y"))])


def test_covariant_derivatives_close_on_charges():
    ops = superspace_operators()
    phi = (gexp(coord("th10")) * gexp(field("psi01", 0, 0, "y"))
           + gexp(coord("z")) * gexp(coord("th01"))
           * gexp(field("A00", 0, 0, "y")))
    for d in ("D10", "D01"):
        for q in ("Q10", "Q01"):
            rhs = GradedExpr.zero()
            for c, name in STRUCTURE[tuple(sorted((d, q),
                                                  key=_ORDER.index))]:
                rhs = rhs + scalar(c) * ops[name](phi)
            pab = parity(OP_DEGREE[d], OP_DEGREE[q])
            sgn = scalar(-1) if not pab else scalar(1)
            got = ops[d](ops[q](phi)) + sgn * ops[q](ops[d](phi))
            assert got == rhs, (d, q)


# ----------------------------------------------------------------------
# total derivatives
# ----------------------------------------------------------------------

def test_total_derivatives_commute():
    dt, dx = total_t("x"), total_space("x")
    e = (gexp(coord("t")) * gexp(field("phi00", 1, 1, "x"))
         + gexp(field("psi10", 0, 0, "x")) * gexp(field("lam10", 0, 0, "x")))
    assert dt(dx(e)) == dx(dt(e))


def _power(d, e, k):
    for _ in range(k):
        e = d(e)
    return e


@pytest.mark.parametrize("table", [lambda: variation_table("L11", "x"),
                                   solved_forms],
                         ids=["L11-second-stage", "solved-forms"])
def test_jet_prolongation_is_either_order_of_total_derivatives(table):
    # the L11 table carries explicit t and x, the solved forms carry
    # function symbols
    table = table()
    dt, dx = total_t("x"), total_space("x")
    jet = jet_prolongation(table, "x")
    for base, entry in table.items():
        for m in range(4):
            for n in range(4 - m):
                got = jet(base, m, n)
                assert got == _power(dt, _power(dx, entry, n), m), (base, m, n)
                assert got == _power(dx, _power(dt, entry, m), n), (base, m, n)


def test_total_derivative_leibniz():
    dt = total_t("x")
    a = gexp(field("psi10", 0, 0, "x"))
    b = gexp(field("lam10", 0, 2, "x"))
    assert dt(a * b) == dt(a) * b + a * dt(b)


def test_jet_raising():
    dt, dx = total_t("x"), total_space("x")
    f = gexp(field("phi00", 0, 0, "x"))
    assert dt(f) == gexp(field("phi00", 1, 0, "x"))
    assert dx(dt(f)) == gexp(field("phi00", 1, 1, "x"))
    assert dt(gexp(coord("t"))) == scalar(1)
    assert dt(gexp(coord("x"))).is_zero()


def test_trig_chain_rule():
    dt = total_t("x")
    s00, c00 = gexp(trig("S00")), gexp(trig("C00"))
    v = gexp(field("phi00", 1, 0, "x"))
    assert dt(s00) == v * c00
    assert dt(c00) == -(v * s00)
    # derivative of sin^2 + cos^2 = 1
    assert dt(s00 * s00 + c00 * c00).is_zero()


def test_pair_symbol_chain_rule():
    dt = total_t("x")
    v00 = gexp(pairjet(1, 0, "x"))
    got = dt(v00)
    want = (gexp(field("phi00", 1, 0, "x")) * gexp(pairjet(2, 0, "x"))
            + gexp(field("phi11", 1, 0, "x")) * gexp(pairjet(2, 1, "x")))
    assert got == want


def test_slot_swap_under_odd_field():
    # differentiating along the (1,1) field swaps the slot tower
    dt = total_t("x")
    v11 = gexp(pairjet(1, 1, "x"))
    got = dt(v11)
    want = (gexp(field("phi00", 1, 0, "x")) * gexp(pairjet(2, 1, "x"))
            + gexp(field("phi11", 1, 0, "x")) * gexp(pairjet(2, 0, "x")))
    assert got == want


# ----------------------------------------------------------------------
# the one-pass kernel against the three-product Leibniz form
# ----------------------------------------------------------------------

def _three_product_apply(d, expr):
    """Graded Leibniz with each term built as the product
    prefix * D(g) * g**(e-1) * suffix and added with `+`.  It calls the
    action afresh for every factor, so it never reads the image memo."""
    out = GradedExpr.zero()
    for mono, c in expr.terms.items():
        prefix_parity = 0
        for k, (g, e) in enumerate(mono):
            img = d.action(g)
            if img is not None and img.terms:
                coeff = c if e == 1 else c * e
                if prefix_parity & 1:
                    coeff = -coeff
                term = GradedExpr({mono[:k]: coeff}) * img
                if e != 1:
                    term = term * gexp(g, e - 1)
                if k + 1 < len(mono):
                    term = term * GradedExpr({mono[k + 1:]: QONE})
                out = out + term
            prefix_parity += parity(d.degree, _exp_degree(g, e))
    return out


def _assert_same_terms_in_order(d, expr):
    got = d.apply(expr)
    want = _three_product_apply(d, expr)
    # equal values in the same insertion order: the divergence solver's
    # candidate order and every artifact follow the dict order
    assert list(got.terms.items()) == list(want.terms.items()), d.name


def _probes():
    gens = [coord(n) for n in ("t", "y", "z", "th10", "th01")]
    gens += [field(b, 0, 0, "y") for b in ("phi00", "phi11", "A00", "A11",
                                           "psi10", "psi01", "lam10",
                                           "lam01")]
    return [gexp(g) for g in gens]


def test_operators_match_the_three_product_form():
    ops = superspace_operators()
    images = []
    for op in ops.values():
        for p in _probes():
            _assert_same_terms_in_order(op, p)
            images.append(op.apply(p))
    assert len(images) == 7 * 13
    for op in ops.values():
        for img in images:
            _assert_same_terms_in_order(op, img)


def _assert_walk_matches(calls):
    # each walk result equals the three-product form of its own
    # derivation, in value and in insertion order
    for d, expr, got in calls:
        want = _three_product_apply(d, expr)
        assert list(got.terms.items()) == list(want.terms.items()), d.name


def _euler_lagrange_calls(lag, monkeypatch):
    """(derivation, expression, result) of every derivation that enters a
    walk while euler_lagrange runs: the routed walk of `apply_many` and
    the one-derivation walk of `apply`."""
    calls = []
    original = derivations.apply_many
    original_apply = GeneratorDerivation.apply

    def recording(ders, expr):
        outs = original(ders, expr)
        calls.extend(zip(ders, [expr] * len(ders), outs))
        return outs

    def recording_apply(d, expr):
        out = original_apply(d, expr)
        calls.append((d, expr, out))
        return out

    with monkeypatch.context() as m:
        m.setattr(derivations, "apply_many", recording)
        m.setattr(variational, "apply_many", recording)
        m.setattr(GeneratorDerivation, "apply", recording_apply)
        euler_lagrange(lag)
    return calls


@pytest.mark.parametrize("spec", [None, "cos", "poly:0,0,0,1"])
def test_euler_lagrange_derivatives_match_the_three_product_form(
        spec, monkeypatch):
    V = parse_potential(spec) if spec else None
    calls = _euler_lagrange_calls(lagrangian(V, eliminate=True), monkeypatch)
    names = {d.name for d, _, _ in calls}
    assert {"D_t[x]", "D_x"} <= names
    assert any(n.startswith("d/d") for n in names)
    _assert_walk_matches(calls)


@pytest.mark.parametrize("spec", [None, "cos", "poly:0,0,0,1"])
def test_euler_lagrange_walks_match_again_on_warm_routes(spec, monkeypatch):
    # the second call reads the routing table the first one filled
    V = parse_potential(spec) if spec else None
    lag = lagrangian(V, eliminate=True)
    derivations._routes.cache_clear()
    cold = _euler_lagrange_calls(lag, monkeypatch)
    hits = derivations._routes.cache_info().hits
    warm = _euler_lagrange_calls(lag, monkeypatch)
    assert derivations._routes.cache_info().hits > hits
    _assert_walk_matches(warm)
    assert [list(out.terms.items()) for _, _, out in warm] == [
        list(out.terms.items()) for _, _, out in cold]


# random expressions over odd and even field jets, pair symbols, powers
# of y**(1/2) and the eps parameters
_WALK_GENS = ([field(b, m, n, "x") for b in ("phi00", "phi11", "A00", "A11",
                                             "psi10", "psi01", "lam10",
                                             "lam01")
               for m, n in ((0, 0), (1, 0), (0, 1), (1, 1))]
              + [pairjet(m, slot, "x") for m in range(4) for slot in (0, 1)]
              + [param(p) for p in ("eps00", "eps11", "eps10", "eps01")])
_FIRST_ORDER_PARTIALS = [jet_partial(field(b, m, n, "x"))
                         for b in ("phi00", "phi11", "psi10", "lam01", "A11")
                         for m, n in ((0, 0), (1, 0), (0, 1))]


def _product(factors):
    out = factors[0]
    for f in factors[1:]:
        out = out * f
    return out


_small = st.integers(-3, 3)
_factors = st.one_of(
    st.tuples(st.sampled_from(_WALK_GENS), st.integers(1, 3)).map(
        lambda ge: gexp(*ge)),
    st.sampled_from([k for k in range(-3, 4) if k]).map(
        lambda k: gexp(coord("y"), Fraction(k, 2))))
_terms = st.tuples(st.builds(GaussianRational, _small, _small),
                   st.lists(_factors, max_size=5)).map(
    lambda cf: _product([scalar(cf[0])] + cf[1]))
_exprs = st.lists(_terms, min_size=1, max_size=6).map(
    lambda ts: sum(ts, GradedExpr.zero()))
_walks = st.lists(st.sampled_from(_FIRST_ORDER_PARTIALS), max_size=8).flatmap(
    lambda ps: st.permutations(ps + [total_t("x"), total_space("x")]))


@settings(max_examples=60, deadline=None)
@given(_exprs, _walks)
def test_a_walk_matches_each_derivation_alone(expr, ders):
    outs = derivations.apply_many(ders, expr)
    assert len(outs) == len(ders)
    _assert_walk_matches(zip(ders, [expr] * len(ders), outs))


@settings(max_examples=60, deadline=None)
@given(_exprs, st.sampled_from(_FIRST_ORDER_PARTIALS
                               + [total_t("x"), total_space("x")]))
def test_columns_match_the_three_product_form(expr, d):
    monos = list(expr.terms)
    want = [list(_three_product_apply(d, GradedExpr({m: QONE})).terms.items())
            for m in monos]
    assert [list(col.items()) for col in d.columns(monos)] == want


@pytest.mark.parametrize("name", SYMMETRIES)
def test_prolonged_variations_match_the_three_product_form(name):
    _assert_same_terms_in_order(eliminated_variation(name),
                                lagrangian(eliminate=True))


# ----------------------------------------------------------------------
# image memo and cached constructors
# ----------------------------------------------------------------------

def test_an_action_runs_once_per_generator():
    seen = []

    def act(g):
        seen.append(g)
        return gexp(coord("t")) if g.kind == "field" else None

    d = GeneratorDerivation("counted", DEG00, act)
    phi, psi = field("phi00", 0, 0, "x"), field("psi10", 0, 0, "x")
    lam = field("lam10", 0, 0, "x")
    e = (gexp(phi, 2) * gexp(psi) + gexp(phi) * gexp(lam)
         + gexp(coord("x")) * gexp(psi) * gexp(lam))
    first = d(e)
    assert d(e) == first
    assert d(gexp(phi) * gexp(coord("x"))) == gexp(coord("t")) * gexp(
        coord("x"))
    # x has no image and is looked up again, but never recomputed
    assert len(seen) == len(set(seen)) == 4
    assert set(seen) == {phi, psi, lam, coord("x")}


def test_a_walk_asks_each_action_once_per_generator():
    seen = []

    def counted(name, image):
        def act(g):
            seen.append((name, g))
            return image if g.kind == "field" and g.base == name else None
        return GeneratorDerivation("d/" + name, DEG00, act)

    phi, psi = field("phi00", 0, 0, "x"), field("psi10", 0, 0, "x")
    x = coord("x")
    e = (gexp(phi, 2) * gexp(psi) + gexp(phi) * gexp(x)
         + gexp(x) * gexp(psi))
    ders = [counted("phi00", gexp(coord("t"))),
            counted("psi10", gexp(field("psi10", 1, 0, "x"))),
            counted("A00", ONE_EXPR)]
    assert derivations.apply_many([], e) == []
    outs = derivations.apply_many(ders, e)
    assert len(seen) == len(set(seen)) == 3 * 3
    for d, got in zip(ders, outs):
        assert list(got.terms.items()) == list(d.apply(e).terms.items())
    assert outs[2] == GradedExpr.zero()
    # each derivation keeps the images the walk looked up
    assert len(seen) == 9


def _route_probe():
    phi, psi = field("phi00", 0, 0, "x"), field("psi10", 1, 0, "x")
    return (gexp(phi, 3) * gexp(psi) + gexp(coord("x")) * gexp(phi)
            + gexp(pairjet(1, 0, "x")) * gexp(psi))


def test_a_warm_walk_equals_a_cold_one():
    ders = (_FIRST_ORDER_PARTIALS + [total_t("x"), total_space("x")])
    e = _route_probe()
    derivations._routes.cache_clear()
    cold = derivations.apply_many(ders, e)
    assert derivations._routes.cache_info().currsize == 1
    warm = derivations.apply_many(list(ders), e)
    assert derivations._routes.cache_info().hits == 1
    assert [list(o.terms.items()) for o in warm] == [
        list(o.terms.items()) for o in cold]
    _assert_walk_matches(zip(ders, [e] * len(ders), warm))


def test_the_route_memo_keeps_at_most_its_bound():
    bound = derivations.ROUTE_TABLES
    e = _route_probe()
    derivations._routes.cache_clear()
    tuples = [(total_t("x"), jet_partial(field("phi00", m, 0, "x")))
              for m in range(bound + 3)]
    for ders in tuples:
        derivations.apply_many(ders, e)
        assert derivations._routes.cache_info().currsize <= bound
    assert derivations._routes.cache_info().currsize == bound
    assert derivations._routes.cache_info().maxsize == bound
    # the oldest tuples were dropped, and a walk of one rebuilds its table
    misses = derivations._routes.cache_info().misses
    again = derivations.apply_many(tuples[0], e)
    assert derivations._routes.cache_info().misses == misses + 1
    assert again == [d.apply(e) for d in tuples[0]]


def test_clearing_the_package_caches_empties_the_route_memo():
    from conftest import clear_package_caches
    derivations.apply_many([total_t("x"), total_space("x")], _route_probe())
    assert derivations._routes.cache_info().currsize >= 1
    clear_package_caches()
    assert derivations._routes.cache_info().currsize == 0


def test_constructors_are_cached_per_stage_or_generator():
    g = field("phi11", 0, 0, "x")
    assert total_t("x") is total_t("x")
    assert total_space("x") is total_space("x")
    assert total_t("x") is not total_t("y")
    assert jet_partial(g) is jet_partial(g)
    assert partial_coord("th10") is partial_coord("th10")


def test_a_raising_action_raises_again():
    dy = total_space("y")
    s11y = gexp(trig("S11y"))
    for _ in range(2):
        with pytest.raises(ValueError, match="explicit measure"):
            dy(s11y)
