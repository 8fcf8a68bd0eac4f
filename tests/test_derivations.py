"""Operator algebra: structure constants, Jacobi, total derivatives."""

from fractions import Fraction

import pytest

from z22field import (DEG00, DEG10, GradedExpr, coord, field, gexp,
                      lagrangian, parse_potential, scalar)
from z22field import derivations
from z22field.core import QI, QONE, pairjet, trig
from z22field.core import parity
from z22field.derivations import (OP_DEGREE, STRUCTURE, _ORDER,
                                  GeneratorDerivation, combine, jet_partial,
                                  jet_prolongation, partial_coord,
                                  superspace_operators, total_space, total_t,
                                  verify_jacobi, verify_structure_constants)
from z22field.expr import _exp_degree
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


def _euler_lagrange_calls(lag, monkeypatch):
    calls = []
    original = GeneratorDerivation.apply

    def recording(self, expr):
        calls.append((self, expr))
        return original(self, expr)

    with monkeypatch.context() as m:
        m.setattr(GeneratorDerivation, "apply", recording)
        euler_lagrange(lag)
    return calls


@pytest.mark.parametrize("spec", [None, "cos", "poly:0,0,0,1"])
def test_euler_lagrange_derivatives_match_the_three_product_form(
        spec, monkeypatch):
    V = parse_potential(spec) if spec else None
    calls = _euler_lagrange_calls(lagrangian(V, eliminate=True), monkeypatch)
    names = {d.name for d, _ in calls}
    assert {"D_t[x]", "D_x"} <= names
    assert any(n.startswith("d/d") for n in names)
    for d, expr in calls:
        _assert_same_terms_in_order(d, expr)


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
