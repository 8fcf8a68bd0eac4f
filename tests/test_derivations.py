"""Operator algebra: structure constants, Jacobi, total derivatives."""

from fractions import Fraction

import pytest

from z22field import DEG00, DEG10, GradedExpr, coord, field, gexp, scalar
from z22field import derivations
from z22field.core import QI, pairjet, trig
from z22field.core import parity
from z22field.derivations import (OP_DEGREE, STRUCTURE, _ORDER, combine,
                                  jet_prolongation, superspace_operators,
                                  total_space, total_t, verify_jacobi,
                                  verify_structure_constants)
from z22field.superfield import variation_table
from z22field.variational import solved_forms


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
