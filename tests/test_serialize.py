"""Serialization: latex rendering."""

from fractions import Fraction

import pytest

from z22field import GaussianRational, GradedExpr, field, gexp, param, scalar
from z22field.core import TRIG, fjet, pairjet, trig
from z22field.serialize import latex


def test_latex_basics():
    e = scalar(Fraction(1, 2)) * gexp(param("alpha")) \
        * gexp(field("phi00", 1, 0, "x"))
    out = latex(e)
    assert r"\alpha" in out
    assert r"\dot" in out or "_{t}" in out or r"\partial" in out


def test_latex_zero():
    assert latex(GradedExpr.zero()) == "0"


_TRIG_LATEX = {
    "S00": r"\sin\varphi_{00}", "C00": r"\cos\varphi_{00}",
    "S11": r"\sin\varphi_{11}", "C11": r"\cos\varphi_{11}",
    "S11y": r"\mathcal{S}_{11}", "C11y": r"\mathcal{C}_{11}",
}


def test_every_trig_symbol_has_its_latex_pinned():
    assert sorted(_TRIG_LATEX) == sorted(TRIG)


@pytest.mark.parametrize("name", list(_TRIG_LATEX))
def test_trig_latex(name):
    assert latex(gexp(trig(name))) == _TRIG_LATEX[name]
    assert latex(scalar(-2) * gexp(trig(name), 2)) == \
        "-2\\," + _TRIG_LATEX[name] + "^{2}"


@pytest.mark.parametrize("m, slot, space, want", [
    (0, 0, "x", r"V^{(0)}_{00}"),
    (0, 1, "y", r"\tilde{V}^{(0)}_{11}"),
    (1, 0, "y", r"\tilde{V}_{00}"),
    (1, 1, "x", r"V_{11}"),
    (2, 0, "x", r"\partial_{00}V_{00}"),
    (2, 1, "y", r"\partial_{00}\tilde{V}_{11}"),
    (3, 1, "x", r"\partial_{00}^{2}V_{11}"),
    (3, 0, "y", r"\partial_{00}^{2}\tilde{V}_{00}"),
])
def test_pair_symbol_latex(m, slot, space, want):
    assert latex(gexp(pairjet(m, slot, space))) == want


@pytest.mark.parametrize("k, want", [
    (0, "V"), (1, r"\partial_{00}V"), (3, r"\partial_{00}^{3}V"),
])
def test_f_family_latex(k, want):
    assert latex(gexp(fjet(k))) == want


@pytest.mark.parametrize("args, want", [
    (("phi00", 1, 1, "x"), r"\partial_t\partial_x\varphi_{00}"),
    (("phi11", 2, 1, "y"), r"\partial_t^{2}\partial_y\varphi_{11}"),
    (("A00", 2, 2, "y"), r"\partial_t^{2}\partial_y^{2}A_{00}"),
    (("psi10", 0, 3, "x"), r"\partial_x^{3}\psi_{10}"),
    (("lam01", 3, 0, "x"), r"\partial_t^{3}\lambda_{01}"),
    (("phi00", 0, 2, "x"), r"\varphi_{00}''"),
])
def test_mixed_and_high_jet_latex(args, want):
    assert latex(gexp(field(*args))) == want


def test_a_coefficient_with_real_and_imaginary_parts_is_bracketed():
    f00 = gexp(field("phi00", 0, 0, "x"))
    f11 = gexp(field("phi11", 1, 0, "x"))
    c = GaussianRational(Fraction(1, 2), -3)
    assert latex(scalar(c) * f00) == (
        r"\left(\tfrac{1}{2}-3i\right)\,\varphi_{00}")
    # a later term keeps its bracket behind a plus
    d = GaussianRational(Fraction(-2, 3), Fraction(1, 5))
    assert latex(f00 + scalar(d) * f11) == (
        r"\varphi_{00}+\left(-\tfrac{2}{3}+\tfrac{1}{5}i\right)\,"
        r"\dot{\varphi_{11}}")
    # a unit part is written bare, also as a constant term
    assert latex(scalar(GaussianRational(-1, 1)) * f00) == (
        r"\left(-1+i\right)\,\varphi_{00}")
    assert latex(scalar(GaussianRational(1, -1))) == r"\left(1-i\right)"
