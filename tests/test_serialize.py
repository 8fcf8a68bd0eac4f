"""Serialization: latex rendering."""

from fractions import Fraction

import pytest

from z22field import GradedExpr, field, gexp, param, scalar
from z22field.core import TRIG, trig
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
