"""Serialization: latex rendering."""

from fractions import Fraction

from z22field import GradedExpr, field, gexp, param, scalar
from z22field.serialize import latex


def test_latex_basics():
    e = scalar(Fraction(1, 2)) * gexp(param("alpha")) \
        * gexp(field("phi00", 1, 0, "x"))
    out = latex(e)
    assert r"\alpha" in out
    assert r"\dot" in out or "_{t}" in out or r"\partial" in out


def test_latex_zero():
    assert latex(GradedExpr.zero()) == "0"
