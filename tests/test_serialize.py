"""Serialization: json roundtrip, latex rendering, determinism."""

from fractions import Fraction

import pytest

from z22field import GradedExpr, coord, field, gexp, param, scalar
from z22field.core import QI, Generator, pairjet, trig
from z22field.serialize import (expr_from_json, json_terms, latex, render,
                                to_json)


def _resolve_factory(exprs):
    table = {}
    for e in exprs:
        for g in e.generators():
            table[g.name] = g
    return lambda name: table[name]


def test_json_roundtrip():
    e = (scalar(QI) * gexp(field("psi10", 1, 0, "x"))
         * gexp(field("lam10", 0, 0, "x"))
         + scalar(Fraction(-3, 2)) * gexp(coord("t"))
         * gexp(param("alpha")) * gexp(trig("S00")))
    data = json_terms(e)
    back = expr_from_json(data, _resolve_factory([e]))
    assert back == e


def test_json_is_deterministic():
    a = gexp(field("phi00", 0, 0, "x"))
    b = gexp(field("phi11", 0, 0, "x"))
    assert to_json(a * b + b) == to_json(b + b * a)


def test_latex_basics():
    e = scalar(Fraction(1, 2)) * gexp(param("alpha")) \
        * gexp(field("phi00", 1, 0, "x"))
    out = latex(e)
    assert r"\alpha" in out
    assert r"\dot" in out or "_{t}" in out or r"\partial" in out


def test_latex_zero():
    assert latex(GradedExpr.zero()) == "0"


def test_render_dispatch():
    e = gexp(field("phi00", 0, 0, "x"))
    assert render(e, "text") == str(e)
    assert render(e, "json") == to_json(e)
    assert render(e, "latex") == latex(e)
    with pytest.raises(ValueError):
        render(e, "html")


def test_text_matches_str():
    e = gexp(pairjet(1, 0, "x")) + scalar(2) * gexp(coord("x"), Fraction(1, 2))
    assert render(e, "text") == str(e)
