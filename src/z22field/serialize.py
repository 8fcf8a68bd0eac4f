"""LaTeX rendering of graded expressions.

`latex` gives the display form, with the conventional field and
coordinate symbols and the terms in canonical monomial order.  The text
form is str() of the expression.
"""

from __future__ import annotations

from fractions import Fraction

from .core import TRIG, Generator
from .expr import GradedExpr

_LATEX_BASE = {
    "t": "t", "y": "y", "x": "x", "z": "z",
    "th10": r"\theta_{10}", "th01": r"\theta_{01}",
    "eps00": r"\epsilon_{00}", "eps11": r"\epsilon_{11}",
    "eps10": r"\epsilon_{10}", "eps01": r"\epsilon_{01}",
    "epsL": r"\epsilon_{L}", "alpha": r"\alpha", "deltaz": r"\delta\!z",
    "eps00p": r"\epsilon'_{00}", "eps11p": r"\epsilon'_{11}",
    "eps10p": r"\epsilon'_{10}", "eps01p": r"\epsilon'_{01}",
    "epsLp": r"\epsilon'_{L}",
    "phi00": r"\varphi_{00}", "phi11": r"\varphi_{11}",
    "A00": r"A_{00}", "A11": r"A_{11}",
    "psi10": r"\psi_{10}", "psi01": r"\psi_{01}",
    "lam10": r"\lambda_{10}", "lam01": r"\lambda_{01}",
}


def _latex_generator(g: Generator) -> str:
    if g.kind == "field":
        sym = _LATEX_BASE[g.base]
        m, n = g.jet
        if m == 0 and n == 0:
            return sym
        if m == 1 and n == 0:
            return r"\dot{%s}" % sym
        if m == 2 and n == 0:
            return r"\ddot{%s}" % sym
        if m == 0 and n == 1:
            return sym + "'"
        if m == 0 and n == 2:
            return sym + "''"
        pieces = []
        if m:
            pieces.append(r"\partial_t" if m == 1 else r"\partial_t^{%d}" % m)
        if n:
            v = g.space
            pieces.append((r"\partial_%s" % v) if n == 1
                          else r"\partial_%s^{%d}" % (v, n))
        return "".join(pieces) + sym
    if g.kind == "fn":
        if g.base == "F":
            k = g.jet[0]
            if k == 0:
                return "V"
            if k == 1:
                return r"\partial_{00}V"
            return r"\partial_{00}^{%d}V" % k
        if g.base.endswith("pair"):
            m, slot = g.jet
            pre = g.base.startswith("Vt")
            core = (r"\tilde{V}" if pre else "V") + ("_{00}" if slot == 0
                                                     else "_{11}")
            if m == 0:
                return (r"\tilde{V}^{(0)}" if pre else r"V^{(0)}") + \
                    ("_{00}" if slot == 0 else "_{11}")
            if m == 1:
                return core
            if m == 2:
                return r"\partial_{00}" + core
            return r"\partial_{00}^{%d}" % (m - 1) + core
        return TRIG[g.name].latex
    return _LATEX_BASE.get(g.name, g.name)


def _latex_frac(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return r"\tfrac{%d}{%d}" % (f.numerator, f.denominator)


def _latex_signed(f: Fraction, unit: str) -> str:
    """f * unit with its sign in front; a unit magnitude is the unit alone."""
    mag = "" if abs(f) == 1 else _latex_frac(abs(f))
    return ("+" if f > 0 else "-") + mag + unit


def _latex_coeff(c) -> str:
    """Render a Gaussian rational as a latex prefix (sign included)."""
    if not c.im:
        return _latex_signed(c.re, "")
    if not c.re:
        return _latex_signed(c.im, "i")
    re = ("-" if c.re < 0 else "") + _latex_frac(abs(c.re))
    return "+\\left(%s%s\\right)" % (re, _latex_signed(c.im, "i"))


def latex(expr: GradedExpr) -> str:
    if expr.is_zero():
        return "0"
    bits = []
    for mono, c in expr.sorted_terms():
        factors = []
        for g, e in mono:
            sym = _latex_generator(g)
            if e == 1:
                factors.append(sym)
            elif isinstance(e, int):
                factors.append("%s^{%d}" % (sym, e))
            else:
                factors.append("%s^{%s}" % (sym, e))
        body = r"\,".join(factors)
        head = _latex_coeff(c)
        if body and head in ("+", "-"):
            bits.append(head + body)
        elif body:
            bits.append(head + r"\," + body)
        else:
            num = head[1:] if head[0] == "+" else head
            bits.append(("+" if head[0] == "+" else "") + (num or "1"))
    out = "".join(bits)
    return out[1:] if out.startswith("+") else out

