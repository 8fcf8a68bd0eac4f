"""Deterministic renderers for graded expressions.

Three output forms:
  * json_terms / to_json   machine-readable, term order fixed by the
                           canonical monomial order
  * latex                  display form using the conventional field and
                           coordinate symbols
  * text                   ASCII one-liner (same as str())

Coefficients serialize as a ["re", "im"] pair of rational strings so the
output round-trips exactly.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .core import Generator
from .expr import GradedExpr


# ----------------------------------------------------------------------
# json
# ----------------------------------------------------------------------

def json_terms(expr: GradedExpr) -> list:
    out = []
    for mono, c in expr.sorted_terms():
        factors = []
        for g, e in mono:
            f = Fraction(e)
            factors.append([g.name, f.numerator, f.denominator])
        out.append({"coeff": [str(c.re), str(c.im)], "factors": factors})
    return out


def to_json(expr: GradedExpr) -> str:
    return json.dumps(json_terms(expr), separators=(",", ":"))


def expr_from_json(data, resolve) -> GradedExpr:
    """Rebuild an expression from json_terms output.

    resolve(name) must return the generator for a serialized name.
    """
    from .core import GaussianRational
    total = GradedExpr.zero()
    for item in data:
        re_s, im_s = item["coeff"]
        c = GaussianRational(Fraction(re_s), Fraction(im_s))
        acc = GradedExpr.const(c)
        for name, num, den in item["factors"]:
            acc = acc * GradedExpr.gen(resolve(name), Fraction(num, den))
        total = total + acc
    return total


# ----------------------------------------------------------------------
# latex
# ----------------------------------------------------------------------

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
    "S00": r"\sin\varphi_{00}", "C00": r"\cos\varphi_{00}",
    "S11": r"\sin\varphi_{11}", "C11": r"\cos\varphi_{11}",
    "S11y": r"\mathcal{S}_{11}", "C11y": r"\mathcal{C}_{11}",
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
        return _LATEX_BASE.get(g.name, g.name)
    return _LATEX_BASE.get(g.name, g.name)


def _latex_frac(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return r"\tfrac{%d}{%d}" % (f.numerator, f.denominator)


def _latex_coeff(c) -> str:
    """Render a Gaussian rational as a latex prefix (sign included)."""
    if c.im == 0:
        f = c.re
        if f == 1:
            return "+"
        if f == -1:
            return "-"
        return ("+" if f > 0 else "-") + _latex_frac(abs(f))
    if c.re == 0:
        f = c.im
        if f == 1:
            return "+i"
        if f == -1:
            return "-i"
        return ("+" if f > 0 else "-") + _latex_frac(abs(f)) + "i"
    return "+\\left(%s%si\\right)" % (
        _latex_frac(c.re),
        ("+" if c.im > 0 else "-") + _latex_frac(abs(c.im)))


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


def render(expr: GradedExpr, fmt: str) -> str:
    if fmt == "json":
        return to_json(expr)
    if fmt == "latex":
        return latex(expr)
    if fmt == "text":
        return str(expr)
    raise ValueError(f"unknown format {fmt!r}")
