"""The paper's displays that the engine must reproduce, as text.

Each display is the text that `str` prints for its value, read back by
`expr.parse` when its function is called; nothing is parsed at import.
A table is one block of `key: expression` lines; a key `A.b` files its
entry under A, then b.  The stage ("y" first, "x" second) places the
bare fields and their pure time jets, which print alike at both stages.
The matrices of the D-module realization are such a table too: the line
`M.b` holds the row of M F at the multiplet base b.

The text is in the ring's canonical order, not the paper's: terms sorted
by monomial, factors by generator, signs and the z**2 -> y fold applied.
So each entry is a fixed point, str(parse(text, stage)) == text, which a
test pins.  Where a display is inconsistent with the rest of the source,
its `_printed` variant keeps the literal form, discrepancy included, so
the callers report the difference instead of silently choosing.

To add a display, build its value with the ring's operations, take its
`str()` as the text, and check that parse(text, stage) equals the value
and prints back as that text.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .expr import GradedExpr, parse


def _read(stage: str, block: str) -> dict:
    """The entries of a display block, one `key: expression` per line."""
    out: dict = {}
    for line in block.strip("\n").split("\n"):
        key, text = line.split(": ", 1)
        head, dot, tail = key.partition(".")
        if dot:
            out.setdefault(head, {})[tail] = parse(text, stage)
        else:
            out[key] = parse(text, stage)
    return out


def coordinate_variation_tables() -> Dict[str, Dict[str, GradedExpr]]:
    return _read("y", """
H.t: eps00
H.z: 0
H.th10: 0
H.th01: 0
Z.t: 0
Z.z: eps11
Z.th10: 0
Z.th01: 0
Q10.t: -i*th10*eps10
Q10.z: 1/2*th01*eps10
Q10.th10: eps10
Q10.th01: 0
Q01.t: -i*th01*eps01
Q01.z: -1/2*th10*eps01
Q01.th10: 0
Q01.th01: eps01
L11.t: -2*z*epsL
L11.z: -1/2*t*epsL
L11.th10: 1/2*i*th01*epsL
L11.th01: -1/2*i*th10*epsL
""")


def pre_variation_tables() -> Dict[str, Dict[str, GradedExpr]]:
    return _read("y", """
H.phi00: -eps00*phi00_t
H.phi11: -eps00*phi11_t
H.A00: -eps00*A00_t
H.A11: -eps00*A11_t
H.psi10: -eps00*psi10_t
H.psi01: -eps00*psi01_t
H.lam10: -eps00*lam10_t
H.lam01: -eps00*lam01_t
Z.phi00: -2*y*eps11*phi11_y - eps11*phi11
Z.phi11: -2*eps11*phi00_y
Z.psi10: 2*i*y*eps11*lam01_y + i*eps11*lam01
Z.lam01: -2*i*eps11*psi10_y
Z.psi01: 2*i*y*eps11*lam10_y + i*eps11*lam10
Z.lam10: -2*i*eps11*psi01_y
Z.A11: -2*y*eps11*A00_y - eps11*A00
Z.A00: -2*eps11*A11_y
Q10.phi00: -i*eps10*psi10
Q10.phi11: eps10*lam01
Q10.psi10: eps10*phi00_t
Q10.lam01: -i*eps10*phi11_t
Q10.psi01: i*y*eps10*phi11_y + i*eps10*A11 + 1/2*i*eps10*phi11
Q10.lam10: eps10*A00 + eps10*phi00_y
Q10.A11: -y*eps10*lam01_y - 1/2*eps10*lam01 - eps10*psi01_t
Q10.A00: -i*eps10*lam10_t + i*eps10*psi10_y
Q01.phi00: -i*eps01*psi01
Q01.phi11: eps01*lam10
Q01.psi10: -i*y*eps01*phi11_y + i*eps01*A11 - 1/2*i*eps01*phi11
Q01.lam01: eps01*A00 - eps01*phi00_y
Q01.psi01: eps01*phi00_t
Q01.lam10: -i*eps01*phi11_t
Q01.A11: y*eps01*lam10_y + 1/2*eps01*lam10 - eps01*psi10_t
Q01.A00: -i*eps01*lam01_t - i*eps01*psi01_y
L11.phi00: t*y*epsL*phi11_y + 1/2*t*epsL*phi11 + 2*y*epsL*phi11_t
L11.phi11: t*epsL*phi00_y + 2*epsL*phi00_t
L11.A00: t*epsL*A11_y + 2*epsL*A11_t
L11.A11: t*y*epsL*A00_y + 1/2*t*epsL*A00 + 2*y*epsL*A00_t
L11.psi10: -i*t*y*epsL*lam01_y - 1/2*i*t*epsL*lam01 - 2*i*y*epsL*lam01_t + 1/2*i*epsL*psi01
L11.lam10: i*t*epsL*psi01_y - 1/2*i*epsL*lam01 + 2*i*epsL*psi01_t
L11.psi01: -i*t*y*epsL*lam10_y - 1/2*i*t*epsL*lam10 - 2*i*y*epsL*lam10_t - 1/2*i*epsL*psi10
L11.lam01: i*t*epsL*psi10_y + 1/2*i*epsL*lam10 + 2*i*epsL*psi10_t
""")


def post_variation_tables() -> Dict[str, Dict[str, GradedExpr]]:
    return _read("x", """
H.phi00: -1/2*eps00*phi00_t
H.phi11: -1/2*eps00*phi11_t
H.A00: -1/2*eps00*A00_t
H.A11: -1/2*eps00*A11_t
H.psi10: -1/2*eps00*psi10_t
H.psi01: -1/2*eps00*psi01_t
H.lam10: -1/2*eps00*lam10_t
H.lam01: -1/2*eps00*lam01_t
Z.phi00: -eps11*phi11_x
Z.phi11: -eps11*phi00_x
Z.psi10: i*eps11*lam01_x
Z.lam01: -i*eps11*psi10_x
Z.psi01: i*eps11*lam10_x
Z.lam10: -i*eps11*psi01_x
Z.A11: -eps11*A00_x
Z.A00: -eps11*A11_x
Q10.phi00: -i*eps10*psi10
Q10.phi11: eps10*lam01
Q10.psi10: 1/2*eps10*phi00_t
Q10.lam01: -1/2*i*eps10*phi11_t
Q10.psi01: i*eps10*A11 + 1/2*i*eps10*phi11_x
Q10.lam10: eps10*A00 + 1/2*eps10*phi00_x
Q10.A11: -1/2*eps10*lam01_x - 1/2*eps10*psi01_t
Q10.A00: -1/2*i*eps10*lam10_t + 1/2*i*eps10*psi10_x
Q01.phi00: -i*eps01*psi01
Q01.phi11: eps01*lam10
Q01.psi10: i*eps01*A11 - 1/2*i*eps01*phi11_x
Q01.lam01: eps01*A00 - 1/2*eps01*phi00_x
Q01.psi01: 1/2*eps01*phi00_t
Q01.lam10: -1/2*i*eps01*phi11_t
Q01.A11: 1/2*eps01*lam10_x - 1/2*eps01*psi10_t
Q01.A00: -1/2*i*eps01*lam01_t - 1/2*i*eps01*psi01_x
L11.phi00: t*epsL*phi11_x + x*epsL*phi11_t
L11.phi11: t*epsL*phi00_x + x*epsL*phi00_t
L11.A00: t*epsL*A11_x + x*epsL*A11_t
L11.A11: t*epsL*A00_x + x*epsL*A00_t
L11.psi10: -i*t*epsL*lam01_x - i*x*epsL*lam01_t + 1/2*i*epsL*psi01
L11.lam10: i*t*epsL*psi01_x + i*x*epsL*psi01_t - 1/2*i*epsL*lam01
L11.psi01: -i*t*epsL*lam10_x - i*x*epsL*lam10_t - 1/2*i*epsL*psi10
L11.lam01: i*t*epsL*psi10_x + i*x*epsL*psi10_t + 1/2*i*epsL*lam10
""")


def kinetic_body() -> GradedExpr:
    """z-independent theta-theta slot of D10 Phi D01 Phi."""
    return parse("-y*A00^2 + y*phi00_y^2 + y*phi11*phi11_y - y*phi11_t^2 - i*y*lam01*lam01_t - i*y*lam01*psi01_y + i*y*lam01_y*psi01 - i*y*lam10*lam10_t + i*y*lam10*psi10_y - i*y*lam10_y*psi10 + y^2*phi11_y^2 - A11^2 - phi00_t^2 + 1/4*phi11^2 + 1/2*i*lam01*psi01 - 1/2*i*lam10*psi10 - i*psi01*psi01_t - i*psi10*psi10_t", "y")


def interaction_body() -> GradedExpr:
    """z-independent slot of d10 d01 V(Phi) at theta = 0, pair-jet form."""
    return parse("y*A00*Vt11 - y*lam01*lam10*Vt00_1 + i*y*lam01*psi01*Vt11_1 + i*y*lam10*psi10*Vt11_1 + A11*Vt00 - psi01*psi10*Vt00_1", "y")


def interaction_z_slot() -> GradedExpr:
    """z-linear slot of the same expression (self-consistent form)."""
    return parse("-y*lam01*lam10*Vt11_1 + A00*Vt00 + A11*Vt11 + i*lam01*psi01*Vt00_1 + i*lam10*psi10*Vt00_1 - psi01*psi10*Vt11_1", "y")


def lagrangian_kinetic() -> GradedExpr:
    return parse("2*A00^2 + 2*A11^2 - 1/2*phi00_x^2 + 1/2*phi00_t^2 - 1/2*phi11_x^2 + 1/2*phi11_t^2 + i*lam01*lam01_t + i*lam01*psi01_x - i*lam01_x*psi01 + i*lam10*lam10_t - i*lam10*psi10_x + i*lam10_x*psi10 + i*psi01*psi01_t + i*psi10*psi10_t", "x")


def lagrangian_interaction() -> GradedExpr:
    return parse("-2*alpha*A00*V11 - 2*alpha*A11*V00 + 2*alpha*lam01*lam10*V00_1 - 2*i*alpha*lam01*psi01*V11_1 - 2*i*alpha*lam10*psi10*V11_1 + 2*alpha*psi01*psi10*V00_1", "x")


def lagrangian_eliminated() -> GradedExpr:
    return parse("2*alpha*lam01*lam10*V00_1 - 2*i*alpha*lam01*psi01*V11_1 - 2*i*alpha*lam10*psi10*V11_1 + 2*alpha*psi01*psi10*V00_1 - 1/2*alpha^2*V00^2 - 1/2*alpha^2*V11^2 - 1/2*phi00_x^2 + 1/2*phi00_t^2 - 1/2*phi11_x^2 + 1/2*phi11_t^2 + i*lam01*lam01_t + i*lam01*psi01_x - i*lam01_x*psi01 + i*lam10*lam10_t - i*lam10*psi10_x + i*lam10_x*psi10 + i*psi01*psi01_t + i*psi10*psi10_t", "x")


def generic_eom() -> Dict[str, GradedExpr]:
    """Left sides of the displayed equations for the eliminated system."""
    return _read("x", """
phi00: -2*alpha*lam01*lam10*V00_2 + 2*i*alpha*lam01*psi01*V11_2 + 2*i*alpha*lam10*psi10*V11_2 - 2*alpha*psi01*psi10*V00_2 + alpha^2*V00*V00_1 + alpha^2*V11*V11_1 - phi00_xx + phi00_tt
phi11: -2*alpha*lam01*lam10*V11_2 + 2*i*alpha*lam01*psi01*V00_2 + 2*i*alpha*lam10*psi10*V00_2 - 2*alpha*psi01*psi10*V11_2 + alpha^2*V00*V11_1 + alpha^2*V11*V00_1 - phi11_xx + phi11_tt
psi10: -i*alpha*lam10*V11_1 - alpha*psi01*V00_1 - i*lam10_x + i*psi10_t
lam10: alpha*lam01*V00_1 - i*alpha*psi10*V11_1 - i*lam10_t + i*psi10_x
psi01: -i*alpha*lam01*V11_1 - alpha*psi10*V00_1 + i*lam01_x + i*psi01_t
lam01: -alpha*lam10*V00_1 + i*alpha*psi01*V11_1 + i*lam01_t + i*psi01_x
""")


def quadratic_specialization() -> Dict[str, GradedExpr]:
    """Pair components for V = (1/2) w**2: v00 = phi00, v11 = phi11."""
    return _read("x", """
V00: phi00
V11: phi11
V00_1: 1
V11_1: 0
V00_2: 0
V11_2: 0
""")


def trigonometric_specialization() -> Dict[str, GradedExpr]:
    """Pair components for V = cos w."""
    return _read("x", """
V00: -C11*S00
V11: -C00*S11
V00_1: -C00*C11
V11_1: S00*S11
V00_2: C11*S00
V11_2: C00*S11
V00_3: C00*C11
V11_3: -S00*S11
""")


def sg_eom_printed() -> Dict[str, GradedExpr]:
    """Literal trigonometric-case displays (fermion terms as printed)."""
    return _read("x", """
phi00: 2*alpha*lam01*lam10*C11*S00 - 2*i*alpha*lam01*psi01*C00*S11 - 2*i*alpha*lam10*psi10*C00*S11 + 2*alpha*psi01*psi10*C11*S00 + alpha^2*C00*C11^2*S00 - alpha^2*C00*S00*S11^2 - phi00_xx + phi00_tt
phi11: 2*alpha*lam01*lam10*C00*S11 - 2*i*alpha*lam01*psi01*C11*S00 - 2*i*alpha*lam10*psi10*C11*S00 + 2*alpha*psi01*psi10*C00*S11 + alpha^2*C00^2*C11*S11 - alpha^2*C11*S00^2*S11 - phi11_xx + phi11_tt
psi10: -alpha*psi01*C00*C11 + i*alpha*psi10*S00*S11 - i*lam10_x + i*psi10_t
lam10: alpha*lam01*C00*C11 + i*alpha*lam10*S00*S11 - i*lam10_t + i*psi10_x
psi01: i*alpha*lam01*S00*S11 - alpha*psi10*C00*C11 + i*lam01_x + i*psi01_t
lam01: -alpha*lam10*C00*C11 - i*alpha*psi01*S00*S11 + i*lam01_t + i*psi01_x
""")


def sg_eom_errata() -> Dict[str, GradedExpr]:
    """Each trigonometric engine row divided by its generic scale, minus
    the literal display above: the fermion terms the display misprints."""
    return _read("x", """
phi00: -4*alpha*lam01*lam10*C11*S00 + 4*i*alpha*lam01*psi01*C00*S11 + 4*i*alpha*lam10*psi10*C00*S11 - 4*alpha*psi01*psi10*C11*S00
phi11: -4*alpha*lam01*lam10*C00*S11 + 4*i*alpha*lam01*psi01*C11*S00 + 4*i*alpha*lam10*psi10*C11*S00 - 4*alpha*psi01*psi10*C00*S11
psi10: -i*alpha*lam10*S00*S11 + 2*alpha*psi01*C00*C11 - i*alpha*psi10*S00*S11
lam10: -2*alpha*lam01*C00*C11 - i*alpha*lam10*S00*S11 - i*alpha*psi10*S00*S11
psi01: -2*i*alpha*lam01*S00*S11 + 2*alpha*psi10*C00*C11
lam01: 2*alpha*lam10*C00*C11 + 2*i*alpha*psi01*S00*S11
""")


def sg_reduced_eom() -> GradedExpr:
    """Classical reduction: single field, fermions off."""
    return parse("alpha^2*C00*S00 - phi00_xx + phi00_tt", "x")


def quadratic_lagrangian_printed() -> GradedExpr:
    """Mass-term specialization, spinor bilinears expanded in components."""
    return parse("2*alpha*lam01*lam10 + 2*alpha*psi01*psi10 - 1/2*alpha^2*phi00^2 - 1/2*alpha^2*phi11^2 - 1/2*phi00_x^2 + 1/2*phi00_t^2 - 1/2*phi11_x^2 + 1/2*phi11_t^2 + i*lam01*lam01_t + i*lam01*psi01_x - i*lam01_x*psi01 + i*lam10*lam10_t - i*lam10*psi10_x + i*lam10_x*psi10 + i*psi01*psi01_t + i*psi10*psi10_t", "x")


def quadratic_eom_printed() -> Dict[str, GradedExpr]:
    """Displayed equations of the mass-term case, component rows."""
    return _read("x", """
phi00: alpha^2*phi00 - phi00_xx + phi00_tt
phi11: alpha^2*phi11 - phi11_xx + phi11_tt
psi10: -alpha*psi01 - i*lam10_x + i*psi10_t
lam10: alpha*lam01 - i*lam10_t + i*psi10_x
psi01: -alpha*psi10 + i*lam01_x + i*psi01_t
lam01: -alpha*lam10 + i*lam01_t + i*psi01_x
""")


def trig_lagrangian_printed() -> GradedExpr:
    """Double-well trigonometric specialization, bilinears expanded."""
    return parse("-2*alpha*lam01*lam10*C00*C11 - 2*i*alpha*lam01*psi01*S00*S11 - 2*i*alpha*lam10*psi10*S00*S11 - 2*alpha*psi01*psi10*C00*C11 - 1/2*alpha^2*C00^2*S11^2 - 1/2*alpha^2*C11^2*S00^2 - 1/2*phi00_x^2 + 1/2*phi00_t^2 - 1/2*phi11_x^2 + 1/2*phi11_t^2 + i*lam01*lam01_t + i*lam01*psi01_x - i*lam01_x*psi01 + i*lam10*lam10_t - i*lam10*psi10_x + i*lam10_x*psi10 + i*psi01*psi01_t + i*psi10*psi10_t", "x")


def reference_currents() -> Dict[str, Tuple[GradedExpr, GradedExpr]]:
    return {name: tuple(j.values()) for name, j in _read("x", """
H.0: -2*alpha*lam01*lam10*V00_1 + 2*i*alpha*lam01*psi01*V11_1 + 2*i*alpha*lam10*psi10*V11_1 - 2*alpha*psi01*psi10*V00_1 + 1/2*alpha^2*V00^2 + 1/2*alpha^2*V11^2 + 1/2*phi00_x^2 + 1/2*phi00_t^2 + 1/2*phi11_x^2 + 1/2*phi11_t^2 - i*lam01*psi01_x + i*lam01_x*psi01 + i*lam10*psi10_x - i*lam10_x*psi10
H.1: -phi00_x*phi00_t - phi11_x*phi11_t + i*lam01*psi01_t - i*lam01_t*psi01 - i*lam10*psi10_t + i*lam10_t*psi10
Q10.0: -alpha*lam10*V11 + i*alpha*psi01*V00 + phi00_x*lam10 + phi00_t*psi10 + i*phi11_x*psi01 - i*phi11_t*lam01
Q10.1: i*alpha*lam01*V00 + alpha*psi10*V11 - phi00_x*psi10 - phi00_t*lam10 + i*phi11_x*lam01 - i*phi11_t*psi01
Q01.0: -alpha*lam01*V11 + i*alpha*psi10*V00 - phi00_x*lam01 + phi00_t*psi01 - i*phi11_x*psi10 - i*phi11_t*lam10
Q01.1: -i*alpha*lam10*V00 - alpha*psi01*V11 - phi00_x*psi01 + phi00_t*lam01 + i*phi11_x*lam10 + i*phi11_t*psi10
Z.0: phi00_x*phi11_t + phi00_t*phi11_x + lam01*psi10_x - lam01_x*psi10 + lam10*psi01_x - lam10_x*psi01
Z.1: -2*alpha*lam01*lam10*V11_1 + 2*i*alpha*lam01*psi01*V00_1 + 2*i*alpha*lam10*psi10*V00_1 - 2*alpha*psi01*psi10*V11_1 + alpha^2*V00*V11 - phi00_x*phi11_x - phi00_t*phi11_t - lam01*psi10_t + lam01_t*psi10 - lam10*psi01_t + lam10_t*psi01
L11.0: -t*phi00_x*phi11_t - t*phi00_t*phi11_x - t*lam01*psi10_x + t*lam01_x*psi10 - t*lam10*psi01_x + t*lam10_x*psi01 + 2*x*alpha*lam01*lam10*V11_1 - 2*i*x*alpha*lam01*psi01*V00_1 - 2*i*x*alpha*lam10*psi10*V00_1 + 2*x*alpha*psi01*psi10*V11_1 - x*alpha^2*V00*V11 - x*phi00_x*phi11_x - x*phi00_t*phi11_t - x*lam01*lam10_x + x*lam01_x*lam10 + x*psi01*psi10_x - x*psi01_x*psi10
L11.1: 2*t*alpha*lam01*lam10*V11_1 - 2*i*t*alpha*lam01*psi01*V00_1 - 2*i*t*alpha*lam10*psi10*V00_1 + 2*t*alpha*psi01*psi10*V11_1 - t*alpha^2*V00*V11 + t*phi00_x*phi11_x + t*phi00_t*phi11_t + t*lam01*psi10_t - t*lam01_t*psi10 + t*lam10*psi01_t - t*lam10_t*psi01 + x*phi00_x*phi11_t + x*phi00_t*phi11_x + x*lam01*lam10_t - x*lam01_t*lam10 - x*psi01*psi10_t + x*psi01_t*psi10
""").items()}


# ----------------------------------------------------------------------
# matrix realization
# ----------------------------------------------------------------------

MULTIPLET = ("phi00", "A00", "A11", "phi11", "psi10", "lam10", "psi01",
             "lam01")


def printed_matrices() -> Dict[str, Dict[str, GradedExpr]]:
    """The displayed matrices, each as its rows M F: row `M.b` is the
    component of M F at base b, in which the word t^a x^b dt^c dx^d of
    column k is the monomial t^a x^b F_k^(c,d)."""
    return _read("x", """
H.phi00: 1/2*i*phi00_t
H.A00: 1/2*i*A00_t
H.A11: 1/2*i*A11_t
H.phi11: 1/2*i*phi11_t
H.psi10: 1/2*i*psi10_t
H.lam10: 1/2*i*lam10_t
H.psi01: 1/2*i*psi01_t
H.lam01: 1/2*i*lam01_t
Z.phi00: -i*phi11_x
Z.A00: -i*A11_x
Z.A11: -i*A00_x
Z.phi11: -i*phi00_x
Z.psi10: -lam01_x
Z.lam10: psi01_x
Z.psi01: -lam10_x
Z.lam01: psi10_x
Q10.phi00: psi10
Q10.A00: 1/2*lam10_t - 1/2*psi10_x
Q10.A11: -1/2*i*lam01_x - 1/2*i*psi01_t
Q10.phi11: i*lam01
Q10.psi10: 1/2*i*phi00_t
Q10.lam10: i*A00 + 1/2*i*phi00_x
Q10.psi01: -A11 - 1/2*phi11_x
Q10.lam01: 1/2*phi11_t
Q01.phi00: psi01
Q01.A00: 1/2*lam01_t + 1/2*psi01_x
Q01.A11: 1/2*i*lam10_x - 1/2*i*psi10_t
Q01.phi11: i*lam10
Q01.psi10: -A11 + 1/2*phi11_x
Q01.lam10: 1/2*phi11_t
Q01.psi01: 1/2*i*phi00_t
Q01.lam01: i*A00 - 1/2*i*phi00_x
L11.phi00: i*t*phi11_x + i*x*phi11_t
L11.A00: i*t*A11_x + i*x*A11_t
L11.A11: i*t*A00_x + i*x*A00_t
L11.phi11: i*t*phi00_x + i*x*phi00_t
L11.psi10: t*lam01_x + x*lam01_t - 1/2*psi01
L11.lam10: -t*psi01_x - x*psi01_t + 1/2*lam01
L11.psi01: t*lam10_x + x*lam10_t + 1/2*psi10
L11.lam01: -t*psi10_x - x*psi10_t - 1/2*lam10
""")
