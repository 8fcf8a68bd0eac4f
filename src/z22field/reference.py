"""Hand-checked reference forms used by the verification layer.

Everything here is a literal transcription of the target expressions the
engine must reproduce: variation tables in both stages, the kinetic and
interaction slot functions, the component Lagrangian, the conserved
currents, the equations of motion (generic, quadratic and trigonometric
potentials), and the matrix realization on the component multiplet.

Transcriptions multiply factors in the displayed order; the ring's
canonical form takes care of reordering signs.  A few displays are known
to be internally inconsistent with the rest of the source material; both
variants are provided where that happens (suffix `_printed` for the
literal form) so the callers can report the difference instead of
silently choosing.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Tuple

from .core import (GaussianRational, QI, coord, field, pairjet, param, trig)
from .expr import GradedExpr, gexp, scalar

_i = scalar(QI)
_half = scalar(Fraction(1, 2))


def _f(base: str, m: int = 0, n: int = 0, s: str = "x") -> GradedExpr:
    return gexp(field(base, m, n, s))


def _c(name: str) -> GradedExpr:
    return gexp(coord(name))


def _p(name: str) -> GradedExpr:
    return gexp(param(name))


def _pj(m: int, slot: int, s: str = "x") -> GradedExpr:
    return gexp(pairjet(m, slot, s))


def _tr(name: str) -> GradedExpr:
    return gexp(trig(name))


# ----------------------------------------------------------------------
# coordinate variations
# ----------------------------------------------------------------------

def coordinate_variation_tables() -> Dict[str, Dict[str, GradedExpr]]:
    th10, th01, z, t = _c("th10"), _c("th01"), _c("z"), _c("t")
    zero = GradedExpr.zero()
    return {
        "H": {"t": _p("eps00"), "z": zero, "th10": zero, "th01": zero},
        "Z": {"t": zero, "z": _p("eps11"), "th10": zero, "th01": zero},
        "Q10": {"t": _i * _p("eps10") * th10,
                "z": _half * _p("eps10") * th01,
                "th10": _p("eps10"), "th01": zero},
        "Q01": {"t": _i * _p("eps01") * th01,
                "z": -(_half * _p("eps01") * th10),
                "th10": zero, "th01": _p("eps01")},
        "L11": {"t": scalar(-2) * _p("epsL") * z,
                "z": -(_half * _p("epsL") * t),
                "th10": -(_i * _half * _p("epsL") * th01),
                "th01": _i * _half * _p("epsL") * th10},
    }


# ----------------------------------------------------------------------
# field variation tables, first stage
# ----------------------------------------------------------------------

def pre_variation_tables() -> Dict[str, Dict[str, GradedExpr]]:
    y = _c("y")
    t = _c("t")
    f = lambda b, m=0, n=0: _f(b, m, n, "y")
    e00, e11, e10, e01, eL = (_p(n) for n in
                              ("eps00", "eps11", "eps10", "eps01", "epsL"))
    two = scalar(2)

    h = {b: -(e00 * f(b, 1, 0)) for b in
         ("phi00", "phi11", "A00", "A11", "psi10", "psi01", "lam10", "lam01")}

    z = {
        "phi00": -(e11 * (f("phi11") + two * y * f("phi11", 0, 1))),
        "phi11": -(two * e11 * f("phi00", 0, 1)),
        "psi10": _i * e11 * (f("lam01") + two * y * f("lam01", 0, 1)),
        "lam01": -(two * _i * e11 * f("psi10", 0, 1)),
        "psi01": _i * e11 * (f("lam10") + two * y * f("lam10", 0, 1)),
        "lam10": -(two * _i * e11 * f("psi01", 0, 1)),
        "A11": -(e11 * (f("A00") + two * y * f("A00", 0, 1))),
        "A00": -(two * e11 * f("A11", 0, 1)),
    }

    q10 = {
        "phi00": -(_i * e10 * f("psi10")),
        "phi11": e10 * f("lam01"),
        "psi10": e10 * f("phi00", 1, 0),
        "lam01": -(_i * e10 * f("phi11", 1, 0)),
        "psi01": _i * e10 * (f("A11") + _half * f("phi11") + y * f("phi11", 0, 1)),
        "lam10": e10 * (f("A00") + f("phi00", 0, 1)),
        "A11": -(e10 * (f("psi01", 1, 0) + _half * f("lam01") + y * f("lam01", 0, 1))),
        "A00": -(_i * e10 * (f("lam10", 1, 0) - f("psi10", 0, 1))),
    }

    q01 = {
        "phi00": -(_i * e01 * f("psi01")),
        "phi11": e01 * f("lam10"),
        "psi10": _i * e01 * (f("A11") - _half * f("phi11") - y * f("phi11", 0, 1)),
        "lam01": e01 * (f("A00") - f("phi00", 0, 1)),
        "psi01": e01 * f("phi00", 1, 0),
        "lam10": -(_i * e01 * f("phi11", 1, 0)),
        "A11": -(e01 * (f("psi10", 1, 0) - _half * f("lam10") - y * f("lam10", 0, 1))),
        "A00": -(_i * e01 * (f("lam01", 1, 0) + f("psi01", 0, 1))),
    }

    l11 = {
        "phi00": eL * (two * y * f("phi11", 1, 0)
                       + _half * t * (f("phi11") + two * y * f("phi11", 0, 1))),
        "phi11": eL * (two * f("phi00", 1, 0) + t * f("phi00", 0, 1)),
        "A00": eL * (two * f("A11", 1, 0) + t * f("A11", 0, 1)),
        "A11": eL * (two * y * f("A00", 1, 0)
                     + _half * t * (f("A00") + two * y * f("A00", 0, 1))),
        "psi10": -(_i * eL * (two * y * f("lam01", 1, 0)
                              + _half * t * (f("lam01") + two * y * f("lam01", 0, 1))
                              - _half * f("psi01"))),
        "lam10": _i * eL * (two * f("psi01", 1, 0) + t * f("psi01", 0, 1)
                            - _half * f("lam01")),
        "psi01": -(_i * eL * (two * y * f("lam10", 1, 0)
                              + _half * t * (f("lam10") + two * y * f("lam10", 0, 1))
                              + _half * f("psi10"))),
        "lam01": _i * eL * (two * f("psi10", 1, 0) + t * f("psi10", 0, 1)
                            + _half * f("lam10")),
    }
    return {"H": h, "Z": z, "Q10": q10, "Q01": q01, "L11": l11}


# ----------------------------------------------------------------------
# field variation tables, second stage
# ----------------------------------------------------------------------

def _boost(fb: str) -> GradedExpr:
    """x dot(f) + t f' acting on a second-stage field."""
    return _c("x") * _f(fb, 1, 0) + _c("t") * _f(fb, 0, 1)


def post_variation_tables() -> Dict[str, Dict[str, GradedExpr]]:
    f = lambda b, m=0, n=0: _f(b, m, n, "x")
    e00, e11, e10, e01, eL = (_p(n) for n in
                              ("eps00", "eps11", "eps10", "eps01", "epsL"))

    h = {b: -(_half * e00 * f(b, 1, 0)) for b in
         ("phi00", "phi11", "A00", "A11", "psi10", "psi01", "lam10", "lam01")}

    z = {
        "phi00": -(e11 * f("phi11", 0, 1)),
        "phi11": -(e11 * f("phi00", 0, 1)),
        "psi10": _i * e11 * f("lam01", 0, 1),
        "lam01": -(_i * e11 * f("psi10", 0, 1)),
        "psi01": _i * e11 * f("lam10", 0, 1),
        "lam10": -(_i * e11 * f("psi01", 0, 1)),
        "A11": -(e11 * f("A00", 0, 1)),
        "A00": -(e11 * f("A11", 0, 1)),
    }

    q10 = {
        "phi00": -(_i * e10 * f("psi10")),
        "phi11": e10 * f("lam01"),
        "psi10": _half * e10 * f("phi00", 1, 0),
        "lam01": -(_i * _half * e10 * f("phi11", 1, 0)),
        "psi01": _i * e10 * (f("A11") + _half * f("phi11", 0, 1)),
        "lam10": e10 * (f("A00") + _half * f("phi00", 0, 1)),
        "A11": -(_half * e10 * (f("psi01", 1, 0) + f("lam01", 0, 1))),
        "A00": -(_i * _half * e10 * (f("lam10", 1, 0) - f("psi10", 0, 1))),
    }

    q01 = {
        "phi00": -(_i * e01 * f("psi01")),
        "phi11": e01 * f("lam10"),
        "psi10": _i * e01 * (f("A11") - _half * f("phi11", 0, 1)),
        "lam01": e01 * (f("A00") - _half * f("phi00", 0, 1)),
        "psi01": _half * e01 * f("phi00", 1, 0),
        "lam10": -(_i * _half * e01 * f("phi11", 1, 0)),
        "A11": -(_half * e01 * (f("psi10", 1, 0) - f("lam10", 0, 1))),
        "A00": -(_i * _half * e01 * (f("lam01", 1, 0) + f("psi01", 0, 1))),
    }

    l11 = {
        "phi00": eL * _boost("phi11"),
        "phi11": eL * _boost("phi00"),
        "A00": eL * _boost("A11"),
        "A11": eL * _boost("A00"),
        "psi10": -(_i * eL * (_boost("lam01") - _half * f("psi01"))),
        "lam10": _i * eL * (_boost("psi01") - _half * f("lam01")),
        "psi01": -(_i * eL * (_boost("lam10") + _half * f("psi10"))),
        "lam01": _i * eL * (_boost("psi10") + _half * f("lam10")),
    }
    return {"H": h, "Z": z, "Q10": q10, "Q01": q01, "L11": l11}


# ----------------------------------------------------------------------
# kinetic and interaction slot functions (first stage)
# ----------------------------------------------------------------------

def kinetic_body() -> GradedExpr:
    """z-independent theta-theta slot of D10 Phi D01 Phi."""
    y = _c("y")
    f = lambda b, m=0, n=0: _f(b, m, n, "y")
    two = scalar(2)
    out = (-(f("phi00", 1, 0) * f("phi00", 1, 0))
           + y * f("phi00", 0, 1) * f("phi00", 0, 1)
           - y * f("phi11", 1, 0) * f("phi11", 1, 0)
           + scalar(Fraction(1, 4)) * (f("phi11") + two * y * f("phi11", 0, 1)) ** 2
           - y * f("A00") * f("A00")
           - f("A11") * f("A11")
           - _i * (f("psi10") * f("psi10", 1, 0) + f("psi01") * f("psi01", 1, 0))
           - _i * y * (f("lam10") * f("lam10", 1, 0) + f("lam01") * f("lam01", 1, 0))
           + _i * _half * (f("psi10") * f("lam10") - f("psi01") * f("lam01"))
           - _i * y * (f("psi10", 0, 1) * f("lam10") - f("psi10") * f("lam10", 0, 1)
                       + f("psi01") * f("lam01", 0, 1) - f("psi01", 0, 1) * f("lam01")))
    return out


def interaction_body() -> GradedExpr:
    """z-independent slot of d10 d01 V(Phi) at theta = 0, pair-jet form."""
    y = _c("y")
    f = lambda b, m=0, n=0: _f(b, m, n, "y")
    vt00, vt11 = _pj(1, 0, "y"), _pj(1, 1, "y")
    dvt00, dvt11 = _pj(2, 0, "y"), _pj(2, 1, "y")
    return (f("A11") * vt00
            - (f("psi10") * f("psi01") + y * f("lam10") * f("lam01")) * dvt00
            + y * (f("A00") * vt11
                   - _i * (f("psi10") * f("lam10") + f("psi01") * f("lam01")) * dvt11))


def interaction_z_slot() -> GradedExpr:
    """z-linear slot of the same expression (self-consistent form)."""
    y = _c("y")
    f = lambda b, m=0, n=0: _f(b, m, n, "y")
    vt00, vt11 = _pj(1, 0, "y"), _pj(1, 1, "y")
    dvt00, dvt11 = _pj(2, 0, "y"), _pj(2, 1, "y")
    return (f("A00") * vt00 + f("A11") * vt11
            - _i * (f("psi10") * f("lam10") + f("psi01") * f("lam01")) * dvt00
            - (f("psi10") * f("psi01") + y * f("lam10") * f("lam01")) * dvt11)


# ----------------------------------------------------------------------
# component Lagrangian (second stage)
# ----------------------------------------------------------------------

def lagrangian_kinetic() -> GradedExpr:
    f = _f
    return (_half * (f("phi00", 1, 0) ** 2 - f("phi00", 0, 1) ** 2
                     + f("phi11", 1, 0) * f("phi11", 1, 0)
                     - f("phi11", 0, 1) * f("phi11", 0, 1))
            + scalar(2) * (f("A00") * f("A00") + f("A11") * f("A11"))
            + _i * (f("psi10") * f("psi10", 1, 0) + f("psi01") * f("psi01", 1, 0)
                    + f("lam10") * f("lam10", 1, 0) + f("lam01") * f("lam01", 1, 0))
            - _i * (f("psi10") * f("lam10", 0, 1) - f("psi10", 0, 1) * f("lam10")
                    - f("psi01") * f("lam01", 0, 1) + f("psi01", 0, 1) * f("lam01")))


def fermion_pair_even() -> GradedExpr:
    """psi10 psi01 + lam10 lam01."""
    return _f("psi10") * _f("psi01") + _f("lam10") * _f("lam01")


def fermion_pair_mixed() -> GradedExpr:
    """psi10 lam10 + psi01 lam01."""
    return _f("psi10") * _f("lam10") + _f("psi01") * _f("lam01")


def lagrangian_interaction() -> GradedExpr:
    al = _p("alpha")
    v00, v11 = _pj(1, 0), _pj(1, 1)
    dv00, dv11 = _pj(2, 0), _pj(2, 1)
    return (scalar(-2) * al * (_f("A11") * v00 + _f("A00") * v11)
            + scalar(2) * al * (fermion_pair_even() * dv00
                                + _i * fermion_pair_mixed() * dv11))


def lagrangian_interaction_eliminated() -> GradedExpr:
    al = _p("alpha")
    v00, v11 = _pj(1, 0), _pj(1, 1)
    dv00, dv11 = _pj(2, 0), _pj(2, 1)
    return (-(_half * al * al * (v00 * v00 + v11 * v11))
            + scalar(2) * al * (fermion_pair_even() * dv00
                                + _i * fermion_pair_mixed() * dv11))


def lagrangian_kinetic_eliminated() -> GradedExpr:
    """Kinetic part with the auxiliary squares removed."""
    f = _f
    return (_half * (f("phi00", 1, 0) ** 2 - f("phi00", 0, 1) ** 2
                     + f("phi11", 1, 0) * f("phi11", 1, 0)
                     - f("phi11", 0, 1) * f("phi11", 0, 1))
            + _i * (f("psi10") * f("psi10", 1, 0) + f("psi01") * f("psi01", 1, 0)
                    + f("lam10") * f("lam10", 1, 0) + f("lam01") * f("lam01", 1, 0))
            - _i * (f("psi10") * f("lam10", 0, 1) - f("psi10", 0, 1) * f("lam10")
                    - f("psi01") * f("lam01", 0, 1) + f("psi01", 0, 1) * f("lam01")))


def lagrangian_eliminated() -> GradedExpr:
    return lagrangian_kinetic_eliminated() + lagrangian_interaction_eliminated()


# ----------------------------------------------------------------------
# equations of motion
# ----------------------------------------------------------------------

def generic_eom() -> Dict[str, GradedExpr]:
    """Left sides of the displayed equations for the eliminated system."""
    al = _p("alpha")
    v00, v11 = _pj(1, 0), _pj(1, 1)
    dv00, dv11 = _pj(2, 0), _pj(2, 1)
    d2v00, d2v11 = _pj(3, 0), _pj(3, 1)
    f = _f
    b_even = fermion_pair_even()
    b_mixed = fermion_pair_mixed()
    wave = lambda b: f(b, 2, 0) - f(b, 0, 2)
    return {
        "phi00": (wave("phi00")
                  + al * al * (v00 * dv00 + v11 * dv11)
                  - scalar(2) * al * b_even * d2v00
                  - scalar(2) * _i * al * b_mixed * d2v11),
        "phi11": (wave("phi11")
                  + al * al * (dv00 * v11 + v00 * dv11)
                  - scalar(2) * al * b_even * d2v11
                  - scalar(2) * _i * al * b_mixed * d2v00),
        "psi10": (_i * (f("psi10", 1, 0) - f("lam10", 0, 1))
                  - al * f("psi01") * dv00 - _i * al * f("lam10") * dv11),
        "lam10": (_i * (-f("lam10", 1, 0) + f("psi10", 0, 1))
                  + al * f("lam01") * dv00 - _i * al * f("psi10") * dv11),
        "psi01": (_i * (f("psi01", 1, 0) + f("lam01", 0, 1))
                  - al * f("psi10") * dv00 - _i * al * f("lam01") * dv11),
        "lam01": (_i * (f("lam01", 1, 0) + f("psi01", 0, 1))
                  - al * f("lam10") * dv00 + _i * al * f("psi01") * dv11),
    }


def quadratic_specialization() -> Dict[str, GradedExpr]:
    """Pair components for V = (1/2) w**2: v00 = phi00, v11 = phi11."""
    return {
        "V00": _f("phi00"), "V11": _f("phi11"),
        "V00_1": GradedExpr.const(1), "V11_1": GradedExpr.zero(),
        "V00_2": GradedExpr.zero(), "V11_2": GradedExpr.zero(),
    }


def trigonometric_specialization() -> Dict[str, GradedExpr]:
    """Pair components for V = cos w."""
    s00, c00, s11, c11 = _tr("S00"), _tr("C00"), _tr("S11"), _tr("C11")
    return {
        "V00": -(s00 * c11), "V11": -(c00 * s11),
        "V00_1": -(c00 * c11), "V11_1": s00 * s11,
        "V00_2": s00 * c11, "V11_2": c00 * s11,
        "V00_3": c00 * c11, "V11_3": -(s00 * s11),
    }


def sg_eom_printed() -> Dict[str, GradedExpr]:
    """Literal trigonometric-case displays (fermion terms as printed)."""
    al = _p("alpha")
    s00, c00, s11, c11 = _tr("S00"), _tr("C00"), _tr("S11"), _tr("C11")
    f = _f
    b_even = fermion_pair_even()
    b_mixed = fermion_pair_mixed()
    wave = lambda b: f(b, 2, 0) - f(b, 0, 2)
    # sin 2a cos 2b expands to 2 s_a c_a (c_b^2 - s_b^2)
    sin2cos2_00 = scalar(2) * s00 * c00 * (c11 * c11 - s11 * s11)
    sin2cos2_11 = scalar(2) * s11 * c11 * (c00 * c00 - s00 * s00)
    two = scalar(2)
    return {
        "phi00": (wave("phi00") + _half * al * al * sin2cos2_00
                  + two * al * b_even * s00 * c11
                  + two * _i * al * b_mixed * c00 * s11),
        "phi11": (wave("phi11") + _half * al * al * sin2cos2_11
                  + two * al * b_even * c00 * s11
                  + two * _i * al * b_mixed * s00 * c11),
        "psi10": (_i * (f("psi10", 1, 0) - f("lam10", 0, 1))
                  - al * f("psi01") * c00 * c11
                  + _i * al * f("psi10") * s00 * s11),
        "lam10": (_i * (-f("lam10", 1, 0) + f("psi10", 0, 1))
                  + al * f("lam01") * c00 * c11
                  + _i * al * f("lam10") * s00 * s11),
        "psi01": (_i * (f("psi01", 1, 0) + f("lam01", 0, 1))
                  - al * f("psi10") * c00 * c11
                  + _i * al * f("lam01") * s00 * s11),
        "lam01": (_i * (f("lam01", 1, 0) + f("psi01", 0, 1))
                  - al * f("lam10") * c00 * c11
                  - _i * al * f("psi01") * s00 * s11),
    }


def sg_reduced_eom() -> GradedExpr:
    """Classical reduction: single field, fermions off."""
    al = _p("alpha")
    return (_f("phi00", 2, 0) - _f("phi00", 0, 2)
            + _half * al * al * scalar(2) * _tr("S00") * _tr("C00"))


def quadratic_lagrangian_printed() -> GradedExpr:
    """Mass-term specialization, spinor bilinears expanded in components."""
    al = _p("alpha")
    return (lagrangian_kinetic_eliminated()
            - _half * al * al * (_f("phi00") * _f("phi00")
                                 + _f("phi11") * _f("phi11"))
            + scalar(2) * al * fermion_pair_even())


def quadratic_eom_printed() -> Dict[str, GradedExpr]:
    """Displayed equations of the mass-term case, component rows."""
    al = _p("alpha")
    f = _f
    wave = lambda b: f(b, 2, 0) - f(b, 0, 2)
    return {
        "phi00": wave("phi00") + al * al * f("phi00"),
        "phi11": wave("phi11") + al * al * f("phi11"),
        "psi10": _i * (f("psi10", 1, 0) - f("lam10", 0, 1)) - al * f("psi01"),
        "lam10": _i * (-f("lam10", 1, 0) + f("psi10", 0, 1)) + al * f("lam01"),
        "psi01": _i * (f("psi01", 1, 0) + f("lam01", 0, 1)) - al * f("psi10"),
        "lam01": _i * (f("lam01", 1, 0) + f("psi01", 0, 1)) - al * f("lam10"),
    }


def trig_lagrangian_printed() -> GradedExpr:
    """Double-well trigonometric specialization, bilinears expanded."""
    al = _p("alpha")
    s00, c00, s11, c11 = _tr("S00"), _tr("C00"), _tr("S11"), _tr("C11")
    return (lagrangian_kinetic_eliminated()
            - _half * al * al * (s00 * s00 * c11 * c11
                                 + c00 * c00 * s11 * s11)
            - scalar(2) * al * fermion_pair_even() * c00 * c11
            + scalar(2) * _i * al * fermion_pair_mixed() * s00 * s11)


# ----------------------------------------------------------------------
# conserved currents (second stage, auxiliaries eliminated)
# ----------------------------------------------------------------------

def reference_currents() -> Dict[str, Tuple[GradedExpr, GradedExpr]]:
    al = _p("alpha")
    v00, v11 = _pj(1, 0), _pj(1, 1)
    dv00, dv11 = _pj(2, 0), _pj(2, 1)
    f = _f
    t, x = _c("t"), _c("x")
    two = scalar(2)

    jh0 = (_half * (f("phi00", 1, 0) ** 2 + f("phi00", 0, 1) ** 2
                    + f("phi11", 1, 0) * f("phi11", 1, 0)
                    + f("phi11", 0, 1) * f("phi11", 0, 1))
           + _i * (f("psi10") * f("lam10", 0, 1) - f("psi10", 0, 1) * f("lam10")
                   - f("psi01") * f("lam01", 0, 1) + f("psi01", 0, 1) * f("lam01"))
           + _half * al * al * (v00 * v00 + v11 * v11)
           - two * al * fermion_pair_even() * dv00
           - two * _i * al * fermion_pair_mixed() * dv11)
    jh1 = (-(f("phi00", 1, 0) * f("phi00", 0, 1))
           - f("phi11", 1, 0) * f("phi11", 0, 1)
           + _i * (f("psi10", 1, 0) * f("lam10") - f("psi10") * f("lam10", 1, 0)
                   - f("psi01", 1, 0) * f("lam01") + f("psi01") * f("lam01", 1, 0)))

    j10_0 = (f("phi00", 1, 0) * f("psi10") + f("phi00", 0, 1) * f("lam10")
             - _i * f("phi11", 1, 0) * f("lam01")
             + _i * f("phi11", 0, 1) * f("psi01")
             + al * v11 * f("lam10") + _i * al * v00 * f("psi01"))
    j10_1 = (-(f("phi00", 1, 0) * f("lam10")) - f("phi00", 0, 1) * f("psi10")
             - _i * f("phi11", 1, 0) * f("psi01")
             + _i * f("phi11", 0, 1) * f("lam01")
             - al * v11 * f("psi10") + _i * al * v00 * f("lam01"))

    j01_0 = (f("phi00", 1, 0) * f("psi01") - f("phi00", 0, 1) * f("lam01")
             - _i * f("phi11", 1, 0) * f("lam10")
             - _i * f("phi11", 0, 1) * f("psi10")
             + al * v11 * f("lam01") + _i * al * v00 * f("psi10"))
    j01_1 = (f("phi00", 1, 0) * f("lam01") - f("phi00", 0, 1) * f("psi01")
             + _i * f("phi11", 1, 0) * f("psi10")
             + _i * f("phi11", 0, 1) * f("lam10")
             + al * v11 * f("psi01") - _i * al * v00 * f("lam10"))

    jz0 = (f("phi00", 1, 0) * f("phi11", 0, 1) + f("phi00", 0, 1) * f("phi11", 1, 0)
           + f("psi10", 0, 1) * f("lam01") - f("psi10") * f("lam01", 0, 1)
           + f("psi01", 0, 1) * f("lam10") - f("psi01") * f("lam10", 0, 1))
    jz1 = (-(f("phi00", 1, 0) * f("phi11", 1, 0))
           - f("phi00", 0, 1) * f("phi11", 0, 1)
           + f("psi10") * f("lam01", 1, 0) - f("psi10", 1, 0) * f("lam01")
           + f("psi01") * f("lam10", 1, 0) - f("psi01", 1, 0) * f("lam10")
           + al * al * v00 * v11
           - two * al * fermion_pair_even() * dv11
           - two * _i * al * fermion_pair_mixed() * dv00)

    boost_density = (f("phi00", 1, 0) * f("phi11", 1, 0)
                     + f("phi00", 0, 1) * f("phi11", 0, 1)
                     + f("psi10") * f("psi01", 0, 1) - f("psi10", 0, 1) * f("psi01")
                     - f("lam10") * f("lam01", 0, 1) + f("lam10", 0, 1) * f("lam01")
                     + al * al * v00 * v11
                     - two * al * fermion_pair_even() * dv11
                     - two * _i * al * fermion_pair_mixed() * dv00)
    jl0 = -(t * jz0) - x * boost_density
    jl1 = -(t * jz1) + x * (f("phi00", 1, 0) * f("phi11", 0, 1)
                            + f("phi00", 0, 1) * f("phi11", 1, 0)
                            + f("psi10") * f("psi01", 1, 0)
                            - f("psi10", 1, 0) * f("psi01")
                            - f("lam10") * f("lam01", 1, 0)
                            + f("lam10", 1, 0) * f("lam01"))

    return {"H": (jh0, jh1), "Q10": (j10_0, j10_1), "Q01": (j01_0, j01_1),
            "Z": (jz0, jz1), "L11": (jl0, jl1)}


# ----------------------------------------------------------------------
# matrix realization data
# ----------------------------------------------------------------------

MULTIPLET = ("phi00", "A00", "A11", "phi11", "psi10", "lam10", "psi01",
             "lam01")

# Weyl-algebra words: (t-power, x-power, dt-power, dx-power)
_ID = (0, 0, 0, 0)
_DT = (0, 0, 1, 0)
_DX = (0, 0, 0, 1)
_XDT = (0, 1, 1, 0)
_TDX = (1, 0, 0, 1)


def _gr(re=0, im=0) -> GaussianRational:
    return GaussianRational(re, im)


def matrix_realization_data() -> Dict[str, Dict[Tuple[int, int], List]]:
    """Printed matrices as {(row, col): [(coeff, word), ...]}, 0-indexed."""
    h = {(k, k): [(_gr(0, Fraction(1, 2)), _DT)] for k in range(8)}

    z = {
        (0, 3): [(_gr(0, -1), _DX)], (1, 2): [(_gr(0, -1), _DX)],
        (2, 1): [(_gr(0, -1), _DX)], (3, 0): [(_gr(0, -1), _DX)],
        (4, 7): [(_gr(-1), _DX)], (5, 6): [(_gr(1), _DX)],
        (6, 5): [(_gr(-1), _DX)], (7, 4): [(_gr(1), _DX)],
    }

    half = Fraction(1, 2)
    q10 = {
        (0, 4): [(_gr(1), _ID)],
        (1, 4): [(_gr(-half), _DX)], (1, 5): [(_gr(half), _DT)],
        (2, 6): [(_gr(0, -half), _DT)], (2, 7): [(_gr(0, -half), _DX)],
        (3, 7): [(_gr(0, 1), _ID)],
        (4, 0): [(_gr(0, half), _DT)],
        (5, 0): [(_gr(0, half), _DX)], (5, 1): [(_gr(0, 1), _ID)],
        (6, 2): [(_gr(-1), _ID)], (6, 3): [(_gr(-half), _DX)],
        (7, 3): [(_gr(half), _DT)],
    }

    q01 = {
        (0, 6): [(_gr(1), _ID)],
        (1, 6): [(_gr(half), _DX)], (1, 7): [(_gr(half), _DT)],
        (2, 4): [(_gr(0, -half), _DT)], (2, 5): [(_gr(0, half), _DX)],
        (3, 5): [(_gr(0, 1), _ID)],
        (4, 2): [(_gr(-1), _ID)], (4, 3): [(_gr(half), _DX)],
        (5, 3): [(_gr(half), _DT)],
        (6, 0): [(_gr(0, half), _DT)],
        (7, 0): [(_gr(0, -half), _DX)], (7, 1): [(_gr(0, 1), _ID)],
    }

    boost = [(_gr(1), _XDT), (_gr(1), _TDX)]
    iboost = [(_gr(0, 1), _XDT), (_gr(0, 1), _TDX)]
    nboost = [(_gr(-1), _XDT), (_gr(-1), _TDX)]
    l11 = {
        (0, 3): list(iboost), (1, 2): list(iboost),
        (2, 1): list(iboost), (3, 0): list(iboost),
        (4, 6): [(_gr(-half), _ID)], (4, 7): list(boost),
        (5, 6): list(nboost), (5, 7): [(_gr(half), _ID)],
        (6, 4): [(_gr(half), _ID)], (6, 5): list(boost),
        (7, 4): list(nboost), (7, 5): [(_gr(-half), _ID)],
    }
    return {"H": h, "Z": z, "Q10": q10, "Q01": q01, "L11": l11}
