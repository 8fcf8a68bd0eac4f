"""Superspace action pipeline.

Builds the invariant integrand from the covariant derivative pair and
the superspace potential, integrates it through the superfield's one
reader of the theta-theta slot, transports the density through the
variable redefinition, and assembles the component Lagrangian in both
its generic (pair-symbol) and auxiliary-eliminated forms.

Normalization: the integral sends a theta-theta slot B0 + z B1 to
(1/2) B1, and the action carries an overall minus; the printed final
Lagrangian is the anchor.

Nothing before the last step depends on the potential, so the component
Lagrangian in pair symbols is memoised per `eliminate` flag, the
auxiliary solution once, and `lagrangian(V)` only specializes the
former, with the pair images that V builds once and keeps.  No memo is
keyed by a potential or an expression: each request may bring a new
one, and such a memo would grow without bound.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from .core import (DEG00, Degree, GaussianRational, QI, QONE, QZERO, coord,
                   field, param)
from .derivations import (apply_many, combine, jet_partial, partial_z,
                          rewrite_jets, solve_linear, superspace_operators,
                          total_space, total_t)
from .expr import (_MASK_DEGREE, _MASK_PARITY, GradedExpr, gexp, parse,
                   scalar)
from .superfield import stage_map, superfield, theta_theta_layers

# the functions that use `potential` import it, so a check that calls
# none of them (verify-algebra) never loads it
if TYPE_CHECKING:
    from .potential import FunctionSymbol

_i = scalar(QI)
_half = scalar(Fraction(1, 2))


# ----------------------------------------------------------------------
# integrand and extraction
# ----------------------------------------------------------------------

def covariant_pair() -> Tuple[GradedExpr, GradedExpr]:
    ops = superspace_operators()
    phi = superfield("y")
    return ops["D10"](phi), ops["D01"](phi)


def measure_factor() -> GradedExpr:
    """z y**(-1/2), the invariant half-density of the odd coordinate."""
    return gexp(coord("z")) * gexp(coord("y"), Fraction(-1, 2))


def superspace_integrand() -> GradedExpr:
    from .potential import superspace_potential
    d10phi, d01phi = covariant_pair()
    block = d10phi * d01phi + gexp(param("alpha")) * superspace_potential()
    return measure_factor() * block


def berezin_layer(j: GradedExpr) -> GradedExpr:
    """The integral definition: half the z-linear theta-theta slot."""
    return _half * theta_theta_layers(j)[1]


def action_density() -> GradedExpr:
    """First-stage density; the action is its (t, y) integral."""
    return -berezin_layer(superspace_integrand())


# ----------------------------------------------------------------------
# component Lagrangian
# ----------------------------------------------------------------------

_JACOBIAN = 4  # dt dy = 4 x dt' dx under t = 2t', y = x**2


@cache
def _component_lagrangian(eliminate: bool) -> GradedExpr:
    """The potential-free chain: density, stage map, and optionally the
    auxiliary elimination, in pair symbols."""
    if eliminate:
        return eliminate_auxiliary(_component_lagrangian(False))
    dens = action_density()
    lag = scalar(_JACOBIAN) * gexp(coord("x")) * stage_map(dens)
    xgen = coord("x")
    if any(g is xgen for m in lag.terms for g, _ in m):
        raise AssertionError("residual explicit measure coordinate")
    return lag


def lagrangian(V: Optional[FunctionSymbol] = None,
               eliminate: bool = False) -> GradedExpr:
    """Second-stage Lagrangian.

    Generic (pair-symbol) form by default; V specializes the potential
    tower, eliminate removes the auxiliary pair by its field equations.
    """
    lag = _component_lagrangian(bool(eliminate))
    if V is not None:
        from .potential import specialize_potential
        lag = specialize_potential(lag, V)
    return lag


@cache
def auxiliary_solution() -> Dict[str, GradedExpr]:
    """Solve the algebraic field equations of the two auxiliaries of the
    component Lagrangian in pair symbols."""
    lag = _component_lagrangian(False)
    gens = {b: field(b, 0, 0, "x") for b in ("A00", "A11")}
    parts = apply_many([jet_partial(g) for g in gens.values()], lag)
    return {b: solve_linear(eq, g)
            for (b, g), eq in zip(gens.items(), parts)}


def eliminate_auxiliary(lag: GradedExpr) -> GradedExpr:
    """Substitute the auxiliary solutions, prolonged through jets."""
    sol = auxiliary_solution()
    return rewrite_jets(lag, sol, dict.fromkeys(sol, 0))


# ----------------------------------------------------------------------
# invariance lemmas for the integrand
# ----------------------------------------------------------------------

def measure_invariance_report() -> dict:
    """Shift of the odd coordinate leaves z y**(-1/2) unchanged."""
    shift = combine("delta_z-shift", DEG00,
                    [(gexp(param("deltaz")), partial_z())])
    shifted = shift(measure_factor())
    return {"ok": shifted.is_zero(), "residual": shifted}


def nilpotency_report() -> dict:
    d10phi, d01phi = covariant_pair()
    sq10 = d10phi * d10phi
    sq01 = d01phi * d01phi
    return {"ok": sq10.is_zero() and sq01.is_zero(),
            "sq10": sq10, "sq01": sq01}


def product_covariance_report() -> dict:
    """Boost covariance of the covariant-derivative product.

    Each factor alone picks up an extra rotation piece under the boost,
    but in the product those pieces die by nilpotency, so the product
    varies exactly like the scalar superfield does.
    """
    ops = superspace_operators()
    d10phi, d01phi = covariant_pair()
    dphi = _i * gexp(param("epsL")) * ops["L11"](superfield("y"))
    lhs = ops["D10"](dphi) * d01phi + d10phi * ops["D01"](dphi)
    rhs = _i * gexp(param("epsL")) * ops["L11"](d10phi * d01phi)
    resid = lhs - rhs
    factor = ops["D10"](dphi) - _i * gexp(param("epsL")) * ops["L11"](d10phi)
    return {"ok": resid.is_zero() and not factor.is_zero(),
            "residual": resid, "factor_extra": factor}


# ----------------------------------------------------------------------
# spinor repackaging
# ----------------------------------------------------------------------

Mat2 = Tuple[Tuple[GaussianRational, GaussianRational],
             Tuple[GaussianRational, GaussianRational]]

GAMMA0: Mat2 = ((QONE, QZERO), (QZERO, GaussianRational(-1)))
GAMMA1: Mat2 = ((QZERO, GaussianRational(-1)), (QONE, QZERO))
GAMMA3: Mat2 = ((QZERO, QONE), (QONE, QZERO))
SIGMA1: Mat2 = GAMMA3
ETA = (1, -1)
IDENT2: Mat2 = ((QONE, QZERO), (QZERO, QONE))


def mat_mul(a: Mat2, b: Mat2) -> Mat2:
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(2)),
                           GaussianRational(0)) for j in range(2))
                 for i in range(2))


def mat_scale(c, a: Mat2) -> Mat2:
    c = GaussianRational.coerce(c)
    return tuple(tuple(c * a[i][j] for j in range(2)) for i in range(2))


def mat_add(a: Mat2, b: Mat2) -> Mat2:
    return tuple(tuple(a[i][j] + b[i][j] for j in range(2)) for i in range(2))


def clifford_report() -> dict:
    gammas = (GAMMA0, GAMMA1)
    ok = True
    for mu in range(2):
        for nu in range(2):
            want = mat_scale(2 * (ETA[mu] if mu == nu else 0), IDENT2)
            got = mat_add(mat_mul(gammas[mu], gammas[nu]),
                          mat_mul(gammas[nu], gammas[mu]))
            ok = ok and got == want
    chir = mat_scale(GaussianRational(-1), mat_mul(GAMMA0, GAMMA1))
    ok = ok and chir == GAMMA3
    ok = ok and mat_mul(GAMMA3, GAMMA3) == IDENT2
    return {"ok": ok}


Vec2 = Tuple[GradedExpr, GradedExpr]


def spinor_vectors() -> Dict[str, Vec2]:
    f = lambda b: gexp(field(b, 0, 0, "x"))
    return {"Psi10": (f("psi10"), f("lam10")),
            "Psi01": (f("lam01"), -f("psi01"))}


def mat_vec(m: Mat2, v: Vec2) -> Vec2:
    return (scalar(m[0][0]) * v[0] + scalar(m[0][1]) * v[1],
            scalar(m[1][0]) * v[0] + scalar(m[1][1]) * v[1])


def bar(v: Vec2) -> Vec2:
    """Dirac conjugate row: starred components against gamma0."""
    return (v[0].star(), -(v[1].star()))


def pair_with(u: Vec2, v: Vec2) -> GradedExpr:
    return u[0] * v[0] + u[1] * v[1]


def bilinear(u: Vec2, m: Mat2, v: Vec2) -> GradedExpr:
    return pair_with(bar(u), mat_vec(m, v))


def slashed(v: Vec2) -> Vec2:
    dt, dx = total_t("x"), total_space("x")
    vt = (dt(v[0]), dt(v[1]))
    vx = (dx(v[0]), dx(v[1]))
    return (mat_vec(GAMMA0, vt)[0] + mat_vec(GAMMA1, vx)[0],
            mat_vec(GAMMA0, vt)[1] + mat_vec(GAMMA1, vx)[1])


def fermion_bilinears() -> Dict[str, GradedExpr]:
    """The two chirality-paired bilinears entering the interaction."""
    sp = spinor_vectors()
    p10, p01 = sp["Psi10"], sp["Psi01"]
    b1 = bilinear(p10, GAMMA3, p01) - bilinear(p01, GAMMA3, p10)
    b2 = bilinear(p10, GAMMA3, p10) + bilinear(p01, GAMMA3, p01)
    return {"mixed_chirality": b1, "same_chirality": b2}


def spinor_lagrangian(eliminate: bool = False) -> GradedExpr:
    """The Lagrangian assembled from spinor blocks."""
    read = lambda text: parse(text, "x")
    sp = spinor_vectors()
    p10, p01 = sp["Psi10"], sp["Psi01"]
    bos = read("-1/2*phi00_x^2 + 1/2*phi00_t^2"
               " - 1/2*phi11_x^2 + 1/2*phi11_t^2")
    ferm = _i * (pair_with(bar(p10), slashed(p10))
                 + pair_with(bar(p01), slashed(p01)))
    b = fermion_bilinears()
    inter = -(read("alpha") * (b["mixed_chirality"] * read("V00_1")
                               - _i * b["same_chirality"] * read("V11_1")))
    if eliminate:
        pot = read("-1/2*alpha^2*V00^2 - 1/2*alpha^2*V11^2")
        return bos + ferm + pot + inter
    aux = read("2*A00^2 + 2*A11^2")
    coup = read("-2*alpha*A00*V11 - 2*alpha*A11*V00")
    return bos + aux + ferm + coup + inter


def lorentz_spinor_report() -> dict:
    """Boost variation of the spinor doublets in matrix form."""
    from .superfield import variation_table
    tab = variation_table("L11", "x")
    eps = gexp(param("epsL"))
    dt, dx = total_t("x"), total_space("x")

    def lhat(e: GradedExpr) -> GradedExpr:
        return gexp(coord("x")) * dt(e) + gexp(coord("t")) * dx(e)

    sp = spinor_vectors()
    p10, p01 = sp["Psi10"], sp["Psi01"]

    def op(v: Vec2) -> Vec2:
        half_s = mat_vec(SIGMA1, v)
        return (lhat(v[0]) + _half * half_s[0], lhat(v[1]) + _half * half_s[1])

    want10 = tuple(-( _i * eps * c) for c in op(p01))
    want01 = tuple(_i * eps * c for c in op(p10))
    got10 = (tab["psi10"], tab["lam10"])
    got01 = (tab["lam01"], -tab["psi01"])
    ok = got10 == want10 and got01 == want01
    return {"ok": ok, "got10": got10, "want10": want10,
            "got01": got01, "want01": want01}


# ----------------------------------------------------------------------
# audits
# ----------------------------------------------------------------------

def lagrangian_audit(lag: GradedExpr) -> dict:
    """`degree()`, `scaling_dim()` and `is_real()` of lag in one walk of
    each monomial's factors, the rules of `expr._mono_mask`,
    `_mono_dim_ratio` and `_mono_star_sign` restated inline: the star
    sign's running mask ends as the degree mask, and () marks a mixed
    dimension."""
    masks, dim, real = set(), None, True
    for mono, c in lag.terms.items():
        s = seen = num = 0
        k = 1
        for g, e in mono:
            gm, d2 = g.mask, g.dim2
            if gm and e & 1:
                s ^= _MASK_PARITY[gm & seen]
                seen ^= gm
            if d2:
                if type(e) is int:
                    num += e * d2 * k
                else:
                    num = num * e.denominator + e.numerator * d2 * k
                    k *= e.denominator
        masks.add(seen)
        if dim is None:
            dim = (num, 2 * k)
        elif dim and num * dim[1] != dim[0] * 2 * k:
            dim = ()
        if c._a if s else c._b:
            real = False
    deg = (None if len(masks) > 1
           else _MASK_DEGREE[masks.pop()] if masks else DEG00)
    dim = Fraction(*dim) if dim else None
    return {"ok": deg == Degree(0, 0) and dim == Fraction(2) and real,
            "degree": deg, "dimension": dim, "real": real}
