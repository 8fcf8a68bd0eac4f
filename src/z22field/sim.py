"""Finite-difference solver for the bosonic sector of the derived models.

Evolves the coupled pair

    phi00_tt = phi00_xx - (alpha^2/2) sin(2 phi00) cos(2 phi11)
    phi11_tt = phi11_xx - (alpha^2/2) cos(2 phi00) sin(2 phi11)

(or the massive linear variant) with a velocity-Verlet update on a
uniform grid.  In u = phi00 + phi11 and v = phi00 - phi11 the coupling
is (alpha^2/4)(sin 2u +- sin 2v), so the pair is two decoupled
sine-Gordon equations, the force costs two sines per site, and the
potential is (alpha^2/4)(sin^2 u + sin^2 v).  Fermions stay symbolic;
they have no numeric classical representation.

Each `step` evaluates `force` once: the force at the new positions,
which closes one Verlet step, opens the next.  `step` keeps it on the
state it returns, keyed by the inputs the force depends on, (model,
boundary, alpha, dx), and by the position arrays it was computed at; a
state without that force (from `init_profile`, or built by hand) or
stepped under a config with another key gets a fresh evaluation.
`step` never writes into its input, and the field arrays of the state
it returns are read-only, so an in-place edit raises instead of pairing
new positions with an old force.

`total_energy` is the scheme's own discrete energy, which the update
conserves up to a bounded oscillation, and `SimConfig` refuses a time
step past the Verlet stability bound dt^2 (4/dx^2 + alpha^2) < 4.
"""

import math
from dataclasses import dataclass, field as dataclass_field
from typing import Dict, List, Optional, Tuple

import numpy as np

MODELS = ("sine-gordon", "massive")
BOUNDARIES = ("periodic", "fixed")
PROFILES = ("zero", "kink", "gaussian", "two-field-kink")

_trapezoid = getattr(np, "trapezoid", None) or np.trapz

# largest grid SimConfig accepts: 10^7 sites is 80 MB per field array
MAX_SITES = 10 ** 7


# ----------------------------------------------------------------------
# configuration and state
# ----------------------------------------------------------------------

@dataclass
class SimConfig:
    alpha: float = 1.0
    dx: float = 0.05
    dt: Optional[float] = None  # defaults to 0.4 dx
    x_min: float = -20.0
    x_max: float = 20.0
    t_end: float = 10.0
    boundary: str = "fixed"
    model: str = "sine-gordon"
    initial: str = "kink"
    params: Dict[str, float] = dataclass_field(default_factory=dict)
    output_stride: int = 0

    def __post_init__(self) -> None:
        if self.dt is None:
            self.dt = 0.4 * self.dx
        for name in ("alpha", "dx", "dt", "x_min", "x_max", "t_end"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got "
                                 f"{getattr(self, name)}")
        if self.dx <= 0 or self.dt <= 0:
            raise ValueError("dx and dt must be positive")
        if self.t_end < 0:
            raise ValueError(f"t_end must not be negative, got {self.t_end}")
        # Verlet is stable while dt^2 k < 4 for every frequency^2 k of the
        # linearised force; k < 4/dx^2 + alpha^2 for both models, as both
        # potentials curve by at most alpha^2
        dt, dx = self.dt, self.dx
        if not (2.0 * dt / dx) ** 2 + (self.alpha * dt) ** 2 < 4.0:
            raise ValueError(
                f"dt={dt} is unstable: Verlet needs dt^2 (4/dx^2 + "
                f"alpha^2) < 4, here dx={dx} and alpha={self.alpha}")
        if self.x_max <= self.x_min:
            raise ValueError("empty spatial interval")
        sites = (self.x_max - self.x_min) / dx
        if sites > MAX_SITES:
            raise ValueError(
                f"dx={dx} gives {sites:.3g} grid sites on [{self.x_min}, "
                f"{self.x_max}], more than the {MAX_SITES} allowed")
        if self.boundary not in BOUNDARIES:
            raise ValueError(f"unknown boundary {self.boundary!r}")
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        if self.initial not in PROFILES:
            raise ValueError(f"unknown profile {self.initial!r}")


@dataclass
class FieldState:
    x: np.ndarray
    phi00: np.ndarray
    phi11: np.ndarray
    pi00: np.ndarray
    pi11: np.ndarray
    time: float = 0.0
    # (key, phi00, phi11, f00, f11): the force that `step` computed at
    # these positions, see the module docstring
    cached_force: Optional[tuple] = dataclass_field(
        default=None, init=False, repr=False, compare=False)

    def check(self) -> "FieldState":
        n = len(self.x)
        for name in ("phi00", "phi11", "pi00", "pi11"):
            arr = getattr(self, name)
            if len(arr) != n:
                raise ValueError(f"{name}: length {len(arr)} != grid {n}")
            if not np.all(np.isfinite(arr)):
                raise RuntimeError(f"{name} lost finiteness at t={self.time}")
        return self


def grid(cfg: SimConfig) -> np.ndarray:
    n = int(round((cfg.x_max - cfg.x_min) / cfg.dx))
    if cfg.boundary == "periodic":
        return cfg.x_min + cfg.dx * np.arange(n)
    return cfg.x_min + cfg.dx * np.arange(n + 1)


# ----------------------------------------------------------------------
# initial data
# ----------------------------------------------------------------------

def kink_closed_form(x: np.ndarray, t: float, alpha: float, v: float = 0.0,
                     x0: float = 0.0) -> Tuple[np.ndarray, np.ndarray]:
    """Boosted half-angle kink and its time derivative."""
    if abs(v) >= 1.0:
        raise ValueError("kink velocity must satisfy |v| < 1")
    gamma = 1.0 / math.sqrt(1.0 - v * v)
    u = alpha * gamma * (x - x0 - v * t)
    phi = 2.0 * np.arctan(np.exp(u))
    pi = -v * alpha * gamma / np.cosh(u)
    return phi, pi


def kink_energy(alpha: float) -> float:
    """Continuum energy of the half-angle kink.

    The substitution u = 2 phi maps the reduced equation onto the
    standard form with mass alpha, whose kink carries 8 alpha; the
    quarter rescaling of the density leaves 2 alpha.
    """
    return 2.0 * alpha


def init_profile(cfg: SimConfig) -> FieldState:
    x = grid(cfg)
    zero = np.zeros_like(x)
    p = cfg.params
    if cfg.initial == "zero":
        state = FieldState(x, zero.copy(), zero.copy(), zero.copy(),
                           zero.copy())
    elif cfg.initial == "kink":
        phi, pi = kink_closed_form(x, 0.0, cfg.alpha, p.get("v", 0.0),
                                   p.get("x0", 0.0))
        state = FieldState(x, phi, zero.copy(), pi, zero.copy())
    elif cfg.initial == "two-field-kink":
        phi, pi = kink_closed_form(x, 0.0, cfg.alpha, p.get("v", 0.0),
                                   p.get("x0", 0.0))
        state = FieldState(x, phi, phi.copy(), pi, pi.copy())
    elif cfg.initial == "gaussian":
        a = p.get("amplitude", 0.01)
        w = p.get("width", 1.0)
        x0 = p.get("x0", 0.0)
        phi = a * np.exp(-((x - x0) / w) ** 2)
        state = FieldState(x, phi, zero.copy(), zero.copy(), zero.copy())
    else:
        raise ValueError(f"unknown profile {cfg.initial!r}")
    return state.check()


# ----------------------------------------------------------------------
# dynamics
# ----------------------------------------------------------------------

def _laplacian(phi: np.ndarray, cfg: SimConfig) -> np.ndarray:
    """3-point Laplacian in a fresh array, built in place."""
    if cfg.boundary == "periodic":
        lap = np.roll(phi, -1)
        lap += np.roll(phi, 1)
        lap -= 2.0 * phi
    else:
        lap = np.empty_like(phi)
        lap[0] = lap[-1] = 0.0  # clamped ends: boundary values stay put
        np.add(phi[2:], phi[:-2], out=lap[1:-1])
        lap[1:-1] -= 2.0 * phi[1:-1]
    lap /= cfg.dx ** 2
    return lap


def force(state: FieldState, cfg: SimConfig) -> Tuple[np.ndarray, np.ndarray]:
    a2 = cfg.alpha ** 2
    phi00, phi11 = state.phi00, state.phi11
    f00 = _laplacian(phi00, cfg)
    f11 = _laplacian(phi11, cfg)
    if cfg.model == "sine-gordon":
        # (alpha^2/2) sin 2a cos 2b = (alpha^2/4)(sin 2(a+b) + sin 2(a-b))
        su = np.sin(2.0 * (phi00 + phi11))
        sv = np.sin(2.0 * (phi00 - phi11))
        q = 0.25 * a2
        f00 -= q * (su + sv)
        f11 -= q * (su - sv)
    else:
        f00 -= a2 * phi00
        f11 -= a2 * phi11
    if cfg.boundary == "fixed":
        for f in (f00, f11):
            f[0] = 0.0
            f[-1] = 0.0
    return f00, f11


def step(state: FieldState, cfg: SimConfig) -> FieldState:
    """One velocity-Verlet update of the coupled system."""
    dt = cfg.dt
    key = (cfg.model, cfg.boundary, cfg.alpha, cfg.dx)
    cached = state.cached_force
    if (cached is not None and cached[0] == key
            and cached[1] is state.phi00 and cached[2] is state.phi11):
        f00, f11 = cached[3], cached[4]
    else:
        f00, f11 = force(state, cfg)
    h00 = state.pi00 + 0.5 * dt * f00
    h11 = state.pi11 + 0.5 * dt * f11
    phi00 = state.phi00 + dt * h00
    phi11 = state.phi11 + dt * h11
    g00, g11 = force(FieldState(state.x, phi00, phi11, h00, h11,
                                state.time), cfg)
    h00 += 0.5 * dt * g00
    h11 += 0.5 * dt * g11
    out = FieldState(state.x, phi00, phi11, h00, h11, state.time + dt)
    for arr in (phi00, phi11, h00, h11):
        arr.flags.writeable = False
    out.cached_force = (key, phi00, phi11, g00, g11)
    return out.check()


def potential_density(state: FieldState, cfg: SimConfig) -> np.ndarray:
    a2 = cfg.alpha ** 2
    if cfg.model == "sine-gordon":
        su = np.sin(state.phi00 + state.phi11)
        sv = np.sin(state.phi00 - state.phi11)
        return 0.25 * a2 * (su * su + sv * sv)
    return 0.5 * a2 * (state.phi00 ** 2 + state.phi11 ** 2)


def total_energy(state: FieldState, cfg: SimConfig) -> float:
    """The discrete energy that the update conserves.

    Kinetic and potential densities are summed with trapezoid weights;
    the gradient energy is (1/2) sum (dphi)^2 / dx over the grid edges
    whose differences make up the 3-point Laplacian, the wrap-around
    edge included on a periodic ring.
    """
    dens = (0.5 * (state.pi00 ** 2 + state.pi11 ** 2)
            + potential_density(state, cfg))
    periodic = cfg.boundary == "periodic"
    grad = 0.0
    for phi in (state.phi00, state.phi11):
        d = np.diff(phi)
        grad += float(np.dot(d, d))
        if periodic:
            grad += float(phi[0] - phi[-1]) ** 2
    sites = np.sum(dens) * cfg.dx if periodic else _trapezoid(dens, dx=cfg.dx)
    return float(sites) + 0.5 * grad / cfg.dx


@dataclass
class Trajectory:
    times: np.ndarray
    energies: np.ndarray
    snapshots: List[FieldState]
    final: FieldState


def run(cfg: SimConfig) -> Trajectory:
    """Evolve the initial profile to t_end, recording the energy at every
    step."""
    state = init_profile(cfg)
    steps = int(round(cfg.t_end / cfg.dt))
    t0 = state.time
    times = [t0]
    energies = [total_energy(state, cfg)]
    snaps = [state]
    for k in range(steps):
        state = step(state, cfg)
        # k dt from the start, free of the rounding a running sum gathers
        state.time = t0 + (k + 1) * cfg.dt
        times.append(state.time)
        energies.append(total_energy(state, cfg))
        if cfg.output_stride and (k + 1) % cfg.output_stride == 0:
            snaps.append(state)
    if snaps[-1] is not state:
        snaps.append(state)
    return Trajectory(np.array(times), np.array(energies), snaps, state)


# ----------------------------------------------------------------------
# measurements
# ----------------------------------------------------------------------

def kink_position(state: FieldState) -> float:
    """Ascending crossing of phi00 through pi/2, linearly interpolated."""
    level = math.pi / 2
    phi = state.phi00
    below = phi[:-1] <= level
    above = phi[1:] > level
    hits = np.where(below & above)[0]
    if len(hits) == 0:
        raise ValueError("no level crossing on the grid")
    i = int(hits[0])
    frac = (level - phi[i]) / (phi[i + 1] - phi[i])
    return float(state.x[i] + frac * (state.x[i + 1] - state.x[i]))


def l2_error(state: FieldState, exact: np.ndarray, dx: float) -> float:
    return float(math.sqrt(dx * np.sum((state.phi00 - exact) ** 2)))


# ----------------------------------------------------------------------
# acceptance studies
# ----------------------------------------------------------------------

def convergence_study(dxs: Tuple[float, ...] = (0.1, 0.05, 0.025),
                      alpha: float = 1.0, t_end: float = 2.0,
                      span: Tuple[float, float] = (-20.0, 20.0)) -> dict:
    """Static-kink L2 error under grid refinement; second order doubles
    the accuracy ratio to about four per halving."""
    errors = []
    for dx in dxs:
        cfg = SimConfig(alpha=alpha, dx=dx, dt=0.4 * dx, x_min=span[0],
                        x_max=span[1], t_end=t_end, initial="kink")
        traj = run(cfg)
        exact, _ = kink_closed_form(traj.final.x, 0.0, alpha)
        errors.append(l2_error(traj.final, exact, dx))
    ratios = [errors[k] / errors[k + 1] for k in range(len(errors) - 1)]
    return {"dxs": list(dxs), "errors": errors, "ratios": ratios}


def energy_drift_study(alpha: float = 1.0, dx: float = 0.05,
                       dt: float = 0.02, t_end: float = 100.0,
                       span: Tuple[float, float] = (-20.0, 20.0)) -> dict:
    cfg = SimConfig(alpha=alpha, dx=dx, dt=dt, x_min=span[0], x_max=span[1],
                    t_end=t_end, initial="kink")
    traj = run(cfg)
    e0 = traj.energies[0]
    drift = float(np.max(np.abs(traj.energies - e0)) / abs(e0))
    return {"initial_energy": float(e0), "continuum_energy": kink_energy(alpha),
            "max_relative_drift": drift}


def boosted_kink_study(v: float = 0.5, alpha: float = 1.0, dx: float = 0.05,
                       dt: float = 0.02, t_end: float = 40.0,
                       span: Tuple[float, float] = (-30.0, 30.0)) -> dict:
    cfg = SimConfig(alpha=alpha, dx=dx, dt=dt, x_min=span[0], x_max=span[1],
                    t_end=t_end, initial="kink", params={"v": v})
    traj = run(cfg)
    measured = kink_position(traj.final)
    expected = v * t_end
    return {"measured_position": measured, "expected_position": expected,
            "position_error": abs(measured - expected), "dx": dx}


def exchange_symmetry_study(alpha: float = 1.0, dx: float = 0.05,
                            dt: float = 0.02, t_end: float = 20.0,
                            span: Tuple[float, float] = (-20.0, 20.0)) -> dict:
    """Mirror initial data must stay mirror under the exchange symmetry."""
    cfg = SimConfig(alpha=alpha, dx=dx, dt=dt, x_min=span[0], x_max=span[1],
                    t_end=t_end, initial="two-field-kink")
    state = init_profile(cfg)
    steps = int(round(t_end / dt))
    worst = 0.0
    for _ in range(steps):
        state = step(state, cfg)
        gap = max(float(np.max(np.abs(state.phi00 - state.phi11))),
                  float(np.max(np.abs(state.pi00 - state.pi11))))
        if gap > worst:
            worst = gap
    return {"max_asymmetry": worst}


def dispersion_study(mode: int = 8, alpha: float = 1.0,
                     amplitude: float = 1e-3, dx_target: float = 0.05) -> dict:
    """Standing-wave frequency of the massive model on a periodic ring.

    The ring length is a whole number of wavelengths, the projection on
    the chosen mode oscillates as cos(w t), and the first zero crossing
    pins w.
    """
    length = 16.0 * math.pi
    n = int(round(length / dx_target))
    dx = length / n
    k = 2.0 * math.pi * mode / length
    cfg = SimConfig(alpha=alpha, dx=dx, dt=0.4 * dx, x_min=-length / 2,
                    x_max=length / 2, t_end=0.0, boundary="periodic",
                    model="massive", initial="zero")
    x = grid(cfg)
    wave = np.cos(k * x)
    state = FieldState(x, amplitude * wave, np.zeros_like(x),
                       np.zeros_like(x), np.zeros_like(x))
    omega_true = math.sqrt(alpha ** 2 + k ** 2)
    prev = 1.0
    t_cross = None
    t = 0.0
    # quarter period of the true frequency is the crossing neighbourhood
    while t < 4.0 / omega_true:
        state = step(state, cfg)
        t = state.time
        proj = float(np.dot(state.phi00, wave) * 2.0 / n) / amplitude
        if prev > 0.0 >= proj:
            # linear interpolation between the bracketing samples
            t_cross = t - cfg.dt * (0.0 - proj) / (prev - proj)
            break
        prev = proj
    if t_cross is None:
        raise RuntimeError("projection never crossed zero")
    omega = math.pi / (2.0 * t_cross)
    return {"k": k, "measured_omega": omega, "expected_omega": omega_true,
            "relative_error": abs(omega - omega_true) / omega_true}
