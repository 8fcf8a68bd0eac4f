"""Finite-difference solver for the bosonic sector of the derived models.

The coupled pair

    phi00_tt = phi00_xx - (alpha^2/2) sin(2 phi00) cos(2 phi11)
    phi11_tt = phi11_xx - (alpha^2/2) cos(2 phi00) sin(2 phi11)

splits in u = phi00 + phi11 and v = phi00 - phi11 into two decoupled
sine-Gordon equations, w_tt = w_xx - alpha^2 W(w) for w = u and w = v,
with W(w) = (1/2) sin 2w (W(w) = w for the massive linear variant).
The solver evolves that form with a velocity-Verlet update on a uniform
grid: positions are one (2, N) array w = (u, v) and momenta one (2, N)
array p = (pi00 + pi11, pi00 - pi11), so each force evaluation is one
Laplacian and one sine over 2N sites.  The component fields phi00,
phi11, pi00 and pi11 are derived from them as (1/2)(u +- v).  Fermions
stay symbolic; they have no numeric classical representation.

Each `step` evaluates `force` once: the force at the new positions,
which closes one Verlet step, opens the next.  `step` keeps it on the
state it returns, keyed by the inputs the force depends on, (model,
boundary, alpha, dx), and by the position array it was computed at; a
state without that force (from `init_profile`, or built by hand) or
stepped under a config with another key gets a fresh evaluation.
`step` never writes into its input, and the arrays of the state it
returns are read-only, so an in-place edit raises instead of pairing
new positions with an old force.  It records the time as t0 + k dt,
counting steps from the state's start, so a long run gathers no
rounding from a running sum.

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

# largest grid SimConfig accepts: 10^7 sites is 80 MB per field array
MAX_SITES = 10 ** 7
# the 3-point stencil needs a site and both its neighbours
MIN_SITES = 3


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
        n = _site_count(self)
        if n < MIN_SITES:
            raise ValueError(
                f"dx={dx} gives {n} grid sites on [{self.x_min}, "
                f"{self.x_max}], fewer than the {MIN_SITES} the stencil "
                f"needs")
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        if self.initial not in PROFILES:
            raise ValueError(f"unknown profile {self.initial!r}")


def _half(a: np.ndarray) -> np.ndarray:
    """(1/2) a, in place in the fresh array a, made read-only."""
    a *= 0.5
    a.flags.writeable = False
    return a


@dataclass
class FieldState:
    """The fields on the grid `x`, in the u/v basis.

    `w` holds the rows u = phi00 + phi11 and v = phi00 - phi11, `p` their
    momenta pi00 + pi11 and pi00 - pi11; `from_fields` builds a state
    from the component fields, and `phi00`, `phi11`, `pi00`, `pi11`
    derive them back.
    """
    x: np.ndarray
    w: np.ndarray
    p: np.ndarray
    time: float = 0.0
    # (key, w, f): the force that `step` computed at the positions w,
    # see the module docstring
    cached_force: Optional[tuple] = dataclass_field(
        default=None, init=False, repr=False, compare=False)
    # (t0, k, dt): `time` is t0 + k dt, k steps of dt after t0
    clock: Optional[Tuple[float, int, float]] = dataclass_field(
        default=None, init=False, repr=False, compare=False)

    @classmethod
    def from_fields(cls, x: np.ndarray, phi00: np.ndarray,
                    phi11: np.ndarray, pi00: np.ndarray, pi11: np.ndarray,
                    time: float = 0.0) -> "FieldState":
        w, p = np.empty((2, len(x))), np.empty((2, len(x)))
        for out, a, b in ((w, phi00, phi11), (p, pi00, pi11)):
            np.add(a, b, out=out[0])
            np.subtract(a, b, out=out[1])
            out.flags.writeable = False
        return cls(x, w, p, time).check()

    phi00 = property(lambda self: _half(self.w[0] + self.w[1]))
    phi11 = property(lambda self: _half(self.w[0] - self.w[1]))
    pi00 = property(lambda self: _half(self.p[0] + self.p[1]))
    pi11 = property(lambda self: _half(self.p[0] - self.p[1]))

    def check(self) -> "FieldState":
        n = len(self.x)
        for name in ("w", "p"):
            shape = getattr(self, name).shape
            if shape != (2, n):
                raise ValueError(f"{name}: shape {shape} != (2, {n})")
        # one pass over both arrays: w.p is finite only if every entry
        # is, since a NaN spreads through products and sums and an inf
        # times a nonzero entry is inf, times zero NaN
        if not math.isfinite(np.vdot(self.w, self.p)):
            for name in ("phi00", "phi11", "pi00", "pi11"):
                if not np.all(np.isfinite(getattr(self, name))):
                    raise RuntimeError(
                        f"{name} lost finiteness at t={self.time}")
        return self


def _site_count(cfg: SimConfig) -> int:
    n = int(round((cfg.x_max - cfg.x_min) / cfg.dx))
    return n if cfg.boundary == "periodic" else n + 1


def grid(cfg: SimConfig) -> np.ndarray:
    return cfg.x_min + cfg.dx * np.arange(_site_count(cfg))


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
        fields = (zero, zero, zero, zero)
    elif cfg.initial == "kink":
        phi, pi = kink_closed_form(x, 0.0, cfg.alpha, p.get("v", 0.0),
                                   p.get("x0", 0.0))
        fields = (phi, zero, pi, zero)
    elif cfg.initial == "two-field-kink":
        phi, pi = kink_closed_form(x, 0.0, cfg.alpha, p.get("v", 0.0),
                                   p.get("x0", 0.0))
        fields = (phi, phi, pi, pi)
    elif cfg.initial == "gaussian":
        a = p.get("amplitude", 0.01)
        w = p.get("width", 1.0)
        x0 = p.get("x0", 0.0)
        fields = (a * np.exp(-((x - x0) / w) ** 2), zero, zero, zero)
    else:
        raise ValueError(f"unknown profile {cfg.initial!r}")
    return FieldState.from_fields(x, *fields)


# ----------------------------------------------------------------------
# dynamics
# ----------------------------------------------------------------------

def _laplacian(w: np.ndarray, cfg: SimConfig) -> np.ndarray:
    """3-point Laplacian along the last axis, in a fresh array."""
    lap = np.empty_like(w)
    np.add(w[..., 2:], w[..., :-2], out=lap[..., 1:-1])
    if cfg.boundary == "periodic":
        np.add(w[..., 1], w[..., -1], out=lap[..., 0])
        np.add(w[..., 0], w[..., -2], out=lap[..., -1])
    lap -= w
    lap -= w
    lap /= cfg.dx ** 2
    if cfg.boundary == "fixed":
        lap[..., 0] = lap[..., -1] = 0.0  # clamped ends stay put
    return lap


def force(w: np.ndarray, cfg: SimConfig) -> np.ndarray:
    """lap(w) - alpha^2 W(w) on both rows of w = (u, v)."""
    f = _laplacian(w, cfg)
    a2 = cfg.alpha ** 2
    if cfg.model == "sine-gordon":
        # (alpha^2/2) sin 2w in one scratch array: at N = 80 001 every
        # fresh (2, N) temporary adds 1.3 MB to the peak footprint
        s = np.multiply(w, 2.0)
        f -= np.multiply(np.sin(s, out=s), 0.5 * a2, out=s)
    else:
        f -= a2 * w
    if cfg.boundary == "fixed":
        f[..., 0] = f[..., -1] = 0.0
    return f


def step(state: FieldState, cfg: SimConfig) -> FieldState:
    """One velocity-Verlet update of the coupled system."""
    dt = cfg.dt
    key = (cfg.model, cfg.boundary, cfg.alpha, cfg.dx)
    cached = state.cached_force
    if cached is not None and cached[0] == key and cached[1] is state.w:
        f = cached[2]
    else:
        f = force(state.w, cfg)
    p = f * (0.5 * dt)
    p += state.p
    w = p * dt
    w += state.w
    g = force(w, cfg)
    p += (0.5 * dt) * g
    w.flags.writeable = False
    p.flags.writeable = False
    # continue the clock of the input, or start one at its time if it
    # has none, ran under another dt, or had its time reassigned
    clock = state.clock
    if clock is None or clock[2] != dt or (
            clock[0] + clock[1] * dt != state.time):
        clock = (state.time, 0, dt)
    t0, k = clock[0], clock[1] + 1
    out = FieldState(state.x, w, p, t0 + k * dt)
    out.clock = (t0, k, dt)
    out.cached_force = (key, w, g)
    return out.check()


def total_energy(state: FieldState, cfg: SimConfig) -> float:
    """The discrete energy that the update conserves.

    In the u/v basis the density is (1/4) sum over both rows of
    p^2 + alpha^2 V(w), with V(w) = sin^2 w (w^2 for the massive
    model), summed with trapezoid weights; the gradient energy is
    (1/4) sum (dw)^2 / dx over the grid edges whose differences make up
    the 3-point Laplacian, the wrap-around edge included on a periodic
    ring.
    """
    w, p = state.w, state.p
    a2 = cfg.alpha ** 2
    y = np.sin(w) if cfg.model == "sine-gordon" else w
    sites = np.vdot(p, p) + a2 * np.vdot(y, y)
    d = w[:, 1:] - w[:, :-1]
    grad = np.vdot(d, d)
    if cfg.boundary == "periodic":
        d = w[:, 0] - w[:, -1]
        grad += np.vdot(d, d)
    else:
        # trapezoid weights: half a cell at either end
        ends = slice(None, None, w.shape[1] - 1)
        pe, ye = p[:, ends], y[:, ends]
        sites -= 0.5 * (np.vdot(pe, pe) + a2 * np.vdot(ye, ye))
    return float(0.25 * (sites * cfg.dx + grad / cfg.dx))


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
    times = [state.time]
    energies = [total_energy(state, cfg)]
    snaps = [state]
    for k in range(steps):
        state = step(state, cfg)
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
    """Mirror initial data must stay mirror under the exchange symmetry.

    Exchanging phi00 and phi11 flips the sign of v, so mirror data has
    v = 0, and its asymmetry is the larger of |v| and |p_v|.
    """
    cfg = SimConfig(alpha=alpha, dx=dx, dt=dt, x_min=span[0], x_max=span[1],
                    t_end=t_end, initial="two-field-kink")
    state = init_profile(cfg)
    steps = int(round(t_end / dt))
    worst = 0.0
    for _ in range(steps):
        state = step(state, cfg)
        gap = max(float(np.max(np.abs(state.w[1]))),
                  float(np.max(np.abs(state.p[1]))))
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
    zero = np.zeros_like(x)
    state = FieldState.from_fields(x, amplitude * wave, zero, zero, zero)
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
