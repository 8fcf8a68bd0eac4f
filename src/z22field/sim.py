"""Finite-difference solver for the bosonic sector of the derived models.

The coupled pair

    phi00_tt = phi00_xx - (alpha^2/2) sin(2 phi00) cos(2 phi11)
    phi11_tt = phi11_xx - (alpha^2/2) cos(2 phi00) sin(2 phi11)

splits in u = phi00 + phi11 and v = phi00 - phi11 into two decoupled
sine-Gordon equations, w_tt = w_xx - (alpha^2/2) sin 2w for w = u and
w = v.  The solver evolves that form with a velocity-Verlet update on a
uniform grid: positions are one (2, N) array w = (u, v) and momenta one
(2, N) array p = (pi00 + pi11, pi00 - pi11), so each force evaluation
is one Laplacian and one sine over 2N sites.  The component fields phi00,
phi11, pi00 and pi11 are derived from them as (1/2)(u +- v).  Fermions
stay symbolic; they have no numeric classical representation.

Each `step` evaluates `force` once: the force at the new positions,
which closes one Verlet step, opens the next.  `step` keeps it on the
state it returns, keyed by the inputs the force depends on, (boundary,
alpha, dx), and by the position array it was computed at; a state
without that force (from `init_profile`, or built by hand) or
stepped under a config with another key gets a fresh evaluation.
`step` never writes into its input, and the arrays of the state it
returns are read-only, so an in-place edit raises instead of pairing
new positions with an old force.  It records the time as t0 + k dt,
counting steps from the state's start, so a long run gathers no
rounding from a running sum.

A step with a cached force allocates four fresh (2, N) arrays: the new
p, the new w, the new force, and one scratch that `force` fills with
the sine term and `step` then reuses for the half kick.  At N = 80 001
each array is 1.3 MB.  glibc serves the first such array with mmap;
freeing it lifts the mmap threshold past that size, so later arrays
live on the main heap, whose top glibc hands back to the kernel once
more than two arrays' worth lies free there.  The scratch is allocated
after the new w, so its release leaves a hole below the new force and
at most one array lies free at the top.  Measured with getrusage in
one process: a fifth temporary read 297 minor faults per step, the
scratch allocated before p 453, this order none in the steady state.

`total_energy` is the scheme's own discrete energy, which the update
conserves up to a bounded oscillation, and `SimConfig` refuses a time
step past the Verlet stability bound dt^2 (4/dx^2 + alpha^2) < 4, a
t_end that `run` could not reach in whole steps of dt or only in more
than MAX_STEPS of them, an alpha whose square overflows, a profile
parameter its profile never reads or that is not finite, a Gaussian of
width 0, and a kink at a velocity |v| >= 1.
"""

import math
from dataclasses import dataclass, field as dataclass_field
from typing import Dict, List, Optional, Tuple

import numpy as np

BOUNDARIES = ("periodic", "fixed")
# each initial profile and the default of every parameter `init_profile`
# reads for it; the profiles that read a velocity v are boosted kinks
PROFILES = {"zero": {}, "kink": {"v": 0.0, "x0": 0.0},
            "gaussian": {"amplitude": 0.01, "width": 1.0, "x0": 0.0},
            "two-field-kink": {"v": 0.0, "x0": 0.0}}

# largest grid SimConfig accepts: at 10^7 sites each (2, N) array is
# 160 MB, and a step allocates four of them besides the two state
# arrays, about 1 GB in all
MAX_SITES = 10 ** 7
# longest run SimConfig accepts: `run` records two Python floats per step,
# about 64 bytes, so 10^6 steps hold 64 MB of trajectory
MAX_STEPS = 10 ** 6
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
        if self.output_stride < 0:
            raise ValueError(f"output_stride must not be negative, got "
                             f"{self.output_stride}")
        # Verlet is stable while dt^2 k < 4 for every frequency^2 k of the
        # linearised force; k < 4/dx^2 + alpha^2, as the potential curves
        # by at most alpha^2; a term is squared only when it is below 2, so
        # the squares cannot overflow
        dt, dx = self.dt, self.dx
        r, a = 2.0 * dt / dx, abs(self.alpha * dt)
        if not (r < 2.0 and a < 2.0 and r ** 2 + a ** 2 < 4.0):
            raise ValueError(
                f"dt={dt} is unstable: Verlet needs dt^2 (4/dx^2 + "
                f"alpha^2) < 4, here dx={dx} and alpha={self.alpha}")
        # the bound admits a huge alpha at a tiny dt, but `force` and
        # `total_energy` square it
        if math.isinf(self.alpha * self.alpha):
            raise ValueError(f"alpha={self.alpha} is too large: its "
                             f"square overflows a float")
        if self.t_end / dt > MAX_STEPS:
            raise ValueError(
                f"t_end={self.t_end} at dt={dt} is {self.t_end / dt:.3g} "
                f"steps, more than the {MAX_STEPS} allowed")
        steps = round(self.t_end / dt)
        if abs(steps * dt - self.t_end) > 1e-9 * self.t_end:
            raise ValueError(
                f"t_end={self.t_end} is not a whole number of steps of "
                f"dt={dt}: it is {self.t_end / dt:.6g} steps, and "
                f"{steps} steps end at t={steps * dt:.6g}")
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
        if self.initial not in PROFILES:
            raise ValueError(f"unknown profile {self.initial!r}")
        reads = PROFILES[self.initial]
        for name in self.params:
            if name not in reads:
                raise ValueError(
                    f"profile {self.initial!r} reads no parameter "
                    f"{name!r}; it reads {', '.join(reads) or 'none'}")
            if not math.isfinite(self.params[name]):
                raise ValueError(f"profile parameter {name} must be "
                                 f"finite, got {self.params[name]}")
        if self.params.get("width") == 0.0:
            raise ValueError("profile parameter width must not be 0")
        v = self.params.get("v", 0.0)
        if "v" in reads and abs(v) >= 1.0:
            raise ValueError(f"kink velocity v={v} of profile "
                             f"{self.initial!r} must satisfy |v| < 1")


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
    # far in the tail exp and cosh overflow to inf, whose limits are exact
    with np.errstate(over="ignore"):
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
    """The profile on the grid, each unset parameter at its default."""
    x = grid(cfg)
    zero = np.zeros_like(x)
    p = {**PROFILES[cfg.initial], **cfg.params}
    if cfg.initial == "zero":
        fields = (zero, zero, zero, zero)
    elif cfg.initial == "gaussian":
        # a tiny width overflows the quotient to inf, and exp(-inf) = 0
        with np.errstate(over="ignore"):
            bump = p["amplitude"] * np.exp(-((x - p["x0"]) / p["width"]) ** 2)
        fields = (bump, zero, zero, zero)
    else:
        # a kink in phi00 alone, or the same kink in both fields
        phi, pi = kink_closed_form(x, 0.0, cfg.alpha, p["v"], p["x0"])
        fields = ((phi, zero, pi, zero) if cfg.initial == "kink"
                  else (phi, phi, pi, pi))
    return FieldState.from_fields(x, *fields)


# ----------------------------------------------------------------------
# dynamics
# ----------------------------------------------------------------------

def _laplacian(w: np.ndarray, cfg: SimConfig) -> np.ndarray:
    """3-point Laplacian along the last axis, in a fresh array."""
    lap = np.empty_like(w)
    np.add(w[..., 2:], w[..., :-2], out=lap[..., 1:-1])
    fixed = cfg.boundary == "fixed"
    if fixed:
        # the first and last site, written before the arithmetic below
        # reads them: one strided view costs less than two index writes
        ends = lap[..., ::lap.shape[-1] - 1]
        ends[...] = 0.0
    else:
        np.add(w[..., 1], w[..., -1], out=lap[..., 0])
        np.add(w[..., 0], w[..., -2], out=lap[..., -1])
    lap -= w
    lap -= w
    lap /= cfg.dx ** 2
    if fixed:
        ends[...] = 0.0  # clamped ends stay put
    return lap


def force(w: np.ndarray, cfg: SimConfig,
          s: Optional[np.ndarray] = None) -> np.ndarray:
    """lap(w) - (alpha^2/2) sin 2w on both rows of w = (u, v).

    The sine term is built in the scratch array `s`, a fresh one when
    none is given, which holds it on return.
    """
    f = _laplacian(w, cfg)
    # the sine in one scratch array: at N = 80 001 every fresh (2, N)
    # temporary adds 1.3 MB to the peak footprint.  `step` passes its
    # own scratch and reuses it for the half kick, so a step allocates
    # four (2, N) arrays: the new p, the new w, this force and the
    # scratch (see the module docstring)
    s = np.multiply(w, 2.0, out=s)
    f -= np.multiply(np.sin(s, out=s), 0.5 * cfg.alpha ** 2, out=s)
    if cfg.boundary == "fixed":
        f[..., 0] = f[..., -1] = 0.0
    return f


def step(state: FieldState, cfg: SimConfig) -> FieldState:
    """One velocity-Verlet update of the coupled system."""
    dt = cfg.dt
    key = (cfg.boundary, cfg.alpha, cfg.dx)
    cached = state.cached_force
    if cached is not None and cached[0] == key and cached[1] is state.w:
        f = cached[2]
    else:
        f = force(state.w, cfg)
    p = f * (0.5 * dt)
    p += state.p
    w = p * dt
    w += state.w
    # allocated after w, so that its release leaves a hole below g
    # rather than free space at the heap top (see the module docstring)
    s = np.empty_like(w)
    g = force(w, cfg, s)
    p += np.multiply(g, 0.5 * dt, out=s)
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
    """The scheme's own discrete energy, which velocity Verlet holds only
    up to a bounded O(dt^2) oscillation, not exactly.

    In the u/v basis the density is (1/4) sum over both rows of
    p^2 + alpha^2 sin^2 w, summed with trapezoid weights; the gradient
    energy is (1/4) sum (dw)^2 / dx over the grid edges whose differences
    make up the 3-point Laplacian, the wrap-around edge included on a
    periodic ring.
    """
    w, p = state.w, state.p
    a2 = cfg.alpha ** 2
    y = np.sin(w)
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
    with np.errstate(over="ignore", invalid="ignore"):
        energies = [total_energy(state, cfg)]
    if not math.isfinite(energies[0]):
        raise ValueError(f"the initial energy is {energies[0]} at alpha="
                         f"{cfg.alpha}: alpha or the profile parameters are "
                         f"too large for a float")
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


def _final(cfg: SimConfig) -> FieldState:
    """The state `run(cfg)` ends in, with no energy or snapshot recorded."""
    state = init_profile(cfg)
    for _ in range(int(round(cfg.t_end / cfg.dt))):
        state = step(state, cfg)
    return state


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

def convergence_study() -> dict:
    """Static-kink L2 error under grid refinement; second order doubles
    the accuracy ratio to about four per halving."""
    dxs = (0.1, 0.05, 0.025)
    errors = []
    for dx in dxs:
        final = _final(SimConfig(dx=dx, t_end=2.0))
        exact, _ = kink_closed_form(final.x, 0.0, 1.0)
        errors.append(l2_error(final, exact, dx))
    ratios = [errors[k] / errors[k + 1] for k in range(len(errors) - 1)]
    return {"dxs": list(dxs), "errors": errors, "ratios": ratios}


def energy_drift_study() -> dict:
    traj = run(SimConfig(dt=0.02, t_end=100.0))
    e0 = traj.energies[0]
    drift = float(np.max(np.abs(traj.energies - e0)) / abs(e0))
    return {"initial_energy": float(e0), "continuum_energy": kink_energy(1.0),
            "max_relative_drift": drift}


def boosted_kink_study() -> dict:
    cfg = SimConfig(dt=0.02, x_min=-30.0, x_max=30.0, t_end=40.0,
                    params={"v": 0.5})
    measured = kink_position(_final(cfg))
    expected = cfg.params["v"] * cfg.t_end
    return {"measured_position": measured, "expected_position": expected,
            "position_error": abs(measured - expected), "dx": cfg.dx}


def exchange_symmetry_study() -> dict:
    """Evolution commutes with the exchange phi00 <-> phi11.

    The exchange maps (u, v) to (u, -v).  Data far from mirror, a moving
    kink in phi00 and a Gaussian in phi11, and its exchange are evolved
    side by side; the asymmetry is the largest entry of the exchanged
    first evolution minus the second.  Mirror data would not do: it has
    v = 0, which any force that maps 0 to 0 keeps.
    """
    cfg = SimConfig()
    x = grid(cfg)
    kink, kink_pi = kink_closed_form(x, 0.0, 1.0, v=0.3, x0=-2.0)
    bump = 0.7 * np.exp(-(x - 3.0) ** 2)
    a = FieldState.from_fields(x, kink, bump, kink_pi, -0.4 * bump)
    flip = np.array([[1.0], [-1.0]])    # (u, v) -> (u, -v)
    b = FieldState(x, flip * a.w, flip * a.p)
    for _ in range(500):
        a, b = step(a, cfg), step(b, cfg)
    gap = max(float(np.max(np.abs(flip * a.w - b.w))),
              float(np.max(np.abs(flip * a.p - b.p))))
    return {"max_asymmetry": gap}


def dispersion_study() -> dict:
    """Standing-wave frequency of small waves on a periodic ring.

    At amplitude 1e-3 the force is linear to a part in 10^6, so mode k
    oscillates at w^2 = alpha^2 + k^2.  The ring length is a whole number
    of wavelengths, the projection on the mode oscillates as cos(w t),
    and the first zero crossing pins w.
    """
    mode, amplitude = 8, 1e-3
    length = 16.0 * math.pi
    n = int(round(length / 0.05))
    dx = length / n
    k = 2.0 * math.pi * mode / length
    cfg = SimConfig(dx=dx, x_min=-length / 2, x_max=length / 2, t_end=0.0,
                    boundary="periodic")
    x = grid(cfg)
    wave = np.cos(k * x)
    zero = np.zeros_like(x)
    state = FieldState.from_fields(x, amplitude * wave, zero, zero, zero)
    omega_true = math.sqrt(1.0 + k ** 2)
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
