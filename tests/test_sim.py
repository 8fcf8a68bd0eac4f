"""Solver checks.  Closed-form oracles come first: the quadrature value
of the kink energy and the symbolic residual of the kink profile are
established independently before the integrator is trusted."""

import math
import tracemalloc
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
import sympy
from scipy.integrate import quad

from z22field import GradedExpr, field, gexp, param, scalar, sim
from z22field.core import trig
from z22field.variational import (FERMIONS, _anchor_scale,
                                  _specialized_equations)


# ----------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------

def test_oracle_kink_solves_the_reduced_equation():
    x, t, a, v = sympy.symbols("x t alpha v", real=True)
    gamma = 1 / sympy.sqrt(1 - v ** 2)
    phi = 2 * sympy.atan(sympy.exp(a * gamma * (x - v * t)))
    res = (sympy.diff(phi, t, 2) - sympy.diff(phi, x, 2)
           + sympy.Rational(1, 2) * a ** 2 * sympy.sin(2 * phi))
    assert sympy.simplify(res) == 0


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_oracle_kink_energy_by_quadrature(alpha):
    def density(x):
        phi = 2.0 * math.atan(math.exp(alpha * x))
        dphi = alpha / math.cosh(alpha * x)
        return 0.5 * dphi ** 2 + 0.5 * alpha ** 2 * math.sin(phi) ** 2

    val, err = quad(density, -80.0 / alpha, 80.0 / alpha, limit=400)
    assert err < 1e-9
    assert abs(val - sim.kink_energy(alpha)) < 1e-9
    assert abs(val - 2.0 * alpha) < 1e-9


def test_engine_certifies_the_two_sine_split():
    # with the fermions off, the engine's trigonometric rows are
    # wave + (alpha^2/4)(sin 2u +- sin 2v), u = phi00 + phi11 and
    # v = phi00 - phi11, as a polynomial identity in the S/C symbols:
    # angle addition only, no S^2 + C^2 = 1
    eqs = _specialized_equations("cos")
    s00, c00 = gexp(trig("S00")), gexp(trig("C00"))
    s11, c11 = gexp(trig("S11")), gexp(trig("C11"))
    sin2 = lambda s, c: scalar(2) * s * c
    cos2 = lambda s, c: c * c - s * s
    sin2u = sin2(s00, c00) * cos2(s11, c11) + cos2(s00, c00) * sin2(s11, c11)
    sin2v = sin2(s00, c00) * cos2(s11, c11) - cos2(s00, c00) * sin2(s11, c11)
    quarter_a2 = scalar(Fraction(1, 4)) * gexp(param("alpha")) ** 2
    for base, sines in (("phi00", sin2u + sin2v), ("phi11", sin2u - sin2v)):
        wave = (gexp(field(base, 2, 0, "x"))
                - gexp(field(base, 0, 2, "x")))
        want = wave + quarter_a2 * sines
        row = eqs[base]
        row = row.substitute({g: GradedExpr.zero() for g in row.generators()
                              if g.kind == "field" and g.base in FERMIONS})
        scale = _anchor_scale(row, want)
        assert scale is not None, base
        assert not (row - scalar(scale) * want).terms, base


@pytest.mark.parametrize("boundary", sim.BOUNDARIES)
def test_laplacian_matches_the_three_point_stencil(boundary):
    cfg = sim.SimConfig(dx=0.1, x_min=-1.0, x_max=1.0, boundary=boundary,
                        initial="zero")
    x = sim.grid(cfg)
    phi = np.exp(-x * x) + 0.3 * x
    phi.flags.writeable = False
    n = len(phi)
    want = np.zeros(n)
    for i in range(n):
        if boundary == "periodic" or 0 < i < n - 1:
            want[i] = (phi[(i + 1) % n] - 2 * phi[i] + phi[i - 1]) / 0.01
    assert np.allclose(sim._laplacian(phi, cfg), want, rtol=0, atol=1e-12)


def _poisoned(make):
    """make, with every array it returns filled with 1e308."""
    def make_poisoned(*args, **kwargs):
        out = make(*args, **kwargs)
        out.fill(1e308)
        return out
    return make_poisoned


@pytest.mark.parametrize("boundary", sim.BOUNDARIES)
@pytest.mark.parametrize("sites", [801, 7])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_step_reads_no_entry_before_writing_it(boundary, sites,
                                                 monkeypatch):
    # every fresh array sim takes from numpy holds 1e308, which
    # overflows any arithmetic that reads an entry before it is written
    # (a periodic grid leaves out its right end)
    span = 0.05 * (sites - (boundary == "fixed"))
    cfg = sim.SimConfig(dx=0.05, dt=0.01, x_min=-span / 2, x_max=span / 2,
                        boundary=boundary, initial="two-field-kink",
                        params={"v": 0.3})
    assert len(sim.grid(cfg)) == sites
    want = sim.step(sim.step(sim.init_profile(cfg), cfg), cfg)
    poisoned = types.SimpleNamespace(**vars(np))
    poisoned.empty = _poisoned(np.empty)
    poisoned.empty_like = _poisoned(np.empty_like)
    monkeypatch.setattr(sim, "np", poisoned)
    got = sim.step(sim.step(sim.init_profile(cfg), cfg), cfg)
    assert np.array_equal(got.w, want.w) and np.array_equal(got.p, want.p)


def test_two_sine_force_matches_the_product_form():
    cfg = sim.SimConfig(dx=0.1, boundary="periodic", initial="zero")
    x = sim.grid(cfg)
    k = 2.0 * math.pi / (cfg.x_max - cfg.x_min)
    a, b = 0.8 * np.sin(3 * k * x) + 0.3, np.cos(2 * k * x) - 1.1
    w = sim.FieldState.from_fields(x, a, b, 0 * x, 0 * x).w
    f = sim.force(w, cfg)
    assert f.shape == (2, len(x))
    f -= sim._laplacian(w, cfg)
    f00, f11 = 0.5 * (f[0] + f[1]), 0.5 * (f[0] - f[1])
    assert np.allclose(f00, -0.5 * np.sin(2 * a) * np.cos(2 * b),
                       rtol=0, atol=1e-14)
    assert np.allclose(f11, -0.5 * np.cos(2 * a) * np.sin(2 * b),
                       rtol=0, atol=1e-14)


# ----------------------------------------------------------------------
# configuration and initial data
# ----------------------------------------------------------------------

def test_config_rejects_cfl_violation():
    with pytest.raises(ValueError):
        sim.SimConfig(dx=0.1, dt=0.2)


@pytest.mark.parametrize("name", ["alpha", "dx", "dt", "x_min", "x_max",
                                  "t_end"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_values(name, bad):
    with pytest.raises(ValueError, match=name):
        sim.SimConfig(**{name: bad})


def test_config_rejects_negative_t_end():
    with pytest.raises(ValueError, match="t_end"):
        sim.SimConfig(t_end=-3.0)
    assert sim.SimConfig(t_end=0.0).t_end == 0.0


def test_config_applies_the_verlet_bound():
    # dt^2 (4/dx^2 + alpha^2) < 4: the potential's curvature counts, so
    # dt = dx is refused even without one
    with pytest.raises(ValueError, match="dt"):
        sim.SimConfig(dx=0.1, dt=0.1)
    with pytest.raises(ValueError, match="dt"):
        sim.SimConfig(alpha=0.0, dx=0.1, dt=0.1)
    with pytest.raises(ValueError, match="dt"):
        sim.SimConfig(alpha=10.0, dx=0.1, dt=0.09)
    assert sim.SimConfig(alpha=10.0, dx=0.1, dt=0.08).dt == 0.08
    assert sim.SimConfig(alpha=0.0, dx=0.1, dt=0.0999, t_end=0.0).dt == 0.0999


def test_config_rejects_unknown_names():
    with pytest.raises(ValueError):
        sim.SimConfig(boundary="absorbing")
    with pytest.raises(ValueError):
        sim.SimConfig(initial="breather")


@pytest.mark.parametrize("kwargs, named", [
    (dict(dt=1e200, dx=1.0), "dt=1e+200"),
    (dict(alpha=1e200), "alpha=1e+200"),
    (dict(alpha=-1e200), "alpha=-1e+200"),
    (dict(dt=1e-100, dx=1e-300, t_end=0.0), "dx=1e-300"),
])
def test_config_refuses_a_verlet_bound_past_float_range(kwargs, named):
    # the squares in the bound overflow a float; that is refused as
    # unstable, never raised as OverflowError
    with pytest.raises(ValueError, match="is unstable") as exc:
        sim.SimConfig(**kwargs)
    assert named in str(exc.value)


@pytest.mark.parametrize("alpha", [1e155, -1e155, 1e200])
def test_config_refuses_an_alpha_whose_square_overflows(alpha):
    # dt is small enough for the Verlet bound, but force and
    # total_energy square alpha
    with pytest.raises(ValueError) as exc:
        sim.SimConfig(alpha=alpha, dt=1e-3 / abs(alpha), t_end=0.0)
    assert str(exc.value) == (f"alpha={alpha} is too large: its square "
                              f"overflows a float")


def test_config_admits_an_alpha_whose_square_is_finite():
    cfg = sim.SimConfig(alpha=1e150, dt=1e-153, t_end=0.0, initial="zero")
    assert cfg.alpha == 1e150
    assert sim.total_energy(sim.init_profile(cfg), cfg) == 0.0


@pytest.mark.parametrize("profile, name", [
    (profile, name) for profile, names in sim.PROFILES.items()
    for name in names])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_config_refuses_a_non_finite_profile_parameter(profile, name, bad):
    with pytest.raises(ValueError) as exc:
        sim.SimConfig(initial=profile, params={name: bad}, t_end=0.0)
    assert str(exc.value) == (f"profile parameter {name} must be finite, "
                              f"got {bad}")


_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-50, 50), st.floats(1e-4, 1.0),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-320, 1e-156, 1e154, 1e155,
                     1e300, 1.7976931348623157e308]))
_names = st.one_of(st.sampled_from(["v", "x0", "amplitude", "width", "w"]),
                   st.text(max_size=4))


@given(alpha=_floats, dx=_floats, dt=st.one_of(st.none(), _floats),
       x_min=_floats, x_max=_floats, t_end=_floats,
       boundary=st.one_of(st.sampled_from(sim.BOUNDARIES), st.text(max_size=6)),
       initial=st.one_of(st.sampled_from(sorted(sim.PROFILES)),
                         st.text(max_size=6)),
       params=st.dictionaries(_names, _floats, max_size=3),
       output_stride=st.one_of(st.integers(-3, 10), st.integers()))
@settings(max_examples=300, deadline=None)
def test_any_config_is_built_or_refused_with_a_value_error(**kwargs):
    # validation never overflows, divides by zero or builds a grid
    try:
        cfg = sim.SimConfig(**kwargs)
    except ValueError:
        return
    assert 0 <= cfg.t_end / cfg.dt <= sim.MAX_STEPS + 1
    assert sim.MIN_SITES <= sim._site_count(cfg) <= sim.MAX_SITES + 1


def test_config_caps_the_step_count_without_running():
    # dt = 0.25 is exact in binary, so 250 000 is exactly MAX_STEPS steps
    cap = sim.MAX_STEPS * 0.25
    assert sim.SimConfig(dx=1.0, dt=0.25, t_end=cap).t_end == cap
    with pytest.raises(ValueError, match=r"t_end=250000\.25 at dt=0\.25 is "
                                         r"1e\+06 steps, more than the "):
        sim.SimConfig(dx=1.0, dt=0.25, t_end=cap + 0.25)
    with pytest.raises(ValueError, match=r"^t_end=1e\+300 at dt="):
        sim.SimConfig(t_end=1e300)
    # a step so short that t_end / dt overflows to inf
    with pytest.raises(ValueError, match="inf steps"):
        sim.SimConfig(dt=1e-320)
    # the longest study run, energy_drift_study's 5 000 steps, is admitted
    assert sim.SimConfig(dt=0.02, t_end=100.0).t_end == 100.0


def test_every_profile_reads_each_parameter_it_admits():
    base = dict(dx=0.5, x_min=-5.0, x_max=5.0, t_end=0.0)
    for profile, names in sim.PROFILES.items():
        plain = sim.init_profile(sim.SimConfig(initial=profile, **base))
        for name in names:
            moved = sim.init_profile(sim.SimConfig(
                initial=profile, params={name: 0.5}, **base))
            assert not (np.array_equal(moved.w, plain.w)
                        and np.array_equal(moved.p, plain.p)), (profile, name)


@pytest.mark.parametrize("profile, params, message", [
    ("kink", {"w": 3.0}, "profile 'kink' reads no parameter 'w'; it reads "
                         "v, x0"),
    ("gaussian", {"v": 0.1}, "profile 'gaussian' reads no parameter 'v'; "
                             "it reads amplitude, width, x0"),
    ("zero", {"x0": 1.0}, "profile 'zero' reads no parameter 'x0'; it "
                          "reads none"),
])
def test_config_rejects_a_parameter_its_profile_never_reads(
        profile, params, message):
    with pytest.raises(ValueError) as exc:
        sim.SimConfig(initial=profile, params=params)
    assert str(exc.value) == message


def test_a_gaussian_of_tiny_width_is_the_exact_bump():
    # off the centre (x - x0) / width overflows to inf, and exp(-inf) = 0
    cfg = sim.SimConfig(initial="gaussian", dx=0.5, x_min=-5.0, x_max=5.0,
                        params={"width": 1e-320, "amplitude": 0.5},
                        t_end=0.0)
    x = sim.grid(cfg)
    assert np.array_equal(sim.init_profile(cfg).w[0],
                          np.where(x == 0.0, 0.5, 0.0))
    assert (x == 0.0).sum() == 1


def test_config_default_timestep():
    cfg = sim.SimConfig(dx=0.1)
    assert cfg.dt == pytest.approx(0.04)


def test_kink_profile_rejects_superluminal_speed():
    # refused when the config is built, before any grid exists
    with pytest.raises(ValueError) as exc:
        sim.SimConfig(initial="kink", params={"v": 1.0})
    assert str(exc.value) == ("kink velocity v=1.0 of profile 'kink' must "
                              "satisfy |v| < 1")


@pytest.mark.parametrize("profile", ["kink", "two-field-kink"])
@pytest.mark.parametrize("v", [1.0, -1.0, 2.0])
def test_config_refuses_a_kink_at_or_past_light_speed(profile, v):
    with pytest.raises(ValueError, match=rf"^kink velocity v={v} of "
                                         rf"profile '{profile}' must"):
        sim.SimConfig(initial=profile, params={"v": v}, t_end=0.0)


@pytest.mark.parametrize("profile", ["kink", "two-field-kink"])
def test_config_admits_a_kink_just_below_light_speed(profile):
    cfg = sim.SimConfig(initial=profile, params={"v": 0.999}, t_end=0.0)
    assert math.isfinite(sim.run(cfg).energies[0])


def test_kink_profile_matches_closed_form():
    cfg = sim.SimConfig(alpha=1.0, dx=0.1, initial="kink",
                        params={"v": 0.5, "x0": 1.0})
    state = sim.init_profile(cfg)
    phi, pi = sim.kink_closed_form(state.x, 0.0, 1.0, 0.5, 1.0)
    assert np.array_equal(state.phi00, phi)
    assert np.array_equal(state.pi00, pi)
    assert not state.phi11.any()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_steep_kink_takes_its_far_tail_limits_without_warnings():
    # alpha * |x - x0| reaches 800 at the ends: exp and cosh overflow
    cfg = sim.SimConfig(alpha=40.0, dx=0.01, dt=0.002, t_end=0.01)
    state = sim.init_profile(cfg)
    assert state.phi00[-1] == math.pi
    assert state.pi00[0] == 0.0 and state.pi00[-1] == 0.0
    assert math.isfinite(sim.run(cfg).energies[-1])


def test_run_refuses_a_non_finite_initial_energy():
    # a huge alpha is refused the same way (tests/test_cli.py)
    cfg = sim.SimConfig(initial="gaussian", params={"amplitude": 1e200},
                        t_end=0.0)
    with pytest.raises(ValueError, match="the initial energy is inf at alpha"):
        sim.run(cfg)


def test_state_check_catches_nan():
    cfg = sim.SimConfig(initial="zero")
    state = sim.init_profile(cfg)
    with pytest.raises(ValueError):
        state.w[0, 3] = math.nan    # read-only: no edit slips past check
    phi = state.phi00.copy()
    phi[3] = math.nan
    with pytest.raises(RuntimeError, match="phi00"):
        sim.FieldState.from_fields(state.x, phi, state.phi11, state.pi00,
                                   state.pi11)


def _with(state, name, site, value):
    """`state` with one component field's entry at `site` replaced,
    built directly so that no check runs before `step`."""
    fields = {n: getattr(state, n).copy()
              for n in ("phi00", "phi11", "pi00", "pi11")}
    fields[name][site] = value
    w = np.array((fields["phi00"] + fields["phi11"],
                  fields["phi00"] - fields["phi11"]))
    p = np.array((fields["pi00"] + fields["pi11"],
                  fields["pi00"] - fields["pi11"]))
    return sim.FieldState(state.x, w, p, state.time)


@pytest.mark.parametrize("boundary,site", [("fixed", 0), ("fixed", -1),
                                           ("fixed", 7), ("periodic", 7)])
@pytest.mark.parametrize("name", ["phi00", "phi11", "pi00", "pi11"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_step_refuses_a_non_finite_field(boundary, site, name, bad):
    # the single finiteness test of a step sees every field, a clamped
    # end site included, where the force is zero and nothing spreads
    cfg = sim.SimConfig(dx=0.1, x_min=-2.0, x_max=2.0, boundary=boundary,
                        initial="two-field-kink", params={"v": 0.3})
    state = _with(sim.init_profile(cfg), name, site, bad)
    with pytest.raises(RuntimeError, match="lost finiteness"):
        sim.step(state, cfg)


# ----------------------------------------------------------------------
# update map
# ----------------------------------------------------------------------

def test_run_is_deterministic():
    cfg = sim.SimConfig(dx=0.1, t_end=2.0, initial="kink",
                        params={"v": 0.3})
    t1 = sim.run(cfg)
    t2 = sim.run(cfg)
    assert np.array_equal(t1.final.phi00, t2.final.phi00)
    assert np.array_equal(t1.energies, t2.energies)


def _uncached(state):
    fresh = sim.FieldState(state.x, state.w, state.p, state.time)
    fresh.clock = state.clock
    return fresh


def _same(s1, s2):
    return all(np.array_equal(getattr(s1, n), getattr(s2, n))
               for n in ("phi00", "phi11", "pi00", "pi11")) and (
        s1.time == s2.time)


def test_cached_force_gives_the_fresh_step_bitwise():
    cfg = sim.SimConfig(dx=0.1, initial="two-field-kink",
                        params={"v": 0.3, "x0": 1.0})
    state = sim.step(sim.init_profile(cfg), cfg)
    assert state.cached_force is not None
    assert _uncached(state).cached_force is None
    assert _same(sim.step(state, cfg), sim.step(_uncached(state), cfg))


@pytest.mark.parametrize("change", [{"alpha": 2.0}, {"boundary": "periodic"},
                                    {"dx": 0.2, "dt": 0.04},
                                    {"dx": 0.05, "dt": 0.04}])
def test_cached_force_is_not_reused_under_another_config(change):
    base = dict(dx=0.1, x_min=-10.0, x_max=10.0, initial="kink")
    cfg = sim.SimConfig(**base)
    other = sim.SimConfig(**{**base, **change})
    state = sim.step(sim.init_profile(cfg), cfg)
    assert _same(sim.step(state, other), sim.step(_uncached(state), other))
    stale = sim.step(state, cfg)
    if other.dt == cfg.dt:
        assert not _same(sim.step(state, other), stale)


def test_cached_force_is_dropped_with_the_positions():
    cfg = sim.SimConfig(dx=0.1, initial="kink", params={"v": 0.3})
    state = sim.step(sim.init_profile(cfg), cfg)
    moved = sim.step(state, cfg)
    state.w = moved.w    # reassigned, not edited in place
    assert _same(sim.step(state, cfg), sim.step(_uncached(state), cfg))


def test_run_evaluates_the_force_once_per_step(monkeypatch):
    calls = []
    real = sim.force

    def counting(w, cfg, s=None):
        calls.append(w.shape)
        return real(w, cfg, s)

    monkeypatch.setattr(sim, "force", counting)
    cfg = sim.SimConfig(dx=0.1, t_end=2.0, initial="kink")
    steps = round(cfg.t_end / cfg.dt)
    sim.run(cfg)
    assert len(calls) == steps + 1


def test_studies_that_read_only_the_final_state_compute_no_energy(
        monkeypatch):
    cfg = sim.SimConfig(dx=0.1, t_end=2.0, initial="kink",
                        params={"v": 0.3})
    final = sim.run(cfg).final

    def refused(state, cfg):
        raise AssertionError("energy computed and thrown away")

    monkeypatch.setattr(sim, "total_energy", refused)
    assert _same(sim._final(cfg), final)
    sim.convergence_study()
    sim.boosted_kink_study()


def _parent_laplacian(w, cfg):
    """`_laplacian`, verbatim, so the reference below shares no kernel
    arithmetic with the code under test."""
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


def _parent_force(w, cfg):
    """`force` before it took a scratch argument, verbatim."""
    f = _parent_laplacian(w, cfg)
    # the sine in one scratch array: at N = 80 001 every fresh (2, N)
    # temporary adds 1.3 MB to the peak footprint
    s = np.multiply(w, 2.0)
    f -= np.multiply(np.sin(s, out=s), 0.5 * cfg.alpha ** 2, out=s)
    if cfg.boundary == "fixed":
        f[..., 0] = f[..., -1] = 0.0
    return f


def _parent_step(state, cfg):
    """`step` with five fresh temporaries, verbatim: the reference the
    scratch-sharing step must match bit for bit."""
    dt = cfg.dt
    key = (cfg.boundary, cfg.alpha, cfg.dx)
    cached = state.cached_force
    if cached is not None and cached[0] == key and cached[1] is state.w:
        f = cached[2]
    else:
        f = _parent_force(state.w, cfg)
    p = f * (0.5 * dt)
    p += state.p
    w = p * dt
    w += state.w
    g = _parent_force(w, cfg)
    p += (0.5 * dt) * g
    w.flags.writeable = False
    p.flags.writeable = False
    clock = state.clock
    if clock is None or clock[2] != dt or (
            clock[0] + clock[1] * dt != state.time):
        clock = (state.time, 0, dt)
    t0, k = clock[0], clock[1] + 1
    out = sim.FieldState(state.x, w, p, t0 + k * dt)
    out.clock = (t0, k, dt)
    out.cached_force = (key, w, g)
    return out.check()


def _kink_and_bump(cfg):
    # a moving kink in phi00 beside a Gaussian in phi11: both rows of
    # w = (u, v) carry distinct data
    x = sim.grid(cfg)
    kink, kink_pi = sim.kink_closed_form(x, 0.0, cfg.alpha, v=0.3, x0=-2.0)
    bump = 0.7 * np.exp(-(x - 3.0) ** 2)
    return sim.FieldState.from_fields(x, kink, bump, kink_pi, -0.4 * bump)


def _assert_same_arrays(a, b):
    assert np.array_equal(a.w, b.w)
    assert np.array_equal(a.p, b.p)
    assert np.array_equal(a.cached_force[2], b.cached_force[2])
    assert a.time == b.time


@pytest.mark.parametrize("boundary, x_max", [("fixed", 20.0),
                                             ("periodic", 20.05)])
def test_step_matches_the_five_temporary_step_bitwise(boundary, x_max):
    cfg = sim.SimConfig(x_max=x_max, boundary=boundary)
    start = _kink_and_bump(cfg)
    assert start.w.shape == (2, 801)
    a = b = start
    for _ in range(200):
        a, b = sim.step(a, cfg), _parent_step(b, cfg)
        _assert_same_arrays(a, b)


def _big_config():
    # the N = 80 001 two-field kink of the benchmark's evolve workload
    return sim.SimConfig(dx=0.005, x_min=-200.0, x_max=200.0, t_end=0.0,
                         initial="two-field-kink")


def test_step_matches_the_five_temporary_step_bitwise_at_n80k():
    cfg = _big_config()
    a = b = sim.init_profile(cfg)
    assert a.w.shape == (2, 80001)
    for _ in range(5):
        a, b = sim.step(a, cfg), _parent_step(b, cfg)
        _assert_same_arrays(a, b)


def _arrays(state):
    return (state.w, state.p) + (
        (state.cached_force[2],) if state.cached_force else ())


def test_stepped_arrays_share_no_memory():
    cfg = sim.SimConfig(dx=0.1, initial="two-field-kink",
                        params={"v": 0.3})
    start = sim.step(sim.init_profile(cfg), cfg)
    out = sim.step(start, cfg)
    after = sim.step(out, cfg)
    mine = _arrays(out)
    assert len(mine) == 3
    for i, a in enumerate(mine):
        for b in mine[i + 1:] + _arrays(start) + _arrays(after):
            assert not np.shares_memory(a, b)
    # stepping one input twice gives equal states
    _assert_same_arrays(sim.step(start, cfg), out)


def test_one_big_step_allocates_at_most_four_field_arrays():
    # the new p, the new w, the new force and one scratch; a fifth
    # temporary adds 1.3 MB to the solver's peak footprint
    cfg = _big_config()
    state = sim.step(sim.init_profile(cfg), cfg)
    budget = 4 * state.w.nbytes * 1.01
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        nxt = sim.step(state, cfg)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert nxt.cached_force is not None
    assert peak <= budget, peak / state.w.nbytes


def test_stepped_state_is_read_only_and_input_untouched():
    cfg = sim.SimConfig(dx=0.1, initial="kink", params={"v": 0.3})
    start = sim.init_profile(cfg)
    names = ("w", "p", "phi00", "phi11", "pi00", "pi11")
    before = [getattr(start, n).copy() for n in names]
    state = sim.step(start, cfg)
    for name in names:
        with pytest.raises(ValueError):
            getattr(state, name)[..., 3] = 0.0
    for old, name in zip(before, names):
        assert np.array_equal(old, getattr(start, name))


def test_second_sector_stays_zero():
    cfg = sim.SimConfig(dx=0.1, t_end=5.0, initial="kink")
    traj = sim.run(cfg)
    assert not traj.final.phi11.any()
    assert not traj.final.pi11.any()


def test_exchange_symmetry_is_exact():
    rep = sim.exchange_symmetry_study()
    assert rep["max_asymmetry"] == 0.0


def test_exchange_symmetry_study_catches_a_kernel_that_breaks_it(
        monkeypatch):
    # phi11's row with the wrong sign of sin 2v, written in u/v: the u
    # row gains sin 2v and the v row loses its sine
    def broken(w, cfg, s=None):
        f = sim._laplacian(w, cfg)
        s = np.multiply(0.5 * cfg.alpha ** 2, np.sin(2.0 * w), out=s)
        f[0] -= s[0] + s[1]
        if cfg.boundary == "fixed":
            f[..., 0] = f[..., -1] = 0.0
        return f

    monkeypatch.setattr(sim, "force", broken)
    assert sim.exchange_symmetry_study()["max_asymmetry"] > 0.1


def test_alpha_zero_gives_free_waves():
    # d'Alembert: a standing gaussian splits into two half-amplitude
    # packets moving at unit speed
    cfg = sim.SimConfig(alpha=0.0, dx=0.05, dt=0.02, x_min=-30.0,
                        x_max=30.0, t_end=8.0, initial="gaussian",
                        params={"amplitude": 1.0, "width": 1.0})
    traj = sim.run(cfg)
    x = traj.final.x
    expected = 0.5 * (np.exp(-(x - 8.0) ** 2) + np.exp(-(x + 8.0) ** 2))
    assert np.max(np.abs(traj.final.phi00 - expected)) < 2e-3


def test_periodic_wrap():
    cfg = sim.SimConfig(alpha=0.0, dx=0.1, dt=0.04, x_min=-5.0, x_max=5.0,
                        t_end=10.0, boundary="periodic", initial="gaussian",
                        params={"amplitude": 0.1, "width": 0.5})
    traj = sim.run(cfg)
    # after one full circuit the two packets recombine near the start
    assert abs(traj.final.phi00[len(traj.final.x) // 2]
               - 0.1) < 5e-3


# ----------------------------------------------------------------------
# acceptance studies at their stated tolerances
# ----------------------------------------------------------------------

def test_convergence_is_second_order():
    rep = sim.convergence_study()
    for ratio in rep["ratios"]:
        assert 3.5 <= ratio <= 4.5, rep


def test_energy_drift_on_the_discrete_functional():
    # the energy is the scheme's own functional: on the static kink it
    # holds to rounding over the full 100 time units
    rep = sim.energy_drift_study()
    assert rep["max_relative_drift"] < 1e-10


def test_periodic_energy_is_invariant_under_rotation():
    # the wrap-around edge belongs to the gradient energy on a ring, so
    # turning the ring leaves the energy alone
    cfg = sim.SimConfig(dx=0.1, x_min=-5.0, x_max=5.0, boundary="periodic",
                        initial="zero")
    x = sim.grid(cfg)
    phi = np.exp(-(x - 4.0) ** 2)
    energies = [sim.total_energy(sim.FieldState.from_fields(
        x, np.roll(phi, k), 0.5 * np.roll(phi, k), 0 * x, 0 * x), cfg)
        for k in range(0, len(x), 7)]
    assert max(energies) - min(energies) < 1e-12 * energies[0]


def test_dispersion_relation():
    rep = sim.dispersion_study()
    assert rep["relative_error"] < 0.01


def test_energy_converges_to_continuum_value():
    # trapezoidal energy of the lattice kink against the quadrature value
    for dx, tol in ((0.1, 2e-3), (0.05, 5e-4)):
        cfg = sim.SimConfig(alpha=1.0, dx=dx, t_end=0.0, initial="kink")
        state = sim.init_profile(cfg)
        e = sim.total_energy(state, cfg)
        assert abs(e - 2.0) < tol, dx


def _phi_basis_energy(state, cfg):
    """The discrete energy written in phi00, phi11: the reference form."""
    a2 = cfg.alpha ** 2
    phi00, phi11, pi00, pi11 = (state.phi00, state.phi11, state.pi00,
                                state.pi11)
    su, sv = np.sin(phi00 + phi11), np.sin(phi00 - phi11)
    pot = 0.25 * a2 * (su * su + sv * sv)
    dens = 0.5 * (pi00 ** 2 + pi11 ** 2) + pot
    periodic = cfg.boundary == "periodic"
    grad = 0.0
    for phi in (phi00, phi11):
        d = np.diff(phi)
        grad += float(np.dot(d, d))
        if periodic:
            grad += float(phi[0] - phi[-1]) ** 2
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    sites = (np.sum(dens) * cfg.dx if periodic
             else trapezoid(dens, dx=cfg.dx))
    return float(sites) + 0.5 * grad / cfg.dx


@pytest.mark.parametrize("boundary", sim.BOUNDARIES)
def test_energy_matches_the_phi_basis_form(boundary):
    cfg = sim.SimConfig(dx=0.1, x_min=-10.0, x_max=10.0, boundary=boundary,
                        initial="zero")
    x = sim.grid(cfg)
    kink, kink_pi = sim.kink_closed_form(x, 0.0, 1.0, v=0.4, x0=-1.0)
    bump = 0.6 * np.exp(-(x - 2.0) ** 2)
    state = sim.FieldState.from_fields(x, kink, bump, kink_pi, 0.3 * bump)
    for _ in range(3):
        e, want = sim.total_energy(state, cfg), _phi_basis_energy(state, cfg)
        assert abs(e - want) <= 1e-13 * abs(want), (e, want)
        state = sim.step(state, cfg)


def test_hand_stepped_times_are_whole_multiples_of_dt():
    # the dispersion study's ring: a running sum of dt would end 1.15e-14
    # past 300 dt here
    dx = 16.0 * math.pi / 1005
    cfg = sim.SimConfig(dx=dx, x_min=-8.0 * math.pi, x_max=8.0 * math.pi,
                        t_end=0.0, boundary="periodic", initial="zero")
    state = sim.init_profile(cfg)
    for k in range(1, 301):
        state = sim.step(state, cfg)
        assert state.time == k * cfg.dt
    # a reassigned time, or another dt, starts a new count from there
    state.time = 1.0
    assert sim.step(state, cfg).time == 1.0 + cfg.dt
    other = sim.SimConfig(dx=dx, dt=0.3 * dx, x_min=-8.0 * math.pi,
                          x_max=8.0 * math.pi, t_end=0.0,
                          boundary="periodic", initial="zero")
    state = sim.step(sim.step(state, other), other)
    assert state.time == 1.0 + 2 * other.dt


@pytest.mark.parametrize("boundary,x_max", [("fixed", 0.05),
                                            ("periodic", 0.1)])
def test_config_needs_three_sites(boundary, x_max):
    with pytest.raises(ValueError, match="fewer than the 3"):
        sim.SimConfig(dx=0.05, x_min=0.0, x_max=x_max, boundary=boundary)
    cfg = sim.SimConfig(dx=0.05, x_min=0.0, x_max=x_max + 0.05,
                        boundary=boundary, t_end=1.0)
    assert len(sim.run(cfg).final.x) == 3


def test_run_times_are_whole_multiples_of_dt():
    cfg = sim.SimConfig(alpha=0.0, dx=0.1, dt=0.04, x_min=-5.0, x_max=5.0,
                        t_end=10.0, boundary="periodic", initial="gaussian",
                        params={"amplitude": 0.1, "width": 0.5})
    traj = sim.run(cfg)
    assert len(traj.times) == round(cfg.t_end / cfg.dt) + 1
    assert all(t == k * cfg.dt for k, t in enumerate(traj.times))
    assert traj.final.time == 10.0


def test_config_caps_the_grid_before_allocating():
    with pytest.raises(ValueError, match=r"^dx=1e-12 gives 2e\+12 grid sites"):
        sim.SimConfig(dx=1e-12, dt=1e-13, x_min=-1.0, x_max=1.0, t_end=0.0)
    # the cap itself is accepted; SimConfig allocates nothing
    cfg = sim.SimConfig(dx=1.0, x_min=0.0, x_max=float(sim.MAX_SITES),
                        t_end=0.0)
    assert cfg.x_max == sim.MAX_SITES
