"""Acceptance gate.

One test per criterion, each printing a single pass/fail line with its
runtime against the stated cap.  Symbolic checks are exact: the
tolerance is literal zero in the Gaussian-rational ring.  Run with
`pytest tests/test_acceptance.py -v -s` to see the lines directly.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from z22field import GradedExpr, coord, field, gexp, param, scalar
from z22field.core import GaussianRational, QI
from z22field.action import lagrangian, lagrangian_audit, berezin_layer
from z22field.derivations import verify_structure_constants
from z22field.potential import parse_potential, potential_components
from z22field.superfield import (VAR_NAMES, degree_audit,
                                 table_comparison_report, variation_table)
from z22field.variational import (SYMMETRIES, current_comparison,
                                  generic_eom_report, invariance_report,
                                  noether, quadratic_eom_report,
                                  sine_gordon_reduction, trig_eom_report)
from z22field.dmodule import (canonical_matrices, matrices_from_tables,
                              printed_matrices, reconstruct_table,
                              verify_matrix_relations)
from z22field import reference, sim


def _conclude(num, label, ok, t0, cap):
    elapsed = time.monotonic() - t0
    line = (f"criterion {num:2d} [{label}]: "
            f"{'PASS' if ok else 'FAIL'} ({elapsed:.2f}s / cap {cap:g}s)")
    print(line)
    assert ok, line
    assert elapsed < cap, line


def test_criterion_01_structure_constants():
    t0 = time.monotonic()
    reports = verify_structure_constants()
    ok = len(reports) == 28 and all(r["status"] == "ok" for r in reports)
    _conclude(1, "structure constants", ok, t0, 5.0)


def test_criterion_02_transformation_tables():
    t0 = time.monotonic()
    rep = table_comparison_report()
    field_entries = [v for entry in rep.values()
                     for k, v in entry["entries"].items()
                     if not k.startswith("coord:")]
    ok = (len(field_entries) == 80 and all(field_entries)
          and all(entry["ok"] for entry in rep.values()))
    _conclude(2, "transformation tables", ok, t0, 10.0)


def test_criterion_03_integration_map():
    t0 = time.monotonic()
    probe = (gexp(coord("th10")) * gexp(coord("th01")) * gexp(coord("z"))
             * gexp(field("A00", 0, 0, "y")))
    want = scalar(Fraction(1, 2)) * gexp(field("A00", 0, 0, "y"))
    _conclude(3, "integration map", berezin_layer(probe) == want, t0, 5.0)


def test_criterion_04_component_lagrangian():
    t0 = time.monotonic()
    lag = lagrangian()
    full_ok = lag == (reference.lagrangian_kinetic()
                      + reference.lagrangian_interaction())
    two = GaussianRational(2)
    sq_ok = (lag.terms.get(((field("A00", 0, 0, "x"), 2),)) == two
             and lag.terms.get(((field("A11", 0, 0, "x"), 2),)) == two)
    # displayed mixing weight i/2 sits on both orderings of each fermion
    # pair; the canonical form carries the merged +-i
    mix = [c for mono, c in lag.terms.items()
           if sum(1 for g, e in mono if g.kind == "field"
                  and g.base in ("psi10", "psi01", "lam10", "lam01")) == 2
           and any(g.jet != (0, 0) for g, e in mono if g.kind == "field")]
    mix_ok = len(mix) == 8 and all(c in (QI, -QI) for c in mix)
    elim_ok = lagrangian(eliminate=True) == reference.lagrangian_eliminated()
    _conclude(4, "component Lagrangian",
              full_ok and sq_ok and mix_ok and elim_ok, t0, 30.0)


def test_criterion_05_invariance():
    t0 = time.monotonic()
    rep = invariance_report(eliminate=False)
    ok = set(rep) == set(SYMMETRIES) and all(e["ok"] for e in rep.values())
    _conclude(5, "invariance of the action", ok, t0, 60.0)


def test_criterion_06_noether_currents():
    t0 = time.monotonic()
    comp = current_comparison()
    ok = set(comp) == set(SYMMETRIES)
    for entry in comp.values():
        ok = ok and entry["conserved"]
        ok = ok and (entry["matches_reference"]
                     or entry.get("improvement_conserved", False))
    _conclude(6, "Noether currents", ok, t0, 60.0)


def test_criterion_07_matrix_realization():
    t0 = time.monotonic()
    derived = matrices_from_tables()
    mats, flips, _, _ = canonical_matrices(derived)
    rel = verify_matrix_relations(mats)
    printed = printed_matrices()
    ok = len(rel) == 15 and all(rel.values())
    ok = ok and mats == printed
    ok = ok and all(reconstruct_table(n, derived) == variation_table(n, "x")
                    for n in printed)
    _conclude(7, "matrix realization", ok, t0, 5.0)


def test_criterion_08_worked_examples():
    t0 = time.monotonic()
    quad_lag = lagrangian(parse_potential("poly:0,0,1/2"), eliminate=True)
    ok = quad_lag == reference.quadratic_lagrangian_printed()
    qrep = quadratic_eom_report()
    ok = ok and all(e["exact"] for e in qrep.values())
    # Klein-Gordon rows for both bosons
    al = gexp(param("alpha"))
    for b in ("phi00", "phi11"):
        wave = (gexp(field(b, 2, 0, "x")) - gexp(field(b, 0, 2, "x"))
                + al * al * gexp(field(b, 0, 0, "x")))
        ok = ok and reference.quadratic_eom_printed()[b] == wave
    pair = potential_components(parse_potential("cos"), stage="x")
    spec = reference.trigonometric_specialization()
    ok = ok and pair.v00 == spec["V00"] and pair.v11 == spec["V11"]
    trig_lag = lagrangian(parse_potential("cos"), eliminate=True)
    ok = ok and trig_lag == reference.trig_lagrangian_printed()
    # coupled system: exact up to the recorded fermion errata
    ok = ok and all(e["matches_erratum"]
                    for e in trig_eom_report(generic_eom_report()).values())
    sg = sine_gordon_reduction()
    ok = ok and all(e["exact"] for e in sg.values()) and len(sg) == 2
    _conclude(8, "worked examples", ok, t0, 10.0)


def test_criterion_09a_convergence():
    t0 = time.monotonic()
    rep = sim.convergence_study()
    ok = len(rep["ratios"]) == 2 and all(3.5 <= r <= 4.5
                                         for r in rep["ratios"])
    _conclude(9, "numeric a: second-order convergence", ok, t0, 60.0)


def test_criterion_09b_energy_drift():
    t0 = time.monotonic()
    rep = sim.energy_drift_study()
    _conclude(9, "numeric b: energy drift",
              rep["max_relative_drift"] < 1e-5, t0, 60.0)


def test_criterion_09c_boosted_kink():
    t0 = time.monotonic()
    rep = sim.boosted_kink_study()
    _conclude(9, "numeric c: boosted kink position",
              rep["position_error"] < rep["dx"], t0, 60.0)


def test_criterion_09d_exchange_symmetry():
    # evolution commutes with phi00 <-> phi11 on data far from mirror,
    # exactly: the exchange only flips signs, which rounding respects
    t0 = time.monotonic()
    rep = sim.exchange_symmetry_study()
    _conclude(9, "numeric d: exchange commutes with evolution",
              rep["max_asymmetry"] == 0.0, t0, 60.0)



def _swap(state):
    """phi00 <-> phi11 and pi00 <-> pi11."""
    return sim.FieldState.from_fields(state.x, state.phi11, state.phi00,
                                      state.pi11, state.pi00, state.time)


@pytest.mark.parametrize("boundary", sim.BOUNDARIES,
                         ids=lambda b: f"{b}-sine-gordon")
def test_criterion_09d_exchange_commutes_with_evolution(boundary):
    # the study runs on fixed ends in the u/v basis; this check swaps the
    # component fields themselves, on either boundary: evolving the
    # exchanged data must give the exchanged evolution
    t0 = time.monotonic()
    cfg = sim.SimConfig(dx=0.1, dt=0.04, x_min=-10.0, x_max=10.0,
                        boundary=boundary, initial="zero")
    x = sim.grid(cfg)
    kink, kink_pi = sim.kink_closed_form(x, 0.0, 1.0, v=0.3, x0=-2.0)
    bump = 0.7 * np.exp(-(x - 3.0) ** 2)
    data = sim.FieldState.from_fields(x, kink, bump, kink_pi, -0.4 * bump)

    def evolve(state):
        for _ in range(250):
            state = sim.step(state, cfg)
        return state

    a, b = _swap(evolve(data)), evolve(_swap(data))
    gap = max(float(np.max(np.abs(getattr(a, n) - getattr(b, n))))
              for n in ("phi00", "phi11", "pi00", "pi11"))
    # and the data stays far from mirror, where the check has teeth
    moved = float(np.max(np.abs(a.phi00 - a.phi11)))
    _conclude(9, f"numeric d: exchange commutes with evolution, {boundary}",
              gap < 1e-12 and moved > 0.1, t0, 60.0)

def test_criterion_10_reality_and_degree_audits():
    t0 = time.monotonic()
    ok = lagrangian_audit(lagrangian())["ok"]
    ok = ok and lagrangian_audit(lagrangian(eliminate=True))["ok"]
    for item in map(noether, SYMMETRIES):
        for j in item["dressed"]:
            ok = ok and j.star() == j and j.degree() == (0, 0)
    ok = ok and not degree_audit("y") and not degree_audit("x")
    for name in VAR_NAMES:
        for stage in ("y", "x"):
            for entry in variation_table(name, stage).values():
                ok = ok and entry.star() == entry
                ok = ok and entry.degree() is not None
    _conclude(10, "reality and degree audits", ok, t0, 5.0)
