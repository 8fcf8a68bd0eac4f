"""Action pipeline: integrand, extraction, component Lagrangian."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from z22field import GradedExpr, coord, field, gexp, param, scalar
from z22field.core import QI, GaussianRational, pairjet
from z22field.action import (auxiliary_solution, berezin_layer,
                             clifford_report, covariant_pair,
                             eliminate_auxiliary, lagrangian,
                             lagrangian_audit, lorentz_spinor_report,
                             measure_invariance_report, nilpotency_report,
                             product_covariance_report, spinor_lagrangian)
from z22field import reference
from z22field.potential import parse_potential, superspace_potential
from z22field.superfield import theta_theta_layers
from z22field import action, derivations, variational

from conftest import clear_package_caches
from test_graded_core import _at_stage, _measure_powers, exprs


# ----------------------------------------------------------------------
# extraction layer
# ----------------------------------------------------------------------

def test_integration_map_example():
    probe = (gexp(coord("th10")) * gexp(coord("th01")) * gexp(coord("z"))
             * gexp(field("A00", 0, 0, "y")))
    want = scalar(Fraction(1, 2)) * gexp(field("A00", 0, 0, "y"))
    assert berezin_layer(probe) == want


def test_integration_kills_theta_free_terms():
    assert berezin_layer(gexp(field("phi00", 0, 0, "y"))).is_zero()
    assert berezin_layer(gexp(coord("th10"))
                         * gexp(field("psi10", 0, 0, "y"))).is_zero()


def test_kinetic_slots_match_reference_body():
    d10phi, d01phi = covariant_pair()
    body, zslot = theta_theta_layers(d10phi * d01phi)
    assert body == reference.kinetic_body()


def test_interaction_slots_match_reference_body():
    body, zslot = theta_theta_layers(superspace_potential())
    assert body == reference.interaction_body()
    assert zslot == reference.interaction_z_slot()


# ----------------------------------------------------------------------
# component Lagrangian (the central derived object)
# ----------------------------------------------------------------------

def test_component_lagrangian_matches_reference():
    assert lagrangian() == (reference.lagrangian_kinetic()
                            + reference.lagrangian_interaction())


def test_eliminated_lagrangian_matches_reference():
    assert lagrangian(eliminate=True) == reference.lagrangian_eliminated()


def test_auxiliary_coefficients():
    lag = lagrangian()
    a00 = field("A00", 0, 0, "x")
    a11 = field("A11", 0, 0, "x")
    sq00 = lag.terms.get(((a00, 2),))
    sq11 = lag.terms.get(((a11, 2),))
    assert sq00 == GaussianRational(2)
    assert sq11 == GaussianRational(2)


def test_fermion_mixing_weights():
    # the display spreads each mixing term as i/2 over both orderings;
    # the canonical form merges the pair, so each monomial carries +-i
    lag = lagrangian()
    seen = 0
    for mono, c in lag.terms.items():
        odd = [g for g, e in mono if g.kind == "field"
               and g.base in ("psi10", "psi01", "lam10", "lam01")]
        jets = [g for g, e in mono if g.kind == "field"
                and g.jet != (0, 0)]
        if len(odd) == 2 and jets:
            assert c in (QI, -QI), mono
            seen += 1
    assert seen == 8


def test_auxiliary_solution_crosses_the_slots():
    sol = auxiliary_solution()
    al = gexp(param("alpha"))
    assert sol["A00"] == scalar(Fraction(1, 2)) * al * gexp(pairjet(1, 1, "x"))
    assert sol["A11"] == scalar(Fraction(1, 2)) * al * gexp(pairjet(1, 0, "x"))


def test_elimination_completes_the_square():
    lag = lagrangian()
    elim = eliminate_auxiliary(lag)
    for g in elim.generators():
        assert not (g.kind == "field" and g.base in ("A00", "A11"))
    subs = {field("A00", 0, 0, "x"): auxiliary_solution()["A00"],
            field("A11", 0, 0, "x"): auxiliary_solution()["A11"]}
    assert lag.substitute(subs) == elim


# ----------------------------------------------------------------------
# audits and structural reports
# ----------------------------------------------------------------------

@pytest.mark.parametrize("eliminate", [False, True])
def test_lagrangian_audit(eliminate):
    audit = lagrangian_audit(lagrangian(eliminate=eliminate))
    assert audit["ok"], audit


@pytest.mark.parametrize("spec", ["abstract", "cos", "poly:0,0,0,1"])
@pytest.mark.parametrize("eliminate", [False, True])
def test_the_reality_test_agrees_with_the_star(spec, eliminate):
    lag = lagrangian(parse_potential(spec), eliminate=eliminate)
    assert lag.is_real() and lag.star() == lag
    for bad in (scalar(QI) * lag, lag + scalar(QI) * gexp(
            field("psi10", 0, 0, "x")) * gexp(field("psi01", 0, 0, "x"))):
        assert not bad.is_real() and bad.star() != bad


@given(st.lists(st.tuples(exprs(), st.lists(_measure_powers, max_size=2),
                          st.sampled_from(("y", "x"))), max_size=3),
       st.booleans())
@example([], False)
# y^(1/2) and x: one dimension over two denominators; y^(1/2) and x^2:
# one numerator over two denominators, two dimensions
@example([(scalar(1), [gexp(coord("y"), Fraction(1, 2))], "y"),
          (gexp(coord("x")), [], "x")], False)
@example([(scalar(1), [gexp(coord("y"), Fraction(1, 2))], "y"),
          (gexp(coord("x"), 2), [], "x")], False)
@settings(max_examples=150, deadline=None)
def test_the_one_pass_audit_reads_what_the_three_readers_read(parts, real):
    # both stages, fractional measure powers, mixed degrees and
    # dimensions, and the zero expression
    e = GradedExpr.zero()
    for body, powers, stage in parts:
        body = _at_stage(body, stage)
        for p in powers:
            body = body * p
        e = e + body
    if real:
        e = e + e.star()
    audit = lagrangian_audit(e)
    want = (e.degree(), e.scaling_dim(), e.is_real())
    assert (audit["degree"], audit["dimension"], audit["real"]) == want
    assert type(audit["dimension"]) in (Fraction, type(None))
    assert audit["ok"] == (want == ((0, 0), 2, True))


def test_the_audit_refuses_an_imaginary_lagrangian():
    audit = lagrangian_audit(scalar(QI) * lagrangian(eliminate=True))
    assert audit["real"] is False and audit["ok"] is False
    # degree and dimension still pass: reality alone fails it
    assert audit["degree"] == (0, 0) and audit["dimension"] == 2


def test_measure_invariance():
    assert measure_invariance_report()["ok"]


def test_covariant_nilpotency():
    assert nilpotency_report()["ok"]


def test_product_covariance():
    assert product_covariance_report()["ok"]


def test_clifford_relations():
    assert clifford_report()["ok"]


def test_spinor_form_matches_component_form():
    rep = lorentz_spinor_report()
    assert rep["ok"], rep


def test_spinor_lagrangian_equals_component_lagrangian():
    assert spinor_lagrangian() == lagrangian()
    assert spinor_lagrangian(eliminate=True) == lagrangian(eliminate=True)


# ----------------------------------------------------------------------
# the memoised potential-free stages
# ----------------------------------------------------------------------

def test_check_examples_runs_each_eom_comparison_once(monkeypatch):
    from z22field import cli
    clear_package_caches()
    compared = []
    original = variational.eom_comparison

    def counted(engine, ref):
        compared.append(ref)
        return original(engine, ref)

    monkeypatch.setattr(variational, "eom_comparison", counted)
    ok, _ = cli.run_check_examples(
        cli.build_parser().parse_args(["check-examples"]))
    assert ok
    # generic, quadratic and the sine-Gordon reduction; the trigonometric
    # rows read the generic scales from the cached stage
    assert len(compared) == 3


def test_check_currents_builds_each_stage_once(monkeypatch):
    from z22field import cli
    clear_package_caches()
    built = {"density": 0, "elimination": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            built[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(action, "action_density",
                        counted("density", action.action_density))
    monkeypatch.setattr(action, "eliminate_auxiliary",
                        counted("elimination", action.eliminate_auxiliary))
    ok, _ = cli.run_check_currents(
        cli.build_parser().parse_args(["check-currents"]))
    assert ok
    assert derivations.superspace_operators.cache_info().misses == 1
    assert built == {"density": 1, "elimination": 1}
    assert action._component_lagrangian.cache_info().currsize == 2
    ok, _ = cli.run_check_examples(
        cli.build_parser().parse_args(["check-examples"]))
    assert ok
    for stage in (variational.field_equations, variational.solved_forms,
                  action.auxiliary_solution):
        assert stage.cache_info().misses == 1, stage.__name__


def test_specialising_leaves_the_cached_lagrangian_intact():
    lagrangian(parse_potential("cos"), eliminate=True)
    lagrangian(parse_potential("poly:0,0,1/2"), eliminate=False)
    assert lagrangian(eliminate=True) == reference.lagrangian_eliminated()
    assert lagrangian() == (reference.lagrangian_kinetic()
                            + reference.lagrangian_interaction())
    assert lagrangian(eliminate=True) is lagrangian(eliminate=True)
