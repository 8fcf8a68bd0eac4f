"""Potential handling: parsing, series, closed forms, displayed pairs."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from z22field import GradedExpr, coord, field, gexp, scalar
from z22field.core import fjet, pairjet, trig
from z22field.potential import (FunctionSymbol, check_potential_constraint,
                                parse_potential, potential_components,
                                series_pair, specialize_potential,
                                trig_series)
from z22field import reference


# ----------------------------------------------------------------------
# the CLI grammar
# ----------------------------------------------------------------------

def test_parse_named_potentials():
    assert parse_potential("cos").kind == "cos"
    assert parse_potential("sin").kind == "sin"
    assert parse_potential("abstract").kind == "abstract"


def test_parse_polynomial():
    V = parse_potential("poly:0,0,1/2")
    assert V.kind == "poly"


@pytest.mark.parametrize("bad", ["tan", "poly:", "poly:1,x", ""])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_potential(bad)


@pytest.mark.parametrize("spec", ["poly:1e999999999", "poly:1e-999999",
                                  "poly:0,2E+0001001", "poly:1e1_000_000"])
def test_parse_refuses_an_oversized_exponent(spec):
    with pytest.raises(ValueError, match="decimal exponent") as exc:
        parse_potential(spec)
    assert repr(spec) in str(exc.value)


def test_parse_keeps_exponents_up_to_the_bound():
    V = parse_potential("poly:1e1000,25e-2")
    assert V.coeffs == [Fraction(10) ** 1000, Fraction(1, 4)]


_SPEC_CHARS = st.sampled_from("0123456789eE+-_./, ")


@given(st.one_of(st.text(), st.text(_SPEC_CHARS).map("poly:".__add__)))
def test_parse_either_parses_or_raises_value_error(spec):
    try:
        V = parse_potential(spec)
    except ValueError:
        return
    assert V.kind in ("poly", "cos", "sin", "abstract")


# ----------------------------------------------------------------------
# closed forms against the displayed specializations
# ----------------------------------------------------------------------

def test_quadratic_pair_matches_display():
    pair = potential_components(parse_potential("poly:0,0,1/2"), stage="x")
    spec = reference.quadratic_specialization()
    assert pair.v00 == spec["V00"]
    assert pair.v11 == spec["V11"]


def test_trigonometric_pair_matches_display():
    pair = potential_components(parse_potential("cos"), stage="x")
    spec = reference.trigonometric_specialization()
    assert pair.v00 == spec["V00"]
    assert pair.v11 == spec["V11"]


def test_higher_tower_matches_display():
    spec = reference.trigonometric_specialization()
    V = parse_potential("cos")
    assert specialize_potential(gexp(pairjet(2, 0, "x")), V) == spec["V00_1"]
    assert specialize_potential(gexp(pairjet(2, 1, "x")), V) == spec["V11_1"]


@pytest.mark.parametrize("order", [2, 3, 5])
def test_trig_closed_form_agrees_with_series(order):
    # potential_components re-derives the series internally and raises
    # on disagreement; surviving construction is the assertion
    pair = potential_components(parse_potential("cos"), stage="x",
                                truncation_order=order)
    assert pair.closed


def test_sin_closed_form_agrees_with_series():
    pair = potential_components(parse_potential("sin"), stage="x",
                                truncation_order=4)
    assert pair.closed


# ----------------------------------------------------------------------
# series behavior
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name,space", [("S11", "x"), ("C11", "x"),
                                        ("S11y", "y"), ("C11y", "y")])
def test_trig_series_to_third_order(name, space):
    f11 = gexp(field("phi11", 0, 0, space))
    # the first-stage symbols carry the measure: phi11**2 comes with y
    y = gexp(coord("y")) if space == "y" else scalar(1)
    if name.startswith("S"):
        want = f11 - scalar(Fraction(1, 6)) * y * f11 ** 3
    else:
        want = scalar(1) - scalar(Fraction(1, 2)) * y * f11 ** 2
    assert trig_series(gexp(trig(name)), 3) == want


def test_abstract_series_truncates_in_the_odd_square():
    sp = series_pair(parse_potential("abstract"), stage="x",
                     truncation_order=2)
    # even slot: odd powers of the (1,1) field square away, leaving
    # derivative jumps of two per series step
    off = {g: GradedExpr.zero() for g in sp.v00.generators()
           if g.kind == "field" and g.base == "phi11"}
    assert sp.v00.substitute(off) == gexp(fjet(1))


def test_polynomial_specialization_is_exact():
    # V = c2 Phi^2/2 + c4 Phi^4 with rational coefficients
    V = parse_potential("poly:0,0,1/2,0,1")
    pair = potential_components(V, stage="x")
    f00 = gexp(field("phi00", 0, 0, "x"))
    f11 = gexp(field("phi11", 0, 0, "x"))
    want00 = f00 + scalar(4) * (f00 * f00 * f00
                                + scalar(3) * f00 * f11 * f11)
    assert pair.v00 == want00


def test_derivative_order_cap_enforced():
    V = parse_potential("poly:0,1")  # linear: second derivative vanishes
    pair = potential_components(V, stage="x", truncation_order=0)
    assert pair.v00 == scalar(1)
    assert pair.v11.is_zero()


def test_rejects_bad_truncation():
    with pytest.raises(ValueError):
        potential_components(parse_potential("cos"), truncation_order=-1)
    with pytest.raises(ValueError):
        potential_components(parse_potential("cos"), stage="w")


def test_series_pair_rejects_a_negative_truncation_order():
    # the cos tower never terminates, so an unguarded negative order
    # would never return
    with pytest.raises(ValueError, match="truncation_order must be >= 0"):
        series_pair(parse_potential("cos"), truncation_order=-1)


# ----------------------------------------------------------------------
# the defining pair constraint
# ----------------------------------------------------------------------

@pytest.mark.parametrize("build", [potential_components, series_pair])
@pytest.mark.parametrize("stage", ["y", "x"])
@pytest.mark.parametrize("spec", ["cos", "sin", "abstract", "poly:0,0,1/2",
                                  "poly:1,-2,3/4,0,5"])
def test_pairs_satisfy_the_defining_constraint(spec, stage, build):
    rep = check_potential_constraint(build(parse_potential(spec), stage=stage))
    assert rep["ok"], rep


def test_constraint_rejects_tampered_pairs():
    # at the first stage the odd-slot identity carries a measure factor,
    # so swapping the slots breaks it
    pair = potential_components(parse_potential("cos"), stage="y")
    swapped = dataclasses.replace(pair, v00=pair.v11, v11=pair.v00)
    assert not check_potential_constraint(swapped)["ok"]
    # at the second stage both identities are symmetric under the swap,
    # but not under a sign flip of one slot
    pair = potential_components(parse_potential("cos"), stage="x")
    swapped = dataclasses.replace(pair, v00=pair.v11, v11=pair.v00)
    assert check_potential_constraint(swapped)["ok"]
    flipped = dataclasses.replace(pair, v11=-pair.v11)
    assert not check_potential_constraint(flipped)["ok"]
