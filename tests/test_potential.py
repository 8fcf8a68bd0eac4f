"""Potential handling: parsing, series, closed forms, displayed pairs."""

import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from z22field import GradedExpr, coord, field, gexp, lagrangian, scalar
from z22field import potential, reference
from z22field.action import lagrangian_audit
from z22field.core import GaussianRational, fjet, pairjet, trig
from z22field.potential import (FunctionSymbol, check_potential_constraint,
                                pair_series, parse_potential,
                                potential_components, series_pair,
                                specialize_potential, trig_series)
from z22field.superfield import stage_map
from z22field.variational import euler_lagrange


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
    assert V.coeffs == (Fraction(10) ** 1000, Fraction(1, 4))


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
    V = parse_potential("poly:0,0,1/2")
    pair = potential_components(V, stage="x")
    spec = reference.quadratic_specialization()
    assert pair.v00 == spec["V00"]
    assert pair.v11 == spec["V11"]
    # every displayed entry, V00 to V11_2
    jets = [pairjet(m, s, "x") for m in range(1, 4) for s in (0, 1)]
    assert {g.name for g in jets} == set(spec)
    for g in jets:
        assert V.image(g) == spec[g.name], g.name


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


@pytest.mark.parametrize("spec", ["cos", "sin", "poly:1,-2,3/4,0,5"])
def test_stage_map_commutes_with_specialisation_at_stage_y(spec):
    # the closed form of a first-stage pair symbol, mapped to the second
    # stage, is the closed form of its image: the x powers that the stage
    # map gives the first-stage (1,1) trig symbols and the odd pair slot
    # must agree
    V = parse_potential(spec)
    for m in range(5):
        for s in (0, 1):
            g = gexp(pairjet(m, s, "y"))
            assert (stage_map(specialize_potential(g, V))
                    == specialize_potential(stage_map(g), V)), (m, s)


@pytest.mark.parametrize("order", range(7))
@pytest.mark.parametrize("stage", ["x", "y"])
@pytest.mark.parametrize("spec", ["cos", "sin"])
def test_trig_closed_form_agrees_with_series(spec, stage, order):
    # potential_components re-derives the series internally and raises
    # on disagreement; surviving construction is the assertion
    pair = potential_components(parse_potential(spec), stage=stage,
                                truncation_order=order)
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


@pytest.mark.parametrize("name,space,power", [
    ("S11", "x", 1), ("S11y", "y", 1), ("C11", "x", 0), ("C11y", "y", 0),
    ("S00", "x", 0), ("C00", "y", 0)])
def test_a_sine_of_the_odd_field_weighs_one_power_of_it(name, space, power):
    # the edge orders of a series constraint report count (1,1)-field
    # powers; a (1,1) sine starts at the first power, a cosine at none
    mono = ((field("phi11", 0, 0, space), 2), (trig(name), 3))
    assert potential._phi11_weight(mono, space) == 2 + 3 * power


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


def test_truncation_orders_past_the_bound_are_refused():
    V = parse_potential("cos")
    past = potential.MAX_TRUNCATION + 1
    for build in (potential_components, series_pair):
        with pytest.raises(ValueError, match=f"got {past}"):
            build(V, truncation_order=past)


def test_poly_specs_past_the_degree_bound_are_refused():
    at = "poly:" + ",".join(["1/2"] * (potential.MAX_POLY_DEGREE + 1))
    assert len(parse_potential(at).coeffs) == potential.MAX_POLY_DEGREE + 1
    past = at + ",1"
    with pytest.raises(ValueError,
                       match=f"degree {potential.MAX_POLY_DEGREE + 1}"):
        parse_potential(past)


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
    swapped = pair._replace(v00=pair.v11, v11=pair.v00)
    assert not check_potential_constraint(swapped)["ok"]
    # at the second stage both identities are symmetric under the swap,
    # but not under a sign flip of one slot
    pair = potential_components(parse_potential("cos"), stage="x")
    swapped = pair._replace(v00=pair.v11, v11=pair.v00)
    assert check_potential_constraint(swapped)["ok"]
    flipped = pair._replace(v11=-pair.v11)
    assert not check_potential_constraint(flipped)["ok"]


# ----------------------------------------------------------------------
# one-step towers and pair series against the product forms
# ----------------------------------------------------------------------

def _product_derivative(V, order, space="x"):
    """A poly derivative built term by term, each power of the (0,0)
    field by repeated multiplication, and added with `+`."""
    if V.kind != "poly":
        return V.derivative(order, space)
    out = GradedExpr.zero()
    w = gexp(field("phi00", 0, 0, space))
    for k in range(order, len(V.coeffs)):
        c = V.coeffs[k]
        if c == 0:
            continue
        term = scalar(c * Fraction(math.perm(k, order)))
        if k > order:
            for _ in range(k - order):
                term = term * w
        out = out + term
    return out


def _three_product_pair_series(m, slot, sp, truncation_order, fsub):
    """The pair series with each term built as the three products
    (1/p!) * head, * phi11**p, * y**n."""
    f11 = gexp(field("phi11", 0, 0, sp))
    y = gexp(coord("y")) if sp == "y" else None
    out = GradedExpr.zero()
    n = 0
    while True:
        p = 2 * n + slot
        if truncation_order >= 0 and p > truncation_order:
            break
        head = fsub(p + m)
        if head.is_zero():
            if truncation_order < 0:
                break
            n += 1
            continue
        term = scalar(Fraction(1, math.factorial(p))) * head
        for _ in range(p):
            term = term * f11
        for _ in range(n if y is not None else 0):
            term = term * y
        out = out + term
        n += 1
    return out


def _poly_spec(degree):
    # a zero coefficient at k = 2, signs and denominators vary
    coeffs = [Fraction(k - 2, k % 3 + 1) for k in range(degree)]
    return "poly:" + ",".join(map(str, coeffs + [Fraction(-degree, 3)]))


def _same_terms_in_order(got, want):
    # equal values in the same insertion order: the artifacts and the
    # divergence solver's candidates follow the dict order
    return list(got.terms.items()) == list(want.terms.items())


def _generic_pair_jets():
    return sorted({g.jet for e in (False, True)
                   for g in lagrangian(eliminate=e).generators()
                   if g.kind == "fn" and g.base.endswith("pair")})


@pytest.mark.parametrize("stage", ["x", "y"])
@pytest.mark.parametrize("spec", [_poly_spec(d) for d in range(2, 9)]
                         + ["cos", "sin"])
def test_pair_images_match_the_product_form(spec, stage):
    jets = _generic_pair_jets()
    assert jets == [(1, 0), (1, 1), (2, 0), (2, 1)]
    V = parse_potential(spec)
    # a terminating tower expands to the end; the trig towers to the
    # orders that check-potential compares
    orders = [-1] if V.kind == "poly" else [0, 3, 6]
    for k in range(11):
        assert _same_terms_in_order(V.derivative(k, stage),
                                    _product_derivative(V, k, stage)), k
    for m, slot in jets:
        for order in orders:
            got = pair_series(m, slot, stage, order,
                              fsub=lambda k: V.derivative(k, stage))
            want = _three_product_pair_series(
                m, slot, stage, order,
                fsub=lambda k: _product_derivative(V, k, stage))
            assert _same_terms_in_order(got, want), (m, slot, order)
        if V.kind == "poly":
            img = V.image(pairjet(m, slot, stage))
            assert _same_terms_in_order(img, want), (m, slot)


def test_abstract_pair_series_matches_the_product_form():
    for m, slot in _generic_pair_jets():
        for sp in ("x", "y"):
            got = pair_series(m, slot, sp, 5)
            want = _three_product_pair_series(m, slot, sp, 5,
                                              fsub=lambda k: gexp(fjet(k)))
            assert _same_terms_in_order(got, want), (m, slot, sp)


def _reference_pair_series(m, slot, sp, truncation_order, fsub=None):
    """The fold pair_series replaced: a new expression per order,
    out + head * (y**n phi11**p / p!)."""
    if fsub is None:
        fsub = lambda k: gexp(fjet(k))
    f11 = field("phi11", 0, 0, sp)
    y = coord("y") if sp == "y" else None
    out = GradedExpr.zero()
    n = 0
    while True:
        p = 2 * n + slot
        if truncation_order >= 0 and p > truncation_order:
            break
        head = fsub(p + m)
        if head.is_zero():
            if truncation_order < 0:
                break
            n += 1
            continue
        mono = ((y, n),) if y is not None and n else ()
        if p:
            mono += ((f11, p),)
        out = out + head * GradedExpr(
            {mono: GaussianRational(Fraction(1, math.factorial(p)))})
        n += 1
    return out


_small_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=7)
_series_specs = st.one_of(
    st.lists(_small_fractions, min_size=1, max_size=9).map(
        lambda cs: "poly:" + ",".join(map(str, cs))),
    st.sampled_from(["cos", "sin", "abstract"]))


@given(_series_specs, st.sampled_from(["x", "y"]), st.integers(0, 3),
       st.integers(0, 1), st.integers(-1, 6), st.booleans())
@settings(max_examples=200, deadline=None)
def test_pair_series_matches_the_fold(spec, stage, m, slot, order, odd):
    V = parse_potential(spec)
    # only a polynomial tower terminates, so only it expands to the end
    assume(order >= 0 or V.kind == "poly")
    fsub = None if V.kind == "abstract" else (
        lambda k: V.derivative(k, stage))
    if odd:
        # a (1,0) factor in each head: an odd power of the (1,1) field
        # then crosses it with a sign
        psi, tower = gexp(field("psi10", 0, 0, stage)), fsub
        fsub = lambda k: psi * (tower(k) if tower else gexp(fjet(k)))
    got = pair_series(m, slot, stage, order, fsub=fsub)
    want = _reference_pair_series(m, slot, stage, order, fsub=fsub)
    assert _same_terms_in_order(got, want)


# ----------------------------------------------------------------------
# the per-instance image memo
# ----------------------------------------------------------------------

def test_coefficients_cannot_change_under_the_memo():
    V = parse_potential("poly:0,0,1/2,0,0")
    assert V.coeffs == (0, 0, Fraction(1, 2))
    with pytest.raises(AttributeError):
        V.coeffs.append(Fraction(1))


def test_each_instance_keeps_its_own_pair_images():
    spec = "poly:1,0,-1/2,0,1/24"
    first, second = parse_potential(spec), parse_potential(spec)
    lag = lagrangian(first, eliminate=True)
    assert first._images and not second._images
    assert lagrangian(second, eliminate=True) == lag
    assert first._images.keys() == second._images.keys()
    assert all(first._images[g] is not second._images[g]
               for g in first._images)


def test_each_instance_memoises_its_own_heads():
    spec = "poly:1,0,-1/2,0,1/24"
    first, second = parse_potential(spec), parse_potential(spec)
    head = first.derivative(2, "y")
    assert first.derivative(2, "y") is head
    assert second.derivative(2, "y") is not head
    assert second.derivative(2, "y") == head
    assert first.derivative(2, "x") != head
    with pytest.raises(ValueError, match="derivative order must be >= 0"):
        first.derivative(-1)


@pytest.mark.parametrize("spec", ["poly:1,-2,3/4,0,5,-1/3,2,1/7,-3/2",
                                  "cos", "sin", "abstract"])
def test_a_request_leaves_the_memoised_heads_as_built(spec):
    # every call a request makes; no caller mutates a shared head
    V = parse_potential(spec)
    lag = lagrangian(V, eliminate=True)
    assert lagrangian_audit(lag)["ok"]
    potential_components(V, stage="x", truncation_order=6)
    series_pair(V, stage="x", truncation_order=6)
    euler_lagrange(lag)
    fresh = parse_potential(spec)
    assert V._heads or V.kind == "abstract"
    for (order, space), head in V._heads.items():
        assert _same_terms_in_order(head, fresh.derivative(order, space))
    for g, img in V._images.items():
        assert _same_terms_in_order(img, fresh.image(g))


def test_a_request_builds_each_pair_image_once(monkeypatch):
    calls = Counter()
    original = potential.pair_series

    def counted(m, slot, sp, truncation_order, fsub=None):
        calls[m, slot, sp, truncation_order] += 1
        return original(m, slot, sp, truncation_order, fsub)

    monkeypatch.setattr(potential, "pair_series", counted)
    V = parse_potential("poly:0,1,-1/2,1/3,0,2")
    lagrangian(V, eliminate=True)
    pair = potential_components(V, stage="x")
    assert set(calls) == {(m, slot, "x", -1)
                          for m, slot in _generic_pair_jets()}
    assert set(calls.values()) == {1}
    assert pair.v00 == specialize_potential(gexp(pairjet(1, 0, "x")), V)
