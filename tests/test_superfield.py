"""Component expansion, variation tables, closure, audits."""

import importlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from z22field import GradedExpr, coord, field, gexp, param, scalar
from z22field.action import berezin_layer
from z22field.core import FIELD_BASES, QI
from z22field.superfield import (VAR_NAMES, closure_report,
                                 coordinate_variations, degree_audit,
                                 dimension_audit, reality_check,
                                 split_components, stage_map, superfield,
                                 theta_theta_layers, variation_derivation,
                                 variation_table)
from z22field.cli import main
from z22field.derivations import (STRUCTURE, total_t, total_space,
                                  verify_structure_constants)
from z22field.dmodule import printed_matrices, verify_matrix_relations
from z22field import reference


def test_superfield_has_eight_components():
    comps = split_components(superfield("y"))
    assert set(comps) == set(FIELD_BASES)
    for base, e in comps.items():
        assert e == gexp(field(base, 0, 0, "y"))


def test_superfield_is_star_real():
    assert reality_check()


# theta- and z-free generators of both parities, jets and parameters
_SLOT_POOL = [coord("t"), coord("y"), param("alpha"), param("eps10"),
              param("eps11"), *(field(b, 0, 0, "y") for b in FIELD_BASES),
              field("phi11", 1, 0, "y"), field("psi01", 0, 1, "y")]
_coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=3)


@st.composite
def _slots(draw):
    total = GradedExpr.zero()
    for _ in range(draw(st.integers(0, 3))):
        term = scalar(draw(_coeffs)) + scalar(QI) * scalar(draw(_coeffs))
        for g in draw(st.lists(st.sampled_from(_SLOT_POOL), max_size=3)):
            term = term * gexp(g)
        total = total + term
    return total


@given(st.fixed_dictionaries({b: _slots() for b in FIELD_BASES}))
@settings(max_examples=60, deadline=None)
def test_split_components_reads_back_every_packed_slot(slots):
    # the superfield's shape with arbitrary slots in place of the fields
    z, th10, th01 = (gexp(coord(n)) for n in ("z", "th10", "th01"))
    i = scalar(QI)
    packed = (slots["phi00"] + z * slots["phi11"]
              + th10 * (i * slots["psi10"] + z * slots["lam01"])
              + th01 * (i * slots["psi01"] + z * slots["lam10"])
              + th10 * th01 * (slots["A11"] + z * slots["A00"]))
    assert split_components(packed) == slots
    assert theta_theta_layers(packed) == (slots["A11"], slots["A00"])
    assert berezin_layer(packed) == scalar(Fraction(1, 2)) * slots["A00"]


# ----------------------------------------------------------------------
# the sixteen variation tables against the hand-checked entries
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", VAR_NAMES)
def test_first_stage_table(name):
    want = reference.pre_variation_tables()[name]
    got = variation_table(name, "y")
    for base in FIELD_BASES:
        assert got[base] == want[base], f"{name}: {base}"


@pytest.mark.parametrize("name", VAR_NAMES)
def test_second_stage_table(name):
    want = reference.post_variation_tables()[name]
    got = variation_table(name, "x")
    for base in FIELD_BASES:
        assert got[base] == want[base], f"{name}: {base}"


@pytest.mark.parametrize("name", VAR_NAMES)
def test_coordinate_variations(name):
    want = reference.coordinate_variation_tables()[name]
    got = coordinate_variations(name)
    for cn, entry in want.items():
        assert got[cn] == entry, f"{name}: {cn}"


@pytest.mark.parametrize("stage", ["y", "x"])
def test_variation_table_is_one_memoised_stage(stage):
    for name in VAR_NAMES:
        assert variation_table(name, stage) is variation_table(name, stage)


def test_variation_table_rejects_an_unknown_stage():
    with pytest.raises(ValueError, match="unknown stage"):
        variation_table("H", "z")


def test_table_entry_count():
    total = sum(len(variation_table(n, s))
                for n in VAR_NAMES for s in ("y", "x"))
    assert total == 80


# ----------------------------------------------------------------------
# closure and audits
# ----------------------------------------------------------------------

@pytest.mark.parametrize("stage", ["y", "x"])
def test_variations_close_into_the_algebra(stage):
    for r in closure_report(stage):
        assert r["status"] == "ok", f"{r['pair']}@{stage}: {r['residuals']}"


def test_closure_fails_when_the_parameter_copies_coincide(monkeypatch):
    # one parameter for both variations truncates every two-parameter
    # product to zero, so both sides vanish; a nonzero bracket must act
    superfield_module = importlib.import_module("z22field.superfield")
    monkeypatch.setattr(superfield_module, "_primed", lambda name: name)
    acting = {f"({a},{b})" for i, a in enumerate(VAR_NAMES)
              for b in VAR_NAMES[i:] if STRUCTURE[(a, b)]}
    for stage in ("y", "x"):
        failed = {r["pair"]: r["residuals"] for r in closure_report(stage)
                  if r["status"] != "ok"}
        assert set(failed) == acting, stage
        assert all("commutator" in res for res in failed.values())
    assert main(["verify-algebra", "--format", "json"]) == 1


# one bracket check per realisation of the algebra: the operators, the
# variations at stage y or x, and the displayed matrices
@pytest.mark.parametrize("check", ["operators", "y", "x", "matrices"])
def test_a_flipped_bracket_fails_only_its_pair(monkeypatch, check):
    monkeypatch.setitem(STRUCTURE, ("Q10", "Q01"),
                        [(-c, r) for c, r in STRUCTURE[("Q10", "Q01")]])
    if check == "operators":
        failed = [r["relation"].split(" = ")[0]
                  for r in verify_structure_constants()
                  if r["status"] != "ok"]
        assert failed == ["[Q10,Q01]"]
    elif check == "matrices":
        rel = verify_matrix_relations(printed_matrices())
        assert [pair for pair, ok in rel.items() if not ok] == [
            ("Q10", "Q01")]
    else:
        failed = [r["pair"] for r in closure_report(check)
                  if r["status"] != "ok"]
        assert failed == ["(Q10,Q01)"]
    command = "verify-dmodule" if check == "matrices" else "verify-algebra"
    assert main([command, "--format", "json"]) == 1


@pytest.mark.parametrize("stage", ["y", "x"])
def test_degree_and_dimension_audits(stage):
    assert degree_audit(stage) == []
    assert dimension_audit(stage) == []


def test_variation_entries_star_real():
    for name in VAR_NAMES:
        for stage in ("y", "x"):
            for base, e in variation_table(name, stage).items():
                assert e.star() == e, f"{name}:{stage}:{base}"


# ----------------------------------------------------------------------
# prolongation
# ----------------------------------------------------------------------

def test_variation_commutes_with_total_derivatives():
    dt, dx = total_t("x"), total_space("x")
    for name in VAR_NAMES:
        d = variation_derivation(name, "x")
        for probe in (gexp(field("phi00", 0, 0, "x")),
                      gexp(field("psi10", 0, 1, "x")),
                      gexp(field("A11", 0, 0, "x"))):
            assert d(dt(probe)) == dt(d(probe)), name
            assert d(dx(probe)) == dx(d(probe)), name


def test_stage_map_consistency_on_jets():
    # the two stages are linked by t = 2t', y = x^2; check that mapping
    # commutes with one time derivative up to the induced factor of 2
    e = gexp(field("phi00", 1, 0, "y"))
    mapped = stage_map(e)
    direct = total_t("x")(stage_map(gexp(field("phi00", 0, 0, "y"))))
    assert direct == mapped + mapped  # dt = 2 dt'


def test_package_does_not_shadow_the_superfield_module():
    import types
    import z22field.superfield as m
    assert isinstance(m, types.ModuleType)
    assert m.superfield is superfield
