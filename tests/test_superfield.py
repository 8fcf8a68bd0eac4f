"""Component expansion, variation tables, closure, audits."""

import importlib

import pytest

from z22field import GradedExpr, coord, field, gexp
from z22field.core import FIELD_BASES
from z22field.superfield import (VAR_NAMES, closure_report,
                                 coordinate_variations, degree_audit,
                                 dimension_audit, reality_check,
                                 split_components, stage_map, superfield,
                                 variation_derivation, variation_table)
from z22field.cli import main
from z22field.derivations import STRUCTURE, total_t, total_space
from z22field import reference


def test_superfield_has_eight_components():
    comps = split_components(superfield("y"))
    assert set(comps) == set(FIELD_BASES)
    for base, e in comps.items():
        assert e == gexp(field(base, 0, 0, "y"))


def test_superfield_is_star_real():
    assert reality_check()


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


@pytest.mark.parametrize("stage", ["y", "x"])
def test_a_flipped_bracket_fails_only_its_pair(monkeypatch, stage):
    monkeypatch.setitem(STRUCTURE, ("Q10", "Q01"),
                        [(-c, r) for c, r in STRUCTURE[("Q10", "Q01")]])
    failed = [r["pair"] for r in closure_report(stage)
              if r["status"] != "ok"]
    assert failed == ["(Q10,Q01)"]


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
