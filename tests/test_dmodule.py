"""Matrix realization: row composition, bracket closure, displays."""

import itertools
import json

import pytest

from z22field import GradedExpr, coord, field, gexp, param, scalar
from z22field import dmodule
from z22field.cli import main
from z22field.derivations import OP_DEGREE, total_space, total_t
from z22field.dmodule import (canonical_matrices, dmodule_report,
                              matrices_from_tables, matrix_comparison_report,
                              printed_matrices, reconstruct_table,
                              verify_matrix_relations)
from z22field.superfield import prolonged_derivation, variation_table
from z22field.reference import MULTIPLET


# ----------------------------------------------------------------------
# operator words as rows: composition against a jet-space oracle
# ----------------------------------------------------------------------

def _act(word, e: GradedExpr) -> GradedExpr:
    """Independent evaluator: t^a x^b dt^c dx^d acts through total
    derivatives."""
    a, b, c, d = word
    cur = e
    for _ in range(c):
        cur = total_t("x")(cur)
    for _ in range(d):
        cur = total_space("x")(cur)
    return gexp(coord("t"), a) * gexp(coord("x"), b) * cur


def _row(word) -> dict:
    """The one-cell matrix of a word on phi00, as its rows M F."""
    a, b, c, d = word
    return {"phi00": gexp(coord("t"), a) * gexp(coord("x"), b)
            * gexp(field("phi00", c, d, "x"))}


def _compose(ma: dict, mb: dict) -> dict:
    """(M_a M_b F)_r: the prolonged rows of M_b applied to row r of M_a."""
    pb = prolonged_derivation(mb, "x")
    return {r: pb(row) for r, row in ma.items()}


_PROBE = (gexp(coord("t")) * gexp(coord("x"))
          * gexp(field("phi00", 1, 0, "x"))
          + gexp(coord("x")) * gexp(field("phi11", 0, 1, "x")))

_WORDS = [w for w in itertools.product((0, 1), repeat=4)] + [
    (2, 0, 1, 0), (0, 2, 0, 1), (1, 1, 2, 0), (0, 0, 2, 2)]


@pytest.mark.parametrize("w1", _WORDS)
def test_weyl_composition_matches_jet_action(w1):
    for w2 in _WORDS:
        row = _compose(_row(w1), _row(w2))["phi00"]
        lhs = prolonged_derivation({"phi00": _PROBE}, "x")(row)
        assert lhs == _act(w1, _act(w2, _PROBE)), (w1, w2)


def test_weyl_heisenberg_relation():
    f = gexp(field("phi00", 0, 0, "x"))
    # [d, q] F = F for each conjugate pair
    for mul, d in (((1, 0, 0, 0), (0, 0, 1, 0)),
                   ((0, 1, 0, 0), (0, 0, 0, 1))):
        assert (_compose(_row(d), _row(mul))["phi00"]
                - _compose(_row(mul), _row(d))["phi00"]) == f
    # dt passes x
    assert (_compose(_row((0, 0, 1, 0)), _row((0, 1, 0, 0)))
            == _compose(_row((0, 1, 0, 0)), _row((0, 0, 1, 0))))


# ----------------------------------------------------------------------
# matrix layer
# ----------------------------------------------------------------------

def test_printed_matrices_close_all_relations():
    rel = verify_matrix_relations(printed_matrices())
    assert len(rel) == 15
    assert all(rel.values()), {k: v for k, v in rel.items() if not v}


def test_extraction_reproduces_displays_up_to_one_orientation():
    rep = matrix_comparison_report(printed_matrices(), matrices_from_tables())
    for name in ("Z", "Q10", "Q01", "L11"):
        assert rep[name]["matches_printed"], name
    # the time-translation pairing line carries the opposite sign
    # convention; extraction lands on the exact mirror
    assert not rep["H"]["matches_printed"]
    assert rep["H"]["sign_flip"]
    assert rep["H"]["mismatch_cells"] == [(k, k) for k in range(8)]


def test_closure_pins_the_orientation():
    mats, flips, _, _ = canonical_matrices(matrices_from_tables())
    assert flips == ["H"]
    assert all(verify_matrix_relations(mats).values())
    assert mats == printed_matrices()


def test_reconstruction_roundtrip():
    derived = matrices_from_tables()
    for name in derived:
        assert reconstruct_table(name, derived) == variation_table(name, "x")


def test_matrix_entries_respect_the_grading():
    # delta F_r = -i eps (M F)_r, so row r has the degree of F_r plus
    # that of the matrix's parameter
    for mats in (printed_matrices(), matrices_from_tables()):
        for name, rows in mats.items():
            assert tuple(rows) == MULTIPLET, name
            for base, row in rows.items():
                want = field(base).degree + OP_DEGREE[name]
                for mono, c in row.terms.items():
                    assert GradedExpr({mono: c}).degree() == want, (name,
                                                                   base)


def test_the_report_closes_each_matrix_set_once(monkeypatch):
    # the extracted set, the printed set and the closed set, whose
    # closure is the last orientation trial
    want = dmodule_report()
    canonical = canonical_matrices(matrices_from_tables())[0]
    calls = []
    original = dmodule.verify_matrix_relations

    def counted(mats):
        calls.append(mats)
        return original(mats)

    monkeypatch.setattr(dmodule, "verify_matrix_relations", counted)
    assert dmodule_report() == want
    assert len(calls) == 3
    assert canonical in calls and printed_matrices() in calls
    assert matrices_from_tables() in calls


def test_full_dmodule_report():
    rep = dmodule_report()
    assert all(rep["relations_printed"].values())
    assert all(rep["relations_canonical"].values())
    assert rep["canonical_matches_printed"]
    assert rep["tables_reconstructed"]
    assert rep["orientation_flips"] == ["H"]
    # the raw extracted set must fail exactly the four relations that
    # involve the flipped generator nontrivially
    failed = {k for k, ok in rep["relations_derived"].items() if not ok}
    assert failed == {("H", "L11"), ("Z", "L11"),
                      ("Q10", "Q10"), ("Q01", "Q01")}


# the relations that fail when one matrix of a set is negated
_ODD_FLIP = {("H", "L11"), ("Q01", "L11"), ("Q01", "Q01"), ("Q10", "L11"),
             ("Q10", "Q01"), ("Q10", "Q10"), ("Z", "L11")}
_PRINTED_ODD_FLIP = {("Q01", "L11"), ("Q10", "L11"), ("Q10", "Q01")}
_FLIP_FAILS = {
    ("extracted", "H"): set(),
    ("extracted", "Z"): {("Q01", "Q01"), ("Q10", "Q01"), ("Q10", "Q10")},
    ("extracted", "Q10"): _ODD_FLIP,
    ("extracted", "Q01"): _ODD_FLIP,
    ("extracted", "L11"): {("Q01", "L11"), ("Q01", "Q01"), ("Q10", "L11"),
                           ("Q10", "Q10")},
    ("printed", "H"): {("H", "L11"), ("Q01", "Q01"), ("Q10", "Q10"),
                       ("Z", "L11")},
    ("printed", "Z"): {("H", "L11"), ("Q10", "Q01"), ("Z", "L11")},
    ("printed", "Q10"): _PRINTED_ODD_FLIP,
    ("printed", "Q01"): _PRINTED_ODD_FLIP,
    ("printed", "L11"): {("H", "L11"), ("Q01", "L11"), ("Q10", "L11"),
                         ("Z", "L11")},
}


@pytest.mark.parametrize("which,name", sorted(_FLIP_FAILS))
def test_negating_one_matrix_fails_exactly_its_relations(which, name):
    mats = dict({"extracted": matrices_from_tables,
                 "printed": printed_matrices}[which]())
    mats[name] = {b: -row for b, row in mats[name].items()}
    rel = verify_matrix_relations(mats)
    assert {k for k, ok in rel.items() if not ok} == _FLIP_FAILS[which, name]


# ----------------------------------------------------------------------
# failed checks: exit 1 with a report or an error line
# ----------------------------------------------------------------------

def _patch_table(monkeypatch, name, change):
    real = dmodule.variation_table

    def patched(n, stage):
        table = real(n, stage)
        return change(table) if n == name and stage == "x" else table

    monkeypatch.setattr(dmodule, "variation_table", patched)


def _failed_report(capsys) -> dict:
    assert main(["verify-dmodule", "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    doc = json.loads(captured.out)
    assert doc["ok"] is False
    return doc["report"]


def _resigned(table, base="psi10"):
    """The table in the field basis with F_base -> -F_base."""
    def flip(e):
        return GradedExpr({m: -c if any(g.kind == "field" and g.base == base
                                        for g, _ in m) else c
                           for m, c in e.terms.items()})
    return {b: -flip(e) if b == base else flip(e) for b, e in table.items()}


def test_a_misprinted_display_fails_the_printed_relations(
        monkeypatch, capsys):
    real = printed_matrices()
    data = dict(real)
    # the H row of phi00 printed with twice its coefficient
    data["H"] = {**real["H"], "phi00": scalar(2) * real["H"]["phi00"]}
    monkeypatch.setattr(dmodule, "printed_matrices", lambda: data)
    rep = _failed_report(capsys)
    assert not all(rep["relations_printed"].values())
    assert all(rep["relations_canonical"].values())
    assert rep["tables_reconstructed"]


def test_an_unclosable_table_reports_its_best_orientation(
        monkeypatch, capsys):
    # Q10 scaled by 2: no choice of signs closes the brackets
    _patch_table(monkeypatch, "Q10",
                 lambda t: {b: scalar(2) * e for b, e in t.items()})
    rep = _failed_report(capsys)
    assert all(rep["relations_printed"].values())
    # the relations with Q10 on either side, [Q01, L11} = Q10 among them
    failed = {k for k, ok in rep["relations_canonical"].items() if not ok}
    assert failed == {"Q01,L11", "Q10,L11", "Q10,Q01", "Q10,Q10"}
    assert rep["orientation_flips"] == ["H"]
    assert not rep["canonical_matches_printed"]
    assert rep["tables_reconstructed"]


def test_a_field_sign_convention_fails_only_the_display_match(
        monkeypatch, capsys):
    # psi10 -> -psi10 conjugates every matrix: the brackets still close,
    # but the extracted cells of psi10 differ from the displays
    for name in dmodule.VAR_NAMES:
        _patch_table(monkeypatch, name, _resigned)
    rep = _failed_report(capsys)
    assert all(rep["relations_printed"].values())
    assert all(rep["relations_canonical"].values())
    assert rep["tables_reconstructed"]
    assert not rep["canonical_matches_printed"]


def test_a_reconstruction_sign_slip_fails_the_table_gate(
        monkeypatch, capsys):
    real = dmodule.reconstruct_table
    monkeypatch.setattr(dmodule, "reconstruct_table", lambda name, mats: {
        b: -e for b, e in real(name, mats).items()})
    rep = _failed_report(capsys)
    assert all(rep["relations_printed"].values())
    assert all(rep["relations_canonical"].values())
    assert rep["canonical_matches_printed"]
    assert not rep["tables_reconstructed"]


@pytest.mark.parametrize("other", ["phi11", "phi00"])
def test_a_nonlinear_table_entry_is_a_failed_check(
        other, monkeypatch, capsys):
    # eps11 phi00 phi11, or eps11 phi00^2: one jet, but squared
    phi = lambda b: gexp(field(b, 0, 0, "x"))
    _patch_table(monkeypatch, "Z", lambda t: {
        **t, "phi00": t["phi00"]
        + gexp(param("eps11")) * phi("phi00") * phi(other)})
    assert main(["verify-dmodule", "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: Z/phi00: not linear\n"
    assert json.loads(captured.out) == {"ok": False,
                                        "error": "Z/phi00: not linear"}
