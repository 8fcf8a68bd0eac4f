"""Matrix realization: Weyl composition, bracket closure, displays."""

import itertools

import pytest

from z22field import GradedExpr, coord, field, gexp, scalar
from z22field import dmodule
from z22field.core import GaussianRational
from z22field.derivations import total_space, total_t
from z22field.dmodule import (MatrixOp, WeylOp, canonical_matrices,
                              dmodule_report, matrices_from_tables,
                              matrix_comparison_report, printed_matrices,
                              reconstruct_table, verify_matrix_relations)
from z22field.superfield import variation_table
from z22field.reference import MULTIPLET


# ----------------------------------------------------------------------
# scalar Weyl algebra: composition against a jet-space oracle
# ----------------------------------------------------------------------

def _act(op: WeylOp, e: GradedExpr) -> GradedExpr:
    """Independent evaluator: words act through total derivatives."""
    dt, dx = total_t("x"), total_space("x")
    out = GradedExpr.zero()
    for (a, b, c, d), coef in op.terms.items():
        cur = e
        for _ in range(c):
            cur = dt(cur)
        for _ in range(d):
            cur = dx(cur)
        if a:
            cur = gexp(coord("t"), a) * cur
        if b:
            cur = gexp(coord("x"), b) * cur
        out = out + scalar(coef) * cur
    return out


_PROBE = (gexp(coord("t")) * gexp(coord("x"))
          * gexp(field("phi00", 1, 0, "x"))
          + gexp(coord("x")) * gexp(field("phi11", 0, 1, "x")))

_WORDS = [w for w in itertools.product((0, 1), repeat=4)] + [
    (2, 0, 1, 0), (0, 2, 0, 1), (1, 1, 2, 0), (0, 0, 2, 2)]


@pytest.mark.parametrize("w1", _WORDS)
def test_weyl_composition_matches_jet_action(w1):
    one = GaussianRational(1)
    op1 = WeylOp({w1: one})
    for w2 in _WORDS:
        op2 = WeylOp({w2: one})
        lhs = _act(op1 * op2, _PROBE)
        rhs = _act(op1, _act(op2, _PROBE))
        assert lhs == rhs, (w1, w2)


def test_weyl_heisenberg_relation():
    one = GaussianRational(1)
    t_mul = WeylOp({(1, 0, 0, 0): one})
    d_t = WeylOp({(0, 0, 1, 0): one})
    ident = WeylOp({(0, 0, 0, 0): one})
    assert d_t * t_mul - t_mul * d_t == ident
    x_mul = WeylOp({(0, 1, 0, 0): one})
    d_x = WeylOp({(0, 0, 0, 1): one})
    assert d_x * x_mul - x_mul * d_x == ident
    assert d_t * x_mul - x_mul * d_t == WeylOp({})


# ----------------------------------------------------------------------
# matrix layer
# ----------------------------------------------------------------------

def test_printed_matrices_close_all_relations():
    rel = verify_matrix_relations(printed_matrices())
    assert len(rel) == 15
    assert all(rel.values()), {k: v for k, v in rel.items() if not v}


def test_extraction_reproduces_displays_up_to_one_orientation():
    rep = matrix_comparison_report()
    for name in ("Z", "Q10", "Q01", "L11"):
        assert rep[name]["matches_printed"], name
    # the time-translation pairing line carries the opposite sign
    # convention; extraction lands on the exact mirror
    assert not rep["H"]["matches_printed"]
    assert rep["H"]["sign_flip"]


def test_closure_pins_the_orientation():
    mats, flips = canonical_matrices()
    assert flips == ["H"]
    assert all(verify_matrix_relations(mats).values())
    printed = printed_matrices()
    for name in printed:
        assert (printed[name] - mats[name]).is_zero(), name


def test_reconstruction_roundtrip():
    derived = matrices_from_tables()
    for name in derived:
        assert reconstruct_table(name, derived) == variation_table(name, "x")


def test_matrix_entries_respect_the_grading():
    mats = printed_matrices()
    for name, m in mats.items():
        for (r, c), op in m.entries.items():
            assert op, (name, r, c)
            assert 0 <= r < len(MULTIPLET) and 0 <= c < len(MULTIPLET)


def test_the_report_closes_each_matrix_set_once(monkeypatch):
    # the extracted set, the printed set and the closed set, whose
    # closure is the last orientation trial
    want = dmodule_report()
    calls = []
    original = dmodule.verify_matrix_relations

    def counted(mats):
        calls.append(mats)
        return original(mats)

    monkeypatch.setattr(dmodule, "verify_matrix_relations", counted)
    dmodule._closed_orientations.cache_clear()
    assert dmodule_report() == want
    assert len(calls) == 3
    canonical, _ = canonical_matrices()
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
