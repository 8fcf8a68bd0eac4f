"""Matrix differential-operator realization of the five symmetries.

The component fields are stacked into an eight-vector F and each
variation is rewritten as delta(F) = -i eps (M F), with M an 8x8 matrix
whose entries are polynomial-coefficient differential operators in t and
x.  A matrix is stored as its rows M F: one x-stage expression per base
of the multiplet, zero rows kept, in which the word t^a x^b dt^c dx^d of
column k is the monomial t^a x^b F_k^(c,d).  Matrices compose through the
ring's total derivatives: (M_a M_b F)_r is row r of M_a F with each jet
of F_k replaced by the same jet of (M_b F)_k, which is what
`prolonged_derivation` of the rows of M_b does.  The matrices extracted
from the variation tables are compared row by row with the displayed
ones, text rows in `reference` read by `printed_matrices`, and their
graded brackets are checked against the structure constants of the
superspace algebra by `derivations.bracket_residuals`, the one bracket
check of the superspace operators and of the variations too.

The module keeps no memo: `dmodule_report` builds the printed and the
extracted sets once and passes them to each check, so it closes each of
its three sets once.
"""

from typing import Dict, List, Tuple

from .core import GaussianRational, Generator, coord, field, param
from .expr import GradedExpr, gexp, parse, scalar
from .derivations import bracket_residuals, bracket_sign, bracket_value
from .superfield import (PARAM_OF, VAR_NAMES, VAR_PAIRS,
                         prolonged_derivation, variation_table)
from .reference import MULTIPLET, printed_matrices

Rows = Dict[str, GradedExpr]  # base of F -> (M F) at that base
Relations = Dict[Tuple[str, str], bool]  # ordered pair -> bracket closes

_INDEX = {b: k for k, b in enumerate(MULTIPLET)}


def _jet(mono: tuple, where: str) -> Generator:
    """The one field jet of a monomial coeff * t^a x^b * F_k^(c,d)."""
    t, x = coord("t"), coord("x")
    jet = None
    for g, e in mono:
        if g is t or g is x:
            continue
        if g.kind != "field" or g.space != "x":
            raise AssertionError(f"{where}: unexpected {g.name}")
        if jet is not None or e != 1:
            raise AssertionError(f"{where}: not linear")
        jet = g
    if jet is None:
        raise AssertionError(f"{where}: no field factor")
    return jet


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------

def matrices_from_tables() -> Dict[str, Rows]:
    """Extract each matrix from its variation table.

    Each stripped entry is i times the matrix row: every monomial must be
    coefficient * t^a x^b * (single x-stage field jet).
    """
    i = scalar(GaussianRational(0, 1))
    out: Dict[str, Rows] = {}
    for name in VAR_NAMES:
        eps = param(PARAM_OF[name])
        table = variation_table(name, "x")
        out[name] = rows = {b: i * table[b].strip_left(eps) for b in MULTIPLET}
        for base, row in rows.items():
            for mono in row.terms:
                _jet(mono, f"{name}/{base}")
    return out


def reconstruct_table(name: str, mats: Dict[str, Rows]) -> Rows:
    """Rebuild the variation table as -i eps (M F) from a matrix."""
    minus_i_eps = parse(f"-i*{PARAM_OF[name]}", "x")
    return {b: minus_i_eps * row for b, row in mats[name].items()}


# ----------------------------------------------------------------------
# verification
# ----------------------------------------------------------------------

def matrix_comparison_report(printed: Dict[str, Rows],
                             derived: Dict[str, Rows]) -> Dict[str, dict]:
    """Extracted matrices against the displays, cell by cell."""
    out: Dict[str, dict] = {}
    for name, pm in printed.items():
        dm = derived[name]
        cells = sorted({(_INDEX[b], _INDEX[_jet(mono, name).base])
                        for b in MULTIPLET
                        for mono in (pm[b] - dm[b]).terms})
        entry = {"matches_printed": not cells}
        if cells:
            entry["mismatch_cells"] = cells
            entry["sign_flip"] = all((pm[b] + dm[b]).is_zero()
                                     for b in MULTIPLET)
        out[name] = entry
    return out


def verify_matrix_relations(mats: Dict[str, Rows]) -> Relations:
    """Close every ordered pair against the structure constants.

    The derivation of M_a sends F_r to (M_a F)_r, so the derivation of
    M_b after it gives (M_a M_b F)_r: the relation of [M_a, M_b} is
    checked as (b, a), on the fields of the multiplet.
    """
    ops = {n: prolonged_derivation(mats[n], "x", f"M_{n}") for n in VAR_NAMES}
    residuals = bracket_residuals(
        ops, {b: gexp(field(b, 0, 0, "x")) for b in MULTIPLET},
        [(b, a, bracket_sign(a, b), bracket_value(a, b))
         for a, b in VAR_PAIRS])
    return {pair: not res for pair, res in zip(VAR_PAIRS, residuals)}


def canonical_matrices(mats: Dict[str, Rows]) -> Tuple[
        Dict[str, Rows], List[str], Relations, Relations]:
    """Orientations of a matrix set pinned by closure.

    Extraction from a variation table fixes each matrix only up to the
    sign convention pairing it with its parameter; the graded bracket
    relations remove the ambiguity.  Returns the best set found, the
    names whose orientation had to flip, and the relations of `mats` and
    of the best set (the last accepted trial, so each set is closed once);
    when no choice closes, the latter name the pairs that stay open.
    """
    first = rel = verify_matrix_relations(mats)
    flips: List[str] = []
    bad = sum(not ok for ok in rel.values())
    if bad:
        for name in sorted(mats):
            trial = {**mats, name: {b: -row for b, row in mats[name].items()}}
            trial_rel = verify_matrix_relations(trial)
            worse = sum(not ok for ok in trial_rel.values())
            if worse < bad:
                mats, bad, rel = trial, worse, trial_rel
                flips.append(name)
            if not bad:
                break
    return mats, flips, first, rel


def dmodule_report() -> dict:
    """Full D-module check: displays, tables, and bracket closure."""
    printed = printed_matrices()
    derived = matrices_from_tables()
    canonical, flips, rel_derived, rel_canonical = canonical_matrices(derived)
    table_ok = all(reconstruct_table(n, derived) == variation_table(n, "x")
                   for n in printed)
    return {
        "comparison": matrix_comparison_report(printed, derived),
        "relations_derived": rel_derived,
        "relations_printed": verify_matrix_relations(printed),
        "relations_canonical": rel_canonical,
        "orientation_flips": flips,
        "canonical_matches_printed": canonical == printed,
        "tables_reconstructed": table_ok,
    }
