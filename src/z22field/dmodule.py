"""Matrix differential-operator realization of the five symmetries.

The component fields are stacked into an eight-vector and each variation
is rewritten as delta(F) = -i eps (M F), with M an 8x8 matrix whose
entries are polynomial-coefficient differential operators in t and x.
The matrices extracted this way are compared entry-by-entry with the
hand-checked displays, and their graded brackets are checked against the
structure constants of the superspace algebra.  Operator words are
merged by `expr._add_terms`, the merge rule of every expression.

The printed and the table-extracted matrix sets, and the extracted set
closed by orientation with its bracket relations, are memoised with
functools.cache and shared, so no caller mutates them.
"""

from functools import cache
from math import comb, factorial
from typing import Dict, List, Optional, Tuple

from .core import GaussianRational, Degree, coord, field, param, parity
from .expr import GradedExpr, _add_terms, gexp, scalar
from .derivations import OP_DEGREE, bracket_value
from .superfield import PARAM_OF, VAR_NAMES, variation_table
from .reference import MULTIPLET, matrix_realization_data

Word = Tuple[int, int, int, int]  # t-power, x-power, dt-power, dx-power


# ----------------------------------------------------------------------
# scalar differential operators
# ----------------------------------------------------------------------

class WeylOp:
    """Operator sum c * t^a x^b dt^c dx^d in normal order."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Dict[Word, GaussianRational]] = None):
        self.terms = terms if terms is not None else {}

    @staticmethod
    def from_list(items) -> "WeylOp":
        return WeylOp(_add_terms({}, ((w, c) for c, w in items)))

    def __add__(self, other: "WeylOp") -> "WeylOp":
        return WeylOp(_add_terms(dict(self.terms), other.terms.items()))

    def __neg__(self) -> "WeylOp":
        return WeylOp({w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "WeylOp") -> "WeylOp":
        return self + (-other)

    def scale(self, c) -> "WeylOp":
        c = GaussianRational.coerce(c)
        if not c:
            return WeylOp()
        return WeylOp({w: v * c for w, v in self.terms.items()})

    def __mul__(self, other: "WeylOp") -> "WeylOp":
        """Composition; derivatives pass coordinates by the Leibniz rule."""
        out: Dict[Word, GaussianRational] = {}
        for (a1, b1, c1, d1), u in self.terms.items():
            for (a2, b2, c2, d2), v in other.terms.items():
                uv = u * v
                for k in range(min(c1, a2) + 1):
                    ck = comb(c1, k) * comb(a2, k) * factorial(k)
                    for l in range(min(d1, b2) + 1):
                        cl = comb(d1, l) * comb(b2, l) * factorial(l)
                        w = (a1 + a2 - k, b1 + b2 - l,
                             c1 + c2 - k, d1 + d2 - l)
                        _add_terms(out, ((w, uv * GaussianRational(ck * cl)),))
        return WeylOp(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, WeylOp) and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def apply(self, base: str) -> GradedExpr:
        """Act on the undifferentiated field of the given base."""
        out = GradedExpr.zero()
        t, x = coord("t"), coord("x")
        for (a, b, c, d), v in self.terms.items():
            e = scalar(v)
            if a:
                e = e * gexp(t, a)
            if b:
                e = e * gexp(x, b)
            out = out + e * gexp(field(base, c, d, "x"))
        return out


# ----------------------------------------------------------------------
# matrices over the multiplet
# ----------------------------------------------------------------------

class MatrixOp:
    """Sparse 8x8 matrix of Weyl operators with a grading degree."""

    __slots__ = ("entries", "degree")

    def __init__(self, entries: Optional[Dict[Tuple[int, int], WeylOp]] = None,
                 degree: Degree = Degree(0, 0)):
        self.entries = {k: v for k, v in (entries or {}).items() if v}
        self.degree = degree

    def __add__(self, other: "MatrixOp") -> "MatrixOp":
        out = dict(self.entries)
        for k, v in other.entries.items():
            w = out.get(k)
            out[k] = v if w is None else w + v
        return MatrixOp(out, self.degree)

    def __neg__(self) -> "MatrixOp":
        return MatrixOp({k: -v for k, v in self.entries.items()}, self.degree)

    def __sub__(self, other: "MatrixOp") -> "MatrixOp":
        return self + (-other)

    def scale(self, c) -> "MatrixOp":
        return MatrixOp({k: v.scale(c) for k, v in self.entries.items()},
                        self.degree)

    def __matmul__(self, other: "MatrixOp") -> "MatrixOp":
        out: Dict[Tuple[int, int], WeylOp] = {}
        for (r, k), w in self.entries.items():
            for (k2, c), v in other.entries.items():
                if k != k2:
                    continue
                prod = w * v
                if not prod:
                    continue
                cur = out.get((r, c))
                out[(r, c)] = prod if cur is None else cur + prod
        return MatrixOp(out, self.degree + other.degree)

    def bracket(self, other: "MatrixOp") -> "MatrixOp":
        """Graded bracket: anticommutator when the degrees clash."""
        ab = self @ other
        ba = other @ self
        if parity(self.degree, other.degree) & 1:
            return ab + ba
        return ab - ba

    def __eq__(self, other) -> bool:
        return isinstance(other, MatrixOp) and self.entries == other.entries

    def is_zero(self) -> bool:
        return not self.entries


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------

_INDEX = {b: k for k, b in enumerate(MULTIPLET)}


@cache
def printed_matrices() -> Dict[str, MatrixOp]:
    """The displayed matrices, straight from the frozen entry data."""
    out = {}
    for name, data in matrix_realization_data().items():
        entries = {rc: WeylOp.from_list(items) for rc, items in data.items()}
        out[name] = MatrixOp(entries, OP_DEGREE[name])
    return out


@cache
def matrices_from_tables() -> Dict[str, MatrixOp]:
    """Extract each matrix from its variation table.

    Each stripped entry is i times the matrix row: every monomial must be
    coefficient * t^a x^b * (single field jet), which lands as the word
    (a, b, m, n) in the column of that field.
    """
    t, x = coord("t"), coord("x")
    out: Dict[str, MatrixOp] = {}
    for name in VAR_NAMES:
        eps = param(PARAM_OF[name])
        table = variation_table(name, "x")
        entries: Dict[Tuple[int, int], Dict[Word, GaussianRational]] = {}
        for base, entry in table.items():
            row = _INDEX[base]
            stripped = scalar(GaussianRational(0, 1)) * entry.strip_left(eps)
            for mono, c in stripped.terms.items():
                a = b = 0
                jet = None
                for g, e in mono:
                    if g is t:
                        a = e
                    elif g is x:
                        b = e
                    elif g.kind == "field" and g.space == "x":
                        if jet is not None:
                            raise ValueError(f"{name}/{base}: not linear")
                        jet = g
                    else:
                        raise ValueError(f"{name}/{base}: unexpected {g.name}")
                if jet is None:
                    raise ValueError(f"{name}/{base}: no field factor")
                word = (a, b, jet.jet[0], jet.jet[1])
                col = _INDEX[jet.base]
                _add_terms(entries.setdefault((row, col), {}), ((word, c),))
        out[name] = MatrixOp({rc: WeylOp(cell) for rc, cell in entries.items()},
                             OP_DEGREE[name])
    return out


def reconstruct_table(name: str, mats: Dict[str, MatrixOp]
                      ) -> Dict[str, GradedExpr]:
    """Rebuild the variation table as -i eps (M F) from a matrix."""
    m = mats[name]
    eps = gexp(param(PARAM_OF[name]))
    minus_i = scalar(GaussianRational(0, -1))
    out: Dict[str, GradedExpr] = {}
    for row, base in enumerate(MULTIPLET):
        acc = GradedExpr.zero()
        for (r, c), w in m.entries.items():
            if r == row:
                acc = acc + w.apply(MULTIPLET[c])
        out[base] = minus_i * eps * acc
    return out


# ----------------------------------------------------------------------
# verification
# ----------------------------------------------------------------------

def matrix_comparison_report() -> Dict[str, dict]:
    """Extracted matrices against the displays, entry-by-entry."""
    printed = printed_matrices()
    derived = matrices_from_tables()
    out: Dict[str, dict] = {}
    for name, pm in printed.items():
        dm = derived[name]
        diff = pm - dm
        entry = {"matches_printed": diff.is_zero()}
        if not diff.is_zero():
            entry["mismatch_cells"] = sorted(diff.entries.keys())
            entry["sign_flip"] = (pm + dm).is_zero()
        out[name] = entry
    return out


def verify_matrix_relations(mats: Dict[str, MatrixOp]
                            ) -> Dict[Tuple[str, str], bool]:
    """Close every ordered pair against the structure constants."""
    out: Dict[Tuple[str, str], bool] = {}
    for i, a in enumerate(VAR_NAMES):
        for b in VAR_NAMES[i:]:
            lhs = mats[a].bracket(mats[b])
            rhs = MatrixOp({}, lhs.degree)
            for c, target in bracket_value(a, b):
                rhs = rhs + mats[target].scale(c)
            out[(a, b)] = (lhs - rhs).is_zero()
    return out


def canonical_matrices() -> Tuple[Dict[str, MatrixOp], List[str]]:
    """Table-extracted matrices with orientations pinned by closure.

    Extraction from a variation table fixes each matrix only up to the
    sign convention pairing it with its parameter; the graded bracket
    relations remove the ambiguity.  Returns the closed set and the
    names whose extracted orientation had to flip.
    """
    mats, flips, _, _ = _closed_orientations()
    return dict(mats), list(flips)


@cache
def _closed_orientations():
    """canonical_matrices, plus the relations of the extracted set and of
    the closed one: the closed set is the last trial, so each set is
    closed once."""
    mats = matrices_from_tables()
    first = rel = verify_matrix_relations(mats)
    flips: List[str] = []
    bad = sum(not ok for ok in rel.values())
    if bad:
        for name in sorted(mats):
            trial = dict(mats)
            trial[name] = mats[name].scale(GaussianRational(-1))
            trial_rel = verify_matrix_relations(trial)
            worse = sum(not ok for ok in trial_rel.values())
            if worse < bad:
                mats, bad, rel = trial, worse, trial_rel
                flips.append(name)
            if not bad:
                break
    if bad:
        raise ValueError("no orientation choice closes the brackets")
    return mats, tuple(flips), first, rel


def dmodule_report() -> dict:
    """Full D-module check: displays, tables, and bracket closure."""
    printed = printed_matrices()
    derived = matrices_from_tables()
    canonical, flips = canonical_matrices()
    _, _, rel_derived, rel_canonical = _closed_orientations()
    table_ok = all(
        reconstruct_table(name, derived) == variation_table(name, "x")
        for name in printed
    )
    canon_match = all((printed[n] - canonical[n]).is_zero() for n in printed)
    return {
        "comparison": matrix_comparison_report(),
        "relations_derived": dict(rel_derived),
        "relations_printed": verify_matrix_relations(printed),
        "relations_canonical": dict(rel_canonical),
        "orientation_flips": flips,
        "canonical_matches_printed": canon_match,
        "tables_reconstructed": table_ok,
    }
