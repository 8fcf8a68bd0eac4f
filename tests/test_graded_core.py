"""Ring-level properties: sign rule, canonical form, star, exact scalars."""

import inspect
import os
import re
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from z22field import (DEG00, DEG01, DEG10, DEG11, GaussianRational,
                      GradedExpr, coord, field, gexp, param, parity, scalar)
from z22field.core import QI, QONE, QZERO, Generator
from z22field import reference
from z22field.core import fjet, pairjet, trig
from z22field.derivations import GeneratorDerivation, apply_many
from z22field.expr import (ONE_EXPR, _add_products, _add_terms, _expr_pow,
                           _exp_degree, _mono_dim_ratio, _mono_mask,
                           _mono_mul, _mono_sort_token, _mono_star_sign,
                           parse)

SRC = Path(__file__).resolve().parents[1] / "src"


# ----------------------------------------------------------------------
# exact scalars
# ----------------------------------------------------------------------

fractions = st.fractions(min_value=-40, max_value=40, max_denominator=12)
rationals = st.builds(GaussianRational, fractions, fractions)


@given(rationals, rationals, rationals)
def test_scalar_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(rationals)
def test_scalar_conjugation(a):
    assert a.conj().conj() == a
    norm = a * a.conj()
    assert norm.im == 0
    if a != QZERO:
        assert a / a == QONE
        assert (QONE / a) * a == QONE


def test_imaginary_unit():
    assert QI * QI == GaussianRational(-1)
    assert QI.conj() == -QI


# -- the integer-triple representation against a (Fraction, Fraction)
#    reference

def _ref_str(re, im):
    if im == 0:
        return str(re)
    if re == 0:
        return "i" if im == 1 else "-i" if im == -1 else f"{im}*i"
    mag = abs(im)
    ipart = "i" if mag == 1 else f"{mag}*i"
    return f"({re}{'+' if im > 0 else '-'}{ipart})"


def _ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _ref_pow(x, n):
    out = (Fraction(1), Fraction(0))
    for _ in range(n):
        out = _ref_mul(out, x)
    return out


def _agrees(z, ref):
    re, im = ref
    assert (z.re, z.im) == (re, im)
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert z == GaussianRational(re, im)
    assert hash(z) == (hash(re) if im == 0 else hash((re, im)))
    assert str(z) == _ref_str(re, im)
    assert repr(z) == f"GaussianRational({re!r}, {im!r})"
    assert bool(z) == (re != 0 or im != 0)
    assert z._d > 0 and gcd(z._a, z._b, z._d) == 1


wide = st.fractions(min_value=-300, max_value=300, max_denominator=60)


@given(wide, wide, wide, wide, st.integers(0, 5),
       st.one_of(st.integers(-12, 12), st.integers(-10 ** 30, 10 ** 30)))
def test_scalar_matches_fraction_pair_reference(p, q, r, s, n, k):
    x, y = GaussianRational(p, q), GaussianRational(r, s)
    _agrees(x, (p, q))
    _agrees(x + y, (p + r, q + s))
    _agrees(x - y, (p - r, q - s))
    _agrees(x * y, _ref_mul((p, q), (r, s)))
    # the integer fast path, zero and negative factors included
    _agrees(x * k, (p * k, q * k))
    _agrees(k * x, (k * p, k * q))
    _agrees(-x, (-p, -q))
    _agrees(x.conj(), (p, -q))
    _agrees(x ** n, _ref_pow((p, q), n))
    norm = r * r + s * s
    if norm:
        _agrees(x / y, ((p * r + q * s) / norm, (q * r - p * s) / norm))
    assert (x == y) == ((p, q) == (r, s))


@pytest.mark.parametrize("k", [0, 1, -1, 3, -4, 6, 12, -36, 10 ** 20])
def test_integer_factors_scale_the_triple(k):
    x = GaussianRational(Fraction(3, 4), Fraction(-5, 6))
    assert (x._a, x._b, x._d) == (9, -10, 12)
    ref = GaussianRational(Fraction(3, 4) * k, Fraction(-5, 6) * k)
    for got in (x * k, k * x):
        assert got == ref and (got._a, got._b, got._d) == (ref._a, ref._b,
                                                           ref._d)
        assert type(got._a) is int and type(got._d) is int
        assert got._d > 0 and gcd(got._a, got._b, got._d) == 1


def test_negation_and_conjugation_keep_the_triple_normalised():
    x = GaussianRational(Fraction(3, 4), Fraction(-5, 6))
    assert ((-x)._a, (-x)._b, (-x)._d) == (-9, 10, 12)
    assert (x.conj()._a, x.conj()._b, x.conj()._d) == (9, 10, 12)
    assert -(-x) == x and x.conj().conj() == x
    y = GaussianRational(Fraction(-7, 10))
    assert ((-y)._a, (-y)._b, (-y)._d) == (7, 0, 10)
    assert y.conj() is not y and y.conj() == y


@pytest.mark.parametrize("flag", [True, False])
def test_a_bool_factor_takes_the_coerce_path(flag):
    # bool is a subclass of int, but `type(k) is int` keeps it on the
    # coerce path, which reads it as the Fraction 1 or 0
    x = GaussianRational(Fraction(3, 4), Fraction(-5, 6))
    for got in (x * flag, flag * x):
        assert got == (x if flag else QZERO)
        assert all(type(v) is int for v in (got._a, got._b, got._d))
        assert got._d > 0 and gcd(got._a, got._b, got._d) == 1


def test_scalar_triple_is_normalised():
    a = GaussianRational(Fraction(2, 4), Fraction(1, 2))
    b = GaussianRational(Fraction(1, 2), Fraction(1, 2))
    assert a == b and hash(a) == hash(b)
    assert (a._a, a._b, a._d) == (1, 1, 2)
    half = GaussianRational(Fraction(1, 2))
    assert (half + half)._d == 1 and half + half == 1
    zero = GaussianRational(Fraction(3, 4), Fraction(-5, 6)) * 0
    assert (zero._a, zero._b, zero._d) == (0, 0, 1)
    q = GaussianRational(Fraction(1, 3)) / GaussianRational(-2, 2)
    assert q._d > 0 and gcd(q._a, q._b, q._d) == 1


def test_scalar_interoperates_with_int_and_fraction():
    assert GaussianRational(3) == 3 and 3 == GaussianRational(3)
    assert GaussianRational(Fraction(3, 4)) == Fraction(3, 4)
    assert hash(GaussianRational(3)) == hash(3)
    assert hash(GaussianRational(Fraction(-3, 4))) == hash(Fraction(-3, 4))
    keys = {3: "int", Fraction(1, 2): "frac"}
    assert keys[GaussianRational(3)] == "int"
    assert keys[GaussianRational(Fraction(2, 4))] == "frac"
    assert GaussianRational(0, 1) != 0
    assert GaussianRational(1) != 1.5
    with pytest.raises(ZeroDivisionError):
        QONE / QZERO
    with pytest.raises(ZeroDivisionError):
        GaussianRational(Fraction(1, 2), 3) / 0
    with pytest.raises(AttributeError):
        QONE.re = Fraction(2)
    # the engine never subtracts a scalar from, or divides one into, a
    # plain number, so no reflected - or / is defined
    for left in (1, Fraction(1, 2)):
        with pytest.raises(TypeError):
            left - QONE
        with pytest.raises(TypeError):
            left / QONE


@pytest.mark.parametrize("value", [0.5, 0.0, "2", None])
def test_a_value_that_is_not_exact_is_no_scalar(value):
    # a float or a string is refused, never read as zero
    with pytest.raises(TypeError, match=re.escape(repr(value))):
        GradedExpr.const(value)
    with pytest.raises(TypeError):
        scalar(value)
    with pytest.raises(TypeError):
        gexp(coord("t")) * value


def test_exact_values_make_scalars():
    assert scalar(Fraction(1, 2)).terms == {(): GaussianRational(
        Fraction(1, 2))}
    assert scalar(True) == scalar(1) and scalar(False).is_zero()
    assert scalar(QI).terms == {(): QI}
    assert scalar(0).terms == {} and scalar(QZERO).terms == {}
    assert gexp(coord("t")) * Fraction(1, 2) == (
        scalar(Fraction(1, 2)) * gexp(coord("t")))


# ----------------------------------------------------------------------
# grading and the sign rule
# ----------------------------------------------------------------------

def test_parity_uses_scalar_product():
    # the scalar product a1 a2 + b1 b2, not total parity
    assert parity(DEG10, DEG01) == 0
    assert parity(DEG10, DEG10) == 1
    assert parity(DEG01, DEG01) == 1
    assert parity(DEG11, DEG11) == 0
    assert parity(DEG11, DEG10) == 1
    assert parity(DEG11, DEG01) == 1
    for d in (DEG00, DEG10, DEG01, DEG11):
        assert parity(DEG00, d) == 0


def test_cross_sector_fermions_commute():
    psi10 = gexp(field("psi10", 0, 0, "x"))
    psi01 = gexp(field("psi01", 0, 0, "x"))
    lam10 = gexp(field("lam10", 0, 0, "x"))
    lam01 = gexp(field("lam01", 0, 0, "x"))
    assert psi01 * psi10 == psi10 * psi01
    assert lam01 * lam10 == lam10 * lam01
    assert psi10 * lam01 == lam01 * psi10


def test_same_sector_fermions_anticommute():
    psi10 = gexp(field("psi10", 0, 0, "x"))
    lam10 = gexp(field("lam10", 0, 0, "x"))
    psi01 = gexp(field("psi01", 0, 0, "x"))
    lam01 = gexp(field("lam01", 0, 0, "x"))
    assert lam10 * psi10 == -(psi10 * lam10)
    assert lam01 * psi01 == -(psi01 * lam01)


def test_exotic_boson_anticommutes_with_thetas():
    z = gexp(coord("z"))
    th10 = gexp(coord("th10"))
    th01 = gexp(coord("th01"))
    assert z * th10 == -(th10 * z)
    assert z * th01 == -(th01 * z)
    assert th10 * th01 == th01 * th10


def test_nilpotency():
    for name in ("th10", "th01"):
        g = gexp(coord(name))
        assert (g * g).is_zero()
    for base in ("psi10", "psi01", "lam10", "lam01"):
        g = gexp(field(base, 0, 0, "x"))
        assert (g * g).is_zero()


def test_z_square_folds_to_y():
    z = gexp(coord("z"))
    assert z * z == gexp(coord("y"))
    assert z * z * z == gexp(coord("y")) * z


def test_rational_exponents_on_even_coordinates():
    half = Fraction(1, 2)
    rx = gexp(coord("y"), half)
    assert rx * rx == gexp(coord("y"))
    assert gexp(coord("x"), half) * gexp(coord("x"), -half) == scalar(1)


# ----------------------------------------------------------------------
# expression-level algebra
# ----------------------------------------------------------------------

_POOL = [
    coord("t"), coord("y"), coord("z"), coord("th10"), coord("th01"),
    field("phi00", 0, 0, "y"), field("phi11", 0, 0, "y"),
    field("psi10", 0, 0, "y"), field("psi01", 0, 0, "y"),
    field("lam10", 1, 0, "y"), field("A00", 0, 0, "y"),
    param("eps10"), param("alpha"),
]

small_coeff = st.builds(GaussianRational,
                        st.fractions(min_value=-6, max_value=6, max_denominator=4),
                        st.fractions(min_value=-6, max_value=6, max_denominator=4))


@st.composite
def exprs(draw):
    n_terms = draw(st.integers(0, 3))
    total = GradedExpr.zero()
    for _ in range(n_terms):
        acc = scalar(draw(small_coeff))
        for g in draw(st.lists(st.sampled_from(_POOL), max_size=3)):
            acc = acc * gexp(g)
        total = total + acc
    return total


@given(exprs(), exprs(), exprs())
@settings(max_examples=60, deadline=None)
def test_expression_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a - a == GradedExpr.zero()


@given(exprs(), exprs())
@settings(max_examples=60, deadline=None)
def test_star_is_an_involutive_antihomomorphism(a, b):
    assert a.star().star() == a
    assert (a + b).star() == a.star() + b.star()
    assert (a * b).star() == b.star() * a.star()


@given(exprs(), exprs())
@settings(max_examples=80, deadline=None)
def test_difference_is_the_sum_of_the_negation_in_order(a, b):
    assert list((a - b).terms.items()) == list((a + (-b)).terms.items())
    assert (a - a).terms == {}
    # a scalar on the left goes through __rsub__
    assert list((3 - a).terms.items()) == list(
        (scalar(3) + (-a)).terms.items())


@given(exprs())
@settings(max_examples=80, deadline=None)
def test_is_real_agrees_with_the_star(e):
    i = scalar(QI)
    # e + e* is real and i(e - e*) too; i(e + e*) is real only when zero
    for x in (e, e + e.star(), i * (e - e.star()), i * (e + e.star())):
        assert x.is_real() == (x.star() == x)
    assert (e + e.star()).is_real() and (i * (e - e.star())).is_real()


@given(exprs())
@settings(max_examples=60, deadline=None)
def test_degree_additive_on_products(a):
    z = gexp(coord("z"))
    da = a.degree()
    if da is not None and not a.is_zero():
        prod = z * a
        if not prod.is_zero():
            got = prod.degree()
            assert got == ((da[0] + 1) % 2, (da[1] + 1) % 2)


def test_canonical_order_is_stable():
    psi = gexp(field("psi10", 0, 0, "x"))
    lam = gexp(field("lam10", 0, 0, "x"))
    t = gexp(coord("t"))
    lhs = lam * t * psi
    rhs = -(t * (psi * lam))
    assert lhs == rhs
    assert str(lhs) == str(rhs)


def test_sort_token_orders_mixed_exponents_by_value():
    y, x = coord("y"), coord("x")
    f = field("phi00", 0, 0, "x")
    exps = (Fraction(1, 2), 1, -1, Fraction(-1), Fraction(3, 2), 2)
    monos = [((y, ey), (x, ex), (f, 1)) for ey in exps for ex in exps]
    monos += [((y, ey),) for ey in exps] + [((x, -1),), ((x, 1), (f, 1))]

    def fraction_token(m):
        return tuple((g.sort_key, Fraction(e)) for g, e in m)

    assert (sorted(monos, key=_mono_sort_token)
            == sorted(monos, key=fraction_token))


def test_field_returns_the_interned_generator():
    g = field("lam01", 2, 1, "x")
    assert field("lam01", 2, 1, "x") is g
    assert field("phi11") is field("phi11", 0, 0, "y")
    assert field("phi11", 0, 0, "x") is not field("phi11", 0, 0, "y")


@pytest.mark.parametrize("args, error", [
    (("phi00", 0, 0, "q"), ValueError),
    (("phi00", 1, 0, "q"), ValueError),
    (("nope",), KeyError),
])
def test_field_rejects_unknown_bases_and_spaces(args, error):
    with pytest.raises(error):
        field(*args)


def test_pairjet_returns_the_interned_generator():
    g = pairjet(3, 1, "x")
    assert pairjet(3, 1, "x") is g
    assert g.name == "V11_2" and g.jet == (3, 1)
    assert pairjet(0, 0, "y") is pairjet(0, 0, "y")
    assert pairjet(1, 0, "y") is not pairjet(1, 0, "x")


@pytest.mark.parametrize("args", [(1, 2, "x"), (1, -1, "y"), (0, 0, "q"),
                                  (2, 1, None)])
def test_pairjet_rejects_a_bad_slot_or_space(args):
    with pytest.raises(ValueError):
        pairjet(*args)


def test_mono_dim_matches_the_fraction_formula():
    y, x = coord("y"), coord("x")
    lam = field("lam10", 0, 0, "y")
    monos = [((y, 1),), ((y, 2),), ((y, Fraction(1, 2)),), ((y, -1),),
             ((x, -1),), ((x, -1), (field("phi11", 1, 0, "x"), 2)),
             ((coord("t"), 1), (y, Fraction(1, 2)), (lam, 1)),
             ((y, -1), (field("A00", 0, 1, "y"), 1), (trig("S11y"), 1)),
             ((coord("th10"), 1), (x, Fraction(-3, 2)), (lam, 1)), ()]
    for m in monos:
        want = sum((Fraction(e) * g.dim for g, e in m), Fraction(0))
        got = Fraction(*_mono_dim_ratio(m))
        assert got == want and type(got) is Fraction, m


def _fraction_scaling_dim(e):
    dims = {sum((Fraction(k) * g.dim for g, k in m), Fraction(0))
            for m in e.terms}
    return dims.pop() if len(dims) == 1 else None


_measure_powers = st.builds(
    lambda g, p, q: gexp(coord(g), Fraction(p, q)),
    st.sampled_from(("y", "x")), st.integers(-4, 4).filter(bool),
    st.integers(1, 6))


@given(st.lists(st.tuples(exprs(), st.lists(_measure_powers, max_size=2)),
                max_size=3))
@settings(max_examples=80, deadline=None)
def test_scaling_dim_matches_the_fraction_formula(parts):
    e = GradedExpr.zero()
    for body, powers in parts:
        for p in powers:
            body = body * p
        e = e + body
    got = e.scaling_dim()
    assert got == _fraction_scaling_dim(e)
    assert got is None or type(got) is Fraction


# ----------------------------------------------------------------------
# reading the printed form back
# ----------------------------------------------------------------------

def _at_stage(e, stage):
    """e with its (first-stage) field jets moved to `stage`; the pool's
    jets print alike at both stages."""
    return e.substitute({g: gexp(field(g.base, *g.jet, stage))
                         for g in e.generators() if g.kind == "field"})


@given(exprs(), st.lists(_measure_powers, max_size=2),
       st.sampled_from(("y", "x")))
@settings(max_examples=120, deadline=None)
def test_parse_reads_back_what_str_prints(body, powers, stage):
    e = _at_stage(body, stage)
    for p in powers:
        e = e * p
    assert parse(str(e), stage) == e


@given(small_coeff, st.lists(st.sampled_from(_POOL), min_size=1, max_size=4))
@settings(max_examples=120, deadline=None)
def test_parse_multiplies_factors_in_the_order_written(c, word):
    # out-of-order words take the merge path, with its signs and folds
    want = scalar(c)
    for g in word:
        want = want * gexp(g)
    assert parse("*".join([str(c)] + [g.name for g in word]), "y") == want


@pytest.mark.parametrize("g", [
    coord("t"), coord("y"), coord("x"), coord("z"), coord("th10"),
    coord("th01"), param("eps00"), param("epsL"), param("eps10p"),
    param("alpha"), param("deltaz"), field("phi00", 0, 0, "y"),
    field("lam01", 2, 1, "y"), field("A11", 0, 3, "x"),
    field("psi10", 1, 0, "x"), fjet(0), fjet(3), trig("S00"), trig("C11y"),
    trig("S11"), pairjet(0, 1, "y"), pairjet(1, 0, "y"), pairjet(3, 1, "x"),
    pairjet(0, 0, "x")], ids=lambda g: f"{g.name}@{g.space}")
def test_parse_resolves_every_generator_family(g):
    assert parse(g.name, g.space or "x") == gexp(g)


def _display_texts(monkeypatch):
    """(text, stage) of every entry of every display in `reference`."""
    seen = []
    real = reference.parse

    def spy(text, stage):
        seen.append((text, stage))
        return real(text, stage)

    monkeypatch.setattr(reference, "parse", spy)
    for name, fn in inspect.getmembers(reference, inspect.isfunction):
        if fn.__module__ == reference.__name__ and not name.startswith("_"):
            fn()
    return seen


def test_every_display_entry_prints_back_as_its_text(monkeypatch):
    texts = _display_texts(monkeypatch)
    assert len(texts) == 197
    for text, stage in texts:
        assert str(parse(text, stage)) == text


def test_importing_the_displays_parses_nothing():
    # with parse unusable, the import still succeeds
    code = ("import z22field.expr as e; e.parse = None; "
            "import z22field.reference")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": str(SRC)})


@pytest.mark.parametrize("text,stage,message", [
    ("", "x", "empty text"),
    ("phi00 + ", "x", "dangling '\\+'"),
    ("-", "x", "dangling '-'"),
    ("phi00*", "x", "dangling '\\*'"),
    ("phi00*rho", "x", "unknown name 'rho'"),
    ("phi00_y", "x", "'phi00_y' is not a jet at stage 'x'"),
    ("phi00_tx", "y", "'phi00_tx' is not a jet at stage 'y'"),
    ("V00_0", "x", "unknown name 'V00_0'"),
    ("x^a", "x", "bad factor 'x\\^a'"),
    ("y^(1/0)", "y", "bad factor 'y\\^\\(1/0\\)'"),
    ("phi00^(1/2)", "x", "phi00 does not admit exponent 1/2"),
    ("1/0*x", "x", "bad factor '1/0'"),
    ("(1+2i)*x", "x", "bad factor '\\(1\\+2i\\)'"),
    ("1/2/3*x", "x", "bad factor '1/2/3'"),
    ("x", "w", "unknown stage 'w'"),
])
def test_parse_names_the_bad_token(text, stage, message):
    with pytest.raises(ValueError, match=message):
        parse(text, stage)


def test_scaling_dim_compares_terms_exactly():
    y, x = coord("y"), coord("x")
    # y**(1/3) and x**(2/3) both have dimension -2/3, over unlike
    # denominators
    e = gexp(y, Fraction(1, 3)) + scalar(2) * gexp(x, Fraction(2, 3))
    assert e.scaling_dim() == Fraction(-2, 3)
    assert type(e.scaling_dim()) is Fraction
    assert (e + gexp(x)).scaling_dim() is None
    assert (gexp(y) + gexp(x)).scaling_dim() is None
    assert (gexp(y) + gexp(x, 2)).scaling_dim() == -2
    # equal dimensions kept over different denominators: -4/4 and -2/2
    assert (gexp(y, Fraction(1, 2)) + gexp(x)).scaling_dim() == -1
    assert GradedExpr.zero().scaling_dim() is None
    assert scalar(3).scaling_dim() == 0


def test_a_dimension_off_the_half_integer_grid_is_rejected():
    with pytest.raises(ValueError, match="multiple of 1/2"):
        Generator("q", "coord", DEG00, Fraction(1, 3), False, None, None,
                  "q", (), (0, "q", 0, 0))


def test_unit_exponent_is_stored_as_int():
    for g in (coord("y"), coord("th10"), field("psi10", 0, 0, "x")):
        (mono,) = gexp(g, Fraction(1)).terms
        assert mono == ((g, 1),) and type(mono[0][1]) is int


def test_equality_ignores_construction_path():
    a = gexp(field("phi00", 1, 0, "x"))
    e1 = (a + a) * scalar(Fraction(1, 2))
    assert e1 == a
    assert scalar(0) * a == GradedExpr.zero()


@pytest.mark.parametrize("prefix, sign", [
    ("th10", -1),   # same sector as eps10: anticommutes
    ("z", -1),      # the (1,1) coordinate anticommutes with eps10 too
    ("th01", 1),    # cross sector: commutes
])
def test_strip_left_moves_the_factor_past_its_prefix(prefix, sign):
    # coordinates sort before parameters, so eps10 stands second in the
    # stored monomial and leaves through the prefix
    g = param("eps10")
    e = gexp(coord(prefix)) * gexp(g)
    (mono,) = e.terms
    assert mono[0][0] is coord(prefix) and mono[1][0] is g
    r = e.strip_left(g)
    assert r == scalar(sign) * gexp(coord(prefix))
    assert gexp(g) * r == e


# ----------------------------------------------------------------------
# monomial merge sign against a brute-force pairwise-swap reference
# ----------------------------------------------------------------------

_Y, _X, _Z = coord("y"), coord("x"), coord("z")
_ODD_JETS = [field(b, m, n, "y") for b in ("psi10", "psi01", "lam10", "lam01")
             for m in (0, 1, 2) for n in (0, 1)]
_EVEN = [coord("t"), field("phi00", 1, 0, "y"), field("phi11", 0, 1, "y"),
         field("A11", 0, 0, "x"), param("alpha"), param("eps00"),
         param("eps11")]
_NILPOTENT = [coord("th10"), coord("th01"), param("eps10"), param("eps01")]
# the eps groups the lists above leave out: two primed copies (group
# e2), deltaz (group dz), and epsL, one more generator of group e
_EPS = [param("eps00p"), param("eps11p"), param("deltaz"), param("epsL")]

_factor = st.one_of(
    st.tuples(st.sampled_from(_ODD_JETS + _NILPOTENT + [_Z]), st.just(1)),
    st.tuples(st.sampled_from(_EVEN), st.integers(1, 3)),
    st.tuples(st.sampled_from(_EPS), st.integers(1, 2)),
    st.tuples(st.sampled_from([_Y, _X]),
              st.fractions(min_value=-3, max_value=3, max_denominator=3)
              .filter(bool).map(lambda e: int(e) if e.denominator == 1
                                else e)),
)


def _swap_degree(g, e):
    return g.degree if isinstance(e, int) and e & 1 else DEG00


def _reference_product(word):
    """Sign exponent and canonical monomial of a word of factors, or None.

    The sign counts, for every pair standing in the wrong order, the swap
    sign of the two factors; equal generators then merge and z**2 folds
    into y, neither of which moves an odd factor past another."""
    sign = 0
    for i in range(len(word)):
        for j in range(i + 1, len(word)):
            (g, e), (h, f) = word[i], word[j]
            if g.sort_key > h.sort_key:
                sign += parity(_swap_degree(g, e), _swap_degree(h, f))
    total = {}
    for g, e in word:
        total[g] = total.get(g, 0) + Fraction(e)
    if _Z in total:
        k = int(total.pop(_Z))
        total[_Y] = total.get(_Y, 0) + k // 2
        if k & 1:
            total[_Z] = Fraction(1)
    groups = {}
    mono = []
    for g in sorted(total, key=lambda g: g.sort_key):
        e = total[g]
        if e == 0:
            continue
        if g.nilpotent and e >= 2:
            return None
        if g.eps_group is not None:
            groups[g.eps_group] = groups.get(g.eps_group, 0) + e
            if groups[g.eps_group] >= 2:
                return None
        mono.append((g, int(e) if e.denominator == 1 else e))
    return sign & 1, tuple(mono)


@given(st.lists(_factor, max_size=7))
@settings(max_examples=300, deadline=None)
def test_mono_mul_sign_matches_pairwise_swaps(word):
    got = (0, ())
    for g, e in word:
        if got is None:
            break
        s, mono = got
        hit = _mono_mul(mono, ((g, e),))
        got = None if hit is None else ((s + hit[0]) & 1, hit[1])
    assert got == _reference_product(word)


@given(st.lists(_factor, max_size=6), st.lists(_factor, max_size=6))
@settings(max_examples=300, deadline=None)
def test_mono_mul_of_two_monomials_matches_the_joined_word(word_a, word_b):
    # several m2 factors are placed before the rest of m1 crosses them
    a, b = _reference_product(word_a), _reference_product(word_b)
    assume(a is not None and b is not None)
    hit = _mono_mul(a[1], b[1])
    got = None if hit is None else ((a[0] + b[0] + hit[0]) & 1, hit[1])
    assert got == _reference_product(word_a + word_b)


@given(st.lists(_factor, max_size=7))
@settings(max_examples=200, deadline=None)
def test_star_sign_matches_pairwise_swaps(word):
    ref = _reference_product(word)
    assume(ref is not None)
    mono = ref[1]
    pairs = sum(parity(_swap_degree(*mono[i]), _swap_degree(*mono[j]))
                for i in range(len(mono)) for j in range(i + 1, len(mono)))
    assert _mono_star_sign(mono) == pairs & 1


def test_the_factor_strategy_draws_every_eps_group():
    assert {g.eps_group for g in _EVEN + _NILPOTENT + _EPS} - {None} == {
        "e", "e2", "dz"}


def test_mono_mul_with_an_empty_operand_returns_the_other():
    _, mono = _reference_product([(_Z, 1), (param("eps10"), 1),
                                  (_Y, Fraction(1, 2)), (_ODD_JETS[0], 1)])
    assert _mono_mul((), mono) == (0, mono) == _mono_mul(mono, ())
    # a raw factor past its eps order still vanishes
    eps_sq = ((param("eps00"), 2),)
    assert _mono_mul((), eps_sq) is None and _mono_mul(eps_sq, ()) is None


# ----------------------------------------------------------------------
# the product table: `_mono_mul` is memoised by its pair of monomials,
# which is sound only while equal monomials carry equal exponent types
# ----------------------------------------------------------------------

def _typed(hit):
    """A merge result with the type of every exponent spelled out."""
    if hit is None:
        return None
    sign, mono = hit
    return type(sign), sign, _typed_mono(mono)


def _typed_mono(mono):
    return tuple((g, type(e), e) for g, e in mono)


@given(st.lists(_factor, max_size=6), st.lists(_factor, max_size=6))
@example([(_Z, 1), (param("eps10"), 1)], [(_Z, 1), (_Y, Fraction(-1, 2))])
@example([(_Z, 1), (_Y, Fraction(1, 2))], [(_Z, 1), (_Y, Fraction(1, 2))])
@example([(param("eps00"), 1), (_X, Fraction(2, 3))],
         [(param("epsL"), 1), (_X, Fraction(1, 3))])
@settings(max_examples=300, deadline=None)
def test_the_product_table_returns_the_merge_it_stands_for(word_a, word_b):
    # z**2 folds into y, an eps group can overflow, and fractional powers
    # of y and x can sum to an integer, which must come back as an int
    a, b = _reference_product(word_a), _reference_product(word_b)
    assume(a is not None and b is not None)
    raw = _mono_mul.__wrapped__(a[1], b[1])
    ref = _reference_product(word_a + word_b)
    assert (raw is None) == (ref is None)
    if raw is not None:
        assert _typed_mono(raw[1]) == _typed_mono(ref[1])
    for _ in range(2):   # filling the table, then reading it
        assert _typed(_mono_mul(a[1], b[1])) == _typed(raw)


def _noncanonical_exponents(obj):
    """The monomials of every expression in obj with an exponent that is
    neither an int nor a non-integral Fraction, such as a bool or
    Fraction(2): each would share a table key with its int twin."""
    if isinstance(obj, GradedExpr):
        return [m for m in obj.terms for _, e in m
                if not (type(e) is int or type(e) is Fraction
                        and e.denominator != 1)]
    if isinstance(obj, dict):
        obj = obj.values()
    return [m for o in obj for m in _noncanonical_exponents(o)]


def test_stage_outputs_and_displays_hold_only_canonical_exponents():
    from z22field import action, dmodule, superfield, variational
    from z22field.potential import parse_potential
    outs = [superfield.variation_table(n, s) for n in superfield.VAR_NAMES
            for s in ("y", "x")]
    outs += [action.lagrangian(), action.auxiliary_solution(),
             variational.field_equations(), variational.solved_forms(),
             dmodule.matrices_from_tables()]
    for spec in ("cos", "sin", "poly:1/2,-1,3/4,0,2", "abstract"):
        lag = action.lagrangian(parse_potential(spec), eliminate=True)
        outs += [lag, variational.euler_lagrange(lag)]
    displays = [getattr(reference, name)() for name, fn in
                inspect.getmembers(reference, inspect.isfunction)
                if fn.__module__ == reference.__name__
                and not name.startswith("_")]
    assert len(displays) >= 18
    assert _noncanonical_exponents(outs + displays) == []


# ----------------------------------------------------------------------
# the one merge rule against a reference that tracks each monomial's
# running sum
# ----------------------------------------------------------------------

_MONOS = [(), ((coord("t"), 1),), ((coord("t"), 2),), ((_Y, 1),)]
_entries = st.tuples(st.sampled_from(_MONOS),
                     st.integers(-2, 2).map(GaussianRational))


def _reference_add(start, items):
    """The sum of each monomial, nonzero ones only, ordered by the step at
    which its running sum last turned from zero to nonzero (the entries
    of start count as steps before the first item)."""
    stream = list(start.items()) + list(items)
    sums, placed = {}, {}
    for step, (mono, c) in enumerate(stream):
        before = sums.get(mono, QZERO)
        sums[mono] = before + c
        if not before and sums[mono]:
            placed[mono] = step
    return sorted(((m, c) for m, c in sums.items() if c),
                  key=lambda mc: placed[mc[0]])


@given(st.lists(_entries, max_size=4), st.lists(_entries, max_size=12))
@settings(max_examples=300, deadline=None)
def test_add_terms_matches_the_running_sum_reference(start, items):
    start = _add_terms({}, start)
    assert all(start.values())
    want = _reference_add(start, items)
    terms = dict(start)
    assert _add_terms(terms, items) is terms
    assert list(terms.items()) == want


def test_add_terms_places_a_cancelled_monomial_anew():
    t, t2 = _MONOS[1], _MONOS[2]
    one = GaussianRational(1)
    terms = _add_terms({}, [(t, one), (t2, one), (t, -one), (t, one)])
    assert list(terms) == [t2, t]
    assert _add_terms({t: one}, [((), QZERO)]) == {t: one}


# the product merge, the scalar product and the walk restate the rule
# of `_add_terms` inline; each is pinned to the same reference
_TH01 = coord("th01")
_PRODUCT_MONOS = _MONOS + [((coord("th10"), 1),), ((_TH01, 1),),
                           ((coord("th10"), 1), (_TH01, 1))]
_product_entries = st.tuples(st.sampled_from(_PRODUCT_MONOS),
                             st.builds(GaussianRational, st.integers(-2, 2),
                                       st.integers(-1, 1)))


def _reference_products(items1, items2):
    """The stream of signed products, row by row, each monomial merged
    by the pairwise-swap reference; a vanishing product is left out."""
    stream = []
    for m1, c1 in items1:
        for m2, c2 in items2:
            hit = _reference_product(list(m1) + list(m2))
            if hit is not None:
                stream.append((hit[1], -(c1 * c2) if hit[0] else c1 * c2))
    return stream


@given(st.lists(_entries, max_size=4), st.lists(_product_entries, max_size=4),
       st.lists(_product_entries, max_size=4))
@example([(_MONOS[1], QONE), (_MONOS[3], QONE)],
         [((), -QONE), ((), QONE)], [(_MONOS[1], QONE)])
@settings(max_examples=300, deadline=None)
def test_add_products_matches_the_running_sum_reference(start, items1,
                                                        items2):
    # the example cancels t and places it again, after y
    start = _add_terms({}, start)
    want = _reference_add(start, _reference_products(items1, items2))
    terms = dict(start)
    assert _add_products(terms, items1, items2) is terms
    assert list(terms.items()) == want


@given(exprs(), st.one_of(small_coeff, st.integers(-3, 3)))
@example(GradedExpr({(): QI, _MONOS[1]: QONE}), GaussianRational(0, -1))
@settings(max_examples=200, deadline=None)
def test_a_scalar_factor_on_either_side_scales_each_term(e, k):
    s = scalar(k)
    want = _reference_add({}, _reference_products(e.terms.items(),
                                                  s.terms.items()))
    for got in (e * k, k * e, e * s, s * e):
        assert list(got.terms.items()) == want
    # a sum times a sum still merges through the product table
    assert list((e * (s + gexp(_Y))).terms.items()) == _reference_add(
        {}, _reference_products(e.terms.items(), (s + gexp(_Y)).terms.items()))


def _reference_walk(images, degree, expr):
    """The Leibniz terms of the derivation with these generator images,
    streamed one image term at a time: for the factor g**e of a monomial
    with prefix P and suffix R, sign(deg D, deg P) e c P*m*g**(e-1)*R
    for each image term c m, merged by the pairwise-swap reference."""
    stream = []
    for mono, c in expr.terms.items():
        pdeg = DEG00
        for k, (g, e) in enumerate(mono):
            img = images.get(g)
            if img is not None:
                rest = [(g, e - 1)] if e != 1 else []
                for m2, c2 in img.terms.items():
                    hit = _reference_product(list(mono[:k]) + list(m2) + rest
                                             + list(mono[k + 1:]))
                    if hit is not None:
                        cc = c * e * c2
                        if (hit[0] + parity(degree, pdeg)) & 1:
                            cc = -cc
                        stream.append((hit[1], cc))
            pdeg = pdeg + _swap_degree(g, e)
    return _reference_add({}, stream)


_T, _PHI00 = coord("t"), field("phi00", 0, 0, "y")
# D(t) = D(y) = D(phi00) = 1: the constant term of t is cancelled by -y
# and placed again by phi00, after the two terms of t*y
_CANCEL_WALK = GradedExpr({((_T, 1),): QONE, ((_T, 1), (_Y, 1)): QONE,
                           ((_Y, 1),): -QONE, ((_PHI00, 1),): QONE})


@given(st.dictionaries(st.sampled_from(_POOL), exprs(), max_size=5),
       st.sampled_from([DEG00, DEG10, DEG01, DEG11]), exprs())
@example({_T: ONE_EXPR, _Y: ONE_EXPR, _PHI00: ONE_EXPR}, DEG00, _CANCEL_WALK)
@example({_T: ONE_EXPR, _Y: ONE_EXPR, _PHI00: ONE_EXPR + gexp(param("alpha"))},
         DEG00, _CANCEL_WALK)
@settings(max_examples=200, deadline=None)
def test_a_walk_merges_one_and_several_term_images_by_the_one_rule(
        images, degree, expr):
    # images of one and of several terms merge straight into the
    # result; apply, columns and a routed walk all match the reference
    d = GeneratorDerivation("D", degree, images.get)
    assert list(d.apply(expr).terms.items()) == _reference_walk(
        images, degree, expr)
    monos = list(expr.terms)
    assert [list(col.items()) for col in d.columns(monos)] == [
        _reference_walk(images, degree, GradedExpr({m: QONE})) for m in monos]
    moved = GeneratorDerivation("D1", degree, lambda g: ONE_EXPR)
    got, ones = apply_many([d, moved], expr)
    assert list(got.terms.items()) == _reference_walk(images, degree, expr)
    assert list(ones.terms.items()) == _reference_walk(
        {g: ONE_EXPR for g in expr.generators()}, degree, expr)


# ----------------------------------------------------------------------
# one-step powers, prefix substitution and mask degrees against the
# factor-by-factor forms
# ----------------------------------------------------------------------

def _repeated_product_pow(base, n):
    out = GradedExpr({(): QONE})
    for _ in range(n):
        out = out * base
    return out


def _factor_by_factor_substitute(expr, mapping):
    """Each term rebuilt from its coefficient one factor at a time and
    added with `+`; integer powers of an image by repeated products."""
    out = GradedExpr.zero()
    for mono, c in expr.terms.items():
        acc = GradedExpr.const(c)
        for g, e in mono:
            img = mapping.get(g)
            if img is None:
                acc = acc * GradedExpr.gen(g, e)
            elif isinstance(e, int) and e >= 0:
                acc = acc * _repeated_product_pow(img, e)
            else:
                acc = acc * _expr_pow(img, e)
            if not acc.terms:
                break
        out = out + acc
    return out


def _same_terms_in_order(got, want):
    return list(got.terms.items()) == list(want.terms.items())


_Z, _TH10 = coord("z"), coord("th10")
_POW_CASES = [
    (gexp(_Z), n) for n in range(1, 6)] + [
    (gexp(_TH10), 2),
    (gexp(_TH10), 1),
    (gexp(coord("y"), Fraction(1, 2)), 3),
    (gexp(coord("x"), -1), 2),
    (scalar(GaussianRational(Fraction(3, 2), -1))
     * gexp(field("phi00", 0, 0, "x")), 3),
    (scalar(-2) * gexp(field("psi10", 0, 0, "x")), 2),
    (gexp(param("eps00")), 2),
    (gexp(field("phi11", 0, 0, "y"), 2), 3),
    (gexp(field("phi00", 0, 0, "x")) + gexp(coord("t")), 3),
    (scalar(5), 2),
] + [(b, 0) for b in (gexp(_Z), scalar(QI) * gexp(_TH10), GradedExpr.zero(),
                      gexp(coord("y"), Fraction(-1, 2)))]


@pytest.mark.parametrize("base,n", _POW_CASES)
def test_power_matches_repeated_products(base, n):
    assert _same_terms_in_order(base ** n, _repeated_product_pow(base, n))


def test_power_folds_z_and_kills_nilpotent_squares():
    assert gexp(_Z) ** 2 == gexp(coord("y"))
    assert gexp(_Z) ** 3 == gexp(coord("y")) * gexp(_Z)
    assert (gexp(_TH10) ** 2).is_zero()
    assert (gexp(param("eps00")) ** 2).is_zero()


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("name", ["eps00", "eps11", "eps10", "eps01", "epsL",
                                  "deltaz"])
def test_eps_power_built_directly_matches_repeated_product(name, k):
    # the constructor applies the eps truncation that products apply
    e = param(name)
    assert gexp(e, k).is_zero()
    assert _same_terms_in_order(gexp(e, k), gexp(e) ** k)
    assert _same_terms_in_order(gexp(e, k), _repeated_product_pow(gexp(e), k))
    assert (scalar(3) * gexp(e, k)).is_zero()


# Blocks of degree (0,0) or (1,1): any two products of them commute.
# Fields, z (z**2 folds into y), (1,1) parameters, even fermion bilinears
# and eps-group factors.
_TH01, _PSI10, _LAM01 = coord("th01"), field("psi10", 0, 0, "y"), \
    field("lam01", 0, 0, "y")
_COMMUTING_BLOCKS = [
    gexp(field("phi00", 0, 0, "y")), gexp(field("phi11", 0, 0, "y")),
    gexp(field("phi00", 1, 0, "x")), gexp(_Z), gexp(coord("t")),
    gexp(param("alpha")), gexp(param("deltaz")),
    gexp(_PSI10) * gexp(field("psi01", 0, 0, "y")),
    gexp(_PSI10) * gexp(field("lam10", 1, 0, "y")),
    gexp(_TH10) * gexp(_TH01), gexp(_TH10) * gexp(_LAM01),
    gexp(param("eps00")), gexp(param("eps11")), gexp(param("epsL")),
    gexp(param("eps10")) * gexp(_PSI10),
]
# blocks of degree (1,0) or (0,1)
_ODD_BLOCKS = [gexp(_TH10), gexp(_PSI10), gexp(_LAM01), gexp(param("eps01")),
               gexp(_PSI10) * gexp(field("phi11", 0, 0, "y")),
               gexp(_Z) * gexp(_TH01)]


def _sum_of_products(draw, blocks, max_terms):
    total = GradedExpr.zero()
    for _ in range(draw(st.integers(0, max_terms))):
        acc = scalar(draw(small_coeff))
        for b in draw(st.lists(st.sampled_from(blocks), max_size=3)):
            acc = acc * b
        total = total + acc
    return total


@st.composite
def commuting_sums(draw):
    return _sum_of_products(draw, _COMMUTING_BLOCKS, 6)


@st.composite
def odd_or_mixed_sums(draw):
    return _sum_of_products(draw, _COMMUTING_BLOCKS + _ODD_BLOCKS, 6)


def _cancels_midway(e):
    """True when, in e * e or in its i <= j form, the running sum of some
    monomial reaches zero before its last contribution."""
    items = list(e.terms.items())
    for pairs in ([(i, k) for i in range(len(items))
                   for k in range(len(items))],
                  [(i, k) for i in range(len(items))
                   for k in range(i, len(items))]):
        sums, zeroed = {}, set()
        for i, k in pairs:
            hit = _mono_mul(items[i][0], items[k][0])
            if hit is None:
                continue
            sign, mono = hit
            if mono in zeroed:
                return True
            c = items[i][1] * items[k][1]
            sums[mono] = sums.get(mono, QZERO) + (-c if sign else c)
            if not sums[mono]:
                zeroed.add(mono)
    return False


@given(commuting_sums())
@settings(max_examples=150, deadline=None)
def test_a_commuting_square_equals_the_product(e):
    assert all(_mono_mask(m) in (0, 3) for m in e.terms)
    assert e ** 2 == e * e
    if not _cancels_midway(e):
        assert _same_terms_in_order(e ** 2, e * e)


def test_a_square_cancelling_midway_keeps_first_appearance_order():
    # in e * e the t**2 sum runs -1, 0 (dropped), -1 (placed after t**3);
    # the i <= j form sums -2, -1 and keeps t**2 where it first appears
    t = gexp(coord("t"))
    e = scalar(1) + t - t * t
    assert _cancels_midway(e)
    assert e ** 2 == e * e
    order = [dict(m).get(coord("t"), 0) for m in (e ** 2).terms]
    assert order == [0, 1, 2, 3, 4]
    assert [dict(m).get(coord("t"), 0) for m in (e * e).terms] == [
        0, 1, 3, 2, 4]


@given(odd_or_mixed_sums())
@settings(max_examples=100, deadline=None)
def test_an_odd_or_mixed_square_keeps_the_product_order(e):
    assume(any(_mono_mask(m) in (1, 2) for m in e.terms))
    assert _same_terms_in_order(e ** 2, e * e)


def _substitution_source():
    t, y = coord("t"), coord("y")
    phi = field("phi00", 0, 0, "y")
    psi, lam = field("psi10", 0, 0, "y"), field("lam10", 0, 0, "y")
    return (scalar(3) * gexp(t) * gexp(y, Fraction(1, 2)) * gexp(phi, 2)
            * gexp(psi) * gexp(lam)
            - scalar(QI) * gexp(t, 2) * gexp(psi)
            + gexp(y, -1) * gexp(phi) * gexp(lam)
            + scalar(Fraction(1, 3)) * gexp(t) * gexp(phi, 3))


@pytest.mark.parametrize("mapped", ["none", "first", "last", "middle",
                                    "rational", "vanishing", "cancelling"])
def test_substitute_matches_the_factor_by_factor_form(mapped):
    t, y = coord("t"), coord("y")
    phi, lam = field("phi00", 0, 0, "y"), field("lam10", 0, 0, "y")
    x, psi = coord("x"), field("psi10", 0, 0, "y")
    mapping = {
        # an unused generator: no factor of the source is mapped
        "none": {coord("z"): gexp(x)},
        # t stands first in every term that holds it
        "first": {t: scalar(2) * gexp(x) + gexp(phi)},
        # lam stands last in every term that holds it
        "last": {lam: gexp(psi) - scalar(Fraction(1, 2)) * gexp(lam)},
        "middle": {phi: gexp(phi) + scalar(QI) * gexp(coord("th10"))},
        # the y -> x**2 map takes rational and negative powers
        "rational": {y: gexp(x, 2)},
        # psi * psi vanishes, so terms holding psi and lam drop out
        "vanishing": {lam: gexp(psi)},
        "cancelling": {phi: gexp(psi) + gexp(lam)},
    }[mapped]
    src = _substitution_source()
    if mapped == "cancelling":
        # t*psi appears from two terms, cancels, and leaves the dict
        src = gexp(t) * (gexp(phi) - gexp(psi) + gexp(lam))
    got = src.substitute(mapping)
    assert _same_terms_in_order(got,
                                _factor_by_factor_substitute(src, mapping))
    if mapped == "none":
        assert _same_terms_in_order(got, src)


def test_degree_matches_the_sum_of_factor_degrees():
    src = _substitution_source()
    for mono in src.terms:
        e = GradedExpr({mono: QONE})
        want = DEG00
        for g, k in mono:
            want = want + _exp_degree(g, k)
        assert e.degree() == want and type(e.degree()) is type(DEG00)
    assert src.degree() is None
    assert GradedExpr.zero().degree() == DEG00
    assert (gexp(field("psi10", 0, 0, "x")) * gexp(field("lam01", 0, 0, "x"))
            ).degree() == DEG11
    assert gexp(field("psi01", 0, 0, "x")).degree() == DEG01
