import functools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from atiyahlab import funcfield, poly
from atiyahlab.curve import WeierstrassCurve
from atiyahlab.fields import QQ, FieldElem, make_extension_field
from atiyahlab.funcfield import (
    FuncElem,
    combination,
    linearly_independent,
    pair_function,
    point_expansion,
)
from atiyahlab.surface import make_surface


def rational_model():
    return WeierstrassCurve(QQ, 0, 0, 0, -1, 1)


def test_canonical_form_and_equality():
    E = rational_model()
    x = FuncElem.x_function(E)
    y = FuncElem.y_function(E)
    assert x * x * x - x + FuncElem.one(E) == y * y    # the defining relation
    assert (x / x) == FuncElem.one(E)
    assert (y - y).is_zero()
    assert FuncElem.constant(E, Fraction(3)) + FuncElem.constant(E, Fraction(-3)) == FuncElem.zero(E)


def test_arithmetic_roundtrips():
    E = rational_model()
    x = FuncElem.x_function(E)
    y = FuncElem.y_function(E)
    g = (y - FuncElem.one(E)) / x
    assert g * x == y - FuncElem.one(E)
    assert (g / g) == FuncElem.one(E)
    assert g.inverse() * g == FuncElem.one(E)
    assert g ** 3 == g * g * g
    assert g ** 0 == FuncElem.one(E)
    assert g ** -2 == (g * g).inverse()
    with pytest.raises(ZeroDivisionError):
        FuncElem.zero(E).inverse()


def test_evaluate_at_affine_points():
    E = rational_model()
    x = FuncElem.x_function(E)
    y = FuncElem.y_function(E)
    P = E.point(1, 1)
    assert x.evaluate(P).raw == Fraction(1)
    assert y.evaluate(P).raw == Fraction(1)
    fn = (y + x) / (x + FuncElem.one(E))
    assert fn.evaluate(P).raw == Fraction(1)
    with pytest.raises(ValueError):
        x.evaluate(E.infinity)
    # pole detection: 1/x at a point with x = 0
    Q = E.point(0, 1)
    with pytest.raises(ZeroDivisionError):
        x.inverse().evaluate(Q)


def series_const(curve, c, xs, ys):
    from atiyahlab.series import LaurentSeries
    return LaurentSeries.constant(curve.field, c, min(xs.hi, ys.hi))


def test_point_expansion_satisfies_curve_equation():
    # The local expansions (x(t), y(t)) must satisfy the Weierstrass relation
    # through their full shared precision window, at every point type.
    E = rational_model()
    cases = [E.point(0, 1),                # ordinary
             E.point(1, -1),
             E.infinity]                   # the base point
    E9 = WeierstrassCurve(make_extension_field(3, 2), 0, 0, 0, -1, 1)
    cases9 = E9.points()[1:4] + [E9.infinity]
    for curve, pts in ((E, cases), (E9, cases9)):
        for P in pts:
            xs, ys = point_expansion(curve, P, 10)
            diff = (ys * ys) - (xs * xs * xs + xs.scale(curve.a4.raw)
                                + series_const(curve, curve.a6.raw, xs, ys))
            assert diff.is_zero_to_precision()


def test_point_expansion_char2_full_model():
    F4 = make_extension_field(2, 2)
    E = WeierstrassCurve(F4, 1, 0, 0, 0, 1)     # y^2 + xy = x^3 + 1
    for P in [E.point(0, 1), E.infinity]:
        xs, ys = point_expansion(E, P, 8)
        diff = ys * ys + xs * ys - (xs * xs * xs + series_const(E, E.a6.raw, xs, ys))
        assert diff.is_zero_to_precision()


# long-form models with a1, a2 and a3 all nonzero; over F_16 the text "2"
# and "3" name the packed elements z and z + 1
_LONG_FORM_MODELS = {
    "QQ": (QQ, (1, -1, 1, -2, 0)),          # y^2 + xy + y = x^3 - x^2 - 2x
    "F25": (make_extension_field(5, 2), (1, 2, 3, 4, 1)),
    "F9": (make_extension_field(3, 2), (1, 1, 1, 1, 1)),
    "F16": (make_extension_field(2, 4), ("1", "2", "1", "3", "1")),
}


@pytest.mark.parametrize("name", list(_LONG_FORM_MODELS))
def test_point_expansion_satisfies_long_form_equation(name):
    # y^2 + a1 x y + a3 y = x^3 + a2 x^2 + a4 x + a6 through the shared
    # window, at every affine point (ramified ones included) and at infinity
    field, a = _LONG_FORM_MODELS[name]
    E = WeierstrassCurve(field, *a)
    if field is QQ:
        pts = [E.point(-1, 0), E.point(0, -1), E.point(2, -3), E.point(3, 2),
               E.infinity]
    else:
        pts = E.points()
    a1, a2, a3, a4, a6 = (c.raw for c in (E.a1, E.a2, E.a3, E.a4, E.a6))
    ramified = 0
    for P in pts:
        if not P.is_infinity and not (2 * P.y + E.a1 * P.x + E.a3):
            ramified += 1
        xs, ys = point_expansion(E, P, 10)
        one = series_const(E, field.one, xs, ys)
        lhs = ys * ys + (xs * ys).scale(a1) + ys.scale(a3)
        rhs = xs * xs * xs + (xs * xs).scale(a2) + xs.scale(a4) + one.scale(a6)
        assert (lhs - rhs).is_zero_to_precision(), P
        assert min(xs.hi, ys.hi) >= 10
    assert ramified >= 1


def test_expansion_cache_grows_geometrically(monkeypatch):
    # the horizons one rational h0 ladder asked for at infinity: a cache that
    # only ever held the last request re-ran Newton for each of them
    solves = []
    expand = funcfield._expand_uncached

    def counting(curve, P, H):
        solves.append(H)
        return expand(curve, P, H)

    monkeypatch.setattr(funcfield, "_expand_uncached", counting)
    E = rational_model()
    for P in (E.infinity, E.point(0, 1)):
        solves.clear()
        for prec in range(15, 44, 2):
            xs, ys = point_expansion(E, P, prec)
            fresh = [s.truncate(prec) for s in expand(E, P, prec)]
            assert (xs, ys) == tuple(fresh) and xs.hi == ys.hi == prec
        assert solves == [15, 30, 60]


def test_expansion_valuations_at_infinity():
    E = rational_model()
    x = FuncElem.x_function(E)
    y = FuncElem.y_function(E)
    assert x.valuation_at(E.infinity) == -2
    assert y.valuation_at(E.infinity) == -3
    assert (x * y).valuation_at(E.infinity) == -5
    assert FuncElem.one(E).valuation_at(E.infinity) == 0


def test_expansion_multiplicativity():
    # val(fg) = val(f) + val(g) and the series of fg equals series product
    E = rational_model()
    x = FuncElem.x_function(E)
    y = FuncElem.y_function(E)
    P = E.point(0, 1)
    rng = random.Random(3)
    fns = [x, y, x * y - FuncElem.one(E), (y - FuncElem.one(E)) / x]
    for _ in range(6):
        f = fns[rng.randrange(len(fns))]
        g = fns[rng.randrange(len(fns))]
        for Q in (P, E.infinity):
            vf, vg = f.valuation_at(Q), g.valuation_at(Q)
            prod = f * g
            if prod.is_zero():
                continue
            assert prod.valuation_at(Q) == vf + vg
            sf, sg, sp = f.expand(Q, 6), g.expand(Q, 6), prod.expand(Q, 6)
            direct = sf * sg
            for e in range(sp.valuation(), min(direct.hi, sp.hi)):
                assert direct.coefficient(e) == sp.coefficient(e)


def test_pair_function_divisor_shape():
    # div(h) = (P) + (Q) - (P+Q) - (inf): check all four valuations.
    E = rational_model()
    P, Q = E.point(0, 1), E.point(1, 1)
    h = pair_function(P, Q)
    R = P + Q
    assert h.valuation_at(P) == 1
    assert h.valuation_at(Q) == 1
    assert h.valuation_at(R) == -1
    assert h.valuation_at(E.infinity) == -1
    # doubling branch: div = 2(P) - (2P) - (inf)
    h2 = pair_function(P, P)
    assert h2.valuation_at(P) == 2
    assert h2.valuation_at(2 * P) == -1
    assert h2.valuation_at(E.infinity) == -1
    # inverse pair: vertical line with a double pole at infinity
    h3 = pair_function(P, -P)
    assert h3.valuation_at(P) == 1
    assert h3.valuation_at(-P) == 1
    assert h3.valuation_at(E.infinity) == -2
    assert pair_function(P, E.infinity) == FuncElem.one(E)


def test_linear_combination_and_independence():
    E = rational_model()
    x = FuncElem.x_function(E)
    y = FuncElem.y_function(E)
    one = FuncElem.one(E)
    assert linearly_independent([one, x, y])
    assert not linearly_independent([x, x])
    assert not linearly_independent([one, x, x + one])
    assert linearly_independent([])


# -- pole order at infinity from numerator degrees -------------------------------

_DEGREE_CURVES = {
    "QQ": rational_model(),
    "F9": WeierstrassCurve(make_extension_field(3, 2), 0, 0, 0, -1, 1),
    "F16": WeierstrassCurve(make_extension_field(2, 4), 1, 0, 0, 0, 1),  # a1 != 0
}


def _raw_poly(field, ints):
    if field is QQ:
        return [Fraction(n) for n in ints]
    return [field.from_packed(n % field.q) for n in ints]


def _closed_form_valuation(a, b, d):
    # v(x^i) = -2i and v(x^i y) = -2i - 3 never coincide, so the leading
    # monomials of a and b y cannot cancel
    terms = []
    if a:
        terms.append(-2 * (len(a) - 1))
    if b:
        terms.append(-2 * (len(b) - 1) - 3)
    return min(terms) + 2 * (len(d) - 1)


_coeffs = st.lists(st.integers(-4, 15), max_size=5)


@pytest.mark.parametrize("name", list(_DEGREE_CURVES))
@settings(derandomize=True, max_examples=40, deadline=None)
@given(a=_coeffs, b=_coeffs, d=_coeffs)
def test_valuation_at_infinity_from_numerator_degrees(name, a, b, d):
    E = _DEGREE_CURVES[name]
    field = E.field
    a, b, d = (poly.trim(field, _raw_poly(field, c)) for c in (a, b, d))
    assume((a or b) and d)
    fn = FuncElem(E, a, b, d, reduce=False)
    assert fn.expand(E.infinity, 4).valuation() == _closed_form_valuation(a, b, d)


# -- arithmetic against evaluation at points ----------------------------------------

_EVAL_CURVES = {
    "QQ": rational_model(),
    "F9": WeierstrassCurve(make_extension_field(3, 2), 0, 0, 0, -1, 1),
    "F1000003": WeierstrassCurve(make_extension_field(1000003), 0, 0, 0, -1, 1),
    "F256": WeierstrassCurve(make_extension_field(2, 8), 1, 0, 0, 0, 1),
}
# affine points of y^2 = x^3 - x + 1 over Q
_QQ_POINTS = [(0, 1), (1, -1), (-1, 1), (3, 5), (5, -11), (56, 419),
              (Fraction(1, 4), Fraction(7, 8))]


def _value(field, a, b, d, P):
    """(a(x) + b(x) y) / d(x) at P by Horner, or None where d(x) vanishes."""
    def at_x(c):
        acc = field.zero
        for coeff in reversed(c):
            acc = field.add(field.mul(acc, P.x.raw), coeff)
        return acc
    den = at_x(d)
    if field.is_zero(den):
        return None
    return field.div(field.add(at_x(a), field.mul(at_x(b), P.y.raw)), den)


@pytest.mark.parametrize("name", list(_EVAL_CURVES))
@settings(derandomize=True, max_examples=30, deadline=None)
@given(f=st.tuples(_coeffs, _coeffs, _coeffs), g=st.tuples(_coeffs, _coeffs, _coeffs),
       seed=st.integers(0, 2 ** 32))
def test_arithmetic_agrees_with_evaluation(name, f, g, seed):
    # (f + g)(P) = f(P) + g(P), (f g)(P) = f(P) g(P) and f^-1(P) = 1 / f(P)
    # at an affine point P off the denominators of f and g
    E = _EVAL_CURVES[name]
    field = E.field
    f, g = ([poly.trim(field, _raw_poly(field, c)) for c in h] for h in (f, g))
    assume(f[2] and g[2])
    rng = random.Random(seed)
    P = (E.point(*rng.choice(_QQ_POINTS)) if field is QQ
         else E.random_point(rng))
    fv, gv = _value(field, *f, P), _value(field, *g, P)
    assume(fv is not None and gv is not None)
    F, G = FuncElem(E, *f), FuncElem(E, *g)
    assert (F + G).evaluate(P).raw == field.add(fv, gv)
    assert (F * G).evaluate(P).raw == field.mul(fv, gv)
    if not field.is_zero(fv):
        assert F.inverse().evaluate(P).raw == field.inv(fv)


# -- n-ary sums against the pairwise sum ----------------------------------------------

_COMBINATION_CURVES = {
    "QQ": rational_model,
    "F9": lambda: WeierstrassCurve(make_extension_field(3, 2), 0, 0, 0, -1, 1),
    "F101": lambda: WeierstrassCurve(make_extension_field(101), 0, 0, 0, -1, 1),
    "F16": lambda: WeierstrassCurve(make_extension_field(2, 4), 1, 0, 0, 0, 1),
}


@functools.lru_cache(maxsize=None)
def _combination_pool(name):
    """The curve and nonzero functions to combine: the components of small
    h0 sections (denominators 1 and x - x_q) and pair functions, their
    products and a quotient (other denominators)."""
    E = _COMBINATION_CURVES[name]()
    surf = make_surface(E, E.point(0, 1))
    funcs = [c for level in (1, 2) for twisted in (False, True)
             for sec in surf.h0(level, twisted=twisted).sections
             for c in sec.components]
    if E.field is QQ:
        pts = [E.point(*xy) for xy in ((1, -1), (-1, 1), (3, 5), (5, -11))]
    else:
        rng = random.Random(0)
        pts = [E.random_point(rng) for _ in range(4)]
    pairs = [pair_function(P, Q) for P, Q in zip(pts, pts[1:])]
    funcs += pairs + [pairs[0] * pairs[1], pairs[0] / pairs[2]]
    return E, [fn for fn in funcs if fn]


def _raw(field, n):
    return field.from_int(n) if field is QQ else field.from_packed(n % field.q)


def _pairwise_sum(E, coeffs, funcs):
    out = FuncElem.zero(E)
    for c, fn in zip(coeffs, funcs):
        out = out + fn * FieldElem(E.field, c)
    return out


@pytest.mark.parametrize("name", list(_COMBINATION_CURVES))
@settings(derandomize=True, max_examples=40, deadline=None)
@given(terms=st.lists(st.tuples(st.integers(-3, 20), st.integers(-1, 10 ** 6)),
                      max_size=6),
       cancel=st.integers(-1, 10 ** 6))
def test_combination_equals_the_pairwise_sum(name, terms, cancel):
    # index -1 draws the zero function, coefficient 0 a zero term; cancel
    # appends f and (-1) f for one pool function f
    E, pool = _combination_pool(name)
    field = E.field
    coeffs = [_raw(field, c) for c, _ in terms]
    funcs = [FuncElem.zero(E) if i < 0 else pool[i % len(pool)] for _, i in terms]
    if cancel >= 0:
        coeffs += [field.one, field.neg(field.one)]
        funcs += [pool[cancel % len(pool)]] * 2
    got = combination(E, coeffs, funcs)
    assert got == _pairwise_sum(E, coeffs, funcs)
    if got.is_zero():
        assert got == FuncElem.zero(E)


@pytest.mark.parametrize("name", list(_COMBINATION_CURVES))
def test_combination_zero_cases(name):
    E, pool = _combination_pool(name)
    field = E.field
    zero, one = FuncElem.zero(E), field.one
    assert combination(E, [], []) == zero
    assert combination(E, [field.zero] * len(pool), pool) == zero
    assert combination(E, [one] * 3, [zero] * 3) == zero
    for fn in pool:
        assert combination(E, [one, field.neg(one)], [fn, fn]) == zero
        assert combination(E, [one], [fn]) == fn
