import collections
import functools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from atiyahlab import funcfield, poly
from atiyahlab.curve import CurvePoint, Divisor, WeierstrassCurve
from atiyahlab.fat_points import FatPoint, max_multiplicity, min_level
from atiyahlab.fields import QQ, FieldElem, make_extension_field
from atiyahlab.funcfield import (
    FuncElem,
    combination,
    linearly_independent,
    pair_function,
)
from atiyahlab.riemann_roch import rr_basis
from atiyahlab.series import LaurentSeries
from atiyahlab.surface import SectionVector, make_surface
from oracles import expand_horner, point_expansion, precision_past_valuation


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
    return LaurentSeries.constant(curve.field, c, min(xs.hi, ys.hi))


# y^2 + a1 x y + a3 y = x^3 + a2 x^2 + a4 x + a6 with, over Q, the affine
# points to expand at (over a finite field every point is taken) and whether
# a ramified point is among them.  The long forms have a1, a2 and a3 all
# nonzero; over F_16 the text "2" and "3" name the packed elements z and
# z + 1.
_EXPANSION_MODELS = {
    "QQ": (QQ, (1, -1, 1, -2, 0),           # y^2 + xy + y = x^3 - x^2 - 2x
           [(-1, 0), (0, -1), (2, -3), (3, 2)], True),
    "F25": (make_extension_field(5, 2), (1, 2, 3, 4, 1), None, True),
    "F9": (make_extension_field(3, 2), (1, 1, 1, 1, 1), None, True),
    "F16": (make_extension_field(2, 4), ("1", "2", "1", "3", "1"), None, True),
    "QQ-short": (QQ, (0, 0, 0, -1, 1), [(0, 1), (1, -1)], False),
    "F9-short": (make_extension_field(3, 2), (0, 0, 0, -1, 1), None, False),
    "F4-char2": (make_extension_field(2, 2), (1, 0, 0, 0, 1), None, True),
}


@pytest.mark.parametrize("name", list(_EXPANSION_MODELS))
def test_point_expansion_satisfies_long_form_equation(name):
    # the curve equation through the shared window, at every affine point
    # (ramified ones included) and at infinity, with the chart's known
    # coordinate exact and the solved one's constant term right: by Hensel
    # that pins the Newton root, which the doubling horizons 2, 4, ... must
    # reach at a horizon that is no power of two as well
    field, a, qq_points, has_ramified = _EXPANSION_MODELS[name]
    E = WeierstrassCurve(field, *a)
    if qq_points is None:
        pts = E.points()
    else:
        pts = [E.point(*xy) for xy in qq_points] + [E.infinity]
    a1, a2, a3, a4, a6 = (c.raw for c in (E.a1, E.a2, E.a3, E.a4, E.a6))
    ramified = 0
    for P in pts:
        for prec in (10, 37):
            xs, ys = point_expansion(E, P, prec)
            one = series_const(E, field.one, xs, ys)
            lhs = ys * ys + (xs * ys).scale(a1) + ys.scale(a3)
            rhs = xs * xs * xs + (xs * xs).scale(a2) + xs.scale(a4) + one.scale(a6)
            assert (lhs - rhs).is_zero_to_precision(), P
            assert xs.hi == ys.hi == prec
            t = LaurentSeries.t_power(field, 1, prec + 4)
            if P.is_infinity:           # t = x/y: x = t^-2 + ..., y = t^-3 + ...
                assert (xs.valuation(), ys.valuation()) == (-2, -3)
                assert xs.coefficient(-2) == ys.coefficient(-3) == field.one
                assert xs == (t * ys).truncate(prec)
            elif 2 * P.y + E.a1 * P.x + E.a3:   # t = x - x_P
                assert xs == (t + series_const(E, P.x.raw, xs, ys)).truncate(prec)
                assert ys.coefficient(0) == P.y.raw
            else:                       # ramified, t = y - y_P
                ramified += prec == 10
                assert ys == (t + series_const(E, P.y.raw, xs, ys)).truncate(prec)
                assert xs.coefficient(0) == P.x.raw
    assert (ramified >= 1) == has_ramified


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


def test_newton_solves_of_the_fat_point_and_ladder_sequences(monkeypatch):
    # one doubling rule per point: the fat-point searches of the fat-qq
    # benchmark solve at their base only at 9 and 18, and a fresh surface
    # with the rational h0 ladder 4..16 solves at infinity at 11, 22, 44
    solves = collections.defaultdict(list)
    expand = funcfield._expand_uncached

    def counting(curve, P, H):
        solves[P].append(H)
        return expand(curve, P, H)

    monkeypatch.setattr(funcfield, "_expand_uncached", counting)
    E = rational_model()
    surf = make_surface(E, E.point(0, 1), T=E.point(-1, 1))
    fp = FatPoint(E.point(1, 1), Fraction(2), 1)
    for m in range(1, 5):
        min_level(surf, m, fp)
    for level in (3, 6, 10):
        max_multiplicity(surf, level, fp)
    assert solves[fp.base] == [9, 18]
    solves.clear()
    E = rational_model()
    surf = make_surface(E, E.point(0, 1), T=E.point(-1, 1))
    for level in (4, 8, 12, 16):
        for twisted in (True, False):
            surf.h0(level, twisted=twisted)
    assert solves[E.infinity] == [11, 22, 44]


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


# -- expansion against the Horner oracle -----------------------------------------

_ORACLE_CURVES = {
    "QQ": lambda: WeierstrassCurve(QQ, 0, 0, 0, 0, 1),      # (-1, 0) ramified
    "F9": lambda: WeierstrassCurve(make_extension_field(3, 2), 0, 0, 0, -1, 0),
    "F101": lambda: WeierstrassCurve(make_extension_field(101), 0, 0, 0, -1, 0),
    "F16": lambda: WeierstrassCurve(make_extension_field(2, 4), 1, 0, 0, 0, 1),
}


@functools.lru_cache(maxsize=None)
def _oracle_pool(name):
    """The curve, the points to expand at (infinity, the marked fiber point
    q, where twisted components have a simple pole, an unramified and a
    ramified affine point) and the functions: h0 section components, pair
    functions, and powers that cancel to a high valuation at each point."""
    E = _ORACLE_CURVES[name]()
    affine = ([E.point(*xy) for xy in ((0, 1), (2, 3), (-1, 0))]
              if E.field is QQ else E.points()[1:])
    unramified = [P for P in affine if 2 * P.y + E.a1 * P.x + E.a3]
    ramified = [P for P in affine if not 2 * P.y + E.a1 * P.x + E.a3]
    q = unramified[0]
    surf = make_surface(E, q)
    other = next(P for P in unramified if P not in (q, -q, surf.T))
    pts = [E.infinity, q, other, ramified[0]]
    funcs = [c for level in (1, 2, 3) for twisted in (False, True)
             for sec in surf.h0(level, twisted=twisted).sections
             for c in sec.components if c]
    funcs += [pair_function(P, Q) for P in pts[1:] for Q in pts[1:]]
    x = FuncElem.x_function(E)
    for P in pts[1:]:
        funcs += [pair_function(P, P) ** 3, (x - FuncElem.constant(E, P.x)) ** 5]
    return E, pts, funcs


@pytest.mark.parametrize("name", list(_ORACLE_CURVES))
@settings(derandomize=True, max_examples=60, deadline=None)
@given(i=st.integers(0, 10 ** 6), j=st.integers(0, 3), prec=st.integers(1, 24))
def test_expand_matches_the_horner_oracle(name, i, j, prec):
    # the table's scalar combination gives the Horner coefficients on the
    # common window, with prec of them past the valuation
    E, pts, funcs = _oracle_pool(name)
    fn, P = funcs[i % len(funcs)], pts[j]
    got, want = fn.expand(P, prec), expand_horner(fn, P, prec)
    assert precision_past_valuation(got) >= prec
    assert got.valuation() == want.valuation()
    lo, hi = min(got.start, want.start), min(got.hi, want.hi)
    assert ([got.coefficient(e) for e in range(lo, hi)]
            == [want.coefficient(e) for e in range(lo, hi)])


@pytest.mark.parametrize("name", list(_ORACLE_CURVES))
@settings(derandomize=True, max_examples=25, deadline=None)
@given(requests=st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 3),
                                   st.integers(1, 24)), min_size=1, max_size=8))
def test_expand_on_a_warm_curve_matches_a_cold_one(name, requests):
    # expand is a function of (f, P, prec) alone: on the pool's curve, warm
    # from its h0 solves and every request before, each answer has the
    # window [start, v + prec) and the coefficients of the same request on
    # a copy of the curve with no charts
    E, pts, funcs = _oracle_pool(name)
    for i, j, prec in requests:
        fn, P = funcs[i % len(funcs)], pts[j]
        got = fn.expand(P, prec)
        cold = _ORACLE_CURVES[name]()
        fresh = FuncElem(cold, fn.a, fn.b, fn.d, reduce=False)
        want = fresh.expand(cold.infinity if P.is_infinity
                            else cold.point(P.x, P.y), prec)
        assert ((got.start, got.hi, got.coeffs)
                == (want.start, want.hi, want.coeffs))
        assert got.hi == got.valuation() + prec


def test_twisted_ladder_keeps_one_chart_per_point(monkeypatch):
    # every twisted component has the denominator d_h of the one-pole
    # function (or 1); a ladder keeps one chart per point, keyed by its raw
    # coordinates (None at infinity), replaced only when a request outgrows
    # it, at least twice as far each time, and the d_h lists of the charts
    # at infinity serve one expansion per d_h
    # component of the nine distinct sections (each validated once);
    # validate reads the pole at q off the canonical form, so no chart is
    # built there
    charts = collections.defaultdict(list)      # point -> charts built there
    uses = collections.Counter()                # (chart, d) -> combinations
    init, combine = funcfield._Chart.__init__, funcfield._Chart.combine

    def building(chart, curve, P, H):
        init(chart, curve, P, H)
        charts[P].append(chart)

    def combining(chart, a, b, d, cap):
        uses[id(chart), tuple(d)] += 1
        return combine(chart, a, b, d, cap)

    monkeypatch.setattr(funcfield._Chart, "__init__", building)
    monkeypatch.setattr(funcfield._Chart, "combine", combining)
    E = rational_model()
    surf = make_surface(E, E.point(0, 1), T=E.point(-1, 1))
    for level in range(1, 9):
        surf.h0(level, twisted=True)
    keys = {P: None if P.is_infinity else (P.x.raw, P.y.raw) for P in charts}
    assert set(E._expansion_cache) == set(keys.values())
    assert not any(isinstance(key, CurvePoint) for key in E._expansion_cache)
    assert all(E._expansion_cache[keys[P]] is built[-1]
               for P, built in charts.items())
    for built in charts.values():
        hs = [chart.H for chart in built]
        assert all(b >= 2 * a for a, b in zip(hs, hs[1:])), hs
    assert surf.q not in charts
    d_h = surf.one_pole_function.d
    counts = [uses[id(chart), tuple(d_h)] for chart in charts[E.infinity]
              if uses[id(chart), tuple(d_h)]]
    want = sum(1 for sec in surf.h0(8, twisted=True).sections
               for c in sec.components if c and c.d == d_h)
    assert sum(counts) == want > 3 * len(counts), counts


# -- over Q, integral coefficients stay ints -----------------------------------

# rational points of y^2 = x^3 - x + 1, two of them with x = 1/4
RATIONAL_POINTS = [(0, 1), (-1, 1), (1, -1), (3, 5),
                   (Fraction(1, 4), Fraction(7, 8)),
                   (Fraction(1, 4), Fraction(-7, 8))]


def _integral_fractions(fn):
    """The coefficients of fn held as a Fraction with denominator 1."""
    return [c for part in (fn.a, fn.b, fn.d) for c in part
            if isinstance(c, Fraction) and c.denominator == 1]


def _rational_coefficients(rng, n):
    # QQ.div gives ints when integral, as every raw value over Q must be
    return [QQ.div(rng.randrange(-9, 10), rng.randrange(1, 7))
            for _ in range(n)]


@functools.cache
def _surface_over_q(q, T):
    E = rational_model()
    return make_surface(E, E.point(*q), T=E.point(*T))


@settings(derandomize=True, max_examples=16, deadline=None)
@given(q=st.sampled_from(RATIONAL_POINTS), T=st.sampled_from(RATIONAL_POINTS),
       level=st.integers(0, 20), twisted=st.booleans(),
       seed=st.integers(0, 2**16))
@example(q=(0, 1), T=(-1, 1), level=20, twisted=True, seed=0)
@example(q=(0, 1), T=(-1, 1), level=20, twisted=False, seed=0)
@example(q=RATIONAL_POINTS[4], T=(-1, 1), level=20, twisted=True, seed=1)
@example(q=(0, 1), T=RATIONAL_POINTS[5], level=20, twisted=False, seed=2)
def test_reduced_functions_over_q_hold_no_integral_fraction(q, T, level,
                                                            twisted, seed):
    # the h0 sections, a combination of their components with rational
    # coefficients, and section products: every reduced FuncElem keeps its
    # integral coefficients as ints
    assume(q != T)
    surf = _surface_over_q(q, T)
    E, rng = surf.curve, random.Random(seed)
    sections = surf.h0(level, twisted).sections
    comps = [c for sec in sections for c in sec.components if c]
    assert not [c for fn in comps for c in _integral_fractions(fn)]
    mixed = combination(E, _rational_coefficients(rng, len(comps)), comps)
    assert not _integral_fractions(mixed)
    sec = rng.choice(sections)
    view = SectionVector(surf, sec.level, False, sec.components)
    for prod in (sec * surf.h0(2, False).sections[0], view * view):
        assert not [c for fn in prod.components
                    for c in _integral_fractions(fn)]


@pytest.mark.parametrize("T", [(-1, 1), (Fraction(1, 4), Fraction(7, 8))])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_rr_basis_over_q_holds_no_integral_fraction(T, k):
    E = rational_model()
    basis = rr_basis(E, Divisor(E, {E.point(*T): k})).basis
    assert not [c for fn in basis for c in _integral_fractions(fn)]
    mixed = combination(E, _rational_coefficients(random.Random(k), len(basis)),
                        basis)
    assert not _integral_fractions(mixed)


def test_charts_over_q_hold_no_integral_fraction():
    # x(t) and y(t) leave the Newton solve with integral Fractions unless
    # normalized; a chart then spreads them into its lists x^i/d, x^i y/d
    E = rational_model()
    surf = make_surface(E, E.point(0, 1), T=E.point(-1, 1))
    for twisted in (True, False):
        surf.h0(12, twisted)
    series = [s for chart in E._expansion_cache.values()
              for s in [chart.xs, chart.ys] + [s for lists in chart.over_d.values()
                                              for part in lists for s in part]]
    coeffs = [c for s in series for c in s.coeffs]
    assert len(coeffs) > 1000
    assert not [c for c in coeffs
                if isinstance(c, Fraction) and c.denominator == 1]
