import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from atiyahlab.errors import SeriesPrecisionError
from atiyahlab.fields import QQ, make_extension_field
from atiyahlab import series
from atiyahlab.series import LaurentSeries, eval_poly


def series_from_fracs(pairs, hi):
    """Helper: series over Q from {exponent: value} pairs."""
    if not pairs:
        return LaurentSeries.zero(QQ, hi)
    start = min(pairs)
    coeffs = [Fraction(pairs.get(e, 0)) for e in range(start, hi)]
    return LaurentSeries(QQ, start, coeffs, hi)


def test_constructors_and_coefficients():
    s = LaurentSeries.t_power(QQ, -2, 5)
    assert s.valuation() == -2
    assert s.coefficient(-2) == 1
    assert s.coefficient(0) == 0
    assert s.coefficient(-10) == 0       # below start: known zero
    with pytest.raises(SeriesPrecisionError):
        s.coefficient(5)                 # at/after horizon: unknown
    assert LaurentSeries.zero(QQ, 4).is_zero_to_precision()


def test_window_mismatch_rejected():
    with pytest.raises(ValueError):
        LaurentSeries(QQ, 0, [Fraction(1)], hi=3)


def test_addition_keeps_sharp_horizon():
    a = series_from_fracs({0: 1, 1: 2}, hi=5)
    b = series_from_fracs({1: -2, 3: 7}, hi=4)
    c = a + b
    assert c.hi == 4
    assert c.coefficient(0) == 1
    assert c.coefficient(1) == 0
    assert c.coefficient(3) == 7
    d = a - a
    assert d.is_zero_to_precision()


def test_multiplication_horizon_is_sound_and_sharp():
    # hi(a*b) = min(val(a)+hi(b), val(b)+hi(a)) for known-valuation operands
    a = series_from_fracs({-1: 1, 0: 1}, hi=4)        # val -1, hi 4
    b = series_from_fracs({2: 3}, hi=6)               # val 2, hi 6
    c = a * b
    assert c.hi == min(-1 + 6, 2 + 4)
    assert c.coefficient(1) == 3
    assert c.coefficient(2) == 3


def test_multiplication_values():
    # (1 + t)(1 - t) = 1 - t^2
    a = series_from_fracs({0: 1, 1: 1}, hi=8)
    b = series_from_fracs({0: 1, 1: -1}, hi=8)
    c = a * b
    assert c.coefficient(0) == 1
    assert c.coefficient(1) == 0
    assert c.coefficient(2) == -1


def test_geometric_inverse():
    # 1/(1 - t) = 1 + t + t^2 + ...
    s = series_from_fracs({0: 1, 1: -1}, hi=10)
    inv = s.inverse()
    for e in range(inv.hi):
        assert inv.coefficient(e) == 1
    prod = s * inv
    assert prod.coefficient(0) == 1
    for e in range(1, prod.hi):
        assert prod.coefficient(e) == 0


def test_inverse_of_nonunit_valuation():
    # 1/t^2(1+t): valuation must become -2
    s = series_from_fracs({2: 1, 3: 1}, hi=9)
    inv = s.inverse()
    assert inv.valuation() == -2
    prod = s * inv
    assert prod.coefficient(0) == 1


def test_inverse_requires_known_valuation():
    with pytest.raises((SeriesPrecisionError, ZeroDivisionError)):
        LaurentSeries.zero(QQ, 5).inverse()


def test_division_roundtrip_random():
    rng = random.Random(5)
    F = make_extension_field(7)
    for _ in range(20):
        v1, v2 = rng.randrange(-3, 3), rng.randrange(-3, 3)
        a = LaurentSeries(F, v1, [F.from_int(rng.randrange(1, 7))]
                          + [F.from_int(rng.randrange(7)) for _ in range(6)], v1 + 7)
        b = LaurentSeries(F, v2, [F.from_int(rng.randrange(1, 7))]
                          + [F.from_int(rng.randrange(7)) for _ in range(6)], v2 + 7)
        q = a * b.inverse()
        back = q * b
        for e in range(max(back.start, a.start), back.hi):
            assert back.coefficient(e) == a.coefficient(e)


def test_scale_truncate():
    s = series_from_fracs({0: 1, 2: 5}, hi=6)
    sc = s.scale(Fraction(2))
    assert sc.coefficient(2) == 10
    tr = s.truncate(2)
    assert tr.hi == 2
    with pytest.raises(SeriesPrecisionError):
        tr.coefficient(2)


def test_equality_on_shared_window():
    a = series_from_fracs({1: 4}, hi=5)
    b = series_from_fracs({1: 4, 5: 9}, hi=6)    # differs only beyond a's horizon
    assert a == b.truncate(5)


def test_eval_poly_matches_direct_expansion():
    # p(z) = z^2 - z + 2 evaluated at s = t^-1 + 1
    s = series_from_fracs({-1: 1, 0: 1}, hi=5)
    out = eval_poly(QQ, [Fraction(2), Fraction(-1), Fraction(1)], s)
    # (t^-1 + 1)^2 - (t^-1 + 1) + 2 = t^-2 + t^-1 + 2
    assert out.coefficient(-2) == 1
    assert out.coefficient(-1) == 1
    assert out.coefficient(0) == 2
    assert out.coefficient(1) == 0
    # a series coefficient: s - s + s^2 = t^-2 + 2 t^-1 + 1
    out = eval_poly(QQ, [s, Fraction(-1), Fraction(1)], s)
    assert [out.coefficient(e) for e in range(-2, 2)] == [1, 2, 1, 0]


def test_eval_poly_empty_and_constant():
    s = series_from_fracs({1: 3}, hi=4)
    assert eval_poly(QQ, [], s).is_zero_to_precision()
    c = eval_poly(QQ, [Fraction(9)], s)
    assert c.coefficient(0) == 9


def test_mixed_field_rejected():
    a = LaurentSeries.constant(QQ, 1, 3)
    b = LaurentSeries.constant(make_extension_field(5), 1, 3)
    with pytest.raises(ValueError):
        _ = a + b


# -- horizons against exact products (Laurent polynomials) ----------------------

_HORIZON_FIELDS = {"QQ": QQ, "F7": make_extension_field(7), "F9": make_extension_field(3, 2)}


def _elem(field, c):
    return Fraction(c) if field is QQ else field.from_packed(c % field.q)


def _laurent(field, start, cs):
    """Exact Laurent polynomial {exponent: raw coefficient}, zeros dropped."""
    out = {}
    for i, c in enumerate(cs):
        raw = _elem(field, c)
        if not field.is_zero(raw):
            out[start + i] = raw
    return out


def _truncation(field, exact, hi):
    lo = min([*exact, hi])
    return LaurentSeries(field, lo, [exact.get(e, field.zero) for e in range(lo, hi)], hi)


def _product(field, p1, p2):
    out = {}
    for e1, c1 in p1.items():
        for e2, c2 in p2.items():
            out[e1 + e2] = field.add(out.get(e1 + e2, field.zero), field.mul(c1, c2))
    return out


@pytest.mark.parametrize("name", list(_HORIZON_FIELDS))
@settings(derandomize=True, max_examples=80, deadline=None)
@given(s1=st.integers(-5, 3), c1=st.lists(st.integers(-9, 9), max_size=7),
       cut1=st.integers(-3, 9), s2=st.integers(-5, 3),
       c2=st.lists(st.integers(-9, 9), max_size=7), cut2=st.integers(-3, 9))
def test_truncated_product_is_exact_below_its_horizon(name, s1, c1, cut1, s2, c2, cut2):
    # the truncations may hide every coefficient or none; whatever the
    # window, each coefficient below the computed hi is the exact one
    field = _HORIZON_FIELDS[name]
    p1, p2 = _laurent(field, s1, c1), _laurent(field, s2, c2)
    a, b = _truncation(field, p1, s1 + cut1), _truncation(field, p2, s2 + cut2)
    exact = _product(field, p1, p2)
    prod = a * b
    assert prod.hi >= min(a.hi + b._val_eff(), b.hi + a._val_eff())
    for e in range(min([*exact, prod.hi]) - 1, prod.hi):
        assert prod.coefficient(e) == exact.get(e, field.zero)
    total = a + b
    for e in range(min([*p1, *p2, total.hi]) - 1, total.hi):
        want = field.add(p1.get(e, field.zero), p2.get(e, field.zero))
        assert total.coefficient(e) == want


@pytest.mark.parametrize("name", list(_HORIZON_FIELDS))
@settings(derandomize=True, max_examples=80, deadline=None)
@given(start=st.integers(-5, 3), lead=st.integers(1, 6),
       cs=st.lists(st.integers(-9, 9), max_size=6), cut=st.integers(1, 9))
def test_inverse_round_trip_and_soundness(name, start, lead, cs, cut):
    field = _HORIZON_FIELDS[name]
    exact = _laurent(field, start, [lead, *cs])
    a = _truncation(field, exact, start + cut)
    inv = a.inverse()
    assert inv.valuation() == -start
    back = inv * a
    for e in range(-1, back.hi):
        assert back.coefficient(e) == (field.one if e == 0 else field.zero)
    # the known window of the inverse holds the exact inverse's coefficients
    far = _truncation(field, exact, start + 40).inverse()
    for e in range(-start, inv.hi):
        assert inv.coefficient(e) == far.coefficient(e)


def test_truncate_below_start_is_zero():
    s = series_from_fracs({3: 1, 4: 2}, hi=6)
    tr = s.truncate(1)
    assert tr.hi == 1 and tr.is_zero_to_precision()
    assert tr.coefficient(0) == 0


# -- the Kronecker product over Q against the schoolbook loop -------------------

_INTS = st.one_of(st.integers(-9, 9), st.just(0),
                  st.integers(-2 ** 200, 2 ** 200),
                  st.sampled_from([2 ** 200, -2 ** 200, 2 ** 63 - 1, -2 ** 63]))


_K = series.KRONECKER_MIN


@settings(derandomize=True, max_examples=300, deadline=None)
@given(s1=st.integers(-6, 4), c1=st.lists(_INTS, min_size=1, max_size=2 * _K + 2),
       cut1=st.integers(0, 2 * _K + 4), s2=st.integers(-6, 4),
       c2=st.lists(_INTS, min_size=1, max_size=2 * _K + 2),
       cut2=st.integers(0, 2 * _K + 4))
@example(s1=0, c1=[-3] * (_K - 1), cut1=_K - 1, s2=1, c2=[2 ** 200] * _K, cut2=_K)
@example(s1=-2, c1=[5, -2 ** 70] * _K, cut1=_K, s2=0, c2=[7] * _K, cut2=_K)
@example(s1=0, c1=[1] * (_K + 1), cut1=_K + 1, s2=0, c2=[-1] * (_K - 1), cut2=_K)
def test_kronecker_product_equals_the_schoolbook_loop(s1, c1, cut1, s2, c2, cut2):
    # int windows of any sign and size, zero entries (leading ones too),
    # length-1 factors, lengths on both sides of KRONECKER_MIN and unequal
    # starts and horizons: the product (one big-int product from
    # KRONECKER_MIN on) gives the window, the coefficients and the int type
    # of the schoolbook loop, which Fraction entries force
    a = LaurentSeries(QQ, s1, c1, s1 + len(c1)).truncate(s1 + cut1)
    b = LaurentSeries(QQ, s2, c2, s2 + len(c2)).truncate(s2 + cut2)
    got = a * b
    want = (LaurentSeries(QQ, a.start, map(Fraction, a.coeffs), a.hi)
            * LaurentSeries(QQ, b.start, map(Fraction, b.coeffs), b.hi))
    assert (got.start, got.hi, got.coeffs) == (want.start, want.hi, want.coeffs)
    assert all(type(c) is int for c in got.coeffs)
    assert series._kronecker(c1, c2) == series._schoolbook(
        QQ, c1, c2, len(c1) + len(c2) - 1)


@pytest.mark.parametrize("n1,n2", [(1, 1), (_K - 1, _K - 1), (_K - 1, 3 * _K),
                                   (3 * _K, _K - 1), (_K, _K), (_K, 3 * _K),
                                   (2 * _K, 2 * _K)])
def test_kronecker_takes_int_products_from_the_length_cutoff(n1, n2, monkeypatch):
    # the product of windows cut to min(n1, n2) goes to _kronecker exactly
    # when that length reaches KRONECKER_MIN, with the same coefficients
    calls = []
    kronecker = series._kronecker

    def counting(xs, ys):
        calls.append((len(xs), len(ys)))
        return kronecker(xs, ys)

    monkeypatch.setattr(series, "_kronecker", counting)
    rng = random.Random(n1 * 100 + n2)
    a = LaurentSeries(QQ, -1, [rng.randrange(-2 ** 80, 2 ** 80) for _ in range(n1)])
    b = LaurentSeries(QQ, 2, [rng.randrange(-9, 10) or 1 for _ in range(n2)])
    got = a * b
    want = series._schoolbook(QQ, a.coeffs[:min(n1, n2)], b.coeffs[:min(n1, n2)],
                              min(n1, n2))
    assert (got.start, got.coeffs) == (1, want)
    assert calls == ([(min(n1, n2),) * 2] if min(n1, n2) >= _K else [])


def test_fraction_and_finite_field_products_take_the_schoolbook_loop(monkeypatch):
    def refuse(xs, ys):
        raise AssertionError("Kronecker product off the int path")

    monkeypatch.setattr(series, "_kronecker", refuse)
    pad = [0] * _K        # windows long enough for _kronecker, were they ints
    half = LaurentSeries(QQ, -1, [Fraction(1, 2), 3, -4] + pad)
    assert (half * half).coeffs[:6] == [Fraction(1, 4), 3, 5, -24, 16, 0]
    integral = LaurentSeries(QQ, 0, [Fraction(2), 5] + pad)   # a Fraction, integral
    assert (integral * integral).coeffs[:4] == [4, 20, 25, 0]
    for field in (make_extension_field(1000003), make_extension_field(3, 2),
                  make_extension_field(2, 8)):
        s = LaurentSeries(field, 0, [field.from_packed(c) for c in (1, 2, 3)]
                          + [field.zero] * _K)
        assert (s * s).coefficient(0) == field.one
