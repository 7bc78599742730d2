import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atiyahlab import poly
from atiyahlab.fields import (
    QQ,
    FieldElem,
    FiniteField,
    PolyField,
    PrimeField,
    TableField,
    _canonical_modulus,
    _is_irreducible,
    field_from_config,
    is_probable_prime,
    make_extension_field,
    solve_quadratic,
)
from atiyahlab import fields
from oracles import TupleField, tables_by_poly_mul, to_coeffs, unpack


def test_canonical_moduli_small():
    # The modulus is the lexicographically least monic irreducible, so these
    # coefficient tuples are stable oracles across runs and platforms.
    assert make_extension_field(2, 2).modulus == (1, 1, 1)
    assert make_extension_field(3, 2).modulus == (1, 0, 1)
    assert make_extension_field(5, 2).modulus == (2, 0, 1)


def _mobius(n: int) -> int:
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_irreducible_count_is_gauss_count(p):
    # every monic candidate of degree k, p^k <= 3000: Rabin's test accepts
    # exactly (1/k) sum_{d | k} mu(d) p^(k/d) of them
    k = 1
    while p ** k <= 3000:
        accepted = sum(_is_irreducible(p, unpack(p, k, v) + (1,))
                       for v in range(p ** k))
        gauss = sum(_mobius(d) * p ** (k // d)
                    for d in range(1, k + 1) if k % d == 0) // k
        assert accepted == gauss, (p, k)
        k += 1


# Recorded before the modulus search moved onto `poly`: the modulus fixes
# every packed value, and so every report byte over F_{p^k}.
PINNED_MODULI = {
    (3, 2): (1, 0, 1),
    (2, 8): (1, 1, 0, 1, 1, 0, 0, 0, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (2, 16): (1, 1, 0, 1, 0, 1) + (0,) * 10 + (1,),
    (3, 13): (1, 2) + (0,) * 11 + (1,),
    (2, 20): (1, 0, 0, 1) + (0,) * 16 + (1,),
    (2, 24): (1, 1, 0, 1, 1) + (0,) * 19 + (1,),
}


@pytest.mark.parametrize("p,k", sorted(PINNED_MODULI))
def test_canonical_moduli_pinned(p, k):
    assert _canonical_modulus(p, k) == PINNED_MODULI[p, k]
    assert make_extension_field(p, k).modulus == PINNED_MODULI[p, k]


def test_prime_field_basics():
    F = make_extension_field(7)
    assert F.p == 7 and F.k == 1 and F.q == 7
    a, b = F.elem(3), F.elem(5)
    assert a + b == 1
    assert a * b == 1
    assert a - b == 5
    assert a / b == 2          # 3 * 5^{-1} = 3 * 3 = 2
    assert -a == 4
    assert a ** 6 == 1 and a ** 0 == 1
    assert a ** -1 == 5        # 3 * 5 = 15 = 1 mod 7


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (3, 2), (5, 2), (2, 8)])
def test_field_axioms(p, k):
    F = make_extension_field(p, k)
    rng = random.Random(p * 100 + k)
    elems = [FieldElem(F, F.from_packed(i)) for i in range(min(F.q, 9))]
    elems.append(FieldElem(F, F.random(rng)))
    zero, one = F.elem(0), F.elem(1)
    for a in elems:
        for b in elems:
            assert a + b == b + a
            assert a * b == b * a
            assert a + zero == a
            assert a * one == a
            assert a - b == a + (-b)
            if not b.is_zero():
                assert (a / b) * b == a
    a, b, c = elems[0], elems[-1], elems[len(elems) // 2]
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_packed_roundtrip():
    for p, k in [(2, 2), (3, 2), (2, 8), (7, 1)]:
        F = make_extension_field(p, k)
        for i in range(min(F.q, 64)):
            assert F.to_packed(F.from_packed(i)) == i
    with pytest.raises(ValueError):
        make_extension_field(7).from_packed(7)


def test_parse_fractions():
    F = make_extension_field(7)
    assert F.elem("3/2") == F.elem(3) / F.elem(2)
    assert F.elem("-1") == -F.elem(1)
    assert QQ.elem("22/7").raw == Fraction(22, 7)
    with pytest.raises(ValueError):
        F.parse("1/7")        # denominator divisible by the characteristic


def test_parse_rejects_garbage():
    F = make_extension_field(5)
    with pytest.raises(ValueError):
        F.parse("x+1")
    with pytest.raises(ValueError):
        QQ.parse("")


def test_parse_reads_digits_as_packed_integers():
    F9 = make_extension_field(3, 2)
    assert to_coeffs(F9, F9.parse("5")) == (2, 1)       # 5 = 2 + 1*3: z + 2
    assert to_coeffs(F9, F9.parse(" 8 ")) == (2, 2)
    # other number text is a fraction reduced mod p, and ints reduce mod p
    assert F9.parse("-1") == F9.from_int(2)
    assert F9.parse("1/2") == F9.from_int(2)
    assert F9.parse(5) == F9.parse(Fraction(5)) == F9.from_int(2)


def test_parse_rejects_digits_past_the_extension_field():
    # over F_{p^k}, k >= 2, digits n >= p^k name no packed element; over F_p
    # they are still the integer n reduced mod p
    for F, text in ((make_extension_field(3, 2), "10"),
                    (make_extension_field(3, 2), "9"),
                    (make_extension_field(2, 8), "300"),
                    (make_extension_field(3, 13), str(3 ** 13))):
        with pytest.raises(ValueError, match="no packed element"):
            F.parse(text)
    F7 = make_extension_field(7)
    assert F7.parse("10") == F7.from_int(3)


def test_parse_rejects_text_with_two_readings():
    # over F_{p^k}, k >= 2, text other than plain digits is a fraction mod p,
    # so each run of digits in it must be below p: '8/1' would be 2 but '8'
    # is 2z + 2, and '+10' would be 1
    F9 = make_extension_field(3, 2)
    for text in ("8/1", "+10", "-5", "2/4", " +8 "):
        with pytest.raises(ValueError, match="every run of digits must be below 3"):
            F9.parse(text)
    assert F9.parse("-2/1") == F9.parse("-2") == F9.from_int(1)
    assert F9.parse(Fraction(8)) == F9.parse(-7) == F9.from_int(2)
    F121 = make_extension_field(11, 2)
    assert F121.parse("-10/7") == F121.from_int(-10 * pow(7, -1, 11))
    F7 = make_extension_field(7)
    assert F7.parse("-10/8") == F7.from_int(-10 * pow(8, -1, 7))


def test_parse_coefficient_lists():
    F9 = make_extension_field(3, 2)
    a = F9.elem([1, 2])       # 1 + 2z
    assert to_coeffs(F9, a.raw) == (1, 2)
    with pytest.raises(ValueError):
        F9.parse([1, 2, 1])   # too many coefficients


def test_cross_field_guard():
    F5 = make_extension_field(5)
    F7 = make_extension_field(7)
    with pytest.raises(ValueError):
        F5.elem(1) + F7.elem(1)
    a = F5.elem(2)
    assert F5.parse(a) == a.raw       # same-field FieldElem passes through
    with pytest.raises(ValueError):
        F5.parse(F7.elem(2))


def test_poly_mode_large_extension():
    # q = 2^21 is past the log-table threshold, exercising coefficient mode.
    F = make_extension_field(2, 21)
    assert F.q == 2 ** 21
    a = F.from_packed(123456)
    b = F.from_packed(789012)
    assert F.div(F.mul(a, b), b) == a
    assert F.pow(a, F.q - 1) == F.one
    assert F.to_packed(F.from_packed(54321)) == 54321


def test_solve_quadratic_all_characteristics():
    fields = [make_extension_field(7), make_extension_field(3, 2),
              make_extension_field(2, 2), make_extension_field(2, 8)]
    rng = random.Random(11)
    for F in fields:
        for _ in range(8):
            b, c = F.random(rng), F.random(rng)
            roots = solve_quadratic(F, F.one, b, c)
            assert len(roots) <= 2
            for r in roots:
                lhs = F.add(F.add(F.mul(r, r), F.mul(b, r)), c)
                assert F.is_zero(lhs)
    with pytest.raises(ValueError):
        solve_quadratic(QQ, Fraction(0), Fraction(1), Fraction(1))


def test_solve_quadratic_rejects_rationals_and_zero_leading_coefficient():
    with pytest.raises(ValueError):
        solve_quadratic(QQ, 1, 0, -4)
    F = make_extension_field(5)
    with pytest.raises(ValueError):
        solve_quadratic(F, F.zero, F.one, F.one)


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3),
                                 (3, 2), (2, 4), (5, 2), (3, 3)],
                         ids=["F2", "F3", "F4", "F5", "F7", "F8", "F9", "F16",
                              "F25", "F27"])
def test_solve_quadratic_counts_roots_exactly(p, k):
    # Exhaustive: for every b, c the roots of z^2 + bz + c are those of a
    # brute-force scan of the whole field, in packed order.
    F = make_extension_field(p, k)
    all_elems = [F.from_packed(i) for i in range(F.q)]
    for b in all_elems:
        for c in all_elems:
            brute = [F.to_packed(z) for z in all_elems
                     if F.is_zero(F.add(F.add(F.mul(z, z), F.mul(b, z)), c))]
            got = solve_quadratic(F, F.one, b, c)
            assert [F.to_packed(r) for r in got] == brute, (b, c)


_LARGE_FIELDS = [(1000003, 1), (1009, 2), (2, 16), (3, 13), (2, 21)]
_LARGE_IDS = ["F1000003", "F1009^2", "F2^16", "F3^13", "F2^21"]


def _solve_within_budget(monkeypatch, F, a, b, c):
    """solve_quadratic with its poly.powmod calls capped at 16: one for z^q,
    and one per splitter tried when q is odd.  A splitter leaves a linear
    factor about half the time, so a solve that runs past the cap has lost
    the splitting, even if a far-off splitter would still find the roots."""
    calls = [0]
    powmod = poly.powmod

    def counted(*args):
        calls[0] += 1
        assert calls[0] <= 16, "root solve ran past 16 powers mod the quadratic"
        return powmod(*args)

    with monkeypatch.context() as patch:
        patch.setattr(poly, "powmod", counted)
        return solve_quadratic(F, a, b, c)


@pytest.mark.parametrize("p,k", _LARGE_FIELDS, ids=_LARGE_IDS)
def test_solve_quadratic_round_trips(p, k, monkeypatch):
    # the roots of a (z - r1)(z - r2) are {r1, r2}; the first trip is a
    # double root
    F = make_extension_field(p, k)
    rng = random.Random(p * 100 + k)
    for trip in range(8):
        r1 = F.random(rng)
        r2 = r1 if trip == 0 else F.random(rng)
        a = F.from_packed(rng.randrange(1, F.q))
        b = F.neg(F.mul(a, F.add(r1, r2)))
        c = F.mul(a, F.mul(r1, r2))
        got = _solve_within_budget(monkeypatch, F, a, b, c)
        assert got == sorted({r1, r2}, key=F.to_packed), (trip, r1, r2)


def test_solve_quadratic_splits_roots_conjugate_over_the_prime_field(monkeypatch):
    # z^2 - c for a non-square c of F_1009 has the roots +-r in F_{1009^2},
    # swapped by the Frobenius; no shift z + d with d in F_1009 splits them,
    # so those shifts come last
    F = make_extension_field(1009, 2)
    c = F.from_int(next(v for v in range(2, 1009) if pow(v, 504, 1009) != 1))
    roots = _solve_within_budget(monkeypatch, F, F.one, F.zero, F.neg(c))
    assert len(roots) == 2 and all(F.mul(r, r) == c for r in roots)
    assert F.add(*roots) == F.zero


@pytest.mark.parametrize("p,k", [(3, 13), (2, 21)], ids=["F3^13", "F2^21"])
def test_solve_quadratic_rootless_on_poly_gear(p, k, monkeypatch):
    # z^2 - c for the least non-square c (Euler's criterion) when q is odd;
    # z^2 + z + d for the least d of trace 1 when q is even
    F = make_extension_field(p, k)
    assert isinstance(F, PolyField)
    if p == 2:
        def trace(d):
            acc = F.zero
            for _ in range(k):
                acc, d = F.add(acc, d), F.mul(d, d)
            return acc
        d = next(F.from_packed(v) for v in range(1, F.q)
                 if trace(F.from_packed(v)) == F.one)
        assert _solve_within_budget(monkeypatch, F, F.one, F.one, d) == []
    else:
        c = next(F.from_packed(v) for v in range(1, F.q)
                 if F.pow(F.from_packed(v), (F.q - 1) // 2) != F.one)
        assert _solve_within_budget(monkeypatch, F, F.one, F.zero, F.neg(c)) == []


def test_is_probable_prime():
    assert is_probable_prime(2) and is_probable_prime(3) and is_probable_prime(1000003)
    assert not is_probable_prime(1)
    assert not is_probable_prime(561)     # Carmichael number
    assert not is_probable_prime(2 ** 20)


def test_field_constructor_guards():
    with pytest.raises(ValueError):
        make_extension_field(4)
    with pytest.raises(ValueError):
        make_extension_field(3, 0)
    with pytest.raises(ValueError):
        make_extension_field(3, 25)


def test_field_from_config():
    assert field_from_config("0", "1") is QQ
    assert field_from_config("3", "2").q == 9
    assert field_from_config("5", None).q == 5
    with pytest.raises(ValueError):
        field_from_config("4", "1")


def test_extension_field_identity_cache():
    assert make_extension_field(3, 2) is make_extension_field(3, 2)
    assert make_extension_field(2, 8) is make_extension_field(2, 8)


def test_elem_text_roundtrip():
    F7 = make_extension_field(7)
    for i in range(7):
        a = F7.elem(i)
        assert F7.elem(a.to_text()) == a
    q = QQ.elem(Fraction(-7, 3))
    assert QQ.elem(q.to_text()) == q
    # extension fields round-trip through packed integers
    F9 = make_extension_field(3, 2)
    for i in range(9):
        a = FieldElem(F9, F9.from_packed(i))
        assert F9.from_packed(int(a.to_text())) == a.raw


# -- the three gears -------------------------------------------------------------

@pytest.mark.parametrize("p,k,gear", [
    (7, 1, PrimeField), (1000003, 1, PrimeField), (3, 2, TableField),
    (2, 20, TableField), (2, 21, PolyField), (3, 13, PolyField),
], ids=["F7", "F1000003", "F9", "F2^20", "F2^21", "F3^13"])
def test_constructor_picks_gear(p, k, gear):
    # __new__ alone picks the gear, so F_{2^20} need not build its tables
    assert type(FiniteField.__new__(FiniteField, p, k)) is gear


def test_gear_class_called_directly_builds_that_gear():
    assert type(FiniteField(3, 2)) is TableField
    assert type(PolyField(3, 2)) is PolyField
    assert type(TableField(2, 8)) is TableField
    with pytest.raises(ValueError):
        PrimeField(3, 2)
    with pytest.raises(ValueError):
        PolyField(4, 2)           # the guards run for every gear


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (2, 8), (3, 5), (5, 3), (7, 3),
                                 (101, 2), (2, 16)])
def test_table_build_equals_the_poly_mul_walk(p, k):
    # the half tables in the wide encoding give the generator, the exp walk
    # and the log and Zech tables of one PolyField product per element
    F = TableField(p, k)
    exp, log, zech = tables_by_poly_mul(p, k)
    assert F._exp == exp
    assert F._log == log
    assert F._zech == zech


def test_table_field_searches_its_modulus_once(monkeypatch):
    # the PolyField helper of the table build takes the modulus it was given
    calls = []
    search = fields._canonical_modulus

    def counting(p, k):
        calls.append((p, k))
        return search(p, k)

    monkeypatch.setattr(fields, "_canonical_modulus", counting)
    F = TableField(2, 8)
    assert calls == [(2, 8)]
    assert F.modulus == PINNED_MODULI[2, 8]


_GEAR_ARGS = {
    "table3^5": (TableField, 3, 5), "poly3^5": (PolyField, 3, 5),
    "table2^8": (TableField, 2, 8), "poly2^8": (PolyField, 2, 8),
    "prime7": (PrimeField, 7, 1), "prime1000003": (PrimeField, 1000003, 1),
}


@functools.cache
def _gear(name):
    """The same F_q in two gears, and one field per gear for the axioms."""
    gear, p, k = _GEAR_ARGS[name]
    return gear(p, k)


def _packed_result(F, op, *args):
    try:
        return F.to_packed(getattr(F, op)(*args))
    except ZeroDivisionError:
        return "division by zero"


@pytest.mark.parametrize("q", ["3^5", "2^8"])
@settings(derandomize=True, max_examples=60, deadline=None)
@given(x=st.integers(0, 10 ** 6), y=st.integers(0, 10 ** 6),
       n=st.integers(-600, 600))
def test_table_and_poly_gears_agree(q, x, y, n):
    T, P = _gear("table" + q), _gear("poly" + q)
    x, y = x % T.q, y % T.q
    assert T.modulus == P.modulus
    a, b = (T.from_packed(x), T.from_packed(y)), (P.from_packed(x), P.from_packed(y))
    for op in ("add", "sub", "mul", "div"):
        assert _packed_result(T, op, *a) == _packed_result(P, op, *b), op
    assert T.to_packed(T.neg(a[0])) == P.to_packed(P.neg(b[0]))
    assert _packed_result(T, "pow", a[0], n) == _packed_result(P, "pow", b[0], n)
    assert T.is_zero(a[0]) == P.is_zero(b[0]) == (x == 0)


_PACKED_FIELDS = {"F3^13": (3, 13), "F2^21": (2, 21), "F2^24": (2, 24),
                  "F3^24": (3, 24), "F1031^2": (1031, 2),
                  "F1000003^2": (1000003, 2)}


@functools.cache
def _packed_and_oracle(name):
    """A field of the packed poly gear and its tuple oracle."""
    F = make_extension_field(*_PACKED_FIELDS[name])
    return F, TupleField(F.p, F.k, F.modulus)


def _packed_value(data, F, label):
    """A packed value, often 0, 1, the one whose every digit is p - 1, or
    z^(k-1)."""
    edges = [0, 1, F.q - 1, F.p ** (F.k - 1)]
    return data.draw(st.one_of(st.sampled_from(edges), st.integers(0, F.q - 1)),
                     label=label)


@pytest.mark.parametrize("name", sorted(_PACKED_FIELDS))
@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(-600, 600))
def test_packed_poly_gear_matches_the_tuple_oracle(name, data, n):
    # one packed int per element against coefficient tuples and the
    # schoolbook product, through to_packed, which round-trips from_packed
    F, O = _packed_and_oracle(name)
    assert type(F) is PolyField
    x, y = _packed_value(data, F, "x"), _packed_value(data, F, "y")
    a, b = F.from_packed(x), F.from_packed(y)
    assert (F.to_packed(a), F.to_packed(b)) == (x, y)
    oa, ob = O.from_packed(x), O.from_packed(y)
    for op in ("add", "sub", "mul", "div"):
        assert _packed_result(F, op, a, b) == _packed_result(O, op, oa, ob), op
    assert _packed_result(F, "inv", a) == _packed_result(O, "inv", oa)
    assert F.to_packed(F.neg(a)) == O.to_packed(O.neg(oa))
    assert _packed_result(F, "pow", a, n) == _packed_result(O, "pow", oa, n)
    assert F.is_zero(a) == (x == 0)


@pytest.mark.parametrize("name", ["prime7", "prime1000003", "table3^5",
                                  "table2^8", "poly3^5", "poly2^8"])
@settings(derandomize=True, max_examples=40, deadline=None)
@given(xs=st.lists(st.integers(0, 10 ** 7), min_size=3, max_size=3),
       n=st.integers(-20, 20), m=st.integers(0, 20))
def test_field_axioms_on_every_gear(name, xs, n, m):
    F = _gear(name)
    a, b, c = (F.from_packed(x % F.q) for x in xs)
    add, mul = F.add, F.mul
    assert add(a, b) == add(b, a) and mul(a, b) == mul(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert add(a, F.zero) == a and mul(a, F.one) == a
    assert add(a, F.neg(a)) == F.zero and F.sub(a, b) == add(a, F.neg(b))
    if a == F.zero:
        with pytest.raises(ZeroDivisionError):
            F.inv(a)
        return
    assert mul(a, F.inv(a)) == F.one and F.div(b, a) == mul(b, F.inv(a))
    assert F.pow(a, n + m) == mul(F.pow(a, n), F.pow(a, m))
    assert F.pow(a, F.q - 1) == F.one


@pytest.mark.parametrize("name", ["prime7", "prime1000003", "table3^5",
                                  "table2^8", "poly3^5", "poly2^8"])
@settings(derandomize=True, max_examples=40, deadline=None)
@given(x=st.integers(0, 10 ** 7))
def test_parse_reads_back_to_text_on_every_gear(name, x):
    F = _gear(name)
    a = F.from_packed(x % F.q)
    assert F.parse(F.to_text(a)) == a


_rationals = st.one_of(st.integers(-10 ** 6, 10 ** 6),
                       st.fractions(max_denominator=1000))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(a=_rationals, b=_rationals, n=st.integers(-4, 4))
def test_rational_ops_match_fraction_arithmetic(a, b, n):
    # raw values of Q are ints when integral: the normalizing operations
    # (parse, from_int, inv, div, pow) give an int exactly when the
    # value is integral, the bare operators keep two ints an int, and no
    # operation gives a float
    A, B = Fraction(a), Fraction(b)
    bare = [(QQ.add(a, b), A + B), (QQ.sub(a, b), A - B),
            (QQ.mul(a, b), A * B), (QQ.neg(a), -A)]
    normal = [(QQ.parse(a), A), (QQ.parse(str(a)), A), (QQ.from_int(n), n)]
    if B:
        normal += [(QQ.inv(b), 1 / B), (QQ.div(a, b), A / B)]
    else:
        with pytest.raises(ZeroDivisionError):
            QQ.div(a, b)
    if A or n >= 0:
        normal.append((QQ.pow(a, n), A ** n))
    else:
        with pytest.raises(ZeroDivisionError):
            QQ.pow(a, n)
    for got, want in bare + normal:
        assert got == want and type(got) in (int, Fraction)
    for got, want in normal:
        assert (type(got) is int) == (Fraction(want).denominator == 1)
    if type(a) is int and type(b) is int:
        assert all(type(got) is int for got, _ in bare)


def test_rational_constants_are_ints():
    assert type(QQ.zero) is int and type(QQ.one) is int
    assert type(QQ.from_int(True)) is int and type(QQ.parse(True)) is int
    assert type(QQ.parse("6/3")) is int and QQ.parse("6/3") == 2
    assert type(QQ.inv(-1)) is int and QQ.inv(2) == Fraction(1, 2)
    assert type(QQ.pow(Fraction(4, 2), -1)) is Fraction
    assert str(QQ.parse("-12")) == str(Fraction(-12)) == "-12"


def test_poly_division_over_q_keeps_ints():
    # monic, divmod_poly and gcd divide through QQ.div, so 6 / 2 is the int
    # 3, where 6 * (1/2) would be Fraction(3, 1)
    quo, rem = poly.divmod_poly(QQ, [2, 4, 6], [1, 2])
    assert quo == [Fraction(1, 2), 3] and type(quo[1]) is int
    assert rem == [Fraction(3, 2)]
    for got, want in ((poly.monic(QQ, [4, 6, 2]), [2, 3, 1]),
                      (poly.gcd(QQ, [-2, 2], [-4, 0, 4]), [-1, 1])):
        assert got == want and all(type(c) is int for c in got)
