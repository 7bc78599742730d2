import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atiyahlab.fields import (
    QQ,
    FieldElem,
    FiniteField,
    PolyField,
    PrimeField,
    TableField,
    _canonical_modulus,
    _is_irreducible,
    _unpack,
    field_from_config,
    is_probable_prime,
    make_extension_field,
    solve_quadratic,
)


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
        accepted = sum(_is_irreducible(p, _unpack(p, k, v) + (1,))
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
    if p ** k < 1 << 20:  # building F_{2^20} takes seconds; CI builds it
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
    assert F9.to_coeffs(F9.parse("5")) == (2, 1)       # 5 = 2 + 1*3: z + 2
    assert F9.to_coeffs(F9.parse(" 8 ")) == (2, 2)
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
    assert F9.to_coeffs(a.raw) == (1, 2)
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


def test_sqrt_rationals():
    assert QQ.sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert QQ.sqrt(Fraction(2)) is None
    assert QQ.sqrt(Fraction(-1)) is None
    assert QQ.sqrt(Fraction(0)) == 0


def test_sqrt_large_prime_field():
    F = make_extension_field(1000003)
    a = F.from_int(123456789)
    sq = F.mul(a, a)
    r = F.sqrt(sq)
    assert r is not None and F.mul(r, r) == sq
    # find a non-residue and confirm sqrt rejects it
    for t in range(2, 60):
        cand = F.from_int(t)
        if F.pow(cand, (F.q - 1) // 2) != F.one:
            assert F.sqrt(cand) is None
            break
    else:
        pytest.fail("no quadratic non-residue below 60 (should be impossible)")


def test_sqrt_char2_is_total():
    F = make_extension_field(2, 8)
    for i in range(40):
        a = F.from_packed(i)
        r = F.sqrt(a)
        assert r is not None and F.mul(r, r) == a


def test_sqrt_extension_field():
    F9 = make_extension_field(3, 2)
    squares = set()
    for i in range(9):
        a = F9.from_packed(i)
        sq = F9.mul(a, a)
        squares.add(F9.to_packed(sq))
        r = F9.sqrt(sq)
        assert r is not None and F9.mul(r, r) == sq
    assert len(squares) == 5          # 0 plus (q-1)/2 nonzero squares
    for i in range(9):
        if i not in squares:
            assert F9.sqrt(F9.from_packed(i)) is None


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
    fields = [QQ, make_extension_field(7), make_extension_field(3, 2),
              make_extension_field(2, 2), make_extension_field(2, 8)]
    rng = random.Random(11)
    for F in fields:
        for _ in range(8):
            if F is QQ:
                b = Fraction(rng.randrange(-5, 6))
                c = Fraction(rng.randrange(-5, 6))
            else:
                b, c = F.random(rng), F.random(rng)
            roots = solve_quadratic(F, F.one, b, c)
            assert len(roots) <= 2
            for r in roots:
                lhs = F.add(F.add(F.mul(r, r), F.mul(b, r)), c)
                assert F.is_zero(lhs)
    with pytest.raises(ValueError):
        solve_quadratic(QQ, Fraction(0), Fraction(1), Fraction(1))


def test_solve_quadratic_counts_roots_exactly():
    # Exhaustive check over F_9: the number of roots of z^2 + bz + c matches
    # a brute-force scan of the whole field.
    F = make_extension_field(3, 2)
    all_elems = [F.from_packed(i) for i in range(9)]
    for b in all_elems:
        for c in all_elems:
            brute = [z for z in all_elems
                     if F.is_zero(F.add(F.add(F.mul(z, z), F.mul(b, z)), c))]
            got = solve_quadratic(F, F.one, b, c)
            assert sorted(F.to_packed(r) for r in got) == sorted(
                F.to_packed(z) for z in brute)


def test_artin_schreier_char2():
    F4 = make_extension_field(2, 2)
    seen_none = seen_two = False
    for i in range(4):
        d = F4.from_packed(i)
        z = F4.solve_artin_schreier(d)
        if z is None:
            assert not F4.is_zero(F4.trace(d))
            seen_none = True
        else:
            assert F4.add(F4.mul(z, z), z) == d
            seen_two = True
    assert seen_none and seen_two
    with pytest.raises(ValueError):
        make_extension_field(3).solve_artin_schreier(1)


def test_trace_one_is_least_packed_value_of_trace_one():
    for k in range(1, 13):
        F = make_extension_field(2, k)
        scan = next(v for v in range(1, F.q)
                    if not F.is_zero(F.trace(F.from_packed(v))))
        assert F.to_packed(F.trace_one()) == scan


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


def test_trace_surjects_onto_prime_field():
    F = make_extension_field(2, 8)
    traces = {F.to_packed(F.trace(F.from_packed(i))) for i in range(256)}
    assert traces == {0, 1}


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
    # (parse, from_int, inv, div, pow, sqrt) give an int exactly when the
    # value is integral, the bare operators keep two ints an int, and no
    # operation gives a float
    A, B = Fraction(a), Fraction(b)
    bare = [(QQ.add(a, b), A + B), (QQ.sub(a, b), A - B),
            (QQ.mul(a, b), A * B), (QQ.neg(a), -A)]
    normal = [(QQ.parse(a), A), (QQ.parse(str(a)), A), (QQ.from_int(n), n),
              (QQ.sqrt(A * A), abs(A))]
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
    root = QQ.sqrt(A)
    assert root is None or (QQ.mul(root, root) == A and type(root) in (int, Fraction))


def test_rational_constants_are_ints():
    assert type(QQ.zero) is int and type(QQ.one) is int
    assert type(QQ.from_int(True)) is int and type(QQ.parse(True)) is int
    assert type(QQ.parse("6/3")) is int and QQ.parse("6/3") == 2
    assert type(QQ.inv(-1)) is int and QQ.inv(2) == Fraction(1, 2)
    assert type(QQ.pow(Fraction(4, 2), -1)) is Fraction
    assert str(QQ.parse("-12")) == str(Fraction(-12)) == "-12"
