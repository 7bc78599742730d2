import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atiyahlab.fields import QQ, make_extension_field
from atiyahlab.linalg import (Matrix, canonical_basis, rank, rank_and_kernel,
                              rank_naive)
from oracles import from_elems, kernel_check, mul_vector

FIELDS = {"QQ": lambda: QQ,
          "F7": lambda: make_extension_field(7),
          "F9": lambda: make_extension_field(3, 2),
          "F101": lambda: make_extension_field(101),
          "F256": lambda: make_extension_field(2, 8),
          "F4": lambda: make_extension_field(2, 2),
          "F1000003": lambda: make_extension_field(1000003),
          "F3^13": lambda: make_extension_field(3, 13)}


def random_matrix(field, rng, nrows, ncols):
    if field is QQ:
        rows = [[Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
                 for _ in range(ncols)] for _ in range(nrows)]
    else:
        rows = [[field.random(rng) for _ in range(ncols)] for _ in range(nrows)]
    return Matrix(field, rows, ncols)


def test_hand_checked_ranks():
    m = from_elems(QQ, [[1, 2], [2, 4]])
    assert rank(m) == 1
    m = from_elems(QQ, [[1, 0, 1], [0, 1, 1], [1, 1, 2]])
    assert rank(m) == 2
    m = from_elems(QQ, [[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    assert rank(m) == 3


def test_rank_respects_characteristic():
    # determinant 5: invertible over Q, singular over F_5
    rows = [[1, 2], [3, 11]]
    assert rank(from_elems(QQ, rows)) == 2
    assert rank(from_elems(make_extension_field(5), rows)) == 1


def product(a, b):
    field = a.field
    rows = []
    for r in a.rows:
        row = []
        for j in range(b.ncols):
            acc = field.zero
            for x, brow in zip(r, b.rows):
                acc = field.add(acc, field.mul(x, brow[j]))
            row.append(acc)
        rows.append(row)
    return Matrix(field, rows, b.ncols)


@pytest.mark.parametrize("field_key", ["QQ", "F7", "F9", "F4", "F1000003", "F3^13"])
def test_production_rank_matches_naive_oracle(field_key):
    field = FIELDS[field_key]()
    rng = random.Random(sum(map(ord, field_key)))
    for trial in range(40):
        nr = rng.randrange(1, 8)
        nc = rng.randrange(1, 8)
        if trial % 2:
            # a product through r < min(nr, nc) dimensions: rank deficient
            inner = rng.randrange(0, min(nr, nc))
            m = product(random_matrix(field, rng, nr, inner),
                        random_matrix(field, rng, inner, nc))
            assert rank_naive(m) <= inner
        else:
            m = random_matrix(field, rng, nr, nc)
        r, ker = rank_and_kernel(m)
        assert r == rank_naive(m)
        assert r == rank(m)
        assert len(ker) == nc - r
        assert kernel_check(m, ker)


def test_kernel_vectors_are_independent():
    # stack kernel vectors as rows: their rank must equal their count
    rng = random.Random(99)
    F = make_extension_field(7)
    for _ in range(10):
        m = random_matrix(F, rng, 3, 6)
        r, ker = rank_and_kernel(m)
        if ker:
            km = Matrix(F, ker, m.ncols)
            assert rank(km) == len(ker)


def test_kernel_exactness_rationals():
    # 1x3 matrix [1 1 1]: kernel is 2-dimensional, exact over Q
    m = from_elems(QQ, [[1, 1, 1]])
    r, ker = rank_and_kernel(m)
    assert r == 1 and len(ker) == 2
    assert kernel_check(m, ker)
    for v in ker:   # exact raw values: an int or a Fraction, never a float
        assert all(type(c) in (int, Fraction) for c in v)


def test_rational_kernel_is_primitive_integer_form():
    # the rational backend normalizes kernel vectors to integer content-1 form
    m = from_elems(QQ, [["1/2", "1/3"]])
    _, ker = rank_and_kernel(m)
    assert len(ker) == 1
    v = ker[0]
    assert all(c.denominator == 1 for c in v)
    assert math.gcd(*(abs(c.numerator) for c in v)) == 1


def test_empty_and_degenerate_shapes():
    m = Matrix(QQ, [], ncols=3)
    r, ker = rank_and_kernel(m)
    assert r == 0 and len(ker) == 3
    assert kernel_check(m, ker)
    m = Matrix(QQ, [[Fraction(0), Fraction(0)]], ncols=2)
    r, ker = rank_and_kernel(m)
    assert r == 0 and len(ker) == 2
    zero_cols = Matrix(QQ, [[] for _ in range(4)], ncols=0)
    assert rank(zero_cols) == 0
    assert rank_and_kernel(zero_cols)[1] == []


def test_ragged_rows_rejected():
    with pytest.raises(ValueError):
        Matrix(QQ, [[Fraction(1)], [Fraction(1), Fraction(2)]])


def test_mul_vector():
    F = make_extension_field(7)
    m = from_elems(F, [[1, 2], [3, 4]])
    out = mul_vector(m, [F.from_int(1), F.from_int(1)])
    assert [F.to_packed(v) for v in out] == [3, 0]


def test_kernel_check_rejects_nonkernel_vector():
    m = from_elems(QQ, [[1, 1]])
    assert not kernel_check(m, [[Fraction(1), Fraction(0)]])
    assert kernel_check(m, [[Fraction(1), Fraction(-1)]])


@pytest.mark.parametrize("field_key", ["QQ", "F9", "F1000003", "F3^13"])
@settings(derandomize=True, max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32), tall_c=st.booleans())
def test_block_triangular_kernel_restricts_to_top_left(field_key, seed, tall_c):
    # M = [[A, B], [0, C]] with the columns of B and C (the extra columns)
    # interleaved among those of A and the rows shuffled: ker M vanishes on
    # the extra columns exactly when dim ker A = dim ker M, and then its
    # canonical basis restricted to A's columns is the canonical basis of ker A
    field = FIELDS[field_key]()
    rng = random.Random(seed)
    na, nb = rng.randrange(1, 7), rng.randrange(1, 4)
    ra = rng.randrange(0, 6)
    rc = nb + rng.randrange(0, 2) if tall_c else rng.randrange(0, nb + 1)

    def sparse(nrows, ncols):
        m = random_matrix(field, rng, nrows, ncols)
        return [[v if rng.random() < 0.6 else field.zero for v in r]
                for r in m.rows]

    a, b, c = sparse(ra, na), sparse(ra, nb), sparse(rc, nb)
    extra = sorted(rng.sample(range(na + nb), nb))
    kept = [i for i in range(na + nb) if i not in extra]

    def place(left, right):
        row = [field.zero] * (na + nb)
        for i, v in zip(kept, left):
            row[i] = v
        for i, v in zip(extra, right):
            row[i] = v
        return row

    rows = ([place(x, y) for x, y in zip(a, b)]
            + [place([field.zero] * na, z) for z in c])
    rng.shuffle(rows)
    _, ker_m = rank_and_kernel(Matrix(field, rows, na + nb))
    _, ker_a = rank_and_kernel(Matrix(field, a, na))
    vanishes = all(field.is_zero(v[i]) for v in ker_m for i in extra)
    assert vanishes == (len(ker_a) == len(ker_m))
    if vanishes:
        assert [[v[i] for i in kept] for v in ker_m] == ker_a


def cancelling_matrix(field, rng, nrows, ncols):
    """Sparse rows (density at most 0.3) of small entries, plus duplicated
    rows and sums of rows, shuffled: elimination meets many cancellations."""
    def entry():
        if field is QQ:
            return Fraction(rng.choice([-2, -1, 1, 2, 3]), rng.randrange(1, 3))
        return field.from_packed(rng.randrange(1, min(field.q, 5)))

    density = rng.uniform(0.05, 0.3)
    rows = [[entry() if rng.random() < density else field.zero
             for _ in range(ncols)] for _ in range(nrows)]
    for _ in range(rng.randrange(0, 4)):
        if rows:
            rows.append(list(rng.choice(rows)))
            a, b = rng.choice(rows), rng.choice(rows)
            rows.append([field.add(x, y) for x, y in zip(a, b)])
    rng.shuffle(rows)
    return Matrix(field, rows, ncols)


@pytest.mark.parametrize("field_key", ["QQ", "F7", "F9", "F4", "F1000003", "F3^13"])
@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32), nrows=st.integers(0, 9),
       ncols=st.integers(0, 9))
def test_canonical_kernel_basis_is_fixed_by_the_matrix(field_key, seed, nrows,
                                                       ncols):
    # the free columns are those in the span of the columns to their left, and
    # each basis vector is fixed by its value at its own free column and its
    # zeros on the others, whatever method eliminates
    field = FIELDS[field_key]()
    m = cancelling_matrix(field, random.Random(seed), nrows, ncols)
    r, ker = rank_and_kernel(m)
    assert r == rank_naive(m) == rank(m)
    assert kernel_check(m, ker)
    assert len(ker) == ncols - r

    def left_rank(c):
        return rank_naive(Matrix(field, [row[:c] for row in m.rows], c))

    free = [c for c in range(ncols) if left_rank(c + 1) == left_rank(c)]
    assert len(free) == len(ker)
    for f, v in zip(free, ker):
        assert all(field.is_zero(v[g]) for g in free if g != f)
        if field is QQ:
            assert all(c.denominator == 1 for c in v)
            assert math.gcd(*(c.numerator for c in v)) == 1
            assert next(c for c in v if c) > 0
            assert v[f] != 0
        else:
            assert v[f] == field.one


def random_elem(field, rng, nonzero=False):
    if field is QQ:
        num = rng.choice([-3, -2, -1, 1, 2, 3] if nonzero else range(-3, 4))
        return Fraction(num, rng.randrange(1, 4))
    return field.from_packed(rng.randrange(1 if nonzero else 0, field.q))


@pytest.mark.parametrize("field_key", ["QQ", "F4", "F9", "F1000003", "F3^13"])
@settings(derandomize=True, max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32), nrows=st.integers(0, 7),
       ncols=st.integers(0, 8), extra=st.integers(0, 4))
def test_canonical_basis_of_any_spanning_set_is_the_kernel_basis(
        field_key, seed, nrows, ncols, extra):
    # mix the kernel basis by an invertible L U (L unit lower triangular, U
    # upper triangular with a nonzero diagonal), add combinations of it and
    # zero vectors, and shuffle: the span is the kernel, so canonical_basis
    # must give back rank_and_kernel's basis
    field = FIELDS[field_key]()
    rng = random.Random(seed)
    _, ker = rank_and_kernel(cancelling_matrix(field, rng, nrows, ncols))
    k = len(ker)
    lower = [[field.one if i == j else random_elem(field, rng) if j < i
              else field.zero for j in range(k)] for i in range(k)]
    upper = [[random_elem(field, rng, nonzero=True) if i == j
              else random_elem(field, rng) if j > i else field.zero
              for j in range(k)] for i in range(k)]
    combos = [[random_elem(field, rng) for _ in range(k)] for _ in range(extra)]
    basis = Matrix(field, ker, ncols)
    mixed = product(Matrix(field, lower, k), Matrix(field, upper, k))
    spanning = (product(mixed, basis).rows
                + product(Matrix(field, combos, k), basis).rows
                + [[field.zero] * ncols for _ in range(extra % 3)])
    rng.shuffle(spanning)
    assert canonical_basis(field, [dict(enumerate(v)) for v in spanning],
                           ncols) == ker
