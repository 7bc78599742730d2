"""Exact rank/kernel computations.

Production path: one reduced Gaussian elimination, :func:`_reduce`, for every
field, on raw field values held in sparse rows {col: value}, so the work stays
on the non-zeros.  Over the rationals a raw value is an ``int`` when integral
and a ``Fraction`` otherwise, so integer matrices stay on ints until a pivot
is not a unit.  It takes pivot columns in a given order, the first row with a
nonzero there as pivot, and clears each pivot column from every other row, so
it ends in the reduced echelon form of the row space for that column order,
which is unique.  :func:`rank` counts its pivots, :func:`rank_and_kernel`
takes the columns left to right and reads one kernel vector per free column
off the reduced rows (1 there, 0 on the other free columns), made a
primitive vector of ints with positive leading entry over Q, and
:func:`canonical_basis` takes them right to left over a spanning set of a
kernel found another way, which gives the same vectors.

:func:`rank_naive` is an independent textbook elimination kept deliberately
separate as a cross-check oracle; it shares no code with the production path.
"""

from __future__ import annotations

from math import gcd, lcm

from .fields import QQ


class Matrix:
    """Dense matrix of raw field values."""

    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field, rows, ncols: int | None = None):
        self.field = field
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        if ncols is None:
            ncols = len(self.rows[0]) if self.rows else 0
        self.ncols = ncols
        for r in self.rows:
            if len(r) != ncols:
                raise ValueError("ragged matrix")

    def __repr__(self):
        return f"Matrix({self.field!r}, {self.nrows}x{self.ncols})"


def _reduce(field, rows, cols):
    """The reduced echelon form of the rows, each given by its (col, value)
    pairs, as {pivot column: sparse row {col: value}}.

    Every row is held as a dict of its nonzero entries.  Pivot columns are
    taken in the order of ``cols``: the pivot for a column is the first
    remaining row with a nonzero there, scaled to pivot 1 and subtracted, on
    its own non-zeros, from the remaining rows and the earlier pivot rows
    alike; entries that cancel are deleted, and so are rows that become
    zero.  Each pivot row is then 1 at its pivot, 0 on the other pivot
    columns, and 0 on every column before its pivot in ``cols``.
    """
    fz, fmul, fsub, zero = field.is_zero, field.mul, field.sub, field.zero
    pool = [r for r in ({c: a for c, a in row if not fz(a)} for row in rows)
            if r]
    done = {}
    for col in cols:
        i = next((i for i, r in enumerate(pool) if col in r), None)
        if i is None:
            continue
        piv = pool.pop(i)
        inv = field.inv(piv.pop(col))
        piv = {c: fmul(inv, a) for c, a in piv.items()}
        for r in pool + list(done.values()):
            a = r.pop(col, None)
            if a is not None:
                for c, b in piv.items():
                    v = fsub(r.get(c, zero), fmul(a, b))
                    if fz(v):
                        r.pop(c, None)
                    else:
                        r[c] = v
        pool = [r for r in pool if r]
        piv[col] = field.one
        done[col] = piv
    return done


def _primitive_int_vector(field, v):
    """Over Q, the primitive integer multiple of v with positive first
    nonzero entry, as ints; over a finite field, v itself."""
    if field is not QQ:
        return v
    den = lcm(*(f.denominator for f in v))
    ints = [f.numerator * (den // f.denominator) for f in v]
    g = gcd(*ints)
    if next(a for a in ints if a) < 0:
        g = -g
    return [a // g for a in ints]


def canonical_basis(field, vectors, ncols):
    """The basis :func:`rank_and_kernel` returns for the span of the sparse
    vectors {col: value}: reduced echelon form taking columns from the last
    one first, so each vector ends in 1 at its own column f and the others
    are 0 at f, ordered by f and made primitive integer vectors over Q.

    The canonical kernel vector of a free column f is 1 at f, 0 on the other
    free columns and supported on f and pivot columns < f, so this is it.  A
    vector that reduces to zero is dropped: dependent input gives fewer
    vectors back.
    """
    done = _reduce(field, (v.items() for v in vectors), range(ncols - 1, -1, -1))
    return [_primitive_int_vector(field, [done[f].get(c, field.zero)
                                          for c in range(ncols)])
            for f in sorted(done)]


def rank_and_kernel(mat: Matrix):
    """(rank, kernel basis as raw column vectors), deterministic and exact:
    for each free column f of the reduced rows, the vector with 1 at f, 0 on
    the other free columns and -row[f] at the pivot of each row."""
    field, n = mat.field, mat.ncols
    done = _reduce(field, map(enumerate, mat.rows), range(n))
    basis = []
    for f in range(n):
        if f in done:
            continue
        vec = [field.zero] * n
        vec[f] = field.one
        for col, row in done.items():
            if f in row:
                vec[col] = field.neg(row[f])
        basis.append(_primitive_int_vector(field, vec))
    return len(done), basis


def rank(mat: Matrix) -> int:
    return len(_reduce(mat.field, map(enumerate, mat.rows), range(mat.ncols)))


def rank_naive(mat: Matrix) -> int:
    """Independent oracle: textbook Gauss-Jordan elimination.

    It differs from :func:`_reduce` in method: dense lists holding every
    entry, zeros included, and a row swap to bring each pivot row up.
    """
    field = mat.field
    work = [list(r) for r in mat.rows]
    nr, nc = mat.nrows, mat.ncols
    r = 0
    for c in range(nc):
        piv = None
        for i in range(r, nr):
            if not field.is_zero(work[i][c]):
                piv = i
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = field.inv(work[r][c])
        work[r] = [field.mul(inv, a) for a in work[r]]
        for i in range(nr):
            if i != r and not field.is_zero(work[i][c]):
                f = work[i][c]
                work[i] = [
                    field.sub(a, field.mul(f, b)) for a, b in zip(work[i], work[r])
                ]
        r += 1
        if r == nr:
            break
    return r
