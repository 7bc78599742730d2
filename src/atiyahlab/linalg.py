"""Exact rank/kernel computations.

Production path: one Gaussian elimination for every field, on raw field
values held in sparse rows {col: value}, so the work stays on the non-zeros.
Over the rationals a raw value is an ``int`` when integral and a ``Fraction``
otherwise, so integer matrices stay on ints until a pivot is not a unit.
Pivoting is deterministic (first nonzero in column order), kernel bases are
canonical: one vector per free column, 1 there and 0 on the other free
columns, made a primitive vector of ints with positive leading entry over Q.
Both the pivot columns and these vectors are properties of the matrix, not of
the elimination, so :func:`canonical_basis` reads the same basis off any
spanning set of a kernel found another way.

:func:`rank_naive` is an independent textbook elimination kept deliberately
separate as a cross-check oracle; it shares no code with the production path.
"""

from __future__ import annotations

from math import gcd, lcm

from .errors import VerificationError
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

    @classmethod
    def from_elems(cls, field, rows):
        return cls(field, [[field.parse(e) for e in r] for r in rows])

    def mul_vector(self, vec):
        field = self.field
        out = []
        for r in self.rows:
            acc = field.zero
            for a, v in zip(r, vec):
                acc = field.add(acc, field.mul(a, v))
            out.append(acc)
        return out

    def __repr__(self):
        return f"Matrix({self.field!r}, {self.nrows}x{self.ncols})"


def _echelon(mat: Matrix):
    """(pivot_cols, echelon_rows) by Gaussian elimination on sparse rows.

    Every row is a dict {col: value} of its nonzero entries.  The pivot for
    a column is the first pool row with a nonzero there; it is scaled to
    pivot 1 and subtracted from the other pool rows on its own non-zeros, and
    entries that cancel are deleted.  Echelon row i holds pivot i, as 1, and
    the entries right of it.
    """
    field = mat.field
    fz, fmul, fsub, zero = field.is_zero, field.mul, field.sub, field.zero
    pool = []
    for r in mat.rows:
        row = {c: a for c, a in enumerate(r) if not fz(a)}
        if row:
            pool.append(row)
    pivots = []
    ech = []
    col = 0
    while col < mat.ncols and pool:
        pr = next((i for i, r in enumerate(pool) if col in r), None)
        if pr is None:
            col += 1
            continue
        prow = pool.pop(pr)
        pinv = field.inv(prow.pop(col))
        prow = {c: fmul(pinv, a) for c, a in prow.items()}
        nxt = []
        for r in pool:
            a = r.pop(col, None)
            if a is not None:
                for c, b in prow.items():
                    v = fsub(r.get(c, zero), fmul(a, b))
                    if fz(v):
                        r.pop(c, None)
                    else:
                        r[c] = v
            if r:
                nxt.append(r)
        prow[col] = field.one
        pivots.append(col)
        ech.append(prow)
        pool = nxt
        col += 1
    return pivots, ech


def dot(field, row, vec):
    """The sum of row[c] * vec[c] over a sparse row and vector {col: value}."""
    fadd, fmul, acc = field.add, field.mul, field.zero
    for c, a in row.items():
        x = vec.get(c)
        if x is not None:
            acc = fadd(acc, fmul(a, x))
    return acc


def back_substitute(field, rows, ncols, steps):
    """For each free column f in order, the solution of the step rows with 1
    at f and 0 on the other free columns, as a sparse vector {col: value}.

    ``steps`` lists (column, row) pairs in solving order; their columns are
    the pivots and the others are free.  The entries are checked to make the
    step rows triangular, each nonzero at its own column and zero on the
    columns of later steps (VerificationError otherwise), so each solution
    exists and is unique.  A step divides only where its entry is not 1.
    """
    zero, one = field.zero, field.one
    when = {col: i for i, (col, _) in enumerate(steps)}
    for i, (col, r) in enumerate(steps):
        if field.is_zero(rows[r].get(col, zero)):
            raise VerificationError(f"pivot entry of column {col} is zero")
        if any(when.get(c, i) > i for c in rows[r]):
            raise VerificationError(
                f"pivot row of column {col} reaches a column solved later")
    basis = []
    for f in range(ncols):
        if f in when:
            continue
        vec = {f: one}
        for col, r in steps:
            acc = dot(field, rows[r], vec)
            if not field.is_zero(acc):
                lc = rows[r][col]
                vec[col] = field.neg(acc if lc == one else field.div(acc, lc))
        basis.append(vec)
    return basis


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
    fz, fmul, fsub, zero = field.is_zero, field.mul, field.sub, field.zero
    pending = [{c: a for c, a in v.items() if not fz(a)} for v in vectors]
    done = {}
    for col in range(ncols - 1, -1, -1):
        i = next((i for i, v in enumerate(pending) if col in v), None)
        if i is None:
            continue
        piv = pending.pop(i)
        inv = field.inv(piv.pop(col))
        piv = {c: fmul(inv, a) for c, a in piv.items()}
        for v in pending + list(done.values()):
            a = v.pop(col, None)
            if a is not None:
                for c, b in piv.items():
                    x = fsub(v.get(c, zero), fmul(a, b))
                    if fz(x):
                        v.pop(c, None)
                    else:
                        v[c] = x
        piv[col] = field.one
        done[col] = piv
    return [_primitive_int_vector(field, [done[f].get(c, zero) for c in range(ncols)])
            for f in sorted(done)]


def rank_and_kernel(mat: Matrix):
    """(rank, kernel basis as raw column vectors), deterministic and exact."""
    pivots, ech = _echelon(mat)
    field, zero = mat.field, mat.field.zero
    steps = [(col, i) for i, col in enumerate(pivots)][::-1]
    return len(pivots), [
        _primitive_int_vector(field, [v.get(c, zero) for c in range(mat.ncols)])
        for v in back_substitute(field, ech, mat.ncols, steps)]


def rank(mat: Matrix) -> int:
    return len(_echelon(mat)[0])


def rank_naive(mat: Matrix) -> int:
    """Independent oracle: textbook Gauss-Jordan elimination.

    It differs from :func:`rank_and_kernel` in method: dense lists, row swaps
    and elimination above as well as below each pivot.
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


def kernel_check(mat: Matrix, vectors) -> bool:
    """True iff every vector multiplies to zero against the matrix."""
    field = mat.field
    for v in vectors:
        if any(not field.is_zero(e) for e in mat.mul_vector(v)):
            return False
    return True
