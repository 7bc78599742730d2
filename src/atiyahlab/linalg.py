"""Exact rank/kernel computations.

Production path: one Gaussian elimination for every field, on raw field
values (``Fraction`` over the rationals) held in sparse rows {col: value}, so
the work stays on the non-zeros.  Pivoting is deterministic (first nonzero in
column order), kernel bases are canonical: one vector per free column, 1 there
and 0 on the other free columns, made a primitive integer vector with positive
leading entry over Q.  Both the pivot columns and these vectors are properties
of the matrix, not of the elimination.

:func:`rank_naive` is an independent textbook elimination kept deliberately
separate as a cross-check oracle; it shares no code with the production path.
"""

from __future__ import annotations

from fractions import Fraction
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
    entries that cancel are deleted.  Echelon row i keeps the entries right
    of pivot i; the pivot entry itself, 1, is left out.
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
        pivots.append(col)
        ech.append(prow)
        pool = nxt
        col += 1
    return pivots, ech


def _kernel_from_echelon(field, pivots, ech, ncols):
    """The canonical kernel basis: one vector per free column f, 1 at f and 0
    on the other free columns, by back-substitution through the echelon
    rows."""
    fz, fadd, fmul = field.is_zero, field.add, field.mul
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    steps = list(zip(pivots, ech))[::-1]
    basis = []
    for f in free:
        v = {f: field.one}
        for pc, row in steps:
            if pc > f:
                continue  # the row lies right of pc, where v is 0
            acc = field.zero
            for c, a in row.items():
                if c in v:
                    acc = fadd(acc, fmul(a, v[c]))
            if not fz(acc):
                v[pc] = field.neg(acc)
        basis.append(_primitive_int_vector(
            field, [v.get(c, field.zero) for c in range(ncols)]))
    return basis


def _primitive_int_vector(field, v):
    """Over Q, the primitive integer multiple of v with positive first
    nonzero entry; over a finite field, v itself."""
    if field is not QQ:
        return v
    den = lcm(*(f.denominator for f in v))
    ints = [int(f * den) for f in v]
    g = gcd(*ints)
    if next(a for a in ints if a) < 0:
        g = -g
    return [Fraction(a // g) for a in ints]


def rank_and_kernel(mat: Matrix):
    """(rank, kernel basis as raw column vectors), deterministic and exact."""
    pivots, ech = _echelon(mat)
    return len(pivots), _kernel_from_echelon(mat.field, pivots, ech, mat.ncols)


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
