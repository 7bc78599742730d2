"""Exact rank/kernel computations.

Production path: over the rationals, rows are cleared to integers and
eliminated by fraction-free cross-multiplication with per-row content
stripping (every stripped content is divisible by the previous pivot, so
entries never exceed Bareiss minor bounds); over finite fields, plain Gaussian
elimination on raw values.  Pivoting is deterministic (first nonzero in
column order), kernel bases are canonical (one vector per free column,
normalized: primitive integer vectors with positive leading entry over Q,
leading coefficient 1 over finite fields).

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

    def to_text_rows(self):
        tt = self.field.to_text
        return [[tt(e) for e in r] for r in self.rows]

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


def _strip_content(row):
    g = 0
    for a in row:
        if a:
            g = gcd(g, a)
            if g == 1:
                return row
    if g > 1:
        return [a // g for a in row]
    return row


def _echelon_int(rows, ncols):
    """Integer echelon via cross-multiplication + content stripping.

    Returns (pivot_cols, echelon_rows); rows are primitive integer vectors.
    """
    work = [_strip_content(list(r)) for r in rows if any(r)]
    pivots = []
    ech = []
    col = 0
    while col < ncols and work:
        pr = None
        for idx, r in enumerate(work):
            if r[col]:
                pr = idx
                break
        if pr is None:
            col += 1
            continue
        prow = work.pop(pr)
        p = prow[col]
        nxt = []
        for r in work:
            a = r[col]
            if a:
                nr = [p * x - a * y for x, y in zip(r, prow)]
                if any(nr):
                    nxt.append(_strip_content(nr))
            else:
                nxt.append(r)
        pivots.append(col)
        ech.append(prow)
        work = nxt
        col += 1
    return pivots, ech


def _kernel_from_echelon(field, pivots, ech, ncols):
    """The canonical kernel basis: one vector per free column, by
    back-substitution through the echelon rows."""
    fz, fadd, fmul = field.is_zero, field.add, field.mul
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    basis = []
    for f in free:
        v = [field.zero] * ncols
        v[f] = field.one
        for i in range(len(pivots) - 1, -1, -1):
            pc = pivots[i]
            row = ech[i]
            acc = field.zero
            for c in range(pc + 1, ncols):
                if not fz(row[c]) and not fz(v[c]):
                    acc = fadd(acc, fmul(row[c], v[c]))
            # finite-field pivots are 1; integer pivots divide
            v[pc] = field.neg(acc if row[pc] == field.one
                              else field.div(acc, row[pc]))
        basis.append(_primitive_int_vector(v) if field is QQ else v)
    return basis


def _primitive_int_vector(v):
    den = lcm(*(f.denominator for f in v)) if v else 1
    ints = [int(f * den) for f in v]
    g = 0
    for a in ints:
        g = gcd(g, a)
    if g > 1:
        ints = [a // g for a in ints]
    for a in ints:
        if a:
            if a < 0:
                ints = [-b for b in ints]
            break
    return [Fraction(a) for a in ints]


def _echelon(mat: Matrix):
    """(pivot_cols, echelon_rows): primitive integer rows over Q, rows with
    pivot 1 over a finite field."""
    if mat.field is not QQ:
        return _finite_echelon(mat)
    int_rows = []
    for r in mat.rows:
        den = 1
        for f in r:
            den = den * f.denominator // gcd(den, f.denominator)
        int_rows.append([int(f * den) for f in r])
    return _echelon_int(int_rows, mat.ncols)


def _finite_echelon(mat: Matrix):
    field = mat.field
    fz, fmul, fsub, finv = field.is_zero, field.mul, field.sub, field.inv
    work = [list(r) for r in mat.rows]
    ncols = mat.ncols
    pivots = []
    ech = []
    col = 0
    rowpool = [r for r in work if not all(fz(a) for a in r)]
    while col < ncols and rowpool:
        pr = None
        for idx, r in enumerate(rowpool):
            if not fz(r[col]):
                pr = idx
                break
        if pr is None:
            col += 1
            continue
        prow = rowpool.pop(pr)
        pinv = finv(prow[col])
        prow = [fmul(pinv, a) for a in prow]
        nxt = []
        for r in rowpool:
            a = r[col]
            if not fz(a):
                nr = [fsub(x, fmul(a, y)) for x, y in zip(r, prow)]
                if not all(fz(v) for v in nr):
                    nxt.append(nr)
            else:
                nxt.append(r)
        pivots.append(col)
        ech.append(prow)
        rowpool = nxt
        col += 1
    return pivots, ech


def rank_and_kernel(mat: Matrix):
    """(rank, kernel basis as raw column vectors), deterministic and exact."""
    pivots, ech = _echelon(mat)
    return len(pivots), _kernel_from_echelon(mat.field, pivots, ech, mat.ncols)


def rank(mat: Matrix) -> int:
    return len(_echelon(mat)[0])


def rank_naive(mat: Matrix) -> int:
    """Independent oracle: textbook Gauss-Jordan elimination.

    Over Q it works directly on Fractions (no integer clearing, no content
    tricks) so that it exercises a genuinely different code path from
    :func:`rank_and_kernel`.
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
