"""Oracles the tests check the library against.

None of these is on a production path: each restates a fact the library
computes another way (a matrix product, the chart-change matrix, the
coboundary test, a class-preserving translation), so that the tests can
compare the two.
"""

from __future__ import annotations

from math import comb

from atiyahlab.fat_points import FatPoint
from atiyahlab.fields import FieldElem
from atiyahlab.funcfield import FuncElem
from atiyahlab.linalg import Matrix, rank
from atiyahlab.surface import AtiyahSurface, _coboundary_jets, _jet_vector


def from_elems(field, rows) -> Matrix:
    """The matrix of the entries parsed by the field (ints, strings, ...)."""
    return Matrix(field, [[field.parse(e) for e in r] for r in rows])


def mul_vector(mat: Matrix, vec):
    """The dense product mat * vec."""
    field = mat.field
    out = []
    for r in mat.rows:
        acc = field.zero
        for a, v in zip(r, vec):
            acc = field.add(acc, field.mul(a, v))
        out.append(acc)
    return out


def kernel_check(mat: Matrix, vectors) -> bool:
    """True iff every vector multiplies to zero against the matrix."""
    field = mat.field
    return all(field.is_zero(e) for v in vectors for e in mul_vector(mat, v))


def sym_transition(cocycle, level: int):
    """(level+1) x (level+1) chart-change matrix: entry[j][a] = C(a,j) g^(a-j).

    Upper triangular with unit diagonal (so determinant 1); row j gives
    t_j = sum_a entry[j][a] s_a.
    """
    curve = cocycle.curve
    field = curve.field
    g_powers = [FuncElem.one(curve)]
    for _ in range(level):
        g_powers.append(g_powers[-1] * cocycle.g)
    rows = []
    for j in range(level + 1):
        row = []
        for a in range(level + 1):
            c = field.from_int(comb(a, j)) if a >= j else field.zero
            if field.is_zero(c):
                row.append(FuncElem.zero(curve))
            else:
                row.append(g_powers[a - j] * FieldElem(field, c))
        rows.append(row)
    return rows


def is_coboundary_jet(cocycle, fn) -> bool:
    """True iff fn (poles only in {inf, T}, order <= cocycle.order) splits as
    f0 - f1 with f0 in L(k inf), f1 in L(k T).  The zero function trivially
    does (f0 = f1 = 0)."""
    curve, T, k = cocycle.curve, cocycle.T, cocycle.order
    if fn.is_zero():
        return True
    rows, base = _coboundary_jets(curve, T, k)
    v = _jet_vector(fn, curve.infinity, -k, k + 1)
    return rank(Matrix(curve.field, rows + [v], 2 * k + 1)) == base


def translate_marked_fiber(surface: AtiyahSurface, fp: FatPoint, shift):
    """Move the marked fiber and the fat point by the same curve translation,
    preserving the class: returns (surface', fat point').  Raises ValueError
    when the translated data collides with a chart point."""
    q2 = surface.q + shift
    base2 = fp.base + shift
    if q2.is_infinity or q2 == surface.T:
        raise ValueError("translated marked fiber hits a chart point")
    if base2.is_infinity or base2 == surface.T or base2 == q2:
        raise ValueError("translated base point is inadmissible")
    s2 = AtiyahSurface(surface.cocycle, q2)
    return s2, FatPoint(base2, fp.w0, fp.multiplicity)
