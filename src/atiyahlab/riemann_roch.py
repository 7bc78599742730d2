"""Riemann-Roch spaces L(D) on an elliptic curve, by divisor reduction.

The reduction walks the divisor with an accumulator function maintaining

    div(h_acc) = D_processed - (A) - (k - 1) (infinity),

where A is the running group-law sum and k the running degree: a +P step
multiplies by the pair function of (A, P), a -P step divides by the pair
function of (A - P, P), entries at infinity adjust k only.  Afterwards
L(D) = (1/h_acc) * L((d-1) inf + (R)) with d = deg D and R = sigma(D), and the
right-hand space has an explicit basis: monomials 1, x, y, x^2, x y, ... when
R is at infinity, otherwise monomials of L((d+1) inf) with one evaluation
condition at -R, divided by (x - x_R).
"""

from __future__ import annotations

from .curve import CurvePoint, Divisor
from .errors import VerificationError
from .fields import QQ
from .funcfield import FuncElem, combination, linearly_independent, pair_function
from .linalg import Matrix, rank_and_kernel


def point_sort_key(P: CurvePoint):
    """Deterministic ordering key for points (infinity last)."""
    if P.is_infinity:
        return (1,)
    f = P.curve.field
    if f is QQ:
        return (0, P.x.raw, P.y.raw)
    return (0, f.to_packed(P.x.raw), f.to_packed(P.y.raw))


def monomial_basis(curve, n: int):
    """FuncElems 1, x, y, x^2, x y, ... with pole order at infinity <= n."""
    out = [FuncElem.one(curve)]
    x = FuncElem.x_function(curve)
    y = FuncElem.y_function(curve)
    for m in range(2, n + 1):
        if m % 2 == 0:
            out.append(x ** (m // 2))
        else:
            out.append(x ** ((m - 3) // 2) * y)
    return out


def reduce_divisor(D: Divisor):
    """(h_acc, R, d) with div(h_acc) = D - (R) - (d-1)(infinity)."""
    curve = D.curve
    hacc = FuncElem.one(curve)
    A = curve.infinity
    support = sorted(D.support(), key=point_sort_key)
    for P in support:
        n = D.multiplicity(P)
        if P.is_infinity or n == 0:
            continue
        for _ in range(n):
            hacc = hacc * pair_function(A, P)
            A = A + P
        for _ in range(-n):
            B = A - P
            hacc = hacc / pair_function(B, P)
            A = B
    return hacc, A, D.degree()


class RRSpace:
    """A computed basis of L(D); ``verify`` re-checks it from scratch."""

    def __init__(self, divisor: Divisor, basis):
        self.divisor = divisor
        self.basis = tuple(basis)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def verify(self) -> None:
        """Raise VerificationError unless the basis withstands re-checking.

        Checks: expected dimension; linear independence; and for every basis
        element, val_P(f) >= -D(P) by expansion at every support point of D.
        """
        D = self.divisor
        if self.dim != expected_rr_dim(D):
            raise VerificationError(
                f"dim L(D) = {self.dim} but the degree-genus count gives "
                f"{expected_rr_dim(D)} for D = {D!r}"
            )
        if self.basis and not linearly_independent(list(self.basis)):
            raise VerificationError(f"basis of L({D!r}) is linearly dependent")
        for f in self.basis:
            for P in D.support():
                need = -D.multiplicity(P)
                v = f.valuation_at(P)
                if v < need:
                    raise VerificationError(
                        f"basis element {f!r} has valuation {v} < {need} at {P}"
                    )

    def __repr__(self):
        return f"RRSpace(dim={self.dim}, D={self.divisor!r})"


def expected_rr_dim(D: Divisor) -> int:
    d = D.degree()
    if d < 0:
        return 0
    if d == 0:
        return 1 if D.is_principal() else 0
    return d


def rr_basis(curve, D: Divisor) -> RRSpace:
    """Basis of L(D) = {f : div(f) + D >= 0}, deterministic order; call
    ``verify`` on the result to re-check it."""
    hacc, R, d = reduce_divisor(D)
    if d < 0:
        return RRSpace(D, [])
    if d == 0:
        return RRSpace(D, [hacc.inverse()] if R.is_infinity else [])
    if R.is_infinity:
        hinv = hacc.inverse()
        return RRSpace(D, [m * hinv for m in monomial_basis(curve, d)])
    f = curve.field
    cands = monomial_basis(curve, d + 1)
    minus_r = -R
    row = [m.evaluate(minus_r).raw for m in cands]
    _, kern = rank_and_kernel(Matrix(f, [row]))
    xr = FuncElem(curve, [f.neg(R.x.raw), f.one], [], [f.one], reduce=False)
    scale = (xr * hacc).inverse()
    return RRSpace(D, [combination(curve, vec, cands) * scale for vec in kern])
