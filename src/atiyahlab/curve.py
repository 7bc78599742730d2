"""Elliptic curves in long Weierstrass form over an exact field.

    y^2 + a1 x y + a3 y = x^3 + a2 x^2 + a4 x + a6

The long form is kept everywhere so that characteristics 2 and 3 need no
special cases.  Points are immutable and hashable; the group law follows the
classical chord-tangent formulas:

    lambda_chord = (y2 - y1) / (x2 - x1)
    lambda_tan   = (3 x1^2 + 2 a2 x1 + a4 - a1 y1) / (2 y1 + a1 x1 + a3)
    x3 = lambda^2 + a1 lambda - a2 - x1 - x2
    y3 = -(lambda + a1) x3 - nu - a3,   nu = y1 - lambda x1

with -(x, y) = (x, -y - a1 x - a3).
"""

from __future__ import annotations

from math import lcm

from .errors import CertificationError
from .fields import QQ, FieldElem, _prime_divisors, solve_quadratic

_ENUMERATION_CAP = 10 ** 6


class WeierstrassCurve:
    """A smooth long-Weierstrass curve over a field object."""

    def __init__(self, field, a1, a2, a3, a4, a6):
        self.field = field
        self.a1 = field.elem(a1)
        self.a2 = field.elem(a2)
        self.a3 = field.elem(a3)
        self.a4 = field.elem(a4)
        self.a6 = field.elem(a6)
        b2 = self.a1 * self.a1 + 4 * self.a2
        b4 = 2 * self.a4 + self.a1 * self.a3
        b6 = self.a3 * self.a3 + 4 * self.a6
        b8 = (
            self.a1 * self.a1 * self.a6
            + 4 * self.a2 * self.a6
            - self.a1 * self.a3 * self.a4
            + self.a2 * self.a3 * self.a3
            - self.a4 * self.a4
        )
        self.b2, self.b4, self.b6, self.b8 = b2, b4, b6, b8
        self.discriminant = (
            -b2 * b2 * b8 - 8 * b4 * b4 * b4 - 27 * b6 * b6 + 9 * b2 * b4 * b6
        )
        if not self.discriminant:
            raise ValueError("singular model: discriminant vanishes")
        self._expansion_cache: dict = {}

    @property
    def infinity(self) -> "CurvePoint":
        """The point at infinity, made afresh: a stored one would point back
        at the curve, and the curve would wait for the cyclic collector."""
        return CurvePoint(self, None, None)

    # -- point construction ------------------------------------------------

    def point(self, x, y) -> "CurvePoint":
        xe, ye = self.field.elem(x), self.field.elem(y)
        if not self.contains(xe, ye):
            raise ValueError(f"({xe}, {ye}) is not on the curve")
        return CurvePoint(self, xe, ye)

    def contains(self, x: FieldElem, y: FieldElem) -> bool:
        lhs = y * y + self.a1 * x * y + self.a3 * y
        rhs = ((x + self.a2) * x + self.a4) * x + self.a6
        return lhs == rhs

    def y_coordinates(self, x) -> list:
        """All y with (x, y) on the curve, canonically ordered (finite fields
        only: over Q this raises ValueError)."""
        xe = self.field.elem(x)
        f = self.field
        b = self.a1 * xe + self.a3
        c = -(((xe + self.a2) * xe + self.a4) * xe + self.a6)
        return [FieldElem(f, r) for r in solve_quadratic(f, f.one, b.raw, c.raw)]

    # -- group law ------------------------------------------------------------

    def neg(self, P: "CurvePoint") -> "CurvePoint":
        if P.is_infinity:
            return P
        return CurvePoint(self, P.x, -P.y - self.a1 * P.x - self.a3)

    def line(self, P: "CurvePoint", Q: "CurvePoint"):
        """(lambda, nu) of the chord y = lambda x + nu through affine P and Q,
        the tangent if P = Q; None when that line is vertical."""
        if P.x == Q.x:
            den = 2 * P.y + self.a1 * P.x + self.a3
            if P.y != Q.y or not den:
                return None
            lam = (3 * P.x * P.x + 2 * self.a2 * P.x + self.a4 - self.a1 * P.y) / den
        else:
            lam = (Q.y - P.y) / (Q.x - P.x)
        return lam, P.y - lam * P.x

    def add(self, P: "CurvePoint", Q: "CurvePoint") -> "CurvePoint":
        if P.is_infinity:
            return Q
        if Q.is_infinity:
            return P
        line = self.line(P, Q)
        if line is None:
            return self.infinity
        lam, nu = line
        x3 = lam * lam + self.a1 * lam - self.a2 - P.x - Q.x
        y3 = -(lam + self.a1) * x3 - nu - self.a3
        return CurvePoint(self, x3, y3)

    def sub(self, P, Q):
        return self.add(P, self.neg(Q))

    def mul(self, n: int, P: "CurvePoint") -> "CurvePoint":
        if n < 0:
            return self.mul(-n, self.neg(P))
        R = self.infinity
        base = P
        while n:
            if n & 1:
                R = self.add(R, base)
            base = self.add(base, base)
            n >>= 1
        return R

    # -- point sampling / enumeration -------------------------------------------

    def random_point(self, rng, avoid=()):
        """A uniform-ish random affine point (finite fields only)."""
        f = self.field
        if f is QQ:
            raise ValueError("random points require a finite field")
        avoid = set(avoid)
        for _ in range(200 * f.q):
            x = f.random(rng)
            ys = self.y_coordinates(FieldElem(f, x))
            if not ys:
                continue
            P = CurvePoint(self, FieldElem(f, x), ys[rng.randrange(len(ys))])
            if P not in avoid:
                return P
        raise CertificationError("field too small: no admissible point found")

    def _affine_points(self):
        """Affine points in canonical coordinate order (finite fields)."""
        f = self.field
        if f is QQ:
            raise ValueError("enumeration requires a finite field")
        xs = (FieldElem(f, f.from_packed(v)) for v in range(f.q))
        return (CurvePoint(self, x, y) for x in xs for y in self.y_coordinates(x))

    def first_point(self, avoid=()):
        """First affine point in canonical coordinate order, off ``avoid``."""
        avoid = set(avoid)
        for P in self._affine_points():
            if P not in avoid:
                return P
        raise CertificationError("field too small: no admissible point found")

    def points(self) -> list:
        """All rational points, infinity first (finite fields, q <= 10^6).

        For odd q the points over each x are read off one table of square
        roots instead of a root solve per x: y = (s - b)/2 and (-s - b)/2
        with s^2 = b^2 - 4c, listed in the order y_coordinates lists them.
        """
        affine = self._affine_points()
        f = self.field
        if f.q > _ENUMERATION_CAP:
            raise ValueError(f"field size {f.q} above enumeration cap "
                             f"{_ENUMERATION_CAP}")
        if f.p == 2:
            return [self.infinity, *affine]
        root = {}
        for v in range(f.q):
            r = f.from_packed(v)
            root.setdefault(f.mul(r, r), r)
        half, four = f.inv(f.from_int(2)), f.from_int(4)
        a1, a2, a3, a4, a6 = (c.raw for c in
                              (self.a1, self.a2, self.a3, self.a4, self.a6))
        out = [self.infinity]
        for v in range(f.q):
            x = f.from_packed(v)
            b = f.add(f.mul(a1, x), a3)
            rhs = f.add(f.mul(f.add(f.mul(f.add(x, a2), x), a4), x), a6)
            s = root.get(f.add(f.mul(b, b), f.mul(four, rhs)))
            if s is None:
                continue
            ys = {f.mul(f.sub(s, b), half), f.mul(f.neg(f.add(s, b)), half)}
            xe = FieldElem(f, x)
            out += [CurvePoint(self, xe, FieldElem(f, y))
                    for y in sorted(ys, key=f.to_packed)]
        return out

    def group_structure_small(self) -> "GroupStructure":
        """Order, cyclicity and a maximal-order witness by full enumeration."""
        pts = self.points()
        n = len(pts)
        factors = _prime_divisors(n)
        best, best_ord = self.infinity, 1
        exponent = 1
        for P in pts[1:]:
            o = self._element_order(P, n, factors)
            exponent = lcm(exponent, o)
            if o > best_ord:
                best, best_ord = P, o
            if best_ord == n:
                break
        return GroupStructure(order=n, cyclic=(best_ord == n), generator=best,
                              exponent=max(exponent, best_ord))

    def _element_order(self, P, n, factors):
        o = n
        for r in factors:
            while o % r == 0 and self.mul(o // r, P).is_infinity:
                o //= r
        return o

    def __repr__(self):
        a = [self.a1, self.a2, self.a3, self.a4, self.a6]
        return f"WeierstrassCurve({self.field!r}, a=[{', '.join(map(str, a))}])"

    def __eq__(self, other):
        if not isinstance(other, WeierstrassCurve):
            return NotImplemented
        return self.field is other.field and all(
            getattr(self, n) == getattr(other, n) for n in ("a1", "a2", "a3", "a4", "a6")
        )

    def __hash__(self):
        return hash((id(self.field), str(self.a1), str(self.a2), str(self.a3),
                     str(self.a4), str(self.a6)))


class GroupStructure:
    def __init__(self, order, cyclic, generator, exponent):
        self.order = order
        self.cyclic = cyclic
        self.generator = generator
        self.exponent = exponent

    def __repr__(self):
        shape = f"Z/{self.order}" if self.cyclic else \
            f"Z/{self.order // self.exponent} x Z/{self.exponent}"
        return f"GroupStructure(order={self.order}, {shape})"


class CurvePoint:
    """A point on a fixed curve; (None, None) coordinates mean infinity."""

    __slots__ = ("curve", "x", "y")

    def __init__(self, curve, x, y):
        self.curve = curve
        self.x = x
        self.y = y

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __add__(self, other):
        return self.curve.add(self, other)

    def __sub__(self, other):
        return self.curve.sub(self, other)

    def __neg__(self):
        return self.curve.neg(self)

    def __rmul__(self, n: int):
        return self.curve.mul(n, self)

    def __eq__(self, other):
        if not isinstance(other, CurvePoint):
            return NotImplemented
        if self.is_infinity or other.is_infinity:
            return self.is_infinity and other.is_infinity
        return self.x == other.x and self.y == other.y

    def __hash__(self):
        if self.is_infinity:
            return hash("inf")
        return hash((self.x.raw, self.y.raw))

    def to_text(self) -> str:
        if self.is_infinity:
            return "infinity"
        return f"({self.x}, {self.y})"

    def __repr__(self):
        return self.to_text()


class Divisor:
    """Formal Z-combination of points of one curve."""

    __slots__ = ("curve", "coeffs")

    def __init__(self, curve, coeffs=None):
        self.curve = curve
        self.coeffs = {}
        if coeffs:
            for P, n in dict(coeffs).items():
                if n:
                    self.coeffs[P] = n

    def degree(self) -> int:
        return sum(self.coeffs.values())

    def __add__(self, other):
        out = dict(self.coeffs)
        for P, n in other.coeffs.items():
            out[P] = out.get(P, 0) + n
        return Divisor(self.curve, out)

    def __sub__(self, other):
        out = dict(self.coeffs)
        for P, n in other.coeffs.items():
            out[P] = out.get(P, 0) - n
        return Divisor(self.curve, out)

    def __mul__(self, n: int):
        return Divisor(self.curve, {P: n * m for P, m in self.coeffs.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Divisor):
            return NotImplemented
        return self.curve == other.curve and self.coeffs == other.coeffs

    def multiplicity(self, P) -> int:
        return self.coeffs.get(P, 0)

    def support(self):
        return list(self.coeffs.keys())

    def group_sum(self) -> CurvePoint:
        """sigma(D): the divisor summed under the group law."""
        acc = self.curve.infinity
        for P, n in self.coeffs.items():
            acc = acc + self.curve.mul(n, P)
        return acc

    def is_principal(self) -> bool:
        return self.degree() == 0 and self.group_sum().is_infinity

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"{n}*({P})" for P, n in self.coeffs.items())


def certify_non_torsion(P: CurvePoint, bound: int = 16) -> None:
    """Raise unless k*P != infinity for all 1 <= k <= bound.

    Over Q with bound >= 16 this certifies infinite order outright (no
    rational point has order above 12, and none has order 11).
    """
    if P.is_infinity:
        raise CertificationError("the class is trivial (point at infinity)")
    R = P.curve.infinity
    for k in range(1, bound + 1):
        R = R + P
        if R.is_infinity:
            raise CertificationError(f"class point has finite order {k}")


def certify_not_p_torsion(P: CurvePoint) -> None:
    """Raise unless p*P != infinity, p the field characteristic."""
    p = P.curve.field.characteristic
    if p == 0:
        raise ValueError("characteristic-p certificate requested over the rationals")
    if P.is_infinity or P.curve.mul(p, P).is_infinity:
        raise CertificationError(f"class point is {p}-torsion")


def certify_class_point(P: CurvePoint) -> None:
    """Raise unless the class point certifies: non-torsion over Q, not
    p-torsion in characteristic p."""
    if P.curve.field.characteristic == 0:
        certify_non_torsion(P)
    else:
        certify_not_p_torsion(P)


def reduce_curve_mod_p(curve: WeierstrassCurve, p: int, k: int = 1) -> WeierstrassCurve:
    """Reduction of a rational model to F_{p^k}.

    Requires all a_i to be p-integral and the reduced model to stay smooth;
    raises ValueError("bad reduction ...") otherwise.
    """
    from .fields import QQ, make_extension_field

    if curve.field is not QQ:
        raise ValueError("reduction starts from a model over the rationals")
    target = make_extension_field(p, k)
    coeffs = []
    for a in (curve.a1, curve.a2, curve.a3, curve.a4, curve.a6):
        fr = a.raw
        if fr.denominator % p == 0:
            raise ValueError(f"bad reduction at {p}: coefficient {fr} is not {p}-integral")
        coeffs.append(FieldElem(target, target.parse(fr)))
    try:
        return WeierstrassCurve(target, *coeffs)
    except ValueError as exc:
        raise ValueError(f"bad reduction at {p}: {exc}") from exc


def reduce_point_mod_p(P: CurvePoint, target_curve: WeierstrassCurve) -> CurvePoint:
    """Image of a p-integral rational point on the reduced model."""
    if P.is_infinity:
        return target_curve.infinity
    f = target_curve.field
    p = f.characteristic
    out = []
    for c in (P.x, P.y):
        fr = c.raw
        if fr.denominator % p == 0:
            raise ValueError(f"point {P} is not {p}-integral")
        out.append(FieldElem(f, f.parse(fr)))
    return target_curve.point(out[0], out[1])
