"""Elements of the function field of a Weierstrass curve, and local expansion.

A :class:`FuncElem` is stored as (a(x) + b(x) y) / d(x) with dense polynomial
parts, reduced so that gcd(a, b, d) = 1 and d is monic — a canonical form, so
equality is coefficient equality.  Products reduce y^2 through the curve
relation y^2 = S(x) + T(x) y with S = x^3 + a2 x^2 + a4 x + a6 and
T = -(a1 x + a3); inverses go through the conjugate (a + bT) - b y and the
norm a^2 + a b T - b^2 S.

Local parameters are fixed once and for all, each chart knowing one
coordinate as a series in t and solving for the other:

* affine P with 2 y_P + a1 x_P + a3 != 0:  t = x - x_P, x known, solve y,
* affine P on the ramification locus:      t = y - y_P, y known, solve x,
* the point at infinity:                   t = x / y, t known, solve w = 1/y.

Each chart writes the curve equation as a polynomial in its unknown with
series coefficients and hands it to one Newton step, whose residual and
derivative go through the Horner loop of ``series.eval_poly``.  Expansions
are cached per (curve, point), the horizon at least doubling whenever it
falls short.
"""

from __future__ import annotations

from . import poly
from .curve import CurvePoint, WeierstrassCurve
from .errors import SeriesPrecisionError
from .fields import FieldElem
from .series import LaurentSeries, eval_poly

VALUATION_PREC = 8      # coefficients valuation_at expands past the valuation


def _curve_st(curve):
    """Coefficient lists of S and T with y^2 = S + T y (cached on the curve)."""
    st = getattr(curve, "_st", None)
    if st is None:
        f = curve.field
        S = poly.trim(f, [curve.a6.raw, curve.a4.raw, curve.a2.raw, f.one])
        T = poly.trim(f, [f.neg(curve.a3.raw), f.neg(curve.a1.raw)])
        st = curve._st = (S, T)
    return st


def mul_numerators(curve, a, b, c, d):
    """(A, B) with A + B y = (a + b y)(c + d y), reducing y^2 = S + T y.

    Plain polynomial parts in, plain polynomial parts out: no denominator,
    no gcd.
    """
    f = curve.field
    S, T = _curve_st(curve)
    bd = poly.mul(f, b, d)
    A = poly.add(f, poly.mul(f, a, c), poly.mul(f, bd, S))
    B = poly.add(f, poly.add(f, poly.mul(f, a, d), poly.mul(f, b, c)),
                 poly.mul(f, bd, T))
    return A, B


class FuncElem:
    __slots__ = ("curve", "a", "b", "d")

    def __init__(self, curve, a, b, d, reduce: bool = True):
        self.curve = curve
        field = curve.field
        a, b, d = poly.trim(field, a), poly.trim(field, b), poly.trim(field, d)
        if not d:
            raise ZeroDivisionError("denominator polynomial is zero")
        if reduce:
            g = poly.gcd(field, poly.gcd(field, a, b), d)
            if poly.degree(g) > 0:
                a, _ = poly.divmod_poly(field, a, g)
                b, _ = poly.divmod_poly(field, b, g)
                d, _ = poly.divmod_poly(field, d, g)
            lead = d[-1]
            if lead != field.one:
                inv = field.inv(lead)
                a = poly.scalar_mul(field, inv, a)
                b = poly.scalar_mul(field, inv, b)
                d = poly.scalar_mul(field, inv, d)
        self.a, self.b, self.d = a, b, d

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, curve):
        return cls(curve, [], [], [curve.field.one], reduce=False)

    @classmethod
    def one(cls, curve):
        return cls(curve, [curve.field.one], [], [curve.field.one], reduce=False)

    @classmethod
    def constant(cls, curve, c):
        raw = curve.field.parse(c)
        return cls(curve, poly.const(curve.field, raw), [], [curve.field.one],
                   reduce=False)

    @classmethod
    def x_function(cls, curve):
        f = curve.field
        return cls(curve, [f.zero, f.one], [], [f.one], reduce=False)

    @classmethod
    def y_function(cls, curve):
        f = curve.field
        return cls(curve, [], [f.one], [f.one], reduce=False)

    # -- predicates / conversions ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if not isinstance(other, FuncElem):
            return NotImplemented
        return (
            self.curve == other.curve
            and self.a == other.a
            and self.b == other.b
            and self.d == other.d
        )

    def to_text(self) -> str:
        f = self.curve.field
        num_a = poly.to_text(f, self.a)
        if not self.b:
            num = num_a
        else:
            bt = poly.to_text(f, self.b)
            num = f"({bt})*y" if self.a == [] else f"{num_a} + ({bt})*y"
        den = poly.to_text(f, self.d)
        return num if den == "1" else f"({num})/({den})"

    def __repr__(self):
        return f"FuncElem[{self.to_text()}]"

    # -- arithmetic ------------------------------------------------------------

    def _require_same_curve(self, other):
        if self.curve != other.curve:
            raise ValueError("operands live on different curves")

    def __add__(self, other):
        if isinstance(other, (int, FieldElem)):
            other = FuncElem.constant(self.curve, other)
        self._require_same_curve(other)
        f = self.curve.field
        a = poly.add(f, poly.mul(f, self.a, other.d), poly.mul(f, other.a, self.d))
        b = poly.add(f, poly.mul(f, self.b, other.d), poly.mul(f, other.b, self.d))
        d = poly.mul(f, self.d, other.d)
        return FuncElem(self.curve, a, b, d)

    __radd__ = __add__

    def __neg__(self):
        f = self.curve.field
        return FuncElem(self.curve, poly.neg(f, self.a), poly.neg(f, self.b),
                        self.d, reduce=False)

    def __sub__(self, other):
        if isinstance(other, (int, FieldElem)):
            other = FuncElem.constant(self.curve, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, FieldElem)):
            c = self.curve.field.parse(other)
            f = self.curve.field
            return FuncElem(self.curve, poly.scalar_mul(f, c, self.a),
                            poly.scalar_mul(f, c, self.b), self.d)
        self._require_same_curve(other)
        a, b = mul_numerators(self.curve, self.a, self.b, other.a, other.b)
        return FuncElem(self.curve, a, b,
                        poly.mul(self.curve.field, self.d, other.d))

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero function")
        f = self.curve.field
        S, T = _curve_st(self.curve)
        # norm of a + b y over k(x): (a + by)(a + b(T - y)) = a^2 + abT - b^2 S
        norm = poly.add(
            f,
            poly.add(f, poly.mul(f, self.a, self.a),
                     poly.mul(f, poly.mul(f, self.a, self.b), T)),
            poly.neg(f, poly.mul(f, poly.mul(f, self.b, self.b), S)),
        )
        conj_a = poly.add(f, self.a, poly.mul(f, self.b, T))
        a = poly.mul(f, conj_a, self.d)
        b = poly.neg(f, poly.mul(f, self.b, self.d))
        return FuncElem(self.curve, a, b, norm)

    def __truediv__(self, other):
        if isinstance(other, (int, FieldElem)):
            inv = self.curve.field.inv(self.curve.field.parse(other))
            return self * FieldElem(self.curve.field, inv)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = FuncElem.one(self.curve)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- evaluation and expansion --------------------------------------------------

    def evaluate(self, P: CurvePoint) -> FieldElem:
        """Value at an affine point where the function is regular."""
        if P.is_infinity:
            raise ValueError("use expand() at the point at infinity")
        f = self.curve.field
        dv = poly.evaluate(f, self.d, P.x.raw)
        if not f.is_zero(dv):
            av = poly.evaluate(f, self.a, P.x.raw)
            bv = poly.evaluate(f, self.b, P.x.raw)
            val = f.div(f.add(av, f.mul(bv, P.y.raw)), dv)
            return FieldElem(f, val)
        s = self.expand(P, 2)
        v = s.valuation()
        if v is not None and v < 0:
            raise ZeroDivisionError(f"pole of order {-v} at {P}")
        return FieldElem(f, s.coefficient(0))

    def expand(self, P: CurvePoint, prec: int) -> LaurentSeries:
        """Laurent expansion at P in the canonical local parameter.

        Guarantees at least ``prec`` known coefficients past the valuation
        (or, if the function is zero, an exact zero window).
        """
        if self.is_zero():
            return LaurentSeries.zero(self.curve.field, prec + 4)
        f = self.curve.field
        H = prec + poly.degree(self.d) * 2 + 8
        for _ in range(6):
            xs, ys = point_expansion(self.curve, P, H)
            num = eval_poly(f, self.a, xs)
            if self.b:
                num = num + eval_poly(f, self.b, xs) * ys
            den = eval_poly(f, self.d, xs)
            if den.is_zero_to_precision():
                H *= 2
                continue
            res = num * den.inverse()
            if res.is_zero_to_precision() or res.precision_past_valuation() < prec:
                H *= 2
                continue
            return res
        raise SeriesPrecisionError(
            f"expansion of {self!r} at {P} did not stabilize at precision {prec}"
        )

    def valuation_at(self, P: CurvePoint) -> int:
        return self.expand(P, VALUATION_PREC).valuation()


def linearly_independent(funcs) -> bool:
    """Linear independence over the base field via coefficient vectors."""
    from .linalg import Matrix, rank

    if not funcs:
        return True
    curve = funcs[0].curve
    f = curve.field
    den = [f.one]
    for fn in funcs:
        den = poly.lcm(f, den, fn.d)
    rows = []
    width_a = width_b = 0
    cleared = []
    for fn in funcs:
        m, _ = poly.divmod_poly(f, den, fn.d)
        ca = poly.mul(f, fn.a, m)
        cb = poly.mul(f, fn.b, m)
        cleared.append((ca, cb))
        width_a = max(width_a, len(ca))
        width_b = max(width_b, len(cb))
    for ca, cb in cleared:
        row = list(ca) + [f.zero] * (width_a - len(ca))
        row += list(cb) + [f.zero] * (width_b - len(cb))
        rows.append(row)
    return rank(Matrix(f, rows, width_a + width_b)) == len(funcs)


# -- local expansions of the coordinate functions --------------------------------


def point_expansion(curve: WeierstrassCurve, P: CurvePoint, prec: int):
    """Series (x(t), y(t)) at P to horizon >= prec in the canonical parameter.

    A cached expansion too short for prec is replaced by one of at least
    twice its horizon, so a rising run of requests costs a logarithmic
    number of Newton solves.
    """
    cache = curve._expansion_cache
    entry = cache.get(P)
    if entry is None or entry[0] < prec:
        H = max(prec, 8, 2 * entry[0] if entry else 0)
        entry = cache[P] = (H, *_expand_uncached(curve, P, H))
    _, xs, ys = entry
    return (xs.truncate(prec) if xs.hi > prec else xs,
            ys.truncate(prec) if ys.hi > prec else ys)


def _newton(field, coeffs, u, P):
    """The root of sum c_i u^i near the start value u, to u's horizon.

    Each c_i is a raw field value or a series, the leading one raw; the
    residual and the derivative sum i c_i u^(i-1) both go through Horner.
    """
    deriv = [c.scale(field.from_int(i)) if isinstance(c, LaurentSeries)
             else field.mul(field.from_int(i), c)
             for i, c in enumerate(coeffs[1:], 1)]
    for _ in range(u.hi.bit_length() + 3):
        r = eval_poly(field, coeffs, u)
        if r.is_zero_to_precision():
            return u
        u = u - r * eval_poly(field, deriv, u).inverse()
    raise SeriesPrecisionError(f"Newton failed to converge at {P}")


def _expand_uncached(curve, P, H):
    f = curve.field
    a1, a2, a3, a4, a6 = (c.raw for c in
                          (curve.a1, curve.a2, curve.a3, curve.a4, curve.a6))
    neg, one = f.neg, f.one
    if P.is_infinity:
        # t = x/y, w = 1/y: a6 w^3 + (a4 t - a3) w^2 + (a2 t^2 - a1 t - 1) w + t^3
        Hw = H + 6
        t = LaurentSeries.t_power(f, 1, Hw)
        t3 = LaurentSeries.t_power(f, 3, Hw)
        w = _newton(f, [t3, eval_poly(f, [neg(one), neg(a1), a2], t),
                        eval_poly(f, [neg(a3), a4], t), a6], t3, P)
        ys = w.inverse()
        return (t * ys).truncate(H), ys.truncate(H)
    x0, y0 = P.x.raw, P.y.raw
    if not f.is_zero(f.add(f.add(f.add(y0, y0), f.mul(a1, x0)), a3)):
        # t = x - x_P: y^2 + (a1 x + a3) y - (x^3 + a2 x^2 + a4 x + a6)
        xs = LaurentSeries(f, 0, [x0, one] + [f.zero] * (H - 2), H)
        ys = _newton(f, [eval_poly(f, [neg(a6), neg(a4), neg(a2), neg(one)], xs),
                         eval_poly(f, [a3, a1], xs), one],
                     LaurentSeries.constant(f, y0, H), P)
        return xs, ys
    # ramified, t = y - y_P: x^3 + a2 x^2 + (a4 - a1 y) x + a6 - a3 y - y^2,
    # a simple root by smoothness
    ys = LaurentSeries(f, 0, [y0, one] + [f.zero] * (H - 2), H)
    xs = _newton(f, [eval_poly(f, [a6, neg(a3), neg(one)], ys),
                     eval_poly(f, [a4, neg(a1)], ys), a2, one],
                 LaurentSeries.constant(f, x0, H), P)
    return xs, ys


def pair_function(P: CurvePoint, Q: CurvePoint) -> FuncElem:
    """h with div(h) = (P) + (Q) - (P + Q) - (infinity); h = 1 if either is infinity."""
    curve = P.curve
    f = curve.field
    if P.is_infinity or Q.is_infinity:
        return FuncElem.one(curve)
    line = curve.line(P, Q)
    if line is None:
        # vertical line x - x_P
        return FuncElem(curve, [f.neg(P.x.raw), f.one], [], [f.one], reduce=False)
    lam, nu = line
    # (y - lam x - nu) / (x - x_R)
    a = poly.trim(f, [f.neg(nu.raw), f.neg(lam.raw)])
    return FuncElem(curve, a, [f.one], [f.neg((P + Q).x.raw), f.one])
