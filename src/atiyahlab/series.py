"""Truncated Laurent series with explicit knowledge windows.

A :class:`LaurentSeries` stores coefficients for every exponent in
``[start, hi)`` and guarantees that all coefficients below ``start`` are
exactly zero.  ``hi`` is the knowledge horizon: the series equals the stored
data modulo ``t^hi``.  Arithmetic propagates the sharpest horizon that is
sound for truncated operands; reading a coefficient at or above the horizon
raises :class:`SeriesPrecisionError` instead of silently returning 0.
"""

from __future__ import annotations

from .errors import SeriesPrecisionError


class LaurentSeries:
    __slots__ = ("field", "start", "coeffs", "hi")

    def __init__(self, field, start: int, coeffs, hi: int | None = None):
        self.field = field
        cs = list(coeffs)
        if hi is None:
            hi = start + len(cs)
        if hi - start != len(cs):
            raise ValueError("coefficient window does not match [start, hi)")
        self.start = start
        self.coeffs = cs
        self.hi = hi

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, field, hi: int):
        return cls(field, hi, [], hi)

    @classmethod
    def constant(cls, field, c, hi: int):
        if hi <= 0:
            return cls.zero(field, hi)
        return cls(field, 0, [c] + [field.zero] * (hi - 1), hi)

    @classmethod
    def one(cls, field, hi: int):
        return cls.constant(field, field.one, hi)

    @classmethod
    def t_power(cls, field, n: int, hi: int):
        if hi <= n:
            return cls.zero(field, hi)
        return cls(field, n, [field.one] + [field.zero] * (hi - n - 1), hi)

    # -- inspection -------------------------------------------------------------

    def valuation(self):
        """Exponent of the first nonzero known coefficient, or None."""
        fz = self.field.is_zero
        for i, c in enumerate(self.coeffs):
            if not fz(c):
                return self.start + i
        return None

    def _val_eff(self) -> int:
        v = self.valuation()
        return self.hi if v is None else v

    def is_zero_to_precision(self) -> bool:
        return self.valuation() is None

    def coefficient(self, e: int):
        if e >= self.hi:
            raise SeriesPrecisionError(
                f"coefficient t^{e} outside known window [{self.start}, {self.hi})"
            )
        if e < self.start:
            return self.field.zero
        return self.coeffs[e - self.start]

    def precision_past_valuation(self) -> int:
        return self.hi - self._val_eff()

    # -- arithmetic ----------------------------------------------------------------

    def _check(self, other):
        if self.field is not other.field:
            raise ValueError("mixed field descriptors")

    def __add__(self, other):
        self._check(other)
        field = self.field
        hi = min(self.hi, other.hi)
        start = min(self.start, other.start, hi)
        n = hi - start
        out = [field.zero] * n
        for i in range(max(self.start, start), min(self.hi, hi)):
            out[i - start] = self.coeffs[i - self.start]
        for i in range(max(other.start, start), min(other.hi, hi)):
            out[i - start] = field.add(out[i - start], other.coeffs[i - other.start])
        return LaurentSeries(field, start, out, hi)

    def __neg__(self):
        field = self.field
        return LaurentSeries(field, self.start, [field.neg(c) for c in self.coeffs], self.hi)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        field = self.field
        v1, v2 = self._val_eff(), other._val_eff()
        hi = min(v1 + other.hi, v2 + self.hi)
        start = v1 + v2
        if start >= hi:
            return LaurentSeries.zero(field, hi)
        n = hi - start
        out = [field.zero] * n
        fz, fmul, fadd = field.is_zero, field.mul, field.add
        for i in range(v1, min(self.hi, hi - v2)):
            a = self.coeffs[i - self.start] if i >= self.start else field.zero
            if fz(a):
                continue
            jmax = min(other.hi, hi - i)
            for j in range(v2, jmax):
                b = other.coeffs[j - other.start]
                if not fz(b):
                    out[i + j - start] = fadd(out[i + j - start], fmul(a, b))
        return LaurentSeries(field, start, out, hi)

    def scale(self, c):
        field = self.field
        if field.is_zero(c):
            return LaurentSeries.zero(field, self.hi)
        if c == field.one:
            return self
        return LaurentSeries(
            field, self.start, [field.mul(c, a) for a in self.coeffs], self.hi
        )

    def shift(self, n: int):
        """Multiplication by t^n."""
        return LaurentSeries(self.field, self.start + n, self.coeffs, self.hi + n)

    def truncate(self, hi: int):
        if hi >= self.hi:
            return self
        if hi <= self.start:
            return LaurentSeries.zero(self.field, hi)
        return LaurentSeries(self.field, self.start, self.coeffs[: hi - self.start], hi)

    def inverse(self):
        """Multiplicative inverse; requires a visible leading coefficient."""
        field = self.field
        v = self.valuation()
        if v is None:
            raise ZeroDivisionError("inverse of a series that is zero to precision")
        n = self.hi - v
        unit = self.coeffs[v - self.start:]
        c0inv = field.inv(unit[0])
        out = [field.zero] * n
        out[0] = c0inv
        fz = field.is_zero
        for i in range(1, n):
            acc = field.zero
            for j in range(1, i + 1):
                cj = unit[j]
                if not fz(cj) and not fz(out[i - j]):
                    acc = field.add(acc, field.mul(cj, out[i - j]))
            out[i] = field.neg(field.mul(c0inv, acc))
        return LaurentSeries(field, -v, out, -v + n)

    def __truediv__(self, other):
        return self * other.inverse()

    def __eq__(self, other):
        """Equality of the overlapping known data (same window required)."""
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        if self.field is not other.field or self.hi != other.hi:
            return False
        v1, v2 = self.valuation(), other.valuation()
        if v1 != v2:
            return False
        if v1 is None:
            return True
        return (
            self.coeffs[v1 - self.start:] == other.coeffs[v1 - other.start:]
        )

    def __hash__(self):
        raise TypeError("LaurentSeries is unhashable")

    def __repr__(self):
        v = self.valuation()
        if v is None:
            return f"O(t^{self.hi})"
        parts = []
        for i, c in enumerate(self.coeffs):
            if self.field.is_zero(c):
                continue
            e = self.start + i
            ct = self.field.to_text(c)
            parts.append(ct if e == 0 else f"{ct}*t^{e}")
            if len(parts) >= 6:
                parts.append("...")
                break
        return " + ".join(parts) + f" + O(t^{self.hi})"


def eval_poly(field, coeffs, s: LaurentSeries) -> LaurentSeries:
    """Evaluate sum c_i s^i by Horner; each c_i is a raw field value or a series.

    Raw coefficients are exact, so they enter with a horizon safely above
    anything the multiplications can propagate; the series class then
    computes the sharp sound window on its own.  The leading coefficient is
    raw and is applied with ``scale``, which saves a series product.
    """
    cs = list(coeffs)
    if not cs:
        return LaurentSeries.zero(field, s.hi)
    v = s._val_eff()
    big = s.hi + (len(cs) + 2) * (abs(v) + 1) + abs(s.hi) + 4
    if len(cs) == 1:
        return LaurentSeries.constant(field, cs[0], big)
    lifted = (c if isinstance(c, LaurentSeries) else LaurentSeries.constant(field, c, big)
              for c in reversed(cs[:-1]))
    acc = s.scale(cs[-1]) + next(lifted)
    for c in lifted:
        acc = acc * s + c
    return acc
