"""Dense univariate polynomials over any field from :mod:`atiyahlab.fields`.

A polynomial is a plain list/tuple of raw field values, index = exponent,
with no trailing zeros ([] is the zero polynomial).  Functions take the field
first and never mutate their arguments.

Division and :func:`monic` divide coefficients through ``field.div``, never
by multiplying with an inverse, so over Q, where ``div`` returns an ``int``
whenever the quotient is integral, quotients and monic polynomials keep
integral coefficients as ints.
"""

from __future__ import annotations


def trim(field, cs):
    cs = list(cs)
    while cs and field.is_zero(cs[-1]):
        cs.pop()
    return cs


def const(field, c):
    return [] if field.is_zero(c) else [c]


def degree(cs) -> int:
    return len(cs) - 1


def add(field, f, g):
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] = field.add(out[i], c)
    return trim(field, out)


def neg(field, f):
    return [field.neg(c) for c in f]


def scalar_mul(field, c, f):
    if field.is_zero(c):
        return []
    return trim(field, [field.mul(c, a) for a in f])


def mul(field, f, g):
    if not f or not g:
        return []
    out = [field.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if field.is_zero(a):
            continue
        for j, b in enumerate(g):
            out[i + j] = field.add(out[i + j], field.mul(a, b))
    return trim(field, out)


def divmod_poly(field, f, g):
    """(quotient, remainder) with deg r < deg g; raises on g = 0."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    f = list(f)
    q = [field.zero] * max(0, len(f) - len(g) + 1)
    lead = g[-1]
    while len(f) >= len(g):
        if field.is_zero(f[-1]):
            f.pop()
            continue
        c = field.div(f[-1], lead)
        off = len(f) - len(g)
        q[off] = c
        for i, b in enumerate(g):
            f[off + i] = field.sub(f[off + i], field.mul(c, b))
        f.pop()
    return trim(field, q), trim(field, f)


def mod(field, f, g):
    return divmod_poly(field, f, g)[1]


def powmod(field, f, n, m):
    """f^n mod m for n >= 0, by left-to-right square-and-multiply."""
    out = [field.one]
    for bit in bin(n)[2:]:
        out = mod(field, mul(field, out, out), m)
        if bit == "1":
            out = mod(field, mul(field, out, f), m)
    return out


def gcd(field, f, g):
    """Monic greatest common divisor."""
    f, g = trim(field, f), trim(field, g)
    while g:
        f, g = g, mod(field, f, g)
    return monic(field, f)


def lcm(field, f, g):
    if not f or not g:
        return []
    d = gcd(field, f, g)
    q, _ = divmod_poly(field, mul(field, f, g), d)
    return monic(field, q)


def monic(field, f):
    if not f:
        return []
    lead = f[-1]
    if lead == field.one:
        return list(f)
    return [field.div(c, lead) for c in f]


def evaluate(field, f, x_raw):
    """Horner evaluation at a raw field value."""
    acc = field.zero
    for c in reversed(f):
        acc = field.add(field.mul(acc, x_raw), c)
    return acc


def to_text(field, f, var: str = "x") -> str:
    if not f:
        return "0"
    parts = []
    for i, c in enumerate(f):
        if field.is_zero(c):
            continue
        ct = field.to_text(c)
        if i == 0:
            parts.append(ct)
        elif i == 1:
            parts.append(f"{ct}*{var}")
        else:
            parts.append(f"{ct}*{var}^{i}")
    return " + ".join(parts)
