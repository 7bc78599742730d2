"""Exact coefficient fields: the rationals and finite fields F_{p^k}.

Every field object exposes the same small protocol on *raw* element values
(opaque, hashable, canonical — equal values compare equal with ``==``):

    zero, one, add(a, b), sub(a, b), neg(a), mul(a, b), inv(a), div(a, b),
    pow(a, n), is_zero(a), from_int(n), parse(text), to_text(a)

Hot code (polynomials, series, matrices) stores raw values and calls these
methods; the :class:`FieldElem` wrapper adds operator sugar for the geometric
layers on top.

Raw representations
-------------------
* rationals (:class:`RationalField`): ``int`` for integral values and
  ``fractions.Fraction`` otherwise; no operation gives a float.
* F_p, k = 1 (:class:`PrimeField`): ints in ``[0, p)``.
* F_{p^k}, k >= 2, p^k <= _TABLE_LIMIT (:class:`TableField`): discrete logs
  to a fixed generator (ints in ``[0, q-1)``, with ``q-1`` standing for
  zero), so multiplication is index addition and addition is one
  Zech-logarithm lookup.
* F_{p^k} above the table limit (:class:`PolyField`): one ``int`` per
  element, the coefficient of z^j in bits [W j, W j + W) for one width W
  per field, wide enough that a product is one integer product with no
  carry across digits (Kronecker substitution), reduced mod p digitwise by
  one multiply, shift and mask, and an addition is one integer addition.

``FiniteField(p, k)`` returns the gear that fits (p, k); a gear class called
directly builds that gear.  A gear defines its set-up, ``add``, ``neg``,
``mul``, packed conversion and any fast ``sub``/``inv``/``pow``; the rest
is written once on :class:`FiniteField`.

Externally (printing, serialization, enumeration order) an element of F_{p^k}
is always the packed integer ``c_0 + c_1 p + ... + c_{k-1} p^{k-1}`` of its
coefficients against the power basis of the canonical modulus, whatever the
internal form is.  The canonical modulus for given (p, k) is the monic
irreducible whose coefficient tuple ``(c_{k-1}, ..., c_1, c_0)`` is
lexicographically least; ``k = 1`` uses the identity polynomial ``z``.

Construction
------------
Candidates for the modulus are tried in that order with Rabin's
irreducibility test, computed with :mod:`atiyahlab.poly` over the prime field.
Each field searches once: a table gear hands its modulus to the
:class:`PolyField` gear of the same (p, k) that helps build it.  There it
takes as generator g the least packed value >= 2 whose order is q - 1, and
walks the powers of g to fill ``_exp``.  Multiplying by g is F_p-linear, so
with v = lo + hi p^h, h = k // 2, g v is the digitwise sum mod p of g lo and
g (hi p^h): two half tables, of p^h and p^(k-h) entries, made once with the
PolyField product, serve every step of the walk.  The sum is one integer
addition in the walk's narrow encoding, which puts base-p digit j in bits
[w j, w j + w) with w = p.bit_length() + 1; the half-table entries come
out of the PolyField gear in its own encoding, W bits a digit (W is wide
enough for a product, far more than w), and are narrowed once.  Two digits
below p sum below 2p <= 2^w, so no carry crosses a field; adding
2^(w-1) - p to every field sets bit w - 1 of exactly the fields >= p, and p
is subtracted there (the bias trick, which PolyField's ``add`` shares).
Two dicts keyed by the low and the high narrow half give back lo and hi.
``_log`` and the Zech table are read off ``_exp``.  So polynomial
arithmetic over F_p has two homes only: ``poly`` and the ``PolyField``
product.

Quadratic roots
---------------
:func:`solve_quadratic` is the one root finder, in every characteristic:
Rabin's gcd with z^q - z, then a gcd with a fixed sequence of splitters.
Its powers mod the quadratic come from ``poly.powmod``, which also gives the
Frobenius powers of the irreducibility test.  Over Q it raises ValueError.
"""

from __future__ import annotations

import re
from fractions import Fraction

from . import poly

_TABLE_LIMIT = 1 << 20
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for every n below 3.3e24."""
    if n < 2:
        return False
    for small in _MR_BASES:
        if n % small == 0:
            return n == small
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _integral(f):
    """f as an int when it is integral, else f itself (a ``Fraction``)."""
    return f.numerator if f.denominator == 1 else f


class RationalField:
    """The field Q.  A raw value is an ``int`` when the number is integral
    and a ``Fraction`` otherwise; the two forms of an integer compare, hash
    and print alike, so either may meet the other.

    ``add``, ``sub`` and ``mul`` are the bare operators, which keep ints ints
    (two Fractions may still give an integral Fraction); ``zero``, ``one``,
    ``from_int``, ``parse``, ``inv``, ``div`` and ``pow`` give an int
    whenever the result is integral and never a float.  So what divides
    through ``div`` keeps ints: ``poly``'s division and ``monic``, and the
    reduction of a ``FuncElem``, which divides every coefficient by the
    leading one of its denominator.
    """

    p = 0
    k = 1
    characteristic = 0
    modulus = None
    zero = 0
    one = 1

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return self.div(1, a)

    def div(self, a, b):
        if not b:
            raise ZeroDivisionError("division by zero")
        if type(a) is int and type(b) is int:
            q, r = divmod(a, b)
            return Fraction(a, b) if r else q
        return _integral(a / b)

    def pow(self, a, n):
        if n < 0:
            a, n = self.inv(a), -n
        return _integral(a ** n)

    def is_zero(self, a) -> bool:
        return not a

    def from_int(self, n: int):
        return int(n)

    def parse(self, text):
        if isinstance(text, FieldElem):
            if text.field is not self:
                raise ValueError("mixed field descriptors")
            return text.raw
        if isinstance(text, int):
            return int(text)
        if not isinstance(text, Fraction):
            text = Fraction(str(text).strip())
        return _integral(text)

    def to_text(self, a) -> str:
        return str(a)

    def elem(self, value) -> "FieldElem":
        return FieldElem(self, self.parse(value))

    def __repr__(self):
        return "QQ"


QQ = RationalField()


def _is_irreducible(p: int, coeffs) -> bool:
    """Rabin's test for the monic polynomial f with coefficient tuple coeffs:
    x^(p^k) = x mod f, and gcd(x^(p^(k/r)) - x, f) = 1 for every prime r | k."""
    k = len(coeffs) - 1
    if k == 1:
        return True
    F = make_extension_field(p)
    f = [c % p for c in coeffs]
    x = [F.zero, F.one]
    powers = [x]  # powers[i] = x^(p^i) mod f
    for _ in range(k):
        powers.append(poly.powmod(F, powers[-1], p, f))
    if powers[k] != x:
        return False
    minus_x = [F.zero, F.neg(F.one)]
    return all(poly.gcd(F, f, poly.add(F, powers[k // r], minus_x)) == [F.one]
               for r in _prime_divisors(k))


def _prime_divisors(n: int):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _canonical_modulus(p: int, k: int):
    """Lex-least monic irreducible of degree k over F_p.

    Candidates are ordered by the tuple (c_{k-1}, ..., c_1, c_0); the counter
    below enumerates exactly that order.
    """
    if k == 1:
        return (0, 1)
    for counter in range(p ** k):
        digits = []
        v = counter
        for _ in range(k):
            digits.append(v % p)
            v //= p
        # lex order on (c_{k-1}, ..., c_1, c_0): c_0 is the fastest-cycling
        # (least significant) counter digit, c_{k-1} the slowest.
        coeffs = tuple(digits) + (1,)
        if coeffs[0] == 0:
            continue  # reducible: z divides
        if _is_irreducible(p, coeffs):
            return coeffs
    raise ValueError(f"no irreducible polynomial found for p={p}, k={k}")


def digits_error(text: str, p: int, k: int) -> str | None:
    """Why number text has no single reading over F_{p^k}, or None.

    Over F_{p^k} with k >= 2, plain decimal digits n name the packed integer
    n, so n must be below p^k.  Any other text is a fraction reduced mod p,
    and there every run of digits must be below p: otherwise a sign or a
    slash would change the element (over F_9, '8' is 2z + 2, '8/1' would be
    2).  Over F_p (k = 1) both readings agree and every digit string is n
    reduced mod p."""
    if k == 1:
        return None
    if text.isascii() and text.isdigit():
        return None if int(text) < p ** k else f"decimal digits must be below {p ** k}"
    if any(int(run) >= p for run in re.findall(r"\d+", text)):
        return f"outside plain digits every run of digits must be below {p}"
    return None


class FiniteField:
    """F_{p^k} with canonical modulus; the base of the three gears (module doc)."""

    characteristic: int

    def __new__(cls, p: int, k: int = 1, modulus=None):
        if not is_probable_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if not 1 <= k <= 24:
            raise ValueError(f"extension degree {k} outside [1, 24]")
        if cls is FiniteField:
            cls = (PrimeField if k == 1 else
                   TableField if p ** k <= _TABLE_LIMIT else PolyField)
        return super().__new__(cls)

    def __init__(self, p: int, k: int = 1, modulus=None):
        """``modulus``, when given, is the canonical modulus of (p, k),
        already found: a table gear hands its own to its PolyField helper."""
        self.p, self.k, self.q = p, k, p ** k
        self.characteristic = p
        self.modulus = modulus or _canonical_modulus(p, k)
        self._setup()

    # -- raw arithmetic written once ------------------------------------------

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def div(self, a, b):
        return a if b == self.one else self.mul(a, self.inv(b))

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("inverse of zero")
        return self.pow(a, self.q - 2)

    def pow(self, a, n: int):
        if n < 0:
            return self.pow(self.inv(a), -n)
        result, base = self.one, a
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    def is_zero(self, a) -> bool:
        return a == self.zero

    # -- conversions ----------------------------------------------------------

    def from_int(self, n: int):
        return self._from_packed(n % self.p)

    def from_packed(self, v: int):
        """Element from its canonical packed integer in [0, p^k)."""
        if not 0 <= v < self.q:
            raise ValueError(f"packed value {v} outside [0, {self.q})")
        return self._from_packed(v)

    def from_coeffs(self, coeffs):
        cs = [int(c) % self.p for c in coeffs]
        if len(cs) > self.k:
            raise ValueError("too many coefficients")
        cs += [0] * (self.k - len(cs))
        return self.from_packed(_pack(self.p, cs))

    def parse(self, text):
        """Raw value from an int or Fraction (reduced mod p), a coefficient
        list, or text: decimal digits n < p^k name the packed integer n, any
        other number text like '-3/4' is a fraction reduced mod p.  Over
        F_{p^k}, k >= 2, text without a single reading (digits_error) raises
        ValueError."""
        if isinstance(text, FieldElem):
            if text.field is not self:
                raise ValueError("mixed field descriptors")
            return text.raw
        if isinstance(text, int):
            return self.from_int(text)
        if isinstance(text, (list, tuple)):
            return self.from_coeffs(text)
        if isinstance(text, str):
            text = text.strip()
            reason = digits_error(text, self.p, self.k)
            if reason:
                raise ValueError(f"{text} is no packed element of F_{self.q}: {reason}")
            if text.isascii() and text.isdigit() and int(text) < self.q:
                return self._from_packed(int(text))
        fr = Fraction(text)
        den = fr.denominator % self.p
        if den == 0:
            raise ValueError(f"denominator of {text} vanishes in characteristic {self.p}")
        num = self.from_int(fr.numerator)
        return self.mul(num, self.inv(self.from_int(den)))

    def to_text(self, a) -> str:
        return str(self.to_packed(a))

    def elem(self, value) -> "FieldElem":
        return FieldElem(self, self.parse(value))

    def random(self, rng):
        return self.from_packed(rng.randrange(self.q))

    def __repr__(self):
        return f"GF({self.p})" if self.k == 1 else f"GF({self.p}^{self.k})"


class PrimeField(FiniteField):
    """F_p: ints in [0, p), arithmetic mod p."""

    def _setup(self):
        if self.k != 1:
            raise ValueError(f"PrimeField needs k = 1, not {self.k}")
        self.zero, self.one = 0, 1

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def pow(self, a, n: int):
        if n < 0:
            a, n = self.inv(a), -n
        return pow(a, n, self.p)

    def _from_packed(self, v: int):
        return v

    def to_packed(self, a) -> int:
        return a


class TableField(FiniteField):
    """F_{p^k}, q <= _TABLE_LIMIT: discrete logs to a fixed generator, with
    q - 1 standing for zero; ``_exp`` and ``_log`` carry the zero entry too."""

    def _setup(self):
        p, k, q = self.p, self.k, self.q
        ring = PolyField(p, k, self.modulus)
        factors = _prime_divisors(q - 1)
        # the generator is the least packed value >= 2 of order q - 1
        for packed in range(2, q):
            gen = ring.from_packed(packed)
            if all(ring.pow(gen, (q - 1) // r) != ring.one for r in factors):
                break
        else:
            raise AssertionError("no multiplicative generator found")
        # v = lo + hi p^h: gen v is the digitwise sum mod p of the half
        # tables, one integer add in the wide encoding (module doc)
        h = k // 2
        ph, w = p ** h, p.bit_length() + 1
        ones = sum(1 << (w * j) for j in range(k))
        bias, top = ((1 << (w - 1)) - p) * ones, w - 1
        shift = w * h
        low = (1 << shift) - 1

        W = ring._W
        digit = (1 << W) - 1

        def narrow(a):  # the ring's W-bit digits in the walk's w bits
            return sum((a >> (W * j) & digit) << (w * j) for j in range(k))

        los = [ring.from_packed(v) for v in range(ph)]
        his = [ring.from_packed(u * ph) for u in range(p ** (k - h))]
        lo_tab = [narrow(ring.mul(gen, a)) for a in los]
        hi_tab = [narrow(ring.mul(gen, a)) for a in his]
        lo_of = {narrow(a): v for v, a in enumerate(los)}
        hi_of = {narrow(a) >> shift: u for u, a in enumerate(his)}
        exp = [0] * q  # exp[q - 1] = 0 packs the zero sentinel
        lo, hi = 1, 0
        for i in range(q - 1):
            exp[i] = lo + hi * ph
            s = lo_tab[lo] + hi_tab[hi]
            s -= p * (((s + bias) >> top) & ones)
            lo, hi = lo_of[s & low], hi_of[s >> shift]
        if (lo, hi) != (1, 0):
            raise AssertionError("generator order mismatch")
        log = [0] * q
        for i, v in enumerate(exp):
            log[v] = i
        # zech[d] = log(g^d + 1): add 1 to the lowest base-p digit
        zech = [log[v - v % p + (v + 1) % p] for v in exp[:-1]]
        self._exp, self._log, self._zech = exp, log, zech
        self.zero = q - 1  # log-form sentinel
        self.one = 0

    def add(self, a, b):
        qm1 = self.zero
        if a == qm1:
            return b
        if b == qm1:
            return a
        if a > b:
            a, b = b, a
        z = self._zech[b - a]
        return qm1 if z == qm1 else (a + z) % qm1

    def neg(self, a):
        qm1 = self.zero
        if a == qm1 or self.p == 2:
            return a
        return (a + qm1 // 2) % qm1

    def mul(self, a, b):
        qm1 = self.zero
        if a == qm1 or b == qm1:
            return qm1
        return (a + b) % qm1

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("inverse of zero")
        return (-a) % self.zero

    def pow(self, a, n: int):
        if a == self.zero:
            if n < 0:
                raise ZeroDivisionError("inverse of zero")
            return self.one if n == 0 else a
        return a * n % self.zero

    def _from_packed(self, v: int):
        return self._log[v]

    def to_packed(self, a) -> int:
        return self._exp[a]


class PolyField(FiniteField):
    """F_{p^k} above the table limit: each element one packed ``int``, the
    coefficient of z^j in bits [W j, W j + W), so ``zero = 0``, ``one = 1``
    and int equality and hashing are canonical.

    The bounds.  Every digit met below, a digit of a product of two reduced
    elements (at most k terms below p^2) or of a fold (a digit below p plus
    at most k - 1 such terms), is at most k (p - 1)^2 + p - 1 < 2^b, with
    b = (k (p - 1)^2 + p).bit_length().  Let l = (p - 1).bit_length(), so
    2^(l-1) <= p <= 2^l, and s = b + l.  Granlund and Montgomery (division
    by invariant integers, PLDI 1994, thm. 4.2): M = ceil(2^s / p) gives
    floor(x M / 2^s) = floor(x / p) for every 0 <= x < 2^b, and
    M <= 2^(b+1) + 1, so x M < 2^(2b+2).  So with W = 2 b + l + 1 neither a
    product nor its times M carries across a digit, and a digit of x M
    shifted down by s is its quotient, below 2^b.

    ``mul`` is one integer product (Kronecker substitution), every digit
    then reduced mod p at once by one multiply, shift and mask, and the
    digits at z^k and above folded back through the packed tail z^k mod f,
    each fold reduced the same way, until the degree is below k (a fold
    lowers the degree by k minus the degree of the tail, so one fold does
    for the lex-least moduli with a tail of degree <= 1).  ``add``, ``sub``
    and ``neg`` are one integer add or subtract, digits below 2p, then the
    bias trick of the table walk subtracts p from every digit >= p.
    """

    def _setup(self):
        p, k = self.p, self.k
        l = (p - 1).bit_length()
        b = (k * (p - 1) ** 2 + p).bit_length()
        W = self._W = 2 * b + l + 1
        ones = sum(1 << (W * j) for j in range(2 * k - 1))
        self._s, self._M = b + l, -(-(1 << (b + l)) // p)
        self._quot = ((1 << b) - 1) * ones
        self._kW = k * W
        self._low = (1 << (k * W)) - 1
        self._tail = sum((-c) % p << (W * j) for j, c in enumerate(self.modulus[:k]))
        # bit w - 1 of digit + 2^(w-1) - p is set exactly for digits >= p
        w = p.bit_length() + 1
        ones &= self._low
        self._bias, self._top, self._ones = ((1 << (w - 1)) - p) * ones, w - 1, ones
        self._ps = p * ones
        self.zero, self.one = 0, 1

    def _mod_p(self, x):
        """x with every digit (below 2^b) reduced mod p."""
        return x - self.p * ((x * self._M >> self._s) & self._quot)

    def add(self, a, b):
        s = a + b
        return s - self.p * (((s + self._bias) >> self._top) & self._ones)

    def sub(self, a, b):
        return self.add(a, self._ps - b)

    def neg(self, a):
        return self.add(0, self._ps - a)

    def mul(self, a, b):
        x, kW = self._mod_p(a * b), self._kW
        while hi := x >> kW:
            x = self._mod_p((x & self._low) + hi * self._tail)
        return x

    def _from_packed(self, v: int):
        out = shift = 0
        while v:
            v, c = divmod(v, self.p)
            out |= c << shift
            shift += self._W
        return out

    def to_packed(self, a) -> int:
        v, W, digit = 0, self._W, (1 << self._W) - 1
        for j in range((self.k - 1) * W, -1, -W):
            v = v * self.p + (a >> j & digit)
        return v


def _pack(p: int, coeffs) -> int:
    v = 0
    for c in reversed(coeffs):
        v = v * p + c % p
    return v


_field_cache: dict = {}


def make_extension_field(p: int, k: int = 1) -> FiniteField:
    """The finite field F_{p^k} with the canonical (lex-least) modulus.

    Instances are cached, so fields compare by identity.
    """
    key = (p, k)
    f = _field_cache.get(key)
    if f is None:
        f = _field_cache[key] = FiniteField(p, k)
    return f


def solve_quadratic(field, a, b, c):
    """Roots in the finite ``field`` of a z^2 + b z + c = 0 (a != 0), as raw
    values sorted by packed value; a double root is listed once.

    Rabin's root finding: the roots of f = z^2 + (b/a) z + c/a are those of
    g = gcd(f, z^q - z).  A g of degree 2 is split by gcd(g, s) for the first
    splitter s that leaves a linear factor; s vanishes on the roots r with
    r + d a nonzero square (q odd) or Tr(d r) = 0 (q even).
    """
    if field.characteristic == 0:
        raise ValueError("quadratic roots require a finite field")
    if field.is_zero(a):
        raise ValueError("leading coefficient is zero")
    f = poly.monic(field, [c, b, a])
    z = [field.zero, field.one]
    g = poly.gcd(field, f, poly.add(field, poly.powmod(field, z, field.q, f),
                                    poly.neg(field, z)))
    if len(g) < 3:  # no root, or the one root of z - r
        return [field.neg(r) for r in g[:-1]]
    for s in _splitters(field, g):
        h = poly.gcd(field, g, s)
        if len(h) == 2:
            r = field.neg(h[0])
            return sorted([r, field.sub(field.neg(g[1]), r)], key=field.to_packed)
    raise AssertionError(f"no splitter separates the roots of {g}")


def _splitters(field, g):
    """The splitting polynomials mod g in their fixed order.

    q even: the trace sum_{i<k} (d z)^(2^i) for d = z^0, z^1, ..., z^(k-1);
    the roots differ, so some d in this basis gives them traces 0 and 1.
    q odd: (z + d)^((q-1)/2) - 1 for the packed values d = p, p + 1, ...,
    q - 1 and then 0, ..., p - 1.  A shift d in F_p commutes with the
    Frobenius, so it never splits the conjugate roots of a quadratic over
    F_p; the first p shifts, z + i, lie in no proper subfield.
    """
    if field.p == 2:
        for j in range(field.k):
            term = [field.zero, field.from_packed(1 << j)]
            s = term
            for _ in range(field.k - 1):
                term = poly.mod(field, poly.mul(field, term, term), g)
                s = poly.add(field, s, term)
            yield s
    else:
        minus_one = [field.neg(field.one)]
        for v in range(field.q):
            shifted = [field.from_packed((v + field.p) % field.q), field.one]
            yield poly.add(field, poly.powmod(field, shifted, (field.q - 1) // 2, g),
                           minus_one)


class FieldElem:
    """A field element bound to its field, with operator sugar.

    Mixing elements of different fields raises ValueError.
    """

    __slots__ = ("field", "raw")

    def __init__(self, field, raw):
        self.field = field
        self.raw = raw

    def to_text(self) -> str:
        return self.field.to_text(self.raw)

    def _coerce(self, other):
        if isinstance(other, FieldElem):
            if other.field is not self.field:
                raise ValueError("mixed field descriptors")
            return other.raw
        if isinstance(other, int):
            return self.field.from_int(other)
        return NotImplemented

    def __add__(self, other):
        raw = self._coerce(other)
        if raw is NotImplemented:
            return NotImplemented
        return FieldElem(self.field, self.field.add(self.raw, raw))

    __radd__ = __add__

    def __sub__(self, other):
        raw = self._coerce(other)
        if raw is NotImplemented:
            return NotImplemented
        return FieldElem(self.field, self.field.sub(self.raw, raw))

    def __rsub__(self, other):
        raw = self._coerce(other)
        if raw is NotImplemented:
            return NotImplemented
        return FieldElem(self.field, self.field.sub(raw, self.raw))

    def __mul__(self, other):
        raw = self._coerce(other)
        if raw is NotImplemented:
            return NotImplemented
        return FieldElem(self.field, self.field.mul(self.raw, raw))

    __rmul__ = __mul__

    def __truediv__(self, other):
        raw = self._coerce(other)
        if raw is NotImplemented:
            return NotImplemented
        return FieldElem(self.field, self.field.div(self.raw, raw))

    def __rtruediv__(self, other):
        raw = self._coerce(other)
        if raw is NotImplemented:
            return NotImplemented
        return FieldElem(self.field, self.field.div(raw, self.raw))

    def __pow__(self, n):
        return FieldElem(self.field, self.field.pow(self.raw, n))

    def __neg__(self):
        return FieldElem(self.field, self.field.neg(self.raw))

    def __eq__(self, other):
        if isinstance(other, FieldElem):
            return self.field is other.field and self.raw == other.raw
        if isinstance(other, int):
            return self.raw == self.field.from_int(other)
        return NotImplemented

    def __hash__(self):
        return hash((id(self.field), self.raw))

    def __bool__(self):
        return not self.field.is_zero(self.raw)

    def is_zero(self) -> bool:
        return self.field.is_zero(self.raw)

    def __str__(self):
        return self.field.to_text(self.raw)

    def __repr__(self):
        return f"FieldElem({self.field!r}, {self})"


def field_from_config(char_text: str, degree_text: str | None = None):
    """Field from configuration strings: characteristic 0 => Q, else F_{p^k}."""
    p = int(char_text)
    if p == 0:
        return QQ
    k = int(degree_text) if degree_text else 1
    return make_extension_field(p, k)
