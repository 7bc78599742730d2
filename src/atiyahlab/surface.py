"""The ruled surface of the nonsplit self-extension of O_E over an elliptic curve.

Model: two charts over E, U0 = E - {inf} and U1 = E - {T}, glued along the
overlap by the fiber-coordinate shift w0 = w1 + g, where the gluing function g
is regular on the overlap, has poles only in {inf, T}, and is *not* a
difference f0 - f1 of functions regular on U0 resp. U1 (that nontriviality is
exactly what makes the extension nonsplit; it is certified at construction
time by checking that g has a simple pole at T, which no such difference can
have, as L(T) holds only the constants).  The section "at infinity" of the
ruling is the locus w = infinity in every fiber.

A global section of O(F_q + level * E_inf) is a tuple (s_0, ..., s_level) of
functions on E, polynomial in w0 on the first chart as sum s_a w0^a, with

    t_j = sum_{a >= j} C(a, j) g^(a-j) s_a

the chart-1 coefficients.  Regularity requirements: each s_a has poles only at
inf (plus a simple pole at the marked fiber point q when twisted); each t_j
has nonnegative valuation at inf.  F_q is effective, so O(level * E_inf) is
inside O(F_q + level * E_inf): the plain sections are the twisted ones whose
coefficient of h is 0 in every slot, an exact subspace.

The solver builds the twisted basis with no matrix, the same way in every
characteristic.  A section with top nonzero slot a has t_a = s_a in L(q),
which holds only the constants, so twisted h0(level) <= level + 1.  One
section per top slot is built as an Appell sequence: v_0 = 1 and, for
a >= 1, v_a in L(a inf + q) cancels the polar part at inf of
F_a = sum_{k=1..a} C(a,k) v_(a-k) g^k.  Such a v_a exists because
L(a inf + q) maps onto the principal parts at inf of order <= a: it has
dimension a + 1, and the kernel, L(q), holds only the constants.  The
section tau_a has slot k = C(a,k) v_(a-k), and as C(a,k) C(k,j) =
C(a,j) C(a-j,k-j), t_j(tau_a) = C(a,j) t_0(tau_(a-j)), which is regular:
tau_0..tau_level span the space with no division by k.  g has a simple pole
at inf (build_cocycle) and h, the one-pole function with a simple pole at
q, one at inf, so with g = (g_a + g_b y)/d_g and h = (h_a + h_b y)/d_h the
polar part of F_a = (P + Q y)/(d_h d_g^a) is read off the quotients of P and
Q by the monic denominator, plus a multiple of h for the t^-1 term of the
remainder of Q (y/x = 1/t): one Horner pass in the numerator of g and two
polynomial divisions per section, no expansion.  canonical_basis turns
them into the canonical basis, each s_a in the basis 1, h, x, y, x^2, x y,
... of pole orders 0, 1, 2, 3, ... at inf.

From below, h0 proves every basis section, plain and twisted, a global
section by Hasse derivatives, on paths the builder never uses.  D^(r) puts
C(b, r) s_b into slot b - r; it is the r-th Hasse derivative in w, which
commutes with w0 = w1 + g, so t_(j-r)(D^(r) c) = C(j, r) t_j(c).  By
Lucas' theorem every j >= 1 has an r = p^v <= j with C(j, r) != 0 mod p
(r = 1 over Q).  So c, top slot a, is a section exactly when its
components pass the affine check, t_0(c) is regular at inf and D^(r) c
is a section for r = 1, p, p^2, ... <= a.  SectionVector.validate(upto=0)
makes the first two checks: each s_a off inf, q included, from its
reduced denominator and its value at -q, and t_0 = sum_a s_a g^a by
Horner on Laurent series of the s_a and g, each cut to the horizon it is
read at.  D^(r) c has top slot <= a - r and must be a combination of the
twisted sections already proved (h0); nested twisted sections are proved
once.  The full validate, every t_j, stays the oracle.
"""

from __future__ import annotations

from functools import cached_property
from math import comb

from . import poly
from .curve import CurvePoint, Divisor, WeierstrassCurve
from .errors import SeriesPrecisionError, VerificationError
from .fields import FieldElem
from .funcfield import FuncElem, combination, mul_numerators
from .linalg import Matrix, canonical_basis, rank_and_kernel
from .linalg import rank  # noqa: F401  (bound here for bench/instrument.py)
from .riemann_roch import rr_basis

class CechCocycle:
    """The gluing function g of the charts U0 = E - {inf} and U1 = E - {T},
    together with the record of the checks that certify it nontrivial."""

    def __init__(self, curve, T, g, certificate):
        self.curve = curve
        self.T = T
        self.g = g
        self.certificate = certificate

    def __repr__(self):
        return f"CechCocycle(g={self.g.to_text()})"


def _one_pole_function(curve: WeierstrassCurve, P: CurvePoint) -> FuncElem:
    """The element of L(inf + P) with a simple pole at both points.

    L(inf) holds only the constants, and no function has a single simple
    pole, so every nonconstant element of L(inf + P) qualifies; the first
    nonconstant basis element is taken.
    """
    space = rr_basis(curve, Divisor(curve, {curve.infinity: 1, P: 1}))
    for f in space.basis:   # reduced, so a constant has b = 0 and d = 1
        if f.b or len(f.a) > 1 or len(f.d) > 1:
            return f
    raise VerificationError("no degree-(1,1) function in L(inf + P)")


def _affine_pole(fn: FuncElem, P: CurvePoint | None, simple: bool = False):
    """Where the reduced fn = (a + b y)/d has a pole on E - {inf, P} (on
    E - {inf} when P is None), or, when ``simple``, a pole of order 2 at
    P, as text; None when it has none there.

    As k(E) = k(x) + k(x) y with gcd(a, b, d) = 1, fn is regular on
    E - {inf} exactly when d = 1.  A function with at most a simple pole at
    P and no other affine pole has d = 1 or d = x - x_P.  When -P != P,
    x - x_P vanishes simply at P and at -P, so the pole at P is at most
    simple and a + b y must vanish at -P.  When -P = P, x - x_P has a
    double zero at P, and the pole there is simple exactly when a + b y
    vanishes at P: the same value test, made only when ``simple``, as
    validate does at the marked fiber point (build_cocycle reads the order
    at T by expansion instead).
    """
    field = fn.curve.field
    if fn.d == [field.one]:
        return None
    if P is None or fn.d != [field.neg(P.x.raw), field.one]:
        return f"a pole where {poly.to_text(field, fn.d)} vanishes"
    minus = -P
    if (minus != P or simple) and not field.is_zero(field.add(
            poly.evaluate(field, fn.a, minus.x.raw),
            field.mul(poly.evaluate(field, fn.b, minus.x.raw), minus.y.raw))):
        return (f"a pole at {minus}" if minus != P else
                "a pole of order 2 at the marked fiber point (allowed 1)")
    return None


def _valuation_at_inf(fn: FuncElem) -> int:
    """The valuation at inf of a nonzero fn = (a + b y)/d, in closed form:
    x and y have poles of orders 2 and 3 there, which never coincide, so
    v = min(-2 deg a, -2 deg b - 3) + 2 deg d in every characteristic."""
    pole = max(2 * poly.degree(fn.a), 2 * poly.degree(fn.b) + 3 if fn.b else 0)
    return 2 * poly.degree(fn.d) - pole


def build_cocycle(curve: WeierstrassCurve, T: CurvePoint) -> CechCocycle:
    """Gluing function of the nonsplit extension, with certificate.

    g is the one-pole function of L(inf + T), normalized to leading
    coefficient 1 at inf.  It is checked to be regular on the overlap
    E - {inf, T} (reduced denominator 1 or x - x_T, and regular at -T when
    -T != T) and to have a simple pole at T and at inf; VerificationError
    otherwise.  That is all nontriviality needs.  Suppose g = f0 - f1 with
    f0 regular on U0 and f1 regular on U1.  Then f1 = f0 - g is regular
    off T, and at T, where f0 is regular, it has the simple pole of g: f1
    lies in L(T) with a single simple pole.  But L(T) holds only the
    constants on a genus-1 curve (the gap at T), so no such f1 exists and g
    is not a coboundary.  The certificate records the checks.
    """
    if T.is_infinity:
        raise ValueError("the second chart point T must be affine")
    inf = curve.infinity
    field = curve.field
    g = _one_pole_function(curve, T)
    off = _affine_pole(g, T)
    if off is not None:
        raise VerificationError(f"gluing candidate has {off}")
    at_inf, at_T = -g.valuation_at(inf), -g.valuation_at(T)
    if (at_inf, at_T) != (1, 1):
        raise VerificationError(f"gluing candidate has pole orders {at_inf} "
                                f"at inf and {at_T} at T, not 1 and 1")
    lead = g.expand(inf, 1).coefficient(-1)
    g = g * FieldElem(field, field.inv(lead))
    cert = {"denominator": poly.to_text(field, g.d),
            "minus_T": "regular" if -T != T else "is T",
            "pole_inf": 1, "pole_T": 1}
    return CechCocycle(curve, T, g, cert)


class SectionVector:
    """One global section as its chart-0 coefficient tuple (s_0, ..., s_level)."""

    __slots__ = ("surface", "level", "twisted", "components")

    def __init__(self, surface, level, twisted, components):
        self.surface = surface
        self.level = level
        self.twisted = twisted
        self.components = tuple(components)
        if len(self.components) != level + 1:
            raise ValueError("component count must be level + 1")

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def transformed(self):
        """Chart-1 coefficients t_j = sum_{a>=j} C(a,j) g^(a-j) s_a.

        Exact gcd-reduced FuncElem sums; validate does not build them, and
        the tests keep them as its oracle.
        """
        curve, field = self.surface.curve, self.surface.field
        g_powers = [FuncElem.one(curve)]
        for _ in range(self.level):
            g_powers.append(g_powers[-1] * self.surface.cocycle.g)
        out = []
        for j in range(self.level + 1):
            t = FuncElem.zero(curve)
            for a in range(j, self.level + 1):
                c = field.from_int(comb(a, j))
                if field.is_zero(c) or self.components[a].is_zero():
                    continue
                t = t + g_powers[a - j] * self.components[a] * FieldElem(field, c)
            out.append(t)
        return out

    def validate(self, upto: int | None = None) -> None:
        """Independent regularity re-check (never looks at solver matrices).

        Raises VerificationError if any chart-0 component has a forbidden
        affine pole or any chart-1 component t_j, j <= ``upto`` (every j
        when None), has a pole at infinity.

        The affine half reads each s_a = (a + b y)/d in its canonical form
        (_affine_pole): s_a may have no affine pole, or, when twisted, none
        but a simple one at q, which d = 1 or d = x - x_q and, when -q = q,
        a + b y vanishing at q guarantee.

        The infinity half works on Laurent series in t = x/y.  Each nonzero
        s_a, of valuation v at inf in closed form (_valuation_at_inf), is
        expanded to the absolute horizon a and g, of valuation -1
        (build_cocycle), to max(0, max_a -v(s_a)) + top, top the highest
        nonzero slot; then sum_a s_a (w + g)^a is evaluated by Horner in w.
        By the product horizon hi(PQ) = min(v(P) + hi(Q), v(Q) + hi(P)), the
        w^k coefficient after folding in slot a is known below a + k, so each
        t_j is known below j >= 0 and its negative coefficients are exact.  A
        t_j known only below a negative horizon raises SeriesPrecisionError
        rather than passing; so would a v set too high, as it only lowers
        the horizons.  The w^k coefficient after a fold needs only those of
        w^k and w^(k-1) before it, so the loop keeps k <= ``upto``: with
        upto = 0 (h0) it forms t_0 = sum_a s_a g^a with one product per slot
        instead of about top^2 / 2.
        """
        surf = self.surface
        inf = surf.curve.infinity
        series, reach = {}, 0
        for a, s in enumerate(self.components):
            if s.is_zero():
                continue
            off = _affine_pole(s, surf.q if self.twisted else None, simple=True)
            if off is not None:
                raise VerificationError(f"component {a} has {off}")
            v = _valuation_at_inf(s)
            series[a] = s.expand(inf, max(a - v, 1)).truncate(a)
            reach = max(reach, -v)
        if not series:
            return
        top = max(series)
        keep = top + 1 if upto is None else upto + 1
        G = surf.cocycle.g.expand(inf, reach + top + 1)
        coeffs = [series[top]]          # coefficients of w^0, w^1, ...
        for a in range(top - 1, -1, -1):
            coeffs = ([coeffs[0] * G]
                      + [coeffs[k] * G + coeffs[k - 1] for k in range(1, len(coeffs))]
                      + [coeffs[-1]])[:keep]
            if a in series:
                coeffs[0] = coeffs[0] + series[a]
            # Only the negative coefficients of the t_j are read, and what
            # is folded now meets at most a more products by G, each of
            # valuation -1, so a coefficient at t^e, e >= a, only reaches
            # t^(e - a) and above: cut every coefficient at horizon a.
            coeffs = [c.truncate(a) for c in coeffs]
        for j, t in enumerate(coeffs):
            if t.hi < 0:
                raise SeriesPrecisionError(
                    f"transformed component {j} known only below t^{t.hi} at infinity"
                )
            v = t.valuation()
            if v is not None and v < 0:
                raise VerificationError(
                    f"transformed component {j} has a pole of order {-v} at infinity"
                )

    def __mul__(self, other: "SectionVector"):
        """Product section (polynomial multiplication in the fiber coordinate)."""
        if self.surface is not other.surface:
            raise ValueError("sections live on different surfaces")
        if self.twisted and other.twisted:
            raise ValueError("product of two twisted sections leaves the family")
        level = self.level + other.level
        products = [[] for _ in range(level + 1)]
        for a, s in enumerate(self.components):
            for b, t in enumerate(other.components):
                if s and t:
                    products[a + b].append(s * t)
        curve, one = self.surface.curve, self.surface.field.one
        comps = [combination(curve, [one] * len(fs), fs) for fs in products]
        return SectionVector(self.surface, level, self.twisted or other.twisted, comps)

    def padded_to(self, level: int):
        """The same section viewed at a higher level (times the canonical
        section of the extra multiple of the infinity section)."""
        if level < self.level:
            raise ValueError("cannot pad downward")
        curve = self.surface.curve
        comps = list(self.components) + [
            FuncElem.zero(curve) for _ in range(level - self.level)
        ]
        return SectionVector(self.surface, level, self.twisted, comps)

    def serialize(self) -> dict:
        return {
            "level": self.level,
            "twisted": self.twisted,
            "components": [s.to_text() for s in self.components],
        }

    def __repr__(self):
        return f"SectionVector(level={self.level}, twisted={self.twisted})"


class SectionSpace:
    """Basis + diagnostics for one h^0 computation: a plain value that holds
    no cache (jet_matrix expands the sections afresh on every call)."""

    def __init__(self, level, twisted, sections, diagnostics):
        self.level = level
        self.twisted = twisted
        self.sections = tuple(sections)
        self.diagnostics = diagnostics

    @property
    def dim(self) -> int:
        return len(self.sections)

    def serialize(self) -> dict:
        return {
            "level": self.level,
            "twisted": self.twisted,
            "dim": self.dim,
            "sections": [s.serialize() for s in self.sections],
            "diagnostics": self.diagnostics,
        }

    def __repr__(self):
        return (f"SectionSpace(level={self.level}, twisted={self.twisted}, "
                f"dim={self.dim})")


class AtiyahSurface:
    """The ruled surface with a marked fiber over q (and its caches).

    Once ``h0`` has cached a section, the surface lives in a reference
    cycle: each cached section points back at it (``SectionVector.surface``
    <-> ``AtiyahSurface._h0``), so it is freed, with its sections, only by
    Python's cyclic garbage collector.  Nothing else points back: a fresh
    surface, its curve and the curve's charts are freed when the last
    reference goes.
    """

    def __init__(self, cocycle: CechCocycle, q: CurvePoint):
        if q.is_infinity or q == cocycle.T:
            raise ValueError("marked fiber point q must avoid {inf, T}")
        self.cocycle = cocycle
        self.curve = cocycle.curve
        self.field = cocycle.curve.field
        self.T = cocycle.T
        self.q = q
        self._h0 = {}            # (level, twisted) -> SectionSpace

    # -- ambient bases -------------------------------------------------------

    @cached_property
    def one_pole_function(self) -> FuncElem:
        """The unnormalized one-pole function of L(inf + q)."""
        return _one_pole_function(self.curve, self.q)

    # -- the solver ---------------------------------------------------------------

    @staticmethod
    def _columns(level: int) -> list:
        """The (slot a, pole order m) of each vector column, slot level
        first: slot a takes the orders m <= level - a (0: the constant; 1:
        h; m >= 2: x^(m/2) or x^((m-3)/2) y), those of a section."""
        return [(a, m) for a in range(level, -1, -1) for m in range(level - a + 1)]

    def _appell(self, level: int):
        """The sections tau_0..tau_level of _solve as sparse vectors {column:
        value} over _columns(level), with no matrix.

        v_0 = 1; for a >= 1, F_a = sum_{k=1..a} C(a,k) v_(a-k) g^k is
        (P + Q y)/D over D = d_h d_g^a, its numerator formed by one Horner
        pass in the numerator u of g: with N_b the numerator of v_b over
        d_h, P + Q y = sum_k C(a,k) N_(a-k) d_g^(a-k) u^k.  Dividing,
        P = D A + R and Q = D B + R', so F_a = A + B y + (R + R' y)/D, and
        v_a = -A - B y + c h with c = -lc(R')/lc(h_b) when deg R' =
        deg D - 1, else 0.  tau_a has slot k = C(a,k) v_(a-k).
        """
        field, curve, g = self.field, self.curve, self.cocycle.g
        h, from_int = self.one_pole_function, field.from_int
        col_of = {key: idx for idx, key in enumerate(self._columns(level))}

        def scaled(c, num):
            return tuple(poly.scalar_mul(field, c, cs) for cs in num)

        chain, lifted, d_pow = [], [], [field.one]  # lifted[b] = N_b d_g^b
        vectors = []
        for a in range(level + 1):
            binom = [from_int(comb(a, k)) for k in range(a + 1)]
            if a == 0:
                U, V, c = [field.one], [], field.zero
            else:
                num = scaled(binom[a], lifted[0])
                for k in range(a - 1, 0, -1):
                    num = mul_numerators(curve, *num, g.a, g.b)
                    num = tuple(poly.add(field, x, y) for x, y in
                                zip(num, scaled(binom[k], lifted[a - k])))
                P, Q = mul_numerators(curve, *num, g.a, g.b)
                d_pow = poly.mul(field, d_pow, g.d)
                D = poly.mul(field, h.d, d_pow)
                A, _ = poly.divmod_poly(field, P, D)
                B, R1 = poly.divmod_poly(field, Q, D)
                c = (field.div(field.neg(R1[-1]), h.b[-1])
                     if poly.degree(R1) == poly.degree(D) - 1 else field.zero)
                U, V = poly.neg(field, A), poly.neg(field, B)
            chain.append([(1, c)] + [(2 * i, e) for i, e in enumerate(U)]
                         + [(2 * i + 3, e) for i, e in enumerate(V)])
            lifted.append(tuple(poly.mul(field, cs, d_pow) for cs in (
                poly.add(field, poly.mul(field, U, h.d),
                         poly.scalar_mul(field, c, h.a)),
                poly.add(field, poly.mul(field, V, h.d),
                         poly.scalar_mul(field, c, h.b)))))
            vec = {}
            for k, ck in enumerate(binom):
                if not field.is_zero(ck):
                    for m, e in chain[a - k]:
                        if not field.is_zero(e):
                            vec[col_of[k, m]] = field.mul(ck, e)
            vectors.append(vec)
        return vectors

    def _section(self, level, columns, vec, twisted) -> SectionVector:
        """The section of the vector ``vec`` over ``columns``: slot a is
        U + V y + c h, with the coefficients of x^(m/2) in U (m even), of
        x^((m-3)/2) in V (m odd) and c (m = 1), so s_a =
        ((U d_h + c h_a) + (V d_h + c h_b) y) / d_h, U + V y when c = 0.
        Either is reduced as built: d_h = x - x_q is monic and linear, and
        mod d_h the numerator is c (h_a + h_b y), nonzero as h is reduced
        with a pole at q.  So no gcd is taken; over Q the coefficients go
        through field.div(., 1), the reduction's own step, so they stay
        ints."""
        field, curve, h = self.field, self.curve, self.one_pole_function
        slots = [{} for _ in range(level + 1)]
        for (a, m), coeff in zip(columns, vec):
            slots[a][m] = coeff
        comps = []
        for cs in slots:
            u = [cs[m] for m in range(0, len(cs), 2)]
            v = [cs[m] for m in range(3, len(cs), 2)]
            c = cs.get(1, field.zero)
            if field.is_zero(c):    # U + V y over 1 is reduced
                comps.append(FuncElem(curve, u, v, [field.one], reduce=False))
                continue
            u, v = ([field.div(e, field.one) for e in poly.add(
                field, poly.mul(field, w, h.d), poly.scalar_mul(field, c, hw))]
                for w, hw in ((u, h.a), (v, h.b)))
            comps.append(FuncElem(curve, u, v, h.d, reduce=False))
        return SectionVector(self, level, twisted, comps)

    def _solve(self, level: int):
        """(twisted sections, plain sections, their canonical vectors,
        twisted first): the canonical bases, built with no matrix.

        * Upper bound: a twisted section with top nonzero slot a has
          t_a = s_a in L(q), which holds only the constants.  So the
          sections with top slot <= a form a filtration whose steps have
          dimension at most 1, and twisted h0(level) <= level + 1, in every
          characteristic.
        * The builder (_appell): v_0 = 1 and, for a >= 1, v_a in
          L(a inf + q) cancels the polar part at inf of
          F_a = sum_{k=1..a} C(a,k) v_(a-k) g^k, of order <= a.  Such a v_a
          exists: L(a inf + q), of dimension a + 1, maps onto the a-
          dimensional space of principal parts at inf of order <= a, as the
          kernel, L(q), holds only the constants.  tau_a has slot
          k = C(a,k) v_(a-k).  By C(a,k) C(k,j) = C(a,j) C(a-j,k-j),
          t_j(tau_a) = C(a,j) t_0(tau_(a-j)) = C(a,j) (v_(a-j) + F_(a-j)),
          regular at inf, so tau_a is a section with top slot a (s_a = 1):
          the steps are all of dimension 1, in every characteristic, and
          nothing is divided by k.  Slot k of tau_a has pole order <= a - k,
          so every section fits the columns of _columns(level).
        * Lower bound: h0 proves every basis section of both spaces a
          global section by the derivative lemma, on paths the builder does
          not use, and canonical_basis must return level + 1 vectors
          (VerificationError otherwise), so they are independent.  It
          checks the finished sections and, as _section maps every slot
          alike and so commutes with D^(r), their vectors, so it covers the
          conversion from vectors.
        * Canonical bases: canonical_basis gives the reduced echelon form of
          the span, taking columns from the last one first; it is unique for
          the column order, so it is the basis of every solver of the same
          conditions, and the columns past the pole orders of a section,
          zero on all of them, change neither the pivots nor the Q
          normalization.
        * Nesting, twisted: basis section a should be nonzero at slot a and
          zero above it; that is checked (VerificationError otherwise).
          Then sections 0..l span the level-L sections zero above slot l,
          the padded level-l space (padding changes no t_j): a combination
          with a nonzero coefficient past l is nonzero at the highest such
          slot.  A subset of a reduced echelon basis is the reduced echelon
          basis of its span, and the columns level L adds vanish there, so
          sections 0..l are the level-l basis, padded, and min_level reads
          lower jet matrices as column prefixes.
        * Plain: F_q is effective, so O(level E_inf) lies in
          O(F_q + level E_inf), and a plain section is exactly a twisted
          one with c = 0 in every slot.  Those are the combinations of the
          twisted basis in the kernel of its h entries (one row per slot,
          one column per section), found by rank_and_kernel, an exact
          subspace of an exact space.  canonical_basis over the same
          columns gives the canonical basis of the plain space (the h
          columns are zero, so they change neither the pivots nor the Q
          normalization).
        """
        field = self.field
        columns = self._columns(level)
        basis = canonical_basis(field, self._appell(level), len(columns))
        if len(basis) != level + 1:
            raise VerificationError("the built sections are linearly dependent")

        on_h = [[vec[idx] for vec in basis]
                for idx, (_, m) in enumerate(columns) if m == 1]
        plain = []
        for combo in rank_and_kernel(Matrix(field, on_h, len(basis)))[1]:
            vec = [field.zero] * len(columns)
            for k, v in zip(combo, basis):
                if not field.is_zero(k):
                    vec = [field.add(x, field.mul(k, a)) for x, a in zip(vec, v)]
            plain.append(dict(enumerate(vec)))
        plain = canonical_basis(field, plain, len(columns))

        twisted = [self._section(level, columns, vec, True) for vec in basis]
        if any(sec.components[a].is_zero()
               or any(not c.is_zero() for c in sec.components[a + 1:])
               for a, sec in enumerate(twisted)):
            raise VerificationError(
                "a twisted basis section a is zero at slot a or nonzero above it")
        return (twisted, [self._section(level, columns, vec, False)
                          for vec in plain], basis + plain)

    def _certify(self, sec, vec, columns, proved) -> None:
        """Prove sec, of sparse canonical vector vec, a global section by
        the derivative lemma against the (own column, sparse vector) of
        each twisted section proved so far (h0); VerificationError if not."""
        field, level = self.field, sec.level
        fz, zero, p = field.is_zero, field.zero, field.characteristic
        sec.validate(upto=0)
        r, top = 1, columns[min(vec)][0]
        while r <= top:
            rest = {}               # D^(r) vec, less the proved sections
            binom = [field.from_int(comb(b, r)) for b in range(top + 1)]
            for col, e in vec.items():
                b, m = columns[col]
                if not fz(binom[b]):    # C(b, r) = 0 for b < r
                    n = level - b + r       # slot b - r starts at column C(n+1, 2)
                    rest[n * (n + 1) // 2 + m] = field.mul(binom[b], e)
            for own, base in proved:
                k = rest.get(own)
                if k is None:
                    continue
                k = field.div(k, base[own])
                for col, e in base.items():
                    v = field.sub(rest.get(col, zero), field.mul(k, e))
                    if fz(v):
                        rest.pop(col, None)
                    else:
                        rest[col] = v
            if rest:
                raise VerificationError(
                    f"D^({r}) of a basis section with top slot {top} is not "
                    "a combination of the twisted basis sections below it")
            if not p:
                break
            r *= p

    def h0(self, level: int, twisted: bool) -> SectionSpace:
        """Global sections of O(level * E_inf) (twisted: O(F_q + level * E_inf)).

        Result cached: one _solve per level fills both spaces.  _solve
        bounds the twisted dimension by level + 1 with no computation,
        builds that many sections, and reads the plain space off them as
        the exact subspace with no h term in any slot (F_q is effective, so
        that is every plain section).  The lower-bound certificate, the
        derivative lemma (module docstring), proves every section of both
        spaces a global section, twisted 0..level first, before it is
        cached, and _solve has shown them independent.  For each section c
        with top slot a, validate(upto=0) checks its affine poles and t_0
        at infinity, one series product per slot instead of about a^2 / 2
        for every t_j; then each D^(r) c, r = 1, p, p^2, ... <= a, must
        equal the combination of the twisted sections proved so far whose
        coordinates are its entries at their own columns (their last
        nonzero ones, where the others of a reduced echelon basis are 0),
        with an exactly zero residual.  So D^(r) c is a section, and so is
        c.  A true section passes: D^(r) c is a section with top slot
        <= a - r, and twisted sections 0..a - r span those.  Twisted, the
        bases nest (_solve), so section i is usually section i of the
        highest cached twisted level below, padded; when its components are
        exactly those of the padded section, it has the same t_j (zero
        above the lower level), and the proof of the lower section covers
        it.

        The diagnostics state what the bases satisfy: slot a of every
        section has pole order <= level - a at inf, below the ``cutoffs``
        level - a + ``margin`` (margin 4) and level - a +
        ``stability_margin`` (6), and ``stable`` is true because the space
        is exact: no larger cutoff adds a section.
        """
        if level < 0:
            raise ValueError("level must be >= 0")
        space = self._h0.get((level, twisted))
        if space is not None:
            return space
        *bases, vectors = self._solve(level)
        spaces = dict(zip((True, False), bases))
        lower = [lv for lv, tw in self._h0 if tw and lv < level]
        done = self._h0[max(lower), True].sections if lower else ()
        columns, proved = self._columns(level), []
        for i, (s, vec) in enumerate(zip(bases[0] + bases[1], vectors)):
            vec = {c: e for c, e in enumerate(vec) if not self.field.is_zero(e)}
            if not (s.twisted and i < len(done)
                    and s.components == done[i].padded_to(level).components):
                self._certify(s, vec, columns, proved)
            if s.twisted:       # proved here or, padded, at the lower level
                proved.append((max(vec), vec))
        for tw, sections in spaces.items():
            self._h0[level, tw] = SectionSpace(
                level, tw, sections,
                {"margin": 4, "stability_margin": 6, "stable": True,
                 "cutoffs": [level - a + 4 for a in range(level + 1)]},
            )
        return self._h0[level, twisted]

    def __repr__(self):
        return f"AtiyahSurface(q={self.q}, T={self.T}, over {self.curve!r})"


def make_surface(curve: WeierstrassCurve, q: CurvePoint,
                 T: CurvePoint | None = None) -> AtiyahSurface:
    """Build the surface with marked fiber q; T defaults to -q (or, when q is
    2-torsion, the first enumerable point distinct from inf, q)."""
    if q.is_infinity:
        raise ValueError("marked fiber point q must be affine")
    if T is None:
        T = -q
        if T.is_infinity or T == q:
            T = curve.first_point(avoid={curve.infinity, q})
    cocycle = build_cocycle(curve, T)
    return AtiyahSurface(cocycle, q)
