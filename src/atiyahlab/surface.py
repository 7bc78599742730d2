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
has nonnegative valuation at inf.  The solver turns this into one exact
kernel computation per level, that of the twisted system, with
per-component pole cutoffs N_a = level - a + MARGIN — g has a simple pole
at inf (build_cocycle), and the inverse shift shows true sections satisfy
N_a - MARGIN, so the cutoff loses nothing.  It assembles the system once,
at N_a + 2, by column, and solves it without a pivot search: in slot order
the matrix is triangular on the leading terms of its columns, so each
non-constant column is one back-substitution step, checked from the
entries, scattered down its column.  The kernel must vanish on the columns
past N_a (CutoffInstabilityError otherwise), and its restriction to the
other columns is the twisted basis.  F_q is effective, so O(level * E_inf)
is inside O(F_q + level * E_inf): the plain sections are the twisted ones
whose coefficient of h is 0 in every slot, an exact subspace of that kernel.

The solver expands nothing.  Each s_a is sought in the basis 1, h, x, y,
x^2, x y, ... of pole orders 0, 1, 2, 3, ... at inf, where h is the
one-pole function with a simple pole at q.  With g = (a_g + b_g y)/d_g and
h = (a_h + b_h y)/d_h, t_j is (P + Q y)/D_j over D_j = d_g^(level-j) d_h,
and P, Q are linear in the unknowns: the products are taken unreduced, with
y^2 = S + T y, so a monomial column is an index shift of the numerator of
C(a,j) g^(a-j) d_h (times y for the odd orders) and only the h column needs
a product.  As v_inf(x^i) = -2i and v_inf(x^i y) = -2i - 3 never coincide,
v_inf((P + Q y)/D) = min(-2 deg P, -2 deg Q - 3) + 2 deg D in every
characteristic, so t_j is regular at inf exactly when the coefficients of
x^e vanish in P for e > deg D_j and in Q for e >= deg D_j - 1; those
coefficients are the rows, each led by one column.  The checked steps bound
the dimension from above.  From below, SectionVector.validate proves every
basis section, plain and twisted, a global section on paths the solver
never uses: each s_a off inf, q included, from its reduced denominator and
its value at -q, and at inf the t_j as coefficients of sum_a s_a (w + g)^a,
formed by Horner in w on Laurent series of the s_a and g, each cut to the
horizon it is read at; nested twisted sections are validated once (h0).
"""

from __future__ import annotations

from functools import cached_property
from math import comb

from . import poly
from .curve import CurvePoint, Divisor, WeierstrassCurve
from .errors import CutoffInstabilityError, SeriesPrecisionError, VerificationError
from .fields import FieldElem
from .funcfield import FuncElem, combination, mul_numerators
from .linalg import (Matrix, back_substitute, canonical_basis,
                     rank_and_kernel, rank)
from .riemann_roch import rr_basis

MARGIN = 4


def _cutoffs(level: int) -> list:
    """The pole cutoffs N_a = level - a + MARGIN of the slots a = 0..level."""
    return [level - a + MARGIN for a in range(level + 1)]


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

    def validate(self) -> None:
        """Independent regularity re-check (never looks at solver matrices).

        Raises VerificationError if any chart-0 component has a forbidden
        affine pole or any chart-1 component t_j has a pole at infinity.

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
        the horizons.
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
        G = surf.cocycle.g.expand(inf, reach + top + 1)
        coeffs = [series[top]]          # coefficients of w^0, w^1, ...
        for a in range(top - 1, -1, -1):
            coeffs = ([coeffs[0] * G]
                      + [coeffs[k] * G + coeffs[k - 1] for k in range(1, len(coeffs))]
                      + [coeffs[-1]])
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

    def _solve(self, level: int):
        """(twisted sections, plain sections): the bases at the pole cutoffs
        N_a = level - a + MARGIN, read off one kernel at N_a + 2, that of
        the twisted system, which also certifies the cutoff stable.

        Slot a takes the pole orders m <= caps[a] = N_a + 2 at inf (0: the
        constant; 1: h; m >= 2: x^(m/2) or x^((m-3)/2) y), and its columns
        with m > N_a are the extra columns.  Let M be the matrix and A its
        rows and columns within the cutoffs N_a.
        * The solve (reduction by leading terms, as in F. Hess, J. Symbolic
          Comput. 33 (2002)): column (a, m), m >= 1, has its leading term in
          the row of t_a at pole order m, with entry lc(D_a) (for h, h.b
          times lc(d_g)^(level - a)), and lower orders and lower slots do not
          reach that row.  Taken slot by slot from a = level down and from
          the highest order down, the columns are one substitution step
          each, back_substitute checks this from the entries, and the
          constants are free.  Every row leads (_system checks it).
        * Zero block: g has a simple pole at inf, so a column (a, m) with
          m <= N_a reaches t_j only up to pole order a - j + m <= N_j; the
          numerators are reduced P + Q y, so the rows past the cutoffs vanish
          on these columns: M = [[A, B], [0, C]] up to row and column order.
        * Equal dimensions: if every basis vector of ker M vanishes on the
          extra columns, ker M = {(v, 0) : v in ker A}, so the dimensions at
          N_a and at N_a + 2 agree.
        * Equal canonical bases: canonical_basis gives the basis that
          rank_and_kernel(M) would.  A free column of A is free in M and the
          kernels have equal dimension, so the free sets agree; a canonical
          vector is fixed by its free entries, and the Q normalization (lcm,
          gcd, sign of the first nonzero entry) sees only zeros on the extra
          columns.  So the restriction is the canonical basis of ker A.
        * Otherwise CutoffInstabilityError, naming the twisted system; dim
          ker A counts the kernel vectors zero on the extra columns,
          len(kernel) - rank there.
        * Nesting, twisted: a section's top nonzero slot a has t_a = s_a in
          L(q), the constants, so basis section a should be nonzero at slot
          a and zero above it; that is checked (VerificationError
          otherwise).  Then sections 0..l span the level-L sections zero
          above slot l, the padded level-l space (padding changes no t_j):
          a combination with a nonzero coefficient past l is nonzero at
          the highest such slot.  A subset of a reduced echelon basis is
          the reduced echelon basis of its span, and the columns level L
          adds vanish there, so sections 0..l are the level-l basis,
          padded, and min_level reads lower jet matrices as column prefixes.
        * Plain: F_q is effective, so O(level E_inf) lies in
          O(F_q + level E_inf), and a plain section is exactly a twisted
          one with c = 0 in every slot.  Those are the combinations of the
          twisted basis in the kernel of its h entries (one row per slot,
          one column per section), found by rank_and_kernel.  They vanish on
          the extra columns as the whole kernel does, so the cutoff is
          stable for them too.  canonical_basis over the same columns gives
          the canonical basis of the plain system (the columns m != 1): the
          h columns are zero, so they change neither the pivots nor the Q
          normalization.
        * Upper bound: the entry checks of back_substitute (each pivot entry
          nonzero, no step row reaching a column solved later) give
          rank M >= #steps, so dim ker M <= #constants.  The cutoff argument
          and the stability check make ker A, of the dimension of ker M,
          the whole space of twisted sections, and its c = 0 subspace, an
          exact kernel, the whole space of plain sections.
        * Lower bound: no pass multiplies M v.  h0 validates every basis
          section of both spaces (a nested twisted section once, at the
          level it pads): SectionVector.validate checks the affine poles
          from the canonical form and every t_j at inf by expansion, and
          canonical_basis shows the sections independent.  A vector off
          ker M is a section with a pole, which validate rejects; and as
          validate checks the finished sections, it also covers the
          conversion from vectors below.
        In slot a the kernel entries are the coefficients of x^(m/2) in U
        (m even), of x^((m-3)/2) in V (m odd) and c of h (m = 1), and
        s_a = ((U d_h + c h.a) + (V d_h + c h.b) y) / d_h, which reduces to
        U + V y when c = 0.
        """
        columns, caps, cols, _, steps = self._system(level)
        field, curve, h = self.field, self.curve, self.one_pole_function
        kernel = back_substitute(field, cols, steps)

        extra = [idx for idx, (a, m) in enumerate(columns) if m > caps[a] - 2]
        if any(not field.is_zero(vec.get(idx, field.zero))
               for vec in kernel for idx in extra):
            on_extra = [[vec.get(idx, field.zero) for idx in extra]
                        for vec in kernel]
            raise CutoffInstabilityError(level, True, MARGIN, len(kernel) - rank(
                Matrix(field, on_extra, len(extra))), len(kernel))
        basis = canonical_basis(field, kernel, len(columns))
        if len(basis) != len(kernel):
            raise VerificationError("the kernel vectors are linearly dependent")

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

        def section(vec, tw):
            slots = [{} for _ in caps]
            for (a, m), coeff in zip(columns, vec):
                slots[a][m] = coeff
            comps = []
            for cap, cs in zip(caps, slots):
                u = [cs[m] for m in range(0, cap - 1, 2)]
                v = [cs[m] for m in range(3, cap - 1, 2)]
                if field.is_zero(cs[1]):    # U + V y over 1 is reduced
                    comps.append(FuncElem(curve, u, v, [field.one], reduce=False))
                    continue
                u = poly.add(field, poly.mul(field, u, h.d),
                             poly.scalar_mul(field, cs[1], h.a))
                v = poly.add(field, poly.mul(field, v, h.d),
                             poly.scalar_mul(field, cs[1], h.b))
                comps.append(FuncElem(curve, u, v, h.d))
            return SectionVector(self, level, tw, comps)

        twisted = [section(vec, True) for vec in basis]
        if any(sec.components[a].is_zero()
               or any(not c.is_zero() for c in sec.components[a + 1:])
               for a, sec in enumerate(twisted)):
            raise VerificationError(
                "a twisted basis section a is zero at slot a or nonzero above it")
        return twisted, [section(vec, False) for vec in plain]

    def _system(self, level: int):
        """The twisted matrix _solve reads its kernel off, at the cutoffs
        caps[a] = N_a + 2, by column: (columns, caps, cols, nrows, steps).
        columns lists the (slot, pole order) of each column and caps the
        cutoff of each slot; cols[c] is column c as its row indices,
        ascending, and its nonzero values, with the rows of t_level to t_0,
        each as x^e in P, then x^e y in Q, e ascending.  steps pairs every
        non-constant column with the row of its leading term, in solving
        order; a row led by no column raises VerificationError.
        Each numerator is formed once: G^i, that of g^i, times d_h, d_h y
        and h, then times d_g once per step of k = level - a from 0 up, and
        scaled by C(a, a - i); each column (a, m) copies a window of it into
        the rows of t_(a-i).
        """
        caps = [n + 2 for n in _cutoffs(level)]
        columns = [(a, m) for a in range(level, -1, -1) for m in range(caps[a] + 1)]
        col_of = {key: idx for idx, key in enumerate(columns)}

        field, curve, g = self.field, self.curve, self.cocycle.g
        fz, fadd, fmul = field.is_zero, field.add, field.mul
        zero, one, c0 = field.zero, [field.one], g.d[0]   # d_g = x + c0 (build_cocycle)
        h = self.one_pole_function

        # numerator P + Q y of t_j over D_j = d_g^(level-j) d_h; t_j is
        # regular at inf iff deg P <= deg D_j and deg Q <= deg D_j - 2; the
        # row of x^e in P (x^e y in Q) has pole order 2(e - deg D_j) (plus
        # 3).  blocks[j] holds (first row, first e, row count) per part.
        blocks, lead, nrows = {}, {}, 0
        for j in range(level, -1, -1):
            deg_d = level - j + poly.degree(h.d)       # deg d_g = 1
            e1, n0 = max(deg_d - 1, 0), caps[j] // 2
            n1 = max(deg_d + (caps[j] - 1) // 2 - e1, 0)
            blocks[j] = ((nrows, deg_d + 1, n0), (nrows + n0, e1, n1))
            for part, (r0, e0, n) in enumerate(blocks[j]):
                for e in range(e0, e0 + n):
                    lead[j, 2 * (e - deg_d) + 3 * part] = r0 + e - e0
                nrows += n

        cols = [([], []) for _ in columns]
        for i in range(level + 1):
            G = mul_numerators(curve, *G, g.a, g.b) if i else (one, [])
            mono = (poly.mul(field, G[0], h.d), poly.mul(field, G[1], h.d))
            nums = [mono, mul_numerators(curve, *mono, [], one),
                    mul_numerators(curve, *G, h.a, h.b)]
            for a in range(level, i - 1, -1):
                if a < level:       # times d_g: c0 cs[e] + cs[e - 1] at x^e
                    nums = [tuple(cs and [fmul(c0, cs[0]), *map(
                        fadd, cs, [fmul(c0, v) for v in cs[1:]]), cs[-1]]
                        for cs in num) for num in nums]
                c = field.from_int(comb(a, a - i))
                if fz(c):
                    continue
                scaled = nums if c == field.one else [
                    tuple([fmul(c, v) for v in cs] for cs in num) for num in nums]
                block = blocks[a - i]
                for m in range(caps[a] + 1):    # h; x^(m/2); x^((m-3)/2) y
                    num, shift = ((scaled[2], 0) if m == 1 else
                                  (scaled[m % 2], (m - 3 * (m % 2)) // 2))
                    rows_c, vals_c = cols[col_of[a, m]]
                    for (r0, e0, n), cs in zip(block, num):
                        lo, hi = max(e0 - shift, 0), min(e0 + n - shift, len(cs))
                        win, base = cs[lo:hi], r0 + shift - e0
                        if zero in win:     # keep the nonzero entries only
                            ks = [k for k in range(lo, hi) if not fz(cs[k])]
                            rows_c.extend([base + k for k in ks])
                            vals_c.extend([cs[k] for k in ks])
                        else:
                            rows_c.extend(range(base + lo, base + hi))
                            vals_c.extend(win)
        steps = [(col_of[(a, m)], lead.pop((a, m)))
                 for a in range(level, -1, -1) for m in range(caps[a], 0, -1)]
        if lead:
            raise VerificationError(
                f"rows {sorted(lead.values())} are led by no column")
        return columns, caps, cols, nrows, steps

    def h0(self, level: int, twisted: bool) -> SectionSpace:
        """Global sections of O(level * E_inf) (twisted: O(F_q + level * E_inf)).

        Result cached: one _solve per level fills both spaces.  _solve
        bounds the twisted dimension from above, reads the plain space off
        it as the exact subspace with no h term in any slot (F_q is
        effective, so that is every plain section), and certifies the bases
        stable under a larger pole cutoff.  SectionVector.validate is the
        lower-bound certificate: every section of both spaces is validated
        (its affine poles from its canonical form, at infinity by Laurent
        expansion) before it is cached, once, so each is a global section,
        and _solve has shown them independent.  Twisted, the bases nest
        (_solve), so section i is usually section i of the highest cached
        twisted level below, padded; when its components are exactly those
        of the padded section, it has the same t_j (zero above the lower
        level), validate skips zero components, and the validation of the
        lower section covers it.
        """
        if level < 0:
            raise ValueError("level must be >= 0")
        space = self._h0.get((level, twisted))
        if space is not None:
            return space
        spaces = dict(zip((True, False), self._solve(level)))
        lower = [lv for lv, tw in self._h0 if tw and lv < level]
        done = self._h0[max(lower), True].sections if lower else ()
        for i, s in enumerate(spaces[True]):
            if i < len(done) and s.components == done[i].padded_to(level).components:
                continue        # validated at the lower level
            s.validate()
        for s in spaces[False]:
            s.validate()
        for tw, sections in spaces.items():
            self._h0[level, tw] = SectionSpace(
                level, tw, sections,
                {"margin": MARGIN, "stability_margin": MARGIN + 2,
                 "stable": True, "cutoffs": _cutoffs(level)},
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
