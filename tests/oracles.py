"""Oracles the tests check the library against.

None of these is on a production path: each restates a fact the library
computes another way (a matrix product, the row-by-row assembly of the h0
system, plain and twisted, the coefficient vector of a section, the
chart-change matrix, the coboundary test, a class-preserving translation,
span membership of sections, the level-by-level search for a minimal level,
the multiplicity-by-multiplicity search for a maximal multiplicity, the
expansion of a function by Horner's rule on the coordinate series of a
chart, the tables of a table field built one element at a time, the
product of the poly gear on coefficient tuples), so that the tests can
compare the two.
``of_point``, ``unpack`` and ``to_coeffs`` are conveniences that only the
tests use.
"""

from __future__ import annotations

from math import comb

from atiyahlab import poly
from atiyahlab.curve import Divisor, certify_class_point
from atiyahlab.errors import SeriesPrecisionError, VerificationError
from atiyahlab.fat_points import (FatPoint, LambdaRecord, MuRecord,
                                  _check_admissible, _lambda_bounds,
                                  fat_system, h0_fat, verify_jets)
from atiyahlab.fields import (FieldElem, FiniteField, PolyField, _pack,
                              _prime_divisors)
from atiyahlab.funcfield import FuncElem, _chart, mul_numerators
from atiyahlab.linalg import Matrix, rank, rank_naive
from atiyahlab.series import LaurentSeries, eval_poly
from atiyahlab.riemann_roch import monomial_basis, rr_basis
from atiyahlab.surface import AtiyahSurface


def of_point(P, n: int = 1) -> Divisor:
    """The divisor n (P)."""
    return Divisor(P.curve, {P: n})


def unpack(p: int, k: int, v: int):
    """The k base-p digits of v, lowest first."""
    out = []
    for _ in range(k):
        out.append(v % p)
        v //= p
    return tuple(out)


def to_coeffs(field, a):
    """The coefficients of the raw element a of F_{p^k} against the power
    basis of the modulus, lowest first."""
    return unpack(field.p, field.k, field.to_packed(a))


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


def dot(field, row, vec):
    """The sum of row[c] * vec[c] over a sparse row and vector {col: value}."""
    fadd, fmul, acc = field.add, field.mul, field.zero
    for c, a in row.items():
        x = vec.get(c)
        if x is not None:
            acc = fadd(acc, fmul(a, x))
    return acc


def system_rows(surface: AtiyahSurface, level: int, twisted: bool,
                margin: int):
    """The h0 system at the pole cutoffs level - a + margin + 2, twisted or
    plain, as a matrix: (columns, caps, rows, steps, obstruction), rows the
    sparse rows {col: value}, one per coefficient of a chart-1 numerator
    that must vanish for t_j to be regular at inf, steps the (column, row)
    pairs of the leading terms and obstruction the rows no column leads
    (none when twisted).  Its dense kernels are the oracles of the twisted
    basis that ``AtiyahSurface._solve`` builds with no matrix and of the
    plain space it derives.  Each entry is formed afresh: for
    slot j and every a >= j, the numerator of C(a, j) g^(a-j)
    d_g^(level-a) d_h by long products, shifted into the column of each
    pole order of slot a."""
    caps = [level - a + margin + 2 for a in range(level + 1)]
    orders = [[m for m in range(cap + 1) if twisted or m != 1] for cap in caps]
    columns = [(a, m) for a in range(level, -1, -1) for m in orders[a]]
    col_of = {key: idx for idx, key in enumerate(columns)}

    field, curve, g = surface.field, surface.curve, surface.cocycle.g
    one = [field.one]
    h = surface.one_pole_function if twisted else None
    d_h = h.d if twisted else one
    g_num = [(one, [])]     # numerator of g^m over the denominator d_g^m
    d_g_pow = [one]
    for _ in range(level):
        g_num.append(mul_numerators(curve, *g_num[-1], g.a, g.b))
        d_g_pow.append(poly.mul(field, d_g_pow[-1], g.d))

    rows, lead = [], {}     # lead: (slot j, pole order) -> row index
    for j in range(level, -1, -1):
        # the row of x^e in P (x^e y in Q) has pole order 2(e - deg D_j)
        # (plus 3)
        deg_d = poly.degree(d_g_pow[level - j]) + poly.degree(d_h)
        keys = [(0, e) for e in range(deg_d + 1, deg_d + caps[j] // 2 + 1)]
        keys += [(1, e) for e in range(max(deg_d - 1, 0),
                                       deg_d + (caps[j] - 3) // 2 + 1)]
        row_of = {}
        for part, e in keys:
            row_of[part, e] = lead[j, 2 * (e - deg_d) + 3 * part] = len(rows)
            rows.append({})
        for a in range(j, level + 1):
            c = field.from_int(comb(a, j))
            if field.is_zero(c):
                continue
            ga, gb = g_num[a - j]
            dp = d_g_pow[level - a]
            ka, kb = poly.mul(field, ga, dp), poly.mul(field, gb, dp)
            mono = (poly.mul(field, ka, d_h), poly.mul(field, kb, d_h))
            mono_y = mul_numerators(curve, *mono, [], one)
            for m in orders[a]:
                if m == 1:
                    num, shift = mul_numerators(curve, ka, kb, h.a, h.b), 0
                elif m % 2 == 0:
                    num, shift = mono, m // 2
                else:
                    num, shift = mono_y, (m - 3) // 2
                col = col_of[(a, m)]
                for part, cs in enumerate(num):
                    for k, coeff in enumerate(cs):
                        r = row_of.get((part, k + shift))
                        if r is not None and not field.is_zero(coeff):
                            rows[r][col] = field.mul(c, coeff)
    steps = [(col_of[(a, m)], lead.pop((a, m)))
             for a in range(level, -1, -1) for m in reversed(orders[a]) if m]
    return columns, caps, rows, steps, sorted(lead.values())


def section_vector(section, columns):
    """The coefficient vector of a section over the columns (a, m) of
    ``system_rows``, each s_a = U + V y + c h: the coefficient of x^(m/2)
    in U for m even, c for m = 1 and that of x^((m-3)/2) in V for m odd
    >= 3.  A component over d_h has s_a d_h = (U d_h + c h_a) +
    (V d_h + c h_b) y, and h_b is a nonzero constant (h has a simple pole
    at inf), so c h_b is the remainder of the y part by d_h."""
    surface = section.surface
    field, h = surface.field, surface.one_pole_function
    parts = []
    for s in section.components:
        if s.d == [field.one]:
            parts.append((s.a, s.b, field.zero))
            continue
        assert s.d == h.d and len(h.b) == 1, s
        rest = poly.mod(field, s.b, h.d)
        c = field.div(rest[0], h.b[0]) if rest else field.zero
        U, r0 = poly.divmod_poly(field, poly.add(
            field, s.a, poly.scalar_mul(field, field.neg(c), h.a)), h.d)
        V, r1 = poly.divmod_poly(field, poly.add(
            field, s.b, poly.scalar_mul(field, field.neg(c), h.b)), h.d)
        assert not r0 and not r1, s
        parts.append((U, V, c))
    out = []
    for a, m in columns:
        U, V, c = parts[a]
        if m == 1:
            out.append(c)
            continue
        cs, e = (U, m // 2) if m % 2 == 0 else (V, (m - 3) // 2)
        out.append(cs[e] if e < len(cs) else field.zero)
    return out


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


def point_expansion(curve, P, prec: int):
    """Series (x(t), y(t)) at P to horizon prec in the canonical parameter,
    cut from the chart of P."""
    chart = _chart(curve, P, prec)
    return chart.xs.truncate(prec), chart.ys.truncate(prec)


def precision_past_valuation(s: LaurentSeries) -> int:
    """How many coefficients of s are known past its valuation (its
    horizon when it is zero to precision)."""
    return s.hi - s._val_eff()


def expand_horner(fn: FuncElem, P, prec: int) -> LaurentSeries:
    """FuncElem.expand without the chart's lists: a(x(t)), b(x(t)) and
    d(x(t)) by Horner's rule on the point expansions, then
    (a + b y(t)) / d(t) by one series inverse and two products, the horizon
    doubled until ``prec`` coefficients past the valuation are known."""
    if fn.is_zero():
        return LaurentSeries.zero(fn.curve.field, prec + 4)
    f = fn.curve.field
    H = prec + poly.degree(fn.d) * 2 + 8
    for _ in range(6):
        xs, ys = point_expansion(fn.curve, P, H)
        num = eval_poly(f, fn.a, xs)
        if fn.b:
            num = num + eval_poly(f, fn.b, xs) * ys
        den = eval_poly(f, fn.d, xs)
        if den.is_zero_to_precision():
            H *= 2
            continue
        res = num * den.inverse()
        if res.is_zero_to_precision() or precision_past_valuation(res) < prec:
            H *= 2
            continue
        return res
    raise SeriesPrecisionError(
        f"expansion of {fn!r} at {P} did not stabilize at precision {prec}")


def _jets_at_infinity(fn: FuncElem, k: int):
    """Coefficients t^-k .. t^k at inf of the nonzero fn, whose pole order
    there is at most k."""
    s = fn.expand(fn.curve.infinity, k + 1 - fn.valuation_at(fn.curve.infinity))
    return [s.coefficient(e) for e in range(-k, k + 1)]


def _coboundary_jets(curve, T, k: int):
    """The jets t^-k .. t^k at inf of the bases of L(k inf) and L(k T)."""
    basis = monomial_basis(curve, k) + list(
        rr_basis(curve, Divisor(curve, {T: k})).basis)
    return [_jets_at_infinity(f, k) for f in basis]


def is_coboundary_jet(cocycle, fn, k: int | None = None) -> bool:
    """True iff fn (poles only in {inf, T}) splits as f0 - f1 with f0
    regular off inf and f1 regular off T.

    Such f0, f1 lie in L(k inf) and L(k T) for k the larger of fn's pole
    orders at inf and T: f0 = fn + f1 has at inf the pole of fn, f1 =
    f0 - fn at T the pole of fn.  That k (at least 1) is the default; a
    given k must be at least as large.  All of these functions lie in
    L(k inf + k T), on which the jet t^-k .. t^k at inf is injective (a
    function there vanishing to order k + 1 at inf would have more zeros
    than poles), so fn splits iff its jet lies in the span of the jets of
    the bases of L(k inf) and L(k T).  The zero function trivially does
    (f0 = f1 = 0).
    """
    curve, T = cocycle.curve, cocycle.T
    if fn.is_zero():
        return True
    need = max(1, -fn.valuation_at(curve.infinity), -fn.valuation_at(T))
    if k is None:
        k = need
    elif k < need:
        raise ValueError(f"k = {k} is below the pole order {need} of fn")
    rows = _coboundary_jets(curve, T, k)
    return (rank(Matrix(curve.field, rows, 2 * k + 1))
            == rank(Matrix(curve.field, rows + [_jets_at_infinity(fn, k)],
                           2 * k + 1)))


def coboundary_cokernel_dim(cocycle, k: int) -> int:
    """dim L(k inf + k T) minus the dimension of L(k inf) + L(k T), read off
    their jets at inf: the room a gluing function of pole order at most k
    has outside the coboundaries (1 for every k)."""
    curve, T = cocycle.curve, cocycle.T
    space = rr_basis(curve, Divisor(curve, {curve.infinity: k, T: k}))
    return space.dim - rank(Matrix(curve.field, _coboundary_jets(curve, T, k),
                                   2 * k + 1))


def in_span(sections, section) -> bool:
    """True iff the section is a linear combination of the sections.

    Over a common denominator D per component index, a function is
    (A + B y) / D for exactly one pair (A, B), so the coefficients of A and
    B over all components are an injective linear image of a section; the
    section is in the span iff appending its row keeps the rank.
    """
    every = list(sections) + [section]
    field = section.surface.field
    rows = [[] for _ in every]
    for j in range(len(section.components)):
        comps = [sec.components[j] for sec in every]
        den = [field.one]
        for c in comps:
            den = poly.lcm(field, den, c.d)
        parts = []
        for c in comps:
            mult, _ = poly.divmod_poly(field, den, c.d)
            parts.append((poly.mul(field, c.a, mult), poly.mul(field, c.b, mult)))
        width_a = max(len(a) for a, _ in parts)
        width_b = max(len(b) for _, b in parts)
        for row, (a, b) in zip(rows, parts):
            row += list(a) + [field.zero] * (width_a - len(a))
            row += list(b) + [field.zero] * (width_b - len(b))
    ncols = len(rows[0])
    return (rank(Matrix(field, rows[:-1], ncols))
            == rank(Matrix(field, rows, ncols)))


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


def min_level_ladder(surface: AtiyahSurface, m: int, sample, cap=None,
                     certify: bool = True) -> LambdaRecord:
    """min_level by solving every level from 0 up to the answer or the cap,
    recording each dimension as it is computed rather than deriving the
    list from monotonicity."""
    if m < 1:
        raise ValueError("multiplicity must be >= 1")
    fp = sample.with_multiplicity(m)
    _check_admissible(surface, fp)
    cls = fp.class_point(surface)
    if certify:
        certify_class_point(cls)
    if cap is None:
        cap = comb(m + 1, 2) + 2
    dims, below = [], None
    for level in range(cap + 1):
        system = fat_system(surface, level, [fp])
        dims.append(system.dim)
        if system.dim == 0:
            below = system.matrix  # full-rank witness if the next level wins
            continue
        certificate = system.section(0)
        certificate.validate()
        verify_jets(certificate, fp)
        witness = None
        if below is not None:
            r = rank_naive(below)
            if r != below.ncols:
                raise VerificationError(
                    f"level {level - 1} matrix is rank-deficient")
            witness = {"level": level - 1, "rows": below.nrows,
                       "cols": below.ncols, "rank": r,
                       "rank_method": "independent-elimination"}
        bounds = _lambda_bounds(surface, m, level)
        return LambdaRecord(m, fp, cls, "found", level, cap, dims,
                            certificate, witness, bounds)
    return LambdaRecord(m, fp, cls, "exceeded-bound", None, cap, dims,
                        None, None, None)


def max_multiplicity_ladder(surface: AtiyahSurface, level: int,
                            sample) -> MuRecord:
    """max_multiplicity by solving one fat system per multiplicity, m = 1,
    2, ..., each from its own jet matrix and kernel, rather than reading
    ranks off the row prefixes of one matrix."""
    if level < 1:
        raise ValueError("level must be >= 1")
    _check_admissible(surface, sample.with_multiplicity(1))
    hard_cap = 4 * level + 16
    dims = []
    value = 0
    for m in range(1, hard_cap + 1):
        d = h0_fat(surface, level, [sample.with_multiplicity(m)])
        dims.append(d)
        if d == 0:
            return MuRecord(level, sample, value, dims, hard_cap)
        value = m
    raise VerificationError(
        f"multiplicity search still positive at the hard cap {hard_cap}")


def tables_by_poly_mul(p: int, k: int):
    """``_exp``, ``_log`` and ``_zech`` of the table gear of F_{p^k}, built
    one element at a time: the generator (the least packed value >= 2 of
    order q - 1) found in the PolyField gear, ``_exp`` filled by one
    PolyField product with it per element, ``_log`` and ``_zech`` read off
    ``_exp``."""
    ring, q = PolyField(p, k), p ** k
    factors = _prime_divisors(q - 1)
    for packed in range(2, q):
        gen = ring.from_packed(packed)
        if all(ring.pow(gen, (q - 1) // r) != ring.one for r in factors):
            break
    exp = [0] * q
    acc = ring.one
    for i in range(q - 1):
        exp[i] = ring.to_packed(acc)
        acc = ring.mul(gen, acc)
    assert acc == ring.one, "generator order mismatch"
    log = [0] * q
    for i, v in enumerate(exp):
        log[v] = i
    zech = [log[v - v % p + (v + 1) % p] for v in exp[:-1]]
    return exp, log, zech


class TupleField(FiniteField):
    """F_{p^k} on coefficient tuples of length k, whatever q is: the oracle
    of the packed :class:`PolyField` gear.  ``add`` and ``neg`` go digit by
    digit, ``mul`` is the schoolbook loop with a ``%`` per step, its digits
    at z^(k+i) reduced through the rows z^(k+i) mod f; ``sub``, ``inv``,
    ``div`` and ``pow`` are those written once on FiniteField.  Give it the
    modulus of the field it shadows, so that it searches none."""

    def _setup(self):
        p, k = self.p, self.k
        self.zero = (0,) * k
        self.one = (1,) + (0,) * (k - 1)
        # z^(k+i) mod modulus, as coefficient tuples, for i in [0, k-1)
        cur = tuple((-c) % p for c in self.modulus[:k])  # z^k
        rows = [cur]
        for _ in range(k - 2):
            shifted = (0,) + cur[: k - 1]
            carry = cur[k - 1]
            if carry:
                shifted = tuple((s + carry * r) % p for s, r in zip(shifted, rows[0]))
            cur = shifted
            rows.append(cur)
        self._red_rows = rows

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple((-x) % self.p for x in a)

    def mul(self, a, b):
        k, p = self.k, self.p
        out = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] = (out[i + j] + x * y) % p
        for i in range(2 * k - 2, k - 1, -1):
            c = out[i]
            if c:
                row = self._red_rows[i - k]
                for j in range(k):
                    out[j] = (out[j] + c * row[j]) % p
        return tuple(out[:k])

    def _from_packed(self, v: int):
        return unpack(self.p, self.k, v)

    def to_packed(self, a) -> int:
        return _pack(self.p, a)
