"""Fat-point jet conditions on the ruled surface, and the two step invariants.

A fat point of multiplicity m at the chart-0 point x = (P0, w0) asks a curve
in |F_q + level*E_inf| to pass through x with multiplicity at least m; on the
section side this is the vanishing of every Taylor coefficient t^alpha u^beta
with alpha + beta < m, where t is the curve's local parameter at P0 and
u = w - w0 the recentered fiber coordinate.  Grouping a section by u-degree,

    sum_j s_j (w0 + u)^j
        = sum_beta u^beta * [ sum_{j >= beta} C(j, beta) w0^(j-beta) s_j ],

so the row (alpha, beta) of the condition matrix reads off the t^alpha
coefficient of the inner bracket, expanded at P0.  That is all the geometry
this module needs; everything else is exact linear algebra over the base
field plus the certificates that make the computed numbers auditable:

* min_level (the smallest level whose system admits multiplicity m) reads
  it off one jet matrix at the proved bound as its first dependent column,
  with a kernel section independently re-expanded at the fat point and a
  full-rank witness at level - 1 recomputed by a separate elimination;
* max_multiplicity (the largest multiplicity at a level) reads it off the
  row prefixes of one jet matrix: its rows are grouped by total degree, so
  the conditions for m are the first C(m+1, 2) rows for any higher m;
* char_p_witness builds the positive-characteristic divisor as an explicit
  product of low-level sections and re-verifies its jets from scratch.
"""

from __future__ import annotations

from math import comb

from .curve import CurvePoint, certify_class_point, certify_not_p_torsion
from .errors import CertificationError, VerificationError
from .fields import FieldElem
from .funcfield import combination
from .linalg import Matrix, rank, rank_and_kernel, rank_naive
from .surface import AtiyahSurface, SectionVector


class FatPoint:
    """Multiplicity-m condition at the chart-0 point (base, w0)."""

    __slots__ = ("base", "w0", "multiplicity")

    def __init__(self, base: CurvePoint, w0, multiplicity: int):
        if base.is_infinity:
            raise ValueError("fat-point base must be an affine curve point")
        if multiplicity < 1:
            raise ValueError("multiplicity must be >= 1")
        self.base = base
        self.w0 = base.curve.field.elem(w0)
        self.multiplicity = multiplicity

    def with_multiplicity(self, m: int) -> "FatPoint":
        return FatPoint(self.base, self.w0, m)

    def class_point(self, surface: AtiyahSurface) -> CurvePoint:
        """The degree-0 class of the condition, as the point base - q."""
        return self.base - surface.q

    def serialize(self) -> dict:
        return {
            "base": [self.base.x.to_text(), self.base.y.to_text()],
            "w0": self.w0.to_text(),
            "multiplicity": self.multiplicity,
        }

    def __repr__(self):
        return (f"FatPoint(base={self.base}, w0={self.w0}, "
                f"m={self.multiplicity})")


def expected_dimension(dim_l: int, multiplicities) -> int:
    """Expected projective dimension after imposing the fat points:
    max(-1, dim_l - sum m_i (m_i + 1) / 2)."""
    if dim_l < -1:
        raise ValueError("projective dimension must be >= -1")
    cost = 0
    for m in multiplicities:
        if m < 1:
            raise ValueError("multiplicities must be >= 1")
        cost += m * (m + 1) // 2
    return max(-1, dim_l - cost)


def _check_admissible(surface: AtiyahSurface, fp: FatPoint) -> None:
    if fp.base.curve != surface.curve:
        raise ValueError("fat point lives on a different curve")
    if fp.base.is_infinity or fp.base == surface.T:
        raise ValueError("fat-point base collides with a removed chart point")
    if fp.base == surface.q:
        raise ValueError("fat-point base on the marked fiber is not supported")


def _point_jet_rows(surface, space, fp):
    """Rows t^alpha u^beta with alpha + beta < m for one fat point, grouped
    by total degree alpha + beta (beta rising within it), so the rows for a
    lower multiplicity m' are the first C(m'+1, 2)."""
    field = surface.field
    m = fp.multiplicity
    w0pows = [field.one]
    for _ in range(space.level):
        w0pows.append(field.mul(w0pows[-1], fp.w0.raw))
    binoms = [[(j, field.mul(field.from_int(comb(j, beta)), w0pows[j - beta]))
               for j in range(beta, space.level + 1)] for beta in range(m)]
    per_section = [[None if comp.is_zero() else comp.expand(fp.base, m)
                    for comp in sec.components] for sec in space.sections]
    rows = []
    for n in range(m):
        for beta in range(n + 1):
            row = []
            for exps in per_section:
                acc = field.zero
                for j, cw in binoms[beta]:
                    if exps[j] is not None and not field.is_zero(cw):
                        acc = field.add(
                            acc, field.mul(cw, exps[j].coefficient(n - beta)))
                row.append(acc)
            rows.append(row)
    return rows


def jet_matrix(surface: AtiyahSurface, level: int, points) -> Matrix:
    """Condition matrix of the fat points against the twisted basis at level:
    one row per monomial t^alpha u^beta (alpha + beta < m, per point, points
    in order; within a point by total degree alpha + beta), one column per
    basis section."""
    points = list(points)
    bases = set()
    for fp in points:
        _check_admissible(surface, fp)
        if fp.base in bases:
            raise ValueError("fat-point base points must be distinct")
        bases.add(fp.base)
    space = surface.h0(level, twisted=True)
    rows = []
    for fp in points:
        rows.extend(_point_jet_rows(surface, space, fp))
    return Matrix(surface.field, rows, space.dim)


class FatSystem:
    """Kernel of one jet matrix, with the sections it spans."""

    def __init__(self, surface, level, points, matrix, kernel):
        self.surface = surface
        self.level = level
        self.points = tuple(points)
        self.matrix = matrix
        self.kernel = tuple(kernel)

    @property
    def dim(self) -> int:
        return len(self.kernel)

    @property
    def expected(self) -> int:
        return expected_dimension(self.level,
                                  [fp.multiplicity for fp in self.points])

    @property
    def superabundant(self) -> bool:
        return self.dim - 1 > self.expected

    def section(self, i: int) -> SectionVector:
        space = self.surface.h0(self.level, twisted=True)
        return _combine(space.sections, self.kernel[i])

    def serialize(self) -> dict:
        return {
            "level": self.level,
            "points": [fp.serialize() for fp in self.points],
            "dim": self.dim,
            "expected_projective_dim": self.expected,
            "kernel": [[self.surface.field.to_text(c) for c in v]
                       for v in self.kernel],
        }


def _combine(sections, vec) -> SectionVector:
    """The section sum_i vec[i] * sections[i] for a nonzero kernel vector."""
    first = sections[0]
    if all(first.surface.field.is_zero(c) for c in vec):
        raise VerificationError("kernel vector is zero")
    return SectionVector(
        first.surface, first.level, first.twisted,
        [combination(first.surface.curve, vec, comps)
         for comps in zip(*(sec.components for sec in sections))])


def fat_system(surface: AtiyahSurface, level: int, points) -> FatSystem:
    matrix = jet_matrix(surface, level, points)
    _, kernel = rank_and_kernel(matrix)
    return FatSystem(surface, level, points, matrix, kernel)


def h0_fat(surface: AtiyahSurface, level: int, points) -> int:
    """Sections of the level-twisted system vanishing to the given orders
    (vector-space dimension; projective dimension is this minus one)."""
    return fat_system(surface, level, points).dim


def verify_jets(section: SectionVector, fp: FatPoint) -> None:
    """Re-expand the combined section at the fat point (never reading the
    rows jet_matrix builds) and check that all jets of total degree < m
    vanish; raises VerificationError otherwise.  Each component goes
    through FuncElem.expand, one combination of the lists of its own
    denominator in the chart of the base point, to exactly m coefficients
    past its valuation there.  A component with a pole at the base raises:
    the jets t^0..t^(m-1) alone would not see it.  A regular one has
    valuation >= 0, so its window holds every jet t^0..t^(m-1)."""
    field = section.surface.field
    m = fp.multiplicity
    exps = [None if comp.is_zero() else comp.expand(fp.base, m)
            for comp in section.components]
    if all(e is None for e in exps):
        raise VerificationError("certificate section is zero")
    for j, e in enumerate(exps):
        if e is not None and e.valuation() < 0:
            raise VerificationError(
                f"component {j} of the certificate has a pole at the fat point")
    w0pows = [field.one]
    for _ in range(section.level):
        w0pows.append(field.mul(w0pows[-1], fp.w0.raw))
    for beta in range(m):
        for alpha in range(m - beta):
            acc = field.zero
            for j in range(beta, section.level + 1):
                if exps[j] is None:
                    continue
                c = field.from_int(comb(j, beta))
                if field.is_zero(c):
                    continue
                acc = field.add(acc, field.mul(field.mul(c, w0pows[j - beta]),
                                               exps[j].coefficient(alpha)))
            if not field.is_zero(acc):
                raise VerificationError(
                    f"jet t^{alpha} u^{beta} of the certificate is nonzero")


class LambdaRecord:
    """The minimal level for multiplicity m at one fat point, certified."""

    def __init__(self, m, fat_point, class_point, status, value, cap,
                 dims_by_level, certificate, fullrank_witness, bounds):
        self.m = m
        self.fat_point = fat_point
        self.class_point = class_point
        self.status = status          # "found" | "exceeded-bound"
        self.value = value            # int | None
        self.cap = cap
        self.dims_by_level = tuple(dims_by_level)
        self.certificate = certificate
        self.fullrank_witness = fullrank_witness
        self.bounds = bounds

    def serialize(self) -> dict:
        return {
            "m": self.m,
            "fat_point": self.fat_point.serialize(),
            "class_point": (None if self.class_point.is_infinity else
                            [self.class_point.x.to_text(),
                             self.class_point.y.to_text()]),
            "status": self.status,
            "value": self.value,
            "cap": self.cap,
            "dims_by_level": list(self.dims_by_level),
            "certificate": (self.certificate.serialize()
                            if self.certificate else None),
            "fullrank_witness": self.fullrank_witness,
            "bounds": self.bounds,
        }

    def __repr__(self):
        return (f"LambdaRecord(m={self.m}, status={self.status}, "
                f"value={self.value})")


def min_level(surface: AtiyahSurface, m: int, sample, cap: int | None = None,
              certify: bool = True) -> LambdaRecord:
    """Smallest level whose twisted system has a member of multiplicity >= m
    at the sampled point, with a fully re-verified certificate pair.

    The multiplicity field of the FatPoint ``sample`` is ignored in favour
    of m.  The twisted bases nest (AtiyahSurface._solve checks it), so the
    jet matrix at any level is a column prefix of the one at top =
    min(U, cap), U the proved bound C(m+1, 2) (in characteristic p with
    m >= p the lower pm - p(p-1)/2); no level above U is ever solved.  The
    answer is the first dependent column: rank_and_kernel pivots left to
    right, so its first kernel vector ends there and is the one the answer's
    own jet matrix gives.  No kernel at top is status "exceeded-bound" (a
    finding, not an exception) if top is the cap (default C(m+1, 2) + 2),
    and contradicts the bound otherwise.  dims_by_level is what the nesting
    proves: zeros below the answer, then 1.  The certificate pair: the
    kernel section at the answer, validated and re-expanded by verify_jets,
    and the columns before it, their full rank recomputed by rank_naive.
    The section combines the first answer + 1 sections at top and keeps its
    first answer + 1 slots: by the nesting those sections are the answer's
    own basis, padded, so it is the section that basis gives, and no level
    but top is solved.
    """
    if m < 1:
        raise ValueError("multiplicity must be >= 1")
    fp = sample.with_multiplicity(m)
    _check_admissible(surface, fp)
    cls = fp.class_point(surface)
    if certify:
        certify_class_point(cls)
    if cap is None:
        cap = comb(m + 1, 2) + 2
    top = min(_upper_level(surface.field.characteristic, m), cap)
    jets = jet_matrix(surface, top, [fp])
    kernel = rank_and_kernel(jets)[1]
    if not kernel:
        if top < cap:
            raise VerificationError(
                f"no member of multiplicity {m} at the proved bound {top}")
        return LambdaRecord(m, fp, cls, "exceeded-bound", None, cap,
                            [0] * (cap + 1), None, None, None)
    vec = kernel[0]
    value = max(i for i, c in enumerate(vec) if not surface.field.is_zero(c))
    top_section = _combine(surface.h0(top, twisted=True).sections[:value + 1],
                           vec[:value + 1])
    certificate = SectionVector(surface, value, True,
                                top_section.components[:value + 1])
    certificate.validate()
    verify_jets(certificate, fp)
    witness = None
    if value:
        below = Matrix(surface.field, [row[:value] for row in jets.rows], value)
        r = rank_naive(below)
        if r != value:
            raise VerificationError(
                f"level {value - 1} matrix is rank-deficient ({r} < {value}); "
                f"the claimed minimality is wrong")
        witness = {"level": value - 1, "rows": below.nrows, "cols": value,
                   "rank": r, "rank_method": "independent-elimination"}
    bounds = _lambda_bounds(surface, m, value)
    return LambdaRecord(m, fp, cls, "found", value, cap,
                        [0] * value + [1], certificate, witness, bounds)


def _upper_level(p, m) -> int:
    """The proved upper bound on the minimal level for multiplicity m: the
    dimension count C(m+1, 2), or in characteristic p with m >= p the level
    pm - p(p-1)/2 of the product char_p_witness builds (never higher)."""
    return p * m - comb(p, 2) if p and m >= p else comb(m + 1, 2)


def _lambda_bounds(surface, m, value) -> dict:
    """Sanity bounds on a minimal level; violation means a library bug.

    In characteristic p and for m >= p the bound is the level
    pm - p(p-1)/2 of the product char_p_witness builds: a twisted member of
    multiplicity p at level C(p+1, 2) (that space has one more dimension than
    the C(p+1, 2) conditions) times m - p plain level-p members through the
    point (that space has dimension 2).  It is recorded from m = p + 1 on;
    at m = p it is the dimension count C(p+1, 2), and the record stays
    {"checked": False}, the bytes that verify-prop27 reports carry.  Past
    m = p the record also says whether the value meets the bound, the law
    the p = 2, 3, 5, 7 tables read (C(m+1, 2) exceeds it by C(m-p+1, 2));
    a value below it is a finding.
    """
    p = surface.field.characteristic
    if p:
        upper = p * m - comb(p, 2)
        if m >= p and value > upper:
            raise VerificationError(
                f"computed minimal level {value} for m={m} exceeds the "
                f"characteristic-{p} product bound {upper}")
        if m <= p:
            return {"checked": False}
        return {"checked": True, "upper": upper, "ok": True,
                "matches_law": value == upper}
    lower_triv = comb(m, 2) + 1
    lower_quad = (m * m + 1) // 2  # ceil(m^2 / 2)
    upper = comb(m + 1, 2)
    ok = lower_triv <= value <= upper and value >= lower_quad
    if not ok:
        raise VerificationError(
            f"computed minimal level {value} for m={m} violates the exact "
            f"bounds [{max(lower_triv, lower_quad)}, {upper}]")
    return {"checked": True, "lower_trivial": lower_triv,
            "lower_quadratic": lower_quad, "upper": upper, "ok": True}


class MuRecord:
    """Result of a maximal-multiplicity search at fixed level."""

    def __init__(self, level, fat_point, value, dims_by_multiplicity, hard_cap):
        self.level = level
        self.fat_point = fat_point
        self.value = value
        self.dims_by_multiplicity = tuple(dims_by_multiplicity)
        self.hard_cap = hard_cap

    def serialize(self) -> dict:
        return {
            "level": self.level,
            "fat_point": self.fat_point.serialize(),
            "value": self.value,
            "dims_by_multiplicity": list(self.dims_by_multiplicity),
            "hard_cap": self.hard_cap,
        }

    def __repr__(self):
        return f"MuRecord(level={self.level}, value={self.value})"


def max_multiplicity(surface: AtiyahSurface, level: int, sample) -> MuRecord:
    """Largest m with a member of the level system of multiplicity >= m at
    the sampled point, found by incrementing m from 1.

    The jet rows come grouped by total degree, so the matrix for m is the
    first C(m+1, 2) rows of the one for any higher multiplicity, and the
    dimension for m is level + 1 minus the rank of that row prefix.  One jet
    matrix is built at the first m whose C(m+1, 2) conditions reach the
    level + 1 columns, and rebuilt at twice its multiplicity (at most
    hard_cap) only when the search runs past the rows it holds, which
    happens in characteristic p, where mu can exceed the count.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    hard_cap = 4 * level + 16
    count = next(k for k in range(1, level + 2) if comb(k + 1, 2) > level)
    held, rows = 0, []
    dims = []
    value = 0
    for m in range(1, hard_cap + 1):
        if m > held:
            held = min(max(2 * held, count), hard_cap)
            rows = jet_matrix(surface, level,
                              [sample.with_multiplicity(held)]).rows
        prefix = Matrix(surface.field, rows[:comb(m + 1, 2)], level + 1)
        d = level + 1 - rank(prefix)
        dims.append(d)
        if d == 0:
            return MuRecord(level, sample, value, dims, hard_cap)
        value = m
    raise VerificationError(
        f"multiplicity search still positive at the hard cap {hard_cap}")


class WitnessDivisor:
    """Explicit member of the level system with the requested multiplicities,
    assembled as base * prod(through_i ^ e_i) * (extra infinity sections)."""

    def __init__(self, surface, level, points, base_section, through,
                 leftover, product, class_data):
        self.surface = surface
        self.level = level
        self.points = tuple(points)
        self.base_section = base_section
        self.through = tuple(through)   # (SectionVector, exponent) pairs
        self.leftover = leftover
        self.product = product
        self.class_data = class_data

    def components(self):
        """(description, object-or-None, multiplicity) triples."""
        out = [("member-of-twisted-level-%d" % self.base_section.level,
                self.base_section, 1)]
        for i, (sec, e) in enumerate(self.through):
            out.append((f"member-of-plain-level-{sec.level}-through-point-{i}",
                        sec, e))
        if self.leftover:
            out.append(("infinity-section", None, self.leftover))
        return out

    def serialize(self) -> dict:
        return {
            "level": self.level,
            "points": [fp.serialize() for fp in self.points],
            "base_section": self.base_section.serialize(),
            "through": [{"section": sec.serialize(), "exponent": e}
                        for sec, e in self.through],
            "leftover_infinity_sections": self.leftover,
            "product": self.product.serialize(),
            "class_data": self.class_data,
        }

    def __repr__(self):
        return (f"WitnessDivisor(level={self.level}, "
                f"mults={[fp.multiplicity for fp in self.points]})")


def char_p_witness(surface: AtiyahSurface, level: int, multiplicities,
                   points) -> WitnessDivisor:
    """Explicit positive-characteristic witness divisor.

    Requires char p > 0, every multiplicity >= p + 1, and the balance
    condition  2p*sum(m_i) + n(p^2 - p) <= 2*level < sum(m_i^2).
    Construction: a twisted base member with multiplicity >= p at every
    point (level n*C(p+1, 2)), times (m_i - p)-th powers of plain level-p
    members through each point, padded with leftover infinity sections; the
    final product is re-verified jet by jet.
    """
    p = surface.field.characteristic
    if p == 0:
        raise ValueError("witness construction needs positive characteristic")
    mults = list(multiplicities)
    pts = list(points)
    if len(mults) != len(pts):
        raise ValueError("one multiplicity per point required")
    n = len(pts)
    if n == 0:
        raise ValueError("at least one fat point required")
    for m in mults:
        if m < p + 1:
            raise ValueError(f"multiplicity {m} below p + 1 = {p + 1}")
    lhs = 2 * p * sum(mults) + n * (p * p - p)
    rhs = sum(m * m for m in mults)
    if not (lhs <= 2 * level < rhs):
        raise ValueError(
            f"balance condition fails: need {lhs} <= {2 * level} < {rhs}")
    fps = [fp.with_multiplicity(m) for fp, m in zip(pts, mults)]
    for fp in fps:
        _check_admissible(surface, fp)

    base_level = n * comb(p + 1, 2)
    base_sys = fat_system(surface, base_level,
                          [fp.with_multiplicity(p) for fp in fps])
    if base_sys.dim < 1:
        raise VerificationError(
            "no base member with multiplicity p at every point; the counting "
            "argument guarantees one, so this is a bug")
    base_section = base_sys.section(0)
    base_section.validate()

    plain = surface.h0(p, twisted=False)
    if plain.dim != 2:
        raise VerificationError(
            f"plain level-p space has dimension {plain.dim}, expected 2")
    through = []
    field = surface.field
    for fp in fps:
        point = fp.with_multiplicity(1)     # the (0, 0) jet is the value
        rows = _point_jet_rows(surface, plain, point)
        _, kernel = rank_and_kernel(Matrix(field, rows, 2))
        if not kernel:
            raise VerificationError("no level-p member through the point")
        sec = _combine(plain.sections, kernel[0])
        verify_jets(sec, point)
        through.append((sec, fp.multiplicity - p))

    leftover = level - base_level - sum(p * (m - p) for m in mults)
    if leftover < 0:
        raise VerificationError("negative leftover; balance check is broken")
    product = base_section
    for sec, e in through:
        for _ in range(e):
            product = product * sec
    product = product.padded_to(level)
    product.validate()
    if product.is_zero():
        raise VerificationError("witness product vanished")
    for fp in fps:
        verify_jets(product, fp)
    class_data = {
        "level": level,
        "base_level": base_level,
        "through": [(p, m - p) for m in mults],
        "leftover": leftover,
        "sum_ok": base_level + sum(p * (m - p) for m in mults)
                  + leftover == level,
        "twisted": product.twisted,
    }
    if not class_data["sum_ok"] or not product.twisted:
        raise VerificationError(f"class bookkeeping failed: {class_data}")
    return WitnessDivisor(surface, level, fps, base_section, through,
                          leftover, product, class_data)


def multiplicity_step_check(surface: AtiyahSurface, sample):
    """In characteristic p, the minimal level for multiplicity p is at least
    p plus the one for multiplicity p - 1 (checked on a class certified not
    to be p-torsion).  Returns (record_{p-1}, record_p); a violation means a
    library bug and raises VerificationError, as _lambda_bounds does."""
    p = surface.field.characteristic
    if p == 0:
        raise ValueError("step check is a positive-characteristic statement")
    certify_not_p_torsion(sample.class_point(surface))
    rec_prev = min_level(surface, p - 1, sample, certify=False)
    rec_p = min_level(surface, p, sample, certify=False)
    if rec_prev.status != "found" or rec_p.status != "found":
        raise VerificationError("minimal-level search hit its cap")
    if rec_p.value < p + rec_prev.value:
        raise VerificationError(
            f"minimal level {rec_p.value} for m={p} is below p plus the "
            f"level {rec_prev.value} for m={p - 1}")
    return rec_prev, rec_p


def sample_fat_point(surface: AtiyahSurface, rng, m: int = 1,
                     certified: bool = False) -> FatPoint:
    """Random admissible fat point (finite fields); optionally resampled
    until its class certifies as non-(p-)torsion."""
    avoid = {surface.curve.infinity, surface.T, surface.q}
    for _ in range(400):
        base = surface.curve.random_point(rng, avoid=avoid)
        w0 = FieldElem(surface.field, surface.field.random(rng))
        fp = FatPoint(base, w0, m)
        if not certified:
            return fp
        try:
            certify_class_point(fp.class_point(surface))
            return fp
        except CertificationError:
            continue
    raise CertificationError("no certifiable fat point found; field too small")
