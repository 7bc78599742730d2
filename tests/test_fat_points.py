import functools
import random
import re
from fractions import Fraction
from math import comb
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atiyahlab import fat_points
from atiyahlab import surface as surface_module
from atiyahlab.curve import WeierstrassCurve
from atiyahlab.errors import CertificationError, VerificationError
from atiyahlab.fat_points import (
    FatPoint,
    _lambda_bounds,
    _upper_level,
    char_p_witness,
    expected_dimension,
    fat_system,
    h0_fat,
    jet_matrix,
    max_multiplicity,
    min_level,
    multiplicity_step_check,
    sample_fat_point,
    verify_jets,
)
from atiyahlab.fields import QQ, make_extension_field
from atiyahlab.funcfield import FuncElem
from atiyahlab.linalg import rank
from atiyahlab.surface import SectionVector, make_surface
from oracles import (in_span, max_multiplicity_ladder, min_level_ladder,
                     translate_marked_fiber)


def test_expected_dimension_oracle():
    # one m-fold point costs m(m+1)/2 conditions, floor at -1
    assert expected_dimension(5, [1]) == 4
    assert expected_dimension(5, [2]) == 2
    assert expected_dimension(5, [3]) == -1
    assert expected_dimension(11, [5]) == -1      # 11 - 15
    assert expected_dimension(7, [2, 2]) == 1
    assert expected_dimension(4, []) == 4
    with pytest.raises(ValueError):
        expected_dimension(5, [0])
    with pytest.raises(ValueError):
        expected_dimension(-2, [1])


def test_fat_point_guards(rational_surface):
    E = rational_surface.curve
    P = E.point(1, 1)
    fp = FatPoint(P, 2, 3)
    assert fp.multiplicity == 3
    assert fp.w0.raw == Fraction(2)
    assert fp.with_multiplicity(1).multiplicity == 1
    # class of the condition: base - q = (1,1) - (0,1) = (3,-5)
    cls = fp.class_point(rational_surface)
    assert (cls.x.raw, cls.y.raw) == (Fraction(3), Fraction(-5))
    data = fp.serialize()
    assert data == {"base": ["1", "1"], "w0": "2", "multiplicity": 3}
    with pytest.raises(ValueError):
        FatPoint(E.infinity, 0, 1)
    with pytest.raises(ValueError):
        FatPoint(P, 0, 0)


def test_jet_matrix_shapes(rational_surface):
    E = rational_surface.curve
    fp1 = FatPoint(E.point(1, 1), 2, 1)
    em = jet_matrix(rational_surface, 1, [fp1])
    assert (em.nrows, em.ncols) == (1, 2)
    assert rank(em) == 1
    fp2 = FatPoint(E.point(1, 1), 2, 2)
    em2 = jet_matrix(rational_surface, 3, [fp2])
    assert (em2.nrows, em2.ncols) == (3, 4)
    assert rank(em2) == 3
    # two points stack their rows
    fp3 = FatPoint(E.point(3, 5), 1, 1)
    em3 = jet_matrix(rational_surface, 3, [fp2, fp3])
    assert em3.nrows == 4


def test_jet_matrix_admissibility(rational_surface):
    E = rational_surface.curve
    with pytest.raises(ValueError):
        jet_matrix(rational_surface, 2, [FatPoint(rational_surface.q, 0, 1)])
    with pytest.raises(ValueError):
        jet_matrix(rational_surface, 2, [FatPoint(rational_surface.T, 0, 1)])
    P = E.point(1, 1)
    with pytest.raises(ValueError):
        jet_matrix(rational_surface, 2, [FatPoint(P, 0, 1), FatPoint(P, 1, 1)])
    other = make_surface(E, E.point(1, 1))
    with pytest.raises(ValueError):
        jet_matrix(other, 2, [FatPoint(E.point(1, 1), 0, 1)])  # base == q there


def test_h0_fat_no_points_is_full_space(rational_surface):
    for level in range(4):
        assert h0_fat(rational_surface, level, []) == level + 1


def test_fat_system_generic_behaviour(rational_surface):
    E = rational_surface.curve
    fp = FatPoint(E.point(1, 1), 2, 2)
    sys3 = fat_system(rational_surface, 3, [fp])
    assert sys3.dim == 1                 # 4 sections, 3 independent conditions
    assert sys3.expected == 0            # projective: 3 - 3
    assert not sys3.superabundant        # 1 - 1 == 0 == expected
    sec = sys3.section(0)
    sec.validate()
    verify_jets(sec, fp)
    data = sys3.serialize()
    assert data["dim"] == 1 and data["expected_projective_dim"] == 0
    assert len(data["kernel"]) == 1


def test_verify_jets_rejects_wrong_multiplicity(rational_surface):
    E = rational_surface.curve
    fp = FatPoint(E.point(1, 1), 2, 2)
    sys1 = fat_system(rational_surface, 3, [fp.with_multiplicity(1)])
    # a section through the point to order 1 generically misses order 2
    sec = sys1.section(0)
    verify_jets(sec, fp.with_multiplicity(1))
    with pytest.raises(VerificationError):
        verify_jets(sec, fp)


def test_verify_jets_rejects_a_pole_or_the_last_jet(rational_surface):
    # the local parameter at the base (1, 1) is t = x - 1, so s_0 = 1/t has
    # every jet t^0..t^(m-1) zero and only its pole gives it away; t^(m-1)
    # in s_0 is wrong only in the last pure jet, and t^(m-2) u in the
    # recentered fiber coordinate u = w - 2 only in the last mixed one
    surf = rational_surface
    t = FuncElem.x_function(surf.curve) - 1
    fp = FatPoint(surf.curve.point(1, 1), 2, 1)
    for m in (1, 2, 3):
        with pytest.raises(VerificationError, match="pole at the fat point"):
            verify_jets(SectionVector(surf, 0, False, [t.inverse()]),
                        fp.with_multiplicity(m))
        wrong = {(m - 1, 0): SectionVector(surf, 0, False, [t ** (m - 1)])}
        if m > 1:
            s_1 = t ** (m - 2)
            wrong[m - 2, 1] = SectionVector(surf, 1, False, [s_1 * (-2), s_1])
        for (alpha, beta), sec in wrong.items():
            if m > 1:
                verify_jets(sec, fp.with_multiplicity(m - 1))
            with pytest.raises(VerificationError,
                               match=re.escape(f"jet t^{alpha} u^{beta} ")):
                verify_jets(sec, fp.with_multiplicity(m))


def test_min_level_table_char0(rational_surface):
    E = rational_surface.curve
    fp = FatPoint(E.point(1, 1), 2, 1)
    values = {}
    for m in (1, 2, 3):
        rec = min_level(rational_surface, m, fp)
        assert rec.status == "found"
        assert rec.cap == m * (m + 1) // 2 + 2
        assert rec.dims_by_level[:-1] == tuple([0] * rec.value)
        assert rec.dims_by_level[-1] >= 1
        assert rec.certificate is not None
        if rec.value >= 1:
            assert rec.fullrank_witness["level"] == rec.value - 1
            assert rec.fullrank_witness["rank"] == rec.fullrank_witness["cols"]
        assert rec.bounds["ok"]
        values[m] = rec.value
    assert values == {1: 1, 2: 3, 3: 6}


def test_min_level_certificate_reverifies(rational_surface):
    E = rational_surface.curve
    fp = FatPoint(E.point(1, 1), 2, 2)
    rec = min_level(rational_surface, 2, fp)
    cert = rec.certificate
    cert.validate()
    verify_jets(cert, fp)
    ser = rec.serialize()
    assert ser["value"] == 3 and ser["status"] == "found"
    assert ser["class_point"] == ["3", "-5"]


def test_min_level_independent_of_gluing_choice(rational_surface, rational_curve):
    # same marked data, different second chart point: the answers agree
    E = rational_curve
    other = make_surface(E, E.point(0, 1))      # default T = (0, -1)
    assert other.T != rational_surface.T
    fp = FatPoint(E.point(1, 1), 2, 2)
    assert min_level(other, 2, fp).value == 3


def test_min_level_cap_exhaustion(rational_surface):
    E = rational_surface.curve
    fp = FatPoint(E.point(1, 1), 2, 2)
    rec = min_level(rational_surface, 2, fp, cap=1)
    assert rec.status == "exceeded-bound"
    assert rec.value is None and rec.certificate is None
    assert rec.dims_by_level == (0, 0)
    with pytest.raises(ValueError):
        min_level(rational_surface, 0, fp)


def test_min_level_certifies_class(rational_surface):
    # (0, -1) has class (0,-1) - (0,1) = -2q; torsion certification must fail
    # only if the class is actually torsion — here it is non-torsion, but a
    # deliberately torsion class on another model must be rejected.
    from atiyahlab.curve import WeierstrassCurve
    from atiyahlab.fields import QQ
    E2 = WeierstrassCurve(QQ, 0, 0, 0, 0, 1)    # (2, 3) is 6-torsion
    surf2 = make_surface(E2, E2.point(0, 1))
    fp = FatPoint(E2.point(2, 3), 0, 1)
    with pytest.raises(CertificationError):
        min_level(surf2, 1, fp)
    # certify=False skips the check and still finds a level
    rec = min_level(surf2, 1, fp, certify=False)
    assert rec.status == "found"


def test_max_multiplicity_char0(rational_surface):
    E = rational_surface.curve
    fp = FatPoint(E.point(1, 1), 2, 1)
    rec1 = max_multiplicity(rational_surface, 1, fp)
    assert rec1.value == 1
    assert rec1.dims_by_multiplicity[-1] == 0
    rec3 = max_multiplicity(rational_surface, 3, fp)
    assert rec3.value == 2
    with pytest.raises(ValueError):
        max_multiplicity(rational_surface, 0, fp)


def test_char_p_witness_preconditions(rational_surface, f4_surface):
    E4 = f4_surface.curve
    fp4 = FatPoint(E4.point(1, 1), 1, 5)
    with pytest.raises(ValueError):
        char_p_witness(rational_surface, 11, [5],
                       [FatPoint(rational_surface.curve.point(1, 1), 2, 5)])
    with pytest.raises(ValueError):
        char_p_witness(f4_surface, 11, [2], [fp4])      # m = p is too small
    with pytest.raises(ValueError):
        char_p_witness(f4_surface, 11, [3], [fp4])      # balance unsatisfiable
    with pytest.raises(ValueError):
        char_p_witness(f4_surface, 10, [5], [fp4])      # 2*level below balance
    with pytest.raises(ValueError):
        char_p_witness(f4_surface, 13, [5], [fp4])      # 2*level past balance
    with pytest.raises(ValueError):
        char_p_witness(f4_surface, 11, [5, 5], [fp4])   # count mismatch
    with pytest.raises(ValueError):
        char_p_witness(f4_surface, 11, [], [])


def test_char_p_witness_small_field(f4_surface):
    # p = 2, m = 5, level 11: balance reads 22 <= 22 < 25
    E = f4_surface.curve
    fp = FatPoint(E.point(1, 1), 1, 5)
    w = char_p_witness(f4_surface, 11, [5], [fp])
    assert w.level == 11
    assert w.leftover == 11 - 3 - 2 * 3
    comps = w.components()
    assert comps[0][0] == "member-of-twisted-level-3" and comps[0][2] == 1
    assert comps[1][2] == 3                       # (m - p)-th power
    assert comps[-1] == ("infinity-section", None, 2)
    assert w.class_data["sum_ok"]
    # the product is a genuine member of the system: re-verify from scratch
    w.product.validate()
    verify_jets(w.product, fp)
    # and the full linear system is indeed nonempty where the expected
    # dimension is -1: superabundance in characteristic p
    sys = fat_system(f4_surface, 11, [fp])
    assert sys.expected == -1
    assert sys.dim >= 1
    assert sys.superabundant


def test_multiplicity_step_small_field(f4_surface):
    E = f4_surface.curve
    fp = FatPoint(E.point(1, 1), 1, 1)
    rec1, rec2 = multiplicity_step_check(f4_surface, fp)
    assert rec1.m == 1 and rec2.m == 2
    assert rec1.status == "found" and rec2.status == "found"
    assert rec2.value >= 2 + rec1.value


@pytest.mark.parametrize("p, k, coeffs, levels", [
    (2, 8, (1, 0, 0, 0, 1), [1, 3, 5, 7, 9, 11]),      # 2m - 1
    (3, 5, (0, 0, 0, -1, 1), [1, 3, 6, 9, 12]),        # 3m - 3 from m = 3
])
def test_char_p_lambda_meets_the_product_bound(p, k, coeffs, levels):
    # in characteristic p, lambda(m) <= pm - p(p-1)/2 for m >= p: the level of
    # a multiplicity-p member at C(p+1, 2) times m - p plain level-p members
    F = make_extension_field(p, k)
    E = WeierstrassCurve(F, *coeffs)
    surf = make_surface(E, E.point(0, 1))
    fp = sample_fat_point(surf, random.Random(1), certified=True)
    for m, want in enumerate(levels, start=1):
        rec = min_level(surf, m, fp)
        assert rec.value == want
        if m <= p:   # at m = p the bound is C(p+1, 2), checked, not recorded
            assert rec.bounds == {"checked": False}
        else:
            upper = p * m - p * (p - 1) // 2
            assert rec.bounds == {"checked": True, "upper": upper, "ok": True,
                                  "matches_law": True}
            assert rec.value == rec.bounds["upper"]
    for m in (p, p + 1):
        with pytest.raises(VerificationError, match="product bound"):
            _lambda_bounds(surf, m, p * m - p * (p - 1) // 2 + 1)
    # a level below the law is a finding, recorded rather than raised
    law = p * (p + 1) - p * (p - 1) // 2
    assert _lambda_bounds(surf, p + 1, law - 1) == {
        "checked": True, "upper": law, "ok": True, "matches_law": False}


def test_step_check_needs_positive_characteristic(rational_surface):
    fp = FatPoint(rational_surface.curve.point(1, 1), 2, 1)
    with pytest.raises(ValueError):
        multiplicity_step_check(rational_surface, fp)


def test_sample_fat_point(f9_surface):
    rng = random.Random(17)
    seen = set()
    for _ in range(10):
        fp = sample_fat_point(f9_surface, rng, m=1)
        assert fp.base not in {f9_surface.curve.infinity, f9_surface.T,
                               f9_surface.q}
        seen.add((fp.base, fp.w0.raw))
    assert len(seen) > 1                  # actually random
    cert = sample_fat_point(f9_surface, rng, m=2, certified=True)
    assert cert.multiplicity == 2
    certify_ok = cert.class_point(f9_surface)
    assert not certify_ok.is_infinity


def test_w0_invariance(f9_surface):
    # dimensions must not depend on the fiber coordinate of the point
    E = f9_surface.curve
    base = E.point(1, 1)
    dims = {h0_fat(f9_surface, 2, [FatPoint(base, w0, 2)])
            for w0 in range(3)}
    assert len(dims) == 1


def test_translate_marked_fiber(f9_surface):
    E = f9_surface.curve
    fp = FatPoint(E.point(1, 1), 2, 2)
    shift = E.point(2, 2)
    s2, fp2 = translate_marked_fiber(f9_surface, fp, shift)
    # the class base - q is preserved on the nose
    assert fp2.class_point(s2) == fp.class_point(f9_surface)
    assert h0_fat(s2, 3, [fp2]) == h0_fat(f9_surface, 3, [fp])
    # a shift that drags q onto T must be rejected
    bad_shift = f9_surface.T - f9_surface.q
    with pytest.raises(ValueError):
        translate_marked_fiber(f9_surface, fp, bad_shift)


# -- the minimal level off one jet matrix -------------------------------------

_QQ_POINTS = ((1, 1), (1, -1), (3, 5), (3, -5), (5, 11))


@functools.cache
def _gear_surface(name):
    """One surface per field gear (and per torsion case), built once."""
    field, coeffs, q = {
        "QQ": (QQ, (0, 0, 0, -1, 1), (0, 1)),
        "QQ-torsion": (QQ, (0, 0, 0, 0, 1), (0, 1)),
        "F9": (make_extension_field(3, 2), (0, 0, 0, -1, 1), (0, 1)),
        "F16": (make_extension_field(2, 4), (1, 0, 0, 0, 1), (0, 1)),
        "F101": (make_extension_field(101), (0, 0, 0, -1, 1), (0, 1)),
        "F101-torsion": (make_extension_field(101), (0, 0, 0, -1, 1), (0, 1)),
        "F3^13": (make_extension_field(3, 13), (0, 0, 0, -1, 1), (0, 1)),
    }[name]
    E = WeierstrassCurve(field, *coeffs)
    T = E.point(-1, 1) if name == "QQ" else None
    return make_surface(E, E.point(*q), T=T)


def _gear_case(name, seed):
    """(surface, fat point) for one gear; the torsion cases put the base where
    base - q has order 2, so the minimal levels fall below the bound."""
    surf = _gear_surface(name)
    E = surf.curve
    if name == "QQ":
        return surf, FatPoint(E.point(*_QQ_POINTS[seed % len(_QQ_POINTS)]),
                              Fraction(seed % 5 - 2), 1)
    if name == "QQ-torsion":    # (2, -3) - (0, 1) = (-1, 0) on y^2 = x^3 + 1
        return surf, FatPoint(E.point(2, -3), seed % 5 - 2, 1)
    if name == "F101-torsion":  # (22, 27) - (0, 1) has order 2
        return surf, FatPoint(E.point(22, 27), seed % 101, 1)
    return surf, sample_fat_point(surf, random.Random(seed))


def _assert_same_record(search, ladder):
    assert (search.value, search.status, search.dims_by_level) == \
        (ladder.value, ladder.status, ladder.dims_by_level)
    assert search.fullrank_witness == ladder.fullrank_witness
    assert ((search.certificate.serialize() if search.certificate else None)
            == (ladder.certificate.serialize() if ladder.certificate else None))
    assert search.serialize() == ladder.serialize()


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("name", ["QQ", "QQ-torsion", "F9", "F16", "F101",
                                  "F101-torsion", "F3^13"])
@settings(derandomize=True, max_examples=3, deadline=None)
@given(seed=st.integers(0, 2 ** 16), data=st.data())
def test_min_level_search_matches_ladder(name, m, seed, data):
    # dims_by_level, the witness and the certificate all agree with solving
    # every level; so do a cap below the answer (exhaustion) and a cap
    # between the answer and the proved bound
    surf, fp = _gear_case(name, seed)
    search = min_level(surf, m, fp, certify=False)
    _assert_same_record(search, min_level_ladder(surf, m, fp, certify=False))
    lam = search.value
    upper = _upper_level(surf.field.characteristic, m)
    assert search.status == "found" and lam <= upper
    caps = [data.draw(st.integers(lam, upper), label="cap in [lambda, U]")]
    if lam:
        caps.append(data.draw(st.integers(0, lam - 1), label="cap < lambda"))
    for cap in caps:
        _assert_same_record(
            min_level(surf, m, fp, cap=cap, certify=False),
            min_level_ladder(surf, m, fp, cap=cap, certify=False))


def test_min_level_search_reaches_below_the_bound():
    # the torsion cases put the first dependent column below the bound
    for name, want in (("QQ-torsion", [1, 2, 5, 8]),
                       ("F101-torsion", [1, 2, 5, 8])):
        surf, fp = _gear_case(name, 0)
        assert [min_level(surf, m, fp, certify=False).value
                for m in (1, 2, 3, 4)] == want


@pytest.mark.parametrize("shortfall", [1, 2, 5, 10])
def test_min_level_rejects_a_low_bound(monkeypatch, shortfall):
    # were the bound too low, its jet matrix would have no kernel: that
    # contradicts the proof and raises, nothing above the bound is solved,
    # and a cap at the low bound is still an exhaustion
    surf, fp = _gear_case("QQ", 0)
    monkeypatch.setattr(fat_points, "_upper_level",
                        lambda p, m: max(0, comb(m + 1, 2) - shortfall))
    for m in (1, 2, 3, 4):
        with pytest.raises(VerificationError, match="proved bound"):
            min_level(surf, m, fp)
        low = max(0, comb(m + 1, 2) - shortfall)
        rec = min_level(surf, m, fp, cap=low)
        assert rec.status == "exceeded-bound"
        assert rec.dims_by_level == (0,) * (low + 1)


def test_min_level_solves_the_bound_and_the_answer(rational_curve):
    # lambda = U over Q: one solve, at U = 10, which fills both spaces
    # there and which the certificate reuses
    surf = _fresh_rational(rational_curve)
    rec = min_level(surf, 4, FatPoint(rational_curve.point(1, 1), -2, 1))
    assert rec.value == 10 and list(surf._h0) == [(10, True), (10, False)]
    # lambda = 8 < U = 10 on a 2-torsion class: the certificate is cut from
    # the basis at U, so no level-8 solve
    E = WeierstrassCurve(QQ, 0, 0, 0, 0, 1)
    surf = make_surface(E, E.point(0, 1))
    rec = min_level(surf, 4, FatPoint(E.point(2, -3), -2, 1), certify=False)
    assert rec.value == 8 and list(surf._h0) == [(10, True), (10, False)]


@pytest.mark.parametrize("name", ["QQ", "QQ-torsion", "F9", "F16", "F101"])
def test_twisted_bases_nest(name):
    # min_level rests on this: below the bound U, the basis at level l is
    # the first l + 1 sections at U, padded, so the jet matrix at l is the
    # first l + 1 columns of the one at U
    surf, fp = _gear_case(name, 0)
    fp = fp.with_multiplicity(4)
    top = _upper_level(surf.field.characteristic, 4)
    sections = surf.h0(top, twisted=True).sections
    jets = jet_matrix(surf, top, [fp]).rows
    for level in range(top):
        assert ([s.padded_to(top).serialize()
                 for s in surf.h0(level, twisted=True).sections]
                == [s.serialize() for s in sections[:level + 1]])
        assert (jet_matrix(surf, level, [fp]).rows
                == [row[:level + 1] for row in jets])


def test_solve_rejects_a_basis_that_does_not_nest(monkeypatch, rational_curve):
    surf = _fresh_rational(rational_curve)
    original = surface_module.canonical_basis
    monkeypatch.setattr(surface_module, "canonical_basis",
                        lambda *args: original(*args)[::-1])
    with pytest.raises(VerificationError, match="twisted basis section"):
        surf.h0(2, twisted=True)


@pytest.mark.parametrize("name", ["QQ", "QQ-torsion", "F9", "F16", "F101",
                                  "F101-torsion"])
@settings(derandomize=True, max_examples=3, deadline=None)
@given(seed=st.integers(0, 2 ** 16))
def test_max_multiplicity_matches_ladder(name, seed):
    # the row prefixes of one jet matrix give the record of one fat system
    # per multiplicity, on torsion classes and past the dimension count in
    # characteristic p (F16 from level 5 on rebuilds the matrix)
    surf, fp = _gear_case(name, seed)
    for level in range(1, 13):
        assert (max_multiplicity(surf, level, fp).serialize()
                == max_multiplicity_ladder(surf, level, fp).serialize())


@pytest.mark.parametrize("name", ["QQ", "QQ-torsion", "F9", "F101-torsion"])
def test_padding_keeps_fat_kernel_members(name):
    # a fat-kernel section at level l, padded to l + 1, is a member there,
    # so dim is nondecreasing in the level
    surf, fp = _gear_case(name, 0)
    for m, level in ((1, 1), (2, 3), (2, 4), (3, 6)):
        fp_m = fp.with_multiplicity(m)
        lower = fat_system(surf, level, [fp_m])
        upper = fat_system(surf, level + 1, [fp_m])
        members = [upper.section(i) for i in range(upper.dim)]
        for i in range(lower.dim):
            padded = lower.section(i).padded_to(level + 1)
            padded.validate()
            verify_jets(padded, fp_m)
            assert in_span(members, padded)
        # and the span test can fail: a basis section off the kernel is out
        for sec in surf.h0(level + 1, twisted=True).sections:
            try:
                verify_jets(sec, fp_m)
            except VerificationError:
                assert not in_span(members, sec)
                break
        else:
            pytest.fail("every basis section passed the jets")


def _fresh_rational(rational_curve):
    E = rational_curve
    return make_surface(E, E.point(0, 1), T=E.point(-1, 1))


def test_jet_rows_nest_by_total_degree(rational_curve):
    # the rows for m are the first C(m+1, 2) rows for any m' > m, and they
    # are the rows a cold surface gives
    warm, cold = _fresh_rational(rational_curve), _fresh_rational(rational_curve)
    fp = FatPoint(rational_curve.point(1, 1), 2, 1)
    level = 6
    rows = {m: jet_matrix(warm, level, [fp.with_multiplicity(m)]).rows
            for m in range(1, 7)}
    for m in range(1, 6):
        assert len(rows[m]) == comb(m + 1, 2)
        assert rows[m] == jet_matrix(cold, level, [fp.with_multiplicity(m)]).rows
        for higher in range(m + 1, 7):
            assert rows[higher][:comb(m + 1, 2)] == rows[m]


def test_verify_jets_ignores_the_jet_rows(monkeypatch, rational_curve):
    surf = _fresh_rational(rational_curve)
    fp = FatPoint(rational_curve.point(1, 1), 2, 2)
    space = surf.h0(3, twisted=True)
    member = fat_system(surf, 3, [fp]).section(0)
    candidates = [member, *space.sections]

    def verdicts():
        out = []
        for sec in candidates:
            try:
                verify_jets(sec, fp)
                out.append(True)
            except VerificationError:
                out.append(False)
        return out

    before = verdicts()
    assert before[0] and not all(before)
    # zero out the jet rows: jet_matrix reads them, verify_jets not
    zero = surf.field.zero
    monkeypatch.setattr(
        fat_points, "_point_jet_rows",
        lambda surface, space, fp: [[zero] * space.dim
                                    for _ in range(comb(fp.multiplicity + 1, 2))])
    assert all(surf.field.is_zero(c)
               for row in jet_matrix(surf, 3, [fp]).rows for c in row)
    assert verdicts() == before


def test_step_check_raises_on_a_violation(monkeypatch, f4_surface):
    fp = FatPoint(f4_surface.curve.point(1, 1), 1, 1)
    levels = {1: 1, 2: 2}          # lambda(2) = 2 < p + lambda(1) = 3

    def fake(surface, m, sample, cap=None, certify=True):
        return SimpleNamespace(m=m, status="found", value=levels[m])

    monkeypatch.setattr(fat_points, "min_level", fake)
    with pytest.raises(VerificationError, match="below p plus"):
        multiplicity_step_check(f4_surface, fp)
