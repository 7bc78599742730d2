import random
from fractions import Fraction

import pytest

from atiyahlab.curve import WeierstrassCurve
from atiyahlab.errors import CertificationError, VerificationError
from atiyahlab.fat_points import (
    FatPoint,
    _lambda_bounds,
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
from atiyahlab.fields import make_extension_field
from atiyahlab.linalg import rank
from atiyahlab.surface import make_surface
from oracles import translate_marked_fiber


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
    rec1, rec2, holds = multiplicity_step_check(f4_surface, fp)
    assert rec1.m == 1 and rec2.m == 2
    assert rec1.status == "found" and rec2.status == "found"
    assert holds
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
            assert rec.bounds == {"checked": True, "upper": p * m - p * (p - 1) // 2,
                                  "ok": True}
            assert rec.value == rec.bounds["upper"]
    for m in (p, p + 1):
        with pytest.raises(VerificationError, match="product bound"):
            _lambda_bounds(surf, m, p * m - p * (p - 1) // 2 + 1)


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
