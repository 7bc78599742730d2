import random
from fractions import Fraction

import pytest

from atiyahlab.curve import (
    WeierstrassCurve,
    certify_non_torsion,
    certify_not_p_torsion,
    reduce_curve_mod_p,
    reduce_point_mod_p,
)
from atiyahlab.errors import CertificationError
from atiyahlab.fields import QQ, FieldElem, make_extension_field
from oracles import of_point


def rational_model():
    return WeierstrassCurve(QQ, 0, 0, 0, -1, 1)


def test_discriminant_oracle():
    # y^2 = x^3 - x + 1: disc = -16(4a^3 + 27b^2) = -16 * 23 = -368
    E = rational_model()
    assert E.discriminant.raw == Fraction(-368)


def test_singular_model_rejected():
    with pytest.raises(ValueError):
        WeierstrassCurve(QQ, 0, 0, 0, 0, 0)       # y^2 = x^3 is a cusp
    with pytest.raises(ValueError):
        # short Weierstrass form is always singular in characteristic 2
        WeierstrassCurve(make_extension_field(2), 0, 0, 0, 1, 0)


def test_point_membership():
    E = rational_model()
    P = E.point(1, 1)
    assert not P.is_infinity
    with pytest.raises(ValueError):
        E.point(2, 2)
    assert E.infinity.is_infinity


def test_group_law_hand_oracle():
    # On y^2 = x^3 - x + 1: (0,1) + (1,1) = (-1,-1), 2*(0,1) = (1/4, -7/8).
    E = rational_model()
    P, Q = E.point(0, 1), E.point(1, 1)
    S = P + Q
    assert (S.x.raw, S.y.raw) == (Fraction(-1), Fraction(-1))
    D = P + P
    assert (D.x.raw, D.y.raw) == (Fraction(1, 4), Fraction(-7, 8))
    assert P - P == E.infinity
    assert P + E.infinity == P
    assert E.infinity + P == P
    assert -(-P) == P


def test_scalar_multiples():
    E = rational_model()
    P = E.point(0, 1)
    assert 0 * P == E.infinity
    assert 1 * P == P
    assert 2 * P == P + P
    assert 5 * P == P + P + P + P + P
    assert (-3) * P == -(3 * P)


@pytest.mark.parametrize("curve_args,field_args", [
    ((0, 0, 0, -1, 1), (3, 2)),
    ((1, 0, 0, 0, 1), (2, 2)),      # char-2 ordinary: y^2 + xy = x^3 + 1
    ((0, 0, 1, 0, 0), (2, 2)),      # char-2 supersingular: y^2 + y = x^3
    ((0, 0, 0, -1, 1), (5, 1)),
])
def test_group_law_associativity(curve_args, field_args):
    E = WeierstrassCurve(make_extension_field(*field_args), *curve_args)
    pts = E.points()
    rng = random.Random(42)
    sample = [pts[rng.randrange(len(pts))] for _ in range(6)]
    for P in sample:
        for Q in sample:
            for R in sample[:3]:
                assert (P + Q) + R == P + (Q + R)
            assert P + Q == Q + P
            assert (P + Q) - Q == P


def test_two_torsion_doubling():
    # (x, y) with 2P = infinity: on y^2 = x^3 - x over F_5, (0,0) is 2-torsion
    E = WeierstrassCurve(make_extension_field(5), 0, 0, 0, -1, 0)
    P = E.point(0, 0)
    assert P + P == E.infinity
    assert -P == P


def test_point_count_f3():
    E3 = reduce_curve_mod_p(rational_model(), 3)
    assert len(E3.points()) == 7
    gs = E3.group_structure_small()
    assert gs.order == 7 and gs.cyclic and gs.exponent == 7
    assert 7 * gs.generator == E3.infinity


def test_point_counts_other_fields():
    # Frozen counts for the fields used elsewhere, plus Hasse-bound sanity.
    # #E(F_3) = 7 gives trace a_3 = -3, so a_9 = a_3^2 - 2*3 = 3 and
    # #E(F_9) = 9 + 1 - 3 = 7 as well.
    E9 = WeierstrassCurve(make_extension_field(3, 2), 0, 0, 0, -1, 1)
    assert len(E9.points()) == 7
    E4 = WeierstrassCurve(make_extension_field(2, 2), 1, 0, 0, 0, 1)
    assert len(E4.points()) == 8
    for E in (E9, E4):
        n = len(E.points())
        q = E.field.q
        assert abs(n - (q + 1)) <= 2 * int(q ** 0.5) + 1


@pytest.mark.parametrize("field_args,coeffs", [
    ((101,), (0, 0, 0, -1, 1)),
    ((3, 2), (0, 0, 0, -1, 1)),
    ((5, 3), (0, 0, 0, -1, 1)),
    ((5, 2), (1, 2, 3, 4, 1)),          # long forms, with ramified points
    ((3, 2), (1, 1, 1, 1, 1)),
    ((101,), (1, -1, 1, -2, 0)),
    ((2, 4), ("1", "2", "1", "3", "1")),
], ids=["F101", "F9", "F125", "F25-long", "F9-long", "F101-long", "F16-long"])
def test_points_match_the_per_x_root_solves(field_args, coeffs):
    # points() reads the y over each x off one table of square roots (odd
    # q); the list must be the per-x y_coordinates enumeration, in its order
    E = WeierstrassCurve(make_extension_field(*field_args), *coeffs)
    f = E.field
    want = [(None, None)] + [
        (x, y.raw) for x in (f.from_packed(v) for v in range(f.q))
        for y in E.y_coordinates(FieldElem(f, x))]
    got = [(None, None) if P.is_infinity else (P.x.raw, P.y.raw)
           for P in E.points()]
    assert got == want


def test_first_point_oracle():
    E4 = WeierstrassCurve(make_extension_field(2, 2), 1, 0, 0, 0, 1)
    P = E4.first_point()
    assert (E4.field.to_packed(P.x.raw), E4.field.to_packed(P.y.raw)) == (0, 1)
    Q = E4.first_point(avoid={P})
    assert Q != P and not Q.is_infinity
    with pytest.raises(ValueError):
        rational_model().first_point()


def test_random_point_respects_avoid():
    E = WeierstrassCurve(make_extension_field(5), 0, 0, 0, -1, 1)
    rng = random.Random(0)
    pts = set(E.points()[1:])
    keep = set(list(pts)[:2])
    for _ in range(20):
        P = E.random_point(rng, avoid=pts - keep)
        assert P in keep


def test_certify_non_torsion():
    E = rational_model()
    # (3, -5) has infinite order; certified by height/reduction checks
    certify_non_torsion(E.point(3, -5))
    # (0, 1) + (1, 1) chain eventually fails for actual torsion points:
    E2 = WeierstrassCurve(QQ, 0, 0, 0, 0, 1)    # y^2 = x^3 + 1 has 6-torsion (2,3)? -> (2,3): 9=8+1 yes
    with pytest.raises(CertificationError):
        certify_non_torsion(E2.point(2, 3))


def test_certify_not_p_torsion():
    E3 = reduce_curve_mod_p(rational_model(), 3)
    P = E3.point(1, 1)
    certify_not_p_torsion(P)        # order divides 7, so never 3-torsion
    assert 7 * P == E3.infinity
    with pytest.raises(CertificationError):
        certify_not_p_torsion(E3.infinity)


def test_reduce_curve_good_and_bad_primes():
    E = rational_model()
    E3 = reduce_curve_mod_p(E, 3)
    assert E3.field.p == 3
    # disc = -368 = -16 * 23: reduction mod 2 and mod 23 are singular
    with pytest.raises(ValueError):
        reduce_curve_mod_p(E, 2)
    with pytest.raises(ValueError):
        reduce_curve_mod_p(E, 23)
    with pytest.raises(ValueError):
        reduce_curve_mod_p(E3, 5)        # source must be over Q
    Ehalf = WeierstrassCurve(QQ, 0, 0, 0, Fraction(1, 3), 1)
    with pytest.raises(ValueError):
        reduce_curve_mod_p(Ehalf, 3)     # non-integral coefficient at 3


def test_reduce_point_homomorphic():
    E = rational_model()
    E3 = reduce_curve_mod_p(E, 3)
    P = E.point(0, 1)
    Q = E.point(1, 1)
    rP, rQ = reduce_point_mod_p(P, E3), reduce_point_mod_p(Q, E3)
    assert reduce_point_mod_p(P + Q, E3) == rP + rQ
    assert reduce_point_mod_p(E.infinity, E3) == E3.infinity
    # denominators 4 and 8 are units mod 3, so 2P reduces and the
    # homomorphism property still holds
    double = E.point(Fraction(1, 4), Fraction(-7, 8))
    assert reduce_point_mod_p(double, E3) == rP + rP


def test_reduce_point_denominator_guard():
    # Build a curve with good reduction at 5 and a point with 5 in a denominator.
    E = WeierstrassCurve(QQ, 0, 0, 0, -1, 1)
    P = E.point(0, 1)
    x5 = 5 * P
    assert x5.x.raw.denominator % 5 != 0 or True   # compute actual denominators
    E5 = reduce_curve_mod_p(E, 5)
    # find a multiple whose x-denominator is divisible by 5, if any in range
    found = None
    Q = P
    for n in range(2, 40):
        Q = Q + P
        if Q.x.raw.denominator % 5 == 0:
            found = Q
            break
    if found is not None:
        with pytest.raises(ValueError):
            reduce_point_mod_p(found, E5)


def test_divisor_algebra():
    E = rational_model()
    P, Q = E.point(0, 1), E.point(1, 1)
    D = of_point(P, 2) + of_point(Q) - of_point(E.infinity, 3)
    assert D.degree() == 0
    assert D.multiplicity(P) == 2 and D.multiplicity(Q) == 1
    assert D.multiplicity(E.infinity) == -3
    assert (D * 2).degree() == 0
    assert D.group_sum() == 2 * P + Q
    assert not D.is_principal()          # 2P + Q is not the identity
    D0 = of_point(P) - of_point(P)
    assert D0.degree() == 0 and D0.is_principal()


def test_divisor_principality_detects_relations():
    # D = (P) + (-P) - 2(inf) sums to the identity, hence principal.
    E = rational_model()
    P = E.point(0, 1)
    D = of_point(P) + of_point(-P) - of_point(E.infinity, 2)
    assert D.degree() == 0
    assert D.is_principal()
