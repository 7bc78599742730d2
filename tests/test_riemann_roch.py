import random
from fractions import Fraction

import pytest

from atiyahlab.curve import Divisor, WeierstrassCurve
from atiyahlab.fields import QQ, make_extension_field
from atiyahlab.funcfield import FuncElem
from atiyahlab.riemann_roch import expected_rr_dim, monomial_basis, rr_basis
from oracles import of_point


def rational_model():
    return WeierstrassCurve(QQ, 0, 0, 0, -1, 1)


def test_monomial_basis_pole_orders():
    E = rational_model()
    basis = monomial_basis(E, 7)
    assert len(basis) == 7          # orders 0, 2, 3, 4, 5, 6, 7
    orders = [-f.valuation_at(E.infinity) for f in basis]
    assert orders == [0, 2, 3, 4, 5, 6, 7]


def test_trivial_and_small_spaces():
    E = rational_model()
    inf = of_point(E.infinity)
    zero_div = Divisor(E)
    space0 = rr_basis(E, zero_div)
    space0.verify()
    assert space0.dim == 1
    assert space0.basis[0] == FuncElem.one(E)
    s1 = rr_basis(E, inf)
    s1.verify()
    assert s1.dim == 1                          # L(1*inf) = constants (genus 1)
    s3 = rr_basis(E, inf * 3)
    s3.verify()
    assert s3.dim == 3                          # {1, x, y}
    x = FuncElem.x_function(E)
    y = FuncElem.y_function(E)
    assert s3.basis == (FuncElem.one(E), x, y)


def test_negative_and_degree_zero_divisors():
    E = rational_model()
    P = E.point(0, 1)
    Q = E.point(1, 1)
    # negative degree: empty space
    negative = rr_basis(E, of_point(P, -1))
    negative.verify()
    assert negative.dim == 0
    # degree 0, non-principal: (P) - (Q) with P - Q != identity
    D = of_point(P) - of_point(Q)
    assert expected_rr_dim(D) == 0
    nonprincipal = rr_basis(E, D)
    nonprincipal.verify()
    assert nonprincipal.dim == 0
    # degree 0, principal: (P) + (-P) - 2(inf) = div(x - x_P)
    Dp = of_point(P) + of_point(-P) - of_point(E.infinity, 2)
    sp = rr_basis(E, Dp)
    sp.verify()
    assert sp.dim == 1
    g = sp.basis[0]
    # the generator's divisor must be exactly -Dp
    assert g.valuation_at(P) == -1
    assert g.valuation_at(-P) == -1
    assert g.valuation_at(E.infinity) == 2


def test_dimension_matches_degree_for_positive_divisors():
    E = rational_model()
    P = E.point(0, 1)
    Q = E.point(1, 1)
    for D in [of_point(P, 2),
              of_point(P) + of_point(Q),
              of_point(E.infinity, 5) - of_point(P, 2),
              of_point(Q, 4) - of_point(P)]:
        if D.degree() > 0:
            space = rr_basis(E, D)
            assert space.dim == D.degree()
            space.verify()


def test_poles_confined_to_divisor_support():
    E = rational_model()
    P = E.point(0, 1)
    D = of_point(P, 3)
    space = rr_basis(E, D)
    space.verify()
    assert space.dim == 3
    # each basis function has poles only at P, of order <= 3, and is regular
    # at a point off the support
    Q = E.point(1, 1)
    for f in space.basis:
        assert f.valuation_at(P) >= -3
        f.evaluate(Q)
        assert f.valuation_at(E.infinity) >= 0


@pytest.mark.parametrize("field_key", ["QQ", "F9", "F25"])
def test_random_divisors_fully_verified(field_key):
    # ~30 random divisors per field, mixing signs, fully re-verified.
    if field_key == "QQ":
        E = WeierstrassCurve(QQ, 0, 0, 0, -1, 1)
        pool = [E.point(0, 1), E.point(1, 1), E.point(-1, 1), E.point(3, 5),
                E.point(0, -1), E.point(1, -1), E.point(5, -11)]
    elif field_key == "F9":
        E = WeierstrassCurve(make_extension_field(3, 2), 0, 0, 0, -1, 1)
        pool = E.points()[1:]
    else:
        E = WeierstrassCurve(make_extension_field(5, 2), 0, 0, 0, -1, 1)
        pool = E.points()[1:13]
    rng = random.Random(len(field_key))
    for _ in range(30):
        D = Divisor(E)
        for _ in range(rng.randrange(1, 4)):
            P = pool[rng.randrange(len(pool))]
            D = D + of_point(P, rng.randrange(-2, 4))
        deg = D.degree()
        space = rr_basis(E, D)
        if deg < 0:
            assert space.dim == 0
        elif deg == 0:
            assert space.dim == (1 if D.is_principal() else 0)
        else:
            assert space.dim == deg
        space.verify()


def test_rr_basis_on_reduced_curve():
    from atiyahlab.curve import reduce_curve_mod_p
    E3 = reduce_curve_mod_p(rational_model(), 3)
    T = E3.point(2, 1)
    q = E3.point(0, 1)
    D = of_point(E3.infinity) + of_point(T)
    space = rr_basis(E3, D)
    assert space.dim == 2
    space.verify()
    # the marked-fiber ambient space L((inf) + (q)) also has dimension 2
    Dq = of_point(E3.infinity) + of_point(q)
    space_q = rr_basis(E3, Dq)
    space_q.verify()
    assert space_q.dim == 2
