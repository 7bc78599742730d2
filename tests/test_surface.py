import functools
import gc
import hashlib
import json
import subprocess
import sys
import weakref
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atiyahlab import surface
from atiyahlab.curve import Divisor, WeierstrassCurve
from atiyahlab.errors import VerificationError
from atiyahlab.fat_points import FatPoint, _combine, _point_jet_rows
from atiyahlab.fields import QQ, FieldElem, FiniteField, make_extension_field
from atiyahlab.funcfield import FuncElem
from atiyahlab.linalg import Matrix, canonical_basis, rank_and_kernel
from atiyahlab.surface import (SectionSpace, SectionVector, build_cocycle,
                               make_surface)
from atiyahlab.riemann_roch import rr_basis
from oracles import (coboundary_cokernel_dim, dot, is_coboundary_jet,
                     section_vector, sym_transition, system_rows)


def test_cocycle_order_and_poles(rational_surface):
    c = rational_surface.cocycle
    assert c.certificate == {"denominator": "1 + 1*x", "minus_T": "regular",
                             "pole_inf": 1, "pole_T": 1}
    # the room outside the coboundaries stays one-dimensional as the allowed
    # pole order grows, and g fills it at every order
    assert {k: coboundary_cokernel_dim(c, k) for k in (1, 2, 3)} == {1: 1, 2: 1, 3: 1}
    assert not any(is_coboundary_jet(c, c.g, k) for k in (1, 2, 3))


def test_cocycle_closed_form_rational(rational_curve):
    # with T = -q = (0, -1) the normalized gluing function is (y - 1)/x
    E = rational_curve
    c = build_cocycle(E, E.point(0, -1))
    x = FuncElem.x_function(E)
    y = FuncElem.y_function(E)
    assert c.g == (y - FuncElem.one(E)) / x
    # leading coefficient at infinity is normalized to one
    s = c.g.expand(E.infinity, 4)
    assert s.valuation() == -1
    assert s.coefficient(-1) == 1


def test_cocycle_is_not_a_coboundary(rational_surface):
    c = rational_surface.cocycle
    E, T = c.curve, c.T
    assert not is_coboundary_jet(c, c.g)
    # elements of L(k inf) and L(k T) individually are coboundaries, each
    # tested at k its own pole order: x at k = 2, which k = 1 cannot hold
    x = FuncElem.x_function(E)
    assert is_coboundary_jet(c, x)
    with pytest.raises(ValueError):
        is_coboundary_jet(c, x, 1)
    assert is_coboundary_jet(c, FuncElem.zero(E))
    assert is_coboundary_jet(c, FuncElem.constant(E, Fraction(5)))
    L2T = rr_basis(E, Divisor(E, {T: 2})).basis
    L3T = rr_basis(E, Divisor(E, {T: 3})).basis
    assert all(f.valuation_at(T) < -1 for f in L2T + L3T)
    for f in L2T + L3T:
        assert is_coboundary_jet(c, f)
        assert is_coboundary_jet(c, f + x)
    # a coboundary added to g leaves it outside the coboundaries
    assert not is_coboundary_jet(c, c.g + L2T[0])
    assert not is_coboundary_jet(c, c.g + L3T[1] - x)


def test_build_cocycle_builds_one_space_and_no_rank(monkeypatch):
    E = WeierstrassCurve(QQ, 0, 0, 0, -1, 1)
    T = E.point(-1, 1)
    built = []
    real_rr_basis = surface.rr_basis

    def counting(curve, D):
        built.append(D)
        return real_rr_basis(curve, D)

    def no_rank(mat):
        raise AssertionError("build_cocycle computed a rank")

    monkeypatch.setattr(surface, "rr_basis", counting)
    monkeypatch.setattr(surface, "rank", no_rank)
    c = build_cocycle(E, T)
    assert built == [Divisor(E, {E.infinity: 1, T: 1})]
    assert c.certificate["pole_inf"] == c.certificate["pole_T"] == 1


def test_build_cocycle_rejects_bad_candidates(monkeypatch, rational_curve):
    # each candidate breaks one condition of the pole argument; the check
    # runs on g itself, so the candidate stands in for the one-pole function
    E = rational_curve
    T = E.point(-1, 1)
    x = FuncElem.x_function(E)
    g = surface._one_pole_function(E, T)
    double_T = rr_basis(E, Divisor(E, {T: 2})).basis[0]
    candidates = [
        # no pole at T
        (x, "pole orders 2 at inf and 0 at T"),
        # a double pole at T, from L(2 T)
        (double_T, r"pole where 1 \+ 2\*x \+ 1\*x\^2 vanishes"),
        # a pole at the other affine point (1, 1)
        (g + (x - 1).inverse(), r"pole where -1 \+ 1\*x\^2 vanishes"),
        # the denominator x - x_T, but a pole at -T as well as at T
        (g + (x + 1).inverse(), r"pole at \(-1, -1\)"),
        # a double pole at inf
        (g + x, "pole orders 2 at inf and 1 at T"),
    ]
    for cand, message in candidates:
        monkeypatch.setattr(surface, "_one_pole_function",
                            lambda curve, P, cand=cand: cand)
        with pytest.raises(VerificationError, match=message):
            build_cocycle(E, T)


def test_build_cocycle_at_two_torsion(monkeypatch):
    # on y^2 = x^3 - x the point T = (0, 0) is 2-torsion: x - x_T has a
    # double zero at T, so only valuation_at(T) tells a simple pole (y/x)
    # from a double one (1/x + y/x), and -T = T needs no separate check
    E = WeierstrassCurve(QQ, 0, 0, 0, -1, 0)
    T = E.point(0, 0)
    c = build_cocycle(E, T)
    x, y = FuncElem.x_function(E), FuncElem.y_function(E)
    assert c.g == y / x
    assert c.certificate == {"denominator": "1*x", "minus_T": "is T",
                             "pole_inf": 1, "pole_T": 1}
    assert not any(is_coboundary_jet(c, c.g, k) for k in (1, 2, 3))
    monkeypatch.setattr(surface, "_one_pole_function",
                        lambda curve, P: (FuncElem.one(E) + y) / x)
    with pytest.raises(VerificationError, match="1 at inf and 2 at T"):
        build_cocycle(E, T)


def test_make_surface_guards(rational_curve):
    E = rational_curve
    q = E.point(0, 1)
    with pytest.raises(ValueError):
        make_surface(E, E.infinity)
    with pytest.raises(ValueError):
        make_surface(E, q, T=q)                     # q must avoid T
    surf = make_surface(E, q)
    assert surf.T == -q                             # default T


@pytest.mark.parametrize("make_field", [lambda: QQ, lambda: FiniteField(3, 2)],
                         ids=["QQ", "F9"])
def test_dropped_surface_frees_its_curve_and_field(make_field):
    # no reference cycle holds a fresh surface: with the cyclic collector
    # off, dropping the last reference frees the surface, its curve and
    # charts, and a field built for it (QQ is the module's own)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        field = make_field()
        E = WeierstrassCurve(field, 0, 0, 0, -1, 1)
        surf = make_surface(E, E.point(0, 1), T=E.point(-1, 1))
        assert E._expansion_cache
        refs = [weakref.ref(obj) for obj in (surf, E, field) if obj is not QQ]
        del surf, E, field
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        if was_enabled:
            gc.enable()


def test_make_surface_two_torsion_fallback():
    # on y^2 + xy = x^3 + 1 over F_4 the point (0,1) is 2-torsion, so
    # T = -q collides with q and the builder falls back to enumeration
    F4 = make_extension_field(2, 2)
    E = WeierstrassCurve(F4, 1, 0, 0, 0, 1)
    q = E.point(0, 1)
    assert -q == q
    surf = make_surface(E, q)
    assert surf.T != q and not surf.T.is_infinity


def test_two_torsion_fallback_in_large_char2_field():
    # over F_{2^24} first_point makes one root solve per candidate x on the
    # poly gear, each a power z^q and up to k = 24 trace splitters mod the
    # quadratic.  Run in a child so that a regression fails at the budget,
    # not never.
    script = """
from atiyahlab import WeierstrassCurve, make_extension_field, make_surface
F = make_extension_field(2, 24)
E = WeierstrassCurve(F, 1, 0, 0, 0, 1)
surf = make_surface(E, E.point(0, 1))
print(surf.h0(2, twisted=False).dim, surf.h0(2, twisted=True).dim)
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2", "3"]


def test_rigid_line_bundle_dimensions(rational_surface):
    # h^0 of n-fold multiples of the infinity section: all one-dimensional
    # in characteristic zero, with the basis concentrated in the w^0 slot.
    for n in range(5):
        space = rational_surface.h0(n, twisted=False)
        assert space.dim == 1
        s = space.sections[0]
        assert not s.components[0].is_zero()
        assert all(c.is_zero() for c in s.components[1:])


def test_twisted_dimensions_level_plus_one(rational_surface):
    for level in range(5):
        assert rational_surface.h0(level, twisted=True).dim == level + 1


def test_char_p_multiple_section_pattern(f9_surface, f4_surface):
    # in characteristic p the dimension jumps at multiples of p
    dims9 = [f9_surface.h0(n, twisted=False).dim for n in range(7)]
    assert dims9 == [1, 1, 1, 2, 2, 2, 3]
    dims4 = [f4_surface.h0(n, twisted=False).dim for n in range(5)]
    assert dims4 == [1, 1, 2, 2, 3]


def test_twisted_dimensions_char_p(f9_surface, f4_surface):
    for surf in (f9_surface, f4_surface):
        for level in range(5):
            assert surf.h0(level, twisted=True).dim == level + 1


def _fresh_rational_surface():
    E = WeierstrassCurve(QQ, 0, 0, 0, -1, 1)
    return make_surface(E, E.point(0, 1), T=E.point(-1, 1))


def test_fresh_h0_solves_once_without_rank(monkeypatch):
    # one build per level, for both spaces, with no rank: the one
    # elimination besides canonical_basis is rank_and_kernel on the h
    # entries of the twisted basis, whose kernel gives the plain space
    surf = _fresh_rational_surface()
    calls = []

    def counting(name, fn):
        def wrapper(mat):
            calls.append(name)
            return fn(mat)
        return wrapper

    for name in ("rank", "rank_and_kernel"):
        monkeypatch.setattr(surface, name, counting(name, getattr(surface, name)))
    for level, twisted in [(0, False), (2, False), (3, True), (4, True)]:
        calls.clear()
        surf.h0(level, twisted)
        assert calls == ["rank_and_kernel"]
        calls.clear()
        surf.h0(level, twisted)
        surf.h0(level, not twisted)
        assert calls == []


def test_dependent_built_sections_raise_and_cache_nothing(monkeypatch):
    # the lower bound needs level + 1 independent sections: a built set with
    # a repeated vector spans too little, and either request raises before
    # anything is cached
    surf = _fresh_rational_surface()
    original = surface.AtiyahSurface._appell

    def repeated(self, level):
        vectors = original(self, level)
        return vectors[:-1] + [dict(vectors[0])]

    monkeypatch.setattr(surface.AtiyahSurface, "_appell", repeated)
    for twisted in (True, False):
        with pytest.raises(VerificationError, match="linearly dependent"):
            surf.h0(2, twisted)
        assert not surf._h0
    monkeypatch.undo()
    assert surf.h0(2, twisted=True).dim == 3


def test_sym_transition_matches_transformed(rational_surface):
    surf = rational_surface
    space = surf.h0(2, twisted=True)
    mat = sym_transition(surf.cocycle, 2)
    # upper triangular with unit diagonal
    for j in range(3):
        assert mat[j][j] == FuncElem.one(surf.curve)
        for a in range(j):
            assert mat[j][a].is_zero()
    for s in space.sections:
        ts = s.transformed()
        for j in range(3):
            direct = FuncElem.zero(surf.curve)
            for a in range(3):
                if not mat[j][a].is_zero() and not s.components[a].is_zero():
                    direct = direct + mat[j][a] * s.components[a]
            assert direct == ts[j]


def test_transformed_components_regular_at_infinity(rational_surface):
    space = rational_surface.h0(3, twisted=True)
    inf = rational_surface.curve.infinity
    for s in space.sections:
        for t in s.transformed():
            if not t.is_zero():
                assert t.valuation_at(inf) >= 0


def test_validate_rejects_corrupted_section(rational_surface):
    surf = rational_surface
    x = FuncElem.x_function(surf.curve)
    # untwisted sections may not touch the marked fiber point q = (0, 1),
    # but 1/x has a simple pole there
    plain = surf.h0(2, twisted=False).sections[0]
    bad = SectionVector(surf, 2, False,
                        [plain.components[0] + x.inverse(),
                         plain.components[1], plain.components[2]])
    with pytest.raises(VerificationError):
        bad.validate()
    # a pole at infinity in the chart-1 components must also be caught:
    # adding x to the top slot leaves t_2 = s_2 + x with a double pole there
    good = surf.h0(2, twisted=True).sections[0]
    bad2 = SectionVector(surf, 2, True,
                         [good.components[0], good.components[1],
                          good.components[2] + x])
    with pytest.raises(VerificationError):
        bad2.validate()


def _transformed_pole(section):
    """The check at infinity that validate replaced: gcd-reduced FuncElem
    sums t_j, each expanded at infinity.  Returns the message validate must
    raise, or None when every t_j is regular there."""
    inf = section.surface.curve.infinity
    for j, t in enumerate(section.transformed()):
        if not t.is_zero():
            v = t.expand(inf, 4).valuation()
            if v < 0:
                return f"transformed component {j} has a pole of order {-v} at infinity"
    return None


@pytest.fixture(scope="module", params=["QQ", "F9", "F256"])
def ordinary_surface(request):
    # y^2 + xy = x^3 + 1 in characteristics 0, 3 and 2
    field = {"QQ": QQ, "F9": make_extension_field(3, 2),
             "F256": make_extension_field(2, 8)}[request.param]
    E = WeierstrassCurve(field, 1, 0, 0, 0, 1)
    return make_surface(E, E.point(0, 1))


def test_validate_agrees_with_transformed_oracle(ordinary_surface):
    # perturb real h0 sections by x^k and y x^k in the slots 0, 1 and 3 (one
    # slot at a time), and by x^k and y x^k times another basis section (all
    # slots at once); validate must reject exactly the perturbed sections in
    # which the old oracle finds a pole at infinity, with the same message
    surf = ordinary_surface
    E = surf.curve
    x, y, one = FuncElem.x_function(E), FuncElem.y_function(E), FuncElem.one(E)
    monomials = [one, x, x * x, y, x * y]
    verdicts = []
    for twisted in (False, True):
        basis = surf.h0(3, twisted).sections
        for n, sec in enumerate(basis):
            other = basis[(n + 1) % len(basis)]
            comps = list(sec.components)
            perturbed = []
            for m in monomials:
                for slot in (0, 1, 3):
                    bumped = list(comps)
                    bumped[slot] = bumped[slot] + m
                    perturbed.append(bumped)
                perturbed.append([s + m * o for s, o in zip(comps, other.components)])
            for bumped in perturbed:
                bad = SectionVector(surf, 3, twisted, bumped)
                expected = _transformed_pole(bad)
                verdicts.append(expected is not None)
                if expected is None:
                    bad.validate()
                else:
                    with pytest.raises(VerificationError) as err:
                        bad.validate()
                    assert str(err.value) == expected
    assert any(verdicts) and not all(verdicts)


def test_validate_rejects_affine_poles(rational_surface, ordinary_surface):
    # 1/(x - c) is regular at infinity, so at level 2 only the affine check
    # can see it: 1/(x - 1) added to s_0 of the plain section on the test
    # surface, and 1/(x - c) added to any slot of any section of either
    # twist; for c = x(q) on a twisted section the pole at q is allowed, but
    # 1/(x - x_q) also has a pole at -q (or a double pole at q when -q = q)
    x = FuncElem.x_function(rational_surface.curve)
    plain = rational_surface.h0(2, twisted=False).sections[0]
    bad = SectionVector(rational_surface, 2, False,
                        [plain.components[0] + (x - 1).inverse(),
                         plain.components[1], plain.components[2]])
    with pytest.raises(VerificationError, match=r"pole where -1 \+ 1\*x vanishes"):
        bad.validate()
    surf = ordinary_surface
    field = surf.field
    x, x_q = FuncElem.x_function(surf.curve), surf.q.x.raw
    cs = ([Fraction(v) for v in ("0", "1", "2", "-5/3")] if field is QQ
          else [field.from_packed(v) for v in range(4)])
    assert x_q in cs
    for twisted in (False, True):
        for sec in surf.h0(2, twisted).sections:
            sec.validate()
            for c in cs:
                pole = (x - FieldElem(field, c)).inverse()
                for slot in range(3):
                    comps = list(sec.components)
                    comps[slot] = comps[slot] + pole
                    with pytest.raises(VerificationError):
                        SectionVector(surf, 2, twisted, comps).validate()
    # the twisted bases do carry the allowed denominator x - x_q
    assert any(s.d == [field.neg(x_q), field.one]
               for sec in surf.h0(2, True).sections for s in sec.components)


def test_closed_form_valuation_at_infinity(ordinary_surface):
    # validate reads v_inf of each component off its degrees; on every
    # component of every basis up to level 8 it is the expanded valuation
    surf = ordinary_surface
    inf = surf.curve.infinity
    comps = [c for level in range(1, 9) for twisted in (False, True)
             for sec in surf.h0(level, twisted).sections
             for c in sec.components if c]
    assert any(c.b for c in comps) and any(not c.a for c in comps)
    for c in comps:
        assert surface._valuation_at_inf(c) == c.valuation_at(inf), c


def test_validate_at_a_truncating_level_agrees_with_transformed_oracle(
        rational_surface):
    # at twisted level 12 the Horner loop cuts every coefficient at horizon
    # a after folding slot a; x^k and y x^k added to a high slot of a basis
    # section (or a basis section added to it) must still give exactly the
    # verdict and message of the transformed sums
    surf = rational_surface
    E = surf.curve
    x, y = FuncElem.x_function(E), FuncElem.y_function(E)
    monomials = [FuncElem.one(E), x, y, x * x, x * y]
    basis = surf.h0(12, twisted=True).sections
    verdicts = []
    for n in (3, 9, 12):
        comps = basis[n].components
        perturbed = [[c + m if a == slot else c for a, c in enumerate(comps)]
                     for m in monomials for slot in (10, 12)]
        perturbed.append([c + o for c, o in zip(comps, basis[n - 1].components)])
        for bumped in perturbed:
            bad = SectionVector(surf, 12, True, bumped)
            expected = _transformed_pole(bad)
            verdicts.append(expected is not None)
            if expected is None:
                bad.validate()
            else:
                with pytest.raises(VerificationError) as err:
                    bad.validate()
                assert str(err.value) == expected
    assert any(verdicts) and not all(verdicts)


def _counting_validate(monkeypatch):
    """Patch SectionVector.validate to record the sections it checks, each
    at t_0 alone, as h0 asks."""
    checked, real = [], SectionVector.validate

    def counting(section, *args, **kwargs):
        assert (args, kwargs) == ((), {"upto": 0})
        checked.append(section)
        real(section, *args, **kwargs)

    monkeypatch.setattr(SectionVector, "validate", counting)
    return checked


def test_nested_twisted_sections_are_validated_once(monkeypatch):
    # a twisted ladder 1..8 meets 2 + 3 + ... + 9 = 44 sections, but
    # section i of each level is section i of the level below, padded: only
    # the 9 distinct sections are validated, each once; the plain bases the
    # same solves fill are validated in full, each once
    checked = _counting_validate(monkeypatch)
    E = WeierstrassCurve(QQ, 0, 0, 0, -1, 1)
    surf = make_surface(E, E.point(0, 1), T=E.point(-1, 1))
    for level in range(1, 9):
        surf.h0(level, twisted=True)
    top = surf.h0(8, twisted=True).sections
    twisted = [sec for sec in checked if sec.twisted]
    assert len(twisted) == 9
    assert all(top[i].components[:sec.level + 1] == sec.components
               for i, sec in enumerate(twisted))
    plain = [sec for level in range(1, 9)
             for sec in surf.h0(level, twisted=False).sections]
    assert [sec for sec in checked if not sec.twisted] == plain
    checked.clear()
    surf.h0(4, twisted=False)
    assert checked == []


def test_a_changed_cached_section_is_validated_again(monkeypatch):
    # the skip reads the cache of the highest twisted level below: a
    # cached section that differs from the new section i (here scaled by
    # 2) sends section i through validate, and so does one equal to the
    # new section's first slots when the new one is nonzero above them;
    # the equal ones are skipped
    checked = _counting_validate(monkeypatch)
    E = WeierstrassCurve(QQ, 0, 0, 0, -1, 1)
    surf = make_surface(E, E.point(0, 1), T=E.point(-1, 1))
    low = surf.h0(3, twisted=True)
    two = FieldElem(QQ, 2)
    planted = list(low.sections)
    planted[1] = SectionVector(surf, 3, True, [c * two for c in planted[1].components])
    planted.append(SectionVector(surf, 3, True, surf._solve(4)[0][4].components[:4]))
    surf._h0[3, True] = SectionSpace(3, True, planted, low.diagnostics)
    checked.clear()
    new = surf.h0(4, twisted=True).sections
    assert checked == [new[1], new[4], *surf.h0(4, twisted=False).sections]


def test_section_products_and_padding(rational_surface):
    surf = rational_surface
    tw = surf.h0(1, twisted=True).sections[0]
    un = surf.h0(2, twisted=False).sections[0]
    prod = tw * un
    assert prod.level == 3 and prod.twisted
    prod.validate()
    with pytest.raises(ValueError):
        _ = tw * tw                 # twisted x twisted leaves the family
    padded = tw.padded_to(4)
    assert padded.level == 4
    padded.validate()
    assert padded.components[:2] == tw.components
    assert all(c.is_zero() for c in padded.components[2:])
    with pytest.raises(ValueError):
        tw.padded_to(0)


def test_section_value_and_scale(rational_surface):
    # the jets are linear: a combination of sections takes the same
    # combination of their jet rows, the value (the (0, 0) jet) first
    surf = rational_surface
    space = surf.h0(2, twisted=True)
    sections = space.sections
    vec = [Fraction(3), Fraction(-2, 5)] + [0] * (len(sections) - 3) + [7]
    fp = FatPoint(surf.curve.point(3, 5), Fraction(2), 3)
    combined = SectionSpace(2, True, [_combine(sections, vec)], {})
    want = [[sum(c * r for c, r in zip(vec, row))]
            for row in _point_jet_rows(surf, space, fp)]
    assert _point_jet_rows(surf, combined, fp) == want
    assert any(row != [0] for row in want)


def test_space_serialization(rational_surface):
    space = rational_surface.h0(1, twisted=True)
    data = space.serialize()
    assert data["dim"] == 2
    assert data["level"] == 1 and data["twisted"] is True
    assert len(data["sections"]) == 2
    assert all(len(s["components"]) == 2 for s in data["sections"])
    assert data["diagnostics"]["stable"] is True


def test_h0_caching(rational_surface):
    a = rational_surface.h0(2, twisted=True)
    b = rational_surface.h0(2, twisted=True)
    assert a is b
    with pytest.raises(ValueError):
        rational_surface.h0(-1, twisted=False)


def test_cocycle_certificate_on_other_fields(f9_surface, f4_surface, f3_surface,
                                            f256_surface):
    for surf in (f9_surface, f4_surface, f3_surface, f256_surface):
        c = surf.cocycle
        assert c.certificate["pole_inf"] == c.certificate["pole_T"] == 1
        assert c.certificate["minus_T"] == ("regular" if -c.T != c.T else "is T")
        assert ({k: coboundary_cokernel_dim(c, k) for k in (1, 2, 3)}
                == {1: 1, 2: 1, 3: 1})
        assert not any(is_coboundary_jet(c, c.g, k) for k in (1, 2, 3))


# sha256 over json.dumps(h0(level, twisted).serialize(), sort_keys=True) for
# level = 0..top and twisted = False, True in that order.  Unless given, the
# curve is E: y^2 = x^3 - x + 1 with q = (0, 1), T = (-1, 1).  The canonical
# kernel basis (one vector per free column) makes the serialized bases a
# function of the section spaces and the column order alone, so any solver
# that states the same conditions must reproduce these digests.
_PIN_CURVE = ((0, 0, 0, -1, 1), (0, 1), (-1, 1))
PINNED_BASES = {
    "QQ": (0, 1, 8, "140bafcbc7d4ab5dbc950aa2d97b881b20e4f9e93ed8be0e9444261c5188f3ac"),
    "F1000003": (1000003, 1, 5,
                 "563b329b7685965cef483afe806ac148b0ae28f5ea84992a7d729aa53f1fb7c5"),
    "F3^13": (3, 13, 5, "e062870b9f3c7384139d12a1b0adecfa57443bfc0f0c27845be7ed2ad8edf5d3"),
    # the table gear; the curve and points lie over F_3, so the bases pack
    # to the same integers as over F_3^13
    "F9": (3, 2, 5, "e062870b9f3c7384139d12a1b0adecfa57443bfc0f0c27845be7ed2ad8edf5d3"),
    "F9-ext": (3, 2, 8, "a8b6d1108beec7d75c03dc98f55f8df60aa9378035920ddd4544b4d62ef6b99c"),
    "QQ-12": (0, 1, 12, "67ee038688909711ef04a873adc9f052037d655ac76b229c9650ec8b5c2887a6"),
    "F256-2torsion": (2, 8, 8,
                      "d799a68f002d063bf5fceaa8a9a1b26e50b469c64af6f91410865b974d42b87e"),
}
# every affine point of y^2 = x^3 - x + 1 over F_9 has x in F_3, so the
# extension arithmetic is pinned on y^2 = x^3 + x + 1 with q = (z, 1) and
# T = (z + 2, z), z the generator of F_9 over F_3 (coefficient list [0, 1])
# characteristic 2 is pinned on y^2 + xy = x^3 + 1 with the 2-torsion point
# q = (0, 1), where T is left to make_surface's fallback (T None)
PIN_CURVES = {"F9-ext": ((0, 0, 0, 1, 1), ([0, 1], 1), ([2, 1], [0, 1])),
              "F256-2torsion": ((1, 0, 0, 0, 1), (0, 1), None)}


@pytest.mark.parametrize("name", list(PINNED_BASES))
def test_pinned_section_bases(name):
    p, k, top, digest = PINNED_BASES[name]
    coeffs, q, T = PIN_CURVES.get(name, _PIN_CURVE)
    field = QQ if p == 0 else make_extension_field(p, k)
    E = WeierstrassCurve(field, *coeffs)
    surf = make_surface(E, E.point(*q), T=E.point(*T) if T else None)
    h = hashlib.sha256()
    for level in range(top + 1):
        for twisted in (False, True):
            data = surf.h0(level, twisted).serialize()
            h.update(json.dumps(data, sort_keys=True).encode())
    assert h.hexdigest() == digest


def _structured_and_dense(surf, level):
    """The canonical basis of the built sections tau_0..tau_level, and
    rank_and_kernel's kernel of the dense twisted system_rows at margin 4,
    restricted to the builder's columns after checking that it is 0 on
    every column past them and that the vectors of the twisted sections
    _solve returns are that kernel."""
    field = surf.field
    columns, _, rows, _, _ = system_rows(surf, level, True, 4)
    n = len(columns)
    dense = rank_and_kernel(Matrix(field, [[row.get(c, field.zero)
                                            for c in range(n)] for row in rows],
                                   n))[1]
    assert [section_vector(sec, columns)
            for sec in surf._solve(level)[0]] == dense
    keep = [idx for idx, (a, m) in enumerate(columns) if m <= level - a]
    assert [columns[idx] for idx in keep] == surf._columns(level)
    assert all(field.is_zero(v[idx]) for v in dense
               for idx in set(range(n)) - set(keep))
    return (canonical_basis(field, surf._appell(level), len(keep)),
            [[v[idx] for idx in keep] for v in dense])


@pytest.mark.parametrize("name", list(PINNED_BASES))
def test_structured_basis_equals_dense_kernel_on_pins(name):
    p, k, top, _ = PINNED_BASES[name]
    coeffs, q, T = PIN_CURVES.get(name, _PIN_CURVE)
    field = QQ if p == 0 else make_extension_field(p, k)
    E = WeierstrassCurve(field, *coeffs)
    surf = make_surface(E, E.point(*q), T=E.point(*T) if T else None)
    for level in range(top + 1):
        structured, dense = _structured_and_dense(surf, level)
        assert structured == dense, level


@functools.cache
def _small_surface(name):
    field, coeffs, q, T = {
        "QQ": (QQ, (0, 0, 0, -1, 1), (0, 1), None),
        # the surface of the shipped configs
        "QQ-shipped": (QQ, (0, 0, 0, -1, 1), (0, 1), (-1, 1)),
        # 389a1, y^2 + y = x^3 + x^2 - 2x, of rank 2
        "389a1": (QQ, (0, 1, 1, -2, 0), (1, 0), (-1, 1)),
        "F9": (make_extension_field(3, 2), (0, 0, 0, -1, 1), (0, 1), None),
        "F1000003": (make_extension_field(1000003), (0, 0, 0, -1, 1), (0, 1),
                     None),
        "F256": (make_extension_field(2, 8), (1, 0, 0, 0, 1), (0, 1), None),
    }[name]
    E = WeierstrassCurve(field, *coeffs)
    return make_surface(E, E.point(*q), T=E.point(*T) if T else None)


@pytest.mark.parametrize("name", ["QQ", "QQ-shipped", "389a1", "F9",
                                  "F1000003", "F256"])
def test_derived_plain_basis_equals_the_plain_oracle(name):
    # the plain basis read off the twisted basis as its c = 0 subspace is,
    # coefficient for coefficient, rank_and_kernel's kernel of the dense
    # plain system that system_rows assembles row by row at margin 4
    surf = _small_surface(name)
    field = surf.field
    for level in range(11):
        columns, _, rows, _, _ = system_rows(surf, level, False, 4)
        dense = Matrix(field, [[row.get(c, field.zero)
                                for c in range(len(columns))] for row in rows],
                       len(columns))
        derived = [section_vector(sec, columns)
                   for sec in surf._solve(level)[1]]
        assert derived == rank_and_kernel(dense)[1], level


@pytest.mark.parametrize("name", ["QQ", "F9", "F256"])
def test_plain_first_and_twisted_first_serialize_identically(name):
    # one solve fills both spaces of a level, so the order of the requests
    # changes no byte: a ladder of plain requests before the twisted ones,
    # and the reverse, on fresh surfaces
    def ladder(twists):
        surf = _small_surface.__wrapped__(name)
        for twisted in twists:
            for level in range(9):
                surf.h0(level, twisted)
        return [json.dumps(surf.h0(level, twisted).serialize(),
                           sort_keys=True)
                for level in range(9) for twisted in (False, True)]

    assert ladder((False, True)) == ladder((True, False))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(name=st.sampled_from(["QQ", "F9", "F1000003", "F256"]),
       level=st.integers(0, 6))
def test_structured_basis_equals_dense_kernel_small(name, level):
    # y^2 = x^3 - x + 1 with q = (0, 1), T = -q; in characteristic 2 the
    # ordinary y^2 + xy = x^3 + 1 (a1 != 0), where q is 2-torsion
    structured, dense = _structured_and_dense(_small_surface(name), level)
    assert structured == dense


@pytest.mark.parametrize("name", ["QQ", "QQ-shipped", "389a1", "F9",
                                  "F1000003", "F256"])
def test_built_sections_satisfy_the_appell_lemma(name):
    # t_j(tau_a) = C(a, j) t_0(tau_(a-j)) by the exact chart-1 sums, and
    # every tau_a passes validate, at levels past p = 3 and p = 2 too
    surf = _small_surface.__wrapped__(name)
    field, top = surf.field, 12
    columns = surf._columns(top)
    taus = [surf._section(top, columns, [vec.get(i, field.zero)
                                         for i in range(len(columns))], True)
            for vec in surf._appell(top)]
    t0 = []
    for a, tau in enumerate(taus):
        assert tau.components[a] == FuncElem.one(surf.curve), a
        assert all(c.is_zero() for c in tau.components[a + 1:]), a
        ts = tau.transformed()
        t0.append(ts[0])
        for j in range(a + 1):
            c = field.from_int(comb(a, j))
            want = (FuncElem.zero(surf.curve) if field.is_zero(c)
                    else t0[a - j] * FieldElem(field, c))
            assert ts[j] == want, (a, j)
        assert all(t.is_zero() for t in ts[a + 1:]), a
        tau.validate()


def _solve_with_a_vector_off_the_kernel(monkeypatch, twisted):
    # the top built vector moved off the kernel by h in slot 0, which keeps
    # its top slot, is a section with a pole at infinity that validate
    # rejects
    surf = _fresh_rational_surface()
    original = surface.AtiyahSurface._appell

    def corrupted(self, level):
        vectors = original(self, level)
        col = self._columns(level).index((0, 1))    # slot 0, order 1: h
        vec = dict(vectors[-1])
        vec[col] = self.field.add(vec.get(col, self.field.zero), self.field.one)
        return vectors[:-1] + [vec]

    monkeypatch.setattr(surface.AtiyahSurface, "_appell", corrupted)
    with pytest.raises(VerificationError,
                       match="transformed component 0 has a pole"):
        surf.h0(2, twisted=twisted)
    assert not surf._h0


def test_kernel_vector_off_the_kernel_fails_certification(monkeypatch):
    _solve_with_a_vector_off_the_kernel(monkeypatch, twisted=True)


def test_plain_kernel_vector_off_the_kernel_fails_certification(monkeypatch):
    # a plain request solves the same twisted system, and caches nothing
    # when a section of either space fails
    _solve_with_a_vector_off_the_kernel(monkeypatch, twisted=False)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(name=st.sampled_from(["QQ", "F9", "F1000003", "F256"]),
       level=st.integers(0, 6), twisted=st.booleans(), data=st.data())
def test_h0_rejects_exactly_the_off_kernel_vectors(name, level, twisted,
                                                   data):
    # one built vector moved by a nonzero delta on one of its columns: h0
    # must reject it, whichever space is asked for, exactly when M v != 0 on
    # the rows of the twisted system_rows, and exactly when, on a second
    # fresh surface with the same move, _solve raises or a section of
    # either space fails the full validate: the derivative certificate
    # accepts what every t_j accepts.  A move that stays in the kernel
    # gives the same space, or a dependent set
    surf = _small_surface.__wrapped__(name)     # fresh: nothing cached
    field = surf.field
    columns, _, rows, _, _ = system_rows(surf, level, True, 4)
    wide = {key: idx for idx, key in enumerate(columns)}
    delta = (field.parse(data.draw(st.fractions(-9, 9, max_denominator=4)
                                   .filter(bool))) if field is QQ else
             field.from_packed(data.draw(st.integers(1, field.q - 1))))
    original, picked, moved = surface.AtiyahSurface._appell, [], []

    def corrupted(self, level):
        vectors = original(self, level)
        narrow = self._columns(level)
        if not picked:      # the same move on every surface
            picked.extend((data.draw(st.integers(0, len(vectors) - 1)),
                           data.draw(st.integers(0, len(narrow) - 1))))
        i, col = picked
        vec = dict(vectors[i])
        vec[col] = field.add(vec.get(col, field.zero), delta)
        moved[:] = [{wide[narrow[c]]: v for c, v in vec.items()}]
        return vectors[:i] + [vec] + vectors[i + 1:]

    def full_validate():
        try:
            *bases, _ = _small_surface.__wrapped__(name)._solve(level)
            for sec in bases[0] + bases[1]:
                sec.validate()
        except VerificationError:
            return False
        return True

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(surface.AtiyahSurface, "_appell", corrupted)
        try:
            got = surf.h0(level, twisted).serialize()
        except VerificationError as exc:
            got = str(exc)
        accepted = full_validate()
    assert isinstance(got, str) != accepted, got
    (vec,) = moved
    if any(not field.is_zero(dot(field, row, vec)) for row in rows):
        assert isinstance(got, str), got
        assert not surf._h0, got
    else:
        want = _small_surface(name).h0(level, twisted).serialize()
        assert got == want or got == (
            "the built sections are linearly dependent"), got


def _hasse(section, r):
    """D^(r) of the section: slot b - r holds C(b, r) s_b, same level."""
    surf = section.surface
    field = surf.field
    comps = [s * FieldElem(field, field.from_int(comb(b, r)))
             for b, s in enumerate(section.components) if b >= r]
    return SectionVector(surf, section.level, section.twisted,
                         comps + [FuncElem.zero(surf.curve)] * r)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(name=st.sampled_from(["QQ", "F9", "F1000003", "F256"]),
       level=st.integers(1, 9), twisted=st.booleans(), data=st.data())
def test_hasse_derivatives_shift_the_transformed_components(name, level,
                                                            twisted, data):
    # the lemma behind h0's certificate, on the exact chart-1 sums:
    # t_(j-r)(D^(r) c) = C(j, r) t_j(c) for r = 1, p, p^2 <= level, where c
    # is a random combination of basis sections plus x^k or x^k y in one
    # slot, so mostly not a section; validate(upto=0) rejects c exactly
    # when t_0(c) has a pole at infinity
    surf = _small_surface(name)
    field, E = surf.field, surf.curve
    basis = surf.h0(level, twisted).sections
    ks = data.draw(st.lists(st.integers(-3, 3), min_size=len(basis),
                            max_size=len(basis)))
    comps = [sum((sec.components[b] * FieldElem(field, field.from_int(k))
                  for k, sec in zip(ks, basis)), FuncElem.zero(E))
             for b in range(level + 1)]
    x, y = FuncElem.x_function(E), FuncElem.y_function(E)
    slot = data.draw(st.integers(0, level))
    comps[slot] = comps[slot] + data.draw(st.sampled_from([x, y, x * x, x * y]))
    c = SectionVector(surf, level, twisted, comps)
    ts, p = c.transformed(), field.characteristic
    for r in sorted({1, p, p * p} - {0}):
        if r > level:
            continue
        td = _hasse(c, r).transformed()
        for j in range(r, level + 1):
            want = ts[j] * FieldElem(field, field.from_int(comb(j, r)))
            assert td[j - r] == want, (r, j)
        assert all(t.is_zero() for t in td[level - r + 1:]), r
    pole = (not ts[0].is_zero()
            and ts[0].valuation_at(E.infinity) < 0)
    if pole:
        with pytest.raises(VerificationError, match="transformed component 0"):
            c.validate(upto=0)
    else:
        c.validate(upto=0)


@pytest.mark.parametrize("name", ["QQ", "QQ-shipped", "389a1", "F9",
                                  "F1000003", "F256"])
def test_sections_are_built_reduced(name):
    # _section takes no gcd: reducing any slot of h0(0..12) again changes no
    # coefficient, nor, over Q, the int type of any
    surf = _small_surface(name)
    for level in range(13):
        for twisted in (True, False):
            for sec in surf.h0(level, twisted).sections:
                for s in sec.components:
                    again = FuncElem(surf.curve, s.a, s.b, s.d, reduce=True)
                    assert again == s, (level, twisted)
                    assert ([type(e) for e in again.a + again.b + again.d]
                            == [type(e) for e in s.a + s.b + s.d])


@pytest.mark.parametrize("name, r", [("QQ", 1), ("F1000003", 1), ("F9", 3),
                                     ("F256", 2)])
def test_h0_rejects_a_regular_t0_by_its_derivative(name, r):
    # e = (s_0, 0, .., 0, h) with h in slot r (p, or 1 when p > level) and
    # s_0 in L((r + 1) inf + q) cancelling the polar part of h g^r: t_0(e)
    # is regular and t_r(e) = h is not.  Added to the top built vector, it
    # passes validate(upto=0); D^(r'), r' < r, kills it (C(r, r') = 0 mod
    # p), and the span check of D^(r) rejects it.  At level r + 2, e misses
    # the own column, (0, level), of the top vector
    surf = _small_surface.__wrapped__(name)
    field, E, inf = surf.field, surf.curve, surf.curve.infinity
    x, y, h = (FuncElem.x_function(E), FuncElem.y_function(E),
               surf.one_pole_function)
    by_order = {1: h, 2: x, 3: y, 4: x * x}
    level, s0, coeffs = r + 2, FuncElem.zero(E), {}
    polar = h * surf.cocycle.g ** r
    while not (polar + s0).is_zero() and (polar + s0).valuation_at(inf) < 0:
        m = -(polar + s0).valuation_at(inf)
        lead = field.div((polar + s0).expand(inf, 1).coefficient(-m),
                         by_order[m].expand(inf, 1).coefficient(-m))
        coeffs[m] = field.sub(coeffs.get(m, field.zero), lead)
        s0 = s0 - by_order[m] * FieldElem(field, lead)
    e = {(0, m): c for m, c in coeffs.items()}
    e[r, 1] = field.one
    original = surface.AtiyahSurface._appell

    def corrupted(self, level):
        vectors = original(self, level)
        columns, top = self._columns(level), dict(vectors[-1])
        for key, c in e.items():
            idx = columns.index(key)
            top[idx] = field.add(top.get(idx, field.zero), c)
        return vectors[:-1] + [top]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(surface.AtiyahSurface, "_appell", corrupted)
        sections = surf._solve(level)[0]
        sections[-1].validate(upto=0)
        with pytest.raises(VerificationError,
                           match=f"transformed component {r} has a pole"):
            sections[-1].validate()
        for twisted in (True, False):
            with pytest.raises(VerificationError,
                               match=rf"D\^\({r}\) of a basis section"):
                surf.h0(level, twisted)
            assert not surf._h0
