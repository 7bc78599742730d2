"""Acceptance suite: one test per criterion, timed, with a summary line each.

Every check uses exact arithmetic, so equality assertions are exact; each
criterion also carries a wall-clock budget and fails when it runs over.
"""

import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

import conftest
from atiyahlab.curve import Divisor, WeierstrassCurve, certify_non_torsion
from atiyahlab.fat_points import (
    FatPoint,
    char_p_witness,
    fat_system,
    h0_fat,
    jet_matrix,
    min_level,
    multiplicity_step_check,
    sample_fat_point,
    verify_jets,
)
from atiyahlab.fields import QQ, make_extension_field
from atiyahlab.linalg import rank_naive
from atiyahlab.riemann_roch import rr_basis
from atiyahlab.surface import make_surface
from oracles import of_point, translate_marked_fiber


@contextmanager
def criterion(num, name, limit_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        conftest.ACCEPTANCE_LINES.append(
            f"criterion {num:2d}  FAIL  {name}  ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    if limit_s is not None and elapsed >= limit_s:
        conftest.ACCEPTANCE_LINES.append(
            f"criterion {num:2d}  FAIL  {name}  "
            f"(runtime {elapsed:.2f}s over the {limit_s:.0f}s budget)")
        pytest.fail(f"criterion {num} ran {elapsed:.2f}s, budget {limit_s}s")
    budget = "" if limit_s is None else f", budget {limit_s:.0f}s"
    conftest.ACCEPTANCE_LINES.append(
        f"criterion {num:2d}  PASS  {name}  ({elapsed:.2f}s{budget})")


def _random_divisor(E, pool, rng, want_deg):
    D = Divisor(E)
    for _ in range(rng.randrange(1, 4)):
        P = pool[rng.randrange(len(pool))]
        D = D + of_point(P, rng.randrange(-2, 4))
    return D + of_point(E.infinity, want_deg - D.degree())


def test_01_riemann_roch_dimensions():
    with criterion(1, "Riemann-Roch dimensions on random divisors", 30):
        EQ = WeierstrassCurve(QQ, 0, 0, 1, -1, 0)     # many integral points
        poolQ = [EQ.point(x, y) for x, y in
                 [(0, 0), (1, 0), (-1, 0), (2, 2), (6, 14),
                  (0, -1), (1, -1), (-1, -1), (2, -3), (6, -15)]]
        E9 = WeierstrassCurve(make_extension_field(3, 2), 0, 0, 0, -1, 1)
        E25 = WeierstrassCurve(make_extension_field(5, 2), 0, 0, 0, -1, 1)
        rng = random.Random(20260815)
        cases = [(EQ, poolQ, 67), (E9, E9.points()[1:], 67),
                 (E25, E25.points()[1:], 66)]
        total = 0
        for E, pool, count in cases:
            for i in range(count):
                deg = 1 + (total % 12)
                D = _random_divisor(E, pool, rng, deg)
                space = rr_basis(E, D)
                space.verify()
                assert space.dim == deg
                total += 1
            P, Q = pool[0], pool[1]
            for D, dim in ((Divisor(E), 1),
                           (of_point(P) - of_point(Q), 0)):
                space = rr_basis(E, D)
                space.verify()
                assert space.dim == dim
        assert total == 200


def test_02_group_order(f3_surface):
    with criterion(2, "seven rational points over F3, cyclic", 1):
        gs = f3_surface.curve.group_structure_small()
        assert gs.order == 7
        assert gs.cyclic
        assert gs.exponent == 7


def test_03_twisted_dimension_gate(rational_surface, f4_surface, f9_surface):
    with criterion(3, "twisted systems have dimension level+1", 120):
        for surf in (rational_surface, f4_surface, f9_surface):
            for level in range(13):
                assert surf.h0(level, twisted=True).dim == level + 1


def test_04_rigid_multiples(rational_surface):
    with criterion(4, "multiples of the base section: rigid in char 0, "
                      "steps of 1/p in char p", 120):
        for n in range(7):
            assert rational_surface.h0(n, twisted=False).dim == 1
        plans = [(2, 8, 6), (3, 8, 8), (5, 4, 12)]
        for p, k, n_max in plans:
            F = make_extension_field(p, k)
            E = (WeierstrassCurve(F, 1, 0, 0, 0, 1) if p == 2
                 else WeierstrassCurve(F, 0, 0, 0, -1, 1))
            surf = make_surface(E, E.point(0, 1))
            for n in range(n_max + 1):
                assert surf.h0(n, twisted=False).dim == n // p + 1
            assert surf.h0(p, twisted=False).dim == 2


def test_05_minimal_level_table(rational_surface):
    with criterion(5, "minimal levels 1, 3, 6 for m = 1, 2, 3 with "
                      "re-verified certificates", 60):
        E = rational_surface.curve
        fp = FatPoint(E.point(1, 1), 2, 1)
        certify_non_torsion(fp.class_point(rational_surface))
        expect = {1: 1, 2: 3, 3: 6}
        for m, want in expect.items():
            rec = min_level(rational_surface, m, fp)
            assert rec.status == "found" and rec.value == want
            cert = rec.certificate
            cert.validate()
            verify_jets(cert, fp.with_multiplicity(m))
            if want >= 1:
                em = jet_matrix(rational_surface, want - 1,
                                [fp.with_multiplicity(m)])
                assert rank_naive(em) == em.ncols


def test_06_minimal_level_bounds(rational_surface):
    with criterion(6, "minimal-level bounds for m = 1..4", 300):
        from math import comb
        E = rational_surface.curve
        fp = FatPoint(E.point(1, 1), 2, 1)
        observed = {}
        for m in range(1, 5):
            rec = min_level(rational_surface, m, fp)
            assert rec.status == "found"
            lam = rec.value
            observed[m] = lam
            assert comb(m, 2) + 1 <= lam <= comb(m + 1, 2)
            assert lam >= (m * m + 1) // 2
            assert rec.bounds["ok"]
        # m = 4 is exploratory: the bounds pin it to [8, 10]; record it
        conftest.ACCEPTANCE_LINES.append(
            f"              note: observed minimal level at m=4 is "
            f"{observed[4]} (within [8, 10])")


def test_07_multiplicity_step(f4_surface, f3_surface):
    with criterion(7, "char-p multiplicity step for p = 2 and p = 3", 120):
        for surf in (f4_surface, f3_surface):
            p = surf.field.characteristic
            fp = FatPoint(surf.curve.point(1, 1), 1, 1)
            rec_prev, rec_p = multiplicity_step_check(surf, fp)
            assert rec_p.value >= p + rec_prev.value


def test_08_example_dichotomy(rational_surface, f256_surface):
    with criterion(8, "five-fold point at level 11: empty in char 0, "
                      "witnessed in char 2", 120):
        # characteristic 0: the system is empty at a certified class
        E = rational_surface.curve
        fp0 = FatPoint(E.point(1, 1), 2, 5)
        certify_non_torsion(fp0.class_point(rational_surface))
        assert h0_fat(rational_surface, 11, [fp0]) == 0
        # characteristic 2: explicit witness, shaped base + 3*through + 2*inf
        E2 = f256_surface.curve
        fp2 = FatPoint(E2.point(1, 1), 1, 5)
        w = char_p_witness(f256_surface, 11, [5], [fp2])
        comps = w.components()
        assert comps[0][2] == 1                      # the base member
        assert comps[1][2] == 3                      # cube of the through-member
        assert comps[2] == ("infinity-section", None, 2)
        w.product.validate()
        verify_jets(w.product, fp2)                  # multiplicity >= 5, re-checked
        sys_p = fat_system(f256_surface, 11, [fp2])
        assert sys_p.expected == -1
        assert sys_p.dim >= 1
        assert sys_p.superabundant


def test_09_semicontinuity(rational_surface, f3_surface):
    with criterion(9, "char-3 dimensions dominate char-0 at (3,2) and (6,3)",
                   60):
        E = rational_surface.curve
        E3 = f3_surface.curve
        for level, m in [(3, 2), (6, 3)]:
            d0 = h0_fat(rational_surface, level,
                        [FatPoint(E.point(1, 1), 1, m)])
            d3 = h0_fat(f3_surface, level, [FatPoint(E3.point(1, 1), 1, m)])
            assert d3 >= d0


def test_10_invariance(f9_surface):
    with criterion(10, "invariance under fiber coordinate and class-preserving "
                       "translation, 20 trials each", 120):
        E = f9_surface.curve
        F = f9_surface.field
        rng = random.Random(1012)
        for _ in range(20):
            fp = sample_fat_point(f9_surface, rng, m=2)
            alt = FatPoint(fp.base, F.random(rng), 2)
            assert (h0_fat(f9_surface, 3, [fp])
                    == h0_fat(f9_surface, 3, [alt]))
        pts = E.points()[1:]
        done = 0
        while done < 20:
            fp = sample_fat_point(f9_surface, rng, m=2)
            shift = pts[rng.randrange(len(pts))]
            try:
                s2, fp2 = translate_marked_fiber(f9_surface, fp, shift)
            except ValueError:
                continue
            assert fp2.class_point(s2) == fp.class_point(f9_surface)
            assert h0_fat(s2, 3, [fp2]) == h0_fat(f9_surface, 3, [fp])
            done += 1


def test_11_deterministic_reports(tmp_path):
    with criterion(11, "two full runs of the acceptance config agree byte "
                       "for byte", None):
        config = Path(__file__).resolve().parent.parent / "configs" / "acceptance.ini"
        assert config.exists()
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "atiyahlab.cli", "run",
                 "--config", str(config), "--out", str(out)],
                capture_output=True, text=True, timeout=600)
            assert proc.returncode == 0, proc.stdout + proc.stderr
            outs.append((out / "report.json").read_bytes())
        assert outs[0] == outs[1]
        assert len(outs[0]) > 0
