"""Job dispatch: turns an ExperimentConfig into a list of ResultRows.

Jobs run one after another in config order, each with its own
deterministically seeded RNG (derived from the run seed and the job's
position), and share the run's surface and its caches.  Verdicts are
PASS/FAIL only for jobs that check a stated expectation; plain measurements
report INFO.  Any exception a job raises is captured as an ERROR row with the
job id and the exception type attached rather than aborting the whole run.
"""

from __future__ import annotations

import random
import time

from .config import ExperimentConfig, JobSpec, parse_job
from .curve import (CurvePoint, WeierstrassCurve, certify_non_torsion,
                    certify_not_p_torsion, reduce_curve_mod_p,
                    reduce_point_mod_p)
from .errors import ConfigError
from .fat_points import (FatPoint, char_p_witness, fat_system, h0_fat,
                         max_multiplicity, min_level, multiplicity_step_check,
                         sample_fat_point)
from .fields import FieldElem, field_from_config
from .surface import make_surface


class ResultRow:
    def __init__(self, ident, kind, params, status, values, certificates,
                 error=None, wall_time=0.0):
        self.ident = ident
        self.kind = kind
        self.params = dict(params)
        self.status = status            # PASS | FAIL | INFO | ERROR
        self.values = values
        self.certificates = certificates
        self.error = error
        self.wall_time = wall_time

    def to_json_obj(self) -> dict:
        # wall time deliberately excluded: the JSON record is byte-stable
        return {
            "id": self.ident,
            "type": self.kind,
            "inputs": self.params,
            "status": self.status,
            "values": self.values,
            "certificates": self.certificates,
            "error": self.error,
        }


class RunContext:
    """Field, curve and surface shared by the jobs of a run (surface lazy)."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        try:
            self.field = field_from_config(config.p, config.k)
            self.curve = WeierstrassCurve(self.field,
                                          *[self.field.elem(c)
                                            for c in config.curve_coeffs])
            self.q = self.point(*config.q)
            self.T = None
            if config.T is not None:
                self.T = self.point(*config.T)
                if self.T == self.q:
                    raise ValueError("T must differ from the marked point q")
        except (ValueError, ArithmeticError) as exc:
            raise ConfigError(f"inconsistent field/curve data: {exc}") from exc
        self._surface = None

    def point(self, x: str, y: str) -> CurvePoint:
        """The curve point with these exact-string coordinates."""
        return self.curve.point(self.field.elem(x), self.field.elem(y))

    @property
    def surface(self):
        if self._surface is None:
            self._surface = make_surface(self.curve, self.q, T=self.T)
        return self._surface


def _job_rng(config: ExperimentConfig, index: int) -> random.Random:
    return random.Random((config.seed << 20) ^ (index * 0x9E3779B1 + 1))


def _fat_point(ctx, args, m, rng, certified=False) -> FatPoint:
    """The fat point of a job's ``base`` and ``w0``, sampling what is random."""
    if args.base == "random":
        fp = sample_fat_point(ctx.surface, rng, m, certified=certified)
        if args.w0 != "random":
            fp = FatPoint(fp.base, args.w0, m)
        return fp
    P = ctx.point(*args.base)
    w = (FieldElem(ctx.field, ctx.field.random(rng)) if args.w0 == "random"
         else args.w0)
    return FatPoint(P, w, m)


# --- individual job runners (values, certificates, status) -------------------
# Each takes the typed arguments of config.parse_job.

def _run_h0(ctx, args, rng):
    dims, certs = {}, {}
    for tw in args.twisted:
        key = "twisted" if tw else "plain"
        dims[key] = {}
        certs[key] = {}
        for level in args.levels:
            space = ctx.surface.h0(level, twisted=tw)
            dims[key][str(level)] = space.dim
            certs[key][str(level)] = space.serialize()
    return {"dims": dims}, {"spaces": certs}, "INFO"


def _run_h0_fat(ctx, args, rng):
    pts = [FatPoint(ctx.point(x, y), w0, m) for x, y, w0, m in args.points]
    system = fat_system(ctx.surface, args.level, pts)
    values = {"dim": system.dim,
              "projective_dim": system.dim - 1,
              "expected_projective_dim": system.expected,
              "superabundant": system.superabundant}
    return values, {"system": system.serialize()}, "INFO"


def _run_lambda(ctx, args, rng):
    values, certs = {}, {}
    for m in args.m:
        per_trial = []
        for t in range(args.trials):
            fp = _fat_point(ctx, args, m, rng, certified=args.certify)
            rec = min_level(ctx.surface, m, fp, cap=args.cap,
                            certify=args.certify)
            per_trial.append(rec)
        best = min((r for r in per_trial if r.value is not None),
                   key=lambda r: r.value, default=per_trial[0])
        values[str(m)] = {"value": best.value, "status": best.status,
                          "observed": [r.value for r in per_trial]}
        certs[str(m)] = [r.serialize() for r in per_trial]
    return {"lambda": values}, {"records": certs}, "INFO"


def _run_mu(ctx, args, rng):
    values, certs = {}, {}
    for level in args.levels:
        fp = _fat_point(ctx, args, 1, rng)
        rec = max_multiplicity(ctx.surface, level, fp)
        values[str(level)] = rec.value
        certs[str(level)] = rec.serialize()
    return {"mu": values}, {"records": certs}, "INFO"


def _check_dimensions(ctx, levels, twisted, expected):
    """h0 at each level against expected(level): PASS only if all match."""
    dims, certs, ok = {}, {}, True
    for level in levels:
        space = ctx.surface.h0(level, twisted=twisted)
        dims[str(level)] = {"dim": space.dim, "expected": expected(level)}
        certs[str(level)] = space.serialize()
        ok = ok and space.dim == expected(level)
    return ({"dims": dims, "all_match": ok}, {"spaces": certs},
            "PASS" if ok else "FAIL")


def _run_verify_multiple_section(ctx, args, rng):
    p = ctx.field.characteristic
    return _check_dimensions(ctx, args.n, False,
                             lambda n: 1 if p == 0 else n // p + 1)


def _run_verify_twist_dimension(ctx, args, rng):
    return _check_dimensions(ctx, args.levels, True, lambda level: level + 1)


def _run_verify_step(ctx, args, rng):
    # a callable sample: over Q the library refuses before anything is drawn
    rec_prev, rec_p, holds = multiplicity_step_check(
        ctx.surface, lambda: _fat_point(ctx, args, 1, rng, certified=True))
    p = ctx.field.characteristic
    values = {"p": p, "lambda_prev": rec_prev.value, "lambda_p": rec_p.value,
              "bound": p + rec_prev.value, "holds": holds}
    certs = {"prev": rec_prev.serialize(), "p": rec_p.serialize()}
    return values, certs, "PASS" if holds else "FAIL"


def _run_example_theorem(ctx, args, rng):
    level, mults = args.level, args.multiplicities
    p = ctx.field.characteristic
    pts = []
    if args.points == "random":
        avoid = set()
        for m in mults:
            for _ in range(200):
                fp = sample_fat_point(ctx.surface, rng, m, certified=True)
                if fp.base not in avoid:
                    break
            avoid.add(fp.base)
            pts.append(fp)
    else:
        for (x, y, w0), m in zip(args.points, mults):
            pts.append(FatPoint(ctx.point(x, y), w0, m))
    if p == 0:
        for fp in pts:
            certify_non_torsion(fp.class_point(ctx.surface))
        system = fat_system(ctx.surface, level, pts)
        dim = system.dim
        values = {"characteristic": 0, "dim": dim, "expected_empty": True,
                  "empty": dim == 0}
        return (values, {"system": system.serialize()},
                "PASS" if dim == 0 else "FAIL")
    witness = char_p_witness(ctx.surface, level, mults, pts)
    dim = h0_fat(ctx.surface, level, pts)
    values = {"characteristic": p, "dim": dim, "nonempty": dim >= 1,
              "witness_ok": True, "leftover": witness.leftover}
    return (values, {"witness": witness.serialize()},
            "PASS" if dim >= 1 else "FAIL")


def _run_group_order(ctx, args, rng):
    gs = ctx.curve.group_structure_small()
    values = {"order": gs.order, "cyclic": gs.cyclic, "exponent": gs.exponent,
              "generator": None if gs.generator.is_infinity else
              [gs.generator.x.to_text(), gs.generator.y.to_text()]}
    status = "INFO"
    checks = {}
    if args.expect_order is not None:
        checks["order"] = (gs.order == args.expect_order)
    if args.expect_cyclic is not None:
        checks["cyclic"] = (gs.cyclic == args.expect_cyclic)
    if checks:
        status = "PASS" if all(checks.values()) else "FAIL"
        values["checks"] = checks
    return values, {}, status


def _run_compare_char(ctx, args, rng):
    p, k = args.p, args.k
    curve_p = reduce_curve_mod_p(ctx.curve, p, k)  # refuses a finite field
    P0 = ctx.point(*args.base)
    certify_non_torsion(P0 - ctx.q)
    q_p = reduce_point_mod_p(ctx.q, curve_p)
    T_p = reduce_point_mod_p(ctx.surface.T, curve_p)
    P0_p = reduce_point_mod_p(P0, curve_p)
    certify_not_p_torsion(P0_p - q_p)
    surface_p = make_surface(curve_p, q_p, T=T_p)

    w0 = ctx.field.parse(args.w0)   # a rational, reduced mod p on the char-p side
    rows, ok = [], True
    for level, m in args.pairs:
        d0 = h0_fat(ctx.surface, level, [FatPoint(P0, w0, m)])
        dp = h0_fat(surface_p, level, [FatPoint(P0_p, w0, m)])
        rows.append({"level": level, "m": m, "char0": d0, f"char{p}": dp,
                     "semicontinuous": dp >= d0})
        ok = ok and dp >= d0
    values = {"p": p, "k": k, "rows": rows, "all_semicontinuous": ok}
    return values, {"rows": rows}, "PASS" if ok else "FAIL"


_RUNNERS = {
    "h0": _run_h0,
    "h0-fat": _run_h0_fat,
    "lambda": _run_lambda,
    "mu": _run_mu,
    "verify-prop22": _run_verify_multiple_section,
    "verify-prop23": _run_verify_twist_dimension,
    "verify-prop27": _run_verify_step,
    "example-theorem": _run_example_theorem,
    "group-order": _run_group_order,
    "compare-char": _run_compare_char,
}


def run_job(ctx: RunContext, spec: JobSpec, index: int) -> ResultRow:
    rng = _job_rng(ctx.config, index)
    start = time.perf_counter()
    try:
        args = parse_job(spec.kind, spec.params, ctx.config.p)
        values, certs, status = _RUNNERS[spec.kind](ctx, args, rng)
        return ResultRow(spec.ident, spec.kind, spec.params, status, values,
                         certs, wall_time=time.perf_counter() - start)
    except Exception as exc:  # one failing job must not lose the other rows
        return ResultRow(spec.ident, spec.kind, spec.params, "ERROR", {}, {},
                         error=f"{type(exc).__name__}: {exc}",
                         wall_time=time.perf_counter() - start)


def run_config(config: ExperimentConfig) -> list:
    """All jobs of the config, run one after another, rows in config order."""
    ctx = RunContext(config)
    return [run_job(ctx, spec, i) for i, spec in enumerate(config.jobs)]
