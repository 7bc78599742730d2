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

from .config import (ExperimentConfig, JobSpec, example_points, parse_bool,
                     parse_fat_points, parse_int, parse_int_list,
                     parse_level_mult_pairs, twist_variants)
from .curve import (WeierstrassCurve, certify_non_torsion,
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
            self.q = self.curve.point(self.field.elem(config.q[0]),
                                      self.field.elem(config.q[1]))
            self.T = None
            if config.T is not None:
                self.T = self.curve.point(self.field.elem(config.T[0]),
                                          self.field.elem(config.T[1]))
                if self.T == self.q:
                    raise ValueError("T must differ from the marked point q")
        except (ValueError, ArithmeticError) as exc:
            raise ConfigError(f"inconsistent field/curve data: {exc}") from exc
        self._surface = None

    @property
    def surface(self):
        if self._surface is None:
            self._surface = make_surface(self.curve, self.q, T=self.T)
        return self._surface


def _job_rng(config: ExperimentConfig, index: int) -> random.Random:
    return random.Random((config.seed << 20) ^ (index * 0x9E3779B1 + 1))


def _parse_point(ctx: RunContext, text: str, what: str):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ConfigError(f"{what}: expected x,y, got {text!r}")
    return ctx.curve.point(ctx.field.elem(parts[0]), ctx.field.elem(parts[1]))


def _resolve_fat_point(ctx, params, m, rng, certified=False) -> FatPoint:
    base = params.get("base", "random").strip()
    w0 = params.get("w0", "random").strip()
    if base == "random":
        fp = sample_fat_point(ctx.surface, rng, m, certified=certified)
        if w0 != "random":
            fp = FatPoint(fp.base, ctx.field.elem(w0), m)
        return fp
    P = _parse_point(ctx, base, "base")
    w = (FieldElem(ctx.field, ctx.field.random(rng)) if w0 == "random"
         else ctx.field.elem(w0))
    return FatPoint(P, w, m)


# --- individual job runners (values, certificates, status) -------------------

def _run_h0(ctx, params, rng):
    levels = parse_int_list(params.get("levels", "0..4"), "levels")
    dims, certs = {}, {}
    for tw in twist_variants(params):
        key = "twisted" if tw else "plain"
        dims[key] = {}
        certs[key] = {}
        for level in levels:
            space = ctx.surface.h0(level, twisted=tw)
            dims[key][str(level)] = space.dim
            certs[key][str(level)] = space.serialize()
    return {"dims": dims}, {"spaces": certs}, "INFO"


def _run_h0_fat(ctx, params, rng):
    level = parse_int(params.get("level", "1"), "level")
    pts = []
    for x, y, w0, m in parse_fat_points(params["points"], "points"):
        P = ctx.curve.point(ctx.field.elem(x), ctx.field.elem(y))
        pts.append(FatPoint(P, ctx.field.elem(w0), m))
    system = fat_system(ctx.surface, level, pts)
    values = {"dim": system.dim,
              "projective_dim": system.dim - 1,
              "expected_projective_dim": system.expected,
              "superabundant": system.superabundant}
    return values, {"system": system.serialize()}, "INFO"


def _run_lambda(ctx, params, rng):
    ms = parse_int_list(params.get("m", "1"), "m")
    cap = parse_int(params["cap"], "cap") if params.get("cap") else None
    certify = parse_bool(params.get("certify", "true"), "certify")
    trials = parse_int(params.get("trials", "1"), "trials")
    values, certs = {}, {}
    for m in ms:
        per_trial = []
        for t in range(trials):
            fp = _resolve_fat_point(ctx, params, m, rng, certified=certify)
            rec = min_level(ctx.surface, m, fp, cap=cap, certify=certify)
            per_trial.append(rec)
        best = min((r for r in per_trial if r.value is not None),
                   key=lambda r: r.value, default=per_trial[0])
        values[str(m)] = {"value": best.value, "status": best.status,
                          "observed": [r.value for r in per_trial]}
        certs[str(m)] = [r.serialize() for r in per_trial]
    return {"lambda": values}, {"records": certs}, "INFO"


def _run_mu(ctx, params, rng):
    levels = parse_int_list(params.get("levels", "1"), "levels")
    values, certs = {}, {}
    for level in levels:
        fp = _resolve_fat_point(ctx, params, 1, rng)
        rec = max_multiplicity(ctx.surface, level, fp)
        values[str(level)] = rec.value
        certs[str(level)] = rec.serialize()
    return {"mu": values}, {"records": certs}, "INFO"


def _run_verify_multiple_section(ctx, params, rng):
    p = ctx.field.characteristic
    default = "0..6" if p == 0 else f"0..{2 * p + 2}"
    ns = parse_int_list(params.get("n", default), "n")
    dims, certs, ok = {}, {}, True
    for n in ns:
        space = ctx.surface.h0(n, twisted=False)
        expect = 1 if p == 0 else n // p + 1
        dims[str(n)] = {"dim": space.dim, "expected": expect}
        certs[str(n)] = space.serialize()
        ok = ok and space.dim == expect
    return ({"dims": dims, "all_match": ok}, {"spaces": certs},
            "PASS" if ok else "FAIL")


def _run_verify_twist_dimension(ctx, params, rng):
    levels = parse_int_list(params.get("levels", "0..8"), "levels")
    dims, certs, ok = {}, {}, True
    for level in levels:
        space = ctx.surface.h0(level, twisted=True)
        dims[str(level)] = {"dim": space.dim, "expected": level + 1}
        certs[str(level)] = space.serialize()
        ok = ok and space.dim == level + 1
    return ({"dims": dims, "all_match": ok}, {"spaces": certs},
            "PASS" if ok else "FAIL")


def _run_verify_step(ctx, params, rng):
    # a callable sample: over Q the library refuses before anything is drawn
    rec_prev, rec_p, holds = multiplicity_step_check(
        ctx.surface, lambda: _resolve_fat_point(ctx, params, 1, rng,
                                                certified=True))
    p = ctx.field.characteristic
    values = {"p": p, "lambda_prev": rec_prev.value, "lambda_p": rec_p.value,
              "bound": p + rec_prev.value, "holds": holds}
    certs = {"prev": rec_prev.serialize(), "p": rec_p.serialize()}
    return values, certs, "PASS" if holds else "FAIL"


def _run_example_theorem(ctx, params, rng):
    level = parse_int(params.get("level", "11"), "level")
    mults, triples = example_points(params)
    p = ctx.field.characteristic
    pts = []
    if triples is None:
        avoid = set()
        for m in mults:
            for _ in range(200):
                fp = sample_fat_point(ctx.surface, rng, m, certified=True)
                if fp.base not in avoid:
                    break
            avoid.add(fp.base)
            pts.append(fp)
    else:
        for (x, y, w0), m in zip(triples, mults):
            P = ctx.curve.point(ctx.field.elem(x), ctx.field.elem(y))
            pts.append(FatPoint(P, ctx.field.elem(w0), m))
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


def _run_group_order(ctx, params, rng):
    gs = ctx.curve.group_structure_small()
    values = {"order": gs.order, "cyclic": gs.cyclic, "exponent": gs.exponent,
              "generator": None if gs.generator.is_infinity else
              [gs.generator.x.to_text(), gs.generator.y.to_text()]}
    status = "INFO"
    checks = {}
    if params.get("expect_order"):
        want = parse_int(params["expect_order"], "expect_order")
        checks["order"] = (gs.order == want)
    if params.get("expect_cyclic"):
        want = parse_bool(params["expect_cyclic"], "expect_cyclic")
        checks["cyclic"] = (gs.cyclic == want)
    if checks:
        status = "PASS" if all(checks.values()) else "FAIL"
        values["checks"] = checks
    return values, {}, status


def _run_compare_char(ctx, params, rng):
    p = parse_int(params.get("p", "3"), "p")
    k = parse_int(params.get("k", "1"), "k")
    pairs = parse_level_mult_pairs(params.get("pairs", "3:2; 6:3"), "pairs")
    w0_text = params.get("w0", "1").strip()

    curve_p = reduce_curve_mod_p(ctx.curve, p, k)  # refuses a finite field
    P0 = _parse_point(ctx, params["base"], "base")
    certify_non_torsion(P0 - ctx.q)
    q_p = reduce_point_mod_p(ctx.q, curve_p)
    T_p = reduce_point_mod_p(ctx.surface.T, curve_p)
    P0_p = reduce_point_mod_p(P0, curve_p)
    certify_not_p_torsion(P0_p - q_p)
    surface_p = make_surface(curve_p, q_p, T=T_p)

    rows, ok = [], True
    for level, m in pairs:
        d0 = h0_fat(ctx.surface, level,
                    [FatPoint(P0, ctx.field.elem(w0_text), m)])
        dp = h0_fat(surface_p, level,
                    [FatPoint(P0_p, curve_p.field.elem(w0_text), m)])
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
        values, certs, status = _RUNNERS[spec.kind](ctx, spec.params, rng)
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
