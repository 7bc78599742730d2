"""The four benchmark workloads and the correctness gate they report through.

Every workload has ``setup()``, which builds what its parts share (the
finite fields with their tables), and ``parts(shared)``, the independent
pieces of one pass over the workload (see ``Part``).  A set-up sample is
``setup()`` plus the fresh state of every part.  Stages compute the answers
and check each one through ``gate``; ``rec`` is a span recorder in traced
passes and None otherwise.
"""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction

import spans
from spans import maybe_span
from atiyahlab import fat_points, fields, surface
from atiyahlab.curve import WeierstrassCurve

DEFAULT_SEED = 0

# y^2 = x^3 - x + 1 (the rational model of the shipped configs) and
# y^2 + xy = x^3 + 1 (the ordinary char-2 model)
E_QQ = (0, 0, 0, -1, 1)
E_CHAR2 = (1, 0, 0, 0, 1)

# sha256 of report.json for each shipped config at its own seed
PINNED_DIGESTS = {
    "acceptance":
        "318c7cd8d1eb29f6c28dcff8f2427eb7ead99dbf37198790506eab6bcfae2fec",
    "char2-witness":
        "1935b42d29dc35361b0bfffffd2566a8e89996b2a6abceeed12fe3f9c2c86295",
    "char3-reduction":
        "33016f0be4ba931d954399c60a4597a0b5511cab7c6ae2f4a380f0c5565e13e7",
}

# fat-point data the seed picks from: small integral points of E_QQ off
# q = (0, 1) and T = (-1, 1), and small w0.  Every pair gives the same
# lambda(1..4) and mu(3, 6, 10), measured when these pins were taken.
FAT_BASES = ((1, 1), (1, -1), (0, -1), (-1, -1))
FAT_W0 = (1, 2, 3, -1, -2)
PINNED_LAMBDA = {1: 1, 2: 3, 3: 6, 4: 10}
PINNED_MU = {3: 2, 6: 3, 10: 4}


class Gate:
    """Counts checked operations; a wrong answer or an exception is a
    failed operation, never an aborted run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def run(self, what, compute, check):
        """compute(), then check(result); returns the result or None."""
        self.attempted += 1
        result = None
        try:
            result = compute()
            problem = check(result)
        except Exception as exc:  # one broken answer must not end the run
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            self.failed += 1
            self.notes.append(f"{what}: {problem}")
        return result


def expect(want):
    return lambda got: None if got == want else f"got {got}, want {want}"


def _surface(field, coeffs, q, T=None):
    E = WeierstrassCurve(field, *coeffs)
    return surface.make_surface(E, E.point(*q),
                                T=None if T is None else E.point(*T))


class Part:
    """An independent piece of a workload's pass: ``fresh()`` builds its
    state (new curve and surface, so no cache of an earlier sample serves
    it), then ``stages`` run in order on that state.  Each stage is a
    ``(name, fn(state, gate, rec))`` that computes answers, checks them
    through ``gate`` and is timed on its own."""

    def __init__(self, name, fresh, stages):
        self.name = name
        self.fresh = fresh
        self.stages = stages


def _ladder(levels, plain_dim, tag):
    """One stage per ``h0`` call of the twisted and plain ladder."""
    def step(level, twisted):
        want = level + 1 if twisted else plain_dim(level)
        kind = "twisted" if twisted else "plain"

        def fn(S, gate, rec=None):
            gate.run(f"{tag} {kind} h0({level})",
                     lambda: S.h0(level, twisted=twisted).dim,
                     expect(want))
        return f"{kind}-{level}", fn
    return [step(level, twisted)
            for level in levels for twisted in (True, False)]


class H0Rational:
    """Twisted and plain h0 ladder on a fresh surface over Q."""

    name = "h0-qq"
    in_process = True
    levels = (4, 8, 12, 16)

    def setup(self):
        return None   # Q needs no construction

    def plain_dim(self, level):
        return 1   # rigid in characteristic 0

    def parts(self, _):
        return [Part("qq", lambda: _surface(fields.QQ, E_QQ, (0, 1), (-1, 1)),
                     _ladder(self.levels, self.plain_dim, self.name))]


class H0Finite:
    """The same ladder over the three finite-field gears."""

    name = "h0-ff"
    in_process = True
    # (part name, p, k, curve, q, T, levels); T None takes the library's
    # fallback, which for the 2-torsion q of E_CHAR2 is first_point
    cases = (
        ("table_p3", 3, 2, E_QQ, (0, 1), (-1, 1), (4, 8, 12)),
        ("table_p2", 2, 16, E_CHAR2, (0, 1), None, (4, 8, 12)),
        ("prime", 1000003, 1, E_QQ, (0, 1), (-1, 1), (4, 8, 12)),
        ("poly", 3, 13, E_QQ, (0, 1), (-1, 1), (4, 8)),
    )

    def setup(self):
        # FiniteField, not the cached make_extension_field: every set-up
        # pays for its own tables
        return [fields.FiniteField(p, k) for _, p, k, *_ in self.cases]

    def plain_dim(self, p, level):
        return level // p + 1

    def parts(self, field_list):
        def part(case, field):
            tag, p, _, coeffs, q, T, levels = case
            return Part(tag, lambda: _surface(field, coeffs, q, T),
                        _ladder(levels,
                                lambda level: self.plain_dim(p, level),
                                f"{self.name} {tag}"))
        return [part(c, f) for c, f in zip(self.cases, field_list)]


class FatRational:
    """min_level for m = 1..4, then max_multiplicity on the warm surface."""

    name = "fat-qq"
    in_process = True

    def __init__(self, seed):
        if seed == DEFAULT_SEED:
            self.base, self.w0 = (1, 1), 2
        else:
            rng = random.Random(seed)
            self.base, self.w0 = rng.choice(FAT_BASES), rng.choice(FAT_W0)

    def setup(self):
        return None

    def fresh(self):
        S = _surface(fields.QQ, E_QQ, (0, 1), (-1, 1))
        fp = fat_points.FatPoint(S.curve.point(*self.base),
                                 Fraction(self.w0), 1)
        return {"S": S, "fp": fp, "lambda": {}}

    def parts(self, _):
        def lam(m, want):
            def fn(st, gate, rec=None):
                r = gate.run(f"fat-qq lambda({m})",
                             lambda: fat_points.min_level(st["S"], m,
                                                          st["fp"]),
                             lambda r: _check_lambda(r, want))
                if r is not None:
                    st["lambda"][m] = r.value
            return f"lambda-{m}", fn

        def mu(level, want):
            def fn(st, gate, rec=None):
                gate.run(f"fat-qq mu({level})",
                         lambda: fat_points.max_multiplicity(
                             st["S"], level, st["fp"]).value,
                         lambda got: _check_mu(got, want, level,
                                               st["lambda"]))
            return f"mu-{level}", fn
        return [Part("fat", self.fresh,
                     [lam(m, w) for m, w in PINNED_LAMBDA.items()]
                     + [mu(lv, w) for lv, w in PINNED_MU.items()])]


def _check_lambda(rec, want):
    w = rec.fullrank_witness
    if rec.status != "found" or rec.value != want:
        return f"got {rec.status} {rec.value}, want found {want}"
    if rec.certificate is None:
        return "no certificate section"
    if w is None or w["level"] != want - 1 or w["rank"] != w["cols"]:
        return f"full-rank witness {w} does not certify level {want - 1}"
    return None


def _check_mu(got, want, level, lam):
    # mu(l) = #{m : lambda(m) <= l} as long as lambda(5) > l, which the
    # library's lower bound C(5, 2) + 1 = 11 guarantees for l <= 10
    from_lambda = sum(1 for v in lam.values() if v <= level)
    if got != want or got != from_lambda:
        return f"got {got}, want {want} (lambda table gives {from_lambda})"
    return None


def cli_verdict(pinned):
    """Check for one CLI child's (exit code, stderr, report.json bytes);
    ``pinned`` is the expected sha256 of the report, or None."""
    def verdict(result):
        code, err, data = result
        if code != 0:
            return f"exit code {code}: {err.strip()[-300:]}"
        if pinned is not None and hashlib.sha256(data).hexdigest() != pinned:
            return "report.json digest differs from the pinned one"
        return None
    return verdict


class CliConfigs:
    """``atiyahlab run`` in a child process on each shipped config."""

    name = "cli-configs"
    in_process = False
    configs = ("acceptance", "char2-witness", "char3-reduction")

    def __init__(self, seed, root, out_dir):
        self.seed = seed
        self.root = root
        self.out_dir = out_dir
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.shim = os.path.join(root, "bench", "cli_shim.py")
        self.children = 0

    def setup(self):
        """A child interpreter starts and imports the CLI (the timed part)."""
        subprocess.run([sys.executable, "-c", "import atiyahlab.cli"],
                       env=self.env, check=True)

    def _child(self, config, jobs_n, rec):
        self.children += 1
        out = os.path.join(self.out_dir, f"{config}-j{jobs_n}")
        spans_file = os.path.join(self.out_dir,
                                  f"spans-{self.children}.json")
        args = ["run", "--config",
                os.path.join(self.root, "configs", f"{config}.ini"),
                "--jobs", str(jobs_n), "--out", out]
        if self.seed != DEFAULT_SEED:
            args += ["--seed", str(self.seed)]
        if rec is None:
            cmd = [sys.executable, "-m", "atiyahlab.cli"] + args
        else:
            cmd = [sys.executable, self.shim, spans_file,
                   repr(spans.clock())] + args
        report = os.path.join(out, "report.json")
        for stale in (report, spans_file):
            if os.path.exists(stale):
                os.remove(stale)
        with maybe_span(rec, "bench.cli_child", config=config, jobs=jobs_n):
            proc = subprocess.run(cmd, env=self.env, text=True,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE)
        if rec is not None and os.path.exists(spans_file):
            rec.children.append(spans.load(spans_file))
        with open(report, "rb") as fh:
            return proc.returncode, proc.stderr, fh.read()

    def parts(self, _):
        """Per config: ``--jobs 1``, then ``--jobs 2`` and the comparison of
        the two reports; the state is the list of reports read so far."""
        def stage(config, jobs_n):
            pinned = (PINNED_DIGESTS[config] if self.seed == DEFAULT_SEED
                      else None)

            def fn(reports, gate, rec=None):
                result = gate.run(f"cli {config} --jobs {jobs_n}",
                                  lambda: self._child(config, jobs_n, rec),
                                  cli_verdict(pinned))
                reports.append(result[2] if result else None)
                if len(reports) == 2:
                    gate.run(f"cli {config} --jobs 1 vs --jobs 2",
                             lambda: reports,
                             lambda r: None if r[0] is not None
                             and r[0] == r[1] else "the two reports differ")
            return f"jobs{jobs_n}", fn
        os.makedirs(self.out_dir, exist_ok=True)
        return [Part(config, list, [stage(config, 1), stage(config, 2)])
                for config in self.configs]


def make(name, seed, root, out_dir):
    """The workload called ``name`` (one of NAMES), with inputs from seed."""
    return {
        H0Rational.name: H0Rational,
        H0Finite.name: H0Finite,
        FatRational.name: lambda: FatRational(seed),
        CliConfigs.name: lambda: CliConfigs(seed, root, out_dir),
    }[name]()


NAMES = (H0Rational.name, H0Finite.name, FatRational.name, CliConfigs.name)
