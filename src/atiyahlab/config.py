"""Experiment configuration: a single INI file, numbers kept as exact strings.

Layout::

    [field]
    p = 0            ; 0 means the rationals; otherwise a prime
    k = 1            ; extension degree (finite fields only)

    [curve]
    a = 0, 0, 0, -1, 1          ; a1, a2, a3, a4, a6

    [surface]
    q = 0, 1                    ; marked fiber point
    T = -1, 1                   ; optional second chart point (default: -q)

    [run]
    seed = 42                   ; optional, default 0

    [job.<name>]                ; one section per job, run in file order
    type = h0 | h0-fat | lambda | mu | verify-prop22 | verify-prop23
         | verify-prop27 | example-theorem | group-order | compare-char
    ... job parameters, all exact strings ...

Every coordinate is parsed by the exact field parser (fractions like ``-3/4``
over the rationals, packed integers over finite fields), so no float ever
enters the pipeline.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field as dc_field

from .errors import ConfigError

# Accepted parameter keys per job type, as read by the runners in jobs.py;
# any other key is a typo that would silently fall back to a default.
JOB_PARAMS = {
    "h0": ("levels", "twisted"),
    "h0-fat": ("level", "points"),
    "lambda": ("m", "base", "w0", "cap", "trials", "certify"),
    "mu": ("levels", "base", "w0"),
    "verify-prop22": ("n",),
    "verify-prop23": ("levels",),
    "verify-prop27": ("base", "w0"),
    "example-theorem": ("level", "multiplicities", "points"),
    "group-order": ("expect_order", "expect_cyclic"),
    "compare-char": ("p", "k", "pairs", "base", "w0"),
}
# Keys without a default: a job that lacks one cannot run at all.
REQUIRED_PARAMS = {
    "h0-fat": ("points",),
    "compare-char": ("base",),
}
JOB_TYPES = tuple(JOB_PARAMS)
# Job types that run only over a finite field (True) or only over Q (False).
FINITE_FIELD_NEEDED = {"verify-prop27": True, "group-order": True,
                       "compare-char": False}
TWIST_VARIANTS = {"false": (False,), "true": (True,), "both": (False, True)}


@dataclass
class JobSpec:
    ident: str
    kind: str
    params: dict = dc_field(default_factory=dict)


@dataclass
class ExperimentConfig:
    p: int
    k: int
    curve_coeffs: list          # five exact strings
    q: tuple                    # (x, y) exact strings
    T: tuple | None
    seed: int
    jobs: list                  # JobSpec, in file order
    source: str = ""

    def echo(self) -> dict:
        return {
            "field": {"p": self.p, "k": self.k},
            "curve": list(self.curve_coeffs),
            "q": list(self.q),
            "T": list(self.T) if self.T else None,
            "seed": self.seed,
            "jobs": [{"id": j.ident, "type": j.kind, "params": dict(j.params)}
                     for j in self.jobs],
        }


def _split_pair(text: str, what: str) -> tuple:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ConfigError(f"{what} must be two comma-separated coordinates, "
                          f"got {text!r}")
    return parts[0], parts[1]


def parse_int(text: str, what: str) -> int:
    try:
        return int(text.strip())
    except ValueError as exc:
        raise ConfigError(f"{what} must be an integer, got {text!r}") from exc


def parse_bool(text: str, what: str) -> bool:
    v = text.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{what} must be a boolean, got {text!r}")


def parse_int_list(text: str, what: str) -> list:
    """Comma list and/or ``a..b`` inclusive ranges: "0..4, 7" -> [0,1,2,3,4,7]."""
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ".." in chunk:
            lo, _, hi = chunk.partition("..")
            lo, hi = parse_int(lo, what), parse_int(hi, what)
            if hi < lo:
                raise ConfigError(f"{what}: empty range {chunk!r}")
            out.extend(range(lo, hi + 1))
        else:
            out.append(parse_int(chunk, what))
    if not out:
        raise ConfigError(f"{what} must not be empty")
    return out


def parse_fat_points(text: str, what: str) -> list:
    """Semicolon-separated ``x : y : w0 : m`` quadruples (exact strings)."""
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [p.strip() for p in chunk.split(":")]
        if len(parts) != 4:
            raise ConfigError(
                f"{what}: each fat point is x:y:w0:m, got {chunk!r}")
        out.append((parts[0], parts[1], parts[2], parse_int(parts[3], what)))
    if not out:
        raise ConfigError(f"{what} must not be empty")
    return out


def parse_plain_points(text: str, what: str) -> list:
    """Semicolon-separated ``x : y : w0`` triples (exact strings)."""
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [p.strip() for p in chunk.split(":")]
        if len(parts) != 3:
            raise ConfigError(f"{what}: each point is x:y:w0, got {chunk!r}")
        out.append((parts[0], parts[1], parts[2]))
    if not out:
        raise ConfigError(f"{what} must not be empty")
    return out


def parse_level_mult_pairs(text: str, what: str) -> list:
    """Semicolon-separated ``level : m`` pairs."""
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [p.strip() for p in chunk.split(":")]
        if len(parts) != 2:
            raise ConfigError(f"{what}: each entry is level:m, got {chunk!r}")
        out.append((parse_int(parts[0], what), parse_int(parts[1], what)))
    if not out:
        raise ConfigError(f"{what} must not be empty")
    return out


def twist_variants(params: dict) -> tuple:
    """The twists an ``h0`` job solves, from ``twisted = true|false|both``."""
    mode = params.get("twisted", "false").strip().lower()
    if mode not in TWIST_VARIANTS:
        raise ConfigError(f"twisted must be true/false/both, got {mode!r}")
    return TWIST_VARIANTS[mode]


def example_points(params: dict):
    """(multiplicities, x:y:w0 triples) of an ``example-theorem`` job; the
    triples are None when ``points = random`` (the default)."""
    mults = parse_int_list(params.get("multiplicities", "5"), "multiplicities")
    text = params.get("points", "random").strip()
    if text == "random":
        return mults, None
    triples = parse_plain_points(text, "points")
    if len(triples) != len(mults):
        raise ConfigError("one point per multiplicity required")
    return mults, triples


def load_config(path: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file {path!r} not found or unreadable")

    if "field" not in parser:
        raise ConfigError("missing [field] section")
    p = parse_int(parser["field"].get("p", "0"), "field.p")
    k = parse_int(parser["field"].get("k", "1"), "field.k")
    if p < 0 or (p == 0 and k != 1) or (p > 0 and k < 1):
        raise ConfigError(f"invalid field parameters p={p}, k={k}")

    if "curve" not in parser or "a" not in parser["curve"]:
        raise ConfigError("missing [curve] section with key 'a'")
    coeffs = [c.strip() for c in parser["curve"]["a"].split(",")]
    if len(coeffs) != 5:
        raise ConfigError("curve needs exactly five coefficients a1,a2,a3,a4,a6")

    if "surface" not in parser or "q" not in parser["surface"]:
        raise ConfigError("missing [surface] section with key 'q'")
    q = _split_pair(parser["surface"]["q"], "surface.q")
    T = None
    if parser["surface"].get("T"):
        T = _split_pair(parser["surface"]["T"], "surface.T")

    seed = 0
    if "run" in parser and parser["run"].get("seed"):
        seed = parse_int(parser["run"]["seed"], "run.seed")

    jobs = []
    seen = set()
    for section in parser.sections():
        if not section.startswith("job"):
            continue
        ident = section[4:] if section.startswith("job.") else section
        if not ident:
            raise ConfigError(f"job section {section!r} needs a name: [job.NAME]")
        if ident in seen:
            raise ConfigError(f"duplicate job id {ident!r}")
        seen.add(ident)
        params = {key: value for key, value in parser[section].items()}
        kind = params.pop("type", None)
        if kind is None:
            raise ConfigError(f"job {ident!r} has no 'type'")
        kind = kind.strip()
        if kind not in JOB_TYPES:
            raise ConfigError(
                f"job {ident!r}: unknown type {kind!r} (known: {', '.join(JOB_TYPES)})")
        for key in params:
            if key not in JOB_PARAMS[kind]:
                raise ConfigError(
                    f"job {ident!r}: unknown key {key!r} for type {kind!r} "
                    f"(accepted: {', '.join(JOB_PARAMS[kind])})")
        for key in REQUIRED_PARAMS.get(kind, ()):
            if not params.get(key, "").strip():
                raise ConfigError(
                    f"job {ident!r}: type {kind!r} needs the key {key!r}")
        finite = FINITE_FIELD_NEEDED.get(kind, p > 0)
        if finite != (p > 0):
            raise ConfigError(f"job {ident!r}: type {kind!r} needs "
                              + ("a finite field" if finite else "the rationals"))
        try:  # the runners read these values through the same functions
            if kind == "h0":
                twist_variants(params)
            elif kind == "example-theorem":
                example_points(params)
        except ConfigError as exc:
            raise ConfigError(f"job {ident!r}: {exc}") from None
        jobs.append(JobSpec(ident, kind, params))

    return ExperimentConfig(p, k, coeffs, q, T, seed, jobs, source=str(path))
