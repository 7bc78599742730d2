"""Experiment configuration: a single INI file, numbers kept as exact strings.

Layout::

    [field]
    p = 0            ; 0 means the rationals; otherwise a prime
    k = 1            ; extension degree (finite fields only)

    [curve]
    a = 0, 0, 0, -1, 1          ; a1, a2, a3, a4, a6

    [surface]
    q = 0, 1                    ; marked fiber point
    T = -1, 1                   ; second chart point (default: -q; over Q
                                ; required when q is 2-torsion)

    [run]
    seed = 42                   ; optional, default 0

    [job.<name>]                ; one section per job, run in file order
    type = h0 | h0-fat | lambda | mu | verify-prop22 | verify-prop23
         | verify-prop27 | example-theorem | group-order | compare-char
    ... job parameters, all exact strings ...

SECTION_KEYS lists the keys of the four fixed sections and JOB_SCHEMA every
job type's keys with their parsers and defaults; any other section or key is
a ConfigError, as is a file configparser cannot read or that is not UTF-8.
load_config parses every job through parse_job, so a malformed value is a
ConfigError before any job runs; jobs.run_job parses again and hands the
runners only the typed values, while JobSpec.params keeps the strings as
written for the report.  Coordinates stay exact strings until the run converts them with
the exact field parser (fractions like ``-3/4``, reduced mod p over a finite
field), so no float ever enters the pipeline.  Over F_{p^k} with k >= 2,
decimal digits name a packed integer and must be below p^k, and in any other
number text (``-1``, ``1/2``) every run of digits must be below p; the curve
coefficients, ``surface`` points and job coordinates are checked at load.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import partial
from types import SimpleNamespace

from .errors import ConfigError
from .fields import digits_error, is_probable_prime

# Job types that run only over a finite field (True) or only over Q (False).
FINITE_FIELD_NEEDED = {"verify-prop27": True, "group-order": True,
                       "compare-char": False}


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


def parse_int(text: str, what: str, least: int | None = None) -> int:
    try:
        value = int(text.strip())
    except ValueError as exc:
        raise ConfigError(f"{what} must be an integer, got {text!r}") from exc
    if least is not None and value < least:
        raise ConfigError(f"{what} must be at least {least}, got {text!r}")
    return value


def parse_bool(text: str, what: str) -> bool:
    v = text.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{what} must be a boolean, got {text!r}")


def parse_int_list(text: str, what: str, least: int | None = None) -> list:
    """Comma list and/or ``a..b`` inclusive ranges: "0..4, 7" -> [0,1,2,3,4,7]."""
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ".." in chunk:
            lo, _, hi = chunk.partition("..")
            lo, hi = parse_int(lo, what, least), parse_int(hi, what, least)
            if hi < lo:
                raise ConfigError(f"{what}: empty range {chunk!r}")
            out.extend(range(lo, hi + 1))
        else:
            out.append(parse_int(chunk, what, least))
    if not out:
        raise ConfigError(f"{what} must not be empty")
    return out


def parse_coordinate(text: str, what: str) -> str:
    """An exact number as written (``-3/4``, ``5``); the job's field converts
    it when the job runs."""
    text = text.strip()
    try:
        Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"{what} must be an exact number, got {text!r}") from None
    return text


def _check_digits(value, what: str, p: int, k: int) -> None:
    """Reject text with no single reading over F_{p^k} (see
    fields.digits_error).  value is any parsed value: the strings in it,
    at any depth of tuples and lists, are checked and the rest skipped."""
    if isinstance(value, (tuple, list)):
        for item in value:
            _check_digits(item, what, p, k)
    elif isinstance(value, str):
        reason = digits_error(value, p, k)
        if reason:
            raise ConfigError(f"{what}: {value} names no element of "
                              f"F_{p ** k} ({reason})")


def parse_pair(text: str, what: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"{what} must be two comma-separated coordinates, "
                          f"got {text!r}")
    return parse_coordinate(parts[0], what), parse_coordinate(parts[1], what)


def parse_prime(text: str, what: str) -> int:
    p = parse_int(text, what)
    if not is_probable_prime(p):
        raise ConfigError(f"{what} must be a prime, got {text!r}")
    return p


def parse_twists(text: str, what: str) -> tuple:
    """The twists an ``h0`` job solves: false, true or both."""
    mode = text.strip().lower()
    if mode == "both":
        return (False, True)
    if mode in ("false", "true"):
        return (mode == "true",)
    raise ConfigError(f"{what} must be true/false/both, got {text!r}")


_natural = partial(parse_int, least=0)
_positive = partial(parse_int, least=1)
_naturals = partial(parse_int_list, least=0)
_positives = partial(parse_int_list, least=1)
# the fields a record layout may name
_RECORD_FIELDS = {"x": parse_coordinate, "y": parse_coordinate,
                  "w0": parse_coordinate, "level": _natural, "m": _positive}


def parse_records(text: str, what: str, layout: str) -> list:
    """``;``-separated records of the ``:``-separated fields named by layout:
    "1:1:2:5; 0:-1:3:2" with layout "x:y:w0:m" -> [("1", "1", "2", 5),
    ("0", "-1", "3", 2)]."""
    names = layout.split(":")
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != len(names):
            raise ConfigError(f"{what}: each entry is {layout}, got {chunk!r}")
        out.append(tuple(_RECORD_FIELDS[name](part, what)
                         for name, part in zip(names, parts)))
    if not out:
        raise ConfigError(f"{what} must not be empty")
    return out


def _or_random(parse):
    """A parser that keeps ``random`` and hands any other text to parse."""
    def parse_or_random(text: str, what: str):
        return "random" if text.strip() == "random" else parse(text, what)
    return parse_or_random


def _prop22_default(p: int) -> str:
    """Levels 0..6 over Q; over F_p up to 2p + 2, past the second jump."""
    return "0..6" if p == 0 else f"0..{2 * p + 2}"


# Marks a key without a default: a job that lacks it cannot run at all.
REQUIRED = object()
_BASE = _or_random(parse_pair)
_W0 = _or_random(parse_coordinate)

# Every key of every job type, as (parser, default).  The default is the text
# parsed when the key is absent (or a function of the characteristic p that
# gives it), REQUIRED, or None for "not set"; a REQUIRED or None key that is
# present but empty counts as absent.  Any other key is a typo that would
# silently fall back to a default, so it is rejected.
JOB_SCHEMA = {
    "h0": {"levels": (_naturals, "0..4"), "twisted": (parse_twists, "false")},
    "h0-fat": {"level": (_natural, "1"),
               "points": (partial(parse_records, layout="x:y:w0:m"), REQUIRED)},
    "lambda": {"m": (_positives, "1"), "base": (_BASE, "random"),
               "w0": (_W0, "random"), "cap": (_natural, None),
               "trials": (_positive, "1"), "certify": (parse_bool, "true")},
    "mu": {"levels": (_positives, "1"), "base": (_BASE, "random"),
           "w0": (_W0, "random")},
    "verify-prop22": {"n": (_naturals, _prop22_default)},
    "verify-prop23": {"levels": (_naturals, "0..8")},
    "verify-prop27": {"base": (_BASE, "random"), "w0": (_W0, "random")},
    "example-theorem": {
        "level": (_natural, "11"), "multiplicities": (_positives, "5"),
        "points": (_or_random(partial(parse_records, layout="x:y:w0")),
                   "random")},
    "group-order": {"expect_order": (_positive, None),
                    "expect_cyclic": (parse_bool, None)},
    "compare-char": {"p": (parse_prime, "3"), "k": (_positive, "1"),
                     "pairs": (partial(parse_records, layout="level:m"),
                               "3:2; 6:3"),
                     "base": (parse_pair, REQUIRED),
                     "w0": (parse_coordinate, "1")},
}
JOB_TYPES = tuple(JOB_SCHEMA)


def parse_job(kind: str, params: dict, p: int) -> SimpleNamespace:
    """The typed arguments of a job of this kind over characteristic p: one
    attribute per key of its schema.  Raises ConfigError naming the key."""
    schema = JOB_SCHEMA[kind]
    for key in params:
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} for type {kind!r} "
                              f"(accepted: {', '.join(schema)})")
    args = {}
    for key, (parse, default) in schema.items():
        text = params.get(key, "").strip()
        if not text and default is REQUIRED:
            raise ConfigError(f"type {kind!r} needs the key {key!r}")
        if not text and default is None:
            args[key] = None
            continue
        if key not in params:
            text = default(p) if callable(default) else default
        args[key] = parse(text, repr(key))
    args = SimpleNamespace(**args)
    if (kind == "example-theorem" and args.points != "random"
            and len(args.points) != len(args.multiplicities)):
        raise ConfigError("'points': one point per multiplicity required")
    return args


# The keys of the sections other than [job.NAME], as configparser reads them
# (lower case, so T and t are one key).
SECTION_KEYS = {"field": ("p", "k"), "curve": ("a",), "surface": ("q", "t"),
                "run": ("seed",)}


def _read_sections(path: str) -> dict:
    """The file's sections as {name: {key: value}}, in file order, checked
    against SECTION_KEYS.  Whatever configparser rejects (a duplicate key or
    section, a line outside a section, a junk line, a broken %-reference)
    and bytes that are not UTF-8 are a ConfigError, and so is a [DEFAULT]
    section, whose keys configparser would copy into every other one."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        if not parser.read(path, encoding="utf-8"):
            raise ConfigError(f"config file {path!r} not found or unreadable")
        if parser.defaults():
            raise ConfigError(f"[{parser.default_section}] is not accepted "
                              f"(its keys would enter every section)")
        sections = {name: dict(parser[name]) for name in parser.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path!r} is not a valid INI file: "
                          f"{exc}") from None
    for name, items in sections.items():
        if name.startswith("job."):
            continue
        if name not in SECTION_KEYS:
            raise ConfigError(f"unknown section [{name}] (accepted: "
                              f"{', '.join(SECTION_KEYS)}, job.NAME)")
        for key in items:
            if key not in SECTION_KEYS[name]:
                raise ConfigError(f"unknown key {key!r} in [{name}] (accepted: "
                                  f"{', '.join(SECTION_KEYS[name])})")
    return sections


def load_config(path: str) -> ExperimentConfig:
    sections = _read_sections(path)
    if "field" not in sections:
        raise ConfigError("missing [field] section")
    p = parse_int(sections["field"].get("p", "0"), "field.p")
    k = parse_int(sections["field"].get("k", "1"), "field.k")
    if p < 0 or (p == 0 and k != 1) or (p > 0 and k < 1):
        raise ConfigError(f"invalid field parameters p={p}, k={k}")

    if "a" not in sections.get("curve", {}):
        raise ConfigError("missing [curve] section with key 'a'")
    coeffs = [parse_coordinate(c, "curve.a")
              for c in sections["curve"]["a"].split(",")]
    if len(coeffs) != 5:
        raise ConfigError("curve needs exactly five coefficients a1,a2,a3,a4,a6")
    _check_digits(coeffs, "curve.a", p, k)

    surface = sections.get("surface", {})
    if "q" not in surface:
        raise ConfigError("missing [surface] section with key 'q'")
    q = parse_pair(surface["q"], "surface.q")
    T = parse_pair(surface["t"], "surface.T") if surface.get("t") else None
    _check_digits(q, "surface.q", p, k)
    _check_digits(T, "surface.T", p, k)

    seed = sections.get("run", {}).get("seed")
    seed = parse_int(seed, "run.seed") if seed else 0

    jobs = []
    for section, params in sections.items():
        if not section.startswith("job."):
            continue
        ident = section[4:]    # section names are unique, so idents are too
        if not ident:
            raise ConfigError(f"job section {section!r} needs a name: [job.NAME]")
        kind = params.pop("type", None)
        if kind is None:
            raise ConfigError(f"job {ident!r} has no 'type'")
        kind = kind.strip()
        if kind not in JOB_SCHEMA:
            raise ConfigError(
                f"job {ident!r}: unknown type {kind!r} (known: {', '.join(JOB_TYPES)})")
        finite = FINITE_FIELD_NEEDED.get(kind, p > 0)
        if finite != (p > 0):
            raise ConfigError(f"job {ident!r}: type {kind!r} needs "
                              + ("a finite field" if finite else "the rationals"))
        try:  # the runners read the same values through parse_job
            args = parse_job(kind, params, p)
        except ConfigError as exc:
            raise ConfigError(f"job {ident!r}: {exc}") from None
        for key, value in vars(args).items():
            # random samples from a finite field: Q has no uniform
            # distribution to draw from, so over Q the value must be given
            if p == 0 and value == "random":
                raise ConfigError(f"job {ident!r}: {key!r} = random needs "
                                  f"a finite field; over Q give it explicitly")
            _check_digits(value, f"job {ident!r}: {key!r}", p, k)
        jobs.append(JobSpec(ident, kind, params))

    return ExperimentConfig(p, k, coeffs, q, T, seed, jobs, source=str(path))
