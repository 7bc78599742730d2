from pathlib import Path

import pytest

from atiyahlab.cli import main
from atiyahlab.config import (
    FINITE_FIELD_NEEDED,
    JOB_SCHEMA,
    REQUIRED,
    ConfigError,
    load_config,
    parse_bool,
    parse_int,
    parse_int_list,
    parse_records,
)

GOOD = """\
[field]
p = 0
k = 1

[curve]
a = 0, 0, 0, -1, 1   ; short model

[surface]
q = 0, 1
T = -1, 1

[run]
seed = 42

[job.first]
type = h0
levels = 0..2

[job.second]
type = lambda
m = 1, 2
base = 1, 1
w0 = 2
"""


def write(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_load_good_config(tmp_path):
    cfg = load_config(write(tmp_path, GOOD))
    assert cfg.p == 0 and cfg.k == 1
    assert cfg.curve_coeffs == ["0", "0", "0", "-1", "1"]
    assert cfg.q == ("0", "1")
    assert cfg.T == ("-1", "1")
    assert cfg.seed == 42
    assert [j.ident for j in cfg.jobs] == ["first", "second"]
    assert cfg.jobs[0].kind == "h0"
    assert cfg.jobs[0].params == {"levels": "0..2"}
    assert cfg.jobs[1].params["base"] == "1, 1"
    echo = cfg.echo()
    assert echo["field"] == {"p": 0, "k": 1}
    assert echo["jobs"][1]["type"] == "lambda"


def test_defaults(tmp_path):
    text = "[field]\np = 3\nk = 2\n[curve]\na = 0,0,0,-1,1\n[surface]\nq = 0,1\n"
    cfg = load_config(write(tmp_path, text))
    assert cfg.T is None and cfg.seed == 0 and cfg.jobs == []
    assert cfg.p == 3 and cfg.k == 2


def test_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/path.ini")


@pytest.mark.parametrize("text,fragment", [
    ("[curve]\na = 0,0,0,-1,1\n[surface]\nq = 0,1\n", "field"),
    ("[field]\np = 0\n[surface]\nq = 0,1\n", "curve"),
    ("[field]\np = 0\n[curve]\na = 1,2,3\n[surface]\nq = 0,1\n", "five"),
    ("[field]\np = 0\n[curve]\na = 0,0,0,-1,1\n", "surface"),
    ("[field]\np = 0\n[curve]\na = 0,0,0,-1,1\n[surface]\nq = 0,1,2\n", "two"),
    ("[field]\np = -3\n[curve]\na = 0,0,0,-1,1\n[surface]\nq = 0,1\n", "invalid"),
    ("[field]\np = 0\nk = 2\n[curve]\na = 0,0,0,-1,1\n[surface]\nq = 0,1\n",
     "invalid"),
    ("[field]\np = x\n[curve]\na = 0,0,0,-1,1\n[surface]\nq = 0,1\n", "integer"),
])
def test_structural_errors(tmp_path, text, fragment):
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, text))
    assert fragment in str(err.value)


BASE = "[field]\np = 0\n[curve]\na = 0,0,0,-1,1\n[surface]\nq = 0,1\n"


def test_job_errors(tmp_path):
    with pytest.raises(ConfigError, match="no 'type'"):
        load_config(write(tmp_path, BASE + "[job.a]\nlevels = 1\n"))
    with pytest.raises(ConfigError, match="unknown type"):
        load_config(write(tmp_path, BASE + "[job.a]\ntype = frobnicate\n"))
    with pytest.raises(ConfigError, match="needs a name"):
        load_config(write(tmp_path, BASE + "[job.]\ntype = h0\n"))
    # configparser itself forbids duplicate section names, which covers
    # duplicate job ids at the file level
    with pytest.raises(ConfigError, match="already exists"):
        load_config(write(tmp_path,
                          BASE + "[job.a]\ntype = h0\n[job.a]\ntype = mu\n"))


def test_parse_int_list():
    assert parse_int_list("0..4, 7", "x") == [0, 1, 2, 3, 4, 7]
    assert parse_int_list("3", "x") == [3]
    assert parse_int_list("1, 1, 2", "x") == [1, 1, 2]
    with pytest.raises(ConfigError):
        parse_int_list("7..3", "x")
    with pytest.raises(ConfigError):
        parse_int_list("", "x")
    with pytest.raises(ConfigError):
        parse_int_list("a..b", "x")


def test_parse_bool():
    assert parse_bool("true", "x") and parse_bool("Yes", "x") and parse_bool("1", "x")
    assert not parse_bool("off", "x")
    with pytest.raises(ConfigError):
        parse_bool("maybe", "x")


def test_parse_int():
    assert parse_int(" -7 ", "x") == -7
    with pytest.raises(ConfigError):
        parse_int("3.5", "x")


def test_parse_fat_points():
    pts = parse_records("1 : 1 : 2 : 5; 0:-1:3:2", "pts", "x:y:w0:m")
    assert pts == [("1", "1", "2", 5), ("0", "-1", "3", 2)]
    with pytest.raises(ConfigError):
        parse_records("1:1:2", "pts", "x:y:w0:m")
    with pytest.raises(ConfigError):
        parse_records(";", "pts", "x:y:w0:m")


def test_parse_plain_points():
    assert parse_records("1:1:0", "pts", "x:y:w0") == [("1", "1", "0")]
    with pytest.raises(ConfigError):
        parse_records("1:1:0:4", "pts", "x:y:w0")


def test_parse_level_mult_pairs():
    assert parse_records("3:2; 6:3", "pairs", "level:m") == [(3, 2), (6, 3)]
    with pytest.raises(ConfigError):
        parse_records("3", "pairs", "level:m")


@pytest.mark.parametrize("name", ["acceptance.ini", "char2-witness.ini",
                                  "char3-reduction.ini"])
def test_shipped_configs_load(name):
    path = Path(__file__).resolve().parent.parent / "configs" / name
    assert load_config(str(path)).jobs


def test_unknown_job_key_rejected(tmp_path):
    text = GOOD.replace("levels = 0..2", "leves = 0..2")
    with pytest.raises(ConfigError, match="unknown key 'leves'.*'h0'"):
        load_config(write(tmp_path, text))


@pytest.mark.parametrize("kind,key,present", [
    ("h0-fat", "points", "level = 1\npoints = 1 : 1 : 2 : 2\n"),
    ("compare-char", "base", "p = 3\nbase = 1, 1\n"),
], ids=["h0-fat", "compare-char"])
def test_required_job_key_rejected_when_missing(tmp_path, kind, key, present):
    good = GOOD + f"\n[job.third]\ntype = {kind}\n" + present
    assert load_config(write(tmp_path, good)).jobs[-1].kind == kind
    missing = "".join(line + "\n" for line in present.splitlines()
                      if not line.startswith(key))
    for text in (missing, missing + f"{key} =\n"):
        bad = GOOD + f"\n[job.third]\ntype = {kind}\n" + text
        with pytest.raises(ConfigError, match=f"'third'.*'{kind}'.*'{key}'"):
            load_config(write(tmp_path, bad))


# (type, accepted p and lines, rejected p and lines, message of the rejection)
BAD_VALUES = [
    ("h0", 0, "twisted = both\n", 0, "twisted = maybe\n", "true/false/both"),
    ("example-theorem", 0, "multiplicities = 2, 3\npoints = 1:1:2; 3:5:1\n",
     0, "multiplicities = 2, 3\npoints = 1:1:2\n", "one point per multiplicity"),
    ("verify-prop27", 3, "", 0, "", "needs a finite field"),
    ("group-order", 3, "", 0, "", "needs a finite field"),
    ("compare-char", 0, "base = 1, 1\n", 3, "base = 1, 1\n", "needs the rationals"),
    # random samples from a finite field, so over Q it cannot run
    ("lambda", 3, "base = 1, 1\n", 0, "base = 1, 1\n",
     "'w0' = random needs a finite field"),
    ("lambda", 3, "w0 = 2\n", 0, "w0 = 2\n", "'base' = random needs a finite field"),
    ("mu", 3, "w0 = 2\n", 0, "w0 = 2\n", "'base' = random needs a finite field"),
    ("mu", 3, "base = 1, 1\n", 0, "base = 1, 1\n",
     "'w0' = random needs a finite field"),
    ("example-theorem", 3, "", 0, "", "'points' = random needs a finite field"),
]
BAD_VALUE_IDS = ["h0-twisted", "example-theorem-points", "verify-prop27-over-Q",
                 "group-order-over-Q", "compare-char-over-F3",
                 "lambda-random-w0-over-Q", "lambda-random-base-over-Q",
                 "mu-random-base-over-Q", "mu-random-w0-over-Q",
                 "example-theorem-random-points-over-Q"]


def with_job(p, kind, lines):
    return (GOOD.replace("p = 0", f"p = {p}")
            + f"\n[job.third]\ntype = {kind}\n" + lines)


@pytest.mark.parametrize("kind,p,good,bad_p,bad,message", BAD_VALUES,
                         ids=BAD_VALUE_IDS)
def test_bad_job_value_rejected_at_load(tmp_path, kind, p, good, bad_p, bad,
                                        message):
    assert load_config(write(tmp_path, with_job(p, kind, good))).jobs[-1].kind == kind
    with pytest.raises(ConfigError, match=f"'third'.*{message}"):
        load_config(write(tmp_path, with_job(bad_p, kind, bad)))


# One malformed value per job key; a key missing here fails the test below.
MALFORMED = {
    "levels": "0..x", "twisted": "maybe", "level": "one", "points": "1:1:2",
    "m": "0", "base": "1", "w0": "x", "cap": "-1", "trials": "0",
    "certify": "maybe", "n": "3..1", "multiplicities": "2, x",
    "expect_order": "seven", "expect_cyclic": "sometimes", "p": "4", "k": "0",
    "pairs": "3",
}
# 1:1:2 is a well-formed x:y:w0 record
MALFORMED_FOR = {("example-theorem", "points"): "1:1:2:5"}
# well-formed values of the keys that have no default
REQUIRED_VALUES = {"points": "1 : 1 : 2 : 2", "base": "1, 1"}
# well-formed values of the keys whose default random needs a finite field
EXPLICIT_OVER_QQ = {"base": "1, 1", "w0": "2", "points": "1 : 1 : 2"}
SCHEMA_KEYS = [(kind, key) for kind, schema in JOB_SCHEMA.items()
               for key in schema]


@pytest.mark.parametrize("kind,key", SCHEMA_KEYS,
                         ids=[f"{kind}-{key}" for kind, key in SCHEMA_KEYS])
def test_malformed_job_value_rejected_at_load(tmp_path, capsys, kind, key):
    p = 3 if FINITE_FIELD_NEEDED.get(kind) else 0
    values = {k: REQUIRED_VALUES[k] for k, (_, default) in JOB_SCHEMA[kind].items()
              if default is REQUIRED}
    if p == 0:
        values.update((k, EXPLICIT_OVER_QQ[k])
                      for k, (_, default) in JOB_SCHEMA[kind].items()
                      if default == "random")
    good = "".join(f"{k} = {v}\n" for k, v in values.items())
    assert load_config(write(tmp_path, with_job(p, kind, good))).jobs[-1].kind == kind
    values[key] = MALFORMED_FOR.get((kind, key), MALFORMED[key])
    bad = "".join(f"{k} = {v}\n" for k, v in values.items())
    cfg = write(tmp_path, with_job(p, kind, bad))
    with pytest.raises(ConfigError) as err:
        load_config(cfg)
    assert str(err.value).startswith(f"job 'third': '{key}'")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert str(err.value) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


F9 = GOOD.replace("p = 0\nk = 1", "p = 3\nk = 2").replace("T = -1, 1", "T = 2, 1")
F9_JOB = "\n[job.third]\ntype = {kind}\n{lines}"


@pytest.mark.parametrize("where,lines,key", [
    ("surface", "q = 0, 1\nT = 10, 1", "surface.T"),
    ("surface", "q = 0, 9\nT = 2, 1", "surface.q"),
    ("job", ("h0-fat", "points = 0 : 1 : 2 : 1; 1 : 11 : 2 : 1"), "'points'"),
    ("job", ("lambda", "base = 1, 1\nw0 = 9"), "'w0'"),
    ("job", ("mu", "base = 12, 1\nw0 = 2"), "'base'"),
    ("job", ("example-theorem", "multiplicities = 2\npoints = 1 : 1 : 27"),
     "'points'"),
    ("surface", "q = 0, 1\nT = +10, 1", "surface.T"),
    ("surface", "q = 0, 8/1\nT = 2, 1", "surface.q"),
    ("curve", "a = 0, 0, 0, -1, -5", "curve.a"),
    ("job", ("lambda", "base = 1, 1\nw0 = 4/2"), "'w0'"),
    ("job", ("mu", "base = -5, 1\nw0 = 2"), "'base'"),
    ("job", ("h0-fat", "points = 0 : 1 : 2 : 1; 1 : 1 : -3 : 1"), "'points'"),
], ids=["T", "q", "record-y", "w0", "base", "record-w0", "T-sign", "q-slash",
        "curve-sign", "w0-slash", "base-sign", "record-w0-sign"])
def test_digits_past_the_extension_field_rejected_at_load(tmp_path, capsys,
                                                          where, lines, key):
    # over F_9 decimal digits name packed integers 0..8: 10 names no element;
    # other text is a fraction mod 3, so its runs of digits must be below 3:
    # '+10' would run as 1 and '8/1' as 2
    if where == "surface":
        text = F9.replace("q = 0, 1\nT = 2, 1", lines)
    elif where == "curve":
        text = F9.replace("a = 0, 0, 0, -1, 1", lines)
    else:
        kind, body = lines
        text = F9 + F9_JOB.format(kind=kind, lines=body)
    cfg = write(tmp_path, text)
    with pytest.raises(ConfigError, match=f"{key}.*no element of F_9"):
        load_config(cfg)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_digits_below_the_field_order_load(tmp_path):
    text = F9 + F9_JOB.format(kind="lambda", lines="base = 1, 1\nw0 = 8")
    assert load_config(write(tmp_path, text)).T == ("2", "1")
    # signs and slashes with digits below p are fractions mod p
    text = (F9.replace("a = 0, 0, 0, -1, 1", "a = 0, 0, 0, -1/2, 1")
            + F9_JOB.format(kind="lambda", lines="base = -1, 2/1\nw0 = 1/2"))
    cfg = load_config(write(tmp_path, text))
    assert cfg.curve_coeffs[3] == "-1/2"
    assert cfg.jobs[-1].params["base"] == "-1, 2/1"
    # over F_p any number text reduces mod p
    F3 = GOOD.replace("p = 0", "p = 3").replace("T = -1, 1", "T = 11, 1")
    assert load_config(write(tmp_path, F3)).T == ("11", "1")
    F3 = GOOD.replace("p = 0", "p = 3").replace("T = -1, 1", "T = +11, 8/5")
    assert load_config(write(tmp_path, F3)).T == ("+11", "8/5")


def test_curve_coefficients_parsed_at_load(tmp_path):
    bad = GOOD.replace("a = 0, 0, 0, -1, 1", "a = 0, 0, 0, x, 1")
    with pytest.raises(ConfigError, match="curve.a must be an exact number"):
        load_config(write(tmp_path, bad))


def test_default_section_rejected_by_name(tmp_path, capsys):
    # configparser copies [DEFAULT] keys into every section, where they
    # would be reported as unknown keys of the first one; an empty
    # [DEFAULT] copies nothing and is harmless
    shipped = Path(__file__).resolve().parent.parent / "configs" / "acceptance.ini"
    assert load_config(write(tmp_path, "[DEFAULT]\n" + shipped.read_text())).jobs
    cfg = write(tmp_path, "[DEFAULT]\nseed = 3\n\n" + shipped.read_text())
    with pytest.raises(ConfigError, match=r"^\[DEFAULT\] is not accepted"):
        load_config(cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "[DEFAULT] is not accepted" in err and "[field]" not in err
    assert not out.exists()
