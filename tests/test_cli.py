import json
from collections import Counter
from pathlib import Path

import pytest

from atiyahlab import jobs
from atiyahlab.cli import main
from atiyahlab.curve import WeierstrassCurve
from atiyahlab.fields import make_extension_field
from atiyahlab.surface import AtiyahSurface, make_surface

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

TINY = """\
[field]
p = 0

[curve]
a = 0, 0, 0, -1, 1

[surface]
q = 0, 1
T = -1, 1

[run]
seed = 5

[job.h0-small]
type = h0
levels = 0..2
twisted = both

[job.twist-check]
type = verify-prop23
levels = 0..2
"""

ORDER_FAIL = """\
[field]
p = 3
k = 1

[curve]
a = 0, 0, 0, -1, 1

[surface]
q = 0, 1

[job.order]
type = group-order
expect_order = 8
"""

JOB_ERROR = """\
[field]
p = 0

[curve]
a = 0, 0, 0, -1, 1

[surface]
q = 0, 1

[job.bad-point]
type = h0-fat
level = 1
points = 0:1:0:1
"""


def write(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_successful_run(tmp_path, capsys):
    cfg = write(tmp_path, TINY)
    out = tmp_path / "out"
    code = main(["run", "--config", cfg, "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "[INFO] h0-small (h0)" in printed
    assert "[PASS] twist-check (verify-prop23)" in printed
    assert (out / "report.json").exists()
    assert (out / "report.csv").exists()
    payload = json.loads((out / "report.json").read_text())
    assert payload["schema_version"] == 1
    assert payload["config"]["seed"] == 5
    assert [r["id"] for r in payload["results"]] == ["h0-small", "twist-check"]
    assert payload["results"][1]["status"] == "PASS"
    dims = payload["results"][0]["values"]["dims"]
    assert dims["plain"] == {"0": 1, "1": 1, "2": 1}
    assert dims["twisted"] == {"0": 1, "1": 2, "2": 3}


def test_json_is_byte_stable(tmp_path, capsys):
    cfg = write(tmp_path, TINY)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(a)]) == 0
    assert main(["run", "--config", cfg, "--out", str(b)]) == 0
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


def test_parallel_matches_serial(tmp_path, capsys):
    cfg = write(tmp_path, TINY)
    a, b = tmp_path / "serial", tmp_path / "parallel"
    assert main(["run", "--config", cfg, "--out", str(a), "--jobs", "1"]) == 0
    assert main(["run", "--config", cfg, "--out", str(b), "--jobs", "4"]) == 0
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


def test_json_excludes_wall_time(tmp_path, capsys):
    cfg = write(tmp_path, TINY)
    out = tmp_path / "out"
    main(["run", "--config", cfg, "--out", str(out)])
    assert "wall_time" not in (out / "report.json").read_text()


def test_csv_has_wall_time_column(tmp_path, capsys):
    cfg = write(tmp_path, TINY)
    out = tmp_path / "out"
    main(["run", "--config", cfg, "--out", str(out)])
    lines = (out / "report.csv").read_text().splitlines()
    assert lines[0] == "id,type,status,summary,error,wall_time_s"
    assert len(lines) == 3
    assert lines[1].startswith("h0-small,h0,INFO,")


def test_format_selection(tmp_path, capsys):
    cfg = write(tmp_path, TINY)
    out = tmp_path / "csv_only"
    main(["run", "--config", cfg, "--out", str(out), "--format", "csv"])
    assert (out / "report.csv").exists()
    assert not (out / "report.json").exists()
    out2 = tmp_path / "json_only"
    main(["run", "--config", cfg, "--out", str(out2), "--format", "json"])
    assert (out2 / "report.json").exists()
    assert not (out2 / "report.csv").exists()


def test_failing_expectation_exits_1(tmp_path, capsys):
    cfg = write(tmp_path, ORDER_FAIL)
    out = tmp_path / "out"
    code = main(["run", "--config", cfg, "--out", str(out)])
    assert code == 1
    assert "[FAIL] order (group-order)" in capsys.readouterr().out
    payload = json.loads((out / "report.json").read_text())
    row = payload["results"][0]
    assert row["status"] == "FAIL"
    assert row["values"]["order"] == 7           # the true order
    assert row["values"]["checks"]["order"] is False


def test_job_error_exits_1_without_aborting(tmp_path, capsys):
    # a fat point on the marked fiber is a per-job error, not a crash
    cfg = write(tmp_path, JOB_ERROR)
    out = tmp_path / "out"
    code = main(["run", "--config", cfg, "--out", str(out)])
    assert code == 1
    printed = capsys.readouterr().out
    assert "[ERROR] bad-point (h0-fat)" in printed
    payload = json.loads((out / "report.json").read_text())
    assert payload["results"][0]["status"] == "ERROR"
    assert "ValueError" in payload["results"][0]["error"]


@pytest.mark.parametrize("mutate,fragment", [
    (lambda t: t.replace("p = 0", "p = 4"), "not prime"),
    (lambda t: t.replace("q = 0, 1", "q = 5, 5"), "not on the curve"),
    (lambda t: t.replace("T = -1, 1", "T = 0, 1"), "differ"),
    (lambda t: t.replace("a = 0, 0, 0, -1, 1", "a = 0, 0, 0, 0, 0"),
     "singular"),
])
def test_inconsistent_data_exits_2(tmp_path, capsys, mutate, fragment):
    cfg = write(tmp_path, mutate(TINY))
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    assert fragment in capsys.readouterr().err


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.ini")]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_subcommand_filters_jobs(tmp_path, capsys):
    cfg = write(tmp_path, TINY)
    out = tmp_path / "out"
    code = main(["verify-prop23", "--config", cfg, "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "twist-check" in printed
    assert "h0-small" not in printed
    payload = json.loads((out / "report.json").read_text())
    assert len(payload["results"]) == 1


def test_subcommand_without_matching_jobs_exits_2(tmp_path, capsys):
    cfg = write(tmp_path, TINY)
    assert main(["lambda", "--config", cfg]) == 2
    assert "no job of type 'lambda'" in capsys.readouterr().err


def test_out_env_var(tmp_path, capsys, monkeypatch):
    cfg = write(tmp_path, TINY)
    target = tmp_path / "from_env"
    monkeypatch.setenv("ATIYAHLAB_OUT", str(target))
    assert main(["run", "--config", cfg]) == 0
    assert (target / "report.json").exists()


def test_seed_override_recorded(tmp_path, capsys):
    cfg = write(tmp_path, TINY)
    out = tmp_path / "out"
    main(["run", "--config", cfg, "--out", str(out), "--seed", "99"])
    payload = json.loads((out / "report.json").read_text())
    assert payload["config"]["seed"] == 99


def test_bad_jobs_flag_exits_2(tmp_path, capsys):
    cfg = write(tmp_path, TINY)
    assert main(["run", "--config", cfg, "--jobs", "0"]) == 2


def test_jobs_flag_solves_each_space_once(tmp_path, capsys, monkeypatch):
    # verify-prop23 and verify-prop27 share twisted spaces; every
    # (surface, level) must be solved once, for both spaces, and then cached
    solves = Counter()
    original = AtiyahSurface._solve

    def counting(self, level):
        solves[(id(self), level)] += 1
        return original(self, level)

    monkeypatch.setattr(AtiyahSurface, "_solve", counting)
    cfg = str(CONFIGS / "char3-reduction.ini")
    assert main(["run", "--config", cfg, "--jobs", "2",
                 "--out", str(tmp_path)]) == 0
    assert solves and max(solves.values()) == 1


def test_unexpected_exception_keeps_other_rows(tmp_path, capsys, monkeypatch):
    def broken(ctx, params, rng):
        raise TypeError("unsupported operand")

    monkeypatch.setitem(jobs._RUNNERS, "verify-prop22", broken)
    text = TINY.replace("[job.twist-check]", """[job.broken]
type = verify-prop22

[job.twist-check]""")
    cfg = write(tmp_path, text)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    printed = capsys.readouterr().out
    assert "[ERROR] broken (verify-prop22) — TypeError: unsupported operand" in printed
    payload = json.loads((out / "report.json").read_text())
    assert [r["status"] for r in payload["results"]] == ["INFO", "ERROR", "PASS"]


def test_misspelled_job_key_exits_2(tmp_path, capsys):
    text = (CONFIGS / "char3-reduction.ini").read_text().replace(
        "levels = 0..6", "leves = 0..2")
    cfg = write(tmp_path, text)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "'leves'" in err and "'twist-dims'" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind,key,extra", [
    ("h0-fat", "points", "level = 1\n"),
    ("compare-char", "base", "pairs = 3:2\n"),
], ids=["h0-fat", "compare-char"])
def test_missing_required_job_key_exits_2(tmp_path, capsys, kind, key, extra):
    cfg = write(tmp_path, TINY + f"\n[job.incomplete]\ntype = {kind}\n" + extra)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "'incomplete'" in err and f"'{key}'" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind,p,extra", [
    ("h0", 0, "twisted = maybe\n"),
    ("example-theorem", 0, "multiplicities = 2, 3\npoints = 1:1:2\n"),
    ("verify-prop27", 0, ""),
    ("group-order", 0, ""),
    ("compare-char", 3, "base = 1, 1\n"),
    ("lambda", 0, "base = 1, 1\n"),
    ("lambda", 0, "w0 = 2\n"),
    ("mu", 0, "w0 = 2\n"),
    ("mu", 0, "base = 1, 1\n"),
    ("example-theorem", 0, ""),
], ids=["h0-twisted", "example-theorem-points", "verify-prop27-over-Q",
        "group-order-over-Q", "compare-char-over-F3", "lambda-random-w0-over-Q",
        "lambda-random-base-over-Q", "mu-random-base-over-Q",
        "mu-random-w0-over-Q", "example-theorem-random-points-over-Q"])
def test_bad_job_value_exits_2(tmp_path, capsys, kind, p, extra):
    text = TINY.replace("p = 0", f"p = {p}") + f"\n[job.bad]\ntype = {kind}\n"
    cfg = write(tmp_path, text + extra)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "'bad'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


F9_EXT = """\
[field]
p = 3
k = 2

[curve]
a = 0, 0, 0, 1, 1           ; y^2 = x^3 + x + 1

[surface]
q = 3, 1                    ; (z, 1), z the generator of F_9 over F_3
T = 5, 3                    ; (z + 2, z)

[job.spaces]
type = h0
levels = 0..3
twisted = both
"""


def test_config_coordinates_are_packed_integers(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", write(tmp_path, F9_EXT), "--out", str(out)]) == 0
    payload = json.loads((out / "report.json").read_text())
    spaces = payload["results"][0]["certificates"]["spaces"]
    F9 = make_extension_field(3, 2)
    E = WeierstrassCurve(F9, 0, 0, 0, 1, 1)
    surf = make_surface(E, E.point([0, 1], 1), T=E.point([2, 1], [0, 1]))
    for key, twisted in (("plain", False), ("twisted", True)):
        for level in range(4):
            expect = json.loads(json.dumps(surf.h0(level, twisted).serialize()))
            assert spaces[key][str(level)] == expect


def test_digits_past_the_extension_field_exit_2(tmp_path, capsys):
    # over F_9 the digits 10 name no packed element; they once ran as 1
    text = TINY.replace("p = 0", "p = 3\nk = 2").replace("T = -1, 1", "T = 10, 1")
    out = tmp_path / "out"
    assert main(["run", "--config", write(tmp_path, text), "--out", str(out)]) == 2
    assert "surface.T: 10 names no element of F_9" in capsys.readouterr().err
    assert not out.exists()


def test_signed_digits_past_p_exit_2(tmp_path, capsys):
    # over F_9 '+10' is a fraction whose digits 10 exceed 3; it once ran as
    # (1, 1) and wrote a report
    text = TINY.replace("p = 0", "p = 3\nk = 2").replace("T = -1, 1", "T = +10, 1")
    out = tmp_path / "out"
    assert main(["run", "--config", write(tmp_path, text), "--out", str(out)]) == 2
    assert "surface.T: +10 names no element of F_9" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("data,fragment", [
    (TINY.replace("seed = 5", "seed = 5\nseed = 6").encode(), "already exists"),
    ((TINY + "[run]\nseed = 6\n").encode(), "already exists"),
    (("p = 0\n" + TINY).encode(), "no section headers"),
    (TINY.replace("[run]", "[run]\nthis line is junk").encode(), "parsing errors"),
    (TINY.replace("seed = 5", "seed = %(x)s").encode(), "'x'"),
    (TINY.encode() + b"; caf\xe9\n", "utf-8"),
], ids=["duplicate-key", "duplicate-section", "no-section-header", "junk-line",
        "interpolation", "not-utf-8"])
def test_malformed_ini_exits_2(tmp_path, capsys, data, fragment):
    # configparser and the decoder reject these files; each is a
    # configuration error, not a traceback
    path = tmp_path / "exp.ini"
    path.write_bytes(data)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and fragment in err
    assert not out.exists()


@pytest.mark.parametrize("mutate,fragment", [
    (lambda t: t.replace("seed = 5", "sead = 7"), "'sead' in [run]"),
    (lambda t: t.replace("T = -1, 1", "Tpoint = 1, 1"), "'tpoint' in [surface]"),
    (lambda t: t.replace("T = -1, 1", "T = -1, 1\nt = -1, 1"), "already exists"),
    (lambda t: t.replace("k = 1", "k = 1\nq = 2"), "'q' in [field]"),
    (lambda t: t.replace("a = 0, 0, 0, -1, 1", "a = 0, 0, 0, -1, 1\nb = 1"),
     "'b' in [curve]"),
    (lambda t: t + "[Job.a]\ntype = h0\n", "[Job.a]"),
    (lambda t: t + "[extra]\nnote = 1\n", "[extra]"),
    (lambda t: t + "[jobs.b]\ntype = h0\n", "[jobs.b]"),
    (lambda t: t + "[job]\ntype = h0\n", "[job]"),
], ids=["run-key", "surface-key", "T-and-t", "field-key", "curve-key",
        "capital-job", "extra-section", "jobs-prefix", "job-without-name"])
def test_mistyped_key_or_section_exits_2(tmp_path, capsys, mutate, fragment):
    # a mistyped key would fall back to its default and a mistyped section
    # would be dropped, so both are configuration errors
    text = mutate(TINY.replace("p = 0", "p = 0\nk = 1"))
    out = tmp_path / "out"
    assert main(["run", "--config", write(tmp_path, text), "--out", str(out)]) == 2
    assert fragment in capsys.readouterr().err
    assert not out.exists()


TWO_TORSION = """\
[field]
p = 0

[curve]
a = 0, 0, 0, -1, 0          ; y^2 = x^3 - x

[surface]
q = 0, 0                    ; 2-torsion: -q = q

[job.dims]
type = h0
levels = 0..2
"""


def test_two_torsion_q_over_Q_needs_T(tmp_path, capsys):
    # make_surface would fall back to enumerating points, which Q cannot do
    out = tmp_path / "out"
    assert main(["run", "--config", write(tmp_path, TWO_TORSION),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "2-torsion" in err and "T is required" in err
    assert not out.exists()
    text = TWO_TORSION.replace("; 2-torsion: -q = q", "\nT = 1, 0")
    assert main(["run", "--config", write(tmp_path, text), "--out", str(out)]) == 0


def test_example_theorem_over_Q(tmp_path, capsys):
    # inside the range (2 * 11 < 5^2) the one 5-fold point leaves the system
    # empty; at level 14 with multiplicities 3, 3 (28 >= 18) the theorem
    # claims nothing, so the job is an ERROR, not a counterexample
    text = TINY.replace("[job.h0-small]", """[job.in-range]
type = example-theorem
level = 11
multiplicities = 5
points = 1:1:2

[job.out-of-range]
type = example-theorem
level = 14
multiplicities = 3, 3
points = 1:1:2; 1:-1:3

[job.h0-small]""")
    out = tmp_path / "out"
    assert main(["run", "--config", write(tmp_path, text), "--out", str(out)]) == 1
    rows = json.loads((out / "report.json").read_text())["results"]
    assert [r["status"] for r in rows] == ["PASS", "ERROR", "INFO", "PASS"]
    assert rows[0]["values"]["dim"] == 0 and rows[0]["values"]["empty"]
    assert "outside the theorem's range" in rows[1]["error"]
    assert "28 < 18" in rows[1]["error"]
