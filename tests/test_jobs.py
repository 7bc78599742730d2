import pytest

from atiyahlab import jobs
from atiyahlab.config import ExperimentConfig, JobSpec
from atiyahlab.fields import make_extension_field
from atiyahlab.jobs import RunContext, _job_rng, run_config, run_job


def make_config(p=0, k=1, coeffs=("0", "0", "0", "-1", "1"), q=("0", "1"),
                T=("-1", "1"), seed=7, jobs=()):
    return ExperimentConfig(p, k, list(coeffs), q, T, seed, list(jobs))


def f4_config(jobs):
    return make_config(p=2, k=2, coeffs=("1", "0", "0", "0", "1"),
                       q=("0", "1"), T=None, jobs=jobs)


def test_rng_is_deterministic_per_index():
    cfg = make_config()
    a = _job_rng(cfg, 0).random()
    b = _job_rng(cfg, 0).random()
    c = _job_rng(cfg, 1).random()
    assert a == b and a != c


def test_lambda_job():
    cfg = make_config(jobs=[JobSpec("lam", "lambda",
                                    {"m": "1, 2", "base": "1, 1", "w0": "2"})])
    rows = run_config(cfg)
    assert len(rows) == 1
    row = rows[0]
    assert row.status == "INFO"
    lam = row.values["lambda"]
    assert lam["1"] == {"value": 1, "status": "found", "observed": [1]}
    assert lam["2"]["value"] == 3
    rec = row.certificates["records"]["2"][0]
    assert rec["status"] == "found"
    assert rec["fullrank_witness"]["rank"] == rec["fullrank_witness"]["cols"]


def test_lambda_job_random_w0_over_q_names_w0():
    # load_config rejects this; a JobSpec built directly still gets a
    # ValueError that names the key, not an AttributeError from the field
    cfg = make_config(jobs=[JobSpec("lam", "lambda",
                                    {"m": "1", "base": "1, 1",
                                     "w0": "random"})])
    row = run_config(cfg)[0]
    assert row.status == "ERROR"
    assert row.error.startswith("ValueError:") and "w0" in row.error


def test_mu_job():
    cfg = make_config(jobs=[JobSpec("mu", "mu",
                                    {"levels": "1, 3", "base": "1, 1",
                                     "w0": "2"})])
    row = run_config(cfg)[0]
    assert row.status == "INFO"
    assert row.values["mu"] == {"1": 1, "3": 2}


def test_verify_multiple_section_job():
    cfg = make_config(jobs=[JobSpec("rigid", "verify-prop22", {"n": "0..4"})])
    row = run_config(cfg)[0]
    assert row.status == "PASS"
    dims = row.values["dims"]
    assert all(v["dim"] == 1 and v["expected"] == 1 for v in dims.values())


def test_verify_multiple_section_char_p():
    cfg = f4_config([JobSpec("rigid2", "verify-prop22", {"n": "0..5"})])
    row = run_config(cfg)[0]
    assert row.status == "PASS"
    dims = {n: v["dim"] for n, v in row.values["dims"].items()}
    assert dims == {"0": 1, "1": 1, "2": 2, "3": 2, "4": 3, "5": 3}


def test_step_check_job():
    cfg = f4_config([JobSpec("step", "verify-prop27",
                             {"base": "1, 1", "w0": "1"})])
    row = run_config(cfg)[0]
    assert row.status == "PASS"
    assert row.values["p"] == 2
    assert row.values["holds"]
    assert row.values["lambda_p"] >= row.values["bound"]


def test_example_theorem_job_char_p():
    cfg = f4_config([JobSpec("ex", "example-theorem",
                             {"level": "11", "multiplicities": "5",
                              "points": "1:1:1"})])
    row = run_config(cfg)[0]
    assert row.status == "PASS"
    assert row.values["characteristic"] == 2
    assert row.values["nonempty"] and row.values["dim"] >= 1
    assert row.values["leftover"] == 2
    witness = row.certificates["witness"]
    assert witness["leftover_infinity_sections"] == 2
    assert witness["class_data"]["sum_ok"]


def test_compare_char_job():
    cfg = make_config(jobs=[JobSpec("cmp", "compare-char",
                                    {"p": "3", "pairs": "3:2",
                                     "base": "1, 1", "w0": "1"})])
    row = run_config(cfg)[0]
    assert row.status == "PASS"
    entry = row.values["rows"][0]
    assert entry["level"] == 3 and entry["m"] == 2
    assert entry["char3"] >= entry["char0"]
    assert row.values["all_semicontinuous"]


def test_compare_char_reduces_w0_as_a_rational(monkeypatch):
    # over F_9 the text "5" names the packed element z + 2, but compare-char
    # reads w0 as the rational 5 and compares against its reduction mod 3
    seen = []

    def record(surface, level, points):
        seen.append(points[0].w0)
        return 0

    monkeypatch.setattr(jobs, "h0_fat", record)
    cfg = make_config(jobs=[JobSpec("cmp", "compare-char",
                                    {"p": "3", "k": "2", "pairs": "3:2",
                                     "base": "1, 1", "w0": "5"})])
    assert run_config(cfg)[0].status == "PASS"
    F9 = make_extension_field(3, 2)
    assert seen[0].raw == 5 and seen[1].raw == F9.from_int(2)


def test_group_order_info_without_expectations():
    cfg = make_config(p=3, T=None,
                      jobs=[JobSpec("ord", "group-order", {})])
    row = run_config(cfg)[0]
    assert row.status == "INFO"
    assert row.values["order"] == 7 and row.values["cyclic"]
    assert "checks" not in row.values


def test_missing_parameter_becomes_error_row():
    cfg = make_config(jobs=[JobSpec("broken", "h0-fat", {"level": "1"})])
    row = run_config(cfg)[0]
    assert row.status == "ERROR"
    assert row.error == "ConfigError: type 'h0-fat' needs the key 'points'"
    assert row.values == {}


def test_rows_keep_config_order_under_parallelism():
    jobs = [JobSpec(f"h0-{i}", "h0", {"levels": "0..1"}) for i in range(5)]
    cfg = make_config(jobs=jobs)
    rows = run_config(cfg)
    assert [r.ident for r in rows] == [f"h0-{i}" for i in range(5)]


def test_run_job_wall_time_recorded():
    cfg = make_config(jobs=[JobSpec("t", "h0", {"levels": "0..1"})])
    ctx = RunContext(cfg)
    row = run_job(ctx, cfg.jobs[0], 0)
    assert row.wall_time > 0
    assert "wall" not in str(sorted(row.to_json_obj()))


@pytest.mark.parametrize("p,kind,params,error", [
    (0, "h0", {"twisted": "maybe"}, "ConfigError"),
    (0, "example-theorem", {"multiplicities": "2, 3", "points": "1:1:2"},
     "ConfigError"),
    (0, "verify-prop27", {}, "ValueError"),
    (0, "verify-prop27", {"base": "1, 1", "w0": "2"}, "ValueError"),
    (0, "group-order", {}, "ValueError"),
    (3, "compare-char", {"base": "1, 1"}, "ValueError"),
], ids=["h0-twisted", "example-theorem-points", "verify-prop27-random-over-Q",
        "verify-prop27-over-Q", "group-order-over-Q", "compare-char-over-F3"])
def test_bad_value_in_direct_jobspec_is_a_library_error(p, kind, params, error):
    # load_config rejects these; a JobSpec built directly still gets a
    # library error naming the problem, not a TypeError or a silent zip
    cfg = make_config(p=p, T=("-1", "1") if p == 0 else None,
                      jobs=[JobSpec("bad", kind, params)])
    row = run_config(cfg)[0]
    assert row.status == "ERROR" and row.error.startswith(error + ": ")
