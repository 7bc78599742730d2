"""Tests of the benchmark's own logic: self-time arithmetic, span nesting
across threads, the per-layer counters and the correctness gate.

    python3 -m pytest bench
"""

import hashlib
import os
import sys
import threading

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import instrument  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Trace, covered_length  # noqa: E402


def _span(sid, name, start, end, parent=None, **attrs):
    return Span(sid, name, start, end, parent, "t", 0, attrs)


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([], 0, 10) == 0
    assert covered_length([(1, 3), (2, 5)], 0, 10) == 4
    assert covered_length([(1, 2), (4, 6)], 0, 10) == 3
    assert covered_length([(-5, 2), (8, 20)], 0, 10) == 4
    assert covered_length([(1, 9), (2, 3), (4, 5)], 0, 10) == 8


def test_self_time_nested_and_overlapping_children():
    trace = Trace([
        _span(1, "surface.h0", 0, 10),
        _span(2, "linalg.rank", 1, 3, parent=1),
        _span(3, "linalg.rank", 2, 5, parent=1),      # overlaps span 2
        _span(4, "funcfield.expand", 8, 12, parent=1),  # runs past parent
        _span(5, "linalg.rank", 3, 4, parent=3),      # grandchild
    ])
    assert trace.self_time[1] == 10 - 4 - 2
    assert trace.self_time[3] == 3 - 1
    assert trace.self_time[5] == 1
    assert trace.self_total("linalg.rank") == 2 + 2 + 1
    assert trace.layer_self("linalg") == 5
    assert trace.layer_self("surface") == 4


def test_total_counts_nested_repeats_once():
    trace = Trace([
        _span(1, "fat_points.fat_system", 0, 10),
        _span(2, "fat_points.fat_system", 1, 4, parent=1),
        _span(3, "fat_points.fat_system", 20, 22),
    ])
    assert trace.total("fat_points.fat_system") == 12


def test_worker_thread_spans_adopt_the_submitting_span():
    rec = spans.Recorder()
    with rec.span("jobs.run_config") as outer:
        rec.adopted = outer.id

        def work():
            with rec.span("jobs.run_job"):
                with rec.span("surface.h0"):
                    pass

        workers = [threading.Thread(target=work) for _ in range(2)]
        for t in workers:
            t.start()
        with rec.span("linalg.rank"):
            pass
        for t in workers:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in workers)
    by_name = {}
    for s in rec.spans:
        by_name.setdefault(s.name, []).append(s)
    ids = {s.id for s in rec.spans}
    assert len(ids) == len(rec.spans)
    assert all(s.parent == outer.id for s in by_name["jobs.run_job"])
    assert by_name["linalg.rank"][0].parent == outer.id
    job_ids = {s.id for s in by_name["jobs.run_job"]}
    assert {s.parent for s in by_name["surface.h0"]} == job_ids


def test_layer_metrics_counts_solves_and_expansion_parents():
    m = run.layer_metrics([[
        _span(1, "surface.h0", 0, 10),
        _span(2, "linalg.rank_and_kernel", 0, 2, parent=1, rows=3, cols=4,
              bits=7),
        _span(3, "linalg.rank", 2, 3, parent=1, rows=5, cols=4),
        _span(4, "surface.validate", 3, 9, parent=1),
        _span(5, "funcfield.expand", 4, 6, parent=4),
        _span(6, "funcfield.expand", 9, 9.5, parent=1),
        _span(7, "surface.h0", 11, 11.1),           # cache hit
        _span(8, "fat_points.jet_matrix", 12, 14),
        _span(9, "funcfield.expand", 12.5, 13, parent=8),
    ]])
    assert m["surface.h0.calls"] == 2
    assert m["surface.h0.solves"] == 1
    assert m["surface.h0.hit_ratio"] == 0.5
    assert m["linalg.calls"] == 2
    assert m["linalg.cells"] == 12 + 20
    assert m["linalg.max_entry_bits"] == 7
    assert m["funcfield.expand.calls"] == 3
    assert m["funcfield.expand.in_validate_s"] == 2
    assert m["funcfield.expand.in_solve_s"] == 0.5
    assert m["funcfield.expand.in_jets_s"] == 0.5
    assert m["surface.validate.share"] == 6 / 10.1


def test_gate_counts_exceptions_and_wrong_answers_without_raising():
    gate = workloads.Gate()
    gate.run("ok", lambda: 3, workloads.expect(3))
    gate.run("wrong", lambda: 3, workloads.expect(4))
    gate.run("raises", lambda: 1 // 0, workloads.expect(0))
    assert (gate.attempted, gate.failed) == (3, 2)
    assert "ZeroDivisionError" in gate.notes[-1]


def test_wrong_pinned_digest_or_exit_code_is_a_failed_operation():
    data = b'{"schema_version": 1}\n'
    right = hashlib.sha256(data).hexdigest()
    gate = workloads.Gate()
    gate.run("right", lambda: (0, "", data), workloads.cli_verdict(right))
    gate.run("unpinned", lambda: (0, "", data), workloads.cli_verdict(None))
    gate.run("digest", lambda: (0, "", data),
             workloads.cli_verdict("0" * 64))
    gate.run("exit", lambda: (1, "Traceback ...\nKeyError: 'points'\n",
                              data), workloads.cli_verdict(right))
    assert (gate.attempted, gate.failed) == (4, 2)
    assert gate.notes[-1].endswith("KeyError: 'points'")


class _WrongPlainDim(workloads.H0Rational):
    levels = (2, 3)

    def plain_dim(self, level):
        return 2


def test_wrong_pinned_dimension_raises_fail_rate_and_run_completes():
    wl = _WrongPlainDim()
    gate = workloads.Gate()
    run.one_pass(wl, gate)
    assert gate.attempted == 4
    assert gate.failed == 2   # both plain dims; the twisted ones pass


def test_fat_point_pins_match_at_default_seed():
    wl = workloads.FatRational(seed=workloads.DEFAULT_SEED)
    assert (wl.base, wl.w0) == ((1, 1), 2)
    other = workloads.FatRational(seed=12345)
    assert other.base in workloads.FAT_BASES
    assert other.w0 in workloads.FAT_W0


def test_wrappers_record_a_real_solve_and_are_removed_afterwards():
    from atiyahlab import linalg, surface

    S = workloads.H0Rational().parts(None)[0].fresh()
    rec = spans.Recorder()
    with instrument.installed(rec):
        assert surface.rank is not linalg.rank
        S.h0(2, twisted=True)
        S.h0(2, twisted=True)
    assert surface.rank is linalg.rank
    assert surface.AtiyahSurface.h0.__name__ == "h0"
    assert not hasattr(surface.AtiyahSurface.h0, "__wrapped__")
    m = run.layer_metrics([rec.spans])
    assert m["surface.h0.calls"] == 2
    assert m["surface.h0.solves"] == 1
    assert m["linalg.calls"] >= 2 and m["linalg.max_entry_bits"] > 0
    assert m["funcfield.expand.in_validate_s"] > 0
    assert m["surface.validate_s"] <= m["surface.h0_s"]


def test_sample_stages_runs_every_stage_once_then_stops_at_the_deadline():
    calls = []

    def stage(name):
        return name, lambda state, gate, rec: calls.append((state, name))

    parts = [workloads.Part("a", lambda: "fresh-a", [stage("x"), stage("y")]),
             workloads.Part("b", lambda: "fresh-b", [stage("z")])]
    gate = workloads.Gate()
    # a deadline already past still gives one sample per stage, on the
    # states of the set-up
    samples = run.sample_stages(parts, ["set-up-a", "set-up-b"], gate,
                                deadline=0.0)
    assert calls == [("set-up-a", "x"), ("set-up-a", "y"), ("set-up-b", "z")]
    assert {k: len(v) for k, v in samples.items()} == {
        ("a", "x"): 1, ("a", "y"): 1, ("b", "z"): 1}

    calls.clear()
    deadline = run.time.perf_counter() + 0.05
    samples = run.sample_stages(parts, ["set-up-a", "set-up-b"], gate,
                                deadline)
    assert run.time.perf_counter() < deadline + 1
    assert len(samples[("a", "x")]) > 1
    assert ("fresh-b", "z") in calls
    assert all(wall >= 0 and cpu >= 0
               for v in samples.values() for wall, cpu in v)
