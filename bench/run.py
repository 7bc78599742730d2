"""Benchmark of atiyahlab's certified solve path.

    python3 bench/run.py --workload {h0-qq,h0-ff,fat-qq,cli-configs}
                         [--seed N] [--seconds S] [--trace {0,1}]

Run it from the root of a checkout: the library is imported from ``src/``
and the shipped configs are read from ``configs/``.  A workload is a few
independent parts, each a chain of stages (one ``h0`` call, one ``min_level``
or one CLI child) on a fresh surface.  A run sets up several times, then
runs the parts round after round for about ``--seconds`` (see
``sample_stages``), timing every stage on its own and checking every
answer.  ``run_s`` is the sum of the stages' median times, so it uses every
sample of the run rather than a few whole passes.  The last line printed is
one JSON object: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, and its per-layer metrics with ``--trace 1``.  A traced run
alternates plain and traced passes; the per-layer numbers come from spans
recorded by wrappers around the library's entry points (see instrument.py),
and the spans are written under ``.bench_out/`` when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
# setup_s is the median of at least this many set-ups, repeated further
# while their total is below the window (cheap set-ups give many samples)
SETUP_SAMPLES = 3
SETUP_WINDOW_S = 0.5
IMPORT_SAMPLES = 3

# per-layer metric -> span name whose total wall time it reports
TIMED = {
    "fields.build_s": "fields.build",
    "fields.table_p3.run_s": "bench.table_p3",
    "fields.table_p2.run_s": "bench.table_p2",
    "fields.prime.run_s": "bench.prime",
    "fields.poly.run_s": "bench.poly",
    "surface.build_cocycle_s": "surface.build_cocycle",
    "surface.h0_s": "surface.h0",
    "surface.validate_s": "surface.validate",
    "surface.transformed_s": "surface.transformed",
    "linalg.rank_and_kernel_s": "linalg.rank_and_kernel",
    "linalg.rank_s": "linalg.rank",
    "linalg.rank_naive_s": "linalg.rank_naive",
    "funcfield.expand_s": "funcfield.expand",
    "fat_points.min_level_s": "fat_points.min_level",
    "fat_points.max_multiplicity_s": "fat_points.max_multiplicity",
    "fat_points.jet_matrix_s": "fat_points.jet_matrix",
    "fat_points.verify_jets_s": "fat_points.verify_jets",
    "fat_points.char_p_witness_s": "fat_points.char_p_witness",
    "jobs.run_job_s": "jobs.run_job",
    "config.load_config_s": "config.load_config",
    "report.report_json_bytes_s": "report.report_json_bytes",
}
# layers whose summed self time is reported as <layer>.self_s; "bench" is
# the time the workload spends outside every wrapped entry point
LAYERS = ("bench", "surface", "linalg", "funcfield", "fat_points")
# where an expansion was asked for: nearest enclosing span -> metric
EXPAND_PARENTS = {
    "surface.validate": "funcfield.expand.in_validate_s",
    "surface.h0": "funcfield.expand.in_solve_s",
    "fat_points.jet_matrix": "funcfield.expand.in_jets_s",
    "fat_points.verify_jets": "funcfield.expand.in_jets_s",
}


def layer_metrics(span_lists) -> dict:
    """Per-layer metrics of one traced pass; one span list per process."""
    from atiyahlab.config import JOB_TYPES

    m = defaultdict(float, dict.fromkeys(
        [*EXPAND_PARENTS.values(), "funcfield.expand.calls", "linalg.calls",
         "linalg.cells"] + [f"jobs.run_job.{k}_s" for k in JOB_TYPES], 0.0))
    child_wall = defaultdict(float)
    starts = []
    h0_calls = h0_solves = 0
    bits = 0
    for span_list in span_lists:
        tr = spans.Trace(span_list)
        for metric, name in TIMED.items():
            m[metric] += tr.total(name)
        m["surface.h0.self_s"] += tr.self_total("surface.h0")
        for layer in LAYERS:
            m[f"{layer}.self_s"] += tr.layer_self(layer)
        solved = set()
        for s in tr.spans:
            if s.name.startswith("linalg."):
                m["linalg.calls"] += 1
                m["linalg.cells"] += s.attrs["rows"] * s.attrs["cols"]
                bits = max(bits, s.attrs.get("bits", 0))
                if s.name == "linalg.rank_and_kernel":
                    h0 = tr.nearest(s, ("surface.h0",))
                    if h0 is not None:
                        solved.add(h0.id)
            elif s.name == "funcfield.expand":
                m["funcfield.expand.calls"] += 1
                parent = tr.nearest(s, EXPAND_PARENTS)
                if parent is not None:
                    m[EXPAND_PARENTS[parent.name]] += s.duration
            elif s.name == "jobs.run_job":
                m[f"jobs.run_job.{s.attrs['kind']}_s"] += s.duration
            elif s.name == "bench.cli_child":
                child_wall[s.attrs["jobs"]] += s.duration
            elif s.name == "cli.proc_start":
                starts.append(s.duration)
        h0_calls += len(tr.named("surface.h0"))
        h0_solves += len(solved)
    m["surface.h0.calls"] = h0_calls
    m["surface.h0.solves"] = h0_solves
    m["surface.h0.hit_ratio"] = 1 - h0_solves / h0_calls if h0_calls else 0.0
    m["surface.validate.share"] = (m["surface.validate_s"] / m["surface.h0_s"]
                                   if m["surface.h0_s"] else 0.0)
    m["linalg.max_entry_bits"] = bits
    m["jobs.pool_speedup"] = (child_wall[1] / child_wall[2]
                              if child_wall[2] else 0.0)
    m["cli.proc_start_s"] = statistics.median(starts) if starts else 0.0
    return m


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def set_up(wl):
    """One set-up sample: (shared state, fresh state of every part)."""
    shared = wl.setup()
    parts = wl.parts(shared)
    return parts, [part.fresh() for part in parts]


def set_up_repeatedly(wl):
    """Set up at least SETUP_SAMPLES times and for at least SETUP_WINDOW_S:
    (set-up times, parts and states of the last set-up)."""
    times = []
    while len(times) < SETUP_SAMPLES or sum(times) < SETUP_WINDOW_S:
        t0 = time.perf_counter()
        parts, states = set_up(wl)
        times.append(time.perf_counter() - t0)
    return times, parts, states


def one_pass(wl, gate, rec=None) -> float:
    """Set-up, then every stage of every part once; returns the wall time
    after set-up."""
    with spans.maybe_span(rec, "bench.setup"):
        parts, states = set_up(wl)
    t1 = time.perf_counter()
    with spans.maybe_span(rec, "bench.run"):
        for part, state in zip(parts, states):
            with spans.maybe_span(rec, f"bench.{part.name}"):
                for _, fn in part.stages:
                    fn(state, gate, rec)
    return time.perf_counter() - t1


def import_seconds() -> float:
    """Median time for a fresh interpreter to import atiyahlab, read from
    its ``-X importtime`` report so interpreter start is left out."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import atiyahlab"],
            env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
            text=True, check=True)
        for line in proc.stderr.splitlines():
            fields = [f.strip() for f in line.split("|")]
            if len(fields) == 3 and fields[2] == "atiyahlab":
                samples.append(int(fields[1]) / 1e6)   # cumulative, in us
    return statistics.median(samples)


def sample_stages(parts, states, gate, deadline):
    """Run the parts round after round until ``deadline``, timing every
    stage on its own: {(part, stage): [(wall s, cpu s), ...]}.

    The first round runs every stage, on the states of the last set-up;
    later rounds build fresh states and start a stage only if its median
    so far still fits before the deadline, so a run overshoots by little
    and every stage has at least one sample.
    """
    samples = defaultdict(list)

    def fits(key):
        typical = statistics.median(wall for wall, _ in samples[key])
        return time.perf_counter() + typical <= deadline

    rounds = 0
    while True:
        ran = False
        for i, part in enumerate(parts):
            first_key = (part.name, part.stages[0][0])
            if rounds and not fits(first_key):
                continue
            state = states[i] if rounds == 0 else part.fresh()
            for stage, fn in part.stages:
                key = (part.name, stage)
                if rounds and not fits(key):
                    break
                t0, c0 = time.perf_counter(), cpu_seconds()
                fn(state, gate, None)
                samples[key].append((time.perf_counter() - t0,
                                     cpu_seconds() - c0))
            ran = True
        if not ran:
            return samples
        rounds += 1


def measure(wl, gate, seconds) -> dict:
    deadline = time.perf_counter() + seconds
    setups, parts, states = set_up_repeatedly(wl)
    samples = sample_stages(parts, states, gate, deadline)
    # a pass is every stage once; its typical time is the sum of the
    # stages' medians
    run_s = sum(statistics.median(w for w, _ in v) for v in samples.values())
    cpu_s = sum(statistics.median(c for _, c in v) for v in samples.values())
    counts = sorted({len(v) for v in samples.values()})
    print(f"bench: {len(setups)} set-ups, {len(samples)} stages with "
          f"{counts[0]}-{counts[-1]} samples each", file=sys.stderr)
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    return {
        "setup_s": statistics.median(setups)
                   + (import_seconds() if wl.in_process else 0.0),
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }


def another_pass(start, seconds, pass_times) -> bool:
    """Start a pass while at least half of a typical one fits the window."""
    if not pass_times:
        return True
    half = statistics.median(pass_times) / 2
    return time.perf_counter() - start + half < seconds


def measure_traced(wl, gate, seconds) -> dict:
    """Plain and traced passes in turn; per-layer metrics are medians over
    the traced passes."""
    import instrument

    plain, traced, per_pass, pairs = [], [], [], []
    os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
    recorders = []
    start = time.perf_counter()
    while another_pass(start, seconds, pairs):
        t0 = time.perf_counter()
        plain.append(one_pass(wl, gate))
        rec = spans.Recorder(run=f"{wl.name}-{len(traced)}")
        with instrument.installed(rec):
            traced.append(one_pass(wl, gate, rec))
        recorders.append(rec)
        per_pass.append(layer_metrics([rec.spans] + rec.children))
        pairs.append(time.perf_counter() - t0)
    for rec in recorders:
        rec.dump(os.path.join(OUT, "spans", f"{rec.run}.json"))
    names = set().union(*per_pass)
    out = {k: statistics.median(c.get(k, 0.0) for c in per_pass)
           for k in names}
    out["trace.overhead_ratio"] = (statistics.median(traced)
                                   / statistics.median(plain))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "atiyahlab", "__init__.py")):
        print(f"bench: no atiyahlab sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.NAMES)}")
    os.makedirs(OUT, exist_ok=True)
    wl = workloads.make(args.workload, args.seed, ROOT,
                        os.path.join(OUT, args.workload))
    gate = workloads.Gate()
    if args.trace:
        values = measure_traced(wl, gate, args.seconds)
        wanted = spec["per_layer"]
    else:
        values = measure(wl, gate, args.seconds)
        wanted = spec["end_to_end"]
    missing = {w["name"] for w in wanted} - set(values)
    if missing:
        print(f"bench: metrics not measured: {sorted(missing)}",
              file=sys.stderr)
        return 3
    for note in gate.notes:
        print(f"bench: FAILED {note}", file=sys.stderr)
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {w["name"]: {"value": values[w["name"]], "unit": w["unit"]}
                    for w in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
