"""Closed-loop benchmark of opcheck: one op in flight, seeded inputs, checked outputs.

    python3 perfbench/run.py --workload theorem_mix --seed 1 --seconds 30 --trace 0

``--workload all`` runs theorem_mix, graded_mix and small_search one after
another. With ``--trace 0`` a fresh worker process runs the ops with tracing
off and the run reports the end-to-end metrics, their times calibrated
against the reference kernel of ``calibration.py``. With ``--trace 1`` this
process alternates untraced and traced passes over a fixed list of ops and
reports the per-layer metrics derived from the spans.

Human-readable tables go to stdout first; the last line is one JSON object
with the keys correct, attempted, failed and metrics. The exit status is
non-zero when an op's outputs are wrong, when tracing changes a result, when
call counts differ between identical traced passes, or when two identical
campaigns write different report files.
"""

from __future__ import annotations

import workloads  # first: pins BLAS threads and selects the checkout's sources

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from opcheck import campaign
from opcheck.campaign import CampaignSpec

import calibration
import tracing

HERE = Path(__file__).resolve().parent
# fresh interpreters timed to their first op: the measuring worker and the
# replay workers
SETUP_SAMPLES = 6
CLOCK = time.perf_counter


def reports_identical(seed: int) -> bool:
    """Two runs of one short campaign must write byte-identical report files."""
    spec = CampaignSpec(check_id="check_geometric_domination", trials=4, seed=seed)
    with tempfile.TemporaryDirectory(dir=Path.cwd(), prefix=".perfbench-") as tmp:
        paths = [Path(tmp) / f"report{k}.json" for k in (0, 1)]
        for path in paths:
            campaign.write_report(campaign.run_campaign(spec), str(path))
        return paths[0].read_bytes() == paths[1].read_bytes()


def run_ops(workload, indices, tracer=None):
    latencies, outcomes = [], []
    for i in indices:
        elapsed, outcome = workloads.run_op(workload, i, CLOCK, tracer)
        latencies.append(elapsed)
        outcomes.append(outcome)
    return latencies, outcomes


def run_worker(name: str, seed: int, ops: int, seconds: float):
    """Spawn one worker; returns (wall seconds from spawn to its first timed
    op, the same calibrated and without the kernel slices, its result)."""
    start = CLOCK()
    with subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), name, str(seed), str(ops), str(seconds)],
        stdout=subprocess.PIPE,
        text=True,
    ) as proc:
        ready = proc.stdout.readline()
        setup = CLOCK() - start
        rest = proc.stdout.read()
        code = proc.wait(timeout=170)
    if ready.strip() != "ready" or code != 0:
        raise RuntimeError(f"{name} worker exited with status {code}")
    result = json.loads(rest.strip().splitlines()[-1])
    slices = result["setup_slices"]
    calibrated = (setup - sum(s for _, s in slices)) * calibration.scale(slices)
    return setup, calibrated, result


def end_to_end(name: str, seed: int, seconds: float):
    """One fresh worker runs the closed loop for ``seconds`` with tracing off.
    Then SETUP_SAMPLES - 1 more workers replay its first ops: each is timed
    to its first op for set-up, and must reproduce those ops' outcomes."""
    wall_setups, setups = [], []
    wall, setup, main = run_worker(name, seed, 0, seconds)
    wall_setups.append(wall)
    setups.append(setup)
    outcomes = main["outcomes"]
    replay = workloads.WORKLOADS[name].warm_ops
    repeatable = True
    for _ in range(SETUP_SAMPLES - 1):
        wall, setup, result = run_worker(name, seed, replay, seconds)
        wall_setups.append(wall)
        setups.append(setup)
        repeatable &= result["outcomes"] == outcomes[:replay]
    ops = len(outcomes)
    failed = sum(not ok for ok, _, _ in outcomes)
    verdict_failed = sum(not passed for _, passed, _ in outcomes)
    deterministic = reports_identical(seed)
    block = workloads.WORKLOADS[name].cycle
    ms = sorted(1000.0 * t for t in calibration.calibrate(main["latencies"], main["slices"], block))
    wall_ms = sorted(1000.0 * t for t in main["latencies"])
    ref_ms = 1000.0 * calibration.REFERENCE_S / calibration.scale(main["slices"])
    metrics = {
        "ops_per_s": (ops / (sum(ms) / 1000.0), "ops/s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_p90": (statistics.quantiles(ms, n=10)[8], "ms"),
        "pass_ratio": ((ops - verdict_failed) / ops, "ratio"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (main["peak_rss_kb"] / 1024.0, "MB"),
    }
    print(f"{name}: seed {seed}, closed loop, 1 op in flight, {ops} ops")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:<16} {value:12.4f} {unit}")
    print(f"  times above are calibrated to a reference kernel call of "
          f"{1000.0 * calibration.REFERENCE_S:g} ms; this run's took {ref_ms:.4f} ms on average")
    print(f"  wall clock: ops_per_s {ops / (sum(wall_ms) / 1000.0):.4f}, op_ms_p50 "
          f"{statistics.median(wall_ms):.4f}, op_ms_p90 {statistics.quantiles(wall_ms, n=10)[8]:.4f}, "
          f"setup_s {statistics.median(wall_setups):.4f} (kernel slices included)")
    print(f"  {'failed_op_ratio':<16} {verdict_failed / ops:12.4f} ratio "
          f"({verdict_failed}/{ops} ops returned FAIL or raised an OpcheckError)")
    print(f"  latency samples {ops}; set-up samples {SETUP_SAMPLES}; wrong outputs {failed}; "
          f"replayed outcomes equal {repeatable}; reports byte-identical {deterministic}")
    correct = failed == 0 and repeatable and deterministic
    return correct, ops, failed, metrics


def layer_metrics(stats: tracing.SpanStats, ops: int, op_seconds: float, overhead: float) -> dict:
    """Per-op figures cover the workload's ops; per-call figures cover every
    traced call, the layer probe's included, so none is empty on any workload."""
    calls = stats.op_calls

    def ratio(name, flag):
        return stats.op_flags[(name, flag)] / calls[name] if calls[name] else 0.0

    def per_call(totals, name, scale):
        n = stats.all_calls[name]
        return scale * totals[name] / n if n else 0.0

    m = {}
    for name in ("linalg.eigh", "linalg.as_matrix", "linalg.loewner_leq", "linalg.operator_norm",
                 "decompose.svd_square", "means.geometric_mean_ex", "posmap.apply",
                 "checks.domination_holds", "io.matrix_to_json"):
        m[f"{name}.calls_per_op"] = (calls[name] / ops, "calls/op")
    for name in ("linalg.eigh", "linalg.as_matrix", "linalg.spectral_radius", "decompose.svd_square"):
        m[f"{name}.self_ms_per_op"] = (1000.0 * stats.op_self_s[name] / ops, "ms/op")
    m["linalg.eigh.share"] = (stats.op_self_s["linalg.eigh"] / op_seconds, "ratio")
    for n in range(2, 7):
        count, seconds = stats.eigh_by_dim[n]
        m[f"linalg.eigh.us_per_call.n{n}"] = (1e6 * seconds / count if count else 0.0, "us")
    m["decompose.svd_square.rank_deficient_ratio"] = (ratio("decompose.svd_square", "rank_deficient"), "ratio")
    m["means.geometric_mean_ex.singular_limit_ratio"] = (ratio("means.geometric_mean_ex", "singular_limit"), "ratio")
    m["means.geometric_mean_ex.no_convergence_ratio"] = (ratio("means.geometric_mean_ex", "NoConvergence"), "ratio")
    for name in ("means.geometric_mean_ex", "posmap.apply", "ensembles.generate_with_rng", "io.matrix_to_json"):
        m[f"{name}.self_us_per_call"] = (per_call(stats.all_self_s, name, 1e6), "us")
    for name in ("posmap.sample_positivity_falsifier", "campaign.make_instance", "campaign.run_instance",
                 *(f"checks.{c}" for c in campaign.CHECK_IDS + ("find_counterexamples_remarks",))):
        m[f"{name}.ms_per_call"] = (per_call(stats.all_total_s, name, 1000.0), "ms")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return m


def traced(name: str, seed: int, seconds: float):
    """Untraced and traced passes over the same ops until ``seconds`` pass (at
    least two pairs), then the layer probe, traced."""
    workload = workloads.WORKLOADS[name](seed)
    workloads.warm_up(workload, CLOCK)
    indices = range(workload.trace_ops)
    tracer = tracing.Tracer()
    stats = tracing.SpanStats()
    first_counts = first_digest = kept_spans = None
    same_results = same_counts = True
    untraced_s = traced_s = 0.0
    passes = failed = 0
    start = CLOCK()
    while passes < 2 or CLOCK() - start < seconds:
        lat_u, out_u = run_ops(workload, indices)
        tracer.install()
        try:
            lat_t, out_t = run_ops(workload, indices, tracer)
        finally:
            tracer.uninstall()
        spans = tracer.take()
        pass_stats = tracing.SpanStats()
        pass_stats.add(spans)
        stats.add(spans)
        if first_counts is None:
            first_counts, first_digest, kept_spans = pass_stats.call_counts(), workloads.digest(out_u), spans
        same_counts &= pass_stats.call_counts() == first_counts
        same_results &= workloads.digest(out_u) == workloads.digest(out_t) == first_digest
        untraced_s += sum(lat_u)
        traced_s += sum(lat_t)
        passes += 1
        failed += sum(not o.ok for o in out_u + out_t)
        if failed:
            break
    tracer.install()
    try:
        tracer.op = -1
        workloads.layer_probe(seed)
    finally:
        tracer.uninstall()
        tracer.op = None
    probe_spans = tracer.take()
    stats.add(probe_spans)
    deterministic = reports_identical(seed)

    out_dir = Path.cwd() / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload.name}-seed{seed}.jsonl"
    tracing.write_spans(kept_spans + probe_spans, str(spans_path))

    ops = passes * len(indices)
    metrics = layer_metrics(stats, ops, traced_s, untraced_s / traced_s)
    print(f"{workload.name}: seed {seed}, {passes} untraced + {passes} traced passes of {len(indices)} ops")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<46} {value:12.4f} {unit}")
    print(f"  traced results match untraced {same_results}; call counts repeat {same_counts}; "
          f"reports byte-identical {deterministic}; spans in {spans_path}")
    correct = failed == 0 and same_results and same_counts and deterministic
    return correct, 2 * ops, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    measure = traced if args.trace else end_to_end
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        ok, ops, bad, wl_metrics = measure(name, args.seed, args.seconds)
        correct &= ok
        attempted += ops
        failed += bad
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in wl_metrics.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
