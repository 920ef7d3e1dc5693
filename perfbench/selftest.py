"""Self-test of the benchmark's own tracing and output, at seed 2026.

    python3 perfbench/selftest.py

1. Two traced passes over the same trials give identical call counts.
2. Counting calls with ``sys.setprofile``, by code object, sees every call
   whatever name it was reached through; those counts must equal the
   wrappers' counts, so no importing module was missed.
3. Calls per trial of the default geometric_domination, cartesian_suite and
   russo_dye campaigns (100 trials each) must equal the baseline below. A
   change that removes calls on purpose fails here and prints its new counts.
   Untraced and traced ms per trial are printed for the five checks whose
   baseline ROADMAP.md gives.
4. A short untraced and a short traced run of ``run.py`` must succeed and
   emit exactly the metric names listed in BENCHMARK.json.

Exits 1 when any step fails.
"""

from __future__ import annotations

import workloads  # first: pins BLAS threads and selects the checkout's sources

import json
import subprocess
import sys
import time
from collections import Counter

from opcheck import campaign
from opcheck.campaign import CampaignSpec

import tracing

SEED = 2026
TRIALS = 100
TIMED_CHECKS = ("check_russo_dye", "check_two_positive_split", "check_eigenvalue_gaps",
                "check_cartesian_suite", "check_geometric_domination")
# eigh and as_matrix calls per trial (generation plus check) of the program
# at commit f0dca99, 100 trials at seed 2026
BASELINE = {
    "check_geometric_domination": {"linalg.eigh": 18.72, "linalg.as_matrix": 111.80},
    "check_cartesian_suite": {"linalg.eigh": 15.40, "linalg.as_matrix": 94.59},
    "check_russo_dye": {"linalg.eigh": 6.14, "linalg.as_matrix": 43.03},
}


def trials(check_id: str, count: int):
    spec = CampaignSpec(check_id=check_id, seed=SEED)
    for t in range(count):
        campaign.run_instance(campaign.make_instance(spec, t), spec.tolerances)


def timed(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def traced_counts(check_id: str, count: int) -> Counter:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        trials(check_id, count)
    finally:
        tracer.uninstall()
    return Counter(s.name for s in tracer.take())


def profiled_counts(check_id: str, count: int) -> Counter:
    names = {fn.__code__: name for name, fn in tracing.public_functions().items()}
    counts: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in names:
            counts[names[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        trials(check_id, count)
    finally:
        sys.setprofile(None)
    return counts


def emitted_metrics(trace: int) -> tuple:
    cmd = [sys.executable, str(workloads.ROOT / "perfbench" / "run.py"), "--workload", "theorem_mix",
           "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=workloads.ROOT)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return proc.returncode == 0 and result["correct"], set(result["metrics"])


def main() -> int:
    ok = True
    for check_id in TIMED_CHECKS:
        untraced = timed(trials, check_id, TRIALS)
        traced = timed(traced_counts, check_id, TRIALS)
        print(f"{check_id}: {1000 * untraced / TRIALS:.1f} ms/trial untraced, "
              f"{1000 * traced / TRIALS:.1f} traced")
    for check_id, expected in BASELINE.items():
        first, second = traced_counts(check_id, TRIALS), traced_counts(check_id, TRIALS)
        repeat = first == second
        profiled = profiled_counts(check_id, 20)
        complete = profiled == traced_counts(check_id, 20)
        per_trial = {name: first[name] / TRIALS for name in expected}
        matches = all(round(per_trial[name], 2) == value for name, value in expected.items())
        print(f"{check_id}: counts repeat {repeat}; wrappers see every call {complete}; "
              + ", ".join(f"{name} {per_trial[name]:.2f}/trial (baseline {value:.2f})"
                          for name, value in expected.items()))
        if not complete:
            missed = {k: (profiled[k], v) for k, v in traced_counts(check_id, 20).items() if profiled[k] != v}
            print(f"  profile vs wrapper counts that differ: {missed}")
        ok &= repeat and complete and matches

    declared = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        ran, names = emitted_metrics(trace)
        want = {m["name"] for m in declared[key]}
        print(f"run.py --trace {trace}: succeeded {ran}; emits the {key} names {names == want}")
        if names != want:
            print(f"  missing {sorted(want - names)}; undeclared {sorted(names - want)}")
        ok &= ran and names == want
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
