"""One measuring process of an end-to-end run.

    python3 perfbench/worker.py <workload> <seed> <ops> <seconds>

Builds the workload, warms it up and prints ``ready``; ``run.py`` times the
set-up from spawn to that line. Slices of the reference kernel, one after the
imports and one after each warm-up op, measure the machine's speed during
set-up. Then it runs ops 0, 1, 2, ... in a closed
loop: exactly ``ops`` of them, or, when ``ops`` is 0, whole cycles of the
workload until ``seconds`` have passed and at least the workload's
``min_ops`` ops ran. After each op, untimed for the op, a slice of the
reference kernel measures the machine's speed. The last line is JSON with
each op's latency, reference slice and outcome, and the process's peak
resident set.
"""

import workloads  # first: pins BLAS threads and selects the checkout's sources

import json
import resource
import sys
import time

import calibration


def main() -> None:
    name, seed, ops, seconds = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), float(sys.argv[4])
    setup_slices = [calibration.run_slice(calibration.IMPORT_SLICE_S)]
    workload = workloads.WORKLOADS[name](seed)
    workloads.warm_up(workload, time.perf_counter, lambda elapsed: setup_slices.append(
        calibration.run_slice(calibration.SLICE_SHARE * elapsed)))
    print("ready", flush=True)
    latencies, slices, outcomes = [], [], []
    start = time.perf_counter()

    def more() -> bool:
        done = len(latencies)
        if ops:
            return done < ops
        return time.perf_counter() - start < seconds or done < workload.min_ops or done % workload.cycle

    while more():
        elapsed, outcome = workloads.run_op(workload, len(latencies), time.perf_counter)
        latencies.append(elapsed)
        slices.append(calibration.run_slice(calibration.SLICE_SHARE * elapsed))
        outcomes.append([outcome.ok, outcome.passed, outcome.digest])
    print(json.dumps({
        "latencies": latencies,
        "slices": slices,
        "setup_slices": setup_slices,
        "outcomes": outcomes,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }))


if __name__ == "__main__":
    main()
