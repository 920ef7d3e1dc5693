"""A/B comparison of this checkout against an earlier revision.

    python3 tools/ab.py REV --reports
    python3 tools/ab.py REV --bench PAIRS --out BENCH_7.json [--seed N]

The revision REV is exported with ``git archive`` into a temporary directory
and compared with the working tree this script lives in. Standard library
only; BLAS and OpenMP are pinned to one thread in every child process.

``--reports`` writes the CLI outputs that CI checks for repeatability from
both trees: ``opcheck campaign`` for every check id at seeds 7 and 2026 with
50 trials, ``repro example-2.8``, ``repro sharpness``,
``repro cartesian-cex --trials 3000`` and ``find-cex --trials 3000 --seed 5``.
Each command's ``--out`` file and its stdout plus exit status are compared
byte for byte. It prints the first file that differs and exits 1, or exits 0
when every file is equal.

``--bench PAIRS`` runs the benchmark command of ``BENCHMARK.json`` with
``--trace 0`` in the two trees alternately, PAIRS pairs for each of its
workloads and its ``run_seconds`` per run. The revision goes first in even
pairs and the working tree in odd ones, so slow drift of the host does not
favour one side. It writes a JSON file with both SHAs, the seed, the per-run
metrics, and per metric the medians, the quartiles and the pairs each side
won, a win judged by the metric's ``better`` direction in ``BENCHMARK.json``.
The working tree's ``BENCHMARK.json`` is used for both trees. Each tree also
gets one ``--trace 1 --seconds 0`` run per workload, whose ``*.calls_per_op``
metrics are stored next to the pairs; call counts repeat exactly, so one run
tells them. After the pairs it prints a verdict table: one row per workload
and end-to-end metric with both medians, their ratio, the spread between the
revision's quartiles and the pairs each side won, marked ``WORSE`` where the
working tree's median is worse than the revision's by more than the metric's
``bound`` in ``BENCHMARK.json``, taken relative to the revision's median.
"""

from __future__ import annotations

import argparse
import filecmp
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (7, 2026)
CAMPAIGN_TRIALS = 50
REPRO_COMMANDS = {
    "repro_example_2_8": ["repro", "example-2.8"],
    "repro_sharpness": ["repro", "sharpness"],
    "repro_cartesian_cex": ["repro", "cartesian-cex", "--trials", "3000"],
    "find_cex": ["find-cex", "--trials", "3000", "--seed", "5"],
}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """The committed files of ``rev`` under ``dest``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def child_env(tree: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PYTHONPATH=str(tree / "src"), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    return env


def run_cli(tree: Path, args: list, out_dir: Path, name: str) -> None:
    """``opcheck ARGS --out name.json`` in ``tree``; stdout and status go to name.stdout."""
    proc = subprocess.run(
        [sys.executable, "-m", "opcheck.cli", *args, "--out", str(out_dir / f"{name}.json")],
        cwd=out_dir, env=child_env(tree), capture_output=True, text=True,
    )
    (out_dir / f"{name}.stdout").write_text(f"{proc.stdout}exit {proc.returncode}\n")


def write_reports(tree: Path, out_dir: Path) -> None:
    out_dir.mkdir()
    ids = subprocess.run(
        [sys.executable, "-c", "from opcheck.campaign import CHECK_IDS; print(*CHECK_IDS)"],
        env=child_env(tree), check=True, capture_output=True, text=True,
    ).stdout.split()
    for check_id in ids:
        for seed in SEEDS:
            name = f"campaign_{check_id}_{seed}"
            spec = out_dir / f"{name}.spec"
            spec.write_text(json.dumps({"check_id": check_id, "trials": CAMPAIGN_TRIALS, "seed": seed}))
            run_cli(tree, ["campaign", "--spec", str(spec)], out_dir, name)
    for name, args in REPRO_COMMANDS.items():
        run_cli(tree, args, out_dir, name)


def compare_reports(base: Path, work: Path) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        a, b = Path(tmp) / "a", Path(tmp) / "b"
        write_reports(base, a)
        write_reports(work, b)
        names_a = sorted(p.name for p in a.iterdir())
        names_b = sorted(p.name for p in b.iterdir())
        if names_a != names_b:
            print(f"file sets differ: {sorted(set(names_a) ^ set(names_b))}")
            return 1
        for name in names_a:
            if not filecmp.cmp(a / name, b / name, shallow=False):
                print(f"first differing file: {name}")
                return 1
        print(f"all {len(names_a)} files identical")
        return 0


def bench_run(tree: Path, command: list, workload: str, seed: int, seconds, trace: int = 0) -> dict:
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, env=child_env(tree), check=True, capture_output=True, text=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def call_counts(tree: Path, command: list, workload: str, seed: int) -> dict:
    """The ``*.calls_per_op`` metrics of one traced run."""
    metrics = bench_run(tree, command, workload, seed, 0, trace=1)["metrics"]
    return {name: value for name, value in metrics.items() if name.endswith(".calls_per_op")}


def quartiles(values: list) -> list:
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def summarize(pairs: list, better: dict) -> dict:
    out = {}
    for metric in pairs[0]["base"]["metrics"]:
        base = [p["base"]["metrics"][metric] for p in pairs]
        work = [p["work"]["metrics"][metric] for p in pairs]
        sign = {"higher": 1.0, "lower": -1.0}[better[metric]]
        out[metric] = {
            "base_median": statistics.median(base),
            "work_median": statistics.median(work),
            "base_quartiles": quartiles(base),
            "work_quartiles": quartiles(work),
            "work_wins": sum(sign * (w - b) > 0 for b, w in zip(base, work)),
            "base_wins": sum(sign * (b - w) > 0 for b, w in zip(base, work)),
        }
    return out


def verdict_table(workloads: dict, end_to_end: list) -> str:
    """The verdict rows for the ``workloads`` of a BENCH document."""
    lines = [f"{'workload':<13} {'metric':<12} {'base':>10} {'work':>10} {'ratio':>7} {'base IQR':>9} "
             f"{'wins w/b':>8}"]
    for name, entry in workloads.items():
        for metric in end_to_end:
            s = entry["summary"][metric["name"]]
            base, work = s["base_median"], s["work_median"]
            sign = {"higher": 1.0, "lower": -1.0}[metric["better"]]
            worse = sign * (base - work) > metric["bound"] * abs(base)
            ratio = work / base if base else float("nan")
            spread = s["base_quartiles"][2] - s["base_quartiles"][0]
            wins = f"{s['work_wins']}/{s['base_wins']}"
            lines.append(f"{name:<13} {metric['name']:<12} {base:>10.4g} {work:>10.4g} {ratio:>7.3f} "
                         f"{spread:>9.3g} {wins:>8}{'  WORSE' if worse else ''}")
    return "\n".join(lines)


def bench(base: Path, rev_sha: str, args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    doc = {
        "base": {"rev": args.rev, "sha": rev_sha},
        # dirty: the benchmarked sources differ from the working tree's HEAD
        "work": {
            "sha": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain", "--", "src", "perfbench")),
        },
        "seed": args.seed,
        "seconds": spec["run_seconds"],
        "pairs": args.bench,
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        pairs = []
        for i in range(args.bench):
            order = [("base", base), ("work", ROOT)][:: 1 if i % 2 == 0 else -1]
            pair = {"first": order[0][0]}
            for side, tree in order:
                pair[side] = bench_run(tree, spec["command"], workload, args.seed, spec["run_seconds"])
            pairs.append(pair)
            print(f"{workload} pair {i}: ops_per_s {pair['base']['metrics']['ops_per_s']:.1f} -> "
                  f"{pair['work']['metrics']['ops_per_s']:.1f}", flush=True)
        doc["workloads"][workload] = {
            "runs": pairs,
            "summary": summarize(pairs, better),
            "calls_per_op": {
                side: call_counts(tree, spec["command"], workload, args.seed)
                for side, tree in (("base", base), ("work", ROOT))
            },
        }
    Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(verdict_table(doc["workloads"], spec["end_to_end"]))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="revision to compare the working tree against")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--reports", action="store_true", help="compare CLI outputs byte for byte")
    mode.add_argument("--bench", type=int, metavar="PAIRS", help="alternating benchmark pairs per workload")
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--out", help="BENCH_<n>.json path for --bench")
    args = parser.parse_args(argv)
    if args.bench is not None and (args.bench < 1 or not args.out):
        parser.error("--bench needs PAIRS >= 1 and --out")
    rev_sha = git("rev-parse", "--verify", f"{args.rev}^{{commit}}")
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        export(rev_sha, base)
        return compare_reports(base, ROOT) if args.reports else bench(base, rev_sha, args)


if __name__ == "__main__":
    raise SystemExit(main())
