"""A/B comparison of this checkout against an earlier revision.

    python3 tools/ab.py REV --reports
    python3 tools/ab.py REV --bench PAIRS --out BENCH_7.json [--seed N]

The revision REV is exported with ``git archive`` into a temporary directory
and compared with the working tree this script lives in. Standard library
only; BLAS and OpenMP are pinned to one thread in every child process.

``--reports`` writes the outputs of every CLI subcommand from both trees:
``opcheck campaign`` for every check id at seeds 7 and 2026 with 50 trials,
``repro example-2.8``, ``repro sharpness``,
``repro cartesian-cex --trials 3000``, ``find-cex --trials 3000 --seed 5``,
``find-cex --trials 5000 --seed 6 --n 3``, ``find-cex --trials 10000`` at
the two ``SEARCH_SEEDS``, which are the seeds of the first two searches of
the benchmark's ``small_search`` workload at seed 2026, ``opcheck mean`` on
the fixed (A, B) pairs of ``MEAN_PAIRS``,
``opcheck polar`` on the rank-one ``POLAR_Z``, and ``opcheck check`` for
every check id on the fixed instance of ``check_instance``. The tool writes
those matrices and instances itself. In the mean pairs B's smallest
eigenvalue is 0.5, 1, 2 and 4 times 1e-10, on both sides of the mean's
definiteness threshold and of its Cholesky screen; the first pair ends in
the singular-mean limit's ``NoConvergence``. The polar factor of ``POLAR_Z``
needs two completed columns. It also runs the first ``WORKLOAD_OPS`` ops of
each benchmark workload at seed 2026 through the tree's own
``perfbench/workloads.py`` and writes each op's outcome digest, one line per
op, which shows the first op whose verdict, slack, witness trials or error
changed. And it writes ``sweep_runs.json``: per check id, the runs of the
Jacobi sweep loop, one per matrix that ``opcheck.linalg._sweeps`` or
``_sweeps_stack`` diagonalizes, in ``SWEEP_TRIALS`` campaign
trials at seed ``SWEEP_SEED``; under ``theorem_mix`` the runs in the first
``SWEEP_THEOREM_OPS`` ops of that workload at the same seed, which cycles
the map families and so shows most plainly a factorization lost on the
identity map; and under ``graded_mix`` the runs in the first
``SWEEP_GRADED_OPS`` ops of that workload at the same seed, where the
rank-deficient SVDs and the singular-mean limits run. Both workloads come
from the tree's own ``perfbench/workloads.py``. It names any change in
factorization work that the byte comparison cannot see. And it writes ``falsifier.json``: per map and
level and trial count, the witness of ``sample_positivity_falsifier`` (its
trial, the ``hex`` of its eigenvalue and the sha256 of its input) or null,
for the transpose and transpose-plus-identity maps at n = 2, 3 and for the
three Kraus maps of ``FALSIFIER_SCRIPT``, at levels 1 and 2 with each of
``FALSIFIER_TRIALS`` trials at seed ``FALSIFIER_SEED``: 200, a stack of one
and 137, whose second block is partial. The workload
digests see only whether a falsifier op found a witness. Each command's ``--out`` file and
its stdout and stderr plus exit status are compared byte for byte. It exits
0 when every file is equal. Otherwise it names every file that differs and
exits 1: for a JSON file it prints each differing key path (list indices
folded into ``[*]``) with the number of values and their largest relative
difference, and whether a ``pass``, ``failures`` or ``witness*`` field
changed; for a stdout file it prints the first differing line of each side.

``--bench PAIRS`` runs the benchmark command of ``BENCHMARK.json`` with
``--trace 0`` in the two trees alternately, PAIRS pairs for each of its
workloads and its ``run_seconds`` per run. The revision goes first in even
pairs and the working tree in odd ones, so slow drift of the host does not
favour one side. It writes a JSON file with both SHAs, the seed, the per-run
metrics, and per metric the medians, the quartiles and the pairs each side
won, a win judged by the metric's ``better`` direction in
``BENCHMARK.json``. The working tree's ``BENCHMARK.json`` is used for both
trees. After the pairs it prints a verdict table: one row per workload and
end-to-end metric with both medians, their ratio, the spread between the
revision's quartiles and the pairs each side won, marked ``WORSE`` where the
working tree's median is worse than the revision's by more than the metric's
``bound`` in ``BENCHMARK.json``, taken relative to the revision's median.
"""

from __future__ import annotations

import argparse
import filecmp
import io
import itertools
import json
import math
import os
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (7, 2026)
CAMPAIGN_TRIALS = 50
# small_search op i at workload seed s searches at seed s * 1_000_003 + i with
# 10,000 trials; ops 0 and 5 are its first two searches at seed 2026
SEARCH_SEEDS = tuple(2026 * 1_000_003 + i for i in (0, 5))
REPRO_COMMANDS = {
    "repro_example_2_8": ["repro", "example-2.8"],
    "repro_sharpness": ["repro", "sharpness"],
    "repro_cartesian_cex": ["repro", "cartesian-cex", "--trials", "3000"],
    "find_cex": ["find-cex", "--trials", "3000", "--seed", "5"],
    "find_cex_n3": ["find-cex", "--trials", "5000", "--seed", "6", "--n", "3"],
    **{f"find_cex_{seed}": ["find-cex", "--trials", "10000", "--seed", str(seed)] for seed in SEARCH_SEEDS},
}
# ops per benchmark workload for the outcome digests, whole cycles of each
# (70, 40 and 5 ops), past the most ops a benchmark run of BENCH_21.json
# reached (16,940, 13,760 and 13,450) and past the 17,420 small_search ops
# that a 30 s run at seed 1 reached on a 2-core host, so every op a run can
# reach is compared
WORKLOAD_OPS = {"theorem_mix": 17_010, "graded_mix": 13_800, "small_search": 17_500}
# run in a tree as: python -c WORKLOAD_SCRIPT <tree>/perfbench <workload> <seed> <ops>
WORKLOAD_SCRIPT = """
import sys, time
sys.path.insert(0, sys.argv[1])
import workloads
workload = workloads.WORKLOADS[sys.argv[2]](int(sys.argv[3]))
for i in range(int(sys.argv[4])):
    _, outcome = workloads.run_op(workload, i, time.perf_counter)
    print(i, outcome.ok, outcome.passed, outcome.digest)
"""
SWEEP_TRIALS = 100
SWEEP_SEED = 2026
# graded_mix ops whose sweep runs are counted, at SWEEP_SEED: campaign trials
# hold no rank-deficient SVD and no singular-mean limit, and these ops do
SWEEP_GRADED_OPS = 400
# theorem_mix ops whose sweep runs are counted, at SWEEP_SEED: ten cycles
SWEEP_THEOREM_OPS = 700
# run in a tree as:
# python -c SWEEP_SCRIPT <out.json> <trials> <seed> <tree>/perfbench <graded ops> <theorem ops>
SWEEP_SCRIPT = """
import json, sys, time
sys.path.insert(0, sys.argv[4])
import opcheck.linalg
import workloads
from opcheck.campaign import CHECK_IDS, CampaignSpec, make_instance, run_instance
sweeps = opcheck.linalg._sweeps
runs = []
def counting(*args, **kwargs):
    runs.append(1)
    return sweeps(*args, **kwargs)
opcheck.linalg._sweeps = counting
sweeps_stack = getattr(opcheck.linalg, "_sweeps_stack", None)  # absent before the stacked kernel
def counting_stack(a, *args, **kwargs):
    runs.extend([1] * len(a))
    return sweeps_stack(a, *args, **kwargs)
if sweeps_stack is not None:
    opcheck.linalg._sweeps_stack = counting_stack
out = {}
for check_id in CHECK_IDS:
    spec = CampaignSpec(check_id=check_id, seed=int(sys.argv[3]))
    start = len(runs)
    for trial in range(int(sys.argv[2])):
        run_instance(make_instance(spec, trial), spec.tolerances)
    out[check_id] = len(runs) - start
for name, ops in (("graded_mix", sys.argv[5]), ("theorem_mix", sys.argv[6])):
    workload = workloads.WORKLOADS[name](int(sys.argv[3]))
    start = len(runs)
    for i in range(int(ops)):
        workloads.run_op(workload, i, time.perf_counter)
    out[name] = len(runs) - start
with open(sys.argv[1], "w") as f:
    json.dump(out, f, indent=2, sort_keys=True)
"""
FALSIFIER_TRIALS = (200, 1, 137)
FALSIFIER_SEED = 3
# run in a tree as: python -c FALSIFIER_SCRIPT <out.json> <seed> <trials> [<trials> ...]
FALSIFIER_SCRIPT = """
import hashlib, json, sys
import numpy as np
from opcheck.posmap import IdentityMap, KrausSum, MapSum, TransposeMap, sample_positivity_falsifier
maps = {}
for n in (2, 3):
    maps[f"transpose_{n}"] = TransposeMap(n)
    maps[f"transpose_plus_identity_{n}"] = MapSum(terms=(IdentityMap(n), TransposeMap(n)))
rng = np.random.default_rng(2027)
for i, (m, n, count) in enumerate(((2, 2, 1), (3, 2, 2), (2, 3, 3))):
    ops = tuple(rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)) for _ in range(count))
    maps[f"kraus_{i}"] = KrausSum(kraus=ops)
out = {}
seed = int(sys.argv[2])
for trials in map(int, sys.argv[3:]):
    for name, phi in maps.items():
        for level in (1, 2):
            w = sample_positivity_falsifier(phi, level, trials, seed)
            out[f"{name}_level_{level}_trials_{trials}"] = None if w is None else {
                "trial": w.trial_index,
                "min_output_eigenvalue": w.min_output_eigenvalue.hex(),
                "input_sha256": hashlib.sha256(w.input_matrix.tobytes()).hexdigest(),
            }
with open(sys.argv[1], "w") as f:
    json.dump(out, f, indent=2, sort_keys=True)
"""
# B's smallest eigenvalue in each ``opcheck mean`` pair, by file label
MEAN_PAIRS = {"lmin_5e-11": 5e-11, "lmin_1e-10": 1e-10, "lmin_2e-10": 2e-10, "lmin_4e-10": 4e-10}
# A = [[2, i, 0], [-i, 2, 1], [0, 1, 2]], with eigenvalues 2 - sqrt(2), 2 and 2 + sqrt(2)
MEAN_A = [[2, 1j, 0], [-1j, 2, 1], [0, 1, 2]]
# rank one, so the unitary polar factor completes two columns
POLAR_Z = [[1, 2, 0], [1j, 2j, 0], [0, 0, 0]]
# the ``opcheck check`` instance: ||Z|| <= ||Z||_F = 0.39, so with p = 0.25
# f(|Z|) = |Z|^1.25 and g(|Z*|) = |Z*|^0.75 lie below 0.5 I, and so below
# J = MEAN_A, whose smallest eigenvalue is 0.59, or J = I
CHECK_Z = [[0.25, 0.1j, 0], [0.05, -0.15, 0.2], [0, 0.05 + 0.05j, 0.1]]
KRAUS = ([[1, 0.5j, 0], [0, 1, 0.5], [0.25, 0, 1]], [[0.5, 0, 0.25j], [0, -0.5, 0], [0.25, 0.25, 0.5]])


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


def run_python(tree: Path, args: list, out_dir: Path, name: str) -> None:
    """``python ARGS`` with ``tree``'s package, in ``out_dir``; stdout, stderr
    and the exit status go to name.stdout."""
    proc = subprocess.run([sys.executable, *args], cwd=out_dir, env=child_env(tree), capture_output=True, text=True)
    (out_dir / f"{name}.stdout").write_text(f"{proc.stdout}{proc.stderr}exit {proc.returncode}\n")


def run_cli(tree: Path, args: list, out_dir: Path, name: str) -> None:
    """``opcheck ARGS --out name.json`` in ``tree``; stdout, stderr and status go to name.stdout."""
    run_python(tree, ["-m", "opcheck.cli", *args, "--out", str(out_dir / f"{name}.json")], out_dir, name)


def run_workload(tree: Path, name: str, ops: int, out_dir: Path) -> None:
    """The outcome digests of ``ops`` ops of workload ``name`` at seed 2026,
    from ``tree``'s ``perfbench/workloads.py``, in workload_<name>.stdout
    with stderr and the exit status."""
    run_python(tree, ["-c", WORKLOAD_SCRIPT, str(tree / "perfbench"), name, "2026", str(ops)], out_dir,
               f"workload_{name}")


def run_sweep_counts(tree: Path, out_dir: Path) -> None:
    """sweep_runs.json from ``tree``: the sweep runs per check id in
    ``SWEEP_TRIALS`` trials at ``SWEEP_SEED``, and under ``graded_mix`` and
    ``theorem_mix`` in the first ``SWEEP_GRADED_OPS`` and
    ``SWEEP_THEOREM_OPS`` ops of those workloads at ``SWEEP_SEED``, from
    ``tree``'s ``perfbench/workloads.py``; stderr and the exit status go to
    sweep_runs.stdout."""
    run_python(tree, ["-c", SWEEP_SCRIPT, str(out_dir / "sweep_runs.json"), str(SWEEP_TRIALS), str(SWEEP_SEED),
                      str(tree / "perfbench"), str(SWEEP_GRADED_OPS), str(SWEEP_THEOREM_OPS)], out_dir, "sweep_runs")


def run_falsifier(tree: Path, out_dir: Path) -> None:
    """falsifier.json from ``tree``: the falsifier's witnesses per map,
    level and each of ``FALSIFIER_TRIALS`` trials at ``FALSIFIER_SEED``;
    stderr and the exit status go to falsifier.stdout."""
    run_python(tree, ["-c", FALSIFIER_SCRIPT, str(out_dir / "falsifier.json"), str(FALSIFIER_SEED),
                      *map(str, FALSIFIER_TRIALS)], out_dir, "falsifier")


def mean_b(lmin: float) -> list:
    """Q diag(lmin, 0.1, 0.2) Q^T for the Householder reflection Q = I - 2 v v^T / 9,
    v = (1, 2, 2). Its entries stay below 1/3, so n max|b_ij| < 1."""
    v = (1, 2, 2)
    q = [[float(i == j) - 2 * v[i] * v[j] / 9 for j in range(3)] for i in range(3)]
    d = (lmin, 0.1, 0.2)
    return [[sum(q[i][k] * d[k] * q[j][k] for k in range(3)) for j in range(3)] for i in range(3)]


def matrix_obj(rows: list) -> dict:
    """``rows`` in the matrix JSON form that ``opcheck`` reads."""
    data = [[complex(x).real, complex(x).imag] for row in rows for x in row]
    return {"rows": len(rows), "cols": len(rows[0]), "data": data}


def check_instance(check_id: str) -> dict:
    """The instance ``opcheck check`` runs under ``check_id``: a Kraus map, or
    for ``check_eigenvalue_gaps`` the Schur multiplier by MEAN_A with a scalar
    J, so that its Schur remarks run. It carries every field a check reads."""
    if check_id == "check_eigenvalue_gaps":
        phi = {"family": "schur_multiplier", "params": {"factor": matrix_obj(MEAN_A)}}
        j = [[float(r == c) for c in range(3)] for r in range(3)]
    else:
        phi = {"family": "kraus_sum", "params": {"kraus": [matrix_obj(k) for k in KRAUS]}}
        j = MEAN_A
    return {"phi": phi, "Z": matrix_obj(CHECK_Z), "J": matrix_obj(j), "A": matrix_obj(CHECK_Z),
            "funpair": {"kind": "power", "p": 0.25, "rho": 1.0}, "p": 0.5}


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
        name = f"check_{check_id}"
        (out_dir / f"{name}.in").write_text(json.dumps(check_instance(check_id)))
        run_cli(tree, ["check", check_id, "--in", f"{name}.in"], out_dir, name)
    for name, args in REPRO_COMMANDS.items():
        run_cli(tree, args, out_dir, name)
    for label, lmin in MEAN_PAIRS.items():
        name = f"mean_{label}"
        (out_dir / f"{name}.a").write_text(json.dumps(matrix_obj(MEAN_A)))
        (out_dir / f"{name}.b").write_text(json.dumps(matrix_obj(mean_b(lmin))))
        run_cli(tree, ["mean", "--a", f"{name}.a", "--b", f"{name}.b"], out_dir, name)
    (out_dir / "polar.in").write_text(json.dumps(matrix_obj(POLAR_Z)))
    run_cli(tree, ["polar", "--in", "polar.in"], out_dir, "polar")
    for name, ops in WORKLOAD_OPS.items():
        run_workload(tree, name, ops, out_dir)
    run_sweep_counts(tree, out_dir)
    run_falsifier(tree, out_dir)


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
        differing = [name for name in names_a if not filecmp.cmp(a / name, b / name, shallow=False)]
        for name in differing:
            explain = explain_json if name.endswith(".json") else explain_text
            print("\n".join(explain(name, (a / name).read_text(), (b / name).read_text())))
        if differing:
            print(f"{len(differing)} of {len(names_a)} files differ")
            return 1
        print(f"all {len(names_a)} files identical")
        return 0


_MISSING = object()


def leaf_differences(a, b, path: str = ""):
    """(path, a, b) for every leaf of the JSON values ``a`` and ``b`` that
    differs; a key present on one side only is paired with ``_MISSING``.
    Leaves compare by ``repr``, so 1 and True, or 0.0 and -0.0, differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            yield from leaf_differences(a.get(key, _MISSING), b.get(key, _MISSING), f"{path}/{key}")
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from leaf_differences(x, y, f"{path}[{i}]")
    elif repr(a) != repr(b):
        yield path, a, b


def relative_difference(a, b) -> float:
    """|b - a| / |a| for two numbers (inf from 0 to nonzero), inf otherwise."""
    numbers = all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (a, b))
    if not numbers:
        return math.inf
    return abs(b - a) / abs(a) if a else (0.0 if b == a else math.inf)


def is_verdict(path: str) -> bool:
    """Whether a key on ``path`` is a pass flag, a failure count or a witness."""
    keys = re.findall(r"/([^/\[]+)", path)
    return any(key in ("pass", "failures") or key.startswith("witness") for key in keys)


def explain_json(name: str, text_a: str, text_b: str) -> list:
    """Lines naming each differing key path of two JSON documents."""
    groups = {}
    for path, a, b in leaf_differences(json.loads(text_a), json.loads(text_b)):
        groups.setdefault(re.sub(r"\[\d+\]", "[*]", path), []).append(relative_difference(a, b))
    if not groups:
        return [f"{name} differs in formatting only"]
    verdicts = [path for path in groups if is_verdict(path)]
    largest = max(max(rel) for rel in groups.values())
    lines = [f"{name} differs: largest relative difference {largest:.3g}; "
             + (f"verdict fields changed: {', '.join(verdicts)}" if verdicts
                else "no pass, failures or witness field changed")]
    lines += [f"  {path}: {len(rel)} value(s), largest relative difference {max(rel):.3g}"
              for path, rel in groups.items()]
    return lines


def explain_text(name: str, text_a: str, text_b: str) -> list:
    """The first differing line of two text files, from each side (None past
    the end of the shorter)."""
    pairs = itertools.zip_longest(text_a.splitlines(), text_b.splitlines())
    for i, (line_a, line_b) in enumerate(pairs, 1):
        if line_a != line_b:
            return [f"{name} differs at line {i}", f"  - {line_a!r}", f"  + {line_b!r}"]
    return [f"{name} differs in line endings only"]


def bench_run(tree: Path, command: list, workload: str, seed: int, seconds) -> dict:
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=child_env(tree), check=True, capture_output=True, text=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


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
        doc["workloads"][workload] = {"runs": pairs, "summary": summarize(pairs, better)}
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
