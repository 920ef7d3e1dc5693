"""A/B comparison of this checkout against an earlier revision.

    python3 tools/ab.py REV --reports
    python3 tools/ab.py REV --bench PAIRS --out BENCH_7.json [--seed N]

The revision REV is exported with ``git archive`` into a temporary directory
and compared with the working tree this script lives in. Standard library
only; BLAS and OpenMP are pinned to one thread in every child process, and
each child compiles the package into an empty bytecode cache of its own.

``--reports`` writes the outputs of every CLI subcommand from both trees:
``opcheck campaign`` for every check id at seeds 7 and 2026 with 50 trials,
the ``REPRO_COMMANDS``, among them ``find-cex --trials 10000`` at the two
``SEARCH_SEEDS`` of the first two searches of the benchmark's
``small_search`` workload at seed 2026, ``opcheck mean`` on the (A, B) pairs
of ``MEAN_PAIRS``, in which B's smallest eigenvalue straddles the mean's
definiteness threshold and its Cholesky screen, ``opcheck polar`` on the
rank-one ``POLAR_Z``, and ``opcheck check`` for every check id on the
instance of ``check_instance``. The tool writes those inputs itself.

One more child process per tree runs ``write_digests`` on the tree's
package and ``perfbench/workloads.py``. Its ``digests.txt`` has a line
``workload seed op ok passed runs digest`` per op of ``digest_sample()``:
each workload's first cycle and ``SAMPLE_EXTRA_OPS`` ops, one from each of
as many equal strata of [cycle, ``SAMPLE_OP_LIMIT``), at ``SAMPLE_SEEDS``
seeds. ``runs`` counts the matrices that ``opcheck.linalg._sweeps`` or
``_sweeps_stack`` diagonalize, and an op that raises anything but an
``OpcheckError`` gets ``False False`` and the exception's ``repr``. Its
``sweep_runs.json`` holds those runs per check id in ``SWEEP_TRIALS``
campaign trials at ``SWEEP_SEED``, and under ``theorem_mix`` and
``graded_mix`` over their sampled ops. Its ``falsifier.json`` holds per map,
level and trial count the witness of ``sample_positivity_falsifier`` (its
trial, the ``hex`` of its eigenvalue, the sha256 of its input) or null, for
the transpose and transpose-plus-identity maps at n = 2, 3, three Kraus
maps and (1 - t) id + t T at n = 2 for each t of ``MIXED_TRANSPOSE``, at
levels 1 and 2 and each of ``FALSIFIER_TRIALS`` at ``FALSIFIER_SEED``. The
mixed maps are positive, and at level 2 the falsifier's Cholesky screen
clears most of their trials: at 200 trials, t = 3e-7 has its witness at
trial 20 after 11 exact tests, and t = 2e-7 none after 76.

Each command's ``--out`` file and its stdout and stderr plus exit status are
compared byte for byte. For each file that differs it prints, for JSON, each
differing key path (list indices folded into ``[*]``) with the number of
values and their largest relative difference, and whether a ``pass``,
``failures`` or ``witness*`` field changed; for text, the first differing
line of each side. It also names each sampled op that the benchmark counts
as a wrong output on either tree (``ok`` false, or raised), even where both
trees agree, and a digest run that did not exit 0. It exits 0 when every
file is equal and no sampled op is wrong, and 1 otherwise.

``--bench PAIRS`` runs the working tree's ``BENCHMARK.json`` command with
``--trace 0`` in the two trees alternately, the revision first in even pairs
so that drift of the host favours neither, PAIRS pairs per workload. It
writes both SHAs, the seed, each run's metrics, or for a run that exits
non-zero its exit status and the last ``TAIL_LINES`` lines of its stdout and
stderr (its pair lists it under ``failed``), and per metric the medians and
quartiles of each side's finished runs and the wins of each side (by the
metric's ``better``) among pairs that both finished. Its verdict table has
"k of N runs failed" per side and workload, and per workload and end-to-end
metric both medians, their ratio, the revision's interquartile spread and
the wins, marked ``WORSE`` past the metric's ``bound`` relative to the
revision's median. It exits 1 when a run failed.
"""

from __future__ import annotations

import argparse
import filecmp
import hashlib
import io
import itertools
import json
import math
import os
import random
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
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
# the digest sample, 45,760 ops: each workload's first cycle, which every benchmark run reaches and replays the
# start of, and ops up to SAMPLE_OP_LIMIT, past the 17,420 small_search ops a 30 s run reached on a 2-core host,
# at SAMPLE_SEEDS seeds: 2026, the BENCH file seeds and more drawn from SAMPLE_RANDOM_SEED
WORKLOAD_CYCLES = {"theorem_mix": 70, "graded_mix": 40, "small_search": 5}
BENCH_SEEDS = (17, 29, 31, 47, 53, 67, 73, 89, 97, 6161)
SAMPLE_SEEDS = 64
SAMPLE_EXTRA_OPS = 200
SAMPLE_OP_LIMIT = 40_000
SAMPLE_RANDOM_SEED = 27
SWEEP_TRIALS = 100
SWEEP_SEED = 2026
FALSIFIER_TRIALS = (200, 1, 137)
FALSIFIER_SEED = 3
MIXED_TRANSPOSE = (3e-7, 2e-7)
TAIL_LINES = 40
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


def child_env(tree: Path, pycache: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}
    env.update(PYTHONPATH=str(tree / "src"), PYTHONPYCACHEPREFIX=pycache, OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1")
    return env


def run_child(tree: Path, args: list, cwd=None) -> subprocess.CompletedProcess:
    """``args`` with ``tree``'s package, output captured as text. Its bytecode
    cache is a fresh, empty directory outside both trees, so no tree's
    ``__pycache__`` is read: the child compiles what it imports and writes it
    there, and the workers of a benchmark run load what its first process
    compiled, in both trees alike."""
    with tempfile.TemporaryDirectory(prefix="ab-pycache-") as pycache:
        return subprocess.run(args, cwd=cwd, env=child_env(tree, pycache), capture_output=True, text=True)


def run_python(tree: Path, args: list, out_dir: Path, name: str) -> None:
    """``python ARGS`` with ``tree``'s package, in ``out_dir``; stdout, stderr
    and the exit status go to name.stdout."""
    proc = run_child(tree, [sys.executable, *args], out_dir)
    (out_dir / f"{name}.stdout").write_text(f"{proc.stdout}{proc.stderr}exit {proc.returncode}\n")


def run_cli(tree: Path, args: list, out_dir: Path, name: str) -> None:
    """``opcheck ARGS --out name.json`` in ``tree``; stdout, stderr and status go to name.stdout."""
    run_python(tree, ["-m", "opcheck.cli", *args, "--out", str(out_dir / f"{name}.json")], out_dir, name)


def digest_sample() -> list:
    """[workload, seed, ops] for each workload and seed of the digest sample."""
    rng = random.Random(SAMPLE_RANDOM_SEED)
    seeds = [2026, *BENCH_SEEDS]
    while len(seeds) < SAMPLE_SEEDS:
        seed = rng.randrange(1, 10_000)
        seeds += [seed] if seed not in seeds else []
    sample = []
    for name, cycle in WORKLOAD_CYCLES.items():
        bounds = [cycle + k * (SAMPLE_OP_LIMIT - cycle) // SAMPLE_EXTRA_OPS for k in range(SAMPLE_EXTRA_OPS + 1)]
        for seed in seeds:
            extra = [rng.randrange(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
            sample.append([name, seed, [*range(cycle), *extra]])
    return sample


def run_digests(tree: Path, out_dir: Path, sample: list, sweep_trials: int = SWEEP_TRIALS) -> None:
    """digests.txt, sweep_runs.json and falsifier.json from ``tree``, written
    by ``write_digests`` in one child process; the job goes to digests.in,
    stdout, stderr and the exit status to digests.stdout."""
    (out_dir / "digests.in").write_text(json.dumps({"sample": sample, "sweep_trials": sweep_trials}))
    bootstrap = "import sys; sys.path.insert(0, sys.argv[1]); import ab; ab.write_digests(sys.argv[2], 'digests.in')"
    run_python(tree, ["-c", bootstrap, str(ROOT / "tools"), str(tree / "perfbench")], out_dir, "digests")


def write_digests(perfbench: str, job_path: str) -> None:
    """The files of ``run_digests``, in the working directory; run in a child
    process whose ``opcheck`` is the tree's, next to ``perfbench``."""
    sys.path.insert(0, perfbench)
    import numpy as np
    import opcheck.linalg
    import workloads
    from opcheck.campaign import CHECK_IDS, CampaignSpec, make_instance, run_instance
    from opcheck.posmap import IdentityMap, KrausSum, MapCompose, MapSum, TransposeMap, sample_positivity_falsifier

    maps = {f"transpose_{n}": TransposeMap(n) for n in (2, 3)}
    maps |= {f"transpose_plus_identity_{n}": MapSum(terms=(IdentityMap(n), TransposeMap(n))) for n in (2, 3)}
    rng = np.random.default_rng(2027)
    for i, (m, n, count) in enumerate(((2, 2, 1), (3, 2, 2), (2, 3, 3))):
        ops = tuple(rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)) for _ in range(count))
        maps[f"kraus_{i}"] = KrausSum(kraus=ops)
    for t in MIXED_TRANSPOSE:
        scaled = [KrausSum(kraus=(math.sqrt(c) * np.eye(2),)) for c in (1 - t, t)]
        maps[f"mixed_transpose_{t:g}"] = MapSum(terms=(scaled[0], MapCompose(outer=scaled[1], inner=TransposeMap(2))))
    witnesses = {}
    for trials in FALSIFIER_TRIALS:
        for name, phi in maps.items():
            for level in (1, 2):
                w = sample_positivity_falsifier(phi, level, trials, FALSIFIER_SEED)
                witnesses[f"{name}_level_{level}_trials_{trials}"] = None if w is None else {
                    "trial": w.trial_index, "min_output_eigenvalue": w.min_output_eigenvalue.hex(),
                    "input_sha256": hashlib.sha256(w.input_matrix.tobytes()).hexdigest()}
    Path("falsifier.json").write_text(json.dumps(witnesses, indent=2, sort_keys=True))

    runs = 0

    def counted(kernel, size, refusable=False):
        def counting(*args, **kwargs):
            nonlocal runs
            runs += size(args[0])
            out = kernel(*args, **kwargs)
            if refusable and out is None:
                runs -= size(args[0])  # refused before any sweep: _eig_stack runs each matrix through _sweeps
            return out
        return counting

    opcheck.linalg._sweeps = counted(opcheck.linalg._sweeps, lambda a: 1)
    if hasattr(opcheck.linalg, "_sweeps_stack"):  # absent before the stacked kernel
        opcheck.linalg._sweeps_stack = counted(opcheck.linalg._sweeps_stack, len, refusable=True)
    job = json.loads(Path(job_path).read_text())
    totals = {"graded_mix": 0, "theorem_mix": 0}
    for check_id in CHECK_IDS:
        spec = CampaignSpec(check_id=check_id, seed=SWEEP_SEED)
        start = runs
        for trial in range(job["sweep_trials"]):
            run_instance(make_instance(spec, trial), spec.tolerances)
        totals[check_id] = runs - start
    with open("digests.txt", "w") as out:
        for name, seed, ops in job["sample"]:
            workload = workloads.WORKLOADS[name](seed)
            for i in ops:
                start = runs
                try:
                    _, outcome = workloads.run_op(workload, i, time.perf_counter)
                    fields = (outcome.ok, outcome.passed, runs - start, outcome.digest)
                except Exception as exc:  # an error that ends a benchmark run
                    fields = (False, False, runs - start, repr(exc))
                out.write(" ".join(map(str, (name, seed, i, *fields))) + "\n")
                if name in totals:
                    totals[name] += runs - start
    Path("sweep_runs.json").write_text(json.dumps(totals, indent=2, sort_keys=True))


def wrong_outputs(out_dir: Path) -> list:
    """The digest lines of sampled ops that the benchmark counts as wrong
    outputs, and the digest run's last line if it did not exit 0."""
    digests = out_dir / "digests.txt"
    lines = digests.read_text().splitlines() if digests.exists() else []
    wrong = [line for line in lines if line.split(" ")[3] != "True"]
    status = (out_dir / "digests.stdout").read_text().splitlines()[-1]
    return wrong + ([f"digest run ended with {status!r}"] if status != "exit 0" else [])


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
    proc = run_child(tree, [sys.executable, "-c", "from opcheck.campaign import CHECK_IDS; print(*CHECK_IDS)"])
    proc.check_returncode()
    ids = proc.stdout.split()
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
    run_digests(tree, out_dir, digest_sample())


def compare_reports(base: Path, work: Path) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        a, b = Path(tmp) / "a", Path(tmp) / "b"
        write_reports(base, a)
        write_reports(work, b)
        wrong = [f"{side}: wrong output: {line}" for side, out in (("base", a), ("work", b))
                 for line in wrong_outputs(out)]
        if wrong:
            print("\n".join(wrong))
            print(f"{len(wrong)} wrong outputs in the digest sample")
        names_a = sorted(p.name for p in a.iterdir())
        names_b = sorted(p.name for p in b.iterdir())
        if names_a != names_b:
            print(f"file sets differ: {sorted(set(names_a) ^ set(names_b))}")
            return 1
        differing = [name for name in names_a if not filecmp.cmp(a / name, b / name, shallow=False)]
        for name in differing:
            explain = explain_json if name.endswith(".json") else explain_text
            print("\n".join(explain(name, (a / name).read_text(), (b / name).read_text())))
        print(f"{len(differing)} of {len(names_a)} files differ"
              if differing else f"all {len(names_a)} files identical")
        return 1 if differing or wrong else 0


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
    proc = run_child(
        tree, [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"], tree
    )
    if proc.returncode != 0:
        return {"exit": proc.returncode, "stdout_tail": proc.stdout.splitlines()[-TAIL_LINES:],
                "stderr_tail": proc.stderr.splitlines()[-TAIL_LINES:]}
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
    """Per metric, the medians and quartiles of each side's finished runs and the pairs each
    side won of those whose runs both finished; empty when a side has no finished run."""
    runs = {side: [p[side]["metrics"] for p in pairs if side not in p["failed"]] for side in ("base", "work")}
    both = [(p["base"]["metrics"], p["work"]["metrics"]) for p in pairs if not p["failed"]]
    out = {}
    for metric in runs["base"][0] if runs["base"] and runs["work"] else {}:
        sign = {"higher": 1.0, "lower": -1.0}[better[metric]]
        base, work = ([m[metric] for m in runs[side]] for side in ("base", "work"))
        out[metric] = {
            "base_median": statistics.median(base), "work_median": statistics.median(work),
            "base_quartiles": quartiles(base), "work_quartiles": quartiles(work),
            "work_wins": sum(sign * (w[metric] - b[metric]) > 0 for b, w in both),
            "base_wins": sum(sign * (b[metric] - w[metric]) > 0 for b, w in both),
        }
    return out


def verdict_table(workloads: dict, end_to_end: list) -> str:
    """The verdict rows for the ``workloads`` of a BENCH document."""
    lines = [f"{'workload':<13} {'metric':<12} {'base':>10} {'work':>10} {'ratio':>7} {'base IQR':>9} "
             f"{'wins w/b':>8}"]
    for name, entry in workloads.items():
        lines += [f"{name:<13} {side}: {k} of {len(entry['runs'])} runs failed" for side in ("base", "work")
                  if (k := sum(side in p["failed"] for p in entry["runs"]))]
        for metric in end_to_end if entry["summary"] else []:
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
            pair["failed"] = [side for side in ("base", "work") if "exit" in pair[side]]
            pairs.append(pair)
            ops = [f"{pair[side]['metrics']['ops_per_s']:.1f}" if side not in pair["failed"]
                   else f"exit {pair[side]['exit']}" for side in ("base", "work")]
            print(f"{workload} pair {i}: ops_per_s {ops[0]} -> {ops[1]}", flush=True)
        doc["workloads"][workload] = {"runs": pairs, "summary": summarize(pairs, better)}
    Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(verdict_table(doc["workloads"], spec["end_to_end"]))
    return 1 if any(p["failed"] for w in doc["workloads"].values() for p in w["runs"]) else 0


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
