"""Command-line harness.

Human-readable summaries go to stdout; machine reports go only to the file
given by --out (or the campaign spec's output_path), so scripts can rely on
both streams. Exit status is 0 exactly when every executed check passed, 1
when one failed, and 2 for malformed input or a check that could not run.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

from . import __version__
from .campaign import CampaignSpec, Instance, run_campaign, run_instance
from .checks import (
    find_counterexamples_remarks,
    reproduce_counterexample_2_8,
    reproduce_sharpness_cor2_5,
)
from .decompose import polar
from .errors import OpcheckError
from .io import _json_value, dump_json, matrix_from_json, matrix_to_json, tolerance_from_json
from .linalg import Tolerance
from .means import geometric_mean_ex

_DEFAULT_SEED = 2026


def _load_tolerance(args, default: Tolerance) -> Tolerance:
    """``default`` with the fields that --config and --tol give replaced."""
    cfg = {}
    if args.config:
        with open(args.config) as fh:
            cfg = _json_value(json.load(fh), dict, "tolerance config")
    if args.tol is not None:
        cfg["abs"] = args.tol
        cfg.setdefault("rel", args.tol)
    return tolerance_from_json(cfg, default)


def _cmd_check(args) -> int:
    """One check at the campaign tolerances, so a campaign's instance replays
    to its certificate."""
    with open(args.infile) as fh:
        payload = _json_value(json.load(fh), dict, "instance")
    payload["check_id"] = args.check_id
    inst = Instance.from_json(payload)
    result = run_instance(inst, _load_tolerance(args, CampaignSpec.tolerances))
    if args.out:
        dump_json(result.to_json(), args.out)
    print(f"{args.check_id}: {'PASS' if result.passed else 'FAIL'} (slack {result.slack:+.3e})")
    return 0 if result.passed else 1


def _cmd_campaign(args) -> int:
    with open(args.spec) as fh:
        spec = CampaignSpec.from_json(json.load(fh))
    return _report(run_campaign(spec), _print_campaign, args.out or spec.output_path)


def _print_campaign(rep: dict) -> None:
    summary = rep["summary"]
    print(
        f"campaign {rep['spec']['check_id']}: {'PASS' if summary['failures'] == 0 else 'FAIL'} "
        f"({summary['trials']} trials, {summary['failures']} failures, "
        f"{summary['near_misses']} near misses, min slack {summary['min_slack']:+.3e})"
    )
    if rep["aborted_instance"] is not None:
        print("first failing instance kept in report for replay")


def _print_example_2_8(rep: dict) -> None:
    print("transpose-augmented map on the 2x2 weighted shift:")
    print(f"  det |phi(Z)|      = {rep['det_lhs']:.12f}   (expected 25)")
    print(
        f"  det geometric rhs = [{rep['det_rhs_min']:.12f}, {rep['det_rhs_max']:.12f}]"
        f"   (expected 16 for all {rep['pairs']} unitary pairs)"
    )
    print(f"  gap confirms the split bound needs 2-positivity: {_verdict(rep)}")


def _print_sharpness(rep: dict) -> None:
    k = rep["k"]
    print(f"scaled bound sharpness at k = {k:g}:")
    print(f"  spectral radius rho = {rep['rho']:.12g}   (expected {k:g})")
    print(f"  <e2, |Z^T| e2>      = {rep['bracket_lhs']:.12g}   (expected {k:g})")
    print(f"  required constant   = {rep['required_constant']:.12g}   (lower bound sqrt(k) = {math.sqrt(k):.12g})")
    print(f"  sqrt(rho)-scaled inequality slack = {rep['certificate']['slack']:+.3e}")
    print(f"  {_verdict(rep)}")


_SEARCH_TARGETS = {
    "loewner": "|Z| <= K fails           at trial {trial} (margin {margin:.4f})",
    "half_power": "|| |Z|^1/2 K^-1/2 || > 1 at trial {trial} (excess {margin:.4f})",
    "plain_norm": "|| Z K^-1 || > 1         at trial {trial} (excess {margin:.4f})",
}


def _print_search(rep: dict) -> None:
    print("operator-norm failures around K = |X| + |Y| (all expected to exist):")
    for name, line in _SEARCH_TARGETS.items():
        print("  " + line.format(**rep["witnesses"][name]))
    print(
        f"  while rho(Z K^-1) <= 1 and ||K^-1/2 Z K^-1/2|| <= 1 on every sample: {_verdict(rep)} "
        f"(worst rho {rep['worst_rho']:.9f}, worst norm {rep['worst_congruence_norm']:.9f})"
    )


def _verdict(rep: dict) -> str:
    return "PASS" if rep["pass"] else "FAIL"


def _report(rep, printer, out: Optional[str]) -> int:
    """Write the JSON of a campaign, reproduction or search outcome to
    ``out``, then print its summary, and exit on whether it passed."""
    payload = rep.to_json()
    if out:
        dump_json(payload, out)
    printer(payload)
    return 0 if rep.passed else 1


def _cmd_repro(args) -> int:
    if args.name == "example-2.8":
        return _report(reproduce_counterexample_2_8(), _print_example_2_8, args.out)
    if args.name == "sharpness":
        return _report(reproduce_sharpness_cor2_5(args.k), _print_sharpness, args.out)
    # cartesian-cex is find-cex at the default seed and n = 2
    return _report(find_counterexamples_remarks(args.trials, _DEFAULT_SEED, 2), _print_search, args.out)


def _cmd_find_cex(args) -> int:
    return _report(find_counterexamples_remarks(args.trials, args.seed, args.n), _print_search, args.out)


def _cmd_mean(args) -> int:
    with open(args.a) as fh:
        a = matrix_from_json(json.load(fh))
    with open(args.b) as fh:
        b = matrix_from_json(json.load(fh))
    mean, used_limit = geometric_mean_ex(a, b, _load_tolerance(args, Tolerance.for_dim(a.shape[0])))
    if args.out:
        dump_json({"mean": matrix_to_json(mean), "used_singular_mean_limit": used_limit}, args.out)
    print(f"geometric mean computed ({'singular limit' if used_limit else 'definite formula'})")
    return 0


def _cmd_polar(args) -> int:
    with open(args.infile) as fh:
        z = matrix_from_json(json.load(fh))
    parts = polar(z, _load_tolerance(args, Tolerance.for_dim(z.shape[0])))
    if args.out:
        dump_json(
            {"unitary": matrix_to_json(parts.unitary), "modulus": matrix_to_json(parts.modulus)},
            args.out,
        )
    print("polar decomposition computed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opcheck",
        description="Certificate-producing checks for positive-map operator inequalities",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run one check on a serialized instance")
    p.add_argument("check_id")
    p.add_argument("--in", dest="infile", required=True, help="instance JSON file")
    p.add_argument("--tol", type=float, default=None, help="absolute tolerance override")
    p.add_argument("--config", default=None, help="tolerance config JSON")
    p.add_argument("--out", default=None, help="certificate JSON output path")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("campaign", help="run a seeded campaign from a spec file")
    p.add_argument("--spec", required=True, help="campaign spec JSON")
    p.add_argument("--out", default=None, help="report path (overrides spec output_path)")
    p.set_defaults(func=_cmd_campaign)

    p = sub.add_parser("repro", help="reproduce a named example")
    p.add_argument("name", choices=["example-2.8", "sharpness", "cartesian-cex"])
    p.add_argument("--k", type=float, default=4.0, help="weight for the sharpness example")
    p.add_argument("--trials", type=int, default=10_000, help="search budget for cartesian-cex")
    p.add_argument("--out", default=None, help="report JSON output path")
    p.set_defaults(func=_cmd_repro)

    p = sub.add_parser("find-cex", help="search for Cartesian-sum counterexamples")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=_DEFAULT_SEED)
    p.add_argument("--n", type=int, default=2, help="matrix dimension, at least 2")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_find_cex)

    p = sub.add_parser("mean", help="geometric mean of two PSD matrices")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_mean)

    p = sub.add_parser("polar", help="polar decomposition of a square matrix")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_polar)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OpcheckError, ValueError, KeyError, OSError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        print(f"error: {detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
