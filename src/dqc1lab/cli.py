"""Command-line front end: reproduction battery, alpha sweeps, estimators.

Exit codes: 0 success, 1 at least one reproduction check failed,
2 usage, numeric or file error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

import numpy as np

from .activation import activation_sweep
from .dqc1 import (
    build_dqc1_state,
    build_un,
    canonical_blocks,
    expectation_xy,
    sample_trace_estimate,
)
from .reproduce import CLOSED_FORM_TOL, QUANTITIES, run_reproduce
from .separability import Verdict, full_separability_verdict


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def cmd_reproduce(args: argparse.Namespace) -> int:
    report = run_reproduce(perturb=args.perturb)
    if args.json:
        payload = {
            "all_passed": report.all_passed,
            "closed_form_tolerance": CLOSED_FORM_TOL,
            "checks": [vars(c) for c in report.checks],
        }
        print(json.dumps(payload, indent=2))
    else:
        width = max(len(c.name) for c in report.checks)
        for c in report.checks:
            status = "PASS" if c.passed else "FAIL"
            print(f"{status}  {c.name:<{width}}  computed={c.computed:.3e}  "
                  f"expected={c.expected:.3e}  ({c.comparison}, tol={c.tolerance:.0e})")
            if not c.passed and c.note:
                print(f"      note: {c.note}")
        passed = sum(c.passed for c in report.checks)
        print(f"{passed}/{len(report.checks)} checks passed")
    return 0 if report.all_passed else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.quantity not in QUANTITIES:
        raise ValueError(f"unknown quantity {args.quantity!r}; choose from "
                         f"{', '.join(sorted(QUANTITIES))}")
    if not (0 <= args.start <= args.end <= 1):
        raise ValueError("require 0 <= start <= end <= 1")
    if args.steps < 2:
        raise ValueError("steps must be >= 2")
    value_fn, closed_fn = QUANTITIES[args.quantity]
    alphas = [float(a) for a in np.linspace(args.start, args.end, args.steps)]
    # open --out first: an unwritable path fails before any work, and a
    # failed sweep leaves no partial file behind
    fh = open(args.out, "w", encoding="utf-8", newline="") if args.out else None
    try:
        lines = ["alpha,quantity,value" if closed_fn is None
                 else "alpha,quantity,value,closed_form,abs_error"]
        for a, value in zip(alphas, value_fn(alphas)):
            row = f"{_fmt(a)},{args.quantity},{_fmt(value)}"
            if closed_fn is not None:
                closed = closed_fn(a)
                row += f",{_fmt(closed)},{_fmt(abs(value - closed))}"
            lines.append(row)
    except BaseException:
        if fh is not None:
            fh.close()
            os.remove(args.out)
        raise
    text = "\n".join(lines) + "\n"
    if fh is None:
        sys.stdout.write(text)
    else:
        with fh:
            fh.write(text)
    return 0


def cmd_trace_estimate(args: argparse.Namespace) -> int:
    if not 2 <= args.n <= 5:
        raise ValueError("n must lie in [2, 5]")
    if not 0 <= args.alpha <= 1:
        raise ValueError("alpha must lie in [0, 1]")
    state = build_dqc1_state(build_un(canonical_blocks(), args.n), args.alpha)
    exact_x, exact_y = expectation_xy(state)
    est = sample_trace_estimate(state, args.shots, args.seed)
    estimable = args.alpha > 0
    implied_re = exact_x / args.alpha if estimable else None
    implied_im = exact_y / args.alpha if estimable else None
    sampled_re = est.sampled_re / args.alpha if estimable else None
    sampled_im = est.sampled_im / args.alpha if estimable else None
    if args.json:
        payload = {
            "n": args.n, "alpha": args.alpha, "shots": args.shots, "seed": args.seed,
            "exact_x": exact_x, "exact_y": exact_y,
            "sampled_x": est.sampled_re, "sampled_y": est.sampled_im,
            "std_error": est.std_error,
            "implied_trace_re": implied_re, "implied_trace_im": implied_im,
            "implied_trace_re_sampled": sampled_re, "implied_trace_im_sampled": sampled_im,
        }
        if not estimable:
            payload["implied_trace_note"] = "unestimable at alpha=0"
        print(json.dumps(payload, indent=2))
    else:
        print(f"register qubits n={args.n}, alpha={args.alpha}, "
              f"shots={args.shots}, seed={args.seed}")
        print(f"exact   <X>={_fmt(exact_x)}  <Y>={_fmt(exact_y)}")
        print(f"sampled <X>={_fmt(est.sampled_re)}  <Y>={_fmt(est.sampled_im)}  "
              f"std_error={est.std_error:.3e}")
        if estimable:
            print(f"implied normalized trace (exact):   "
                  f"{_fmt(implied_re)} + {_fmt(implied_im)}j")
            print(f"implied normalized trace (sampled): "
                  f"{_fmt(sampled_re)} + {_fmt(sampled_im)}j")
        else:
            print("implied normalized trace: unestimable at alpha=0")
    return 0


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, Verdict):
        return obj.value
    if hasattr(obj, "__dataclass_fields__"):
        return {k: _jsonable(getattr(obj, k)) for k in obj.__dataclass_fields__}
    return obj


def cmd_separability(args: argparse.Namespace) -> int:
    if not 0 <= args.alpha <= 1:
        raise ValueError("alpha must lie in [0, 1]")
    verdict = full_separability_verdict(args.alpha)
    if args.json:
        print(json.dumps({"alpha": args.alpha, "status": verdict.status.value,
                          "certificate": _jsonable(verdict.certificate)}, indent=2))
    else:
        print(f"alpha={args.alpha}: {verdict.status.value}")
        cert = verdict.certificate or {}
        if "witness_eigenvalue" in cert:
            print(f"  witness PT eigenvalue: {_fmt(cert['witness_eigenvalue'])}")
        if "weights" in cert:
            w1, w2 = cert["weights"]
            print(f"  convex split weights: {_fmt(w1)}, {_fmt(w2)}")
            print(f"  reconstruction residual: {cert['reconstruction_residual']:.3e}")
            print(f"  GHZ-diagonal part verdict: {cert['ghz_part_verdict'].status.value}")
    return 0


def cmd_activate(args: argparse.Namespace) -> int:
    if not 0 <= args.alpha <= 1:
        raise ValueError("alpha must lie in [0, 1]")
    if args.strategies < 1:
        raise ValueError("strategies must be >= 1")
    results = activation_sweep([args.alpha], strategies=args.strategies, seed=args.seed)
    values = [r.multiplicative_negativity for r in results]
    if args.json:
        payload = {
            "alpha": args.alpha, "seed": args.seed, "strategies": args.strategies,
            "results": [
                {"index": i, "label": r.strategy.label,
                 "multiplicative_negativity": r.multiplicative_negativity}
                for i, r in enumerate(results)
            ],
            "min": min(values), "max": max(values),
        }
        print(json.dumps(payload, indent=2))
    else:
        for i, r in enumerate(results):
            print(f"strategy {i:2d} [{r.strategy.label}]: "
                  f"M = {_fmt(r.multiplicative_negativity)}")
        print(f"min={_fmt(min(values))}  max={_fmt(max(values))}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dqc1-lab",
        description="One-clean-qubit circuit toolkit: closed-form reproduction "
                    "battery, alpha sweeps, and estimators.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reproduce", help="run every closed-form and property check")
    p.add_argument("--json", action="store_true", help="emit one JSON document")
    p.add_argument("--perturb", type=float, default=0.0,
                   help="test hook: inject a diagonal defect of this size "
                        "into the three-qubit state")
    p.set_defaults(fn=cmd_reproduce)

    p = sub.add_parser("sweep", help="CSV sweep of one quantity over alpha")
    p.add_argument("--quantity", required=True,
                   help=", ".join(sorted(QUANTITIES)))
    p.add_argument("--start", type=float, default=0.0)
    p.add_argument("--end", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=101)
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("trace-estimate",
                       help="exact and shot-sampled normalized-trace estimation")
    p.add_argument("--n", type=int, required=True, help="register size, 2..5")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--shots", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_trace_estimate)

    p = sub.add_parser("separability", help="separability verdict at one alpha")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_separability)

    p = sub.add_parser("activate", help="activation protocol at one alpha")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--strategies", type=int, default=1,
                   help="strategy count including the identity at index 0")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_activate)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, RuntimeError, OSError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; request less work (for example fewer --shots)",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
