"""Workloads of the dqc1lab benchmark: argument lists, correctness gates and doctors.

Each workload is a fixed sequence of ``dqc1-lab`` argument lists, derived
only from the workload seed.  Each argument list comes with a gate that
decides whether the command's exit code and standard output are correct,
and with a doctor that corrupts a correct output, so the benchmark can
prove on every run that each gate rejects a wrong answer.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

# SHA-256 of every sweep CSV that seed 0 generates, keyed by the argument
# list joined with spaces.  Recorded at the commit named in the file; the
# CSV output is required to stay byte-identical.
DIGESTS = json.loads(
    (Path(__file__).with_name("csv_digests.json")).read_text(encoding="utf-8"))["digests"]

DISCORD_STEPS = 5
DISCORD_SPAN = 0.9
TRACE_SHOTS = 8_000_000
REPRODUCE_FAILURES = {
    "ghz-lambda5-closed-form",
    "activation-identity-closed-form",
    "discord-positive-range",
}
REPRODUCE_CHECKS = 20
CLOSED_FORM_TOL = 1e-9


def _discord_register(a: float) -> float:
    if a <= 0:
        return 0.0
    return ((1 + a) * math.log2(1 + a) + (1 - a) * math.log2(max(1 - a, 1e-300))) / 4


# Reference value and tolerance of each swept quantity, as a function of
# alpha.  activated-negativity is compared with 1 + alpha, the identity
# strategy's value by design, not with the published (8+3a)/8.
SWEEP_REFERENCE: dict[str, tuple[Callable[[float], float], float]] = {
    "discord": (lambda a: 0.0, 1e-9),
    "discord-register": (_discord_register, CLOSED_FORM_TOL),
    "mult-negativity": (lambda a: max(1.0, (2 * a + 3) / 4), CLOSED_FORM_TOL),
    "pt-spectrum-min": (lambda a: (1 - 2 * a) / 8, CLOSED_FORM_TOL),
    "separability": (lambda a: 1.0 if a <= 0.5 else 0.0, 0.0),
    "activated-negativity": (lambda a: 1 + a, CLOSED_FORM_TOL),
}


def _opt(argv: list[str], name: str) -> Optional[str]:
    return argv[argv.index(name) + 1] if name in argv else None


def _linspace(start: float, end: float, steps: int) -> list[float]:
    return [start + (end - start) * i / (steps - 1) for i in range(steps)]


def check_sweep(argv: list[str], rc: int, out: str) -> Optional[str]:
    if rc != 0:
        return f"exit code {rc}, expected 0"
    key = " ".join(argv)
    if key in DIGESTS and hashlib.sha256(out.encode()).hexdigest() != DIGESTS[key]:
        return "CSV bytes differ from the recorded digest"
    quantity = _opt(argv, "--quantity")
    reference, tol = SWEEP_REFERENCE[quantity]
    rows = list(csv.DictReader(io.StringIO(out)))
    steps = int(_opt(argv, "--steps") or 101)
    if len(rows) != steps:
        return f"{len(rows)} rows, expected {steps}"
    grid = _linspace(float(_opt(argv, "--start") or 0.0),
                     float(_opt(argv, "--end") or 1.0), steps)
    for row, a in zip(rows, grid):
        alpha, value = float(row["alpha"]), float(row["value"])
        if row["quantity"] != quantity or abs(alpha - a) > 1e-12:
            return f"unexpected row {row}"
        if not abs(value - reference(alpha)) <= tol:
            return f"{quantity}({alpha!r}) = {value!r}, expected {reference(alpha)!r}"
        if quantity == "discord-register" and not float(row["abs_error"]) <= tol:
            return f"abs_error {row['abs_error']} above {tol} at alpha {alpha!r}"
    return None


def doctor_sweep(out: str) -> str:
    lines = out.splitlines(keepends=True)
    fields = lines[-1].rstrip("\n").split(",")
    fields[2] = repr(float(fields[2]) + 1e-3)
    return "".join(lines[:-1]) + ",".join(fields) + "\n"


def check_reproduce(argv: list[str], rc: int, out: str) -> Optional[str]:
    if rc != 1:
        return f"exit code {rc}, expected 1 (three checks fail by design)"
    report = json.loads(out)
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    if len(report["checks"]) != REPRODUCE_CHECKS or failed != REPRODUCE_FAILURES:
        return f"{len(report['checks'])} checks, failing {sorted(failed)}"
    if report["all_passed"]:
        return "all_passed is true"
    return None


def doctor_reproduce(out: str) -> str:
    report = json.loads(out)
    check = next(c for c in report["checks"] if c["passed"])
    check["passed"] = False
    return json.dumps(report, indent=2) + "\n"


def check_activate(argv: list[str], rc: int, out: str) -> Optional[str]:
    if rc != 0:
        return f"exit code {rc}, expected 0"
    payload = json.loads(out)
    alpha, strategies = float(_opt(argv, "--alpha")), int(_opt(argv, "--strategies"))
    values = [r["multiplicative_negativity"] for r in payload["results"]]
    if len(values) != strategies or payload["results"][0]["label"] != "identity":
        return "strategy list does not start with the identity or has the wrong size"
    if payload["min"] != min(values) or payload["max"] != max(values):
        return "min/max disagree with the results"
    if not min(values) >= 1 + alpha / 2 - 1e-9:
        return f"minimum {min(values)!r} below the adversarial floor 1 + alpha/2"
    return None


def doctor_activate(out: str) -> str:
    payload = json.loads(out)
    payload["results"][-1]["multiplicative_negativity"] = 1.0
    payload["min"] = 1.0
    return json.dumps(payload, indent=2) + "\n"


def check_separability(argv: list[str], rc: int, out: str) -> Optional[str]:
    if rc != 0:
        return f"exit code {rc}, expected 0"
    payload = json.loads(out)
    alpha = float(_opt(argv, "--alpha"))
    expected = "FullySeparable" if alpha <= 0.5 else "NptEntangled"
    if payload["status"] != expected:
        return f"status {payload['status']}, expected {expected}"
    if not payload["certificate"]["reconstruction_residual"] <= 1e-12:
        return "convex split does not reconstruct the state"
    return None


def doctor_separability(out: str) -> str:
    payload = json.loads(out)
    payload["status"] = "NptEntangled"
    return json.dumps(payload, indent=2) + "\n"


def check_trace_estimate(argv: list[str], rc: int, out: str) -> Optional[str]:
    if rc != 0:
        return f"exit code {rc}, expected 0"
    p = json.loads(out)
    # the canonical unitary has normalized trace 1/2 for every register size
    if abs(p["exact_x"] - p["alpha"] / 2) > 1e-12 or abs(p["exact_y"]) > 1e-12:
        return "exact expectations differ from alpha * tr(U) / 2**n"
    se = max(p["std_error"], 1e-12)
    z = max(abs(p["sampled_x"] - p["exact_x"]), abs(p["sampled_y"] - p["exact_y"])) / se
    if not z <= 6.0:
        return f"sampled estimate {z:.2f} standard errors from exact"
    return None


def doctor_trace_estimate(out: str) -> str:
    p = json.loads(out)
    p["sampled_x"] = p["exact_x"] + 10 * p["std_error"]
    return json.dumps(p, indent=2) + "\n"


@dataclass(frozen=True)
class Op:
    """One ``dqc1-lab`` invocation with its gate and its doctor."""

    argv: list[str]
    check: Callable[[list[str], int, str], Optional[str]]
    doctor: Callable[[str], str]

    def verdict(self, rc: int, out: str) -> Optional[str]:
        """None if the output is correct, else the reason it is not."""
        try:
            return self.check(self.argv, rc, out)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unparseable output: {exc!r}"


def _sweep(quantity: str, *extra: str) -> Op:
    return Op(["sweep", "--quantity", quantity, *extra], check_sweep, doctor_sweep)


def discord_sweep(rng: random.Random) -> list[Op]:
    offset = round(rng.uniform(0.0, 1.0 - DISCORD_SPAN), 3)
    grid = ["--start", repr(offset), "--end", repr(round(offset + DISCORD_SPAN, 3)),
            "--steps", str(DISCORD_STEPS)]
    return [_sweep("discord", *grid), _sweep("discord-register", *grid)]


def reproduce(rng: random.Random) -> list[Op]:
    return [Op(["reproduce", "--json"], check_reproduce, doctor_reproduce)]


def closed_form_cli(rng: random.Random) -> list[Op]:
    return [
        _sweep("mult-negativity"),
        _sweep("pt-spectrum-min"),
        _sweep("separability"),
        _sweep("activated-negativity"),
        Op(["activate", "--alpha", "0.5", "--strategies", "26",
            "--seed", str(rng.randrange(10**6)), "--json"],
           check_activate, doctor_activate),
        Op(["separability", "--alpha", "0.4", "--json"],
           check_separability, doctor_separability),
        Op(["trace-estimate", "--n", "5", "--alpha", "1", "--shots", str(TRACE_SHOTS),
            "--seed", str(rng.randrange(10**6)), "--json"],
           check_trace_estimate, doctor_trace_estimate),
    ]


WORKLOADS: dict[str, Callable[[random.Random], list[Op]]] = {
    "discord-sweep": discord_sweep,
    "reproduce": reproduce,
    "closed-form-cli": closed_form_cli,
}


def make_ops(workload: str, seed: int) -> list[Op]:
    """The workload's argument lists; the program sees nothing else of the seed."""
    return WORKLOADS[workload](random.Random(seed))


def self_check(ops: list[Op], outputs: list[tuple[int, str]]) -> list[str]:
    """Problems found when feeding each gate a doctored copy of a correct output."""
    problems = []
    for op, (rc, out) in zip(ops, outputs):
        if op.verdict(rc, out) is not None:
            continue  # already counted as a failed operation
        if op.verdict(rc + 1, out) is None:
            problems.append(f"gate for {' '.join(op.argv)} accepts a wrong exit code")
        if op.verdict(rc, op.doctor(out)) is None:
            problems.append(f"gate for {' '.join(op.argv)} accepts a doctored output")
    return problems
