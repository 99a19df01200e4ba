"""In-process span tracing of dqc1lab, patched in from outside the package.

``Tracer.install`` replaces each traced function with a wrapper in every
``dqc1lab`` module namespace that binds it, because modules such as
``correlations`` import ``linalg`` names directly.  Each wrapper records
one span (name, start, end, parent) and, for a few functions, a work
count such as grid points or shots.  ``layer_metrics`` turns the spans of
one pass into the per-layer metrics.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from typing import Callable

# module -> functions wrapped in it
TRACED = {
    "_kernels": ["conditional_entropy_grid"],
    "correlations": ["_refine", "classical_correlation", "discord", "negativity"],
    "linalg": ["hermitian_eigenvalues", "hermitian_eigensystem", "partial_transpose",
               "partial_transpose_matrix", "kron", "kron_all"],
    "dqc1": ["rho3", "sample_trace_estimate"],
    "separability": ["full_separability_verdict", "ghz_diagonal_coefficients",
                     "pauli_string_matrix"],
    "activation": ["activate"],
    "reproduce": ["run_reproduce"],
    "cli": ["main"],
}

# work recorded per call: grid points evaluated, shots drawn
WORK: dict[str, Callable[[tuple, dict], int]] = {
    "_kernels.conditional_entropy_grid": lambda a, k: len(a[1]),
    "dqc1.sample_trace_estimate": lambda a, k: int(k["shots"] if "shots" in k else a[1]),
}

NAME, START, END, PARENT, AMOUNT = range(5)


class Tracer:
    """Records spans while installed; ``spans`` holds one list per span."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            amount = work(args, kwargs) if work else 0
            self.spans.append([name, time.perf_counter(), 0.0, parent, amount])
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][END] = time.perf_counter()

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "dqc1lab" or n.startswith("dqc1lab.")]
        for mod_name, funcs in TRACED.items():
            owner = sys.modules[f"dqc1lab.{mod_name}"]
            for func in funcs:
                orig = getattr(owner, func)
                wrapper = self._wrap(f"{mod_name}.{func}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and times of one traced pass."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]

    def select(*names: str) -> list[int]:
        """Spans of these functions not nested in another span of them."""
        picked = []
        for i, s in enumerate(spans):
            if s[NAME] not in names:
                continue
            p = s[PARENT]
            while p >= 0 and spans[p][NAME] not in names:
                p = spans[p][PARENT]
            if p < 0:
                picked.append(i)
        return picked

    def total(*names: str) -> float:
        return sum(spans[i][END] - spans[i][START] for i in select(*names))

    def self_time(*names: str) -> float:
        return sum(spans[i][END] - spans[i][START] - child_time[i] for i in select(*names))

    def calls(name: str) -> int:
        return sum(1 for s in spans if s[NAME] == name)

    def amount(name: str) -> int:
        return sum(s[AMOUNT] for s in spans if s[NAME] == name)

    grid = "_kernels.conditional_entropy_grid"
    grid_s, grid_points = total(grid), amount(grid)
    return {
        "_kernels.grid_calls": calls(grid),
        "_kernels.grid_points": grid_points,
        "_kernels.grid_s": grid_s,
        "_kernels.us_per_point": grid_s / grid_points * 1e6 if grid_points else 0.0,
        "correlations.refine_calls": calls("correlations._refine"),
        "correlations.refine_kernel_calls": sum(
            1 for s in spans
            if s[NAME] == grid and s[PARENT] >= 0
            and spans[s[PARENT]][NAME] == "correlations._refine"),
        "correlations.refine_s": total("correlations._refine"),
        "correlations.classical_correlation_calls": calls("correlations.classical_correlation"),
        "correlations.classical_correlation_s": total("correlations.classical_correlation"),
        "correlations.classical_correlation_self_s":
            self_time("correlations.classical_correlation"),
        "correlations.discord_s": total("correlations.discord"),
        "correlations.negativity_s": total("correlations.negativity"),
        "linalg.eig_calls": calls("linalg.hermitian_eigenvalues")
            + calls("linalg.hermitian_eigensystem"),
        "linalg.eig_s": total("linalg.hermitian_eigenvalues", "linalg.hermitian_eigensystem"),
        "linalg.partial_transpose_s":
            total("linalg.partial_transpose", "linalg.partial_transpose_matrix"),
        "linalg.kron_calls": calls("linalg.kron"),
        "linalg.kron_s": total("linalg.kron", "linalg.kron_all"),
        "dqc1.rho3_calls": calls("dqc1.rho3"),
        "dqc1.rho3_s": total("dqc1.rho3"),
        "dqc1.sample_shots": amount("dqc1.sample_trace_estimate"),
        "dqc1.sample_s": total("dqc1.sample_trace_estimate"),
        "separability.verdict_s": total("separability.full_separability_verdict"),
        "separability.ghz_coefficients_s": total("separability.ghz_diagonal_coefficients"),
        "separability.pauli_matrix_calls": calls("separability.pauli_string_matrix"),
        "activation.activate_calls": calls("activation.activate"),
        "activation.activate_s": total("activation.activate"),
        "reproduce.run_s": total("reproduce.run_reproduce"),
        "cli.invocations": calls("cli.main"),
        "cli.main_s": total("cli.main"),
        "cli.self_s": self_time("cli.main"),
    }


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over passes; counts stay whole numbers."""
    out = {}
    for k in passes[0]:
        values = [p[k] for p in passes]
        out[k] = (statistics.median(values) if isinstance(values[0], float)
                  else statistics.median_low(values))
    return out
