"""Which defects the reproduction battery catches.

Each entry of ``DEFECTS`` breaks one function of the package, in every
module that binds it, and names the checks of ``run_reproduce`` whose
outcome the defect flips: a check that newly fails, or one of the three
published failures that newly passes.  A defect the battery does not see
has an empty set and a strict xfail naming the ROADMAP item whose check
will catch it; when that check lands the xfail fails, and the entry
gets the set the new check catches.
"""

import sys

import numpy as np
import pytest

from dqc1lab import _kernels, activation, correlations, dqc1, linalg, separability
from dqc1lab.activation import AdversaryStrategy
from dqc1lab.reproduce import run_reproduce

PUBLISHED_FAILURES = {
    "ghz-lambda5-closed-form",
    "activation-identity-closed-form",
    "discord-positive-range",
}

# name -> ((module, attribute, defect of the original), outcome)
DEFECTS = {
    "refinement-disabled": pytest.param(
        (correlations, "_refine",
         lambda f: lambda blocks, thetas, phis, st, sp: f(blocks, thetas, phis, 1e-11, 1e-11)),
        set(),
        marks=pytest.mark.xfail(strict=True, reason=(
            "only the grid chooses the basis; clean-qubit discord stays below "
            "1e-4 and the register objective is flat (ROADMAP item 10)"))),
    "entropy-in-nats": pytest.param(
        (linalg, "von_neumann_entropy", lambda f: lambda rho: f(rho) * np.log(2)),
        {"discord-vanishes-at-zero", "discord-positive-range"}),
    "kernel-objective-in-nats": pytest.param(
        (_kernels, "conditional_entropy_grid",
         lambda f: lambda *args: f(*args) * np.log(2)),
        # the clean-qubit discord call raises the clamp error, which fails the discord group
        {"discord-register-qubit-positive", "discord-vanishes-at-zero"}),
    "trace-closed-form-halved": pytest.param(
        (dqc1, "expectation_xy", lambda f: lambda s: tuple(e / 2 for e in f(s))),
        {"trace-estimator-formula"}),
    "adversary-rotation-ignored": pytest.param(
        (activation, "activate",
         lambda f: lambda rho, strategy: f(rho, AdversaryStrategy.identity())),
        {"activation-best-adversary-closed-form"}),
    "verdict-on-clean-cut-only": pytest.param(
        (separability, "SINGLE_QUBIT_CUTS", lambda cuts: cuts[:1]),
        {"ppt-region"}),
    "eta-state-maximally-mixed": pytest.param(
        # the split then misses the state, so it certifies nothing
        (separability, "eta_state", lambda f: lambda: linalg.DensityMatrix(np.eye(8) / 8)),
        {"convex-split-identity", "ghz-part-verdict"}),
    "partial-transpose-conjugated": pytest.param(
        (linalg, "partial_transpose", lambda f: lambda rho, cut: f(rho, cut).conj()),
        {"pt-involution"}),
}


@pytest.mark.parametrize("defect, outcome", DEFECTS.values(), ids=DEFECTS.keys())
def test_battery_catches_defect(monkeypatch, defect, outcome):
    owner, name, breaking = defect
    original = getattr(owner, name)
    broken = breaking(original)
    for module_name, module in list(sys.modules.items()):
        if module_name == "dqc1lab" or module_name.startswith("dqc1lab."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, broken)
    report = run_reproduce()
    flipped = {c.name for c in report.checks if c.passed == (c.name in PUBLISHED_FAILURES)}
    assert flipped, "the battery does not see this defect"
    assert flipped == outcome
