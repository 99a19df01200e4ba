"""The reproduction battery behind ``dqc1-lab reproduce``.

Each check recomputes one closed-form or structural property of the
circuit family from scratch and compares against its target at a fixed
tolerance.  Three checks are expected to fail because their published
targets are inconsistent with the matrices that define them: the
GHZ-part coefficient magnitude, the identity-strategy activation value,
and positivity of discord measured on the clean qubit (the output state
is exactly classical on that side for the canonical block choice).  The
notes on the failing checks and the README give the derivations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .activation import AdversaryStrategy, activate, activation_sweep
from .correlations import (
    classical_correlation_many,
    discord_many,
    is_ppt,
    multiplicative_negativity,
)
from .dqc1 import (
    PAULI_X,
    PAULI_Y,
    RHO3_ENTANGLING_CUT,
    build_dqc1_state,
    build_un,
    canonical_blocks,
    expectation_xy,
    rho3,
    sample_trace_estimate,
)
from .linalg import (
    DensityMatrix,
    hermitian_eigensystem,
    hermitian_eigenvalues,
    kron_all,
    maximally_mixed,
    partial_transpose,
    partial_transpose_matrix,
    relative_entropy,
    von_neumann_entropy,
)
from .separability import (
    SINGLE_QUBIT_CUTS,
    Verdict,
    decompose_rho3,
    full_separability_verdict,
    ghz_diagonal_coefficients,
    kay_criterion,
)

CLOSED_FORM_TOL = 1e-9
ALPHA_GRID = np.linspace(0.0, 1.0, 101)
SAMPLING_SEEDS = (1, 2, 3, 4, 5)
SAMPLING_SHOTS = 100_000

#: Each swept quantity: name -> (values at a list of alphas, closed form
#: at alpha or None).  ``dqc1-lab sweep`` prints both; the battery reads
#: its mult-negativity and activated-negativity closed forms from here.
#: The discord-type values take the whole list so that every state's
#: optimizer shares one refinement lock-step.
QUANTITIES: dict[str, tuple[Callable[[list[float]], list[float]],
                            Callable[[float], float] | None]] = {
    "mult-negativity": (
        lambda alphas: [multiplicative_negativity(rho3(a).state, RHO3_ENTANGLING_CUT)
                        for a in alphas],
        lambda a: max(1.0, (2 * a + 3) / 4),
    ),
    "pt-spectrum-min": (
        lambda alphas: [float(hermitian_eigenvalues(
            partial_transpose(rho3(a).state, RHO3_ENTANGLING_CUT)).min())
            for a in alphas],
        lambda a: (1 - 2 * a) / 8,
    ),
    "discord": (
        lambda alphas: [r.discord for r in discord_many(
            [rho3(a).state for a in alphas], 0)],
        None,
    ),
    "discord-register": (
        lambda alphas: [r.discord for r in discord_many(
            [rho3(a).state for a in alphas], 1)],
        lambda a: ((1 + a) * np.log2(1 + a) + (1 - a) * np.log2(max(1 - a, 1e-300))
                   if a > 0 else 0.0) / 4,
    ),
    "classical-correlation": (
        lambda alphas: [cc for cc, _ in classical_correlation_many(
            [rho3(a).state for a in alphas], 0)],
        None,
    ),
    "activated-negativity": (
        lambda alphas: [activate(rho3(a).state, AdversaryStrategy.identity(),
                                 alpha=a).multiplicative_negativity for a in alphas],
        lambda a: (8 + 3 * a) / 8,
    ),
    "separability": (
        lambda alphas: [{Verdict.FULLY_SEPARABLE: 1.0, Verdict.NPT_ENTANGLED: 0.0,
                         Verdict.INCONCLUSIVE: 0.5}[full_separability_verdict(a).status]
                        for a in alphas],
        lambda a: 1.0 if a <= 0.5 else 0.0,
    ),
}


@dataclass
class Check:
    name: str
    computed: float
    expected: float
    tolerance: float
    comparison: str  # "abs_error<=tol" or "value>threshold"
    passed: bool
    note: str = ""


@dataclass
class ReproduceReport:
    checks: list[Check] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add_deviation(self, name: str, deviation: float, tolerance: float, note: str = ""):
        self.checks.append(Check(
            name=name, computed=float(deviation), expected=0.0,
            tolerance=tolerance, comparison="abs_error<=tol",
            passed=bool(deviation <= tolerance), note=note))

    def add_threshold(self, name: str, value: float, threshold: float, note: str = ""):
        self.checks.append(Check(
            name=name, computed=float(value), expected=float(threshold),
            tolerance=0.0, comparison="value>threshold",
            passed=bool(value > threshold), note=note))


def _rho3_state(alpha: float, perturb: float) -> DensityMatrix:
    state = rho3(alpha).state
    if perturb == 0.0:
        return state
    # mixing toward a pure state keeps the defect admissible at any size
    spike = np.zeros((8, 8), dtype=np.complex128)
    spike[0, 0] = 1.0
    return DensityMatrix((1 - perturb) * state.matrix + perturb * spike, 3)


def _pt_spectrum_closed_form(alpha: float) -> np.ndarray:
    return np.sort(np.array([(1 + 2 * alpha) / 8] + [1 / 8] * 6 + [(1 - 2 * alpha) / 8]))


def _random_density_matrix(rng: np.random.Generator, num_qubits: int) -> DensityMatrix:
    d = 2**num_qubits
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    m /= np.trace(m).real
    return DensityMatrix((m + m.conj().T) / 2, num_qubits)


def run_reproduce(perturb: float = 0.0) -> ReproduceReport:
    """Run the full battery; ``perturb`` is a test hook that injects a
    diagonal defect of the given size into the three-qubit state."""
    if not 0.0 <= perturb <= 1.0:
        raise ValueError(f"perturb must be a finite number in [0, 1], got {perturb}")
    report = ReproduceReport()
    negativity_closed_form = QUANTITIES["mult-negativity"][1]
    activation_closed_form = QUANTITIES["activated-negativity"][1]

    # one pass over the alpha grid: each state and convex split is built
    # (and admitted as a DensityMatrix) once and serves every grid check
    pt_dev = neg_dev = split_dev = pattern_dev = lam5_dev = 0.0
    ppt_mistakes = verdict_mistakes = 0
    for a in ALPHA_GRID:
        state = _rho3_state(a, perturb)

        # partial-transpose spectrum across the register cut
        spectrum = np.sort(hermitian_eigenvalues(
            partial_transpose(state, RHO3_ENTANGLING_CUT)))
        pt_dev = max(pt_dev, float(np.abs(spectrum - _pt_spectrum_closed_form(a)).max()))

        # multiplicative negativity closed form
        negativity = multiplicative_negativity(state, RHO3_ENTANGLING_CUT)
        neg_dev = max(neg_dev, abs(negativity - negativity_closed_form(a)))

        # PPT region boundary at alpha = 1/2
        all_ppt = all(is_ppt(state, cut) for cut in SINGLE_QUBIT_CUTS)
        if a <= 0.5 and not all_ppt:
            ppt_mistakes += 1
        if a > 0.5 + 1e-6 and all_ppt:
            ppt_mistakes += 1

        # convex split into the GHZ-diagonal part and the product mixture
        w1, omega, w2, eta = decompose_rho3(a)
        lhs = w1 * omega.matrix + w2 * eta.matrix
        split_dev = max(split_dev, float(np.abs(lhs - state.matrix).max()))

        # stabilizer coefficients of the GHZ-diagonal part
        if a <= 0.5:
            kay = kay_criterion(omega)
            lams = kay.certificate["lambdas"]
            if kay.status is not Verdict.FULLY_SEPARABLE:
                verdict_mistakes += 1
        else:
            lams = ghz_diagonal_coefficients(omega)
        pattern_dev = max(pattern_dev, abs(lams[5]), abs(lams[6]),
                          abs(lams[4] + lams[7]), abs(float(np.prod(lams[4:8]))))
        lam5_dev = max(lam5_dev, abs(lams[4] - 2 * a / (2 - a)))

    report.add_deviation(
        "pt-spectrum-family", pt_dev, 1e-10,
        "sorted PT eigenvalues vs {(1+2a)/8, 1/8 x6, (1-2a)/8} on a 101-point grid")
    report.add_deviation("mult-negativity-family", neg_dev, CLOSED_FORM_TOL,
                         "M vs max[1, (2a+3)/4] on the alpha grid")
    # the last grid point, whose negativity the loop leaves behind, is alpha = 1 exactly
    report.add_deviation("mult-negativity-peak", abs(negativity - 1.25), 1e-12,
                         "M at alpha=1 equals 5/4")
    report.add_deviation("ppt-region", float(ppt_mistakes), 0.5,
                         "PPT under all three cuts iff alpha <= 1/2")
    report.add_deviation("convex-split-identity", split_dev, 1e-12,
                         "(1-a/2) omega(a) + (a/2) eta reconstructs the state")
    report.add_deviation(
        "ghz-coefficient-pattern", pattern_dev, 1e-12,
        "lambda6 = lambda7 = 0, lambda5 = -lambda8, odd-weight product = 0")
    report.add_deviation(
        "ghz-lambda5-closed-form", lam5_dev, 1e-12,
        "published closed form 2a/(2-a); the trace oracle gives a/(2-a), "
        "so this check records the discrepancy and fails")
    report.add_deviation("ghz-part-verdict", float(verdict_mistakes), 0.5,
                         "GHZ-diagonal part certified FullySeparable for alpha <= 1/2")

    # activation: adversarial floor and the published identity closed form
    floor = min(
        r.multiplicative_negativity
        for r in activation_sweep([0.1, 0.5, 1.0], strategies=26, seed=2024))
    report.add_threshold("activation-floor-random", floor - 1.0, 1e-6,
                         "identity plus 25 seeded strategies at alpha in {0.1, 0.5, 1}")
    hadamard = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
    eye2 = np.eye(2, dtype=np.complex128)
    best_adversary = AdversaryStrategy.explicit(hadamard, eye2, eye2)
    coarse = [(a, _rho3_state(a, perturb)) for a in np.linspace(0.0, 1.0, 11)]
    dev = max(
        abs(activate(state, best_adversary, alpha=a).multiplicative_negativity
            - (8 + 4 * a) / 8)
        for a, state in coarse)
    report.add_deviation(
        "activation-best-adversary-closed-form", dev, CLOSED_FORM_TOL,
        "Hadamard on the clean qubit attains the adversarial floor (8+4a)/8")
    dev = max(
        abs(activate(state, AdversaryStrategy.identity(),
                     alpha=a).multiplicative_negativity - activation_closed_form(a))
        for a, state in coarse)
    report.add_deviation(
        "activation-identity-closed-form", dev, CLOSED_FORM_TOL,
        "published closed form (8+3a)/8; the protocol gives (8+8a)/8 for the "
        "identity strategy and at best (8+4a)/8 for any local-unitary "
        "adversary, so this check records the discrepancy and fails")

    # discord across the clean-qubit cut and on a register qubit: one
    # optimizer lock-step per measured qubit
    discord_states = [_rho3_state(a, perturb) for a in (0.1, 0.25, 0.5)]
    *clean, at_zero = discord_many(discord_states + [_rho3_state(0.0, perturb)], 0)
    report.add_threshold(
        "discord-positive-range", min(r.discord for r in clean), 1e-4,
        "published positivity claim for measurement on the clean qubit; the "
        "state is exactly classical on that side (its clean-qubit X basis "
        "flags an orthogonal register ensemble), so discord is 0 and this "
        "check records the discrepancy and fails")
    report.add_threshold(
        "discord-register-qubit-positive",
        min(r.discord for r in discord_many(discord_states, 1)), 1e-4,
        "discord measured on a register qubit is strictly positive, the "
        "non-classicality the activation protocol detects")
    report.add_deviation("discord-vanishes-at-zero", at_zero.discord, 1e-9,
                         "discord at alpha = 0")

    # trace estimator: closed form vs operator average, then shot sampling
    dev = 0.0
    for n in (2, 3, 4):
        u = build_un(canonical_blocks(), n)
        for a in (0.0, 0.25, 0.5, 0.75, 1.0):
            s = build_dqc1_state(u, a)
            ex, ey = expectation_xy(s)
            eye = np.eye(2**n)
            bx = float(np.trace(kron_all(PAULI_X, eye) @ s.state.matrix).real)
            by = float(np.trace(kron_all(PAULI_Y, eye) @ s.state.matrix).real)
            dev = max(dev, abs(ex - bx), abs(ey - by))
    report.add_deviation("trace-estimator-formula", dev, 1e-12,
                         "a tr(U)/2^n vs tr[(P x I) rho] for n in {2, 3, 4}")
    worst_z = 0.0
    s = build_dqc1_state(build_un(canonical_blocks(), 2), 1.0)
    for seed in SAMPLING_SEEDS:
        est = sample_trace_estimate(s, SAMPLING_SHOTS, seed)
        se = max(est.std_error, 1e-12)
        worst_z = max(worst_z,
                      abs(est.sampled_re - est.exact_re) / se,
                      abs(est.sampled_im - est.exact_im) / se)
    report.add_deviation("trace-estimator-sampling", worst_z, 6.0,
                         f"worst z-score over seeds {SAMPLING_SEEDS} at {SAMPLING_SHOTS} shots")

    # randomized property batteries, 100 instances each
    rng = np.random.default_rng(90210)
    dev = 0.0
    for _ in range(100):
        nq = int(rng.integers(2, 5))
        state = _random_density_matrix(rng, nq)
        size = int(rng.integers(1, nq))
        cut = tuple(sorted(rng.choice(nq, size=size, replace=False)))
        twice = partial_transpose_matrix(partial_transpose(state, cut), nq, cut)
        dev = max(dev, float(np.abs(twice - state.matrix).max()))
    report.add_deviation("pt-involution", dev, 1e-14,
                         "double partial transpose restores the state")

    dev = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 65))
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = (g + g.conj().T) / 2
        w, v = hermitian_eigensystem(h)
        dev = max(dev, float(np.abs((v * w) @ v.conj().T - h).max()))
    report.add_deviation("eigensolver-reconstruction", dev, 1e-9,
                         "V diag(w) V' reconstructs 100 random Hermitian matrices")

    ok = True
    for _ in range(100):
        nq = int(rng.integers(1, 5))
        s = von_neumann_entropy(_random_density_matrix(rng, nq))
        ok = ok and -1e-12 <= s <= nq + 1e-12
    report.add_deviation("entropy-bounds", 0.0 if ok else 1.0, 0.5,
                         "0 <= S(rho) <= num_qubits on 100 random states")

    min_rel = np.inf
    for _ in range(100):
        nq = int(rng.integers(1, 4))
        x = _random_density_matrix(rng, nq)
        y = _random_density_matrix(rng, nq)
        min_rel = min(min_rel, relative_entropy(x, y))
    min_rel = min(min_rel, relative_entropy(maximally_mixed(2), maximally_mixed(2)))
    report.add_deviation("relative-entropy-nonneg", max(0.0, -min_rel), 1e-12,
                         "S(x||y) >= 0 on 100 random pairs")

    return report
