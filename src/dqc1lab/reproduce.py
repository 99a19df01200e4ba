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
from .correlations import classical_correlation, discord, multiplicative_negativity
from .dqc1 import (
    RHO3_ENTANGLING_CUT,
    build_dqc1_state,
    build_un,
    canonical_blocks,
    expectation_xy,
    rho3,
    sample_trace_estimate,
)
from .linalg import (
    _pauli_coefficients,
    _random_density_matrix,
    _random_hermitian,
    hermitian_eigensystem,
    hermitian_eigenvalues,
    maximally_mixed,
    partial_transpose,
    partial_transpose_matrix,
    relative_entropy,
    von_neumann_entropy,
)
from .separability import (
    Verdict,
    _verdict,
    full_separability_verdict,
    ghz_diagonal_coefficients,
    omega_state,
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
        lambda alphas: [r.discord for r in discord(
            [rho3(a).state for a in alphas], 0)],
        None,
    ),
    "discord-register": (
        lambda alphas: [r.discord for r in discord(
            [rho3(a).state for a in alphas], 1)],
        lambda a: ((1 + a) * np.log2(1 + a) + (1 - a) * np.log2(max(1 - a, 1e-300))
                   if a > 0 else 0.0) / 4,
    ),
    "classical-correlation": (
        lambda alphas: [cc for cc, _ in classical_correlation(
            [rho3(a).state for a in alphas], 0)],
        None,
    ),
    "activated-negativity": (
        lambda alphas: [activate(rho3(a).state, AdversaryStrategy.identity())
                        .multiplicative_negativity for a in alphas],
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
    computed: float | None  # None when the check's group raised
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


def _alpha_grid_group():
    # one pass over the alpha grid: each state is built (and admitted as a
    # DensityMatrix) once and serves the spectrum and negativity checks
    negativity_closed_form = QUANTITIES["mult-negativity"][1]
    pt_dev = neg_dev = split_dev = pattern_dev = lam5_dev = 0.0
    ppt_mistakes = verdict_mistakes = 0
    for a in ALPHA_GRID:
        state = rho3(a).state

        # partial-transpose spectrum across the register cut
        spectrum = np.sort(hermitian_eigenvalues(
            partial_transpose(state, RHO3_ENTANGLING_CUT)))
        closed_form = np.sort([(1 + 2 * a) / 8] + [1 / 8] * 6 + [(1 - 2 * a) / 8])
        pt_dev = max(pt_dev, float(np.abs(spectrum - closed_form).max()))

        # multiplicative negativity closed form
        negativity = multiplicative_negativity(state, RHO3_ENTANGLING_CUT)
        neg_dev = max(neg_dev, abs(negativity - negativity_closed_form(a)))

        # the separability verdict on this state: PPT region boundary at
        # alpha = 1/2, the split's residual and the GHZ-diagonal part's verdict
        verdict = _verdict(state, a)
        all_ppt = verdict.status is not Verdict.NPT_ENTANGLED
        if a <= 0.5 and not all_ppt:
            ppt_mistakes += 1
        if a > 0.5 + 1e-6 and all_ppt:
            ppt_mistakes += 1
        split_dev = max(split_dev, verdict.certificate["reconstruction_residual"])
        if a <= 0.5 and verdict.status is not Verdict.FULLY_SEPARABLE:
            verdict_mistakes += 1

        # stabilizer coefficients of the GHZ-diagonal part: the very ones
        # Kay's verdict rested on, where the state is PPT
        kay = verdict.certificate.get("ghz_part_verdict")
        lams = (kay.certificate["lambdas"] if kay is not None
                else ghz_diagonal_coefficients(omega_state(a)))
        pattern_dev = max(pattern_dev, abs(lams[5]), abs(lams[6]),
                          abs(lams[4] + lams[7]), abs(float(np.prod(lams[4:8]))))
        lam5_dev = max(lam5_dev, abs(lams[4] - 2 * a / (2 - a)))

    # the last grid point, whose negativity the loop leaves behind, is alpha = 1 exactly
    return (pt_dev, neg_dev, abs(negativity - 1.25), ppt_mistakes, split_dev,
            pattern_dev, lam5_dev, verdict_mistakes)


def _activation_group():
    # adversarial floor, then the best adversary and the published identity closed form
    floor = min(r.multiplicative_negativity for r in activation_sweep(
        [0.1, 0.5, 1.0], strategies=26, seed=2024))
    hadamard = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
    best_adversary = AdversaryStrategy((hadamard, np.eye(2), np.eye(2)))
    coarse = [(a, rho3(a).state) for a in np.linspace(0.0, 1.0, 11)]
    best_dev = max(abs(activate(state, best_adversary).multiplicative_negativity
                       - (8 + 4 * a) / 8) for a, state in coarse)
    activation_closed_form = QUANTITIES["activated-negativity"][1]
    identity_dev = max(
        abs(activate(state, AdversaryStrategy.identity()).multiplicative_negativity
            - activation_closed_form(a)) for a, state in coarse)
    return floor - 1.0, best_dev, identity_dev


def _discord_group():
    # discord across the clean-qubit cut and on a register qubit: one
    # optimizer lock-step per measured qubit
    discord_states = [rho3(a).state for a in (0.1, 0.25, 0.5)]
    *clean, at_zero = discord(discord_states + [rho3(0.0).state], 0)
    return (min(r.discord for r in clean),
            min(r.discord for r in discord(discord_states, 1)), at_zero.discord)


def _trace_estimator_group():
    # closed form vs operator average, then shot sampling
    dev = 0.0
    for n in (2, 3, 4):
        u = build_un(canonical_blocks(), n)
        for a in (0.0, 0.25, 0.5, 0.75, 1.0):
            s = build_dqc1_state(u, a)
            ex, ey = expectation_xy(s)
            # tr[(X x I) rho] and tr[(Y x I) rho]: clean-qubit X and Y, register all I
            bx, by = _pauli_coefficients(s.state.matrix).reshape(4, -1)[1:3, 0]
            dev = max(dev, abs(ex - bx), abs(ey - by))
    worst_z = 0.0
    s = build_dqc1_state(build_un(canonical_blocks(), 2), 1.0)
    for seed in SAMPLING_SEEDS:
        est = sample_trace_estimate(s, SAMPLING_SHOTS, seed)
        se = max(est.std_error, 1e-12)
        worst_z = max(worst_z, abs(est.sampled_re - est.exact_re) / se,
                      abs(est.sampled_im - est.exact_im) / se)
    return dev, worst_z


def _randomized_group():
    # randomized property batteries, 100 instances each, drawn in turn from one stream
    rng = np.random.default_rng(90210)
    involution_dev = 0.0
    for _ in range(100):
        nq = int(rng.integers(2, 5))
        state = _random_density_matrix(rng, nq)
        size = int(rng.integers(1, nq))
        cut = tuple(sorted(rng.choice(nq, size=size, replace=False)))
        twice = partial_transpose_matrix(partial_transpose(state, cut), cut)
        involution_dev = max(involution_dev, float(np.abs(twice - state.matrix).max()))

    eig_dev = 0.0
    for _ in range(100):
        h = _random_hermitian(rng, int(rng.integers(2, 65)))
        w, v = hermitian_eigensystem(h)
        eig_dev = max(eig_dev, float(np.abs((v * w) @ v.conj().T - h).max()))

    ok = True
    for _ in range(100):
        nq = int(rng.integers(1, 5))
        s = von_neumann_entropy(_random_density_matrix(rng, nq))
        ok = ok and -1e-12 <= s <= nq + 1e-12

    min_rel = np.inf
    for _ in range(100):
        nq = int(rng.integers(1, 4))
        x = _random_density_matrix(rng, nq)
        y = _random_density_matrix(rng, nq)
        min_rel = min(min_rel, relative_entropy(x, y))
    min_rel = min(min_rel, relative_entropy(maximally_mixed(2), maximally_mixed(2)))
    return involution_dev, eig_dev, 0.0 if ok else 1.0, max(0.0, -min_rel)


_DEVIATION, _THRESHOLD = "abs_error<=tol", "value>threshold"

#: The battery, in order: each group returns one value per row it declares,
#: a row being (check name, comparison, tolerance or threshold, note).
_GROUPS = (
    (_alpha_grid_group, (
        ("pt-spectrum-family", _DEVIATION, 1e-10,
         "sorted PT eigenvalues vs {(1+2a)/8, 1/8 x6, (1-2a)/8} on a 101-point grid"),
        ("mult-negativity-family", _DEVIATION, CLOSED_FORM_TOL,
         "M vs max[1, (2a+3)/4] on the alpha grid"),
        ("mult-negativity-peak", _DEVIATION, 1e-12, "M at alpha=1 equals 5/4"),
        ("ppt-region", _DEVIATION, 0.5, "PPT under all three cuts iff alpha <= 1/2"),
        ("convex-split-identity", _DEVIATION, 1e-12,
         "(1-a/2) omega(a) + (a/2) eta reconstructs the state"),
        ("ghz-coefficient-pattern", _DEVIATION, 1e-12,
         "lambda6 = lambda7 = 0, lambda5 = -lambda8, odd-weight product = 0"),
        ("ghz-lambda5-closed-form", _DEVIATION, 1e-12,
         "published closed form 2a/(2-a); the trace oracle gives a/(2-a), "
         "so this check records the discrepancy and fails"),
        ("ghz-part-verdict", _DEVIATION, 0.5,
         "GHZ-diagonal part certified FullySeparable for alpha <= 1/2"),
    )),
    (_activation_group, (
        ("activation-floor-random", _THRESHOLD, 1e-6,
         "identity plus 25 seeded strategies at alpha in {0.1, 0.5, 1}"),
        ("activation-best-adversary-closed-form", _DEVIATION, CLOSED_FORM_TOL,
         "Hadamard on the clean qubit attains the adversarial floor (8+4a)/8"),
        ("activation-identity-closed-form", _DEVIATION, CLOSED_FORM_TOL,
         "published closed form (8+3a)/8; the protocol gives (8+8a)/8 for the identity "
         "strategy and at best (8+4a)/8 for any local-unitary adversary, so this check "
         "records the discrepancy and fails"),
    )),
    (_discord_group, (
        ("discord-positive-range", _THRESHOLD, 1e-4,
         "published positivity claim for measurement on the clean qubit; the state is "
         "exactly classical on that side (its clean-qubit X basis flags an orthogonal "
         "register ensemble), so discord is 0 and this check records the discrepancy "
         "and fails"),
        ("discord-register-qubit-positive", _THRESHOLD, 1e-4,
         "discord measured on a register qubit is strictly positive, the non-classicality "
         "the activation protocol detects"),
        ("discord-vanishes-at-zero", _DEVIATION, 1e-9, "discord at alpha = 0"),
    )),
    (_trace_estimator_group, (
        ("trace-estimator-formula", _DEVIATION, 1e-12,
         "a tr(U)/2^n vs tr[(P x I) rho] for n in {2, 3, 4}"),
        ("trace-estimator-sampling", _DEVIATION, 6.0,
         f"worst z-score over seeds {SAMPLING_SEEDS} at {SAMPLING_SHOTS} shots"),
    )),
    (_randomized_group, (
        ("pt-involution", _DEVIATION, 1e-14, "double partial transpose restores the state"),
        ("eigensolver-reconstruction", _DEVIATION, 1e-9,
         "V diag(w) V' reconstructs 100 random Hermitian matrices"),
        ("entropy-bounds", _DEVIATION, 0.5, "0 <= S(rho) <= num_qubits on 100 random states"),
        ("relative-entropy-nonneg", _DEVIATION, 1e-12, "S(x||y) >= 0 on 100 random pairs"),
    )),
)


def run_reproduce() -> ReproduceReport:
    """Run the full battery.  A group that raises ``ValueError`` (numpy's ``LinAlgError``
    is one) or ``RuntimeError`` fails its checks, noting the exception; others propagate."""
    report = ReproduceReport()
    for group, rows in _GROUPS:
        try:
            outcomes = [(float(value), row[3]) for value, row in zip(group(), rows, strict=True)]
        except (ValueError, RuntimeError) as exc:
            outcomes = [(None, f"{type(exc).__name__}: {exc}")] * len(rows)
        for (name, comparison, bound, _), (value, note) in zip(rows, outcomes):
            above = comparison == _THRESHOLD
            passed = value is not None and (value > bound if above else value <= bound)
            report.checks.append(Check(name, value, bound if above else 0.0,
                                       0.0 if above else bound, comparison, passed, note))
    return report
