"""Activation of non-classical correlations into distillable entanglement.

Protocol: append one |0> ancilla per system qubit, let an adversary
apply arbitrary local unitaries to the system qubits, then copy each
system qubit onto its ancilla with a CNOT and measure the trace norm of
the partial transpose across the system:ancilla cut.  The result is 1
exactly when some adversary-chosen local product basis diagonalizes the
input state, i.e. when the state carries no non-classical correlations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import DensityMatrix, _as_complex_matrix, partial_transpose_matrix, trace_norm

UNITARY_TOL = 1e-12
ANCILLA_CUT = (3, 4, 5)

#: The copy gates map |s>|000> to |s>|s>, six-qubit index 8s + s = 9s.
_COPIED = 9 * np.arange(8)
_COPIED.setflags(write=False)


@dataclass(frozen=True)
class AdversaryStrategy:
    """One 2x2 unitary per system qubit, applied before the copy gates."""

    unitaries: tuple[np.ndarray, np.ndarray, np.ndarray]
    label: str = "explicit"

    def __post_init__(self):
        checked = []
        for u in self.unitaries:
            u = _as_complex_matrix(u)
            if u.shape != (2, 2):
                raise ValueError("strategy unitaries must be 2x2")
            if not np.abs(u.conj().T @ u - np.eye(2)).max() <= UNITARY_TOL:
                raise ValueError("strategy unitary fails unitarity within 1e-12")
            u.setflags(write=False)
            checked.append(u)
        object.__setattr__(self, "unitaries", tuple(checked))

    @classmethod
    def identity(cls) -> "AdversaryStrategy":
        eye = np.eye(2, dtype=np.complex128)
        return cls((eye, eye, eye), label="identity")

    @classmethod
    def explicit(cls, u0: np.ndarray, u1: np.ndarray, u2: np.ndarray) -> "AdversaryStrategy":
        return cls((u0, u1, u2), label="explicit")

    @classmethod
    def random(cls, seed: int) -> "AdversaryStrategy":
        """Haar-like strategy: QR of a complex Gaussian matrix per qubit,
        with the R diagonal phases normalized away."""
        rng = np.random.default_rng(seed)
        us = []
        for _ in range(3):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            q, r = np.linalg.qr(g)
            q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
            us.append(q)
        return cls(tuple(us), label=f"random(seed={seed})")


@dataclass(frozen=True)
class ActivationResult:
    multiplicative_negativity: float
    strategy: AdversaryStrategy
    alpha: float


def activate(rho: DensityMatrix, strategy: AdversaryStrategy,
             alpha: float = float("nan")) -> ActivationResult:
    """Run the copy protocol on a 3-qubit state and score the split.

    Applies the strategy unitaries to the system, CNOTs qubit i onto
    ancilla i+3 (all starting in |0>), and returns the trace norm of the
    partial transpose over the ancillas.  The copied six-qubit state is
    the rotated state r at rows and columns 9s, zero elsewhere: a basis
    permutation of r (+) 0 with the same entries, trace and nonzero
    spectrum, so admitting r admits the copied state.
    """
    if rho.num_qubits != 3:
        raise ValueError("activation protocol expects a 3-qubit system state")
    u0, u1, u2 = strategy.unitaries
    u = np.kron(np.kron(u0, u1), u2)
    r = u @ rho.matrix @ u.conj().T
    r = DensityMatrix((r + r.conj().T) / 2, 3).matrix
    big = np.zeros((64, 64), dtype=np.complex128)
    big[_COPIED[:, None], _COPIED] = r
    value = trace_norm(partial_transpose_matrix(big, 6, ANCILLA_CUT))
    if value < 1.0 - 1e-10:
        raise RuntimeError(f"activated trace norm {value} fell below 1")
    return ActivationResult(multiplicative_negativity=value,
                            strategy=strategy, alpha=alpha)


def activation_sweep(alphas: Sequence[float], strategies: int,
                     seed: int) -> list[ActivationResult]:
    """Protocol results for each alpha under a deterministic strategy set.

    Strategy index 0 is always the identity; the remaining
    ``strategies - 1`` entries are seeded-random strategies derived from
    ``seed``, identical across the alpha values.
    """
    from .dqc1 import rho3

    alphas = list(alphas)
    if not alphas:
        raise ValueError("alphas must be nonempty")
    if any(not 0.0 <= a <= 1.0 for a in alphas):
        raise ValueError("alphas must lie in [0, 1]")
    if strategies < 1:
        raise ValueError("strategy count must be >= 1")
    children = np.random.SeedSequence(seed).spawn(max(strategies - 1, 0))
    pool = [AdversaryStrategy.identity()]
    pool += [AdversaryStrategy.random(int(c.generate_state(1)[0])) for c in children]
    results = []
    for alpha in alphas:
        state = rho3(alpha).state
        for strat in pool:
            results.append(activate(state, strat, alpha=alpha))
    return results
