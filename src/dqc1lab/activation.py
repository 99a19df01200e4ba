"""Activation of non-classical correlations into distillable entanglement.

Protocol: append one |0> ancilla per system qubit, let an adversary
apply arbitrary local unitaries to the system qubits, then copy each
system qubit onto its ancilla with a CNOT and measure the trace norm of
the partial transpose across the system:ancilla cut.  The result is 1
exactly when some adversary-chosen local product basis diagonalizes the
input state, i.e. when the state carries no non-classical correlations.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dqc1 import _check_seed, rho3
from .linalg import DensityMatrix, _frozen, _random_unitary, _rebuilt, _unitary, trace_norm

#: At about 1.4 kB and 0.7 ms a strategy, a sweep at the cap takes 150 MB and 70 s.
MAX_STRATEGIES = 100_000


@dataclass(frozen=True, eq=False)
class AdversaryStrategy:
    """One 2x2 unitary per system qubit, applied before the copy gates."""

    unitaries: tuple[np.ndarray, np.ndarray, np.ndarray]
    label: str = "explicit"
    __reduce__ = _rebuilt

    def __post_init__(self):
        checked = []
        for u in self.unitaries:
            u = _unitary(_frozen(u), "strategy unitary")
            if u.shape != (2, 2):
                raise ValueError("strategy unitaries must be 2x2")
            checked.append(u)
        if len(checked) != 3:
            raise ValueError(f"a strategy takes 3 unitaries, one per system qubit, "
                             f"got {len(checked)}")
        object.__setattr__(self, "unitaries", tuple(checked))

    @classmethod
    def identity(cls) -> "AdversaryStrategy":
        eye = np.eye(2, dtype=np.complex128)
        return cls((eye, eye, eye), label="identity")

    @classmethod
    def random(cls, seed: int) -> "AdversaryStrategy":
        """One seeded Haar unitary per qubit, drawn by ``linalg._random_unitary``."""
        _check_seed(seed)
        rng = np.random.default_rng(seed)
        return cls(tuple(_random_unitary(rng, 2) for _ in range(3)),
                   label=f"random(seed={seed})")


@dataclass(frozen=True)
class ActivationResult:
    multiplicative_negativity: float
    strategy: AdversaryStrategy


def activate(rho: DensityMatrix, strategy: AdversaryStrategy) -> ActivationResult:
    """Run the copy protocol on a 3-qubit state and score the split.

    Applies the strategy unitaries to the system, CNOTs qubit i onto
    ancilla i+3 (all starting in |0>), and returns the trace norm of the
    partial transpose over the ancillas.  The copy gates put the rotated
    state's entry r[s, t] at six-qubit row and column 9s, 9t; transposing
    the ancilla bits moves it to (8s + t, 8t + s), so the partial
    transpose is placed there directly, zero elsewhere.  The copied
    state is a basis permutation of r (+) 0, so admitting r admits it.
    """
    if rho.num_qubits != 3:
        raise ValueError("activation protocol expects a 3-qubit system state")
    u0, u1, u2 = strategy.unitaries
    u = np.kron(np.kron(u0, u1), u2)
    r = u @ rho.matrix @ u.conj().T
    r = DensityMatrix((r + r.conj().T) / 2).matrix
    s, t = np.indices((8, 8))
    pt = np.zeros((64, 64), dtype=np.complex128)
    pt[8 * s + t, 8 * t + s] = r
    value = trace_norm(pt)
    if value < 1.0 - 1e-10:
        raise RuntimeError(f"activated trace norm {value} fell below 1")
    return ActivationResult(multiplicative_negativity=value, strategy=strategy)


def activation_sweep(alphas: Sequence[float], strategies: int,
                     seed: int) -> list[ActivationResult]:
    """Protocol results for each alpha under a deterministic strategy set.

    Strategy index 0 is always the identity; the remaining
    ``strategies - 1`` entries are seeded-random strategies derived from
    ``seed``, identical across the alpha values.  Every alpha's state is
    built before any strategy is drawn, so its polarization rule fails first.
    """
    states = [rho3(alpha).state for alpha in alphas]
    if not states:
        raise ValueError("alphas must be nonempty")
    strategies = operator.index(strategies)
    if not 1 <= strategies <= MAX_STRATEGIES:
        raise ValueError(f"strategy count must lie in [1, {MAX_STRATEGIES}], got {strategies}")
    _check_seed(seed)
    children = np.random.SeedSequence(seed).spawn(max(strategies - 1, 0))
    pool = [AdversaryStrategy.identity()]
    pool += [AdversaryStrategy.random(int(c.generate_state(1)[0])) for c in children]
    return [activate(state, strat) for state in states for strat in pool]
