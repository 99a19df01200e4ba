"""The one-clean-qubit circuit family and its trace estimator.

The circuit couples a single partially polarized qubit (polarization
``alpha``) to a register of ``n`` maximally mixed qubits.  The joint
output state has the two register-sized diagonal blocks equal to
``I / 2**(n+1)`` and off-diagonal blocks ``alpha * U / 2**(n+1)``, so
measuring the clean qubit in the X (Y) basis estimates the real
(imaginary) part of the normalized trace of ``U``.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field

import numpy as np

from .linalg import PAULI_X, DensityMatrix, _frozen, _rebuilt, _unitary, kron_all

MAX_REGISTER = 5
MAX_SHOTS = 2**63 - 1  # the largest trial count numpy's binomial sampler takes

#: Single-register-qubit cut across which the three-qubit output state
#: becomes NPT for alpha > 1/2.  Transposing qubit 2 behaves identically;
#: transposing the clean qubit (qubit 0) keeps the state PPT for every
#: alpha.  Verified by brute force over all three single-qubit cuts in
#: the test suite.
RHO3_ENTANGLING_CUT = (1,)


def _check_polarization(alpha: float) -> None:
    """The one polarization rule: alpha in [0, 1], so NaN and +-inf fail."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")


def _check_seed(seed: int) -> None:
    """The one seed rule: a non-negative integer, so a float is a TypeError."""
    if operator.index(seed) < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")


@dataclass(frozen=True, eq=False)
class UnitaryBlockSpec:
    """Four single-qubit blocks assembling the two-qubit seed unitary.

    The blocks must satisfy a1'a1 + d1'd1 = I, b1'b1 + c1'c1 = I and
    a1'c1 + d1'b1 = 0 (primes denote conjugate transpose), which is
    equivalent to unitarity of [[a1, c1], [d1, b1]].  ``build_un`` checks
    unitarity once, on the matrix it assembles.
    """

    a1: np.ndarray
    b1: np.ndarray
    c1: np.ndarray
    d1: np.ndarray
    __reduce__ = _rebuilt

    def __post_init__(self):
        for name in ("a1", "b1", "c1", "d1"):
            m = _frozen(getattr(self, name))
            if m.shape != (2, 2):
                raise ValueError(f"block {name} must be 2x2")
            object.__setattr__(self, name, m)


def canonical_blocks() -> UnitaryBlockSpec:
    """The specific block choice whose two-qubit unitary is the permutation
    |00> <-> |11|, fixing |01> and |10>."""
    return UnitaryBlockSpec(
        a1=np.array([[0, 0], [0, 1]], dtype=np.complex128),
        b1=np.array([[1, 0], [0, 0]], dtype=np.complex128),
        c1=np.array([[0, 1], [0, 0]], dtype=np.complex128),
        d1=np.array([[0, 0], [1, 0]], dtype=np.complex128),
    )


@dataclass(frozen=True, eq=False)
class Dqc1State:
    """Joint output state of the circuit for polarization ``alpha`` and register
    unitary ``unitary``; the state has one qubit more than the register.

    The one way in, which copies and pickles take too: it checks alpha, then the
    unitary, stores the unitary by ``linalg``'s storage rule and builds the state."""

    alpha: float
    state: DensityMatrix = field(init=False)
    unitary: np.ndarray
    __reduce__ = _rebuilt

    def __post_init__(self):
        _check_polarization(self.alpha)  # before the unitary's rules see a bad alpha
        u = _frozen(_unitary(self.unitary, "register unitary"))
        dim = u.shape[0]
        rho = np.eye(2 * dim, dtype=np.complex128)
        rho[:dim, dim:] = self.alpha * u.conj().T
        rho[dim:, :dim] = self.alpha * u
        rho /= 2 * dim
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "state", DensityMatrix(rho))
        object.__setattr__(self, "unitary", u)


@dataclass(frozen=True)
class TraceEstimate:
    """Exact and shot-sampled X/Y expectations of the clean qubit.

    ``std_error`` is the larger of the two per-axis binomial standard
    errors sqrt((1 - mean**2) / shots) computed from the sampled means.
    The 6-sigma agreement between sampled and exact values is validated
    in the test suite for recorded seeds at production shot counts; it
    cannot hold for degenerate cases like a single shot.
    """

    exact_re: float
    exact_im: float
    sampled_re: float
    sampled_im: float
    shots: int
    std_error: float
    seed: int


def build_un(spec: UnitaryBlockSpec, n: int) -> np.ndarray:
    """Assemble the n-register-qubit unitary from the block spec.

    Layout: the most significant register qubit indexes the 2x2 block
    structure; the remaining factor is I^(n-2) tensor the block on the
    diagonal and X^(n-2) tensor the block off the diagonal.
    """
    if n < 2:
        raise ValueError("register size must be >= 2")
    if n > MAX_REGISTER:
        raise ValueError(f"register size {n} exceeds maximum {MAX_REGISTER}")
    eye = np.eye(2 ** (n - 2), dtype=np.complex128)
    xs = kron_all(*([PAULI_X] * (n - 2)))
    return _unitary(np.block([
        [np.kron(eye, spec.a1), np.kron(xs, spec.c1)],
        [np.kron(xs, spec.d1), np.kron(eye, spec.b1)],
    ]), "assembled matrix")


def rho3(alpha: float) -> Dqc1State:
    """Three-qubit output state for the canonical blocks.

    Diagonal is uniformly 1/8; the only off-diagonal entries are alpha/8
    at the four coupling pairs (|000>,|111>), (|001>,|101>), (|010>,|110>),
    (|011>,|100>) and their conjugates.
    """
    return Dqc1State(alpha, _canonical_u2())


@functools.cache
def _canonical_u2() -> np.ndarray:
    """build_un(canonical_blocks(), 2), validated once; each state stores its own copy."""
    return _frozen(build_un(canonical_blocks(), 2))


def expectation_xy(s: Dqc1State) -> tuple[float, float]:
    """Exact X and Y expectations of the clean qubit.

    Closed form alpha * tr(U) / 2**n; the test suite checks agreement
    with the direct operator average tr[(P tensor I) rho] to 1e-12.
    """
    tr_u = np.trace(s.unitary)
    scale = s.alpha / s.unitary.shape[0]
    return float(scale * tr_u.real), float(scale * tr_u.imag)


def sample_trace_estimate(s: Dqc1State, shots: int, seed: int) -> TraceEstimate:
    """Simulate shot-sampled X and Y measurements of the clean qubit.

    Each axis draws the count k of +1 outcomes among ``shots``
    Bernoulli trials with p(+1) = (1 + e)/2 for exact expectation e as
    one binomial variate, so memory does not grow with ``shots``; the
    sampled mean is (2k - shots)/shots.  Both axes draw from one PCG64
    stream keyed by ``seed``, so results are bit-reproducible per seed.
    """
    shots = operator.index(shots)
    if not 1 <= shots <= MAX_SHOTS:
        raise ValueError(f"shots must lie in [1, 2**63 - 1], got {shots}")
    _check_seed(seed)
    exact_re, exact_im = expectation_xy(s)
    rng = np.random.default_rng(seed)
    means = []
    for exact in (exact_re, exact_im):
        k = int(rng.binomial(shots, min(max((1 + exact) / 2, 0.0), 1.0)))
        means.append((2 * k - shots) / shots)
    std_errors = [np.sqrt(max(1 - m * m, 0.0) / shots) for m in means]
    return TraceEstimate(
        exact_re=exact_re,
        exact_im=exact_im,
        sampled_re=means[0],
        sampled_im=means[1],
        shots=shots,
        std_error=float(max(std_errors)),
        seed=seed,
    )
