"""Full-separability certification for the three-qubit circuit output.

The route mirrors the structure of the certifiable argument: split the
output state into a GHZ-diagonal part and a manifestly separable part,
then decide the GHZ-diagonal part with the product-coefficient PPT
criterion (PPT under every cut is necessary and sufficient for full
separability of a 3-qubit GHZ-diagonal state whose four odd-weight
stabilizer coefficients have non-positive product).
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .correlations import is_ppt
from .dqc1 import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, rho3
from .linalg import DensityMatrix, hermitian_eigenvalues, kron_all, partial_trace, partial_transpose

GHZ_RECONSTRUCTION_TOL = 1e-10
PT_WITNESS_TOL = -1e-10

_PAULI = {"I": PAULI_I, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}

#: Stabilizer expansion basis of 3-qubit GHZ-diagonal states: any such
#: state is (1/8) * sum_i lambda_i P_i over these strings, lambda_1 = 1.
GHZ_PAULI_STRINGS = ("III", "ZZI", "ZIZ", "IZZ", "XXX", "YYX", "YXY", "XYY")

SINGLE_QUBIT_CUTS = ((0,), (1,), (2,))


class Verdict(enum.Enum):
    FULLY_SEPARABLE = "FullySeparable"
    NPT_ENTANGLED = "NptEntangled"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class SeparabilityVerdict:
    """Certified separability status with the evidence that produced it."""

    status: Verdict
    certificate: Optional[dict] = None


class NonGhzDiagonalError(ValueError):
    """Raised when a state is not GHZ-diagonal; carries the residual."""

    def __init__(self, residual: float):
        self.residual = residual
        super().__init__(
            f"state is not GHZ-diagonal: reconstruction residual {residual:.3e} "
            f"exceeds {GHZ_RECONSTRUCTION_TOL:.0e}")


def pauli_string_matrix(factors: str) -> np.ndarray:
    """Tensor product of single-qubit Paulis named by a string over IXYZ.

    The 64 matrices are built once each and shared read-only.
    """
    if (not isinstance(factors, str) or len(factors) != 3
            or any(c not in _PAULI for c in factors)):
        raise ValueError(f"expected a length-3 string over IXYZ, got {factors!r}")
    return _pauli_string_matrix(factors)


@functools.cache
def _pauli_string_matrix(factors: str) -> np.ndarray:
    m = kron_all(*[_PAULI[c] for c in factors])
    m.setflags(write=False)
    return m


def pauli_expectation(rho: DensityMatrix, factors: str) -> float:
    """tr(rho P) for a 3-qubit Pauli string P; the imaginary residue must vanish."""
    if rho.num_qubits != 3:
        raise ValueError("pauli_expectation is defined for 3-qubit states")
    value = np.trace(rho.matrix @ pauli_string_matrix(factors))
    if abs(value.imag) > 1e-12:
        raise ValueError(f"expectation of {factors} has imaginary residue {value.imag:.3e}")
    return float(value.real)


def ghz_reconstruct(lambdas: np.ndarray) -> np.ndarray:
    """(1/8) * sum_i lambda_i P_i over the stabilizer expansion basis."""
    lams = np.asarray(lambdas, dtype=float)
    if lams.shape != (8,):
        raise ValueError("expected 8 coefficients")
    out = np.zeros((8, 8), dtype=np.complex128)
    for lam, s in zip(lams, GHZ_PAULI_STRINGS):
        out += lam * pauli_string_matrix(s)
    return out / 8


def ghz_diagonal_coefficients(rho: DensityMatrix) -> np.ndarray:
    """The eight stabilizer expansion coefficients of a GHZ-diagonal state.

    Coefficients are extracted as tr(rho P_i); if reconstructing from
    them misses the input by more than 1e-10 in max-norm the state is
    not GHZ-diagonal and NonGhzDiagonalError reports the residual.
    """
    lams = np.array([pauli_expectation(rho, s) for s in GHZ_PAULI_STRINGS])
    residual = float(np.abs(ghz_reconstruct(lams) - rho.matrix).max())
    if residual > GHZ_RECONSTRUCTION_TOL:
        raise NonGhzDiagonalError(residual)
    return lams


def kay_criterion(rho: DensityMatrix) -> SeparabilityVerdict:
    """Decide full separability of a 3-qubit GHZ-diagonal state.

    If the product of the four odd-weight coefficients is <= 0, PPT
    under all three cuts is necessary and sufficient: PPT everywhere
    gives FullySeparable, any negative partial-transpose eigenvalue
    gives NptEntangled.  A positive product with PPT everywhere leaves
    the criterion silent, so the verdict is Inconclusive.
    """
    lams = ghz_diagonal_coefficients(rho)
    product = float(np.prod(lams[4:8]))
    min_pt_eig = min(
        float(hermitian_eigenvalues(partial_transpose(rho, cut)).min())
        for cut in SINGLE_QUBIT_CUTS)
    certificate = {
        "lambdas": lams,
        "odd_weight_product": product,
        "min_pt_eigenvalue": min_pt_eig,
    }
    if min_pt_eig < PT_WITNESS_TOL:
        return SeparabilityVerdict(Verdict.NPT_ENTANGLED, certificate)
    if product <= 0.0:
        return SeparabilityVerdict(Verdict.FULLY_SEPARABLE, certificate)
    return SeparabilityVerdict(Verdict.INCONCLUSIVE, certificate)


def omega_state(alpha: float) -> DensityMatrix:
    """GHZ-diagonal component of the decomposition, normalized by 1/(8-4*alpha)."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    m = np.diag([1, 1 - alpha, 1 - alpha, 1, 1, 1 - alpha, 1 - alpha, 1]).astype(np.complex128)
    for i, j in ((0, 7), (3, 4)):
        m[i, j] = alpha
        m[j, i] = alpha
    return DensityMatrix(m / (8 - 4 * alpha), 3)


@functools.cache
def eta_state() -> DensityMatrix:
    """Even mixture of the product vectors |+>|0>|1> and |+>|1>|0>; built once."""
    plus = np.array([1, 1], dtype=np.complex128) / np.sqrt(2)
    zero = np.array([1, 0], dtype=np.complex128)
    one = np.array([0, 1], dtype=np.complex128)
    phi = np.kron(np.kron(plus, zero), one)
    psi = np.kron(np.kron(plus, one), zero)
    m = (np.outer(phi, phi.conj()) + np.outer(psi, psi.conj())) / 2
    return DensityMatrix(m, 3)


def decompose_rho3(alpha: float) -> tuple[float, DensityMatrix, float, DensityMatrix]:
    """Convex split (1 - alpha/2) * omega(alpha) + (alpha/2) * eta of the
    three-qubit output state; the reconstruction is exact to 1e-12."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return 1.0 - alpha / 2, omega_state(alpha), alpha / 2, eta_state()


def product_vector_purities(state: DensityMatrix) -> list[float]:
    """Purity of each single-qubit reduced state; all 1 for a product vector."""
    return [
        float(np.trace(np.linalg.matrix_power(partial_trace(state, (q,)).matrix, 2)).real)
        for q in range(state.num_qubits)
    ]


def full_separability_verdict(alpha: float) -> SeparabilityVerdict:
    """Separability status of the three-qubit output state at one alpha.

    For alpha <= 1/2 the certificate is the explicit convex split into
    the product-state mixture and the GHZ-diagonal part together with
    the product-criterion verdict on the latter.  For larger alpha the
    witness is the negative partial-transpose eigenvalue (1-2*alpha)/8.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    w1, omega, w2, eta = decompose_rho3(alpha)
    target = rho3(alpha).state.matrix
    residual = float(np.abs(w1 * omega.matrix + w2 * eta.matrix - target).max())
    if alpha <= 0.5:
        kay = kay_criterion(omega)
        certificate = {
            "weights": (w1, w2),
            "reconstruction_residual": residual,
            "ghz_part_verdict": kay,
            "eta_component_purities": product_vector_purities(eta),
        }
        if kay.status is not Verdict.FULLY_SEPARABLE:
            return SeparabilityVerdict(Verdict.INCONCLUSIVE, certificate)
        return SeparabilityVerdict(Verdict.FULLY_SEPARABLE, certificate)
    witness = (1 - 2 * alpha) / 8
    return SeparabilityVerdict(
        Verdict.NPT_ENTANGLED,
        {"witness_eigenvalue": witness, "reconstruction_residual": residual},
    )
