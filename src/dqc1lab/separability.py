"""Full-separability certification for the three-qubit circuit output.

A negative partial-transpose eigenvalue under a single-qubit cut
witnesses entanglement.  A state that is PPT under every such cut is
split into a GHZ-diagonal part and a manifestly separable part, and the
GHZ-diagonal part is decided with the product-coefficient PPT
criterion (PPT under every cut is necessary and sufficient for full
separability of a 3-qubit GHZ-diagonal state whose four odd-weight
stabilizer coefficients have non-positive product).
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .dqc1 import _check_polarization, rho3
from .linalg import (_PAULI_STACK, DensityMatrix, _frozen, _pauli_coefficients,
                     hermitian_eigenvalues, kron_all, partial_transpose)

GHZ_RECONSTRUCTION_TOL = 1e-10
PPT_TOL = -1e-10

#: Stabilizer expansion basis of 3-qubit GHZ-diagonal states: any such
#: state is (1/8) * sum_i lambda_i P_i over these strings, lambda_1 = 1.
GHZ_PAULI_STRINGS = ("III", "ZZI", "ZIZ", "IZZ", "XXX", "YYX", "YXY", "XYY")
_GHZ_INDEX = tuple(zip(*[["IXYZ".index(c) for c in s] for s in GHZ_PAULI_STRINGS]))

SINGLE_QUBIT_CUTS = ((0,), (1,), (2,))


class Verdict(enum.Enum):
    FULLY_SEPARABLE = "FullySeparable"
    NPT_ENTANGLED = "NptEntangled"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True, eq=False)
class SeparabilityVerdict:
    """Certified separability status with the evidence that produced it."""

    status: Verdict
    certificate: dict


class NonGhzDiagonalError(ValueError):
    """Raised when a state is not GHZ-diagonal; carries the residual."""

    def __init__(self, residual: float):
        self.residual = residual
        super().__init__(
            f"state is not GHZ-diagonal: reconstruction residual {residual:.3e} "
            f"exceeds {GHZ_RECONSTRUCTION_TOL:.0e}")


def pauli_string_matrix(factors: str) -> np.ndarray:
    """Tensor product of single-qubit Paulis named by a string over IXYZ.

    The 64 matrices are built once each, and numpy will not make one writable.
    """
    if (not isinstance(factors, str) or len(factors) != 3
            or any(c not in "IXYZ" for c in factors)):
        raise ValueError(f"expected a length-3 string over IXYZ, got {factors!r}")
    return _pauli_string_matrix(factors)


@functools.cache
def _pauli_string_matrix(factors: str) -> np.ndarray:
    return _frozen(kron_all(*[_PAULI_STACK["IXYZ".index(c)] for c in factors]))


def ghz_reconstruct(lambdas: np.ndarray) -> np.ndarray:
    """(1/8) * sum_i lambda_i P_i over the stabilizer expansion basis."""
    lams = np.asarray(lambdas, dtype=float)
    if lams.shape != (8,):
        raise ValueError("expected 8 coefficients")
    if not np.isfinite(lams).all():
        raise ValueError("coefficients have a non-finite entry")
    out = np.zeros((8, 8), dtype=np.complex128)
    for lam, s in zip(lams, GHZ_PAULI_STRINGS):
        out += lam * pauli_string_matrix(s)
    return out / 8


def ghz_diagonal_coefficients(rho: DensityMatrix) -> np.ndarray:
    """The eight stabilizer expansion coefficients of a GHZ-diagonal state.

    Coefficients are read as tr(rho P_i) from the Pauli transform; if
    reconstructing from them misses the input by more than 1e-10 in max-norm
    the state is not GHZ-diagonal and NonGhzDiagonalError reports the residual.
    """
    if rho.num_qubits != 3:
        raise ValueError("GHZ-diagonal coefficients are defined for 3-qubit states")
    lams = _pauli_coefficients(rho.matrix)[_GHZ_INDEX]
    residual = float(np.abs(ghz_reconstruct(lams) - rho.matrix).max())
    if residual > GHZ_RECONSTRUCTION_TOL:
        raise NonGhzDiagonalError(residual)
    return lams


def _min_pt_eigenvalue(rho: DensityMatrix) -> float:
    """Smallest partial-transpose eigenvalue over the three single-qubit cuts."""
    return min(
        float(hermitian_eigenvalues(partial_transpose(rho, cut)).min())
        for cut in SINGLE_QUBIT_CUTS)


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
    min_pt_eig = _min_pt_eigenvalue(rho)
    certificate = {
        "lambdas": lams,
        "odd_weight_product": product,
        "min_pt_eigenvalue": min_pt_eig,
    }
    if min_pt_eig < PPT_TOL:
        return SeparabilityVerdict(Verdict.NPT_ENTANGLED, certificate)
    if product <= 0.0:
        return SeparabilityVerdict(Verdict.FULLY_SEPARABLE, certificate)
    return SeparabilityVerdict(Verdict.INCONCLUSIVE, certificate)


def omega_state(alpha: float) -> DensityMatrix:
    """GHZ-diagonal component of the decomposition, normalized by 1/(8-4*alpha)."""
    _check_polarization(alpha)
    m = np.diag([1, 1 - alpha, 1 - alpha, 1, 1, 1 - alpha, 1 - alpha, 1]).astype(np.complex128)
    for i, j in ((0, 7), (3, 4)):
        m[i, j] = alpha
        m[j, i] = alpha
    return DensityMatrix(m / (8 - 4 * alpha))


@functools.cache
def eta_state() -> DensityMatrix:
    """Even mixture of the product vectors |+>|0>|1> and |+>|1>|0>; built once."""
    plus = np.array([1, 1], dtype=np.complex128) / np.sqrt(2)
    zero = np.array([1, 0], dtype=np.complex128)
    one = np.array([0, 1], dtype=np.complex128)
    phi, psi = np.kron(np.kron(plus, zero), one), np.kron(np.kron(plus, one), zero)
    m = (np.outer(phi, phi.conj()) + np.outer(psi, psi.conj())) / 2
    return DensityMatrix(m)


def full_separability_verdict(alpha: float) -> SeparabilityVerdict:
    """Separability status of the three-qubit output state at one alpha.

    The state is first tested for PPT under every single-qubit cut: a
    partial-transpose eigenvalue below PPT_TOL (-1e-10) makes it
    NptEntangled, with that eigenvalue as the witness.  Otherwise the
    certificate is the explicit convex split into the product-state
    mixture and the GHZ-diagonal part together with the
    product-criterion verdict on the latter.  It is FullySeparable only
    when that verdict is and the split misses the state by at most 1e-10.
    """
    return _verdict(rho3(alpha).state, alpha)


def _verdict(state: DensityMatrix, alpha: float) -> SeparabilityVerdict:
    """full_separability_verdict on an already built ``rho3(alpha).state``."""
    w1, omega, w2, eta = 1.0 - alpha / 2, omega_state(alpha), alpha / 2, eta_state()
    residual = float(np.abs(w1 * omega.matrix + w2 * eta.matrix - state.matrix).max())
    witness = _min_pt_eigenvalue(state)
    if witness < PPT_TOL:
        return SeparabilityVerdict(
            Verdict.NPT_ENTANGLED,
            {"witness_eigenvalue": witness, "reconstruction_residual": residual},
        )
    kay = kay_criterion(omega)
    certificate = {"weights": (w1, w2), "reconstruction_residual": residual,
                   "ghz_part_verdict": kay}
    # the split certifies only a state it reconstructs
    certified = kay.status is Verdict.FULLY_SEPARABLE and residual <= GHZ_RECONSTRUCTION_TOL
    return SeparabilityVerdict(
        Verdict.FULLY_SEPARABLE if certified else Verdict.INCONCLUSIVE, certificate)
