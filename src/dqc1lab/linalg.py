"""Dense complex linear algebra over multi-qubit Hilbert spaces.

Qubit ordering convention used throughout the package: qubit 0 is the most
significant tensor factor, so a register index ``i`` has qubit 0 as the
leading bit of ``i``.  All entropies are in bits (base-2 logarithms).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = -1e-10
EIG_HERMITICITY_TOL = 1e-10
ZERO_EIGENVALUE_TOL = 1e-12
MAX_KRON_DIM = 4096


def _as_complex_matrix(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def hermiticity_defect(m: np.ndarray) -> float:
    """Max-norm distance of m from its own conjugate transpose."""
    return float(np.abs(m - m.conj().T).max())


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator on qubits.

    Validates all three defining properties on construction:
    hermiticity within 1e-12 (max-norm), trace 1 within 1e-12, and
    smallest eigenvalue >= -1e-10 (slack for rounding accumulated in
    long Kronecker chains).
    """

    matrix: np.ndarray
    num_qubits: int

    def __post_init__(self):
        m = _as_complex_matrix(self.matrix)
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        if m.shape[0] != 2**self.num_qubits:
            raise ValueError(
                f"matrix dim {m.shape[0]} does not match {self.num_qubits} qubits"
            )
        if not np.isfinite(m).all():
            raise ValueError("density matrix has a non-finite entry")
        if hermiticity_defect(m) > HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian within 1e-12")
        if abs(np.trace(m).real - 1.0) > TRACE_TOL or abs(np.trace(m).imag) > TRACE_TOL:
            raise ValueError("density matrix trace is not 1 within 1e-12")
        if np.linalg.eigvalsh(m).min() < PSD_TOL:
            raise ValueError("density matrix has an eigenvalue below -1e-10")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def maximally_mixed(num_qubits: int) -> DensityMatrix:
    d = 2**num_qubits
    return DensityMatrix(np.eye(d, dtype=np.complex128) / d, num_qubits)


def _qubit_set(qubits: Iterable[int]) -> tuple[int, ...]:
    """Sorted distinct qubit indices; a float index is a TypeError, not a truncation."""
    return tuple(sorted({operator.index(q) for q in qubits}))


def _check_cut(transposed: Iterable[int], num_qubits: int,
               allow_full: bool = False) -> tuple[int, ...]:
    cut = _qubit_set(transposed)
    if not cut:
        raise ValueError("bipartition must transpose at least one qubit")
    if any(q < 0 or q >= num_qubits for q in cut):
        raise ValueError(f"qubit index out of range for {num_qubits} qubits: {cut}")
    if len(cut) == num_qubits and not allow_full:
        raise ValueError("bipartition must be a strict subset of the qubits")
    return cut


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with a guard against runaway dimensions."""
    a = _as_complex_matrix(a)
    b = _as_complex_matrix(b)
    out_dim = a.shape[0] * b.shape[0]
    if out_dim > MAX_KRON_DIM:
        raise ValueError(f"kron output dim {out_dim} exceeds maximum {MAX_KRON_DIM}")
    return np.kron(a, b)


def kron_all(*matrices: np.ndarray) -> np.ndarray:
    """Left-to-right Kronecker product of any number of factors."""
    out = np.array([[1.0 + 0.0j]])
    for m in matrices:
        out = kron(out, m)
    return out


def _hermitian_input(m: np.ndarray) -> np.ndarray:
    """m as a complex square matrix, Hermitian within 1e-10 and finite."""
    m = _as_complex_matrix(m)
    defect = hermiticity_defect(m)
    if not defect <= EIG_HERMITICITY_TOL:  # NaN fails this comparison too
        raise ValueError("input has a non-finite entry" if np.isnan(defect)
                         else "input is not Hermitian within 1e-10")
    return m


def hermitian_eigensystem(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and matching eigenvector columns of a Hermitian matrix."""
    m = _hermitian_input(m)
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigensolver failed to converge: {exc}") from exc
    order = np.argsort(w)[::-1]
    return w[order], v[:, order]


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, descending."""
    m = _hermitian_input(m)
    try:
        w = np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigensolver failed to converge: {exc}") from exc
    return w[::-1]


def partial_transpose_matrix(m: np.ndarray, num_qubits: int,
                             transposed: Iterable[int]) -> np.ndarray:
    """Partial transpose of a raw matrix over ``num_qubits`` qubits.

    Transposing every qubit is allowed and equals the full transpose;
    bipartition semantics (strict subsets) are enforced by the callers
    that need a two-sided cut.
    """
    m = _as_complex_matrix(m)
    if m.shape[0] != 2**num_qubits:
        raise ValueError(f"matrix dim {m.shape[0]} does not match {num_qubits} qubits")
    cut = _check_cut(transposed, num_qubits, allow_full=True)
    t = m.reshape([2] * (2 * num_qubits))
    for q in cut:
        t = np.swapaxes(t, q, q + num_qubits)
    return np.ascontiguousarray(t.reshape(m.shape))


def partial_transpose(rho: DensityMatrix, transposed: Iterable[int]) -> np.ndarray:
    """Transpose the row/column indices of a subset of qubits.

    Returns a plain Hermitian matrix; the partial transpose of a state
    need not be positive, which is exactly what makes it useful as an
    entanglement witness.
    """
    return partial_transpose_matrix(rho.matrix, rho.num_qubits, transposed)


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Reduced state on the kept qubits, tracing out the rest."""
    kept = _qubit_set(keep)
    n = rho.num_qubits
    if not kept:
        raise ValueError("must keep at least one qubit")
    if any(q < 0 or q >= n for q in kept):
        raise ValueError(f"qubit index out of range for {n} qubits: {kept}")
    if len(kept) == n:
        return rho
    t = rho.matrix.reshape([2] * (2 * n))
    traced = [q for q in range(n) if q not in kept]
    for offset, q in enumerate(sorted(traced)):
        axis = q - offset
        t = np.trace(t, axis1=axis, axis2=axis + (n - offset))
    d = 2 ** len(kept)
    out = t.reshape(d, d)
    out = (out + out.conj().T) / 2
    return DensityMatrix(out, len(kept))


def trace_norm(m: np.ndarray) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    return float(np.abs(hermitian_eigenvalues(m)).sum())


def entropy_of_spectrum(eigenvalues: np.ndarray) -> float:
    """Shannon entropy in bits of a nonnegative spectrum; 0*log 0 := 0."""
    w = np.asarray(eigenvalues, dtype=float)
    w = w[w > ZERO_EIGENVALUE_TOL]
    return float(-(w * np.log2(w)).sum())


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy -tr(rho log2 rho) in bits; eigenvalues below 1e-12 contribute zero."""
    return entropy_of_spectrum(hermitian_eigenvalues(rho.matrix))


def relative_entropy(x: DensityMatrix, y: DensityMatrix) -> float:
    """Relative entropy tr(x log2 x) - tr(x log2 y) in bits.

    Returns +inf when the support of x is not contained in the support
    of y, which distinguishes the divergent case from numeric failure.
    """
    if x.dim != y.dim:
        raise ValueError("states must share one Hilbert space")
    wx, vx = hermitian_eigensystem(x.matrix)
    wy, vy = hermitian_eigensystem(y.matrix)
    x_support = wx > ZERO_EIGENVALUE_TOL
    y_null = wy <= ZERO_EIGENVALUE_TOL
    if np.any(y_null):
        # overlap of x with the null space of y decides divergence
        overlap = vy[:, y_null].conj().T @ x.matrix @ vy[:, y_null]
        if np.trace(overlap).real > 1e-12:
            return float("inf")
    term_x = float((wx[x_support] * np.log2(wx[x_support])).sum())
    log_y = (vy * np.log2(np.where(y_null, 1.0, wy))) @ vy.conj().T
    term_y = float(np.trace(x.matrix @ log_y).real)
    return term_x - term_y
