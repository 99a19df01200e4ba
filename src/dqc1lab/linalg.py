"""Dense complex linear algebra over multi-qubit Hilbert spaces.

Qubit ordering convention used throughout the package: qubit 0 is the most
significant tensor factor, so a register index ``i`` has qubit 0 as the
leading bit of ``i``.  All entropies are in bits (base-2 logarithms).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, fields
from typing import Iterable

import numpy as np

HERMITICITY_TOL = 1e-12
UNITARITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = -1e-10
EIG_HERMITICITY_TOL = 1e-10
ZERO_EIGENVALUE_TOL = 1e-12
MAX_KRON_DIM = 4096

_PAULI_STACK = np.frombuffer(np.array(  # over immutable bytes, as in _frozen
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
    dtype=np.complex128).tobytes(), np.complex128).reshape(4, 2, 2)
PAULI_I, PAULI_X, PAULI_Y, PAULI_Z = _PAULI_STACK


def _as_complex_matrix(m: np.ndarray) -> np.ndarray:
    """m as a finite square complex128 matrix; the one admission rule.  It copies
    only to convert and never freezes, and no public function writes m or returns it."""
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has a non-finite entry")
    return m


def _frozen(m: np.ndarray) -> np.ndarray:
    """An admitted copy of m, as a view of immutable bytes; the one storage rule.  numpy
    will not make that view, or the array its ``base`` holds, writable again."""
    m = _as_complex_matrix(m)
    return np.frombuffer(m.tobytes(), np.complex128).reshape(m.shape)


def _rebuilt(record) -> tuple:
    """``__reduce__`` of each record that stores arrays: copies rebuild through its constructor."""
    return type(record), tuple(getattr(record, f.name) for f in fields(record) if f.init)


def _qubit_count(m: np.ndarray) -> int:
    """n for a 2**n x 2**n matrix; the one rule that admits a dimension."""
    dim = m.shape[0]
    n = dim.bit_length() - 1
    if n < 1 or dim != 2**n:
        raise ValueError(f"matrix dim {dim} is not 2**n for a qubit count n >= 1")
    return n


def hermiticity_defect(m: np.ndarray) -> float:
    """Max-norm distance of m from its own conjugate transpose."""
    return float(np.abs(m - m.conj().T).max())


def unitarity_defect(u: np.ndarray) -> float:
    """Max-norm distance of u^H u from the identity; not finite when u is not."""
    return float(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max())


def _unitary(u: np.ndarray, what: str) -> np.ndarray:
    """u as a finite complex matrix with defect within 1e-12; the one unitarity rule."""
    u = _as_complex_matrix(u)
    defect = unitarity_defect(u)
    if not defect <= UNITARITY_TOL:
        raise ValueError(f"{what} fails unitarity within 1e-12 (defect {defect:.2e})")
    return u


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator on qubits.

    ``num_qubits`` is read from the dimension, which must be 2**n with
    n >= 1.  Validates all three defining properties on construction:
    hermiticity within 1e-12 (max-norm), trace 1 within 1e-12, and
    smallest eigenvalue >= -1e-10 (slack for rounding accumulated in
    long Kronecker chains).
    """

    matrix: np.ndarray
    num_qubits: int = field(init=False)
    __reduce__ = _rebuilt

    def __post_init__(self):
        m = _frozen(self.matrix)
        object.__setattr__(self, "num_qubits", _qubit_count(m))
        if hermiticity_defect(m) > HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian within 1e-12")
        if abs(np.trace(m).real - 1.0) > TRACE_TOL or abs(np.trace(m).imag) > TRACE_TOL:
            raise ValueError("density matrix trace is not 1 within 1e-12")
        if np.linalg.eigvalsh(m).min() < PSD_TOL:
            raise ValueError("density matrix has an eigenvalue below -1e-10")
        object.__setattr__(self, "matrix", m)


def maximally_mixed(num_qubits: int) -> DensityMatrix:
    d = 2**num_qubits
    return DensityMatrix(np.eye(d, dtype=np.complex128) / d)


# Seeded random inputs for the battery, the adversaries and the tests.

def _complex_gaussian(rng: np.random.Generator, dim: int) -> np.ndarray:
    """dim x dim matrix of standard complex normals, real part drawn first."""
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def _random_density_matrix(rng: np.random.Generator, num_qubits: int) -> DensityMatrix:
    """Ginibre state g g^H / tr(g g^H)."""
    g = _complex_gaussian(rng, 2**num_qubits)
    m = g @ g.conj().T
    m /= np.trace(m).real
    return DensityMatrix((m + m.conj().T) / 2)


def _random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar unitary: Q of a complex Gaussian matrix, R's diagonal phases removed."""
    q, r = np.linalg.qr(_complex_gaussian(rng, dim))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = _complex_gaussian(rng, dim)
    return (g + g.conj().T) / 2


def _qubit_subset(qubits: Iterable[int], num_qubits: int,
                  allow_full: bool = False) -> tuple[int, ...]:
    """Sorted distinct indices of a nonempty subset of the qubits; the one rule
    for a qubit subset.  It must leave a qubit out unless ``allow_full``, and a
    float index is a TypeError, not a truncation."""
    subset = tuple(sorted({operator.index(q) for q in qubits}))
    if not subset:
        raise ValueError("qubit subset must be nonempty")
    if subset[0] < 0 or subset[-1] >= num_qubits:
        raise ValueError(f"qubit index out of range for {num_qubits} qubits: {subset}")
    if len(subset) == num_qubits and not allow_full:
        raise ValueError(f"qubit subset {subset} of a {num_qubits}-qubit state "
                         "must leave a qubit on the other side")
    return subset


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
    """m as a finite complex square matrix, Hermitian within 1e-10."""
    m = _as_complex_matrix(m)
    if hermiticity_defect(m) > EIG_HERMITICITY_TOL:
        raise ValueError("input is not Hermitian within 1e-10")
    return m


def hermitian_eigensystem(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and matching eigenvector columns of a Hermitian matrix."""
    w, v = np.linalg.eigh(_hermitian_input(m))
    return w[::-1], v[:, ::-1]


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, descending."""
    return np.linalg.eigvalsh(_hermitian_input(m))[::-1]


def _pauli_coefficients(matrix: np.ndarray) -> np.ndarray:
    """Real (4,)*n array of tr(matrix P) over the n-qubit Pauli strings P, undivided
    by the dimension, indexed I, X, Y, Z per qubit with qubit 0 first."""
    m = _as_complex_matrix(matrix)
    n = _qubit_count(m)
    t = m.reshape([2] * (2 * n))
    for k in range(n, 0, -1):  # row axis 0 and column axis k against sigma_mu[col, row]
        t = np.tensordot(t, _PAULI_STACK, axes=([0, k], [2, 1]))
    worst = np.unravel_index(np.abs(t.imag).argmax(), t.shape)
    if abs(t.imag[worst]) > 1e-12:
        raise ValueError(f"expectation of {''.join('IXYZ'[i] for i in worst)} "
                         f"has imaginary residue {t.imag[worst]:.3e}")
    return t.real


def partial_transpose_matrix(m: np.ndarray, transposed: Iterable[int]) -> np.ndarray:
    """Partial transpose of a raw 2**n x 2**n matrix over its n qubits.

    Transposing every qubit is allowed and equals the full transpose;
    bipartition semantics (strict subsets) are enforced by the callers
    that need a two-sided cut.
    """
    m = _as_complex_matrix(m)
    num_qubits = _qubit_count(m)
    cut = _qubit_subset(transposed, num_qubits, allow_full=True)
    t = m.reshape([2] * (2 * num_qubits))
    for q in cut:
        t = np.swapaxes(t, q, q + num_qubits)
    return np.array(t, order="C").reshape(m.shape)  # never a view of m, even at n = 1


def partial_transpose(rho: DensityMatrix, transposed: Iterable[int]) -> np.ndarray:
    """Transpose the row/column indices of a subset of qubits.

    Returns a plain Hermitian matrix; the partial transpose of a state
    need not be positive, which is exactly what makes it useful as an
    entanglement witness.
    """
    return partial_transpose_matrix(rho.matrix, transposed)


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Reduced state on the kept qubits, tracing out the rest."""
    n = rho.num_qubits
    kept = _qubit_subset(keep, n, allow_full=True)
    t = rho.matrix.reshape([2] * (2 * n))
    traced = [q for q in range(n) if q not in kept]
    for offset, q in enumerate(sorted(traced)):
        axis = q - offset
        t = np.trace(t, axis1=axis, axis2=axis + (n - offset))
    d = 2 ** len(kept)
    out = t.reshape(d, d)
    out = (out + out.conj().T) / 2
    return DensityMatrix(out)


def trace_norm(m: np.ndarray) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    return float(np.abs(hermitian_eigenvalues(m)).sum())


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy -tr(rho log2 rho) in bits; eigenvalues below 1e-12 contribute zero."""
    w = hermitian_eigenvalues(rho.matrix)
    w = w[w > ZERO_EIGENVALUE_TOL]
    return float(-(w * np.log2(w)).sum())


def relative_entropy(x: DensityMatrix, y: DensityMatrix) -> float:
    """Relative entropy tr(x log2 x) - tr(x log2 y) in bits.

    Returns +inf when the support of x is not contained in the support
    of y, which distinguishes the divergent case from numeric failure.
    """
    if x.num_qubits != y.num_qubits:
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
