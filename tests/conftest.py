"""Shared helpers for the test suite: the library's seeded random inputs
under short names, and independent brute-force oracles kept deliberately
separate from the library implementations they check."""

import functools
import itertools

import numpy as np

from dqc1lab import DensityMatrix
from dqc1lab.linalg import _random_density_matrix as random_density_matrix
from dqc1lab.linalg import _random_hermitian as random_hermitian
from dqc1lab.linalg import _random_unitary as random_unitary


PAULI = {"I": np.eye(2, dtype=complex),
         "X": np.array([[0, 1], [1, 0]], dtype=complex),
         "Y": np.array([[0, -1j], [1j, 0]]),
         "Z": np.array([[1, 0], [0, -1]], dtype=complex)}

# eigenvalues and eigenvectors (rows) of each single-qubit Pauli; the
# identity takes the computational basis
PAULI_EIGENVECTORS = {
    "I": (np.array([1, 1]), np.eye(2, dtype=complex)),
    "X": (np.array([1, -1]), np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)),
    "Y": (np.array([1, -1]), np.array([[1, 1j], [1, -1j]]) / np.sqrt(2)),
    "Z": (np.array([1, -1]), np.eye(2, dtype=complex)),
}


def pauli_coefficients(m: np.ndarray) -> dict[str, complex]:
    """c_P = tr(P m) / dim over all 4**n Pauli strings P, so m = sum_P c_P P."""
    strings = {"": np.ones((1, 1), dtype=complex)}
    while len(next(iter(strings.values()))) < len(m):
        strings = {s + c: np.kron(p, PAULI[c]) for s, p in strings.items() for c in PAULI}
    return {s: np.trace(p @ m) / len(m) for s, p in strings.items()}


def pauli_product_ensemble(terms: dict[str, float]) -> list[tuple[float, np.ndarray]]:
    """Product-vector ensemble of (I + sum_P r_P P) / D over Pauli strings P != I.

    (I + s P) / D with s = +-1 is the even mixture of the D/2 Kronecker
    products of eigenvectors of P's factors whose eigenvalues multiply to
    s, and I / D that of the computational basis, so the state is these
    mixtures weighted |r_P| and 1 - sum_P |r_P| (Braunstein et al., PRL
    83, 1054, 1999).  Returns (weight, vectors) per mixture, the vectors
    as the rows of one array.
    """
    num_qubits = len(next(iter(terms)))
    mixtures = [(1 - sum(abs(r) for r in terms.values()), "I" * num_qubits, 1)]
    mixtures += [(abs(r), p, np.sign(r)) for p, r in terms.items() if r]
    ensemble = []
    for weight, p, sign in mixtures:
        eigenvalues, vectors = np.ones(1), np.ones((1, 1), dtype=complex)
        for c in p:
            lams, vs = PAULI_EIGENVECTORS[c]
            eigenvalues = np.outer(eigenvalues, lams).ravel()
            vectors = np.einsum("ai,bj->abij", vectors, vs).reshape(len(eigenvalues), -1)
        ensemble.append((weight, vectors[eigenvalues == sign]))
    return ensemble


def ensemble_state(ensemble: list[tuple[float, np.ndarray]]) -> np.ndarray:
    """The sum over mixtures of each weight times the even mixture of its vectors."""
    return sum(weight * vectors.T @ vectors.conj() / len(vectors)
               for weight, vectors in ensemble)


def random_product_state(rng: np.random.Generator, num_qubits: int) -> DensityMatrix:
    m = np.array([[1.0 + 0j]])
    for _ in range(num_qubits):
        m = np.kron(m, random_density_matrix(rng, 1).matrix)
    return DensityMatrix(m)


def cnot(control: int, target: int, num_qubits: int) -> np.ndarray:
    """Dense permutation unitary flipping ``target`` conditioned on ``control``."""
    if control == target:
        raise ValueError("control and target must differ")
    if not (0 <= control < num_qubits and 0 <= target < num_qubits):
        raise ValueError(f"qubit index out of range for {num_qubits} qubits")
    dim = 2**num_qubits
    m = np.zeros((dim, dim), dtype=np.complex128)
    cbit = num_qubits - 1 - control
    tbit = num_qubits - 1 - target
    for b in range(dim):
        out = b ^ (((b >> cbit) & 1) << tbit)
        m[out, b] = 1
    return m


def measurement_projectors(basis) -> tuple[np.ndarray, np.ndarray]:
    """The two rank-1 projectors of a ``MeasurementBasis``: onto
    cos(theta/2)|0> + e^{i phi} sin(theta/2)|1> and its orthogonal complement."""
    ct, st = np.cos(basis.theta / 2), np.sin(basis.theta / 2)
    ph = np.exp(1j * basis.phi)
    v0 = np.array([ct, st * ph], dtype=np.complex128)
    v1 = np.array([st, -ct * ph], dtype=np.complex128)
    return np.outer(v0, v0.conj()), np.outer(v1, v1.conj())


def conditional_entropy(rho: DensityMatrix, measured_qubit: int, basis) -> float:
    """Average post-measurement entropy sum_k p_k S(rho_k), in bits.

    rho_k is the normalized state after projecting the measured qubit
    onto outcome k, by full-space projector sandwiches; outcomes with
    probability below 1e-12 contribute zero.
    """
    total = 0.0
    for b in measurement_projectors(basis):
        op = np.array([[1.0 + 0j]])
        for q in range(rho.num_qubits):
            op = np.kron(op, b if q == measured_qubit else np.eye(2))
        sandwich = op @ rho.matrix @ op
        p = float(np.trace(sandwich).real)
        if p > 1e-12:
            w = np.linalg.eigvalsh((sandwich + sandwich.conj().T) / 2 / p)
            w = w[w > 1e-12]
            total += p * float(-(w * np.log2(w)).sum())
    return total


def oracle_partial_transpose(m: np.ndarray, num_qubits: int, cut) -> np.ndarray:
    """Index-arithmetic partial transpose, independent of axis swapping."""
    dim = 2**num_qubits
    out = np.zeros_like(m)
    masks = [1 << (num_qubits - 1 - q) for q in cut]
    for i in range(dim):
        for j in range(dim):
            ti, tj = i, j
            for mask in masks:
                bi, bj = ti & mask, tj & mask
                ti = (ti & ~mask) | bj
                tj = (tj & ~mask) | bi
            out[ti, tj] = m[i, j]
    return out


def oracle_partial_trace(m: np.ndarray, num_qubits: int, keep) -> np.ndarray:
    """Index-arithmetic partial trace, independent of tensor reshaping."""
    keep = sorted(keep)
    traced = [q for q in range(num_qubits) if q not in keep]
    dk = 2 ** len(keep)
    out = np.zeros((dk, dk), dtype=complex)

    def embed(sub_index, env_index):
        full = 0
        for pos, q in enumerate(keep):
            bit = (sub_index >> (len(keep) - 1 - pos)) & 1
            full |= bit << (num_qubits - 1 - q)
        for pos, q in enumerate(traced):
            bit = (env_index >> (len(traced) - 1 - pos)) & 1
            full |= bit << (num_qubits - 1 - q)
        return full

    for i in range(dk):
        for j in range(dk):
            for e in range(2 ** len(traced)):
                out[i, j] += m[embed(i, e), embed(j, e)]
    return out


# numpy's einsum formulation of the measurement kernel, with its
# contraction order fixed by an explicit path: the outer products
# conj(v) v first (the grid order), or conj(v) into the blocks first
# (the point order).
GRID_ORDER = ((0, 1), (0, 1))
POINT_ORDER = ((0, 2), (0, 1))


def oracle_entropy_grid(blocks: np.ndarray, thetas: np.ndarray, phis: np.ndarray,
                        path) -> np.ndarray:
    """Measurement objective sum_k p_k S(A_k / p_k) at each (theta, phi).

    ``blocks`` is one state's (2, 2, d, d) blocks or (g, 2, 2, d, d)
    blocks, one state per point; A_k is contracted by ``np.einsum`` along
    ``path`` (GRID_ORDER or POINT_ORDER).
    """
    ct, st, ph = np.cos(thetas / 2), np.sin(thetas / 2), np.exp(1j * phis)
    v = np.empty((2, thetas.size, 2), dtype=np.complex128)
    v[0, :, 0], v[0, :, 1] = ct, st * ph
    v[1, :, 0], v[1, :, 1] = st, -ct * ph
    subscripts = "gi,gj,ijrc->grc" if blocks.ndim == 4 else "gi,gj,gijrc->grc"
    total = np.zeros(thetas.size)
    for vk in v:
        a = np.einsum(subscripts, vk.conj(), vk, blocks, optimize=("einsum_path", *path))
        p = np.einsum("grr->g", a).real
        safe = p > 1e-12
        w = np.linalg.eigvalsh(a[safe] / p[safe, None, None])
        w = np.where(w > 1e-12, w, 1.0)
        total[safe] += p[safe] * -(w * np.log2(w)).sum(axis=1)
    return total


def _xlog2x(x):
    return x * np.log2(np.where(x > 0, x, 1.0))


def clean_qubit_objective(phases: np.ndarray, alpha: float, thetas, phis) -> np.ndarray:
    """sum_k p_k S(rho_k) for the clean qubit of a DQC1 state measured along (theta, phi).

    The state is (I + alpha (|0><1| U^H + |1><0| U)) / 2D with D = 2**n, so
    the outcomes +- leave the register with eigenvalues
    (1 +- alpha sin(theta) cos(lambda_j - phi)) / 2D, where e^{i lambda_j}
    are the eigenvalues of U.  ``thetas`` and ``phis`` broadcast together.
    """
    c = alpha * np.sin(thetas)[..., None] * np.cos(phases - np.asarray(phis)[..., None])
    total = 0.0
    for sign in (1, -1):
        ev = (1 + sign * c) / (2 * phases.size)
        total = total - _xlog2x(ev).sum(axis=-1) + _xlog2x(ev.sum(axis=-1))
    return total


def clean_qubit_discord(u: np.ndarray, alpha: float) -> float:
    """Discord of ``Dqc1State(alpha, u)`` measured on the clean qubit, from
    U's eigenphases alone: S(clean) - S(rho) + min over phi of the objective at
    theta = pi/2 (Datta, Shaji & Caves, PRL 100, 050502, 2008).  The clean
    qubit has eigenvalues (1 +- alpha |tr U| / D) / 2 and the state
    (1 +- alpha) / 2D, D times each.  phi is searched on a 20001-point grid,
    then on six 21-point grids, each a tenth as wide around the best so far."""
    phases = np.angle(np.linalg.eigvals(u))
    dim = phases.size
    r = alpha * abs(np.exp(1j * phases).sum()) / dim
    s_clean = -_xlog2x(np.array([1 + r, 1 - r]) / 2).sum()
    s_rho = -dim * _xlog2x(np.array([1 + alpha, 1 - alpha]) / (2 * dim)).sum()
    phis = np.linspace(0.0, 2 * np.pi, 20001)
    step = phis[1]
    for _ in range(7):
        values = clean_qubit_objective(phases, alpha, np.pi / 2, phis)
        phis = phis[values.argmin()] + np.linspace(-step, step, 21)
        step /= 10
    return float(s_clean - s_rho + values.min())
