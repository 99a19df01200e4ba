"""Shared helpers for the test suite: seeded random states and
independent brute-force oracles kept deliberately separate from the
library implementations they check."""

import numpy as np

from dqc1lab import DensityMatrix


def random_density_matrix(rng: np.random.Generator, num_qubits: int) -> DensityMatrix:
    d = 2**num_qubits
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    m /= np.trace(m).real
    return DensityMatrix((m + m.conj().T) / 2, num_qubits)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_product_state(rng: np.random.Generator, num_qubits: int) -> DensityMatrix:
    m = np.array([[1.0 + 0j]])
    for _ in range(num_qubits):
        m = np.kron(m, random_density_matrix(rng, 1).matrix)
    return DensityMatrix(m, num_qubits)


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
