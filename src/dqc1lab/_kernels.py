"""Measurement-grid kernel for the classical-correlation optimizer.

Evaluating the measured-qubit objective on a dense Bloch-angle grid is
the hot loop of the package: every grid point costs two conditional
reduced states plus their eigendecompositions, batched in numpy.

For measurement direction (theta, phi) on one qubit of a state given as
2x2 blocks ``B[i, j]`` with respect to that qubit, the objective is

    sum_k p_k * S(A_k / p_k),   A_k = sum_ij conj(v_k[i]) v_k[j] B[i, j]

where v_0, v_1 are the orthonormal measurement vectors and S is the
von Neumann entropy in bits.
"""

from __future__ import annotations

import numpy as np

from .linalg import ZERO_EIGENVALUE_TOL

_PROB_FLOOR = 1e-12
_SLICE = 512


def _conditional_blocks(blocks: np.ndarray, cv: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A_k as a (g, d, d) array, for measurement vectors ``v`` and ``cv = conj(v)``.

    The contraction order is pinned, and so is the shape of every
    multiply and matmul: the CSV outputs pin the last bit of both orders.
    Grid values fix the stable argsort order among tied cells, and
    refinement values fix the printed optimum.

    Shared (2, 2, d, d) blocks take the outer products conj(v_i) v_j
    first, then one (g, 4) @ (4, d^2) product.  Per-point (g, 2, 2, d, d)
    blocks take conj(v) into the blocks first, as a stacked
    (g, 2d^2, 2) @ (g, 2, 1) product, then v as (g, d^2, 2) @ (g, 2, 1).
    Every point of the per-point order is its own product, so its value
    does not depend on the batch it is evaluated in.  These are the
    products numpy's einsum dispatches for the two contraction paths,
    operand order included: complex multiply is not bitwise commutative.
    """
    g, d = v.shape[0], blocks.shape[-1]
    if blocks.ndim == 4:
        outer = np.multiply(v.T[None], cv.T[:, None])  # indexed (i, j, g)
        a = outer.transpose(2, 0, 1).reshape(g, 4) @ blocks.reshape(4, d * d)
        return a.reshape(g, d, d)
    # (g, i, j, r, c) -> (g, jrc, i)
    half = blocks.transpose(0, 2, 3, 4, 1).reshape(g, 2 * d * d, 2) @ cv[:, :, None]
    # (g, j, r, c) -> (g, cr, j)
    a = half.reshape(g, 2, d, d).transpose(0, 3, 2, 1).reshape(g, d * d, 2) @ v[:, :, None]
    return a.reshape(g, d, d).transpose(0, 2, 1)


def conditional_entropy_grid(blocks: np.ndarray, thetas: np.ndarray,
                             phis: np.ndarray) -> np.ndarray:
    """Measurement objective at each (theta, phi) pair.

    ``blocks`` is either one state's (2, 2, d, d) blocks, shared by every
    point, or (g, 2, 2, d, d) blocks, one state per point.  Points run in
    slices of ``_SLICE``, which bounds the temporaries; no cell's bits
    depend on the other cells of its call.
    """
    total = np.empty(thetas.size)
    for start in range(0, thetas.size, _SLICE):
        s = slice(start, start + _SLICE)
        total[s] = _slice_objective(blocks if blocks.ndim == 4 else blocks[s],
                                    thetas[s], phis[s])
    return total


def _slice_objective(blocks: np.ndarray, thetas: np.ndarray,
                     phis: np.ndarray) -> np.ndarray:
    ct = np.cos(thetas / 2)
    st = np.sin(thetas / 2)
    ph = np.exp(1j * phis)
    v = np.empty((2, thetas.size, 2), dtype=np.complex128)
    v[0, :, 0], v[0, :, 1] = ct, st * ph
    v[1, :, 0], v[1, :, 1] = st, -ct * ph
    total = np.zeros(thetas.size)
    for k in range(2):
        vk = v[k]
        a = _conditional_blocks(blocks, vk.conj(), vk)
        p = np.einsum("grr->g", a).real
        safe = p > _PROB_FLOOR
        # normalize in place: the full (g, d, d) array is freed before eigvalsh
        a = a[safe]
        a /= p[safe, None, None]
        w = np.linalg.eigvalsh(a)
        w = np.where(w > ZERO_EIGENVALUE_TOL, w, 1.0)
        entropy = -(w * np.log2(w)).sum(axis=1)
        total[safe] += p[safe] * entropy
    return total
