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

_EIG_FLOOR = 1e-12
_PROB_FLOOR = 1e-12

# The contraction order of A_k over the operands (conj(v), v, B) is
# pinned.  The two orders round differently, and the CSV outputs pin the
# last bit of both: grid values fix the stable argsort order among tied
# cells, refinement values fix the printed optimum.  numpy's own path
# search (optimize=True) picks GRID_PATH for 3 or more points and
# POINT_PATH for 1 or 2, so a searched batch of refinement probes would
# change bits, and the search costs more than a small call.
# Outer products conj(v) v first:
GRID_PATH = ("einsum_path", (0, 1), (0, 1))
# conj(v) into the blocks first; for real-valued blocks a point's value
# does not depend on the batch it is evaluated in:
POINT_PATH = ("einsum_path", (0, 2), (0, 1))


def conditional_entropy_grid(blocks: np.ndarray, thetas: np.ndarray,
                             phis: np.ndarray, path: tuple = GRID_PATH) -> np.ndarray:
    """Measurement objective at each (theta, phi) pair, contracted along ``path``."""
    ct = np.cos(thetas / 2)
    st = np.sin(thetas / 2)
    ph = np.exp(1j * phis)
    v = np.empty((2, thetas.size, 2), dtype=np.complex128)
    v[0, :, 0], v[0, :, 1] = ct, st * ph
    v[1, :, 0], v[1, :, 1] = st, -ct * ph
    total = np.zeros(thetas.size)
    for k in range(2):
        vk = v[k]
        a = np.einsum("gi,gj,ijrc->grc", vk.conj(), vk, blocks, optimize=path)
        p = np.einsum("grr->g", a).real
        safe = p > _PROB_FLOOR
        normalized = a[safe] / p[safe, None, None]
        w = np.linalg.eigvalsh(normalized)
        w = np.where(w > _EIG_FLOOR, w, 1.0)
        entropy = -(w * np.log2(w)).sum(axis=1)
        total[safe] += p[safe] * entropy
    return total
