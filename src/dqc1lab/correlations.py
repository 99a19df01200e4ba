"""Entanglement and discord-type correlation measures.

Negativity convention: N(rho) = ||rho^T_cut||_1 - 1, i.e. twice the
absolute sum of negative partial-transpose eigenvalues, so that the
multiplicative negativity M = 1 + N equals the trace norm of the
partial transpose and is exactly 1 for PPT states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import _kernels
from .linalg import (
    DensityMatrix,
    _qubit_subset,
    partial_trace,
    partial_transpose,
    trace_norm,
    von_neumann_entropy,
)

DISCORD_CLAMP = 1e-9
DEFAULT_GRID = (64, 128)
REFINE_TOL = 1e-7
_MIRROR_SLACK = 1e-9  # equivalent grid cells differ by a few 1e-15


@dataclass(frozen=True)
class MeasurementBasis:
    """Rank-1 projective measurement of one qubit, as Bloch angles.

    theta in [0, pi], phi in [0, 2*pi).  The two projectors are onto
    cos(theta/2)|0> + e^{i phi} sin(theta/2)|1> and its orthogonal
    complement; they are complete by construction.
    """

    theta: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= np.pi:
            raise ValueError("theta must lie in [0, pi]")
        if not 0.0 <= self.phi < 2 * np.pi:
            raise ValueError("phi must lie in [0, 2*pi)")


@dataclass(frozen=True)
class DiscordResult:
    mutual_information: float
    classical_correlation: float
    discord: float
    optimal_basis: MeasurementBasis


def negativity(rho: DensityMatrix, cut: Iterable[int]) -> float:
    """Trace norm of the partial transpose minus one; zero iff PPT."""
    cut = _qubit_subset(cut, rho.num_qubits)
    return max(trace_norm(partial_transpose(rho, cut)) - 1.0, 0.0)


def multiplicative_negativity(rho: DensityMatrix, cut: Iterable[int]) -> float:
    return 1.0 + negativity(rho, cut)


def mutual_information(rho: DensityMatrix, part_a: Iterable[int]) -> float:
    """S(A) + S(B) - S(AB) across the cut part_a vs complement, in bits."""
    n = rho.num_qubits
    a = _qubit_subset(part_a, n)
    b = tuple(q for q in range(n) if q not in a)
    return (von_neumann_entropy(partial_trace(rho, a))
            + von_neumann_entropy(partial_trace(rho, b))
            - von_neumann_entropy(rho))


def _measured_qubit_blocks(rho: DensityMatrix, measured_qubit: int) -> np.ndarray:
    """State as (2, 2, d, d) blocks indexed by the measured qubit."""
    n = rho.num_qubits
    (q,) = _qubit_subset((measured_qubit,), n)
    d = 2 ** (n - 1)
    t = rho.matrix.reshape([2] * (2 * n))
    # bring the measured qubit to the front of both index groups
    t = np.moveaxis(t, (q, n + q), (0, n))
    return np.ascontiguousarray(t.reshape(2, d, 2, d).transpose(0, 2, 1, 3))


def _refine(blocks: np.ndarray, thetas: np.ndarray, phis: np.ndarray,
            step_theta: float, step_phi: float) -> list[tuple[float, float, float]]:
    """Refine every start point by coordinate-shrinking descent, in lock-step.

    ``blocks`` holds one (2, 2, d, d) state per start point, so the start
    points of many states descend together.  Each round probes +theta,
    -theta, +phi, -phi in turn, with theta clipped to [0, pi] and phi
    taken mod 2*pi; a probe is accepted when it improves on the best by
    more than ``REFINE_TOL * 1e-3``.  A row's steps halve after a round in
    which it accepted nothing, and the row stops once both fall to 1e-10.
    Every live row is at the same probe, so one kernel call per probe
    evaluates them all, and each row follows exactly the path it would
    follow alone.  Returns (value, theta, phi) per start point.
    """

    def clamp(x):
        x[:, 0] = np.clip(x[:, 0], 0.0, np.pi)
        x[:, 1] = np.mod(x[:, 1], 2 * np.pi)
        return x

    x = clamp(np.column_stack([thetas, phis]))
    best = _kernels.conditional_entropy_grid(blocks, x[:, 0], x[:, 1])
    steps = np.tile([step_theta, step_phi], (len(x), 1))
    live = np.flatnonzero((steps > 1e-10).any(axis=1))
    while live.size:
        own = blocks[live]
        improved = np.zeros(live.size, dtype=bool)
        for col, sign in ((0, 1.0), (0, -1.0), (1, 1.0), (1, -1.0)):
            probe = x[live]
            probe[:, col] += sign * steps[live, col]
            clamp(probe)
            val = _kernels.conditional_entropy_grid(own, probe[:, 0], probe[:, 1])
            better = val < best[live] - REFINE_TOL * 1e-3
            best[live[better]], x[live[better]] = val[better], probe[better]
            improved |= better
        steps[live[~improved]] /= 2
        live = live[(steps[live] > 1e-10).any(axis=1)]
    return list(zip(best, x[:, 0], x[:, 1]))


def _class_representatives(real: bool) -> np.ndarray:
    """Smallest flat index among each ``DEFAULT_GRID`` cell's equivalent cells.

    n and -n are one measurement: the antipode (n_theta-1-i, j + n_phi/2).
    Real blocks add the phi-mirror j -> -j.
    """
    n_theta, n_phi = DEFAULT_GRID
    i = np.arange(n_theta)[:, None]
    j = np.arange(n_phi)[None, :]
    images = [i * n_phi + j, (n_theta - 1 - i) * n_phi + (j + n_phi // 2) % n_phi]
    if real:
        images += [img - img % n_phi + (-img % n_phi) for img in images]
    return np.minimum.reduce(images).ravel()


def _grid_start_cells(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(thetas, phis) of the 5 best cells of the ``DEFAULT_GRID``, best first.

    Exactly the stable argsort of the whole grid: a cell has the same bits
    in any subset of the grid, and equivalent cells differ by rounding, so
    only the class representatives and the cells whose representative is
    within ``_MIRROR_SLACK`` of the 5th-best value can be in the top 5.
    The cells are returned as copies, so no grid array outlives the call.
    """
    n_theta, n_phi = DEFAULT_GRID
    tg, pg = (a.ravel() for a in np.meshgrid(
        np.linspace(0.0, np.pi, n_theta),
        np.linspace(0.0, 2 * np.pi, n_phi, endpoint=False), indexing="ij"))
    rep = _class_representatives(not blocks.imag.any())
    cells = np.arange(rep.size)
    values = np.full(rep.size, np.inf)
    own = cells[rep == cells]
    values[own] = _kernels.conditional_entropy_grid(blocks, tg[own], pg[own])
    screen = values[rep]
    near = (screen <= np.partition(screen, 4)[4] + _MIRROR_SLACK) & (rep != cells)
    if near.any():
        values[near] = _kernels.conditional_entropy_grid(blocks, tg[near], pg[near])
    order = np.argsort(values, kind="stable")[:5]
    return tg[order], pg[order]


def classical_correlation(rhos: Iterable[DensityMatrix],
                          measured_qubit: int) -> list[tuple[float, MeasurementBasis]]:
    """Largest measurement-extractable correlation of each state, with its basis.

    Maximizes S(unmeasured) - sum_k p_k S(rho_k) over rank-1 projective
    measurements of one qubit: the 64x128 theta x phi grid seeds
    coordinate-shrinking refinement from its 5 best cells, down to 1e-7
    in the objective.  Each state's grid takes one or two kernel calls;
    the start cells of all states are then refined in one lock-step, one
    kernel call per step, each along the same path it would take alone,
    so a state's result does not depend on the others.  Each result is a
    certified lower bound on the supremum; ties in the optimum location
    break toward the smallest (theta, phi) pair.  The batch is read once;
    it must be nonempty, its states all of one qubit count.
    """
    rhos = list(rhos)
    if len({rho.num_qubits for rho in rhos}) != 1:
        raise ValueError("a batch takes one or more states, all with the same "
                         "number of qubits")
    blocks, s_rest, thetas, phis = [], [], [], []
    for rho in rhos:
        b = _measured_qubit_blocks(rho, measured_qubit)
        unmeasured = tuple(q for q in range(rho.num_qubits) if q != measured_qubit)
        s_rest.append(von_neumann_entropy(partial_trace(rho, unmeasured)))
        t, p = _grid_start_cells(b)
        blocks.append(b)
        thetas.append(t)
        phis.append(p)

    n_theta, n_phi = DEFAULT_GRID
    per_state = thetas[0].size  # every state has the same grid
    candidates = _refine(np.repeat(np.stack(blocks), per_state, axis=0),
                         np.concatenate(thetas), np.concatenate(phis),
                         np.pi / (n_theta - 1), 2 * np.pi / n_phi)
    results = []
    for i, s in enumerate(s_rest):
        own = candidates[i * per_state:(i + 1) * per_state]
        best_val = min(c[0] for c in own)
        # lexicographic tie-break among refined optima within the objective tolerance
        tied = sorted((t, p) for val, t, p in own if val <= best_val + REFINE_TOL)
        theta, phi = tied[0]
        results.append((s - best_val, MeasurementBasis(theta=float(theta), phi=float(phi))))
    return results


def discord(rhos: Iterable[DensityMatrix], measured_qubit: int) -> list[DiscordResult]:
    """Mutual information across the measured-qubit cut minus the
    classical correlation, per state; small negative residues above
    -1e-9 clamp to 0.  The classical correlations share one lock-step."""
    rhos = list(rhos)
    mis = [mutual_information(rho, (measured_qubit,)) for rho in rhos]
    results = []
    for mi, (cc, basis) in zip(mis, classical_correlation(rhos, measured_qubit)):
        q = mi - cc
        if q < -DISCORD_CLAMP:
            raise RuntimeError(
                f"discord {q} below the -1e-9 clamp window; optimizer exceeded "
                "the mutual information")
        results.append(DiscordResult(
            mutual_information=mi,
            classical_correlation=cc,
            discord=max(q, 0.0),
            optimal_basis=basis,
        ))
    return results
