"""Property tests of the discord-type measures and the activation protocol
on random few-qubit states.

Each example draws a seed and builds its states with the suite's seeded
random-state helper, so a failure names the seed that reproduces it.
"""

import numpy as np
from conftest import random_density_matrix, random_unitary
from hypothesis import given, settings
from hypothesis import strategies as st

import dqc1lab as d

GRID = (16, 32)
PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True,
                             database=None)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
qubits = st.integers(min_value=0, max_value=1)


def two_qubit_state(seed):
    return random_density_matrix(np.random.default_rng(seed), 2)


@PROPERTY_SETTINGS
@given(seed=seeds, qubit=qubits)
def test_discord_lies_between_zero_and_the_mutual_information(seed, qubit):
    rho = two_qubit_state(seed)
    result = d.discord(rho, qubit, grid=GRID)
    assert 0.0 <= result.discord <= result.mutual_information + 1e-12
    assert result.mutual_information == d.mutual_information(rho, (qubit,))


@PROPERTY_SETTINGS
@given(seed=seeds, qubit=qubits)
def test_classical_correlation_is_at_most_either_marginal_entropy(seed, qubit):
    rho = two_qubit_state(seed)
    value, _ = d.classical_correlation(rho, qubit, grid=GRID)
    s_a = d.von_neumann_entropy(d.partial_trace(rho, (0,)))
    s_b = d.von_neumann_entropy(d.partial_trace(rho, (1,)))
    assert value <= min(s_a, s_b) + 1e-12


@PROPERTY_SETTINGS
@given(batch=st.lists(seeds, min_size=1, max_size=4), qubit=qubits)
def test_a_batch_equals_its_states_one_at_a_time(batch, qubit):
    states = [two_qubit_state(seed) for seed in batch]
    together = d.discord_many(states, qubit, grid=GRID)
    alone = [d.discord(rho, qubit, grid=GRID) for rho in states]
    assert together == alone


@PROPERTY_SETTINGS
@given(seed=seeds, num_qubits=st.integers(min_value=2, max_value=3),
       data=st.data())
def test_a_local_unitary_on_an_unmeasured_qubit_leaves_the_correlations(
        seed, num_qubits, data):
    # the state is real and the unitary makes it complex, so the grid
    # search folds mirrored cells together on one side and only antipodal
    # cells on the other
    rng = np.random.default_rng(seed)
    rho = d.DensityMatrix(random_density_matrix(rng, num_qubits).matrix.real, num_qubits)
    measured = data.draw(st.integers(min_value=0, max_value=num_qubits - 1))
    rotated_qubit = data.draw(st.sampled_from(
        [q for q in range(num_qubits) if q != measured]))
    w = np.array([[1.0 + 0j]])
    for q in range(num_qubits):
        w = np.kron(w, random_unitary(rng, 2) if q == rotated_qubit else np.eye(2))
    rotated = d.DensityMatrix(w @ rho.matrix @ w.conj().T, num_qubits)
    base, moved = d.discord(rho, measured, grid=GRID), d.discord(rotated, measured, grid=GRID)
    assert abs(moved.discord - base.discord) <= 1e-9
    assert abs(moved.classical_correlation - base.classical_correlation) <= 1e-9


@PROPERTY_SETTINGS
@given(seed=seeds)
def test_activation_equals_one_plus_the_off_diagonal_l1_norm(seed):
    # after the copy gates the partial transpose is a direct sum of the
    # diagonal entries r_ii and the 2x2 blocks [[0, r_ij], [r_ji, 0]] of
    # r = U rho U^H, so its trace norm is 1 + sum_{i != j} |r_ij|
    rng = np.random.default_rng(seed)
    rho = random_density_matrix(rng, 3)
    u0, u1, u2 = (random_unitary(rng, 2) for _ in range(3))
    strategy = d.AdversaryStrategy.explicit(u0, u1, u2)
    u = np.kron(np.kron(u0, u1), u2)
    r = u @ rho.matrix @ u.conj().T
    l1 = np.abs(r).sum() - np.abs(np.diagonal(r)).sum()
    assert abs(d.activate(rho, strategy).multiplicative_negativity - (1 + l1)) <= 1e-12
