import numpy as np
import pytest
from conftest import cnot, oracle_partial_transpose, random_density_matrix

import dqc1lab as d

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def activation_oracle(rho, unitaries):
    """Independent protocol route: act on the eigenvector statevectors
    one by one, rebuild the output state, transpose by index arithmetic,
    and sum absolute eigenvalues."""
    w, v = np.linalg.eigh(rho.matrix)
    out = np.zeros((64, 64), dtype=complex)
    anc = np.zeros(8, dtype=complex)
    anc[0] = 1.0
    local = np.kron(np.kron(unitaries[0], unitaries[1]), unitaries[2])
    for weight, index in zip(w, range(8)):
        if weight < 1e-14:
            continue
        vec = np.kron(local @ v[:, index], anc)
        # CNOT copies: amplitude at |s, a> moves to |s, a xor s>
        copied = np.zeros(64, dtype=complex)
        for b in range(64):
            s, a = b >> 3, b & 7
            copied[(s << 3) | (a ^ s)] += vec[b]
        out += weight * np.outer(copied, copied.conj())
    pt = oracle_partial_transpose(out, 6, (3, 4, 5))
    return float(np.abs(np.linalg.eigvalsh(pt)).sum())


def test_cnot_basic_action():
    g = cnot(0, 1, 2)
    one_zero = np.zeros(4)
    one_zero[2] = 1  # |10>
    assert np.argmax(np.abs(g @ one_zero)) == 3  # |11>
    assert np.abs(g @ g - np.eye(4)).max() < 1e-15


def test_cnot_on_six_qubits():
    g = cnot(0, 3, 6)
    src = np.zeros(64)
    src[0b100000] = 1
    assert np.argmax(np.abs(g @ src)) == 0b100100


def test_cnot_rejects_index_clash():
    with pytest.raises(ValueError):
        cnot(1, 1, 3)
    with pytest.raises(ValueError):
        cnot(0, 7, 3)


def test_activation_of_maximally_mixed_is_one():
    for strategy in (d.AdversaryStrategy.identity(), d.AdversaryStrategy.random(5)):
        result = d.activate(d.rho3(0.0).state, strategy, alpha=0.0)
        assert result.multiplicative_negativity == pytest.approx(1.0, abs=1e-10)


def test_identity_strategy_matches_protocol_oracle():
    # frozen from the independent statevector oracle: the identity
    # strategy keeps all four coupling pairs coherent, giving 1 + alpha
    eye = np.eye(2, dtype=complex)
    for a in (0.25, 0.5, 1.0):
        rho = d.rho3(a).state
        got = d.activate(rho, d.AdversaryStrategy.identity(), alpha=a)
        oracle = activation_oracle(rho, [eye, eye, eye])
        assert got.multiplicative_negativity == pytest.approx(oracle, abs=1e-10)
        assert got.multiplicative_negativity == pytest.approx(1 + a, abs=1e-9)


def test_hadamard_on_clean_qubit_attains_the_floor():
    # rotating the clean qubit to its flag basis diagonalizes two of the
    # four coupling pairs, leaving 1 + alpha/2; random-restart searches
    # over product unitaries find nothing lower
    eye = np.eye(2, dtype=complex)
    for a in (0.25, 0.5, 1.0):
        rho = d.rho3(a).state
        strategy = d.AdversaryStrategy.explicit(HADAMARD, eye, eye)
        got = d.activate(rho, strategy, alpha=a)
        oracle = activation_oracle(rho, [HADAMARD, eye, eye])
        assert got.multiplicative_negativity == pytest.approx(oracle, abs=1e-10)
        assert got.multiplicative_negativity == pytest.approx(1 + a / 2, abs=1e-9)


def test_every_random_strategy_leaves_distillable_entanglement():
    for a in (0.1, 0.5, 1.0):
        rho = d.rho3(a).state
        for seed in range(50):
            result = d.activate(rho, d.AdversaryStrategy.random(seed), alpha=a)
            assert result.multiplicative_negativity > 1 + 1e-6
            # no strategy can beat the clean-qubit flag basis
            assert result.multiplicative_negativity >= 1 + a / 2 - 1e-9


def test_random_strategy_matches_protocol_oracle():
    rho = d.rho3(0.7).state
    strategy = d.AdversaryStrategy.random(123)
    got = d.activate(rho, strategy, alpha=0.7)
    oracle = activation_oracle(rho, list(strategy.unitaries))
    assert got.multiplicative_negativity == pytest.approx(oracle, abs=1e-10)


def test_activation_on_random_states_never_below_one():
    rng = np.random.default_rng(61)
    for _ in range(10):
        rho = random_density_matrix(rng, 3)
        result = d.activate(rho, d.AdversaryStrategy.random(int(rng.integers(1 << 30))))
        assert result.multiplicative_negativity >= 1 - 1e-10


def test_intermediate_states_stay_valid():
    # reproduce the protocol stage by stage; every stage must pass the
    # density-matrix admission checks
    rho = d.rho3(0.8).state
    strategy = d.AdversaryStrategy.random(9)
    anc = np.zeros((8, 8), dtype=complex)
    anc[0, 0] = 1.0
    big = np.kron(rho.matrix, anc)
    d.DensityMatrix(big, 6)
    v = d.kron_all(*strategy.unitaries, np.eye(2), np.eye(2), np.eye(2))
    big = v @ big @ v.conj().T
    d.DensityMatrix((big + big.conj().T) / 2, 6)
    for i in range(3):
        g = cnot(i, i + 3, 6)
        big = g @ big @ g.conj().T
        d.DensityMatrix((big + big.conj().T) / 2, 6)


@pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0])
def test_copy_permutation_matches_dense_cnot_sandwich_bitwise(alpha):
    # the identity and the 25 seeded strategies of the reproduce battery,
    # on rho3 (real) and on 20 seeded random complex states
    pool = [r.strategy for r in d.activation_sweep([alpha], strategies=26, seed=2024)]
    rng = np.random.default_rng(int(alpha * 10))
    cases = [(d.rho3(alpha).state, strategy) for strategy in pool]
    cases += [(random_density_matrix(rng, 3), pool[k % len(pool)]) for k in range(20)]
    anc = np.zeros((8, 8), dtype=complex)
    anc[0, 0] = 1.0
    eye = np.eye(2, dtype=complex)
    for rho, strategy in cases:
        v = d.kron_all(*strategy.unitaries, eye, eye, eye)
        dense = v @ np.kron(rho.matrix, anc) @ v.conj().T
        for i in range(3):
            g = cnot(i, i + 3, 6)
            dense = g @ dense @ g.conj().T
        dense = (dense + dense.conj().T) / 2
        expected = d.trace_norm(d.partial_transpose(d.DensityMatrix(dense, 6), (3, 4, 5)))
        assert d.activate(rho, strategy, alpha=alpha).multiplicative_negativity == expected


def test_ancilla_relabeling_invariance():
    # pairing system qubit i with ancilla pi(i) relabels ancillas only
    rho = d.rho3(0.6).state
    anc = np.zeros((8, 8), dtype=complex)
    anc[0, 0] = 1.0
    big = np.kron(rho.matrix, anc)
    for pairing in ((3, 4, 5), (5, 3, 4), (4, 5, 3)):
        state = big.copy()
        for i, target in enumerate(pairing):
            g = cnot(i, target, 6)
            state = g @ state @ g.conj().T
        value = d.trace_norm(d.partial_transpose_matrix(state, 6, (3, 4, 5)))
        assert value == pytest.approx(1 + 0.6, abs=1e-10)


@pytest.mark.parametrize("strategy", [d.AdversaryStrategy.identity(),
                                      d.AdversaryStrategy.random(3)])
def test_activate_rejects_a_state_built_around_admission(strategy):
    # a diagonal state with eigenvalue -1e-6 that skipped DensityMatrix
    # validation: the protocol must still refuse it at its own admission
    m = np.diag([0.5 + 1e-6, -1e-6, 0.5, 0, 0, 0, 0, 0]).astype(complex)
    assert np.linalg.eigvalsh(m).min() < -1e-10
    rho = object.__new__(d.DensityMatrix)
    object.__setattr__(rho, "matrix", m)
    object.__setattr__(rho, "num_qubits", 3)
    with pytest.raises(ValueError, match="eigenvalue below -1e-10"):
        d.activate(rho, strategy)


def test_activate_requires_three_qubits():
    with pytest.raises(ValueError):
        d.activate(d.maximally_mixed(2), d.AdversaryStrategy.identity())


def test_strategy_validation():
    with pytest.raises(ValueError, match="unitarity"):
        d.AdversaryStrategy.explicit(np.ones((2, 2)), np.eye(2), np.eye(2))


def test_sweep_includes_identity_first_and_is_deterministic():
    r1 = d.activation_sweep([0.0, 1.0], strategies=4, seed=77)
    r2 = d.activation_sweep([0.0, 1.0], strategies=4, seed=77)
    assert len(r1) == 8
    assert r1[0].strategy.label == "identity"
    assert r1[4].strategy.label == "identity"
    values1 = [r.multiplicative_negativity for r in r1]
    values2 = [r.multiplicative_negativity for r in r2]
    assert values1 == values2
    different = d.activation_sweep([0.0, 1.0], strategies=4, seed=78)
    assert values1 != [r.multiplicative_negativity for r in different]


def test_sweep_at_zero_polarization_is_flat():
    results = d.activation_sweep([0.0], strategies=6, seed=3)
    assert all(abs(r.multiplicative_negativity - 1.0) < 1e-10 for r in results)


def test_sweep_identity_value_at_full_polarization():
    results = d.activation_sweep([1.0], strategies=1, seed=0)
    assert results[0].multiplicative_negativity == pytest.approx(2.0, abs=1e-9)


def test_sweep_reports_positive_margin_at_half():
    results = d.activation_sweep([0.5], strategies=10, seed=11)
    margin = min(r.multiplicative_negativity for r in results) - 1.0
    assert margin > 1e-6


def test_sweep_rejects_bad_input():
    with pytest.raises(ValueError):
        d.activation_sweep([], strategies=2, seed=1)
    with pytest.raises(ValueError):
        d.activation_sweep([1.2], strategies=2, seed=1)
    with pytest.raises(ValueError):
        d.activation_sweep([0.5], strategies=0, seed=1)
