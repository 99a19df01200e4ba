"""Property tests of the partial transpose, the discord-type measures and
the activation protocol on random few-qubit states, and of the public
boundaries and records.

Each example draws a seed and builds its states with the suite's seeded
random-state helper, so a failure names the seed that reproduces it.
"""

import itertools
import re
import types

import numpy as np
import pytest
from conftest import (
    ensemble_state,
    pauli_coefficients,
    pauli_product_ensemble,
    random_density_matrix,
    random_unitary,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import dqc1lab as d
from dqc1lab.linalg import _pauli_coefficients

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True,
                             database=None)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
qubits = st.integers(min_value=0, max_value=1)


def two_qubit_state(seed):
    return random_density_matrix(np.random.default_rng(seed), 2)


@PROPERTY_SETTINGS
@given(seed=seeds, num_qubits=st.integers(min_value=2, max_value=4))
def test_the_partial_transpose_is_an_involution(seed, num_qubits):
    # the map only permutes entries, so applying it twice restores every bit
    rho = random_density_matrix(np.random.default_rng(seed), num_qubits)
    for size in range(1, num_qubits):
        for cut in itertools.combinations(range(num_qubits), size):
            twice = d.partial_transpose_matrix(d.partial_transpose(rho, cut), cut)
            assert np.array_equal(twice, rho.matrix)


@PROPERTY_SETTINGS
@given(seed=seeds, qubit=qubits)
def test_discord_lies_between_zero_and_the_mutual_information(seed, qubit):
    rho = two_qubit_state(seed)
    result = d.discord([rho], qubit)[0]
    assert 0.0 <= result.discord <= result.mutual_information + 1e-12
    assert result.mutual_information == d.mutual_information(rho, (qubit,))


@PROPERTY_SETTINGS
@given(seed=seeds, qubit=qubits)
def test_classical_correlation_is_at_most_either_marginal_entropy(seed, qubit):
    rho = two_qubit_state(seed)
    value, _ = d.classical_correlation([rho], qubit)[0]
    s_a = d.von_neumann_entropy(d.partial_trace(rho, (0,)))
    s_b = d.von_neumann_entropy(d.partial_trace(rho, (1,)))
    assert value <= min(s_a, s_b) + 1e-12


@PROPERTY_SETTINGS
@given(batch=st.lists(seeds, min_size=1, max_size=4), qubit=qubits)
def test_a_batch_equals_its_states_one_at_a_time(batch, qubit):
    states = [two_qubit_state(seed) for seed in batch]
    together = d.discord(states, qubit)
    alone = [d.discord([rho], qubit)[0] for rho in states]
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
    rho = d.DensityMatrix(random_density_matrix(rng, num_qubits).matrix.real)
    measured = data.draw(st.integers(min_value=0, max_value=num_qubits - 1))
    rotated_qubit = data.draw(st.sampled_from(
        [q for q in range(num_qubits) if q != measured]))
    w = np.array([[1.0 + 0j]])
    for q in range(num_qubits):
        w = np.kron(w, random_unitary(rng, 2) if q == rotated_qubit else np.eye(2))
    rotated = d.DensityMatrix(w @ rho.matrix @ w.conj().T)
    base, moved = d.discord([rho], measured)[0], d.discord([rotated], measured)[0]
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
    strategy = d.AdversaryStrategy((u0, u1, u2))
    u = np.kron(np.kron(u0, u1), u2)
    r = u @ rho.matrix @ u.conj().T
    l1 = np.abs(r).sum() - np.abs(np.diagonal(r)).sum()
    assert abs(d.activate(rho, strategy).multiplicative_negativity - (1 + l1)) <= 1e-12


@PROPERTY_SETTINGS
@given(seed=seeds, num_qubits=st.integers(min_value=2, max_value=3),
       data=st.data())
def test_negativity_is_unchanged_by_a_product_of_single_qubit_unitaries(
        seed, num_qubits, data):
    rng = np.random.default_rng(seed)
    rho = random_density_matrix(rng, num_qubits)
    cut = data.draw(st.sets(st.integers(min_value=0, max_value=num_qubits - 1),
                            min_size=1, max_size=num_qubits - 1))
    w = np.array([[1.0 + 0j]])
    for _ in range(num_qubits):
        w = np.kron(w, random_unitary(rng, 2))
    rotated = d.DensityMatrix(w @ rho.matrix @ w.conj().T)
    assert abs(d.negativity(rotated, cut) - d.negativity(rho, cut)) <= 1e-10


@PROPERTY_SETTINGS
@given(seed=seeds)
def test_a_state_with_pauli_l1_norm_at_most_one_is_a_product_ensemble(seed):
    # rho = (I + sum_P r_P P)/D with r_P = tr(P rho); scaling toward I/D
    # until sum_P |r_P| <= 1 leaves every mixture weight non-negative.  At
    # t = 1/l1 the weight on I/D is 0, which the rounding of its sum over
    # at most 63 terms moves by a few ulps either way
    rng = np.random.default_rng(seed)
    for num_qubits in (2, 3):
        rho = random_density_matrix(rng, num_qubits).matrix
        dim = len(rho)
        terms = {p: dim * c.real for p, c in pauli_coefficients(rho).items()
                 if p != "I" * num_qubits}
        t = min(1.0, 1 / sum(abs(r) for r in terms.values()))
        ensemble = pauli_product_ensemble({p: t * r for p, r in terms.items()})
        assert all(weight >= -1e-14 for weight, _ in ensemble)
        scaled = np.eye(dim) / dim + t * (rho - np.eye(dim) / dim)
        assert np.abs(ensemble_state(ensemble) - scaled).max() <= 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_generic_unitaries_are_certified_separable_only_below_half(n):
    # U = sum_Q u_Q Q gives the output (I + a sum_Q (Re u_Q X(x)Q + Im u_Q
    # Y(x)Q))/D, whose Pauli l1 norm is a * sum_Q (|Re u_Q| + |Im u_Q|), so
    # the product ensemble reaches a* = 1/that sum; the l1 certificate is
    # sufficient, not necessary, so a* bounds what it can certify
    for seed in range(8):
        u = random_unitary(np.random.default_rng(seed), 2**n)
        a_star = 1 / sum(abs(c.real) + abs(c.imag) for c in pauli_coefficients(u).values())
        assert a_star < 0.5, (seed, a_star)
        rho = d.build_dqc1_state(u, a_star).state.matrix
        terms = {p: len(rho) * c.real for p, c in pauli_coefficients(rho).items()
                 if p != "I" * (n + 1)}
        assert abs(sum(abs(r) for r in terms.values()) - 1) <= 1e-12, seed
        ensemble = pauli_product_ensemble(terms)
        assert all(weight >= -1e-14 for weight, _ in ensemble), seed
        assert np.abs(ensemble_state(ensemble) - rho).max() <= 1e-12, seed


def correlation_gram(rho, qubit):
    """G_ij = tr(R_i R_j) with R_mu = tr_q[(sigma_mu on q) rho], mu = X, Y, Z.

    R_mu is sum_P c_(mu,P) P / 2**(n-1) over the strings P on the other
    qubits, so with C the measured qubit's X, Y and Z rows of the Pauli
    coefficients, G = C C^T / 2**(n-1).
    """
    rows = np.moveaxis(_pauli_coefficients(rho.matrix), qubit, 0)[1:].reshape(3, -1)
    return rows @ rows.T / 2 ** (rho.num_qubits - 1)


def classical_quantum_state(rng, num_qubits, qubit):
    """p_0 |0><0| (x) rho_0 + p_1 |1><1| (x) rho_1 with a Haar unitary on the
    classical qubit, which then moves to position ``qubit``."""
    p0 = rng.uniform()
    rest = [random_density_matrix(rng, num_qubits - 1).matrix for _ in range(2)]
    m = np.block([[p0 * rest[0], np.zeros_like(rest[0])],
                  [np.zeros_like(rest[0]), (1 - p0) * rest[1]]])
    w = np.kron(random_unitary(rng, 2), np.eye(len(rest[0])))
    t = (w @ m @ w.conj().T).reshape([2] * (2 * num_qubits))
    t = np.moveaxis(t, [0, num_qubits], [qubit, num_qubits + qubit])
    return d.DensityMatrix(t.reshape(2**num_qubits, 2**num_qubits))


def test_the_transform_gram_matrix_of_rho3_is_the_discrepancy_3_gram_matrix():
    for a in (0.1, 0.25, 0.5, 1.0):
        rho = d.rho3(a).state
        clean = np.linalg.eigvalsh(correlation_gram(rho, 0))
        assert np.abs(clean - [0, 0, a**2 / 4]).max() <= 1e-15, a
        for q in (1, 2):
            assert np.abs(correlation_gram(rho, q) - a**2 / 16 * np.eye(3)).max() <= 1e-15


@pytest.mark.parametrize("num_qubits", [2, 3])
def test_discord_vanishes_iff_the_correlation_gram_rank_is_at_most_one(num_qubits):
    # Dakic, Vedral & Brukner (PRL 105, 190502, 2010): a state is classical
    # on the measured qubit, so its discord there is zero, iff R_X, R_Y and
    # R_Z span at most one dimension, that is iff G has rank <= 1
    rng = np.random.default_rng(1000 + num_qubits)
    for qubit in range(num_qubits):
        states = [classical_quantum_state(rng, num_qubits, qubit) for _ in range(3)]
        for rho in states:
            assert np.linalg.eigvalsh(correlation_gram(rho, qubit))[1] <= 1e-15
        assert max(r.discord for r in d.discord(states, qubit)) <= 1e-9
        if num_qubits == 3:
            generic = [random_density_matrix(rng, 3) for _ in range(2)]
            for rho in generic:
                assert np.linalg.eigvalsh(correlation_gram(rho, qubit))[0] > 1e-3
            assert min(r.discord for r in d.discord(generic, qubit)) > 1e-2


def test_the_public_name_list_is_what_the_package_binds():
    names = d.__all__
    assert all(hasattr(d, name) for name in names)
    assert len(set(names)) == len(names)
    bound = {name for name, value in vars(d).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(names) == bound


# every seeded public function, given a seed
SEEDED_CALLS = {
    "sample_trace_estimate": lambda seed: d.sample_trace_estimate(d.rho3(0.5), 10, seed),
    "activation_sweep": lambda seed: d.activation_sweep([0.5], 2, seed),
    "AdversaryStrategy.random": d.AdversaryStrategy.random,
}


@pytest.mark.parametrize("call", SEEDED_CALLS.values(), ids=SEEDED_CALLS.keys())
def test_a_negative_seed_is_rejected_naming_the_seed(call):
    with pytest.raises(ValueError, match=r"^seed must be a non-negative integer, got -1$"):
        call(-1)
    with pytest.raises(TypeError):
        call(0.5)
    call(2**64)


def test_a_sweep_checks_its_alphas_and_strategy_count_before_its_seed():
    with pytest.raises(ValueError, match="alpha must lie in"):
        d.activation_sweep([2.0], 0, -1)
    with pytest.raises(ValueError, match="strategy count must lie in"):
        d.activation_sweep([0.5], 0, -1)


def with_entry(v, scale=1.0):
    """The 2x2 identity times ``scale`` with v at [0, 0]."""
    m = scale * np.eye(2, dtype=np.complex128)
    m[0, 0] = v
    return m


ALPHA_RULE = "alpha must lie in [0, 1], got {v}"
MATRIX_RULE = "matrix has a non-finite entry"

# every public numeric boundary, fed v in one input: exception type, message
NON_FINITE_BOUNDARIES = {
    "MeasurementBasis-theta": (lambda v: d.MeasurementBasis(v, 0.0),
                               ValueError, "theta must lie in [0, pi]"),
    "MeasurementBasis-phi": (lambda v: d.MeasurementBasis(0.0, v),
                             ValueError, "phi must lie in [0, 2*pi)"),
    "build_dqc1_state": (lambda v: d.build_dqc1_state(np.eye(4), v), ValueError, ALPHA_RULE),
    "rho3": (d.rho3, ValueError, ALPHA_RULE),
    "omega_state": (d.omega_state, ValueError, ALPHA_RULE),
    "full_separability_verdict": (d.full_separability_verdict, ValueError, ALPHA_RULE),
    "activation_sweep": (lambda v: d.activation_sweep([v], 1, 0), ValueError, ALPHA_RULE),
    "sample_trace_estimate": (lambda v: d.sample_trace_estimate(d.rho3(0.5), v, 0),
                              TypeError, "'float' object cannot be interpreted as an integer"),
    "Dqc1State": (lambda v: d.Dqc1State(v, d.rho3(0.5).state, d.rho3(0.5).unitary),
                  ValueError, ALPHA_RULE),
    "ghz_reconstruct": (lambda v: d.ghz_reconstruct([v] + [0.0] * 7),
                        ValueError, "coefficients have a non-finite entry"),
    "trace_norm": (lambda v: d.trace_norm(with_entry(v)), ValueError, MATRIX_RULE),
    "hermitian_eigenvalues": (lambda v: d.hermitian_eigenvalues(with_entry(v)),
                              ValueError, MATRIX_RULE),
    "kron": (lambda v: d.kron(np.eye(2), with_entry(v)), ValueError, MATRIX_RULE),
    "AdversaryStrategy": (lambda v: d.AdversaryStrategy((np.eye(2), with_entry(v), np.eye(2))),
                          ValueError, MATRIX_RULE),
    "UnitaryBlockSpec": (lambda v: d.UnitaryBlockSpec(
        with_entry(v), np.eye(2), np.eye(2), np.eye(2)), ValueError, MATRIX_RULE),
    "DensityMatrix": (lambda v: d.DensityMatrix(with_entry(v, scale=0.5)),
                      ValueError, MATRIX_RULE),
}


@pytest.mark.parametrize("v", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("call, error, message", NON_FINITE_BOUNDARIES.values(),
                         ids=NON_FINITE_BOUNDARIES.keys())
def test_non_finite_input_is_rejected_at_every_public_boundary(call, error, message, v):
    with pytest.raises(error, match=f"^{re.escape(message.format(v=v))}$") as info:
        call(v)
    assert type(info.value) is error


# records that hold arrays or a dict; value equality raised numpy's
# "truth value ... is ambiguous" and hash raised "unhashable type"
RECORDS = {
    "DensityMatrix": lambda: d.rho3(0.5).state,
    "UnitaryBlockSpec": d.canonical_blocks,
    "Dqc1State": lambda: d.rho3(0.5),
    "AdversaryStrategy": d.AdversaryStrategy.identity,
    "SeparabilityVerdict": lambda: d.full_separability_verdict(0.25),
}


@pytest.mark.parametrize("make", RECORDS.values(), ids=RECORDS.keys())
def test_records_compare_and_hash_by_identity(make):
    a, b = make(), make()
    assert a == a and a != b
    assert hash(a) == hash(a)
    assert len({a, b}) == 2


# records that store a caller's array: a valid input, and the record's stored
# arrays when it is built from a complex128 array m holding that input
OWNERS = {
    "DensityMatrix": (np.eye(4) / 4, lambda m: [d.DensityMatrix(m).matrix]),
    "UnitaryBlockSpec": (np.eye(2), lambda m: list(vars(d.UnitaryBlockSpec(m, m, m, m)).values())),
    "AdversaryStrategy": (np.eye(2), lambda m: list(d.AdversaryStrategy((m, m, m)).unitaries)),
    "build_dqc1_state": (np.eye(4), lambda m: [d.build_dqc1_state(m, 0.5).unitary]),
    "Dqc1State": (np.eye(4), lambda m: [d.Dqc1State(0.5, d.rho3(0.5).state, m).unitary]),
}


# "frozen": a read-only array that owns its data, which its caller makes
# writable again once the record is built
@pytest.mark.parametrize("kind", ["array", "view", "frozen"])
@pytest.mark.parametrize("value, stored", OWNERS.values(), ids=OWNERS.keys())
def test_records_own_their_arrays(value, stored, kind):
    k = len(value)
    base = np.zeros((8, 8), dtype=np.complex128)
    base[:k, :k] = value
    m = base[:k, :k] if kind == "view" else base[:k, :k].copy()
    m.setflags(write=kind != "frozen")
    arrays = stored(m)
    assert m.flags.writeable == (kind != "frozen") and base.flags.writeable
    m.setflags(write=True)
    for a in arrays:
        assert not a.flags.writeable and a is not m
        assert not np.shares_memory(a, m) and not np.shares_memory(a, base)
    m[0, 0] = 5
    base[:] = 7
    for a in arrays:
        assert np.array_equal(a, value)


# every array that a record or a cache hands out: numpy refuses to make one, or
# any array it is a view of, writable again, so no caller can rewrite a
# validated state or a shared cache
HANDED_OUT = {
    "rho3.unitary": lambda: d.rho3(0.5).unitary,
    "rho3.state.matrix": lambda: d.rho3(0.5).state.matrix,
    "canonical_blocks.a1": lambda: d.canonical_blocks().a1,
    "AdversaryStrategy.unitaries": lambda: d.AdversaryStrategy.identity().unitaries[0],
    "pauli_string_matrix": lambda: d.pauli_string_matrix("XXX"),
    "eta_state.matrix": lambda: d.eta_state().matrix,
    "PAULI_X": lambda: d.dqc1.PAULI_X,
}


@pytest.mark.parametrize("handed_out", HANDED_OUT.values(), ids=HANDED_OUT.keys())
def test_no_handed_out_array_can_be_made_writable(handed_out):
    a = handed_out()
    chain = [a]
    while isinstance(chain[-1].base, np.ndarray):
        chain.append(chain[-1].base)
    for x in chain:
        with pytest.raises(ValueError, match="^cannot set WRITEABLE flag to True of this array$"):
            x.setflags(write=True)
    with pytest.raises(ValueError, match="read-only"):
        a[0, 0] = 0.5
    assert not a.flags.writeable


def test_a_state_outlives_writes_to_its_callers_arrays():
    big = np.zeros((8, 8), dtype=np.complex128)
    big[:4, :4] = np.eye(4) / 4
    state = d.DensityMatrix(big[:4, :4])
    u = np.eye(4, dtype=np.complex128)
    output = d.build_dqc1_state(u, 0.5)
    big[0, 0] = 5
    u[0, 0] = -1
    assert np.trace(state.matrix) == 1
    assert d.von_neumann_entropy(state) == pytest.approx(2.0, abs=1e-12)
    assert d.expectation_xy(output) == (0.5, 0.0)
