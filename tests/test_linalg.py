import ast
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    oracle_partial_trace,
    oracle_partial_transpose,
    random_density_matrix,
    random_hermitian,
    random_product_state,
    random_unitary,
)

import dqc1lab as d
from dqc1lab import linalg
from dqc1lab.dqc1 import PAULI_X, PAULI_Z
from dqc1lab.linalg import _pauli_coefficients

I2 = np.eye(2)
I4 = np.eye(4)


def charpoly_coefficients(a: np.ndarray) -> np.ndarray:
    """Faddeev-LeVerrier characteristic polynomial, leading coefficient 1."""
    n = a.shape[0]
    coeffs = [1.0 + 0j]
    m = np.eye(n, dtype=complex)
    for k in range(1, n + 1):
        if k > 1:
            m = a @ m + coeffs[-1] * np.eye(n)
        ck = -np.trace(a @ m) / k
        coeffs.append(ck)
    return np.array(coeffs)


# --------------------------------------------------------------------------
# kron
# --------------------------------------------------------------------------

def test_kron_identity_case():
    assert np.array_equal(d.kron(I2, I2), I4)


def test_kron_z_z_diagonal():
    assert np.allclose(d.kron(PAULI_Z, PAULI_Z), np.diag([1, -1, -1, 1]))


def test_kron_against_elementwise_oracle():
    u2 = d.build_un(d.canonical_blocks(), 2)
    got = d.kron(PAULI_X, u2)
    expected = np.zeros((8, 8), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(4):
                for l in range(4):
                    expected[i * 4 + k, j * 4 + l] = PAULI_X[i, j] * u2[k, l]
    assert np.array_equal(got, expected)
    assert got[0, 7] == 1


def test_kron_dimension_guard():
    big = np.eye(128)
    with pytest.raises(ValueError, match="exceeds maximum"):
        d.kron(big, np.eye(64))


# --------------------------------------------------------------------------
# hermitian eigenvalues
# --------------------------------------------------------------------------

def test_eigenvalues_of_pauli_z():
    assert np.allclose(d.hermitian_eigenvalues(PAULI_Z), [1, -1])


def test_eigenvalues_descending_and_trace_consistent():
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = random_density_matrix(rng, 3).matrix
        w = d.hermitian_eigenvalues(m)
        assert np.all(np.diff(w) <= 1e-14)
        assert abs(w.sum() - np.trace(m).real) < 1e-10


def test_pt_spectrum_of_rho3_alpha_one():
    pt = d.partial_transpose(d.rho3(1.0).state, d.RHO3_ENTANGLING_CUT)
    got = np.sort(d.hermitian_eigenvalues(pt))
    expected = np.sort([3 / 8] + [1 / 8] * 6 + [-1 / 8])
    assert np.allclose(got, expected, atol=1e-12)


def test_eigenvalues_match_characteristic_polynomial_roots():
    rng = np.random.default_rng(7)
    for _ in range(25):
        h = random_hermitian(rng, 4)
        roots = np.sort(np.roots(charpoly_coefficients(h)).real)
        got = np.sort(d.hermitian_eigenvalues(h))
        assert np.allclose(got, roots, atol=1e-8)


def test_eigenvalues_reject_non_hermitian():
    with pytest.raises(ValueError, match="not Hermitian"):
        d.hermitian_eigenvalues(np.array([[0, 1], [0, 0]], dtype=complex))


def test_eigensystem_reconstruction_residual():
    rng = np.random.default_rng(13)
    for _ in range(100):
        h = random_hermitian(rng, int(rng.integers(2, 65)))
        w, v = d.hermitian_eigensystem(h)
        assert np.abs((v * w) @ v.conj().T - h).max() <= 1e-9


# --------------------------------------------------------------------------
# partial transpose
# --------------------------------------------------------------------------

def test_partial_transpose_is_involution():
    rng = np.random.default_rng(3)
    for _ in range(100):
        nq = int(rng.integers(2, 5))
        rho = random_density_matrix(rng, nq)
        size = int(rng.integers(1, nq))
        cut = tuple(sorted(rng.choice(nq, size=size, replace=False)))
        once = d.partial_transpose(rho, cut)
        twice = d.partial_transpose_matrix(once, cut)
        assert np.abs(twice - rho.matrix).max() < 1e-15


def test_transposing_every_qubit_is_full_transpose():
    rng = np.random.default_rng(4)
    rho = random_density_matrix(rng, 3)
    got = d.partial_transpose_matrix(rho.matrix, (0, 1, 2))
    assert np.allclose(got, rho.matrix.T, atol=0)


def test_partial_transpose_matches_index_oracle():
    rng = np.random.default_rng(5)
    rho = random_density_matrix(rng, 3)
    for cut in ((0,), (1,), (2,), (0, 2)):
        got = d.partial_transpose(rho, cut)
        assert np.allclose(got, oracle_partial_transpose(rho.matrix, 3, cut), atol=0)


def test_rho3_cut_identification():
    # only the two register cuts reproduce the split spectrum; the
    # clean-qubit cut keeps the state PPT at every alpha
    alpha = 0.5
    expected = np.sort([0.25] + [0.125] * 6 + [0.0])
    rho = d.rho3(alpha).state
    matching = []
    for cut in ((0,), (1,), (2,)):
        spectrum = np.sort(d.hermitian_eigenvalues(d.partial_transpose(rho, cut)))
        if np.allclose(spectrum, expected, atol=1e-12):
            matching.append(cut)
    assert matching == [(1,), (2,)]
    assert d.RHO3_ENTANGLING_CUT in matching


# --------------------------------------------------------------------------
# partial trace
# --------------------------------------------------------------------------

def test_partial_trace_of_product_state():
    rng = np.random.default_rng(6)
    a = random_density_matrix(rng, 1)
    b = random_density_matrix(rng, 2)
    joint = d.DensityMatrix(np.kron(a.matrix, b.matrix))
    assert np.abs(d.partial_trace(joint, (0,)).matrix - a.matrix).max() < 1e-14
    assert np.abs(d.partial_trace(joint, (1, 2)).matrix - b.matrix).max() < 1e-14


def test_register_marginal_stays_maximally_mixed():
    for n in (2, 3):
        u = d.build_un(d.canonical_blocks(), n)
        for alpha in (0.0, 0.5, 1.0):
            s = d.build_dqc1_state(u, alpha)
            reduced = d.partial_trace(s.state, tuple(range(1, n + 1)))
            assert np.abs(reduced.matrix - np.eye(2**n) / 2**n).max() < 1e-14


def test_clean_qubit_marginal_of_rho3():
    # tracing the register out of the three-qubit state leaves I/2 plus
    # an X polarization of alpha/4 inherited from the unitary's trace
    for alpha in (0.0, 0.5, 1.0):
        reduced = d.partial_trace(d.rho3(alpha).state, (0,))
        expected = np.eye(2) / 2 + alpha * PAULI_X / 4
        assert np.abs(reduced.matrix - expected).max() < 1e-14


def test_partial_trace_matches_index_oracle():
    rng = np.random.default_rng(8)
    rho = random_density_matrix(rng, 3)
    for keep in ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2)):
        got = d.partial_trace(rho, keep).matrix
        assert np.abs(got - oracle_partial_trace(rho.matrix, 3, keep)).max() < 1e-14


def test_partial_trace_commutes_over_complements():
    rng = np.random.default_rng(9)
    for _ in range(20):
        rho = random_density_matrix(rng, 4)
        stepwise = d.partial_trace(d.partial_trace(rho, (0, 1, 3)), (0, 1))
        direct = d.partial_trace(rho, (0, 1))
        assert np.abs(stepwise.matrix - direct.matrix).max() < 1e-12


# every entry point that takes a qubit subset, as (state, qubits); the last
# four take one measured qubit, so an empty subset is not a call they can get
QUBIT_SUBSET_ENTRY_POINTS = {
    "partial-transpose": d.partial_transpose,
    "partial-transpose-matrix": lambda rho, qs: d.partial_transpose_matrix(rho.matrix, qs),
    "partial-trace": d.partial_trace,
    "negativity": d.negativity,
    "mutual-information": d.mutual_information,
    "classical-correlation": lambda rho, qs: d.classical_correlation([rho], *qs),
    "classical-correlation-generator":
        lambda rho, qs: d.classical_correlation((r for r in [rho]), *qs),
    "discord": lambda rho, qs: d.discord([rho], *qs),
    "discord-generator": lambda rho, qs: d.discord((r for r in [rho]), *qs),
}
MEASURED_QUBIT = {"classical-correlation", "classical-correlation-generator", "discord",
                  "discord-generator"}
# a cut needs a qubit on each side; a transpose or a kept set may take them all
STRICT_SUBSET = MEASURED_QUBIT | {"negativity", "mutual-information"}


def bad_qubit_subsets():
    """(entry point, qubit count, bad subset, the rule's message) for every case."""
    out_of_range = "qubit index out of range for 2 qubits: {}"
    every_qubit = "qubit subset {} of a {}-qubit state must leave a qubit on the other side"
    for name, call in QUBIT_SUBSET_ENTRY_POINTS.items():
        measured = name in MEASURED_QUBIT
        cases = {"index-n": (2, (2,), out_of_range.format((2,))),
                 "index-minus-1": (2, (-1,), out_of_range.format((-1,)))}
        if not measured:
            cases["empty"] = (2, (), "qubit subset must be nonempty")
        if name in STRICT_SUBSET:
            n, qubits = (1, (0,)) if measured else (2, (0, 1))
            cases["every-qubit"] = (n, qubits, every_qubit.format(qubits, n))
        for case, args in cases.items():
            yield pytest.param(call, *args, id=f"{name}-{case}")


@pytest.mark.parametrize("call, n, qubits, message", bad_qubit_subsets())
def test_bad_qubit_subset_is_rejected(call, n, qubits, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(d.maximally_mixed(n), qubits)


# a qubit index that is not an integer must not be truncated to one
@pytest.mark.parametrize("call", QUBIT_SUBSET_ENTRY_POINTS.values(),
                         ids=QUBIT_SUBSET_ENTRY_POINTS.keys())
def test_float_qubit_index_is_rejected(call):
    with pytest.raises(TypeError):
        call(d.maximally_mixed(2), (np.float64(1.0),))


# a count that is not an integer must not be used as one; numpy integers pass
@pytest.mark.parametrize("call, bad, good", [
    (lambda k: d.sample_trace_estimate(d.build_dqc1_state(np.eye(4), 1.0), k, 1),
     1000.7, np.int64(1000)),
    (lambda k: d.activation_sweep([0.5], k, 0), 2.5, np.int64(2)),
], ids=["shots", "strategies"])
def test_float_count_is_rejected(call, bad, good):
    call(good)
    with pytest.raises(TypeError):
        call(bad)


def test_numpy_integer_qubit_indices_are_accepted():
    rho = random_density_matrix(np.random.default_rng(8), 3)
    keep = (np.int64(2), np.int32(0))
    assert np.array_equal(d.partial_trace(rho, keep).matrix,
                          d.partial_trace(rho, (0, 2)).matrix)
    assert d.mutual_information(rho, keep) == d.mutual_information(rho, (0, 2))
    assert d.negativity(rho, keep) == d.negativity(rho, (0, 2))


# --------------------------------------------------------------------------
# trace norm
# --------------------------------------------------------------------------

def test_trace_norm_of_states_is_one():
    rng = np.random.default_rng(10)
    for _ in range(10):
        rho = random_density_matrix(rng, 2)
        assert abs(d.trace_norm(rho.matrix) - 1.0) < 1e-12


def test_trace_norm_of_transposed_rho3_peak():
    pt = d.partial_transpose(d.rho3(1.0).state, d.RHO3_ENTANGLING_CUT)
    assert abs(d.trace_norm(pt) - 1.25) < 1e-12


def test_trace_norm_of_pauli_z():
    assert abs(d.trace_norm(PAULI_Z) - 2.0) < 1e-15


# --------------------------------------------------------------------------
# entropies
# --------------------------------------------------------------------------

def test_entropy_of_pure_state_is_zero():
    v = np.array([1, 1j, 0, 0], dtype=complex) / np.sqrt(2)
    rho = d.DensityMatrix(np.outer(v, v.conj()))
    assert abs(d.von_neumann_entropy(rho)) < 1e-12


def test_entropy_of_maximally_mixed_state():
    for n in (1, 2, 3):
        assert abs(d.von_neumann_entropy(d.maximally_mixed(n)) - n) < 1e-12


def test_entropy_of_rho3_at_full_polarization():
    # spectral oracle: the coupling matrix has eigenvalues +1 and -1,
    # four each, so the state spectrum at alpha=1 is {1/4 x4, 0 x4}
    spectrum = np.sort(d.hermitian_eigenvalues(d.rho3(1.0).state.matrix))
    assert np.allclose(spectrum, [0] * 4 + [0.25] * 4, atol=1e-12)
    assert abs(d.von_neumann_entropy(d.rho3(1.0).state) - 2.0) < 1e-12


def test_entropy_invariant_under_conjugation():
    rng = np.random.default_rng(12)
    for _ in range(100):
        nq = int(rng.integers(1, 4))
        rho = random_density_matrix(rng, nq)
        u = random_unitary(rng, 2**nq)
        rotated = d.DensityMatrix(u @ rho.matrix @ u.conj().T)
        assert abs(d.von_neumann_entropy(rotated) - d.von_neumann_entropy(rho)) < 1e-10
        assert 0 <= d.von_neumann_entropy(rho) <= nq + 1e-12


# --------------------------------------------------------------------------
# relative entropy
# --------------------------------------------------------------------------

def test_relative_entropy_of_state_with_itself():
    rng = np.random.default_rng(14)
    rho = random_density_matrix(rng, 2)
    assert abs(d.relative_entropy(rho, rho)) < 1e-12


def test_relative_entropy_to_maximally_mixed():
    rng = np.random.default_rng(15)
    for nq in (1, 2, 3):
        rho = random_density_matrix(rng, nq)
        expected = nq - d.von_neumann_entropy(rho)
        assert abs(d.relative_entropy(rho, d.maximally_mixed(nq)) - expected) < 1e-10


def test_relative_entropy_diagonal_case():
    pure = d.DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
    mixed = d.maximally_mixed(1)
    assert abs(d.relative_entropy(pure, mixed) - 1.0) < 1e-12


def test_relative_entropy_support_violation_is_infinite():
    zero = d.DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
    one = d.DensityMatrix(np.diag([0.0, 1.0]).astype(complex))
    assert d.relative_entropy(one, zero) == float("inf")


def test_relative_entropy_nonnegative_with_equality_iff_equal():
    rng = np.random.default_rng(16)
    for _ in range(100):
        nq = int(rng.integers(1, 4))
        x = random_density_matrix(rng, nq)
        y = random_density_matrix(rng, nq)
        value = d.relative_entropy(x, y)
        assert value >= -1e-12
        if np.abs(x.matrix - y.matrix).max() > 1e-6:
            assert value > 0


# --------------------------------------------------------------------------
# DensityMatrix admission
# --------------------------------------------------------------------------

# every qubit count is read from a dimension, which must be 2**n with n >= 1
BAD_DIMENSIONS = {
    "density-matrix-0x0": lambda: d.DensityMatrix(np.zeros((0, 0))),
    "density-matrix-1x1": lambda: d.DensityMatrix(np.eye(1)),
    "density-matrix-6x6": lambda: d.DensityMatrix(np.eye(6) / 6),
    "partial-transpose-6x6": lambda: d.partial_transpose_matrix(np.eye(6), (0,)),
    "dqc1-state-3x3-unitary": lambda: d.build_dqc1_state(np.eye(3), 0.5),
}


@pytest.mark.parametrize("build", BAD_DIMENSIONS.values(), ids=BAD_DIMENSIONS.keys())
def test_dimension_rule_rejects_a_dimension_not_a_power_of_two(build):
    with pytest.raises(ValueError, match=r"is not 2\*\*n for a qubit count n >= 1"):
        build()


def test_density_matrix_rejects_non_hermitian():
    m = np.eye(2, dtype=complex) / 2
    m[0, 1] = 1e-6
    with pytest.raises(ValueError, match="Hermitian"):
        d.DensityMatrix(m)


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(ValueError, match="trace"):
        d.DensityMatrix(np.eye(2, dtype=complex))


def test_density_matrix_rejects_negative_eigenvalue():
    with pytest.raises(ValueError, match="eigenvalue"):
        d.DensityMatrix(np.diag([1.5, -0.5]).astype(complex))


def nan_coupling(m):
    m = np.array(m, dtype=complex)
    m[0, 1] = m[1, 0] = np.nan
    return m


# (constructor, message) for each boundary that takes a matrix from outside
NON_FINITE_INPUTS = {
    "density-matrix": (lambda: d.DensityMatrix(nan_coupling(np.eye(4) / 4)),
                       "non-finite"),
    "dqc1-unitary": (lambda: d.build_dqc1_state(nan_coupling(np.eye(4)), 0.5),
                     "non-finite"),
    # b1 only: every block is admitted, not just the first
    "block-spec": (lambda: dataclasses.replace(
        d.canonical_blocks(), b1=nan_coupling(np.diag([1.0, 0.0]))), "non-finite"),
    "adversary-unitary": (lambda: d.AdversaryStrategy((
        np.eye(2), nan_coupling(np.eye(2)), np.eye(2))), "non-finite"),
    # a NaN defect is no defect to a `>` test: these returned numbers
    "hermitian-eigenvalues": (lambda: d.hermitian_eigenvalues(nan_coupling(np.eye(2))),
                              "non-finite"),
    "hermitian-eigensystem": (lambda: d.hermitian_eigensystem(nan_coupling(np.eye(4))),
                              "non-finite"),
    "trace-norm": (lambda: d.trace_norm(np.diag([np.nan, 1.0])), "non-finite"),
    # inf - inf inside the hermiticity defect would warn before any ValueError
    "hermitian-eigenvalues-inf": (lambda: d.hermitian_eigenvalues(np.diag([np.inf, 1.0])),
                                  "non-finite"),
    "hermitian-eigensystem-inf": (lambda: d.hermitian_eigensystem(np.diag([1.0, -np.inf])),
                                  "non-finite"),
    "trace-norm-inf": (lambda: d.trace_norm(np.diag([np.inf, 1.0])), "non-finite"),
    # plain arithmetic carries a NaN through to the result
    "kron": (lambda: d.kron(np.eye(2), nan_coupling(np.eye(2))), "non-finite"),
    "kron-all": (lambda: d.kron_all(np.eye(2), np.eye(2), nan_coupling(np.eye(2))),
                 "non-finite"),
    "partial-transpose": (lambda: d.partial_transpose_matrix(nan_coupling(np.eye(4)), (0,)),
                          "non-finite"),
    "ghz-reconstruct": (lambda: d.ghz_reconstruct([np.nan] * 8), "non-finite"),
}


@pytest.mark.parametrize("build,message", NON_FINITE_INPUTS.values(),
                         ids=NON_FINITE_INPUTS.keys())
def test_non_finite_input_is_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()


# (constructor, message) for each input whose shape does not fit its boundary
WRONG_SHAPES = {
    "density-matrix-2x4": (lambda: d.DensityMatrix(np.ones((2, 4))),
                           r"^expected a square matrix, got shape \(2, 4\)$"),
    "relative-entropy-1-vs-2-qubits": (
        lambda: d.relative_entropy(d.maximally_mixed(1), d.maximally_mixed(2)),
        r"^states must share one Hilbert space$"),
    "block-spec-3x3": (lambda: d.UnitaryBlockSpec(np.eye(3), np.eye(2), np.eye(2), np.eye(2)),
                       r"^block a1 must be 2x2$"),
    "adversary-4x4": (lambda: d.AdversaryStrategy((np.eye(4), np.eye(2), np.eye(2))),
                      r"^strategy unitaries must be 2x2$"),
    "ghz-reconstruct-7": (lambda: d.ghz_reconstruct(np.ones(7)), r"^expected 8 coefficients$"),
}


@pytest.mark.parametrize("build,message", WRONG_SHAPES.values(), ids=WRONG_SHAPES.keys())
def test_wrong_shape_input_is_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_density_matrix_accepts_product_states():
    rng = np.random.default_rng(17)
    state = random_product_state(rng, 3)
    assert state.num_qubits == 3


@pytest.mark.parametrize("solver, call", [
    ("eigh", d.hermitian_eigensystem),
    ("eigvalsh", d.hermitian_eigenvalues),
], ids=["eigensystem", "eigenvalues"])
def test_eigensolver_failure_raises_numpys_own_error(solver, call, monkeypatch):
    def failing(m):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(np.linalg, solver, failing)
    with pytest.raises(np.linalg.LinAlgError, match="^no convergence$"):
        call(np.eye(2))


def test_pauli_constants_are_read_only():
    from dqc1lab import dqc1, linalg

    arrays = [linalg.PAULI_I, linalg.PAULI_X, linalg.PAULI_Y, linalg.PAULI_Z,
              linalg._PAULI_STACK]
    before = [a.copy() for a in arrays]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 5
    with pytest.raises(ValueError, match="read-only"):
        dqc1.PAULI_X[0, 0] = 5
    assert all(np.array_equal(a, b) for a, b in zip(arrays, before))
    # a failed write leaves the shared constants intact for every later build
    u = d.build_un(d.canonical_blocks(), 3)
    assert np.array_equal(u @ u.conj().T, np.eye(8))


# the functions that admit a matrix without storing it: each returns a fresh
# array, never its input or a view of it, and leaves the input as it was
TRANSIENT = {
    "kron": lambda m: [d.kron(m, I2), d.kron(I2, m)],
    "partial_transpose_matrix": lambda m: [d.partial_transpose_matrix(m, (0,))],
    "hermitian_eigensystem": lambda m: list(d.hermitian_eigensystem(m)),
    "hermitian_eigenvalues": lambda m: [d.hermitian_eigenvalues(m)],
    "pauli_coefficients": lambda m: [_pauli_coefficients(m)],
}


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("size", [2, 4])
@pytest.mark.parametrize("call", TRANSIENT.values(), ids=TRANSIENT.keys())
def test_transient_admission_neither_writes_nor_returns_its_input(call, size, order):
    m = np.array(random_hermitian(np.random.default_rng(size), size), order=order)
    before = m.copy()
    for out in call(m):
        assert not np.shares_memory(out, m)
    assert np.array_equal(m, before) and m.flags.writeable


def test_only_linalg_freezes_an_array():
    # an array is frozen by building it over immutable bytes, at two sites, both
    # in linalg: the Pauli stack and the storage rule, _frozen.  A setflags
    # freeze would leave its owning array free to be made writable again
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(Path(linalg.__file__).parent.glob("*.py"))}
    sites = [(stem, getattr(top, "name", None) or ast.unparse(getattr(top, "targets", [top])[0]),
              ast.unparse(node.func))
             for stem, source in sources.items() for top in ast.parse(source).body
             for node in ast.walk(top) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("frombuffer", "setflags")]
    assert sites == [("linalg", "_PAULI_STACK", "np.frombuffer"),
                     ("linalg", "_frozen", "np.frombuffer")]
    assert not any("setflags(" in source for source in sources.values())
