import itertools

import numpy as np
import pytest
from conftest import random_density_matrix

import dqc1lab as d
from dqc1lab.separability import SINGLE_QUBIT_CUTS

ALPHAS = np.linspace(0.0, 1.0, 101)


def trace_pair_oracle(rho_matrix, pauli_matrix):
    """Entry-by-entry expectation sum, independent of matrix products."""
    total = 0.0 + 0.0j
    for i in range(8):
        for j in range(8):
            total += rho_matrix[i, j] * pauli_matrix[j, i]
    return total


# --------------------------------------------------------------------------
# pauli strings and expectations
# --------------------------------------------------------------------------

def test_pauli_strings_are_hermitian_unitary_traceless():
    for s in d.GHZ_PAULI_STRINGS + ("XZY", "IIX", "YZI"):
        p = d.pauli_string_matrix(s)
        assert np.abs(p - p.conj().T).max() < 1e-15
        assert np.abs(p @ p - np.eye(8)).max() < 1e-15
        if s == "III":
            assert np.trace(p) == pytest.approx(8)
        else:
            assert abs(np.trace(p)) < 1e-15


def test_pauli_string_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        d.pauli_string_matrix("XX")
    with pytest.raises(ValueError):
        d.pauli_string_matrix("XQZ")
    # validation runs before the cache lookup, so an unhashable argument
    # reports a ValueError rather than a TypeError
    for bad in (["X", "X", "X"], ("X", "X", "X"), b"XXX", None, 3):
        with pytest.raises(ValueError, match="length-3 string"):
            d.pauli_string_matrix(bad)


def test_cached_pauli_strings_match_kron_oracle():
    paulis = {"I": d.dqc1.PAULI_I, "X": d.dqc1.PAULI_X,
              "Y": d.dqc1.PAULI_Y, "Z": d.dqc1.PAULI_Z}
    for letters in itertools.product("IXYZ", repeat=3):
        s = "".join(letters)
        p = d.pauli_string_matrix(s)
        assert np.array_equal(p, d.kron_all(*[paulis[c] for c in s]))
        assert p is d.pauli_string_matrix(s)
        with pytest.raises(ValueError):
            p[0, 0] = 0.0
    assert np.array_equal(d.pauli_string_matrix("XXX"), np.fliplr(np.eye(8)))


def test_identity_expectation_is_one():
    rng = np.random.default_rng(51)
    rho = random_density_matrix(rng, 3)
    assert d.pauli_expectation(rho, "III") == pytest.approx(1.0, abs=1e-12)


def test_omega_xxx_expectation_matches_trace_oracle():
    # the published magnitude for this coefficient is 2a/(2-a), but the
    # defining matrix has only four anti-diagonal couplings, which the
    # entrywise oracle sums to a/(2-a); at full polarization the larger
    # value would exceed the +-1 range of a Pauli expectation
    for a in (0.25, 0.5, 1.0):
        w = d.omega_state(a)
        oracle = trace_pair_oracle(w.matrix, d.pauli_string_matrix("XXX"))
        assert abs(oracle.imag) < 1e-15
        assert d.pauli_expectation(w, "XXX") == pytest.approx(oracle.real, abs=1e-14)
        assert oracle.real == pytest.approx(a / (2 - a), abs=1e-12)


def test_omega_yyx_expectation_is_zero():
    assert d.pauli_expectation(d.omega_state(0.5), "YYX") == pytest.approx(
        0.0, abs=1e-14)


def test_pauli_expectation_requires_three_qubits():
    with pytest.raises(ValueError):
        d.pauli_expectation(d.maximally_mixed(2), "XXX")


# --------------------------------------------------------------------------
# GHZ-diagonal coefficients
# --------------------------------------------------------------------------

def test_coefficients_of_maximally_mixed_state():
    lams = d.ghz_diagonal_coefficients(d.maximally_mixed(3))
    assert np.allclose(lams, [1, 0, 0, 0, 0, 0, 0, 0], atol=1e-14)


def test_coefficients_of_omega_at_half():
    lams = d.ghz_diagonal_coefficients(d.omega_state(0.5))
    # trace oracle: lambda4 (IZZ) and lambda5 (XXX) are a/(2-a) = 1/3,
    # lambda8 (XYY) is -1/3, all others vanish
    assert lams[0] == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(lams[1:3], 0.0, atol=1e-14)
    assert lams[3] == pytest.approx(1 / 3, abs=1e-12)
    assert lams[4] == pytest.approx(1 / 3, abs=1e-12)
    assert np.allclose(lams[5:7], 0.0, atol=1e-14)
    assert lams[7] == pytest.approx(-1 / 3, abs=1e-12)


def test_omega_diagonal_coefficients_match_sign_sum_oracle():
    # diagonal coefficients from the sign pattern of the Z strings
    for a in (0.2, 0.6, 1.0):
        w = d.omega_state(a).matrix
        diag = np.diag(w).real
        signs = {
            "ZZI": [1, 1, -1, -1, -1, -1, 1, 1],
            "ZIZ": [1, -1, 1, -1, -1, 1, -1, 1],
            "IZZ": [1, -1, -1, 1, 1, -1, -1, 1],
        }
        lams = d.ghz_diagonal_coefficients(d.omega_state(a))
        for idx, name in ((1, "ZZI"), (2, "ZIZ"), (3, "IZZ")):
            assert lams[idx] == pytest.approx(
                float(np.dot(diag, signs[name])), abs=1e-12)


def test_reconstruction_roundtrip_on_coefficients():
    rng = np.random.default_rng(52)
    for _ in range(20):
        raw = rng.uniform(-0.2, 0.2, size=8)
        raw[0] = 1.0
        m = d.ghz_reconstruct(raw)
        state = d.DensityMatrix(m, 3)  # small coefficients keep it PSD
        lams = d.ghz_diagonal_coefficients(state)
        assert np.abs(lams - raw).max() < 1e-12


def test_non_ghz_diagonal_input_raises_with_residual():
    # the three-qubit circuit output is not GHZ-diagonal
    with pytest.raises(d.NonGhzDiagonalError) as excinfo:
        d.ghz_diagonal_coefficients(d.rho3(0.5).state)
    assert excinfo.value.residual > 1e-3


# --------------------------------------------------------------------------
# product-coefficient criterion
# --------------------------------------------------------------------------

def test_kay_verdict_for_omega_below_half():
    for a in (0.0, 0.2, 0.5):
        verdict = d.kay_criterion(d.omega_state(a))
        assert verdict.status is d.Verdict.FULLY_SEPARABLE
        assert verdict.certificate["odd_weight_product"] == pytest.approx(0.0, abs=1e-14)


def test_kay_verdict_for_omega_above_half():
    verdict = d.kay_criterion(d.omega_state(0.6))
    assert verdict.status is d.Verdict.NPT_ENTANGLED
    assert verdict.certificate["min_pt_eigenvalue"] < -1e-4


def test_kay_verdict_for_maximally_mixed():
    assert d.kay_criterion(d.maximally_mixed(3)).status is d.Verdict.FULLY_SEPARABLE


def test_kay_inconclusive_when_product_positive():
    eps = 0.05
    lams = np.array([1.0, 0, 0, 0, eps, eps, eps, eps])
    state = d.DensityMatrix(d.ghz_reconstruct(lams), 3)
    assert all(d.is_ppt(state, cut) for cut in SINGLE_QUBIT_CUTS)
    assert d.kay_criterion(state).status is d.Verdict.INCONCLUSIVE


def test_kay_rejects_non_ghz_diagonal_states():
    with pytest.raises(d.NonGhzDiagonalError):
        d.kay_criterion(d.rho3(0.3).state)


# --------------------------------------------------------------------------
# decomposition
# --------------------------------------------------------------------------

def test_decomposition_weights_and_edge_cases():
    w1, omega, w2, eta = d.decompose_rho3(0.0)
    assert (w1, w2) == (1.0, 0.0)
    assert np.abs(omega.matrix - np.eye(8) / 8).max() < 1e-15

    w1, omega, w2, eta = d.decompose_rho3(1.0)
    assert (w1, w2) == (0.5, 0.5)
    assert np.allclose(np.diag(omega.matrix).real,
                       np.array([1, 0, 0, 1, 1, 0, 0, 1]) / 4, atol=1e-15)


def test_decomposition_reconstructs_rho3_on_grid():
    for a in ALPHAS:
        w1, omega, w2, eta = d.decompose_rho3(a)
        lhs = w1 * omega.matrix + w2 * eta.matrix
        assert np.abs(lhs - d.rho3(a).state.matrix).max() <= 1e-12


def test_eta_is_a_mixture_of_product_vectors():
    eta = d.eta_state()
    # both pure components are product vectors: every single-qubit
    # marginal of each component has purity 1
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    zero = np.array([1, 0], dtype=complex)
    one = np.array([0, 1], dtype=complex)
    for vec in (np.kron(np.kron(plus, zero), one),
                np.kron(np.kron(plus, one), zero)):
        component = d.DensityMatrix(np.outer(vec, vec.conj()), 3)
        purities = d.separability.product_vector_purities(component)
        assert all(abs(p - 1.0) < 1e-12 for p in purities)
    reconstructed = 0.5 * sum(
        np.outer(v, v.conj()) for v in (np.kron(np.kron(plus, zero), one),
                                        np.kron(np.kron(plus, one), zero)))
    assert np.abs(reconstructed - eta.matrix).max() < 1e-15


def test_eta_state_is_built_once_and_read_only():
    eta = d.eta_state()
    assert eta is d.eta_state()
    with pytest.raises(ValueError):
        eta.matrix[0, 0] = 1.0


def test_omega_ppt_threshold_scan():
    for a in ALPHAS:
        all_ppt = all(d.is_ppt(d.omega_state(a), cut) for cut in SINGLE_QUBIT_CUTS)
        assert all_ppt == (a <= 0.5)


def test_omega_odd_weight_product_vanishes_everywhere():
    for a in ALPHAS:
        lams = d.ghz_diagonal_coefficients(d.omega_state(a))
        assert abs(float(np.prod(lams[4:8]))) < 1e-14


def test_decompose_rejects_bad_alpha():
    with pytest.raises(ValueError):
        d.decompose_rho3(-0.2)


# --------------------------------------------------------------------------
# end-to-end verdicts
# --------------------------------------------------------------------------

def test_full_separability_verdict_examples():
    assert d.full_separability_verdict(0.0).status is d.Verdict.FULLY_SEPARABLE
    assert d.full_separability_verdict(0.5).status is d.Verdict.FULLY_SEPARABLE
    verdict = d.full_separability_verdict(0.9)
    assert verdict.status is d.Verdict.NPT_ENTANGLED
    assert verdict.certificate["witness_eigenvalue"] == pytest.approx(-0.1, abs=1e-12)


def test_full_separability_certificate_contents():
    verdict = d.full_separability_verdict(0.4)
    cert = verdict.certificate
    assert cert["reconstruction_residual"] <= 1e-12
    assert cert["ghz_part_verdict"].status is d.Verdict.FULLY_SEPARABLE
    assert all(abs(p - 1.0) < 1e-12 or p <= 1.0 for p in cert["eta_component_purities"])
    w1, w2 = cert["weights"]
    assert w1 + w2 == pytest.approx(1.0)


def test_witness_eigenvalue_matches_pt_spectrum():
    for a in (0.6, 0.75, 1.0):
        verdict = d.full_separability_verdict(a)
        pt_min = d.hermitian_eigenvalues(
            d.partial_transpose(d.rho3(a).state, d.RHO3_ENTANGLING_CUT)).min()
        assert verdict.certificate["witness_eigenvalue"] == pytest.approx(
            pt_min, abs=1e-12)
