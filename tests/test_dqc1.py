import numpy as np
import pytest
from conftest import random_unitary

import dqc1lab as d
from dqc1lab.dqc1 import PAULI_X, PAULI_Y


def build_un_oracle(spec, n):
    """Assemble the register unitary by explicit basis-state action."""
    dim = 2**n
    u = np.zeros((dim, dim), dtype=complex)
    blocks = {(0, 0): spec.a1, (0, 1): spec.c1, (1, 0): spec.d1, (1, 1): spec.b1}
    half = dim // 2
    for top_out in (0, 1):
        for top_in in (0, 1):
            block = blocks[(top_out, top_in)]
            flip = top_out != top_in  # X string on the middle qubits
            for mid in range(2 ** (n - 2)):
                mid_out = (2 ** (n - 2) - 1) ^ mid if flip else mid
                for low_out in (0, 1):
                    for low_in in (0, 1):
                        row = top_out * half + mid_out * 2 + low_out
                        col = top_in * half + mid * 2 + low_in
                        u[row, col] += block[low_out, low_in]
    return u


def test_canonical_blocks_satisfy_unitarity_conditions():
    spec = d.canonical_blocks()
    assert spec.unitarity_defect() < 1e-15
    spec.validate()


def test_u2_is_the_expected_permutation():
    u2 = d.build_un(d.canonical_blocks(), 2)
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 1] = expected[2, 2] = 1  # |01>, |10> fixed
    expected[0, 3] = expected[3, 0] = 1  # |00> <-> |11>
    assert np.array_equal(u2, expected)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_built_unitaries_are_unitary(n):
    u = d.build_un(d.canonical_blocks(), n)
    assert np.abs(u.conj().T @ u - np.eye(2**n)).max() < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_build_un_matches_basis_action_oracle(n):
    spec = d.canonical_blocks()
    assert np.abs(d.build_un(spec, n) - build_un_oracle(spec, n)).max() < 1e-15


def test_trace_of_u3():
    # the two diagonal blocks are I tensor a1 and I tensor b1, each
    # contributing 2; frozen from the explicit matrix, tr(U_3) = 4
    u3 = d.build_un(d.canonical_blocks(), 3)
    assert np.trace(u3) == pytest.approx(4.0, abs=1e-15)
    assert np.trace(build_un_oracle(d.canonical_blocks(), 3)) == pytest.approx(4.0)


def test_build_un_rejects_non_unitary_blocks():
    bad = d.UnitaryBlockSpec(
        a1=np.eye(2), b1=np.eye(2), c1=np.eye(2), d1=np.eye(2))
    with pytest.raises(ValueError, match="unitarity"):
        d.build_un(bad, 2)


def test_build_un_register_cap():
    with pytest.raises(ValueError, match="maximum"):
        d.build_un(d.canonical_blocks(), 6)
    d.build_un(d.canonical_blocks(), 6, max_register=6)


def test_random_block_specs_build_valid_states():
    rng = np.random.default_rng(21)
    for _ in range(5):
        u4 = random_unitary(rng, 4)
        a1, c1 = u4[:2, :2], u4[:2, 2:]
        d1, b1 = u4[2:, :2], u4[2:, 2:]
        spec = d.UnitaryBlockSpec(a1=a1, b1=b1, c1=c1, d1=d1)
        for n in (2, 3, 4):
            u = d.build_un(spec, n)
            for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
                s = d.build_dqc1_state(u, alpha)
                assert s.state.num_qubits == n + 1  # admission checks ran


def test_dqc1_state_block_structure():
    u = d.build_un(d.canonical_blocks(), 3)
    s = d.build_dqc1_state(u, 0.7)
    m = s.state.matrix
    dim = 8
    norm = 2 ** (s.n + 1)
    assert np.abs(m[:dim, dim:] - 0.7 * u.conj().T / norm).max() < 1e-15
    assert np.abs(m[:dim, :dim] - np.eye(dim) / norm).max() < 1e-15
    assert np.abs(m[dim:, dim:] - np.eye(dim) / norm).max() < 1e-15


def test_dqc1_state_at_zero_polarization_is_maximally_mixed():
    u = d.build_un(d.canonical_blocks(), 2)
    s = d.build_dqc1_state(u, 0.0)
    assert np.abs(s.state.matrix - np.eye(8) / 8).max() == 0


def test_dqc1_state_spectrum_at_full_polarization():
    # block diagonalization oracle: eigenvalues of [[I, U'],[U, I]]/2^{n+1}
    # are (1 +- 1)/2^{n+1}, each 2^n-fold
    for n in (2, 3):
        u = d.build_un(d.canonical_blocks(), n)
        s = d.build_dqc1_state(u, 1.0)
        w = np.sort(d.hermitian_eigenvalues(s.state.matrix))
        expected = np.sort([0.0] * 2**n + [1 / 2**n] * 2**n)
        assert np.allclose(w, expected, atol=1e-12)


def test_build_dqc1_state_rejects_bad_alpha():
    u = d.build_un(d.canonical_blocks(), 2)
    for alpha in (-0.1, 1.1):
        with pytest.raises(ValueError, match="alpha"):
            d.build_dqc1_state(u, alpha)


def test_build_dqc1_state_rejects_non_unitary():
    with pytest.raises(ValueError, match="unitary"):
        d.build_dqc1_state(np.ones((4, 4)), 0.5)


def test_rho3_entries():
    s = d.rho3(1.0)
    m = s.state.matrix
    assert m[0, 7] == pytest.approx(1 / 8)
    assert m[7, 0] == pytest.approx(1 / 8)
    assert np.allclose(np.diag(m), 1 / 8)
    assert np.abs(d.rho3(0.0).state.matrix - np.eye(8) / 8).max() == 0


def test_rho3_equals_constructor_route():
    u2 = d.build_un(d.canonical_blocks(), 2)
    for alpha in (0.0, 0.3, 0.5, 0.77, 1.0):
        via_blocks = d.build_dqc1_state(u2, alpha).state.matrix
        assert np.array_equal(d.rho3(alpha).state.matrix, via_blocks)


def test_rho3_shares_one_read_only_canonical_unitary():
    fresh = d.build_un(d.canonical_blocks(), 2)
    u = d.rho3(0.3).unitary
    assert u is d.rho3(0.9).unitary
    assert np.array_equal(u, fresh)
    with pytest.raises(ValueError):
        u[0, 0] = 2.0
    assert np.array_equal(u, fresh)


def test_rho3_rejects_bad_alpha():
    with pytest.raises(ValueError, match="alpha"):
        d.rho3(1.5)


def test_expectation_xy_zero_polarization():
    s = d.build_dqc1_state(d.build_un(d.canonical_blocks(), 2), 0.0)
    assert d.expectation_xy(s) == (0.0, 0.0)


def test_expectation_xy_canonical_u2():
    s = d.rho3(1.0)
    x, y = d.expectation_xy(s)
    assert x == pytest.approx(0.5, abs=1e-15)
    assert y == pytest.approx(0.0, abs=1e-15)


def test_expectation_y_vanishes_for_real_diagonal_unitary():
    u = np.diag([1.0, -1.0, 1.0, -1.0]).astype(complex)
    s = d.build_dqc1_state(u, 0.8)
    assert d.expectation_xy(s)[1] == 0.0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_expectation_xy_matches_operator_average(n):
    u = d.build_un(d.canonical_blocks(), n)
    eye = np.eye(2**n)
    for alpha in (0.0, 0.25, 0.5, 1.0):
        s = d.build_dqc1_state(u, alpha)
        x, y = d.expectation_xy(s)
        bx = np.trace(np.kron(PAULI_X, eye) @ s.state.matrix)
        by = np.trace(np.kron(PAULI_Y, eye) @ s.state.matrix)
        assert abs(x - bx.real) < 1e-12 and abs(bx.imag) < 1e-14
        assert abs(y - by.real) < 1e-12 and abs(by.imag) < 1e-14


def test_sampling_is_reproducible_per_seed():
    s = d.rho3(1.0)
    a = d.sample_trace_estimate(s, 5000, seed=42)
    b = d.sample_trace_estimate(s, 5000, seed=42)
    c = d.sample_trace_estimate(s, 5000, seed=43)
    assert a == b
    assert a.sampled_re != c.sampled_re


def test_single_shot_is_plus_or_minus_one():
    s = d.rho3(0.5)
    for seed in range(10):
        est = d.sample_trace_estimate(s, 1, seed=seed)
        assert est.sampled_re in (-1.0, 1.0)
        assert est.sampled_im in (-1.0, 1.0)


def test_sampling_symmetric_case_stays_small():
    s = d.rho3(0.0)
    est = d.sample_trace_estimate(s, 10_000, seed=7)
    assert abs(est.sampled_re) <= 0.06


def test_sampling_within_six_sigma_at_recorded_seeds():
    s = d.rho3(1.0)
    for seed in (1, 2, 3, 4, 5):
        est = d.sample_trace_estimate(s, 100_000, seed=seed)
        assert abs(est.sampled_re - est.exact_re) <= 6 * est.std_error
        assert abs(est.sampled_im - est.exact_im) <= 6 * est.std_error


def test_sampling_error_shrinks_with_shots():
    s = d.rho3(1.0)
    shot_counts = (100, 10_000, 1_000_000)
    mean_abs_err = []
    for shots in shot_counts:
        errs = [abs(d.sample_trace_estimate(s, shots, seed=k).sampled_re - 0.5)
                for k in range(20)]
        mean_abs_err.append(np.mean(errs))
    assert mean_abs_err[0] > mean_abs_err[1] > mean_abs_err[2]


def test_sampling_draws_one_binomial_count_per_axis():
    # the stream is pinned: one binomial count of +1 outcomes per axis,
    # X first, from one PCG64 generator keyed by the seed
    s = d.rho3(0.8)
    shots = 12_345
    ex, ey = d.expectation_xy(s)
    rng = np.random.default_rng(17)
    kx = rng.binomial(shots, (1 + ex) / 2)
    ky = rng.binomial(shots, (1 + ey) / 2)
    est = d.sample_trace_estimate(s, shots, seed=17)
    assert est.sampled_re == (2 * kx - shots) / shots
    assert est.sampled_im == (2 * ky - shots) / shots


def test_sampling_memory_does_not_grow_with_shots():
    # 1e12 shots as individual outcomes would need terabytes
    s = d.rho3(1.0)
    est = d.sample_trace_estimate(s, 10**12, seed=3)
    assert abs(est.sampled_re - est.exact_re) <= 6 * est.std_error
    assert abs(est.sampled_im - est.exact_im) <= 6 * est.std_error
    assert est.std_error < 1e-6


def test_sampling_clamps_the_outcome_probability():
    # a unitary admitted at the 1e-12 tolerance can put the exact X
    # expectation just above 1; every X outcome is then +1
    s = d.build_dqc1_state((1 + 4e-13) * np.eye(4), 1.0)
    assert d.expectation_xy(s)[0] > 1.0
    est = d.sample_trace_estimate(s, 1000, seed=5)
    assert est.sampled_re == 1.0


def test_sampling_rejects_zero_shots():
    with pytest.raises(ValueError, match="shots"):
        d.sample_trace_estimate(d.rho3(0.5), 0, seed=1)
