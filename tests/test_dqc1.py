import dataclasses

import numpy as np
import pytest
from conftest import random_unitary

import dqc1lab as d
from dqc1lab.linalg import PAULI_X, PAULI_Y, unitarity_defect


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
    assert unitarity_defect(d.build_un(d.canonical_blocks(), 2)) < 1e-15


def test_u2_is_the_expected_permutation():
    u2 = d.build_un(d.canonical_blocks(), 2)
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 1] = expected[2, 2] = 1  # |01>, |10> fixed
    expected[0, 3] = expected[3, 0] = 1  # |00> <-> |11>
    assert np.array_equal(u2, expected)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_canonical_unitary_is_a_classical_permutation(n):
    # a symmetric involution on the basis fixing the states whose first and
    # last register bits differ: its normalized trace is the fraction of
    # fixed points, which uniform classical sampling estimates as well
    u = d.build_un(d.canonical_blocks(), n)
    dim = 2**n
    assert np.isin(u, (0, 1)).all()
    assert (u.sum(axis=0) == 1).all() and (u.sum(axis=1) == 1).all()
    assert np.array_equal(u, u.T)
    assert np.array_equal(u @ u, np.eye(dim))
    fixed = [b for b in range(dim) if u[b, b] == 1]
    assert fixed == [b for b in range(dim) if (b >> (n - 1)) != (b & 1)]
    assert np.trace(u) / dim == 0.5


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
    with pytest.raises(ValueError, match=r"^assembled matrix fails unitarity within 1e-12 "):
        d.build_un(bad, 2)


def test_build_un_register_cap():
    with pytest.raises(ValueError, match="maximum 5"):
        d.build_un(d.canonical_blocks(), 6)
    assert d.build_un(d.canonical_blocks(), 5).shape == (32, 32)


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
                s = d.Dqc1State(alpha, u)
                assert s.state.num_qubits == n + 1  # admission checks ran


def test_dqc1_state_block_structure():
    u = d.build_un(d.canonical_blocks(), 3)
    s = d.Dqc1State(0.7, u)
    m = s.state.matrix
    dim = 8
    norm = 2 ** s.state.num_qubits
    assert np.abs(m[:dim, dim:] - 0.7 * u.conj().T / norm).max() < 1e-15
    assert np.abs(m[:dim, :dim] - np.eye(dim) / norm).max() < 1e-15
    assert np.abs(m[dim:, dim:] - np.eye(dim) / norm).max() < 1e-15


def test_dqc1_state_at_zero_polarization_is_maximally_mixed():
    u = d.build_un(d.canonical_blocks(), 2)
    s = d.Dqc1State(0.0, u)
    assert np.abs(s.state.matrix - np.eye(8) / 8).max() == 0


def test_dqc1_state_spectrum_at_full_polarization():
    # block diagonalization oracle: eigenvalues of [[I, U'],[U, I]]/2^{n+1}
    # are (1 +- 1)/2^{n+1}, each 2^n-fold
    for n in (2, 3):
        u = d.build_un(d.canonical_blocks(), n)
        s = d.Dqc1State(1.0, u)
        w = np.sort(d.hermitian_eigenvalues(s.state.matrix))
        expected = np.sort([0.0] * 2**n + [1 / 2**n] * 2**n)
        assert np.allclose(w, expected, atol=1e-12)


def test_a_hand_built_state_admits_its_unitary():
    # a 3 I register "unitary" used to give expectation_xy 1.5, which the
    # sampler's clip on p(+1) hid behind a sampled 1.0
    with pytest.raises(ValueError, match=r"^register unitary fails unitarity within 1e-12 "
                                         r"\(defect 8\.00e\+00\)$"):
        d.Dqc1State(0.5, 3 * np.eye(4))
    with pytest.raises(TypeError):  # the state is built, never handed in
        d.Dqc1State(0.5, d.rho3(0.9).state, np.eye(4))


def test_a_replaced_alpha_rebuilds_the_state():
    # replacing alpha used to keep the 0.5 state, whose <X> is 0.25, under 0.9
    s = dataclasses.replace(d.rho3(0.5), alpha=0.9)
    direct = np.trace(np.kron(PAULI_X, np.eye(4)) @ s.state.matrix).real
    assert s.alpha == 0.9 and d.expectation_xy(s) == (0.45, 0.0)
    assert abs(direct - 0.45) <= 1e-15
    assert np.array_equal(s.state.matrix, d.rho3(0.9).state.matrix)


def test_the_constructor_builds_the_bits_of_the_former_builder():
    # the block build of the former builder function, which Dqc1State now runs
    def former_build(u, alpha):
        dim = u.shape[0]
        rho = np.eye(2 * dim, dtype=np.complex128)
        rho[:dim, dim:] = alpha * u.conj().T
        rho[dim:, :dim] = alpha * u
        rho /= 2 * dim
        return rho

    rng = np.random.default_rng(7)
    for n in (2, 3, 4):
        u = random_unitary(rng, 2**n)
        for alpha in (0.0, 0.3, 0.5, 0.77, 1.0):
            m = d.Dqc1State(alpha, u).state.matrix
            assert m.tobytes() == former_build(u, alpha).tobytes(), (n, alpha)


def test_rho3_entries():
    s = d.rho3(1.0)
    m = s.state.matrix
    assert m[0, 7] == pytest.approx(1 / 8)
    assert m[7, 0] == pytest.approx(1 / 8)
    assert np.allclose(np.diag(m), 1 / 8)
    assert np.abs(d.rho3(0.0).state.matrix - np.eye(8) / 8).max() == 0


def test_rho3_gives_each_state_its_own_read_only_canonical_unitary():
    fresh = d.build_un(d.canonical_blocks(), 2)
    u, v = d.rho3(0.3).unitary, d.rho3(0.9).unitary
    assert u is not v and not np.shares_memory(u, v)
    assert np.array_equal(u, fresh) and np.array_equal(v, fresh)
    with pytest.raises(ValueError):
        u[0, 0] = 2.0
    with pytest.raises(ValueError, match="^cannot set WRITEABLE flag to True of this array$"):
        u.setflags(write=True)
    assert np.array_equal(d.rho3(0.5).unitary, fresh)


def test_rho3_rejects_bad_alpha():
    with pytest.raises(ValueError, match="alpha"):
        d.rho3(1.5)


def test_rho3_matches_the_entrywise_coupling_pairs():
    for alpha in (0.0, 0.3, 0.5, 0.77, 1.0):
        m = np.eye(8, dtype=complex)
        for i, j in ((0, 7), (1, 5), (2, 6), (3, 4)):
            m[i, j] = m[j, i] = alpha
        assert np.array_equal(d.rho3(alpha).state.matrix, m / 8)


# every entry point that takes a polarization, each rejecting it before any work
ALPHA_ENTRY_POINTS = {
    "rho3": d.rho3,
    "dqc1-state": lambda a: d.Dqc1State(a, d.rho3(0.5).unitary),
    "omega-state": d.omega_state,
    "full-separability-verdict": d.full_separability_verdict,
    "activation-sweep": lambda a: d.activation_sweep([0.5, a], strategies=2, seed=0),
}


@pytest.mark.parametrize("alpha", [-0.1, 1.5, np.nan, np.inf])
@pytest.mark.parametrize("call", ALPHA_ENTRY_POINTS.values(), ids=ALPHA_ENTRY_POINTS.keys())
def test_alpha_outside_the_unit_interval_is_rejected(call, alpha):
    with pytest.raises(ValueError, match=r"alpha must lie in \[0, 1\], got"):
        call(alpha)


def scaled_block_spec(eps):
    spec = d.canonical_blocks()
    return dataclasses.replace(spec, a1=(1 + eps) * spec.a1)


def build_un_site(n):
    identity_blocks = d.UnitaryBlockSpec(a1=np.eye(2), b1=np.eye(2), c1=np.eye(2), d1=np.eye(2))
    return ("assembled matrix", lambda eps: d.build_un(scaled_block_spec(eps), n),
            lambda: d.build_un(identity_blocks, n))


# each site that admits a unitary: the name its message gives, the site fed a
# unitary scaled by 1 + eps (defect about 2 eps), and the site fed a gross defect
UNITARITY_SITES = {
    "build-un": build_un_site(2),
    "build-un-n3": build_un_site(3),
    "build-un-n4": build_un_site(4),
    "build-un-n5": build_un_site(5),
    "dqc1-state": ("register unitary", lambda eps: d.Dqc1State(
        0.5, (1 + eps) * d.build_un(d.canonical_blocks(), 2)),
        lambda: d.Dqc1State(0.5, np.ones((4, 4)))),
    "adversary": ("strategy unitary", lambda eps: d.AdversaryStrategy((
        (1 + eps) * np.array([[1, 1], [1, -1]]) / np.sqrt(2), np.eye(2), np.eye(2))),
        lambda: d.AdversaryStrategy((np.eye(2), np.ones((2, 2)), np.eye(2)))),
}


@pytest.mark.parametrize("name, admit, gross", UNITARITY_SITES.values(),
                         ids=UNITARITY_SITES.keys())
def test_every_unitarity_site_shares_one_tolerance(name, admit, gross):
    admit(1e-13)
    for reject in (lambda: admit(1e-11), gross):
        with pytest.raises(ValueError, match=rf"^{name} fails unitarity within 1e-12 "
                                             r"\(defect \d\.\d\de[+-]\d\d\)$"):
            reject()


def test_expectation_xy_zero_polarization():
    s = d.Dqc1State(0.0, d.build_un(d.canonical_blocks(), 2))
    assert d.expectation_xy(s) == (0.0, 0.0)


def test_expectation_xy_canonical_u2():
    s = d.rho3(1.0)
    x, y = d.expectation_xy(s)
    assert x == pytest.approx(0.5, abs=1e-15)
    assert y == pytest.approx(0.0, abs=1e-15)


def test_expectation_y_vanishes_for_real_diagonal_unitary():
    u = np.diag([1.0, -1.0, 1.0, -1.0]).astype(complex)
    s = d.Dqc1State(0.8, u)
    assert d.expectation_xy(s)[1] == 0.0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_expectation_xy_matches_operator_average(n):
    u = d.build_un(d.canonical_blocks(), n)
    eye = np.eye(2**n)
    for alpha in (0.0, 0.25, 0.5, 1.0):
        s = d.Dqc1State(alpha, u)
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
    s = d.Dqc1State(1.0, (1 + 4e-13) * np.eye(4))
    assert d.expectation_xy(s)[0] > 1.0
    est = d.sample_trace_estimate(s, 1000, seed=5)
    assert est.sampled_re == 1.0


def test_sampling_rejects_zero_shots():
    with pytest.raises(ValueError, match="shots"):
        d.sample_trace_estimate(d.rho3(0.5), 0, seed=1)
