"""Acceptance battery: one test per criterion, at the stated tolerances.

Criteria 5, 6 and 7 each contain one clause whose published target
cannot be taken by the state it is applied to.  Those clauses assert the
value the defining matrix gives, against an oracle computed here from
that matrix alone, after every attainable sibling clause of the same
criterion.  The published targets stay on record, and failing, in the
reproduction battery (``dqc1-lab reproduce``), whose three discrepant
checks ``tests/test_cli.py`` pins to their derived sizes.  The README
section "Known discrepancies with the published closed forms" derives
each value:

- criterion 5: lambda5 of omega(alpha) is a/(2-a); published 2a/(2-a)
  (discrepancy 1, ``ghz-lambda5-closed-form``);
- criterion 6: the identity strategy activates to 1 + a; published
  (8+3a)/8 (discrepancy 2, ``activation-identity-closed-form``);
- criterion 7: discord measured on the clean qubit is 0, and on a
  register qubit it is [(1+a)log2(1+a) + (1-a)log2(1-a)]/4; published
  > 1e-4 on the clean qubit (discrepancy 3, ``discord-positive-range``).
"""

import itertools
import time

import numpy as np
import pytest
from conftest import (
    GRID_ORDER,
    clean_qubit_discord,
    clean_qubit_objective,
    ensemble_state,
    oracle_partial_trace,
    oracle_partial_transpose,
    pauli_coefficients,
    pauli_product_ensemble,
    oracle_entropy_grid,
    random_density_matrix,
    random_hermitian,
    random_unitary,
)

import dqc1lab as d
from dqc1lab.separability import SINGLE_QUBIT_CUTS

ALPHA_GRID = np.linspace(0.0, 1.0, 101)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
DISCREPANCIES = "README, \"Known discrepancies with the published closed forms\""


def _entropy_bits(m):
    """Von Neumann entropy in bits from eigvalsh, zeros dropped at 1e-12."""
    w = np.linalg.eigvalsh(m)
    w = w[w > 1e-12]
    return float(-(w * np.log2(w)).sum())


class check:
    """Prints one pass/fail line per criterion."""

    def __init__(self, name):
        self.name = name

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.name}: {status} ({elapsed:.2f}s)")
        return False


def test_criterion_1_pt_spectrum_family():
    with check("1 pt-spectrum") as c:
        for a in ALPHA_GRID:
            got = np.sort(d.hermitian_eigenvalues(
                d.partial_transpose(d.rho3(a).state, d.RHO3_ENTANGLING_CUT)))
            expected = np.sort([(1 + 2 * a) / 8] + [1 / 8] * 6 + [(1 - 2 * a) / 8])
            assert np.abs(got - expected).max() <= 1e-10
        assert time.perf_counter() - c.start < 1.0


def test_criterion_2_multiplicative_negativity_closed_form():
    with check("2 mult-negativity") as c:
        for a in ALPHA_GRID:
            got = d.multiplicative_negativity(d.rho3(a).state, d.RHO3_ENTANGLING_CUT)
            assert abs(got - max(1.0, (2 * a + 3) / 4)) <= 1e-9
        assert abs(d.multiplicative_negativity(
            d.rho3(1.0).state, d.RHO3_ENTANGLING_CUT) - 1.25) <= 1e-9
        assert time.perf_counter() - c.start < 1.0


def test_criterion_3_ppt_region():
    with check("3 ppt-region"):
        for a in ALPHA_GRID:
            state = d.rho3(a).state
            all_ppt = all(
                d.hermitian_eigenvalues(d.partial_transpose(state, cut)).min() >= -1e-10
                for cut in SINGLE_QUBIT_CUTS)
            if 0 < a <= 0.5:
                assert all_ppt, f"expected PPT under all cuts at alpha={a}"
            if a > 0.5 + 1e-6:
                assert not all_ppt, f"expected NPT at alpha={a}"


def test_criterion_4_decomposition_identity():
    with check("4 convex-split"):
        for a in ALPHA_GRID:
            split = (1 - a / 2) * d.omega_state(a).matrix + (a / 2) * d.eta_state().matrix
            residual = np.abs(split - d.rho3(a).state.matrix).max()
            assert residual <= 1e-12


def test_criterion_5_ghz_coefficients():
    with check("5 ghz-coefficients"):
        for a in ALPHA_GRID:
            lams = d.ghz_diagonal_coefficients(d.omega_state(a))
            assert abs(lams[5]) <= 1e-12          # YYX
            assert abs(lams[6]) <= 1e-12          # YXY
            assert abs(lams[4] + lams[7]) <= 1e-12  # lambda5 = -lambda8
            assert abs(float(np.prod(lams[4:8]))) <= 1e-12
            if a <= 0.5:
                verdict = d.kay_criterion(d.omega_state(a))
                assert verdict.status is d.Verdict.FULLY_SEPARABLE
        # magnitude clause: XXX is the anti-identity, so lambda5 is the
        # anti-diagonal sum of omega's matrix, 4a/(8-4a) = a/(2-a)
        for a in ALPHA_GRID:
            omega = d.omega_state(a)
            lams = d.ghz_diagonal_coefficients(omega)
            oracle = np.trace(np.fliplr(omega.matrix)).real
            assert abs(lams[4] - oracle) <= 1e-12, (
                f"lambda5 at alpha={a}: computed {lams[4]:.12f} vs the "
                f"anti-diagonal oracle {oracle:.12f}")
            assert abs(lams[4] - a / (2 - a)) <= 1e-12, (
                f"lambda5 at alpha={a}: computed {lams[4]:.12f} vs derived "
                f"a/(2-a) = {a / (2 - a):.12f}; the published 2a/(2-a) = "
                f"{2 * a / (2 - a):.12f} is recorded as discrepancy 1 in "
                f"the {DISCREPANCIES}")


def test_criterion_6_activation():
    with check("6 activation") as c:
        # attainable clause: every adversary leaves distillable
        # entanglement for positive polarization
        results = d.activation_sweep([0.1, 0.5, 1.0], strategies=26, seed=2024)
        assert len(results) == 78
        for r in results:
            assert r.multiplicative_negativity > 1 + 1e-6
        elapsed_guard = time.perf_counter() - c.start
        assert elapsed_guard < 30.0
        # identity-strategy value: after the CNOT copies the partial
        # transpose over the ancillas splits into 1x1 blocks rho_ii and
        # 2x2 blocks [[0, rho_ij], [rho_ji, 0]], so its trace norm is 1
        # plus the off-diagonal l1 mass: eight couplings a/8 give 1 + a
        for a in np.linspace(0.0, 1.0, 11):
            m = d.rho3(a).state.matrix
            got = d.activate(d.rho3(a).state,
                             d.AdversaryStrategy.identity()).multiplicative_negativity
            oracle = 1 + (np.abs(m).sum() - np.abs(np.diag(m)).sum())
            assert abs(got - oracle) <= 1e-9, (
                f"identity activation at alpha={a}: computed {got:.12f} vs "
                f"the off-diagonal l1 oracle {oracle:.12f}")
            assert abs(got - (1 + a)) <= 1e-9, (
                f"identity activation at alpha={a}: computed {got:.12f} vs "
                f"derived 1 + a = {1 + a:.12f}; the published (8+3a)/8 = "
                f"{(8 + 3 * a) / 8:.12f} is recorded as discrepancy 2 in "
                f"the {DISCREPANCIES}")


def test_criterion_7_discord_positivity():
    with check("7 discord") as c:
        assert d.discord([d.rho3(0.0).state], 0)[0].discord < 1e-9
        elapsed_guard = time.perf_counter() - c.start
        assert elapsed_guard < 60.0
        # the register unitary is Hermitian, so the state is classical on
        # the clean qubit: its X basis recovers the whole mutual
        # information, and the positivity sits on the register side
        for a in (0.1, 0.25, 0.5):
            m = d.rho3(a).state.matrix
            value = d.discord([d.rho3(a).state], 0)[0].discord
            assert value <= 1e-9, (
                f"clean-qubit discord at alpha={a}: {value:.3e} is an upper "
                f"bound (classical_correlation is a lower bound) and is not "
                f"<= 1e-9; the published clean-qubit positivity (> 1e-4) is "
                f"recorded as discrepancy 3 in the {DISCREPANCIES}")
            s_reg = _entropy_bits(oracle_partial_trace(m, 3, (1, 2)))
            mutual = (_entropy_bits(oracle_partial_trace(m, 3, (0,)))
                      + s_reg - _entropy_bits(m))
            conditional = 0.0
            for sign in (1, -1):
                branch = (m[:4, :4] + sign * (m[:4, 4:] + m[4:, :4])
                          + m[4:, 4:]) / 2  # <+-| rho |+-> on the clean qubit
                p = np.trace(branch).real
                conditional += p * _entropy_bits(branch / p)
            j_x = s_reg - conditional
            assert abs(j_x - mutual) <= 1e-12, (
                f"X-basis oracle at alpha={a}: J_X = {j_x:.15f} vs "
                f"I(A:B) = {mutual:.15f}")
            register_value = d.discord([d.rho3(a).state], 1)[0].discord
            closed = ((1 + a) * np.log2(1 + a) + (1 - a) * np.log2(1 - a)) / 4
            assert register_value > 1e-4, (
                f"register-qubit discord at alpha={a}: {register_value:.3e} "
                f"is not > 1e-4")
            assert abs(register_value - closed) <= 1e-9, (
                f"register-qubit discord at alpha={a}: computed "
                f"{register_value:.12f} vs derived "
                f"[(1+a)log2(1+a) + (1-a)log2(1-a)]/4 = {closed:.12f}")


def test_dissonance_of_rho3_is_pinned_between_two_bounds():
    # dissonance, the quantity in the paper's title, is the relative
    # entropy to the nearest fully classical state (Modi, Paterek, Son,
    # Vedral & Williamson, PRL 104, 080501, 2010): the minimum over
    # product bases of S(Pi(rho)) - S(rho), where Pi dephases each qubit
    # in its own basis.  Upper bound: one product basis, X on the clean
    # qubit and Z on both register qubits.  Lower bound: dissonance is at
    # least the one-way deficit on qubit 1, which is at least the discord
    # measured on qubit 1 (Horodecki et al., PRA 71, 062307, 2005); that
    # discord is exactly [(1+a)log2(1+a) + (1-a)log2(1-a)]/4, as
    # tests/test_symbolic.py proves.  The upper bound meets the lower one
    xzz = np.kron(HADAMARD, np.eye(4))  # columns: the product basis

    def upper(a):
        m = d.rho3(a).state.matrix
        dephased = np.diag(np.diag(xzz.conj().T @ m @ xzz))
        return _entropy_bits(dephased) - _entropy_bits(m)

    with check("dissonance-bounds"):
        for a in ALPHA_GRID:
            value = upper(a)
            lower = sum(x * np.log2(x) for x in (1 + a, 1 - a) if x > 0) / 4
            assert abs(value - lower) <= 1e-12, (
                f"XZZ dephasing at alpha={a}: {value:.15f} vs "
                f"[(1+a)log2(1+a) + (1-a)log2(1-a)]/4 = {lower:.15f}")
        # the abstract's claim: dissonance in a fully separable state
        for a in (0.1, 0.25, 0.5):
            value = upper(a)
            assert value > 1e-4, f"dissonance at alpha={a}: {value:.3e}"
            verdict = d.full_separability_verdict(a).status
            assert verdict is d.Verdict.FULLY_SEPARABLE, (a, verdict)


def test_separable_iff_alpha_at_most_half_at_every_register_size():
    # U_n = (I..I + X..X - Y X..X Y - Z I..I Z)/2 exactly, so the output
    # (I + a X(x)U_n)/D has four Pauli terms of weight a/2, Pauli l1 norm
    # 2a: for a <= 1/2 it is a mixture of product vectors with weights
    # >= 0, so fully separable, and for a > 1/2 its partial transpose on
    # the clean and the first register qubit has a negative eigenvalue
    with check("separable-iff-half"):
        for n in range(2, 6):
            u = d.build_un(d.canonical_blocks(), n)
            expansion = {q: c for q, c in pauli_coefficients(u).items() if c != 0}
            assert expansion == {"I" * n: 0.5, "X" * n: 0.5,
                                 "Y" + "X" * (n - 2) + "Y": -0.5,
                                 "Z" + "I" * (n - 2) + "Z": -0.5}
            for a in ALPHA_GRID:
                rho = d.Dqc1State(a, u).state.matrix
                if a <= 0.5:
                    ensemble = pauli_product_ensemble(
                        {"X" + q: a * c.real for q, c in expansion.items()})
                    assert all(weight >= 0 for weight, _ in ensemble), (n, a)
                    residual = np.abs(ensemble_state(ensemble) - rho).max()
                    assert residual <= 1e-12, (
                        f"product ensemble at n={n}, alpha={a} misses the "
                        f"state by {residual:.3e}")
                else:
                    pt_min = np.linalg.eigvalsh(d.partial_transpose_matrix(rho, (0, 1))).min()
                    assert abs(pt_min - (1 - 2 * a) / 2 ** (n + 1)) <= 1e-12, (
                        f"smallest partial-transpose eigenvalue at n={n}, "
                        f"alpha={a}: {pt_min:.15f}")


def test_register_adds_only_classical_flags():
    # U_n puts only I or X on the n - 2 middle register qubits, so on their
    # X eigenstates |x~> it acts as U_2 with the XX and YY terms signed by
    # the parity s(x), and Z on r1 flips exactly those two signs:
    # rho_n(a) = sum_x 2^-(n-2) |x~><x~| (x) Z_r1^s(x) rho3(a) Z_r1^s(x),
    # one three-qubit state copied under orthogonal classical flags
    x_eigenvectors = np.array([[1, 1], [1, -1]]) / np.sqrt(2)  # columns |+>, |->
    z_r1 = np.kron(np.kron(np.eye(2), np.diag([1, -1])), np.eye(2))
    with check("register-flag-reduction"):
        for n in range(3, 6):
            m = n - 2
            u = d.build_un(d.canonical_blocks(), n)
            # (middle..., clean, r1, r_last) to package order (clean, r1, middle..., r_last)
            order = [m, m + 1, *range(m), m + 2]
            order += [n + 1 + k for k in order]
            for a in ALPHA_GRID:
                rho3 = d.rho3(a).state.matrix
                flagged = (rho3, z_r1 @ rho3 @ z_r1)
                mixture = np.zeros((2 ** (n + 1),) * 2, dtype=complex)
                for x in itertools.product((0, 1), repeat=m):
                    ket = np.array([1.0])
                    for bit in x:
                        ket = np.kron(ket, x_eigenvectors[:, bit])
                    term = np.kron(np.outer(ket, ket) / 2**m, flagged[sum(x) % 2])
                    mixture += term.reshape((2,) * (2 * n + 2)).transpose(order).reshape(
                        mixture.shape)
                residual = np.abs(mixture - d.Dqc1State(a, u).state.matrix).max()
                assert residual <= 1e-15, (
                    f"flagged rho3 misses the output at n={n}, alpha={a} by {residual:.3e}")


@pytest.mark.parametrize("n", [3, 4])
def test_register_negativity_is_rho3s_at_the_induced_cut(n):
    # the flags are orthogonal and classical, so across any bipartition the
    # partial transpose of rho_n(a) is a flagged mixture of rho3(a)'s at the
    # cut induced on (clean, r1, r_last), with the same trace norm; the
    # oracle transposes rho3's matrix by index arithmetic
    u = d.build_un(d.canonical_blocks(), n)
    induced = {0: 0, 1: 1, n: 2}  # package qubit of rho_n -> qubit of rho3
    with check("register-flag-negativity"):
        for a in (0.1, 0.5, 0.75, 1.0):
            state = d.Dqc1State(a, u).state
            m = d.rho3(a).state.matrix
            values = []
            for size in range(1, n + 1):
                for cut in itertools.combinations(range(n + 1), size):
                    pt = oracle_partial_transpose(m, 3, [induced[q] for q in cut if q in induced])
                    oracle = np.abs(np.linalg.eigvalsh(pt)).sum()
                    values.append(d.multiplicative_negativity(state, cut))
                    assert abs(values[-1] - oracle) <= 1e-14, (
                        f"cut {cut} at n={n}, alpha={a}: {values[-1]:.17f} vs rho3's "
                        f"{oracle:.17f}")
            assert abs(max(values) - max(1.0, (2 * a + 3) / 4)) <= 1e-14, a


@pytest.mark.parametrize("n", [3, 4])
def test_register_discord_is_rho3s(n):
    # measured on r1 or r_last, the flagged copies of rho3 keep its register
    # discord h(a)/4; the middle qubits carry only the flags, diagonal in
    # their X basis, and the clean qubit stays classical, so they read 0
    u = d.build_un(d.canonical_blocks(), n)
    alphas = (0.1, 0.5, 1.0)
    states = [d.Dqc1State(a, u).state for a in alphas]
    with check("register-flag-discord"):
        for q in range(n + 1):
            for a, result in zip(alphas, d.discord(states, q)):
                h = sum(x * np.log2(x) for x in (1 + a, 1 - a) if x > 0)
                expected = h / 4 if q in (1, n) else 0.0
                assert abs(result.discord - expected) <= 1e-9, (
                    f"discord on qubit {q} at n={n}, alpha={a}: {result.discord:.3e} "
                    f"vs {expected:.12f}")


def test_clean_qubit_discord_matches_the_eigenphase_oracle():
    # measured on the clean qubit, the discord of any DQC1 output is a
    # function of alpha and U's eigenphases alone (ROADMAP item 20).  The
    # optimizer's classical correlation is a lower bound, so its discord sits
    # on or above the oracle's: by at most 7.3e-11 for these seeds, inside
    # the 1e-10 acceptance threshold of its refinement (REFINE_TOL * 1e-3)
    alphas = (0.1, 0.25, 0.5, 1.0)
    with check("clean-qubit-spectral"):
        for n in range(2, 6):
            u = random_unitary(np.random.default_rng(0), 2**n)
            results = d.discord([d.Dqc1State(a, u).state for a in alphas], 0)
            for a, result in zip(alphas, results):
                oracle = clean_qubit_discord(u, a)
                assert -1e-12 <= result.discord - oracle <= 1e-10, (
                    f"n={n}, alpha={a}: optimizer {result.discord:.15f} vs "
                    f"eigenphase oracle {oracle:.15f}")
                assert oracle > 1e-3
        # the canonical U is Hermitian, so its phases are 0 and pi: zero discord,
        # and a global phase e^{i phi} only turns the measurement that finds it
        canonical = d.build_un(d.canonical_blocks(), 2)
        for a in alphas:
            assert abs(clean_qubit_discord(canonical, a)) <= 1e-12
        for n in (2, 3):
            cases = [(np.exp(1j * phi) * d.build_un(d.canonical_blocks(), n), a)
                     for phi in (0.3, 1.1, 2.5) for a in (0.5, 1.0)]
            results = d.discord([d.Dqc1State(a, u).state for u, a in cases], 0)
            for (u, a), result in zip(cases, results, strict=True):
                assert abs(clean_qubit_discord(u, a)) <= 1e-12, (n, a)
                assert abs(result.discord) <= 1e-9, (n, a, result.discord)


def test_clean_qubit_discord_grows_towards_the_large_register_value():
    # at alpha = 1 a Haar U's clean-qubit discord climbs from 0.39 at n = 2
    # towards 2 - 1/ln 2, the large-n value of Datta, Shaji & Caves (PRL 100,
    # 050502, 2008); seed 0 reads 0.3907, 0.4772, 0.5230, 0.5320, 0.5421,
    # 0.5557, 0.5540 at n = 2..8.  No source here bounds it from above
    large_n = 2 - 1 / np.log(2)
    for n in range(2, 9):
        value = clean_qubit_discord(random_unitary(np.random.default_rng(0), 2**n), 1.0)
        assert value > 0.38, (n, value)
        if n >= 6:
            assert abs(value - large_n) <= 0.02, (n, value)


def test_clean_qubit_measurement_is_best_on_the_equator():
    # the oracle searches theta = pi/2 only; on a 61 x 120 grid at n = 2 the
    # eigenphase objective equals the brute-force one at every cell, and its
    # smallest value lies on the equator, row 30
    u = random_unitary(np.random.default_rng(0), 4)
    phases = np.angle(np.linalg.eigvals(u))
    thetas, phis = np.meshgrid(np.linspace(0.0, np.pi, 61),
                               np.linspace(0.0, 2 * np.pi, 120, endpoint=False), indexing="ij")
    for a in (0.1, 0.25, 0.5, 1.0):
        blocks = d.Dqc1State(a, u).state.matrix.reshape(2, 4, 2, 4).transpose(0, 2, 1, 3)
        brute = oracle_entropy_grid(blocks, thetas.ravel(), phis.ravel(), GRID_ORDER)
        spectral = clean_qubit_objective(phases, a, thetas, phis)
        assert np.abs(brute.reshape(thetas.shape) - spectral).max() <= 1e-12
        assert spectral.min() < np.delete(spectral, 30, axis=0).min()


def test_discrepancy_3_correlation_gram_rank():
    # rho = 1/2 sum_mu sigma_mu (x) R_mu on the measured qubit q, with
    # R_mu = tr_q[(sigma_mu (x) I) rho]; the state is classical on q, so
    # its discord is zero, iff R_x, R_y, R_z span at most one dimension,
    # that is iff the Gram matrix G_ij = Re tr(R_i R_j) has rank <= 1
    paulis = [np.array([[0, 1], [1, 0]], dtype=complex),
              np.array([[0, -1j], [1j, 0]]),
              np.array([[1, 0], [0, -1]], dtype=complex)]
    eye = np.eye(2)
    for a in (0.1, 0.25, 0.5, 1.0):
        m = d.rho3(a).state.matrix
        grams = []
        for q in range(3):
            rest = [k for k in range(3) if k != q]
            rs = []
            for sigma in paulis:
                factors = [sigma if k == q else eye for k in range(3)]
                op = np.kron(np.kron(factors[0], factors[1]), factors[2])
                rs.append(oracle_partial_trace(op @ m, 3, rest))
            grams.append(np.array([[np.trace(ri @ rj).real for rj in rs] for ri in rs]))
        clean = np.linalg.eigvalsh(grams[0])
        assert np.abs(clean - [0, 0, a**2 / 4]).max() <= 1e-15, (
            f"clean-qubit Gram spectrum at alpha={a}: {clean}; rank 1 is why "
            f"its discord is 0, discrepancy 3 in the {DISCREPANCIES}")
        for q in (1, 2):
            assert np.abs(grams[q] - a**2 / 16 * np.eye(3)).max() <= 1e-15, (
                f"register-qubit {q} Gram matrix at alpha={a}: {grams[q]}")


def test_criterion_8_trace_estimation():
    with check("8 trace-estimation"):
        for n in (2, 3, 4):
            u = d.build_un(d.canonical_blocks(), n)
            eye = np.eye(2**n)
            for a in (0.0, 0.25, 0.5, 0.75, 1.0):
                s = d.Dqc1State(a, u)
                x, y = d.expectation_xy(s)
                bx = np.trace(np.kron(d.linalg.PAULI_X, eye) @ s.state.matrix).real
                by = np.trace(np.kron(d.linalg.PAULI_Y, eye) @ s.state.matrix).real
                assert abs(x - bx) <= 1e-12
                assert abs(y - by) <= 1e-12
        s = d.Dqc1State(1.0, d.build_un(d.canonical_blocks(), 2))
        for seed in (1, 2, 3, 4, 5):
            est = d.sample_trace_estimate(s, 100_000, seed)
            assert abs(est.sampled_re - est.exact_re) <= 6 * est.std_error
            assert abs(est.sampled_im - est.exact_im) <= 6 * est.std_error


def test_criterion_9_property_suites():
    with check("9 property-suites"):
        rng = np.random.default_rng(424242)
        for _ in range(100):
            nq = int(rng.integers(2, 5))
            rho = random_density_matrix(rng, nq)
            size = int(rng.integers(1, nq))
            cut = tuple(sorted(rng.choice(nq, size=size, replace=False)))
            twice = d.partial_transpose_matrix(d.partial_transpose(rho, cut), cut)
            assert np.abs(twice - rho.matrix).max() < 1e-15

        for _ in range(100):
            nq = int(rng.integers(1, 5))
            s = d.von_neumann_entropy(random_density_matrix(rng, nq))
            assert -1e-12 <= s <= nq + 1e-12

        for _ in range(100):
            nq = int(rng.integers(1, 4))
            x = random_density_matrix(rng, nq)
            y = random_density_matrix(rng, nq)
            assert d.relative_entropy(x, y) >= -1e-12

        for _ in range(100):
            h = random_hermitian(rng, int(rng.integers(2, 65)))
            w, v = d.hermitian_eigensystem(h)
            assert np.abs((v * w) @ v.conj().T - h).max() <= 1e-9
