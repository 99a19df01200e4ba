import tracemalloc

import numpy as np
import pytest
from conftest import (
    GRID_ORDER,
    POINT_ORDER,
    conditional_entropy,
    measurement_projectors,
    oracle_entropy_grid,
    random_density_matrix,
    random_product_state,
    random_unitary,
)

import dqc1lab as d
from dqc1lab import _kernels
from dqc1lab.correlations import (
    DEFAULT_GRID,
    REFINE_TOL,
    _grid_start_cells,
    _measured_qubit_blocks,
    _refine,
)
from dqc1lab.linalg import PAULI_X

ALPHAS = np.linspace(0.0, 1.0, 101)


def binary_entropy_terms(w):
    w = np.asarray(w, dtype=float)
    w = w[w > 1e-15]
    return float(-(w * np.log2(w)).sum())


def rho3_entropy_oracle(alpha):
    # spectral oracle: the coupling operator has eigenvalues +-1, four each
    return binary_entropy_terms([(1 + alpha) / 8] * 4 + [(1 - alpha) / 8] * 4)


def clean_qubit_mi_oracle(alpha):
    s_clean = binary_entropy_terms([0.5 + alpha / 4, 0.5 - alpha / 4])
    return s_clean + 2.0 - rho3_entropy_oracle(alpha)


# --------------------------------------------------------------------------
# negativity family
# --------------------------------------------------------------------------

def test_negativity_of_product_states_is_zero():
    rng = np.random.default_rng(31)
    for _ in range(10):
        rho = random_product_state(rng, 3)
        for cut in ((0,), (1,), (0, 2)):
            assert d.negativity(rho, cut) < 1e-12


def test_negativity_of_rho3_peak_and_ppt_point():
    assert d.negativity(d.rho3(1.0).state, d.RHO3_ENTANGLING_CUT) == pytest.approx(
        0.25, abs=1e-12)
    assert d.negativity(d.rho3(0.5).state, d.RHO3_ENTANGLING_CUT) < 1e-12


def test_multiplicative_negativity_examples():
    assert d.multiplicative_negativity(
        d.maximally_mixed(2), (0,)) == pytest.approx(1.0, abs=1e-12)
    assert d.multiplicative_negativity(
        d.rho3(1.0).state, d.RHO3_ENTANGLING_CUT) == pytest.approx(1.25, abs=1e-12)
    assert d.multiplicative_negativity(
        d.rho3(0.75).state, d.RHO3_ENTANGLING_CUT) == pytest.approx(1.125, abs=1e-12)


def test_multiplicative_negativity_closed_form_grid():
    for cut in ((1,), (2,)):
        for a in ALPHAS:
            got = d.multiplicative_negativity(d.rho3(a).state, cut)
            assert abs(got - max(1.0, (2 * a + 3) / 4)) < 1e-9


def test_pt_spectrum_closed_form_grid():
    for a in ALPHAS:
        spectrum = np.sort(d.hermitian_eigenvalues(
            d.partial_transpose(d.rho3(a).state, d.RHO3_ENTANGLING_CUT)))
        expected = np.sort([(1 + 2 * a) / 8] + [1 / 8] * 6 + [(1 - 2 * a) / 8])
        assert np.abs(spectrum - expected).max() < 1e-10


def test_negativity_zero_iff_ppt():
    rng = np.random.default_rng(32)
    states = [random_density_matrix(rng, 2) for _ in range(50)]
    states += [random_product_state(rng, 2) for _ in range(20)]
    states += [d.rho3(a).state for a in (0.2, 0.4, 0.6, 0.8, 1.0)]
    for rho in states:
        for cut in [(q,) for q in range(rho.num_qubits)]:
            n = d.negativity(rho, cut)
            assert n >= 0
            ppt = d.hermitian_eigenvalues(d.partial_transpose(rho, cut)).min() >= -1e-10
            assert (n < 1e-9) == ppt


# --------------------------------------------------------------------------
# mutual information
# --------------------------------------------------------------------------

def test_mutual_information_of_product_state():
    rng = np.random.default_rng(33)
    rho = random_product_state(rng, 2)
    assert abs(d.mutual_information(rho, (0,))) < 1e-10


def test_mutual_information_of_maximally_entangled_pair():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    rho = d.DensityMatrix(np.outer(v, v.conj()))
    assert d.mutual_information(rho, (0,)) == pytest.approx(2.0, abs=1e-12)


def test_mutual_information_of_rho3_matches_spectral_oracle():
    for a in (0.1, 0.5, 0.9, 1.0):
        got = d.mutual_information(d.rho3(a).state, (0,))
        assert got == pytest.approx(clean_qubit_mi_oracle(a), abs=1e-12)


def test_mutual_information_complement_symmetry():
    rng = np.random.default_rng(34)
    for _ in range(10):
        rho = random_density_matrix(rng, 3)
        assert d.mutual_information(rho, (0,)) == pytest.approx(
            d.mutual_information(rho, (1, 2)), abs=1e-12)


# --------------------------------------------------------------------------
# conditional entropy
# --------------------------------------------------------------------------

def test_conditional_entropy_of_product_state():
    rng = np.random.default_rng(35)
    a = random_density_matrix(rng, 1)
    rest = random_density_matrix(rng, 2)
    joint = d.DensityMatrix(np.kron(a.matrix, rest.matrix))
    s_rest = d.von_neumann_entropy(rest)
    for theta, phi in ((0.0, 0.0), (np.pi / 2, 0.3), (1.1, 4.0)):
        got = conditional_entropy(joint, 0, d.MeasurementBasis(theta, phi))
        assert got == pytest.approx(s_rest, abs=1e-10)


def test_conditional_entropy_of_classical_mixture_in_z_basis():
    rng = np.random.default_rng(36)
    rest = random_density_matrix(rng, 1)
    p = 0.3
    joint = d.DensityMatrix(
        np.kron(np.diag([p, 1 - p]).astype(complex), rest.matrix))
    got = conditional_entropy(joint, 0, d.MeasurementBasis(0.0, 0.0))
    assert got == pytest.approx(d.von_neumann_entropy(rest), abs=1e-12)


def test_conditional_entropy_rho3_z_basis():
    # both Z outcomes leave the register maximally mixed: 2 bits each
    got = conditional_entropy(d.rho3(1.0).state, 0, d.MeasurementBasis(0.0, 0.0))
    assert got == pytest.approx(2.0, abs=1e-12)


def test_conditional_entropy_skips_zero_probability_outcome():
    rng = np.random.default_rng(37)
    rest = random_density_matrix(rng, 1)
    joint = d.DensityMatrix(
        np.kron(np.diag([0.0, 1.0]).astype(complex), rest.matrix))
    got = conditional_entropy(joint, 0, d.MeasurementBasis(0.0, 0.0))
    assert got == pytest.approx(d.von_neumann_entropy(rest), abs=1e-12)


def test_grid_kernel_agrees_with_projector_route():
    rng = np.random.default_rng(38)
    for _ in range(5):
        rho = random_density_matrix(rng, 3)
        for q in (0, 1, 2):
            blocks = _measured_qubit_blocks(rho, q)
            thetas = rng.uniform(0, np.pi, 8)
            phis = rng.uniform(0, 2 * np.pi, 8)
            grid_vals = _kernels.conditional_entropy_grid(blocks, thetas, phis)
            for t, p, g in zip(thetas, phis, grid_vals):
                full = conditional_entropy(rho, q, d.MeasurementBasis(t, p))
                assert abs(full - g) < 1e-11


LOCKSTEP_CASES = [(a, q) for a in (0.1, 0.5, 0.9) for q in (0, 1, 2)]
SWEEP_ALPHAS = np.linspace(0.0, 1.0, 21)


# sizes around the kernel's 512-point slices: one short, exact, one over,
# two slices and one point over, and the full 64x128 grid
SLICE_SIZES = [511, 512, 513, 1025, 8192]


@pytest.mark.parametrize("g", [1, 2, 5, *SLICE_SIZES])
def test_grid_order_matches_einsum_oracle_bitwise(g):
    rng = np.random.default_rng(49)
    states = [d.rho3(0.5).state] + [random_density_matrix(rng, n) for n in (2, 3, 4)]
    if g == 64 * 128:
        thetas, phis = full_grid((64, 128))  # poles included
    else:
        thetas, phis = rng.uniform(0, np.pi, g), rng.uniform(0, 2 * np.pi, g)
    for rho in states:
        for q in range(rho.num_qubits):
            blocks = _measured_qubit_blocks(rho, q)
            got = _kernels.conditional_entropy_grid(blocks, thetas, phis)
            assert np.array_equal(got, oracle_entropy_grid(blocks, thetas, phis, GRID_ORDER))


@pytest.mark.parametrize("g", [1, 5, 25])
def test_point_order_matches_einsum_oracle_bitwise(g):
    rng = np.random.default_rng(50)
    for q in (0, 1, 2):
        for _ in range(4):
            blocks = np.stack([_measured_qubit_blocks(d.rho3(a).state, q)
                               for a in rng.choice(SWEEP_ALPHAS, g)])
            thetas, phis = rng.uniform(0, np.pi, g), rng.uniform(0, 2 * np.pi, g)
            got = _kernels.conditional_entropy_grid(blocks, thetas, phis)
            assert np.array_equal(got, oracle_entropy_grid(blocks, thetas, phis, POINT_ORDER))


def point_order_pools():
    """Stacks of one qubit's blocks to draw per-point states from: rho3 on
    SWEEP_ALPHAS for each qubit, and 4 seeded random complex states of
    2, 3 and 4 qubits on their first and last qubit."""
    rng = np.random.default_rng(53)
    pools = [np.stack([_measured_qubit_blocks(d.rho3(a).state, q) for a in SWEEP_ALPHAS])
             for q in (0, 1, 2)]
    for n in (2, 3, 4):
        states = [random_density_matrix(rng, n) for _ in range(4)]
        pools += [np.stack([_measured_qubit_blocks(rho, q) for rho in states])
                  for q in (0, n - 1)]
    return pools


@pytest.mark.parametrize("g", SLICE_SIZES)
def test_point_order_matches_einsum_oracle_bitwise_across_slices(g):
    rng = np.random.default_rng(54)
    for pool in point_order_pools():
        blocks = pool[rng.integers(len(pool), size=g)]
        thetas, phis = rng.uniform(0, np.pi, g), rng.uniform(0, 2 * np.pi, g)
        got = _kernels.conditional_entropy_grid(blocks, thetas, phis)
        assert np.array_equal(got, oracle_entropy_grid(blocks, thetas, phis, POINT_ORDER))


def full_grid(grid):
    """(thetas, phis) of every cell of the grid classical_correlation evaluates."""
    n_theta, n_phi = grid
    tg, pg = np.meshgrid(np.linspace(0.0, np.pi, n_theta),
                         np.linspace(0.0, 2 * np.pi, n_phi, endpoint=False),
                         indexing="ij")
    return tg.ravel(), pg.ravel()


def grid_start_cells(blocks):
    """The 5 best grid cells and the grid steps, as classical_correlation seeds them."""
    n_theta, n_phi = 64, 128
    thetas, phis = full_grid((n_theta, n_phi))
    values = oracle_entropy_grid(blocks, thetas, phis, GRID_ORDER)
    order = np.argsort(values, kind="stable")[:5]
    return thetas[order], phis[order], np.pi / (n_theta - 1), 2 * np.pi / n_phi


def sequential_refine(blocks, theta, phi, step_theta, step_phi, tol):
    """Reference descent of one candidate, one oracle call per probe.

    Returns ((value, theta, phi), number of kernel calls).
    """
    calls = 0

    def evaluate(t, p):
        nonlocal calls
        calls += 1
        t = min(max(t, 0.0), np.pi)
        p = p % (2 * np.pi)
        val = oracle_entropy_grid(blocks, np.array([t]), np.array([p]), POINT_ORDER)[0]
        return val, t, p

    best, theta, phi = evaluate(theta, phi)
    st, sp = step_theta, step_phi
    while st > 1e-10 or sp > 1e-10:
        improved = False
        for dt, dp in ((st, 0.0), (-st, 0.0), (0.0, sp), (0.0, -sp)):
            val, t, p = evaluate(theta + dt, phi + dp)
            if val < best - tol * 1e-3:
                best, theta, phi = val, t, p
                improved = True
        if not improved:
            st /= 2
            sp /= 2
    return (best, theta, phi), calls


def tie_break(candidates, tol):
    best = min(c[0] for c in candidates)
    return sorted((t, p) for val, t, p in candidates if val <= best + tol)[0]


def sequential_classical_correlation(rho, qubit):
    """Reference classical correlation: oracle grid, then each start cell alone.

    Returns (value, (theta, phi)).
    """
    blocks = _measured_qubit_blocks(rho, qubit)
    thetas, phis, st, sp = grid_start_cells(blocks)
    candidates = [sequential_refine(blocks, t, p, st, sp, REFINE_TOL)[0]
                  for t, p in zip(thetas, phis)]
    rest = tuple(q for q in range(rho.num_qubits) if q != qubit)
    s_rest = d.von_neumann_entropy(d.partial_trace(rho, rest))
    return s_rest - min(c[0] for c in candidates), tie_break(candidates, REFINE_TOL)


@pytest.mark.parametrize("alpha,qubit", LOCKSTEP_CASES)
def test_point_path_is_batch_invariant(alpha, qubit):
    # lock-step refinement evaluates the probes of every state of a sweep
    # in one call, so each probe's value must not depend on what else is
    # in the batch, other states included
    rng = np.random.default_rng(47)
    alphas = [alpha, *rng.choice(SWEEP_ALPHAS, 4)]
    blocks = np.repeat(np.stack([_measured_qubit_blocks(d.rho3(a).state, qubit)
                                 for a in alphas]), 5, axis=0)
    thetas = rng.uniform(0, np.pi, 25)
    phis = rng.uniform(0, 2 * np.pi, 25)
    batch = _kernels.conditional_entropy_grid(blocks, thetas, phis)
    alone = [_kernels.conditional_entropy_grid(blocks[i:i + 1], thetas[i:i + 1],
                                               phis[i:i + 1])[0]
             for i in range(25)]
    assert np.array_equal(batch, alone)


@pytest.mark.parametrize("alpha,qubit", LOCKSTEP_CASES)
def test_lockstep_refine_reproduces_sequential_descent_bitwise(alpha, qubit):
    blocks = _measured_qubit_blocks(d.rho3(alpha).state, qubit)
    thetas, phis, st, sp = grid_start_cells(blocks)
    got = _refine(np.repeat(blocks[None], 5, axis=0), thetas, phis, st, sp)
    want = [sequential_refine(blocks, t, p, st, sp, REFINE_TOL)[0]
            for t, p in zip(thetas, phis)]
    assert got == want


# start points on the edges theta = 0, theta = pi, phi = 0 and phi just
# below 2*pi, where probes leave the box and are clipped or wrapped back
EDGE_STARTS = [(0.0, 1.0), (np.pi, 4.0), (1.0, 0.0), (2.0, np.nextafter(2 * np.pi, 0)),
               (0.0, 0.0), (np.pi, np.nextafter(2 * np.pi, 0))]


@pytest.mark.parametrize("n,step_theta,step_phi", [
    (2, np.pi / 63, 2 * np.pi / 128), (3, np.pi / 63, 2 * np.pi / 128),
    (2, 0.4, 1e-11), (3, 1e-11, 0.7)],
    ids=["2q-grid-steps", "3q-grid-steps", "2q-tiny-phi-step", "3q-tiny-theta-step"])
def test_lockstep_refine_reproduces_sequential_descent_at_the_clamp_edges(
        n, step_theta, step_phi):
    rng = np.random.default_rng(59 + n)
    states = [_measured_qubit_blocks(random_density_matrix(rng, n), q)
              for _ in range(2) for q in (0, n - 1)]
    blocks = np.stack([b for b in states for _ in EDGE_STARTS])
    thetas, phis = np.array(EDGE_STARTS * len(states)).T
    got = _refine(blocks, thetas, phis, step_theta, step_phi)
    runs = [sequential_refine(b, t, p, step_theta, step_phi, REFINE_TOL)
            for b, t, p in zip(blocks, thetas, phis)]
    assert len({calls for _, calls in runs}) > 1  # rows finish in different rounds
    assert got == [result for result, _ in runs]


@pytest.mark.parametrize("qubit", [0, 1])
def test_classical_correlation_batch_reproduces_sequential_oracle_bitwise(qubit):
    states = [d.rho3(a).state for a in SWEEP_ALPHAS]
    got = d.classical_correlation(states, qubit)
    want = [sequential_classical_correlation(rho, qubit) for rho in states]
    assert [(value, (basis.theta, basis.phi)) for value, basis in got] == want


def test_lockstep_refine_matches_sequential_descent_on_random_states():
    rng = np.random.default_rng(48)
    for n in (2, 3, 4):
        states = [random_density_matrix(rng, n) for _ in range(2)]
        for q in range(n):
            got = d.classical_correlation(states, q)
            for rho, (value, basis) in zip(states, got):
                want_value, want_basis = sequential_classical_correlation(rho, q)
                assert abs(value - want_value) < 1e-12
                assert (basis.theta, basis.phi) == want_basis


def test_classical_correlation_makes_one_kernel_call_per_lockstep_step(monkeypatch):
    states = [d.rho3(a).state for a in (0.5, 0.1, 0.9)]
    longest = []
    for rho in states:
        blocks = _measured_qubit_blocks(rho, 1)
        thetas, phis, st, sp = grid_start_cells(blocks)
        longest.append(max(sequential_refine(blocks, t, p, st, sp, REFINE_TOL)[1]
                           for t, p in zip(thetas, phis)))
    calls = []
    kernel = _kernels.conditional_entropy_grid

    def counting(*args, **kwargs):
        calls.append(len(args[1]))
        return kernel(*args, **kwargs)

    monkeypatch.setattr(_kernels, "conditional_entropy_grid", counting)
    # the register-qubit objective of rho3 is constant, so every cell ties:
    # the grid takes the 2080 class representatives of the 64x128 grid,
    # then the 6112 cells they stand for
    grid_calls = [2080, 6112]
    d.classical_correlation(states[:1], 1)
    assert calls[:2] == grid_calls
    assert len(calls) == 2 + longest[0]
    assert max(calls[2:]) == 5

    # several states: their grid calls, then one lock-step for all
    calls.clear()
    d.classical_correlation(states, 1)
    assert calls[:6] == grid_calls * 3
    assert len(calls) == 6 + max(longest)
    assert max(calls[6:]) == 15


def test_classical_correlation_batch_peak_memory_is_one_states_grid():
    # the states' grids run one after another, and nothing of one grid
    # may outlive its call: 5 states peak no higher than one
    states = [d.rho3(a).state for a in (0.1, 0.3, 0.5, 0.7, 0.9)]

    def peak(rhos):
        tracemalloc.start()
        try:
            d.classical_correlation(rhos, 1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(states[:1])
    assert peak(states) <= peak(states[:1]) + 16 * 1024


def test_grid_kernel_peak_memory_does_not_grow_past_one_slice():
    # the points run in 512-point slices, so a full 8192-cell
    # register-qubit grid peaks no higher than one slice plus its
    # 64 KiB result
    blocks = _measured_qubit_blocks(d.rho3(0.5).state, 1)
    thetas, phis = full_grid((64, 128))

    def peak(n):
        t, p = thetas[:n].copy(), phis[:n].copy()
        tracemalloc.start()
        try:
            _kernels.conditional_entropy_grid(blocks, t, p)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(512)
    assert peak(8192) <= peak(512) + 80 * 1024


def test_classical_correlation_rejects_mixed_sizes():
    with pytest.raises(ValueError, match="same number of qubits"):
        d.classical_correlation([d.maximally_mixed(2), d.maximally_mixed(3)], 0)


BATCH_FUNCTIONS = pytest.mark.parametrize(
    "batch", [d.classical_correlation, d.discord], ids=["classical-correlation", "discord"])


@BATCH_FUNCTIONS
def test_batch_functions_read_a_one_shot_iterable_once(batch):
    # the qubit-count check must not use up a generator the loop then reads
    states = [d.rho3(a).state for a in (0.25, 0.5)]
    assert batch((rho for rho in states), 0) == batch(states, 0)


@BATCH_FUNCTIONS
def test_batch_functions_reject_a_bare_state(batch):
    # one state is a batch of one, not a batch
    with pytest.raises(TypeError):
        batch(d.rho3(0.5).state, 0)


# an empty batch fails the batch check before its measured qubit is read
@pytest.mark.parametrize("call", [
    lambda: d.classical_correlation([], 0),
    lambda: d.discord([], 7),
    lambda: d.discord([], 0.5),
], ids=["classical-correlation", "discord-index-7", "discord-index-0.5"])
def test_batch_functions_reject_an_empty_batch(call):
    with pytest.raises(ValueError, match="^a batch takes one or more states, all with "
                                         "the same number of qubits$"):
        call()


def screen_cases():
    """(state, measured qubit) pairs for the start-cell screen: rho3 on the
    alpha grid, a state where every cell ties, and seeded random states
    with real, complex and rank-1 matrices."""
    cases = [(d.rho3(a).state, q) for a in ALPHAS for q in (0, 1)]
    cases.append((d.maximally_mixed(3), 0))
    rng = np.random.default_rng(51)
    for n in (2, 3, 4):
        dim = 2**n
        real = rng.normal(size=(dim, dim))
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        for m in (real @ real.T, random_density_matrix(rng, n).matrix,
                  np.outer(psi, psi.conj())):
            rho = d.DensityMatrix(m / np.trace(m).real)
            cases += [(rho, 0), (rho, n - 1)]
    return cases


SCREEN_CASES = screen_cases()


@pytest.mark.parametrize("grid", [DEFAULT_GRID], ids=lambda grid: "x".join(map(str, grid)))
def test_grid_start_cells_match_full_grid_argsort(grid):
    thetas, phis = full_grid(grid)
    for rho, q in SCREEN_CASES:
        blocks = _measured_qubit_blocks(rho, q)
        values = _kernels.conditional_entropy_grid(blocks, thetas, phis)
        order = np.argsort(values, kind="stable")[:5]
        got = _grid_start_cells(blocks)
        assert np.array_equal(got[0], thetas[order])
        assert np.array_equal(got[1], phis[order])


@pytest.mark.parametrize("size", [1, 2, 3, 8, 511, 512, 513, 2080, 6112])
def test_grid_order_gives_a_cell_the_same_bits_in_any_subset(size):
    # the start-cell screen evaluates gathered subsets of the grid and
    # relies on each cell's value matching the full-grid call bit for bit
    rng = np.random.default_rng(52)
    thetas, phis = full_grid((64, 128))
    states = [(d.rho3(0.5).state, 0), (d.rho3(0.5).state, 1),
              (random_density_matrix(rng, 3), 2)]
    for rho, q in states:
        blocks = _measured_qubit_blocks(rho, q)
        full = _kernels.conditional_entropy_grid(blocks, thetas, phis)
        cells = rng.choice(thetas.size, size, replace=False)
        got = _kernels.conditional_entropy_grid(blocks, thetas[cells], phis[cells])
        assert np.array_equal(got, full[cells])


# --------------------------------------------------------------------------
# classical correlation
# --------------------------------------------------------------------------

def test_classical_correlation_of_product_state():
    rng = np.random.default_rng(40)
    rho = random_product_state(rng, 2)
    value, _ = d.classical_correlation([rho], 0)[0]
    assert abs(value) < 1e-7


def test_classical_correlation_of_classically_correlated_pair():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[3, 3] = 0.5
    rho = d.DensityMatrix(m)
    value, basis = d.classical_correlation([rho], 0)[0]
    assert value == pytest.approx(1.0, abs=1e-7)
    # theta = 0 and theta = pi are both optimal; ties break low
    assert basis.theta == pytest.approx(0.0, abs=1e-7)


def test_classical_correlation_of_rho3_is_positive():
    value, basis = d.classical_correlation([d.rho3(0.5).state], 0)[0]
    assert value > 0.1
    # the X measurement is optimal for the clean qubit
    assert basis.theta == pytest.approx(np.pi / 2, abs=1e-5)
    assert basis.phi == pytest.approx(0.0, abs=1e-5)


def test_classical_correlation_exact_for_clean_qubit():
    # the state is classical on its clean qubit, so the optimizer must
    # recover the full mutual information
    for a in (0.25, 0.5, 1.0):
        rho = d.rho3(a).state
        value, _ = d.classical_correlation([rho], 0)[0]
        assert value == pytest.approx(clean_qubit_mi_oracle(a), abs=1e-9)


# --------------------------------------------------------------------------
# discord
# --------------------------------------------------------------------------

def test_discord_of_product_state_is_zero():
    rng = np.random.default_rng(41)
    rho = random_product_state(rng, 2)
    result = d.discord([rho], 0)[0]
    assert result.discord < 1e-7


def test_discord_result_invariant():
    result = d.discord([d.rho3(0.7).state], 1)[0]
    assert result.discord == pytest.approx(
        result.mutual_information - result.classical_correlation, abs=1e-9)
    assert result.discord >= 0


def test_discord_below_the_clamp_window_raises(monkeypatch):
    # an optimizer that overshoots by 1e-6 on a state of zero discord
    kernel = _kernels.conditional_entropy_grid
    monkeypatch.setattr(_kernels, "conditional_entropy_grid",
                        lambda *args: kernel(*args) - 1e-6)
    with pytest.raises(RuntimeError, match="below the -1e-9 clamp window"):
        d.discord([d.rho3(0.5).state], 0)


def test_rho3_is_classical_on_the_clean_qubit():
    # explicit flag decomposition: the clean-qubit X basis labels an
    # orthogonal pair of register states, so clean-qubit discord is 0
    u2 = d.build_un(d.canonical_blocks(), 2)
    for a in (0.1, 0.25, 0.5, 1.0):
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        minus = np.array([1, -1], dtype=complex) / np.sqrt(2)
        flagged = (np.kron(np.outer(plus, plus.conj()), np.eye(4) + a * u2)
                   + np.kron(np.outer(minus, minus.conj()), np.eye(4) - a * u2)) / 8
        assert np.abs(flagged - d.rho3(a).state.matrix).max() < 1e-15
        result = d.discord([d.rho3(a).state], 0)[0]
        assert result.discord < 1e-9


def test_rho3_register_qubit_discord_matches_constancy_oracle():
    # oracle: for a register qubit the conditional entropy is the same
    # for every measurement direction, so the supremum is exact
    rng = np.random.default_rng(42)
    for a in (0.1, 0.25, 0.5, 1.0):
        rho = d.rho3(a).state
        values = [
            conditional_entropy(rho, 1, d.MeasurementBasis(t, p))
            for t, p in zip(rng.uniform(0, np.pi, 12), rng.uniform(0, 2 * np.pi, 12))
        ]
        assert np.ptp(values) < 1e-10
        cc_oracle = (d.von_neumann_entropy(d.partial_trace(rho, (0, 2)))
                     - values[0])
        discord_oracle = d.mutual_information(rho, (1,)) - cc_oracle
        result = d.discord([rho], 1)[0]
        assert result.classical_correlation == pytest.approx(cc_oracle, abs=1e-7)
        assert result.discord == pytest.approx(discord_oracle, abs=1e-7)
        assert result.discord > 1e-4
        # the two register qubits are interchangeable
        assert d.discord([rho], 2)[0].discord == pytest.approx(result.discord, abs=1e-7)


def test_discord_vanishes_at_zero_polarization():
    assert d.discord([d.rho3(0.0).state], 0)[0].discord < 1e-9
    assert d.discord([d.rho3(0.0).state], 1)[0].discord < 1e-9


def test_discord_zero_for_state_diagonal_in_rotated_product_basis():
    rng = np.random.default_rng(43)
    probs = rng.dirichlet(np.ones(4))
    diag = np.diag(probs).astype(complex)
    u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
    rho = d.DensityMatrix(u @ diag @ u.conj().T)
    assert d.discord([rho], 0)[0].discord < 1e-6
    assert d.discord([rho], 1)[0].discord < 1e-6


def test_discord_invariant_under_unmeasured_local_unitaries():
    rng = np.random.default_rng(44)
    rho = d.rho3(0.5).state
    base = d.discord([rho], 1)[0]
    w = np.kron(random_unitary(rng, 2), np.kron(np.eye(2), random_unitary(rng, 2)))
    rotated = d.DensityMatrix(w @ rho.matrix @ w.conj().T)
    result = d.discord([rotated], 1)[0]
    assert result.discord == pytest.approx(base.discord, abs=1e-6)
    assert result.classical_correlation == pytest.approx(
        base.classical_correlation, abs=1e-6)


def test_discord_invariant_under_measured_qubit_rotation():
    rng = np.random.default_rng(45)
    rho = random_density_matrix(rng, 2)
    base = d.discord([rho], 0)[0]
    w = np.kron(random_unitary(rng, 2), np.eye(2))
    rotated = d.DensityMatrix(w @ rho.matrix @ w.conj().T)
    result = d.discord([rotated], 0)[0]
    assert result.discord == pytest.approx(base.discord, abs=1e-6)


def test_measurement_basis_projectors_complete():
    rng = np.random.default_rng(46)
    for _ in range(20):
        basis = d.MeasurementBasis(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
        b0, b1 = measurement_projectors(basis)
        assert np.abs(b0 + b1 - np.eye(2)).max() < 1e-12
        assert np.abs(b0 @ b1).max() < 1e-12


def test_measurement_basis_validates_angles():
    with pytest.raises(ValueError):
        d.MeasurementBasis(-0.1, 0.0)
    with pytest.raises(ValueError):
        d.MeasurementBasis(0.0, 7.0)
