"""Symbolic proofs, for every alpha in [0, 1], of the closed forms behind the
reproduction battery, of its three published failures and of the classical
flags that a third register qubit adds.

Each matrix is built here from its defining entries in exact arithmetic
over a symbol alpha, with its own index rules for the partial transpose and
the partial trace; only the first and the last test touch the package, to
tie these states to the package's and these forms to the closed forms in
``reproduce.QUANTITIES``.  An identity "for every alpha" is checked by
simplifying its difference, with each Abs and Max rewritten piecewise, to 0.
"""

import functools

import numpy as np
import sympy as sp
from sympy.calculus.util import maximum

import dqc1lab as d
from dqc1lab.reproduce import ALPHA_GRID, CLOSED_FORM_TOL, QUANTITIES

a = sp.Symbol("alpha", nonnegative=True)
theta, phi = sp.symbols("theta phi", real=True)
UNIT = sp.Interval(0, 1)

# rho3's only off-diagonal entries, alpha/8 each: (|000>,|111>),
# (|001>,|101>), (|010>,|110>) and (|011>,|100>)
COUPLING_PAIRS = ((0, 7), (1, 5), (2, 6), (3, 4))

PAULI = {"I": sp.eye(2), "X": sp.Matrix([[0, 1], [1, 0]]),
         "Y": sp.Matrix([[0, -sp.I], [sp.I, 0]]), "Z": sp.Matrix([[1, 0], [0, -1]])}


def identical(lhs, rhs) -> bool:
    """lhs == rhs for every alpha >= 0."""
    return sp.simplify(sp.piecewise_fold((lhs - rhs).rewrite(sp.Piecewise))) == 0


def without_cancelled_angles(x):
    """x with its trigonometric terms written as exponentials and expanded,
    so that every dependence on theta and phi that cancels drops out."""
    return sp.expand(sp.expand(x).rewrite(sp.exp))


def entropy_bits(spectrum: dict):
    """-sum m lam log2(lam) over eigenvalue -> multiplicity, with 0 log2 0 = 0."""
    return -sum(m * sp.Piecewise((0, sp.Eq(lam, 0)), (lam * sp.log(lam, 2), True))
                for lam, m in spectrum.items())


def rho3_symbolic() -> sp.Matrix:
    m = sp.eye(8) / 8
    for i, j in COUPLING_PAIRS:
        m[i, j] = m[j, i] = a / 8
    return m


def omega_symbolic() -> sp.Matrix:
    """The GHZ-diagonal part of rho3's split, as ``separability.omega_state`` defines it."""
    m = sp.diag(1, 1 - a, 1 - a, 1, 1, 1 - a, 1 - a, 1)
    for i, j in ((0, 7), (3, 4)):
        m[i, j] = m[j, i] = a
    return m / (8 - 4 * a)


def eta_symbolic() -> sp.Matrix:
    """Even mixture of the product vectors |+>|0>|1> and |+>|1>|0>."""
    plus, zero, one = sp.Matrix([1, 1]) / sp.sqrt(2), sp.Matrix([1, 0]), sp.Matrix([0, 1])
    phi = sp.kronecker_product(plus, zero, one)
    psi = sp.kronecker_product(plus, one, zero)
    return (phi * phi.H + psi * psi.H) / 2


def output_n3_symbolic() -> sp.Matrix:
    """The circuit output [[I, a U^H], [a U, I]]/16 for the canonical three-qubit
    U = [[I (x) a1, X (x) c1], [X (x) d1, I (x) b1]], as ``build_un`` assembles it."""
    a1, b1 = sp.diag(0, 1), sp.diag(1, 0)
    c1, d1 = sp.Matrix([[0, 1], [0, 0]]), sp.Matrix([[0, 0], [1, 0]])
    k = sp.kronecker_product
    u = sp.Matrix(sp.BlockMatrix([[k(PAULI["I"], a1), k(PAULI["X"], c1)],
                                  [k(PAULI["X"], d1), k(PAULI["I"], b1)]]))
    return sp.Matrix(sp.BlockMatrix([[sp.eye(8), a * u.H], [a * u, sp.eye(8)]])) / 16


def flagged_rho3_symbolic() -> sp.Matrix:
    """sum_x 1/2 |x~><x~| (x) Z_r1^x rho3 Z_r1^x over the middle qubit's X
    eigenstates |+>, |->, with the qubits in the package order (clean, r1,
    middle, r_last)."""
    rho = rho3_symbolic()
    z_r1 = sp.kronecker_product(PAULI["I"], PAULI["Z"], PAULI["I"])
    flagged = (rho, z_r1 * rho * z_r1)
    flags = ((PAULI["I"] + PAULI["X"]) / 2, (PAULI["I"] - PAULI["X"]) / 2)

    def entry(i, j):
        i, j = int(i), int(j)
        mid_i, mid_j = (i >> 1) & 1, (j >> 1) & 1
        rest_i, rest_j = (i >> 1) & 6 | i & 1, (j >> 1) & 6 | j & 1
        return sum(flags[x][mid_i, mid_j] * flagged[x][rest_i, rest_j] for x in (0, 1)) / 2

    return sp.Matrix(16, 16, entry)


def partial_transpose(m: sp.Matrix, qubit: int) -> sp.Matrix:
    """Swap one qubit's row and column bits; qubit 0 is the leading bit."""
    bit = 4 >> qubit

    def entry(i, j):
        i, j = int(i), int(j)
        return m[(i & ~bit) | (j & bit), (j & ~bit) | (i & bit)]

    return sp.Matrix(8, 8, entry)


def trace_out(m: sp.Matrix, qubit: int) -> sp.Matrix:
    """Partial trace of an 8x8 matrix over one qubit; qubit 0 is the leading bit."""
    bit = 4 >> qubit

    def drop(i):
        return ((i >> 1) & ~(bit - 1)) | (i & (bit - 1))

    out = sp.zeros(4, 4)
    for i in range(8):
        for j in range(8):
            if not (i ^ j) & bit:
                out[drop(i), drop(j)] += m[i, j]
    return out


@functools.cache
def pt_spectra() -> dict[int, dict]:
    """Eigenvalue -> multiplicity of rho3's partial transpose on each single-qubit cut."""
    rho = rho3_symbolic()
    return {q: partial_transpose(rho, q).eigenvals() for q in range(3)}


#: The spectrum of the state that qubits 0 and 2 are left in after a
#: projective measurement of qubit 1, for either outcome and every direction
REGISTER_CONDITIONAL_SPECTRUM = {sp.Rational(1, 4): 2, (1 + a) / 4: 1, (1 - a) / 4: 1}


def register_discord():
    """Discord of rho3 measured on qubit 1, S(rho_1) - S(rho) + S_cond.

    S_cond is the least conditional entropy over measurement directions;
    every direction leaves REGISTER_CONDITIONAL_SPECTRUM with probability
    1/2 per outcome, so S_cond is that spectrum's entropy.
    """
    rho = rho3_symbolic()
    rho_1 = sp.Matrix(2, 2, lambda x, y: sum(
        rho[i, j] for i in range(8) for j in range(8)
        if (i >> 1) & 1 == x and (j >> 1) & 1 == y and i & 5 == j & 5))
    return (entropy_bits(rho_1.eigenvals()) - entropy_bits(rho.eigenvals())
            + entropy_bits(REGISTER_CONDITIONAL_SPECTRUM))


def register_cut_trace_norm():
    return sum(m * sp.Abs(lam) for lam, m in pt_spectra()[1].items())


def test_symbolic_states_are_the_package_states():
    rho = sp.lambdify(a, rho3_symbolic(), "numpy")
    rho_n3 = sp.lambdify(a, output_n3_symbolic(), "numpy")
    omega = sp.lambdify(a, omega_symbolic(), "numpy")
    u3 = d.build_un(d.canonical_blocks(), 3)
    for alpha in (0.0, 0.3, 1.0):
        assert np.array_equal(rho(alpha), d.rho3(alpha).state.matrix)
        assert np.array_equal(rho_n3(alpha), d.Dqc1State(alpha, u3).state.matrix)
        assert np.abs(omega(alpha) - d.omega_state(alpha).matrix).max() <= 1e-16
    eta = np.array(eta_symbolic().evalf(), dtype=complex)
    assert np.abs(eta - d.eta_state().matrix).max() <= 1e-16


def test_partial_transpose_spectra_and_the_ppt_threshold():
    spectra = pt_spectra()
    assert spectra[0] == {(1 + a) / 8: 4, (1 - a) / 8: 4}
    for q in (1, 2):
        assert spectra[q] == {sp.Rational(1, 8): 6, (1 + 2 * a) / 8: 1, (1 - 2 * a) / 8: 1}
    assert identical(register_cut_trace_norm(), sp.Max(1, (2 * a + 3) / 4))
    # the alphas at which some cut has a negative eigenvalue: PPT iff alpha <= 1/2
    npt = sp.Union(*(sp.solveset(lam < 0, a, UNIT)
                     for spectrum in spectra.values() for lam in spectrum))
    assert npt == sp.Interval.Lopen(sp.Rational(1, 2), 1)


def test_lambda5_is_half_the_published_value():
    # discrepancy 1: the split rho3 = (1 - a/2) omega + (a/2) eta holds, and
    # omega's XXX coefficient is a/(2-a), not the published 2a/(2-a)
    omega = omega_symbolic()
    split = (1 - a / 2) * omega + a / 2 * eta_symbolic() - rho3_symbolic()
    assert split.applyfunc(sp.simplify) == sp.zeros(8, 8)
    lam5 = (omega * sp.kronecker_product(PAULI["X"], PAULI["X"], PAULI["X"])).trace()
    assert identical(lam5, a / (2 - a))
    assert maximum(2 * a / (2 - a) - lam5, a, UNIT) == 1


def test_identity_activation_is_one_plus_alpha():
    # discrepancy 2: the copy protocol places rho3's entry (s, t) of the
    # ancilla partial transpose at (8s + t, 8t + s); its trace norm is 1 + a,
    # not the published (8 + 3a)/8
    rho = rho3_symbolic()
    pt = sp.zeros(64, 64)
    for s in range(8):
        for t in range(8):
            pt[8 * s + t, 8 * t + s] = rho[s, t]
    _, blocks = pt.connected_components_decomposition()
    norm = sum(m * sp.Abs(lam) for block in blocks.args
               for lam, m in block.eigenvals().items())
    assert identical(norm, 1 + a)
    assert maximum(norm - (8 + 3 * a) / 8, a, UNIT) == sp.Rational(5, 8)


def test_correlation_gram_rank():
    # discrepancy 3: with R_mu = tr_q[(sigma_mu on q) rho], the state is
    # classical on q, so its discord there is zero, iff the Gram matrix
    # Re tr(R_i R_j) has rank <= 1 (Dakic, Vedral & Brukner, PRL 105,
    # 190502, 2010)
    rho = rho3_symbolic()
    grams = []
    for q in range(3):
        rs = [trace_out(sp.kronecker_product(*[PAULI[p] if k == q else PAULI["I"]
                                               for k in range(3)]) * rho, q)
              for p in "XYZ"]
        grams.append(sp.Matrix(3, 3, lambda i, j: sp.re((rs[i] * rs[j]).trace())))
    assert grams[0] == sp.diag(a**2 / 4, 0, 0)
    assert grams[0].rank() <= 1
    for q in (1, 2):
        assert grams[q] == a**2 / 16 * sp.eye(3)


def test_register_measurement_spectra_do_not_depend_on_the_direction():
    # each outcome of measuring qubit 1 along (theta, phi) has probability
    # 1/2, and tr B^k for k = 1..4 fixes the spectrum of the 4x4 conditional
    # state B, so the spectrum is the same in every direction; for k = 2..4
    # these read a^2/8 + 1/4, 3a^2/32 + 1/16 and a^4/128 + 3a^2/64 + 1/64
    rho = rho3_symbolic()
    ct, st, ph = sp.cos(theta / 2), sp.sin(theta / 2), sp.exp(sp.I * phi)
    reference = sp.diag(*[lam for lam, m in REGISTER_CONDITIONAL_SPECTRUM.items()
                          for _ in range(m)])
    for v in (sp.Matrix([ct, st * ph]), sp.Matrix([st, -ct * ph])):
        outcome = trace_out(sp.kronecker_product(PAULI["I"], v * v.H, PAULI["I"]) * rho, 1)
        p = without_cancelled_angles(outcome.trace())
        assert p == sp.Rational(1, 2)
        conditional = outcome / p
        for k in range(1, 5):
            power_trace = without_cancelled_angles((conditional**k).trace())
            assert power_trace == sp.expand((reference**k).trace()), k


def test_register_discord_is_the_closed_form():
    h = -entropy_bits({1 + a: 1, 1 - a: 1})  # (1+a)log2(1+a) + (1-a)log2(1-a)
    assert identical(register_discord(), h / 4)


def test_register_adds_only_classical_flags_at_n_3():
    # exact, entry by entry: the 16x16 output is rho3 copied under the
    # orthogonal flags |+>, |-> of the middle qubit, Z on r1 for |->
    difference = output_n3_symbolic() - flagged_rho3_symbolic()
    assert difference.applyfunc(sp.expand) == sp.zeros(16, 16)


def test_closed_form_table_agrees_with_the_proofs_on_the_grid():
    # math, not numpy: its Piecewise evaluates only the taken branch, so
    # (1-a)log2(1-a) reads its limit 0 at alpha = 1
    proven = {"mult-negativity": sp.lambdify(a, register_cut_trace_norm(), "numpy"),
              "pt-spectrum-min": sp.lambdify(a, sp.Min(*pt_spectra()[1]), "numpy"),
              "discord-register": sp.lambdify(a, register_discord(), "math")}
    for name, form in proven.items():
        closed_form = QUANTITIES[name][1]
        for alpha in ALPHA_GRID:
            assert abs(closed_form(alpha) - form(alpha)) <= CLOSED_FORM_TOL, (name, alpha)
