import numpy as np
import pytest

from cqedw.dynamics import qubit_state
from cqedw.errors import ConfigError, NumericalError
from cqedw.hilbert import (
    ID2,
    MAX_DIM,
    SIGMA_Z,
    DensityMatrix,
    HilbertSpec,
    check_density_stack,
    check_ket_stack,
)
from conftest import (
    SIGMA_MINUS,
    basis_index,
    basis_ket,
    cavity_annihilation,
    cavity_number,
    embed_qubit_operator,
    expectation,
    ket_from_label,
    partial_trace,
    pure_density,
    purity,
    random_density,
    random_pure,
    zero_padded,
)

SPEC31 = HilbertSpec(num_qubits=3, photon_cutoff=1)


def test_dimensions():
    assert SPEC31.dim == 16
    assert HilbertSpec(2, 2).dim == 12
    with pytest.raises(ConfigError):
        HilbertSpec(0, 0)  # dim 1


def test_dimension_limit():
    # the total dimension d of a device is capped at MAX_DIM = 1024 when it is read
    assert HilbertSpec(3, 127).dim == MAX_DIM
    assert HilbertSpec(8, 2).dim == 768
    for n, cutoff in ((3, 128), (9, 2), (3, 10**12), (3, 10**20)):
        with pytest.raises(ConfigError, match="dimension"):
            HilbertSpec(n, cutoff)


def test_basis_index_ordering():
    # index = n * 2^N + sum_j bit_j 2^j, qubit A at bit 0, as the reference operators see it
    assert basis_index(SPEC31, [0], 0) == 1
    assert basis_index(SPEC31, [2], 0) == 4
    assert basis_index(SPEC31, [], 1) == 8
    assert basis_index(SPEC31, [0, 1, 2], 1) == 15
    number = cavity_number(SPEC31)
    for excited, n in (([0], 0), ([2], 0), ([], 1), ([0, 1, 2], 1)):
        i = basis_index(SPEC31, excited, n)
        assert number[i, i] == n
        for j in range(3):
            assert embed_qubit_operator(SIGMA_Z, j, SPEC31)[i, i] == (1 if j in excited else -1)


def test_ket_from_label_reads_cba():
    # |g,g,e> has qubit A excited -> index 1
    psi = ket_from_label(SPEC31, "gge", 0)
    assert psi[1] == 1.0
    psi_c = ket_from_label(SPEC31, "egg", 0)
    assert psi_c[4] == 1.0


def test_embed_identity_is_identity():
    op = embed_qubit_operator(ID2, 1, SPEC31)
    assert np.array_equal(op, np.eye(16))


def test_embed_sigma_z_sign_convention():
    sz_a = embed_qubit_operator(SIGMA_Z, 0, SPEC31)
    assert sz_a[1, 1] == 1.0  # |g,g,e,0>
    assert sz_a[0, 0] == -1.0  # |g,g,g,0>


def test_embed_sigma_minus_on_qubit_c():
    sm_c = embed_qubit_operator(SIGMA_MINUS, 2, SPEC31)
    assert sm_c[0, 4] == 1.0  # |e_C,g,g,0> -> |g,g,g,0>
    assert np.count_nonzero(sm_c[:, 4]) == 1


def test_cavity_annihilation_ladder():
    a1 = cavity_annihilation(SPEC31)
    ket1 = basis_ket(SPEC31, [], 1)
    out = a1 @ ket1
    assert np.allclose(out, basis_ket(SPEC31, [], 0))
    assert np.allclose(a1 @ basis_ket(SPEC31, [], 0), 0.0)

    spec2 = HilbertSpec(1, 2)
    a2 = cavity_annihilation(spec2)
    bra1 = basis_ket(spec2, [], 1)
    ket2 = basis_ket(spec2, [], 2)
    assert np.isclose(bra1.conj() @ a2 @ ket2, np.sqrt(2))


def test_embedding_composition_and_commutation():
    rng = np.random.default_rng(11)
    for _ in range(5):
        op1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        op2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        lhs = embed_qubit_operator(op1 @ op2, 1, SPEC31)
        rhs = embed_qubit_operator(op1, 1, SPEC31) @ embed_qubit_operator(op2, 1, SPEC31)
        assert np.abs(lhs - rhs).max() < 1e-12

        a = embed_qubit_operator(op1, 0, SPEC31)
        b = embed_qubit_operator(op2, 2, SPEC31)
        assert np.abs(a @ b - b @ a).max() == 0.0  # disjoint embeddings commute exactly


def random_sector_density(n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def test_partial_trace_product_state():
    # a qubit state of at most one excitation (x) |0 photons> traces out to itself
    spec = HilbertSpec(2, 1)
    rng = np.random.default_rng(3)
    phi = np.zeros(4, dtype=complex)
    phi[:3] = rng.standard_normal(3) + 1j * rng.standard_normal(3)  # |gg>, |ge>, |eg>
    phi /= np.linalg.norm(phi)
    amps = np.append(phi[:3], 0.0)  # sector order |gg,0>, |e_A,0>, |e_B,0>, |gg,1>
    reduced = qubit_state(np.outer(amps, amps.conj()))
    assert reduced.shape == (4, 4)
    assert np.abs(reduced - np.outer(phi, phi.conj())).max() < 1e-12


def test_partial_trace_preserves_trace_and_bell():
    # the sector's qubit state equals, bit for bit, the photon-number sum of the
    # qubit blocks of the same state on the full space
    rng = np.random.default_rng(5)
    for spec in (SPEC31, HilbertSpec(1, 3), HilbertSpec(2, 2)):
        rho = random_sector_density(spec.num_qubits + 2, rng)
        red = qubit_state(rho)
        assert red.shape == (2**spec.num_qubits,) * 2
        assert abs(np.trace(red).real - 1.0) < 1e-12
        assert np.array_equal(red, partial_trace(zero_padded(rho, spec), spec))

    # a qubit-photon Bell state (|e,0> + |g,1>)/sqrt(2) leaves the qubit maximally mixed
    bell = np.array([0.0, 1.0, 1.0]) / np.sqrt(2)  # |g,0>, |e,0>, |g,1>
    red = qubit_state(np.outer(bell, bell.conj()))
    assert np.abs(red - np.eye(2) / 2).max() < 1e-15


def test_expectation_examples():
    spec = SPEC31
    rho = pure_density(basis_ket(spec, [0], 0), spec)
    ident = embed_qubit_operator(ID2, 0, spec)
    assert np.isclose(expectation(ident, rho), 1.0)
    sz_a = embed_qubit_operator(SIGMA_Z, 0, spec)
    assert np.isclose(expectation(sz_a, rho), 1.0)
    one_photon = basis_ket(spec, [], 1)
    assert np.isclose(expectation(cavity_number(spec), one_photon), 1.0)


def test_pure_state_purity():
    rng = np.random.default_rng(21)
    for _ in range(5):
        psi = random_pure(SPEC31, rng)
        assert abs(purity(pure_density(psi, SPEC31)) - 1.0) < 1e-10


def test_state_validation():
    with pytest.raises(NumericalError, match="norm"):
        check_ket_stack(np.ones((1, 16)))  # norm 4
    nan_ket = np.zeros((1, 16), dtype=complex)
    nan_ket[0, 0] = np.nan
    with pytest.raises(NumericalError, match="non-finite"):
        check_ket_stack(nan_ket)
    bad = np.eye(16, dtype=complex) / 16
    bad[0, 1] = 0.5  # non-Hermitian
    with pytest.raises(NumericalError):
        DensityMatrix(bad, SPEC31)


def test_stack_checks_reject_one_bad_state_in_the_middle():
    # each state breaks one tolerance by a factor of 2; the stack check must
    # reject it anywhere in a stack, and alone
    rng = np.random.default_rng(5)
    rho = random_density(SPEC31, rng).entries
    bad_rhos = []
    herm = rho.copy()
    herm[0, 1] += 2e-10
    bad_rhos.append(herm)
    trace = rho.copy()
    trace[0, 0] += 2e-9
    bad_rhos.append(trace)
    diag = np.full(16, 1.0 / 15) + 0j
    diag[0], diag[1] = -2e-8, 1.0 / 15 + 2e-8
    bad_rhos.append(np.diag(diag))
    nan_rho = rho.copy()
    nan_rho[3, 3] = np.nan
    bad_rhos.append(nan_rho)
    good_rhos = np.stack([random_density(SPEC31, rng).entries for _ in range(5)])
    check_density_stack(good_rhos)
    for bad in bad_rhos:
        for k in (0, 2, 4):
            stack = good_rhos.copy()
            stack[k] = bad
            with pytest.raises(NumericalError):
                check_density_stack(stack)
        with pytest.raises(NumericalError):
            DensityMatrix(bad, SPEC31)

    psi = random_pure(SPEC31, rng)
    nan_psi = psi.copy()
    nan_psi[5] = np.inf
    good_kets = np.stack([random_pure(SPEC31, rng) for _ in range(5)])
    check_ket_stack(good_kets)
    for bad in (psi * (1 + 2e-9), nan_psi):
        for k in (0, 2, 4):
            stack = good_kets.copy()
            stack[k] = bad
            with pytest.raises(NumericalError):
                check_ket_stack(stack)
        with pytest.raises(NumericalError):
            check_ket_stack(bad[None])
