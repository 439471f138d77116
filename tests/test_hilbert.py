import numpy as np
import pytest

from cqedw.errors import ConfigError, NumericalError
from cqedw.hilbert import (
    ID2,
    SIGMA_MINUS,
    SIGMA_Z,
    DensityMatrix,
    HilbertSpec,
    QuantumState,
    basis_ket,
    cavity_annihilation,
    cavity_number,
    embed_qubit_operator,
    expectation,
    ket_from_label,
    partial_trace,
)
from conftest import random_density, random_pure

SPEC31 = HilbertSpec(num_qubits=3, photon_cutoff=1)


def test_dimensions():
    assert SPEC31.dim == 16
    assert HilbertSpec(2, 2).dim == 12
    with pytest.raises(ConfigError):
        HilbertSpec(0, 0)  # dim 1


def test_basis_index_ordering():
    # index = n * 2^N + sum_j bit_j 2^j, qubit A at bit 0
    assert SPEC31.index([0], 0) == 1
    assert SPEC31.index([2], 0) == 4
    assert SPEC31.index([], 1) == 8
    assert SPEC31.index([0, 1, 2], 1) == 15


def test_ket_from_label_reads_cba():
    # |g,g,e> has qubit A excited -> index 1
    psi = ket_from_label(SPEC31, "gge", 0)
    assert psi.amplitudes[1] == 1.0
    psi_c = ket_from_label(SPEC31, "egg", 0)
    assert psi_c.amplitudes[4] == 1.0


def test_embed_identity_is_identity():
    op = embed_qubit_operator(ID2, 1, SPEC31)
    assert np.array_equal(op.entries, np.eye(16))


def test_embed_sigma_z_sign_convention():
    sz_a = embed_qubit_operator(SIGMA_Z, 0, SPEC31).entries
    assert sz_a[1, 1] == 1.0  # |g,g,e,0>
    assert sz_a[0, 0] == -1.0  # |g,g,g,0>


def test_embed_sigma_minus_on_qubit_c():
    sm_c = embed_qubit_operator(SIGMA_MINUS, 2, SPEC31).entries
    assert sm_c[0, 4] == 1.0  # |e_C,g,g,0> -> |g,g,g,0>
    assert np.count_nonzero(sm_c[:, 4]) == 1


def test_embed_errors():
    with pytest.raises(ConfigError):
        embed_qubit_operator(SIGMA_Z, 3, SPEC31)
    with pytest.raises(ConfigError):
        embed_qubit_operator(np.eye(3), 0, SPEC31)


def test_cavity_annihilation_ladder():
    a1 = cavity_annihilation(SPEC31).entries
    ket1 = basis_ket(SPEC31, [], 1).amplitudes
    out = a1 @ ket1
    assert np.allclose(out, basis_ket(SPEC31, [], 0).amplitudes)
    assert np.allclose(a1 @ basis_ket(SPEC31, [], 0).amplitudes, 0.0)

    spec2 = HilbertSpec(1, 2)
    a2 = cavity_annihilation(spec2).entries
    bra1 = basis_ket(spec2, [], 1).amplitudes
    ket2 = basis_ket(spec2, [], 2).amplitudes
    assert np.isclose(bra1.conj() @ a2 @ ket2, np.sqrt(2))


def test_embedding_composition_and_commutation():
    rng = np.random.default_rng(11)
    for _ in range(5):
        op1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        op2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        lhs = embed_qubit_operator(op1 @ op2, 1, SPEC31).entries
        rhs = embed_qubit_operator(op1, 1, SPEC31).entries @ embed_qubit_operator(op2, 1, SPEC31).entries
        assert np.abs(lhs - rhs).max() < 1e-12

        a = embed_qubit_operator(op1, 0, SPEC31).entries
        b = embed_qubit_operator(op2, 2, SPEC31).entries
        assert np.abs(a @ b - b @ a).max() == 0.0  # disjoint embeddings commute exactly


def test_partial_trace_product_state():
    spec = HilbertSpec(2, 1)
    rng = np.random.default_rng(3)
    phi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    phi /= np.linalg.norm(phi)
    amps = np.zeros(8, dtype=complex)
    amps[:4] = phi  # qubits (x) |0 photons>
    rho = QuantumState(amps, spec).density_matrix()
    reduced = partial_trace(rho, [0, 1])
    assert np.abs(reduced.entries - np.outer(phi, phi.conj())).max() < 1e-12


def test_partial_trace_preserves_trace_and_bell():
    rng = np.random.default_rng(5)
    rho = random_density(SPEC31, rng)
    for keep in ([0], [1, 2], ["cavity"], [0, "cavity"]):
        red = partial_trace(rho, keep)
        assert abs(np.trace(red.entries).real - 1.0) < 1e-12

    spec = HilbertSpec(2, 0)
    bell = np.zeros(4, dtype=complex)
    bell[[0, 3]] = 1 / np.sqrt(2)
    rho_b = QuantumState(bell, spec).density_matrix()
    red = partial_trace(rho_b, [0])
    assert np.abs(red.entries - np.eye(2) / 2).max() < 1e-12


def test_partial_trace_nested_matches_oneshot():
    rng = np.random.default_rng(8)
    rho = random_density(SPEC31, rng)
    one_shot = partial_trace(rho, [0])
    nested = partial_trace(partial_trace(rho, [0, 1]), [0])
    assert np.abs(one_shot.entries - nested.entries).max() < 1e-12
    full = partial_trace(rho, [0, 1, 2, "cavity"])
    assert np.abs(full.entries - rho.entries).max() < 1e-12


def test_partial_trace_errors():
    rng = np.random.default_rng(1)
    rho = random_density(SPEC31, rng)
    with pytest.raises(ConfigError):
        partial_trace(rho, [])
    with pytest.raises(ConfigError):
        partial_trace(rho, [7])


def test_expectation_examples():
    spec = SPEC31
    rho = basis_ket(spec, [0], 0).density_matrix()
    ident = embed_qubit_operator(ID2, 0, spec)
    assert np.isclose(expectation(ident, rho), 1.0)
    sz_a = embed_qubit_operator(SIGMA_Z, 0, spec)
    assert np.isclose(expectation(sz_a, rho), 1.0)
    one_photon = basis_ket(spec, [], 1)
    assert np.isclose(expectation(cavity_number(spec), one_photon), 1.0)


def test_expectation_dimension_mismatch():
    op = embed_qubit_operator(SIGMA_Z, 0, HilbertSpec(2, 1))
    rho = basis_ket(SPEC31, [], 0).density_matrix()
    with pytest.raises(ConfigError):
        expectation(op, rho)


def test_expectation_non_hermitian_returns_complex():
    spec = HilbertSpec(1, 1)
    amps = np.zeros(4, dtype=complex)
    amps[spec.index([], 0)] = 1 / np.sqrt(2)
    amps[spec.index([], 1)] = 1j / np.sqrt(2)
    psi = QuantumState(amps, spec)
    val = expectation(cavity_annihilation(spec), psi)
    assert isinstance(val, complex)
    assert np.isclose(val, 0.5j)


def test_pure_state_purity():
    rng = np.random.default_rng(21)
    for _ in range(5):
        psi = random_pure(SPEC31, rng)
        assert abs(psi.density_matrix().purity() - 1.0) < 1e-10


def test_state_validation():
    with pytest.raises(NumericalError):
        QuantumState(np.ones(16), SPEC31)  # norm 4
    with pytest.raises(ConfigError):
        QuantumState(np.ones(3) / np.sqrt(3), SPEC31)
    nan_ket = np.zeros(16, dtype=complex)
    nan_ket[0] = np.nan
    with pytest.raises(NumericalError):
        QuantumState(nan_ket, SPEC31)
    bad = np.eye(16, dtype=complex) / 16
    bad[0, 1] = 0.5  # non-Hermitian
    with pytest.raises(NumericalError):
        DensityMatrix(bad, SPEC31)
