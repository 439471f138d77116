import itertools

import numpy as np
import pytest

from cqedw import entanglement
from cqedw.device import paper_system
from cqedw.entanglement import (
    TangleEstimate,
    TargetState,
    certification_report,
    classify_w_vs_ghz,
    decomposition_average_tangle,
    fidelity,
    tangle_quartic,
    three_tangle_mixed,
    three_tangle_pure,
    uhlmann_fidelity,
    witness_operator,
    witness_value,
)
from cqedw.errors import ConfigError
from cqedw.hilbert import DensityMatrix, HilbertSpec, QuantumState
from cqedw.protocols import apply_phase_correction, prepare_w_collective
from conftest import QUBIT_SPEC_3, random_density, random_pure, random_unitary
from conftest import tangle_quartic as reference_quartic
from conftest import uhlmann_fidelity as reference_uhlmann


def test_fidelity_examples():
    w = TargetState.w_paper()
    assert np.isclose(fidelity(w.vector.density_matrix(), w), 1.0)
    mixed = DensityMatrix(np.eye(8) / 8, QUBIT_SPEC_3)
    assert np.isclose(fidelity(mixed, w), 1 / 8)


def test_uhlmann_fidelity_rank_deficient():
    rng = np.random.default_rng(8)
    rank2 = random_density(QUBIT_SPEC_3, rng, rank=2)
    assert abs(uhlmann_fidelity(rank2, rank2) - 1.0) < 1e-12
    # a pure argument reduces it to <psi|rho|psi>
    w = TargetState.w_paper()
    for rho in (rank2, random_density(QUBIT_SPEC_3, rng)):
        assert abs(uhlmann_fidelity(rho, w.vector.density_matrix()) - fidelity(rho, w)) < 1e-12
    for rank in (1, 2, 8):
        a = random_density(QUBIT_SPEC_3, rng, rank=rank)
        b = random_density(QUBIT_SPEC_3, rng, rank=3)
        f = uhlmann_fidelity(a, b)
        assert abs(f - uhlmann_fidelity(b, a)) < 1e-12
        # the reference keeps eigenvalue round-off, whose square roots shift
        # it by ~1e-8 on rank-deficient pairs
        assert abs(f - reference_uhlmann(a.entries, b.entries)) < 1e-7


def test_fidelity_linearity():
    rng = np.random.default_rng(3)
    w = TargetState.w_paper()
    r1 = random_density(QUBIT_SPEC_3, rng)
    r2 = random_density(QUBIT_SPEC_3, rng)
    for lam in (0.0, 0.3, 0.71, 1.0):
        mix = DensityMatrix(lam * r1.entries + (1 - lam) * r2.entries, QUBIT_SPEC_3)
        expected = lam * fidelity(r1, w) + (1 - lam) * fidelity(r2, w)
        assert abs(fidelity(mix, w) - expected) < 1e-12


def test_witness_identity_and_values():
    # operator route against the algebraic identity 2/3 - F, machine precision
    rng = np.random.default_rng(1)
    w = TargetState.w_paper()
    for _ in range(10):
        rho = random_density(QUBIT_SPEC_3, rng)
        assert abs(witness_value(rho) - (2 / 3 - fidelity(rho, w))) < 1e-14

    assert np.isclose(witness_value(w.vector.density_matrix()), -1 / 3, atol=1e-12)
    mixed = DensityMatrix(np.eye(8) / 8, QUBIT_SPEC_3)
    assert np.isclose(witness_value(mixed), 2 / 3 - 1 / 8, atol=1e-12)
    assert np.abs(witness_operator() - witness_operator().conj().T).max() < 1e-14


def test_witness_at_quoted_fidelity():
    # a state with F = 0.78: witness = 2/3 - 0.78 = -0.1133, quoted rounded as -0.12
    w = TargetState.w_paper()
    ground = np.zeros(8)
    ground[0] = 1.0
    rho = DensityMatrix(
        0.78 * w.vector.density_matrix().entries + 0.22 * np.outer(ground, ground),
        QUBIT_SPEC_3,
    )
    val = witness_value(rho)
    assert abs(val - (2 / 3 - 0.78)) < 1e-12
    assert val < 0
    assert abs(val - (-0.12)) < 0.01


def test_tangle_pure_values():
    assert abs(three_tangle_pure(TargetState.ghz().vector).value - 1.0) < 1e-6
    assert three_tangle_pure(TargetState.w_paper().vector).value < 1e-10
    assert three_tangle_pure(TargetState.w_plus().vector).value < 1e-10
    product = np.zeros(8, dtype=complex)
    product[0b001] = 1.0  # |g>|g>|e>
    assert three_tangle_pure(QuantumState(product, QUBIT_SPEC_3)).value == 0.0


def test_tangle_local_unitary_invariance():
    rng = np.random.default_rng(12)
    for _ in range(6):
        psi = random_pure(QUBIT_SPEC_3, rng)
        base = three_tangle_pure(psi).value
        u = np.kron(random_unitary(2, rng), np.kron(random_unitary(2, rng), random_unitary(2, rng)))
        rotated = QuantumState(u @ psi.amplitudes, QUBIT_SPEC_3)
        assert abs(three_tangle_pure(rotated).value - base) < 1e-8


def test_tangle_permutation_invariance():
    rng = np.random.default_rng(23)
    for _ in range(4):
        psi = random_pure(QUBIT_SPEC_3, rng)
        base = three_tangle_pure(psi).value
        tensor = psi.amplitudes.reshape(2, 2, 2)
        for perm in itertools.permutations((0, 1, 2)):
            permuted = QuantumState(np.transpose(tensor, perm).reshape(8), QUBIT_SPEC_3)
            assert abs(three_tangle_pure(permuted).value - base) < 1e-10


def test_tangle_mixed_pure_input_matches_pure():
    rng = np.random.default_rng(4)
    for _ in range(3):
        psi = random_pure(QUBIT_SPEC_3, rng)
        pure = three_tangle_pure(psi).value
        est = three_tangle_mixed(psi.density_matrix(), restarts=4, budget=100, seed=0)
        assert est.kind == "mixed_upper_bound"
        assert abs(est.value - pure) < 1e-8


def test_tangle_mixed_two_w_class_states():
    w1 = TargetState.w_paper().vector.amplitudes
    amps = np.zeros(8, dtype=complex)
    amps[[1, 2, 4]] = [0.5, -0.5, np.sqrt(0.5)]
    rho = 0.5 * np.outer(w1, w1.conj()) + 0.5 * np.outer(amps, amps.conj())
    est = three_tangle_mixed(DensityMatrix(rho, QUBIT_SPEC_3), seed=1)
    assert est.value <= 1e-6


def test_tangle_mixed_is_upper_bound():
    rng = np.random.default_rng(7)
    ghz = TargetState.ghz().vector.amplitudes
    w = TargetState.w_paper().vector.amplitudes
    rank2 = 0.6 * np.outer(ghz, ghz.conj()) + 0.4 * np.outer(w, w.conj())
    # full rank: the widest zero padding of the lockstep descent (m = 8..16)
    full = random_density(QUBIT_SPEC_3, np.random.default_rng(17)).entries
    full_rank = 0.9 * np.outer(w, w.conj()) + 0.1 * full
    for rho, rank in ((rank2, 2), (full_rank, 8)):
        dm = DensityMatrix(rho, QUBIT_SPEC_3)
        est = three_tangle_mixed(dm, seed=2)
        lam, vec = np.linalg.eigh(dm.entries)
        keep = lam > 1e-10
        wtil = (np.sqrt(lam[keep])[None, :] * vec[:, keep]).T
        r = wtil.shape[0]
        assert r == rank
        for m in range(r, 2 * r + 1):
            for _ in range(25):
                g = rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))
                v = np.linalg.qr(g)[0]
                avg = decomposition_average_tangle(v @ wtil)
                assert est.value <= avg + 1e-8


def test_tangle_mixed_bookkeeping(monkeypatch):
    rho = random_density(QUBIT_SPEC_3, np.random.default_rng(9), rank=3)
    est = three_tangle_mixed(rho, restarts=3, budget=1, seed=5)
    # one proposal per live restart, summed over the restarts
    assert est.optimizer_iterations == 3
    assert 3 <= est.decomposition_size <= 6
    assert three_tangle_mixed(rho, restarts=3, budget=1, seed=5) == est

    # restarts whose step falls below 1e-10 stop proposing
    ghz = TargetState.ghz().vector.amplitudes
    w = TargetState.w_paper().vector.amplitudes
    rank2 = DensityMatrix(0.6 * np.outer(ghz, ghz.conj()) + 0.4 * np.outer(w, w.conj()), QUBIT_SPEC_3)
    assert three_tangle_mixed(rank2, restarts=4, budget=2000, seed=2).optimizer_iterations < 4 * 2000

    # the bound is the smallest average tangle any restart reached
    seen = []

    def recording(states):
        values = decomposition_average_tangle(states)
        seen.extend(values)
        return values

    monkeypatch.setattr(entanglement, "decomposition_average_tangle", recording)
    assert three_tangle_mixed(rho, restarts=3, budget=1, seed=5).value == min(seen)


def test_tangle_mixed_on_noisy_collective_state():
    cfg = paper_system()
    target = TargetState.w_paper()
    rho, _ = apply_phase_correction(prepare_w_collective(cfg, noise=True), target.vector)
    est = three_tangle_mixed(rho, seed=3)
    assert est.value < 0.1
    assert classify_w_vs_ghz(rho, seed=3) == "W_class"


def test_classification():
    assert classify_w_vs_ghz(TargetState.w_paper().vector.density_matrix(), seed=0) == "W_class"
    assert classify_w_vs_ghz(TargetState.ghz().vector.density_matrix(), seed=0) == "GHZ_class"
    mixed = DensityMatrix(np.eye(8) / 8, QUBIT_SPEC_3)
    assert classify_w_vs_ghz(mixed, seed=0) == "inconclusive"


def test_certification_report_shape():
    report = certification_report(
        TargetState.w_paper().vector.density_matrix(), restarts=4, budget=200, seed=0
    )
    assert set(report) == {"fidelity", "witness", "tangle_bound", "classification", "optimizer_stats"}
    assert report["classification"] == "W_class"
    assert np.isclose(report["fidelity"], 1.0)
    assert np.isclose(report["witness"], -1 / 3)


def test_tangle_estimate_validation():
    with pytest.raises(ConfigError):
        TangleEstimate(1.5, "pure_exact", 1, 0)


def test_dimension_checks():
    big = HilbertSpec(num_qubits=3, photon_cutoff=1)
    rng = np.random.default_rng(0)
    rho16 = random_density(big, rng)
    with pytest.raises(ConfigError):
        witness_value(rho16)
    with pytest.raises(ConfigError):
        three_tangle_pure(random_pure(big, rng))


def test_quartic_homogeneity():
    rng = np.random.default_rng(31)
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    assert np.isclose(tangle_quartic(2.0 * v), 16.0 * tangle_quartic(v), rtol=1e-12)
    # a (k, 8) stack is evaluated row by row on its last axis
    stack = rng.standard_normal((5, 8)) + 1j * rng.standard_normal((5, 8))
    values = tangle_quartic(stack)
    assert values.shape == (5,)
    assert np.array_equal(values, [tangle_quartic(row) for row in stack])
    reference = [reference_quartic(row) for row in stack]
    assert np.allclose(values, reference, rtol=1e-12, atol=0.0)
    # the average tangle: zero rows add exact zeros (only numpy's summation
    # order can move the last bit), and a (k, m, 8) stack of ensembles is
    # evaluated ensemble by ensemble
    padded = np.vstack([stack, np.zeros((3, 8))])
    average = decomposition_average_tangle(stack)
    assert abs(decomposition_average_tangle(padded) - average) <= 1e-15 * average
    ensembles = rng.standard_normal((4, 6, 8)) + 1j * rng.standard_normal((4, 6, 8))
    averages = decomposition_average_tangle(ensembles)
    assert averages.shape == (4,)
    expected = [decomposition_average_tangle(e) for e in ensembles]
    assert np.allclose(averages, expected, rtol=1e-12, atol=0.0)
