import numpy as np
import pytest

from cqedw.entanglement import TargetState, fidelity
from cqedw.errors import ConfigError, IncompleteReadoutError, NumericalError
from cqedw.hilbert import DensityMatrix
from cqedw.tomography import (
    DEFAULT_READOUT_COEFFICIENTS,
    DIAGONAL_LABELS,
    PAULI_LABELS,
    build_readout,
    expectation_values,
    invert_populations,
    linear_inversion,
    mle_project,
    pauli_matrix,
    pauli_set,
    population_set,
    reconstruct,
    records_from_csv,
    records_to_csv,
    simulate_measurements,
    tomography_set,
)
from conftest import QUBIT_SPEC_3, random_density, uhlmann_fidelity

# Coefficient tuple with weak correlation terms; valid and complete, but its
# conditioning amplifies noise far more than the default preset.
WEAK_CORRELATION_COEFFICIENTS = (0.0, 1.0, 0.9, 0.8, 0.3, 0.25, 0.2, 0.1)


@pytest.fixture(scope="module")
def tset():
    return tomography_set(build_readout(DEFAULT_READOUT_COEFFICIENTS))


@pytest.fixture(scope="module")
def w_rho():
    return TargetState.w_paper().vector.density_matrix()


def test_build_readout_rejects_zero_coefficients():
    with pytest.raises(IncompleteReadoutError):
        build_readout((0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    with pytest.raises(ConfigError):
        build_readout((1.0, 1.0))


def test_build_readout_identity_trace():
    for coeffs in (DEFAULT_READOUT_COEFFICIENTS, (0.2, 1.0, 0.9, 0.8, 0.3, 0.25, 0.2, 0.1)):
        m = build_readout(coeffs)
        assert np.isclose(np.trace(m.matrix.entries).real / 8.0, coeffs[0])
        assert np.abs(m.matrix.entries - np.diag(np.diag(m.matrix.entries))).max() == 0.0


def test_weak_correlation_coefficients_accepted_and_complete():
    tset = tomography_set(build_readout(WEAK_CORRELATION_COEFFICIENTS))
    assert tset.completeness_rank() == 64


def test_tomography_set_rank(tset):
    assert len(tset) == 64
    assert tset.completeness_rank() == 64
    # without the trace constraint one direction (the identity) is blind
    # whenever the identity coefficient is zero
    assert np.linalg.matrix_rank(tset.design, tol=1e-9) == 63


def reference_design(tset):
    """D[n, k] = Tr(P_k O_n) / 8, one scalar trace per entry."""
    return np.array(
        [
            [np.einsum("ij,ji->", pauli_matrix(l), op).real / 8.0 for l in PAULI_LABELS]
            for op in tset.operators
        ]
    )


def test_design_matches_reference_loop(tset):
    weak = tomography_set(build_readout(WEAK_CORRELATION_COEFFICIENTS))
    pset = population_set(build_readout(DEFAULT_READOUT_COEFFICIENTS))
    for s in (tset, weak, pset):
        assert s.design.shape == (len(s), 64)
        assert np.abs(s.design - reference_design(s)).max() <= 1e-15
    with pytest.raises(ValueError):
        tset.design[0, 0] = 1.0  # read-only


def test_expectation_values_match_traces(tset):
    rng = np.random.default_rng(8)
    for _ in range(3):
        rho = random_density(QUBIT_SPEC_3, rng)
        traces = [np.trace(op @ rho.entries).real for op in tset.operators]
        assert np.abs(expectation_values(rho, tset) - traces).max() <= 1e-14


def test_identity_rotation_returns_readout(tset):
    idx = tset.labels.index(("id", "id", "id"))
    assert np.abs(tset.operators[idx] - tset.readout.matrix.entries).max() < 1e-14


def test_x180_flips_za_coefficients(tset):
    idx = tset.labels.index(("x180", "id", "id"))
    flipped = tset.operators[idx]
    for label, coeff in zip(DIAGONAL_LABELS, tset.readout.coefficients):
        got = np.einsum("ij,ji->", pauli_matrix(label), flipped).real / 8.0
        contains_za = label[2] == "Z"
        assert np.isclose(got, -coeff if contains_za else coeff, atol=1e-12)


def test_population_set_diagonal_and_inversion(w_rho):
    pset = population_set(build_readout(DEFAULT_READOUT_COEFFICIENTS))
    assert len(pset) == 8
    for op in pset.operators:
        assert np.abs(op - np.diag(np.diag(op))).max() < 1e-12
    records = simulate_measurements(w_rho, pset, 0.0, 0)
    pops = invert_populations(records, pset)
    assert np.abs(pops - np.diag(w_rho.entries).real).max() < 1e-10
    # the records must follow the set's labels, not only its length
    swapped = list(records)
    swapped[0], swapped[3] = swapped[3], swapped[0]
    with pytest.raises(ConfigError):
        invert_populations(swapped, pset)
    with pytest.raises(ConfigError):
        invert_populations(records[:7], pset)
    # 8 diagonal operators cannot span the 63 traceless Pauli directions
    with pytest.raises(IncompleteReadoutError):
        linear_inversion(records, pset)


def test_simulate_measurements_deterministic(w_rho, tset):
    a = simulate_measurements(w_rho, tset, 0.03, seed=7)
    b = simulate_measurements(w_rho, tset, 0.03, seed=7)
    assert all(x.noisy == y.noisy for x, y in zip(a, b))
    c = simulate_measurements(w_rho, tset, 0.0, seed=7)
    assert all(x.noisy == x.noiseless for x in c)


def test_simulate_measurements_per_operator_sigma(w_rho, tset):
    sig = np.zeros(64)
    sig[5] = 0.5
    recs = simulate_measurements(w_rho, tset, sig, seed=4)
    assert recs[5].sigma == 0.5
    untouched = [r.noisy == r.noiseless for i, r in enumerate(recs) if i != 5]
    assert all(untouched) and recs[5].noisy != recs[5].noiseless
    with pytest.raises(ConfigError):
        simulate_measurements(w_rho, tset, -0.1, seed=0)


def test_simulate_measurements_noise_statistics(w_rho, tset):
    # ~1e4 records: the sample mean of (noisy - noiseless) is a standard
    # error sigma/100 away from zero; allow five standard errors
    sigma = 0.05
    devs = []
    for seed in range(157):
        recs = simulate_measurements(w_rho, tset, sigma, seed)
        devs.extend(r.noisy - r.noiseless for r in recs)
    assert len(devs) >= 10**4
    assert abs(np.mean(devs)) < 5 * sigma / 100


def test_linear_inversion_exact_at_zero_noise(tset):
    rng = np.random.default_rng(2)
    for _ in range(5):
        rho = random_density(QUBIT_SPEC_3, rng)
        recs = simulate_measurements(rho, tset, 0.0, 0)
        est = linear_inversion(recs, tset)
        assert np.abs(est - rho.entries).max() < 1e-10
    mixed = DensityMatrix(np.eye(8) / 8, QUBIT_SPEC_3)
    est = linear_inversion(simulate_measurements(mixed, tset, 0.0, 0), tset)
    assert np.abs(est - np.eye(8) / 8).max() < 1e-10


def test_linear_inversion_noisy_spectrum_goes_negative(w_rho, tset):
    recs = simulate_measurements(w_rho, tset, 0.05, seed=3)
    est = linear_inversion(recs, tset)
    assert np.linalg.eigvalsh(est).min() < 0.0


def test_linear_inversion_validates_alignment(w_rho, tset):
    recs = simulate_measurements(w_rho, tset, 0.0, 0)
    with pytest.raises(ConfigError):
        linear_inversion(recs[:10], tset)
    swapped = list(recs)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    with pytest.raises(ConfigError):
        linear_inversion(swapped, tset)


def test_mle_project_fixed_point():
    rng = np.random.default_rng(5)
    rho = random_density(QUBIT_SPEC_3, rng)
    res = mle_project(rho.entries)
    assert np.abs(res.rho.entries - rho.entries).max() < 1e-12
    assert res.residual_norm < 1e-12


def test_mle_project_hand_example():
    res = mle_project(np.diag([1.2, -0.2]).astype(complex))
    assert np.allclose(np.diag(res.rho.entries).real, [1.0, 0.0], atol=1e-14)
    assert np.isclose(res.eigenvalue_shift, 0.2)


def test_mle_project_idempotent(w_rho, tset):
    recs = simulate_measurements(w_rho, tset, 0.05, seed=11)
    first = mle_project(linear_inversion(recs, tset))
    second = mle_project(first.rho.entries)
    assert np.abs(second.rho.entries - first.rho.entries).max() < 1e-13


def test_mle_project_beats_random_candidates(w_rho, tset):
    rng = np.random.default_rng(13)
    recs = simulate_measurements(w_rho, tset, 0.05, seed=17)
    est = linear_inversion(recs, tset)
    res = mle_project(est)
    best = res.residual_norm
    g = rng.standard_normal((5000, 8, 8)) + 1j * rng.standard_normal((5000, 8, 8))
    cands = np.einsum("kij,klj->kil", g, g.conj())
    cands /= np.trace(cands, axis1=1, axis2=2).real[:, None, None]
    dists = np.linalg.norm(cands - est[None], axis=(1, 2))
    assert best <= dists.min() + 1e-12


def test_mle_project_rejects_non_hermitian():
    bad = np.zeros((4, 4), dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(NumericalError):
        mle_project(bad)


def test_mle_project_rejects_non_qubit_dimension():
    with pytest.raises(ConfigError, match="dimension 6"):
        mle_project(np.eye(6) / 6)


def test_pauli_set_values(w_rho):
    values = pauli_set(w_rho)
    assert PAULI_LABELS[0] == "III"
    assert np.isclose(values[0], 1.0)

    ground = np.zeros(8)
    ground[0] = 1.0
    rho_g = DensityMatrix(np.outer(ground, ground), QUBIT_SPEC_3)
    vals_g = pauli_set(rho_g)
    for label, v in zip(PAULI_LABELS, vals_g):
        if set(label) <= {"I", "Z"}:
            assert np.isclose(v, (-1.0) ** label.count("Z"), atol=1e-12)
        else:
            assert abs(v) < 1e-12


def test_pipeline_identity_at_zero_noise(w_rho, tset):
    recs = simulate_measurements(w_rho, tset, 0.0, 0)
    res = reconstruct(recs, tset)
    assert np.abs(pauli_set(res.rho) - pauli_set(w_rho)).max() < 1e-9


def test_monte_carlo_fidelity_at_sigma_002(w_rho, tset):
    target = TargetState.w_paper()
    fids = [
        fidelity(reconstruct(simulate_measurements(w_rho, tset, 0.02, seed), tset).rho, target)
        for seed in range(100)
    ]
    assert np.mean(fids) > 0.95


def test_end_to_end_random_states_small_noise(tset):
    rng = np.random.default_rng(21)
    for trial in range(6):
        rho = random_density(QUBIT_SPEC_3, rng)
        recs = simulate_measurements(rho, tset, 1e-3, seed=trial)
        res = reconstruct(recs, tset)
        assert uhlmann_fidelity(rho.entries, res.rho.entries) > 0.999


def test_noise_monotonicity(w_rho, tset):
    target = TargetState.w_paper()
    means = []
    for sigma in (0.0, 1e-3, 1e-2, 1e-1):
        fids = [
            fidelity(reconstruct(simulate_measurements(w_rho, tset, sigma, s), tset).rho, target)
            for s in range(100)
        ]
        means.append(np.mean(fids))
    infidelities = 1.0 - np.array(means)
    assert np.all(np.diff(infidelities) >= -1e-12)


def test_records_csv_roundtrip(w_rho, tset):
    recs = simulate_measurements(w_rho, tset, 0.01, seed=9)
    text = records_to_csv(recs)
    back = records_from_csv(text, tset)
    assert np.allclose([r.noisy for r in back], [r.noisy for r in recs], atol=1e-10)


def test_records_csv_missing_row(w_rho, tset):
    recs = simulate_measurements(w_rho, tset, 0.0, seed=0)
    text = records_to_csv(recs)
    truncated = "\n".join(text.strip().split("\n")[:-1]) + "\n"
    with pytest.raises(ConfigError):
        records_from_csv(truncated, tset)
