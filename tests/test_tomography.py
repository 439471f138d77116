import itertools
import re

import numpy as np
import pytest

from cqedw.entanglement import W_PAPER, fidelity
from cqedw.errors import ConfigError, IncompleteReadoutError, NumericalError
from cqedw.hilbert import DensityMatrix
from cqedw.tomography import (
    DEFAULT_READOUT_COEFFICIENTS,
    _project_simplex,
    DIAGONAL_LABELS,
    FULL_ROTATION_LABELS,
    MAX_CONDITION,
    PAULI_LABELS,
    PAULI_STACK,
    ROTATIONS,
    build_readout,
    expectation_values,
    linear_inversion,
    mle_project,
    pauli_matrix,
    pauli_set,
    reconstruct,
    records_from_csv,
    records_to_csv,
    simulate_measurements,
    tomography_set,
)
from conftest import QUBIT_SPEC_3, pure_density, random_density, uhlmann_fidelity

# Coefficient tuple with weak correlation terms; valid and complete, but its
# conditioning amplifies noise far more than the default preset.
WEAK_CORRELATION_COEFFICIENTS = (0.0, 1.0, 0.9, 0.8, 0.3, 0.25, 0.2, 0.1)


@pytest.fixture(scope="module")
def tset():
    return tomography_set(build_readout(DEFAULT_READOUT_COEFFICIENTS))


@pytest.fixture(scope="module")
def w_rho():
    return pure_density(W_PAPER)


def test_build_readout_rejects_zero_coefficients():
    with pytest.raises(IncompleteReadoutError):
        build_readout((0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    with pytest.raises(ConfigError):
        build_readout((1.0, 1.0))


def test_build_readout_identity_trace():
    for coeffs in (DEFAULT_READOUT_COEFFICIENTS, (0.2, 1.0, 0.9, 0.8, 0.3, 0.25, 0.2, 0.1)):
        m = build_readout(coeffs)
        assert np.isclose(np.trace(m).real / 8.0, coeffs[0])
        assert np.abs(m - np.diag(np.diag(m))).max() == 0.0
        with pytest.raises(ValueError):
            m[0, 0] = 1.0  # read-only


def test_build_readout_matches_kron_sum():
    # the sum over the stacked diagonal Pauli strings, bit for bit the sum of
    # fresh Kronecker products
    for coeffs in (DEFAULT_READOUT_COEFFICIENTS, WEAK_CORRELATION_COEFFICIENTS):
        kron_sum = sum(c * pauli_matrix(l) for c, l in zip(coeffs, DIAGONAL_LABELS))
        assert np.array_equal(build_readout(coeffs), kron_sum)


def completeness_rank(tset):
    """numpy's rank of the design with the trace row e_0 appended."""
    return np.linalg.matrix_rank(np.vstack([np.eye(1, 64), tset.design]))


def test_weak_correlation_coefficients_accepted_and_complete():
    tset = tomography_set(build_readout(WEAK_CORRELATION_COEFFICIENTS))
    assert completeness_rank(tset) == 64


def test_tomography_set_rank(tset):
    assert len(tset.labels) == 64
    assert completeness_rank(tset) == 64
    # without the trace constraint one direction (the identity) is blind
    # whenever the identity coefficient is zero
    assert np.linalg.matrix_rank(tset.design, tol=1e-9) == 63


def test_one_svd_per_set_gives_rank_and_pinv(w_rho, monkeypatch):
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    tset = tomography_set(build_readout(DEFAULT_READOUT_COEFFICIENTS))
    assert len(calls) == 1
    linear_inversion(expectation_values(w_rho, tset), tset)
    linear_inversion(expectation_values(w_rho, tset), tset)
    assert len(calls) == 1
    monkeypatch.undo()
    # full rank under numpy's default relative rule, and bit for bit the same
    # pseudo-inverse as numpy's own, stored read-only
    assert np.linalg.matrix_rank(tset.design[:, 1:]) == 63
    assert np.array_equal(tset.pinv, np.linalg.pinv(tset.design[:, 1:]))
    with pytest.raises(ValueError):
        tset.pinv[0, 0] = 1.0  # read-only


def reference_operators(readout):
    """U^+ M U per rotation triple (A, B, C), with U = R_C (x) R_B (x) R_A from np.kron."""
    ops = []
    for la, lb, lc in itertools.product(FULL_ROTATION_LABELS, repeat=3):
        u = np.kron(ROTATIONS[lc], np.kron(ROTATIONS[lb], ROTATIONS[la]))
        ops.append(u.conj().T @ readout @ u)
    return np.array(ops)


def reference_design(operators):
    """D[n, k] = Tr(P_k O_n) / 8, one scalar trace per entry."""
    return np.array(
        [
            [np.einsum("ij,ji->", pauli_matrix(l), op).real / 8.0 for l in PAULI_LABELS]
            for op in operators
        ]
    )


def test_design_matches_reference_loop(tset):
    for coeffs in (DEFAULT_READOUT_COEFFICIENTS, WEAK_CORRELATION_COEFFICIENTS):
        s = tomography_set(build_readout(coeffs))
        ops = reference_operators(build_readout(coeffs))
        assert s.labels == tuple(itertools.product(FULL_ROTATION_LABELS, repeat=3))
        assert s.design.shape == (64, 64)
        assert np.abs(s.design - reference_design(ops)).max() <= 1e-15
        # the batched set, bit for bit the same einsum over the per-triple products
        assert np.array_equal(s.design, np.einsum("kij,nji->nk", PAULI_STACK, ops).real / 8.0)
    with pytest.raises(ValueError):
        tset.design[0, 0] = 1.0  # read-only


def test_expectation_values_match_traces(tset):
    rng = np.random.default_rng(8)
    ops = reference_operators(build_readout(DEFAULT_READOUT_COEFFICIENTS))
    for _ in range(3):
        rho = random_density(QUBIT_SPEC_3, rng)
        traces = [np.trace(op @ rho.entries).real for op in ops]
        assert np.abs(expectation_values(rho, tset) - traces).max() <= 1e-14


def test_identity_rotation_returns_readout(tset):
    # the unrotated design row is the readout's coefficient on each diagonal Pauli string
    row = tset.design[tset.labels.index(("id", "id", "id"))]
    expected = np.zeros(64)
    expected[[PAULI_LABELS.index(l) for l in DIAGONAL_LABELS]] = DEFAULT_READOUT_COEFFICIENTS
    assert np.abs(row - expected).max() < 1e-14


def test_x180_flips_za_coefficients(tset):
    row = tset.design[tset.labels.index(("x180", "id", "id"))]
    for label, coeff in zip(DIAGONAL_LABELS, DEFAULT_READOUT_COEFFICIENTS):
        contains_za = label[2] == "Z"
        assert np.isclose(row[PAULI_LABELS.index(label)], -coeff if contains_za else coeff, atol=1e-12)


def test_completeness_is_scale_free_and_conditioning_bounded(w_rho):
    # a rescaled readout carries the same information: at 1e-9 and 1e-12 the
    # absolute 1e-9 threshold used to call it rank 39 and 1, and at 1e306 and
    # 1e307 the relative threshold s_max * 64 * eps overflowed and called it rank 1
    base = np.array(DEFAULT_READOUT_COEFFICIENTS)
    for scale in (1e-9, 1e-12, 1e306, 1e307):
        tset = tomography_set(build_readout(base * scale))  # refuses an incomplete set
        rho = reconstruct(simulate_measurements(w_rho, tset, 0.0, 0), tset).rho
        assert uhlmann_fidelity(w_rho.entries, rho.entries) >= 1 - 1e-12
    # the default and weak readouts are far inside the bound
    for coeffs in (DEFAULT_READOUT_COEFFICIENTS, WEAK_CORRELATION_COEFFICIENTS):
        s = np.linalg.svd(tomography_set(build_readout(coeffs)).design[:, 1:], compute_uv=False)
        assert s[0] / s[-1] < 1e-5 * MAX_CONDITION
    # a design above the bound is rejected with its condition number, whether
    # or not it is numerically complete; 1e12 and 1e14 used to exit 0 with a
    # wrong state, 1e-300 with rank 61
    weak_last = [*DEFAULT_READOUT_COEFFICIENTS[:7], 1e-300]
    for coeffs, cond in (([0, 1e8, 1, 1, 1, 1, 1, 1], "1.71e+09"),
                         ([0, 1e14, 1, 1, 1, 1, 1, 1], "1.57e+15"), (weak_last, "")):
        with pytest.raises(IncompleteReadoutError, match=re.escape(f"condition number {cond}")):
            tomography_set(build_readout(coeffs))


def test_simulate_measurements_deterministic(w_rho, tset):
    a = simulate_measurements(w_rho, tset, 0.03, seed=7)
    b = simulate_measurements(w_rho, tset, 0.03, seed=7)
    assert a.shape == (64,) and np.array_equal(a, b)
    c = simulate_measurements(w_rho, tset, 0.0, seed=7)
    assert np.array_equal(c, expectation_values(w_rho, tset))
    # one finite width >= 0; a per-operator vector is not a width
    for sigma in (np.full(64, 0.03), -0.1, float("nan"), float("inf"), True):
        with pytest.raises(ConfigError):
            simulate_measurements(w_rho, tset, sigma, seed=0)


def test_simulate_measurements_noise_statistics(w_rho, tset):
    # ~1e4 records: the sample mean of (noisy - noiseless) is a standard
    # error sigma/100 away from zero; allow five standard errors
    sigma = 0.05
    devs = []
    for seed in range(157):
        noisy = simulate_measurements(w_rho, tset, sigma, seed)
        devs.extend(noisy - expectation_values(w_rho, tset))
    assert len(devs) >= 10**4
    assert abs(np.mean(devs)) < 5 * sigma / 100


def test_linear_inversion_exact_at_zero_noise(tset):
    rng = np.random.default_rng(2)
    for _ in range(5):
        rho = random_density(QUBIT_SPEC_3, rng)
        outcomes = simulate_measurements(rho, tset, 0.0, 0)
        est = linear_inversion(outcomes, tset)
        assert np.abs(est - rho.entries).max() < 1e-10
    mixed = DensityMatrix(np.eye(8) / 8, QUBIT_SPEC_3)
    est = linear_inversion(simulate_measurements(mixed, tset, 0.0, 0), tset)
    assert np.abs(est - np.eye(8) / 8).max() < 1e-10


def test_linear_inversion_noisy_spectrum_goes_negative(w_rho, tset):
    outcomes = simulate_measurements(w_rho, tset, 0.05, seed=3)
    est = linear_inversion(outcomes, tset)
    assert np.linalg.eigvalsh(est).min() < 0.0


def test_linear_inversion_validates_alignment(w_rho, tset):
    outcomes = simulate_measurements(w_rho, tset, 0.0, 0)
    for bad in (outcomes[:10], outcomes.reshape(8, 8), np.append(outcomes, 0.0)):
        with pytest.raises(ConfigError):
            linear_inversion(bad, tset)


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


def test_project_simplex_huge_top_entry():
    # the top entry's support term is exactly 1, but rounds to 0 past ~2^53;
    # the projection used to find an empty support and raise
    lam = np.array([-3.0, 0.25, 1e17, 2.0])
    x, _ = _project_simplex(lam)
    assert x.min() >= 0.0 and x.sum() == 1.0
    assert x[2] == 1.0


def test_mle_project_idempotent(w_rho, tset):
    outcomes = simulate_measurements(w_rho, tset, 0.05, seed=11)
    first = mle_project(linear_inversion(outcomes, tset))
    second = mle_project(first.rho.entries)
    assert np.abs(second.rho.entries - first.rho.entries).max() < 1e-13


def test_mle_project_beats_random_candidates(w_rho, tset):
    rng = np.random.default_rng(13)
    outcomes = simulate_measurements(w_rho, tset, 0.05, seed=17)
    est = linear_inversion(outcomes, tset)
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


def test_reconstruct_rejects_non_finite_outcomes(w_rho, tset):
    # a NaN or inf outcome is malformed input, not an eigensolver failure
    outcomes = simulate_measurements(w_rho, tset, 0.0, 0)
    for bad in (np.nan, np.inf, -np.inf):
        y = outcomes.copy()
        y[5] = bad
        for call in (reconstruct, linear_inversion, records_to_csv):
            with pytest.raises(ConfigError, match="finite"):
                call(y, tset)


def test_mle_project_rejects_non_finite_estimate():
    for bad in (np.nan, np.inf):
        est = np.eye(8, dtype=complex) / 8
        est[2, 2] = bad
        with pytest.raises(NumericalError, match="finite"):
            mle_project(est)
        est = np.eye(8, dtype=complex) / 8
        est[0, 3] = est[3, 0] = bad * 1j  # NaN slips past a Hermiticity test of > 1e-8
        with pytest.raises(NumericalError, match="finite"):
            mle_project(est)


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
    outcomes = simulate_measurements(w_rho, tset, 0.0, 0)
    res = reconstruct(outcomes, tset)
    assert np.abs(pauli_set(res.rho) - pauli_set(w_rho)).max() < 1e-9


def test_monte_carlo_fidelity_at_sigma_002(w_rho, tset):
    target = W_PAPER
    fids = [
        fidelity(reconstruct(simulate_measurements(w_rho, tset, 0.02, seed), tset).rho, target)
        for seed in range(100)
    ]
    assert np.mean(fids) > 0.95


def test_end_to_end_random_states_small_noise(tset):
    rng = np.random.default_rng(21)
    for trial in range(6):
        rho = random_density(QUBIT_SPEC_3, rng)
        outcomes = simulate_measurements(rho, tset, 1e-3, seed=trial)
        res = reconstruct(outcomes, tset)
        assert uhlmann_fidelity(rho.entries, res.rho.entries) > 0.999


def test_noise_monotonicity(w_rho, tset):
    target = W_PAPER
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
    outcomes = simulate_measurements(w_rho, tset, 0.01, seed=9)
    text = records_to_csv(outcomes, tset)
    back = records_from_csv(text, tset)
    assert np.allclose(back, outcomes, atol=1e-10)
    # rows are matched by label, not by position: a shuffled file is the same record
    header, *rows = text.strip().split("\n")
    order = np.random.default_rng(0).permutation(len(rows))
    shuffled = records_from_csv("\n".join([header] + [rows[i] for i in order]) + "\n", tset)
    assert not np.array_equal(order, np.arange(len(rows)))
    assert np.array_equal(shuffled, back)
    assert np.array_equal(reconstruct(shuffled, tset).rho.entries, reconstruct(back, tset).rho.entries)


def test_records_csv_missing_row(w_rho, tset):
    text = records_to_csv(simulate_measurements(w_rho, tset, 0.0, seed=0), tset)
    truncated = "\n".join(text.strip().split("\n")[:-1]) + "\n"
    with pytest.raises(ConfigError):
        records_from_csv(truncated, tset)
