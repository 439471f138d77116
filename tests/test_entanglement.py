import itertools

import numpy as np
import pytest

from cqedw import entanglement
from cqedw.entanglement import (
    GHZ,
    W_PAPER,
    TangleEstimate,
    certification_report,
    fidelity,
    tangle_quartic,
    three_tangle_mixed,
    uhlmann_fidelity,
    witness_operator,
    witness_value,
)
from cqedw.errors import ConfigError
from cqedw.hilbert import DensityMatrix, HilbertSpec
from cqedw.protocols import apply_phase_correction, prepare_w_collective
from conftest import (
    QUBIT_SPEC_3,
    decomposition_average_tangle,
    preset_device,
    pure_density,
    random_density,
    random_pure,
    random_unitary,
    w_plus,
)
from conftest import tangle_quartic as reference_quartic
from conftest import uhlmann_fidelity as reference_uhlmann


def test_fidelity_examples():
    w = W_PAPER
    assert np.isclose(fidelity(pure_density(w), w), 1.0)
    mixed = DensityMatrix(np.eye(8) / 8, QUBIT_SPEC_3)
    assert np.isclose(fidelity(mixed, w), 1 / 8)


def test_uhlmann_fidelity_rank_deficient():
    rng = np.random.default_rng(8)
    rank2 = random_density(QUBIT_SPEC_3, rng, rank=2)
    assert abs(uhlmann_fidelity(rank2, rank2) - 1.0) < 1e-12
    # a pure argument reduces it to <psi|rho|psi>
    w = W_PAPER
    for rho in (rank2, random_density(QUBIT_SPEC_3, rng)):
        assert abs(uhlmann_fidelity(rho, pure_density(w)) - fidelity(rho, w)) < 1e-12
    for rank in (1, 2, 8):
        a = random_density(QUBIT_SPEC_3, rng, rank=rank)
        b = random_density(QUBIT_SPEC_3, rng, rank=3)
        f = uhlmann_fidelity(a, b)
        assert abs(f - uhlmann_fidelity(b, a)) < 1e-12
        # the reference keeps eigenvalue round-off, whose square roots shift
        # it by ~1e-8 on rank-deficient pairs
        assert abs(f - reference_uhlmann(a.entries, b.entries)) < 1e-7
    # round-off used to give F(rho, rho) up to 1 + 4.4e-15
    for rank in (1, 2, 3):
        for _ in range(50):
            rho = random_density(QUBIT_SPEC_3, rng, rank=rank)
            assert 1 - 1e-12 <= uhlmann_fidelity(rho, rho) <= 1


def test_fidelity_linearity():
    rng = np.random.default_rng(3)
    w = W_PAPER
    r1 = random_density(QUBIT_SPEC_3, rng)
    r2 = random_density(QUBIT_SPEC_3, rng)
    for lam in (0.0, 0.3, 0.71, 1.0):
        mix = DensityMatrix(lam * r1.entries + (1 - lam) * r2.entries, QUBIT_SPEC_3)
        expected = lam * fidelity(r1, w) + (1 - lam) * fidelity(r2, w)
        assert abs(fidelity(mix, w) - expected) < 1e-12


def test_witness_identity_and_values():
    # operator route against the algebraic identity 2/3 - F, machine precision
    rng = np.random.default_rng(1)
    w = W_PAPER
    for _ in range(10):
        rho = random_density(QUBIT_SPEC_3, rng)
        assert abs(witness_value(rho) - (2 / 3 - fidelity(rho, w))) < 1e-14

    assert np.isclose(witness_value(pure_density(w)), -1 / 3, atol=1e-12)
    mixed = DensityMatrix(np.eye(8) / 8, QUBIT_SPEC_3)
    assert np.isclose(witness_value(mixed), 2 / 3 - 1 / 8, atol=1e-12)
    assert np.abs(witness_operator() - witness_operator().conj().T).max() < 1e-14


def test_witness_at_quoted_fidelity():
    # a state with F = 0.78: witness = 2/3 - 0.78 = -0.1133, quoted rounded as -0.12
    w = W_PAPER
    ground = np.zeros(8)
    ground[0] = 1.0
    rho = DensityMatrix(
        0.78 * pure_density(w).entries + 0.22 * np.outer(ground, ground),
        QUBIT_SPEC_3,
    )
    val = witness_value(rho)
    assert abs(val - (2 / 3 - 0.78)) < 1e-12
    assert val < 0
    assert abs(val - (-0.12)) < 0.01


def test_tangle_pure_values():
    assert abs(tangle_quartic(GHZ) - 1.0) < 1e-6
    assert tangle_quartic(W_PAPER) < 1e-10
    assert tangle_quartic(w_plus()) < 1e-10
    product = np.zeros(8, dtype=complex)
    product[0b001] = 1.0  # |g>|g>|e>
    assert tangle_quartic(product) == 0.0


def test_tangle_local_unitary_invariance():
    rng = np.random.default_rng(12)
    for _ in range(6):
        psi = random_pure(QUBIT_SPEC_3, rng)
        base = tangle_quartic(psi)
        u = np.kron(random_unitary(2, rng), np.kron(random_unitary(2, rng), random_unitary(2, rng)))
        rotated = u @ psi
        assert abs(tangle_quartic(rotated) - base) < 1e-8


def test_tangle_permutation_invariance():
    rng = np.random.default_rng(23)
    for _ in range(4):
        psi = random_pure(QUBIT_SPEC_3, rng)
        base = tangle_quartic(psi)
        tensor = psi.reshape(2, 2, 2)
        for perm in itertools.permutations((0, 1, 2)):
            permuted = np.transpose(tensor, perm).reshape(8)
            assert abs(tangle_quartic(permuted) - base) < 1e-10


def test_tangle_mixed_pure_input_matches_pure():
    rng = np.random.default_rng(4)
    for _ in range(3):
        psi = random_pure(QUBIT_SPEC_3, rng)
        pure = tangle_quartic(psi)
        est = three_tangle_mixed(pure_density(psi), restarts=4, budget=100, seed=0)
        assert abs(est.value - pure) < 1e-8


def test_tangle_mixed_two_w_class_states():
    w1 = W_PAPER
    amps = np.zeros(8, dtype=complex)
    amps[[1, 2, 4]] = [0.5, -0.5, np.sqrt(0.5)]
    rho = 0.5 * np.outer(w1, w1.conj()) + 0.5 * np.outer(amps, amps.conj())
    est = three_tangle_mixed(DensityMatrix(rho, QUBIT_SPEC_3), seed=1)
    assert est.value <= 1e-6


def test_tangle_mixed_is_upper_bound():
    rng = np.random.default_rng(7)
    ghz = GHZ
    w = W_PAPER
    rank2 = 0.6 * np.outer(ghz, ghz.conj()) + 0.4 * np.outer(w, w.conj())
    # full rank: the largest isometries of the descent (16 x 8)
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
    # one evaluation per live restart per iteration, summed over the restarts
    assert est.optimizer_iterations == 3
    assert 3 <= est.decomposition_size <= 6
    assert three_tangle_mixed(rho, restarts=3, budget=1, seed=5) == est

    # restarts whose predicted decrease vanishes leave the stack: a rank-2
    # state on the zero set of the roof converges well within the budget
    ghz = GHZ
    w = W_PAPER
    rank2 = DensityMatrix(0.6 * np.outer(ghz, ghz.conj()) + 0.4 * np.outer(w, w.conj()), QUBIT_SPEC_3)
    converged = three_tangle_mixed(rank2, seed=2)
    assert converged.value < 1e-9
    assert converged.optimizer_iterations < entanglement.DEFAULT_RESTARTS * entanglement.DEFAULT_BUDGET / 2

    # the bound is the smallest true average tangle of any evaluated decomposition
    seen = []

    def recording(v, wtil, squared):
        objective, average, grad = roof_objective(v, wtil, squared)
        assert np.allclose(average, decomposition_average_tangle(v @ wtil), rtol=1e-12, atol=1e-15)
        seen.extend(average)
        return objective, average, grad

    roof_objective = entanglement._roof_objective
    monkeypatch.setattr(entanglement, "_roof_objective", recording)
    assert three_tangle_mixed(rho, restarts=3, budget=20, seed=5).value == min(seen)


def test_tangle_mixed_retires_restarts(monkeypatch):
    # after the surrogate phase only the eighth of the restarts with the
    # lowest true average tangle descends; every restart still feeds the bound
    rho = random_density(QUBIT_SPEC_3, np.random.default_rng(9), rank=3)
    restarts, budget = entanglement.DEFAULT_RESTARTS, entanglement.DEFAULT_BUDGET
    calls = []

    def recording(v, wtil, squared):
        out = roof_objective(v, wtil, squared)
        calls.append((v.copy(), squared, out))  # the descent updates its stack in place
        return out

    roof_objective = entanglement._roof_objective
    monkeypatch.setattr(entanglement, "_roof_objective", recording)
    est = three_tangle_mixed(rho, seed=5)
    # the switch is the one evaluation of every restart on the true objective
    switch = [i for i, (v, sq, _) in enumerate(calls) if len(v) == restarts and not sq.any()]
    assert len(switch) == 1 and 1 < switch[0] < len(calls) - 1
    assert all(len(v) <= restarts // 8 for v, _, _ in calls[switch[0] + 1:])
    v, _, (_, tau, g) = calls[switch[0]]
    kept = np.sort(np.argsort(tau, kind="stable")[:restarts // 8])
    assert tau[kept].max() <= np.delete(tau, kept).min()
    # the first trial of the kept restarts is the unit step from where they stood
    np.testing.assert_allclose(calls[switch[0] + 1][0], entanglement._retract(v[kept] - g[kept]),
                               rtol=0.0, atol=1e-12)
    early = 3 * budget // 8
    assert est.optimizer_iterations <= restarts * early + restarts // 8 * (budget - early)
    assert est.value == min(min(out[1]) for _, _, out in calls)


def test_tangle_mixed_on_benchmark_certify_inputs():
    # the three states of the certify benchmark at workload seed 1, built
    # here, with their verdicts and bounds; the bounds may not rise
    w = pure_density(W_PAPER).entries
    ghz = pure_density(GHZ).entries
    rng = np.random.default_rng(1)
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    mixed = g @ g.conj().T
    fixed = np.random.default_rng(0)
    psi = fixed.standard_normal(8) + 1j * fixed.standard_normal(8)
    psi /= np.linalg.norm(psi)
    cases = (
        (0.9 * w + 0.1 * mixed / np.trace(mixed).real, "W_class", 7.354162e-8),
        (0.9 * w + 0.1 * np.outer(psi, psi.conj()), "W_class", 4.484264e-4),
        (0.9 * ghz + 0.1 * w, "GHZ_class", 0.7302008),
    )
    for rho, verdict, bound in cases:
        report = certification_report(DensityMatrix(0.5 * (rho + rho.conj().T), QUBIT_SPEC_3))
        assert report["classification"] == verdict
        assert report["tangle_bound"] <= bound

    noisy, _ = apply_phase_correction(prepare_w_collective(preset_device(), noise=True),
                                      W_PAPER)
    assert three_tangle_mixed(noisy, seed=3).value == 0.0


def test_tangle_mixed_exactly_zero_on_single_excitation_support():
    # every pure state in span{|000>, |001>, |010>, |100>} has zero tangle;
    # rho_kk = 0 on the other basis states puts them in rho's kernel, so each
    # decomposition vector vanishes there exactly and the bound is exactly 0
    support = np.ix_([0, 1, 2, 4], [0, 1, 2, 4])
    for seed in range(12):
        rho = np.zeros((8, 8), dtype=complex)
        rho[support] = random_density(HilbertSpec(2, 0), np.random.default_rng(seed)).entries
        assert three_tangle_mixed(DensityMatrix(rho, QUBIT_SPEC_3)).value == 0.0


def ghz_w_roof(p: float) -> float:
    """Exact convex-roof tangle of p GHZ + (1 - p) W (Lohmayer, Osterloh,
    Siewert, Uhlmann, PRL 97, 260502 (2006))."""
    p0 = 4 * 2 ** (1 / 3) / (3 + 4 * 2 ** (1 / 3))
    p1 = 0.5 + 3 * np.sqrt(465) / 310

    def curved(q):
        return q * q - 8 * np.sqrt(6) / 9 * np.sqrt(q * (1 - q) ** 3)

    if p <= p0:
        return 0.0
    if p <= p1:
        return curved(p)
    return curved(p1) + (p - p1) * (1 - curved(p1)) / (1 - p1)


def test_ghz_w_roof_closed_form():
    # the values quoted for the closed form, and its continuity at p0, p1 and 1
    for p, value in ((0.65, 0.059019), (0.7, 0.190667), (0.9, 0.730201)):
        assert abs(ghz_w_roof(p) - value) < 1e-6
    p0 = 4 * 2 ** (1 / 3) / (3 + 4 * 2 ** (1 / 3))
    assert abs(ghz_w_roof(p0 + 1e-12)) < 1e-9
    assert ghz_w_roof(1.0) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("p", [0.2, 0.3, 0.4, 0.5, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95])
def test_tangle_mixed_matches_ghz_w_roof(p):
    # GHZ and W_paper are locally equivalent to the pair of the closed form:
    # phases exp(-i pi/3) on qubits A and B and exp(2i pi/3) on C map them to
    # (|000> + |111>)/sqrt2 and a global phase times (|001> + |010> + |100>)/sqrt3
    ghz = GHZ
    w = W_PAPER
    rho = DensityMatrix(p * np.outer(ghz, ghz.conj()) + (1 - p) * np.outer(w, w.conj()), QUBIT_SPEC_3)
    gap = three_tangle_mixed(rho, seed=0).value - ghz_w_roof(p)
    assert -1e-9 <= gap <= 1e-4


def test_roof_gradients_match_central_differences():
    rng = np.random.default_rng(41)
    # dDet/da of the hyperdeterminant, a holomorphic quartic
    a = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    ddet = entanglement._hyperdet(a)[1]
    h = 1e-6
    for k in range(8):
        e = np.zeros(8)
        e[k] = h
        numeric = (entanglement._hyperdet(a + e)[0] - entanglement._hyperdet(a - e)[0]) / (2 * h)
        assert abs(numeric - ddet[k]) <= 1e-6 * abs(ddet[k])

    # retracting an isometry, of either sign, returns it: the column phases
    # make diag(R) > 0, so no column of the decomposition flips
    r = 3
    v = entanglement._retract(rng.standard_normal((4, 6, r)) + 1j * rng.standard_normal((4, 6, r)))
    assert np.allclose(entanglement._retract(v), v, atol=1e-12)
    assert np.allclose(entanglement._retract(-v), -v, atol=1e-12)

    # the Riemannian gradient of both objectives along tangent directions
    wtil = rng.standard_normal((r, 8)) + 1j * rng.standard_normal((r, 8))
    wtil /= np.linalg.norm(wtil)
    squared = np.array([True, False, True, False])
    _, _, grad = entanglement._roof_objective(v, wtil, squared)
    for _ in range(3):
        z = rng.standard_normal(v.shape) + 1j * rng.standard_normal(v.shape)
        vz = np.swapaxes(v.conj(), -1, -2) @ z
        z -= v @ (0.5 * (vz + np.swapaxes(vz.conj(), -1, -2)))
        plus = entanglement._roof_objective(v + h * z, wtil, squared)[0]
        minus = entanglement._roof_objective(v - h * z, wtil, squared)[0]
        numeric = (plus - minus) / (2 * h)
        analytic = np.sum(grad.real * z.real + grad.imag * z.imag, axis=(-2, -1))
        assert np.all(np.abs(numeric - analytic) <= 1e-6 * np.abs(analytic))


def test_roof_objective_paths_agree():
    # the rows of all restarts share one flat kernel: a stack that mixes
    # surrogate and true restarts gives each restart what it gets alone, and
    # the path without surrogate arithmetic gives the mixed stack's true rows
    rng = np.random.default_rng(43)
    r = 3
    v = entanglement._retract(rng.standard_normal((6, 2 * r, r)) + 1j * rng.standard_normal((6, 2 * r, r)))
    wtil = rng.standard_normal((r, 8)) + 1j * rng.standard_normal((r, 8))
    wtil /= np.linalg.norm(wtil)
    squared = np.array([True, False, False, True, True, False])
    mixed = entanglement._roof_objective(v, wtil, squared)
    for i in range(v.shape[0]):
        alone = entanglement._roof_objective(v[i:i + 1], wtil, squared[i:i + 1])
        for got, want in zip(alone, mixed):
            np.testing.assert_allclose(got[0], want[i], rtol=1e-12, atol=0.0)
    true = entanglement._roof_objective(v, wtil, np.zeros(v.shape[0], dtype=bool))
    for got, want in zip(true, mixed):
        np.testing.assert_allclose(got[~squared], want[~squared], rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(true[1], mixed[1], rtol=1e-12, atol=0.0)


def test_tangle_mixed_on_noisy_collective_state():
    cfg = preset_device()
    target = W_PAPER
    rho, _ = apply_phase_correction(prepare_w_collective(cfg, noise=True), target)
    est = three_tangle_mixed(rho, seed=3)
    assert est.value < 0.1
    assert certification_report(rho, seed=3)["classification"] == "W_class"


def test_classification():
    def verdict(rho):
        return certification_report(rho, seed=0)["classification"]

    assert verdict(pure_density(W_PAPER)) == "W_class"
    assert verdict(pure_density(GHZ)) == "GHZ_class"
    assert verdict(DensityMatrix(np.eye(8) / 8, QUBIT_SPEC_3)) == "inconclusive"


def test_certification_report_shape():
    report = certification_report(pure_density(W_PAPER), seed=0)
    assert set(report) == {"fidelity", "witness", "tangle_bound", "classification", "optimizer_stats"}
    assert report["classification"] == "W_class"
    # the descent's fixed settings are recorded, so certification.json keeps its keys
    assert report["optimizer_stats"] == {"kind": "mixed_upper_bound", "decomposition_size": 1,
                                         "iterations": 0, "restarts": 64, "budget": 400, "seed": 0}
    assert np.isclose(report["fidelity"], 1.0)
    assert np.isclose(report["witness"], -1 / 3)


def test_tangle_estimate_validation():
    with pytest.raises(ConfigError):
        TangleEstimate(1.5, 1, 0)


def test_dimension_checks():
    big = HilbertSpec(num_qubits=3, photon_cutoff=1)
    rng = np.random.default_rng(0)
    rho16 = random_density(big, rng)
    with pytest.raises(ConfigError):
        witness_value(rho16)
    # a cavity-free 4-qubit state against a target of the wrong length
    rho4 = random_density(HilbertSpec(num_qubits=4, photon_cutoff=0), rng)
    for target in (W_PAPER, np.ones(32) / np.sqrt(32)):
        with pytest.raises(ConfigError, match="target shape"):
            fidelity(rho4, target)
        with pytest.raises(ConfigError, match="target shape"):
            apply_phase_correction(rho4, target)


def test_targets_are_readonly_unit_vectors():
    for target in (W_PAPER, GHZ):
        assert target.shape == (8,)
        assert abs(np.linalg.norm(target) - 1.0) < 1e-15
        with pytest.raises(ValueError):
            target[0] = 1.0


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
