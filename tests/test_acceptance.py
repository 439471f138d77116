"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""
import time

import numpy as np

from cqedw import analysis, tomography
from cqedw.device import transmon_frequency
from cqedw.dynamics import build_hamiltonian, evolve_unitary
from cqedw.entanglement import (
    GHZ,
    W_PAPER,
    fidelity,
    tangle_quartic,
    three_tangle_mixed,
    witness_value,
)
from cqedw.hilbert import DensityMatrix, HilbertSpec
from cqedw.protocols import (
    apply_phase_correction,
    collective_interaction_time,
    prepare_w_collective,
    prepare_w_sequential,
    rabi_scan,
    sequential_swap_times,
)
from conftest import (
    QUBIT_SPEC_3,
    decomposition_average_tangle,
    equal_coupling_device,
    preset_device,
    pure_density,
    random_density,
    sector_ket,
    single_excitation_oracle,
)


def _ok(n, message):
    print(f"ACCEPTANCE {n:>2} PASS: {message}")


def test_criterion_01_transmon_formula():
    cfg = preset_device()
    quoted = (9.58, 8.65, 8.23)
    worst = 0.0
    for q, ref in zip(cfg.qubits, quoted):
        rel = abs(transmon_frequency(0.0, q) - ref) / ref
        worst = max(worst, rel)
        assert rel < 0.02
    _ok(1, f"transmon maxima within 2% of quoted (worst {worst:.2%}, qubit A)")


def test_criterion_02_vacuum_rabi_n1():
    start = time.time()
    cfg = preset_device()
    tau = np.linspace(0.0, 20e-9, 81)
    trace = rabi_scan(cfg, [0], tau)
    f = analysis.fit_damped_sinusoid(tau, trace.cavity_population).frequency
    assert abs(f - 105.4e6) / 105.4e6 < 0.005
    elapsed = time.time() - start
    assert elapsed < 1.0
    # hardware annotation, not a target: the measured trace oscillated at 112.0 MHz
    _ok(2, f"N=1 fitted f = {f / 1e6:.2f} MHz = 2|g_A|/2pi (hardware quoted 112.0), {elapsed:.2f}s")


def test_criterion_03_sqrt_n_law():
    start = time.time()
    tau = np.linspace(0.0, 20e-9, 81)
    cfg_eq = equal_coupling_device(3, g_over_pi_mhz=100.0)
    freqs = {}
    for n in (1, 2, 3):
        trace = rabi_scan(cfg_eq, list(range(n)), tau)
        freqs[n] = analysis.fit_damped_sinusoid(tau, trace.cavity_population).frequency
    r2 = freqs[2] / freqs[1] / np.sqrt(2)
    r3 = freqs[3] / freqs[1] / np.sqrt(3)
    assert abs(r2 - 1) < 0.005 and abs(r3 - 1) < 0.005

    cfg = preset_device()
    g = cfg.couplings()
    trace = rabi_scan(cfg, [0, 1, 2], tau)
    f3 = analysis.fit_damped_sinusoid(tau, trace.cavity_population).frequency
    expected = 2 * np.sqrt((g**2).sum()) / (2 * np.pi)
    assert abs(f3 - expected) / expected < 0.01
    assert np.isclose(expected / 1e6, 189.3, atol=0.1)
    elapsed = time.time() - start
    assert elapsed < 10.0
    _ok(3, f"f_N/f_1 = sqrt(N) within 0.5%; collective f = {f3 / 1e6:.1f} MHz, {elapsed:.1f}s")


def test_criterion_04_amplitude_law():
    cfg = preset_device()
    g = cfg.couplings()
    g2 = (g**2).sum()
    tau_w = np.pi / (2 * np.sqrt(g2))
    trace = rabi_scan(cfg, [0, 1, 2], [tau_w / 3, tau_w])
    err = np.abs(trace.qubit_populations[-1] - g**2 / g2).max()
    assert err < 1e-3
    _ok(4, f"peak populations = g_j^2/G^2 within {err:.1e} (values {np.round(g**2 / g2, 4)})")


def test_criterion_05_oracle_equivalence():
    worst = 0.0
    for n in (1, 2, 3):
        cfg = preset_device() if n == 3 else equal_coupling_device(n)
        g = cfg.couplings()
        h = build_hamiltonian(cfg, np.zeros(n))
        psi0 = sector_ket(HilbertSpec(n, 1), [], 1)
        times = np.linspace(0.0, 12e-9, 50)
        full = evolve_unitary(psi0, h, times)[:, 1:]  # |e_j,0> and |g...g,1>
        oracle = np.array([single_excitation_oracle(g, np.zeros(n), t) for t in times])
        worst = max(worst, np.abs(full - oracle).max())
    assert worst < 1e-8
    _ok(5, f"sector propagator vs single-excitation oracle max deviation {worst:.1e}")


def test_criterion_06_ideal_w_preparation():
    cfg = preset_device()
    target = W_PAPER
    tau_w = collective_interaction_time(cfg)
    assert np.isclose(tau_w * 1e9, 2.641, atol=0.001)  # hardware quoted 2.9 ns
    taus = np.array(sequential_swap_times(cfg)) * 1e9
    assert np.allclose(taus, [2.725, 2.256, 4.744], atol=0.001)

    f_c = fidelity(apply_phase_correction(prepare_w_collective(cfg), target)[0], target)
    f_s = fidelity(apply_phase_correction(prepare_w_sequential(cfg), target)[0], target)
    assert f_c > 0.999 and f_s > 0.999
    _ok(6, f"ideal W fidelities: collective {f_c:.5f}, sequential {f_s:.5f} (>0.999)")


def test_criterion_07_decoherence_ceilings():
    start = time.time()
    cfg = preset_device()
    target = W_PAPER
    rho_c, _ = apply_phase_correction(prepare_w_collective(cfg, noise=True), target)
    rho_s, _ = apply_phase_correction(prepare_w_sequential(cfg, noise=True), target)
    f_c = fidelity(rho_c, target)
    f_s = fidelity(rho_s, target)
    assert abs(f_c - 0.97) <= 0.03
    assert abs(f_s - 0.93) <= 0.03
    elapsed = time.time() - start
    assert elapsed < 60.0
    _ok(7, f"Lindblad ceilings: collective {f_c:.3f} (0.97+-0.03), sequential {f_s:.3f} "
           f"(0.93+-0.03), {elapsed:.1f}s")


def test_criterion_08_crosstalk_asymmetry():
    cfg = preset_device("paper-crosstalk-2pct")
    target = W_PAPER
    f_c = fidelity(apply_phase_correction(prepare_w_collective(cfg), target)[0], target)
    f_s = fidelity(apply_phase_correction(prepare_w_sequential(cfg), target)[0], target)
    assert f_c < f_s
    # hardware values 78%/91% are annotations only (crosstalk magnitudes unpublished)
    _ok(8, f"crosstalk asymmetry: collective {f_c:.3f} < sequential {f_s:.3f}")


def test_criterion_09_tomography_pipeline():
    target = W_PAPER
    rho_w = pure_density(target)
    tset = tomography.tomography_set(tomography.build_readout(tomography.DEFAULT_READOUT_COEFFICIENTS))

    recs = tomography.simulate_measurements(rho_w, tset, 0.0, 0)
    res0 = tomography.reconstruct(recs, tset)
    assert abs(fidelity(res0.rho, target) - 1.0) < 1e-9

    fids = [
        fidelity(
            tomography.reconstruct(tomography.simulate_measurements(rho_w, tset, 0.02, s), tset).rho,
            target,
        )
        for s in range(100)
    ]
    mean_f = float(np.mean(fids))
    assert mean_f > 0.95

    assert np.linalg.matrix_rank(np.vstack([np.eye(1, 64), tset.design])) == 64

    rng = np.random.default_rng(99)
    worst_margin = np.inf
    for trial in range(20):
        est = random_density(QUBIT_SPEC_3, rng).entries + 0.05 * np.diag(
            rng.standard_normal(8)
        )
        est = 0.5 * (est + est.conj().T)
        est += (1.0 - np.trace(est).real) / 8.0 * np.eye(8)
        result = tomography.mle_project(est)
        again = tomography.mle_project(result.rho.entries)
        assert np.abs(again.rho.entries - result.rho.entries).max() < 1e-12

        g = rng.standard_normal((100_000, 8, 8)) + 1j * rng.standard_normal((100_000, 8, 8))
        cands = np.einsum("kij,klj->kil", g, g.conj())
        cands /= np.trace(cands, axis1=1, axis2=2).real[:, None, None]
        dists = np.linalg.norm(cands - est[None], axis=(1, 2))
        worst_margin = min(worst_margin, float(dists.min() - result.residual_norm))
        assert result.residual_norm <= dists.min() + 1e-12
    _ok(9, f"round trip exact; mean F(sigma=0.02) = {mean_f:.3f} > 0.95; rank 64; projection "
           f"idempotent and beats 2e6 random candidates (min margin {worst_margin:.3f})")


def test_criterion_10_certification_identities():
    target = W_PAPER
    rng = np.random.default_rng(3)
    for _ in range(20):
        rho = random_density(QUBIT_SPEC_3, rng)
        assert abs(witness_value(rho) - (2 / 3 - fidelity(rho, target))) < 1e-14
    assert abs(witness_value(pure_density(target)) + 1 / 3) < 1e-12

    ground = np.zeros(8)
    ground[0] = 1.0
    rho_078 = DensityMatrix(
        0.78 * pure_density(target).entries + 0.22 * np.outer(ground, ground),
        QUBIT_SPEC_3,
    )
    wit = witness_value(rho_078)
    assert abs(wit - (2 / 3 - 0.78)) < 1e-12
    assert wit < 0
    # the quoted -0.12 pairs the identity with the unrounded hardware fidelity
    assert abs(wit - (-0.12)) < 0.01
    _ok(10, f"witness = 2/3 - F to machine precision; witness(W) = -1/3; "
            f"witness(F=0.78) = {wit:.4f} (quoted rounded -0.12)")


def test_criterion_11_tangle():
    ghz = float(tangle_quartic(GHZ))
    w = float(tangle_quartic(W_PAPER))
    assert abs(ghz - 1.0) < 1e-6
    assert w < 1e-10

    # upper bound on constructed mixtures
    rng = np.random.default_rng(5)
    mix = DensityMatrix(
        0.5 * np.outer(GHZ, GHZ.conj()) + 0.5 * np.outer(W_PAPER, W_PAPER.conj()), QUBIT_SPEC_3
    )
    est = three_tangle_mixed(mix, seed=1)
    lam, vec = np.linalg.eigh(mix.entries)
    keep = lam > 1e-10
    wtil = (np.sqrt(lam[keep])[None, :] * vec[:, keep]).T
    for m in (2, 3, 4):
        for _ in range(20):
            v = np.linalg.qr(rng.standard_normal((m, 2)) + 1j * rng.standard_normal((m, 2)))[0]
            assert est.value <= decomposition_average_tangle(v @ wtil) + 1e-8

    cfg = preset_device()
    target = W_PAPER
    noisy, _ = apply_phase_correction(prepare_w_collective(cfg, noise=True), target)
    bound = three_tangle_mixed(noisy, seed=2).value
    assert bound < 0.1  # W-class verdict; hardware estimate was 0.06
    _ok(11, f"tangle(GHZ) = {ghz:.8f}, tangle(W) = {w:.1e}; mixed bound valid; "
            f"noisy collective bound {bound:.4f} < 0.1")


def test_criterion_12_determinism(tmp_path):
    import json

    from cqedw.cli import run

    outputs = []
    for tag in ("first", "second"):
        cfg = {
            "device": "paper-default",
            "experiment": "tomography",
            "output_dir": str(tmp_path / tag),
            "noise": True,
            "seed": 2024,
            "params": {"state": "w_collective", "sigma": 0.02},
        }
        path = tmp_path / f"{tag}.json"
        path.write_text(json.dumps(cfg))
        run(path, quiet=True)
        outputs.append(tmp_path / tag)
    names = ["records.csv", "rho_true.json", "rho_mle.json", "pauli_set.csv", "summary.json"]
    for name in names:
        a = (outputs[0] / name).read_bytes()
        b = (outputs[1] / name).read_bytes()
        assert a == b, f"artifact {name} differs between identical runs"
    _ok(12, f"two identical seeded runs produced bit-identical artifacts ({len(names)} files)")
