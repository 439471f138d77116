import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cqedw
from cqedw import analysis, protocols
from cqedw.entanglement import W_PAPER, fidelity
from cqedw.dynamics import populations
from cqedw.errors import ConfigError
from cqedw.hilbert import DensityMatrix
from cqedw.protocols import (
    PopulationTrace,
    _load,
    _propagate,
    apply_phase_correction,
    collective_interaction_time,
    prepare_w_collective,
    prepare_w_sequential,
    rabi_scan,
    sequential_swap_times,
)
from conftest import QUBIT_SPEC_3, equal_coupling_device, preset_device, pure_density, w_plus


def test_single_photon_durations():
    cfg = preset_device()
    resonant, tau0 = _load(cfg, 0)
    assert resonant == (0,)
    assert np.isclose(tau0, np.pi / (2 * abs(cfg.qubits[0].coupling_g)), rtol=1e-12)
    assert np.isclose(tau0, 4.744e-9, rtol=1e-3)  # = 1 / (2 * 105.4 MHz)


def test_single_photon_transfer_is_complete():
    cfg = preset_device()
    for src in range(3):
        trace = rabi_scan(cfg, [src], [0.0])  # the photon load alone
        assert abs(trace.cavity_population[0] - 1.0) < 1e-6
        assert np.abs(trace.qubit_populations[0]).max() < 1e-6


@pytest.mark.parametrize("noise", [False, True])
def test_single_photon_zero_duration_keeps_qubit_excited(noise):
    # the pi pulse is the schedule's initial state; noisy runs start from its density matrix
    cfg = preset_device()
    q, _, n = populations(_propagate(cfg, 1, [], (1,), noise, [0.0]))
    assert abs(n[0]) < 1e-9 and abs(q[0, 1] - 1.0) < 1e-9


def test_single_photon_full_period_returns_excitation():
    cfg = preset_device()
    g = abs(cfg.qubits[0].coupling_g)
    q, _, n = populations(_propagate(cfg, 0, [], (0,), False, [np.pi / g]))
    assert abs(q[0, 0] - 1.0) < 1e-6 and abs(n[0]) < 1e-6


def test_rabi_scan_single_qubit_cosine_law():
    cfg = preset_device()
    g = abs(cfg.qubits[0].coupling_g)
    tau = np.linspace(0.0, 15e-9, 41)
    trace = rabi_scan(cfg, [0], tau)
    assert np.abs(trace.cavity_population - np.cos(g * tau) ** 2).max() < 1e-9
    assert np.abs(trace.qubit_populations[:, 0] - np.sin(g * tau) ** 2).max() < 1e-9
    # spectators parked at bias stay in the ground state
    assert np.abs(trace.qubit_populations[:, 1:]).max() < 1e-12


def test_rabi_scan_fitted_frequencies():
    cfg = preset_device()
    tau = np.linspace(0.0, 20e-9, 81)
    f1 = analysis.fit_damped_sinusoid(tau, rabi_scan(cfg, [0], tau).cavity_population).frequency
    assert abs(f1 - 105.4e6) / 105.4e6 < 0.005

    g = cfg.couplings()
    f3 = analysis.fit_damped_sinusoid(tau, rabi_scan(cfg, [0, 1, 2], tau).cavity_population).frequency
    f3_expected = 2 * np.sqrt((g**2).sum()) / (2 * np.pi)
    assert abs(f3 - f3_expected) / f3_expected < 0.01
    assert np.isclose(f3_expected, 189.3e6, rtol=1e-3)


def test_rabi_scan_amplitude_law():
    cfg = preset_device()
    g = cfg.couplings()
    g_tot_sq = (g**2).sum()
    tau_w = np.pi / (2 * np.sqrt(g_tot_sq))
    trace = rabi_scan(cfg, [0, 1, 2], [tau_w / 2, tau_w])
    assert np.abs(trace.qubit_populations[-1] - g**2 / g_tot_sq).max() < 1e-3


def test_rabi_scan_antiphase_and_excitation_conservation():
    for n in (1, 2, 3):
        cfg = equal_coupling_device(3) if n < 3 else preset_device()
        tau = np.linspace(0.0, 12e-9, 25)
        trace = rabi_scan(cfg, list(range(n)), tau)
        total = trace.cavity_population + trace.qubit_populations.sum(axis=1)
        assert np.abs(total - 1.0).max() < 1e-9
        # cavity population is the |g...g> population in the one-excitation sector
        assert np.abs(trace.cavity_population - trace.ground_population).max() < 1e-9


def per_point_scan(cfg, part, taus, noise):
    """Rabi scan the long way: one whole load + tau schedule per point."""
    traces = [rabi_scan(cfg, part, [t], noise=noise) for t in taus]
    return [
        np.concatenate([trace.qubit_populations for trace in traces]),
        np.concatenate([trace.ground_population for trace in traces]),
        np.concatenate([trace.cavity_population for trace in traces]),
    ]


@pytest.mark.parametrize(
    "crosstalk, part, noise",
    [
        (0.0, (0, 1, 2), False),
        (0.0, (0, 1, 2), True),
        (0.02, (0, 1), False),
        (0.02, (1, 2), True),
    ],
)
def test_rabi_scan_matches_per_point_schedule(crosstalk, part, noise):
    cfg = preset_device("paper-crosstalk-2pct" if crosstalk else "paper-default")
    taus = np.linspace(0.0, 10e-9, 11)
    trace = rabi_scan(cfg, part, taus, noise=noise)
    q, g, n = per_point_scan(cfg, part, taus, noise)
    assert np.abs(trace.qubit_populations - q).max() <= 1e-12
    assert np.abs(trace.ground_population - g).max() <= 1e-12
    assert np.abs(trace.cavity_population - n).max() <= 1e-12


@pytest.mark.parametrize("noise", [False, True])
def test_rabi_scan_work_does_not_grow_with_points(monkeypatch, noise):
    # one Hamiltonian and one propagator per scan, not one per tau
    import scipy.linalg

    from cqedw import dynamics, protocols

    counts = {}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(protocols, "build_hamiltonian")
    counted(np.linalg, "eigh")
    counted(dynamics, "_hermitian_basis")  # one per noisy schedule or scan
    counted(scipy.linalg, "expm")
    cfg = preset_device()
    seen = []
    for points in (11, 81):
        counts.clear()
        rabi_scan(cfg, (0, 1, 2), np.linspace(0.0, 10e-9, points), noise=noise)
        seen.append(dict(counts))
    assert seen[0] == seen[1]
    assert seen[0]["build_hamiltonian"] == 2  # the photon load, then the scan
    assert set(seen[0]) == ({"build_hamiltonian", "_hermitian_basis", "expm"} if noise
                            else {"build_hamiltonian", "eigh"})


def test_noisy_schedule_builds_one_block_and_checks_each_state_once(monkeypatch):
    # one Hermitian basis per schedule or scan, and every propagated state
    # checked once on the 5-state sector
    from cqedw import dynamics, hilbert

    calls, checked = {}, []

    def counted(name):
        fn = getattr(dynamics, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(dynamics, name, wrapper)

    hilbert_check = hilbert.check_density_stack

    def check(mats):
        checked.append(mats.shape[:2])
        return hilbert_check(mats)

    counted("_hermitian_basis")
    monkeypatch.setattr(dynamics, "check_density_stack", check)
    monkeypatch.setattr(hilbert, "check_density_stack", check)
    cfg = preset_device()
    runs = [
        # (run, expected (states, dim) per check): the propagated states on the
        # sector and the cavity-traced state at 8; the pi-pulsed initial state
        # is built from constants and not checked
        (lambda: prepare_w_sequential(cfg, noise=True), [(3, 5), (1, 8)]),
        (lambda: prepare_w_collective(cfg, noise=True), [(2, 5), (1, 8)]),
        (lambda: rabi_scan(cfg, (0, 1, 2), np.linspace(0.0, 10e-9, 21), noise=True), [(22, 5)]),
    ]
    for run, expected in runs:
        calls.clear()
        checked.clear()
        run()
        assert calls == {"_hermitian_basis": 1}
        assert checked == expected


def test_ideal_preparation_checks_each_ket_once(monkeypatch):
    # the ket after each segment is checked once, on the 5-state sector, and the
    # only density check is the cavity-traced state's, at 8 x 8; the pi-pulsed
    # ket is built from constants and not checked.  A noisy run checks no ket:
    # one stack holds the state after every segment on the sector, then the
    # 8 x 8 state.
    from cqedw import dynamics, hilbert

    kets, densities = [], []
    ket_check, density_check = hilbert.check_ket_stack, hilbert.check_density_stack

    def check_ket(amps):
        kets.append(amps.shape)
        return ket_check(amps)

    def check_density(mats):
        densities.append(mats.shape)
        return density_check(mats)

    for module in (dynamics, hilbert):
        monkeypatch.setattr(module, "check_ket_stack", check_ket)
        monkeypatch.setattr(module, "check_density_stack", check_density)
    cfg = preset_device()
    for prepare, segments in ((prepare_w_sequential, 3), (prepare_w_collective, 2)):
        kets.clear()
        densities.clear()
        prepare(cfg)
        assert kets == [(1, 5)] * segments
        assert densities == [(1, 8, 8)]
        kets.clear()
        densities.clear()
        prepare(cfg, noise=True)
        assert kets == []
        assert densities == [(segments, 5, 5), (1, 8, 8)]


def test_rabi_scan_validation():
    cfg = preset_device()
    with pytest.raises(ConfigError):
        rabi_scan(cfg, [], [1e-9])
    with pytest.raises(ConfigError):
        rabi_scan(cfg, [0], [])
    with pytest.raises(ConfigError):
        rabi_scan(cfg, [0], [2e-9, 1e-9])
    with pytest.raises(ConfigError):
        rabi_scan(cfg, [5], [1e-9])
    for noise in (False, True):  # negative times used to pass in the ideal mode only
        with pytest.raises(ConfigError):
            rabi_scan(cfg, [0], [-5e-9, 1e-9], noise=noise)


def test_segment_compiles_crosstalk_on_the_commanded_change(monkeypatch):
    # a segment that brings qubit q to resonance commands the change -bias_q on q
    # alone, so the realized detunings are bias - bias_q * X[:, q]
    cfg = preset_device("paper-crosstalk-2pct")
    bias, x = cfg.bias_detunings(), cfg.crosstalk.matrix
    seen = []
    build = protocols.build_hamiltonian

    def recorded(config, detunings, coupled):
        seen.append((np.array(detunings), tuple(coupled)))
        return build(config, detunings, coupled=coupled)

    monkeypatch.setattr(protocols, "build_hamiltonian", recorded)
    prepare_w_sequential(cfg)
    assert [coupled for _, coupled in seen] == [(2,), (1,), (0,)]
    for detunings, (q,) in seen:
        assert np.abs(detunings - (bias - bias[q] * x[:, q])).max() <= 1e-9 * np.abs(bias).max()


def test_sqrt_n_frequency_law():
    # acceptance criterion 3, equal couplings
    cfg = equal_coupling_device(3, g_over_pi_mhz=100.0)
    tau = np.linspace(0.0, 20e-9, 81)
    freqs = {}
    for n in (1, 2, 3):
        trace = rabi_scan(cfg, list(range(n)), tau)
        freqs[n] = analysis.fit_damped_sinusoid(tau, trace.cavity_population).frequency
    assert abs(freqs[2] / freqs[1] - np.sqrt(2)) < 0.005 * np.sqrt(2)
    assert abs(freqs[3] / freqs[1] - np.sqrt(3)) < 0.005 * np.sqrt(3)


def test_collective_interaction_time():
    cfg = preset_device()
    tau_w = collective_interaction_time(cfg)
    g = cfg.couplings()
    assert np.isclose(tau_w, np.pi / (2 * np.sqrt((g**2).sum())), rtol=1e-12)
    assert np.isclose(tau_w, 2.641e-9, rtol=1e-3)


def test_sequential_swap_times():
    cfg = preset_device()
    tau1, tau2, tau3 = sequential_swap_times(cfg)
    g = np.abs(cfg.couplings())
    assert np.isclose(tau1, np.arcsin(np.sqrt(2 / 3)) / g[2], rtol=1e-12)
    assert np.isclose(tau2, np.arcsin(np.sqrt(1 / 2)) / g[1], rtol=1e-12)
    assert np.isclose(tau3, np.arcsin(1.0) / g[0], rtol=1e-12)
    assert np.allclose([tau1, tau2, tau3], [2.725e-9, 2.256e-9, 4.744e-9], rtol=1e-3)


def test_sequential_first_segment_splits_two_thirds():
    cfg = preset_device()
    tau1 = sequential_swap_times(cfg)[0]
    q, _, n = populations(_propagate(cfg, 2, [], (2,), False, [tau1]))
    assert abs(n[0] - 2 / 3) < 1e-6
    assert abs(q[0, 2] - 1 / 3) < 1e-6


def test_ideal_w_preparation_both_protocols():
    # acceptance criterion 6
    cfg = preset_device()
    target = W_PAPER
    rho_c = prepare_w_collective(cfg)
    rho_s = prepare_w_sequential(cfg)
    for rho in (rho_c, rho_s):
        corrected, _ = apply_phase_correction(rho, target)
        assert fidelity(corrected, target) > 0.999

    # sequential leaves the cavity in vacuum
    tau1, tau2, tau3 = sequential_swap_times(cfg)
    final = _propagate(cfg, 2, [((2,), tau1), ((1,), tau2)], (0,), False, [tau3])
    assert populations(final)[2][0] < 1e-6


def test_w_from_equal_couplings_has_plus_signs():
    cfg = equal_coupling_device(3)
    rho = prepare_w_collective(cfg)
    corrected, _ = apply_phase_correction(rho, w_plus())
    assert fidelity(corrected, w_plus()) > 1 - 1e-9


def test_sequential_and_collective_agree_up_to_local_phases():
    cfg = preset_device()
    rho_c = prepare_w_collective(cfg)
    rho_s = prepare_w_sequential(cfg)
    # purify the collective output (ideal run: pure) and use it as target
    lam, vec = np.linalg.eigh(rho_c.entries)
    psi_c = vec[:, -1]
    corrected, _ = apply_phase_correction(rho_s, psi_c)
    assert fidelity(corrected, psi_c) > 0.999


def test_decoherence_ceilings():
    # acceptance criterion 7: Lindblad model on the measured T1/T2/Q
    cfg = preset_device()
    target = W_PAPER
    rho_c, _ = apply_phase_correction(prepare_w_collective(cfg, noise=True), target)
    rho_s, _ = apply_phase_correction(prepare_w_sequential(cfg, noise=True), target)
    f_c = fidelity(rho_c, target)
    f_s = fidelity(rho_s, target)
    assert abs(f_c - 0.97) <= 0.03
    assert abs(f_s - 0.93) <= 0.03
    assert f_c > f_s  # collective exploits the sqrt(N) speedup


def test_crosstalk_asymmetry():
    # acceptance criterion 8: property, not number
    cfg = preset_device("paper-crosstalk-2pct")
    target = W_PAPER
    rho_c, _ = apply_phase_correction(prepare_w_collective(cfg), target)
    rho_s, _ = apply_phase_correction(prepare_w_sequential(cfg), target)
    assert fidelity(rho_c, target) < fidelity(rho_s, target)


def test_phase_correction_identity_case():
    target = W_PAPER
    rho = pure_density(target)
    corrected, angles = apply_phase_correction(rho, target)
    assert fidelity(corrected, target) >= 1 - 1e-9
    assert np.abs(np.exp(1j * angles) - 1.0).max() < 1e-2


def test_phase_correction_inverts_known_rotation():
    target = W_PAPER
    bits = np.array([[(i >> j) & 1 for j in range(3)] for i in range(8)])
    signs = 1.0 - 2.0 * bits
    for phi in (0.4, 1.9, 3.6, 5.6):
        phases = np.exp(0.5j * signs @ np.array([phi, 0.0, 0.0]))
        rot = (phases[:, None] * np.outer(target, target.conj())) * phases.conj()[None, :]
        corrected, _ = apply_phase_correction(DensityMatrix(rot, QUBIT_SPEC_3), target)
        assert abs(fidelity(corrected, target) - 1.0) < 1e-8


def test_phase_correction_cannot_help_maximally_mixed():
    target = W_PAPER
    mixed = DensityMatrix(np.eye(8) / 8, QUBIT_SPEC_3)
    corrected, _ = apply_phase_correction(mixed, target)
    assert abs(fidelity(corrected, target) - 1 / 8) < 1e-12


def test_phase_correction_never_decreases_fidelity():
    rng = np.random.default_rng(5)
    target = W_PAPER
    from conftest import random_density

    for _ in range(5):
        rho = random_density(QUBIT_SPEC_3, rng)
        before = fidelity(rho, target)
        corrected, _ = apply_phase_correction(rho, target)
        assert fidelity(corrected, target) >= before - 1e-12


def test_phase_correction_reaches_dense_grid_optimum():
    # for a single-excitation target the fidelity depends only on the two
    # relative phases, so a 256 x 256 grid over them bounds the optimum below
    from conftest import random_density

    rng = np.random.default_rng(11)
    bits = np.array([[(i >> j) & 1 for j in range(3)] for i in range(8)])
    signs = 1.0 - 2.0 * bits
    grid = np.linspace(0, 2 * np.pi, 256, endpoint=False)
    rel = np.stack(np.meshgrid(grid, grid, indexing="ij"), -1).reshape(-1, 2)
    phases = np.exp(0.5j * (np.column_stack([np.zeros(len(rel)), rel]) @ signs.T))
    for _ in range(10):
        rho = random_density(QUBIT_SPEC_3, rng)
        amps = np.zeros(8, dtype=complex)
        amps[[0b001, 0b010, 0b100]] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        w_class = amps / np.linalg.norm(amps)
        for target in (W_PAPER, w_class):
            v = phases.conj() * target  # Z(phi)^+ |t> for every grid point
            grid_best = np.einsum("ci,ij,cj->c", v.conj(), rho.entries, v).real.max()
            corrected, _ = apply_phase_correction(rho, target)
            assert fidelity(corrected, target) >= grid_best - 1e-12


def test_w_path_leaves_out_scipy_optimize():
    # preparing and phase-correcting a W state needs scipy.linalg, not scipy.optimize
    code = (
        "import sys\n"
        "from cqedw.cli import named_preset\n"
        "from cqedw.entanglement import W_PAPER\n"
        "from cqedw.protocols import apply_phase_correction, prepare_w_collective\n"
        "apply_phase_correction(prepare_w_collective(named_preset('paper-default')), W_PAPER)\n"
        "print('scipy.optimize' in sys.modules)"
    )
    src = str(Path(cqedw.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def test_population_trace_csv_format():
    cfg = preset_device()
    trace = rabi_scan(cfg, [0], np.linspace(0, 5e-9, 9))
    csv = trace.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "time_ns,p_qA,p_qB,p_qC,p_ggg,n_cavity"
    assert len(lines) == 10


def test_population_trace_validation():
    with pytest.raises(ConfigError):
        PopulationTrace(
            times=np.array([0.0, 1e-9]),
            qubit_populations=np.array([[0.5], [1.5]]),
            ground_population=np.array([0.5, 0.5]),
            cavity_population=np.array([0.0, 0.0]),
            qubit_labels=("A",),
        )


def test_schedule_validation():
    cfg = preset_device()
    with pytest.raises(ConfigError):
        prepare_w_collective(equal_coupling_device(2))
    with pytest.raises(ConfigError):
        prepare_w_sequential(equal_coupling_device(2))
    with pytest.raises(ConfigError):
        prepare_w_collective(cfg, source_qubit=9)
    with pytest.raises(ConfigError):
        _load(cfg, 9)
