import itertools

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from cqedw import protocols
from cqedw.cli import PRESETS, named_preset
from cqedw.device import decoherence_rates
from cqedw.dynamics import (
    _hermitian_basis,
    _lindblad_generator,
    build_hamiltonian,
    collapse_operators,
    evolve_lindblad,
    evolve_unitary,
    pi_pulsed,
    populations,
)
from cqedw.errors import ConfigError, NumericalError
from cqedw.hilbert import SIGMA_Z, HilbertSpec, qubit_rotation
from conftest import (
    PROJ_EXCITED,
    PROJ_GROUND,
    SIGMA_MINUS,
    SIGMA_PLUS,
    basis_ket,
    cavity_annihilation,
    cavity_number,
    embed_qubit_operator,
    equal_coupling_device,
    expectation,
    preset_device,
    projector,
    restrict,
    sector_indices,
    sector_ket,
    single_excitation_oracle,
    zero_padded,
)

ONE_EXCITATION = slice(1, None)  # sector positions of |e_j,0> and |g...g,1>


def excitation_number(spec):
    """Full-space reference a^dag a + sum_j (sigma_z_j + 1) / 2."""
    n_exc = cavity_number(spec).copy()
    for j in range(spec.num_qubits):
        n_exc += (embed_qubit_operator(SIGMA_Z, j, spec) + np.eye(spec.dim)) / 2
    return n_exc


def rk4_lindblad(rho, h, collapse, t, dt):
    """Fixed-step RK4 on the Lindblad equation, an independent reference."""
    acc = sum((l.conj().T @ l for l in collapse), np.zeros_like(h))

    def rhs(r):
        out = -1j * (h @ r - r @ h) - 0.5 * (acc @ r + r @ acc)
        for l in collapse:
            out = out + l @ r @ l.conj().T
        return out

    steps = int(np.ceil(t / dt))
    step = t / steps
    for _ in range(steps):
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * step * k1)
        k3 = rhs(rho + 0.5 * step * k2)
        k4 = rhs(rho + step * k3)
        rho = rho + (step / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    return rho


def full_space_expm(rho, h, collapse, t):
    """expm of the unrestricted row-major Lindblad generator (d^2 x d^2)."""
    eye = np.eye(h.shape[0])
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for l in collapse:
        d = l.conj().T @ l
        gen += np.kron(l, l.conj()) - 0.5 * (np.kron(d, eye) + np.kron(eye, d.T))
    return (scipy.linalg.expm(gen * t) @ rho.reshape(-1)).reshape(rho.shape)


def kron_hamiltonian(cfg, detunings, coupled=None):
    """Full-space H/hbar summed term by term from the Kronecker references (qubit 0 fastest)."""
    spec = cfg.spec
    a = cavity_annihilation(spec)
    h = np.zeros((spec.dim, spec.dim), dtype=complex)
    for j, q in enumerate(cfg.qubits):
        h = h + 0.5 * detunings[j] * embed_qubit_operator(SIGMA_Z, j, spec)
        if coupled is None or j in coupled:
            exchange = (a.conj().T @ embed_qubit_operator(SIGMA_MINUS, j, spec)
                        + embed_qubit_operator(SIGMA_PLUS, j, spec) @ a)
            h = h + q.coupling_g * exchange
    return h


def kron_collapse(cfg):
    """Full-space jump operators: per qubit relaxation then dephasing, cavity loss last."""
    spec = cfg.spec
    ops = []
    for j, q in enumerate(cfg.qubits):
        rates = decoherence_rates(q, cfg.resonator)
        ops.append(np.sqrt(rates.gamma1) * embed_qubit_operator(SIGMA_MINUS, j, spec))
        ops.append(np.sqrt(rates.gamma_phi / 2) * embed_qubit_operator(SIGMA_Z, j, spec))
    kappa = decoherence_rates(cfg.qubits[0], cfg.resonator).kappa
    ops.append(np.sqrt(kappa) * cavity_annihilation(spec))
    return np.array(ops)


def subsets(n):
    return [c for k in range(n + 1) for c in itertools.combinations(range(n), k)]


def test_build_hamiltonian_matches_kron_reference():
    # bit for bit the full-space Kronecker sum restricted to (0, 2^j, 2^N), for
    # every coupled subset, at two cutoffs and on seeded detunings
    rng = np.random.default_rng(4)
    for cutoff in (1, 2):
        cfg = preset_device(photon_cutoff=cutoff)
        for detunings in ([1e8, -2e8, 3e8], 2 * np.pi * 1e8 * rng.standard_normal(3)):
            for coupled in [None, *subsets(3)]:
                h = build_hamiltonian(cfg, detunings, coupled=coupled)
                ref = kron_hamiltonian(cfg, detunings, coupled)
                assert h.shape == (5, 5) and not h.flags.writeable
                assert np.array_equal(h, restrict(ref, cfg.spec)), (cutoff, coupled)
                assert np.abs(h - h.conj().T).max() == 0.0


def test_sector_is_invariant_under_every_operator():
    # no full-space H, L_k or L_k^+ L_k has an entry from a sector column into a
    # row outside the sector, so the sector's span holds every propagated state
    rng = np.random.default_rng(9)
    for cutoff in (1, 2, 3):
        for n in (1, 2, 3):
            cfg = preset_device(photon_cutoff=cutoff) if n == 3 else equal_coupling_device(n, photon_cutoff=cutoff)
            inside = np.zeros(cfg.spec.dim, dtype=bool)
            inside[sector_indices(cfg.spec)] = True
            cs = kron_collapse(cfg)
            ops = [*cs, *(c.conj().T @ c for c in cs)]
            for coupled in subsets(n):
                ops.append(kron_hamiltonian(cfg, 2 * np.pi * 1e8 * rng.standard_normal(n), coupled))
            for op in ops:
                assert not op[np.ix_(~inside, inside)].any(), (cutoff, n)


def test_sector_requires_a_photon():
    cfg = preset_device(photon_cutoff=0)
    for build in (lambda: build_hamiltonian(cfg, [0.0] * 3), lambda: collapse_operators(cfg),
                  lambda: pi_pulsed(cfg.spec, 0)):
        with pytest.raises(ConfigError, match="photon cutoff"):
            build()


def test_nonfinite_detuning_names_its_qubit():
    cfg = preset_device()
    for detunings, named in (([0.0, np.inf, 0.0], "B"), ([np.nan, 0.0, -np.inf], "A, C")):
        with pytest.raises(ConfigError, match=f"qubit {named}: detuning is not finite"):
            build_hamiltonian(cfg, detunings)


def test_pi_pulsed_is_the_restricted_full_space_pulse():
    for cutoff in (1, 2):
        spec = preset_device(photon_cutoff=cutoff).spec
        for q in range(3):
            column = embed_qubit_operator(qubit_rotation("x", np.pi), q, spec)[:, 0]
            psi = pi_pulsed(spec, q)
            assert np.array_equal(psi, column[sector_indices(spec)])
            assert np.abs(column).sum() - np.abs(psi).sum() == 0.0  # nothing outside the sector
        for q in (-1, 3):  # would land on |g...g,1> or |e_C,0>
            with pytest.raises(ConfigError, match="out of range"):
                pi_pulsed(spec, q)


def test_populations_match_full_space_references():
    spec = preset_device(photon_cutoff=2).spec
    rng = np.random.default_rng(12)
    all_ground = np.eye(spec.dim, dtype=complex)
    for j in range(3):
        all_ground = all_ground @ embed_qubit_operator(PROJ_GROUND, j, spec)
    refs = [embed_qubit_operator(PROJ_EXCITED, j, spec) for j in range(3)]
    refs += [all_ground, cavity_number(spec)]
    kets = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
    kets /= np.linalg.norm(kets, axis=1)[:, None]
    mats = np.array([projector(k) for k in kets])
    full_kets = np.zeros((4, spec.dim), dtype=complex)
    full_kets[:, sector_indices(spec)] = kets
    for stack, full in ((kets, full_kets), (mats, [zero_padded(m, spec) for m in mats])):
        excited, ground, photons = populations(stack)
        got = np.column_stack([excited, ground, photons])
        want = np.array([[expectation(op, f) for op in refs] for f in full])
        assert np.abs(got - want).max() < 1e-15


def test_single_qubit_resonant_eigenvalues():
    cfg = equal_coupling_device(1, g_over_pi_mhz=100.0, photon_cutoff=1)
    h = build_hamiltonian(cfg, [0.0])
    g = cfg.qubits[0].coupling_g
    block = h[ONE_EXCITATION, ONE_EXCITATION]
    assert np.allclose(np.linalg.eigvalsh(block), [-g, g])


def test_three_qubit_resonant_eigenvalues_brute_force():
    cfg = preset_device(photon_cutoff=1)
    h = build_hamiltonian(cfg, [0.0, 0.0, 0.0])
    block = h[ONE_EXCITATION, ONE_EXCITATION]
    eig = np.sort(np.linalg.eigvalsh(block))
    g_tot = np.sqrt((cfg.couplings() ** 2).sum())
    assert np.allclose(eig, [-g_tot, 0.0, 0.0, g_tot], atol=1e-6 * g_tot)


def test_zero_couplings_hamiltonian_diagonal():
    cfg = preset_device(photon_cutoff=1)
    h = build_hamiltonian(cfg, cfg.bias_detunings(), coupled=())
    off = h - np.diag(np.diag(h))
    assert np.abs(off).max() == 0.0


def test_evolve_unitary_basics():
    cfg = equal_coupling_device(1, g_over_pi_mhz=100.0, photon_cutoff=1)
    h = build_hamiltonian(cfg, [0.0])
    psi0 = sector_ket(cfg.spec, [0], 0)
    g = cfg.qubits[0].coupling_g
    t_swap = np.pi / (2 * g)
    stack = evolve_unitary(psi0, h, [0.0, t_swap])
    assert stack.shape == (2, 3)
    assert np.array_equal(stack[0], psi0)  # a zero time returns psi unchanged
    target = -1j * sector_ket(cfg.spec, [], 1)
    assert np.abs(stack[1] - target).max() < 1e-10

    back = evolve_unitary(stack[1], h, [-t_swap])[0]
    assert np.abs(back - psi0).max() < 1e-10


def test_evolve_unitary_rejects_non_hermitian():
    spec = HilbertSpec(1, 1)
    bad = np.zeros((4, 4), dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(NumericalError):
        evolve_unitary(basis_ket(spec, [], 0), bad, [1e-9])


def test_collapse_operators_stack_order_and_rates():
    # bit for bit the full-space references restricted to the sector
    for cutoff in (1, 2):
        cfg = preset_device(photon_cutoff=cutoff)
        cs = collapse_operators(cfg)
        assert cs.shape == (2 * 3 + 1, 5, 5)
        assert not cs.flags.writeable
        assert np.array_equal(cs, restrict(kron_collapse(cfg), cfg.spec))


def test_lindblad_closed_system_matches_unitary():
    cfg = preset_device(photon_cutoff=1)
    h = build_hamiltonian(cfg, [0.0, 0.0, 0.0])
    psi0 = sector_ket(cfg.spec, [], 1)
    rho = evolve_lindblad(projector(psi0), [], h, [], [3e-9])
    psi = evolve_unitary(psi0, h, [3e-9])
    assert rho.shape == (1, 5, 5)
    assert np.abs(rho[0] - np.outer(psi[0], psi[0].conj())).max() < 1e-8


def test_lindblad_t1_only_exponential_decay():
    cfg = equal_coupling_device(1, photon_cutoff=1)
    h = np.zeros((3, 3), dtype=complex)
    t1 = cfg.qubits[0].t1
    channel = collapse_operators(cfg)[:1]  # qubit 0's relaxation
    rho0 = projector(sector_ket(cfg.spec, [0], 0))
    t = 300e-9
    rho = evolve_lindblad(rho0, [], h, channel, [t])
    p_e = populations(rho)[0][0, 0]
    assert abs(p_e - np.exp(-t / t1)) < 1e-12


def test_lindblad_w_sequential_matches_fine_step_rk4(monkeypatch):
    # parked qubits turn by ~0.13 rad per 10 ps step, so RK4 needs dt = 2.5 ps
    # to come within 1e-6 of the exact propagator
    cfg = preset_device()
    exact = protocols.prepare_w_sequential(cfg, noise=True).entries

    def rk4_stack(r, before, h, collapse, times):
        for h_j, t in before:
            r = rk4_lindblad(r, h_j, collapse, t, 2.5e-12)
        return np.array([rk4_lindblad(r, h, collapse, t, 2.5e-12) for t in times])

    monkeypatch.setattr(protocols, "evolve_lindblad", rk4_stack)
    reference = protocols.prepare_w_sequential(cfg, noise=True).entries
    assert np.abs(exact - reference).max() < 2e-6


def test_lindblad_restricted_matches_full_space_expm(monkeypatch):
    cfg = preset_device(photon_cutoff=2)
    spec = cfg.spec
    detunings = 2 * np.pi * np.array([30e6, -45e6, 10e6])
    h_full, cs_full = kron_hamiltonian(cfg, detunings), kron_collapse(cfg)
    t = 50e-9
    # the generic propagator on the full-space references, from full support
    mixed = np.eye(spec.dim, dtype=complex) / spec.dim
    out = evolve_lindblad(mixed, [], h_full, cs_full, [t])[0]
    assert np.abs(out - full_space_expm(mixed, h_full, cs_full, t)).max() < 1e-12
    assert abs(np.trace(out).real - 1.0) < 1e-12
    # |ggg,1> on the sector against the full space, which stays zero outside it
    start = sector_ket(spec, [], 1)
    out = evolve_lindblad(projector(start), [], build_hamiltonian(cfg, detunings),
                          collapse_operators(cfg), [t])[0]
    ref = full_space_expm(projector(basis_ket(spec, [], 1)), h_full, cs_full, t)
    assert np.abs(zero_padded(out, spec) - ref).max() < 1e-12
    # both multi-segment W preparations, each propagated on the 5-state sector,
    # against every segment taken in turn on the full 24-state space, built from
    # the detunings and coupled set that each segment asked for
    seen = []
    build = protocols.build_hamiltonian

    def recorded(config, detunings, coupled):
        seen.append((np.array(detunings), tuple(coupled)))
        return build(config, detunings, coupled=coupled)

    monkeypatch.setattr(protocols, "build_hamiltonian", recorded)
    for preset in ("paper-default", "paper-crosstalk-2pct"):
        cfg = named_preset(preset)
        cs_full = kron_collapse(cfg)
        collective = [protocols._load(cfg, 2), ((0, 1, 2), protocols.collective_interaction_time(cfg))]
        sequential = list(zip(((2,), (1,), (0,)), protocols.sequential_swap_times(cfg)))
        for segments in (collective, sequential):
            *before, (resonant, duration) = segments
            seen.clear()
            out = protocols._propagate(cfg, 2, before, resonant, True, [duration])[0]
            ref = projector(embed_qubit_operator(qubit_rotation("x", np.pi), 2, cfg.spec)[:, 0])
            for (detunings, coupled), (_, t) in zip(seen, segments):
                ref = full_space_expm(ref, kron_hamiltonian(cfg, detunings, coupled), cs_full, t)
            assert len(seen) == len(segments)
            assert np.abs(zero_padded(out, cfg.spec) - ref).max() < 1e-12, preset


@pytest.mark.parametrize("n", [1, 2, 5, 24])
def test_hermitian_basis_orthonormal_and_round_trips(n):
    b = _hermitian_basis(n)
    assert np.abs(b.conj().T @ b - np.eye(n * n)).max() <= 1e-15
    rng = np.random.default_rng(n)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = g + g.conj().T
    coords = b.conj().T @ a.reshape(-1)
    assert np.abs(coords.imag).max() <= 1e-15 * np.abs(a).max()
    assert np.abs((b @ coords.real).reshape(n, n) - a).max() <= 1e-15 * np.abs(a).max()


def test_lindblad_positivity():
    cfg = preset_device(photon_cutoff=1)
    h = build_hamiltonian(cfg, [0.0, 0.0, 0.0])
    cs = collapse_operators(cfg)
    rho0 = projector(sector_ket(cfg.spec, [2], 0))
    stack = evolve_lindblad(rho0, [], h, cs, 5e-9 * np.arange(1, 5))
    assert np.linalg.eigvalsh(stack).min() >= -1e-7


def test_lindblad_rejects_bad_inputs():
    cfg = preset_device(photon_cutoff=1)
    h = build_hamiltonian(cfg, [0.0, 0.0, 0.0])
    rho0 = projector(sector_ket(cfg.spec, [], 0))
    with pytest.raises(ConfigError):
        evolve_lindblad(rho0, [], h, [], [0.0, -1e-9])
    with pytest.raises(ConfigError):  # a segment run before the last one
        evolve_lindblad(rho0, [(h, -1e-9)], h, [], [1e-9])
    bad = h.copy()
    bad[0, 1] += 1e6
    with pytest.raises(NumericalError):
        evolve_lindblad(rho0, [], bad, [], [1e-9])
    with pytest.raises(NumericalError):
        evolve_lindblad(rho0, [(bad, 1e-9)], h, [], [1e-9])


def test_oracle_amplitudes_at_factorization_time():
    cfg = preset_device()
    g = cfg.couplings()
    g_tot = np.sqrt((g**2).sum())
    tau_w = np.pi / (2 * g_tot)
    amps = single_excitation_oracle(g, np.zeros(3), tau_w)
    assert abs(amps[3]) < 1e-12  # cavity empty
    assert np.allclose(np.abs(amps[:3]) ** 2, g**2 / g_tot**2, atol=1e-12)
    # qubit A (negative coupling) carries the opposite phase
    phases = np.angle(amps[:3])
    assert np.isclose(abs(phases[0] - phases[1]), np.pi, atol=1e-9)
    assert np.isclose(phases[1], phases[2], atol=1e-9)


def test_oracle_detuned_single_qubit_against_2x2_eigensolve():
    g = np.array([np.pi * 100e6])
    delta = np.array([2 * np.pi * 60e6])
    # independent 2x2 block solve (absolute rotating-frame energies)
    shift = delta[0] / 2
    block = np.array([[delta[0] - shift, g[0]], [g[0], -shift]])
    w, v = np.linalg.eigh(block)
    for t in np.linspace(0, 15e-9, 40):
        ref = v @ (np.exp(-1j * w * t) * (v.conj().T @ np.array([0.0, 1.0])))
        amps = single_excitation_oracle(g, delta, t)
        assert np.abs(amps - ref).max() < 1e-10
    # population oscillates at Omega = 2 sqrt(g^2 + (delta/2)^2): period check
    omega = 2 * np.sqrt(g[0] ** 2 + (delta[0] / 2) ** 2)
    period = 2 * np.pi / omega
    p0 = np.abs(single_excitation_oracle(g, delta, 1e-9)[0]) ** 2
    p1 = np.abs(single_excitation_oracle(g, delta, 1e-9 + period)[0]) ** 2
    assert abs(p0 - p1) < 1e-9


def test_oracle_equivalence_full_space():
    # acceptance criterion 5: the sector propagator, and the full-space reference
    # Hamiltonian's propagator, against the small-block oracle, N = 1..3
    for n in (1, 2, 3):
        cfg = preset_device(photon_cutoff=2) if n == 3 else equal_coupling_device(n, photon_cutoff=2)
        g = cfg.couplings()
        detunings = np.zeros(n)
        times = np.linspace(0.0, 12e-9, 50)
        oracle = np.array([single_excitation_oracle(g, detunings, t) for t in times])
        sector = evolve_unitary(sector_ket(cfg.spec, [], 1), build_hamiltonian(cfg, detunings), times)
        full = evolve_unitary(basis_ket(cfg.spec, [], 1), kron_hamiltonian(cfg, detunings), times)
        for amps in (sector[:, ONE_EXCITATION], full[:, sector_indices(cfg.spec)[1:]]):
            worst = np.abs(amps - oracle).max()
            assert worst < 1e-8, f"N={n}: {worst}"


def test_oracle_equivalence_with_detunings():
    cfg = preset_device(photon_cutoff=1)
    g = cfg.couplings()
    detunings = 2 * np.pi * np.array([30e6, -45e6, 10e6])
    h = build_hamiltonian(cfg, detunings)
    psi0 = sector_ket(cfg.spec, [], 1)
    times = np.linspace(0.0, 10e-9, 25)
    sector = evolve_unitary(psi0, h, times)[:, ONE_EXCITATION]
    oracle = np.array([single_excitation_oracle(g, detunings, t) for t in times])
    assert np.abs(sector - oracle).max() < 1e-8


def test_dark_state_is_stationary():
    cfg = preset_device(photon_cutoff=1)
    g = cfg.couplings()
    # c with sum_j g_j c_j = 0, no cavity amplitude
    c = np.array([g[1], -g[0], 0.0], dtype=complex)
    c /= np.linalg.norm(c)
    psi0 = np.zeros(5, dtype=complex)
    psi0[1:4] = c  # |e_A,0>, |e_B,0>, |e_C,0>
    h = build_hamiltonian(cfg, np.zeros(3))
    out = evolve_unitary(psi0, h, [7e-9])[0]
    assert np.abs(np.abs(out) ** 2 - np.abs(psi0) ** 2).max() < 1e-9


def test_excitation_conservation():
    cfg = preset_device(photon_cutoff=2)
    spec = cfg.spec
    n_op = restrict(excitation_number(spec), spec)  # diag(0, 1, 1, 1, 1)
    h = build_hamiltonian(cfg, 2 * np.pi * np.array([5e6, -3e6, 1e6]))
    comm = h @ n_op - n_op @ h
    assert np.abs(comm).max() < 1e-9 * np.abs(h).max()

    rng = np.random.default_rng(17)
    psi = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    psi /= np.linalg.norm(psi)
    ref = expectation(n_op, psi)
    vals = [expectation(n_op, p) for p in evolve_unitary(psi, h, np.linspace(0, 8e-9, 20))]
    assert np.abs(np.array(vals) - ref).max() < 1e-9


def test_frame_gauge_invariance():
    # shifting all detunings by c and compensating with c * (a^dag a + sum sz/2)
    # leaves every population unchanged
    cfg = preset_device(photon_cutoff=1)
    spec = cfg.spec
    delta = 2 * np.pi * np.array([12e6, -7e6, 25e6])
    shift = 2 * np.pi * 40e6
    h1 = build_hamiltonian(cfg, delta)
    # working in the frame rotating at omega_r - c: detunings gain c and the
    # cavity term c a^dag a reappears
    h2 = build_hamiltonian(cfg, delta + shift) + shift * restrict(cavity_number(spec), spec)
    psi0 = sector_ket(spec, [], 1)
    times = np.linspace(0, 9e-9, 15)
    p1 = np.abs(evolve_unitary(psi0, h1, times)) ** 2
    p2 = np.abs(evolve_unitary(psi0, h2, times)) ** 2
    assert np.abs(p1 - p2).max() < 1e-9


# -- invariants over random devices --------------------------------------------

mhz = st.floats(20.0, 200.0)
couplings_mhz = st.tuples(mhz, mhz, mhz).map(lambda g: (-g[0], g[1], g[2]))
detunings_mhz = st.tuples(*[st.floats(-100.0, 100.0)] * 3)


def random_device(g_over_pi_mhz):
    qubits = [
        {**q, "g_over_pi_mhz": g} for q, g in zip(PRESETS["paper-default"]["qubits"], g_over_pi_mhz)
    ]
    return preset_device(photon_cutoff=1, qubits=qubits)


@settings(max_examples=20, deadline=None)
@given(
    g=couplings_mhz,
    delta=detunings_mhz,
    amps=st.lists(st.complex_numbers(max_magnitude=1.0), min_size=4, max_size=4),
    boost=st.floats(1.0, 1e3),
)
def test_lindblad_invariants_on_random_devices(g, delta, amps, boost):
    cfg = random_device(g)
    spec = cfg.spec
    vec = np.zeros(5, dtype=complex)
    vec[ONE_EXCITATION] = amps
    if np.linalg.norm(vec) < 1e-3:
        vec[4] = 1.0  # |ggg,1>
    rho = projector(vec / np.linalg.norm(vec))
    h = build_hamiltonian(cfg, 2 * np.pi * 1e6 * np.array(delta))
    # boosted rates make the dissipators visible within a few nanoseconds
    cs = np.sqrt(boost) * collapse_operators(cfg)
    n_op = restrict(excitation_number(spec), spec)
    n_prev = expectation(n_op, rho)
    stack = evolve_lindblad(rho, [], h, cs, 2e-9 * np.arange(1, 5))
    for m in stack:
        n_now = expectation(n_op, m)
        assert abs(np.trace(m).real - 1.0) < 1e-10
        assert np.abs(m - m.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(m).min() >= -1e-10
        assert n_now <= n_prev + 1e-12
        n_prev = n_now


@settings(max_examples=20, deadline=None)
@given(g=couplings_mhz, delta=detunings_mhz, boost=st.floats(1.0, 1e3))
def test_lindblad_generator_real_in_hermitian_basis(g, delta, boost):
    # the devices and boosted rates of the invariants test, on the 5-state
    # sector and on the full 16-state space of the references
    cfg = random_device(g)
    detunings = 2 * np.pi * 1e6 * np.array(delta)
    sector = (build_hamiltonian(cfg, detunings), collapse_operators(cfg))
    full = (kron_hamiltonian(cfg, detunings), kron_collapse(cfg))
    for (h, cs), n in ((sector, 5), (full, cfg.spec.dim)):
        cs = np.sqrt(boost) * cs
        decay = (np.swapaxes(cs.conj(), -1, -2) @ cs).sum(axis=0)
        gen = _lindblad_generator(h, cs, decay)
        b = _hermitian_basis(n)
        assert gen.shape == (n * n, n * n)
        assert np.abs((b.conj().T @ gen @ b).imag).max() <= 1e-12 * np.abs(gen).max()


@settings(max_examples=20, deadline=None)
@given(g=couplings_mhz, delta=detunings_mhz, t_ns=st.floats(0.0, 20.0))
def test_lindblad_closed_system_matches_oracle(g, delta, t_ns):
    cfg = random_device(g)
    detunings = 2 * np.pi * 1e6 * np.array(delta)
    rho0 = projector(sector_ket(cfg.spec, [], 1))
    rho = evolve_lindblad(rho0, [], build_hamiltonian(cfg, detunings), [], [t_ns * 1e-9])[0]
    psi = single_excitation_oracle(cfg.couplings(), detunings, t_ns * 1e-9)
    assert np.abs(rho[ONE_EXCITATION, ONE_EXCITATION] - np.outer(psi, psi.conj())).max() < 1e-9
