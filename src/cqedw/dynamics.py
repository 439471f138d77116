"""Resonant-interaction Hamiltonian and time evolution on the single-excitation sector.

Everything is expressed in the frame rotating at the resonator frequency:
the mode term is absent and each qubit enters through its detuning
Delta_j = omega_j - omega_r (rad/s), so

    H / hbar = sum_j [ (Delta_j / 2) sigma_z_j
                       + g_j (a^dag sigma-_j + sigma+_j a) ].

H conserves the excitation number (Tavis and Cummings, Phys. Rev. 170, 379
(1968)), and the jump operators sigma-_j and a only lower it, to
|g...g,0>.  Every schedule starts from one qubit's pi pulse on
|g...g,0>, so it never leaves the N + 2 states of the sector, kept in the
order of their full-space indices (0, 2**j, 2**N) of :mod:`cqedw.hilbert`:

    position 0        |g...g,0>
    position 1 + j    |e_j,0>, qubit j excited
    position N + 1    |g...g,1>, one photon.

This module owns that layout.  :func:`build_hamiltonian`,
:func:`collapse_operators` and :func:`pi_pulsed` build H, the jump
operators and the pi-pulsed ket on it directly, and :func:`populations`
and :func:`qubit_state` read a sector stack back out.  No operator of the
full device space is built; the photon cutoff only has to be at least 1.

Unitary segments are propagated by exact eigendecomposition.  Open-system
segments follow the Lindblad equation with qubit relaxation (rate 1/T1),
pure dephasing (sigma_z at rate gamma_phi/2) and cavity decay (a at rate
kappa); each constant segment is propagated exactly as rho(t) =
expm(L t) rho(0), with L the vectorized Lindblad generator (Havel,
J. Math. Phys. 44, 534 (2003)).  L preserves Hermiticity, so it is a real
matrix in an orthonormal basis of Hermitian operators, and it is
exponentiated there.

Both propagators take whatever arrays they are given.  A segment is
propagated over a vector of times at once: ``evolve_unitary`` reuses one
eigendecomposition for every time and ``evolve_lindblad`` one real
generator and one stacked real ``expm``; ``evolve_lindblad`` also runs the
segments before it, carrying real coordinates.  Each returns a stack with
every state checked against the tolerances of ``hilbert``.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .device import SystemConfig, decoherence_rates
from .errors import ConfigError, NumericalError
from .hilbert import HilbertSpec, check_density_stack, check_ket_stack, qubit_rotation


def _sector_size(spec: HilbertSpec) -> int:
    """N + 2, the number of sector states; the sector needs room for one photon."""
    if spec.photon_cutoff < 1:
        raise ConfigError("photon cutoff must be >= 1 to host the photon")
    return spec.num_qubits + 2


def _unit(size: int, row: int, col: int) -> np.ndarray:
    """The size x size complex matrix with a single 1 at (row, col)."""
    op = np.zeros((size, size), dtype=complex)
    op[row, col] = 1.0
    return op


def _sigma_z(size: int, j: int) -> np.ndarray:
    """sigma_z of qubit j on the sector: +1 on |e_j,0>, -1 on every other state."""
    return np.diag(np.where(np.arange(size) == 1 + j, 1.0, -1.0)).astype(complex)


def build_hamiltonian(
    config: SystemConfig,
    detunings: Sequence[float],
    coupled: Sequence[int] | None = None,
) -> np.ndarray:
    """Rotating-frame Hamiltonian H/hbar (rad/s) for fixed per-qubit detunings (rad/s).

    ``coupled`` restricts the exchange terms to a subset of qubits; the
    default couples everyone.  A qubit outside the set is propagated in the
    far-detuned limit: its detuning term (exact dynamic phase) stays, its
    exchange with the mode is dropped.  The result is a read-only
    (N + 2, N + 2) complex array on the sector; the propagators check its
    Hermiticity.  A non-finite detuning, from a bias or resonator frequency
    too large for a float, is a ConfigError naming its qubits.
    """
    size = _sector_size(config.spec)
    detunings = np.asarray(detunings, dtype=float)
    if detunings.shape != (config.spec.num_qubits,):
        raise ConfigError("detuning vector length must equal the qubit count")
    bad = [q.label for q, d in zip(config.qubits, detunings) if not np.isfinite(d)]
    if bad:
        raise ConfigError(f"qubit {', '.join(bad)}: detuning is not finite")
    coupled_set = set(range(config.spec.num_qubits)) if coupled is None else set(coupled)
    photon = size - 1
    total = 0
    for j, q in enumerate(config.qubits):
        total = total + 0.5 * detunings[j] * _sigma_z(size, j)
        if j in coupled_set:  # a^dag sigma-_j + sigma+_j a
            total = total + q.coupling_g * (_unit(size, photon, 1 + j) + _unit(size, 1 + j, photon))
    total.setflags(write=False)
    return total


def collapse_operators(config: SystemConfig) -> np.ndarray:
    """The device's jump operators sqrt(rate) L_k as a read-only (2N+1, N+2, N+2) stack.

    Per qubit j, relaxation sqrt(gamma1) sigma-_j and then dephasing
    sqrt(gamma_phi / 2) sigma_z_j; last, cavity loss sqrt(kappa) a.
    """
    size = _sector_size(config.spec)
    channels = []
    for j, q in enumerate(config.qubits):
        rates = decoherence_rates(q, config.resonator)
        channels.append(np.sqrt(rates.gamma1) * _unit(size, 0, 1 + j))
        channels.append(np.sqrt(rates.gamma_phi / 2) * _sigma_z(size, j))
    kappa = decoherence_rates(config.qubits[0], config.resonator).kappa
    channels.append(np.sqrt(kappa) * _unit(size, 0, size - 1))
    stack = np.array(channels)
    stack.setflags(write=False)
    return stack


def pi_pulsed(spec: HilbertSpec, qubit: int) -> np.ndarray:
    """Sector amplitudes of |g...g,0> after an ideal x-axis pi pulse on ``qubit``.

    The pulse's column 0, cos(pi/2) on |g...g,0> and -i on |e_qubit,0>.
    """
    if not 0 <= qubit < spec.num_qubits:
        raise ConfigError(f"qubit index {qubit} out of range for N={spec.num_qubits}")
    psi = np.zeros(_sector_size(spec), dtype=complex)
    psi[[0, 1 + qubit]] = qubit_rotation("x", np.pi)[:, 0]
    return psi


def populations(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(per-qubit excited (T, N), all-ground (T,), mean photon number (T,)) of a sector stack.

    ``stack`` holds T kets, (T, N+2), or T density matrices, (T, N+2, N+2).
    All-ground counts |g...g> with any photon number.
    """
    if stack.ndim == 2:
        p = (stack.conj() * stack).real
    else:
        p = np.diagonal(stack, axis1=1, axis2=2).real
    return p[:, 1:-1], p[:, 0] + p[:, -1], p[:, -1]


def qubit_state(rho: np.ndarray) -> np.ndarray:
    """The 2**N x 2**N qubit state of an (N+2, N+2) sector matrix, with the cavity traced out.

    Its basis is that of the cavity-free qubits: the zero-photon states sit
    at their own indices 0 and 2**j, and |g...g,1> adds to entry (0, 0).
    """
    n = rho.shape[0] - 2
    index = np.array([0, *(1 << j for j in range(n))])
    out = np.zeros((2**n, 2**n), dtype=complex)
    out[np.ix_(index, index)] += rho[:-1, :-1]
    out[0, 0] += rho[-1, -1]
    return out


def _check_hermitian(h: np.ndarray):
    dev = np.abs(h - h.conj().T).max()
    scale = max(1.0, np.abs(h).max())
    if dev > 1e-9 * scale:
        raise NumericalError(f"Hamiltonian is not Hermitian (deviation {dev})")


def evolve_unitary(psi: np.ndarray, h: np.ndarray, times: Sequence[float]) -> np.ndarray:
    """Amplitudes of exp(-i H t) psi for every t in ``times``, a (T, n) stack.

    ``psi`` is an (n,) amplitude vector.  One eigendecomposition H = V diag(w)
    V^+ serves every time: row t is V (exp(-i t w) * V^+ psi), a stacked
    matrix-vector product, so that no row's rounding depends on the other
    times.  A zero time returns psi unchanged.  Each row is checked by
    ``check_ket_stack``.
    """
    _check_hermitian(h)
    w, v = np.linalg.eigh(h)
    times = np.asarray(times, dtype=float).reshape(-1)
    phased = np.exp(-1j * np.outer(times, w)) * (v.conj().T @ psi)
    amps = (v @ phased[:, :, None])[:, :, 0]
    amps[times == 0] = psi
    check_ket_stack(amps)
    return amps


def _hermitian_basis(n: int) -> np.ndarray:
    """Orthonormal basis of the n x n Hermitian matrices as the columns of an (n^2, n^2) array.

    Each column is a row-major vec: first the n units E_ii, then the
    n(n-1)/2 matrices (E_ij + E_ji)/sqrt(2) and last the n(n-1)/2 matrices
    i (E_ij - E_ji)/sqrt(2), i < j.  The coordinates B^+ vec(A) of a
    Hermitian A are real, and a Hermiticity-preserving superoperator is a
    real matrix in this basis (Havel, J. Math. Phys. 44, 534 (2003)).
    """
    iu, ju = np.triu_indices(n, 1)
    sym = n + np.arange(iu.size)
    anti = sym + iu.size
    basis = np.zeros((n, n, n * n), dtype=complex)
    basis[np.arange(n), np.arange(n), np.arange(n)] = 1.0
    basis[iu, ju, sym] = basis[ju, iu, sym] = np.sqrt(0.5)
    basis[iu, ju, anti] = 1j * np.sqrt(0.5)
    basis[ju, iu, anti] = -1j * np.sqrt(0.5)
    return basis.reshape(n * n, n * n)


def _lindblad_generator(h: np.ndarray, ls: np.ndarray, decay: np.ndarray) -> np.ndarray:
    """The row-major vectorized Lindblad generator of one segment.

    L = -i (H_eff x 1 - 1 x H_eff^*) + sum_k L_k x L_k^*,
    H_eff = H - (i/2) sum_k L_k^+ L_k,

    with ``h`` the n x n Hamiltonian, ``ls`` the (channels, n, n) jump
    operators L_k (sqrt(rate) absorbed, as :func:`collapse_operators`
    returns them) and ``decay`` sum_k L_k^+ L_k.
    """
    n = h.shape[0]
    eye = np.eye(n)
    h_eff = h - 0.5j * decay
    gen = -1j * (np.kron(h_eff, eye) - np.kron(eye, h_eff.conj()))
    gen += np.einsum("kij,kab->iajb", ls, ls.conj()).reshape(n * n, n * n)
    return gen


def evolve_lindblad(
    rho: np.ndarray,
    before: Sequence[tuple[np.ndarray, float]],
    h: np.ndarray,
    collapse: np.ndarray,
    times: Sequence[float],
) -> np.ndarray:
    """Open-system propagation of a schedule: a (T, n, n) stack, one state per entry of ``times``.

    The (n, n) density matrix ``rho``, a plain array that is not checked
    here, runs through each (H_j, t_j) of ``before`` in order, and then
    through ``h`` for every t in ``times``; ``collapse`` is the (channels,
    n, n) jump-operator stack of every segment.  On the sector n = N + 2,
    so the paper's device has 25 x 25 generators.

    Each segment's :func:`_lindblad_generator` is taken to the real matrix
    L_r = B^+ L B in the one Hermitian basis B of :func:`_hermitian_basis`;
    an imaginary part of B^+ L B above 1e-12 max|L| raises NumericalError.
    The real coordinates of rho are carried from segment to segment by
    ``expm`` of L_r t_j, and the last segment takes them to every time in
    one stacked ``expm``.  Every propagated state, the one after each
    segment of ``before`` and every returned one, is checked once, by one
    ``check_density_stack`` call.
    """
    times = np.asarray(times, dtype=float).reshape(-1)
    if np.any(times < 0) or any(t < 0 for _, t in before):
        raise ConfigError("t must be >= 0")
    for h_j, _ in [*before, (h, 0.0)]:
        _check_hermitian(h_j)
    n = h.shape[0]
    ls = np.asarray(collapse, dtype=complex).reshape(-1, n, n)  # also with no channel
    decay = (np.swapaxes(ls.conj(), -1, -2) @ ls).sum(axis=0)
    basis = _hermitian_basis(n)
    coords_of = basis.conj().T  # B^+: a Hermitian matrix's vec to its real coordinates
    from scipy.linalg import expm  # imported here: certify and reconstruct never propagate

    def propagate(x, h_j, ts):
        gen = _lindblad_generator(h_j, ls, decay)
        gen_b = coords_of @ gen @ basis
        dropped = np.abs(gen_b.imag).max()
        if dropped > 1e-12 * np.abs(gen).max():
            raise NumericalError(f"generator has imaginary part {dropped} in the Hermitian basis")
        return expm(gen_b.real[None] * ts[:, None, None]) @ x

    coords = [(coords_of @ rho.reshape(-1)).real]
    for h_j, t in before:
        coords.append(propagate(coords[-1], h_j, np.array([t]))[0])
    states = (np.vstack([*coords[1:], propagate(coords[-1], h, times)]) @ basis.T).reshape(-1, n, n)
    check_density_stack(states)
    return states[len(before):]
