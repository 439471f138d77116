"""Resonant-interaction Hamiltonian and time evolution.

Everything is expressed in the frame rotating at the resonator frequency:
the mode term is absent and each qubit enters through its detuning
Delta_j = omega_j - omega_r (rad/s), so

    H / hbar = sum_j [ (Delta_j / 2) sigma_z_j
                       + g_j (a^dag sigma-_j + sigma+_j a) ].

Unitary segments are propagated by exact eigendecomposition.  Open-system
segments follow the Lindblad equation with qubit relaxation (rate 1/T1),
pure dephasing (sigma_z at rate gamma_phi/2) and cavity decay (a at rate
kappa); each constant segment is propagated exactly as rho(t) =
expm(L t) rho(0), with L the vectorized Lindblad generator (Havel,
J. Math. Phys. 44, 534 (2003)) built on the subspace reachable from the
initial support under every segment of the schedule.  L preserves
Hermiticity, so it is a real matrix in an orthonormal basis of Hermitian
operators, and it is exponentiated there.

A segment is propagated over a vector of times at once:
``evolve_unitary`` reuses one eigendecomposition for every time and
``evolve_lindblad`` one real generator and one stacked real ``expm``;
``evolve_lindblad`` also runs the segments before it on the same block,
carrying real coordinates.  Each returns a stack with every state checked
against the tolerances of ``hilbert`` (the open-system states on their
reachable block, before zero padding).
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .device import SystemConfig, decoherence_rates
from .errors import ConfigError, NumericalError
from .hilbert import check_density_stack, check_ket_stack, operator_table


def build_hamiltonian(
    config: SystemConfig,
    detunings: Sequence[float],
    coupled: Sequence[int] | None = None,
) -> np.ndarray:
    """Rotating-frame Hamiltonian H/hbar (rad/s) for fixed per-qubit detunings (rad/s).

    ``coupled`` restricts the exchange terms to a subset of qubits; the
    default couples everyone.  A qubit outside the set is propagated in the
    far-detuned limit: its detuning term (exact dynamic phase) stays, its
    exchange with the mode is dropped.  The result is a read-only (d, d)
    complex array; the propagators check its Hermiticity.
    """
    spec = config.spec
    detunings = np.asarray(detunings, dtype=float)
    if detunings.shape != (spec.num_qubits,):
        raise ConfigError("detuning vector length must equal the qubit count")
    coupled_set = set(range(spec.num_qubits)) if coupled is None else set(coupled)
    ops = operator_table(spec)
    total = 0
    for j, q in enumerate(config.qubits):
        total = total + 0.5 * detunings[j] * ops.sigma_z[j]
        if j in coupled_set:
            total = total + q.coupling_g * ops.exchange[j]
    total.setflags(write=False)
    return total


def collapse_operators(config: SystemConfig) -> np.ndarray:
    """The device's jump operators sqrt(rate) L_k as a read-only (2N+1, d, d) stack.

    Per qubit j, relaxation sqrt(gamma1) sigma-_j and then dephasing
    sqrt(gamma_phi / 2) sigma_z_j; last, cavity loss sqrt(kappa) a.
    """
    ops = operator_table(config.spec)
    channels = []
    for j, q in enumerate(config.qubits):
        rates = decoherence_rates(q, config.resonator)
        channels.append(np.sqrt(rates.gamma1) * ops.sigma_minus[j])
        channels.append(np.sqrt(rates.gamma_phi / 2) * ops.sigma_z[j])
    kappa = decoherence_rates(config.qubits[0], config.resonator).kappa
    channels.append(np.sqrt(kappa) * ops.annihilation)
    stack = np.array(channels)
    stack.setflags(write=False)
    return stack


def _check_hermitian(h: np.ndarray):
    dev = np.abs(h - h.conj().T).max()
    scale = max(1.0, np.abs(h).max())
    if dev > 1e-9 * scale:
        raise NumericalError(f"Hamiltonian is not Hermitian (deviation {dev})")


def evolve_unitary(psi: np.ndarray, h: np.ndarray, times: Sequence[float]) -> np.ndarray:
    """Amplitudes of exp(-i H t) psi for every t in ``times``, a (T, d) stack.

    ``psi`` is a (d,) amplitude vector.  One eigendecomposition H = V diag(w)
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


def _reachable(rho: np.ndarray, ops: Sequence[np.ndarray]) -> np.ndarray:
    """Boolean mask of the basis states reachable from rho's support.

    Starting from the nonzero diagonal of rho, a basis state joins the set
    when some operator maps a member onto it.  The span of the final set is
    invariant under every operator in ``ops``.
    """
    links = np.zeros(rho.shape, dtype=bool)
    for op in ops:
        links |= op != 0
    mask = np.diag(rho) != 0
    while True:
        grown = mask | links[:, mask].any(axis=1)
        if (grown == mask).all():
            return mask
        mask = grown


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
    """The row-major vectorized Lindblad generator of one segment on one block.

    L = -i (H_eff x 1 - 1 x H_eff^*) + sum_k L_k x L_k^*,
    H_eff = H - (i/2) sum_k L_k^+ L_k,

    with ``h`` the n x n block of H, ``ls`` the (channels, n, n) blocks of
    the jump operators L_k (sqrt(rate) absorbed, as
    :func:`collapse_operators` returns them) and ``decay`` the n x n block
    of sum_k L_k^+ L_k.
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
    """Open-system propagation of a schedule: a (T, d, d) stack, one state per entry of ``times``.

    The (d, d) density matrix ``rho``, a plain array that is not checked
    here, runs through each (H_j, t_j) of ``before`` in order, and then
    through ``h`` for every t in ``times``; ``collapse`` is the (channels,
    d, d) jump-operator stack of every segment.

    The dynamics is built once, on the basis states reachable from rho's
    support through the nonzero patterns of every segment's H, the L_k and
    the L_k^+ L_k.  Their span is invariant under every segment, so the
    restriction is exact; with three qubits and photon cutoff 2, a
    single-excitation state reaches 5 of the 24 basis states, and each
    generator is 25 x 25 instead of 576 x 576.  Each segment's
    :func:`_lindblad_generator` is taken to the real matrix L_r = B^+ L B in
    the one Hermitian basis B of :func:`_hermitian_basis`; an imaginary part
    of B^+ L B above 1e-12 max|L| raises NumericalError.  The real
    coordinates of rho are carried from segment to segment by ``expm`` of
    L_r t_j, and the last segment takes them to every time in one stacked
    ``expm``.  Every propagated state, the one after each segment of
    ``before`` and every returned one, is checked once, on its block, by one
    ``check_density_stack`` call; padding with zeros adds only zero
    eigenvalues and changes neither Hermiticity, trace nor finiteness, so the
    check's verdict is that of the padded state.
    """
    times = np.asarray(times, dtype=float).reshape(-1)
    if np.any(times < 0) or any(t < 0 for _, t in before):
        raise ConfigError("t must be >= 0")
    hs = [h_j for h_j, _ in before] + [h]
    for h_j in hs:
        _check_hermitian(h_j)
    ls = np.asarray(collapse, dtype=complex).reshape(-1, *h.shape)  # also with no channel
    decay = np.swapaxes(ls.conj(), -1, -2) @ ls
    keep = _reachable(rho, [*hs, *ls, *decay])
    sub = np.ix_(keep, keep)
    n = int(keep.sum())
    ls = ls[:, keep][:, :, keep]
    decay = decay.sum(axis=0)[sub]
    basis = _hermitian_basis(n)
    coords_of = basis.conj().T  # B^+: a Hermitian matrix's vec to its real coordinates
    from scipy.linalg import expm  # imported here: certify and reconstruct never propagate

    def propagate(x, h_j, ts):
        gen = _lindblad_generator(h_j[sub], ls, decay)
        gen_b = coords_of @ gen @ basis
        dropped = np.abs(gen_b.imag).max()
        if dropped > 1e-12 * np.abs(gen).max():
            raise NumericalError(f"generator has imaginary part {dropped} in the Hermitian basis")
        return expm(gen_b.real[None] * ts[:, None, None]) @ x

    coords = [(coords_of @ rho[sub].reshape(-1)).real]
    for h_j, t in before:
        coords.append(propagate(coords[-1], h_j, np.array([t]))[0])
    small = (np.vstack([*coords[1:], propagate(coords[-1], h, times)]) @ basis.T).reshape(-1, n, n)
    check_density_stack(small)
    out = np.zeros((times.size, *rho.shape), dtype=complex)
    out[:, sub[0], sub[1]] = small[len(before):]
    return out


def single_excitation_oracle(
    couplings: Sequence[float], detunings: Sequence[float], t: float
) -> np.ndarray:
    """Analytic reference for the one-photon sector, independent of the full solver.

    Starting from |g...g,1>, the dynamics is confined to the (N+1)-dim block
    spanned by {|e_j,0>} and |g...g,1>.  The block Hamiltonian (including the
    absolute energies of the rotating frame, so phases match the full-space
    propagation) is exponentiated directly with scipy's expm.

    Returns the complex amplitude vector ordered (qubit 0 .. qubit N-1, cavity).
    On resonance the closed form is cos(G t) on the cavity and
    -i (g_j / G) sin(G t) on qubit j, with G = sqrt(sum g_j^2).
    """
    g = np.asarray(couplings, dtype=float)
    delta = np.asarray(detunings, dtype=float)
    if g.shape != delta.shape or g.ndim != 1:
        raise ConfigError("couplings and detunings must be equal-length vectors")
    n = g.size
    shift = 0.5 * delta.sum()
    block = np.zeros((n + 1, n + 1), dtype=complex)
    for j in range(n):
        block[j, j] = delta[j] - shift
        block[j, n] = g[j]
        block[n, j] = g[j]
    block[n, n] = -shift
    psi0 = np.zeros(n + 1, dtype=complex)
    psi0[n] = 1.0
    from scipy.linalg import expm

    return expm(-1j * block * t) @ psi0
