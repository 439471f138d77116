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
initial support.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .device import SystemConfig, decoherence_rates
from .errors import ConfigError, NumericalError
from .hilbert import DensityMatrix, OperatorMatrix, QuantumState, operator_table


@dataclass(frozen=True)
class CollapseOperator:
    matrix: OperatorMatrix
    rate: float  # 1/s

    def __post_init__(self):
        if self.rate < 0:
            raise ConfigError("collapse rate must be >= 0")


def build_hamiltonian(
    config: SystemConfig,
    detunings: Sequence[float],
    coupled: Sequence[int] | None = None,
) -> OperatorMatrix:
    """Rotating-frame Hamiltonian H/hbar (rad/s) for fixed per-qubit detunings (rad/s).

    ``coupled`` restricts the exchange terms to a subset of qubits; the
    default couples everyone.  A qubit outside the set is propagated in the
    far-detuned limit: its detuning term (exact dynamic phase) stays, its
    exchange with the mode is dropped.
    """
    spec = config.spec
    detunings = np.asarray(detunings, dtype=float)
    if detunings.shape != (spec.num_qubits,):
        raise ConfigError("detuning vector length must equal the qubit count")
    coupled_set = set(range(spec.num_qubits)) if coupled is None else set(coupled)
    ops = operator_table(spec)
    total = 0
    for j, q in enumerate(config.qubits):
        total = total + 0.5 * detunings[j] * ops.sigma_z[j].entries
        if j in coupled_set:
            total = total + q.coupling_g * ops.exchange[j].entries
    return OperatorMatrix(total, spec, hermitian=True)


def collapse_operators(config: SystemConfig) -> list[CollapseOperator]:
    """Relaxation, dephasing and cavity-loss channels of the configured device."""
    ops = operator_table(config.spec)
    channels = []
    for j, q in enumerate(config.qubits):
        rates = decoherence_rates(q, config.resonator)
        channels.append(CollapseOperator(ops.sigma_minus[j], rates.gamma1))
        channels.append(CollapseOperator(ops.sigma_z[j], rates.gamma_phi / 2))
    kappa = decoherence_rates(config.qubits[0], config.resonator).kappa
    channels.append(CollapseOperator(ops.annihilation, kappa))
    return channels


def _check_hermitian(h: OperatorMatrix):
    dev = np.abs(h.entries - h.entries.conj().T).max()
    scale = max(1.0, np.abs(h.entries).max())
    if dev > 1e-9 * scale:
        raise NumericalError(f"Hamiltonian is not Hermitian (deviation {dev})")


def evolve_unitary(state: QuantumState, h: OperatorMatrix, t: float) -> QuantumState:
    """Propagate a pure state by exp(-i H t) via eigendecomposition."""
    _check_hermitian(h)
    w, v = np.linalg.eigh(h.entries)
    phases = np.exp(-1j * w * t)
    amps = v @ (phases * (v.conj().T @ state.amplitudes))
    return QuantumState(amps, state.spec)


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


def evolve_lindblad(
    rho: DensityMatrix,
    h: OperatorMatrix,
    collapse: Sequence[CollapseOperator],
    t: float,
) -> DensityMatrix:
    """Open-system propagation for time ``t``: rho(t) = expm(L t) rho.

    L is the row-major vectorized Lindblad generator,

        L = -i (H_eff x 1 - 1 x H_eff^*) + sum_k L_k x L_k^*,
        H_eff = H - (i/2) sum_k L_k^+ L_k,

    with sqrt(rate) absorbed into each L_k.  It is built only on the basis
    states reachable from rho's support through the nonzero patterns of H,
    the L_k and the L_k^+ L_k; their span is invariant under the dynamics,
    so the restriction is exact.  With three qubits and photon cutoff 2, a
    single-excitation state reaches 5 of the 24 basis states, so L is
    25 x 25 instead of 576 x 576.
    """
    if t < 0:
        raise ConfigError("t must be >= 0")
    _check_hermitian(h)
    if t == 0:
        return rho
    ls = np.array([np.sqrt(c.rate) * c.matrix.entries for c in collapse if c.rate > 0])
    ls = ls.reshape(-1, *h.entries.shape)  # (channels, dim, dim), also with no channel
    decay = np.swapaxes(ls.conj(), -1, -2) @ ls
    keep = _reachable(rho.entries, [h.entries, *ls, *decay])
    sub = np.ix_(keep, keep)
    n = int(keep.sum())
    eye = np.eye(n)
    h_eff = h.entries[sub] - 0.5j * decay.sum(axis=0)[sub]
    ls = ls[:, keep][:, :, keep]
    gen = -1j * (np.kron(h_eff, eye) - np.kron(eye, h_eff.conj()))
    gen += np.einsum("kij,kab->iajb", ls, ls.conj()).reshape(n * n, n * n)
    from scipy.linalg import expm  # imported here: certify and reconstruct never propagate

    small = expm(gen * t) @ rho.entries[sub].reshape(-1)
    out = np.zeros(rho.entries.shape, dtype=complex)
    out[sub] = small.reshape(n, n)
    return DensityMatrix(out, rho.spec)


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
