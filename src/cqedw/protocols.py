"""Pulse schedules for the vacuum Rabi and W-state experiments.

Every experiment starts with its one microwave pulse, an ideal x-axis pi
pulse on a source qubit of |g...g,0>, and then runs piecewise-constant
flux segments.  A segment is a ``(resonant, duration)`` pair: the
``resonant`` qubits are brought to resonance with the mode for
``duration``, while the others stay parked at their bias.  Flux pulses are
ideal rectangles.

A schedule is therefore a source qubit, the segments run in full and one
held segment.  :func:`_propagate` runs it on the N + 2 single-excitation
states of :mod:`cqedw.dynamics`: it builds the amplitudes of the pi-pulsed
state (with noise, their |psi><psi|), compiles each segment with
:func:`_hamiltonian`, runs the segments of ``before`` for their durations
and holds the last one for a vector of times.  ``rabi_scan`` holds the
scan segment for its tau grid after the photon load of :func:`_load` and
reads the populations through ``dynamics.populations``; each W preparation
holds its last segment for its duration and traces the cavity out through
``dynamics.qubit_state``, into a 2**N x 2**N :class:`DensityMatrix`.
Targets such as ``entanglement.W_PAPER`` are amplitude arrays.

Crosstalk acts on commanded detuning *changes* relative to the
steady-state bias: a segment that sets qubit j to target detuning d_j
(0 if resonant, its bias otherwise) is compiled as

    realized = bias + X @ (target - bias),

where target - bias is -bias_j on the resonant qubits and 0 elsewhere (a
parked qubit's overflowing bias never meets inf - inf).  So an identity
matrix is a no-op and a protocol that never pulses two qubits at once (the
sequential W preparation) is immune to off-diagonal leakage, while
simultaneous pulses (the collective preparation) pick up residual
detunings.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .device import SystemConfig, apply_crosstalk
from .dynamics import (
    build_hamiltonian,
    collapse_operators,
    evolve_lindblad,
    evolve_unitary,
    pi_pulsed,
    populations,
    qubit_state,
)
from .errors import ConfigError
from .hilbert import DensityMatrix, HilbertSpec


@dataclass(frozen=True)
class PopulationTrace:
    """Populations versus interaction time for one scan."""

    times: np.ndarray  # s
    qubit_populations: np.ndarray  # (n_times, N) excited-state populations
    ground_population: np.ndarray  # probability of |g...g> (any photon number)
    cavity_population: np.ndarray  # <a^dag a>
    qubit_labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "qubit_populations", np.asarray(self.qubit_populations))
        object.__setattr__(self, "ground_population", np.asarray(self.ground_population))
        object.__setattr__(self, "cavity_population", np.asarray(self.cavity_population))
        pops = np.concatenate(
            [self.qubit_populations.reshape(len(self.times), -1), self.ground_population[:, None]],
            axis=1,
        )
        if pops.min() < -1e-9 or pops.max() > 1 + 1e-9:
            raise ConfigError("populations must lie in [0, 1]")

    def to_csv(self) -> str:
        cols = ["time_ns"] + [f"p_q{l}" for l in self.qubit_labels] + ["p_ggg", "n_cavity"]
        lines = [",".join(cols)]
        for i, t in enumerate(self.times):
            row = [t * 1e9, *self.qubit_populations[i], self.ground_population[i],
                   self.cavity_population[i]]
            lines.append(",".join(f"{x:.12g}" for x in row))
        return "\n".join(lines) + "\n"


def _hamiltonian(config: SystemConfig, resonant: Sequence[int]) -> np.ndarray:
    """H of the segment that brings the ``resonant`` qubits to resonance.

    The targets are 0 for ``resonant`` and the bias for everyone else,
    crosstalk acts on the commanded change, and only ``resonant`` qubits
    exchange with the mode.
    """
    bias = config.bias_detunings()
    commanded = np.zeros_like(bias)  # target - bias
    commanded[list(resonant)] = -bias[list(resonant)]
    with np.errstate(invalid="ignore", over="ignore"):  # build_hamiltonian rejects inf and NaN
        realized = bias + apply_crosstalk(commanded, config.crosstalk)
    return build_hamiltonian(config, realized, coupled=resonant)


def _propagate(
    config: SystemConfig,
    source: int,
    before: Sequence[tuple[Sequence[int], float]],
    resonant: Sequence[int],
    noise: bool,
    times: Sequence[float],
) -> np.ndarray:
    """The pi-pulsed ``source`` run through ``before``, then ``resonant`` held for each of ``times``.

    Each ``(resonant, duration)`` segment of ``before`` runs for its
    duration, and every segment is compiled by :func:`_hamiltonian`.
    Everything lives on the N + 2 sector states of :mod:`cqedw.dynamics`.
    Closed-system runs give a (T, N+2) stack of amplitudes and carry the ket
    from segment to segment, and :func:`evolve_unitary` checks each ket once.
    With ``noise``, the result is a (T, N+2, N+2) stack of density matrices
    from one :func:`evolve_lindblad` call, which carries real coordinates
    from segment to segment.
    """
    psi = pi_pulsed(len(config.qubits), source)
    segments = [(_hamiltonian(config, r), t) for r, t in before]
    h = _hamiltonian(config, resonant)
    if noise:
        rho = np.outer(psi, psi.conj())
        return evolve_lindblad(rho, segments, h, collapse_operators(config), times)
    for h_j, t in segments:
        psi = evolve_unitary(psi, h_j, [t])[0]
    return evolve_unitary(psi, h, times)


def _qubit_state(
    config: SystemConfig, source: int, segments: Sequence[tuple[Sequence[int], float]], noise: bool
) -> DensityMatrix:
    """The state after every segment in turn, with the cavity traced out.

    The propagator has checked the final ket or density matrix on the
    sector; only the 2**N x 2**N qubit state is checked again.
    """
    *before, (resonant, duration) = segments
    final = _propagate(config, source, before, resonant, noise, [duration])[0]
    if not noise:
        final = np.outer(final, final.conj())
    return DensityMatrix(qubit_state(final), HilbertSpec(len(config.qubits), 0))


def _load(config: SystemConfig, source: int) -> tuple[tuple[int], float]:
    """The segment that swaps the pi-pulsed ``source`` qubit's photon into the cavity.

    Its duration pi / (2 |g_source|) moves the full excitation.  Callers pass
    a qubit of ``config``: ``rabi_scan`` checks its qubits first, and each W
    preparation loads from :data:`W_SOURCE` after its N = 3 check.
    """
    return (source,), _swap_time(np.pi / 2, abs(config.qubits[source].coupling_g))


def _swap_time(angle: float, g: float) -> float:
    """The time angle / g (s) that a coupling ``g`` (rad/s) takes to turn ``angle``.

    A time that under- or overflows, from a coupling that is not a normal
    float or whose square overflowed, is a ConfigError naming the field.
    """
    with np.errstate(over="ignore", divide="ignore"):
        tau = float(angle / g)
    if not 0 < tau < np.inf:
        raise ConfigError(f"g_over_pi_mhz: a coupling of {g:.3g} rad/s gives a swap time of {tau} s")
    return tau


def rabi_scan(
    config: SystemConfig,
    participating: Iterable[int],
    tau_grid: Sequence[float],
    noise: bool = False,
) -> PopulationTrace:
    """Collective vacuum Rabi oscillation scan.

    The photon is loaded once from the lowest participating qubit; from
    that state the participating set is brought to resonance for each
    interaction time tau >= 0 and the populations are recorded.  Qubits
    outside the set stay parked at their bias detuning.  The scan holds the
    resonant set for every tau after the photon load of :func:`_load`: one
    :func:`_propagate` call, the step every schedule takes.  One
    Hamiltonian and one propagator (one ``eigh``, or one Lindblad generator
    and one stacked ``expm``) serve every tau.  A noisy scan continues from
    the loaded state's real coordinates, and every state is still checked
    per tau.  The populations are read off the sector by
    :func:`~cqedw.dynamics.populations`.
    """
    part = sorted(set(participating))
    if not part:
        raise ConfigError("participating set must be nonempty")
    for j in part:
        if not 0 <= j < len(config.qubits):
            raise ConfigError(f"qubit index {j} out of range")
    tau = np.asarray(tau_grid, dtype=float)
    if tau.ndim != 1 or tau.size == 0 or not np.all(np.isfinite(tau)):
        raise ConfigError("tau grid must be a nonempty, finite 1-D sequence")
    if np.any(np.diff(tau) <= 0):
        raise ConfigError("tau grid must be strictly ascending")
    if tau[0] < 0:
        raise ConfigError("interaction times must be >= 0")

    stack = _propagate(config, part[0], [_load(config, part[0])], part, noise, tau)
    labels = tuple(q.label for q in config.qubits)
    return PopulationTrace(tau, *populations(stack), labels)


def collective_interaction_time(config: SystemConfig) -> float:
    """Factorization time pi / (2 G) with G = sqrt(sum_j g_j^2)."""
    with np.errstate(over="ignore"):  # an overflowing G gives time 0, which _swap_time rejects
        big_g = np.sqrt((config.couplings() ** 2).sum())
    return _swap_time(np.pi / 2, big_g)


W_SOURCE = 2  # qubit C: both W preparations pi-pulse it and start from its photon


def prepare_w_collective(config: SystemConfig, noise: bool = False) -> DensityMatrix:
    """Collective W preparation: load a photon from qubit C, then all qubits resonant for tau_W.

    As in the paper, tau_W = pi / (2 G) (:func:`collective_interaction_time`).
    Returns the reduced three-qubit density matrix (cavity traced out).
    """
    if len(config.qubits) != 3:
        raise ConfigError("collective W preparation requires N=3")
    segments = [_load(config, W_SOURCE), (range(3), collective_interaction_time(config))]
    return _qubit_state(config, W_SOURCE, segments, noise)


def sequential_swap_times(config: SystemConfig) -> tuple[float, float, float]:
    """Swap durations (tau_1, tau_2, tau_3) distributing 1/3 of the photon each.

    tau_1 = arcsin(sqrt(2/3))/|g_C| leaves 2/3 in the cavity, tau_2 =
    arcsin(sqrt(1/2))/|g_B| takes half of that, tau_3 = arcsin(1)/|g_A|
    empties the rest.
    """
    g = np.abs(config.couplings())
    return (
        _swap_time(np.arcsin(np.sqrt(2.0 / 3.0)), g[2]),
        _swap_time(np.arcsin(np.sqrt(1.0 / 2.0)), g[1]),
        _swap_time(np.arcsin(1.0), g[0]),
    )


def prepare_w_sequential(config: SystemConfig, noise: bool = False) -> DensityMatrix:
    """Sequential W preparation: swaps C, B, A after the pi pulse on C.

    Returns the reduced three-qubit density matrix (cavity traced out).
    """
    if len(config.qubits) != 3:
        raise ConfigError("sequential W preparation requires N=3")
    swaps = zip(((W_SOURCE,), (1,), (0,)), sequential_swap_times(config))  # C, then B, then A
    return _qubit_state(config, W_SOURCE, list(swaps), noise)


def apply_phase_correction(
    rho: DensityMatrix, target: np.ndarray
) -> tuple[DensityMatrix, np.ndarray]:
    """Rotate away per-qubit dynamic phases to best match the amplitudes ``target``.

    Maximizes f(phi) = <t|Z(phi) rho Z(phi)^+|t> over one Z angle per qubit.
    In one angle f is a single sinusoid A + 2 Re(S_k exp(i phi_k)), so the
    step phi_k <- phi_k - arg S_k is exact.  Sweeps of this step start from
    the best point of a 9^n grid (the identity first, winning ties) and stop
    once a sweep gains at most 1e-15; the fidelity never drops.  For a target
    in one excitation sector (a W state) the angles are defined only up to a
    common shift (d, d, d); they are one representative.

    Returns the rotated density matrix and the angles.
    """
    spec = rho.spec
    if target.shape != (spec.dim,):
        raise ConfigError(f"target shape {target.shape} does not match dim {spec.dim}")
    n = spec.num_qubits
    # f(phi) = p^T M p^* with M = conj(t) t^T o rho and p_i = exp(i s_i . phi / 2)
    m = (target.conj()[:, None] * rho.entries) * target[None, :]

    # Basis-state phase of exp(-i/2 sum_j phi_j sigma_z_j): bit 1 -> -phi/2.
    bits = (np.arange(spec.dim)[:, None] >> np.arange(n)) & 1
    signs = 1.0 - 2.0 * bits  # +1 for |g>, -1 for |e>

    cand = np.indices((9,) * n).reshape(n, -1).T * (2 * np.pi / 9)  # row 0 is the identity
    p = np.exp(0.5j * (cand @ signs.T))
    scores = np.einsum("ci,ci->c", p @ m, p.conj()).real
    best_i = np.argmax(scores >= scores.max() - 1e-12)  # the identity wins ties up to rounding
    angles, best = cand[best_i], scores[best_i]
    while True:
        for k in range(n):
            p = np.exp(0.5j * (signs @ angles))
            lo = bits[:, k] == 0  # S_k sums p_i M_ij p_j^* over bit k of i at 0, of j at 1
            s_k = p[lo] @ m[np.ix_(lo, ~lo)] @ p[~lo].conj()
            angles[k] = np.mod(angles[k] - np.angle(s_k), 2 * np.pi)
        p = np.exp(0.5j * (signs @ angles))  # diagonal of Z(angles)
        f = (p @ m @ p.conj()).real
        if f - best <= 1e-15:
            break
        best = f
    rotated = (p[:, None] * rho.entries) * p.conj()[None, :]
    return DensityMatrix(rotated, spec), angles
