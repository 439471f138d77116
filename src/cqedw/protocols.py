"""Pulse schedules for the vacuum Rabi and W-state experiments.

A schedule is an ordered list of piecewise-constant segments; each segment
holds the realized per-qubit detunings (rad/s, after crosstalk) and an
optional list of instantaneous single-qubit rotations applied at the
segment start.  Flux pulses are ideal rectangles.

Crosstalk acts on commanded detuning *changes* relative to the steady-state
bias: a segment that parks qubit j at target detuning d_j is compiled as

    realized = bias + X @ (target - bias)

so an identity matrix is a no-op and a protocol that never pulses two
qubits at once (the sequential W preparation) is immune to off-diagonal
leakage, while simultaneous pulses (the collective preparation) pick up
residual detunings.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .device import SystemConfig, apply_crosstalk
from .dynamics import build_hamiltonian, collapse_operators, evolve_lindblad, evolve_unitary
from .errors import ConfigError
from .hilbert import (
    PROJ_EXCITED,
    PROJ_GROUND,
    DensityMatrix,
    HilbertSpec,
    OperatorMatrix,
    QuantumState,
    basis_ket,
    cavity_number,
    embed_qubit_operator,
    expectation,
    partial_trace,
    qubit_rotation,
)

Rotation = tuple[int, str, float]  # (qubit index, axis, angle)


@dataclass(frozen=True)
class ScheduleSegment:
    """One piecewise-constant stage of a schedule.

    ``coupled`` lists the qubits pulsed near resonance during the segment;
    qubits not listed are parked, i.e. propagated in the far-detuned limit
    (exchange with the mode dropped, detuning phase kept exactly).  ``None``
    couples everyone.
    """

    duration: float  # s
    detunings: np.ndarray  # realized per-qubit detunings, rad/s
    boundary_rotations: tuple[Rotation, ...] = ()
    coupled: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.duration < 0:
            raise ConfigError("segment duration must be >= 0")
        d = np.array(self.detunings, dtype=float, copy=True)
        d.setflags(write=False)
        object.__setattr__(self, "detunings", d)
        object.__setattr__(self, "boundary_rotations", tuple(self.boundary_rotations))
        if self.coupled is not None:
            object.__setattr__(self, "coupled", tuple(sorted(self.coupled)))


@dataclass(frozen=True)
class PulseSchedule:
    segments: tuple[ScheduleSegment, ...]
    initial_state: QuantumState

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        if not self.segments:
            raise ConfigError("schedule must contain at least one segment")

    def total_duration(self) -> float:
        return sum(s.duration for s in self.segments)


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


def _realized_detunings(config: SystemConfig, resonant: Iterable[int]) -> np.ndarray:
    bias = config.bias_detunings()
    target = bias.copy()
    for j in resonant:
        target[j] = 0.0
    return bias + apply_crosstalk(target - bias, config.crosstalk)


def _segment(
    config: SystemConfig,
    resonant: Iterable[int],
    duration: float,
    rotations: Sequence[Rotation] = (),
) -> ScheduleSegment:
    resonant = tuple(resonant)
    return ScheduleSegment(
        duration, _realized_detunings(config, resonant), tuple(rotations), coupled=resonant
    )


def ground_state(config: SystemConfig) -> QuantumState:
    return basis_ket(config.spec, (), 0)


def run_schedule(
    config: SystemConfig,
    schedule: PulseSchedule,
    noise: bool = False,
) -> Union[QuantumState, DensityMatrix]:
    """Execute a schedule; closed-system unless ``noise`` enables the Lindblad model."""
    spec = config.spec
    collapse = collapse_operators(config) if noise else None
    state: Union[QuantumState, DensityMatrix]
    state = schedule.initial_state.density_matrix() if noise else schedule.initial_state
    for seg in schedule.segments:
        for qubit, axis, angle in seg.boundary_rotations:
            u = embed_qubit_operator(qubit_rotation(axis, angle), qubit, spec).entries
            if noise:
                state = DensityMatrix(u @ state.entries @ u.conj().T, spec)
            else:
                state = QuantumState(u @ state.amplitudes, spec)
        if seg.duration == 0:
            continue
        h = build_hamiltonian(config, seg.detunings, coupled=seg.coupled)
        if noise:
            state = evolve_lindblad(state, h, collapse, seg.duration)
        else:
            state = evolve_unitary(state, h, seg.duration)
    return state


def _population_observables(spec: HilbertSpec):
    excited = [embed_qubit_operator(PROJ_EXCITED, j, spec) for j in range(spec.num_qubits)]
    all_ground = np.eye(spec.dim, dtype=complex)
    for j in range(spec.num_qubits):
        all_ground = all_ground @ embed_qubit_operator(PROJ_GROUND, j, spec).entries
    return excited, OperatorMatrix(all_ground, spec, hermitian=True), cavity_number(spec)


def populations(state: Union[QuantumState, DensityMatrix]):
    """(per-qubit excited, all-ground, mean photon number) for one state."""
    excited, ground, number = _population_observables(state.spec)
    return (
        np.array([expectation(op, state) for op in excited]),
        expectation(ground, state),
        expectation(number, state),
    )


def cavity_population(state: Union[QuantumState, DensityMatrix]) -> float:
    """Mean photon number <a^dag a>."""
    return expectation(cavity_number(state.spec), state)


def single_photon_schedule(
    config: SystemConfig, source_qubit: int, transfer_duration: float | None = None
) -> PulseSchedule:
    """Pi-pulse on the source qubit at bias, then a resonant swap segment.

    The default transfer duration pi / (2 |g_source|) moves the full
    excitation into the cavity.
    """
    n = config.spec.num_qubits
    if not 0 <= source_qubit < n:
        raise ConfigError(f"source qubit {source_qubit} out of range")
    if config.spec.photon_cutoff < 1:
        raise ConfigError("photon cutoff must be >= 1 to host the photon")
    g = abs(config.qubits[source_qubit].coupling_g)
    tau0 = np.pi / (2 * g) if transfer_duration is None else transfer_duration
    segments = (
        _segment(config, (), 0.0, [(source_qubit, "x", np.pi)]),
        _segment(config, (source_qubit,), tau0),
    )
    return PulseSchedule(segments, ground_state(config))


def rabi_scan(
    config: SystemConfig,
    participating: Iterable[int],
    tau_grid: Sequence[float],
    noise: bool = False,
    source_qubit: int | None = None,
) -> PopulationTrace:
    """Collective vacuum Rabi oscillation scan.

    For each interaction time tau the photon is loaded from the source
    qubit (default: the lowest participating index), the participating set
    is brought to resonance for tau, and the populations are recorded.
    Qubits outside the set stay parked at their bias detuning.
    """
    part = sorted(set(participating))
    if not part:
        raise ConfigError("participating set must be nonempty")
    for j in part:
        if not 0 <= j < config.spec.num_qubits:
            raise ConfigError(f"qubit index {j} out of range")
    tau = np.asarray(tau_grid, dtype=float)
    if tau.ndim != 1 or tau.size == 0 or not np.all(np.isfinite(tau)):
        raise ConfigError("tau grid must be a nonempty, finite 1-D sequence")
    if np.any(np.diff(tau) <= 0):
        raise ConfigError("tau grid must be strictly ascending")
    src = part[0] if source_qubit is None else source_qubit

    prep = single_photon_schedule(config, src)
    q_pops = np.empty((tau.size, config.spec.num_qubits))
    g_pop = np.empty(tau.size)
    c_pop = np.empty(tau.size)
    for i, t in enumerate(tau):
        schedule = PulseSchedule(
            prep.segments + (_segment(config, part, float(t)),), prep.initial_state
        )
        final = run_schedule(config, schedule, noise=noise)
        q_pops[i], g_pop[i], c_pop[i] = populations(final)
    labels = tuple(q.label for q in config.qubits)
    return PopulationTrace(tau, q_pops, g_pop, c_pop, labels)


def collective_interaction_time(config: SystemConfig) -> float:
    """Factorization time pi / (2 G) with G = sqrt(sum_j g_j^2)."""
    g = config.couplings()
    return float(np.pi / (2 * np.sqrt((g**2).sum())))


def prepare_w_collective(
    config: SystemConfig,
    noise: bool = False,
    source_qubit: int = 2,
) -> DensityMatrix:
    """Collective W preparation: load a photon, then all qubits resonant for tau_W.

    Returns the reduced three-qubit density matrix (cavity traced out).
    """
    if config.spec.num_qubits != 3:
        raise ConfigError("collective W preparation requires N=3")
    prep = single_photon_schedule(config, source_qubit)
    tau_w = collective_interaction_time(config)
    schedule = PulseSchedule(
        prep.segments + (_segment(config, range(3), tau_w),), prep.initial_state
    )
    final = run_schedule(config, schedule, noise=noise)
    rho = final if isinstance(final, DensityMatrix) else final.density_matrix()
    return partial_trace(rho, range(3))


def sequential_swap_times(config: SystemConfig) -> tuple[float, float, float]:
    """Swap durations (tau_1, tau_2, tau_3) distributing 1/3 of the photon each.

    tau_1 = arcsin(sqrt(2/3))/|g_C| leaves 2/3 in the cavity, tau_2 =
    arcsin(sqrt(1/2))/|g_B| takes half of that, tau_3 = arcsin(1)/|g_A|
    empties the rest.
    """
    g = np.abs(config.couplings())
    return (
        float(np.arcsin(np.sqrt(2.0 / 3.0)) / g[2]),
        float(np.arcsin(np.sqrt(1.0 / 2.0)) / g[1]),
        float(np.arcsin(1.0) / g[0]),
    )


def sequential_w_schedule(config: SystemConfig, through_segment: int = 3) -> PulseSchedule:
    """Sequential W preparation schedule, optionally truncated after a segment."""
    if config.spec.num_qubits != 3:
        raise ConfigError("sequential W preparation requires N=3")
    tau1, tau2, tau3 = sequential_swap_times(config)
    segments = [
        _segment(config, (), 0.0, [(2, "x", np.pi)]),
        _segment(config, (2,), tau1),
        _segment(config, (1,), tau2),
        _segment(config, (0,), tau3),
    ]
    return PulseSchedule(tuple(segments[: through_segment + 1]), ground_state(config))


def prepare_w_sequential(config: SystemConfig, noise: bool = False) -> DensityMatrix:
    """Sequential W preparation via one-at-a-time swaps C -> B -> A."""
    schedule = sequential_w_schedule(config)
    final = run_schedule(config, schedule, noise=noise)
    rho = final if isinstance(final, DensityMatrix) else final.density_matrix()
    return partial_trace(rho, range(3))


def apply_phase_correction(
    rho: DensityMatrix, target: QuantumState
) -> tuple[DensityMatrix, np.ndarray]:
    """Rotate away per-qubit dynamic phases to best match ``target``.

    Finds Z-rotation angles (one per qubit) maximizing <t|Z rho Z^+|t> by a
    coarse grid followed by Nelder-Mead refinement; the identity is always
    a candidate, so the returned fidelity never falls below the input's.

    Returns the rotated density matrix and the angles.
    """
    spec = rho.spec
    if spec.photon_cutoff != 0:
        raise ConfigError("phase correction expects a qubit-only (cavity-traced) state")
    if spec.dim != target.spec.dim:
        raise ConfigError("state and target dimensions differ")
    n = spec.num_qubits
    t_amps = target.amplitudes

    # Basis-state phase of exp(-i/2 sum_j phi_j sigma_z_j): bit 1 -> -phi/2.
    bits = np.array([[(i >> j) & 1 for j in range(n)] for i in range(spec.dim)])
    signs = 1.0 - 2.0 * bits  # +1 for |g>, -1 for |e>

    def rotated_fidelity(angles):
        phases = np.exp(0.5j * (signs @ angles))
        v = phases.conj() * t_amps  # Z(phi)^+ |t>
        return float(np.real(v.conj() @ rho.entries @ v))

    grid = np.linspace(0, 2 * np.pi, 9, endpoint=False)
    best_angles = np.zeros(n)
    best = rotated_fidelity(best_angles)
    mesh = np.meshgrid(*([grid] * n), indexing="ij")
    for idx in np.ndindex(*mesh[0].shape):
        cand = np.array([m[idx] for m in mesh])
        f = rotated_fidelity(cand)
        if f > best:
            best, best_angles = f, cand

    from scipy.optimize import minimize

    res = minimize(lambda a: -rotated_fidelity(a), best_angles, method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 4000})
    if -res.fun > best:
        best_angles = res.x

    angles = np.mod(best_angles, 2 * np.pi)
    phases = np.exp(0.5j * (signs @ angles))  # diagonal of Z(angles)
    rotated = (phases[:, None] * rho.entries) * phases.conj()[None, :]
    return DensityMatrix(rotated, spec), angles
