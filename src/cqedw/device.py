"""Transmon and resonator physics: flux tuning, decoherence rates, crosstalk.

Unit conventions: qubit and resonator frequencies are stored in GHz
(value of omega/2pi), coupling constants in signed rad/s, times in
seconds.  The built-in preset stores g_j = pi * (quoted MHz) * 1e6 so that
the vacuum Rabi frequency 2 g / 2pi reproduces the quoted MHz values.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .hilbert import HilbertSpec

TWO_PI = 2.0 * np.pi

# Conversion constants shared by the preset and the config file format.
# Loading multiplies by a constant and exporting divides by the *same*
# constant, which keeps preset -> file -> preset round trips bit-exact.
G_RAD_PER_PI_MHZ = np.pi * 1e6  # coupling rad/s per quoted (g/pi) MHz
SECONDS_PER_US = 1e-6
SECONDS_PER_NS = 1e-9


@dataclass(frozen=True)
class QubitParams:
    """Static parameters of one transmon."""

    ej_max: float  # maximum Josephson energy / hbar, GHz
    ec: float  # charging energy / hbar, GHz
    coupling_g: float  # signed coupling to the mode, rad/s
    bias_frequency: float  # steady-state transition frequency, GHz
    t1: float  # relaxation time, s
    t2: float  # dephasing time, s
    label: str = "?"

    def __post_init__(self):
        # NaN passes every ordering check below, and an infinite t1 passes t2 <= 2 t1
        values = (self.ej_max, self.ec, self.coupling_g, self.bias_frequency, self.t1, self.t2)
        if not np.isfinite(values).all():
            raise ConfigError("qubit parameters must be finite")
        if self.ej_max <= 0 or self.ec <= 0:
            raise ConfigError("ej_max and ec must be positive")
        if self.coupling_g == 0:
            raise ConfigError("coupling_g must be nonzero")
        if self.t1 <= 0 or self.t2 <= 0:
            raise ConfigError("t1 and t2 must be positive")
        if self.t2 > 2.0 * self.t1 * (1 + 1e-9):
            raise ConfigError("t2 cannot exceed 2*t1")


@dataclass(frozen=True)
class ResonatorParams:
    omega_r: float  # mode frequency, GHz
    quality_factor: float

    def __post_init__(self):
        if not np.isfinite((self.omega_r, self.quality_factor)).all():
            raise ConfigError("resonator parameters must be finite")
        if self.omega_r <= 0 or self.quality_factor <= 0:
            raise ConfigError("resonator frequency and Q must be positive")


@dataclass(frozen=True)
class CrosstalkMatrix:
    """Linear map from commanded to realized detuning pulses; identity = none."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=float, copy=True)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.size == 0:
            raise ConfigError("crosstalk matrix must be square and nonempty")
        if not np.isfinite(mat).all() or np.linalg.cond(mat) > 1e12:
            raise ConfigError("crosstalk matrix must be invertible")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def identity(cls, n: int) -> "CrosstalkMatrix":
        return cls(np.eye(n))

    @classmethod
    def uniform(cls, n: int, epsilon: float) -> "CrosstalkMatrix":
        """Identity plus a uniform off-diagonal leakage amplitude."""
        return cls(np.eye(n) + epsilon * (np.ones((n, n)) - np.eye(n)))


@dataclass(frozen=True)
class Rates:
    gamma1: float  # 1/s
    gamma_phi: float  # 1/s
    kappa: float  # rad/s


@dataclass(frozen=True)
class SystemConfig:
    """Full device description used by the dynamics and protocol layers."""

    qubits: tuple[QubitParams, ...]
    resonator: ResonatorParams
    spec: HilbertSpec
    crosstalk: CrosstalkMatrix

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(self.qubits))
        if len(self.qubits) != self.spec.num_qubits:
            raise ConfigError("qubit list length must match spec.num_qubits")
        if self.crosstalk.matrix.shape[0] != self.spec.num_qubits:
            raise ConfigError("crosstalk matrix size must match qubit count")

    def couplings(self) -> np.ndarray:
        """Signed couplings g_j in rad/s."""
        return np.array([q.coupling_g for q in self.qubits])

    def bias_detunings(self) -> np.ndarray:
        """Delta_j = omega_j - omega_r at the steady-state bias, rad/s."""
        return np.array(
            [TWO_PI * (q.bias_frequency - self.resonator.omega_r) * 1e9 for q in self.qubits]
        )


def transmon_frequency(flux: float, q: QubitParams) -> float:
    """Transition frequency in GHz at a flux bias given in units of phi_0.

    Evaluates sqrt(8 E_C E_Jmax |cos(pi flux)|) - E_C; 1-periodic and even
    in flux.  Near flux = 0.5 the expression degenerates (E_J -> 0) and the
    returned value is unphysical; schedules never bias there.
    """
    ej = q.ej_max * abs(np.cos(np.pi * flux))
    return float(np.sqrt(8.0 * q.ec * ej) - q.ec)


def decoherence_rates(q: QubitParams, r: ResonatorParams) -> Rates:
    """Relaxation, pure-dephasing and cavity decay rates from T1, T2 and Q.

    gamma_phi = 1/T2 - 1/(2 T1), clamped at zero; kappa = omega_r / Q in
    rad/s (so kappa/2pi is the linewidth in Hz).
    """
    gamma1 = 1.0 / q.t1
    gamma_phi = max(0.0, 1.0 / q.t2 - 0.5 / q.t1)
    kappa = TWO_PI * r.omega_r * 1e9 / r.quality_factor
    return Rates(gamma1=gamma1, gamma_phi=gamma_phi, kappa=kappa)


def apply_crosstalk(commanded_detunings: Sequence[float], xtalk: CrosstalkMatrix) -> np.ndarray:
    """Realized detuning pulses for commanded ones (both rad/s)."""
    v = np.asarray(commanded_detunings, dtype=float)
    if v.shape != (xtalk.matrix.shape[0],):
        raise ConfigError("commanded detuning vector length must match matrix size")
    return xtalk.matrix @ v


# Device constants of the three-transmon sample, in the unit conventions
# documented at module top.  Qubit order: A, B, C (qubit A carries the
# negative coupling).
_PAPER_QUBITS = (
    dict(label="A", ej_max=26.8, ec=0.459, g_over_pi_mhz=-105.4, bias=6.11, t1_us=2.1, t2_ns=100.0),
    dict(label="B", ej_max=28.1, ec=0.359, g_over_pi_mhz=110.8, bias=4.97, t1_us=1.8, t2_ns=140.0),
    dict(label="C", ej_max=25.7, ec=0.358, g_over_pi_mhz=111.6, bias=7.82, t1_us=1.0, t2_ns=440.0),
)
_PAPER_RESONATOR = ResonatorParams(omega_r=7.023, quality_factor=14800.0)


def paper_system(photon_cutoff: int = 2, crosstalk_epsilon: float = 0.0) -> SystemConfig:
    """The three-qubit sample as a ready-to-run configuration.

    ``crosstalk_epsilon`` > 0 switches on the imperfect-control scenario with
    a uniform off-diagonal flux-pulse leakage of that relative amplitude.
    """
    qubits = tuple(
        QubitParams(
            ej_max=d["ej_max"],
            ec=d["ec"],
            coupling_g=d["g_over_pi_mhz"] * G_RAD_PER_PI_MHZ,
            bias_frequency=d["bias"],
            t1=d["t1_us"] * SECONDS_PER_US,
            t2=d["t2_ns"] * SECONDS_PER_NS,
            label=d["label"],
        )
        for d in _PAPER_QUBITS
    )
    n = len(qubits)
    xtalk = (
        CrosstalkMatrix.uniform(n, crosstalk_epsilon)
        if crosstalk_epsilon
        else CrosstalkMatrix.identity(n)
    )
    return SystemConfig(
        qubits=qubits,
        resonator=_PAPER_RESONATOR,
        spec=HilbertSpec(num_qubits=n, photon_cutoff=photon_cutoff),
        crosstalk=xtalk,
    )


def equal_coupling_system(
    num_qubits: int,
    g_over_pi_mhz: float = 100.0,
    photon_cutoff: int = 2,
) -> SystemConfig:
    """Test configuration with identical positive couplings on every qubit."""
    base = paper_system().qubits[0]
    qubits = tuple(
        replace(base, coupling_g=g_over_pi_mhz * G_RAD_PER_PI_MHZ, label=chr(ord("A") + j))
        for j in range(num_qubits)
    )
    return SystemConfig(
        qubits=qubits,
        resonator=_PAPER_RESONATOR,
        spec=HilbertSpec(num_qubits=num_qubits, photon_cutoff=photon_cutoff),
        crosstalk=CrosstalkMatrix.identity(num_qubits),
    )


PRESETS = {
    "paper-default": lambda: paper_system(),
    "paper-crosstalk-2pct": lambda: paper_system(crosstalk_epsilon=0.02),
}


def named_preset(name: str) -> SystemConfig:
    try:
        factory = PRESETS[name]
    except KeyError:
        raise ConfigError(f"unknown preset {name!r}; known: {sorted(PRESETS)}") from None
    return factory()
