"""Transmon and resonator physics: parameters, validation, decoherence rates,
crosstalk and flux tuning.

Each field comment gives its unit; the device file format and the built-in
presets, with their unit conversions, live in :mod:`cqedw.cli`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .hilbert import HilbertSpec

TWO_PI = 2.0 * np.pi


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
    crosstalk: CrosstalkMatrix

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(self.qubits))
        HilbertSpec(len(self.qubits), 0)  # the 2**N x 2**N qubit state stays within MAX_DIM
        if self.crosstalk.matrix.shape[0] != len(self.qubits):
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
    rad/s (so kappa/2pi is the linewidth in Hz).  A rate that overflows to
    inf is a ConfigError naming the field that is too small.
    """
    with np.errstate(over="ignore", divide="ignore"):
        gamma1 = 1.0 / q.t1
        gamma_phi = max(0.0, 1.0 / q.t2 - 0.5 / q.t1)
        kappa = TWO_PI * r.omega_r * 1e9 / r.quality_factor
    if not np.isfinite((gamma1, gamma_phi)).all():
        raise ConfigError(f"qubit {q.label}: t1 or t2 is too small for a finite decay rate")
    if not np.isfinite(kappa):
        raise ConfigError(f"resonator quality_factor {r.quality_factor} is too small for a finite kappa")
    return Rates(gamma1=gamma1, gamma_phi=gamma_phi, kappa=kappa)


def apply_crosstalk(commanded_detunings: Sequence[float], xtalk: CrosstalkMatrix) -> np.ndarray:
    """Realized detuning pulses for commanded ones (both rad/s)."""
    v = np.asarray(commanded_detunings, dtype=float)
    if v.shape != (xtalk.matrix.shape[0],):
        raise ConfigError("commanded detuning vector length must match matrix size")
    return xtalk.matrix @ v
