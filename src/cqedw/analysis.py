"""Oscillation frequency extraction and the sqrt(N) scaling regression."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ConfigError, FitError


@dataclass(frozen=True)
class FitReport:
    """Damped-cosine fit a + b exp(-gamma t) cos(2 pi f t + phi)."""

    frequency: float  # Hz
    amplitude: float
    phase: float  # rad
    decay_rate: float  # 1/s
    offset: float
    residual_rms: float
    covariance_diagonal: tuple[float, ...]

    def __post_init__(self):
        if self.frequency < 0:
            raise ConfigError("fitted frequency must be >= 0")
        if not np.isfinite(self.residual_rms):
            raise ConfigError("residual RMS must be finite")

    def model(self, times: np.ndarray) -> np.ndarray:
        t = np.asarray(times, dtype=float)
        return self.offset + self.amplitude * np.exp(-self.decay_rate * t) * np.cos(
            2 * np.pi * self.frequency * t + self.phase
        )

    def to_dict(self) -> dict:
        return {
            "frequency_hz": self.frequency,
            "amplitude": self.amplitude,
            "phase_rad": self.phase,
            "decay_rate_per_s": self.decay_rate,
            "offset": self.offset,
            "residual_rms": self.residual_rms,
            "covariance_diagonal": list(self.covariance_diagonal),
        }


@dataclass(frozen=True)
class ScalingReport:
    """Ordinary least squares of squared frequency against qubit number."""

    qubit_numbers: tuple[int, ...]
    frequencies: tuple[float, ...]  # Hz
    slope: float  # Hz^2 per qubit
    intercept: float  # Hz^2
    r_squared: float

    def __post_init__(self):
        if self.slope <= 0:
            raise ConfigError("scaling slope must be positive for collective data")


def _spectral_seed(times: np.ndarray, values: np.ndarray):
    """Initial (f, amplitude, phase) from a zero-padded periodogram peak."""
    n = times.size
    span = times[-1] - times[0]
    centered = values - values.mean()
    scale = max(1.0, np.abs(values).max())
    if np.abs(centered).max() < 1e-12 * scale:
        raise FitError("no dominant spectral peak (constant input)")
    padded = 8 * n
    spectrum = np.fft.rfft(centered, n=padded)
    power = np.abs(spectrum) ** 2
    power[0] = 0.0
    peak = int(np.argmax(power))
    others = np.delete(power, peak)
    if power[peak] < 4.0 * np.median(others) or power[peak] <= 0:
        raise FitError("no dominant spectral peak")
    freqs = np.fft.rfftfreq(padded, d=span / (n - 1))
    # Parabolic interpolation around the maximum bin.
    f0 = freqs[peak]
    if 0 < peak < power.size - 1:
        denom = power[peak - 1] - 2 * power[peak] + power[peak + 1]
        if denom < 0:
            f0 = f0 + 0.5 * (power[peak - 1] - power[peak + 1]) / denom * (freqs[1] - freqs[0])
    amp = 2 * np.abs(spectrum[peak]) / n
    phase = np.angle(spectrum[peak])
    return f0, amp, phase


def fit_damped_sinusoid(times, values) -> FitReport:
    """Fit a + b exp(-gamma t) cos(2 pi f t + phi) to one population trace.

    Parameters
    ----------
    times : array of sample times, s (>= 8 samples spanning >= 1 period)
    values : array of samples

    Raises
    ------
    FitError
        If no dominant spectral peak seeds the fit or the least-squares
        refinement does not converge within its evaluation budget.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    if t.ndim != 1 or t.shape != y.shape:
        raise ConfigError("times and values must be equal-length 1-D arrays")
    if t.size < 8:
        raise ConfigError("need at least 8 samples")
    f0, a0, p0 = _spectral_seed(t, y)

    from scipy.optimize import least_squares

    def residuals(params):
        f, amp, phase, gamma, offset = params
        return offset + amp * np.exp(-gamma * t) * np.cos(2 * np.pi * f * t + phase) - y

    x0 = np.array([f0, a0, p0, 0.0, y.mean()])
    span = t[-1] - t[0]
    lower = [0.0, -np.inf, -2 * np.pi, 0.0, -np.inf]
    upper = [0.75 * t.size / span, np.inf, 2 * np.pi, np.inf, np.inf]
    result = least_squares(residuals, x0, bounds=(lower, upper), max_nfev=5000)
    if not result.success:
        raise FitError(f"damped-sinusoid fit did not converge: {result.message}")
    f, amp, phase, gamma, offset = result.x
    if amp < 0:
        amp, phase = -amp, phase + np.pi
    res = result.fun
    rms = float(np.sqrt(np.mean(res**2)))
    # Gauss-Newton covariance estimate; degenerate directions reported as inf.
    jac = result.jac
    dof = max(1, t.size - 5)
    try:
        cov = np.linalg.pinv(jac.T @ jac) * (2 * result.cost / dof)
        diag = tuple(float(v) for v in np.diag(cov))
    except np.linalg.LinAlgError:
        diag = tuple([float("inf")] * 5)
    return FitReport(
        frequency=float(f),
        amplitude=float(amp),
        phase=float(np.mod(phase + np.pi, 2 * np.pi) - np.pi),
        decay_rate=float(gamma),
        offset=float(offset),
        residual_rms=rms,
        covariance_diagonal=diag,
    )


def sqrtN_regression(reports: Mapping[int, FitReport]) -> ScalingReport:
    """Fit f_N^2 = slope * N + intercept over the provided per-N reports.

    For equal couplings g the slope estimates (2 g / 2 pi)^2 and the
    intercept vanishes.
    """
    if len(reports) < 2:
        raise ConfigError("need at least two distinct N to regress")
    ns = np.array(sorted(reports), dtype=float)
    f2 = np.array([reports[int(n)].frequency ** 2 for n in ns])
    slope, intercept = np.polyfit(ns, f2, 1)
    predicted = slope * ns + intercept
    ss_res = float(((f2 - predicted) ** 2).sum())
    ss_tot = float(((f2 - f2.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return ScalingReport(
        qubit_numbers=tuple(int(n) for n in ns),
        frequencies=tuple(float(reports[int(n)].frequency) for n in ns),
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r2,
    )


def scaling_to_csv(report: ScalingReport) -> str:
    """Plot-ready (N, f, f^2) rows for the scaling regression."""
    lines = ["n_qubits,frequency_hz,frequency_squared_hz2"]
    for n, f in zip(report.qubit_numbers, report.frequencies):
        lines.append(f"{n},{f:.12g},{f * f:.12g}")
    return "\n".join(lines) + "\n"

