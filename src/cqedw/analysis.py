"""Oscillation frequency extraction from population traces.

A population trace is fitted to a damped cosine by bounded least squares in
units of its time span, with the closed-form Jacobian.
"""
from __future__ import annotations

from dataclasses import dataclass

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

    The solve runs in units of the time span: u = t / span, F = f span and
    G = gamma span, so every parameter is of order one.  It passes the
    closed-form Jacobian of a + b exp(-G u) cos(2 pi F u + phi) to scipy's
    bounded ``dogbox`` least squares, seeded at the periodogram peak with
    0 <= F <= 0.75 n and G >= 0.  f, gamma and the covariance come back in
    SI units.

    ``covariance_diagonal`` holds the Gauss-Newton variances s^2 (J^T J)^-1
    of (f, b, phi, gamma, a), with s^2 the residual sum of squares over
    n - 5: for independent, equal-variance noise on the samples they
    estimate each parameter's sampling variance.  A rank-deficient Jacobian
    reports every variance as inf, which no JSON artifact holds (exit 3).

    Parameters
    ----------
    times : finite, strictly ascending sample times, s (>= 8 samples
        spanning >= 1 period)
    values : finite samples

    Raises
    ------
    ConfigError
        If the arrays are not equal-length 1-D, hold fewer than 8 samples,
        the times are not finite and strictly ascending or a value is not
        finite.
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
    if not np.isfinite(t).all():
        raise ConfigError("times must be finite")
    if not (np.diff(t) > 0).all():
        raise ConfigError("times must be strictly ascending")
    if not np.isfinite(y).all():
        raise ConfigError("values must be finite")
    f0, a0, p0 = _spectral_seed(t, y)

    from scipy.optimize import least_squares

    span = t[-1] - t[0]
    u = t / span

    def parts(params):
        big_f, amp, phase, big_g, offset = params
        envelope = np.exp(-big_g * u)
        theta = 2 * np.pi * big_f * u + phase
        return amp, offset, envelope * np.cos(theta), envelope * np.sin(theta)

    def residuals(params):
        amp, offset, ecos, _ = parts(params)
        return offset + amp * ecos - y

    def jacobian(params):
        amp, _, ecos, esin = parts(params)
        return np.column_stack(
            (-2 * np.pi * amp * u * esin, ecos, -amp * esin, -amp * u * ecos, np.ones_like(u))
        )

    x0 = np.array([f0 * span, a0, p0, 0.0, y.mean()])
    lower = [0.0, -np.inf, -2 * np.pi, 0.0, -np.inf]
    upper = [0.75 * t.size, np.inf, 2 * np.pi, np.inf, np.inf]
    result = least_squares(
        residuals, x0, jac=jacobian, bounds=(lower, upper), method="dogbox", max_nfev=5000
    )
    if not result.success:
        raise FitError(f"damped-sinusoid fit did not converge: {result.message}")
    big_f, amp, phase, big_g, offset = result.x
    if amp < 0:
        amp, phase = -amp, phase + np.pi
    rms = float(np.sqrt(np.mean(result.fun**2)))
    # (J^T J)^-1 from the SVD of J, so its condition number is not squared.
    _, sv, vt = np.linalg.svd(result.jac, full_matrices=False)
    if sv[-1] > sv[0] * t.size * np.finfo(float).eps:
        var = ((vt / sv[:, None]) ** 2).sum(axis=0) * (2 * result.cost / (t.size - 5))
        with np.errstate(over="ignore"):  # a span near 1e300 s: span**2 is inf, the variance 0
            var[[0, 3]] /= span**2
    else:
        var = np.full(5, np.inf)
    return FitReport(
        frequency=float(big_f / span),
        amplitude=float(amp),
        phase=float(np.mod(phase + np.pi, 2 * np.pi) - np.pi),
        decay_rate=float(big_g / span),
        offset=float(offset),
        residual_rms=rms,
        covariance_diagonal=tuple(float(v) for v in var),
    )
