import numpy as np
import pytest

from cqedw import analysis
from cqedw.analysis import FitReport, fit_damped_sinusoid
from cqedw.errors import ConfigError, FitError
from cqedw.protocols import rabi_scan
from conftest import fit_model, preset_device


def test_fit_clean_cosine():
    t = np.linspace(0, 20e-9, 64)
    rep = fit_damped_sinusoid(t, np.cos(2 * np.pi * 100e6 * t))
    assert abs(rep.frequency - 100e6) / 100e6 < 1e-3
    assert abs(rep.amplitude - 1.0) < 1e-3
    assert rep.decay_rate < 1e5
    assert rep.residual_rms < 1e-6


_TRUTH = FitReport(
    frequency=130e6,
    amplitude=0.45,
    phase=0.7,
    decay_rate=3e7,
    offset=0.5,
    residual_rms=0.0,
    covariance_diagonal=(0.0,) * 5,
)


def test_fit_damped_noisy_roundtrip():
    rng = np.random.default_rng(9)
    truth = _TRUTH
    t = np.linspace(0, 25e-9, 120)
    rep = fit_damped_sinusoid(t, fit_model(truth, t))
    assert abs(rep.frequency - truth.frequency) / truth.frequency < 1e-3
    assert abs(rep.amplitude - truth.amplitude) / truth.amplitude < 1e-3
    assert abs(rep.decay_rate - truth.decay_rate) / truth.decay_rate < 1e-2
    assert abs(rep.offset - truth.offset) < 1e-3

    # round trip: regenerate from the report's own parameters and refit
    rep2 = fit_damped_sinusoid(t, fit_model(rep, t))
    assert abs(rep2.frequency - rep.frequency) / rep.frequency < 1e-3

    # noisy fit: every parameter within 4 reported standard errors of the
    # truth, and the residual at the noise level
    sigma = 0.01
    noisy = fit_damped_sinusoid(t, fit_model(truth, t) + sigma * rng.standard_normal(t.size))
    fitted = (noisy.frequency, noisy.amplitude, noisy.phase, noisy.decay_rate, noisy.offset)
    true = (truth.frequency, truth.amplitude, truth.phase, truth.decay_rate, truth.offset)
    stderr = np.sqrt(noisy.covariance_diagonal)
    assert np.all(np.abs(np.subtract(fitted, true)) <= 4 * stderr), (fitted, stderr)
    assert 0.5 * sigma <= noisy.residual_rms <= 2 * sigma


def test_fit_invariance_under_scale_and_offset():
    t = np.linspace(0, 18e-9, 90)
    y = 0.5 + 0.5 * np.exp(-1e7 * t) * np.cos(2 * np.pi * 150e6 * t + 0.3)
    f0 = fit_damped_sinusoid(t, y).frequency
    f1 = fit_damped_sinusoid(t, 3.7 * y - 1.2).frequency
    assert abs(f1 - f0) / f0 < 1e-3


def test_fit_errors():
    t = np.linspace(0, 20e-9, 64)
    with pytest.raises(FitError):
        fit_damped_sinusoid(t, np.full(64, 0.25))
    with pytest.raises(ConfigError):
        fit_damped_sinusoid(t[:5], np.cos(2 * np.pi * 100e6 * t[:5]))


def test_degenerate_fit_names_itself():
    # an ideal qubit-A scan over 1-2 ns, about a tenth of its period, sends the
    # periodogram seed to a point near 1.7 kHz with amplitude ~1e5, where the
    # Jacobian is rank-deficient and no variance is finite; the fit names the
    # degenerate fit rather than return variances no JSON artifact can hold
    trace = rabi_scan(preset_device(), [0], np.linspace(1e-9, 2e-9, 11))
    with pytest.raises(FitError, match="damped-sinusoid fit is degenerate: its Jacobian is rank-deficient"):
        fit_damped_sinusoid(trace.times, trace.cavity_population)


def test_fit_ideal_single_qubit_trace():
    cfg = preset_device()
    tau = np.linspace(0, 20e-9, 81)
    trace = rabi_scan(cfg, [0], tau)
    rep = fit_damped_sinusoid(trace.times, trace.cavity_population)
    assert abs(rep.frequency - 105.4e6) / 105.4e6 < 0.005


def test_fit_of_hardware_frequencies_gives_quoted_squared_ratios():
    # the measured one-, two- and three-qubit oscillations at 112.0, 161.8 and
    # 195.2 MHz, sampled as the scans are; the quoted squared ratios are 2.09 and 3.04
    t = np.linspace(0, 20e-9, 81)
    f1, f2, f3 = (fit_damped_sinusoid(t, np.cos(2 * np.pi * f * t)).frequency
                  for f in (112.0e6, 161.8e6, 195.2e6))
    assert abs((f2 / f1) ** 2 - 2.09) < 0.005
    assert abs((f3 / f1) ** 2 - 3.04) < 0.005


def _noisy_collective_trace():
    tau = np.linspace(0, 10e-9, 21)
    return tau, rabi_scan(preset_device(), [0, 1, 2], tau, noise=True).cavity_population


def test_fit_covariance_matches_seeded_scatter():
    # the reported sigma_f and sigma_gamma estimate the spread of the fitted
    # values over independent noise draws
    t = np.linspace(0, 25e-9, 120)
    clean = fit_model(_TRUTH, t)
    reports = [
        fit_damped_sinusoid(t, clean + 0.01 * np.random.default_rng(seed).standard_normal(t.size))
        for seed in range(200)
    ]
    for index, attr in ((0, "frequency"), (3, "decay_rate")):
        empirical = np.std([getattr(r, attr) for r in reports], ddof=1)
        reported = np.median([np.sqrt(r.covariance_diagonal[index]) for r in reports])
        assert 0.8 <= reported / empirical <= 1.25, (attr, reported, empirical)


def test_fit_covariance_matches_si_jacobian_svd():
    t, y = _noisy_collective_trace()
    rep = fit_damped_sinusoid(t, y)
    # Jacobian of the residuals in SI units at the reported parameters
    envelope = np.exp(-rep.decay_rate * t)
    theta = 2 * np.pi * rep.frequency * t + rep.phase
    jac = np.column_stack((
        -2 * np.pi * t * rep.amplitude * envelope * np.sin(theta),
        envelope * np.cos(theta),
        -rep.amplitude * envelope * np.sin(theta),
        -t * rep.amplitude * envelope * np.cos(theta),
        np.ones_like(t),
    ))
    _, sv, vt = np.linalg.svd(jac, full_matrices=False)
    s2 = t.size * rep.residual_rms**2 / (t.size - 5)
    reference = ((vt / sv[:, None]) ** 2).sum(axis=0) * s2
    np.testing.assert_allclose(rep.covariance_diagonal, reference, rtol=1e-6, atol=0)
    assert 1e-6 < np.sqrt(rep.covariance_diagonal[0]) / rep.frequency < 1e-1


_T64 = np.linspace(0, 20e-9, 64)
_Y64 = np.cos(2 * np.pi * 100e6 * _T64)
# 41 ascending times over 0-20 ns, bunched near 0; the periodogram seed took
# them as evenly spaced, and a noisy qubit-A scan on them fitted 0.337 MHz
_T_QUADRATIC = 20e-9 * np.linspace(0, 1, 41) ** 2


@pytest.mark.parametrize(
    "times, values, message",
    [
        (_T64[::-1], _Y64, "strictly ascending"),
        (np.repeat(_T64[:32], 2), _Y64, "strictly ascending"),
        (_T64, np.where(np.arange(64) == 5, np.nan, _Y64), "values must be finite"),
        (np.where(np.arange(64) == 63, np.inf, _T64), _Y64, "times must be finite"),
        (np.full(64, 1e-9), _Y64, "strictly ascending"),
        (np.random.default_rng(0).permutation(_T64), _Y64, "strictly ascending"),
        (_T_QUADRATIC, np.cos(2 * np.pi * 100e6 * _T_QUADRATIC), "evenly spaced"),
    ],
    ids=["descending", "repeated", "nan_value", "inf_time", "constant", "shuffled", "quadratic"],
)
def test_fit_rejects_bad_samples(times, values, message):
    with pytest.raises(ConfigError, match=message):
        fit_damped_sinusoid(times, values)


@pytest.mark.parametrize("participating", [[0], [0, 1], [0, 1, 2]], ids=["A", "AB", "ABC"])
def test_fit_ideal_trace_residual(participating):
    tau = np.linspace(0, 20e-9, 81)
    trace = rabi_scan(preset_device(), participating, tau)
    assert fit_damped_sinusoid(trace.times, trace.cavity_population).residual_rms < 1e-9


def test_fit_uses_analytic_jacobian_and_few_evaluations(monkeypatch):
    import scipy.optimize

    seen = {"jac": None, "calls": 0}
    original = scipy.optimize.least_squares

    def spy(fun, x0, jac="2-point", **kwargs):
        seen["jac"] = jac

        def counted(x):
            seen["calls"] += 1
            return fun(x)

        return original(counted, x0, jac=jac, **kwargs)

    monkeypatch.setattr(scipy.optimize, "least_squares", spy)
    t, y = _noisy_collective_trace()
    fit_damped_sinusoid(t, y)
    assert callable(seen["jac"])
    assert 0 < seen["calls"] <= 20
