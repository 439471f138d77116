import numpy as np
import pytest

from cqedw.cli import PRESETS, device_from_json, named_preset
from cqedw.device import (
    CrosstalkMatrix,
    QubitParams,
    ResonatorParams,
    SystemConfig,
    apply_crosstalk,
    decoherence_rates,
    transmon_frequency,
)
from cqedw.errors import ConfigError
from cqedw.hilbert import HilbertSpec
from conftest import preset_device

# Maximum transition frequencies quoted for the sample, GHz.
QUOTED_MAX_FREQS = (9.58, 8.65, 8.23)


def test_transmon_frequency_formula():
    cfg = preset_device()
    qc = cfg.qubits[2]
    # direct evaluation of sqrt(8 Ec Ej) - Ec for qubit C
    expected = np.sqrt(8 * 0.358 * 25.7) - 0.358
    assert np.isclose(transmon_frequency(0.0, qc), expected, rtol=1e-12)
    assert np.isclose(expected, 8.2213, atol=5e-4)


def test_transmon_frequency_matches_quoted_maxima():
    cfg = preset_device()
    for q, quoted in zip(cfg.qubits, QUOTED_MAX_FREQS):
        rel = abs(transmon_frequency(0.0, q) - quoted) / quoted
        assert rel < 0.02, f"qubit {q.label}: {rel}"


def test_transmon_frequency_degenerate_and_periodic():
    q = preset_device().qubits[0]
    assert np.isclose(transmon_frequency(0.5, q), -q.ec)
    assert transmon_frequency(1.0, q) == transmon_frequency(0.0, q)
    # grid avoids the half-integer flux points, where sqrt|cos| is not
    # Lipschitz and roundoff in the argument is amplified unboundedly
    grid = np.linspace(-1.47, 1.53, 61)
    for f in grid:
        assert abs(transmon_frequency(f, q) - transmon_frequency(-f, q)) < 1e-12
        assert abs(transmon_frequency(f, q) - transmon_frequency(f + 1.0, q)) < 1e-12


def test_decoherence_rates_paper_values():
    cfg = preset_device()
    rates = decoherence_rates(cfg.qubits[0], cfg.resonator)
    assert np.isclose(rates.kappa / (2 * np.pi), 7.023e9 / 14800, rtol=1e-12)
    assert np.isclose(rates.kappa / (2 * np.pi), 474.5e3, rtol=1e-3)
    # qubit A: 1/100ns - 1/(2 * 2.1us)
    assert np.isclose(rates.gamma_phi, 1 / 100e-9 - 1 / (2 * 2.1e-6), rtol=1e-12)
    assert np.isclose(rates.gamma_phi, 9.76e6, rtol=1e-3)


def test_decoherence_rates_pure_relaxation_limit():
    q = QubitParams(ej_max=26.8, ec=0.459, coupling_g=1e8, bias_frequency=6.0, t1=1e-6, t2=2e-6)
    rates = decoherence_rates(q, ResonatorParams(7.0, 10000))
    assert rates.gamma_phi == 0.0


def test_decoherence_rates_never_negative():
    r = ResonatorParams(7.0, 10000)
    for t1 in (0.5e-6, 1e-6, 2e-6):
        for t2_frac in (0.1, 0.5, 1.0, 1.9999):
            q = QubitParams(26.8, 0.459, 1e8, 6.0, t1, t2_frac * t1)
            rates = decoherence_rates(q, r)
            assert rates.gamma1 >= 0 and rates.gamma_phi >= 0 and rates.kappa >= 0


def test_apply_crosstalk():
    ident = CrosstalkMatrix(np.eye(3))
    v = np.array([1e8, -2e8, 3e8])
    assert np.array_equal(apply_crosstalk(v, ident), v)

    xt = named_preset("paper-crosstalk-2pct").crosstalk
    out = apply_crosstalk(np.array([0.0, 0.0, 1e9]), xt)
    assert np.allclose(out, [0.02e9, 0.02e9, 1e9])

    # compensation: commanding inv(X) @ target realizes the target
    rng = np.random.default_rng(2)
    target = rng.standard_normal(3) * 1e9
    compensated = np.linalg.solve(xt.matrix, target)
    assert np.abs(apply_crosstalk(compensated, xt) - target).max() < 1e-12 * np.abs(target).max()

    with pytest.raises(ConfigError):
        apply_crosstalk(np.zeros(2), xt)


def test_crosstalk_matrix_must_be_invertible():
    with pytest.raises(ConfigError):
        CrosstalkMatrix(np.ones((3, 3)))


def test_qubit_params_validation():
    with pytest.raises(ConfigError):
        QubitParams(ej_max=-1.0, ec=0.4, coupling_g=1e8, bias_frequency=6.0, t1=1e-6, t2=1e-7)
    with pytest.raises(ConfigError):
        QubitParams(ej_max=26.0, ec=0.4, coupling_g=0.0, bias_frequency=6.0, t1=1e-6, t2=1e-7)
    with pytest.raises(ConfigError):
        QubitParams(ej_max=26.0, ec=0.4, coupling_g=1e8, bias_frequency=6.0, t1=1e-6, t2=3e-6)
    # NaN passes every ordering check, and an infinite t1 passes t2 <= 2 t1
    with pytest.raises(ConfigError):
        QubitParams(ej_max=26.0, ec=0.4, coupling_g=np.inf, bias_frequency=6.0, t1=1e-6, t2=1e-7)
    with pytest.raises(ConfigError):
        QubitParams(ej_max=26.0, ec=0.4, coupling_g=1e8, bias_frequency=6.0, t1=np.nan, t2=1e-7)
    with pytest.raises(ConfigError):
        QubitParams(ej_max=26.0, ec=0.4, coupling_g=1e8, bias_frequency=6.0, t1=np.inf, t2=1e-7)
    with pytest.raises(ConfigError):
        ResonatorParams(np.nan, 10000)


def test_paper_preset_contents():
    cfg = preset_device()
    assert cfg.spec.num_qubits == 3 and cfg.spec.photon_cutoff == 2
    g_over_pi_mhz = cfg.couplings() / np.pi / 1e6
    assert np.allclose(g_over_pi_mhz, [-105.4, 110.8, 111.6])
    assert cfg.resonator.omega_r == 7.023 and cfg.resonator.quality_factor == 14800
    assert np.allclose([q.t2 for q in cfg.qubits], [100e-9, 140e-9, 440e-9], rtol=1e-15)
    assert np.allclose([q.t1 for q in cfg.qubits], [2.1e-6, 1.8e-6, 1.0e-6], rtol=1e-15)
    assert np.array_equal(cfg.crosstalk.matrix, np.eye(3))
    # bias detunings Delta_j = omega_j - omega_r
    expected = 2 * np.pi * (np.array([6.11, 4.97, 7.82]) - 7.023) * 1e9
    assert np.allclose(cfg.bias_detunings(), expected)


def test_system_config_validation():
    cfg = preset_device()
    with pytest.raises(ConfigError):
        SystemConfig(
            qubits=cfg.qubits[:2],
            resonator=cfg.resonator,
            spec=HilbertSpec(3, 2),
            crosstalk=cfg.crosstalk,
        )


def test_named_presets():
    # a preset name and its inline device object take the one reader's path
    for name, obj in PRESETS.items():
        preset, inline = named_preset(name), device_from_json(obj)
        assert preset.qubits == inline.qubits and preset.resonator == inline.resonator
        assert np.array_equal(preset.crosstalk.matrix, inline.crosstalk.matrix)
    assert np.array_equal(named_preset("paper-default").crosstalk.matrix, np.eye(3))
    xt = named_preset("paper-crosstalk-2pct")
    assert np.array_equal(xt.crosstalk.matrix, np.eye(3) + 0.02 * (np.ones((3, 3)) - np.eye(3)))
    assert xt.qubits == named_preset("paper-default").qubits
    with pytest.raises(ConfigError, match="known: .'paper-crosstalk-2pct', 'paper-default'"):
        named_preset("nope")
