"""Correctness gates: right outputs pass, deliberately corrupted ones fail.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import workloads  # noqa: E402
from workloads import GateError, Session  # noqa: E402


def test_expected_rabi_frequencies_match_the_paper():
    assert workloads.expected_rabi_mhz("A") == pytest.approx(105.4)
    assert workloads.expected_rabi_mhz("AB") == pytest.approx(152.9, abs=0.05)
    assert workloads.expected_rabi_mhz("ABC") == pytest.approx(189.3, abs=0.05)


@pytest.mark.parametrize("shift, tol, fails", [
    (0.009, 0.01, False), (0.011, 0.01, True), (-0.011, 0.01, True),
    (0.004, 0.005, False), (0.006, 0.005, True),
])
def test_fit_gate_rejects_a_shifted_frequency(shift, tol, fails):
    fit = {"frequency_hz": workloads.expected_rabi_mhz("ABC") * 1e6 * (1 + shift)}
    if fails:
        with pytest.raises(GateError):
            workloads.gate_fit(fit, "ABC", tol)
    else:
        workloads.gate_fit(fit, "ABC", tol)


def test_w_fidelity_tomography_and_batch_gates():
    workloads.gate_w_fidelity({"fidelity_w": 0.972}, 0.97)
    workloads.gate_w_fidelity({"fidelity_w": 0.952}, 0.93)
    for bad, centre in ((0.93, 0.97), (0.965, 0.93), (float("nan"), 0.97)):
        with pytest.raises(GateError):
            workloads.gate_w_fidelity({"fidelity_w": bad}, centre)
    workloads.gate_tomography({"fidelity_to_truth": 0.97})
    with pytest.raises(GateError):
        workloads.gate_tomography({"fidelity_to_truth": 0.94})
    workloads.gate_batch_fidelity([0.98, 0.97])
    with pytest.raises(GateError):
        workloads.gate_batch_fidelity([0.98, 0.90])


@pytest.mark.parametrize("report, expected", [
    ({"classification": "GHZ_class", "tangle_bound": 0.73}, "W_class"),
    ({"classification": "W_class", "tangle_bound": 0.2}, "W_class"),
    ({"classification": "inconclusive", "tangle_bound": 0.3}, "GHZ_class"),
    ({"classification": "GHZ_class", "tangle_bound": 0.95}, "GHZ_class"),
])
def test_certify_gate_rejects_wrong_verdicts(report, expected):
    with pytest.raises(GateError):
        workloads.gate_certify(report, expected)


def test_certify_inputs_are_seeded_valid_states():
    a, b = workloads.Certify.states(3), workloads.Certify.states(3)
    c = workloads.Certify.states(4)
    for name, rho in a.items():
        np.testing.assert_array_equal(rho, b[name])
        assert np.trace(rho).real == pytest.approx(1.0)
        assert np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() > -1e-12
    assert np.linalg.matrix_rank(a["full_rank_w"]) == 8
    assert np.linalg.matrix_rank(a["low_rank_w"]) == 2
    assert not np.allclose(a["full_rank_w"], c["full_rank_w"])
    np.testing.assert_array_equal(a["low_rank_w"], c["low_rank_w"])


def test_wrong_state_fails_the_certify_gate(tmp_path):
    """The GHZ mixture handed to a W expectation is caught and counted."""
    ghz = workloads.Certify.states(0)["ghz_w"]
    path = tmp_path / "ghz.json"
    path.write_text(json.dumps(workloads.rho_file(ghz)))
    session = Session()
    out = tmp_path / "out"
    gate = lambda o: workloads.gate_certify(json.loads((o / "certification.json").read_text()),
                                            "W_class")
    op = session.cli("certify", ["certify", str(path), "--out", str(out), "--quiet"], out, gate)
    assert not op.ok and "GHZ_class" in op.error
    assert op.cli and op.seconds > 0


def test_shifted_fit_fails_the_scan_gate(tmp_path):
    config = tmp_path / "scan.json"
    config.write_text(json.dumps(workloads._scan_config(("A",), 20.0, 81, False, 0)))
    out = tmp_path / "out"
    session = Session()
    gate = lambda o: workloads.gate_fit(json.loads((o / "fit_cavity.json").read_text()), "A",
                                        0.005)
    assert session.cli("scan", workloads._run_argv(config, out), out, gate).ok
    fit_path = out / "fit_cavity.json"
    fit = json.loads(fit_path.read_text())
    fit["frequency_hz"] *= 1.01
    fit_path.write_text(json.dumps(fit))
    with pytest.raises(GateError):
        gate(out)


def test_nonzero_exit_and_exceptions_count_as_failures(tmp_path):
    session = Session()
    out = tmp_path / "out"
    op = session.cli("certify", ["certify", str(tmp_path / "missing.json"), "--out", str(out),
                                 "--quiet"], out, lambda o: None)
    assert not op.ok and "status 2" in op.error
    op = session.run("recon", lambda: 1 / 0, lambda r: None)
    assert not op.ok and "ZeroDivisionError" in op.error
    assert [o.ok for o in session.ops] == [False, False]
