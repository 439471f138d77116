import json
import warnings

import numpy as np
import pytest

from cqedw import entanglement, tomography
from cqedw.cli import device_from_json, device_to_json, main, rho_from_json, rho_to_json
from cqedw.device import paper_system


def run_cli(*args):
    return main([str(a) for a in args])


def write_config(path, **overrides):
    cfg = {
        "device": "paper-default",
        "experiment": "rabi_scan",
        "output_dir": str(path.parent / "out"),
        "noise": False,
        "params": {},
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg, indent=1))
    return cfg


def test_export_preset_roundtrip(tmp_path):
    assert run_cli("export-preset", "paper-default", "--out", tmp_path, "--quiet") == 0
    path = tmp_path / "paper-default.json"
    obj = json.loads(path.read_text())
    loaded = device_from_json(obj)
    # fixed point: re-export reproduces the identical file
    assert json.dumps(device_to_json(loaded), indent=2, sort_keys=True) + "\n" == path.read_text()
    ref = paper_system()
    assert loaded.qubits == ref.qubits
    assert loaded.resonator == ref.resonator
    # kappa/2pi from the loaded preset
    from cqedw.device import decoherence_rates

    rates = decoherence_rates(loaded.qubits[0], loaded.resonator)
    assert np.isclose(rates.kappa / (2 * np.pi), 474.5e3, rtol=1e-3)


def test_export_unknown_preset_fails(tmp_path, capsys):
    with pytest.raises(SystemExit):  # argparse rejects unknown choices
        run_cli("export-preset", "nope", "--out", tmp_path)


def test_run_rabi_scan(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(
        cfg_path,
        params={
            "participating": ["A", "B", "C"],
            "tau_start_ns": 0.0,
            "tau_stop_ns": 20.0,
            "num_points": 81,
        },
    )
    assert run_cli("run", "--config", cfg_path, "--quiet") == 0
    out = tmp_path / "out"
    fit = json.loads((out / "fit_cavity.json").read_text())
    assert abs(fit["frequency_hz"] - 189.3e6) / 189.3e6 < 0.01
    trace = (out / "trace.csv").read_text().strip().split("\n")
    assert trace[0] == "time_ns,p_qA,p_qB,p_qC,p_ggg,n_cavity"
    assert len(trace) == 82
    # fitting the written CSV itself reproduces the collective frequency
    from cqedw.analysis import fit_damped_sinusoid

    rows = np.array([[float(x) for x in line.split(",")] for line in trace[1:]])
    refit = fit_damped_sinusoid(rows[:, 0] * 1e-9, rows[:, 5])
    assert abs(refit.frequency - 189.3e6) / 189.3e6 < 0.01
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["artifacts"]) == ["fit_cavity.json", "trace.csv"]
    for name in manifest["artifacts"]:
        assert (out / name).stat().st_size > 0
    import hashlib

    assert manifest["config_sha256"] == hashlib.sha256(cfg_path.read_bytes()).hexdigest()


def test_run_malformed_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("run", "--config", bad) == 2
    assert not (tmp_path / "out").exists()

    w = entanglement.TargetState.w_paper().vector.density_matrix()
    rho_path = tmp_path / "w.json"
    rho_path.write_text(json.dumps(rho_to_json(w)))
    for params in ({"restarts": "x"}, {"budget": "x"}, {"thresholds": [0.1]}, {"thresholds": "ab"}):
        write_config(bad, experiment="certify", seed=0, params={"rho_path": str(rho_path), **params})
        assert run_cli("run", "--config", bad) == 2

    # non-finite device parameters; json writes them as Infinity and NaN
    for section, key, value in (
        ("qubits", "g_over_pi_mhz", float("inf")),
        ("qubits", "t1_us", float("nan")),
        ("resonator", "omega_r_ghz", float("nan")),
    ):
        device = device_to_json(paper_system())
        (device["qubits"][0] if section == "qubits" else device["resonator"])[key] = value
        write_config(bad, experiment="w_collective", device=device)
        assert run_cli("run", "--config", bad) == 2

    # malformed or non-finite params and seeds; each used to escape as a traceback
    nan, inf = float("nan"), float("inf")
    scan = {"participating": ["A"], "tau_start_ns": 0.0, "tau_stop_ns": 10.0, "num_points": 11}
    nan_grid = [0, 1, 2, 3, 4, nan, 6, 7, 8, 9, 10]  # 11 points, enough to reach the fit
    for experiment, params, seed in (
        ("tomography", {"sigma": "abc"}, 0),
        ("tomography", {"sigma": nan}, 0),
        ("tomography", {"sigma": inf}, 0),
        ("rabi_scan", {**scan, "num_points": "x"}, None),
        ("rabi_scan", {**scan, "num_points": -3}, None),
        ("rabi_scan", {"participating": ["A"], "tau_grid_ns": ["a", "b"]}, None),
        ("rabi_scan", {"participating": ["A"], "tau_grid_ns": nan_grid}, None),
        ("rabi_scan", {"participating": ["A"], "tau_grid_ns": [[0, 1], [2, 3]]}, None),
        ("rabi_scan", {**scan, "tau_stop_ns": inf}, None),
        ("rabi_scan", {**scan, "participating": 5}, None),
        ("w_collective", {"source_qubit": "x"}, None),
        ("w_collective", {}, "abc"),
        ("w_collective", {}, -1),
        ("certify", {"rho_path": str(rho_path), "restarts": inf}, 0),
    ):
        write_config(bad, experiment=experiment, seed=seed, params=params)
        assert run_cli("run", "--config", bad) == 2, (experiment, params, seed)


def test_run_unknown_experiment_exits_2(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, experiment="teleportation")
    assert run_cli("run", "--config", cfg_path) == 2


def test_run_noise_without_seed_exits_2(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, experiment="w_collective", noise=True)
    assert run_cli("run", "--config", cfg_path) == 2


def test_run_numerical_failure_exits_3(tmp_path):
    # sampling exactly at full swap periods yields a constant trace, which
    # cannot seed the frequency fit
    period_ns = 1e9 * np.pi / abs(paper_system().qubits[0].coupling_g)
    cfg_path = tmp_path / "cfg.json"
    write_config(
        cfg_path,
        params={"participating": ["A"], "tau_grid_ns": [k * period_ns for k in range(9)]},
    )
    assert run_cli("run", "--config", cfg_path) == 3


def test_run_w_collective_and_certify(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, experiment="w_collective")
    assert run_cli("run", "--config", cfg_path, "--quiet") == 0
    out = tmp_path / "out"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["fidelity_w"] > 0.999

    # certify subcommand on the written state
    assert run_cli("certify", out / "rho.json", "--out", tmp_path / "cert", "--quiet") == 0
    report = json.loads((tmp_path / "cert" / "certification.json").read_text())
    assert report["classification"] == "W_class"
    assert report["fidelity"] > 0.999
    assert report["witness"] < -0.33


def test_certify_ideal_w_file(tmp_path):
    w = entanglement.TargetState.w_paper().vector.density_matrix()
    path = tmp_path / "w.json"
    path.write_text(json.dumps(rho_to_json(w)))
    assert run_cli("certify", path, "--out", tmp_path, "--quiet") == 0
    report = json.loads((tmp_path / "certification.json").read_text())
    assert np.isclose(report["fidelity"], 1.0, atol=1e-12)
    assert np.isclose(report["witness"], -1 / 3, atol=1e-12)
    assert report["tangle_bound"] < 1e-6


def test_certify_as_run_experiment(tmp_path):
    w = entanglement.TargetState.w_paper().vector.density_matrix()
    rho_path = tmp_path / "w.json"
    rho_path.write_text(json.dumps(rho_to_json(w)))
    cfg_path = tmp_path / "cfg.json"
    write_config(
        cfg_path,
        experiment="certify",
        seed=0,
        params={"rho_path": str(rho_path), "restarts": 4, "budget": 300},
    )
    assert run_cli("run", "--config", cfg_path, "--quiet") == 0
    report = json.loads((tmp_path / "out" / "certification.json").read_text())
    assert np.isclose(report["fidelity"], 1.0, atol=1e-12)
    assert np.isclose(report["witness"], -1 / 3, atol=1e-12)


def test_certify_rejects_invalid_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 8, "real": [1.0] * 64, "imag": [0.0] * 64}))
    assert run_cli("certify", bad, "--out", tmp_path) == 2
    bad.write_text(json.dumps({"dim": 0, "real": [], "imag": []}))
    assert run_cli("certify", bad, "--out", tmp_path) == 2
    w = rho_to_json(entanglement.TargetState.w_paper().vector.density_matrix())
    w["real"][9] = float("nan")  # json writes NaN, and json.loads reads it back
    bad.write_text(json.dumps(w))
    assert run_cli("certify", bad, "--out", tmp_path) == 2


def test_rho_json_roundtrip():
    w = entanglement.TargetState.w_paper().vector.density_matrix()
    back = rho_from_json(rho_to_json(w))
    assert np.abs(back.entries - w.entries).max() < 1e-15


def test_run_tomography_and_reconstruct_roundtrip(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(
        cfg_path,
        experiment="tomography",
        seed=5,
        params={"state": "w_collective", "sigma": 0.0},
    )
    assert run_cli("run", "--config", cfg_path, "--quiet") == 0
    out = tmp_path / "out"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["fidelity_to_truth"] > 1 - 1e-9

    # reconstruct subcommand from the written records
    assert (
        run_cli("reconstruct", out / "records.csv", "--out", tmp_path / "rec", "--quiet") == 0
    )
    rho_mle = rho_from_json(json.loads((tmp_path / "rec" / "rho_mle.json").read_text()))
    rho_true = rho_from_json(json.loads((out / "rho_true.json").read_text()))
    lam, vec = np.linalg.eigh(rho_true.entries)
    overlap = np.real(vec[:, -1].conj() @ rho_mle.entries @ vec[:, -1])
    assert overlap > 1 - 1e-9
    pauli_lines = (tmp_path / "rec" / "pauli_set.csv").read_text().strip().split("\n")
    assert pauli_lines[0] == "label,value"
    assert len(pauli_lines) == 65


def test_noisy_tomography_raises_no_warnings(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(
        cfg_path,
        experiment="tomography",
        noise=True,
        seed=3,
        params={"state": "w_sequential", "sigma": 0.02},
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("run", "--config", cfg_path, "--quiet") == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert 0.95 < summary["fidelity_to_truth"] <= 1.0


def test_reconstruct_missing_row_exits_2(tmp_path):
    tset = tomography.tomography_set(tomography.build_readout(tomography.DEFAULT_READOUT_COEFFICIENTS))
    w = entanglement.TargetState.w_paper().vector.density_matrix()
    recs = tomography.simulate_measurements(w, tset, 0.0, 0)
    text = tomography.records_to_csv(recs)
    lines = text.strip().split("\n")
    path = tmp_path / "records.csv"
    path.write_text("\n".join(lines[:-1]) + "\n")
    assert run_cli("reconstruct", path, "--out", tmp_path) == 2

    for value in ("nan", "inf", "-inf"):
        row = lines[5].rsplit(",", 1)[0] + "," + value
        path.write_text("\n".join(lines[:5] + [row] + lines[6:]) + "\n")
        assert run_cli("reconstruct", path, "--out", tmp_path) == 2

    path.write_text(text)
    readout = tmp_path / "readout.json"
    for coefficients in (["a"] * 8, [float("nan")] * 8):
        readout.write_text(json.dumps({"coefficients": coefficients}))
        assert run_cli("reconstruct", path, "--out", tmp_path, "--readout", readout) == 2


def test_determinism_bit_identical_artifacts(tmp_path):
    # acceptance criterion 12
    for tag in ("a", "b"):
        cfg_path = tmp_path / f"cfg_{tag}.json"
        write_config(
            cfg_path,
            experiment="tomography",
            noise=True,
            seed=42,
            output_dir=str(tmp_path / tag),
            params={"state": "w_sequential", "sigma": 0.02},
        )
        assert run_cli("run", "--config", cfg_path, "--quiet") == 0
    names = ["records.csv", "rho_true.json", "rho_mle.json", "pauli_set.csv", "summary.json"]
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    for tag in ("a", "b"):
        cfg_path = tmp_path / f"cfg_certify_{tag}.json"
        write_config(
            cfg_path,
            experiment="certify",
            seed=42,
            output_dir=str(tmp_path / f"certify_{tag}"),
            params={"rho_path": str(tmp_path / "a" / "rho_mle.json"), "restarts": 3, "budget": 200},
        )
        assert run_cli("run", "--config", cfg_path, "--quiet") == 0
    cert = [(tmp_path / f"certify_{tag}" / "certification.json").read_bytes() for tag in "ab"]
    assert cert[0] == cert[1]
    assert json.loads(cert[0])["optimizer_stats"]["iterations"] > 0


def test_seed_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(
        cfg_path,
        experiment="tomography",
        seed=1,
        output_dir=str(tmp_path / "o1"),
        params={"state": "w_sequential", "sigma": 0.05},
    )
    assert run_cli("run", "--config", cfg_path, "--quiet") == 0
    assert run_cli("run", "--config", cfg_path, "--out", tmp_path / "o2", "--seed", 2, "--quiet") == 0
    a = (tmp_path / "o1" / "records.csv").read_text()
    b = (tmp_path / "o2" / "records.csv").read_text()
    assert a != b
