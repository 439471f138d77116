import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import cqedw
from cqedw import cli, entanglement, tomography
from cqedw.cli import device_from_json, device_to_json, main, rho_from_json, rho_to_json
from cqedw.errors import ConfigError, CqedwError, NumericalError
from cqedw.hilbert import DensityMatrix
from conftest import QUBIT_SPEC_3, preset_device, pure_density


def run_cli(*args):
    return main([str(a) for a in args])


def write_config(path, **overrides):
    cfg = {
        "experiment": "rabi_scan",
        "output_dir": str(path.parent / "out"),
        "params": {},
    }
    if overrides.get("experiment") not in cli.NO_DEVICE:  # certify and reconstruct take neither
        cfg.update(device="paper-default", noise=False)
    cfg.update(overrides)
    path.write_text(json.dumps(cfg, indent=1))
    return cfg


# sha256 of each exported preset; a change to a preset's values or to the writer moves it
PRESET_SHA256 = {
    "paper-default": "6050eba3136e0263bc3e946b7a9a90fe79fad2d51c11ce81f9bdb528c7effd2e",
    "paper-crosstalk-2pct": "4cce53199e7dbc200a647b6e06fc32ea2f98081ef7df112c3e5779c207391d22",
}


@pytest.mark.parametrize("name", sorted(PRESET_SHA256))
def test_export_preset_roundtrip(tmp_path, name):
    assert sorted(cli.PRESETS) == sorted(PRESET_SHA256)
    assert run_cli("export-preset", name, "--out", tmp_path, "--quiet") == 0
    path = tmp_path / f"{name}.json"
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PRESET_SHA256[name]
    obj = json.loads(path.read_text())
    # the preset is stored as the very object the export writes
    assert obj == cli.PRESETS[name]
    loaded = device_from_json(obj)
    # fixed point: re-export reproduces the identical file
    assert json.dumps(device_to_json(loaded), indent=2, sort_keys=True) + "\n" == path.read_text()
    ref = cli.named_preset(name)
    assert loaded.qubits == ref.qubits
    assert loaded.resonator == ref.resonator
    assert loaded.crosstalk.matrix.tobytes() == ref.crosstalk.matrix.tobytes()
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
    # the full fit report, covariance included
    assert set(fit) == {"frequency_hz", "amplitude", "phase_rad", "decay_rate_per_s", "offset",
                        "residual_rms", "covariance_diagonal"}
    assert len(fit["covariance_diagonal"]) == 5
    assert run_cli("run", "--config", cfg_path, "--out", tmp_path / "again", "--quiet") == 0
    assert (tmp_path / "again" / "fit_cavity.json").read_bytes() == (out / "fit_cavity.json").read_bytes()
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
    assert manifest["config_sha256"] == hashlib.sha256(cfg_path.read_bytes()).hexdigest()


def test_run_malformed_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("run", "--config", bad) == 2
    assert not (tmp_path / "out").exists()

    w = pure_density(entanglement.W_PAPER)
    rho_path = tmp_path / "w.json"
    rho_path.write_text(json.dumps(rho_to_json(w)))

    # non-finite device parameters; json writes them as Infinity and NaN
    for section, key, value in (
        ("qubits", "g_over_pi_mhz", float("inf")),
        ("qubits", "t1_us", float("nan")),
        ("resonator", "omega_r_ghz", float("nan")),
    ):
        device = device_to_json(preset_device())
        (device["qubits"][0] if section == "qubits" else device["resonator"])[key] = value
        write_config(bad, experiment="w_collective", device=device)
        assert run_cli("run", "--config", bad) == 2

    # malformed or non-finite params and seeds; each used to escape as a traceback
    nan, inf = float("nan"), float("inf")
    scan = {"participating": ["A"], "tau_start_ns": 0.0, "tau_stop_ns": 10.0, "num_points": 11}
    for experiment, params, seed in (
        ("tomography", {"sigma": "abc"}, 0),
        ("tomography", {"sigma": nan}, 0),
        ("tomography", {"sigma": inf}, 0),
        ("tomography", {"sigma": True}, 0),  # a boolean is no number
        ("rabi_scan", {**scan, "num_points": "x"}, None),
        ("rabi_scan", {**scan, "num_points": -3}, None),
        ("rabi_scan", {**scan, "tau_start_ns": "a"}, None),
        ("rabi_scan", {**scan, "tau_start_ns": nan}, None),
        ("rabi_scan", {**scan, "tau_stop_ns": [0, 10]}, None),
        ("rabi_scan", {**scan, "tau_stop_ns": inf}, None),
        ("rabi_scan", {**scan, "participating": 5}, None),
        ("rabi_scan", {**scan, "participating": [True]}, None),  # a boolean is no qubit index
        ("rabi_scan", {**scan, "tau_start_ns": -5.0}, None),  # negative times; this exited 0
        ("w_collective", {"phase_correct": "no"}, None),  # only JSON true/false
        ("w_collective", {}, "abc"),
        ("w_collective", {}, -1),
        # booleans and fractions in integer fields; int() used to truncate them
        ("rabi_scan", {**scan, "num_points": 40.7}, None),
        ("w_collective", {}, 1.5),
        ("w_collective", {}, True),
    ):
        write_config(bad, experiment=experiment, seed=seed, params=params)
        assert run_cli("run", "--config", bad) == 2, (experiment, params, seed)
    write_config(bad, experiment="w_collective", noise="no", seed=0)
    assert run_cli("run", "--config", bad) == 2
    write_config(bad, experiment="rabi_scan", noise=True, seed=1, params={**scan, "tau_start_ns": -5.0})
    assert run_cli("run", "--config", bad) == 2

    # unknown, misplaced and mistyped keys; each of these used to exit 0
    def device(edit):
        obj = device_to_json(preset_device())
        edit(obj)
        return obj

    rho_files = []
    for name, edit in (("dim.json", {"dim": 8.7}), ("basis.json", {"basis": "ABC-cavity-first"})):
        rho_files.append(tmp_path / name)
        rho_files[-1].write_text(json.dumps({**rho_to_json(w), **edit}))
    certify = {"rho_path": str(rho_path)}
    coefficients = list(tomography.DEFAULT_READOUT_COEFFICIENTS)
    for overrides in (
        {"experiment": "w_collective", "sede": 3},
        {"experiment": "w_collective", "params": {"phase_corect": False}},
        {"experiment": "w_collective", "params": {"sourse_qubit": 0}},
        # certify's descent settings are fixed, no longer keys
        {"experiment": "certify", "seed": 0, "params": {**certify, "restarts": 2}},
        {"experiment": "w_collective", "params": {"state": "w_sequential"}},  # used to be overridden
        # the W state is always loaded from qubit C, and a scan's times are always a range
        {"experiment": "w_collective", "params": {"source_qubit": 2}},
        {"experiment": "w_sequential", "params": {"source_qubit": 0}},  # used to be ignored
        {"experiment": "tomography", "seed": 0, "params": {"source_qubit": 1}},
        {"experiment": "tomography", "seed": 0,  # so was this one
         "params": {"state": "w_sequential", "source_qubit": 0}},
        {"experiment": "rabi_scan", "seed": 1, "params": {**scan, "sigma": 0.1}},
        {"experiment": "rabi_scan", "params": {**scan, "tau_grid_ns": list(range(11))}},
        {"experiment": "rabi_scan", "params": {"participating": ["A"], "tau_grid_ns": list(range(11))}},
        {"experiment": "rabi_scan", "params": {"participating": ["A"], "tau_start_ns": 0.0,
                                               "tau_stop_ns": 10.0}},
        {"experiment": "w_collective", "device": device(lambda d: d.update(crosstalks=d["crosstalk"]))},
        {"experiment": "w_collective", "device": device(lambda d: d["qubits"][0].update(t2_nss=5.0))},
        {"experiment": "w_collective", "device": device(lambda d: d["qubits"][0].update(t1_us=True))},
        {"experiment": "w_collective", "device": device(lambda d: d["qubits"][0].update(t1_us="2.1"))},
        {"experiment": "tomography", "seed": 0,
         "params": {"readout_coefficients": [coefficients[0], True, *coefficients[2:]]}},
        *({"experiment": "certify", "seed": 0, "params": {**certify, "rho_path": str(path)}}
          for path in rho_files),
        # certify and reconstruct run no dynamics; both keys used to be read and ignored
        {"experiment": "certify", "seed": 0, "device": "paper-default", "params": certify},
        {"experiment": "certify", "noise": True, "params": certify},
        {"experiment": "reconstruct", "device": device(lambda d: None),
         "params": {"records_path": str(rho_path)}},
        {"experiment": "reconstruct", "seed": 1, "noise": False, "params": {"records_path": str(rho_path)}},
    ):
        write_config(bad, **overrides)
        assert run_cli("run", "--config", bad) == 2, overrides
    err = capsys.readouterr().err  # the message names the offending key by its path
    for experiment in ("certify", "reconstruct"):
        for key in ("device", "noise"):
            assert f"{experiment} takes no key {key}" in err
    assert "params.phase_corect" in err and "device.qubits[0].t2_nss" in err
    assert "unknown key params.restarts" in err
    assert err.count("unknown key params.source_qubit") == 4
    assert err.count("unknown key params.tau_grid_ns") == 2
    assert "missing key params.num_points" in err
    for path in rho_files:
        assert run_cli("certify", path, "--out", tmp_path / "out") == 2
    # a device without qubits; it exited 2 before, through a caught LinAlgError
    write_config(bad, experiment="w_collective",
                 device=device(lambda d: (d.update(qubits=[]), d.pop("crosstalk"))))
    assert run_cli("run", "--config", bad) == 2
    assert not (tmp_path / "out").exists()


def test_oversized_device_exits_2(tmp_path, capsys):
    # the 2**N x 2**N qubit state of 11 qubits exceeds hilbert.MAX_DIM, and the
    # device is rejected when it is read, before any array is built
    bad = tmp_path / "big.json"
    scan = {"participating": ["A"], "tau_start_ns": 0.0, "tau_stop_ns": 10.0, "num_points": 11}
    default = device_to_json(preset_device())
    big = {**default, "qubits": default["qubits"][:1] * 11, "crosstalk": None}
    write_config(bad, device=big, params=scan)
    assert run_cli("run", "--config", bad, "--quiet") == 2
    assert "total dimension 2048" in capsys.readouterr().err
    # a device has no photon cutoff: every schedule runs on the single-excitation states
    write_config(bad, device={**default, "photon_cutoff": 2}, params=scan)
    assert run_cli("run", "--config", bad, "--quiet") == 2
    assert "unknown key device.photon_cutoff" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_nonfinite_detuning_exits_2(tmp_path, capsys):
    # a bias or resonator frequency of 1e300 GHz overflows the detuning to inf;
    # the ideal runs used to exit 1 with numpy's LinAlgError from eigh, the
    # noisy ones 3 with a non-finite density matrix
    bad = tmp_path / "huge.json"
    default = device_to_json(preset_device())
    qubits = [{**q, "bias_ghz": 1e300} if q["label"] == "B" else q for q in default["qubits"]]
    huge_bias = {**default, "qubits": qubits}
    huge_resonator = {**default, "resonator": {**default["resonator"], "omega_r_ghz": 1e300}}
    scan = {"participating": ["A"], "tau_start_ns": 0.0, "tau_stop_ns": 10.0, "num_points": 11}
    for device, experiment, params, named in ((huge_bias, "rabi_scan", scan, "B"),
                                              (huge_resonator, "w_sequential", {}, "A, B, C")):
        for noise in (False, True):
            write_config(bad, device=device, experiment=experiment, noise=noise, seed=1, params=params)
            assert run_cli("run", "--config", bad, "--quiet") == 2, (experiment, noise)
            assert f"qubit {named}: detuning is not finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_scan_point_cap_exits_2(tmp_path, capsys, monkeypatch):
    # num_points 10**13 used to exit 1 with numpy's _ArrayMemoryError (72.8 TiB);
    # the cap is checked before the grid is allocated
    bad = tmp_path / "many.json"
    scan = {"participating": ["A"], "tau_start_ns": 0.0, "tau_stop_ns": 10.0}
    write_config(bad, params={**scan, "num_points": 10**13})
    assert run_cli("run", "--config", bad, "--quiet") == 2
    assert f"10000000000000 interaction times, more than {cli.MAX_POINTS}" in capsys.readouterr().err
    monkeypatch.setattr(cli, "MAX_POINTS", 21)
    for params, code in (({**scan, "num_points": 21}, 0), ({**scan, "num_points": 22}, 2)):
        write_config(bad, params=params)
        assert run_cli("run", "--config", bad, "--quiet") == code, params


def test_ill_conditioned_readout_exits_2(tmp_path, capsys):
    # a design whose condition number exceeds tomography.MAX_CONDITION is
    # rejected by run and by reconstruct --readout; [0, 1e14, 1, ...] used to
    # exit 0 with a state of fidelity 0.95 at sigma = 0, and [0, 1e308, 1, ...],
    # whose design overflows, to exit 1 from the SVD's LinAlgError
    tset = tomography.tomography_set(tomography.build_readout(tomography.DEFAULT_READOUT_COEFFICIENTS))
    w = pure_density(entanglement.W_PAPER)
    records = tmp_path / "records.csv"
    records.write_text(tomography.records_to_csv(tomography.simulate_measurements(w, tset, 0.0, 0), tset))
    cfg, readout = tmp_path / "tomo.json", tmp_path / "readout.json"
    for coefficients, message in (([0, 1e14, 1, 1, 1, 1, 1, 1], "condition number"),
                                  ([0, 1, 0.95, 0.9, 0.85, 0.8, 0.75, 1e-300], "condition number"),
                                  ([0, 1e308, 1, 1, 1, 1, 1, 1], "readout coefficients too large")):
        write_config(cfg, experiment="tomography", seed=5,
                     params={"sigma": 0.0, "readout_coefficients": coefficients})
        assert run_cli("run", "--config", cfg, "--quiet") == 2
        assert message in capsys.readouterr().err
        readout.write_text(json.dumps({"coefficients": coefficients}))
        assert run_cli("reconstruct", records, "--readout", readout, "--out", tmp_path / "rec") == 2
        assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists() and not (tmp_path / "rec").exists()


def test_readme_matches_config_schema(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    # each key table in the README lists exactly the keys its schema table reads
    def keys(heading):
        block = readme.split(heading, 1)[1].split("\n\n", 2)[1]
        return set(re.findall(r"^\| `(\w+)`", block, re.M))

    assert keys("Top level:") == set(cli.TOP)
    assert keys("A device object") == set(cli.DEVICE)
    for name, (table, _) in cli.EXPERIMENTS.items():
        assert keys(f"`params` of `{name}`") == set(table), name
    # the sentence on a qubit object names exactly the keys its table reads
    sentence = readme.split("Each entry of `qubits` takes", 1)[1].split("all required.", 1)[0]
    assert re.findall(r"`(\w+)`", sentence) == list(cli.QUBIT)

    # the example config, verbatim, passes the schema and runs
    example = readme.split("Example `scan.json`:", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    (tmp_path / "scan.json").write_text(example)
    monkeypatch.chdir(tmp_path)
    assert run_cli("run", "--config", "scan.json", "--quiet") == 0
    assert (tmp_path / "out" / "scan3" / "fit_cavity.json").stat().st_size > 0


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OPENBLAS_CORETYPE names x86-64 kernels")
def test_certify_across_blas_kernels(tmp_path):
    # the cross-machine contract: on the certify benchmark's three inputs,
    # 0.6 GHZ + 0.4 W and seed 17 of the benchmark's rank-2 family, certify
    # keeps its verdicts under other OpenBLAS kernels, with bounds within 1e-9
    # absolute, and decides each rank-2 roof the same way, though np.roots
    # runs LAPACK's eigenvalue routine; Haswell needs AVX2 and Prescott only
    # SSE3 (SkylakeX would need AVX-512)
    w = np.outer(entanglement.W_PAPER, entanglement.W_PAPER.conj())
    ghz = np.outer(entanglement.GHZ, entanglement.GHZ.conj())
    rng = np.random.default_rng(1)
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    mixed = g @ g.conj().T
    pure = []
    for seed in (0, 17):
        fixed = np.random.default_rng(seed)
        psi = fixed.standard_normal(8) + 1j * fixed.standard_normal(8)
        pure.append(np.outer(psi, psi.conj()) / np.linalg.norm(psi) ** 2)
    paths = []
    for i, rho in enumerate((0.9 * w + 0.1 * mixed / np.trace(mixed).real,
                             0.9 * w + 0.1 * pure[0],
                             0.9 * ghz + 0.1 * w,
                             0.6 * ghz + 0.4 * w,
                             0.9 * w + 0.1 * pure[1])):
        paths.append(tmp_path / f"rho{i}.json")
        paths[-1].write_text(json.dumps(rho_to_json(DensityMatrix(0.5 * (rho + rho.conj().T), QUBIT_SPEC_3))))

    def reports(out):
        return [json.loads((out / p.stem / "certification.json").read_text()) for p in paths]

    for p in paths:
        assert run_cli("certify", p, "--out", tmp_path / "here" / p.stem, "--quiet") == 0
    here = reports(tmp_path / "here")
    assert [r["classification"] for r in here] == ["W_class", "W_class", "GHZ_class", "inconclusive", "W_class"]
    assert [r["optimizer_stats"]["rank2_roof"] for r in here] == [None, "positive", "positive", "zero", "zero"]
    code = ("import sys; from pathlib import Path; from cqedw.cli import main; out = Path(sys.argv[1]); "
            "sys.exit(any(main(['certify', p, '--out', str(out / Path(p).stem), '--quiet']) for p in sys.argv[2:]))")
    src = str(Path(cqedw.__file__).resolve().parent.parent)
    for core in ("Haswell", "Prescott"):
        subprocess.run([sys.executable, "-c", code, str(tmp_path / core), *map(str, paths)], check=True,
                       env={**os.environ, "PYTHONPATH": src, "OPENBLAS_CORETYPE": core})
        for mine, theirs in zip(here, reports(tmp_path / core)):
            assert theirs["classification"] == mine["classification"]
            assert abs(theirs["tangle_bound"] - mine["tangle_bound"]) <= 1e-9
            assert theirs["optimizer_stats"]["rank2_roof"] == mine["optimizer_stats"]["rank2_roof"], core


def test_cli_import_leaves_out_scipy_optimize():
    # only the fit and the propagators use scipy;
    # certify and reconstruct never do
    code = "import sys, cqedw.cli; print(any(m.startswith('scipy') for m in sys.modules))"
    src = str(Path(cqedw.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def test_import_defaults_blas_to_one_thread():
    # importing cqedw before numpy sets one BLAS thread, unless the user chose
    code = "import os, cqedw; print(os.environ['OPENBLAS_NUM_THREADS'], os.environ['OMP_NUM_THREADS'])"
    src = str(Path(cqedw.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    for preset, expected in ((None, "1 1"), ("2", "2 1")):
        extra = {} if preset is None else {"OPENBLAS_NUM_THREADS": preset}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**env, **extra, "PYTHONPATH": src})
        assert out.stdout.strip() == expected


def test_run_unknown_experiment_exits_2(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, experiment="teleportation")
    assert run_cli("run", "--config", cfg_path) == 2


def test_noisy_run_needs_no_seed(tmp_path):
    # the Lindblad propagation draws no random number; a noisy run without a
    # seed used to exit 2
    cfg_path = tmp_path / "cfg.json"
    for seed in (None, 1):
        write_config(cfg_path, experiment="w_collective", noise=True, seed=seed,
                     output_dir=str(tmp_path / str(seed)))
        assert run_cli("run", "--config", cfg_path, "--quiet") == 0, seed
    for name in ("rho.json", "summary.json"):
        assert (tmp_path / "None" / name).read_bytes() == (tmp_path / "1" / name).read_bytes()


def test_run_numerical_failure_exits_3(tmp_path, capsys):
    # sampling exactly at full swap periods, or 11 times within 1e-6 ns, yields
    # a constant trace, which cannot seed the frequency fit; the scan used to
    # leave trace.csv behind
    period_ns = 1e9 * np.pi / abs(preset_device().qubits[0].coupling_g)
    cfg_path = tmp_path / "cfg.json"
    for stop_ns, num_points in ((8 * period_ns, 9), (1e-6, 11)):
        params = {"participating": ["A"], "tau_start_ns": 0.0, "tau_stop_ns": stop_ns,
                  "num_points": num_points}
        write_config(cfg_path, params=params)
        assert run_cli("run", "--config", cfg_path) == 3
        assert "no dominant spectral peak" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_non_finite_artifact_exits_3(tmp_path, capsys):
    # a sigma of 1e300 makes summary.json's residual_norm inf, which the
    # artifact encoder refuses; a qubit-A scan over about a tenth of its
    # period makes the fit degenerate (its Jacobian is rank-deficient), which
    # the fit itself reports.  Such runs used to exit 0 and write the token
    # Infinity, which strict JSON parsers reject, and then to exit 3 leaving
    # the artifacts written before the failure
    cfg_path = tmp_path / "cfg.json"
    for experiment, params, message in (
        ("tomography", {"sigma": 1e300}, "artifact summary.json would hold a non-finite number"),
        ("rabi_scan", {"participating": ["A"], "tau_start_ns": 1.0, "tau_stop_ns": 2.0, "num_points": 11},
         "damped-sinusoid fit is degenerate: its Jacobian is rank-deficient"),
    ):
        out = tmp_path / experiment
        write_config(cfg_path, experiment=experiment, seed=0, output_dir=str(out), params=params)
        assert run_cli("run", "--config", cfg_path, "--quiet") == 3, experiment
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_every_package_error_has_an_exit_code():
    # main exits 2 on a ConfigError and 3 on a NumericalError; a new direct
    # subclass of CqedwError would escape it as a traceback
    assert CqedwError.__subclasses__() == [ConfigError, NumericalError]


def test_failed_rerun_leaves_a_finished_run_as_it_was(tmp_path, capsys):
    # the sigma 1e300 tomography fails after everything but summary.json is
    # computed; it used to overwrite four of the finished run's files
    cfg_path = tmp_path / "cfg.json"
    out = tmp_path / "out"
    write_config(cfg_path, experiment="tomography", seed=0, params={"sigma": 0.02})
    assert run_cli("run", "--config", cfg_path, "--quiet") == 0
    finished = {path.name: path.read_bytes() for path in out.iterdir()}
    assert "manifest.json" in finished and len(finished) == 6
    write_config(cfg_path, experiment="tomography", seed=0, params={"sigma": 1e300})
    assert run_cli("run", "--config", cfg_path, "--quiet") == 3
    assert {path.name: path.read_bytes() for path in out.iterdir()} == finished


def test_overflowing_rates_and_swap_times_exit_2(tmp_path, capsys):
    # a quality factor of 5e-324 makes kappa inf, and the collapse operator was
    # inf * 0; couplings of 1e-300 MHz make sum g^2 underflow to 0, and the
    # collective interaction time was pi / 0; both raised a RuntimeWarning
    cfg_path = tmp_path / "cfg.json"
    default = device_to_json(preset_device())
    tiny_q = {**default, "resonator": {**default["resonator"], "quality_factor": 5e-324}}
    tiny_g = {**default, "qubits": [{**q, "g_over_pi_mhz": 1e-300} for q in default["qubits"]]}
    for device, noise, named in ((tiny_q, True, "quality_factor"), (tiny_g, False, "g_over_pi_mhz")):
        write_config(cfg_path, experiment="w_collective", noise=noise, device=device)
        assert run_cli("run", "--config", cfg_path, "--quiet") == 2
        assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
    w = pure_density(entanglement.W_PAPER)
    path = tmp_path / "w.json"
    path.write_text(json.dumps(rho_to_json(w)))
    assert run_cli("certify", path, "--out", tmp_path, "--quiet") == 0
    report = json.loads((tmp_path / "certification.json").read_text())
    assert np.isclose(report["fidelity"], 1.0, atol=1e-12)
    assert np.isclose(report["witness"], -1 / 3, atol=1e-12)
    assert report["tangle_bound"] < 1e-6


WEAK_READOUT = [0.0, 1.0, 0.9, 0.8, 0.3, 0.25, 0.2, 0.1]


@pytest.mark.parametrize(
    "argv, seed, params",
    [
        (["certify", "rho.json"], None, {"rho_path": "rho.json"}),
        (["certify", "rho.json", "--seed", "3"], 3, {"rho_path": "rho.json"}),
        (["reconstruct", "records.csv"], None, {"records_path": "records.csv"}),
        (["reconstruct", "weak.csv", "--readout", "weak.json"], None,
         {"records_path": "weak.csv", "readout_coefficients": WEAK_READOUT}),
    ],
    ids=["certify", "certify-seed", "reconstruct", "reconstruct-readout"],
)
def test_subcommand_as_run_experiment(tmp_path, monkeypatch, argv, seed, params):
    # a subcommand executes the run config it stands for: same artifacts, and a manifest
    w = pure_density(entanglement.W_PAPER)
    rho = DensityMatrix(0.9 * w.entries + 0.1 * np.eye(8) / 8, w.spec)
    monkeypatch.chdir(tmp_path)
    Path("rho.json").write_text(json.dumps(rho_to_json(rho)))
    for name, coefficients in (("records.csv", tomography.DEFAULT_READOUT_COEFFICIENTS),
                               ("weak.csv", WEAK_READOUT)):
        tset = tomography.tomography_set(tomography.build_readout(coefficients))
        records = tomography.simulate_measurements(rho, tset, 0.0, 0)
        Path(name).write_text(tomography.records_to_csv(records, tset))
    Path("weak.json").write_text(json.dumps({"coefficients": WEAK_READOUT}))
    canonical = json.dumps({"experiment": argv[0], "seed": seed, "params": params}, sort_keys=True)
    Path("cfg.json").write_text(canonical)

    assert run_cli(*argv, "--out", "sub", "--quiet") == 0
    assert run_cli("run", "--config", "cfg.json", "--out", "run", "--quiet") == 0
    manifests = [json.loads(Path(out, "manifest.json").read_text()) for out in ("sub", "run")]
    for out, manifest in zip(("sub", "run"), manifests):
        assert manifest["config_sha256"] == hashlib.sha256(canonical.encode()).hexdigest()
        written = sorted(p.name for p in Path(out).iterdir() if p.name != "manifest.json")
        assert sorted(manifest["artifacts"]) == written
    assert manifests[0]["artifacts"] == manifests[1]["artifacts"]
    for name in manifests[0]["artifacts"]:
        assert Path("sub", name).read_bytes() == Path("run", name).read_bytes(), name
    report = json.loads(Path("sub", "certification.json").read_text())
    assert report["optimizer_stats"]["seed"] == (0 if seed is None else seed)
    assert np.isclose(report["fidelity"], 0.9 + 0.1 / 8, atol=1e-12)
    assert np.isclose(report["witness"], 2 / 3 - report["fidelity"], atol=1e-12)


def test_manifest_lists_what_the_run_wrote(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    w = pure_density(entanglement.W_PAPER)
    Path("rho.json").write_text(json.dumps(rho_to_json(w)))
    tset = tomography.tomography_set(tomography.build_readout(tomography.DEFAULT_READOUT_COEFFICIENTS))
    records = tomography.simulate_measurements(w, tset, 0.0, 0)
    Path("records.csv").write_text(tomography.records_to_csv(records, tset))
    params = {
        "rabi_scan": {"participating": ["A"], "tau_start_ns": 0.0, "tau_stop_ns": 20.0,
                      "num_points": 41},
        "w_collective": {},
        "w_sequential": {},
        "tomography": {"sigma": 0.01},
        "reconstruct": {"records_path": "records.csv"},
        "certify": {"rho_path": "rho.json"},
    }
    assert set(params) == set(cli.EXPERIMENTS)
    for experiment, p in params.items():
        cfg = {"experiment": experiment, "seed": 1, "output_dir": experiment, "params": p}
        Path("cfg.json").write_text(json.dumps(cfg))
        assert run_cli("run", "--config", "cfg.json", "--quiet") == 0, experiment
        manifest = json.loads(Path(experiment, "manifest.json").read_text())
        written = sorted(f.name for f in Path(experiment).iterdir() if f.name != "manifest.json")
        assert sorted(manifest["artifacts"]) == written, experiment


def test_certify_rejects_invalid_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 8, "real": [1.0] * 64, "imag": [0.0] * 64}))
    assert run_cli("certify", bad, "--out", tmp_path) == 2
    bad.write_text(json.dumps({"dim": 0, "real": [], "imag": []}))
    assert run_cli("certify", bad, "--out", tmp_path) == 2
    w = rho_to_json(pure_density(entanglement.W_PAPER))
    w["real"][9] = float("nan")  # json writes NaN, and json.loads reads it back
    bad.write_text(json.dumps(w))
    assert run_cli("certify", bad, "--out", tmp_path) == 2

    # a negative seed, on a mixed state and on the rank-1 path that draws no noise
    w = pure_density(entanglement.W_PAPER)
    mixed = rho_to_json(DensityMatrix(0.9 * w.entries + 0.1 * np.eye(8) / 8, w.spec))
    for rho in (mixed, rho_to_json(w)):
        bad.write_text(json.dumps(rho))
        assert run_cli("certify", bad, "--out", tmp_path / "neg", "--seed", -1) == 2
    assert not (tmp_path / "neg").exists()


@pytest.mark.parametrize("command", ["run", "export-preset", "certify", "reconstruct"])
def test_unwritable_output_exits_2(tmp_path, command):
    # --out under a regular file; each subcommand used to end in a NotADirectoryError traceback
    w = pure_density(entanglement.W_PAPER)
    tset = tomography.tomography_set(tomography.build_readout(tomography.DEFAULT_READOUT_COEFFICIENTS))
    inputs = {
        "run": ["--config", tmp_path / "cfg.json"],
        "export-preset": ["paper-default"],
        "certify": [tmp_path / "w.json"],
        "reconstruct": [tmp_path / "records.csv"],
    }
    write_config(tmp_path / "cfg.json", experiment="w_collective")
    (tmp_path / "w.json").write_text(json.dumps(rho_to_json(w)))
    records = tomography.simulate_measurements(w, tset, 0.0, 0)
    (tmp_path / "records.csv").write_text(tomography.records_to_csv(records, tset))
    (tmp_path / "file").write_text("")
    src = str(Path(cqedw.__file__).resolve().parent.parent)
    argv = [command, *map(str, inputs[command]), "--out", str(tmp_path / "file" / "out")]
    out = subprocess.run([sys.executable, "-m", "cqedw.cli", *argv], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 2, out.stderr
    assert "cannot write" in out.stderr and "Traceback" not in out.stderr


def test_rho_json_roundtrip():
    w = pure_density(entanglement.W_PAPER)
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
    w = pure_density(entanglement.W_PAPER)
    text = tomography.records_to_csv(tomography.simulate_measurements(w, tset, 0.0, 0), tset)
    lines = text.strip().split("\n")
    path = tmp_path / "records.csv"
    path.write_text("\n".join(lines[:-1]) + "\n")
    assert run_cli("reconstruct", path, "--out", tmp_path) == 2
    # a repeated triple and a triple outside the set; both used to exit 0
    assert lines[1].startswith("id,id,id,")
    for extra in ("id,id,id,0.25", "x45,id,id,0.5"):
        path.write_text(text + extra + "\n")
        assert run_cli("reconstruct", path, "--out", tmp_path / "extra") == 2
    assert not (tmp_path / "extra").exists()

    for value in ("nan", "inf", "-inf"):
        row = lines[5].rsplit(",", 1)[0] + "," + value
        path.write_text("\n".join(lines[:5] + [row] + lines[6:]) + "\n")
        assert run_cli("reconstruct", path, "--out", tmp_path) == 2

    path.write_text(text)
    assert run_cli("reconstruct", path, "--out", tmp_path / "neg", "--seed", -1) == 2
    assert not (tmp_path / "neg").exists()
    readout = tmp_path / "readout.json"
    for coefficients in (["a"] * 8, [float("nan")] * 8):
        readout.write_text(json.dumps({"coefficients": coefficients}))
        assert run_cli("reconstruct", path, "--out", tmp_path, "--readout", readout) == 2
    # a boolean coefficient and an unknown key; both used to exit 0
    coefficients = list(tomography.DEFAULT_READOUT_COEFFICIENTS)
    for obj in ({"coefficients": [True] * 8}, {"coefficients": coefficients, "coefficent": 1}):
        readout.write_text(json.dumps(obj))
        assert run_cli("reconstruct", path, "--out", tmp_path / "rd", "--readout", readout) == 2
    assert not (tmp_path / "rd").exists()
    # a directory and a file that is not UTF-8; both escaped as tracebacks with exit 1
    binary = tmp_path / "binary.csv"
    binary.write_bytes(b"\xff\xfe")
    for records in (tmp_path, binary):
        assert run_cli("reconstruct", records, "--out", tmp_path / "bin") == 2
    assert not (tmp_path / "bin").exists()


def test_reconstruct_huge_outcome_gives_pure_state(tmp_path):
    # one finite outcome of 1e17 used to end in a ValueError traceback (exit 1)
    tset = tomography.tomography_set(tomography.build_readout(tomography.DEFAULT_READOUT_COEFFICIENTS))
    w = pure_density(entanglement.W_PAPER)
    lines = tomography.records_to_csv(tomography.simulate_measurements(w, tset, 0.0, 0), tset).split("\n")
    lines[1] = lines[1].rsplit(",", 1)[0] + ",1e17"
    path = tmp_path / "records.csv"
    path.write_text("\n".join(lines))
    assert run_cli("reconstruct", path, "--out", tmp_path / "rec", "--quiet") == 0
    rho = rho_from_json(json.loads((tmp_path / "rec" / "rho_mle.json").read_text()))
    assert abs(np.trace(rho.entries) - 1.0) < 1e-12
    assert np.linalg.eigvalsh(rho.entries)[-1] > 1 - 1e-12  # a pure state
    # outcomes of +-1.7e308 overflow the linear estimate, which mle_project
    # refuses (exit 3); its matmul used to warn, a traceback under -W error
    huge = np.where(np.arange(len(tset.labels)) % 2, 1.7e308, -1.7e308)
    path.write_text(tomography.records_to_csv(huge, tset))
    assert run_cli("reconstruct", path, "--out", tmp_path / "huge", "--quiet") == 3
    assert not (tmp_path / "huge").exists()


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
            params={"rho_path": str(tmp_path / "a" / "rho_mle.json")},
        )
        assert run_cli("run", "--config", cfg_path, "--quiet") == 0
    cert = [(tmp_path / f"certify_{tag}" / "certification.json").read_bytes() for tag in "ab"]
    assert cert[0] == cert[1]
    stats = json.loads(cert[0])["optimizer_stats"]
    assert stats["iterations"] + stats["newton_steps"] > 0


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
