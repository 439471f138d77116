"""Batch experiment runner and file formats.

Subcommands: ``run``, ``export-preset``, ``reconstruct``, ``certify``.
Exit codes: 0 success, 2 config/schema error, 3 numerical failure.

All JSON/CSV artifacts are deterministic functions of the configuration
(including the seed), so identical runs produce bit-identical files.
Physical quantities in config files carry their unit in the field name
(g_over_pi_mhz, t1_us, ...) to keep the g/pi versus omega/2pi conventions
explicit.  Density matrices are stored as
{dim, real, imag, basis: "CBA-cavity-last"} with row-major arrays.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, analysis, entanglement, protocols, tomography
from .device import (
    G_RAD_PER_PI_MHZ,
    PRESETS,
    SECONDS_PER_NS,
    SECONDS_PER_US,
    CrosstalkMatrix,
    QubitParams,
    ResonatorParams,
    SystemConfig,
    named_preset,
)
from .errors import ConfigError, CqedwError, NumericalError
from .hilbert import DensityMatrix, HilbertSpec, qubit_spec

EXPERIMENTS = ("rabi_scan", "w_collective", "w_sequential", "tomography", "certify")


# ---------------------------------------------------------------------------
# file formats


def device_to_json(config: SystemConfig) -> dict:
    return {
        "photon_cutoff": config.spec.photon_cutoff,
        "resonator": {
            "omega_r_ghz": config.resonator.omega_r,
            "quality_factor": config.resonator.quality_factor,
        },
        "qubits": [
            {
                "label": q.label,
                "ej_max_ghz": q.ej_max,
                "ec_ghz": q.ec,
                "g_over_pi_mhz": q.coupling_g / G_RAD_PER_PI_MHZ,
                "bias_ghz": q.bias_frequency,
                "t1_us": q.t1 / SECONDS_PER_US,
                "t2_ns": q.t2 / SECONDS_PER_NS,
            }
            for q in config.qubits
        ],
        "crosstalk": [list(row) for row in config.crosstalk.matrix],
    }


def device_from_json(obj) -> SystemConfig:
    if isinstance(obj, str):
        return named_preset(obj)
    if not isinstance(obj, dict):
        raise ConfigError("device must be a preset name or an object")
    try:
        qubits = tuple(
            QubitParams(
                ej_max=float(q["ej_max_ghz"]),
                ec=float(q["ec_ghz"]),
                coupling_g=float(q["g_over_pi_mhz"]) * G_RAD_PER_PI_MHZ,
                bias_frequency=float(q["bias_ghz"]),
                t1=float(q["t1_us"]) * SECONDS_PER_US,
                t2=float(q["t2_ns"]) * SECONDS_PER_NS,
                label=str(q.get("label", "?")),
            )
            for q in obj["qubits"]
        )
        resonator = ResonatorParams(
            omega_r=float(obj["resonator"]["omega_r_ghz"]),
            quality_factor=float(obj["resonator"]["quality_factor"]),
        )
        cutoff = int(obj.get("photon_cutoff", 2))
        xtalk = (
            CrosstalkMatrix(np.array(obj["crosstalk"], dtype=float))
            if "crosstalk" in obj
            else CrosstalkMatrix.identity(len(qubits))
        )
    except (KeyError, TypeError, ValueError) as err:
        raise ConfigError(f"bad device object: {err}") from err
    return SystemConfig(
        qubits=qubits,
        resonator=resonator,
        spec=HilbertSpec(num_qubits=len(qubits), photon_cutoff=cutoff),
        crosstalk=xtalk,
    )


def rho_to_json(rho: DensityMatrix) -> dict:
    return {
        "dim": rho.spec.dim,
        "real": [float(x) for x in rho.entries.real.reshape(-1)],
        "imag": [float(x) for x in rho.entries.imag.reshape(-1)],
        "basis": "CBA-cavity-last",
    }


def rho_from_json(obj) -> DensityMatrix:
    try:
        d = int(obj["dim"])
        mat = (
            np.array(obj["real"], dtype=float) + 1j * np.array(obj["imag"], dtype=float)
        ).reshape(d, d)
    except (KeyError, TypeError, ValueError) as err:
        raise ConfigError(f"bad density-matrix object: {err}") from err
    try:
        return DensityMatrix(mat, qubit_spec(d))
    except NumericalError as err:
        raise ConfigError(f"file does not contain a valid density matrix: {err}") from err


def _write_text(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _write_json(path: Path, obj):
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# experiment execution


def _number(value, name: str, kind=float):
    """``value`` as a finite ``kind`` (float or int); ConfigError naming ``name`` otherwise.

    A JSON boolean is not a number, and an int field takes no fractional
    value: ``int`` alone would read true as 1 and truncate 2.9 to 2.
    """
    if isinstance(value, bool):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"{name} must be a finite number: {err}") from err
    if not np.isfinite(number):
        raise ConfigError(f"{name} must be finite, got {number}")
    return number


def _flag(value, name: str) -> bool:
    """``value`` if it is a JSON boolean; ConfigError naming ``name`` otherwise."""
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    return value


def _parse_qubit_list(raw, n: int) -> list[int]:
    if not isinstance(raw, list):
        raise ConfigError(f"participating must be a list of qubits, got {raw!r}")
    letters = {chr(ord("A") + j): j for j in range(n)}
    out = []
    for item in raw:
        if isinstance(item, int) and not isinstance(item, bool) and 0 <= item < n:
            out.append(item)
        elif isinstance(item, str) and item.upper() in letters:
            out.append(letters[item.upper()])
        else:
            raise ConfigError(f"unknown qubit {item!r}")
    return sorted(set(out))


def _tau_grid(params) -> np.ndarray:
    """Interaction times in seconds; ``protocols.rabi_scan`` validates their values."""
    if "tau_grid_ns" in params:
        try:
            return np.asarray(params["tau_grid_ns"], dtype=float) * 1e-9
        except (TypeError, ValueError) as err:
            raise ConfigError(f"tau_grid_ns must be a list of numbers: {err}") from err
    try:
        start, stop, num = params["tau_start_ns"], params["tau_stop_ns"], params["num_points"]
    except KeyError as err:
        raise ConfigError(f"rabi_scan needs tau_grid_ns or tau_start/stop/num_points: {err}")
    num = _number(num, "num_points", int)
    if num < 1:
        raise ConfigError(f"num_points must be >= 1, got {num}")
    return np.linspace(_number(start, "tau_start_ns"), _number(stop, "tau_stop_ns"), num) * 1e-9


def _prepare_state(config, params, noise, seed) -> tuple[DensityMatrix, dict]:
    kind = params.get("state", "w_collective")
    if kind == "w_collective":
        source = _number(params.get("source_qubit", 2), "source_qubit", int)
        rho = protocols.prepare_w_collective(config, noise=noise, source_qubit=source)
    elif kind == "w_sequential":
        rho = protocols.prepare_w_sequential(config, noise=noise)
    else:
        raise ConfigError(f"unknown state {kind!r} (use w_collective or w_sequential)")
    info = {"state": kind, "noise": noise}
    if _flag(params.get("phase_correct", True), "phase_correct"):
        rho, angles = protocols.apply_phase_correction(
            rho, entanglement.TargetState.w_paper().vector
        )
        info["phase_correction_angles_rad"] = [float(a) for a in angles]
    return rho, info


def _experiment_rabi_scan(config, params, noise, seed, out: Path) -> list[str]:
    participants = _parse_qubit_list(params.get("participating", [0]), config.spec.num_qubits)
    grid = _tau_grid(params)
    trace = protocols.rabi_scan(config, participants, grid, noise=noise)
    _write_text(out / "trace.csv", trace.to_csv())
    fit = analysis.fit_damped_sinusoid(trace.times, trace.cavity_population)
    _write_json(out / "fit_cavity.json", fit.to_dict())
    return ["trace.csv", "fit_cavity.json"]


def _experiment_w(config, params, noise, seed, out: Path, kind: str) -> list[str]:
    rho, info = _prepare_state(config, {**params, "state": kind}, noise, seed)
    _write_json(out / "rho.json", rho_to_json(rho))
    target = entanglement.TargetState.w_paper()
    info.update(
        fidelity_w=entanglement.fidelity(rho, target),
        witness=entanglement.witness_value(rho),
    )
    _write_json(out / "summary.json", info)
    return ["rho.json", "summary.json"]


def _experiment_tomography(config, params, noise, seed, out: Path) -> list[str]:
    rho_true, info = _prepare_state(config, params, noise, seed)
    coeffs = params.get("readout_coefficients", tomography.DEFAULT_READOUT_COEFFICIENTS)
    readout = tomography.build_readout(coeffs)
    tset = tomography.tomography_set(readout)
    sigma = _number(params.get("sigma", 0.0), "sigma")
    records = tomography.simulate_measurements(rho_true, tset, sigma, seed)
    _write_text(out / "records.csv", tomography.records_to_csv(records))
    result = tomography.reconstruct(records, tset)
    _write_json(out / "rho_true.json", rho_to_json(rho_true))
    _write_json(out / "rho_mle.json", rho_to_json(result.rho))
    _write_text(out / "pauli_set.csv", _pauli_csv(result.rho))
    info.update(
        sigma=sigma,
        fidelity_to_truth=entanglement.uhlmann_fidelity(result.rho, rho_true),
        fidelity_w=entanglement.fidelity(result.rho, entanglement.TargetState.w_paper()),
        eigenvalue_shift=result.eigenvalue_shift,
        residual_norm=result.residual_norm,
    )
    _write_json(out / "summary.json", info)
    return ["records.csv", "rho_true.json", "rho_mle.json", "pauli_set.csv", "summary.json"]


def _pauli_csv(rho: DensityMatrix) -> str:
    values = tomography.pauli_set(rho)
    lines = ["label,value"]
    lines += [f"{l},{v:.12g}" for l, v in zip(tomography.PAULI_LABELS, values)]
    return "\n".join(lines) + "\n"


def _experiment_certify(config, params, noise, seed, out: Path) -> list[str]:
    path = params.get("rho_path")
    if not path:
        raise ConfigError("certify needs params.rho_path")
    rho = _load_rho(Path(path))
    restarts = _number(params.get("restarts", entanglement.DEFAULT_RESTARTS), "restarts", int)
    budget = _number(params.get("budget", entanglement.DEFAULT_BUDGET), "budget", int)
    report = entanglement.certification_report(
        rho,
        restarts=restarts,
        budget=budget,
        seed=seed if seed is not None else 0,
        thresholds=params.get("thresholds", entanglement.DEFAULT_THRESHOLDS),
    )
    _write_json(out / "certification.json", report)
    return ["certification.json"]


def _load_rho(path: Path) -> DensityMatrix:
    if not path.exists():
        raise ConfigError(f"no such file: {path}")
    try:
        obj = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise ConfigError(f"invalid JSON in {path}: {err}") from err
    return rho_from_json(obj)


def run(config_path, out_override=None, seed_override=None, quiet=False) -> list[Path]:
    """Execute the experiment described by a config file; returns artifact paths."""
    config_path = Path(config_path)
    if not config_path.exists():
        raise ConfigError(f"no such config file: {config_path}")
    raw = config_path.read_bytes()
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as err:
        raise ConfigError(f"invalid JSON in {config_path}: {err}") from err
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")

    experiment = cfg.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}; known: {EXPERIMENTS}")
    device = device_from_json(cfg.get("device", "paper-default"))
    noise = _flag(cfg.get("noise", False), "noise")
    seed = cfg.get("seed") if seed_override is None else seed_override
    params = cfg.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("params must be an object")
    sigma = _number(params.get("sigma", 0.0), "sigma")
    if (noise or sigma > 0) and seed is None:
        raise ConfigError("a seed is required whenever noise is enabled")
    if seed is not None:
        seed = _number(seed, "seed", int)
        if seed < 0:
            raise ConfigError(f"seed must be >= 0, got {seed}")

    out = Path(out_override) if out_override else Path(cfg.get("output_dir", "."))
    out.mkdir(parents=True, exist_ok=True)

    start = time.time()
    if experiment == "rabi_scan":
        artifacts = _experiment_rabi_scan(device, params, noise, seed, out)
    elif experiment == "w_collective":
        artifacts = _experiment_w(device, params, noise, seed, out, "w_collective")
    elif experiment == "w_sequential":
        artifacts = _experiment_w(device, params, noise, seed, out, "w_sequential")
    elif experiment == "tomography":
        artifacts = _experiment_tomography(device, params, noise, seed, out)
    else:
        artifacts = _experiment_certify(device, params, noise, seed, out)

    manifest = {
        "config_sha256": hashlib.sha256(raw).hexdigest(),
        "artifacts": artifacts,
        "versions": {
            "cqedw": __version__,
            "numpy": np.__version__,
        },
        "duration_s": time.time() - start,
    }
    _write_json(out / "manifest.json", manifest)
    for name in artifacts:
        p = out / name
        if not p.exists() or p.stat().st_size == 0:
            raise NumericalError(f"artifact {name} missing or empty")
    if not quiet:
        print(f"{experiment}: wrote {len(artifacts)} artifacts to {out}")
    return [out / a for a in artifacts]


def export_preset(name: str, out_dir) -> Path:
    """Write a named device preset as a re-loadable config file."""
    config = named_preset(name)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{name}.json"
    _write_json(path, device_to_json(config))
    return path


def reconstruct(records_path, readout_config, out_dir, quiet=False, seed=0) -> list[Path]:
    """Rebuild a density matrix from a measurement-record CSV."""
    records_path = Path(records_path)
    if not records_path.exists():
        raise ConfigError(f"no such records file: {records_path}")
    coeffs = tomography.DEFAULT_READOUT_COEFFICIENTS
    if readout_config:
        try:
            obj = json.loads(Path(readout_config).read_text())
            coeffs = obj["coefficients"]
        except (OSError, json.JSONDecodeError, KeyError, TypeError) as err:
            raise ConfigError(f"bad readout config {readout_config}: {err}") from err
    readout = tomography.build_readout(coeffs)
    tset = tomography.tomography_set(readout)
    records = tomography.records_from_csv(records_path.read_text(), tset)
    result = tomography.reconstruct(records, tset)
    report = entanglement.certification_report(result.rho, seed=seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "rho_mle.json", rho_to_json(result.rho))
    _write_text(out / "pauli_set.csv", _pauli_csv(result.rho))
    _write_json(out / "certification.json", report)
    if not quiet:
        print(f"reconstructed state written to {out}")
    return [out / "rho_mle.json", out / "pauli_set.csv", out / "certification.json"]


def certify(rho_path, out_dir, seed=0, quiet=False) -> Path:
    """Certification report (fidelity, witness, tangle bound) for a state file."""
    rho = _load_rho(Path(rho_path))
    report = entanglement.certification_report(rho, seed=seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "certification.json"
    _write_json(path, report)
    if not quiet:
        print(f"certification written to {path}")
    return path


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cqedw",
        description="Collective vacuum Rabi / W-state experiments at desk scale",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--quiet", action="store_true")

    p_exp = sub.add_parser("export-preset", help="write a built-in device preset")
    p_exp.add_argument("name", choices=sorted(PRESETS))
    p_exp.add_argument("--out", default=".")
    p_exp.add_argument("--quiet", action="store_true")

    p_rec = sub.add_parser("reconstruct", help="reconstruct a state from records CSV")
    p_rec.add_argument("records")
    p_rec.add_argument("--readout", default=None, help="JSON file with readout coefficients")
    p_rec.add_argument("--out", default=".")
    p_rec.add_argument("--seed", type=int, default=0)
    p_rec.add_argument("--quiet", action="store_true")

    p_cert = sub.add_parser("certify", help="certify a density-matrix file")
    p_cert.add_argument("rho")
    p_cert.add_argument("--out", default=".")
    p_cert.add_argument("--seed", type=int, default=0)
    p_cert.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            run(args.config, args.out, args.seed, args.quiet)
        elif args.command == "export-preset":
            path = export_preset(args.name, args.out)
            if not args.quiet:
                print(f"preset written to {path}")
        elif args.command == "reconstruct":
            reconstruct(args.records, args.readout, args.out, args.quiet, args.seed)
        elif args.command == "certify":
            certify(args.rho, args.out, args.seed, args.quiet)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except NumericalError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    except CqedwError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
