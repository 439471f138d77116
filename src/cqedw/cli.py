"""Batch experiment runner and file formats.

Subcommands: ``run``, ``export-preset``, ``reconstruct``, ``certify``; the last two
execute the ``run`` config they stand for, and all but ``export-preset`` write a manifest.
Exit codes: 0 success, 2 config/schema error, 3 numerical failure.  A runner
returns its artifacts and :func:`execute` alone writes them, after all are
encoded and with ``manifest.json`` last, so a run that fails writes nothing.

Every JSON input is read once against a table of its keys (:func:`read`): an
unknown key, a missing required key or a mistyped value exits 2 naming its
path (e.g. ``params.phase_corect``) before anything is written.

All JSON/CSV artifacts are deterministic functions of the configuration
(including the seed), so identical runs produce bit-identical files.
Density matrices are stored as {dim, real, imag, basis: "CBA-cavity-last"}
with row-major arrays.

A device is a preset name or a device object (:func:`device_to_json`); the
built-in presets are stored as device objects in :data:`PRESETS` and read by
the same :func:`device_from_json`.  Physical quantities in a device object
carry their unit in the field name (g_over_pi_mhz, t1_us, ...) to keep the
g/pi versus omega/2pi conventions explicit.  :class:`SystemConfig` holds
qubit and resonator frequencies in GHz (the value of omega/2pi), couplings
in signed rad/s and times in seconds: g = pi * (g_over_pi_mhz) * 1e6, so
that the vacuum Rabi frequency 2 g / 2pi reproduces the quoted MHz values.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from functools import cache, partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__, analysis, entanglement, protocols, tomography
from .device import CrosstalkMatrix, QubitParams, ResonatorParams, SystemConfig
from .errors import ConfigError, CqedwError, NumericalError
from .hilbert import DensityMatrix, qubit_spec

# ---------------------------------------------------------------------------
# file formats: one reader, and a table of the keys of each JSON object

REQUIRED = object()  # the default of a key that must be given


def read(obj, table: dict, path: str = "") -> dict:
    """Typed values of the JSON object ``obj``, one for each key of ``table``.

    ``table`` maps each key to ``(kind, default)``; a key outside it is an
    error, and an absent key takes its default, typed by the same kind.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"{path or 'config'} must be a JSON object, got {obj!r}")
    prefix = f"{path}." if path else ""
    for key in obj:
        if key not in table:
            raise ConfigError(f"unknown key {prefix}{key}; known: {', '.join(table)}")
    values = {}
    for key, (kind, default) in table.items():
        value = obj.get(key, default)
        if value is REQUIRED:
            raise ConfigError(f"missing key {prefix}{key}")
        if value is not None or default is not None:  # null is an absent optional key
            value = _typed(value, kind, prefix + key)
        values[key] = value
    return values


def _typed(value, kind, path: str):
    """``value`` as ``kind``, or a ConfigError naming ``path``.

    A kind is ``float`` (a finite number, never a boolean), ``int`` (a whole
    number >= 0), ``bool`` (JSON true/false), ``str``, ``dict`` (any object),
    a tuple of allowed strings, ``[item kind]`` for a list, a table for a
    nested object or a function of ``(value, path)``.
    """
    if isinstance(kind, dict):
        return read(value, kind, path)
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ConfigError(f"{path} must be a list, got {value!r}")
        return [_typed(v, kind[0], f"{path}[{i}]") for i, v in enumerate(value)]
    if isinstance(kind, tuple):
        if value not in kind:
            raise ConfigError(f"{path} must be one of {', '.join(kind)}; got {value!r}")
        return value
    if kind in (bool, str, dict):
        if not isinstance(value, kind):
            expected = {bool: "true or false", str: "a string", dict: "a JSON object"}[kind]
            raise ConfigError(f"{path} must be {expected}, got {value!r}")
        return value
    if kind in (float, int):
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        # abs(nan) <= max is false, and the bound keeps float() of a long integer finite
        if not (number and abs(value) <= sys.float_info.max):
            raise ConfigError(f"{path} must be a finite number, got {value!r}")
        if kind is int and (value < 0 or not float(value).is_integer()):
            raise ConfigError(f"{path} must be an integer >= 0, got {value!r}")
        return kind(value)
    return kind(value, path)


def _qubit(value, path: str) -> int:
    """A qubit index, or its letter (A or a is 0); the device checks the range."""
    if isinstance(value, str) and len(value) == 1 and "A" <= value.upper() <= "Z":
        return ord(value.upper()) - ord("A")
    if isinstance(value, int) and not isinstance(value, bool) and value >= 0:
        return value
    raise ConfigError(f"{path} must be a qubit index or letter, got {value!r}")


def _read_bytes(path: Path) -> bytes:
    """The bytes of a file; a missing file, a directory or any OSError is a ConfigError."""
    try:
        return path.read_bytes()
    except OSError as err:
        raise ConfigError(f"cannot read {path}: {err.strerror}") from err


def _load_json(path: Path) -> tuple[object, bytes]:
    """The parsed content of a JSON file, and its bytes."""
    raw = _read_bytes(path)
    try:
        return json.loads(raw), raw
    except ValueError as err:  # JSONDecodeError, or bytes that are not text
        raise ConfigError(f"invalid JSON in {path}: {err}") from err


# Unit conversions of the device format: reading multiplies by a constant and
# writing divides by the same one, so a device object round-trips bit for bit.
G_RAD_PER_PI_MHZ = np.pi * 1e6  # coupling rad/s per quoted (g/pi) MHz
SECONDS_PER_US = 1e-6
SECONDS_PER_NS = 1e-9


def device_to_json(config: SystemConfig) -> dict:
    return {
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


QUBIT = {
    "label": (str, "?"),
    "ej_max_ghz": (float, REQUIRED),
    "ec_ghz": (float, REQUIRED),
    "g_over_pi_mhz": (float, REQUIRED),
    "bias_ghz": (float, REQUIRED),
    "t1_us": (float, REQUIRED),
    "t2_ns": (float, REQUIRED),
}
RESONATOR = {"omega_r_ghz": (float, REQUIRED), "quality_factor": (float, REQUIRED)}
DEVICE = {
    "qubits": ([QUBIT], REQUIRED),
    "resonator": (RESONATOR, REQUIRED),
    "crosstalk": ([[float]], None),  # None: the identity, no crosstalk
}

# The paper's three-transmon sample (qubit A carries the negative coupling),
# exactly as `cqedw export-preset` writes it.
_PAPER_DEVICE = {
    "resonator": {"omega_r_ghz": 7.023, "quality_factor": 14800.0},
    "qubits": [
        {"label": "A", "ej_max_ghz": 26.8, "ec_ghz": 0.459, "g_over_pi_mhz": -105.4,
         "bias_ghz": 6.11, "t1_us": 2.1, "t2_ns": 100.0},
        {"label": "B", "ej_max_ghz": 28.1, "ec_ghz": 0.359, "g_over_pi_mhz": 110.8,
         "bias_ghz": 4.97, "t1_us": 1.8, "t2_ns": 140.0},
        {"label": "C", "ej_max_ghz": 25.7, "ec_ghz": 0.358, "g_over_pi_mhz": 111.6,
         "bias_ghz": 7.82, "t1_us": 1.0, "t2_ns": 440.0},
    ],
    "crosstalk": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
}
PRESETS = {
    "paper-default": _PAPER_DEVICE,
    # a uniform 2 % leakage of every flux pulse onto the other two qubits
    "paper-crosstalk-2pct": {
        **_PAPER_DEVICE,
        "crosstalk": [[1.0, 0.02, 0.02], [0.02, 1.0, 0.02], [0.02, 0.02, 1.0]],
    },
}


def device_from_json(obj, path: str = "device") -> SystemConfig:
    """A preset name, or a device object in the format of :func:`device_to_json`.

    A preset name stands for its device object in :data:`PRESETS`, which is
    read like any other.
    """
    if isinstance(obj, str):
        if obj not in PRESETS:
            raise ConfigError(f"unknown preset {obj!r}; known: {sorted(PRESETS)}")
        obj, path = PRESETS[obj], f"preset {obj}"
    device = read(obj, DEVICE, path)
    qubits = tuple(
        QubitParams(
            ej_max=q["ej_max_ghz"],
            ec=q["ec_ghz"],
            coupling_g=q["g_over_pi_mhz"] * G_RAD_PER_PI_MHZ,
            bias_frequency=q["bias_ghz"],
            t1=q["t1_us"] * SECONDS_PER_US,
            t2=q["t2_ns"] * SECONDS_PER_NS,
            label=q["label"],
        )
        for q in device["qubits"]
    )
    rows = device["crosstalk"]
    if rows is not None and len({len(row) for row in rows}) > 1:
        raise ConfigError(f"{path}.crosstalk rows differ in length")
    resonator = device["resonator"]
    return SystemConfig(
        qubits=qubits,
        resonator=ResonatorParams(resonator["omega_r_ghz"], resonator["quality_factor"]),
        crosstalk=CrosstalkMatrix(np.eye(len(qubits)) if rows is None else np.array(rows)),
    )


def named_preset(name: str) -> SystemConfig:
    """The device of the built-in preset ``name``; an unknown name is a ConfigError."""
    return device_from_json(name)


def rho_to_json(rho: DensityMatrix) -> dict:
    return {
        "dim": rho.spec.dim,
        "real": [float(x) for x in rho.entries.real.reshape(-1)],
        "imag": [float(x) for x in rho.entries.imag.reshape(-1)],
        "basis": "CBA-cavity-last",
    }


RHO = {
    "dim": (int, REQUIRED),
    "real": ([float], REQUIRED),
    "imag": ([float], REQUIRED),
    "basis": (("CBA-cavity-last",), "CBA-cavity-last"),
}
READOUT = {"coefficients": ([float], REQUIRED)}


def rho_from_json(obj, path: str = "rho") -> DensityMatrix:
    rho = read(obj, RHO, path)
    d = rho["dim"]
    if not len(rho["real"]) == len(rho["imag"]) == d * d:
        raise ConfigError(f"{path}.real and {path}.imag need dim**2 = {d * d} entries each")
    mat = (np.array(rho["real"]) + 1j * np.array(rho["imag"])).reshape(d, d)
    try:
        return DensityMatrix(mat, qubit_spec(d))
    except NumericalError as err:
        raise ConfigError(f"file does not contain a valid density matrix: {err}") from err


def _write_text(path: Path, text: str):
    """Write a text file, making its directory; any OSError is a ConfigError."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as err:
        raise ConfigError(f"cannot write {path}: {err.strerror}") from err


def _json_text(name: str, obj) -> str:
    """``obj`` as strict JSON text; a number that is not finite is a NumericalError naming ``name``."""
    try:
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as err:  # RFC 8259 has no token for inf or NaN
        raise NumericalError(f"artifact {name} would hold a non-finite number: {err}") from err


# ---------------------------------------------------------------------------
# experiment execution


class Run(NamedTuple):
    """The top-level settings every experiment shares."""

    device: SystemConfig
    noise: bool
    seed: int | None


def _prepare_state(run: Run, state, phase_correct, source_qubit=None):
    if state == "w_collective":
        source = COLLECTIVE["source_qubit"][1] if source_qubit is None else source_qubit
        rho = protocols.prepare_w_collective(run.device, run.noise, source)
    elif source_qubit is not None:  # a tomography config's params
        raise ConfigError("params.source_qubit is read only with state w_collective")
    else:
        rho = protocols.prepare_w_sequential(run.device, noise=run.noise)
    info = {"state": state, "noise": run.noise}
    if phase_correct:
        rho, angles = protocols.apply_phase_correction(rho, entanglement.W_PAPER)
        info["phase_correction_angles_rad"] = [float(a) for a in angles]
    return rho, info


def _rabi_scan(run: Run, participating, tau_grid_ns, tau_start_ns, tau_stop_ns, num_points):
    ranged = (tau_start_ns, tau_stop_ns, num_points)
    if (tau_grid_ns is None, ranged.count(None)) not in ((True, 0), (False, 3)):
        raise ConfigError("rabi_scan needs tau_grid_ns or tau_start_ns, tau_stop_ns, num_points")
    points = len(tau_grid_ns) if num_points is None else num_points
    if points > MAX_POINTS:
        raise ConfigError(f"rabi_scan asks for {points} interaction times, more than {MAX_POINTS}")
    if tau_grid_ns is None:
        tau_grid_ns = np.linspace(tau_start_ns, tau_stop_ns, num_points)
    grid = np.asarray(tau_grid_ns, dtype=float) * 1e-9  # rabi_scan validates the times
    trace = protocols.rabi_scan(run.device, participating, grid, noise=run.noise)
    fit = analysis.fit_damped_sinusoid(trace.times, trace.cavity_population)
    return {"trace.csv": trace.to_csv(), "fit_cavity.json": fit.to_dict()}


def _w_state(run: Run, **prep) -> dict:
    rho, info = _prepare_state(run, **prep)
    info.update(
        fidelity_w=entanglement.fidelity(rho, entanglement.W_PAPER),
        witness=entanglement.witness_value(rho),
    )
    return {"rho.json": rho_to_json(rho), "summary.json": info}


def _tomography(run: Run, sigma, readout_coefficients, **prep) -> dict:
    if sigma > 0 and run.seed is None:
        raise ConfigError("a seed is required whenever params.sigma > 0")
    rho_true, info = _prepare_state(run, **prep)
    tset = tomography.tomography_set(tomography.build_readout(readout_coefficients))
    outcomes = tomography.simulate_measurements(rho_true, tset, sigma, run.seed)
    result = tomography.reconstruct(outcomes, tset)
    info.update(
        sigma=sigma,
        fidelity_to_truth=entanglement.uhlmann_fidelity(result.rho, rho_true),
        fidelity_w=entanglement.fidelity(result.rho, entanglement.W_PAPER),
        eigenvalue_shift=result.eigenvalue_shift,
        residual_norm=result.residual_norm,
    )
    return {
        "records.csv": tomography.records_to_csv(outcomes, tset),
        "rho_true.json": rho_to_json(rho_true),
        **_estimate(result.rho),
        "summary.json": info,
    }


def _reconstruct(run: Run, records_path, readout_coefficients) -> dict:
    try:
        text = _read_bytes(Path(records_path)).decode()
    except UnicodeDecodeError as err:
        raise ConfigError(f"records file {records_path} is not UTF-8 text: {err}") from err
    tset = tomography.tomography_set(tomography.build_readout(readout_coefficients))
    rho = tomography.reconstruct(tomography.records_from_csv(text, tset), tset).rho
    return {**_estimate(rho), **_certification(run, rho)}


def _estimate(rho: DensityMatrix) -> dict:
    """The artifacts of a reconstructed state: the state and its 64 Pauli expectation values."""
    lines = ["label,value"]
    lines += [f"{l},{v:.12g}" for l, v in zip(tomography.PAULI_LABELS, tomography.pauli_set(rho))]
    return {"rho_mle.json": rho_to_json(rho), "pauli_set.csv": "\n".join(lines) + "\n"}


def _certify(run: Run, rho_path) -> dict:
    return _certification(run, rho_from_json(_load_json(Path(rho_path))[0], "params.rho_path"))


def _certification(run: Run, rho: DensityMatrix) -> dict:
    """The certification report of ``rho``; without a seed, seed 0."""
    seed = 0 if run.seed is None else run.seed
    return {"certification.json": entanglement.certification_report(rho, seed=seed)}


# Most interaction times of one scan, checked before the grid is allocated;
# the scans in use have at most 81.
MAX_POINTS = 10_000
PREP = {"phase_correct": (bool, True)}
COLLECTIVE = {**PREP, "source_qubit": (int, 2)}
RABI_SCAN = {
    "participating": ([_qubit], [0]),
    "tau_grid_ns": ([float], None),
    "tau_start_ns": (float, None),
    "tau_stop_ns": (float, None),
    "num_points": (int, None),
}
TOMOGRAPHY = {
    **PREP,
    "source_qubit": (int, None),  # w_collective only; absent means COLLECTIVE's default
    "state": (("w_collective", "w_sequential"), "w_collective"),
    "sigma": (float, 0.0),
    "readout_coefficients": ([float], list(tomography.DEFAULT_READOUT_COEFFICIENTS)),
}
CERTIFY = {"rho_path": (str, REQUIRED)}
RECONSTRUCT = {
    "records_path": (str, REQUIRED),
    "readout_coefficients": TOMOGRAPHY["readout_coefficients"],
}
# experiment name -> (table of its params, runner)
EXPERIMENTS = {
    "rabi_scan": (RABI_SCAN, _rabi_scan),
    "w_collective": (COLLECTIVE, partial(_w_state, state="w_collective")),
    "w_sequential": (PREP, partial(_w_state, state="w_sequential")),
    "tomography": (TOMOGRAPHY, _tomography),
    "reconstruct": (RECONSTRUCT, _reconstruct),
    "certify": (CERTIFY, _certify),
}
TOP = {
    "experiment": (tuple(EXPERIMENTS), REQUIRED),
    "device": (device_from_json, "paper-default"),
    "noise": (bool, False),
    "seed": (int, None),
    "output_dir": (str, "."),
    "params": (dict, {}),  # read against its experiment's table
}


def execute(cfg, raw: bytes, out=None, seed=None, quiet=False) -> list[Path]:
    """Execute a parsed config, then write its artifacts and manifest; returns artifact paths.

    The runner returns each artifact as CSV text or a JSON object, in order.
    Every one is encoded before the first is written, and ``manifest.json``
    is written last, so a failed run writes nothing and a directory holding
    a manifest holds a whole run.  The manifest hashes ``raw``, the config's
    bytes.  ``out`` and ``seed`` (an integer >= 0), when given, replace the
    config's output_dir and seed.
    """
    top = read(cfg, TOP)
    table, runner = EXPERIMENTS[top["experiment"]]
    params = read(top["params"], table, "params")
    seed = top["seed"] if seed is None else seed
    out = Path(out) if out else Path(top["output_dir"])

    start = time.perf_counter()
    artifacts = runner(Run(top["device"], top["noise"], seed), **params)
    texts = {name: c if isinstance(c, str) else _json_text(name, c) for name, c in artifacts.items()}
    texts["manifest.json"] = _json_text("manifest.json", {
        "config_sha256": hashlib.sha256(raw).hexdigest(),
        "artifacts": list(artifacts),
        "versions": {"cqedw": __version__, "numpy": np.__version__},
        "duration_s": time.perf_counter() - start,
    })
    for name, text in texts.items():
        _write_text(out / name, text)
    if not quiet:
        print(f"{top['experiment']}: wrote {len(artifacts)} artifacts to {out}")
    return [out / a for a in artifacts]


def run(config_path, quiet=False) -> list[Path]:
    """Execute the experiment described by a config file; returns artifact paths."""
    return execute(*_load_json(Path(config_path)), quiet=quiet)


def _command_config(args, seed) -> tuple[object, bytes]:
    """The config that a ``run``, ``certify`` or ``reconstruct`` command executes, and its bytes."""
    if args.command == "run":
        return _load_json(Path(args.config))
    if args.command == "certify":
        params = {"rho_path": args.rho}
    else:
        params = {"records_path": args.records}
        if args.readout:
            readout = read(_load_json(Path(args.readout))[0], READOUT, "readout")
            params["readout_coefficients"] = readout["coefficients"]
    cfg = {"experiment": args.command, "seed": seed, "params": params}
    return cfg, json.dumps(cfg, sort_keys=True).encode()


def export_preset(name: str, out_dir) -> Path:
    """Write a named device preset as a re-loadable config file."""
    path = Path(out_dir) / f"{name}.json"
    _write_text(path, _json_text(path.name, device_to_json(named_preset(name))))
    return path


@cache  # built on the first main() call, not at import, then reused
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cqedw",
        description="Collective vacuum Rabi / W-state experiments at desk scale",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    executed = argparse.ArgumentParser(add_help=False)  # options of the commands execute() runs
    executed.add_argument("--out", default=None)
    executed.add_argument("--seed", type=int, default=None)
    executed.add_argument("--quiet", action="store_true")

    p_run = sub.add_parser("run", parents=[executed], help="execute an experiment config")
    p_run.add_argument("--config", required=True)

    p_exp = sub.add_parser("export-preset", help="write a built-in device preset")
    p_exp.add_argument("name", choices=sorted(PRESETS))
    p_exp.add_argument("--out", default=".")
    p_exp.add_argument("--quiet", action="store_true")

    p_rec = sub.add_parser("reconstruct", parents=[executed],
                           help="reconstruct a state from records CSV")
    p_rec.add_argument("records")
    p_rec.add_argument("--readout", default=None, help="JSON file with readout coefficients")

    p_cert = sub.add_parser("certify", parents=[executed], help="certify a density-matrix file")
    p_cert.add_argument("rho")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "export-preset":
            path = export_preset(args.name, args.out)
            if not args.quiet:
                print(f"preset written to {path}")
        else:
            seed = None if args.seed is None else _typed(args.seed, int, "--seed")
            execute(*_command_config(args, seed), args.out, seed, args.quiet)
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
