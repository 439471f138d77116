"""North star 3 as a property of the config tables: any config the tables can
read, valid or not, exits 0, 2 or 3 with strict JSON and no warning, and a
failed run writes nothing.

The strategies are derived from the tables of ``cqedw.cli`` themselves
(``TOP``, each table in ``EXPERIMENTS``, ``DEVICE``, ``QUBIT``,
``RESONATOR``, ``RHO`` and ``READOUT``).  Each key mostly keeps a valid
value and otherwise draws a boundary value of its kind or a wrong type.
Integers, and so every size, come from a fixed set: the sizes above a cap
are checked by the code before anything is allocated.
"""
import itertools
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cqedw import cli, entanglement, tomography
from conftest import pure_density

ABSENT = object()  # a key left out of its object
BOUNDARY = {
    float: [0.0, -0.0, 5e-324, 1e300, -1e300],
    int: [0, 1, 8, 81, cli.MAX_POINTS + 1, 10**13],
    bool: [True, False],
    cli._qubit: ["a", "C", "Z", 3, 81],
}
WRONG = [None, True, -1, 2.5, "x", [], {}]  # values of every JSON type
KEEP = 8  # a key keeps its valid value KEEP times as often as it draws any one other strategy

W_RHO = cli.rho_to_json(pure_density(entanglement.W_PAPER))
READOUT = {"coefficients": list(tomography.DEFAULT_READOUT_COEFFICIENTS)}
PAPER = cli.PRESETS["paper-default"]
VALID_PARAMS = {  # valid params of each experiment; the inputs are files in the working directory
    "rabi_scan": [
        {"participating": ["A", "B", "C"], "tau_start_ns": 0.0, "tau_stop_ns": 20.0, "num_points": 81},
        {"participating": ["A"], "tau_grid_ns": [float(t) for t in np.linspace(0.0, 10.0, 11)]},
    ],
    "w_collective": [{"phase_correct": True, "source_qubit": 2}],
    "w_sequential": [{"phase_correct": False}],
    "tomography": [{"state": "w_collective", "sigma": 0.02},
                   {"state": "w_sequential", "sigma": 0.0, "readout_coefficients": READOUT["coefficients"]}],
    "reconstruct": [{"records_path": "records.csv"}],
    "certify": [{"rho_path": "rho.json"}],
}
assert set(VALID_PARAMS) == set(cli.EXPERIMENTS)


def values(kind, valid):
    """A value for one key of kind ``kind`` whose valid value is ``valid``.

    Mostly ``valid``; otherwise a boundary value of the kind (for a list, an
    empty, shortened or longer list, or one item redrawn; for a table, each
    key redrawn) or a wrong type.
    """
    if isinstance(kind, dict):
        other = table(kind, valid if isinstance(valid, dict) else {})
    elif isinstance(kind, list):
        items = valid if isinstance(valid, list) else []
        other = st.sampled_from([[], items[:1], items + items[:1]])
        if items:
            other |= st.integers(0, len(items) - 1).flatmap(
                lambda i: values(kind[0], items[i]).map(
                    lambda v: [*items[:i], *([] if v is ABSENT else [v]), *items[i + 1:]]))
    elif kind is cli.device_from_json:
        other = st.sampled_from(sorted(cli.PRESETS)) | table(cli.DEVICE, PAPER)
    elif kind in BOUNDARY:
        other = st.sampled_from(BOUNDARY[kind])
    elif isinstance(kind, tuple):
        other = st.sampled_from(kind)
    else:  # a string: only its valid value or a wrong type
        other = st.nothing()
    # one_of would merge the equal st.just branches; sampled_from keeps the weights
    choices = [st.just(valid)] * KEEP + [other, st.sampled_from([ABSENT, *WRONG])]
    return st.sampled_from(choices).flatmap(lambda strategy: strategy)


def table(tbl: dict, valid: dict):
    """An object read against ``tbl``: each key drawn by :func:`values`, and now and then an unknown key."""
    keys = {key: values(kind, valid.get(key, ABSENT)) for key, (kind, _) in tbl.items()}
    unknown = st.sampled_from([{}] * (2 * KEEP) + [{"unknown_key": 0}])
    return st.tuples(st.fixed_dictionaries(keys), unknown).map(
        lambda drawn: {**{k: v for k, v in drawn[0].items() if v is not ABSENT}, **drawn[1]})


def _configs(experiment: str, params: dict):
    """Run configs of ``experiment`` around the valid one with ``params``; params are read as their table."""
    top = {**cli.TOP, "params": (cli.EXPERIMENTS[experiment][0], ABSENT)}
    valid = {"experiment": experiment, "device": "paper-default", "noise": True, "seed": 1,
             "output_dir": "ignored", "params": params}
    return table(top, valid)


# a command line and the config, state and readout files it reads
CASES = st.fixed_dictionaries({
    "command": st.sampled_from(["run"] * 4 + ["certify", "reconstruct"]),
    "config": st.sampled_from([_configs(e, p) for e, ps in VALID_PARAMS.items() for p in ps]).flatmap(
        lambda strategy: strategy),
    "rho": table(cli.RHO, W_RHO),
    "readout": table(cli.READOUT, READOUT),
})


def _device(resonator=(), qubit=()):
    """The paper device with the ``resonator`` fields, and the ``qubit`` fields of every qubit, replaced."""
    device = json.loads(json.dumps(PAPER))
    device["resonator"].update(resonator)
    for q in device["qubits"]:
        q.update(qubit)
    return device


def _run(experiment, params, **top):
    return {"command": "run", "config": {"experiment": experiment, "params": params, **top},
            "rho": W_RHO, "readout": READOUT}


_counter = itertools.count()
_TSET = tomography.tomography_set(tomography.build_readout(READOUT["coefficients"]))
# the noiseless records of the W state under the default readout
RECORDS = tomography.records_to_csv(
    tomography.simulate_measurements(pure_density(entanglement.W_PAPER), _TSET, 0.0, 0), _TSET)


def _no_constant(name):
    raise ValueError(f"non-JSON constant {name}")


@pytest.mark.filterwarnings("error")  # a warning escapes main as an exception
@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=CASES)
# kappa overflows to inf, and the collapse operator was inf * 0
@example(case=_run("w_collective", {}, noise=True, device=_device(resonator={"quality_factor": 5e-324})))
# sum g^2 underflows to 0, and the collective interaction time was pi / 0
@example(case=_run("w_collective", {}, device=_device(qubit={"g_over_pi_mhz": 1e-300})))
# the fit's span**2 overflowed
@example(case=_run("rabi_scan", {"participating": ["A"], "tau_start_ns": 0.0, "tau_stop_ns": 1e300,
                                 "num_points": 11}))
# a fit that fails (exit 3) and a summary that would hold inf (exit 3)
@example(case=_run("rabi_scan", {"participating": ["A"], "tau_start_ns": 0.0, "tau_stop_ns": 1e-6,
                                 "num_points": 11}))
@example(case=_run("tomography", {"sigma": 1e300}, seed=0))
def test_any_config_exits_0_2_or_3_with_strict_json(tmp_path, monkeypatch, case):
    work = tmp_path / str(next(_counter))
    work.mkdir()
    monkeypatch.chdir(work)
    (work / "cfg.json").write_text(json.dumps(case["config"]))
    (work / "rho.json").write_text(json.dumps(case["rho"]))
    (work / "readout.json").write_text(json.dumps(case["readout"]))
    (work / "records.csv").write_text(RECORDS)
    argv = {
        "run": ["run", "--config", "cfg.json"],
        "certify": ["certify", "rho.json"],
        "reconstruct": ["reconstruct", "records.csv", "--readout", "readout.json"],
    }[case["command"]]
    code = cli.main([*argv, "--out", "out", "--quiet"])
    assert code in (0, 2, 3)
    if code:
        assert not (work / "out").exists()
        return
    for path in (work / "out").iterdir():
        if path.suffix == ".json":
            json.loads(path.read_text(), parse_constant=_no_constant)
