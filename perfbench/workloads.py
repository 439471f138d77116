"""The benchmark's workloads, their operations and correctness gates.

Each workload is a single-process closed loop: one client runs operations
back to back, each starting when the previous one has finished.  A pass is
one full round of a workload's operations.  Every operation goes through a
stable entry point, ``cqedw.cli.main([...])`` or a public library function,
and every result passes a correctness gate whose tolerance comes from the
package's acceptance criteria.  Gates use plain numpy on the benchmark's
side so that checking a result never shows up in a layer's trace.

Importing this module imports numpy; ``run.py`` limits the BLAS threads
before it does.
"""
from __future__ import annotations

import json
import math
import statistics
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Quoted couplings g/pi of the paper-default preset, MHz (qubits A, B, C).
PAPER_G_OVER_PI_MHZ = {"A": 105.4, "B": 110.8, "C": 111.6}

# 1/sqrt(3) (|g,g,e> + |g,e,g> - |e,g,g>) in |C,B,A> order, basis index = bits.
W_PAPER = np.zeros(8, dtype=complex)
W_PAPER[[0b001, 0b010, 0b100]] = (1.0, 1.0, -1.0)
W_PAPER /= np.sqrt(3.0)
GHZ = np.zeros(8, dtype=complex)
GHZ[[0b000, 0b111]] = 1.0 / np.sqrt(2.0)

RECON_SIGMA = 0.02
LOW_RANK_STATE_SEED = 0
RECON_BATCH = 128


class GateError(Exception):
    """An operation's output is outside its acceptance tolerance."""


# -- correctness gates ---------------------------------------------------------


def expected_rabi_mhz(participants) -> float:
    """Collective vacuum Rabi frequency 2 sqrt(sum g^2) / 2pi of the set, MHz."""
    return math.sqrt(sum(PAPER_G_OVER_PI_MHZ[q] ** 2 for q in participants))


def gate_fit(fit: dict, participants, rel_tol: float):
    expected = expected_rabi_mhz(participants)
    got = fit["frequency_hz"] / 1e6
    if not abs(got - expected) <= rel_tol * expected:
        raise GateError(f"fitted {got:.3f} MHz, expected {expected:.3f} MHz within {rel_tol:.1%}")


def gate_w_fidelity(summary: dict, centre: float, tol: float = 0.03):
    fid = summary["fidelity_w"]
    if not abs(fid - centre) <= tol:
        raise GateError(f"fidelity_w {fid:.4f} outside {centre} +- {tol}")


def gate_tomography(summary: dict, minimum: float = 0.95):
    fid = summary["fidelity_to_truth"]
    if not fid > minimum:
        raise GateError(f"fidelity_to_truth {fid:.4f} not above {minimum}")


def gate_certify(report: dict, expected: str):
    """W inputs must be W_class with a tangle bound below 0.1; GHZ inputs
    GHZ_class with a bound in (0.5, 0.9], 0.9 being the mean tangle of the
    decomposition the state was mixed from."""
    cls, bound = report["classification"], report["tangle_bound"]
    if cls != expected:
        raise GateError(f"classified {cls}, expected {expected}")
    if expected == "W_class" and not bound < 0.1:
        raise GateError(f"tangle bound {bound:.4f} not below 0.1 for a W input")
    if expected == "GHZ_class" and not 0.5 < bound <= 0.9:
        raise GateError(f"tangle bound {bound:.4f} outside (0.5, 0.9] for the GHZ input")


def w_fidelity(rho: np.ndarray) -> float:
    return float(np.real(W_PAPER.conj() @ rho @ W_PAPER))


def gate_batch_fidelity(fidelities, minimum: float = 0.95):
    mean = float(np.mean(fidelities))
    if not mean > minimum:
        raise GateError(f"mean reconstruction fidelity {mean:.4f} not above {minimum}")


# -- operations ----------------------------------------------------------------


@dataclass
class Op:
    kind: str
    seconds: float
    ok: bool
    warnings: int
    cli: bool
    error: str | None = None


@dataclass
class Session:
    """Runs operations one after another and records each outcome.

    ``tracer`` (optional) is told which operation is running, so its spans
    carry the operation id.  ``clock`` times the operations.
    """

    tracer: object = None
    clock: object = time.perf_counter
    ops: list = field(default_factory=list)
    bytes_written: int = 0

    def run(self, kind, fn, gate, cli=False):
        """Time ``fn()``, then check its result with ``gate``; never raises."""
        if self.tracer is not None:
            self.tracer.op = len(self.ops)
        error = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = self.clock()
            try:
                result = fn()
                seconds = self.clock() - start
                gate(result)
            except (Exception, SystemExit) as exc:  # every failure is counted, none stops the loop
                seconds = self.clock() - start
                error = f"{type(exc).__name__}: {exc}"
        if self.tracer is not None:
            self.tracer.op = None
        op = Op(kind, seconds, error is None, len(caught), cli, error)
        self.ops.append(op)
        return op

    def cli(self, kind, argv, out: Path, gate):
        """One ``cqedw.cli.main`` call; a nonzero exit status is a failure."""
        from cqedw import cli

        def call():
            status = cli.main(argv)
            if status != 0:
                raise RuntimeError(f"cqedw {argv[0]} exited with status {status}")
            return out

        op = self.run(kind, call, gate, cli=True)
        self.bytes_written += sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        return op


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _write_json(path: Path, obj):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def rho_file(rho: np.ndarray) -> dict:
    """A density matrix in the package's documented file format."""
    return {
        "dim": int(rho.shape[0]),
        "real": [float(x) for x in rho.real.reshape(-1)],
        "imag": [float(x) for x in rho.imag.reshape(-1)],
        "basis": "CBA-cavity-last",
    }


def _scan_config(parts, stop_ns, points, noise, seed):
    return {
        "device": "paper-default",
        "experiment": "rabi_scan",
        "noise": noise,
        "seed": seed,
        "params": {
            "participating": list(parts),
            "tau_start_ns": 0.0,
            "tau_stop_ns": stop_ns,
            "num_points": points,
        },
    }


def _run_argv(config: Path, out: Path):
    return ["run", "--config", str(config), "--out", str(out), "--quiet"]


# -- workloads -----------------------------------------------------------------


class Workload:
    """Set-up writes the inputs under ``work``; a pass runs every operation once."""

    name = ""

    def setup(self, work: Path, seed: int):
        from cqedw import cli

        cli.named_preset("paper-default")
        self.work = work

    def run_pass(self, session: Session):
        raise NotImplementedError


class RabiNoisy(Workload):
    """One noisy 21-point, 0-10 ns collective scan on A+B+C and its cavity fit.

    The scan is long open-system propagation and touches neither tomography
    nor entanglement.  The Lindblad dynamics is deterministic, so the seed
    only fills the config's required ``seed`` field.
    """

    name = "rabi_noisy"
    PARTS = ("A", "B", "C")

    def setup(self, work, seed):
        super().setup(work, seed)
        self.config = work / "rabi_noisy.json"
        _write_json(self.config, _scan_config(self.PARTS, 10.0, 21, True, seed))

    def run_pass(self, session):
        out = self.work / "out" / "rabi_noisy"
        session.cli("scan", _run_argv(self.config, out), out,
                    lambda o: gate_fit(_read_json(o / "fit_cavity.json"), self.PARTS, 0.01))


class PrepTomo(Workload):
    """Many short calls: ideal scans, noisy W preparations, one tomography
    run, then a batch of simulate-and-reconstruct calls on a W state."""

    name = "prep_tomo"
    SCANS = (("A",), ("A", "B"), ("A", "B", "C"))
    PREPS = (("w_collective", 0.97), ("w_sequential", 0.93))

    def setup(self, work, seed):
        super().setup(work, seed)
        from cqedw import tomography
        from cqedw.hilbert import DensityMatrix, HilbertSpec

        self.configs = {}
        for parts in self.SCANS:
            name = "scan_" + "".join(parts)
            self.configs[name] = work / f"{name}.json"
            _write_json(self.configs[name], _scan_config(parts, 20.0, 81, False, seed))
        for kind, _ in self.PREPS:
            self.configs[kind] = work / f"{kind}.json"
            _write_json(self.configs[kind], {"device": "paper-default", "experiment": kind,
                                             "noise": True, "seed": seed, "params": {}})
        self.configs["tomography"] = work / "tomography.json"
        _write_json(self.configs["tomography"], {
            "device": "paper-default", "experiment": "tomography", "noise": True,
            "seed": seed, "params": {"sigma": RECON_SIGMA},
        })
        self.rho_w = DensityMatrix(np.outer(W_PAPER, W_PAPER.conj()), HilbertSpec(3, 0))
        self.tset = tomography.tomography_set(
            tomography.build_readout(tomography.DEFAULT_READOUT_COEFFICIENTS)
        )
        self.noise_seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(RECON_BATCH)]

    def run_pass(self, session):
        from cqedw import tomography

        out = self.work / "out"
        for parts in self.SCANS:
            name = "scan_" + "".join(parts)
            session.cli("scan", _run_argv(self.configs[name], out / name), out / name,
                        lambda o, p=parts: gate_fit(_read_json(o / "fit_cavity.json"), p, 0.005))
        for kind, centre in self.PREPS:
            session.cli("prep", _run_argv(self.configs[kind], out / kind), out / kind,
                        lambda o, c=centre: gate_w_fidelity(_read_json(o / "summary.json"), c))
        session.cli("tomography", _run_argv(self.configs["tomography"], out / "tomography"),
                    out / "tomography",
                    lambda o: gate_tomography(_read_json(o / "summary.json")))

        fidelities = []
        batch = []
        for s in self.noise_seeds:
            def recon(s=s):
                records = tomography.simulate_measurements(self.rho_w, self.tset, RECON_SIGMA, s)
                return tomography.reconstruct(records, self.tset).rho.entries

            batch.append(session.run("recon", recon, lambda rho: fidelities.append(w_fidelity(rho))))
        try:
            gate_batch_fidelity(fidelities)
        except GateError as err:
            for op in batch:
                op.ok, op.error = False, str(err)


class Certify(Workload):
    """``cqedw certify`` on three seeded three-qubit states built here, not
    by cqedw's dynamics or tomography:

    - full rank: 0.9 W + 0.1 (seeded random full-rank state), expected W_class;
    - rank 2: 0.9 W + 0.1 (fixed random pure state), expected W_class;
    - rank 2: 0.9 GHZ + 0.1 W, expected GHZ_class.

    The descent runs with the command's default seed, as a user would run it.
    Only the full-rank state depends on the workload seed: its descent uses
    nearly all of its budget whatever the state.  Where a rank-2 descent stops
    early is chaotic in its input (perturbing the pure state by a few percent
    moves it between 26k and 43k proposals), so a seeded rank-2 state would
    make the pass time a draw of the seed rather than of the program.
    """

    name = "certify"
    EXPECTED = (("full_rank_w", "W_class"), ("low_rank_w", "W_class"), ("ghz_w", "GHZ_class"))

    @staticmethod
    def states(seed: int) -> dict[str, np.ndarray]:
        rng = np.random.default_rng(seed)
        w = np.outer(W_PAPER, W_PAPER.conj())
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        mixed = g @ g.conj().T
        fixed = np.random.default_rng(LOW_RANK_STATE_SEED)
        psi = fixed.standard_normal(8) + 1j * fixed.standard_normal(8)
        psi /= np.linalg.norm(psi)
        return {
            "full_rank_w": 0.9 * w + 0.1 * mixed / np.trace(mixed).real,
            "low_rank_w": 0.9 * w + 0.1 * np.outer(psi, psi.conj()),
            "ghz_w": 0.9 * np.outer(GHZ, GHZ.conj()) + 0.1 * w,
        }

    def setup(self, work, seed):
        super().setup(work, seed)
        self.inputs = {}
        for name, rho in self.states(seed).items():
            self.inputs[name] = work / f"{name}.json"
            _write_json(self.inputs[name], rho_file(0.5 * (rho + rho.conj().T)))

    def run_pass(self, session):
        for name, expected in self.EXPECTED:
            out = self.work / "out" / name
            argv = ["certify", str(self.inputs[name]), "--out", str(out), "--quiet"]
            session.cli("certify", argv, out,
                        lambda o, e=expected: gate_certify(_read_json(o / "certification.json"), e))


WORKLOADS = {w.name: w for w in (RabiNoisy, PrepTomo, Certify)}


def op_summary(ops) -> dict:
    """Median time per operation kind, plus reconstruction p50/p90 in ms."""
    by_kind: dict[str, list[float]] = {}
    for op in ops:
        by_kind.setdefault(op.kind, []).append(op.seconds)
    out = {f"{kind}_s": statistics.median(t) for kind, t in by_kind.items() if kind != "recon"}
    if "recon" in by_kind:
        p50, p90 = np.percentile(by_kind["recon"], [50, 90]) * 1e3
        out["recon_p50_ms"], out["recon_p90_ms"] = float(p50), float(p90)
    return out
