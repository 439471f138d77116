"""Benchmark of the cqedw package: one workload, one process, one JSON line.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload rabi_noisy --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped; pass
times are reported in units of a reference computation that
``speed.SpeedProbe`` times throughout the run, so the host's speed cancels.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (per pass), the tracing overhead and
the share of the pass covered by layer spans; the spans themselves are
written to ``.perfbench_traces/`` at the end of the run.

The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the environment and the per-operation medians.  See
``perfbench/README.md`` for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_ROUNDS = 5
# Imports and preset loading as a fresh process pays them; a module imports
# only once per process, so set-up repeats them in a child interpreter.
IMPORT_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import cqedw.cli; "
    "cqedw.cli.named_preset('paper-default')"
)

PER_PASS_CALLS = {
    "dynamics.evolve_lindblad.calls": "dynamics.evolve_lindblad",
    "dynamics.build_hamiltonian.calls": "dynamics.build_hamiltonian",
    "dynamics.collapse_operators.calls": "dynamics.collapse_operators",
    "dynamics.evolve_unitary.calls": "dynamics.evolve_unitary",
    "hilbert.density_validations": "hilbert.DensityMatrix.__post_init__",
    "hilbert.embed_qubit_operator.calls": "hilbert.embed_qubit_operator",
    "hilbert.expectation.calls": "hilbert.expectation",
    "hilbert.partial_trace.calls": "hilbert.partial_trace",
    "protocols.run_schedule.calls": "protocols.run_schedule",
    "protocols.populations.calls": "protocols.populations",
    "tomography.design_matrix.calls": "tomography.TomographySet.design_matrix",
    "tomography.tomography_set.calls": "tomography.tomography_set",
    "kernels.roof_descent.calls": "kernels.roof_descent",
    "analysis.fit_damped_sinusoid.calls": "analysis.fit_damped_sinusoid",
}
PER_PASS_SELF = {
    "kernels.rk4_lindblad.self_s": "kernels.rk4_lindblad",
    "kernels.roof_descent.self_s": "kernels.roof_descent",
    "protocols.apply_phase_correction.self_s": "protocols.apply_phase_correction",
    "tomography.design_matrix.self_s": "tomography.TomographySet.design_matrix",
    "tomography.linear_inversion.self_s": "tomography.linear_inversion",
    "tomography.mle_project.self_s": "tomography.mle_project",
    "tomography.simulate_measurements.self_s": "tomography.simulate_measurements",
}
PER_PASS_COUNTERS = (
    "dynamics.rk4_steps",
    "dynamics.lindblad_retries",
    "kernels.roof_proposals_used",
    "kernels.roof_proposals_offered",
    "entanglement.restarts",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def blas_threads() -> str:
    """Thread count reported by the loaded OpenBLAS, else the environment's limit."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        maps = ""
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return os.environ["OPENBLAS_NUM_THREADS"] + " (requested)"


def git_sha() -> str:
    """Commit of the checkout from ``.git`` files, or "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "git_sha": git_sha(),
        "seed": seed,
    }


def measure_setup(workload, work: Path, seed: int) -> float:
    """Median over rounds of (fresh-process imports + writing the inputs)."""
    rounds = []
    for i in range(SETUP_ROUNDS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], check=True,
                       stdin=subprocess.DEVNULL, timeout=120)
        workload.setup(work / f"setup{i}", seed)
        rounds.append(time.perf_counter() - start)
    return statistics.median(rounds)


@dataclass
class Pass:
    wall: float
    traced: bool
    ops: list
    bytes_written: int
    span: tuple  # (start, end) on the time.perf_counter scale

    @property
    def cli(self) -> float:
        return sum(op.seconds for op in self.ops if op.cli)


def run_passes(workload, session, seconds: float, tracer=None) -> list[Pass]:
    """Run passes until the next one would overrun ``seconds``.

    With a tracer, passes alternate untraced and traced, and at least one of
    each runs.  Pass and operation times come from ``session.clock``.
    """
    passes = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        first, written = len(session.ops), session.bytes_written
        if traced:
            tracer.install()
        t0, c0 = time.perf_counter(), session.clock()
        try:
            workload.run_pass(session)
        finally:
            wall = session.clock() - c0
            if traced:
                tracer.uninstall()
        passes.append(Pass(wall, traced, session.ops[first:], session.bytes_written - written,
                           (t0, time.perf_counter())))
        elapsed = time.perf_counter() - start
        longest = max(p.wall for p in passes)
        if tracer is not None and len(passes) < 2:
            continue
        if elapsed + longest > seconds:
            return passes


def end_to_end(passes: list[Pass], setup_s: float, probe) -> dict:
    """Pass times in reference units: each pass's time over the mean
    reference time sampled during it, then the mean over the run's passes,
    which integrates all of the measured time."""
    run_ref = probe.mean()
    refs = [probe.mean_between(*p.span) or run_ref for p in passes]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "wall_ref": (statistics.fmean(p.wall / r for p, r in zip(passes, refs)), "ref"),
        "cli_ref": (statistics.fmean(p.cli / r for p, r in zip(passes, refs)), "ref"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def per_layer(passes: list[Pass], tracer) -> dict:
    """Per-pass means over the traced passes."""
    from tracing import LAYERS, layer_label

    traced = [p for p in passes if p.traced]
    n = len(traced)
    calls = tracer.call_counts()
    self_s = tracer.self_times()
    out = {}
    for metric, span in PER_PASS_CALLS.items():
        out[metric] = (calls.get(span, 0) / n, "count")
    for metric, span in PER_PASS_SELF.items():
        out[metric] = (self_s.get(span, 0.0) / n, "s")
    for layer in LAYERS:
        label = layer_label(layer)
        total = sum(v for k, v in self_s.items() if k.startswith(label + "."))
        out[f"{label}.self_s"] = (total / n, "s")
    for name in PER_PASS_COUNTERS:
        out[name] = (tracer.counts.get(name, 0) / n, "count")
    out["dynamics.segment_dim"] = (tracer.maxima.get("dynamics.segment_dim", 0), "count")
    steps = tracer.counts.get("dynamics.rk4_steps", 0)
    rk4 = self_s.get("kernels.rk4_lindblad", 0.0)
    out["kernels.rk4_us_per_step"] = (rk4 / steps * 1e6 if steps else 0.0, "us")
    offered = tracer.counts.get("kernels.roof_proposals_offered", 0)
    used = tracer.counts.get("kernels.roof_proposals_used", 0)
    out["kernels.roof_used_frac"] = (used / offered if offered else 0.0, "ratio")
    out["cli.warnings"] = (sum(op.warnings for p in traced for op in p.ops) / n, "count")
    out["cli.bytes_written"] = (sum(p.bytes_written for p in traced) / n, "bytes")
    traced_wall = statistics.mean(p.wall for p in traced)
    untraced_wall = statistics.mean(p.wall for p in passes if not p.traced)
    out["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "ratio")
    out["trace.coverage_frac"] = (tracer.top_level_seconds() / sum(p.wall for p in traced),
                                  "ratio")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cqedw" / "__init__.py").is_file():
        print(f"perfbench: no cqedw sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]

    import cqedw
    from speed import SpeedProbe
    from tracing import Tracer
    from workloads import WORKLOADS, Session, op_summary

    if Path(cqedw.__file__).resolve().parent != (SRC / "cqedw").resolve():
        print(f"perfbench: imported cqedw from {cqedw.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]()
    tracer = Tracer() if args.trace else None
    # the speed probe interrupts the program, so traced runs go without it
    probe = None if args.trace else SpeedProbe()
    session = Session(tracer=tracer, clock=probe.clock if probe else time.perf_counter)
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench_work"))
    try:
        setup_s = measure_setup(workload, work, args.seed)
        if probe:
            probe.start()
        try:
            passes = run_passes(workload, session, args.seconds, tracer)
        finally:
            if probe:
                probe.stop()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = [op for p in passes for op in p.ops]
    failed = [op for op in ops if not op.ok]
    if tracer is None:
        metrics = end_to_end(passes, setup_s, probe)
    else:
        metrics = per_layer(passes, tracer)
        traces = ROOT / ".perfbench_traces"
        traces.mkdir(exist_ok=True)
        tracer.dump(traces / f"{args.workload}-seed{args.seed}.json")
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed),
        "passes": len(passes),
        "pass_walls_s": [p.wall for p in passes],
        "wall_s": statistics.fmean(p.wall for p in passes),
        "cli_s": statistics.fmean(p.cli for p in passes),
        "operations": op_summary(ops),
        "fail_frac": len(failed) / len(ops),
        "warnings": sum(op.warnings for op in ops),
        "errors": sorted({op.error for op in failed}),
    }
    if probe:
        detail["reference_ms"] = probe.mean() * 1e3
        detail["reference_samples"] = len(probe.samples)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
