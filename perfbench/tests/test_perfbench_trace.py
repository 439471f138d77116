"""Tracer: spans nest and cover the operation, wrappers install everywhere and
come off cleanly, and a missing target is an absent metric, not a crash.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(HERE.parent), str(ROOT / "src")]

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

from cqedw import _kernels, dynamics, protocols, tomography  # noqa: E402
from cqedw.device import named_preset  # noqa: E402
from cqedw.hilbert import DensityMatrix  # noqa: E402


@pytest.fixture
def tracer():
    t = Tracer()
    t.install()
    yield t
    t.uninstall()


def _check_nesting(spans, op):
    for name, start, end, parent, span_op in spans:
        assert start <= end
        assert span_op == op
        if parent is not None:
            _, p_start, p_end, _, p_op = spans[parent]
            assert p_start <= start and end <= p_end, name
            assert p_op == span_op


def test_spans_nest_and_cover_a_cli_operation(tracer, tmp_path):
    config = tmp_path / "scan.json"
    config.write_text(json.dumps(workloads._scan_config(("A", "B"), 20.0, 41, False, 0)))
    out = tmp_path / "out"
    session = workloads.Session(tracer=tracer)
    op = session.cli("scan", workloads._run_argv(config, out), out, lambda o: None)
    assert op.ok
    _check_nesting(tracer.spans, 0)
    top = [s for s in tracer.spans if s[3] is None]
    assert [s[0] for s in top] == ["cli.main"]
    assert tracer.top_level_seconds() >= 0.9 * op.seconds
    calls = tracer.call_counts()
    assert calls["protocols.rabi_scan"] == 1
    assert calls["dynamics.evolve_unitary"] == 41 * 2 - 1  # tau = 0 skips its segment
    assert calls["analysis.fit_damped_sinusoid"] == 1
    self_s = tracer.self_times()
    total = sum(end - start for _, start, end, parent, _ in tracer.spans if parent is None)
    assert sum(self_s.values()) == pytest.approx(total, rel=1e-9)


def test_spans_cover_a_library_operation():
    rho = DensityMatrix(workloads.W_PAPER[:, None] * workloads.W_PAPER.conj()[None, :],
                        tomography.QUBIT_SPEC_3)
    tset = tomography.tomography_set(tomography.build_readout(
        tomography.DEFAULT_READOUT_COEFFICIENTS))
    tracer = Tracer()
    tracer.install()
    session = workloads.Session(tracer=tracer)

    def recon():
        records = tomography.simulate_measurements(rho, tset, 0.02, 5)
        return tomography.reconstruct(records, tset).rho.entries

    try:
        op = session.run("recon", recon, lambda r: None)
    finally:
        tracer.uninstall()
    _check_nesting(tracer.spans, 0)
    assert tracer.top_level_seconds() >= 0.9 * op.seconds
    calls = tracer.call_counts()
    assert calls["tomography.TomographySet.design_matrix"] == 1
    assert calls["tomography.MeasurementRecord.__post_init__"] == 64


def test_wrappers_replace_every_reference_and_come_off():
    original_auto = dynamics.evolve_lindblad_auto
    original_rk4 = _kernels.rk4_lindblad
    t = Tracer()
    names = t.install()
    try:
        assert "kernels.rk4_lindblad" in names and "kernels.roof_descent" in names
        assert protocols.evolve_lindblad_auto is dynamics.evolve_lindblad_auto
        assert protocols.evolve_lindblad_auto.__wrapped__ is original_auto
        assert _kernels.rk4_lindblad.__wrapped__ is original_rk4
        assert _kernels.rk4_lindblad_numpy is _kernels.rk4_lindblad
    finally:
        t.uninstall()
    assert dynamics.evolve_lindblad_auto is original_auto
    assert protocols.evolve_lindblad_auto is original_auto
    assert _kernels.rk4_lindblad is original_rk4
    assert not hasattr(DensityMatrix.__post_init__, "__wrapped__")


def test_counters_from_arguments_and_results(tracer):
    config = named_preset("paper-default")
    protocols.prepare_w_sequential(config, noise=True)
    steps = sum(-(-seg.duration // dynamics.DEFAULT_DT)
                for seg in protocols.sequential_w_schedule(config).segments if seg.duration)
    assert tracer.counts["dynamics.rk4_steps"] == steps
    assert tracer.counts["dynamics.lindblad_retries"] == 0
    assert tracer.maxima["dynamics.segment_dim"] == config.spec.dim


def test_missing_layers_and_targets_are_absent(tmp_path, monkeypatch):
    pkg = tmp_path / "fakecq"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "hilbert.py").write_text("def expectation(x):\n    return x\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    t = Tracer()
    assert t.install("fakecq") == ["hilbert.expectation"]
    try:
        import fakecq.hilbert

        assert fakecq.hilbert.expectation(3) == 3
    finally:
        t.uninstall()
    assert t.call_counts() == {"hilbert.expectation": 1}


def _run_bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_reports_every_declared_metric(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run_bench(ROOT, "--workload", "prep_tomo", "--seed", "3", "--seconds", "1",
                      "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 134
    declared = {m["name"]: m["unit"] for m in spec[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_refuses_to_run_without_the_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = _run_bench(tmp_path, "--workload", "certify", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
