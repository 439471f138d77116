"""Benchmark the numba roof-descent kernel against its pure-numpy twin.

Usage: python benchmarks/bench_kernels.py

Times the convex-roof descent on a full-rank noisy W state (m = 16, r = 8,
2000 proposals).  The numpy row is what you get with CQEDW_PURE_NUMPY=1.
"""
import time

import numpy as np

from cqedw import _kernels
from cqedw.entanglement import TargetState


def _time(fn, *args, repeats=5):
    best = np.inf
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, result


def bench_roof_descent():
    rng = np.random.default_rng(0)
    w = TargetState.w_paper().vector.amplitudes
    rho = 0.9 * np.outer(w, w.conj()) + 0.1 * np.eye(8) / 8
    lam, vec = np.linalg.eigh(rho)
    keep = lam > 1e-12
    wtil = np.ascontiguousarray((np.sqrt(lam[keep])[None, :] * vec[:, keep]).T)
    r = wtil.shape[0]
    m = 2 * r
    v0 = np.ascontiguousarray(
        np.linalg.qr(rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r)))[0]
    )
    noise = rng.standard_normal((2000, m, r)) + 1j * rng.standard_normal((2000, m, r))
    args = (wtil, v0, noise, 0.3, 1e-10)

    t_np, r_np = _time(_kernels.roof_descent_numpy, *args)
    row = [("numpy", t_np)]
    if _kernels.roof_descent_numba is not None:
        _kernels.roof_descent_numba(wtil, v0, noise[:2], 0.3, 1e-10)  # compile
        t_nb, r_nb = _time(_kernels.roof_descent_numba, *args)
        row.append(("numba", t_nb))
        print(f"  paths agree to {abs(r_np[0] - r_nb[0]):.2e}")
    return "roof_descent (m=16, r=8, 2000 iters)", row


def main():
    print(f"kernel backend selected at import: {_kernels.backend_name()}")
    name, rows = bench_roof_descent()
    print(name)
    base = rows[0][1]
    for label, t in rows:
        speedup = f"  ({base / t:.1f}x vs numpy)" if label != "numpy" else ""
        print(f"  {label:>6}: {t * 1e3:8.2f} ms{speedup}")


if __name__ == "__main__":
    main()
