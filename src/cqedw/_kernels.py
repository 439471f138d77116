"""Hot numeric kernel, numba-compiled with a pure-numpy fallback.

The isometry descent used by the convex-roof tangle bound is the one inner
loop whose cost is interpreter overhead rather than linear algebra.  It is
written once as a plain function; when numba is importable (and not
disabled) the same source is compiled with ``@njit(cache=True)``.

Set ``CQEDW_PURE_NUMPY=1`` to force the numpy path.  ``benchmarks/
bench_kernels.py`` compares both.
"""
from __future__ import annotations

import os

import numpy as np


def _numba_disabled() -> bool:
    return os.environ.get("CQEDW_PURE_NUMPY", "").strip() not in ("", "0")


def _roof_descent(wtil, v, noise, step0, step_min):
    """Minimize the average three-tangle over decompositions V @ wtil.

    ``wtil`` has shape (r, 8), rows sqrt(lambda_i) * eigvec_i of an 8x8
    density matrix; ``v`` is an (m, r) isometry start point and ``noise``
    an (iters, m, r) stack of complex perturbations.  Random-walk descent:
    propose the QR orthonormalization of v + step * noise[it], accept on
    improvement, shrink the step otherwise.  Returns (best value, best v,
    iterations used).
    """

    def objective(vm):
        phi = vm @ wtil
        total = 0.0
        for k in range(phi.shape[0]):
            a = phi[k]
            p = 0.0
            for q in range(8):
                p += abs(a[q]) ** 2
            if p < 1e-14:
                continue
            d1 = (
                a[0] ** 2 * a[7] ** 2
                + a[1] ** 2 * a[6] ** 2
                + a[2] ** 2 * a[5] ** 2
                + a[4] ** 2 * a[3] ** 2
            )
            d2 = (
                a[0] * a[7] * a[3] * a[4]
                + a[0] * a[7] * a[5] * a[2]
                + a[0] * a[7] * a[6] * a[1]
                + a[3] * a[4] * a[5] * a[2]
                + a[3] * a[4] * a[6] * a[1]
                + a[5] * a[2] * a[6] * a[1]
            )
            d3 = a[0] * a[6] * a[5] * a[3] + a[7] * a[1] * a[2] * a[4]
            total += 4.0 * abs(d1 - 2.0 * d2 + 4.0 * d3) / p
        return total

    best = objective(v)
    step = step0
    used = 0
    for it in range(noise.shape[0]):
        used = it + 1
        q, _ = np.linalg.qr(v + step * noise[it])
        q = np.ascontiguousarray(q)
        f = objective(q)
        if f < best:
            v = q
            best = f
            step = min(step * 1.1, step0)
        else:
            step *= 0.95
            if step < step_min:
                break
    return best, v, used


roof_descent_numpy = _roof_descent

NUMBA_ENABLED = False
roof_descent_numba = None

if not _numba_disabled():
    try:
        from numba import njit

        roof_descent_numba = njit(cache=True)(_roof_descent)
        NUMBA_ENABLED = True
    except ImportError:
        pass

roof_descent = roof_descent_numba if NUMBA_ENABLED else roof_descent_numpy


def backend_name() -> str:
    return "numba" if NUMBA_ENABLED else "numpy"
