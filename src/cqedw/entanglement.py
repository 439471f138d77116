"""Entanglement certification: fidelity, witness, three-tangle, classification.

The targets ``W_PAPER`` and ``GHZ`` are read-only amplitude arrays, and
``fidelity`` and the phase correction take a target as one.  The
three-tangle of a pure three-qubit state, ``tangle_quartic``, is computed
from the degree-4 amplitude polynomials of Cayley's hyperdeterminant,

    tau = 4 |Det|,  Det = d1 - 2 d2 + 4 d3,

which is 1 for a GHZ state and 0 for every W-class or product state.  For
mixed states the convex roof (minimum average tangle over decompositions)
is approximated from above by a lockstep Riemannian gradient descent over
isometric mixtures of the eigenvector ensemble, driven by the analytic
Wirtinger gradient of Det.  By default 64 restarts run the first 150 of
400 iterations, half of them on a smooth surrogate; then only the 8 with
the lowest true average tangle descend it for the last 250.  Its kernel
is amplitude-major: the rows of every restart form one (8, n) array, so
each amplitude is a contiguous vector.  The same ``_hyperdet`` gives Det
and its gradient there and, through a moved axis, ``tangle_quartic`` on
(..., 8) input.  The result is the average tangle of an explicit
decomposition, an upper bound, never a claim of the exact roof.  The
descent is plain numpy; one seeded draw picks its starting points, so the
same seed gives the same bound.
"""
from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .errors import ConfigError
from .hilbert import DensityMatrix

DEFAULT_RESTARTS = 64
DEFAULT_BUDGET = 400
W_TANGLE_THRESHOLD = 0.1
GHZ_TANGLE_THRESHOLD = 0.5
EIGENVALUE_CUTOFF = 1e-10


# The paper's W target, 1/sqrt(3) (|g,g,e> + |g,e,g> - |e,g,g>) in |C,B,A>
# notation (basis index 1, 2, 4 = qubit A, B, C excited), and GHZ, as
# read-only amplitude arrays.
W_PAPER = np.array([0, 1, 1, 0, -1, 0, 0, 0], dtype=complex) / np.sqrt(3)
GHZ = np.array([1, 0, 0, 0, 0, 0, 0, 1], dtype=complex) / np.sqrt(2)
W_PAPER.setflags(write=False)
GHZ.setflags(write=False)


@dataclass(frozen=True)
class TangleEstimate:
    """An upper bound on the convex-roof tangle, from an explicit decomposition."""

    value: float
    decomposition_size: int
    optimizer_iterations: int

    def __post_init__(self):
        if not -1e-9 <= self.value <= 1 + 1e-9:
            raise ConfigError(f"tangle value {self.value} outside [0, 1]")


def fidelity(rho: DensityMatrix, target: np.ndarray) -> float:
    """State fidelity <t|rho|t> against the amplitudes of a pure target."""
    if target.shape != (rho.spec.dim,):
        raise ConfigError(f"target shape {target.shape} does not match dim {rho.spec.dim}")
    return float(np.real(target.conj() @ rho.entries @ target))


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Square root of a Hermitian PSD matrix.

    Eigenvalues within eigh's round-off (dim * eps * largest) are set to
    zero: their square roots would otherwise add ~1e-8 each.
    """
    w, v = np.linalg.eigh(mat)
    w[w < mat.shape[0] * np.finfo(float).eps * np.abs(w).max()] = 0.0
    return (v * np.sqrt(w)) @ v.conj().T


def uhlmann_fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Mixed-state fidelity (Tr sqrt(sqrt(sigma) rho sqrt(sigma)))^2.

    Both square roots go through ``eigh``, which stays exact on the
    rank-deficient states the protocols produce.  Round-off can push the
    value past 1 by a few 1e-15, so it is capped at 1.
    """
    if rho.spec.dim != sigma.spec.dim:
        raise ConfigError("state dimensions differ")
    s = _psd_sqrt(sigma.entries)
    return min(1.0, float(np.trace(_psd_sqrt(s @ rho.entries @ s)).real ** 2))


def witness_operator() -> np.ndarray:
    """The W witness 2/3 Id - |W><W| (negative expectation certifies W-type)."""
    return (2.0 / 3.0) * np.eye(8, dtype=complex) - np.outer(W_PAPER, W_PAPER.conj())


def witness_value(rho: DensityMatrix) -> float:
    """Tr(witness rho); algebraically equal to 2/3 - fidelity(rho, W_paper)."""
    if rho.spec.dim != 8:
        raise ConfigError("witness is defined on three-qubit states")
    return float(np.real(np.einsum("ij,ji->", witness_operator(), rho.entries)))


# For each amplitude a_i, the other three amplitudes of the d3 term it sits
# in: its derivative is a product of one gather from each row.
_TRIPLES = (np.array([3, 2, 1, 0, 1, 0, 0, 1]),
            np.array([5, 4, 4, 5, 2, 3, 3, 2]),
            np.array([6, 7, 7, 6, 7, 6, 5, 4]))


def _hyperdet(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cayley's hyperdeterminant d1 - 2 d2 + 4 d3 and its derivative dDet/da.

    Both run over the first axis of an (8, ...) complex amplitude array, so
    each amplitude a[i] is one contiguous vector.  Det is a holomorphic
    quartic, so dDet/da holds its complex partial derivatives.  With the
    complementary pairs x_i = a_i a_(7-i), i = 0..3, d1 - 2 d2 is
    2 sum x^2 - (sum x)^2, and d3 = a0 t0 + a1 t1 with t_i = dd3/da_i.
    """
    x = a[:4] * a[7:3:-1]
    s = x.sum(axis=0)
    # d(d1 - 2 d2)/dx_i = 4 x_i - 2 sum_j x_j, and dx_i/da_i = a_(7-i)
    dx = 4.0 * x - 2.0 * s
    t = a[_TRIPLES[0]] * a[_TRIPLES[1]] * a[_TRIPLES[2]]
    det = 2.0 * np.sum(x * x, axis=0) - s * s + 4.0 * (a[0] * t[0] + a[1] * t[1])
    grad = dx[[0, 1, 2, 3, 3, 2, 1, 0]] * a[::-1]
    grad += 4.0 * t
    return det, grad


def tangle_quartic(amps: np.ndarray) -> np.ndarray:
    """4 |Det| over the last axis of a (..., 8) amplitude array.

    The amplitudes may be unnormalized; the result has the leading shape.
    Even a single vector goes through as an (8, 1) array: numpy's scalar
    complex product rounds differently from its array loop, and a row must
    give the same bits alone as in a stack.
    """
    a = np.moveaxis(np.asarray(amps, dtype=complex), -1, 0)
    return 4.0 * np.abs(_hyperdet(a.reshape(8, -1))[0].reshape(a.shape[1:]))


def _inverse_weights(p: np.ndarray) -> np.ndarray:
    """1 / p_k for each row weight p_k, and 0 for rows of weight p <= 1e-14."""
    return np.divide(1.0, p, out=np.zeros_like(p), where=p > 1e-14)


def _inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Re <x, y> of each matrix pair in two stacks, through float views of both."""
    xf, yf = x.view(float), y.view(float)
    return np.einsum("kij,kij->k", xf, yf)


def _sq_norm(x: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each matrix in a stack."""
    return _inner(x, x)


def _retract(v: np.ndarray) -> np.ndarray:
    """Q factor of a stack of matrices, with column phases chosen so that diag(R) > 0.

    LAPACK's R has a real diagonal of either sign; fixing the sign keeps Q
    continuous in ``v``, so a small step stays near the same decomposition.
    """
    q, r = np.linalg.qr(v)
    return q * np.copysign(1.0, np.diagonal(r, axis1=-2, axis2=-1).real)[..., None, :]


def _roof_objective(v, wtil, squared):
    """Objective, average tangle and Riemannian gradient of a stack of isometries.

    Row k of ``v @ wtil`` is sqrt(p_k) psi_k, whose tangle is 4|Det|/p_k^2.
    A restart whose ``squared`` flag is set descends the smooth surrogate
    sum_k p_k tau_k^2 = 16 |Det|^2/p^3, the others the average tangle
    sum_k p_k tau_k = 4 |Det|/p.  The gradient is twice the Wirtinger
    derivative d/d conj(v), projected onto the tangent space of the Stiefel
    manifold; at Det = 0, where |Det| has a kink, the true objective's row
    gets the zero subgradient.  The rows of all restarts are formed in one
    product as an (8, k m) amplitude-major array, and everything up to the
    tangent projection runs on flat vectors of length k m.
    """
    k, m, r = v.shape
    rows = wtil.T @ v.reshape(k * m, r).T
    det, ddet = _hyperdet(rows)
    flat = rows.view(float).reshape(8, k * m, 2)
    pinv = _inverse_weights(np.einsum("ijc,ijc->j", flat, flat))
    size = np.abs(det)
    tangle = 4.0 * size * pinv
    phase = np.divide(det, size, out=np.zeros_like(det), where=size > 0)
    objective = tangle
    coef_d = 4.0 * phase * pinv
    coef_a = -8.0 * size * pinv**2
    if squared.any():
        sq = np.repeat(squared, m)
        objective = np.where(sq, tangle * tangle * pinv, tangle)
        coef_d = np.where(sq, 32.0 * det * pinv**3, coef_d)
        coef_a = np.where(sq, -96.0 * size**2 * pinv**4, coef_a)
    grad_rows = coef_d * ddet.conj() + coef_a * rows
    g = (grad_rows.T @ wtil.T.conj()).reshape(k, m, r)
    vg = np.swapaxes(v.conj(), -1, -2) @ g
    g -= v @ (0.5 * (vg + np.swapaxes(vg.conj(), -1, -2)))
    return objective.reshape(k, m).sum(axis=1), tangle.reshape(k, m).sum(axis=1), g


def three_tangle_mixed(
    rho: DensityMatrix,
    restarts: int = DEFAULT_RESTARTS,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
) -> TangleEstimate:
    """Upper bound on the convex-roof three-tangle of a mixed state.

    Decompositions of the rank-r state into 2r pure states are
    parameterized as V @ wtil with V a 2r x r isometry acting on the scaled
    eigenvector ensemble wtil; a zero row of V drops its state, so this
    also covers every decomposition into fewer states.  Each restart is a
    Riemannian gradient descent on that Stiefel manifold, as in libCreme
    (Roethlisberger, Lehmann, Loss, PRA 80, 042301 (2009)): the trial point
    is the QR retraction of V - t grad, accepted when it meets Armijo's
    sufficient decrease.  After an accepted step the next t is the
    Barzilai-Borwein step (at most 10 times the last), after a rejected one
    half the last.  All restarts step in lockstep, one stacked QR and one
    amplitude-major quartic per iteration; a restart leaves the stack once its
    predicted decrease t |grad|^2 falls below 1e-13.  ``budget`` counts
    iterations per restart.  For the first 3/8 of them, every other
    restart descends the smooth surrogate sum_k p_k tau_k^2, which reaches
    the zero set where the kink of |Det| stalls the true objective.  Then
    every restart is evaluated on the true average sum_k p_k tau_k, and only
    the eighth of them with the lowest value (at least one, ties to the
    lower index) descends it from where it stands; without a surrogate
    phase (``budget`` < 3) every restart does.  The result is the smallest
    average tangle of any evaluated decomposition, retired restarts
    included, so it is an explicit upper bound.
    """
    if rho.spec.dim != 8:
        raise ConfigError("three-tangle is defined for three qubits")
    if restarts < 1 or budget < 1:
        raise ConfigError("restarts and budget must be >= 1")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    lam, vec = np.linalg.eigh(rho.entries)
    keep = lam > EIGENVALUE_CUTOFF * lam.max()
    lam, vec = lam[keep], vec[:, keep]
    # rho_kk = 0 puts e_k in the kernel of a PSD rho; eigh leaves ~1e-17 there
    vec[np.diag(rho.entries).real == 0] = 0.0
    r = lam.size
    wtil = (np.sqrt(lam)[None, :] * vec).T  # (r, 8)

    if r == 1:
        value = min(1.0, float(tangle_quartic(wtil[0]) / lam[0] ** 2))
        return TangleEstimate(value, 1, 0)

    rng = np.random.default_rng(seed)
    shape = (restarts, 2 * r, r)
    isometries = _retract(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    surrogate = np.arange(restarts) % 2 == 0
    early = 3 * budget // 8
    best = np.full(restarts, np.inf)
    used = 0
    for squared, iterations, kept in (
        (surrogate, early, restarts),
        (np.zeros(restarts, dtype=bool), budget - early, max(1, restarts // 8) if early else restarts),
    ):
        f, tau, g = _roof_objective(isometries, wtil, squared)
        best = np.minimum(best, tau)
        # the restarts of lowest true average go on; ties go to the lower index
        idx = np.sort(np.argsort(tau, kind="stable")[:kept])
        v, f, g, sq = isometries[idx], f[idx], g[idx], squared[idx]
        gg, t = _sq_norm(g), np.ones(kept)
        for _ in range(iterations):
            used += idx.size
            q = _retract(v - t[:, None, None] * g)
            fq, tau, gq = _roof_objective(q, wtil, sq)
            best[idx] = np.minimum(best[idx], tau)
            ok = fq <= f - 1e-4 * t * gg  # Armijo's sufficient decrease
            # after a step, the next trial is the Barzilai-Borwein step <s, s> / |<s, y>|
            s, y = q - v, gq - g
            sy = np.abs(_inner(s, y))
            bb = np.divide(_sq_norm(s), sy, out=np.full(idx.size, np.inf), where=sy > 0)
            t = np.where(ok, np.minimum(bb, 10.0 * t), 0.5 * t)
            v = np.where(ok[:, None, None], q, v)
            g = np.where(ok[:, None, None], gq, g)
            f = np.where(ok, fq, f)
            gg = np.where(ok, _sq_norm(g), gg)
            live = t * gg > 1e-13
            if not live.all():
                isometries[idx[~live]] = v[~live]
                idx, v, g, f, gg, t, sq = (x[live] for x in (idx, v, g, f, gg, t, sq))
                if idx.size == 0:
                    break
        isometries[idx] = v
    return TangleEstimate(min(1.0, float(best.min())), 2 * r, used)


def certification_report(rho: DensityMatrix, seed: int = 0) -> dict:
    """Full certification record used by the command-line ``certify`` step.

    The tangle bound comes from :func:`three_tangle_mixed` with its default
    restarts and budget.  W_class requires a bound below
    ``W_TANGLE_THRESHOLD`` and a negative witness; GHZ_class a bound above
    ``GHZ_TANGLE_THRESHOLD``.
    """
    estimate = three_tangle_mixed(rho, seed=seed)
    wit = witness_value(rho)
    if estimate.value > GHZ_TANGLE_THRESHOLD:
        classification = "GHZ_class"
    elif estimate.value < W_TANGLE_THRESHOLD and wit < 0:
        classification = "W_class"
    else:
        classification = "inconclusive"
    return {
        "fidelity": fidelity(rho, W_PAPER),
        "witness": wit,
        "tangle_bound": estimate.value,
        "classification": classification,
        "optimizer_stats": {
            "kind": "mixed_upper_bound",
            "decomposition_size": estimate.decomposition_size,
            "iterations": estimate.optimizer_iterations,
            "restarts": DEFAULT_RESTARTS,
            "budget": DEFAULT_BUDGET,
            "seed": seed,
        },
    }
