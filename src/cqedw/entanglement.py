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
Wirtinger gradient of Det.  The descent runs one fixed schedule,
``SCHEDULE``: 64 restarts start the first 150 of 400 iterations, half of
them on a smooth surrogate.  Each kind sheds its restarts of highest true
average tangle at fixed checkpoints (successive halving): the 32 on the true
average fall to 8, 2 and 1 after 15, 30 and 45 iterations, the 32 surrogate
ones to 16 and 8 after 50 and 100.  Then all 64 are evaluated on the true
average, and only the 8 lowest descend it for the last 250.  Its kernel is
amplitude-major: the rows of every restart form one (8, n) array, so each
amplitude is a contiguous vector.  The same ``_hyperdet`` gives Det and its
gradient there and, through a moved axis, ``tangle_quartic`` on
(..., 8) input; the descent evaluates the gradient only in an iteration
where some restart accepts its trial point.

A rank-2 state is decided first by the at most four zeros of Det on its
range (``_rank2_zeros``): its roof is exactly 0 when the state lies in their
convex hull, and then the weighted zeros are the decomposition, with no
polish and no descent; when it lies outside by more than round-off, the
roof is positive and the descent runs with no polish.  Any other state, and
a rank-2 one the zeros leave undecided, is handled as follows.  Before the
descent, copies of the two seeded restarts of lowest average tangle are
polished onto Det = 0 by Newton's method with a pseudo-inverse
(``_newton_polish``); if one reaches an average tangle of at most
``ZERO_TANGLE`` = 1e-15, the roof, which is >= 0, is zero to round-off and
the descent is skipped.  Otherwise the descent runs as if the polish had
not, and a second polish of the restarts it ends with can only lower the
bound.  The result is the average tangle of an explicit decomposition, an
upper bound, never a claim of the exact roof: a bound near 1e-16 shows a
zero roof to round-off, not a proof of it.  All of it is plain numpy; one
seeded draw picks the starting points, so the same seed gives the same
bound.
"""
from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .errors import ConfigError
from .hilbert import DensityMatrix

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
    """An upper bound on the convex-roof tangle, from an explicit decomposition.

    It records the descent's trial points, the polish's Newton steps,
    whether the bound came from the polish rather than the descent and the
    rank-2 test's decision: "zero", "positive" or None (another rank, or
    undecided).
    """

    value: float
    decomposition_size: int
    optimizer_iterations: int
    newton_steps: int = 0
    from_polish: bool = False
    rank2_roof: str | None = None

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
# dDet/da_i = dDet/dx_j * a_(7-i) for the pair x_j that a_i sits in
_PAIR_OF = np.array([0, 1, 2, 3, 3, 2, 1, 0])


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
    grad = dx[_PAIR_OF] * a[::-1]
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


def _decompositions(v, wtil):
    """Rows of a stack of decompositions ``v @ wtil``, with Det, dDet/da and 1/p of each row.

    The rows of all k restarts are formed in one product as an (8, k m)
    amplitude-major array, restart by restart; the other three are flat
    vectors of length k m.
    """
    k, m, r = v.shape
    rows = wtil.T @ v.reshape(k * m, r).T
    det, ddet = _hyperdet(rows)
    flat = rows.view(float).reshape(8, k * m, 2)
    return rows, det, ddet, _inverse_weights(np.einsum("ijc,ijc->j", flat, flat))


def _roof_objective(v, wtil, squared):
    """Objective and average tangle of a stack of isometries, and the terms its gradient reuses.

    Row k of ``v @ wtil`` is sqrt(p_k) psi_k, whose tangle is 4|Det|/p_k^2.
    A restart whose ``squared`` flag is set descends the smooth surrogate
    sum_k p_k tau_k^2 = 16 |Det|^2/p^3, the others the average tangle
    sum_k p_k tau_k = 4 |Det|/p.  The last value holds the flat vectors of
    :func:`_decompositions` and |Det|, which :func:`_roof_gradient` takes.
    """
    k, m, _ = v.shape
    rows, det, ddet, pinv = _decompositions(v, wtil)
    size = np.abs(det)
    tangle = 4.0 * size * pinv
    objective = tangle
    if squared.any():
        objective = np.where(np.repeat(squared, m), tangle * tangle * pinv, tangle)
    return objective.reshape(k, m).sum(axis=1), tangle.reshape(k, m).sum(axis=1), (rows, det, ddet, pinv, size)


def _roof_gradient(v, wtil, squared, terms):
    """Riemannian gradient of :func:`_roof_objective` at ``v``, from the terms it returned there.

    The gradient is twice the Wirtinger derivative d/d conj(v), projected
    onto the tangent space of the Stiefel manifold; at Det = 0, where |Det|
    has a kink, the true objective's row gets the zero subgradient.
    Everything up to the tangent projection runs on the flat vectors.
    """
    k, m, r = v.shape
    rows, det, ddet, pinv, size = terms
    phase = np.divide(det, size, out=np.zeros_like(det), where=size > 0)
    coef_d = 4.0 * phase * pinv
    coef_a = -8.0 * size * pinv**2
    if squared.any():
        sq = np.repeat(squared, m)
        coef_d = np.where(sq, 32.0 * det * pinv**3, coef_d)
        coef_a = np.where(sq, -96.0 * size**2 * pinv**4, coef_a)
    grad_rows = coef_d * ddet.conj() + coef_a * rows
    g = (grad_rows.T @ wtil.T.conj()).reshape(k, m, r)
    vg = np.swapaxes(v.conj(), -1, -2) @ g
    g -= v @ (0.5 * (vg + np.swapaxes(vg.conj(), -1, -2)))
    return g


# An average tangle at or below this is zero to round-off: the roof, which is
# >= 0, leaves the descent nothing to find.
ZERO_TANGLE = 1e-15
# The polish: the restarts it polishes at each of its two points, the steps
# without a new low of its max |Det| after which a restart counts as stalled,
# and the most steps it takes.
POLISHED, PATIENCE, NEWTON_STEPS = 2, 5, 30


def _newton_polish(v, wtil):
    """Newton's method onto Det = 0 on every row of a stack of decompositions.

    Each F_i = Det(phi_i) of a row phi_i = (V wtil)_i is holomorphic in V,
    with dF_i = dV_i . c_i and c_i = wtil dDet(phi_i).  A step is the
    minimum-norm tangent solution of F + L(dV) = 0 (Newton's method with a
    pseudo-inverse, Ben-Israel, J. Math. Anal. Appl. 15, 243 (1966), on the
    Stiefel manifold, Absil, Mahony and Sepulchre (2008), ch. 6):
    dV = P_T L*(f), with L*(f)_ij = f_i conj(c_ij), P_T(Z) = Z - V sym(V^H Z),
    and f solving the real 2m x 2m system (L P_T L*) f = -F.  That system is
    built by applying the operator to the 2m probes e_i and i e_i, so it
    needs no basis of the tangent space; ``pinv`` solves it, which gives a
    zero row (c_i = 0) no step.  The QR retraction of V + dV is the next
    iterate.  All restarts step in lockstep until one reaches an average
    tangle of at most ``ZERO_TANGLE``, every one has gone ``PATIENCE`` steps
    without a new low of its max |Det|, or ``NEWTON_STEPS`` steps have run.
    Returns the iterate of lowest average tangle of each restart, the start
    included, that average, and the steps taken; it draws no random number.
    """
    k, m, r = v.shape
    eye = np.eye(m)
    probes = np.concatenate([eye, 1j * eye])
    best_v, best = v.copy(), np.full(k, np.inf)
    low, stalled = np.full(k, np.inf), np.zeros(k, dtype=int)
    steps = 0
    while True:
        _, det, ddet, inv_p = _decompositions(v, wtil)
        avg = (4.0 * np.abs(det) * inv_p).reshape(k, m).sum(axis=1)
        det = det.reshape(k, m)
        better = avg < best
        best_v[better], best[better] = v[better], avg[better]
        size = np.abs(det).max(axis=1)
        stalled = np.where(size < low, 0, stalled + 1)
        low = np.minimum(low, size)
        if best.min() <= ZERO_TANGLE or (stalled >= PATIENCE).all() or steps == NEWTON_STEPS:
            return best_v, best, steps
        steps += 1
        c = (wtil @ ddet).T.reshape(k, m, r)
        # P_T L* of each probe, (k, 2m, m, r), and its image under L, realified
        step = probes[None, :, :, None] * c.conj()[:, None]
        vz = np.swapaxes(v.conj(), -1, -2)[:, None] @ step
        step -= v[:, None] @ (0.5 * (vz + np.swapaxes(vz.conj(), -1, -2)))
        image = np.einsum("kpij,kij->kpi", step, c)
        system = np.swapaxes(np.concatenate([image.real, image.imag], axis=-1), -1, -2)
        f = np.einsum("kpq,kq->kp", np.linalg.pinv(system),
                      -np.concatenate([det.real, det.imag], axis=-1))
        v = _retract(v + np.einsum("kp,kpij->kij", f, step))


# Barycentric weights of the origin below -HULL_MARGIN put it outside the hull
# of the zeros beyond round-off.  Weights whose estimated relative error, the
# condition number of their system times eps over the largest |Det| sampled,
# exceeds it say nothing either way.
HULL_MARGIN = 1e-9
# The fifth roots of unity, and the inverse DFT that maps a quartic's values
# there to its coefficients, lowest degree first.
_UNIT5 = np.exp(2j * np.pi * np.arange(5) / 5)
_INVERSE_DFT5 = _UNIT5.conj()[:, None] ** np.arange(5) / 5


def _rank2_zeros(wtil):
    """The zeros of Det on the range of a rank-2 state, and the origin's weights on them.

    The pure states of the range are a u1 + b u2 for unit (a, b) in C^2 and
    any basis (u1, u2) = U ``wtil`` with U unitary, so rho = u1 u1^H + u2 u2^H.
    A decomposition of rho is a set of such points with weights mu_j >= 0 and
    sum_j 2 mu_j (a, b)_j (a, b)_j^H = 1, that is, whose Bloch vectors average
    to the origin.  The roof is 0 exactly when the origin lies in the convex
    hull of the zeros of Det (Lohmayer, Osterloh, Siewert, Uhlmann, PRL 97,
    260502 (2006); Osterloh, Siewert, Uhlmann, PRA 77, 032310 (2008)).

    Det(u1 + z u2) is a quartic in z: its values at the fifth roots of unity
    give its coefficients, ``np.roots`` its zeros (each missing degree a zero
    at z = inf, the point (0, 1)), and one Newton step on Det itself sheds
    the round-off of the coefficients.  u2 is the sample w1 + z w2 of largest
    |Det|, so the leading coefficient Det(u2) is at least a quarter of the
    coefficients' 2-norm (Parseval), and the unitary invariance of the
    Bombieri norm keeps every zero within |z| < 11: a range whose w2 has Det
    near 0 loses no zero to a leading coefficient that is only round-off.
    One 4 x 4 solve gives the origin's barycentric weights in the
    tetrahedron of the zeros' Bloch vectors.

    Each sample is Det of a unit vector (Tr rho = 1 and w1 is orthogonal to
    w2), so it carries an absolute error of order eps, and eps over the
    largest |sample| is the relative error of the quartic.  Times the
    condition number of the 4 x 4 system it estimates that of the weights.

    Returns the smallest weight and the 4 x 2 isometry of rows
    sqrt(2 max(mu_j, 0)) (a, b)_j U, whose rows ``v @ wtil`` decompose rho
    when every weight is >= 0; or None when that error estimate exceeds
    ``HULL_MARGIN``: when two zeros (nearly) coincide, or when Det vanishes
    on the whole range, where the zeros are round-off.
    """
    samples = np.abs(_hyperdet(wtil[0][:, None] + _UNIT5 * wtil[1][:, None])[0])
    top = _UNIT5[np.argmax(samples)]
    basis = np.array([[1.0, -top], [1.0, top]]) / np.sqrt(2.0)
    u = basis @ wtil
    zeros = np.roots((_INVERSE_DFT5 @ _hyperdet(u[0][:, None] + _UNIT5 * u[1][:, None])[0])[::-1])
    det, ddet = _hyperdet(u[0][:, None] + zeros * u[1][:, None])
    zeros = zeros - det / (u[1] @ ddet)
    points = np.array([(1.0, z) for z in zeros] + [(0.0, 1.0)] * (4 - zeros.size), dtype=complex)
    points /= np.linalg.norm(points, axis=1)[:, None]
    a, b = points.T
    cross = a.conj() * b
    system = np.array([2.0 * cross.real, 2.0 * cross.imag, np.abs(a) ** 2 - np.abs(b) ** 2, np.ones(4)])
    if not np.linalg.cond(system) * np.finfo(float).eps <= HULL_MARGIN * samples.max():
        return None
    mu = np.linalg.solve(system, [0.0, 0.0, 0.0, 1.0])
    return mu.min(), (np.sqrt(2.0 * np.maximum(mu, 0.0))[:, None] * points) @ basis


# The descent's one schedule, phase by phase: (whether every other restart
# descends the surrogate, iterations, restarts of lowest true average that
# start the phase, checkpoints).  A checkpoint maps trial i to the
# (kind, live restarts of that kind it keeps) it applies after that trial;
# kind True is the surrogate restarts, False those on the true average.
SCHEDULE = (
    (True, 150, 64, {15: [(False, 8)], 30: [(False, 2)], 45: [(False, 1)],
                     50: [(True, 16)], 100: [(True, 8)]}),
    (False, 250, 8, {}),
)


def three_tangle_mixed(rho: DensityMatrix, seed: int = 0) -> TangleEstimate:
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
    predicted decrease t |grad|^2 falls below 1e-13.  The schedule is
    ``SCHEDULE``, at most 400 iterations per restart.  64 restarts start the
    first 150 iterations, and the 32 of even index descend the smooth
    surrogate sum_k p_k tau_k^2, which reaches the zero set where the kink
    of |Det| stalls the true objective.  In that phase each kind keeps, at
    fixed checkpoints, only its live restarts of lowest true average at
    their last accepted point (ties to the lower index), as in successive
    halving (Jamieson, Talwalkar, AISTATS 2016); a dropped restart stays
    where it stood, like a retired one.  The true-objective restarts are cut
    early, to 8, 2 and 1 after 15, 30 and 45 iterations, since those that
    will end among the best already lead; the surrogate ones only reach the
    zero set late, so they are cut later and less, to 16 and 8 after 50 and
    100.  Then all 64, dropped and retired ones included, are evaluated on
    the true average sum_k p_k tau_k, and only the 8 with the lowest value
    (ties to the lower index) descend it from where they stand for the last
    250 iterations.

    A rank-2 state is first decided by :func:`_rank2_zeros`.  If every
    barycentric weight of the origin on the zeros of Det is >= 0 and the
    zeros' decomposition has an average tangle of at most ``ZERO_TANGLE``,
    that average is the result, with no descent and no polish
    (``rank2_roof`` "zero").  If the smallest weight is below
    ``-HULL_MARGIN``, the roof is positive: the schedule runs as above, with
    neither of the polishes below (``rank2_roof`` "positive").  Anything else
    takes the path of every other rank.  In an iteration where no restart meets
    Armijo's condition, every t halves and no gradient is evaluated.

    Right after the 64 restarts are first evaluated, copies of the
    ``POLISHED`` = 2 of lowest true average (ties to the lower index) are
    polished onto Det = 0 by :func:`_newton_polish`.  If one reaches an
    average tangle of at most ``ZERO_TANGLE``, no decomposition can bound the
    roof meaningfully lower, and the result returns at once with no descent
    trial.  Otherwise the schedule runs exactly as without the polish, which
    works on copies and draws no random number, and the 2 restarts of lowest
    true average it ends with are polished once more.  The result is the
    smallest average tangle of any evaluated decomposition, retired restarts
    and polish iterates included, so it is an explicit upper bound; it
    records the descent's trial points, the Newton steps (summed over the
    polished restarts) and whether the bound came from the polish.
    """
    if rho.spec.dim != 8:
        raise ConfigError("three-tangle is defined for three qubits")
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

    rank2 = None
    hull = _rank2_zeros(wtil) if r == 2 else None
    if hull is not None:
        least, zeros = hull  # the smallest barycentric weight, and the zeros' isometry
        if least >= 0:
            _, det, _, inv_p = _decompositions(zeros[None], wtil)
            value = float(np.sum(4.0 * np.abs(det) * inv_p))
            if value <= ZERO_TANGLE:
                return TangleEstimate(value, 2 * r, 0, rank2_roof="zero")
        elif least < -HULL_MARGIN:
            rank2 = "positive"  # no decomposition reaches Det = 0: neither polish runs

    rng = np.random.default_rng(seed)
    restarts = SCHEDULE[0][2]
    shape = (restarts, 2 * r, r)
    isometries = _retract(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    best = np.full(restarts, np.inf)
    used, polished, newton = 0, np.inf, 0
    for phase, (surrogate, iterations, kept, cuts) in enumerate(SCHEDULE):
        squared = surrogate & (np.arange(restarts) % 2 == 0)
        f, tau, terms = _roof_objective(isometries, wtil, squared)
        best = np.minimum(best, tau)
        if phase == 0 and rank2 is None:
            # polish copies of the restarts of lowest true average, ties to the lower index
            _, low, steps = _newton_polish(isometries[np.argsort(tau, kind="stable")[:POLISHED]], wtil)
            polished, newton = low.min(), low.size * steps
            if polished <= ZERO_TANGLE:
                break  # the roof is zero to round-off: no descent, and no closing polish
        g = _roof_gradient(isometries, wtil, squared, terms)
        # the restarts of lowest true average go on; ties go to the lower index
        idx = np.sort(np.argsort(tau, kind="stable")[:kept])
        v, f, avg, g, sq = isometries[idx], f[idx], tau[idx], g[idx], squared[idx]
        gg, t = _sq_norm(g), np.ones(kept)
        for i in range(1, iterations + 1):
            used += idx.size
            q = _retract(v - t[:, None, None] * g)
            fq, tau, terms = _roof_objective(q, wtil, sq)
            best[idx] = np.minimum(best[idx], tau)
            ok = fq <= f - 1e-4 * t * gg  # Armijo's sufficient decrease
            if ok.any():
                gq = _roof_gradient(q, wtil, sq, terms)
                # after a step, the next trial is the Barzilai-Borwein step <s, s> / |<s, y>|
                s, y = q - v, gq - g
                sy = np.abs(_inner(s, y))
                bb = np.divide(_sq_norm(s), sy, out=np.full(idx.size, np.inf), where=sy > 0)
                t = np.where(ok, np.minimum(bb, 10.0 * t), 0.5 * t)
                np.copyto(v, q, where=ok[:, None, None])
                np.copyto(g, gq, where=ok[:, None, None])
                np.copyto(f, fq, where=ok)
                np.copyto(avg, tau, where=ok)
                np.copyto(gg, _sq_norm(gq), where=ok)
            else:
                t = 0.5 * t  # no trial was accepted, so no gradient is needed
            live = t * gg > 1e-13
            for kind, count in cuts.get(i, ()):
                # a kind keeps its live restarts of lowest true average, ties to the lower index
                mine = np.flatnonzero(live & (sq == kind))
                live[mine[np.argsort(avg[mine], kind="stable")[count:]]] = False
            if not live.all():
                isometries[idx[~live]] = v[~live]
                idx, v, g, f, avg, gg, t, sq = (x[live] for x in (idx, v, g, f, avg, gg, t, sq))
                if idx.size == 0:
                    break
        isometries[idx] = v
    else:
        if rank2 is None:
            # the restarts the descent ends with, of lowest true average, polished once more
            _, low, steps = _newton_polish(isometries[np.argsort(best, kind="stable")[:POLISHED]], wtil)
            polished, newton = min(polished, low.min()), newton + low.size * steps
    value = min(polished, best.min())
    return TangleEstimate(min(1.0, float(value)), 2 * r, used, newton, bool(polished < best.min()), rank2)


def certification_report(rho: DensityMatrix, seed: int = 0) -> dict:
    """Full certification record used by the command-line ``certify`` step.

    The tangle bound comes from :func:`three_tangle_mixed`, and
    ``optimizer_stats`` records its schedule's restarts and iterations per
    restart, the trial points the descent evaluated, the Newton steps of
    the polish, whether the bound came from the polish and the rank-2
    test's decision (``rank2_roof``).  W_class requires a bound below
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
            "newton_steps": estimate.newton_steps,
            "bound_from_polish": estimate.from_polish,
            "rank2_roof": estimate.rank2_roof,
            "restarts": SCHEDULE[0][2],
            "budget": sum(iterations for _, iterations, _, _ in SCHEDULE),
            "seed": seed,
        },
    }
