"""Entanglement certification: fidelity, witness, three-tangle, classification.

The three-tangle of a pure three-qubit state is computed from the degree-4
amplitude polynomials of the hyperdeterminant,

    tau = 4 |d1 - 2 d2 + 4 d3|,

which is 1 for a GHZ state and 0 for every W-class or product state.  For
mixed states the convex roof (minimum average tangle over decompositions)
is approximated from above by a random-walk descent over isometric
mixtures of the eigenvector ensemble; the result is an explicit upper
bound, never a claim of the exact roof.  The descent is plain numpy driven
by one seeded random stream, so the same seed gives the same bound.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ConfigError
from .hilbert import QUBIT_SPEC_3, DensityMatrix, QuantumState

DEFAULT_RESTARTS = 32
DEFAULT_BUDGET = 2000
DEFAULT_THRESHOLDS = (0.1, 0.5)
EIGENVALUE_CUTOFF = 1e-10


@dataclass(frozen=True)
class TargetState:
    """A named three-qubit reference state."""

    vector: QuantumState
    label: str

    @classmethod
    def w_paper(cls) -> "TargetState":
        """1/sqrt(3) (|g,g,e> + |g,e,g> - |e,g,g>) in |C,B,A> notation."""
        amps = np.zeros(8, dtype=complex)
        amps[0b001] = 1.0  # qubit A excited
        amps[0b010] = 1.0  # qubit B excited
        amps[0b100] = -1.0  # qubit C excited
        return cls(QuantumState(amps / np.sqrt(3), QUBIT_SPEC_3), "W_paper")

    @classmethod
    def w_plus(cls) -> "TargetState":
        amps = np.zeros(8, dtype=complex)
        amps[[0b001, 0b010, 0b100]] = 1.0
        return cls(QuantumState(amps / np.sqrt(3), QUBIT_SPEC_3), "W_plus")

    @classmethod
    def w_from_couplings(cls, couplings) -> "TargetState":
        """Single-excitation bright state: amplitudes proportional to g_j."""
        g = np.asarray(couplings, dtype=float)
        if g.shape != (3,):
            raise ConfigError("need exactly three couplings")
        amps = np.zeros(8, dtype=complex)
        for j in range(3):
            amps[1 << j] = g[j]
        return cls(QuantumState(amps / np.linalg.norm(amps), QUBIT_SPEC_3), "custom")

    @classmethod
    def ghz(cls) -> "TargetState":
        amps = np.zeros(8, dtype=complex)
        amps[[0b000, 0b111]] = 1.0
        return cls(QuantumState(amps / np.sqrt(2), QUBIT_SPEC_3), "GHZ")


@dataclass(frozen=True)
class TangleEstimate:
    value: float
    kind: str  # "pure_exact" | "mixed_upper_bound"
    decomposition_size: int
    optimizer_iterations: int

    def __post_init__(self):
        if not -1e-9 <= self.value <= 1 + 1e-9:
            raise ConfigError(f"tangle value {self.value} outside [0, 1]")


def _as_vector(target: Union[TargetState, QuantumState]) -> np.ndarray:
    return (target.vector if isinstance(target, TargetState) else target).amplitudes


def fidelity(rho: DensityMatrix, target: Union[TargetState, QuantumState]) -> float:
    """State fidelity <t|rho|t> against a pure target."""
    t = _as_vector(target)
    if t.shape[0] != rho.spec.dim:
        raise ConfigError("state and target dimensions differ")
    return float(np.real(t.conj() @ rho.entries @ t))


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
    rank-deficient states the protocols produce.
    """
    if rho.spec.dim != sigma.spec.dim:
        raise ConfigError("state dimensions differ")
    s = _psd_sqrt(sigma.entries)
    return float(np.trace(_psd_sqrt(s @ rho.entries @ s)).real ** 2)


def witness_operator() -> np.ndarray:
    """The W witness 2/3 Id - |W><W| (negative expectation certifies W-type)."""
    w = TargetState.w_paper().vector.amplitudes
    return (2.0 / 3.0) * np.eye(8, dtype=complex) - np.outer(w, w.conj())


def witness_value(rho: DensityMatrix) -> float:
    """Tr(witness rho); algebraically equal to 2/3 - fidelity(rho, W_paper)."""
    if rho.spec.dim != 8:
        raise ConfigError("witness is defined on three-qubit states")
    return float(np.real(np.einsum("ij,ji->", witness_operator(), rho.entries)))


def tangle_quartic(amps: np.ndarray) -> np.ndarray:
    """4 |d1 - 2 d2 + 4 d3| over the last axis of a (..., 8) amplitude array.

    The amplitudes may be unnormalized; the result has the leading shape.
    """
    a = np.asarray(amps, dtype=complex)
    x = a[..., :4] * a[..., :3:-1]  # a_i a_(7-i), i = 0..3: complementary basis-state pairs
    x0, x1, x2, x3 = (x[..., i] for i in range(4))
    d1 = x0 * x0 + x1 * x1 + x2 * x2 + x3 * x3
    d2 = x0 * (x1 + x2 + x3) + x1 * (x2 + x3) + x2 * x3
    d3 = (a[..., 0] * a[..., 3] * a[..., 5] * a[..., 6]
          + a[..., 1] * a[..., 2] * a[..., 4] * a[..., 7])
    return 4.0 * np.abs(d1 - 2.0 * d2 + 4.0 * d3)


def three_tangle_pure(psi: QuantumState) -> TangleEstimate:
    """Residual tripartite entanglement of a pure three-qubit state."""
    if psi.spec.dim != 8:
        raise ConfigError("three-tangle is defined for three qubits")
    value = min(1.0, float(tangle_quartic(psi.amplitudes)))
    return TangleEstimate(value, "pure_exact", decomposition_size=1, optimizer_iterations=0)


def decomposition_average_tangle(states: np.ndarray) -> Union[float, np.ndarray]:
    """Average tangle sum_k p_k tau(psi_k) of explicit sub-normalized ensembles.

    ``states`` has shape (..., m, 8); row k of an ensemble is sqrt(p_k) psi_k.
    Because the quartic is homogeneous of degree 4, each term is tau(row)/p;
    rows of weight p <= 1e-14, such as zero padding, contribute nothing.  One
    (m, 8) ensemble gives a float, a stack an array of its leading shape.
    """
    rows = np.asarray(states, dtype=complex)
    p = np.sum(rows.real**2 + rows.imag**2, axis=-1)
    total = np.sum(tangle_quartic(rows) / np.where(p > 1e-14, p, np.inf), axis=-1)
    return float(total) if total.ndim == 0 else total


def three_tangle_mixed(
    rho: DensityMatrix,
    restarts: int = DEFAULT_RESTARTS,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
) -> TangleEstimate:
    """Upper bound on the convex-roof three-tangle of a mixed state.

    Decompositions of the rank-r state are parameterized as V @ wtil with V
    an m x r isometry (m cycling over r..2r) acting on the scaled eigenvector
    ensemble wtil.  Each restart is a random walk of up to ``budget``
    proposals, the QR orthonormalization of V + step * noise: an improvement
    is accepted and grows the step, anything else shrinks it, and the walk
    stops once the step falls below 1e-10.  All restarts step in lockstep,
    each V padded with zero rows to 2r x r (QR keeps them zero, and the
    objective gives them no weight); the smallest average tangle is returned.
    """
    if rho.spec.dim != 8:
        raise ConfigError("three-tangle is defined for three qubits")
    if restarts < 1 or budget < 1:
        raise ConfigError("restarts and budget must be >= 1")
    lam, vec = np.linalg.eigh(rho.entries)
    keep = lam > EIGENVALUE_CUTOFF * lam.max()
    lam, vec = lam[keep], vec[:, keep]
    r = lam.size
    wtil = (np.sqrt(lam)[None, :] * vec).T  # (r, 8)

    if r == 1:
        value = min(1.0, float(tangle_quartic(wtil[0]) / lam[0] ** 2))
        return TangleEstimate(value, "mixed_upper_bound", 1, 0)

    rng = np.random.default_rng(seed)
    sizes = r + np.arange(restarts) % (r + 1)  # cycle m over r..2r
    own_rows = (np.arange(2 * r) < sizes[:, None])[..., None]  # (restarts, 2r, 1)
    shape = (restarts, 2 * r, r)

    def noise():
        return own_rows * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    step0, step_min = 0.3, 1e-10
    v = np.linalg.qr(noise())[0]
    best = decomposition_average_tangle(v @ wtil)
    step = np.full(restarts, step0)
    live = np.ones(restarts, dtype=bool)
    used = 0
    for _ in range(budget):
        used += int(live.sum())
        q = np.linalg.qr(v + step[:, None, None] * noise())[0]
        value = decomposition_average_tangle(q @ wtil)
        better = live & (value < best)
        v[better], best[better] = q[better], value[better]
        step = np.where(better, np.minimum(step * 1.1, step0), step * 0.95)
        live &= better | (step >= step_min)
        if not live.any():
            break
    k = int(np.argmin(best))  # a tie goes to the first restart
    return TangleEstimate(min(1.0, float(best[k])), "mixed_upper_bound", int(sizes[k]), used)


def classify_w_vs_ghz(
    rho: DensityMatrix,
    thresholds: tuple[float, float] = DEFAULT_THRESHOLDS,
    restarts: int = DEFAULT_RESTARTS,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
) -> str:
    """Classify a three-qubit state as ``W_class``, ``GHZ_class`` or ``inconclusive``.

    The verdict of :func:`certification_report`.
    """
    report = certification_report(
        rho, restarts=restarts, budget=budget, seed=seed, thresholds=thresholds
    )
    return report["classification"]


def certification_report(
    rho: DensityMatrix,
    restarts: int = DEFAULT_RESTARTS,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    thresholds: tuple[float, float] = DEFAULT_THRESHOLDS,
) -> dict:
    """Full certification record used by the command-line ``certify`` step.

    W_class requires a tangle bound below ``thresholds[0]`` and a negative
    witness; GHZ_class a tangle bound above ``thresholds[1]``.
    """
    try:
        tangle_thr, ghz_thr = (float(t) for t in thresholds)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"thresholds must be two numbers, got {thresholds!r}") from err
    estimate = three_tangle_mixed(rho, restarts=restarts, budget=budget, seed=seed)
    wit = witness_value(rho)
    if estimate.value > ghz_thr:
        classification = "GHZ_class"
    elif estimate.value < tangle_thr and wit < 0:
        classification = "W_class"
    else:
        classification = "inconclusive"
    return {
        "fidelity": fidelity(rho, TargetState.w_paper()),
        "witness": wit,
        "tangle_bound": estimate.value,
        "classification": classification,
        "optimizer_stats": {
            "kind": estimate.kind,
            "decomposition_size": estimate.decomposition_size,
            "iterations": estimate.optimizer_iterations,
            "restarts": restarts,
            "budget": budget,
            "seed": seed,
        },
    }
