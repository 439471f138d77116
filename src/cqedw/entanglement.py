"""Entanglement certification: fidelity, witness, three-tangle, classification.

The three-tangle of a pure three-qubit state is computed from the degree-4
amplitude polynomials of the hyperdeterminant,

    tau = 4 |d1 - 2 d2 + 4 d3|,

which is 1 for a GHZ state and 0 for every W-class or product state.  For
mixed states the convex roof (minimum average tangle over decompositions)
is approximated from above by optimizing over isometric mixtures of the
eigenvector ensemble; the result is an explicit upper bound, never a claim
of the exact roof.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from . import _kernels
from .errors import ConfigError
from .hilbert import DensityMatrix, HilbertSpec, QuantumState

QUBIT_SPEC_3 = HilbertSpec(num_qubits=3, photon_cutoff=0)

DEFAULT_RESTARTS = 32
DEFAULT_BUDGET = 2000
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

    @classmethod
    def custom(cls, state: QuantumState) -> "TargetState":
        return cls(state, "custom")


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


def tangle_quartic(amps: np.ndarray) -> float:
    """4 |d1 - 2 d2 + 4 d3| for a length-8 (possibly unnormalized) amplitude vector."""
    a = np.asarray(amps, dtype=complex).reshape(8)
    d1 = a[0] ** 2 * a[7] ** 2 + a[1] ** 2 * a[6] ** 2 + a[2] ** 2 * a[5] ** 2 + a[4] ** 2 * a[3] ** 2
    d2 = (
        a[0] * a[7] * a[3] * a[4]
        + a[0] * a[7] * a[5] * a[2]
        + a[0] * a[7] * a[6] * a[1]
        + a[3] * a[4] * a[5] * a[2]
        + a[3] * a[4] * a[6] * a[1]
        + a[5] * a[2] * a[6] * a[1]
    )
    d3 = a[0] * a[6] * a[5] * a[3] + a[7] * a[1] * a[2] * a[4]
    return float(4.0 * abs(d1 - 2.0 * d2 + 4.0 * d3))


def three_tangle_pure(psi: QuantumState) -> TangleEstimate:
    """Residual tripartite entanglement of a pure three-qubit state."""
    if psi.spec.dim != 8:
        raise ConfigError("three-tangle is defined for three qubits")
    value = min(1.0, tangle_quartic(psi.amplitudes))
    return TangleEstimate(value, "pure_exact", decomposition_size=1, optimizer_iterations=0)


def decomposition_average_tangle(states: np.ndarray) -> float:
    """Average tangle sum_k p_k tau(psi_k) of an explicit sub-normalized ensemble.

    ``states`` has shape (m, 8); row k is sqrt(p_k) psi_k.  Because the
    quartic is homogeneous of degree 4, each term is tau(row)/p.
    """
    total = 0.0
    for row in np.asarray(states, dtype=complex).reshape(-1, 8):
        p = float(np.real(row.conj() @ row))
        if p > 1e-14:
            total += tangle_quartic(row) / p
    return total


def three_tangle_mixed(
    rho: DensityMatrix,
    restarts: int = DEFAULT_RESTARTS,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
) -> TangleEstimate:
    """Upper bound on the convex-roof three-tangle of a mixed state.

    Decompositions of the rank-r state are parameterized as V @ wtil with V
    an m x r isometry (m cycling over r..2r) acting on the scaled eigenvector
    ensemble wtil.  Each restart runs a random-walk descent of ``budget``
    proposals; the smallest average tangle found is returned.
    """
    if rho.spec.dim != 8:
        raise ConfigError("three-tangle is defined for three qubits")
    if restarts < 1 or budget < 1:
        raise ConfigError("restarts and budget must be >= 1")
    lam, vec = np.linalg.eigh(rho.entries)
    keep = lam > EIGENVALUE_CUTOFF * lam.max()
    lam, vec = lam[keep], vec[:, keep]
    r = lam.size
    wtil = np.ascontiguousarray((np.sqrt(lam)[None, :] * vec).T)  # (r, 8)

    if r == 1:
        value = min(1.0, tangle_quartic(wtil[0]) / float(lam[0] ** 2))
        return TangleEstimate(value, "mixed_upper_bound", 1, 0)

    rng = np.random.default_rng(seed)
    sizes = [r + (i % (r + 1)) for i in range(restarts)]  # cycle m over r..2r
    best = np.inf
    best_m = r
    used_total = 0
    for m in sizes:
        v0 = np.linalg.qr(
            rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))
        )[0]
        v0 = np.ascontiguousarray(v0)
        noise = rng.standard_normal((budget, m, r)) + 1j * rng.standard_normal((budget, m, r))
        value, _, used = _kernels.roof_descent(wtil, v0, noise, 0.3, 1e-10)
        used_total += used
        if value < best:
            best, best_m = value, m
    return TangleEstimate(min(1.0, float(best)), "mixed_upper_bound", best_m, used_total)


def classify_w_vs_ghz(
    rho: DensityMatrix,
    thresholds: tuple[float, float] = (0.1, 0.5),
    restarts: int = DEFAULT_RESTARTS,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
) -> str:
    """Classify a three-qubit state as ``W_class``, ``GHZ_class`` or ``inconclusive``.

    W_class requires a tangle bound below ``thresholds[0]`` and a negative
    witness; GHZ_class a tangle bound above ``thresholds[1]``.
    """
    tangle_thr, ghz_thr = thresholds
    bound = three_tangle_mixed(rho, restarts=restarts, budget=budget, seed=seed).value
    if bound > ghz_thr:
        return "GHZ_class"
    if bound < tangle_thr and witness_value(rho) < 0:
        return "W_class"
    return "inconclusive"


def certification_report(
    rho: DensityMatrix,
    restarts: int = DEFAULT_RESTARTS,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    thresholds: tuple[float, float] = (0.1, 0.5),
) -> dict:
    """Full certification record used by the command-line ``certify`` step."""
    estimate = three_tangle_mixed(rho, restarts=restarts, budget=budget, seed=seed)
    wit = witness_value(rho)
    if estimate.value > thresholds[1]:
        classification = "GHZ_class"
    elif estimate.value < thresholds[0] and wit < 0:
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
