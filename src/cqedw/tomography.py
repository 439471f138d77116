"""Joint-readout tomography: the complete measurement set, noisy outcomes, reconstruction.

The dispersive readout measures one diagonal observable M of the three
qubits, an 8 x 8 matrix from ``build_readout``; rotating the qubits before
measurement realizes the conjugated operators U^+ M U.  With per-qubit
rotations drawn from {Id, Rx(pi), Rx(pi/2), Ry(pi/2)} the 64 conjugations
plus the trace constraint span the full Hermitian space.
``tomography_set`` alone makes a ``TomographySet``, and only a complete
one: labels, design matrix and the pseudo-inverse of the traceless design,
which one SVD gives along with the completeness verdict.  A readout whose
design overflows raises ConfigError there; outcomes whose estimate
overflows reach ``mle_project`` as a non-finite estimate, which it refuses.

The estimate is a linear least-squares solve with the trace pinned to 1,
followed by projection of its eigenvalue vector onto the probability
simplex: the closest physical state in Frobenius norm.  That is
not the Gaussian-noise maximum-likelihood state.  The two coincide only for
an isotropic design, D^T D proportional to the identity (Smolin, Gambetta,
Smith, PRL 108, 070502 (2012)); the default readout weighs the Pauli
coordinates unequally, and D[:, 1:]^T D[:, 1:] has eigenvalues from 0.057
to 38.2, a condition number of about 674.

Outcomes are one float vector whose entry n belongs to ``tset.labels[n]``;
only the records CSV carries labels, and it is matched to the set by label.

Pauli strings are labeled with qubit C leftmost, matching the |C,B,A> ket
convention ("IIX" is X on qubit A).  Tomography always acts on the reduced
three-qubit state; the cavity is measured empty and traced out beforehand.
"""
from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, IncompleteReadoutError, NumericalError
from .hilbert import (
    ID2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DensityMatrix,
    qubit_rotation,
    qubit_spec,
)

PAULI_1Q = {"I": ID2, "X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z}
PAULI_LABELS = tuple("".join(p) for p in itertools.product("IXYZ", repeat=3))

# Order of the readout coefficient vector: diagonal Pauli basis.
DIAGONAL_LABELS = ("III", "IIZ", "IZI", "ZII", "IZZ", "ZIZ", "ZZI", "ZZZ")

ROTATIONS = {
    "id": ID2,
    "x180": qubit_rotation("x", np.pi),
    "x90": qubit_rotation("x", np.pi / 2),
    "y90": qubit_rotation("y", np.pi / 2),
}
FULL_ROTATION_LABELS = ("id", "x180", "x90", "y90")

# Default joint-readout coefficients.  The identity offset is calibrated
# away (0); correlation terms stay comparable to the single-qubit shifts so
# that every Pauli coordinate is sensed with gain >~ 0.2 and Gaussian noise
# of sigma ~ 0.02 reconstructs the W state with fidelity > 0.95.
DEFAULT_READOUT_COEFFICIENTS = (0.0, 1.0, 0.95, 0.9, 0.85, 0.8, 0.75, 0.7)

RECORDS_HEADER = "rotation_label_A,rotation_label_B,rotation_label_C,value"

# Largest condition number of the traceless design accepted.  Beyond about
# 1e15 the outcomes no longer carry the weakly sensed components in float64;
# the default readout has 26 and the weak-correlation one 155.
MAX_CONDITION = 1e8


def pauli_matrix(label: str) -> np.ndarray:
    """Tensor-product Pauli string; label reads (C, B, A) left to right."""
    if len(label) != 3 or set(label) - set("IXYZ"):
        raise ConfigError(f"bad Pauli label {label!r}")
    return np.kron(PAULI_1Q[label[0]], np.kron(PAULI_1Q[label[1]], PAULI_1Q[label[2]]))


# The 64 Pauli strings stacked in PAULI_LABELS order, shape (64, 8, 8).
PAULI_STACK = np.stack([pauli_matrix(l) for l in PAULI_LABELS])
PAULI_STACK.setflags(write=False)


def build_readout(coefficients: Sequence[float]) -> np.ndarray:
    """Diagonal joint-readout observable M from its 8 diagonal-Pauli coefficients.

    M is returned as a read-only 8 x 8 complex array.  The identity
    coefficient is a calibration offset and may vanish; every other
    coefficient must be nonzero or the conjugated set cannot be
    tomographically complete.
    """
    try:
        coeffs = tuple(float(c) for c in coefficients)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"readout coefficients must be numbers: {err}") from err
    if len(coeffs) != 8 or not np.all(np.isfinite(coeffs)):
        raise ConfigError("readout needs exactly 8 finite coefficients")
    zeros = [DIAGONAL_LABELS[i] for i in range(1, 8) if coeffs[i] == 0.0]
    if zeros:
        raise IncompleteReadoutError(
            f"zero coefficient on {zeros}: readout cannot span the qubit populations"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # tomography_set refuses a non-finite design
        mat = sum(c * PAULI_STACK[PAULI_LABELS.index(l)] for c, l in zip(coeffs, DIAGONAL_LABELS))
    mat.setflags(write=False)
    return mat


@dataclass(frozen=True)
class TomographySet:
    """The joint readout M under all 64 rotation triples, complete and ready to invert.

    Only :func:`tomography_set` makes one.  ``labels[n]`` names the per-qubit
    rotations (A, B, C) before outcome n.  ``design`` expands each measured
    operator O_n = U^+ M U in the 64 Pauli strings (identity first),
    D[n, k] = Tr(P_k O_n) / 8, so noiseless outcomes are
    ``design @ pauli_set(rho)``.  ``pinv`` is the pseudo-inverse of its
    traceless block ``design[:, 1:]``.  Both arrays are read-only.
    """

    labels: tuple[tuple[str, str, str], ...]
    design: np.ndarray
    pinv: np.ndarray


def tomography_set(readout: np.ndarray) -> TomographySet:
    """The readout M of :func:`build_readout` under all 64 rotation triples.

    Triple (a, b, c) rotates by U = R_c (x) R_b (x) R_a, with A the fastest
    factor.  All 64 U are two einsums of outer products over the four
    one-qubit rotations, multiplied in the order of
    ``np.kron(R_c, np.kron(R_b, R_a))``; every U^+ M U is one batched matmul
    and the design one einsum over them.  Labels run over
    ``itertools.product`` of the rotation names, C fastest.

    One SVD of ``design[:, 1:]`` decides completeness and gives the
    pseudo-inverse, numpy's ``pinv`` product V diag(1/s) U^T.  Tr(rho) = 1 is
    not measured but pins the identity component, so the rank is one more
    than the count of singular values above s_max * 64 * eps, numpy's
    default ``matrix_rank`` rule; the rule is relative, so rescaling the
    readout does not change the verdict.  Raises ConfigError if the design
    is not finite and IncompleteReadoutError if the set is rank-deficient
    or the condition number of its traceless design exceeds MAX_CONDITION.
    """
    labels = tuple(itertools.product(FULL_ROTATION_LABELS, repeat=3))
    rot = np.stack([ROTATIONS[l] for l in FULL_ROTATION_LABELS])
    ba = np.einsum("bij,akl->baikjl", rot, rot).reshape(4, 4, 4, 4)  # R_b (x) R_a
    u = np.einsum("cpq,baxy->abcpxqy", rot, ba).reshape(64, 8, 8)  # R_c (x) (R_b (x) R_a)
    with np.errstate(over="ignore", invalid="ignore"):  # a design past the float range is refused below
        design = np.einsum("kij,nji->nk", PAULI_STACK, u.conj().swapaxes(1, 2) @ readout @ u).real / 8.0
    if not np.isfinite(design).all():
        raise ConfigError("readout coefficients too large: their design matrix is not finite")
    left, s, vt = np.linalg.svd(design[:, 1:], full_matrices=False)
    # 64 * eps is a power of two: the threshold is exact and cannot overflow
    rank = int(np.count_nonzero(s > s[0] * (64 * np.finfo(float).eps))) + 1
    cond = s[0] / s[-1] if s[-1] else np.inf
    if rank != 64 or cond > MAX_CONDITION:
        raise IncompleteReadoutError(
            f"tomography set has rank {rank} of 64 and condition number {cond:.3g}"
            f" (at most {MAX_CONDITION:g} accepted)"
        )
    pinv = vt.T @ ((1.0 / s)[:, None] * left.T)
    design.setflags(write=False)
    pinv.setflags(write=False)
    return TomographySet(labels, design, pinv)


def expectation_values(rho: DensityMatrix, tset: TomographySet) -> np.ndarray:
    """Noiseless outcomes Tr(O_n rho) of the reduced three-qubit state."""
    return tset.design @ pauli_set(rho)


def simulate_measurements(rho: DensityMatrix, tset: TomographySet, sigma, seed: int) -> np.ndarray:
    """Noisy outcomes in ``tset.labels`` order, reproducible by seed.

    Each is the noiseless expectation plus Gaussian noise of the one width
    ``sigma``, a finite number >= 0.
    """
    if isinstance(sigma, bool) or not isinstance(sigma, numbers.Real) or not 0 <= sigma < np.inf:
        raise ConfigError(f"sigma must be one finite number >= 0, got {sigma!r}")
    noise = np.random.default_rng(seed).standard_normal(len(tset.labels))
    return expectation_values(rho, tset) + sigma * noise


def _outcomes(outcomes: np.ndarray, tset: TomographySet) -> np.ndarray:
    """Outcomes as a float vector; entry n belongs to ``tset.labels[n]``."""
    y = np.asarray(outcomes, dtype=float)
    if y.shape != (len(tset.labels),):
        raise ConfigError(f"got outcomes of shape {y.shape} for {len(tset.labels)} operators")
    if not np.isfinite(y).all():
        raise ConfigError(f"outcomes must be finite; entry {int(np.argmin(np.isfinite(y)))} is not")
    return y


def linear_inversion(outcomes: np.ndarray, tset: TomographySet) -> np.ndarray:
    """Least-squares Hermitian estimate from noisy outcomes.

    Solves for the 63 traceless Pauli components with the trace pinned to 1,
    through the set's pseudo-inverse; exact (up to roundoff) at sigma = 0.
    The result can be unphysical (negative eigenvalues), which is what
    :func:`mle_project` repairs.
    """
    y = _outcomes(outcomes, tset)
    with np.errstate(over="ignore", invalid="ignore"):  # mle_project refuses a non-finite estimate
        coeffs = tset.pinv @ (y - tset.design[:, 0])
        return np.tensordot(np.concatenate([[1.0], coeffs]), PAULI_STACK, axes=1) / 8.0


def _project_simplex(lam: np.ndarray) -> tuple[np.ndarray, float]:
    """Euclidean projection onto {x >= 0, sum x = 1}; returns (x, shift).

    The top entry is always in the support: its term is exactly 1, though
    it rounds to 0 once that entry passes ~2^53.  A support of that entry
    alone gives the unit vector on it exactly, since ``lam - shift`` can
    round to all zeros there.
    """
    srt = np.sort(lam)[::-1]
    cumsum = np.cumsum(srt)
    ks = np.arange(1, lam.size + 1)
    support = srt + (1.0 - cumsum) / ks > 0
    support[0] = True
    k = int(np.nonzero(support)[0].max()) + 1
    shift = (cumsum[k - 1] - 1.0) / k
    if k == 1:
        return (np.arange(lam.size) == np.argmax(lam)).astype(float), float(shift)
    return np.maximum(lam - shift, 0.0), float(shift)


@dataclass(frozen=True)
class ReconstructionResult:
    rho: DensityMatrix
    eigenvalue_shift: float
    residual_norm: float  # Frobenius distance moved by the projection


def mle_project(estimate: np.ndarray) -> ReconstructionResult:
    """Closest density matrix (Frobenius norm) to a Hermitian estimate.

    Diagonalizes the estimate and projects its eigenvalue vector onto the
    probability simplex: sorted descending, the most negative values are
    zeroed and the deficit redistributed uniformly over the remaining
    support.  Idempotent; already-physical inputs pass through unchanged.
    """
    est = np.asarray(estimate, dtype=complex)
    if est.ndim != 2 or est.shape[0] != est.shape[1]:
        raise ConfigError("estimate must be a square matrix")
    spec = qubit_spec(est.shape[0])
    if not np.isfinite(est).all():
        raise NumericalError("mle_project requires a finite estimate")
    if np.abs(est - est.conj().T).max() > 1e-8:
        raise NumericalError("mle_project requires a Hermitian estimate")
    est = 0.5 * (est + est.conj().T)
    lam, vec = np.linalg.eigh(est)
    projected, shift = _project_simplex(lam)
    rho = (vec * projected[None, :]) @ vec.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    with np.errstate(over="ignore"):  # a norm past the float range is inf, which no artifact holds
        residual = float(np.linalg.norm(rho - est))
    return ReconstructionResult(DensityMatrix(rho, spec), shift, residual)


def reconstruct(outcomes: np.ndarray, tset: TomographySet) -> ReconstructionResult:
    """Linear inversion followed by the physicality projection."""
    return mle_project(linear_inversion(outcomes, tset))


def pauli_set(rho: DensityMatrix) -> np.ndarray:
    """Expectation values of all 64 Pauli strings, ordered as PAULI_LABELS."""
    if rho.spec.dim != 8:
        raise ConfigError("pauli_set is defined for three-qubit states")
    return np.einsum("kij,ji->k", PAULI_STACK, rho.entries).real


def records_to_csv(outcomes: np.ndarray, tset: TomographySet) -> str:
    """One row per outcome, labeled by its entry of ``tset.labels``."""
    lines = [RECORDS_HEADER]
    for (a, b, c), value in zip(tset.labels, _outcomes(outcomes, tset).tolist()):
        lines.append(f"{a},{b},{c},{value:.12g}")
    return "\n".join(lines) + "\n"


def records_from_csv(text: str, tset: TomographySet) -> np.ndarray:
    """Outcomes in set order from a CSV whose rows name each triple of the set once."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines or lines[0] != RECORDS_HEADER:
        raise ConfigError("records CSV must start with the rotation-label header")
    values = dict.fromkeys(tset.labels)  # set order; None until its row is read
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 4:
            raise ConfigError(f"malformed records row: {ln!r}")
        key = (parts[0].strip(), parts[1].strip(), parts[2].strip())
        if key not in values:
            raise ConfigError(f"row {ln!r} names a rotation triple outside the set")
        if values[key] is not None:
            raise ConfigError(f"row {ln!r} repeats rotation triple {key}")
        try:
            values[key] = float(parts[3])
        except ValueError as err:
            raise ConfigError(f"non-numeric value in row {ln!r}") from err
        if not np.isfinite(values[key]):
            raise ConfigError(f"non-finite value in row {ln!r}")
    missing = [l for l, v in values.items() if v is None]
    if missing:
        raise ConfigError(f"records CSV is missing {len(missing)} labels, e.g. {missing[0]}")
    return np.array(list(values.values()))
