"""Joint-readout tomography: operator sets, noisy outcomes, reconstruction.

The dispersive readout measures one diagonal observable M of the three
qubits; rotating the qubits before measurement realizes the conjugated
operators U^+ M U.  With per-qubit rotations drawn from {Id, Rx(pi),
Rx(pi/2), Ry(pi/2)} the 64 conjugations plus the trace constraint span the
full Hermitian space, so a Gaussian-noise maximum-likelihood estimate
reduces to a linear least-squares solve followed by projection of the
eigenvalue vector onto the probability simplex (the closest physical state
in Frobenius norm).

Pauli strings are labeled with qubit C leftmost, matching the |C,B,A> ket
convention ("IIX" is X on qubit A).  Tomography always acts on the reduced
three-qubit state; the cavity is measured empty and traced out beforehand.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, IncompleteReadoutError, NumericalError
from .hilbert import (
    ID2,
    QUBIT_SPEC_3,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DensityMatrix,
    OperatorMatrix,
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
POPULATION_ROTATION_LABELS = ("id", "x180")

# Default joint-readout coefficients.  The identity offset is calibrated
# away (0); correlation terms stay comparable to the single-qubit shifts so
# that every Pauli coordinate is sensed with gain >~ 0.2 and Gaussian noise
# of sigma ~ 0.02 reconstructs the W state with fidelity > 0.95.
DEFAULT_READOUT_COEFFICIENTS = (0.0, 1.0, 0.95, 0.9, 0.85, 0.8, 0.75, 0.7)


def pauli_matrix(label: str) -> np.ndarray:
    """Tensor-product Pauli string; label reads (C, B, A) left to right."""
    if len(label) != 3 or set(label) - set("IXYZ"):
        raise ConfigError(f"bad Pauli label {label!r}")
    return np.kron(PAULI_1Q[label[0]], np.kron(PAULI_1Q[label[1]], PAULI_1Q[label[2]]))


# The 64 Pauli strings stacked in PAULI_LABELS order, shape (64, 8, 8).
PAULI_STACK = np.stack([pauli_matrix(l) for l in PAULI_LABELS])
PAULI_STACK.setflags(write=False)


@dataclass(frozen=True)
class ReadoutOperator:
    """Diagonal joint-readout observable on the three-qubit space."""

    coefficients: tuple[float, ...]
    matrix: OperatorMatrix

    @property
    def identity_coefficient(self) -> float:
        return self.coefficients[0]


def build_readout(coefficients: Sequence[float]) -> ReadoutOperator:
    """Readout operator from its 8 diagonal-Pauli coefficients.

    The identity coefficient is a calibration offset and may vanish; every
    other coefficient must be nonzero or the conjugated set cannot be
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
    mat = sum(c * pauli_matrix(l) for c, l in zip(coeffs, DIAGONAL_LABELS))
    return ReadoutOperator(coeffs, OperatorMatrix(mat, QUBIT_SPEC_3, hermitian=True))


@dataclass(frozen=True)
class TomographySet:
    """Labeled measurement operators U^+ M U for one readout operator.

    ``design`` is the operators expanded in the 64 Pauli strings (identity
    first), D[n, k] = Tr(P_k O_n) / 8, so noiseless outcomes are
    ``design @ pauli_set(rho)``.  It is computed once, when the set is made,
    and read by simulation, inversion and the completeness check.
    """

    operators: tuple[np.ndarray, ...]
    labels: tuple[tuple[str, str, str], ...]  # per-qubit rotation labels (A, B, C)
    readout: ReadoutOperator
    design: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        design = np.einsum("kij,nji->nk", PAULI_STACK, np.stack(self.operators)).real / 8.0
        design.setflags(write=False)
        object.__setattr__(self, "design", design)

    def __len__(self) -> int:
        return len(self.operators)

    def completeness_rank(self) -> int:
        """Rank of the design with the trace row e_0 appended (64 when complete).

        Tr(rho) = 1 is not measured but pins the identity component.  The row
        e_0 always adds exactly one dimension to the traceless block.
        """
        return int(np.linalg.matrix_rank(self.design[:, 1:], tol=1e-9)) + 1

    @cached_property
    def _traceless_pinv(self) -> np.ndarray:
        """Pseudo-inverse of ``design[:, 1:]``, computed on first use."""
        if self.completeness_rank() != 64:
            raise IncompleteReadoutError("design matrix is rank deficient")
        return np.linalg.pinv(self.design[:, 1:])


def _conjugated(readout: ReadoutOperator, labels: tuple[str, str, str]) -> np.ndarray:
    la, lb, lc = labels
    u = np.kron(ROTATIONS[lc], np.kron(ROTATIONS[lb], ROTATIONS[la]))
    return u.conj().T @ readout.matrix.entries @ u


def tomography_set(readout: ReadoutOperator) -> TomographySet:
    """All 64 rotation triples; raises if the set is rank-deficient."""
    labels = tuple(itertools.product(FULL_ROTATION_LABELS, repeat=3))
    ops = tuple(_conjugated(readout, l) for l in labels)
    tset = TomographySet(ops, labels, readout)
    rank = tset.completeness_rank()
    if rank != 64:
        raise IncompleteReadoutError(f"tomography set has rank {rank}, expected 64")
    return tset


def population_set(readout: ReadoutOperator) -> TomographySet:
    """The 8 bit-flip conjugations; spans the diagonal (populations) exactly."""
    labels = tuple(itertools.product(POPULATION_ROTATION_LABELS, repeat=3))
    ops = tuple(_conjugated(readout, l) for l in labels)
    tset = TomographySet(ops, labels, readout)
    if np.linalg.matrix_rank(_population_design(tset), tol=1e-9) != 8:
        raise IncompleteReadoutError("population set does not span the diagonal")
    return tset


def _population_design(pop_set: TomographySet) -> np.ndarray:
    """Operator diagonals with the normalization row sum(p) = 1 appended."""
    diag = np.diagonal(np.stack(pop_set.operators), axis1=1, axis2=2).real
    return np.vstack([diag, np.ones((1, 8))])


@dataclass(frozen=True)
class MeasurementRecord:
    labels: tuple[str, str, str]
    noiseless: float
    noisy: float
    sigma: float

    def __post_init__(self):
        if self.sigma < 0:
            raise ConfigError("noise sigma must be >= 0")


def expectation_values(rho: DensityMatrix, tset: TomographySet) -> np.ndarray:
    """Noiseless outcomes Tr(O_n rho) of the reduced three-qubit state."""
    return tset.design @ pauli_set(rho)


def simulate_measurements(
    rho: DensityMatrix, tset: TomographySet, sigma, seed: int
) -> list[MeasurementRecord]:
    """Noiseless expectations plus Gaussian noise, reproducible by seed.

    ``sigma`` is a single width applied to every outcome or a per-operator
    vector of widths.
    """
    sig = np.broadcast_to(np.asarray(sigma, dtype=float), (len(tset),))
    if not np.all(np.isfinite(sig)) or np.any(sig < 0):
        raise ConfigError("sigma must be finite and >= 0")
    clean = expectation_values(rho, tset)
    rng = np.random.default_rng(seed)
    noisy = clean + sig * rng.standard_normal(clean.size)
    return [
        MeasurementRecord(l, float(c), float(n), float(s))
        for l, c, n, s in zip(tset.labels, clean, noisy, sig)
    ]


def _outcomes(records: Sequence[MeasurementRecord], tset: TomographySet) -> np.ndarray:
    """Noisy outcomes in set order; records must match the set's labels one to one."""
    if len(records) != len(tset):
        raise ConfigError(f"got {len(records)} records for {len(tset)} operators")
    for rec, lab in zip(records, tset.labels):
        if tuple(rec.labels) != tuple(lab):
            raise ConfigError(f"record labels {rec.labels} do not match set entry {lab}")
    return np.array([r.noisy for r in records])


def linear_inversion(records: Sequence[MeasurementRecord], tset: TomographySet) -> np.ndarray:
    """Least-squares Hermitian estimate from noisy outcomes.

    Solves for the 63 traceless Pauli components with the trace pinned to 1,
    through the set's stored pseudo-inverse; exact (up to roundoff) at
    sigma = 0.  The result can be unphysical (negative eigenvalues), which is
    what :func:`mle_project` repairs.
    """
    y = _outcomes(records, tset)
    coeffs = tset._traceless_pinv @ (y - tset.design[:, 0])
    r = np.concatenate([[1.0], coeffs])
    return np.tensordot(r, PAULI_STACK, axes=1) / 8.0


def invert_populations(records: Sequence[MeasurementRecord], pop_set: TomographySet) -> np.ndarray:
    """Basis-state populations from the 8 population measurements.

    Solves the diagonal system with the normalization sum(p) = 1 appended;
    exact at sigma = 0.
    """
    b = np.concatenate([_outcomes(records, pop_set), [1.0]])
    populations, *_ = np.linalg.lstsq(_population_design(pop_set), b, rcond=None)
    return populations


def _project_simplex(lam: np.ndarray) -> tuple[np.ndarray, float]:
    """Euclidean projection onto {x >= 0, sum x = 1}; returns (x, shift)."""
    srt = np.sort(lam)[::-1]
    cumsum = np.cumsum(srt)
    ks = np.arange(1, lam.size + 1)
    support = srt + (1.0 - cumsum) / ks > 0
    k = int(np.nonzero(support)[0].max()) + 1
    shift = (cumsum[k - 1] - 1.0) / k
    return np.maximum(lam - shift, 0.0), float(shift)


@dataclass(frozen=True)
class ReconstructionResult:
    rho: DensityMatrix
    estimate: np.ndarray  # pre-projection Hermitian estimate
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
    if np.abs(est - est.conj().T).max() > 1e-8:
        raise NumericalError("mle_project requires a Hermitian estimate")
    est = 0.5 * (est + est.conj().T)
    lam, vec = np.linalg.eigh(est)
    projected, shift = _project_simplex(lam)
    rho = (vec * projected[None, :]) @ vec.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    result = DensityMatrix(rho, spec)
    return ReconstructionResult(
        rho=result,
        estimate=est,
        eigenvalue_shift=shift,
        residual_norm=float(np.linalg.norm(rho - est)),
    )


def reconstruct(records: Sequence[MeasurementRecord], tset: TomographySet) -> ReconstructionResult:
    """Linear inversion followed by the physicality projection."""
    return mle_project(linear_inversion(records, tset))


def pauli_set(rho: DensityMatrix) -> np.ndarray:
    """Expectation values of all 64 Pauli strings, ordered as PAULI_LABELS."""
    if rho.spec.dim != 8:
        raise ConfigError("pauli_set is defined for three-qubit states")
    return np.einsum("kij,ji->k", PAULI_STACK, rho.entries).real


def records_to_csv(records: Iterable[MeasurementRecord]) -> str:
    lines = ["rotation_label_A,rotation_label_B,rotation_label_C,value"]
    for r in records:
        lines.append(f"{r.labels[0]},{r.labels[1]},{r.labels[2]},{r.noisy:.12g}")
    return "\n".join(lines) + "\n"


def records_from_csv(text: str, tset: TomographySet, sigma: float = 0.0) -> list[MeasurementRecord]:
    """Parse a records CSV and align it with ``tset``; every label must appear once."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines or lines[0].split(",") != [
        "rotation_label_A",
        "rotation_label_B",
        "rotation_label_C",
        "value",
    ]:
        raise ConfigError("records CSV must start with the rotation-label header")
    values = {}
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 4:
            raise ConfigError(f"malformed records row: {ln!r}")
        key = (parts[0].strip(), parts[1].strip(), parts[2].strip())
        try:
            values[key] = float(parts[3])
        except ValueError as err:
            raise ConfigError(f"non-numeric value in row {ln!r}") from err
        if not np.isfinite(values[key]):
            raise ConfigError(f"non-finite value in row {ln!r}")
    missing = [l for l in tset.labels if l not in values]
    if missing:
        raise ConfigError(f"records CSV is missing {len(missing)} labels, e.g. {missing[0]}")
    return [
        MeasurementRecord(l, float("nan"), values[l], sigma) for l in tset.labels
    ]
