"""Dense linear algebra on the composite qubits (x) cavity Hilbert space.

Basis convention used everywhere in this package: the basis index of a
product state is

    index = n_photon * 2**N + sum_j bit_j * 2**j

with qubit 0 ("A") at bit 0 and the cavity as the slowest factor, so for
N = 3 a ket prints as |C,B,A;n>.  Bit 0 of a qubit is |g>, bit 1 is |e>,
and sigma_z |g> = -|g> (the excited state carries sigma_z = +1, i.e. the
+1/2 w sigma_z energy convention).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

from .errors import ConfigError, NumericalError

HERMITICITY_ATOL = 1e-10
NORM_ATOL = 1e-9
TRACE_ATOL = 1e-9
EIG_FLOOR = -1e-8

# Single-qubit operators in the (|g>, |e>) = (bit 0, bit 1) basis.
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
PROJ_EXCITED = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
PROJ_GROUND = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)

CAVITY = "cavity"


def qubit_rotation(axis: str, angle: float) -> np.ndarray:
    """2x2 rotation exp(-i angle/2 sigma_axis) for axis in {'x','y','z'}."""
    sigma = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}
    if axis not in sigma:
        raise ConfigError(f"unknown rotation axis {axis!r}")
    return np.cos(angle / 2) * ID2 - 1j * np.sin(angle / 2) * sigma[axis]


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=complex, copy=True, order="C")
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class HilbertSpec:
    """Shape of the composite space: N two-level systems and one mode.

    ``photon_cutoff`` is the highest Fock state kept, so the cavity factor
    has dimension ``photon_cutoff + 1``.  A cutoff of 0 denotes a trivial
    cavity factor and is used for cavity-traced reduced states; dynamics
    requires a cutoff of at least 1.
    """

    num_qubits: int
    photon_cutoff: int = 2

    def __post_init__(self):
        if self.num_qubits < 0:
            raise ConfigError("num_qubits must be >= 0")
        if self.photon_cutoff < 0:
            raise ConfigError("photon_cutoff must be >= 0")
        if self.dim < 2:
            raise ConfigError("total dimension must be >= 2")

    @property
    def cavity_dim(self) -> int:
        return self.photon_cutoff + 1

    @property
    def dim(self) -> int:
        return 2**self.num_qubits * self.cavity_dim

    def index(self, excited: Iterable[int] = (), n_photon: int = 0) -> int:
        """Basis index of the product state with the given excited qubits."""
        if not 0 <= n_photon <= self.photon_cutoff:
            raise ConfigError(f"photon number {n_photon} outside cutoff")
        bits = 0
        for j in set(excited):
            if not 0 <= j < self.num_qubits:
                raise ConfigError(f"qubit index {j} out of range")
            bits |= 1 << j
        return n_photon * 2**self.num_qubits + bits


def qubit_spec(dim: int) -> HilbertSpec:
    """Cavity-free spec of ``dim`` = 2**N basis states; the one rule for N from dim."""
    n = int(dim).bit_length() - 1
    if dim < 2 or 2**n != dim:
        raise ConfigError(f"dimension {dim} is not a power of two >= 2")
    return HilbertSpec(num_qubits=n, photon_cutoff=0)


# The cavity-traced three-qubit space that tomography and certification act on.
QUBIT_SPEC_3 = HilbertSpec(num_qubits=3, photon_cutoff=0)


@dataclass(frozen=True)
class QuantumState:
    """Pure state vector on a :class:`HilbertSpec`, unit norm within 1e-9."""

    amplitudes: np.ndarray
    spec: HilbertSpec

    def __post_init__(self):
        amps = _readonly(np.asarray(self.amplitudes).reshape(-1))
        if amps.shape != (self.spec.dim,):
            raise ConfigError(
                f"state has {amps.shape[0]} amplitudes, spec dimension is {self.spec.dim}"
            )
        if not np.all(np.isfinite(amps)):
            raise NumericalError("state has non-finite amplitudes")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_ATOL:
            raise NumericalError(f"state norm {norm} deviates from 1 beyond {NORM_ATOL}")
        object.__setattr__(self, "amplitudes", amps)

    def density_matrix(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()), self.spec)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, PSD (within tolerance) operator on the space."""

    entries: np.ndarray
    spec: HilbertSpec

    def __post_init__(self):
        mat = _readonly(np.asarray(self.entries))
        d = self.spec.dim
        if mat.shape != (d, d):
            raise ConfigError(f"density matrix shape {mat.shape} does not match dim {d}")
        if not np.all(np.isfinite(mat)):
            raise NumericalError("density matrix has non-finite entries")
        herm = np.abs(mat - mat.conj().T).max()
        if herm > HERMITICITY_ATOL:
            raise NumericalError(f"density matrix non-Hermitian by {herm}")
        tr = np.trace(mat).real
        if abs(tr - 1.0) > TRACE_ATOL:
            raise NumericalError(f"density matrix trace {tr} deviates from 1")
        lo = np.linalg.eigvalsh(mat)[0]
        if lo < EIG_FLOOR:
            raise NumericalError(f"density matrix has eigenvalue {lo} below {EIG_FLOOR}")
        object.__setattr__(self, "entries", mat)

    def purity(self) -> float:
        return float(np.einsum("ij,ji->", self.entries, self.entries).real)


@dataclass(frozen=True)
class OperatorMatrix:
    """A d x d operator, optionally flagged (and then checked) Hermitian."""

    entries: np.ndarray
    spec: HilbertSpec
    hermitian: bool = False

    def __post_init__(self):
        mat = _readonly(np.asarray(self.entries))
        d = self.spec.dim
        if mat.shape != (d, d):
            raise ConfigError(f"operator shape {mat.shape} does not match dim {d}")
        if self.hermitian:
            herm = np.abs(mat - mat.conj().T).max()
            if herm > HERMITICITY_ATOL:
                raise NumericalError(f"operator flagged Hermitian deviates by {herm}")
        object.__setattr__(self, "entries", mat)


def basis_ket(spec: HilbertSpec, excited: Iterable[int] = (), n_photon: int = 0) -> QuantumState:
    """Product basis state with the listed qubits excited and ``n_photon`` photons."""
    amps = np.zeros(spec.dim, dtype=complex)
    amps[spec.index(excited, n_photon)] = 1.0
    return QuantumState(amps, spec)


def ket_from_label(spec: HilbertSpec, qubits: str, n_photon: int = 0) -> QuantumState:
    """Basis state from a paper-style qubit string, leftmost letter = qubit N-1.

    For N = 3 the string reads |C,B,A>: ``ket_from_label(spec, "gge")`` is the
    state with qubit A excited.
    """
    if len(qubits) != spec.num_qubits or set(qubits) - {"g", "e"}:
        raise ConfigError(f"label {qubits!r} does not describe {spec.num_qubits} qubits")
    excited = [spec.num_qubits - 1 - pos for pos, c in enumerate(qubits) if c == "e"]
    return basis_ket(spec, excited, n_photon)


def embed_qubit_operator(op2: np.ndarray, qubit_index: int, spec: HilbertSpec) -> OperatorMatrix:
    """Embed a single-qubit operator at ``qubit_index``, identity elsewhere.

    Parameters
    ----------
    op2 : (2, 2) complex array
    qubit_index : int in [0, N)
    spec : HilbertSpec

    Returns
    -------
    OperatorMatrix
        Id (x) ... (x) op2 (x) ... (x) Id (x) Id_cavity laid out per the
        package basis convention (qubit 0 fastest, cavity slowest).
    """
    op2 = np.asarray(op2, dtype=complex)
    if op2.shape != (2, 2):
        raise ConfigError(f"expected a 2x2 operator, got shape {op2.shape}")
    if not 0 <= qubit_index < spec.num_qubits:
        raise ConfigError(f"qubit index {qubit_index} out of range for N={spec.num_qubits}")
    full = np.eye(spec.cavity_dim, dtype=complex)
    for j in reversed(range(spec.num_qubits)):
        full = np.kron(full, op2 if j == qubit_index else ID2)
    hermitian = bool(np.abs(op2 - op2.conj().T).max() <= HERMITICITY_ATOL)
    return OperatorMatrix(full, spec, hermitian=hermitian)


def cavity_annihilation(spec: HilbertSpec) -> OperatorMatrix:
    """Annihilation operator of the mode: a|n> = sqrt(n)|n-1>, identity on qubits."""
    a = np.diag(np.sqrt(np.arange(1, spec.cavity_dim, dtype=float)), k=1).astype(complex)
    full = np.kron(a, np.eye(2**spec.num_qubits, dtype=complex))
    return OperatorMatrix(full, spec, hermitian=False)


def cavity_number(spec: HilbertSpec) -> OperatorMatrix:
    """Photon number operator a^dag a."""
    a = cavity_annihilation(spec).entries
    return OperatorMatrix(a.conj().T @ a, spec, hermitian=True)


def partial_trace(rho: DensityMatrix, keep: Iterable[Union[int, str]]) -> DensityMatrix:
    """Trace out all subsystems not in ``keep``.

    ``keep`` is a nonempty subset of {0..N-1, "cavity"}.  Kept factors retain
    their relative order, so the output follows the same basis convention
    with the kept qubits renumbered from 0 in ascending original index.
    """
    keep = set(keep)
    if not keep:
        raise ConfigError("keep set must be nonempty")
    spec = rho.spec
    n = spec.num_qubits
    valid = set(range(n)) | {CAVITY}
    if keep - valid:
        raise ConfigError(f"unknown subsystems in keep set: {keep - valid}")

    # Axis 0 is the cavity, axis i (1..N) is qubit N-i.
    dims = [spec.cavity_dim] + [2] * n
    axis_of = {CAVITY: 0, **{j: n - j for j in range(n)}}
    keep_axes = sorted(axis_of[s] for s in keep)

    tensor = rho.entries.reshape(dims + dims)
    n_ax = n + 1
    row = list(range(n_ax))
    col = [(i + n_ax) if i in keep_axes else i for i in range(n_ax)]
    out = [i for i in keep_axes] + [i + n_ax for i in keep_axes]
    reduced = np.einsum(tensor, row + col, out)

    kept_dim = int(np.prod([dims[i] for i in keep_axes]))
    reduced = reduced.reshape(kept_dim, kept_dim)
    new_spec = HilbertSpec(
        num_qubits=sum(1 for s in keep if s != CAVITY),
        photon_cutoff=spec.photon_cutoff if CAVITY in keep else 0,
    )
    return DensityMatrix(reduced, new_spec)


def expectation(op: OperatorMatrix, state: Union[DensityMatrix, QuantumState]):
    """Tr(op rho) (or <psi|op|psi>); real for Hermitian operators.

    Raises on mismatched specs; for a Hermitian operator the imaginary part
    is checked to vanish within 1e-10 and a float is returned, otherwise the
    complex value is returned as-is.
    """
    if op.spec.dim != state.spec.dim:
        raise ConfigError("operator and state live on different spaces")
    if isinstance(state, QuantumState):
        val = complex(np.vdot(state.amplitudes, op.entries @ state.amplitudes))
    else:
        val = complex(np.einsum("ij,ji->", op.entries, state.entries))
    if op.hermitian:
        if abs(val.imag) > 1e-10:
            raise NumericalError(f"Hermitian expectation has imaginary part {val.imag}")
        return float(val.real)
    return val
