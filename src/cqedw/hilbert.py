"""Dense linear algebra on the composite qubits (x) cavity Hilbert space.

Basis convention used everywhere in this package: the basis index of a
product state is

    index = n_photon * 2**N + sum_j bit_j * 2**j

with qubit 0 ("A") at bit 0 and the cavity as the slowest factor, so for
N = 3 a ket prints as |C,B,A;n>.  Bit 0 of a qubit is |g>, bit 1 is |e>,
and sigma_z |g> = -|g> (the excited state carries sigma_z = +1, i.e. the
+1/2 w sigma_z energy convention).

A ket is a plain (d,) complex amplitude array; :class:`DensityMatrix` is
the one state type, and it is checked whenever it is built.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError

HERMITICITY_ATOL = 1e-10
NORM_ATOL = 1e-9
TRACE_ATOL = 1e-9
EIG_FLOOR = -1e-8
IMAG_ATOL = 1e-10  # imaginary part of a Hermitian expectation
# Largest total dimension: every operator is a dense d x d array, so d = 8008
# (cutoff 1000) would take about 1 GB per operator.  The paper's device has 24.
MAX_DIM = 1024

# Single-qubit operators in the (|g>, |e>) = (bit 0, bit 1) basis.
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
PROJ_EXCITED = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)


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
        if self.dim > MAX_DIM:
            raise ConfigError(
                f"total dimension {self.dim} = 2**{self.num_qubits} x {self.cavity_dim}"
                f" exceeds {MAX_DIM}"
            )

    @property
    def cavity_dim(self) -> int:
        return self.photon_cutoff + 1

    @property
    def dim(self) -> int:
        return 2**self.num_qubits * self.cavity_dim


def qubit_spec(dim: int) -> HilbertSpec:
    """Cavity-free spec of ``dim`` = 2**N basis states; the one rule for N from dim."""
    n = int(dim).bit_length() - 1
    if dim < 2 or 2**n != dim:
        raise ConfigError(f"dimension {dim} is not a power of two >= 2")
    return HilbertSpec(num_qubits=n, photon_cutoff=0)


def _worst(deviation: np.ndarray, label: str) -> tuple[str, float]:
    """The largest entry of a per-state deviation, and ``label`` naming its state."""
    k = int(np.argmax(deviation))
    return (f"{label} {k} of {deviation.size}" if deviation.size > 1 else label), deviation[k]


def check_ket_stack(amps: np.ndarray) -> None:
    """Raise NumericalError unless each row of a (T, d) stack is a finite unit vector.

    The norm tolerance is NORM_ATOL.  A ket is a plain (d,) amplitude
    array; it is checked where it is propagated, as a row of a stack.
    """
    where, bad = _worst(~np.isfinite(amps).all(axis=1), "state")
    if bad:
        raise NumericalError(f"{where} has non-finite amplitudes")
    where, dev = _worst(np.abs(np.linalg.norm(amps, axis=1) - 1.0), "state")
    if dev > NORM_ATOL:
        raise NumericalError(f"{where} has a norm off 1 by {dev}, beyond {NORM_ATOL}")


def check_density_stack(mats: np.ndarray) -> None:
    """Raise NumericalError unless each matrix of a (T, d, d) stack is a density matrix.

    Each must be finite, Hermitian within HERMITICITY_ATOL, of unit trace
    within TRACE_ATOL, and have no eigenvalue below EIG_FLOOR (one batched
    ``eigvalsh``).  :class:`DensityMatrix` checks its entries as a stack of one.
    """
    where, bad = _worst(~np.isfinite(mats).all(axis=(1, 2)), "density matrix")
    if bad:
        raise NumericalError(f"{where} has non-finite entries")
    where, herm = _worst(np.abs(mats - mats.conj().swapaxes(1, 2)).max(axis=(1, 2)), "density matrix")
    if herm > HERMITICITY_ATOL:
        raise NumericalError(f"{where} non-Hermitian by {herm}")
    where, dev = _worst(np.abs(np.trace(mats, axis1=1, axis2=2).real - 1.0), "density matrix")
    if dev > TRACE_ATOL:
        raise NumericalError(f"{where} has a trace off 1 by {dev}")
    where, depth = _worst(-np.linalg.eigvalsh(mats)[:, 0], "density matrix")
    if -depth < EIG_FLOOR:
        raise NumericalError(f"{where} has eigenvalue {-depth} below {EIG_FLOOR}")


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
        check_density_stack(mat[None])
        object.__setattr__(self, "entries", mat)


def embed_qubit_operator(op2: np.ndarray, qubit_index: int, spec: HilbertSpec) -> np.ndarray:
    """Embed a single-qubit operator at ``qubit_index``, identity elsewhere.

    Parameters
    ----------
    op2 : (2, 2) complex array
    qubit_index : int in [0, N)
    spec : HilbertSpec

    Returns
    -------
    (d, d) read-only complex array
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
    return _readonly(full)


def cavity_annihilation(spec: HilbertSpec) -> np.ndarray:
    """Annihilation operator of the mode: a|n> = sqrt(n)|n-1>, identity on qubits."""
    a = np.diag(np.sqrt(np.arange(1, spec.cavity_dim, dtype=float)), k=1).astype(complex)
    return _readonly(np.kron(a, np.eye(2**spec.num_qubits, dtype=complex)))


def cavity_number(spec: HilbertSpec) -> np.ndarray:
    """Photon number operator a^dag a."""
    a = cavity_annihilation(spec)
    return _readonly(a.conj().T @ a)


@dataclass(frozen=True)
class OperatorTable:
    """Operators of the dynamics and readout, each a read-only (d, d) complex array.

    Per-qubit tuples are in qubit order; ``exchange[j]`` is
    a^dag sigma-_j + sigma+_j a.
    """

    sigma_z: tuple[np.ndarray, ...]
    sigma_minus: tuple[np.ndarray, ...]
    exchange: tuple[np.ndarray, ...]
    annihilation: np.ndarray
    number: np.ndarray
    excited: tuple[np.ndarray, ...]
    all_ground: np.ndarray


@functools.lru_cache(maxsize=None)
def operator_table(spec: HilbertSpec) -> OperatorTable:
    """The :class:`OperatorTable` of ``spec``, built once per spec and shared."""

    def embed(op2):
        return tuple(embed_qubit_operator(op2, j, spec) for j in range(spec.num_qubits))

    a = cavity_annihilation(spec)
    a_dag = a.conj().T
    sigma_minus = embed(SIGMA_MINUS)
    exchange = tuple(
        _readonly(a_dag @ sm + sp @ a) for sm, sp in zip(sigma_minus, embed(SIGMA_PLUS))
    )
    ground = np.arange(spec.dim) % 2**spec.num_qubits == 0  # every qubit bit is 0
    return OperatorTable(
        sigma_z=embed(SIGMA_Z),
        sigma_minus=sigma_minus,
        exchange=exchange,
        annihilation=a,
        number=cavity_number(spec),
        excited=embed(PROJ_EXCITED),
        all_ground=_readonly(np.diag(ground)),
    )


def partial_trace(entries: np.ndarray, spec: HilbertSpec) -> DensityMatrix:
    """The qubit state of a (d, d) matrix on ``spec``, with the cavity traced out.

    The result is the 2**N x 2**N state on the cavity-free spec of the same
    qubits, in the same basis order; :class:`DensityMatrix` checks it.
    """
    q = 2**spec.num_qubits
    reduced = entries.reshape(spec.cavity_dim, q, spec.cavity_dim, q).trace(axis1=0, axis2=2)
    return DensityMatrix(reduced, HilbertSpec(num_qubits=spec.num_qubits, photon_cutoff=0))


def expectation_stack(op: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """<psi_t|op|psi_t> for each row of a (T, d) stack, or Tr(op rho_t) for a (T, d, d) one.

    ``op`` is a Hermitian (d, d) operator: each imaginary part is checked to
    vanish within IMAG_ATOL, and the real parts are returned.
    """
    if stack.shape[-1] != op.shape[0]:
        raise ConfigError("operator and state live on different spaces")
    if stack.ndim == 2:
        vals = np.einsum("ti,ti->t", stack.conj(), stack @ op.T)
    else:
        vals = np.einsum("ij,tji->t", op, stack)
    where, imag = _worst(np.abs(vals.imag), "expectation")
    if imag > IMAG_ATOL:
        raise NumericalError(f"Hermitian {where} has imaginary part {imag}")
    return vals.real
