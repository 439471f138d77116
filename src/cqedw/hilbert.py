"""Basis convention, state checks and the one state type.

Basis convention used everywhere in this package: the basis index of a
product state of the composite qubits (x) cavity space is

    index = n_photon * 2**N + sum_j bit_j * 2**j

with qubit 0 ("A") at bit 0 and the cavity as the slowest factor, so for
N = 3 a ket prints as |C,B,A;n>.  Bit 0 of a qubit is |g>, bit 1 is |e>,
and sigma_z |g> = -|g> (the excited state carries sigma_z = +1, i.e. the
+1/2 w sigma_z energy convention).

No operator of the composite space is ever built: the dynamics runs on the
N + 2 single-excitation states of :mod:`cqedw.dynamics`, whose order is
that of their indices here (0, 2**j, 2**N), and hands back cavity-traced
2**N x 2**N qubit states.  A ket is a plain complex amplitude array;
:class:`DensityMatrix` is the one state type, and it is checked whenever it
is built.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError

HERMITICITY_ATOL = 1e-10
NORM_ATOL = 1e-9
TRACE_ATOL = 1e-9
EIG_FLOOR = -1e-8
# Largest total dimension d = 2**N (cutoff + 1) of a device.  No d x d array
# is built, but the bound caps N, and with it the 2**N x 2**N qubit state, and
# rejects an absurd cutoff when the device is read.  The paper's device has 24.
MAX_DIM = 1024

# Single-qubit operators in the (|g>, |e>) = (bit 0, bit 1) basis.
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)
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
