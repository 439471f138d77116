import numpy as np
import pytest

from cqedw.device import paper_system
from cqedw.hilbert import (  # noqa: F401
    QUBIT_SPEC_3,
    DensityMatrix,
    HilbertSpec,
    QuantumState,
    expectation_stack,
)


@pytest.fixture(scope="session")
def paper_config():
    return paper_system(photon_cutoff=2)


@pytest.fixture(scope="session")
def paper_config_n1():
    return paper_system(photon_cutoff=1)


def w_plus() -> QuantumState:
    """(|g,g,e> + |g,e,g> + |e,g,g>)/sqrt(3), the W state of equal signs."""
    amps = np.array([0, 1, 1, 0, 1, 0, 0, 0], dtype=complex)
    return QuantumState(amps / np.sqrt(3), QUBIT_SPEC_3)


def expectation(op: np.ndarray, state) -> float:
    """<op> of one QuantumState or DensityMatrix: a stack of one for ``expectation_stack``."""
    data = state.amplitudes if isinstance(state, QuantumState) else state.entries
    return float(expectation_stack(op, data[None])[0])


def random_pure(spec: HilbertSpec, rng) -> QuantumState:
    v = rng.standard_normal(spec.dim) + 1j * rng.standard_normal(spec.dim)
    return QuantumState(v / np.linalg.norm(v), spec)


def random_density(spec: HilbertSpec, rng, rank=None) -> DensityMatrix:
    rank = spec.dim if rank is None else rank
    g = rng.standard_normal((spec.dim, rank)) + 1j * rng.standard_normal((spec.dim, rank))
    rho = g @ g.conj().T
    return DensityMatrix(rho / np.trace(rho).real, spec)


def random_unitary(dim: int, rng) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def uhlmann_fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Reference (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2 from eigendecompositions."""
    w, v = np.linalg.eigh(rho)
    s = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    inner = np.linalg.eigvalsh(s @ sigma @ s)
    return float(np.sqrt(np.clip(inner, 0.0, None)).sum() ** 2)


def tangle_quartic(a: np.ndarray) -> float:
    """Reference 4 |d1 - 2 d2 + 4 d3| of one length-8 vector, Cayley's terms written out."""
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
