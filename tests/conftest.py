import numpy as np
import pytest

from cqedw.device import paper_system
from cqedw.hilbert import DensityMatrix, HilbertSpec, QuantumState

QUBIT_SPEC_3 = HilbertSpec(num_qubits=3, photon_cutoff=0)


@pytest.fixture(scope="session")
def paper_config():
    return paper_system(photon_cutoff=2)


@pytest.fixture(scope="session")
def paper_config_n1():
    return paper_system(photon_cutoff=1)


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
