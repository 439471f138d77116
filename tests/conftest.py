import numpy as np
import scipy.linalg

from cqedw import entanglement
from cqedw.cli import PRESETS, device_from_json
from cqedw.device import SystemConfig
from cqedw.errors import ConfigError
from cqedw.hilbert import DensityMatrix, HilbertSpec

PROJ_GROUND = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
PROJ_EXCITED = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
# The cavity-traced three-qubit space of W_PAPER, GHZ and the reconstructed states.
QUBIT_SPEC_3 = HilbertSpec(num_qubits=3, photon_cutoff=0)


def preset_device(name: str = "paper-default", **fields) -> SystemConfig:
    """A preset's device object with top-level ``fields`` replaced, read by the one device reader."""
    return device_from_json({**PRESETS[name], **fields})


def equal_coupling_device(num_qubits: int, g_over_pi_mhz: float = 100.0) -> SystemConfig:
    """``num_qubits`` copies of the paper's qubit A, labelled A, B, ..., with one positive coupling."""
    qubit = PRESETS["paper-default"]["qubits"][0]
    qubits = [
        {**qubit, "g_over_pi_mhz": g_over_pi_mhz, "label": chr(ord("A") + j)}
        for j in range(num_qubits)
    ]
    return preset_device(qubits=qubits, crosstalk=None)


def basis_index(spec: HilbertSpec, excited=(), n_photon: int = 0) -> int:
    """Basis index n_photon * 2**N + sum_j 2**j of the product state with ``excited`` qubits."""
    return n_photon * 2**spec.num_qubits + sum(1 << j for j in set(excited))


def basis_ket(spec: HilbertSpec, excited=(), n_photon: int = 0) -> np.ndarray:
    """Amplitudes of the product state with ``excited`` qubits and ``n_photon`` photons."""
    amps = np.zeros(spec.dim, dtype=complex)
    amps[basis_index(spec, excited, n_photon)] = 1.0
    return amps


# -- full-space references: the composite qubits (x) cavity space, d = 2**N (cutoff + 1)


def embed_qubit_operator(op2: np.ndarray, qubit_index: int, spec: HilbertSpec) -> np.ndarray:
    """Id (x) ... (x) op2 (x) ... (x) Id (x) Id_cavity, qubit 0 fastest and the cavity slowest."""
    full = np.eye(spec.cavity_dim, dtype=complex)
    for j in reversed(range(spec.num_qubits)):
        full = np.kron(full, op2 if j == qubit_index else np.eye(2, dtype=complex))
    return full


def cavity_annihilation(spec: HilbertSpec) -> np.ndarray:
    """a|n> = sqrt(n)|n-1> on the mode, identity on the qubits."""
    a = np.diag(np.sqrt(np.arange(1, spec.cavity_dim, dtype=float)), k=1).astype(complex)
    return np.kron(a, np.eye(2**spec.num_qubits, dtype=complex))


def cavity_number(spec: HilbertSpec) -> np.ndarray:
    """a^dag a."""
    a = cavity_annihilation(spec)
    return a.conj().T @ a


def partial_trace(entries: np.ndarray, spec: HilbertSpec) -> np.ndarray:
    """The 2**N x 2**N qubit block of a full-space matrix, summed over the photon number."""
    q = 2**spec.num_qubits
    return entries.reshape(spec.cavity_dim, q, spec.cavity_dim, q).trace(axis1=0, axis2=2)


def sector_indices(spec: HilbertSpec) -> np.ndarray:
    """Full-space indices (0, 2**j, 2**N) of the single-excitation sector, in sector order."""
    return np.array([0, *(1 << j for j in range(spec.num_qubits)), 1 << spec.num_qubits])


def restrict(full: np.ndarray, spec: HilbertSpec) -> np.ndarray:
    """A full-space operator's (..., d, d) entries on the sector, rows and columns."""
    idx = sector_indices(spec)
    return full[..., idx[:, None], idx]


def zero_padded(rho: np.ndarray, spec: HilbertSpec) -> np.ndarray:
    """A sector matrix placed at its full-space indices, zeros elsewhere."""
    full = np.zeros((spec.dim, spec.dim), dtype=complex)
    idx = sector_indices(spec)
    full[idx[:, None], idx] = rho
    return full


def sector_ket(spec: HilbertSpec, excited=(), n_photon: int = 0) -> np.ndarray:
    """Sector amplitudes of a product state with at most one excitation."""
    return basis_ket(spec, excited, n_photon)[sector_indices(spec)]


def expectation(op: np.ndarray, state) -> float:
    """Re <op> of one ket, (n, n) array or DensityMatrix, for a Hermitian ``op``."""
    data = state.entries if isinstance(state, DensityMatrix) else np.asarray(state)
    if data.ndim == 1:
        return float(np.vdot(data, op @ data).real)
    return float(np.trace(op @ data).real)


def single_excitation_oracle(couplings, detunings, t: float) -> np.ndarray:
    """Analytic reference for the one-photon sector, independent of the solver.

    Starting from |g...g,1>, the dynamics is confined to the (N+1)-dim block
    spanned by {|e_j,0>} and |g...g,1>.  The block Hamiltonian (including the
    absolute energies of the rotating frame, so phases match the full-space
    propagation) is exponentiated directly with scipy's expm.

    Returns the complex amplitude vector ordered (qubit 0 .. qubit N-1, cavity).
    On resonance the closed form is cos(G t) on the cavity and
    -i (g_j / G) sin(G t) on qubit j, with G = sqrt(sum g_j^2).
    """
    g = np.asarray(couplings, dtype=float)
    delta = np.asarray(detunings, dtype=float)
    n = g.size
    shift = 0.5 * delta.sum()
    block = np.zeros((n + 1, n + 1), dtype=complex)
    for j in range(n):
        block[j, j] = delta[j] - shift
        block[j, n] = g[j]
        block[n, j] = g[j]
    block[n, n] = -shift
    psi0 = np.zeros(n + 1, dtype=complex)
    psi0[n] = 1.0
    return scipy.linalg.expm(-1j * block * t) @ psi0


def projector(psi: np.ndarray) -> np.ndarray:
    """|psi><psi| of an amplitude array, as a plain (d, d) array."""
    return np.outer(psi, psi.conj())


def pure_density(psi: np.ndarray, spec: HilbertSpec = QUBIT_SPEC_3) -> DensityMatrix:
    """|psi><psi| of an amplitude array, checked as a DensityMatrix."""
    return DensityMatrix(projector(psi), spec)


def ket_from_label(spec: HilbertSpec, qubits: str, n_photon: int = 0) -> np.ndarray:
    """Basis state from a paper-style qubit string, leftmost letter = qubit N-1.

    For N = 3 the string reads |C,B,A>: ``ket_from_label(spec, "gge")`` is the
    state with qubit A excited.
    """
    if len(qubits) != spec.num_qubits or set(qubits) - {"g", "e"}:
        raise ConfigError(f"label {qubits!r} does not describe {spec.num_qubits} qubits")
    excited = [spec.num_qubits - 1 - pos for pos, c in enumerate(qubits) if c == "e"]
    return basis_ket(spec, excited, n_photon)


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2)."""
    return float(np.einsum("ij,ji->", rho.entries, rho.entries).real)


def fit_model(report, times) -> np.ndarray:
    """The fitted damped cosine a + b exp(-gamma t) cos(2 pi f t + phi) of a FitReport at ``times``."""
    t = np.asarray(times, dtype=float)
    return report.offset + report.amplitude * np.exp(-report.decay_rate * t) * np.cos(
        2 * np.pi * report.frequency * t + report.phase
    )


def w_plus() -> np.ndarray:
    """(|g,g,e> + |g,e,g> + |e,g,g>)/sqrt(3), the W state of equal signs."""
    return np.array([0, 1, 1, 0, 1, 0, 0, 0], dtype=complex) / np.sqrt(3)


def random_pure(spec: HilbertSpec, rng) -> np.ndarray:
    v = rng.standard_normal(spec.dim) + 1j * rng.standard_normal(spec.dim)
    return v / np.linalg.norm(v)


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


def decomposition_average_tangle(states: np.ndarray):
    """Average tangle sum_k p_k tau(psi_k) of explicit sub-normalized ensembles.

    ``states`` has shape (..., m, 8); row k of an ensemble is sqrt(p_k) psi_k.
    Because the quartic is homogeneous of degree 4, each term is tau(row)/p;
    rows of weight p <= 1e-14, such as zero padding, contribute nothing.  One
    (m, 8) ensemble gives a float, a stack an array of its leading shape.
    """
    rows = np.asarray(states, dtype=complex)
    weights = np.sum(rows.real**2 + rows.imag**2, axis=-1)
    inverse = np.divide(1.0, weights, out=np.zeros_like(weights), where=weights > 1e-14)
    total = np.sum(entanglement.tangle_quartic(rows) * inverse, axis=-1)
    return float(total) if total.ndim == 0 else total


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
