import itertools
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cqedw
from cqedw import entanglement, tomography
from cqedw.entanglement import (
    GHZ,
    W_PAPER,
    TangleEstimate,
    certification_report,
    fidelity,
    tangle_quartic,
    three_tangle_mixed,
    uhlmann_fidelity,
    witness_operator,
    witness_value,
)
from cqedw.errors import ConfigError
from cqedw.hilbert import DensityMatrix, HilbertSpec
from cqedw.protocols import apply_phase_correction, prepare_w_collective
from conftest import (
    QUBIT_SPEC_3,
    decomposition_average_tangle,
    preset_device,
    pure_density,
    random_density,
    random_pure,
    random_unitary,
    w_plus,
)
from conftest import tangle_quartic as reference_quartic
from conftest import uhlmann_fidelity as reference_uhlmann


def test_fidelity_examples():
    w = W_PAPER
    assert np.isclose(fidelity(pure_density(w), w), 1.0)
    mixed = DensityMatrix(np.eye(8) / 8, QUBIT_SPEC_3)
    assert np.isclose(fidelity(mixed, w), 1 / 8)


def test_uhlmann_fidelity_rank_deficient():
    rng = np.random.default_rng(8)
    rank2 = random_density(QUBIT_SPEC_3, rng, rank=2)
    assert abs(uhlmann_fidelity(rank2, rank2) - 1.0) < 1e-12
    # a pure argument reduces it to <psi|rho|psi>
    w = W_PAPER
    for rho in (rank2, random_density(QUBIT_SPEC_3, rng)):
        assert abs(uhlmann_fidelity(rho, pure_density(w)) - fidelity(rho, w)) < 1e-12
    for rank in (1, 2, 8):
        a = random_density(QUBIT_SPEC_3, rng, rank=rank)
        b = random_density(QUBIT_SPEC_3, rng, rank=3)
        f = uhlmann_fidelity(a, b)
        assert abs(f - uhlmann_fidelity(b, a)) < 1e-12
        # the reference keeps eigenvalue round-off, whose square roots shift
        # it by ~1e-8 on rank-deficient pairs
        assert abs(f - reference_uhlmann(a.entries, b.entries)) < 1e-7
    # round-off used to give F(rho, rho) up to 1 + 4.4e-15
    for rank in (1, 2, 3):
        for _ in range(50):
            rho = random_density(QUBIT_SPEC_3, rng, rank=rank)
            assert 1 - 1e-12 <= uhlmann_fidelity(rho, rho) <= 1


def test_fidelity_linearity():
    rng = np.random.default_rng(3)
    w = W_PAPER
    r1 = random_density(QUBIT_SPEC_3, rng)
    r2 = random_density(QUBIT_SPEC_3, rng)
    for lam in (0.0, 0.3, 0.71, 1.0):
        mix = DensityMatrix(lam * r1.entries + (1 - lam) * r2.entries, QUBIT_SPEC_3)
        expected = lam * fidelity(r1, w) + (1 - lam) * fidelity(r2, w)
        assert abs(fidelity(mix, w) - expected) < 1e-12


def test_witness_identity_and_values():
    # operator route against the algebraic identity 2/3 - F, machine precision
    rng = np.random.default_rng(1)
    w = W_PAPER
    for _ in range(10):
        rho = random_density(QUBIT_SPEC_3, rng)
        assert abs(witness_value(rho) - (2 / 3 - fidelity(rho, w))) < 1e-14

    assert np.isclose(witness_value(pure_density(w)), -1 / 3, atol=1e-12)
    mixed = DensityMatrix(np.eye(8) / 8, QUBIT_SPEC_3)
    assert np.isclose(witness_value(mixed), 2 / 3 - 1 / 8, atol=1e-12)
    assert np.abs(witness_operator() - witness_operator().conj().T).max() < 1e-14


def test_witness_at_quoted_fidelity():
    # a state with F = 0.78: witness = 2/3 - 0.78 = -0.1133, quoted rounded as -0.12
    w = W_PAPER
    ground = np.zeros(8)
    ground[0] = 1.0
    rho = DensityMatrix(
        0.78 * pure_density(w).entries + 0.22 * np.outer(ground, ground),
        QUBIT_SPEC_3,
    )
    val = witness_value(rho)
    assert abs(val - (2 / 3 - 0.78)) < 1e-12
    assert val < 0
    assert abs(val - (-0.12)) < 0.01


def test_tangle_pure_values():
    assert abs(tangle_quartic(GHZ) - 1.0) < 1e-6
    assert tangle_quartic(W_PAPER) < 1e-10
    assert tangle_quartic(w_plus()) < 1e-10
    product = np.zeros(8, dtype=complex)
    product[0b001] = 1.0  # |g>|g>|e>
    assert tangle_quartic(product) == 0.0


def test_tangle_local_unitary_invariance():
    rng = np.random.default_rng(12)
    for _ in range(6):
        psi = random_pure(QUBIT_SPEC_3, rng)
        base = tangle_quartic(psi)
        u = np.kron(random_unitary(2, rng), np.kron(random_unitary(2, rng), random_unitary(2, rng)))
        rotated = u @ psi
        assert abs(tangle_quartic(rotated) - base) < 1e-8


def test_tangle_permutation_invariance():
    rng = np.random.default_rng(23)
    for _ in range(4):
        psi = random_pure(QUBIT_SPEC_3, rng)
        base = tangle_quartic(psi)
        tensor = psi.reshape(2, 2, 2)
        for perm in itertools.permutations((0, 1, 2)):
            permuted = np.transpose(tensor, perm).reshape(8)
            assert abs(tangle_quartic(permuted) - base) < 1e-10


def test_tangle_mixed_pure_input_matches_pure():
    rng = np.random.default_rng(4)
    for _ in range(3):
        psi = random_pure(QUBIT_SPEC_3, rng)
        pure = tangle_quartic(psi)
        est = three_tangle_mixed(pure_density(psi))
        assert abs(est.value - pure) < 1e-8


def test_tangle_mixed_two_w_class_states():
    w1 = W_PAPER
    amps = np.zeros(8, dtype=complex)
    amps[[1, 2, 4]] = [0.5, -0.5, np.sqrt(0.5)]
    rho = 0.5 * np.outer(w1, w1.conj()) + 0.5 * np.outer(amps, amps.conj())
    est = three_tangle_mixed(DensityMatrix(rho, QUBIT_SPEC_3), seed=1)
    assert est.value <= 1e-6


def test_tangle_mixed_is_upper_bound():
    rng = np.random.default_rng(7)
    ghz = GHZ
    w = W_PAPER
    rank2 = 0.6 * np.outer(ghz, ghz.conj()) + 0.4 * np.outer(w, w.conj())
    # full rank: the largest isometries of the descent (16 x 8)
    full = random_density(QUBIT_SPEC_3, np.random.default_rng(17)).entries
    full_rank = 0.9 * np.outer(w, w.conj()) + 0.1 * full
    for rho, rank in ((rank2, 2), (full_rank, 8)):
        dm = DensityMatrix(rho, QUBIT_SPEC_3)
        est = three_tangle_mixed(dm, seed=2)
        lam, vec = np.linalg.eigh(dm.entries)
        keep = lam > 1e-10
        wtil = (np.sqrt(lam[keep])[None, :] * vec[:, keep]).T
        r = wtil.shape[0]
        assert r == rank
        for m in range(r, 2 * r + 1):
            for _ in range(25):
                g = rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))
                v = np.linalg.qr(g)[0]
                avg = decomposition_average_tangle(v @ wtil)
                assert est.value <= avg + 1e-8


def ghz_rank3() -> DensityMatrix:
    """0.8 GHZ + 0.2 (seeded rank-2 state): rank 3, with a roof far from 0, so
    the opening polish cannot certify it and the descent runs."""
    rest = random_density(QUBIT_SPEC_3, np.random.default_rng(9), rank=2).entries
    return DensityMatrix(0.8 * np.outer(GHZ, GHZ.conj()) + 0.2 * rest, QUBIT_SPEC_3)


def record_roof(monkeypatch, digits=None):
    """Record each evaluation the descent makes, as [v, wtil, squared, objective, average, gradient].

    The gradient stays None unless the descent asks for it, which it does
    only at the point it evaluated last.  The descent updates its stack in
    place, so v is copied.  With ``digits`` set, the descent sees averages
    rounded to that many decimals; the objective and its gradient stay exact.
    """
    calls = []
    objective, gradient = entanglement._roof_objective, entanglement._roof_gradient

    def values(v, wtil, squared):
        f, tau, terms = objective(v, wtil, squared)
        if digits is not None:
            tau = np.round(tau, digits)
        calls.append([v.copy(), wtil, squared.copy(), f, tau, None])
        return f, tau, terms

    def grad(v, wtil, squared, terms):
        assert calls[-1][5] is None and np.array_equal(calls[-1][0], v)
        calls[-1][5] = gradient(v, wtil, squared, terms)
        return calls[-1][5]

    monkeypatch.setattr(entanglement, "_roof_objective", values)
    monkeypatch.setattr(entanglement, "_roof_gradient", grad)
    return calls


def test_tangle_mixed_bookkeeping(monkeypatch):
    # a rank-2 state on the zero set of the roof is decided by the zeros of
    # Det on its range, well within the 64 x 400 iterations of the schedule:
    # no polish step and no descent trial
    ghz = GHZ
    w = W_PAPER
    rank2 = DensityMatrix(0.6 * np.outer(ghz, ghz.conj()) + 0.4 * np.outer(w, w.conj()), QUBIT_SPEC_3)
    converged = three_tangle_mixed(rank2, seed=2)
    assert converged.value < 1e-15
    assert converged.optimizer_iterations < 64 * 400 / 2
    assert converged.optimizer_iterations == 0 and converged.newton_steps == 0
    assert converged.rank2_roof == "zero" and not converged.from_polish

    # one count per live restart per trial, and the bound is the smallest
    # true average tangle of any evaluated decomposition
    rho = ghz_rank3()
    calls = record_roof(monkeypatch)
    est = three_tangle_mixed(rho, seed=5)
    assert est.optimizer_iterations > 0 and not est.from_polish  # the descent ran
    for v, wtil, _, _, average, _ in calls:
        assert np.allclose(average, decomposition_average_tangle(v @ wtil), rtol=1e-12, atol=1e-15)
    # the evaluation of every restart that opens each phase is not a trial
    restarts = entanglement.SCHEDULE[0][2]
    starts = [0] + [i for i, (v, _, sq, *_) in enumerate(calls) if len(v) == restarts and not sq.any()]
    assert len(starts) == len(entanglement.SCHEDULE)
    assert est.optimizer_iterations == sum(len(c[0]) for i, c in enumerate(calls) if i not in starts)
    assert est.value == min(min(c[4]) for c in calls)
    assert est.decomposition_size == 6
    assert three_tangle_mixed(rho, seed=5) == est


def test_tangle_mixed_retires_restarts(monkeypatch):
    # after the surrogate phase only the eighth of the restarts with the
    # lowest true average tangle descends; every restart still feeds the bound
    rho = ghz_rank3()
    (_, early, restarts, _), (_, late, kept, _) = entanglement.SCHEDULE
    calls = record_roof(monkeypatch)
    est = three_tangle_mixed(rho, seed=5)
    assert est.optimizer_iterations > 0 and not est.from_polish  # the descent ran
    # the switch is the one evaluation of every restart on the true objective
    switch = [i for i, (v, _, sq, *_) in enumerate(calls) if len(v) == restarts and not sq.any()]
    assert len(switch) == 1 and 1 < switch[0] < len(calls) - 1
    assert kept == restarts // 8
    assert all(len(c[0]) <= kept for c in calls[switch[0] + 1:])
    v, _, _, _, tau, g = calls[switch[0]]
    best = np.sort(np.argsort(tau, kind="stable")[:kept])
    assert tau[best].max() <= np.delete(tau, best).min()
    # the first trial of the kept restarts is the unit step from where they stood
    np.testing.assert_allclose(calls[switch[0] + 1][0], entanglement._retract(v[best] - g[best]),
                               rtol=0.0, atol=1e-12)
    assert est.optimizer_iterations <= restarts * early + kept * late
    assert est.value == min(min(c[4]) for c in calls)


@pytest.mark.parametrize("digits", [None, 2])
def test_tangle_mixed_halves_restarts_by_kind(monkeypatch, digits):
    # in the surrogate phase each kind keeps, at fixed checkpoints, its live
    # restarts of lowest accepted true average, ties to the lower index: the
    # true-objective restarts fall to 8, 2 and 1 after 15, 30 and 45 trials,
    # the surrogate ones to 16 and 8 after 50 and 100.  With digits set, the
    # descent sees averages rounded to that many decimals, so that many of
    # them tie.  A trial that no restart accepts evaluates no gradient
    rho = ghz_rank3()
    calls = record_roof(monkeypatch, digits)
    est = three_tangle_mixed(rho, seed=5)
    assert est.optimizer_iterations > 0 and not est.from_polish  # the descent ran
    _, early, restarts, _ = entanglement.SCHEDULE[0]
    cuts = {15: (False, 8), 30: (False, 2), 45: (False, 1), 50: (True, 16), 100: (True, 8)}
    # the switch evaluates all 64 restarts on the true average; the surrogate
    # phase ends before it, after 150 trials or once no restart is live
    switch = next(i for i, (v, _, sq, *_) in enumerate(calls) if len(v) == restarts and not sq.any())
    assert 1 < switch <= early + 1
    for trial, (_, _, sq, *_) in enumerate(calls[1:switch], start=1):
        for kind in (False, True):
            caps = [count for at, (k, count) in cuts.items() if k == kind and at < trial]
            assert np.count_nonzero(sq == kind) <= min(caps, default=restarts)

    # replay the step rule on the recorded evaluations, apply the halving rule
    # here, and predict each trial stack from the restarts this keeps; after
    # the switch, the restarts of lowest true average descend with no cut
    (_, late, kept, _) = entanglement.SCHEDULE[1]
    phases = ((0, switch, np.arange(restarts), cuts, early),
              (switch, len(calls), np.sort(np.argsort(calls[switch][4], kind="stable")[:kept]), {}, late))
    made = ties = 0  # checkpoints that drop a restart, and those where a tie straddles the cut
    rejected = 0  # trials that no restart accepts
    for start, stop, idx, at, iterations in phases:
        v, sq, f, avg, g = (calls[start][j][idx] for j in (0, 2, 3, 4, 5))
        gg, t = entanglement._sq_norm(g), np.ones(idx.size)
        for trial in range(1, stop - start):
            q, _, _, fq, tau, gq = calls[start + trial]
            np.testing.assert_array_equal(q, entanglement._retract(v - t[:, None, None] * g))
            ok = fq <= f - 1e-4 * t * gg
            assert (gq is not None) == ok.any()
            if gq is None:
                rejected += 1
                gq = g  # stands in for the gradient that was not evaluated: no restart takes it
            s, y = q - v, gq - g
            sy = np.abs(entanglement._inner(s, y))
            bb = np.divide(entanglement._sq_norm(s), sy, out=np.full(idx.size, np.inf), where=sy > 0)
            t = np.where(ok, np.minimum(bb, 10.0 * t), 0.5 * t)
            v[ok], g[ok], f[ok], avg[ok] = q[ok], gq[ok], fq[ok], tau[ok]
            gg[ok] = entanglement._sq_norm(gq[ok])
            live = t * gg > 1e-13
            if trial in at:
                kind, count = at[trial]
                mine = np.flatnonzero(live & (sq == kind))
                ranked = mine[np.lexsort((idx[mine], avg[mine]))]
                live[ranked[count:]] = False
                made += ranked.size > count
                ties += ranked.size > count and avg[ranked[count - 1]] == avg[ranked[count]]
            idx, v, g, f, avg, gg, t, sq = (x[live] for x in (idx, v, g, f, avg, gg, t, sq))
        assert stop - start == iterations + 1 or idx.size == 0
    # at 100 few surrogate restarts are still live
    assert made >= 3 and (digits is None or ties >= 1)
    assert rejected >= 1
    # every average evaluated feeds the bound
    assert est.value == min(min(c[4]) for c in calls)


def test_tangle_mixed_on_benchmark_certify_inputs():
    # the three states of the certify benchmark at workload seed 1, built
    # here, with their verdicts and bounds; the bounds may not rise
    w = pure_density(W_PAPER).entries
    ghz = pure_density(GHZ).entries
    rng = np.random.default_rng(1)
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    mixed = g @ g.conj().T
    fixed = np.random.default_rng(0)
    psi = fixed.standard_normal(8) + 1j * fixed.standard_normal(8)
    psi /= np.linalg.norm(psi)
    cases = (
        # the descent alone stopped at 7.354162e-8; the opening polish certifies a zero roof
        (0.9 * w + 0.1 * mixed / np.trace(mixed).real, "W_class", 1e-15),
        (0.9 * w + 0.1 * np.outer(psi, psi.conj()), "W_class", 4.484264e-4),
        (0.9 * ghz + 0.1 * w, "GHZ_class", 0.7302008),
    )
    for rho, verdict, bound in cases:
        report = certification_report(DensityMatrix(0.5 * (rho + rho.conj().T), QUBIT_SPEC_3))
        assert report["classification"] == verdict
        assert report["tangle_bound"] < bound

    noisy, _ = apply_phase_correction(prepare_w_collective(preset_device(), noise=True),
                                      W_PAPER)
    assert three_tangle_mixed(noisy, seed=3).value == 0.0


def test_tangle_mixed_exactly_zero_on_single_excitation_support():
    # every pure state in span{|000>, |001>, |010>, |100>} has zero tangle;
    # rho_kk = 0 on the other basis states puts them in rho's kernel, so each
    # decomposition vector vanishes there exactly and the bound is exactly 0
    support = np.ix_([0, 1, 2, 4], [0, 1, 2, 4])
    for seed in range(12):
        rho = np.zeros((8, 8), dtype=complex)
        # ranks 4 and 2: on a rank-2 range Det vanishes identically, so it has
        # no finite set of zeros, the rank-2 test decides nothing and the
        # polish finds the exact 0 at its first point
        rank = 4 if seed < 6 else 2
        rho[support] = random_density(HilbertSpec(2, 0), np.random.default_rng(seed), rank=rank).entries
        est = three_tangle_mixed(DensityMatrix(rho, QUBIT_SPEC_3))
        assert est.value == 0.0 and est.rank2_roof is None


def w_with_seeded_pure(seed: int) -> DensityMatrix:
    """0.9 W + 0.1 |psi><psi| for psi the normalized complex Gaussian vector of
    ``seed``, as the certify benchmark builds its rank-2 W input (seed 0)."""
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    psi /= np.linalg.norm(psi)
    rho = 0.9 * np.outer(W_PAPER, W_PAPER.conj()) + 0.1 * np.outer(psi, psi.conj())
    return DensityMatrix(0.5 * (rho + rho.conj().T), QUBIT_SPEC_3)


def test_rank2_roof_decided_by_its_zeros():
    # on a rank-2 state the roof is 0 exactly when rho sits in the convex hull
    # of the zeros of Det on its range; then those zeros are the decomposition
    # and nothing else runs, and otherwise the descent runs without a polish.
    # The descent and polish used to stop above 1e-5 on seeds 17 and 18
    decided = {}
    for seed in range(30):
        rho = w_with_seeded_pure(seed)
        est = three_tangle_mixed(rho)
        decided[seed] = est.rank2_roof
        assert est.newton_steps == 0 and not est.from_polish
        if est.rank2_roof == "positive":
            assert est.value > 1e-6 and est.optimizer_iterations > 0
            continue
        assert est.rank2_roof == "zero" and est.value <= 1e-15 and est.optimizer_iterations == 0
        lam, vec = np.linalg.eigh(rho.entries)
        wtil = (np.sqrt(lam[-2:])[None, :] * vec[:, -2:]).T
        low, v = entanglement._rank2_zeros(wtil)
        assert low >= 0 and v.shape == (4, 2) == (est.decomposition_size, 2)
        rows = v @ wtil
        assert np.linalg.norm(rows.T @ rows.conj() - rho.entries) <= 1e-12
        assert abs(decomposition_average_tangle(rows) - est.value) <= 1e-16
        _, det, _, inv_p = entanglement._decompositions(v[None], wtil)
        assert est.value == np.sum(4.0 * np.abs(det) * inv_p)
    assert decided[17] == decided[18] == "zero"
    assert set(decided.values()) == {"zero", "positive"}

    # on span{|000>, W}, turned by seeded local unitaries, Det vanishes
    # identically but its samples are round-off, and so would be the zeros:
    # the test decides nothing, and the opening polish certifies the zero roof
    ground = np.zeros(8, dtype=complex)
    ground[0] = 1.0
    for seed in range(8):
        rng = np.random.default_rng(seed)
        u = np.kron(random_unitary(2, rng), np.kron(random_unitary(2, rng), random_unitary(2, rng)))
        rho = u @ (0.5 * np.outer(W_PAPER, W_PAPER.conj()) + 0.5 * np.outer(ground, ground)) @ u.conj().T
        est = three_tangle_mixed(DensityMatrix(0.5 * (rho + rho.conj().T), QUBIT_SPEC_3))
        assert est.rank2_roof is None and est.value <= 1e-15 and est.optimizer_iterations == 0


def ghz_w_roof(p: float) -> float:
    """Exact convex-roof tangle of p GHZ + (1 - p) W (Lohmayer, Osterloh,
    Siewert, Uhlmann, PRL 97, 260502 (2006))."""
    p0 = 4 * 2 ** (1 / 3) / (3 + 4 * 2 ** (1 / 3))
    p1 = 0.5 + 3 * np.sqrt(465) / 310

    def curved(q):
        return q * q - 8 * np.sqrt(6) / 9 * np.sqrt(q * (1 - q) ** 3)

    if p <= p0:
        return 0.0
    if p <= p1:
        return curved(p)
    return curved(p1) + (p - p1) * (1 - curved(p1)) / (1 - p1)


def test_ghz_w_roof_closed_form():
    # the values quoted for the closed form, and its continuity at p0, p1 and 1
    for p, value in ((0.65, 0.059019), (0.7, 0.190667), (0.9, 0.730201)):
        assert abs(ghz_w_roof(p) - value) < 1e-6
    p0 = 4 * 2 ** (1 / 3) / (3 + 4 * 2 ** (1 / 3))
    assert abs(ghz_w_roof(p0 + 1e-12)) < 1e-9
    assert ghz_w_roof(1.0) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("p", [0.2, 0.3, 0.4, 0.5, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95])
def test_tangle_mixed_matches_ghz_w_roof(p):
    # GHZ and W_paper are locally equivalent to the pair of the closed form:
    # phases exp(-i pi/3) on qubits A and B and exp(2i pi/3) on C map them to
    # (|000> + |111>)/sqrt2 and a global phase times (|001> + |010> + |100>)/sqrt3
    ghz = GHZ
    w = W_PAPER
    rho = DensityMatrix(p * np.outer(ghz, ghz.conj()) + (1 - p) * np.outer(w, w.conj()), QUBIT_SPEC_3)
    est = three_tangle_mixed(rho, seed=0)
    value = est.value
    gap = value - ghz_w_roof(p)
    assert -1e-9 <= gap <= 1e-4
    # the zeros of Det on the range decide the rank-2 roof; the boundary is
    # p0 = 0.627, and for p < 0.5, where W spans the second eigenvector, one
    # zero sits at z = inf
    if ghz_w_roof(p) == 0.0:  # p <= 0.6
        assert value < 1e-15 and est.rank2_roof == "zero"
        assert est.optimizer_iterations == 0 and est.newton_steps == 0
    else:
        assert est.rank2_roof == "positive" and est.newton_steps == 0


def reconstruction(seed: int) -> DensityMatrix:
    """The noisy phase-corrected collective state, reconstructed from seeded
    records with sigma 0.02 and the default readout, as ``cqedw run`` does."""
    truth, _ = apply_phase_correction(prepare_w_collective(preset_device(), noise=True), W_PAPER)
    tset = tomography.tomography_set(tomography.build_readout(tomography.DEFAULT_READOUT_COEFFICIENTS))
    return tomography.reconstruct(tomography.simulate_measurements(truth, tset, 0.02, seed), tset).rho


def test_polish_certifies_a_seeded_reconstruction():
    # the descent alone stops at 5.5e-3 on this rank-4 state, which a polish
    # that stops as soon as max |Det| does not fall leaves at 4.7e-3
    rho = reconstruction(7)
    est = three_tangle_mixed(rho)
    assert est.value < entanglement.ZERO_TANGLE
    assert est.from_polish and est.optimizer_iterations == 0 and est.newton_steps > 0
    report = certification_report(rho)
    assert report["classification"] == "W_class" and report["tangle_bound"] == est.value
    assert report["optimizer_stats"]["bound_from_polish"] is True


def test_polished_rows_reproduce_rho():
    # each polished iterate is an isometry applied to the scaled eigenvectors,
    # so its rows are a decomposition of rho; its average never rises, and
    # the polish draws no random number
    rho = reconstruction(0).entries
    lam, vec = np.linalg.eigh(rho)
    keep = lam > entanglement.EIGENVALUE_CUTOFF * lam.max()
    wtil = (np.sqrt(lam[keep])[None, :] * vec[:, keep]).T
    r = wtil.shape[0]
    rng = np.random.default_rng(3)
    v = entanglement._retract(rng.standard_normal((3, 2 * r, r)) + 1j * rng.standard_normal((3, 2 * r, r)))
    # a zero row drops its state: c_i = 0 makes the Newton system singular
    v[2] = np.vstack([entanglement._retract(v[2, None, 1:])[0], np.zeros((1, r))])
    best_v, best, steps = entanglement._newton_polish(v, wtil)
    assert 0 < steps <= entanglement.NEWTON_STEPS
    assert best.min() <= entanglement.ZERO_TANGLE
    rows = best_v @ wtil
    for i in range(3):
        np.testing.assert_allclose(rows[i].T @ rows[i].conj(), rho, rtol=0.0, atol=1e-12)
        assert best[i] <= decomposition_average_tangle(v[i] @ wtil) * (1 + 1e-12)
    np.testing.assert_allclose(best, decomposition_average_tangle(rows), rtol=1e-9, atol=1e-17)
    assert np.all(best_v[2, -1] == 0.0)
    again = entanglement._newton_polish(v, wtil)
    assert np.array_equal(again[0], best_v) and np.array_equal(again[1], best) and again[2] == steps


# The descent's trial points and bound on the certify benchmark's two inputs
# whose roof is not 0, per OpenBLAS kernel, as the descent gave them before
# the polish existed.  The rank-2 zero test finds both roofs positive, so
# neither polish runs, and skipping the gradient of an iteration that accepts
# no trial changes no arithmetic: the descent keeps every bit.
DESCENT_PINS = {
    "SkylakeX": ((3132, 0.00044842638966539607), (3089, 0.7302007852693951)),
    "Haswell": ((3114, 0.00044842639080694587), (3114, 0.7302007852671285)),
    "Prescott": ((3091, 0.00044842638421760465), (3114, 0.7302007852644115)),
}
# the instruction sets each kernel needs, as /proc/cpuinfo names them (pni is SSE3)
KERNEL_FLAGS = {"SkylakeX": {"avx512f", "avx512cd", "avx512bw", "avx512dq", "avx512vl"},
                "Haswell": {"avx2"}, "Prescott": {"pni"}}


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64") or not os.path.exists("/proc/cpuinfo"),
                    reason="OPENBLAS_CORETYPE names x86-64 kernels")
def test_descent_unchanged_where_the_roof_is_not_zero():
    flags = set(Path("/proc/cpuinfo").read_text().split())
    code = ("import json, sys, numpy as np; from cqedw.entanglement import GHZ, W_PAPER, three_tangle_mixed; "
            "from cqedw.hilbert import DensityMatrix, qubit_spec; "
            "w = np.outer(W_PAPER, W_PAPER.conj()); fixed = np.random.default_rng(0); "
            "psi = fixed.standard_normal(8) + 1j * fixed.standard_normal(8); psi /= np.linalg.norm(psi); "
            "rhos = (0.9 * w + 0.1 * np.outer(psi, psi.conj()), 0.9 * np.outer(GHZ, GHZ.conj()) + 0.1 * w); "
            "ests = [three_tangle_mixed(DensityMatrix(0.5 * (r + r.conj().T), qubit_spec(8))) for r in rhos]; "
            "print(json.dumps([[e.optimizer_iterations, e.value] for e in ests]))")
    src = str(Path(cqedw.__file__).resolve().parent.parent)
    ran = 0
    for core, pins in DESCENT_PINS.items():
        if not KERNEL_FLAGS[core] <= flags:
            continue
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": src, "OPENBLAS_CORETYPE": core})
        assert [tuple(pair) for pair in json.loads(out.stdout)] == list(pins), core
        ran += 1
    assert ran  # Prescott needs only SSE3


def test_roof_gradients_match_central_differences():
    rng = np.random.default_rng(41)
    # dDet/da of the hyperdeterminant, a holomorphic quartic
    a = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    ddet = entanglement._hyperdet(a)[1]
    h = 1e-6
    for k in range(8):
        e = np.zeros(8)
        e[k] = h
        numeric = (entanglement._hyperdet(a + e)[0] - entanglement._hyperdet(a - e)[0]) / (2 * h)
        assert abs(numeric - ddet[k]) <= 1e-6 * abs(ddet[k])

    # retracting an isometry, of either sign, returns it: the column phases
    # make diag(R) > 0, so no column of the decomposition flips
    r = 3
    v = entanglement._retract(rng.standard_normal((4, 6, r)) + 1j * rng.standard_normal((4, 6, r)))
    assert np.allclose(entanglement._retract(v), v, atol=1e-12)
    assert np.allclose(entanglement._retract(-v), -v, atol=1e-12)

    # the Riemannian gradient of both objectives along tangent directions
    wtil = rng.standard_normal((r, 8)) + 1j * rng.standard_normal((r, 8))
    wtil /= np.linalg.norm(wtil)
    squared = np.array([True, False, True, False])
    grad = entanglement._roof_gradient(v, wtil, squared, entanglement._roof_objective(v, wtil, squared)[2])
    for _ in range(3):
        z = rng.standard_normal(v.shape) + 1j * rng.standard_normal(v.shape)
        vz = np.swapaxes(v.conj(), -1, -2) @ z
        z -= v @ (0.5 * (vz + np.swapaxes(vz.conj(), -1, -2)))
        plus = entanglement._roof_objective(v + h * z, wtil, squared)[0]
        minus = entanglement._roof_objective(v - h * z, wtil, squared)[0]
        numeric = (plus - minus) / (2 * h)
        analytic = np.sum(grad.real * z.real + grad.imag * z.imag, axis=(-2, -1))
        assert np.all(np.abs(numeric - analytic) <= 1e-6 * np.abs(analytic))


def test_roof_objective_paths_agree():
    # the rows of all restarts share one flat kernel: a stack that mixes
    # surrogate and true restarts gives each restart what it gets alone, and
    # the path without surrogate arithmetic gives the mixed stack's true rows
    rng = np.random.default_rng(43)
    r = 3
    v = entanglement._retract(rng.standard_normal((6, 2 * r, r)) + 1j * rng.standard_normal((6, 2 * r, r)))
    wtil = rng.standard_normal((r, 8)) + 1j * rng.standard_normal((r, 8))
    wtil /= np.linalg.norm(wtil)

    def evaluate(v, squared):
        f, tau, terms = entanglement._roof_objective(v, wtil, squared)
        return f, tau, entanglement._roof_gradient(v, wtil, squared, terms)

    squared = np.array([True, False, False, True, True, False])
    mixed = evaluate(v, squared)
    for i in range(v.shape[0]):
        alone = evaluate(v[i:i + 1], squared[i:i + 1])
        for got, want in zip(alone, mixed):
            np.testing.assert_allclose(got[0], want[i], rtol=1e-12, atol=0.0)
    true = evaluate(v, np.zeros(v.shape[0], dtype=bool))
    for got, want in zip(true, mixed):
        np.testing.assert_allclose(got[~squared], want[~squared], rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(true[1], mixed[1], rtol=1e-12, atol=0.0)


def test_tangle_mixed_on_noisy_collective_state():
    cfg = preset_device()
    target = W_PAPER
    rho, _ = apply_phase_correction(prepare_w_collective(cfg, noise=True), target)
    est = three_tangle_mixed(rho, seed=3)
    assert est.value < 0.1
    assert certification_report(rho, seed=3)["classification"] == "W_class"


def test_classification():
    def verdict(rho):
        return certification_report(rho, seed=0)["classification"]

    assert verdict(pure_density(W_PAPER)) == "W_class"
    assert verdict(pure_density(GHZ)) == "GHZ_class"
    assert verdict(DensityMatrix(np.eye(8) / 8, QUBIT_SPEC_3)) == "inconclusive"


def test_certification_report_shape():
    report = certification_report(pure_density(W_PAPER), seed=0)
    assert set(report) == {"fidelity", "witness", "tangle_bound", "classification", "optimizer_stats"}
    assert report["classification"] == "W_class"
    # the descent's fixed settings are recorded, so certification.json keeps its keys
    assert report["optimizer_stats"] == {"kind": "mixed_upper_bound", "decomposition_size": 1,
                                         "iterations": 0, "newton_steps": 0, "bound_from_polish": False,
                                         "rank2_roof": None, "restarts": 64, "budget": 400, "seed": 0}
    assert np.isclose(report["fidelity"], 1.0)
    assert np.isclose(report["witness"], -1 / 3)


def test_tangle_estimate_validation():
    with pytest.raises(ConfigError):
        TangleEstimate(1.5, 1, 0)


def test_dimension_checks():
    big = HilbertSpec(num_qubits=3, photon_cutoff=1)
    rng = np.random.default_rng(0)
    rho16 = random_density(big, rng)
    with pytest.raises(ConfigError):
        witness_value(rho16)
    # a cavity-free 4-qubit state against a target of the wrong length
    rho4 = random_density(HilbertSpec(num_qubits=4, photon_cutoff=0), rng)
    for target in (W_PAPER, np.ones(32) / np.sqrt(32)):
        with pytest.raises(ConfigError, match="target shape"):
            fidelity(rho4, target)
        with pytest.raises(ConfigError, match="target shape"):
            apply_phase_correction(rho4, target)


def test_targets_are_readonly_unit_vectors():
    for target in (W_PAPER, GHZ):
        assert target.shape == (8,)
        assert abs(np.linalg.norm(target) - 1.0) < 1e-15
        with pytest.raises(ValueError):
            target[0] = 1.0


def test_quartic_homogeneity():
    rng = np.random.default_rng(31)
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    assert np.isclose(tangle_quartic(2.0 * v), 16.0 * tangle_quartic(v), rtol=1e-12)
    # a (k, 8) stack is evaluated row by row on its last axis
    stack = rng.standard_normal((5, 8)) + 1j * rng.standard_normal((5, 8))
    values = tangle_quartic(stack)
    assert values.shape == (5,)
    assert np.array_equal(values, [tangle_quartic(row) for row in stack])
    reference = [reference_quartic(row) for row in stack]
    assert np.allclose(values, reference, rtol=1e-12, atol=0.0)
    # the average tangle: zero rows add exact zeros (only numpy's summation
    # order can move the last bit), and a (k, m, 8) stack of ensembles is
    # evaluated ensemble by ensemble
    padded = np.vstack([stack, np.zeros((3, 8))])
    average = decomposition_average_tangle(stack)
    assert abs(decomposition_average_tangle(padded) - average) <= 1e-15 * average
    ensembles = rng.standard_normal((4, 6, 8)) + 1j * rng.standard_normal((4, 6, 8))
    averages = decomposition_average_tangle(ensembles)
    assert averages.shape == (4,)
    expected = [decomposition_average_tangle(e) for e in ensembles]
    assert np.allclose(averages, expected, rtol=1e-12, atol=0.0)
