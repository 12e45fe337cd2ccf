"""The torus oracle against the loop builder and the dense reduction it replaced.

``build_full_hamiltonian`` stores the torus as its summed entries; the
reference below is the former double loop, kept verbatim.  Both add the same
amplitudes in the same (n, k, bond, then conjugate) order, so the dense view
must agree with it to the bit, including the multi-edges of small L that are
sums.  ``FiniteHamiltonian.circumferential_blocks`` reads the N
circumferential blocks and the norm off them from the entries; the former
reduction, a unitary DFT over k applied to the dense matrix by two matmuls, is
the reference for both, and the levels are also compared with a dense
``eigvalsh``, to a tolerance relative to the entries.  A matrix that breaks the
rotation invariance or the Hermiticity must be refused.  The fiber side solves
every channel in one stack; the former per-channel solve is the reference for
its bits.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nanotube_bands import cli, oracle
from nanotube_bands.armchair import decompose_armchair
from nanotube_bands.core import ArmchairModel, PotentialProfile, ZigzagModel
from nanotube_bands.errors import InternalConsistencyError
from nanotube_bands.oracle import (
    FiniteHamiltonian,
    build_full_hamiltonian,
    channel_fiber_eigenvalues,
    compare_decomposition,
)
from nanotube_bands.spectral import block_period_matrix, fiber_matrices, scalar_period_matrix
from nanotube_bands.zigzag import channel_bonds

# ---------------------------------------------------------------------------
# references: the loop builder, the dense DFT reduction and the per-channel fiber solve


def loop_hamiltonian(model, L: int) -> np.ndarray:
    N = model.N
    dim = 2 * N * L
    H = np.zeros((dim, dim), dtype=complex)

    def idx(n, j, k):
        return (n % L) * 2 * N + j * N + (k % N)

    values = model.potential
    for n in range(L):
        for j in (0, 1):
            for k in range(N):
                H[idx(n, j, k), idx(n, j, k)] += model.t * values.values[(2 * n + j) % values.q]

    if isinstance(model, ZigzagModel):
        e_plus = cmath.exp(1j * model.b)
        e_minus = cmath.exp(-1j * model.b)
        neighbours = lambda n, k: (
            (e_minus, n - 1, k),      # phase b2 = -b
            (e_plus, n - 1, k - 1),   # phase b1 = +b
            (1.0, n, k),              # phase b3 = 0
        )
    else:
        b1, b2, b3 = model.phases
        neighbours = lambda n, k: (
            (cmath.exp(1j * b2), n + 1, k),
            (cmath.exp(1j * b1), n - 1, k - 1),
            (cmath.exp(1j * b3), n, k),
        )

    for n in range(L):
        for k in range(N):
            row = idx(n, 0, k)
            for amp, nn, kk in neighbours(n, k):
                col = idx(nn, 1, kk)
                H[row, col] += amp
                H[col, row] += np.conj(amp)
    return H


def dense_reduction(H: np.ndarray, N: int) -> tuple[np.ndarray, float]:
    """The N circumferential blocks of a dense torus matrix and the Frobenius norm off them."""
    m = H.shape[0] // N
    k = np.arange(N)
    F = np.exp(-2j * np.pi / N * (np.outer(k, k) % N)) / np.sqrt(N)  # unitary DFT
    Ht = (F @ (H.reshape(-1, N) @ F.conj().T).reshape(m, N, m * N)).reshape(m, N, m, N)
    blocks = Ht[:, k, :, k]  # (N, m, m), a copy
    Ht[:, k, :, k] = 0.0
    return blocks, float(np.linalg.norm(Ht))


def per_channel_fiber_levels(model, L: int) -> np.ndarray:
    M = L // model.potential.p
    taus = [cmath.exp(2j * cmath.pi * m / M) for m in range(M)]
    if isinstance(model, ZigzagModel):
        diag = model.t * model.potential.period_values()
        fibers = [scalar_period_matrix(bonds, diag) for bonds in channel_bonds([model])[0][0]]
    else:
        fibers = zip(*block_period_matrix(decompose_armchair(model)))
    eigs = [np.linalg.eigvalsh(fiber_matrices(period, wrap, taus)) for period, wrap in fibers]
    return np.sort(np.concatenate(eigs, axis=None))


# ---------------------------------------------------------------------------
# seeded models of both lattices


def seeded_models(seed: int, count: int):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        q = int(rng.integers(1, 9))
        prof = PotentialProfile(rng.uniform(-1.0, 1.0, q))
        N = int(rng.integers(2, 9))
        L = prof.p * int(rng.integers(1, 4))
        t = float(rng.choice([-1.0, 1.0]) * np.exp(rng.uniform(math.log(0.05), math.log(40.0))))
        if rng.random() < 0.5:
            yield ZigzagModel(N, float(rng.uniform(-math.pi, math.pi)), prof, t=t), L
        else:
            yield ArmchairModel(N, tuple(rng.uniform(-3.0, 3.0, 3)), prof, t=t), L


# p = 1 at L = 1 and L = p: the bonds (n - 1, k) and (n, k) of a zigzag site, and
# (n + 1, k), (n, k) of an armchair one, land on one entry and add up; t = 0 on
# a negative value gives a -0.0 on-site product, which the loop added onto 0.0
EDGE_CASES = [
    (ZigzagModel(2, 0.0, PotentialProfile([0.37]), t=1.0), 1),
    (ZigzagModel(3, 0.4, PotentialProfile([0.5, -0.5]), t=2.0), 1),
    (ZigzagModel(4, -1.1, PotentialProfile([0.9, -0.2, -0.65]), t=0.3), 3),
    (ZigzagModel(5, math.pi / 2 - math.pi * 2 / 5, PotentialProfile([0.4, -0.3, 0.7]), t=-2.0), 3),
    (ArmchairModel(2, (0.0, 0.0, 0.0), PotentialProfile([0.37]), t=1.0), 1),
    (ArmchairModel(3, (0.3, -0.7, 1.2), PotentialProfile([0.8, -0.45]), t=1.5), 1),
    (ArmchairModel(4, (0.0, 0.0, 0.0), PotentialProfile([0.0, -0.6]), t=0.0), 2),
    (ArmchairModel(5, (2.5, 2.5, -1.9), PotentialProfile([0.31, -0.74, 0.58, -0.12, 0.93]), t=30.0), 5),
]
MODELS = EDGE_CASES + list(seeded_models(5, 40))


@pytest.mark.parametrize("model, L", MODELS)
def test_matrix_matches_loop_builder_bit_for_bit(model, L):
    assert build_full_hamiltonian(model, L).matrix.tobytes() == loop_hamiltonian(model, L).tobytes()


@pytest.mark.parametrize("model, L", MODELS)
def test_fiber_levels_match_per_channel_solves_bit_for_bit(model, L):
    assert channel_fiber_eigenvalues(model, L).tobytes() == per_channel_fiber_levels(model, L).tobytes()


def assert_matches_dense_reduction(H: FiniteHamiltonian) -> None:
    """Blocks, off-block norm and levels of the entries against the dense reduction and solve."""
    blocks, off = H.circumferential_blocks()
    dense_blocks, dense_off = dense_reduction(H.matrix, H.N)
    tol = 1e-12 * max(1.0, float(np.max(np.abs(H.values))))
    assert np.max(np.abs(blocks - dense_blocks)) <= tol
    assert abs(off - dense_off) <= tol
    levels = H.eigenvalues()
    assert np.max(np.abs(levels - np.sort(np.linalg.eigvalsh(dense_blocks), axis=None))) <= tol
    assert np.max(np.abs(levels - np.linalg.eigvalsh(H.matrix))) <= tol


@pytest.mark.parametrize("model, L", MODELS)
def test_block_levels_match_dense_solve(model, L):
    assert_matches_dense_reduction(build_full_hamiltonian(model, L))


# ---------------------------------------------------------------------------
# the rotation guard refuses a matrix it cannot block-diagonalise, the
# Hermiticity guard one that is not Hermitian


def perturb(H: FiniteHamiltonian, delta: float, *positions: tuple[int, int]) -> FiniteHamiltonian:
    """H with delta added to the written entries at ``positions``."""
    values = H.values.copy()
    for row, col in positions:
        (at,) = np.flatnonzero((H.rows == row) & (H.cols == col))
        values[at] += delta
    return FiniteHamiltonian(H.rows, H.cols, values, N=H.N, L=H.L, lattice=H.lattice)


def perturb_one_bond(H: FiniteHamiltonian, delta: float) -> FiniteHamiltonian:
    """Add delta to the (n, j, k) = (0, 0, 0) - (0, 1, 0) bond only, keeping H Hermitian."""
    return perturb(H, delta, (0, H.N), (H.N, 0))


@pytest.mark.parametrize("model, L", EDGE_CASES)
def test_rotation_breaking_bond_is_refused(model, L):
    broken = perturb_one_bond(build_full_hamiltonian(model, L), 1e-6)
    _, off = broken.circumferential_blocks()
    # each perturbed entry lies delta (N - 1) / N from its class mean, the other N - 1 of its class delta / N
    N = broken.N
    assert off == pytest.approx(1e-6 * math.sqrt(2 * (N - 1) / N), rel=1e-6)
    assert abs(off - dense_reduction(broken.matrix, N)[1]) <= 1e-12 * max(1.0, float(np.max(np.abs(broken.values))))
    with pytest.raises(InternalConsistencyError, match="rotation invariant"):
        broken.eigenvalues()


@pytest.mark.parametrize("model, L", [case for case in EDGE_CASES if case[0].N >= 3])
def test_rotation_breaking_entry_off_the_bonds_is_refused(model, L):
    # a hopping between sites k = 0 and 1 of cell 0 writes one of the N positions of
    # each of its two classes; the N - 1 unwritten ones count |c|^2 = (delta / N)^2 each
    H = build_full_hamiltonian(model, L)
    dim, N, delta = H.dimension, H.N, 1e-6
    index = np.concatenate([H.rows * dim + H.cols, [1, dim]])
    order = np.argsort(index)
    values = np.concatenate([H.values, [delta, delta]])[order]
    broken = FiniteHamiltonian(*np.divmod(index[order], dim), values, N=N, L=H.L, lattice=H.lattice)
    _, off = broken.circumferential_blocks()
    assert off == pytest.approx(delta * math.sqrt(2 * (N - 1) / N), rel=1e-6)
    assert abs(off - dense_reduction(broken.matrix, N)[1]) <= 1e-12 * max(1.0, float(np.max(np.abs(values))))
    with pytest.raises(InternalConsistencyError, match="rotation invariant"):
        broken.eigenvalues()


@pytest.mark.parametrize("model, L", EDGE_CASES)
def test_non_hermitian_entries_are_refused(model, L):
    H = build_full_hamiltonian(model, L)
    with pytest.raises(InternalConsistencyError, match="not Hermitian"):
        perturb(H, 1e-6, (0, H.N))


def test_entries_out_of_order_are_refused():
    H = build_full_hamiltonian(*EDGE_CASES[1])
    with pytest.raises(ValueError, match="sorted"):
        FiniteHamiltonian(H.rows[::-1], H.cols[::-1], H.values[::-1], N=H.N, L=H.L, lattice=H.lattice)


def test_verify_exits_3_on_a_rotation_breaking_builder(tmp_path, monkeypatch):
    build = oracle.build_full_hamiltonian

    def broken_builder(model, L):
        return perturb_one_bond(build(model, L), 1e-3)

    monkeypatch.setattr(oracle, "build_full_hamiltonian", broken_builder)
    potential = tmp_path / "v.json"
    potential.write_text("[0.4, -0.3, 0.7]")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["verify", "--lattice", "zigzag", "--N", "5", "--b", "0.4", "--t", "2",
                         "--potential", str(potential)])
    assert code == 3
    assert "rotation invariant" in err.getvalue()


# ---------------------------------------------------------------------------
# memory: no dense matrix at the dimension cap


def test_compare_at_the_dimension_cap_allocates_no_dense_matrix():
    # 2NL = 2048: the dense matrix alone would be 67 MB; the 16 blocks of 128 x 128
    # are 4.2 MB, and the whole comparison peaked at 5.1 MB when this was written
    model = ZigzagModel(16, 0.3, PotentialProfile([0.3, -0.2, 0.5, -0.7, 0.1, 0.9, -0.4, 0.6]), t=1.0)
    tracemalloc.start()
    try:
        report = compare_decomposition(model, 64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.dim == oracle.MAX_DIM and report.passed
    assert peak < 16e6


# ---------------------------------------------------------------------------
# wide range: N up to 64, t over seven decades, fields on and off the flat phases


@st.composite
def wide_models(draw):
    N = draw(st.integers(2, 64))
    q = draw(st.integers(1, 8).filter(lambda q: N * (q // 2 if q % 2 == 0 else q) <= 320))
    seed = draw(st.integers(0, 2**32 - 1))
    prof = PotentialProfile(np.random.default_rng(seed).uniform(-1.0, 1.0, q))
    t = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-4.0, 3.0))
    if draw(st.booleans()):
        k = draw(st.integers(1, N))
        flat = math.pi / 2 - math.pi * k / N
        b = flat if draw(st.booleans()) else flat + draw(st.floats(-0.5, 0.5))
        return ZigzagModel(N, b, prof, t=t)
    phases = tuple(draw(st.floats(-math.pi, math.pi)) for _ in range(3))
    return ArmchairModel(N, phases, prof, t=t)


@given(model=wide_models())
@settings(max_examples=30, deadline=None)
def test_block_levels_match_dense_solve_wide_range(model):
    assert_matches_dense_reduction(build_full_hamiltonian(model, model.potential.p))
