"""The torus oracle against the loop builder and the dense eigensolve it replaced.

``build_full_hamiltonian`` fills the torus matrix from index arrays; the
reference below is the former double loop, kept verbatim.  Both add the same
amplitudes in the same (n, k, bond, then conjugate) order, so the matrices must
agree to the bit, including the multi-edges of small L that are sums.
``FiniteHamiltonian.eigenvalues`` solves N circumferential blocks instead of
the whole matrix; its levels are compared with a dense ``eigvalsh`` to a
tolerance relative to the entries, and a matrix that breaks the rotation
invariance must be refused.  The fiber side solves every channel in one
stack; the former per-channel solve is the reference for its bits.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nanotube_bands import cli, oracle
from nanotube_bands.armchair import decompose_armchair
from nanotube_bands.core import ArmchairModel, PotentialProfile, ZigzagModel
from nanotube_bands.errors import InternalConsistencyError
from nanotube_bands.oracle import FiniteHamiltonian, build_full_hamiltonian, channel_fiber_eigenvalues
from nanotube_bands.spectral import block_period_matrix, fiber_matrices, scalar_period_matrix
from nanotube_bands.zigzag import channel_bonds

# ---------------------------------------------------------------------------
# references: the loop builder and the per-channel fiber solve


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
                H[idx(n, j, k), idx(n, j, k)] += model.t * values.value(2 * n + j)

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


def per_channel_fiber_levels(model, L: int) -> np.ndarray:
    M = L // model.potential.p
    taus = [cmath.exp(2j * cmath.pi * m / M) for m in range(M)]
    if isinstance(model, ZigzagModel):
        diag = model.t * model.potential.period_values()
        fibers = [scalar_period_matrix(bonds, diag) for bonds in channel_bonds([model])[0][0]]
    else:
        fibers = [block_period_matrix(block) for block in decompose_armchair(model)]
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


@pytest.mark.parametrize("model, L", MODELS)
def test_block_levels_match_dense_solve(model, L):
    H = build_full_hamiltonian(model, L)
    dense = np.linalg.eigvalsh(H.matrix)
    tol = 1e-12 * max(1.0, float(np.max(np.abs(H.matrix))))
    assert np.max(np.abs(H.eigenvalues() - dense)) <= tol


# ---------------------------------------------------------------------------
# the rotation guard refuses a matrix it cannot block-diagonalise


def perturb_one_bond(H: np.ndarray, N: int, delta: float) -> np.ndarray:
    """Add delta to the (n, j, k) = (0, 0, 0) - (0, 1, 0) bond only, keeping H Hermitian."""
    out = H.copy()
    out[0, N] += delta
    out[N, 0] += delta
    return out


@pytest.mark.parametrize("model, L", EDGE_CASES)
def test_rotation_breaking_bond_is_refused(model, L):
    H = build_full_hamiltonian(model, L)
    broken = FiniteHamiltonian(perturb_one_bond(H.matrix, H.N, 1e-6), N=H.N, L=H.L, lattice=H.lattice)
    with pytest.raises(InternalConsistencyError, match="rotation invariant"):
        broken.eigenvalues()


def test_verify_exits_3_on_a_rotation_breaking_builder(tmp_path, monkeypatch):
    build = oracle.build_full_hamiltonian

    def broken_builder(model, L):
        H = build(model, L)
        return FiniteHamiltonian(perturb_one_bond(H.matrix, H.N, 1e-3), N=H.N, L=H.L, lattice=H.lattice)

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
    L = model.potential.p
    H = build_full_hamiltonian(model, L)
    dense = np.linalg.eigvalsh(H.matrix)
    tol = 1e-12 * max(1.0, float(np.max(np.abs(H.matrix))))
    assert np.max(np.abs(H.eigenvalues() - dense)) <= tol
