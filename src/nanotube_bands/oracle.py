"""Brute-force ground truth: the full finite tube Hamiltonian on a torus.

Closing the tube cyclically after L axial cells makes the finite spectrum an
exact quasi-momentum sample of the channel decomposition, so the eigenvalue
multiset of the 2NL x 2NL matrix must equal the union of fiber-matrix spectra
to machine precision.  The fiber matrices here keep the raw complex hoppings;
gauge reduction would shift the sample points by the loop flux.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .armchair import decompose_armchair
from .core import ArmchairModel, ZigzagModel
from .errors import InternalConsistencyError, InvalidTruncationError
from .spectral import block_period_matrix, fiber_matrices, scalar_period_matrix
from .zigzag import channel_offdiagonals


@dataclass(frozen=True)
class FiniteHamiltonian:
    """Dense Hermitian matrix of the tube closed after L axial cells."""

    matrix: np.ndarray
    N: int
    L: int
    lattice: str

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)


MAX_CELLS = 64  # dense eigensolves only; keeps dimensions at desk scale


def _check_truncation(model, L: int) -> None:
    p = model.potential.p
    if not isinstance(L, (int, np.integer)) or L < 1 or L % p != 0:
        raise InvalidTruncationError(f"axial length L = {L!r} must be a positive multiple of p = {p}")
    if L > MAX_CELLS:
        raise InvalidTruncationError(f"axial length L = {L} exceeds the dense-solver cap {MAX_CELLS}")


def build_full_hamiltonian(model, L: int) -> FiniteHamiltonian:
    """Assemble the cyclic tube Hamiltonian directly from the hopping rules.

    Rows are filled from the j = 0 sites only; the honeycomb is bipartite, so
    every bond has exactly one such endpoint and accumulation handles the
    multi-edges that appear for small L.
    """
    _check_truncation(model, L)
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
    elif isinstance(model, ArmchairModel):
        b1, b2, b3 = model.phases
        neighbours = lambda n, k: (
            (cmath.exp(1j * b2), n + 1, k),
            (cmath.exp(1j * b1), n - 1, k - 1),
            (cmath.exp(1j * b3), n, k),
        )
    else:
        raise TypeError(f"unsupported model type {type(model)!r}")

    for n in range(L):
        for k in range(N):
            row = idx(n, 0, k)
            for amp, nn, kk in neighbours(n, k):
                col = idx(nn, 1, kk)
                H[row, col] += amp
                H[col, row] += np.conj(amp)

    herm = np.max(np.abs(H - H.conj().T))
    if herm > 1e-14 * max(1.0, np.max(np.abs(H))):
        raise InternalConsistencyError(f"full Hamiltonian not Hermitian: residual {herm}")
    lattice = "zigzag" if isinstance(model, ZigzagModel) else "armchair"
    return FiniteHamiltonian(matrix=H, N=N, L=L, lattice=lattice)


def channel_fiber_eigenvalues(model, L: int) -> np.ndarray:
    """Sorted union of fiber eigenvalues over all channels and sample multipliers."""
    _check_truncation(model, L)
    p = model.potential.p
    M = L // p
    taus = [cmath.exp(2j * cmath.pi * m / M) for m in range(M)]
    if isinstance(model, ZigzagModel):
        diag = model.t * model.potential.period_values()
        fibers = [
            scalar_period_matrix(channel_offdiagonals(model, k), diag) for k in range(1, model.N + 1)
        ]
    elif isinstance(model, ArmchairModel):
        fibers = [block_period_matrix(block) for block in decompose_armchair(model)]
    else:
        raise TypeError(f"unsupported model type {type(model)!r}")
    eigs = [np.linalg.eigvalsh(fiber_matrices(period, wrap, taus)) for period, wrap in fibers]
    return np.sort(np.concatenate(eigs, axis=None))


@dataclass(frozen=True)
class DecompositionReport:
    dim: int
    max_abs_dev: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_abs_dev < self.tolerance

    def to_json_dict(self) -> dict:
        return {"dim": self.dim, "max_abs_dev": self.max_abs_dev, "pass": self.passed}


def compare_decomposition(model, L: int, tol: float = 1e-8) -> DecompositionReport:
    """Eigenvalue multiset of the full torus vs the union of channel fibers."""
    full = build_full_hamiltonian(model, L).eigenvalues()
    fibers = channel_fiber_eigenvalues(model, L)
    if full.size != fibers.size:
        raise InternalConsistencyError(
            f"dimension mismatch: full {full.size} vs fiber union {fibers.size}"
        )
    dev = float(np.max(np.abs(np.sort(full) - fibers)))
    return DecompositionReport(dim=full.size, max_abs_dev=dev, tolerance=tol)
