"""Brute-force ground truth: the full finite tube Hamiltonian on a torus.

Closing the tube cyclically after L axial cells makes the finite spectrum an
exact quasi-momentum sample of the channel decomposition, so the eigenvalue
multiset of the 2NL x 2NL matrix must equal the union of fiber-matrix spectra
to machine precision.  The fiber matrices here keep the raw complex hoppings;
gauge reduction would shift the sample points by the loop flux.

The torus matrix is assembled from the hopping rules alone, with nothing taken
from the channel formulas.  Its eigensolve uses only the rotation ``k -> k+1``
that the torus commutes with: a unitary DFT over k splits the matrix into N
blocks of size 2L, and the Frobenius norm of everything off those blocks is
measured, not assumed.  That norm bounds the spectral norm, so by Weyl's
theorem every torus level lies within it of a block level; a norm above the
rounding level refuses the matrix.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .armchair import decompose_armchair
from .core import ArmchairModel, ZigzagModel
from .errors import InternalConsistencyError, InvalidTruncationError
from .spectral import block_period_matrix, fiber_matrices, scalar_period_matrix
from .zigzag import channel_bonds


ROTATION_TOL = 1e-12  # off-block residual allowed, relative to max(1, max|H|)


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
        """Sorted levels, solved as N circumferential blocks of size 2L.

        Sites are ordered (n, j, k) with k fastest, so a unitary DFT over k on
        both sides turns a rotation-invariant matrix into N diagonal blocks.
        The Frobenius norm of what lies off them bounds the distance from any
        full-matrix level to a block level; above the rounding level the
        matrix is refused rather than solved.
        """
        N = self.N
        m = self.dimension // N
        k = np.arange(N)
        F = np.exp(-2j * np.pi / N * (np.outer(k, k) % N)) / np.sqrt(N)  # unitary DFT
        Ht = (F @ (self.matrix.reshape(-1, N) @ F.conj().T).reshape(m, N, m * N)).reshape(m, N, m, N)
        blocks = Ht[:, k, :, k]  # (N, m, m), a copy
        Ht[:, k, :, k] = 0.0
        off = float(np.linalg.norm(Ht))
        bound = ROTATION_TOL * max(1.0, float(np.max(np.abs(self.matrix))))
        if off > bound:
            raise InternalConsistencyError(
                f"torus Hamiltonian is not rotation invariant: off-block norm {off} exceeds {bound}"
            )
        return np.sort(np.linalg.eigvalsh(blocks), axis=None)


MAX_CELLS = 64  # bounds the dense 2NL x 2NL matrix the oracle assembles; keeps it at desk scale
MAX_DIM = 2048  # and its dimension 2NL: a 2048-level torus peaks at ~220 MB RSS, and the peak grows as dim^2


def _check_truncation(model, L: int) -> None:
    p = model.potential.p
    if not isinstance(L, (int, np.integer)) or L < 1 or L % p != 0:
        raise InvalidTruncationError(f"axial length L = {L!r} must be a positive multiple of p = {p}")
    if L > MAX_CELLS:
        raise InvalidTruncationError(f"axial length L = {L} exceeds the dense-matrix cap {MAX_CELLS}")
    if 2 * model.N * L > MAX_DIM:
        raise InvalidTruncationError(f"torus dimension 2NL = {2 * model.N * L} exceeds the dense-matrix cap {MAX_DIM}")


def build_full_hamiltonian(model, L: int) -> FiniteHamiltonian:
    """Assemble the cyclic tube Hamiltonian directly from the hopping rules.

    Site (n, j, k) is row (2n + j)N + k.  The honeycomb is bipartite, so every
    bond is listed once from its j = 0 end, in the order (n, k, bond) with
    each amplitude followed by its conjugate; one unbuffered ``np.add.at``
    sums them in that order into the multi-edges that appear for small L.
    """
    _check_truncation(model, L)
    N = model.N
    dim = 2 * N * L
    H = np.zeros((dim, dim), dtype=complex)
    sites = np.arange(dim)
    # added onto the zeros, not assigned: a -0.0 product is stored as 0.0
    H[sites, sites] += model.t * np.repeat(model.potential.extended(2 * L), N)

    # bond amplitudes and the (n, k) offsets of their j = 1 ends
    if isinstance(model, ZigzagModel):
        amps = (cmath.exp(-1j * model.b), cmath.exp(1j * model.b), 1.0)  # phases b2 = -b, b1 = +b, b3 = 0
        dn = (-1, -1, 0)
    elif isinstance(model, ArmchairModel):
        b1, b2, b3 = model.phases
        amps = (cmath.exp(1j * b2), cmath.exp(1j * b1), cmath.exp(1j * b3))
        dn = (1, -1, 0)
    else:
        raise TypeError(f"unsupported model type {type(model)!r}")
    dk = (0, -1, 0)

    n = np.arange(L)[:, None, None]
    k = np.arange(N)[None, :, None]
    rows = np.broadcast_to(2 * N * n + k, (L, N, 3))
    cols = 2 * N * ((n + np.array(dn)) % L) + N + (k + np.array(dk)) % N
    amps = np.array(amps, dtype=complex)
    r = np.stack([rows, cols], axis=-1).ravel()
    c = np.stack([cols, rows], axis=-1).ravel()
    np.add.at(H, (r, c), np.broadcast_to(np.stack([amps, amps.conj()], axis=-1), (L, N, 3, 2)).ravel())

    # H - H^H is 0 - 0 off the written entries, so its residual is taken on them only
    r, c = np.concatenate([sites, r]), np.concatenate([sites, c])
    written = H[r, c]
    herm = np.max(np.abs(written - H[c, r].conj()))
    if herm > 1e-14 * max(1.0, np.max(np.abs(written))):
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
        (offdiag,), _ = channel_bonds([model])
        diag = model.t * model.potential.period_values()
        period, wrap = scalar_period_matrix(offdiag, np.broadcast_to(diag, offdiag.shape))
    elif isinstance(model, ArmchairModel):
        period, wrap = map(np.stack, zip(*map(block_period_matrix, decompose_armchair(model))))
    else:
        raise TypeError(f"unsupported model type {type(model)!r}")
    return np.sort(np.linalg.eigvalsh(fiber_matrices(period[:, None], wrap[:, None], taus)), axis=None)


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
    dev = float(np.max(np.abs(full - fibers)))
    return DecompositionReport(dim=full.size, max_abs_dev=dev, tolerance=tol)
