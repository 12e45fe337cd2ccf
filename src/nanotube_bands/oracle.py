"""Brute-force ground truth: the full finite tube Hamiltonian on a torus.

Closing the tube cyclically after L axial cells makes the finite spectrum an
exact quasi-momentum sample of the channel decomposition, so the eigenvalue
multiset of the 2NL x 2NL matrix must equal the union of fiber-matrix spectra
to machine precision.  The fiber matrices here keep the raw complex hoppings;
gauge reduction would shift the sample points by the loop flux.

The torus matrix is assembled from the hopping rules alone, with nothing taken
from the channel formulas, and is stored as its written entries (about four a
row).  Its eigensolve uses only the rotation ``k -> k+1`` that the torus
commutes with: a unitary DFT over k splits a rotation-invariant matrix into N
blocks of size 2L, which are read off the entries, and the Frobenius norm of
everything off those blocks is measured from the entries too, not assumed.
That norm bounds the spectral norm, so by Weyl's theorem every torus level lies
within it of a block level; a norm above ROTATION_TOL of the energy scale,
or above the rounding of the class sums where that is larger, refuses the
matrix.  No dense 2NL x 2NL matrix is formed unless ``matrix`` is read.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .armchair import decompose_armchair
from .core import HERMITIAN_TOL, ROTATION_TOL, UNIT_ROUNDOFF, VERIFY_FLOOR, ArmchairModel, ZigzagModel, energy_scale
from .errors import InternalConsistencyError, InvalidTruncationError
from .spectral import block_period_matrix, fiber_matrices, scalar_period_matrix
from .zigzag import channel_bonds


@dataclass(frozen=True)
class FiniteHamiltonian:
    """Hermitian matrix of the tube closed after L axial cells, as its written entries.

    ``rows``, ``cols`` and ``values`` hold each written position once, sorted
    by the row-major index ``row * dimension + col``; every other entry is
    zero.  Site (n, j, k) is row (2n + j)N + k.  A matrix that is not
    Hermitian to the rounding level is refused on construction.
    """

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    N: int
    L: int
    lattice: str

    def __post_init__(self) -> None:
        # H - H^H is 0 - 0 off the written entries, so its residual is taken on them only
        dim = self.dimension
        index = self.rows * dim + self.cols
        if np.any(np.diff(index) <= 0):
            raise ValueError("entries must be sorted by row-major position, each position once")
        transpose = self.cols * dim + self.rows
        mirror = np.minimum(np.searchsorted(index, transpose), index.size - 1)
        transposed = np.where(index[mirror] == transpose, self.values[mirror], 0.0)
        herm = np.max(np.abs(self.values - transposed.conj()))
        if not herm <= HERMITIAN_TOL * energy_scale(self.values):  # a NaN fails too
            raise InternalConsistencyError(f"full Hamiltonian not Hermitian: residual {herm}")

    @property
    def dimension(self) -> int:
        return 2 * self.N * self.L

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense matrix, built on first read (dimension^2 complex entries)."""
        H = np.zeros((self.dimension, self.dimension), dtype=complex)
        H[self.rows, self.cols] = self.values
        return H

    def circumferential_blocks(self) -> tuple[np.ndarray, float]:
        """The N diagonal blocks of the DFT over k, and the Frobenius norm off them.

        With row a N + k, an entry belongs to the class (a, b, d) of its row
        and column cells and its shift d = (k2 - k1) mod N.  The class sums
        over N are the coefficients c[a, b, d] of the nearest rotation-invariant
        matrix circ(c), block kappa is sum_d c[a, b, d] exp(2 pi i kappa d / N),
        and the norm off the blocks is ||H - circ(c)||_F: the written entries'
        distance to their class mean plus |c|^2 for each unwritten position of
        a class, summed without cancellation and over ``energy_scale`` so that
        no square overflows.  The class sums are taken over a power of two at
        or above that scale, which keeps their bits and keeps them finite.
        Only the cell pairs (a, b) with an entry are transformed.
        """
        N, m = self.N, 2 * self.L
        a, k1 = np.divmod(self.rows, N)
        b, k2 = np.divmod(self.cols, N)
        pairs, pair = np.unique(a * m + b, return_inverse=True)
        cls = pair * N + (k2 - k1) % N  # class (a, b, d) as (index of its cell pair, d)
        size = pairs.size * N
        scale = energy_scale(self.values)
        e = np.frexp(scale)[1]  # 2**e > scale: the class sums are taken over 2**e, exactly, so none overflows
        re, im = (np.bincount(cls, np.ldexp(part, -e), size) for part in (self.values.real, self.values.imag))
        c = (re + 1j * im) / N
        for part in (c.real, c.imag):
            np.ldexp(part, e, out=part)
        unwritten = N - np.bincount(cls, minlength=size)
        off2 = np.sum(np.abs((self.values - c[cls]) / scale) ** 2) + np.dot(unwritten, np.abs(c / scale) ** 2)
        d = np.arange(N)
        blocks = np.zeros((N, m * m), dtype=complex)
        blocks[:, pairs] = np.exp(2j * np.pi / N * (np.outer(d, d) % N)) @ c.reshape(-1, N).T
        return blocks.reshape(N, m, m), float(scale * np.sqrt(off2))

    def eigenvalues(self) -> np.ndarray:
        """Sorted levels, solved as N circumferential blocks of size 2L.

        The norm off the blocks bounds the distance from any full-matrix level
        to a block level; above ROTATION_TOL of the energy scale (or NaN) the
        matrix is refused rather than solved.  Each class sum of N entries
        rounds by up to about N u of the scale, and so the distance of every
        written entry to its class mean: the bound is at least N u times the
        scale, times the square root of the written entries.  On 300 tori of
        N 300-1024 the norm stayed below 0.15 of that; ROTATION_TOL alone
        refused tori of N about 900 and more, L = 1, which ``verify`` accepts.
        """
        blocks, off = self.circumferential_blocks()
        bound = max(ROTATION_TOL, self.N * math.sqrt(self.values.size) * UNIT_ROUNDOFF) * energy_scale(self.values)
        if not off <= bound:
            raise InternalConsistencyError(
                f"torus Hamiltonian is not rotation invariant: off-block norm {off} exceeds {bound}"
            )
        return np.sort(np.linalg.eigvalsh(blocks), axis=None)


MAX_CELLS = 64  # bounds the torus the oracle assembles; keeps it at desk scale
# and its dimension 2NL: a verify at 2048 peaks at 38 MB RSS (30 MB of it the interpreter and numpy),
# but the dense view that tests and benchmark checks read is 67 MB there and grows as dim^2
MAX_DIM = 2048


def _check_truncation(model, L: int) -> None:
    p = model.potential.p
    if not isinstance(L, (int, np.integer)) or L < 1 or L % p != 0:
        raise InvalidTruncationError(f"axial length L = {L!r} must be a positive multiple of p = {p}")
    if L > MAX_CELLS:
        raise InvalidTruncationError(f"axial length L = {L} exceeds the oracle's torus cap {MAX_CELLS}")
    if 2 * model.N * L > MAX_DIM:
        raise InvalidTruncationError(f"torus dimension 2NL = {2 * model.N * L} exceeds the oracle's torus cap {MAX_DIM}")


def build_full_hamiltonian(model, L: int) -> FiniteHamiltonian:
    """Assemble the cyclic tube Hamiltonian directly from the hopping rules.

    Site (n, j, k) is row (2n + j)N + k.  The on-site entries come first; the
    honeycomb is bipartite, so every bond is listed once from its j = 0 end,
    in the order (n, k, bond) with each amplitude followed by its conjugate.
    One unbuffered ``np.add.at`` sums them in that order into the entries,
    starting from zero, so the multi-edges that appear for small L are the
    sums a dense accumulation would hold, bit for bit.
    """
    _check_truncation(model, L)
    N = model.N
    dim = 2 * N * L
    sites = np.arange(dim)
    onsite = model.t * np.repeat(model.potential.extended(2 * L), N)

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
    r = np.concatenate([sites, np.stack([rows, cols], axis=-1).ravel()])
    c = np.concatenate([sites, np.stack([cols, rows], axis=-1).ravel()])
    terms = np.concatenate([onsite, np.broadcast_to(np.stack([amps, amps.conj()], axis=-1), (L, N, 3, 2)).ravel()])
    index, slot = np.unique(r * dim + c, return_inverse=True)
    values = np.zeros(index.size, dtype=complex)
    np.add.at(values, slot, terms)  # added onto zeros, not assigned: a -0.0 product is stored as 0.0
    lattice = "zigzag" if isinstance(model, ZigzagModel) else "armchair"
    return FiniteHamiltonian(*np.divmod(index, dim), values, N=N, L=L, lattice=lattice)


def channel_fiber_eigenvalues(model, L: int) -> np.ndarray:
    """Sorted union of fiber eigenvalues over all channels and sample multipliers."""
    _check_truncation(model, L)
    p = model.potential.p
    M = L // p
    taus = [cmath.exp(2j * cmath.pi * m / M) for m in range(M)]
    if isinstance(model, ZigzagModel):
        (offdiag,) = channel_bonds([model])
        diag = model.t * model.potential.period_values()
        period, wrap = scalar_period_matrix(offdiag, np.broadcast_to(diag, offdiag.shape))
    elif isinstance(model, ArmchairModel):
        period, wrap = block_period_matrix(*decompose_armchair([model]))
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
    """Eigenvalue multiset of the full torus vs the union of channel fibers.

    A deviation passes below ``tol`` or the rounding floor VERIFY_FLOOR * u * the torus's ``energy_scale``.
    """
    torus = build_full_hamiltonian(model, L)
    full = torus.eigenvalues()
    fibers = channel_fiber_eigenvalues(model, L)
    if full.size != fibers.size:
        raise InternalConsistencyError(
            f"dimension mismatch: full {full.size} vs fiber union {fibers.size}"
        )
    dev = float(np.max(np.abs(full - fibers)))
    floor = float(VERIFY_FLOOR * UNIT_ROUNDOFF * energy_scale(torus.values))
    return DecompositionReport(dim=full.size, max_abs_dev=dev, tolerance=max(tol, floor))
