"""One-channel references for scalar channels: the per-channel zigzag decomposition, the transfer matrix, its discriminant, and the bands.

``decompose_zigzag`` is the paper's channel decomposition one channel at a
time, after the gauge: each channel is a ``ScalarPeriodicJacobi`` with bonds
1 and 2|c_k|.  ``gauge_reduce`` is that gauge itself, which turns the complex
bonds of ``channel_bonds`` into their moduli; those equal 2|c_k| to the last
bit or two.  The package builds the same channels only as one stack inside
``zigzag_channel_edges``.

``monodromy`` and ``discriminant`` are the transfer-matrix view of a scalar
channel, which no command uses: the package solves scalar channels only as
stacks of fiber matrices (``periodic_jacobi_band_edges``).  The tests hold
those edges to the discriminant, whose [-1, 1] preimage is the spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from nanotube_bands.core import FLAT_CHANNEL_TOL, ZigzagModel
from nanotube_bands.errors import FlatBandChannelError
from nanotube_bands.spectral import periodic_jacobi_band_edges


@dataclass(frozen=True)
class ScalarPeriodicJacobi:
    """2p-periodic scalar Jacobi coefficients for one zigzag channel.

    a : nonnegative off-diagonals, length 2p (a[2p-1] is the wrap-around bond)
    v : diagonal, length 2p, already scaled by the coupling t
    c_k : signed channel constant cos(b + pi*k/N), kept for reporting
    """

    p: int
    a: np.ndarray
    v: np.ndarray
    c_k: float | None = None

    def __post_init__(self) -> None:
        a = np.asarray(self.a, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if a.shape != v.shape or a.shape != (2 * self.p,):
            raise ValueError(f"need 2p = {2 * self.p} off-diagonals and diagonals")
        a.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "v", v)

    @property
    def is_flat(self) -> bool:
        """A bond at or below FLAT_CHANNEL_TOL splits the chain into dimers (for the odd bond, ``is_flat_channel``)."""
        return bool(np.min(self.a) <= FLAT_CHANNEL_TOL)


def gauge_reduce(offdiag, diag, c_k: float | None = None) -> ScalarPeriodicJacobi:
    """Replace complex off-diagonals by their moduli (spectrum preserving).

    The diagonal unitary u_n = prod conj(a_j/|a_j|) conjugates the chain with
    complex bonds into the chain with |bonds|; zero bonds are left alone.
    """
    a = np.abs(np.asarray(offdiag, dtype=complex))
    v = np.asarray(diag, dtype=float)
    if a.shape != v.shape or a.ndim != 1 or a.size % 2 != 0:
        raise ValueError("off-diagonal and diagonal must be 1-d arrays of equal even length")
    return ScalarPeriodicJacobi(p=a.size // 2, a=a, v=v, c_k=c_k)


def decompose_zigzag(model: ZigzagModel) -> list[ScalarPeriodicJacobi]:
    """All N gauge-reduced channels, k = 1..N, one at a time: bonds 1 and 2|c_k|, diagonal t * v."""
    p = model.potential.p
    diag = model.t * model.potential.period_values()
    out = []
    for k in range(1, model.N + 1):
        c_k = model.channel_constant(k)
        a = np.ones(2 * p)
        a[1::2] = 2.0 * abs(c_k)
        out.append(ScalarPeriodicJacobi(p=p, a=a, v=diag, c_k=c_k))
    return out


def channel_bands(jac: ScalarPeriodicJacobi) -> list[tuple[float, float]]:
    """The 2p bands of one scalar channel, ascending: consecutive pairs of its sorted edges."""
    edges = periodic_jacobi_band_edges(jac.a, jac.v)
    return list(zip(edges[0::2], edges[1::2]))


def monodromy(jac: ScalarPeriodicJacobi, z) -> np.ndarray:
    """One-period transfer matrix of the three-term recurrence at energy z.

    ``z`` is a scalar or an array; the result has shape ``z.shape + (2, 2)``.
    The 2p step matrices of all energies are built at once and multiplied as
    stacks, one 2x2 product per energy and step, as for a single energy, so
    an array of energies gives the bits of one call per energy.
    """
    if jac.is_flat:
        raise FlatBandChannelError("monodromy undefined for a flat-band channel (vanishing bond)")
    a = jac.a
    z = np.asarray(z, dtype=float)
    m = 2 * jac.p
    steps = np.zeros((m,) + z.shape + (2, 2))
    steps[..., 0, 1] = 1.0
    steps[..., 1, 0] = np.moveaxis(np.broadcast_to(-a[..., np.arange(-1, m - 1)] / a, z.shape + (m,)), -1, 0)
    steps[..., 1, 1] = np.moveaxis((z[..., None] - jac.v) / a, -1, 0)
    M = np.eye(2)
    for step in steps:
        M = step @ M
    return M


def discriminant(jac: ScalarPeriodicJacobi, z):
    """Half-trace of the monodromy matrix; the spectrum is its [-1, 1] preimage.

    Elementwise over an array ``z``.
    """
    M = monodromy(jac, z)
    return 0.5 * (M[..., 0, 0] + M[..., 1, 1])
