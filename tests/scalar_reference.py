"""One-channel references for scalar channels: the transfer matrix, its discriminant, and the bands.

``monodromy`` and ``discriminant`` are the transfer-matrix view of a scalar
channel, which no command uses: the package solves scalar channels only as
stacks of fiber matrices (``periodic_jacobi_band_edges``).  The tests hold
those edges to the discriminant, whose [-1, 1] preimage is the spectrum.
"""

from __future__ import annotations

import numpy as np

from nanotube_bands.errors import FlatBandChannelError
from nanotube_bands.spectral import periodic_jacobi_band_edges
from nanotube_bands.zigzag import ScalarPeriodicJacobi


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
