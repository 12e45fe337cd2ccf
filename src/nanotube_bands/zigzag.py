"""The bond rule of the zigzag tube's scalar Jacobi channels.

The tube Hamiltonian splits over circumferential momenta into N doubly
infinite tridiagonal chains.  Channel k has hopping ``2 exp(-i pi k/N) c_k``
on every second bond (the other bonds are 1) and on-site energies
``t * v[i]``.  A diagonal gauge strips the hopping phases without touching
the spectrum, so the edge solver (``spectral.zigzag_chain_edges``) takes
the bonds 1 and 2|c_k|, while the torus oracle keeps the phases.

Bond indexing: ``a[i]`` couples chain sites i and i+1 (0-based); bonds with
even i are the unit bonds inside a dimer, bonds with odd i carry the field.
"""

from __future__ import annotations

import numpy as np


def channel_constants(models) -> np.ndarray:
    """The (M, N) channel constants c_k = ``channel_constant(k)``, k = 1..N, of M models that share N."""
    return np.array([[model.channel_constant(k) for k in range(1, models[0].N + 1)] for model in models])


def channel_bonds(models) -> np.ndarray:
    """Complex pre-gauge bond amplitudes of all N channels of each model over one period 2p.

    The M models must share N and the potential period.  Row [s, k - 1] of
    the (M, N, 2p) bonds holds channel k of ``models[s]``: 1 on the even
    bonds and ``2 exp(-i pi k/N) c_k`` on the odd ones, with the c_k of
    ``channel_constants``.  The exponent is 0 + i*(-pi*k/N), rounded as the
    scalar ``-1j * np.pi * k / N`` rounds it, so every row has the bits of a
    one-channel build.
    """
    N, p = models[0].N, models[0].potential.p
    c = channel_constants(models)
    phase = np.zeros(N, dtype=complex)
    phase.imag = -np.pi * np.arange(1, N + 1) / N
    bonds = np.ones(c.shape + (2 * p,), dtype=complex)
    bonds[..., 1::2] = (2.0 * np.exp(phase) * c)[..., None]
    return bonds
