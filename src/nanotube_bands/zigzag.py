"""Scalar Jacobi channels of the zigzag tube.

The tube Hamiltonian splits over circumferential momenta into N doubly
infinite tridiagonal chains.  Channel k has hopping ``2 exp(-i pi k/N) c_k``
on every second bond (the other bonds are 1) and on-site energies
``t * v[i]``.  A diagonal gauge strips the hopping phases without touching
the spectrum, leaving the nonnegative coefficients stored here.

Bond indexing: ``a[i]`` couples chain sites i and i+1 (0-based); bonds with
even i are the unit bonds inside a dimer, bonds with odd i carry ``2|c_k|``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FLAT_CHANNEL_TOL, ZigzagModel


@dataclass(frozen=True)
class ScalarPeriodicJacobi:
    """2p-periodic scalar Jacobi coefficients for one zigzag channel.

    a : nonnegative off-diagonals, length 2p (a[2p-1] is the wrap-around bond)
    v : diagonal, length 2p, already scaled by the coupling t
    c_k : signed channel constant cos(b + pi*k/N), kept for reporting

    (..., 2p) arrays ``a`` and ``v`` hold a stack of channels of one period,
    which ``zigzag_channel_edges`` solves together; the c_k of a stack are an
    array of its leading shape.
    """

    p: int
    a: np.ndarray
    v: np.ndarray
    c_k: float | None = None

    def __post_init__(self) -> None:
        a = np.asarray(self.a, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if a.shape != v.shape or a.shape[-1:] != (2 * self.p,):
            raise ValueError(f"need 2p = {2 * self.p} off-diagonals and diagonals")
        a.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "v", v)

    @property
    def flat(self) -> np.ndarray:
        """Per channel: a bond at or below FLAT_CHANNEL_TOL splits the chain into dimers."""
        return np.min(self.a, axis=-1) <= FLAT_CHANNEL_TOL

    @property
    def is_flat(self) -> bool:
        """Whether the channel, or any channel of a stack, is flat."""
        return bool(np.any(self.flat))


def channel_bonds(models) -> tuple[np.ndarray, np.ndarray]:
    """Complex pre-gauge bond amplitudes of all N channels of each model over one period 2p, and their c_k.

    The M models must share N and the potential period.  Row [s, k - 1] of
    the (M, N, 2p) bonds holds channel k of ``models[s]``: 1 on the even
    bonds and ``2 exp(-i pi k/N) c_k`` on the odd ones, with the (M, N) c_k
    of ``channel_constant``.  The exponent is 0 + i*(-pi*k/N), rounded as the
    scalar ``-1j * np.pi * k / N`` rounds it, so every row has the bits of a
    one-channel build.
    """
    N, p = models[0].N, models[0].potential.p
    c = np.array([[model.channel_constant(k) for k in range(1, N + 1)] for model in models])
    phase = np.zeros(N, dtype=complex)
    phase.imag = -np.pi * np.arange(1, N + 1) / N
    bonds = np.ones(c.shape + (2 * p,), dtype=complex)
    bonds[..., 1::2] = (2.0 * np.exp(phase) * c)[..., None]
    return bonds, c


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


def zigzag_channel_stack(models) -> ScalarPeriodicJacobi:
    """All N gauge-reduced channels, k = 1..N, of each of M models of one N and potential period, as one stack.

    ``a`` holds the (M, N, 2p) moduli of ``channel_bonds``, ``v`` each
    model's diagonal ``t * v`` broadcast to its channels, and ``c_k`` the
    (M, N) channel constants.  The models of a field sweep are built at once.
    """
    bonds, c = channel_bonds(models)
    a = np.abs(bonds)
    diag = np.array([model.t * model.potential.period_values() for model in models])
    return ScalarPeriodicJacobi(p=models[0].potential.p, a=a, v=np.broadcast_to(diag[:, None], a.shape), c_k=c)


def decompose_zigzag(model: ZigzagModel) -> list[ScalarPeriodicJacobi]:
    """All N gauge-reduced channels, k = 1..N: the rows of ``zigzag_channel_stack``."""
    stack = zigzag_channel_stack([model])
    return [
        ScalarPeriodicJacobi(p=stack.p, a=a, v=v, c_k=c_k)
        for a, v, c_k in zip(stack.a[0], stack.v[0], stack.c_k[0].tolist())
    ]


def channel_symmetry_map(N: int, b: float, k: int) -> dict[str, tuple[int, float]]:
    """Channel identifications: shifting b by pi/N advances k, flipping b mirrors k.

    Returns the partner (k', b') such that channel k at the transformed field
    equals channel k' at field b' = b.
    """
    if not 1 <= k <= N:
        raise ValueError(f"channel index k must lie in 1..{N}, got {k}")
    shift_k = k % N + 1
    reflect_k = (N - k) % N
    if reflect_k == 0:
        reflect_k = N
    return {"shift": (shift_k, b), "reflect": (reflect_k, b)}
