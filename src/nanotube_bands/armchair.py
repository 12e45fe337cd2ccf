"""Block Jacobi channels, 3-D geometry and field phases of the armchair tube.

The armchair Hamiltonian splits over circumferential momenta into N chains of
2x2 blocks: a constant off-diagonal block ``a_k`` with unimodular antidiagonal
entries and Hermitian diagonal blocks ``d_j`` coupling the two rung sites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ArmchairModel, PotentialProfile
from .errors import InvalidModelError


def decompose_armchair(models) -> tuple[np.ndarray, np.ndarray]:
    """Hopping blocks a and diagonal blocks d of all N channels of each of M models, k = 1..N.

    The models must share N and the potential period p.  Row m*N + k - 1 of
    the (M*N, 2, 2) hopping blocks and of the (M*N, p, 2, 2) diagonal blocks
    holds channel k of ``models[m]``: a = [[0, exp(i b1) s^k], [exp(-i b2), 0]]
    with s = exp(2 pi i/N), and d_j = [[t v[2j], exp(i b3)], [exp(-i b3), t v[2j+1]]].
    The product exp(i b1) s^k is written out in real parts, as numpy's
    scalar complex product rounds it (its vector loop may fuse a multiply
    and an add), so every row has the bits of a one-channel build.
    """
    N, p = models[0].N, models[0].potential.p
    if any(model.N != N or model.potential.p != p for model in models):
        raise ValueError("the models of one stack must share N and the potential period")
    b1, b2, b3 = np.array([model.phases for model in models]).T
    diag = np.array([model.t * model.potential.extended(2 * p) for model in models])
    e, s = np.exp(1j * b1)[:, None], np.exp(2j * np.pi / N) ** np.arange(1, N + 1)
    a = np.zeros((len(models), N, 2, 2), dtype=complex)
    a[..., 0, 1].real = e.real * s.real - e.imag * s.imag
    a[..., 0, 1].imag = e.real * s.imag + e.imag * s.real
    a[..., 1, 0] = np.exp(-1j * b2)[:, None]
    rung = np.exp(1j * b3)[:, None]
    d = np.empty((len(models), p, 2, 2), dtype=complex)
    d[..., 0, 0], d[..., 0, 1], d[..., 1, 0], d[..., 1, 1] = diag[:, 0::2], rung, np.conj(rung), diag[:, 1::2]
    return a.reshape(-1, 2, 2), np.repeat(d, N, axis=0)


@dataclass(frozen=True)
class TubeGeometry:
    """Unit-bond embedding of the armchair tube on a cylinder of radius R."""

    N: int
    R: float
    R1: float
    R2: float
    h: float
    alpha_tilde: float
    beta_tilde: float

    def angle(self, n: int, j: int, k: int) -> float:
        offsets = {
            (0, 0): 2.0 * self.beta_tilde,
            (0, 1): 2.0 * math.pi / self.N,
            (1, 0): self.beta_tilde - self.alpha_tilde,
            (1, 1): math.pi / self.N,
        }
        return 2.0 * math.pi * (k - n // 2) / self.N + offsets[(abs(n) % 2, j)]

    def position(self, n: int, j: int, k: int) -> np.ndarray:
        alpha = self.angle(n, j, k)
        return np.array([self.R * math.cos(alpha), self.R * math.sin(alpha), n * self.h])

    def records(self, cells: int) -> list[dict]:
        out = []
        for n in range(cells):
            for j in (0, 1):
                for k in range(self.N):
                    x, y, z = self.position(n, j, k)
                    out.append({"n": n, "j": j, "k": k, "x": x, "y": y, "z": z})
        return out


def tube_geometry(N: int, B: float) -> tuple[TubeGeometry, tuple[float, float, float]]:
    """Cylinder embedding of the armchair tube and the physical hopping phases.

    All nearest-neighbour bonds of the embedding have unit length; the phases
    are b1 = b2 = B(R2 - R1)/4 and b3 = -B*R2/4.
    """
    if not isinstance(N, (int, np.integer)) or N < 2:
        raise InvalidModelError(f"need integer N >= 2, got {N!r}")
    R = math.sqrt(math.cos(math.pi / N) + 1.25) / math.sin(math.pi / N)
    r1sq = R**2 - 1.0
    r2sq = (2.0 * R) ** 2 - 1.0
    if r1sq < 0.0 or r2sq < 0.0:
        raise InvalidModelError("degenerate tube geometry: radius too small")
    R1, R2 = math.sqrt(r1sq), math.sqrt(r2sq)
    hsq = 2.0 + R1 * R2 - 2.0 * R**2
    if hsq < 0.0:
        raise InvalidModelError("degenerate tube geometry: negative axial step")
    geom = TubeGeometry(
        N=N,
        R=R,
        R1=R1,
        R2=R2,
        h=math.sqrt(hsq),
        alpha_tilde=math.asin(1.0 / (2.0 * R)),
        beta_tilde=math.asin(1.0 / R),
    )
    phases = (B * (R2 - R1) / 4.0, B * (R2 - R1) / 4.0, -B * R2 / 4.0)
    return geom, phases


def model_from_field(N: int, B: float, potential: PotentialProfile, t: float = 1.0) -> ArmchairModel:
    """Armchair model with the physically consistent phase triple for field B."""
    _, phases = tube_geometry(N, B)
    return ArmchairModel(N=N, phases=phases, potential=potential, t=t)
