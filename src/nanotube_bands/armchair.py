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


@dataclass(frozen=True)
class BlockPeriodicJacobi:
    """p-block-periodic 2x2-block Jacobi data for one armchair channel.

    a_block : constant sub-diagonal block (its adjoint sits above the diagonal)
    d_blocks : (p, 2, 2) Hermitian diagonal blocks, potential already scaled by t
    """

    p: int
    a_block: np.ndarray
    d_blocks: np.ndarray
    k: int | None = None

    def __post_init__(self) -> None:
        a = np.asarray(self.a_block, dtype=complex)
        d = np.asarray(self.d_blocks, dtype=complex)
        if a.shape != (2, 2) or d.shape != (self.p, 2, 2):
            raise ValueError(f"need one 2x2 hopping block and {self.p} diagonal blocks")
        if np.max(np.abs(d - np.conj(np.transpose(d, (0, 2, 1))))) > 1e-12:
            raise ValueError("diagonal blocks must be Hermitian")
        a.setflags(write=False)
        d.setflags(write=False)
        object.__setattr__(self, "a_block", a)
        object.__setattr__(self, "d_blocks", d)


def hopping_block(N: int, k: int, b1: float, b2: float) -> np.ndarray:
    s = np.exp(2j * np.pi / N)
    return np.array([[0.0, np.exp(1j * b1) * s**k], [np.exp(-1j * b2), 0.0]], dtype=complex)


def decompose_armchair(model: ArmchairModel) -> list[BlockPeriodicJacobi]:
    """All N block channels, k = 1..N."""
    b1, b2, b3 = model.phases
    p = model.potential.p
    diag = model.t * model.potential.extended(2 * p)
    rung = np.exp(1j * b3)
    d = np.zeros((p, 2, 2), dtype=complex)
    for j in range(p):
        d[j] = [[diag[2 * j], rung], [np.conj(rung), diag[2 * j + 1]]]
    return [
        BlockPeriodicJacobi(p=p, a_block=hopping_block(model.N, k, b1, b2), d_blocks=d, k=k)
        for k in range(1, model.N + 1)
    ]


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
