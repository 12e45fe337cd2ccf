"""Domain types: potential profiles, magnetic-field parametrization, models.

Conventions used throughout the package:

* A potential profile is a finite real array ``values`` of declared period
  ``q = len(values)``; the on-site sequence is its periodic extension
  ``v[i] = values[i % q]``.  Axial site ``(n, j)`` of either lattice carries
  on-site energy ``t * v[2n + j]``, so consecutive pairs ``(v[2j], v[2j+1])``
  form the natural two-site cell (the unit-hopping dimer of a zigzag channel,
  the rung of an armchair channel).
* The effective scalar-channel period is ``2p`` with ``p = q/2`` for even
  ``q`` and ``p = q`` for odd ``q``.
* The magnetic field enters only through phases; the canonical stored form is
  the zigzag phase ``b`` (armchair models carry a triple ``(b1, b2, b3)``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, InvalidModelError

FLAT_CHANNEL_TOL = 1e-12  # |c_k| below this is treated as an exact flat-band channel


@dataclass(frozen=True)
class PotentialProfile:
    """Periodic on-site potential, dimensionless energy units."""

    values: tuple[float, ...]

    def __init__(self, values) -> None:
        vals = tuple(float(v) for v in np.atleast_1d(np.asarray(values, dtype=float)))
        if len(vals) < 1:
            raise InvalidInputError("potential profile needs at least one value")
        if not all(math.isfinite(v) for v in vals):
            raise InvalidInputError("potential values must be finite (no NaN or Infinity)")
        object.__setattr__(self, "values", vals)

    @property
    def q(self) -> int:
        """Declared period (length of the stored array)."""
        return len(self.values)

    @property
    def p(self) -> int:
        """Effective half-period: the channel Jacobi coefficients repeat with period 2p."""
        q = self.q
        return q // 2 if q % 2 == 0 else q

    def extended(self, count: int, start: int = 0) -> np.ndarray:
        """Periodic extension ``(v[start], ..., v[start+count-1])``."""
        idx = (np.arange(start, start + count)) % self.q
        return np.asarray(self.values, dtype=float)[idx]

    def period_values(self) -> np.ndarray:
        """One full channel period, length 2p."""
        return self.extended(2 * self.p)

    def pairs(self) -> np.ndarray:
        """The p dimer pairs ``(v[2j], v[2j+1])`` as a (p, 2) array."""
        return self.period_values().reshape(self.p, 2)

    def is_zero_mean(self, tol: float = 1e-12) -> bool:
        vals = self.period_values()
        scale = max(1.0, float(np.max(np.abs(vals))))
        return abs(float(np.sum(vals))) <= tol * scale


def load_potential(path) -> PotentialProfile:
    """Read a potential profile from a JSON array of numbers."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidInputError(f"cannot read potential file {path!r}: {exc}") from exc
    if not isinstance(data, list) or not data or not all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in data
    ):
        raise InvalidInputError(f"potential file {path!r} must hold a nonempty JSON array of numbers")
    return PotentialProfile(data)


def magnetic_phase(B: float, N: int) -> float:
    """Hopping phase of a zigzag tube with N hexagons in a uniform axial field B.

    Odd in B, with magnitude (3|B|/16)*cot(pi/(2N)).
    """
    if not isinstance(N, (int, np.integer)) or N < 2:
        raise InvalidModelError(f"need integer N >= 2, got {N!r}")
    return (3.0 * B / 16.0) / math.tan(math.pi / (2 * N))


def flat_field_amplitudes(N: int, k: int, s_range) -> list[float]:
    """Nonnegative field amplitudes at which channel k collapses to flat bands.

    These are the |B| solving cos(b(|B|) + pi*k/N) = 0, one per integer s.
    """
    if not isinstance(N, (int, np.integer)) or N < 2:
        raise InvalidModelError(f"need integer N >= 2, got {N!r}")
    if not 1 <= k <= N:
        raise InvalidModelError(f"channel index k must lie in 1..{N}, got {k}")
    tan_half = math.tan(math.pi / (2 * N))
    out = []
    for s in s_range:
        amp = (16.0 / 3.0) * (math.pi / 2 - math.pi * k / N + math.pi * s) * tan_half
        if amp >= 0.0:
            out.append(amp)
    return out


def _check_finite(**values: float) -> None:
    for name, x in values.items():
        if not math.isfinite(x):
            raise InvalidModelError(f"{name} must be finite, got {x}")


@dataclass(frozen=True)
class ZigzagModel:
    """Zigzag tube: N hexagons around, phase b, potential scaled by coupling t."""

    N: int
    b: float
    potential: PotentialProfile
    t: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.N, (int, np.integer)) or self.N < 2:
            raise InvalidModelError(f"need integer N >= 2, got {self.N!r}")
        _check_finite(b=self.b, t=self.t)

    def channel_constant(self, k: int) -> float:
        """c_k = cos(b + pi*k/N) for k in 1..N."""
        return math.cos(self.b + math.pi * k / self.N)


@dataclass(frozen=True)
class ArmchairModel:
    """Armchair tube: N sites per ring, hopping phases (b1, b2, b3)."""

    N: int
    phases: tuple[float, float, float] = (0.0, 0.0, 0.0)
    potential: PotentialProfile = field(default_factory=lambda: PotentialProfile([0.0]))
    t: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.N, (int, np.integer)) or self.N < 2:
            raise InvalidModelError(f"need integer N >= 2, got {self.N!r}")
        if len(self.phases) != 3:
            raise InvalidModelError("armchair model needs exactly three phases (b1, b2, b3)")
        object.__setattr__(self, "phases", tuple(float(x) for x in self.phases))
        _check_finite(b1=self.phases[0], b2=self.phases[1], b3=self.phases[2], t=self.t)
