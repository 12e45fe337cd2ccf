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

# ---------------------------------------------------------------------------
# Tolerances: every rounding-level threshold of the package, named once.  Dimensionless entries judge
# quantities of order one (bonds in hopping units, multipliers, theta, potential values); energy entries
# are absolute, or relative to ``energy_scale(x)`` = max(1, max|x|) of the energies x they judge.

UNIT_ROUNDOFF = 2.0**-53  # u of IEEE double precision; the Hill allowance and the verify floor read it

# dimensionless
FLAT_CHANNEL_TOL = 1e-12  # a zigzag channel whose odd bond 2|c_k| is at most this is flat (``is_flat_channel``)
UNIT_BOND_TOL = 1e-12  # an odd bond 2|c_k| within this of 1 makes the unit-hopping chain (small_t)
SAME_BOND_TOL = 1e-9  # channels whose |c_k| differ by less than this share their bands (large_t_zigzag)
UNIMODULAR_TOL = 1e-12  # a quasi-momentum multiplier tau must have ||tau| - 1| at most this
LEVEL_ROOT_TOL = 1e-3  # a root tau of a level-set quartic with ||tau| - 1| at most this is a level crossing
LEVEL_ARC_TOL = 1e-12  # theta, radians: an arc between level crossings no wider than this is a tangency, not probed
DISTINCT_TOL = 1e-12  # potential values closer than this are not distinct (cluster asymptotics)
RUNG_PAIR_TOL = 1e-12  # |v[2j] - v[2j+1]| above this is not rung-paired (small_v_armchair)
ZERO_MEAN_TOL = 1e-12  # |sum v| at most this times energy_scale(v) over one period is a zero mean
FOURIER_ZERO_TOL = 1e-9  # a Fourier coefficient at most this times energy_scale(v) is zero (gap-opening classes)

# energies
GAP_MERGE_TOL = 1e-9  # absolute: bands at most this apart fuse, and a gap is kept only above it
UNION_CUT_TOL = 1e-12  # absolute: the union's cut spacing, band padding and thin-band test
FLAT_BRANCH_TOL = 1e-12  # absolute: a block-channel branch range narrower than this is a flat level
DEGENERATE_LEVEL_TOL = 1e-9  # absolute: dimer levels closer than this are degenerate (ck_to_zero)
HERMITIAN_TOL = 1e-12  # relative: largest |H - H^H| entry allowed of a fiber, block or torus matrix
ROTATION_TOL = 1e-12  # relative: Frobenius norm allowed off the torus's circumferential blocks
# relative, in units of u: verify passes a deviation below max(--tol, VERIFY_FLOOR * u * scale), scale the
# torus's energy_scale.  Over 2 100 random tori of both lattices (2NL <= 2048, t from 0.01 to 1e12) the
# largest dev / (u * scale) was 120, so 512 leaves a factor of 4; it exceeds --tol 1e-8 only above scale 1.8e5
VERIFY_FLOOR = 512
# relative, in units of u: a level-set search stops once no probe beats its level by more than
# LEVEL_SET_STOP * u * scale, scale the energy_scale of the channel's sampled levels
LEVEL_SET_STOP = 4


def energy_scale(x, axis=None):
    """max(1, max|x|), over ``axis``: the unit of the relative energy tolerances."""
    return np.maximum(1.0, np.max(np.abs(x), axis=axis))


def is_flat_channel(c_k):
    """Whether the zigzag channel of constant c_k is flat: its odd bond 2|c_k| splits the chain into dimers."""
    return 2.0 * np.abs(c_k) <= FLAT_CHANNEL_TOL


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

    def is_zero_mean(self) -> bool:
        vals = self.period_values()
        return bool(abs(float(np.sum(vals))) <= ZERO_MEAN_TOL * energy_scale(vals))


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
