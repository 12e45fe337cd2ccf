"""Closed forms and checks that only the tests use, each an independent reference for the engine.

* ``intervals_contain``: whether every interval of one list sits inside an
  interval of another, with the worst slack;
* ``channel_symmetry_map``: how a field relabelling moves the channel index
  (the same map for zigzag and armchair channels);
* ``shifted_schroedinger_inclusion``: the shifted Schroedinger bands inside the
  armchair (and, for N divisible by 3, zigzag) spectrum of a rung-paired
  potential;
* ``p1_closed_form`` and ``unperturbed_edges``: the exact zigzag channel
  edges at half-period one and at zero potential, with the eigenvectors of
  the latter;
* ``armchair_cluster_center_errors``: how far the strong-coupling armchair
  cluster centres sit from their predicted values across couplings;
* ``armchair_unperturbed``: the exact armchair spectrum of the alternating
  two-site potential.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from nanotube_bands import asymptotics as asy
from nanotube_bands.core import PotentialProfile, ZigzagModel
from nanotube_bands.errors import InvalidInputError
from nanotube_bands.spectral import BandStructure, ChannelBands, assemble_band_structure, full_spectrum, merge_intervals


# ---------------------------------------------------------------------------
# intervals and channel relabelling


def intervals_contain(container, inner, tol: float = 1e-8) -> tuple[bool, float]:
    """Whether every inner interval sits inside one container interval.

    Returns (ok, margin): margin is the worst containment slack, negative when
    some inner interval pokes out by that amount.
    """
    outer = merge_intervals(container, gap_tol=tol)
    worst = math.inf
    for lo, hi in merge_intervals(inner):
        best = -math.inf
        for clo, chi in outer:
            best = max(best, min(lo - clo, chi - hi))
        worst = min(worst, best)
    ok = worst >= -tol
    return ok, (0.0 if worst is math.inf else worst)


def channel_symmetry_map(N: int, b: float, k: int) -> dict[str, tuple[int, float]]:
    """Channel identifications: shifting b by pi/N advances k, flipping b mirrors k.

    Returns the partner (k', b') such that channel k at the transformed field
    equals channel k' at field b' = b.  The armchair channels follow the same
    map: b1 -> b1 + 2 pi/N advances k ("shift"), and negating all three phases
    mirrors k ("reflect").
    """
    if not 1 <= k <= N:
        raise ValueError(f"channel index k must lie in 1..{N}, got {k}")
    shift_k = k % N + 1
    reflect_k = (N - k) % N
    if reflect_k == 0:
        reflect_k = N
    return {"shift": (shift_k, b), "reflect": (reflect_k, b)}


# ---------------------------------------------------------------------------
# zigzag channels: half-period one and zero potential


@dataclass(frozen=True)
class AlternatingEdges:
    """Band edges of the alternating two-site potential (v, -v) at half-period one."""

    outer_lower: float
    inner_lower: float
    inner_upper: float
    outer_upper: float

    @property
    def edges(self) -> tuple[float, float, float, float]:
        return (self.outer_lower, self.inner_lower, self.inner_upper, self.outer_upper)

    @property
    def bands(self) -> list[tuple[float, float]]:
        return [(self.outer_lower, self.inner_lower), (self.inner_upper, self.outer_upper)]

    @property
    def gap(self) -> tuple[float, float]:
        return (self.inner_lower, self.inner_upper)


def p1_closed_form(v: float, c_k: float) -> AlternatingEdges:
    """Exact edges +/-sqrt(v^2 + (2|c_k| +/- 1)^2) for the (v, -v) potential."""
    a = 2.0 * abs(c_k)
    outer = math.sqrt(v**2 + (a + 1.0) ** 2)
    inner = math.sqrt(v**2 + (a - 1.0) ** 2)
    return AlternatingEdges(-outer, -inner, inner, outer)


@dataclass(frozen=True)
class UnperturbedEdges:
    """Edges and quasi-periodic eigenvectors of the zero-potential channel."""

    a: float
    p: int

    def edge(self, n: int, sign: int) -> float:
        if n == 0:
            return -(self.a + 1.0)
        if n == 2 * self.p:
            return self.a + 1.0
        mag = abs(self.a + cmath.exp(1j * math.pi * n / self.p))
        nu = (1.0 if sign > 0 else -1.0) if n == self.p else math.copysign(1.0, n - self.p)
        return nu * mag

    def all_edges(self) -> np.ndarray:
        out = [self.edge(0, +1)]
        for n in range(1, 2 * self.p):
            out += [self.edge(n, -1), self.edge(n, +1)]
        out.append(self.edge(2 * self.p, -1))
        return np.sort(np.array(out))

    def multiplier(self, n: int) -> float:
        """Which fiber (periodic or anti-periodic) hosts the n-th edge pair."""
        return 1.0 if n % 2 == 0 else -1.0

    def eigenvector(self, n: int, sign: int) -> np.ndarray:
        """Explicit eigenvector of the fiber matrix at edge (n, sign), unit norm."""
        p = self.p
        tau = cmath.exp(1j * math.pi * n / p)
        eps = self.a + tau
        f = np.zeros(2 * p, dtype=complex)
        if abs(eps) < 1e-13:
            pattern = (1, 1, -1, -1) if sign > 0 else (1, -1, -1, 1)
            for m in range(1, 2 * p + 1):
                f[m - 1] = pattern[(m - 1) % 4]
        else:
            nu = (1.0 if sign > 0 else -1.0) if n == p else math.copysign(1.0, n - p)
            theta = cmath.phase(eps)
            sgn = 1 if sign > 0 else -1
            for m in range(1, 2 * p + 1):
                if m % 2 == 1:
                    f[m - 1] = tau ** (sgn * ((m - 1) // 2)) * cmath.exp(sgn * 1j * theta)
                else:
                    f[m - 1] = nu * tau ** (sgn * (m // 2))
        return f / math.sqrt(2 * p)


def unperturbed_edges(a: float, p: int) -> UnperturbedEdges:
    if a < 0:
        raise InvalidInputError(f"bond magnitude must be nonnegative, got {a}")
    return UnperturbedEdges(a=float(a), p=int(p))


# ---------------------------------------------------------------------------
# armchair tube


def armchair_unperturbed(N: int, vt: float) -> BandStructure:
    """Closed-form armchair spectrum for the alternating two-site potential.

    Channel k covers +/-[sqrt(vt^2 + sin(pi k/N)^2), sqrt(5 + vt^2 + 4|cos(pi k/N)|)];
    the union is the hull +/-sqrt(9 + vt^2) minus the central gap (-|vt|, |vt|).
    """
    channels = []
    for k in range(1, N + 1):
        ck = math.cos(math.pi * k / N)
        sk = math.sin(math.pi * k / N)
        lo = math.sqrt(vt**2 + sk**2)
        hi = math.sqrt(5.0 + vt**2 + 4.0 * abs(ck))
        hi_in = math.sqrt(5.0 + vt**2 - 4.0 * abs(ck))
        bands = merge_intervals([(lo, hi), (lo, hi_in), (-hi, -lo), (-hi_in, -lo)])
        channels.append(ChannelBands(k=k, c_k=ck, bands=tuple(bands)))
    return assemble_band_structure(channels)


@dataclass(frozen=True)
class InclusionReport:
    """Spectral containment margins for the shifted-Schroedinger comparison."""

    armchair_ok: bool
    armchair_margin: float
    zigzag_checked: bool
    zigzag_ok: bool
    zigzag_margin: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.armchair_ok and (self.zigzag_ok or not self.zigzag_checked)


def shifted_schroedinger_inclusion(
    profile: PotentialProfile, N: int, tol: float = 1e-8
) -> InclusionReport:
    """Check the shifted Schroedinger containments for a rung-paired potential.

    (sigma(J) +/- 1) must lie inside the armchair spectrum (see
    ``asymptotics._shifted_overlay``).  For N divisible by 3 the zigzag tube
    with the p-periodic potential v_even contains sigma(J) outright through
    its unit-hopping channel.
    """
    v_even, j_bands, shifted, arm_bands = asy._shifted_overlay(profile, N)
    arm_ok, arm_margin = intervals_contain(arm_bands, shifted, tol=tol)

    zig_checked = N % 3 == 0
    zig_ok, zig_margin = True, math.inf
    if zig_checked:
        zig = ZigzagModel(N=N, b=0.0, potential=PotentialProfile(v_even), t=1.0)
        zig_bands = full_spectrum(zig).union_intervals()
        zig_ok, zig_margin = intervals_contain(zig_bands, j_bands, tol=tol)

    return InclusionReport(
        armchair_ok=arm_ok,
        armchair_margin=arm_margin,
        zigzag_checked=zig_checked,
        zigzag_ok=zig_ok,
        zigzag_margin=zig_margin,
        tolerance=tol,
    )


def armchair_cluster_center_errors(
    model_factory, k: int, ts
) -> dict[int, list[float]]:
    """|measured center - predicted| per position across couplings ts."""
    errors: dict[int, list[float]] = {}
    for t in ts:
        for pred, (lo, hi) in asy._armchair_clusters(model_factory(t), k):
            errors.setdefault(pred.j, []).append(abs(0.5 * (lo + hi) - pred.center))
    return errors
