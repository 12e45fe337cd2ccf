"""Closed forms and checks that only the tests use, each an independent reference for the engine.

* ``reference_merge`` and ``reference_gaps``: the one-interval-at-a-time
  merge of (lo, hi) pairs and its gaps;
* ``max_edge_deviation`` and ``clip_intervals``: the list forms of the band-set
  comparison and window clip of the ``asym`` regimes, which read columns, and
  ``low_energy_window_measure`` and ``small_v_armchair_measure``: each report's
  measured value of those two regimes, from (lo, hi) pairs and loops;
* ``schroedinger_band_edges`` and ``shifted_overlay``: the bands of a periodic
  Schroedinger operator, and their copies shifted by -1 and +1, as (lo, hi)
  pairs;
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
* ``predict_large_t_zigzag`` and ``predict_large_t_armchair``: the
  strong-coupling cluster predictors one position at a time, the bit-for-bit
  reference of the package's predictors, which take a whole channel at once;
* ``armchair_unperturbed``: the exact armchair spectrum of the alternating
  two-site potential;
* ``ChannelBands`` and ``channels_of``: the per-channel view of the columns
  of a ``BandStructure`` that the tests read, with ``structure_of`` its
  inverse, and ``union_intervals`` and ``union_gaps`` as lists of pairs;
* ``csv_lines``: rows written as CSV lines by the CLI's float rule, spelled
  here apart from the CLI (``float_text``), the reference of its row writers.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from nanotube_bands import asymptotics as asy
from nanotube_bands.armchair import decompose_armchair
from nanotube_bands.core import PotentialProfile, ZigzagModel, is_flat_channel
from nanotube_bands.errors import InvalidInputError
from nanotube_bands.spectral import (
    GAP_MERGE_TOL, BandStructure, band_structure, block_branch_ranges, channel_rows, full_spectrum,
    periodic_jacobi_band_edges,
)


# ---------------------------------------------------------------------------
# intervals and channel relabelling


def reference_merge(intervals, gap_tol: float = GAP_MERGE_TOL) -> list[tuple[float, float]]:
    """The one-interval-at-a-time merge that ``spectral.fuse_rows`` replaced, kept as its exact reference.

    The intervals (those with hi >= lo) are sorted, and each fuses into the
    band before it unless it starts more than ``gap_tol`` above that band's
    upper edge, which is the first of the largest upper edges fused into it.
    """
    ivs = sorted((float(lo), float(hi)) for lo, hi in intervals if hi >= lo)
    out: list[list[float]] = []
    for lo, hi in ivs:
        if out and lo - out[-1][1] <= gap_tol:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return [(lo, hi) for lo, hi in out]


def reference_gaps(intervals) -> list[tuple[float, float]]:
    """The gaps between consecutive bands of ``reference_merge``: the gaps of a ``ChannelBands`` built by merging."""
    merged = reference_merge(intervals)
    return [(merged[i][1], merged[i + 1][0]) for i in range(len(merged) - 1)]


def max_edge_deviation(bands_a, bands_b) -> float:
    """Largest endpoint difference between two lists of (lo, hi) pairs, each merged; inf if the band counts differ.

    The list form of ``asymptotics._edge_deviation``, kept as its reference.
    """
    a = reference_merge(bands_a)
    b = reference_merge(bands_b)
    if len(a) != len(b):
        return math.inf
    if not a:
        return 0.0
    return max(max(abs(x[0] - y[0]), abs(x[1] - y[1])) for x, y in zip(a, b))


def clip_intervals(intervals, lo: float, hi: float) -> list[tuple[float, float]]:
    """The parts of the (lo, hi) pairs that lie inside (lo, hi): the list form of ``asymptotics._clip``."""
    return [(max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi]


def low_energy_window_measure(structure: BandStructure, window, channel: int | None) -> float:
    """The measured value of a ``low_energy_window`` report of ``window`` and ``channel``, from (lo, hi) pairs.

    A channel's window compares the clipped union with the clipped bands of
    the channel; the central gap (channel None) sums the clipped union band
    lengths in order and counts the flat levels inside.
    """
    lo, hi = window
    union = clip_intervals(union_intervals(structure), lo, hi)
    if channel is None:
        levels = [e for ch in channels_of(structure) for e in ch.flat_bands]
        return sum(b - a for a, b in union) + sum(lo <= e <= hi for e in levels)
    return max_edge_deviation(union, clip_intervals(channels_of(structure)[channel - 1].bands, lo, hi))


def small_v_armchair_measure(profile: PotentialProfile, N: int, structure: BandStructure, params: dict) -> float:
    """The measured value of the ``small_v_armchair`` report of ``params`` at N, from (lo, hi) pairs.

    A gap report takes the union gap reaching into its window whose centre
    lies nearest the shifted first-order gap's, in units of that gap's width;
    the overlay report compares the clipped union with the clipped overlay
    of the Schroedinger bands shifted by -1 and +1.
    """
    wlo, whi = params["window"]
    if "n" not in params:
        shifted = shifted_overlay(profile.pairs()[:, 0])
        return max_edge_deviation(clip_intervals(union_intervals(structure), wlo, whi), clip_intervals(shifted, wlo, whi))
    pred = asy.predict_small_v_armchair(profile, N)
    glo, ghi = pred.gap_lo[params["n"] - 1], pred.gap_hi[params["n"] - 1]
    center = 0.5 * ((glo + params["shift"]) + (ghi + params["shift"]))
    best = None
    for mlo, mhi in union_gaps(structure):
        if mhi < wlo or mlo > whi:
            continue
        off = abs(0.5 * (mlo + mhi) - center)
        if best is None or off < best:
            best = off
    return float(best / (ghi - glo)) if best is not None else math.inf


def schroedinger_band_edges(q) -> list[tuple[float, float]]:
    """Bands of the discrete Schroedinger operator with periodic potential q, as (lo, hi) pairs."""
    q = np.asarray(q, dtype=float)
    edges = periodic_jacobi_band_edges(np.ones_like(q), q)
    return [(edges[2 * i], edges[2 * i + 1]) for i in range(q.size)]


def shifted_overlay(q) -> list[tuple[float, float]]:
    """The Schroedinger bands of q shifted by -1 and by +1, merged: the list form of ``asymptotics._shifted_overlay``."""
    return reference_merge([(lo + shift, hi + shift) for shift in (-1.0, 1.0) for lo, hi in schroedinger_band_edges(q)])


# ---------------------------------------------------------------------------
# per-channel views of a BandStructure, and the CSV rows of the CLI


@dataclass(frozen=True)
class ChannelBands:
    """Bands, flat levels and gaps of one channel, as pairs and levels."""

    k: int
    c_k: float | None
    bands: tuple[tuple[float, float], ...]
    flat_bands: tuple[float, ...] = ()
    gaps: tuple[tuple[float, float], ...] = ()


def channels_of(structure: BandStructure) -> tuple[ChannelBands, ...]:
    """A ``ChannelBands`` of every channel of ``structure``, read from its columns."""
    s = structure
    bands, flats, gaps = ([[] for _ in range(len(s.c_k))] for _ in range(3))
    for c, lo, hi, is_flat in zip(s.chan.tolist(), s.row_lo.tolist(), s.row_hi.tolist(), s.flat.tolist()):
        if is_flat:
            flats[c].append(lo)
        else:
            bands[c].append((lo, hi))
    for c, lo, hi in zip(s.gap_chan.tolist(), s.gap_lo.tolist(), s.gap_hi.tolist()):
        gaps[c].append((lo, hi))
    return tuple(
        ChannelBands(k=c + 1, c_k=ck, bands=tuple(bands[c]), flat_bands=tuple(flats[c]), gaps=tuple(gaps[c]))
        for c, ck in enumerate(s.c_k.tolist())
    )


def union_intervals(structure: BandStructure) -> list[tuple[float, float]]:
    """The union bands of ``structure`` as (lo, hi) pairs."""
    return list(zip(structure.lo.tolist(), structure.hi.tolist()))


def union_gaps(structure: BandStructure) -> tuple[tuple[float, float], ...]:
    """The union gaps of ``structure`` as (lo, hi) pairs."""
    return tuple(zip(structure.union_gap_lo.tolist(), structure.union_gap_hi.tolist()))


def structure_of(channels) -> BandStructure:
    """The ``band_structure`` of hand-built ``ChannelBands``: channel k at k - 1, a missing one empty.

    The rows are every channel's bands in the order given, then its flat
    levels as (e, e), so the union reads the bands in the order the former
    ``assemble_band_structure`` read them; the channel gaps are found from
    the rows, not read from ``ChannelBands.gaps``.
    """
    c_k = np.full(max([ch.k for ch in channels], default=0), None, dtype=object)
    for ch in channels:
        c_k[ch.k - 1] = ch.c_k
    rows = [(ch.k - 1, lo, hi, False) for ch in channels for lo, hi in ch.bands]
    rows += [(ch.k - 1, e, e, True) for ch in channels for e in ch.flat_bands]
    chan, lo, hi, flat = (np.array([row[i] for row in rows], dtype=dtype) for i, dtype in enumerate((int, float, float, bool)))
    return band_structure(c_k, chan, lo, hi, flat)


def step_channels(models) -> list[tuple[ChannelBands, ...]]:
    """The ``ChannelBands`` of every channel of each model, viewed from one ``channel_rows`` call over all of them."""
    c_k, chan, lo, hi, flat = channel_rows(models)
    N = c_k.shape[-1]
    steps = [chan // N == s for s in range(len(models))]
    return [
        channels_of(band_structure(c_k[s], chan[at] - s * N, lo[at], hi[at], flat[at])) for s, at in enumerate(steps)
    ]


def float_text(x: float, sig: int) -> str:
    """``x`` as the CLI writes a float: ``sig`` significant digits, or "inf", "-inf" or "nan" in double quotes."""
    return f"{x:.{sig}g}" if math.isfinite(x) else f'"{float(x)}"'


def csv_lines(rows, sig: int) -> list[str]:
    """Each row as a line of comma-separated fields: a float by ``float_text``, any other field as ``str`` writes it."""
    return [",".join(float_text(x, sig) if isinstance(x, float) else str(x) for x in row) for row in rows]


def intervals_contain(container, inner, tol: float = 1e-8) -> tuple[bool, float]:
    """Whether every inner interval sits inside one container interval.

    Returns (ok, margin): margin is the worst containment slack, negative when
    some inner interval pokes out by that amount.
    """
    outer = reference_merge(container, gap_tol=tol)
    worst = math.inf
    for lo, hi in reference_merge(inner):
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
        bands = reference_merge([(lo, hi), (lo, hi_in), (-hi, -lo), (-hi_in, -lo)])
        channels.append(ChannelBands(k=k, c_k=ck, bands=tuple(bands)))
    return structure_of(channels)


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
    (lo, hi), armchair = asy._shifted_overlay(profile, N)
    arm_ok, arm_margin = intervals_contain(union_intervals(armchair), list(zip(lo.tolist(), hi.tolist())), tol=tol)

    zig_checked = N % 3 == 0
    zig_ok, zig_margin = True, math.inf
    if zig_checked:
        v_even = profile.pairs()[:, 0]
        zig = ZigzagModel(N=N, b=0.0, potential=PotentialProfile(v_even), t=1.0)
        zig_bands = union_intervals(full_spectrum(zig))
        zig_ok, zig_margin = intervals_contain(zig_bands, schroedinger_band_edges(v_even), tol=tol)

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
        model = model_factory(t)
        pred = asy.predict_large_t_armchair(model.potential, k, t, model.N, model.phases)
        a, d = decompose_armchair([model])
        (lo,), (hi,) = block_branch_ranges(a[k - 1 : k], d[k - 1 : k])
        centers = 0.5 * (lo + hi)[pred.band_rank - 1]
        for j, error in enumerate(np.abs(centers - pred.center).tolist(), start=1):
            errors.setdefault(j, []).append(error)
    return errors


# ---------------------------------------------------------------------------
# strong-coupling clusters, one position at a time: the reference of the
# array predictors in ``asymptotics``, which must match it bit for bit


@dataclass(frozen=True)
class LargeTZigzagPrediction:
    n: int                 # 1-based position in the 2p-periodic sequence
    band_rank: int         # 1-based band index the cluster occupies
    center: float
    width: float
    window: tuple[float, float]
    dressing: float        # second-order center shift coefficient


def _bond(i: int, a: float, period: int) -> float:
    return 1.0 if i % period % 2 == 0 else a


def predict_large_t_zigzag(
    profile: PotentialProfile, c_k: float, n: int, t: float
) -> LargeTZigzagPrediction:
    """Strong-coupling cluster attached to the n-th potential value.

    The band center sits at t*v_n minus a second-order dressing by the two
    adjacent bonds; the width decays as t^(1-2p) with the inverse product of
    value separations.  The window half-size delta/t is derived from the same
    dressing bound plus the width, so it contains the band for every channel.
    """
    if is_flat_channel(c_k):
        raise InvalidInputError("flat-band channel: clusters are single points")
    if t <= 0:
        raise InvalidInputError("strong-coupling regime needs t > 0")
    p = profile.p
    m = 2 * p
    vals = profile.period_values()
    if not 1 <= n <= m:
        raise InvalidInputError(f"position n must lie in 1..{m}, got {n}")
    asy._check_distinct(vals)
    a = 2.0 * abs(c_k)
    i = n - 1
    left = _bond(i - 1, a, m) ** 2 / (vals[(i - 1) % m] - vals[i])
    right = _bond(i, a, m) ** 2 / (vals[(i + 1) % m] - vals[i])
    dressing = left + right
    sep = float(np.prod(np.abs(np.delete(vals, i) - vals[i])))
    try:
        power = t ** (m - 1)
    except OverflowError:  # the width is below the float range: 0
        power = math.inf
    width = 4.0 * a**p / (sep * power)

    deltas = []
    for jj in range(m):
        dl = abs(_bond(jj - 1, a, m)) ** 2 / abs(vals[(jj - 1) % m] - vals[jj])
        dr = abs(_bond(jj, a, m)) ** 2 / abs(vals[(jj + 1) % m] - vals[jj])
        halfwidth_t = 2.0 * a**p / float(np.prod(np.abs(np.delete(vals, jj) - vals[jj])))
        deltas.append(dl + dr + halfwidth_t)
    delta = max(deltas) + 0.5
    rank = int(np.sum(vals < vals[i])) + 1
    return LargeTZigzagPrediction(
        n=n,
        band_rank=rank,
        center=float(t * vals[i] - dressing / t),
        width=float(width),
        window=(float(t * vals[i] - delta / t), float(t * vals[i] + delta / t)),
        dressing=float(dressing),
    )


@dataclass(frozen=True)
class LargeTArmchairPrediction:
    j: int                  # 1-based position in the potential array
    band_rank: int
    center: float
    width: float
    phase_weight: float     # 2 Re(s^k exp(i(b1+b2-2b3)))


def cluster_product_set(q: int, i: int) -> list[int]:
    """0-based positions sharing the winding product with position i (period q)."""
    cls = {1, 2} if i % 4 in (1, 2) else {3, 0}
    return [j for j in range(q) if j % 4 in cls]


def predict_large_t_armchair(
    profile: PotentialProfile,
    k: int,
    j: int,
    t: float,
    N: int,
    phases: tuple[float, float, float] = (0.0, 0.0, 0.0),
) -> LargeTArmchairPrediction:
    """Strong-coupling cluster attached to the j-th value of a 4m-periodic potential.

    Every position couples to three neighbours (offsets -1/+1/+3 from even
    0-based positions, -3/-1/+1 from odd ones), which fixes the 1/t dressing.
    No three-step loop exists on this graph, so the 1/t^2 coefficient of the
    centre vanishes and the residual is O(1/t^3).  The width comes from the
    shortest winding paths and decays as t^(1-q/2) with the inverse product of
    separations over the positions sharing the winding class.
    """
    q = profile.q
    if q % 4 != 0 or q < 12:
        raise InvalidInputError("cluster law needs a 4m-periodic potential with m > 2")
    if t <= 0:
        raise InvalidInputError("strong-coupling regime needs t > 0")
    vals = np.asarray(profile.values, dtype=float)
    asy._check_distinct(vals)
    if not 1 <= j <= q:
        raise InvalidInputError(f"position j must lie in 1..{q}, got {j}")
    i = j - 1

    def V(ell: int) -> float:
        return 1.0 / (vals[(i + ell) % q] - vals[i])

    offsets = (-1, 1, 3) if i % 2 == 0 else (-3, -1, 1)
    dressing = sum(V(ell) for ell in offsets)
    b1, b2, b3 = phases
    s_k = cmath.exp(2j * math.pi * k / N)
    weight = 2.0 * (s_k * cmath.exp(1j * (b1 + b2 - 2 * b3))).real
    prod = np.prod([vals[i] - vals[nn] for nn in cluster_product_set(q, i) if nn != i])
    width = 4.0 / (t ** (q // 2 - 1) * abs(float(prod)))
    rank = int(np.sum(vals < vals[i])) + 1
    return LargeTArmchairPrediction(
        j=j,
        band_rank=rank,
        center=float(t * vals[i] - dressing / t),
        width=float(width),
        phase_weight=weight,
    )
