"""Spectral engine: transfer matrices, Floquet matrices, band extraction, unions.

Band edges of a 2p-periodic scalar channel are the eigenvalues of the
quasi-periodic matrices K(+1) and K(-1); sorting the combined 4p values and
pairing them consecutively yields the bands, with the discriminant kept as an
independent validator.  Block channels have no edge rule, so their bands are
the ranges of the sorted eigenvalue branches over the unit circle: the fiber
matrices of a grid of multipliers are assembled and diagonalised as stacks,
and the grid extrema of all branches are refined by golden-section searches
that advance together, one stacked eigensolve per iteration.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .armchair import BlockPeriodicJacobi, decompose_armchair
from .core import FLAT_CHANNEL_TOL, ArmchairModel, PotentialProfile, ZigzagModel
from .errors import (
    FlatBandChannelError,
    InternalConsistencyError,
    InvalidParameterError,
)
from .zigzag import ScalarPeriodicJacobi, decompose_zigzag

GAP_MERGE_TOL = 1e-9  # gaps thinner than this are reported as closed
UNIMODULAR_TOL = 1e-12


# ---------------------------------------------------------------------------
# interval utilities


def merge_intervals(intervals, gap_tol: float = GAP_MERGE_TOL) -> list[tuple[float, float]]:
    """Union of closed intervals, fusing overlaps and sub-tolerance gaps."""
    ivs = sorted((float(lo), float(hi)) for lo, hi in intervals if hi >= lo)
    out: list[list[float]] = []
    for lo, hi in ivs:
        if out and lo <= out[-1][1] + gap_tol:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return [(lo, hi) for lo, hi in out]


def interval_gaps(intervals) -> list[tuple[float, float]]:
    """Open gaps between consecutive intervals of a merged list."""
    merged = merge_intervals(intervals)
    return [(merged[i][1], merged[i + 1][0]) for i in range(len(merged) - 1)]


def intervals_contain(container, inner, tol: float = 1e-8) -> tuple[bool, float]:
    """Whether every inner interval sits inside one container interval.

    Returns (ok, margin): margin is the worst coverage slack, negative when
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


def max_edge_deviation(bands_a, bands_b) -> float:
    """Max absolute endpoint mismatch between two band lists; inf if counts differ."""
    a = merge_intervals(bands_a)
    b = merge_intervals(bands_b)
    if len(a) != len(b):
        return math.inf
    if not a:
        return 0.0
    return max(
        max(abs(x[0] - y[0]), abs(x[1] - y[1])) for x, y in zip(a, b)
    )


# ---------------------------------------------------------------------------
# Floquet matrices


@dataclass(frozen=True)
class FloquetMatrix:
    """Finite Hermitian matrix of one quasi-momentum fiber."""

    matrix: np.ndarray
    tau: complex

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)


def _check_unimodular(taus) -> np.ndarray:
    """The multipliers as a complex array; refuses any that is off the unit circle."""
    taus = np.asarray(taus, dtype=complex)
    off = np.abs(np.abs(taus) - 1.0) > UNIMODULAR_TOL
    if off.any():
        raise InvalidParameterError(
            f"quasi-momentum multiplier must be unimodular, got |tau| = {abs(taus[off][0])}"
        )
    return taus


def floquet_matrix(offdiag, diag, tau: complex) -> np.ndarray:
    """m x m fiber matrix of an m-periodic Jacobi operator with bonds offdiag.

    offdiag[i] couples sites i and i+1; offdiag[m-1] is the wrap-around bond
    and enters the corners scaled by tau.  Hermitian for |tau| = 1; complex
    bonds are allowed (used before gauge reduction).
    """
    tau = complex(_check_unimodular(tau))
    a = np.asarray(offdiag, dtype=complex)
    v = np.asarray(diag, dtype=float)
    m = v.size
    K = np.zeros((m, m), dtype=complex)
    K[np.arange(m), np.arange(m)] = v
    for i in range(m - 1):
        K[i, i + 1] += a[i]
        K[i + 1, i] += np.conj(a[i])
    K[m - 1, 0] += tau * a[m - 1]
    K[0, m - 1] += np.conj(tau * a[m - 1])
    return K


def floquet_scalar(jac: ScalarPeriodicJacobi, tau: complex) -> FloquetMatrix:
    """Fiber matrix K(tau) + diag(v) of a gauge-reduced scalar channel."""
    return FloquetMatrix(floquet_matrix(jac.a, jac.v, tau), complex(tau))


def _block_fibers(block: BlockPeriodicJacobi, taus) -> np.ndarray:
    """Stack of 2p x 2p fiber matrices L(tau) of a block channel, one per multiplier.

    The terms are added in a fixed order (diagonal blocks, bonds, then the
    tau-scaled corners) because for p = 1 the corners land on the diagonal
    block, and the rounding of the sum depends on that order.
    """
    taus = _check_unimodular(taus).reshape(-1, 1, 1)
    P = block.p
    a = block.a_block
    L = np.zeros((taus.shape[0], 2 * P, 2 * P), dtype=complex)
    for j in range(P):
        L[:, 2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = block.d_blocks[j]
    for j in range(P - 1):
        L[:, 2 * j + 2 : 2 * j + 4, 2 * j : 2 * j + 2] += a
        L[:, 2 * j : 2 * j + 2, 2 * j + 2 : 2 * j + 4] += a.conj().T
    L[:, 2 * P - 2 : 2 * P, 0:2] += taus * a.conj().T
    L[:, 0:2, 2 * P - 2 : 2 * P] += np.conj(taus) * a
    residual = np.max(np.abs(L - np.conj(np.swapaxes(L, 1, 2))), axis=(1, 2))
    if np.any(residual > 1e-12 * np.maximum(1.0, np.max(np.abs(L), axis=(1, 2)))):
        raise InternalConsistencyError("block fiber matrix is not Hermitian")
    return L


def floquet_block(block: BlockPeriodicJacobi, tau: complex) -> FloquetMatrix:
    """2p x 2p fiber matrix of a block channel with constant off-diagonal block."""
    return FloquetMatrix(_block_fibers(block, [tau])[0], complex(tau))


# ---------------------------------------------------------------------------
# monodromy / discriminant


def monodromy(jac: ScalarPeriodicJacobi, z: float) -> np.ndarray:
    """One-period transfer matrix of the three-term recurrence at energy z."""
    a = jac.a
    if np.min(a) <= FLAT_CHANNEL_TOL:
        raise FlatBandChannelError("monodromy undefined for a flat-band channel (vanishing bond)")
    m = 2 * jac.p
    M = np.eye(2)
    for i in range(m):
        step = np.array(
            [[0.0, 1.0], [-a[(i - 1) % m] / a[i], (z - jac.v[i]) / a[i]]]
        )
        M = step @ M
    return M


def discriminant(jac: ScalarPeriodicJacobi, z: float) -> float:
    """Half-trace of the monodromy matrix; the spectrum is its [-1, 1] preimage."""
    M = monodromy(jac, z)
    return 0.5 * (M[0, 0] + M[1, 1])


# ---------------------------------------------------------------------------
# scalar band edges


def periodic_jacobi_band_edges(offdiag, diag) -> np.ndarray:
    """Sorted band edges of an m-periodic scalar Jacobi operator.

    The 2m periodic/anti-periodic eigenvalues interlace so that consecutive
    pairs of the sorted union bound the m bands.
    """
    edges = np.concatenate(
        [
            np.linalg.eigvalsh(floquet_matrix(offdiag, diag, 1.0)),
            np.linalg.eigvalsh(floquet_matrix(offdiag, diag, -1.0)),
        ]
    )
    return np.sort(edges)


def schroedinger_band_edges(q) -> list[tuple[float, float]]:
    """Bands of the discrete Schroedinger operator with periodic potential q."""
    q = np.asarray(q, dtype=float)
    edges = periodic_jacobi_band_edges(np.ones_like(q), q)
    return [(edges[2 * i], edges[2 * i + 1]) for i in range(q.size)]


def band_edges_scalar(jac: ScalarPeriodicJacobi, validate: bool = True) -> list[tuple[float, float]]:
    """Bands of one scalar channel from the K(+/-1) eigenvalues.

    Validates against the discriminant: |D| <= 1 on band midpoints and
    |D| > 1 on midpoints of open gaps.
    """
    if jac.is_flat:
        raise FlatBandChannelError("flat-band channel: use flat_band_spectrum instead")
    edges = periodic_jacobi_band_edges(jac.a, jac.v)
    bands = [(edges[2 * i], edges[2 * i + 1]) for i in range(2 * jac.p)]
    if validate:
        scale = max(1.0, float(np.max(np.abs(edges))))
        for lo, hi in bands:
            if hi - lo > 1e-12 * scale:
                d = discriminant(jac, 0.5 * (lo + hi))
                if abs(d) > 1.0 + 1e-8:
                    raise InternalConsistencyError(
                        f"discriminant {d} exceeds 1 inside band [{lo}, {hi}]"
                    )
        for i in range(len(bands) - 1):
            glo, ghi = bands[i][1], bands[i + 1][0]
            if ghi - glo > 1e-6 * scale:
                d = discriminant(jac, 0.5 * (glo + ghi))
                if abs(d) <= 1.0:
                    raise InternalConsistencyError(
                        f"discriminant {d} inside [-1,1] at open gap ({glo}, {ghi})"
                    )
    return bands


def flat_band_spectrum(profile: PotentialProfile, t: float) -> np.ndarray:
    """Flat-band energies of a channel with vanishing even bonds.

    The chain splits into unit-bond dimers; pair j contributes
    t*(v+) +/- sqrt((t*(v-))^2 + 1) with v+- the half-sum/half-difference of
    (v[2j], v[2j+1]).  Sorted, each value has infinite multiplicity.
    """
    pairs = t * profile.pairs()
    vplus = 0.5 * (pairs[:, 0] + pairs[:, 1])
    vminus = 0.5 * (pairs[:, 0] - pairs[:, 1])
    root = np.sqrt(vminus**2 + 1.0)
    return np.sort(np.concatenate([vplus - root, vplus + root]))


# ---------------------------------------------------------------------------
# block-channel sweep


FIBER_STACK = 64  # fiber matrices per eigvalsh call; bounds the memory of one stack
INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _first_min(x, y) -> np.ndarray:
    """Elementwise ``min(x, y)`` with Python's tie rule: x unless y is smaller.

    ``np.minimum`` may return either of 0.0 and -0.0 on a tie, and the two
    print differently.
    """
    return np.where(y < x, y, x)


def _fiber_levels(block: BlockPeriodicJacobi, thetas) -> np.ndarray:
    """Sorted eigenvalues of L(exp(i*theta)) for each theta, as a (len(thetas), 2p) array.

    The multipliers come from ``cmath.exp`` because ``np.exp`` may differ from
    it in the last bit, which would change the printed edges.
    """
    taus = [cmath.exp(1j * th) for th in thetas]
    return np.concatenate(
        [
            np.linalg.eigvalsh(_block_fibers(block, taus[i : i + FIBER_STACK]))
            for i in range(0, len(taus), FIBER_STACK)
        ]
    )


def _branch_values(block: BlockPeriodicJacobi, thetas, rows) -> np.ndarray:
    """Eigenvalue ``rows[i]`` of the fiber matrix at ``thetas[i]``, for every i."""
    return _fiber_levels(block, thetas)[np.arange(len(rows)), rows]


def _golden_extrema(block, lo, hi, rows, signs, tol: float = 1e-10) -> np.ndarray:
    """Extreme values of eigenvalue branches by golden-section search, in lockstep.

    Search i minimises ``signs[i] * E_rows[i](theta)`` on ``[lo[i], hi[i]]`` and
    returns the extreme value of the branch.  Each search keeps its own
    bracket and stop rule; one iteration solves the new probes of all
    searches still running as one stack.
    """
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    c = b - INVPHI * (b - a)
    d = a + INVPHI * (b - a)
    fc = signs * _branch_values(block, c, rows)
    fd = signs * _branch_values(block, d, rows)
    active = np.flatnonzero(b - a > tol)
    while active.size:
        to_left = fc[active] < fd[active]
        left, right = active[to_left], active[~to_left]  # keep [a, d] or [c, b]
        b[left], d[left], fd[left] = d[left], c[left], fc[left]
        c[left] = b[left] - INVPHI * (b[left] - a[left])
        a[right], c[right], fc[right] = c[right], d[right], fd[right]
        d[right] = a[right] + INVPHI * (b[right] - a[right])
        probes = np.concatenate([left, right])
        values = signs[probes] * _branch_values(
            block, np.concatenate([c[left], d[right]]), rows[probes]
        )
        fc[left], fd[right] = values[: left.size], values[left.size :]
        active = active[b[active] - a[active] > tol]
    return signs * _first_min(fc, fd)


def spectrum_block(
    block: BlockPeriodicJacobi, grid_size: int = 512
) -> list[tuple[float, float]]:
    """Bands of a block channel: ranges of sorted eigenvalue branches over the circle.

    Each sorted branch is continuous in the multiplier, so its range is an
    interval.  The grid of fiber matrices is solved in stacks; then the grid
    minimum and maximum of every non-constant branch are refined by
    golden-section searches that run in lockstep, one stacked eigensolve per
    iteration, before the branch ranges are merged.
    """
    if grid_size < 16 or grid_size & (grid_size - 1) != 0:
        raise InvalidParameterError(f"grid size must be a power of two >= 16, got {grid_size}")
    thetas = 2.0 * np.pi * np.arange(grid_size) / grid_size
    levels = _fiber_levels(block, thetas)
    step = 2.0 * np.pi / grid_size
    size = 2 * block.p
    i_min, i_max = np.argmin(levels, axis=0), np.argmax(levels, axis=0)
    grid_lo, grid_hi = levels[i_min, np.arange(size)], levels[i_max, np.arange(size)]
    constant = grid_hi - grid_lo < 1e-13 * np.maximum(1.0, np.max(np.abs(levels), axis=0))
    rows = np.flatnonzero(~constant)
    lo, hi = grid_lo.copy(), grid_hi.copy()  # a constant branch keeps its grid value
    if rows.size:
        centres = np.concatenate([thetas[i_min[rows]], thetas[i_max[rows]]])
        signs = np.repeat([1.0, -1.0], rows.size)
        extrema = _golden_extrema(
            block, centres - step, centres + step, np.concatenate([rows, rows]), signs
        )
        lo[rows] = _first_min(extrema[: rows.size], grid_lo[rows])
        hi[rows] = -_first_min(-extrema[rows.size :], -grid_hi[rows])  # max(x, y), same tie rule
    return merge_intervals(zip(lo, hi))


# ---------------------------------------------------------------------------
# band-structure assembly


@dataclass(frozen=True)
class ChannelBands:
    """Bands, flat energies and gaps of one channel, with provenance."""

    k: int
    c_k: float | None
    bands: tuple[tuple[float, float], ...]
    flat_bands: tuple[float, ...] = ()

    @property
    def gaps(self) -> list[tuple[float, float]]:
        return [g for g in interval_gaps(self.bands) if g[1] - g[0] >= GAP_MERGE_TOL]

    def intervals(self) -> list[tuple[float, float]]:
        return list(self.bands) + [(e, e) for e in self.flat_bands]


@dataclass(frozen=True)
class UnionBand:
    lo: float
    hi: float
    multiplicity: float  # 2 per covering channel; math.inf marks a flat band
    channels: tuple[int, ...]


@dataclass(frozen=True)
class BandStructure:
    """Per-channel bands plus their union with multiplicity accounting."""

    channels: tuple[ChannelBands, ...]
    union_bands: tuple[UnionBand, ...] = field(default=())
    union_gaps: tuple[tuple[float, float], ...] = field(default=())

    @property
    def flat_bands(self) -> list[tuple[float, int]]:
        return [(e, ch.k) for ch in self.channels for e in ch.flat_bands]

    def union_intervals(self) -> list[tuple[float, float]]:
        return [(b.lo, b.hi) for b in self.union_bands]

    def hull(self) -> tuple[float, float]:
        ivs = self.union_intervals()
        return (ivs[0][0], ivs[-1][1]) if ivs else (math.nan, math.nan)

    def to_json_dict(self) -> dict:
        return {
            "channels": [
                {
                    "k": ch.k,
                    "c_k": ch.c_k,
                    "bands": [[lo, hi] for lo, hi in ch.bands],
                    "flat_bands": list(ch.flat_bands),
                    "gaps": [[lo, hi] for lo, hi in ch.gaps],
                }
                for ch in self.channels
            ],
            "union": {
                "bands": [
                    {
                        "lo": b.lo,
                        "hi": b.hi,
                        "multiplicity": "inf" if math.isinf(b.multiplicity) else int(b.multiplicity),
                    }
                    for b in self.union_bands
                ],
                "gaps": [[lo, hi] for lo, hi in self.union_gaps],
            },
        }


def assemble_band_structure(channels: list[ChannelBands]) -> BandStructure:
    """Merge per-channel bands into union bands with per-segment multiplicity.

    The union is cut at every channel edge so that each reported union band
    has a constant covering-channel set; adjacent segments with identical
    provenance are fused, and gaps thinner than the merge tolerance vanish.
    """
    ac = [(lo, hi, ch.k) for ch in channels for lo, hi in ch.bands if hi >= lo]
    flats = [(e, ch.k) for ch in channels for e in ch.flat_bands]

    segments: list[tuple[float, float, float, tuple[int, ...]]] = []
    if ac:
        cuts = np.unique(np.array([x for lo, hi, _ in ac for x in (lo, hi)]))
        keep = [cuts[0]]
        for x in cuts[1:]:
            if x - keep[-1] > 1e-12:
                keep.append(float(x))
        for lo, hi in zip(keep[:-1], keep[1:]):
            mid = 0.5 * (lo + hi)
            covering = tuple(sorted({k for blo, bhi, k in ac if blo - 1e-12 <= mid <= bhi + 1e-12}))
            if covering:
                segments.append((lo, hi, 2.0 * len(covering), covering))
        # a band thinner than the cut spacing may own no segment: keep it as its own
        for blo, bhi, k in ac:
            if bhi - blo <= 1e-12:
                mid = 0.5 * (blo + bhi)
                if not any(lo - 1e-12 <= mid <= hi + 1e-12 for lo, hi, _, _ in segments):
                    segments.append((blo, bhi, 2.0, (k,)))

    # isolated flat energies become degenerate union bands of infinite multiplicity
    for e, k in sorted(flats):
        inside = any(lo - 1e-12 <= e <= hi + 1e-12 for lo, hi, _, _ in segments)
        if not inside:
            segments.append((e, e, math.inf, (k,)))
    segments.sort()

    fused: list[list] = []
    for lo, hi, mult, ks in segments:
        if fused and lo - fused[-1][1] <= GAP_MERGE_TOL and fused[-1][2] == mult and fused[-1][3] == ks:
            fused[-1][1] = max(fused[-1][1], hi)
        else:
            fused.append([lo, hi, mult, ks])

    union_bands = tuple(UnionBand(lo, hi, mult, ks) for lo, hi, mult, ks in fused)
    gaps = []
    for (l1, h1, _, _), (l2, h2, _, _) in zip(fused[:-1], fused[1:]):
        if l2 - h1 >= GAP_MERGE_TOL:
            gaps.append((h1, l2))
    return BandStructure(tuple(channels), union_bands, tuple(gaps))


# ---------------------------------------------------------------------------
# whole-model spectra


def zigzag_channel_bands(jac: ScalarPeriodicJacobi, k: int) -> ChannelBands:
    if jac.is_flat:
        profile_pairs = jac.v.reshape(jac.p, 2)
        vplus = 0.5 * profile_pairs.sum(axis=1)
        vminus = 0.5 * (profile_pairs[:, 0] - profile_pairs[:, 1])
        root = np.sqrt(vminus**2 + 1.0)
        flats = np.sort(np.concatenate([vplus - root, vplus + root]))
        return ChannelBands(k=k, c_k=jac.c_k, bands=(), flat_bands=tuple(float(e) for e in flats))
    bands = band_edges_scalar(jac)
    return ChannelBands(k=k, c_k=jac.c_k, bands=tuple(bands))


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


def full_spectrum(model, grid_size: int = 512) -> BandStructure:
    """Union band structure of a zigzag or armchair model over all channels."""
    if isinstance(model, ZigzagModel):
        channels = [
            zigzag_channel_bands(jac, k)
            for k, jac in enumerate(decompose_zigzag(model), start=1)
        ]
    elif isinstance(model, ArmchairModel):
        channels = []
        for k, block in enumerate(decompose_armchair(model), start=1):
            bands = spectrum_block(block, grid_size=grid_size)
            ac_bands = tuple((lo, hi) for lo, hi in bands if hi - lo >= 1e-12)
            flats = tuple(lo for lo, hi in bands if hi - lo < 1e-12)
            channels.append(
                ChannelBands(k=k, c_k=math.cos(math.pi * k / model.N), bands=ac_bands, flat_bands=flats)
            )
    else:
        raise TypeError(f"unsupported model type {type(model)!r}")
    return assemble_band_structure(channels)
