"""Spectral engine: fiber matrices, one edge routine per channel kind, unions.

Every fiber matrix L(tau) of a channel comes from one stacked builder,
``fiber_matrices``: the multiplier-free period matrices of a stack of channels
are built once (``scalar_period_matrix`` from (C, m) coefficients,
``block_period_matrix`` from (C, 2, 2) hopping and (C, p, 2, 2) diagonal blocks) and
tau enters only through their wrap-around corner blocks, the multipliers
broadcast against the channels.

Scalar channels have one edge routine, ``periodic_jacobi_band_edges``: the
band edges of an m-periodic channel are the sorted eigenvalues of K(+1) and
K(-1), paired consecutively, and a stack of channels is solved in stacks of
FIBER_STACK / 2.  The levels are checked by the discrete Hill theorem, which
orders them ``+ - - + + - - + ...`` from the bottom for positive bonds; the
check reads only the solved levels.  The zigzag channels of a model, or of
every field step of a sweep, come back as arrays (``zigzag_channel_edges``):
the flat mask, the c_k and the (step, N, 2p) band edges, from which ``sweep``
writes its rows; ``zigzag_channels`` builds the ``ChannelBands`` of ``bands``
from the same arrays.

Block channels have one edge routine, ``spectrum_block_stack``.  They have no
edge rule, so their bands are the ranges of the sorted eigenvalue branches
over the unit circle, found by one level-set iteration (Boyd & Balakrishnan)
over every branch minimum and maximum of every channel -- of a model, or of
every field step of a sweep -- in lockstep.  The wrap block of a channel has
two rows, so det(L(theta) - E) is a trigonometric polynomial of degree 2 in
theta: the levels at 8 fixed multipliers give, for any level E, every theta
where some branch equals E.  A search probes the branch at the midpoint of
every arc between those crossings and moves E to the most extreme probe; the
round on which no probe beats E by more than rounding certifies it.  Each
probe pairs its own channel with its own multiplier, and one round solves
the probes of every search still running, one stack of FIBER_STACK at a
time.  There is no grid: the CLI's ``--grid`` is validated and not read.

The union over channels is built as numpy columns (``assemble_band_structure``):
the channel edges cut the energy axis into segments, each channel's bands
fuse into runs of segments, a cumulative sum of +1/-1 run events gives the
multiplicity of every segment, and where the runs start and end decides
exactly which adjacent entries have the same covering channels.  The fused
table is stored as lo, hi and multiplicity columns.
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .armchair import decompose_armchair
from .core import (
    FLAT_BRANCH_TOL, GAP_MERGE_TOL, HERMITIAN_TOL, LEVEL_ARC_TOL, LEVEL_ROOT_TOL, LEVEL_SET_STOP, UNIMODULAR_TOL,
    UNION_CUT_TOL, UNIT_ROUNDOFF, ArmchairModel, PotentialProfile, ZigzagModel, energy_scale, is_flat_channel,
)
from .errors import FlatBandChannelError, HillOrderError, InternalConsistencyError, InvalidParameterError
from .zigzag import channel_constants

FIBER_STACK = 64  # fiber matrices per eigvalsh call; bounds the memory of one stack


# ---------------------------------------------------------------------------
# interval utilities


def merge_intervals(intervals, gap_tol: float = GAP_MERGE_TOL) -> list[tuple[float, float]]:
    """Union of closed intervals, fusing those at most ``gap_tol`` apart: a gap is kept only above it."""
    ivs = sorted((float(lo), float(hi)) for lo, hi in intervals if hi >= lo)
    out: list[list[float]] = []
    for lo, hi in ivs:
        if out and lo - out[-1][1] <= gap_tol:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return [(lo, hi) for lo, hi in out]


def interval_gaps(intervals) -> list[tuple[float, float]]:
    """Open gaps between consecutive intervals of a merged list."""
    merged = merge_intervals(intervals)
    return [(merged[i][1], merged[i + 1][0]) for i in range(len(merged) - 1)]


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
# fiber matrices


def _check_unimodular(taus) -> np.ndarray:
    """The multipliers as a complex array; refuses any that is off the unit circle."""
    taus = np.asarray(taus, dtype=complex)
    off = np.abs(np.abs(taus) - 1.0) > UNIMODULAR_TOL
    if off.any():
        raise InvalidParameterError(
            f"quasi-momentum multiplier must be unimodular, got |tau| = {abs(taus[off][0])}"
        )
    return taus


def fiber_matrices(period, wrap, taus) -> np.ndarray:
    """Fiber matrices L(tau), as an array of shape ``S + (m, m)``.

    ``period`` is the m x m matrix of one period without its wrap-around
    coupling, ``wrap`` the r x r block W of that coupling; leading axes of
    both are a stack of channels.  The multipliers broadcast against those
    axes, and S is the broadcast shape: one period with T multipliers gives T
    matrices, C channels with C multipliers pair channel i with ``taus[i]``,
    and ``period[:, None]`` gives every channel at every multiplier.  L(tau)
    adds tau*W onto the lower-left r x r corner of the period matrix and
    conj(tau)*W^H onto the upper-right one, in that order and on those slices
    only: when the corners overlap the diagonal (m = r) or the bonds (m = 2r),
    the rounding of the sum depends on the order, and adding a zero elsewhere
    could flip the sign of a zero entry.

    Every matrix is checked to be Hermitian to HERMITIAN_TOL of its
    ``energy_scale``.  Off the corners it holds the period matrix's entries,
    and the corners mirror each other, so the residuals of the period
    matrices and of the corners cover every entry; only when one exceeds
    HERMITIAN_TOL is each matrix weighed against its own scale.
    """
    taus = _check_unimodular(taus)[..., None, None]
    m, r = period.shape[-1], wrap.shape[-1]
    corner = taus * wrap
    L = np.empty(np.broadcast(period[..., 0, 0], corner[..., 0, 0]).shape + (m, m), dtype=complex)
    L[...] = period
    lower, upper = L[..., m - r :, :r], L[..., :r, m - r :]
    lower += corner
    upper += np.swapaxes(corner.conj(), -1, -2)  # conj(tau) W^H, to the bit
    if max(_adjoint_mismatch(period, period), _adjoint_mismatch(lower, upper)) > HERMITIAN_TOL:
        residual = np.max(np.abs(L - np.conj(np.swapaxes(L, -1, -2))), axis=(-2, -1))
        if np.any(residual > HERMITIAN_TOL * energy_scale(L, axis=(-2, -1))):
            raise InternalConsistencyError("fiber matrix is not Hermitian")
    return L


def _adjoint_mismatch(a, b) -> float:
    """Largest entry of |a - b^H| over stacks of matrices (0 for empty stacks)."""
    return np.abs(a - np.swapaxes(np.conj(b), -1, -2)).max(initial=0.0)


def scalar_period_matrix(offdiag, diag) -> tuple[np.ndarray, np.ndarray]:
    """Period matrix and 1 x 1 wrap block of an m-periodic scalar Jacobi operator.

    offdiag[i] couples sites i and i+1; offdiag[m-1] is the wrap-around bond.
    Complex bonds are allowed (used before gauge reduction).  (C, m) arrays
    give the (C, m, m) and (C, 1, 1) stacks of C operators.
    """
    a = np.asarray(offdiag, dtype=complex)
    v = np.asarray(diag, dtype=float)
    m = v.shape[-1]
    K = np.zeros(v.shape + (m,), dtype=complex)
    i = np.arange(m)
    K[..., i, i] = v
    K[..., i[:-1], i[1:]] += a[..., : m - 1]
    K[..., i[1:], i[:-1]] += np.conj(a[..., : m - 1])
    return K, a[..., m - 1 :, None]


def block_period_matrix(a, d) -> tuple[np.ndarray, np.ndarray]:
    """Period matrices and 2 x 2 wrap blocks a^H of C block channels of one period p.

    ``a`` holds the (C, 2, 2) hopping blocks (below the diagonal; their
    adjoints sit above it) and ``d`` the (C, p, 2, 2) diagonal blocks, as
    ``decompose_armchair`` returns them; the result is the (C, 2p, 2p) and
    (C, 2, 2) stacks.
    """
    P = d.shape[1]
    wrap = np.conj(np.swapaxes(a, -1, -2))
    L = np.zeros((len(a), 2 * P, 2 * P), dtype=complex)
    for j in range(P):
        L[:, 2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = d[:, j]
    for j in range(P - 1):
        L[:, 2 * j + 2 : 2 * j + 4, 2 * j : 2 * j + 2] += a
        L[:, 2 * j : 2 * j + 2, 2 * j + 2 : 2 * j + 4] += wrap
    return L, wrap


# ---------------------------------------------------------------------------
# scalar band edges


def periodic_jacobi_band_edges(offdiag, diag) -> np.ndarray:
    """Sorted band edges of an m-periodic scalar Jacobi operator with positive bonds, or of a stack of them.

    The eigenvalues P of K(+1) and M of K(-1) interlace so that consecutive
    pairs of their sorted union bound the m bands.  (..., m) coefficients give
    (..., 2m) edges, solved in stacks of FIBER_STACK / 2 operators.  By the
    discrete Hill theorem (van Moerbeke, Invent. Math. 37, 1976) the sequence
    P0 M0 M1 P1 P2 M2 M3 P3 ... ascends, with P and M trading places for an
    odd m; where it falls by more than 8 * 2m * u * max|level| (u the
    UNIT_ROUNDOFF), ``HillOrderError`` names the first such operator.
    A fault smaller than that allowance passes: with the K(+1)/K(-1) labels
    swapped, an operator whose every band is narrower than the allowance
    (as at large potentials, where the bands are exponentially thin) still
    reads in order, and its edges rest on the eigensolver alone.
    """
    v = np.asarray(diag, dtype=float)
    shape, m = v.shape[:-1], v.shape[-1]
    a, v = np.broadcast_to(offdiag, v.shape).reshape(-1, m), v.reshape(-1, m)
    size = FIBER_STACK // 2
    periods = (scalar_period_matrix(a[i : i + size], v[i : i + size]) for i in range(0, len(v), size))
    solved = [np.linalg.eigvalsh(fiber_matrices(K[:, None], W[:, None], [1.0, -1.0])) for K, W in periods]
    levels = np.concatenate([np.empty((0, 2, m))] + solved).reshape(-1, 2 * m)  # the levels of K(+1), then of K(-1)
    j = np.arange(m)
    up = (j + m) % 2 == 0  # P_j is the lower end of band j: even j for an even m, odd j for an odd m
    hill = levels[:, np.stack([np.where(up, j, m + j), np.where(up, m + j, j)], axis=-1).ravel()]
    slack = 8 * 2 * m * UNIT_ROUNDOFF * np.max(np.abs(levels), axis=1)
    chans, at = np.nonzero(~(hill[:, 1:] - hill[:, :-1] >= -slack[:, None]))  # a NaN fails too
    if chans.size:
        c, i = int(chans[0]), int(at[0])
        raise HillOrderError(
            f"K(+1)/K(-1) levels out of Hill order: edge {i} = {hill[c, i]} lies above "
            f"edge {i + 1} = {hill[c, i + 1]} by more than {slack[c]:.3g}",
            c,
        )
    return np.sort(levels, axis=-1).reshape(shape + (2 * m,))


def schroedinger_band_edges(q) -> list[tuple[float, float]]:
    """Bands of the discrete Schroedinger operator with periodic potential q."""
    q = np.asarray(q, dtype=float)
    edges = periodic_jacobi_band_edges(np.ones_like(q), q)
    return [(edges[2 * i], edges[2 * i + 1]) for i in range(q.size)]


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
# block-channel branch ranges


LEVEL_SET_SAMPLES = 8  # multipliers exp(2 pi i j / 8) per channel: det(L - E) has 5 Fourier coefficients
LEVEL_SET_MAX_ROUNDS = 64  # rounds per search; a kink at least halves a search's distance to its extremum per round
SEARCH_CHUNK = 1024  # searches whose (8, 2p) samples are gathered at once; bounds the level-set temporaries


def _stacks(n: int, size: int = FIBER_STACK) -> list[slice]:
    """Consecutive slices of at most ``size`` of n items: FIBER_STACK probes make one eigensolve."""
    return [slice(i, i + size) for i in range(0, n, size)]


def _multipliers(thetas) -> np.ndarray:
    """exp(i*theta) of every theta.

    The multipliers come from ``cmath.exp`` because ``np.exp`` may differ from
    it in the last bit, which would change the printed edges.
    """
    return np.array([cmath.exp(1j * th) for th in thetas])


def _fiber_levels(fibers, chans, thetas):
    """(slice, levels) of each stack of FIBER_STACK probes: the sorted levels of channel ``chans[i]`` at ``thetas[i]``.

    ``fibers`` is the (period matrices, wrap blocks) pair of a stack of
    channels.  Each probe pairs its own channel with its own multiplier, and
    ``eigvalsh`` solves every matrix on its own, so a probe's levels do not
    depend on the probes that share its stack.
    """
    periods, wraps = fibers
    taus = _multipliers(thetas)
    for s in _stacks(len(taus)):
        yield s, np.linalg.eigvalsh(fiber_matrices(periods[chans[s]], wraps[chans[s]], taus[s]))


def _arc_midpoints(samples, level, at) -> np.ndarray:
    """Midpoints of the arcs into which the level crossings of each search cut the circle, NaN-padded to (search, 4).

    ``samples`` holds the (search, 8, 2p) levels of each search's channel at
    theta_j = 2 pi j / 8, ``level`` the level E of each search and ``at`` a
    theta where its branch equals E.  The wrap block has two rows, so
    det(L(theta) - E) = prod_i (E_i(theta) - E) is a real trigonometric
    polynomial of degree 2: one FFT of its samples gives c_0..c_2 exactly,
    and the roots tau = exp(i theta) of tau^2 det on the unit circle are the
    at most 4 crossings, where some branch meets E.  Each factor is divided
    by its largest magnitude over the samples, which moves no root and keeps
    the product from underflow.  The known root exp(i at) is divided out, so
    its neighbour, which closes the arc the search is closing in on, is found
    to rounding even where that arc is far narrower than the samples
    resolve.  The other roots are the eigenvalues of the cubic's companion
    matrix (none when it is not finite); one off the circle by more than
    LEVEL_ROOT_TOL crosses nothing.  Between consecutive crossings every
    branch stays on one side of E; an arc no wider than LEVEL_ARC_TOL is a
    tangency and has no midpoint.
    """
    factors = samples - level[:, None, None]
    norm = np.max(np.abs(factors), axis=1, keepdims=True)
    factors /= np.where(norm > 0.0, norm, 1.0)
    det = factors[..., 0].copy()
    for i in range(1, factors.shape[-1]):  # one product per sample, in the same order for every search
        det *= factors[..., i]
    c2, c1, c0 = np.fft.rfft(det)[:, 2::-1].T  # c_2, c_1, c_0 times 8; c_-k = conj(c_k), as det is real
    tau = _multipliers(at)
    quotient = [c2]  # of tau^2 det by (x - tau), highest power first, its remainder dropped
    for c in (c1, c0, np.conj(c1)):
        quotient.append(c + tau * quotient[-1])
    # a real det that vanishes at tau has quotient coefficients b_k = -conj(tau) conj(b_{3-k}): keep that
    # part of the rounded ones, so the quotient's simple roots on the circle stay on it
    quotient = np.stack(quotient, axis=1)
    quotient = 0.5 * (quotient - np.conj(tau)[:, None] * np.conj(quotient[:, ::-1]))
    companion = np.zeros((len(det), 3, 3), dtype=complex)
    companion[:, [1, 2], [0, 1]] = 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        companion[:, 0] = -quotient[:, 1:] / quotient[:, :1]
    finite = np.isfinite(companion).all(axis=(1, 2))
    roots = np.full((len(det), 4), np.nan, dtype=complex)
    roots[finite, 0] = tau[finite]
    roots[finite, 1:] = np.linalg.eigvals(companion[finite])
    on_circle = np.abs(np.abs(roots) - 1.0) <= LEVEL_ROOT_TOL
    start = np.sort(np.where(on_circle, np.angle(roots), np.nan), axis=1)  # NaN last
    count = on_circle.sum(axis=1)
    stop = np.append(start[:, 1:], np.full((len(det), 1), np.nan), axis=1)
    wraps = np.flatnonzero(count)
    stop[wraps, count[wraps] - 1] = start[wraps, 0] + 2.0 * np.pi  # the last arc ends at the first crossing
    return np.where(stop - start > LEVEL_ARC_TOL, 0.5 * (start + stop), np.nan)


def spectrum_block_stack(a, d) -> list[list[tuple[float, float]]]:
    """Bands of each of C block channels of one period: ranges of sorted eigenvalue branches.

    The channels are given by their hopping blocks ``a`` and diagonal blocks
    ``d`` (``block_period_matrix``).  Each sorted branch is continuous in the
    multiplier, so its range is an interval; ``_block_branch_ranges`` finds
    the ranges of every branch of every channel, and each channel's ranges
    are merged into its bands.
    """
    lo, hi = _block_branch_ranges(a, d)
    return [merge_intervals(zip(chan_lo, chan_hi)) for chan_lo, chan_hi in zip(lo, hi)]


def _block_branch_ranges(a, d) -> tuple[np.ndarray, np.ndarray]:
    """Minimum and maximum of every sorted eigenvalue branch, as two (channel, branch) arrays.

    One level-set iteration (Boyd & Balakrishnan, Syst. Control Lett. 15:1,
    1990) runs every (channel, branch, min/max) search in lockstep.  A search
    holds a level E, the most extreme value of its branch seen so far,
    starting from the first most extreme of the channel's 8 samples.  Each
    round probes the branch at every midpoint of ``_arc_midpoints`` and moves
    E to the most extreme probe.  An arc where the branch lies beyond E holds
    its midpoint beyond E, by nearly the whole depth near a smooth extremum
    and by at least half of it at a kink where two branches cross, so the
    round whose probes beat E by at most LEVEL_SET_STOP * u * scale (scale
    the ``energy_scale`` of the channel's samples) certifies E and stops the
    search.  One still running after LEVEL_SET_MAX_ROUNDS is an internal
    error.  Every step is elementwise per search or per probe, so a channel's
    ranges are the same bits whatever stack it is in.
    """
    fibers = block_period_matrix(a, d)
    C, m = fibers[0].shape[:2]
    thetas = 2.0 * np.pi * np.arange(LEVEL_SET_SAMPLES) / LEVEL_SET_SAMPLES
    solved = _fiber_levels(fibers, np.repeat(np.arange(C), LEVEL_SET_SAMPLES), np.tile(thetas, C))
    samples = np.concatenate([np.empty((0, m))] + [levels for _, levels in solved]).reshape(C, LEVEL_SET_SAMPLES, m)
    tol = LEVEL_SET_STOP * UNIT_ROUNDOFF * energy_scale(samples, axis=(1, 2))
    chans, rows = np.tile(np.repeat(np.arange(C), m), 2), np.tile(np.arange(m), 2 * C)
    signs = np.repeat([1.0, -1.0], C * m)  # a search minimises signs * branch
    seen = signs[:, None] * samples[chans, :, rows]
    first = np.argmin(seen, axis=1)  # the first most extreme sample: np.min may return either of 0.0 and -0.0
    best, at = seen[np.arange(chans.size), first], thetas[first]
    active = np.arange(chans.size)
    for _ in range(LEVEL_SET_MAX_ROUNDS):
        if not active.size:
            break
        parts = (active[s] for s in _stacks(active.size, SEARCH_CHUNK))
        mids = np.concatenate(
            [np.empty((0, 4))]
            + [_arc_midpoints(samples[chans[part]], signs[part] * best[part], at[part]) for part in parts]
        )
        search, arc = np.nonzero(~np.isnan(mids))
        probe = active[search]
        values = np.full(mids.shape, np.inf)
        for s, levels in _fiber_levels(fibers, chans[probe], mids[search, arc]):
            values[search[s], arc[s]] = signs[probe[s]] * levels[np.arange(len(levels)), rows[probe[s]]]
        pick = np.argmin(values, axis=1)
        found = values[np.arange(active.size), pick]
        beats = found < best[active] - tol[chans[active]]
        better = found < best[active]
        best[active[better]], at[active[better]] = found[better], mids[better, pick[better]]
        active = active[beats]
    if active.size:
        raise InternalConsistencyError(
            f"block-channel level-set search did not converge in {LEVEL_SET_MAX_ROUNDS} rounds "
            f"(channel {chans[active[0]]}, branch {rows[active[0]]})"
        )
    return best[: C * m].reshape(C, m), -best[C * m :].reshape(C, m)


# ---------------------------------------------------------------------------
# band-structure assembly


@dataclass(frozen=True)
class ChannelBands:
    """Bands, flat energies and gaps of one channel, with provenance.

    ``gaps`` are the gaps between the merged bands, each wider than
    GAP_MERGE_TOL.  They are computed once, when the channel is built: from
    the bands, unless the builder passes them (``zigzag_channels`` finds them
    for a whole stack of channels at once).
    """

    k: int
    c_k: float | None
    bands: tuple[tuple[float, float], ...]
    flat_bands: tuple[float, ...] = ()
    gaps: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        if self.gaps is None:
            object.__setattr__(self, "gaps", tuple(interval_gaps(self.bands)))

    def intervals(self) -> list[tuple[float, float]]:
        return list(self.bands) + [(e, e) for e in self.flat_bands]


def _column():
    """An empty column of the union table, as a dataclass default."""
    return field(default_factory=lambda: np.empty(0))


@dataclass(frozen=True, eq=False)
class BandStructure:
    """Per-channel bands plus their union with multiplicity accounting.

    The union is kept as columns, one row per union band: ``lo``, ``hi`` and
    ``multiplicity`` (2 per covering channel; inf marks a flat level).
    """

    channels: tuple[ChannelBands, ...]
    lo: np.ndarray = _column()
    hi: np.ndarray = _column()
    multiplicity: np.ndarray = _column()
    union_gaps: tuple[tuple[float, float], ...] = ()

    # kept only for ``bench/tracing.py``, whose ``_on_union`` reads its length; ROADMAP item 4's bench change deletes it
    @property
    def union_bands(self) -> list[tuple[float, float, float]]:
        return list(zip(self.lo.tolist(), self.hi.tolist(), self.multiplicity.tolist()))

    @property
    def flat_bands(self) -> list[tuple[float, int]]:
        return [(e, ch.k) for ch in self.channels for e in ch.flat_bands]

    def union_intervals(self) -> list[tuple[float, float]]:
        return list(zip(self.lo.tolist(), self.hi.tolist()))


def _spaced_cuts(cuts: np.ndarray) -> np.ndarray:
    """The sorted distinct ``cuts`` less each cut within UNION_CUT_TOL of the last one kept.

    The rule is sequential, but a cut more than UNION_CUT_TOL above its
    predecessor is always kept (it is further still from any kept cut below),
    so the loop visits only the cuts that lie within UNION_CUT_TOL of their
    predecessor.
    """
    keep = np.ones(cuts.size, dtype=bool)
    for i in (np.flatnonzero(np.diff(cuts) <= UNION_CUT_TOL) + 1).tolist():
        if keep[i - 1]:
            last = cuts[i - 1]
        keep[i] = cuts[i] - last > UNION_CUT_TOL
    return cuts[keep]


def assemble_band_structure(channels: list[ChannelBands]) -> BandStructure:
    """Merge per-channel bands into union bands with per-segment multiplicity.

    The union is cut at every channel edge (a cut within UNION_CUT_TOL of
    the last kept one is dropped) so that each reported union band has a
    constant covering-channel set.  Band b covers the segments whose
    midpoints lie in ``[lo_b - UNION_CUT_TOL, hi_b + UNION_CUT_TOL]``, a range
    ``[start, stop)`` that two ``searchsorted`` calls find.  Sorted by
    channel and start, each channel's overlapping or touching ranges fuse
    into runs (one running maximum of the stops, offset by channel), and a
    cumulative sum of the +1/-1 run events
    gives every segment's number of covering channels; the multiplicity is
    twice that.  Two consecutive covered segments have the same covering set
    exactly when no run starts or ends between them, apart from a channel's
    run ending and that channel's next run starting in the same gap.  A band
    thinner than the cut spacing that no segment holds becomes its own union
    band, and a flat level that nothing holds a degenerate one of infinite
    multiplicity; an entry is looked up by bisection in the segments and in
    the padded intervals of the entries added before it, which are kept
    fused into a sorted disjoint list.  Such an entry has one channel, and
    compares with a neighbour of its multiplicity by that channel alone; a
    segment covered by one channel takes it from a cumulative sum of
    +channel/-channel run events.  Each entry kept has its own ``lo``, so one
    stable sort merges the segments and the extra entries.  Adjacent entries
    with identical multiplicity and covering set that are at most
    GAP_MERGE_TOL apart are fused, and the gaps wider than GAP_MERGE_TOL
    between the fused bands are the union gaps (the rule of
    ``merge_intervals``).  Cost: O(B log B) for B channel bands, plus the
    list insertions of the extra entries.
    """
    ac = [(lo, hi, ch.k) for ch in channels for lo, hi in ch.bands if hi >= lo]
    flats = sorted((e, ch.k) for ch in channels for e in ch.flat_bands)
    blo, bhi = (np.array([band[i] for band in ac], dtype=float) for i in (0, 1))
    col = np.unique(np.array([band[2] for band in ac] + [k for _, k in flats], dtype=int), return_inverse=True)[1]

    cuts = _spaced_cuts(np.unique(np.concatenate([blo, bhi])))
    mids = 0.5 * (cuts[:-1] + cuts[1:])
    start = np.searchsorted(mids, blo - UNION_CUT_TOL, "left")
    stop = np.searchsorted(mids, bhi + UNION_CUT_TOL, "right")
    ranges = np.lexsort((start, col[: len(ac)]))
    ranges = ranges[start[ranges] < stop[ranges]]  # the ranges that cover a segment, by channel and start
    chan, start, stop = col[ranges], start[ranges], stop[ranges]
    span = mids.size + 1  # event positions 0..S; offset by channel, one running maximum fuses every channel's ranges
    reach = np.maximum.accumulate(stop + chan * span)
    first = np.flatnonzero(np.append(ranges.size > 0, start[1:] + chan[1:] * span > reach[:-1]))
    run_chan, run_start, run_stop = chan[first], start[first], np.maximum.reduceat(stop, first)

    def events(weights=None) -> np.ndarray:
        return np.cumsum(np.bincount(run_start, weights, span) - np.bincount(run_stop, weights, span))[:-1]

    count, solo = events(), events(run_chan)
    covered = count > 0
    rank = np.append(0, np.cumsum(covered))  # the covered segments below each event position
    # a run event at rank r changes the covering set from segment r - 1 to r unless its channel stops and restarts there
    restart = np.zeros(run_chan.size, dtype=bool)  # run j follows run j - 1 of its channel across one gap
    restart[1:] = (run_chan[1:] == run_chan[:-1]) & (rank[run_stop[:-1]] == rank[run_start[1:]])
    changed = np.zeros(rank[-1] + 1, dtype=bool)
    changed[rank[run_start[~restart]]] = changed[rank[run_stop[~np.roll(restart, -1)]]] = True
    seg_lo, seg_hi = cuts[:-1][covered], cuts[1:][covered]
    pad_lo, pad_hi = seg_lo - UNION_CUT_TOL, np.append(seg_hi + UNION_CUT_TOL, math.nan)  # ascending; nan never read

    def held_by_segments(x: np.ndarray) -> np.ndarray:
        i = np.searchsorted(pad_lo, x, "right")  # the segments [0, i) start at or below x
        return (i > 0) & (x <= pad_hi[i - 1])

    ex_lo: list[float] = []  # the padded extra entries, overlaps fused: disjoint and ascending
    ex_hi: list[float] = []
    extra: list[tuple[float, float, float, int]] = []  # (lo, hi, multiplicity, channel) of each extra entry

    def add(lo: float, hi: float, mult: float, chan: int, x: float) -> None:
        """Append an extra entry unless one appended before holds x within UNION_CUT_TOL."""
        i = bisect.bisect_right(ex_lo, x) - 1
        if i >= 0 and x <= ex_hi[i]:
            return
        extra.append((lo, hi, mult, chan))
        lo, hi = lo - UNION_CUT_TOL, hi + UNION_CUT_TOL
        i, j = bisect.bisect_left(ex_hi, lo), bisect.bisect_right(ex_lo, hi)  # [i, j) overlap it
        if i < j:
            lo, hi = min(lo, ex_lo[i]), max(hi, ex_hi[j - 1])
        ex_lo[i:j], ex_hi[i:j] = [lo], [hi]

    # a band thinner than the cut spacing may own no segment: keep it as its own
    mid = 0.5 * (blo + bhi)
    for i in np.flatnonzero((bhi - blo <= UNION_CUT_TOL) & ~held_by_segments(mid)).tolist():
        add(float(blo[i]), float(bhi[i]), 2.0, int(col[i]), float(mid[i]))
    # isolated flat energies become degenerate union bands of infinite multiplicity
    levels = np.array([e for e, _ in flats], dtype=float)
    for i in np.flatnonzero(~held_by_segments(levels)).tolist():
        add(flats[i][0], flats[i][0], math.inf, int(col[len(ac) + i]), flats[i][0])

    ex = np.array(extra, dtype=float).reshape(-1, 4)
    order = np.argsort(np.concatenate([seg_lo, ex[:, 0]]), kind="stable")
    lo = np.concatenate([seg_lo, ex[:, 0]])[order]
    hi = np.concatenate([seg_hi, ex[:, 1]])[order]
    mult = np.concatenate([2.0 * count[covered], ex[:, 2]])[order]
    solo = np.concatenate([solo[covered], ex[:, 3]])[order]  # the channel of a one-channel entry
    fresh = np.append(changed[: seg_lo.size], np.ones(len(extra), dtype=bool))[order]
    seg = order < seg_lo.size
    # equal multiplicities make both entries of a pair one-channel unless both are segments
    same = np.where(seg[1:] & seg[:-1], ~fresh[1:], solo[1:] == solo[:-1])

    # hi ascends with lo, so the fused band that entry i - 1 ends reaches hi[i - 1]
    joined = (lo[1:] - hi[:-1] <= GAP_MERGE_TOL) & (mult[1:] == mult[:-1]) & same
    first = np.flatnonzero(np.concatenate([[lo.size > 0], ~joined]))
    lo, hi, mult = lo[first], np.maximum.reduceat(hi, first), mult[first]
    gap = lo[1:] - hi[:-1] > GAP_MERGE_TOL
    gaps = tuple(zip(hi[:-1][gap].tolist(), lo[1:][gap].tolist()))
    return BandStructure(tuple(channels), lo, hi, mult, gaps)


# ---------------------------------------------------------------------------
# whole-model spectra


def _sorted_band_gaps(lo, hi) -> list[tuple[tuple[float, float], ...]]:
    """The gaps of each row of ascending bands ``(lo, hi)``: ``ChannelBands.gaps`` of that row, to the bit.

    Sorted edges give ascending bands whose upper edges ascend too, so band
    i + 1 starts a new merged band, and the gap below it is kept, exactly
    where ``merge_intervals`` does not fuse it: ``lo[i + 1] - hi[i] > GAP_MERGE_TOL``.
    """
    apart = lo[:, 1:] - hi[:, :-1] > GAP_MERGE_TOL
    pairs = list(zip(hi[:, :-1][apart].tolist(), lo[:, 1:][apart].tolist()))
    ends = np.cumsum(apart.sum(axis=1)).tolist()
    return [tuple(pairs[start:stop]) for start, stop in zip([0] + ends, ends)]


def zigzag_chain_edges(c_k, diag) -> np.ndarray:
    """Sorted band edges of gauge-reduced zigzag channels: bonds 1 and 2|c_k|, diagonal ``diag``.

    ``c_k`` of shape S and ``diag`` of shape S + (2p,) broadcast; the S + (4p,)
    edges come from one ``periodic_jacobi_band_edges`` call, band n (1-based)
    from edge 2n - 2 to edge 2n - 1.  A flat channel is refused.
    """
    c = np.asarray(c_k, dtype=float)
    if np.any(is_flat_channel(c)):
        raise FlatBandChannelError("flat-band channel: use flat_band_spectrum instead")
    diag = np.asarray(diag, dtype=float)
    bonds = np.ones(np.broadcast_shapes(c.shape + (1,), diag.shape))
    bonds[..., 1::2] = 2.0 * np.abs(c)[..., None]
    return periodic_jacobi_band_edges(bonds, np.broadcast_to(diag, bonds.shape))


def zigzag_channel_edges(models) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Band edges of every channel of each zigzag model, k = 1..N, as arrays.

    Returns the (M, N) flat mask and channel constants c_k of the M models
    and the (M, N, 2p) lower and upper edges of their channels' bands,
    ascending; the row of a flat channel (``is_flat_channel``) holds the 2p
    levels of its dimers as (e, e).  The models must share N and the
    potential period.  The dispersive channels of all models go to one
    ``zigzag_chain_edges`` call with each model's diagonal ``t * v``.  A
    channel that fails the Hill-order check is named by its field step (the
    index of its model) and k, the first in that order.
    """
    c_k = channel_constants(models)
    flat = is_flat_channel(c_k)
    diag = np.array([model.t * model.potential.period_values() for model in models])
    try:
        edges = zigzag_chain_edges(c_k[~flat], diag[np.nonzero(~flat)[0]])
    except HillOrderError as exc:  # name the channel by field step and k
        step, k = (np.argwhere(~flat)[exc.channel] + 1).tolist()
        where = f"field step {step} of {len(models)}, " if len(models) > 1 else ""
        raise InternalConsistencyError(f"{where}channel k = {k}: {exc}") from exc
    lo, hi = np.empty((2,) + flat.shape + diag.shape[-1:])
    lo[~flat], hi[~flat] = edges[:, 0::2], edges[:, 1::2]
    for step in np.flatnonzero(flat.any(axis=1)).tolist():
        lo[step, flat[step]] = hi[step, flat[step]] = flat_band_spectrum(models[step].potential, models[step].t)
    return flat, c_k, lo, hi


def zigzag_channels(models) -> list[list[ChannelBands]]:
    """Channel bands of each zigzag model, k = 1..N, without the union.

    ``ChannelBands`` of the rows of ``zigzag_channel_edges``: a flat
    channel's row gives its flat levels.  The gaps of all dispersive
    channels are found at once (``_sorted_band_gaps``).
    """
    if not models:
        return []
    flat, c_k, lo, hi = zigzag_channel_edges(models)
    gaps = iter(_sorted_band_gaps(lo[~flat], hi[~flat]))
    return [
        [
            ChannelBands(k=k, c_k=c, bands=(), flat_bands=tuple(row_lo))
            if is_flat
            else ChannelBands(k=k, c_k=c, bands=tuple(zip(row_lo, row_hi)), gaps=next(gaps))
            for k, (c, is_flat, row_lo, row_hi) in enumerate(zip(cs, fs, los, his), start=1)
        ]
        for cs, fs, los, his in zip(c_k.tolist(), flat.tolist(), lo.tolist(), hi.tolist())
    ]


def armchair_channels(models) -> list[list[ChannelBands]]:
    """Channel bands of each armchair model, k = 1..N, without the union.

    The block channels of all models go to one ``spectrum_block_stack``
    call, so the models must share N and their potential period.  A branch range
    thinner than FLAT_BRANCH_TOL is reported as a flat level.
    """
    bands = iter(spectrum_block_stack(*decompose_armchair(models)))
    return [
        [
            ChannelBands(
                k=k,
                c_k=math.cos(math.pi * k / model.N),
                bands=tuple((lo, hi) for lo, hi in chan if hi - lo >= FLAT_BRANCH_TOL),
                flat_bands=tuple(lo for lo, hi in chan if hi - lo < FLAT_BRANCH_TOL),
            )
            for k, chan in zip(range(1, model.N + 1), bands)
        ]
        for model in models
    ]


def full_spectrum(model) -> BandStructure:
    """Union band structure of a zigzag or armchair model over all channels."""
    if isinstance(model, ZigzagModel):
        (channels,) = zigzag_channels([model])
    elif isinstance(model, ArmchairModel):
        (channels,) = armchair_channels([model])
    else:
        raise TypeError(f"unsupported model type {type(model)!r}")
    return assemble_band_structure(channels)
