"""Spectral engine: fiber matrices, one edge routine per channel kind, unions.

Every fiber matrix L(tau) of a channel comes from one stacked builder,
``fiber_matrices``: the multiplier-free period matrices of a stack of channels
are built once (``scalar_period_matrix`` from (C, m) coefficients,
``block_period_matrix`` from a sequence of block channels of one period) and
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
over the unit circle: the fiber matrices of a grid of multipliers are
diagonalised as stacks, channel by channel, and the grid extrema of all
branches of all channels -- of a model, or of every field step of a sweep --
are refined by safeguarded Newton searches in theta that advance together.
theta enters a fiber matrix only through its wrap corners, so one ``eigh``
per probe gives the branch value, its slope (Hellmann-Feynman) and its
curvature; a bracket around the grid point is bisected wherever Newton cannot
be trusted, as at kinks where two branches cross.  Each probe pairs its own
channel with its own multiplier, and one iteration solves and reduces the
probes of every search still running one stack of FIBER_STACK at a time.

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
from .core import FLAT_CHANNEL_TOL, ArmchairModel, PotentialProfile, ZigzagModel
from .errors import (
    HillOrderError,
    InternalConsistencyError,
    InvalidParameterError,
)
from .zigzag import channel_bonds

GAP_MERGE_TOL = 1e-9  # gaps thinner than this are reported as closed
UNIMODULAR_TOL = 1e-12
FIBER_STACK = 64  # fiber matrices per eigvalsh call; bounds the memory of one stack


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

    Every matrix is checked to be Hermitian to 1e-12 of max(1, its largest
    entry).  Off the corners it holds the period matrix's entries, and the
    corners mirror each other, so the residuals of the period matrices and
    of the corners cover every entry; only when one exceeds 1e-12 is each
    matrix weighed against its own scale.
    """
    taus = _check_unimodular(taus)[..., None, None]
    m, r = period.shape[-1], wrap.shape[-1]
    corner = taus * wrap
    L = np.empty(np.broadcast(period[..., 0, 0], corner[..., 0, 0]).shape + (m, m), dtype=complex)
    L[...] = period
    lower, upper = L[..., m - r :, :r], L[..., :r, m - r :]
    lower += corner
    upper += np.swapaxes(corner.conj(), -1, -2)  # conj(tau) W^H, to the bit
    if max(_adjoint_mismatch(period, period), _adjoint_mismatch(lower, upper)) > 1e-12:
        residual = np.max(np.abs(L - np.conj(np.swapaxes(L, -1, -2))), axis=(-2, -1))
        if np.any(residual > 1e-12 * np.maximum(1.0, np.max(np.abs(L), axis=(-2, -1)))):
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


def block_period_matrix(blocks) -> tuple[np.ndarray, np.ndarray]:
    """Period matrices and 2 x 2 wrap blocks a^H of a stack of C block channels of one period.

    Returns the (C, 2p, 2p) and (C, 2, 2) stacks; channels of different
    periods are refused.
    """
    P = blocks[0].p
    if any(block.p != P for block in blocks):
        raise ValueError("block channels of one stack must share their period")
    a = np.stack([block.a_block for block in blocks])
    d = np.stack([block.d_blocks for block in blocks])
    wrap = np.conj(np.swapaxes(a, -1, -2))
    L = np.zeros((len(blocks), 2 * P, 2 * P), dtype=complex)
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
    odd m; where it falls by more than 8 * 2m * u * max|level| (u = 2**-53,
    the unit roundoff), ``HillOrderError`` names the first such operator.
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
    slack = 8 * 2 * m * 2.0**-53 * np.max(np.abs(levels), axis=1)
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
    return _dimer_levels(t * profile.pairs())


def _dimer_levels(pairs) -> np.ndarray:
    """Sorted levels v+ -/+ sqrt(v-^2 + 1) of unit-bond dimers with on-site (p, 2) ``pairs``."""
    vplus = 0.5 * (pairs[:, 0] + pairs[:, 1])
    vminus = 0.5 * (pairs[:, 0] - pairs[:, 1])
    root = np.sqrt(vminus**2 + 1.0)
    return np.sort(np.concatenate([vplus - root, vplus + root]))


# ---------------------------------------------------------------------------
# block-channel sweep


NEWTON_TOL = 1e-10  # a Newton search stops once its next step or its bracket is this small
NEWTON_MAX_ITER = 100  # probes per search; bisection alone needs at most 33 on a grid-16 bracket


def _first_min(x, y) -> np.ndarray:
    """Elementwise ``min(x, y)`` with Python's tie rule: x unless y is smaller.

    ``np.minimum`` may return either of 0.0 and -0.0 on a tie, and the two
    print differently.
    """
    return np.where(y < x, y, x)


def _stacks(n: int) -> list[slice]:
    """Consecutive slices of at most FIBER_STACK of n probes, one eigensolve each."""
    return [slice(i, i + FIBER_STACK) for i in range(0, n, FIBER_STACK)]


def _multipliers(thetas) -> np.ndarray:
    """exp(i*theta) of every theta.

    The multipliers come from ``cmath.exp`` because ``np.exp`` may differ from
    it in the last bit, which would change the printed edges.
    """
    return np.array([cmath.exp(1j * th) for th in thetas])


def _branch_derivatives(fibers, chans, thetas, rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalue ``rows[i]`` of channel ``chans[i]`` at ``thetas[i]`` and its first two theta derivatives.

    ``fibers`` is the (period matrices, wrap blocks) pair of a stack of
    channels.  Each probe pairs its own channel with its own multiplier.  The
    probes are solved and reduced one stack of FIBER_STACK at a time
    (``_stack_derivatives``), so only one stack's eigenvectors are held at
    once, and no temporary of the reduction reaches numpy's 256 KiB
    threshold for computing an expression in place (64 KiB at 2p = 32), which
    would round some products differently: a probe's values do not depend on
    its stack.
    """
    taus = _multipliers(thetas)
    parts = [_stack_derivatives(fibers, chans[s], taus[s], rows[s]) for s in _stacks(len(taus))]
    return tuple(np.concatenate(values) for values in zip(*parts))


def _stack_derivatives(fibers, chans, taus, rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_branch_derivatives`` of one stack of probes, given their multipliers ``taus``.

    One ``eigh`` solves every matrix of the stack on its own, and the
    derivatives are elementwise sums over the probe's own vectors.  theta
    enters only through the corners: L' holds i*tau*W on the lower-left one
    and -i*conj(tau)*W^H on the upper-right, L'' holds -tau*W and
    -conj(tau)*W^H there.  Then E' = v^H L' v (Hellmann-Feynman) and
    E'' = v^H L'' v + 2 sum_{j != r} |v_j^H L' v|^2 / (E_r - E_j); at p = 1
    both corners are the whole matrix, so their terms are added, never one
    in place of the other.  A degenerate level gives a non-finite E''.
    """
    periods, wraps = fibers
    levels, vectors = np.linalg.eigh(fiber_matrices(periods[chans], wraps[chans], taus))
    i = np.arange(len(rows))
    m, r = vectors.shape[-1], wraps.shape[-1]
    wrap, v = wraps[chans], vectors[i, :, rows]
    top, bot = v[:, :r], v[:, m - r :]
    w_top = (wrap * top[:, None, :]).sum(-1)  # W v_top
    wh_bot = (wrap.conj() * bot[:, :, None]).sum(-2)  # W^H v_bot
    g = taus * (bot.conj() * w_top).sum(-1)  # tau v_bot^H W v_top: E' = -2 Im g, v^H L'' v = -2 Re g
    # every V_j^H L' v, the lower-left corner's term plus the upper-right one's
    coupling = (vectors[:, m - r :, :].conj() * (1j * taus[:, None] * w_top)[:, :, None]).sum(1) + (
        vectors[:, :r, :].conj() * (-1j * taus.conj()[:, None] * wh_bot)[:, :, None]
    ).sum(1)
    level = levels[i, rows]
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = (coupling.real**2 + coupling.imag**2) / (level[:, None] - levels)
    terms[i, rows] = 0.0
    return level, -2.0 * g.imag, -2.0 * g.real + 2.0 * terms.sum(-1)


def _newton_extrema(fibers, chans, centres, step, rows, signs) -> np.ndarray:
    """Extreme values of eigenvalue branches by safeguarded Newton searches in theta, in lockstep.

    Search i minimises f = ``signs[i] * E_rows[i](theta)`` of channel
    ``chans[i]`` from ``centres[i]`` inside the bracket
    ``[centres[i] - step, centres[i] + step]`` and returns the most extreme
    branch value it probed.  Each probe gives f, f' and f''; the sign of f'
    moves one end of the bracket to the probe (at a maximum, f' = 0 > f'',
    the upper end).  The next probe is the Newton step when f'' > 0, the
    step lands strictly inside the bracket and it is at most half the step
    before last, else the midpoint of the bracket.  A Newton step of at most
    NEWTON_TOL is taken even where it fails those tests, and the search
    stops on it: once a search has converged its step rounds to zero, and
    the probe stays on the bracket end that the last probe moved to it.
    Bisection converges on kinks where two branches cross and on
    near-degenerate branches; the
    step rule (that of Numerical Recipes' ``rtsafe``) keeps Newton from
    cycling across a kink between two convex pieces.  A search stops once
    its next step or its bracket is at most NEWTON_TOL; one still running
    after NEWTON_MAX_ITER probes is an internal error.  Each search keeps its
    own bracket and stop rule; one iteration solves the probes of all
    searches still running, of every channel, as stacks.
    """
    theta = np.array(centres, dtype=float)
    lo, hi = theta - step, theta + step
    best = np.full(theta.shape, np.inf)
    last = hi - lo  # the last step of each search
    before = last.copy()  # and the one before it
    active = np.arange(theta.size)
    for _ in range(NEWTON_MAX_ITER):
        if not active.size:
            break
        sign, th = signs[active], theta[active]
        f, df, ddf = (sign * x for x in _branch_derivatives(fibers, chans[active], th, rows[active]))
        best[active] = _first_min(best[active], f)
        descends_left = (df > 0) | ((df == 0) & (ddf < 0))
        hi[active[descends_left]] = th[descends_left]
        lo[active[df < 0]] = th[df < 0]
        a, b = lo[active], hi[active]
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = th - df / ddf
        step_ok = (a < newton) & (newton < b) & (np.abs(newton - th) <= 0.5 * before[active])
        usable = (ddf > 0) & (step_ok | (np.abs(newton - th) <= NEWTON_TOL))  # a converged step may round to 0
        theta[active] = np.where(usable, newton, 0.5 * (a + b))
        moved = np.abs(theta[active] - th)
        before[active], last[active] = last[active], moved
        active = active[(moved > NEWTON_TOL) & (b - a > NEWTON_TOL)]
    if active.size:
        raise InternalConsistencyError(
            f"block-channel edge search did not converge in {NEWTON_MAX_ITER} probes "
            f"(bracket {hi[active[0]] - lo[active[0]]:.3g} around theta {theta[active[0]]!r})"
        )
    return signs * best


def spectrum_block_stack(blocks, grid_size: int = 512) -> list[list[tuple[float, float]]]:
    """Bands of each of many block channels of one period: ranges of sorted eigenvalue branches.

    Each sorted branch is continuous in the multiplier, so its range is an
    interval; ``_block_branch_ranges`` finds the ranges of every branch of
    every channel, and each channel's ranges are merged into its bands.
    """
    lo, hi = _block_branch_ranges(blocks, grid_size)
    return [merge_intervals(zip(chan_lo, chan_hi)) for chan_lo, chan_hi in zip(lo, hi)]


def _block_branch_ranges(blocks, grid_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Minimum and maximum of every sorted eigenvalue branch, as two (channel, branch) arrays.

    Channel by channel, the grid of fiber matrices is solved in stacks and
    only the grid minimum and maximum of each branch and their thetas are
    kept.  Then the grid minimum and maximum of every non-constant branch of
    every channel are refined by safeguarded Newton searches that all run in
    one lockstep loop (``_newton_extrema``), each seeded at its grid point
    within one grid step either side; a refined value replaces the grid one
    only when it is more extreme.
    """
    if grid_size < 16 or grid_size & (grid_size - 1) != 0:
        raise InvalidParameterError(f"grid size must be a power of two >= 16, got {grid_size}")
    thetas = 2.0 * np.pi * np.arange(grid_size) / grid_size
    taus = _multipliers(thetas)
    fibers = block_period_matrix(blocks)
    shape = (len(blocks), 2 * blocks[0].p)  # (channel, branch)
    grid_lo, grid_hi, theta_lo, theta_hi = (np.empty(shape) for _ in range(4))
    moving = np.empty(shape, dtype=bool)
    for chan in range(len(blocks)):
        period, wrap = fibers[0][chan], fibers[1][chan]
        levels = np.concatenate(
            [np.linalg.eigvalsh(fiber_matrices(period, wrap, taus[s])) for s in _stacks(grid_size)]
        )
        i_min, i_max = np.argmin(levels, axis=0), np.argmax(levels, axis=0)
        grid_lo[chan], grid_hi[chan] = levels[i_min, np.arange(shape[1])], levels[i_max, np.arange(shape[1])]
        theta_lo[chan], theta_hi[chan] = thetas[i_min], thetas[i_max]
        scale = np.maximum(1.0, np.max(np.abs(levels), axis=0))
        moving[chan] = ~(grid_hi[chan] - grid_lo[chan] < 1e-13 * scale)
    chans, rows = np.nonzero(moving)
    n = chans.size
    centres = np.concatenate([theta_lo[moving], theta_hi[moving]])
    signs = np.repeat([1.0, -1.0], n)
    step = 2.0 * np.pi / grid_size
    extrema = _newton_extrema(fibers, np.tile(chans, 2), centres, step, np.tile(rows, 2), signs)
    lo, hi = grid_lo.copy(), grid_hi.copy()  # a constant branch keeps its grid value
    lo[moving] = _first_min(extrema[:n], grid_lo[moving])
    hi[moving] = -_first_min(-extrema[n:], -grid_hi[moving])  # max(x, y), same tie rule
    return lo, hi


# ---------------------------------------------------------------------------
# band-structure assembly


@dataclass(frozen=True)
class ChannelBands:
    """Bands, flat energies and gaps of one channel, with provenance.

    ``gaps`` are the gaps of at least GAP_MERGE_TOL between the merged bands.
    They are computed once, when the channel is built: from the bands, unless
    the builder passes them (``zigzag_channels`` finds them for a whole stack
    of channels at once).
    """

    k: int
    c_k: float | None
    bands: tuple[tuple[float, float], ...]
    flat_bands: tuple[float, ...] = ()
    gaps: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        if self.gaps is None:
            gaps = tuple(g for g in interval_gaps(self.bands) if g[1] - g[0] >= GAP_MERGE_TOL)
            object.__setattr__(self, "gaps", gaps)

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
    """The sorted distinct ``cuts`` less each cut within 1e-12 of the last one kept.

    The rule is sequential, but a cut more than 1e-12 above its predecessor
    is always kept (it is further still from any kept cut below), so the
    loop visits only the cuts that lie within 1e-12 of their predecessor.
    """
    keep = np.ones(cuts.size, dtype=bool)
    for i in (np.flatnonzero(np.diff(cuts) <= 1e-12) + 1).tolist():
        if keep[i - 1]:
            last = cuts[i - 1]
        keep[i] = cuts[i] - last > 1e-12
    return cuts[keep]


def assemble_band_structure(channels: list[ChannelBands]) -> BandStructure:
    """Merge per-channel bands into union bands with per-segment multiplicity.

    The union is cut at every channel edge (a cut within 1e-12 of the last
    kept one is dropped) so that each reported union band has a constant
    covering-channel set.  Band b covers the segments whose midpoints lie in
    ``[lo_b - 1e-12, hi_b + 1e-12]``, a range ``[start, stop)`` that two
    ``searchsorted`` calls find.  Sorted by channel and start, each channel's
    overlapping or touching ranges fuse into runs (one running maximum of the
    stops, offset by channel), and a cumulative sum of the +1/-1 run events
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
    GAP_MERGE_TOL apart are fused, and the gaps of at least GAP_MERGE_TOL
    between the fused bands are the union gaps.  Cost: O(B log B) for B
    channel bands, plus the list insertions of the extra entries.
    """
    ac = [(lo, hi, ch.k) for ch in channels for lo, hi in ch.bands if hi >= lo]
    flats = sorted((e, ch.k) for ch in channels for e in ch.flat_bands)
    blo, bhi = (np.array([band[i] for band in ac], dtype=float) for i in (0, 1))
    col = np.unique(np.array([band[2] for band in ac] + [k for _, k in flats], dtype=int), return_inverse=True)[1]

    cuts = _spaced_cuts(np.unique(np.concatenate([blo, bhi])))
    mids = 0.5 * (cuts[:-1] + cuts[1:])
    start, stop = np.searchsorted(mids, blo - 1e-12, "left"), np.searchsorted(mids, bhi + 1e-12, "right")
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
    pad_lo, pad_hi = seg_lo - 1e-12, np.append(seg_hi + 1e-12, math.nan)  # ascending; the nan is never read

    def held_by_segments(x: np.ndarray) -> np.ndarray:
        i = np.searchsorted(pad_lo, x, "right")  # the segments [0, i) start at or below x
        return (i > 0) & (x <= pad_hi[i - 1])

    ex_lo: list[float] = []  # the padded extra entries, overlaps fused: disjoint and ascending
    ex_hi: list[float] = []
    extra: list[tuple[float, float, float, int]] = []  # (lo, hi, multiplicity, channel) of each extra entry

    def add(lo: float, hi: float, mult: float, chan: int, x: float) -> None:
        """Append an extra entry unless one appended before holds x within 1e-12."""
        i = bisect.bisect_right(ex_lo, x) - 1
        if i >= 0 and x <= ex_hi[i]:
            return
        extra.append((lo, hi, mult, chan))
        lo, hi = lo - 1e-12, hi + 1e-12
        i, j = bisect.bisect_left(ex_hi, lo), bisect.bisect_right(ex_lo, hi)  # [i, j) overlap it
        if i < j:
            lo, hi = min(lo, ex_lo[i]), max(hi, ex_hi[j - 1])
        ex_lo[i:j], ex_hi[i:j] = [lo], [hi]

    # a band thinner than the cut spacing may own no segment: keep it as its own
    mid = 0.5 * (blo + bhi)
    for i in np.flatnonzero((bhi - blo <= 1e-12) & ~held_by_segments(mid)).tolist():
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
    gap = lo[1:] - hi[:-1] >= GAP_MERGE_TOL
    gaps = tuple(zip(hi[:-1][gap].tolist(), lo[1:][gap].tolist()))
    return BandStructure(tuple(channels), lo, hi, mult, gaps)


# ---------------------------------------------------------------------------
# whole-model spectra


def _sorted_band_gaps(lo, hi) -> list[tuple[tuple[float, float], ...]]:
    """The gaps of each row of ascending bands ``(lo, hi)``: ``ChannelBands.gaps`` of that row, to the bit.

    Sorted edges give ascending bands whose upper edges ascend too, so band
    i + 1 starts a new merged band exactly where ``merge_intervals`` does not
    fuse it, ``lo[i + 1] > hi[i] + GAP_MERGE_TOL``, and the gap between them
    is kept when ``lo[i + 1] - hi[i] >= GAP_MERGE_TOL``.
    """
    apart = (lo[:, 1:] > hi[:, :-1] + GAP_MERGE_TOL) & (lo[:, 1:] - hi[:, :-1] >= GAP_MERGE_TOL)
    pairs = list(zip(hi[:, :-1][apart].tolist(), lo[:, 1:][apart].tolist()))
    ends = np.cumsum(apart.sum(axis=1)).tolist()
    return [tuple(pairs[start:stop]) for start, stop in zip([0] + ends, ends)]


def zigzag_channel_edges(models) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Band edges of every channel of each zigzag model, k = 1..N, as arrays.

    Returns the (M, N) flat mask and channel constants c_k of the M models
    and the (M, N, 2p) lower and upper edges of their channels' bands,
    ascending; the row of a flat channel holds the 2p levels of its dimers
    as (e, e).  The models must share N and the potential period.  The
    channels of all models are built as one stack: the moduli of their
    ``channel_bonds`` (the gauge that strips the phases keeps the spectrum)
    and each model's diagonal ``t * v``.  A channel is flat when a bond is at
    or below FLAT_CHANNEL_TOL, which splits its chain into dimers.  The
    dispersive channels go to one ``periodic_jacobi_band_edges`` call.  A
    channel that fails the Hill-order check is named by its field step (the
    index of its model) and k, the first in that order.
    """
    bonds, c_k = channel_bonds(models)
    a = np.abs(bonds)
    flat = np.min(a, axis=-1) <= FLAT_CHANNEL_TOL
    diag = np.array([model.t * model.potential.period_values() for model in models])
    try:
        edges = periodic_jacobi_band_edges(a[~flat], np.broadcast_to(diag[:, None], a.shape)[~flat])
    except HillOrderError as exc:  # name the channel by field step and k
        step, k = (np.argwhere(~flat)[exc.channel] + 1).tolist()
        where = f"field step {step} of {len(models)}, " if len(models) > 1 else ""
        raise InternalConsistencyError(f"{where}channel k = {k}: {exc}") from exc
    lo, hi = np.empty((2,) + a.shape)
    lo[~flat], hi[~flat] = edges[:, 0::2], edges[:, 1::2]
    for step in np.flatnonzero(flat.any(axis=1)).tolist():
        lo[step, flat[step]] = hi[step, flat[step]] = _dimer_levels(diag[step].reshape(-1, 2))
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


def armchair_channels(models, grid_size: int = 512) -> list[list[ChannelBands]]:
    """Channel bands of each armchair model, k = 1..N, without the union.

    The block channels of all models go to one ``spectrum_block_stack``
    call, so the models must share their potential period.  A branch range
    thinner than 1e-12 is reported as a flat level.
    """
    blocks = [block for model in models for block in decompose_armchair(model)]
    bands = iter(spectrum_block_stack(blocks, grid_size))
    return [
        [
            ChannelBands(
                k=k,
                c_k=math.cos(math.pi * k / model.N),
                bands=tuple((lo, hi) for lo, hi in chan if hi - lo >= 1e-12),
                flat_bands=tuple(lo for lo, hi in chan if hi - lo < 1e-12),
            )
            for k, chan in zip(range(1, model.N + 1), bands)
        ]
        for model in models
    ]


def full_spectrum(model, grid_size: int = 512) -> BandStructure:
    """Union band structure of a zigzag or armchair model over all channels."""
    if isinstance(model, ZigzagModel):
        (channels,) = zigzag_channels([model])
    elif isinstance(model, ArmchairModel):
        (channels,) = armchair_channels([model], grid_size)
    else:
        raise TypeError(f"unsupported model type {type(model)!r}")
    return assemble_band_structure(channels)
