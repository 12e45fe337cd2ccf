"""Spectral engine: fiber matrices, one edge routine per channel kind, unions.

Every fiber matrix L(tau) of a channel comes from one stacked builder,
``fiber_matrices``: the multiplier-free period matrices of a stack of channels
are built once (``scalar_period_matrix`` from (C, m) coefficients,
``block_period_matrix`` from (C, 2, 2) hopping and (C, p, 2, 2) diagonal blocks) and
tau enters only through their wrap-around corner blocks, the multipliers
broadcast against the channels.  The matrices are real where the coefficients
and the multipliers are, and complex otherwise.  Every stacked eigensolve
takes at most STACK_BYTES of matrices (``stack_size``).

Scalar channels have one edge routine, ``periodic_jacobi_band_edges``: the
band edges of an m-periodic channel are the sorted eigenvalues of K(+1) and
K(-1), paired consecutively.  The gauge-reduced zigzag chains have real bonds
1 and 2|c_k|, so their K(+1) and K(-1) are real symmetric and are solved in
real arithmetic; only the torus oracle keeps the complex bonds from before
the gauge.  The levels are checked by the discrete Hill theorem, which
orders them ``+ - - + + - - + ...`` from the bottom for positive bonds; the
check reads only the solved levels.  The zigzag channels of a model, or of
every field step of a sweep, come back as arrays (``zigzag_channel_edges``):
the flat mask, the c_k and the (step, N, 2p) band edges.

Block channels have one edge routine, ``block_branch_ranges``.  They have no
edge rule, so their bands are the ranges of the sorted eigenvalue branches
over the unit circle, found by one level-set iteration (Boyd & Balakrishnan)
over every branch minimum and maximum of every channel -- of a model, or of
every field step of a sweep -- in lockstep.  The wrap block of a channel has
two rows, so det(L(theta) - E) is a trigonometric polynomial of degree 2 in
theta: the levels at 8 fixed multipliers give, for any level E, every theta
where some branch equals E.  A search probes the branch at the midpoint of
every arc between those crossings and moves E to the most extreme probe; the
round on which no probe beats E by more than rounding certifies it.  An arc
that holds a sample more than LEVEL_SKIP_MARGIN from both of its crossings,
where the branch lies beyond E by more than LEVEL_SKIP_SLACK units of
rounding, lies wholly beyond E, and is not probed: that halves the
eigensolves, and on 800 random models moved no bit of any range.  Each
probe pairs its own channel with its own multiplier, and one round solves
the probes of every search still running, one stack of STACK_BYTES at a
time.  There is no grid: the CLI's ``--grid`` is validated and not read.

After its solve each lattice reports the same rows (``channel_rows``): for
every (field step, channel), its bands and flat levels as (lo, hi, flat),
ascending, armchair branch ranges fused by one rule over all channels at once
(``fuse_rows``).  ``sweep`` and ``bands --format csv`` write the rows, a
sweep's solved in chunks of SWEEP_CHANNELS channels.  ``full_spectrum`` keeps
one model's rows as the columns of a ``BandStructure`` (``band_structure``),
with every channel's gaps, found at once by the one gap rule (``gap_after``),
and the union over channels, built from the same columns: the band edges
cut the energy axis into segments, each channel's bands fuse into runs of
segments, a cumulative sum of +1/-1 run events gives the multiplicity of
every segment, and where the runs start and end decides exactly which
adjacent entries have the same covering channels.  The fused table is stored
as lo, hi and multiplicity columns, and the gaps between its bands as two
more.  A ``BandStructure`` holds columns only; its readers select rows of
``chan`` and ``flat``.  Every set of bands in the package is such a pair of
lo and hi columns: no function takes or returns a list of (lo, hi) pairs.
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass

import numpy as np

from .armchair import decompose_armchair
from .core import (
    FLAT_BRANCH_TOL, GAP_MERGE_TOL, HERMITIAN_TOL, LEVEL_ARC_TOL, LEVEL_ROOT_TOL, LEVEL_SET_STOP, LEVEL_SKIP_MARGIN,
    LEVEL_SKIP_SLACK, UNIMODULAR_TOL, UNION_CUT_TOL, UNIT_ROUNDOFF, ArmchairModel, PotentialProfile, ZigzagModel,
    energy_scale, is_flat_channel,
)
from .errors import HillOrderError, InternalConsistencyError, InvalidInputError
from .zigzag import channel_constants

STACK_BYTES = 2**20  # bytes of fiber matrices per eigvalsh call: 64 complex 32 x 32, 1024 real 8 x 8


def stack_size(m: int, dtype) -> int:
    """m x m matrices of ``dtype`` per eigvalsh call: STACK_BYTES of them, and at least one."""
    return max(1, STACK_BYTES // (m * m * np.dtype(dtype).itemsize))


SWEEP_CHANNELS = 2048  # channels per channel_rows call of a sweep, whose rows are written before the next call


# ---------------------------------------------------------------------------
# interval utilities


def gap_after(lo, hi) -> np.ndarray:
    """Whether each band but the first lies apart: not within GAP_MERGE_TOL above ``hi`` of the one before.

    The one gap rule, along the last axis: ``fuse_rows`` starts a band where
    it holds against the running maximum of the upper edges, and the gaps of
    a channel and of the union lie where it holds between consecutive bands.
    A nan difference (two edges at one infinity; numpy flags it) holds, as in
    the reference merge; the coupling check keeps every command's edges finite.
    """
    return ~(lo[..., 1:] - hi[..., :-1] <= GAP_MERGE_TOL)


def fuse_rows(lo, hi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The closed intervals of each row of (C, n) arrays fused into bands, as (row, lo, hi) of every band.

    Each row is sorted by (lo, hi); a band starts where ``gap_after`` holds
    between an interval and the running maximum of the upper edges below it,
    and ends at the first of its largest upper edges (numpy's running
    maximum takes the last of equal values, which would flip the sign of a
    zero edge).  The bands come row by row, ascending.  Every interval must
    have hi >= lo.
    """
    order = np.lexsort((hi, lo))
    lo, hi = np.take_along_axis(lo, order, -1), np.take_along_axis(hi, order, -1)
    reach = np.maximum.accumulate(hi, axis=-1)
    rise = np.diff(reach, axis=-1, prepend=-np.inf) > 0  # where the running maximum grows
    reach = np.take_along_axis(hi, np.maximum.accumulate(np.where(rise, np.arange(lo.shape[-1]), 0), axis=-1), -1)
    start = np.ones(lo.shape, dtype=bool)
    start[:, 1:] = gap_after(lo, reach)
    return np.nonzero(start)[0], lo[start], reach[np.roll(start, -1, axis=-1)]


# ---------------------------------------------------------------------------
# fiber matrices


def _check_unimodular(taus) -> np.ndarray:
    """The multipliers as a real array if they are real, else complex; refuses any that is off the unit circle."""
    taus = np.asarray(taus)
    taus = taus.astype(np.result_type(taus, float), copy=False)
    off = np.abs(np.abs(taus) - 1.0) > UNIMODULAR_TOL
    if off.any():
        raise InvalidInputError(
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

    The matrices are real when the period, the wrap block and the
    multipliers are all real (tau = +1 or -1 on real coefficients), and
    complex otherwise.  Every matrix is checked to be Hermitian to
    HERMITIAN_TOL of its ``energy_scale`` (``_fiber_stack``).
    """
    return _fiber_stack(period, wrap, taus, _adjoint_mismatch(period, period))


def _fiber_stack(period, wrap, taus, residual: float) -> np.ndarray:
    """``fiber_matrices``, given ``residual``, the largest entry of |P - P^H| over the period matrices P.

    Off the corners L holds the period matrix's entries, and the corners
    mirror each other, so the residuals of the period matrices and of the
    corners cover every entry; only when one exceeds HERMITIAN_TOL is each
    matrix weighed against its own scale.  The period residual is a property
    of the periods alone: ``block_branch_ranges`` takes it once for all its
    channels rather than once per stack of probes.  Where it is 0, the
    corners mirror to the bit, and their residual is 0 too.
    """
    taus = _check_unimodular(taus)[..., None, None]
    m, r = period.shape[-1], wrap.shape[-1]
    corner = taus * wrap
    L = np.empty(np.broadcast(period[..., 0, 0], corner[..., 0, 0]).shape + (m, m), np.result_type(period, corner))
    L[...] = period
    lower, upper = L[..., m - r :, :r], L[..., :r, m - r :]
    lower += corner
    upper += np.swapaxes(corner.conj(), -1, -2)  # conj(tau) W^H, to the bit
    if max(residual, _adjoint_mismatch(lower, upper)) > HERMITIAN_TOL:
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
    Complex bonds are allowed (used before gauge reduction) and give complex
    matrices; real bonds give real ones.  (C, m) arrays give the (C, m, m)
    and (C, 1, 1) stacks of C operators.
    """
    a = np.asarray(offdiag)
    a = a.astype(np.result_type(a, float), copy=False)
    v = np.asarray(diag, dtype=float)
    m = v.shape[-1]
    K = np.zeros(v.shape + (m,), dtype=a.dtype)
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
    (..., 2m) edges.  Real bonds give real symmetric K(+1) and K(-1), solved
    in real arithmetic, in stacks of STACK_BYTES (``stack_size``).  By the
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
    size = max(1, stack_size(m, np.result_type(a, float)) // 2)  # two matrices per operator, K(+1) and K(-1)
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


def flat_band_spectrum(profile: PotentialProfile, t: float) -> np.ndarray:
    """Flat-band energies of a channel with vanishing even bonds.

    The chain splits into unit-bond dimers; pair j contributes
    t*(v+) +/- sqrt((t*(v-))^2 + 1) with v+- the half-sum/half-difference of
    (v[2j], v[2j+1]).  Sorted, each value has infinite multiplicity.  Beyond
    |t*(v-)| = 2**27 the root rounds to |t*(v-)|, which is taken as it is, so
    that the square cannot overflow.
    """
    pairs = t * profile.pairs()
    vplus = 0.5 * (pairs[:, 0] + pairs[:, 1])
    vminus = np.abs(0.5 * (pairs[:, 0] - pairs[:, 1]))
    root = np.where(vminus > 2.0**27, vminus, np.sqrt(np.minimum(vminus, 2.0**27) ** 2 + 1.0))
    return np.sort(np.concatenate([vplus - root, vplus + root]))


# ---------------------------------------------------------------------------
# block-channel branch ranges


LEVEL_SET_SAMPLES = 8  # multipliers exp(2 pi i j / 8) per channel: det(L - E) has 5 Fourier coefficients
LEVEL_SET_MAX_ROUNDS = 64  # rounds per search; a kink at least halves a search's distance to its extremum per round
SEARCH_CHUNK = 1024  # searches whose (8, 2p) samples are gathered at once; bounds the level-set temporaries
SAMPLE_THETAS = 2.0 * np.pi * np.arange(LEVEL_SET_SAMPLES) / LEVEL_SET_SAMPLES
SAMPLE_ANGLES = np.where(SAMPLE_THETAS < np.pi, SAMPLE_THETAS, SAMPLE_THETAS - 2.0 * np.pi)  # in [-pi, pi), as np.angle


def _stacks(n: int, size: int) -> list[slice]:
    """Consecutive slices of at most ``size`` of n items: ``stack_size`` probes make one eigensolve."""
    return [slice(i, i + size) for i in range(0, n, size)]


def _multipliers(thetas) -> np.ndarray:
    """exp(i*theta) of every theta.

    The multipliers come from ``cmath.exp`` because ``np.exp`` may differ from
    it in the last bit, which would change the printed edges.
    """
    return np.array([cmath.exp(1j * th) for th in np.asarray(thetas, dtype=float).tolist()], dtype=complex)


def _block_fibers(a, d):
    """``block_period_matrix`` of block channels, and the residual of its period matrices for ``_fiber_stack``."""
    periods, wraps = block_period_matrix(a, d)
    return periods, wraps, _adjoint_mismatch(periods, periods)


def _fiber_levels(fibers, chans, taus):
    """(slice, levels) of each stack of probes: the sorted levels of channel ``chans[i]`` at ``taus[i]``.

    ``fibers`` is the ``_block_fibers`` triple of a stack of channels and
    ``taus`` the probes' multipliers (``_multipliers``).  Each probe pairs its
    own channel with its own multiplier, and ``eigvalsh`` solves every matrix
    on its own, so a probe's levels do not depend on the probes that share
    its stack.
    """
    periods, wraps, residual = fibers
    for s in _stacks(len(taus), stack_size(periods.shape[-1], periods.dtype)):
        yield s, np.linalg.eigvalsh(_fiber_stack(periods[chans[s]], wraps[chans[s]], taus[s], residual))


def _arc_midpoints(samples, high, low, level, tau, clear) -> np.ndarray:
    """Midpoints of the arcs into which the level crossings of each search cut the circle, NaN-padded to (search, 4).

    ``samples`` holds the (search, 8, 2p) levels of each search's channel at
    theta_j = 2 pi j / 8, ``high`` and ``low`` their (search, 2p) maxima and
    minima over j, ``level`` the level E of each search and ``tau`` a
    multiplier exp(i theta) where its branch equals E.  The wrap block has
    two rows, so det(L(theta) - E) = prod_i (E_i(theta) - E) is a real trigonometric
    polynomial of degree 2: one FFT of its samples gives c_0..c_2 exactly,
    and the roots tau = exp(i theta) of tau^2 det on the unit circle are the
    at most 4 crossings, where some branch meets E.  Each factor is divided
    by its largest magnitude over the samples, which moves no root and keeps
    the product from underflow; rounding is monotone, so that magnitude,
    max_j |fl(s_j - E)|, is max(fl(high - E), fl(E - low)) to the bit.  The
    known root ``tau`` is divided out, so its neighbour, which closes the arc the search is closing in on, is found
    to rounding even where that arc is far narrower than the samples
    resolve.  The other roots are the eigenvalues of the cubic's companion
    matrix (none when it is not finite); one off the circle by more than
    LEVEL_ROOT_TOL crosses nothing.  Between consecutive crossings every
    branch stays on one side of E; an arc no wider than LEVEL_ARC_TOL is a
    tangency and has no midpoint.  Nor has an arc that holds a sample theta_j
    more than LEVEL_SKIP_MARGIN from both of its crossings at which the
    (search, 8) mask ``clear`` is set, the search's branch lying beyond E by
    more than LEVEL_SKIP_SLACK units of rounding there: the branch lies
    beyond E on the whole arc, so its probe could not move the search.
    """
    factors = samples - level[:, None, None]
    norm = np.maximum(high - level[:, None], level[:, None] - low)[:, None]
    factors /= np.where(norm > 0.0, norm, 1.0)
    det = factors[..., 0].copy()
    for i in range(1, factors.shape[-1]):  # one product per sample, in the same order for every search
        det *= factors[..., i]
    c2, c1, c0 = np.fft.rfft(det)[:, 2::-1].T  # c_2, c_1, c_0 times 8; c_-k = conj(c_k), as det is real
    S = len(det)
    quotient = np.empty((S, 4), dtype=complex)  # of tau^2 det by (x - tau), highest power first, remainder dropped
    quotient[:, 0] = c2
    for k, c in enumerate((c1, c0, np.conj(c1))):
        quotient[:, k + 1] = c + tau * quotient[:, k]
    # a real det that vanishes at tau has quotient coefficients b_k = -conj(tau) conj(b_{3-k}): keep that
    # part of the rounded ones, so the quotient's simple roots on the circle stay on it
    quotient = 0.5 * (quotient - np.conj(tau)[:, None] * np.conj(quotient[:, ::-1]))
    companion = np.zeros((S, 3, 3), dtype=complex)
    companion[:, 1, 0] = companion[:, 2, 1] = 1.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # a quotient past the float range is not finite
        companion[:, 0] = -quotient[:, 1:] / quotient[:, :1]
    finite = np.isfinite(companion[:, 0]).all(axis=1)
    roots = np.full((S, 4), np.nan, dtype=complex)
    roots[finite, 0] = tau[finite]
    roots[finite, 1:] = np.linalg.eigvals(companion[finite])
    on_circle = np.abs(np.abs(roots) - 1.0) <= LEVEL_ROOT_TOL
    start = np.sort(np.where(on_circle, np.angle(roots), np.nan), axis=1)  # NaN last
    stop = np.full((S, 4), np.nan)
    stop[:, :-1] = start[:, 1:]
    # the last arc ends at the first crossing (a search with none writes NaN over the NaN of its last column)
    stop[np.arange(S), on_circle.sum(axis=1) - 1] = start[:, 0] + 2.0 * np.pi
    width = stop - start
    into = SAMPLE_ANGLES - start[..., None]  # (search, arc, sample), in [-2 pi, 2 pi); NaN past the arcs
    into = np.where(into < 0.0, into + 2.0 * np.pi, into)
    vouched = clear[:, None] & (into > LEVEL_SKIP_MARGIN) & (into < width[..., None] - LEVEL_SKIP_MARGIN)
    return np.where((width > LEVEL_ARC_TOL) & ~vouched.any(axis=2), 0.5 * (start + stop), np.nan)


def block_branch_ranges(a, d) -> tuple[np.ndarray, np.ndarray]:
    """Minimum and maximum of every sorted eigenvalue branch, as two (channel, branch) arrays.

    One level-set iteration (Boyd & Balakrishnan, Syst. Control Lett. 15:1,
    1990) runs every (channel, branch, min/max) search in lockstep.  A search
    holds a level E, the most extreme value of its branch seen so far,
    starting from the first most extreme of the channel's 8 samples, and the
    multiplier where its branch equals E.  Each round probes the branch at
    every midpoint of ``_arc_midpoints`` and moves E to the most extreme
    probe.  E only moves towards the extremum, so every sample lies on the
    far side of E; one that lies there by more than LEVEL_SKIP_SLACK * u *
    scale and more than LEVEL_SKIP_MARGIN inside an arc vouches for the
    whole arc, as the branch keeps one side of E between two crossings, and
    the arc is not probed: its probe could beat E only by rounding.  The
    slack keeps an arc whose probe could round past E from being skipped (at
    slack 0, 120 of 300 random models, mostly at large t, moved a range by a
    few u * scale).  Skipping halves the probes, and on 800 random models
    (N 2-8, q 1-16, t 1e-3 to 1e8) left every range the same bits as probing
    every arc (``tests/block_reference.py``).  An arc where the branch lies
    beyond E holds its midpoint beyond E, by nearly the whole depth near a
    smooth extremum and by at least half of it at a kink where two branches
    cross, so the round whose probes beat E by at most LEVEL_SET_STOP * u *
    scale (scale the ``energy_scale`` of the channel's samples) certifies E
    and stops the search.  One still running after LEVEL_SET_MAX_ROUNDS is an internal
    error.  Every step is elementwise per search or per probe, so a channel's
    ranges are the same bits whatever stack it is in.  The period matrices'
    Hermiticity residual is taken once (``_block_fibers``), and each probe's
    multiplier once, where the probe is made.
    """
    fibers = _block_fibers(a, d)
    C, m = fibers[0].shape[:2]
    grid = _multipliers(SAMPLE_THETAS)
    solved = _fiber_levels(fibers, np.repeat(np.arange(C), LEVEL_SET_SAMPLES), np.tile(grid, C))
    samples = np.concatenate([np.empty((0, m))] + [levels for _, levels in solved]).reshape(C, LEVEL_SET_SAMPLES, m)
    high, low = samples.max(axis=1), samples.min(axis=1)  # each branch's extremes over the samples
    scale = UNIT_ROUNDOFF * energy_scale(samples, axis=(1, 2))
    tol, slack = LEVEL_SET_STOP * scale, LEVEL_SKIP_SLACK * scale
    chans, rows = np.tile(np.repeat(np.arange(C), m), 2), np.tile(np.arange(m), 2 * C)
    signs = np.repeat([1.0, -1.0], C * m)  # a search minimises signs * branch
    seen = signs[:, None] * samples[chans, :, rows]
    first = np.argmin(seen, axis=1)  # the first most extreme sample: np.min may return either of 0.0 and -0.0
    best, at = seen[np.arange(chans.size), first], grid[first]  # at: the multiplier where the branch equals best
    active = np.arange(chans.size)
    for _ in range(LEVEL_SET_MAX_ROUNDS):
        if not active.size:
            break
        parts = (active[s] for s in _stacks(active.size, SEARCH_CHUNK))
        mids = np.concatenate(
            [np.empty((0, 4))]
            + [
                _arc_midpoints(
                    samples[chans[part]], high[chans[part]], low[chans[part]], signs[part] * best[part], at[part],
                    seen[part] > (best[part] + slack[chans[part]])[:, None],
                )
                for part in parts
            ]
        )
        search, arc = np.nonzero(~np.isnan(mids))
        probe = active[search]
        taus = np.empty(mids.shape, dtype=complex)
        taus[search, arc] = probe_taus = _multipliers(mids[search, arc])
        values = np.full(mids.shape, np.inf)
        for s, levels in _fiber_levels(fibers, chans[probe], probe_taus):
            values[search[s], arc[s]] = signs[probe[s]] * levels[np.arange(len(levels)), rows[probe[s]]]
        pick = np.argmin(values, axis=1)
        found = values[np.arange(active.size), pick]
        beats = found < best[active] - tol[chans[active]]
        better = found < best[active]
        best[active[better]], at[active[better]] = found[better], taus[better, pick[better]]
        active = active[beats]
    if active.size:
        raise InternalConsistencyError(
            f"block-channel level-set search did not converge in {LEVEL_SET_MAX_ROUNDS} rounds "
            f"(channel {chans[active[0]]}, branch {rows[active[0]]})"
        )
    return best[: C * m].reshape(C, m), -best[C * m :].reshape(C, m)


# ---------------------------------------------------------------------------
# band-structure assembly


@dataclass(frozen=True, eq=False)
class BandStructure:
    """The rows of every channel of a model, their gaps and their union, as columns (``band_structure``).

    ``c_k`` holds the constants of the C channels, channel k at k - 1 (a
    hand-built structure may hold None for a channel without one).  The rows
    of ``channel_rows`` follow: ``chan`` (k - 1), ``row_lo``, ``row_hi`` and
    ``flat``, a channel's rows consecutive and ascending; then every
    channel's gaps, ``gap_chan``, ``gap_lo`` and ``gap_hi``; then the union,
    one row per union band: ``lo``, ``hi`` and ``multiplicity`` (2 per
    covering channel; inf marks a flat level), and its gaps,
    ``union_gap_lo`` and ``union_gap_hi``.
    """

    c_k: np.ndarray
    chan: np.ndarray
    row_lo: np.ndarray
    row_hi: np.ndarray
    flat: np.ndarray
    gap_chan: np.ndarray
    gap_lo: np.ndarray
    gap_hi: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    multiplicity: np.ndarray
    union_gap_lo: np.ndarray
    union_gap_hi: np.ndarray


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


def band_structure(c_k, chan, lo, hi, flat) -> BandStructure:
    """The ``BandStructure`` of one model's rows: ``c_k`` and the (chan, lo, hi, flat) columns of ``channel_rows``.

    A channel's gaps lie between consecutive bands where ``gap_after``
    holds, found for every channel at once (every two fused armchair bands
    bound one).  The union is cut at every edge of a band with hi >= lo (a
    cut within UNION_CUT_TOL of the last kept one is dropped) so that each
    reported union band has a constant covering-channel set.  Band b covers
    the segments whose midpoints lie in ``[lo_b - UNION_CUT_TOL, hi_b +
    UNION_CUT_TOL]``, a range ``[start, stop)`` that two ``searchsorted``
    calls find.  Sorted by channel and start, each channel's overlapping or
    touching ranges fuse into runs (one running maximum of the stops, offset
    by channel), and a cumulative sum of the +1/-1 run events gives every
    segment's number of covering channels; the multiplicity is twice that.
    Two consecutive covered segments have the same covering set exactly when
    no run starts or ends between them, apart from a channel's run ending
    and that channel's next run starting in the same gap.  A band thinner
    than the cut spacing that no segment holds becomes its own union band,
    in row order, and a flat level that nothing holds a degenerate one of
    infinite multiplicity, in order of (level, channel); an entry is looked
    up by bisection in the segments and in the padded intervals of the
    entries added before it, which are kept fused into a sorted disjoint
    list.  Such an entry has one channel, and compares with a neighbour of
    its multiplicity by that channel alone; a segment covered by one channel
    takes it from a cumulative sum of +channel/-channel run events.  Each
    entry kept has its own ``lo``, so one stable sort merges the segments
    and the extra entries.  Adjacent entries with identical multiplicity and
    covering set that are at most GAP_MERGE_TOL apart are fused, and the
    gaps wider than GAP_MERGE_TOL between the fused bands are the union gaps
    (``gap_after``).  Cost: O(B log B) for B channel bands, plus the list
    insertions of the extra entries.
    """
    chan_b, lo_b, hi_b = chan[~flat], lo[~flat], hi[~flat]  # the bands, without the flat levels
    apart = gap_after(lo_b, hi_b) & (chan_b[1:] == chan_b[:-1])
    gap_chan, gap_lo, gap_hi = chan_b[1:][apart], hi_b[:-1][apart], lo_b[1:][apart]

    held = hi_b >= lo_b
    col, blo, bhi = chan_b[held], lo_b[held], hi_b[held]
    flat_chan, levels = chan[flat], lo[flat]
    order = np.lexsort((flat_chan, levels))
    flat_chan, levels = flat_chan[order], levels[order]

    cuts = _spaced_cuts(np.unique(np.concatenate([blo, bhi])))
    mids = 0.5 * (cuts[:-1] + cuts[1:])
    start = np.searchsorted(mids, blo - UNION_CUT_TOL, "left")
    stop = np.searchsorted(mids, bhi + UNION_CUT_TOL, "right")
    ranges = np.lexsort((start, col))
    ranges = ranges[start[ranges] < stop[ranges]]  # the ranges that cover a segment, by channel and start
    run_col, start, stop = col[ranges], start[ranges], stop[ranges]
    span = mids.size + 1  # event positions 0..S; offset by channel, one running maximum fuses every channel's ranges
    reach = np.maximum.accumulate(stop + run_col * span)
    first = np.flatnonzero(np.append(ranges.size > 0, start[1:] + run_col[1:] * span > reach[:-1]))
    run_chan, run_start, run_stop = run_col[first], start[first], np.maximum.reduceat(stop, first)

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
    for i in np.flatnonzero(~held_by_segments(levels)).tolist():
        e = float(levels[i])
        add(e, e, math.inf, int(flat_chan[i]), e)

    ex = np.array(extra, dtype=float).reshape(-1, 4)
    order = np.argsort(np.concatenate([seg_lo, ex[:, 0]]), kind="stable")
    u_lo = np.concatenate([seg_lo, ex[:, 0]])[order]
    u_hi = np.concatenate([seg_hi, ex[:, 1]])[order]
    mult = np.concatenate([2.0 * count[covered], ex[:, 2]])[order]
    solo = np.concatenate([solo[covered], ex[:, 3]])[order]  # the channel of a one-channel entry
    fresh = np.append(changed[: seg_lo.size], np.ones(len(extra), dtype=bool))[order]
    seg = order < seg_lo.size
    # equal multiplicities make both entries of a pair one-channel unless both are segments
    same = np.where(seg[1:] & seg[:-1], ~fresh[1:], solo[1:] == solo[:-1])

    # hi ascends with lo, so the fused band that entry i - 1 ends reaches hi[i - 1]
    joined = ~gap_after(u_lo, u_hi) & (mult[1:] == mult[:-1]) & same
    first = np.flatnonzero(np.concatenate([[u_lo.size > 0], ~joined]))
    u_lo, u_hi, mult = u_lo[first], np.maximum.reduceat(u_hi, first), mult[first]
    gap = gap_after(u_lo, u_hi)
    union_gaps = u_hi[:-1][gap], u_lo[1:][gap]
    return BandStructure(c_k, chan, lo, hi, flat, gap_chan, gap_lo, gap_hi, u_lo, u_hi, mult, *union_gaps)


# ---------------------------------------------------------------------------
# whole-model spectra


def zigzag_chain_edges(c_k, diag) -> np.ndarray:
    """Sorted band edges of gauge-reduced zigzag channels: bonds 1 and 2|c_k|, diagonal ``diag``.

    ``c_k`` of shape S and ``diag`` of shape S + (2p,) broadcast; the S + (4p,)
    edges come from one ``periodic_jacobi_band_edges`` call, band n (1-based)
    from edge 2n - 2 to edge 2n - 1.  A flat channel is refused.
    """
    c = np.asarray(c_k, dtype=float)
    if np.any(is_flat_channel(c)):
        raise InvalidInputError("flat-band channel: use flat_band_spectrum instead")
    diag = np.asarray(diag, dtype=float)
    bonds = np.ones(np.broadcast_shapes(c.shape + (1,), diag.shape))
    bonds[..., 1::2] = 2.0 * np.abs(c)[..., None]
    return periodic_jacobi_band_edges(bonds, np.broadcast_to(diag, bonds.shape))


def zigzag_channel_edges(models, first: int = 0, total: int | None = None) -> tuple[np.ndarray, ...]:
    """Band edges of every channel of each zigzag model, k = 1..N, as arrays.

    Returns the (M, N) flat mask and channel constants c_k of the M models
    and the (M, N, 2p) lower and upper edges of their channels' bands,
    ascending; the row of a flat channel (``is_flat_channel``) holds the 2p
    levels of its dimers as (e, e).  The models must share N and the
    potential period.  The dispersive channels of all models go to one
    ``zigzag_chain_edges`` call with each model's diagonal ``t * v``.  A
    channel that fails the Hill-order check is named by its field step and k,
    the first in that order; ``models`` are the field steps ``first + 1`` on
    of a sweep of ``total`` steps (by default, all of them).
    """
    c_k = channel_constants(models)
    flat = is_flat_channel(c_k)
    diag = np.array([model.t * model.potential.period_values() for model in models])
    try:
        edges = zigzag_chain_edges(c_k[~flat], diag[np.nonzero(~flat)[0]])
    except HillOrderError as exc:  # name the channel by field step and k
        step, k = (np.argwhere(~flat)[exc.channel] + 1).tolist()
        total = len(models) if total is None else total
        where = f"field step {first + step} of {total}, " if total > 1 else ""
        raise InternalConsistencyError(f"{where}channel k = {k}: {exc}") from exc
    lo, hi = np.empty((2,) + flat.shape + diag.shape[-1:])
    lo[~flat], hi[~flat] = edges[:, 0::2], edges[:, 1::2]
    for step in np.flatnonzero(flat.any(axis=1)).tolist():
        lo[step, flat[step]] = hi[step, flat[step]] = flat_band_spectrum(models[step].potential, models[step].t)
    return flat, c_k, lo, hi


def channel_rows(models, first: int = 0, total: int | None = None) -> tuple[np.ndarray, ...]:
    """The (M, N) channel constants of M models of one lattice, N and potential period, and their channels' rows.

    Each row has its channel (s * N + k - 1 for channel k of ``models[s]``),
    its lo and hi and whether it is a flat level; a channel's rows are
    consecutive and ascend.  Zigzag rows are the 2p chain bands of
    ``zigzag_channel_edges``, a flat channel's dimer levels as (e, e).
    Armchair rows are the ``block_branch_ranges`` of each channel fused by
    ``fuse_rows``, a band narrower than FLAT_BRANCH_TOL a flat level (lo, lo).
    ``first`` and ``total`` place the models in a sweep solved in chunks of
    field steps, for the messages of ``zigzag_channel_edges``.
    """
    if isinstance(models[0], ZigzagModel):
        flat, c_k, lo, hi = zigzag_channel_edges(models, first, total)
        m = lo.shape[-1]
        return c_k, np.repeat(np.arange(flat.size), m), lo.ravel(), hi.ravel(), np.repeat(flat.ravel(), m)
    if isinstance(models[0], ArmchairModel):
        chan, lo, hi = fuse_rows(*block_branch_ranges(*decompose_armchair(models)))
        flat = hi - lo < FLAT_BRANCH_TOL
        N = models[0].N
        c_k = np.tile([math.cos(math.pi * k / N) for k in range(1, N + 1)], (len(models), 1))
        return c_k, chan, lo, np.where(flat, lo, hi), flat
    raise TypeError(f"unsupported model type {type(models[0])!r}")


def full_spectrum(model) -> BandStructure:
    """The ``band_structure`` of a zigzag or armchair model: its channels' rows, their gaps and their union."""
    c_k, chan, lo, hi, flat = channel_rows([model])
    return band_structure(c_k[0], chan, lo, hi, flat)
