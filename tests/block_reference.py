"""Independent edges and matrices of block channels, and the rule the refined edges are held to.

A block channel, or a stack of them, is the pair (a, d) of its (C, 2, 2)
hopping blocks and (C, p, 2, 2) diagonal blocks that ``decompose_armchair``
returns; ``channel``, ``channels`` and ``stack`` slice and join such pairs,
and ``block_bands`` gives the fused bands of each channel of a stack.

``dense_branch_ranges`` finds the minimum and maximum of every sorted
eigenvalue branch of one channel without derivatives and without a start of
its own: it scans 2**14 thetas and zooms into every local extremum of the
scan that may neighbour the global one.  ``assert_edges`` holds refined edges
to that reference and to the golden-section edges of a reference grid.

``per_channel_fibers`` is the build the stacked ``decompose_armchair`` replaced,
kept verbatim in its arithmetic: one hopping block per channel from scalar
complex products, one diagonal-block array per model, and one period matrix
per channel.

``every_arc_branch_ranges`` is the level-set iteration of
``block_branch_ranges`` before it skipped arcs that a sample vouches for,
kept verbatim with its ``fiber_levels_at`` and ``every_arc_midpoints``: every
round probes the midpoint of every arc between level crossings.
"""

from __future__ import annotations

import cmath

import numpy as np

from closed_forms import reference_merge
from nanotube_bands.core import LEVEL_ARC_TOL, LEVEL_ROOT_TOL, LEVEL_SET_STOP, UNIT_ROUNDOFF, energy_scale
from nanotube_bands.errors import InternalConsistencyError
from nanotube_bands.spectral import (
    LEVEL_SET_MAX_ROUNDS, LEVEL_SET_SAMPLES, SEARCH_CHUNK, _multipliers, _stacks, block_branch_ranges,
    block_period_matrix, fiber_matrices, fuse_rows,
)

REFERENCE_STACK = 64  # fiber matrices per eigvalsh call of a reference; eigvalsh solves each on its own

EPS = np.finfo(float).eps
NOT_LESS_EXTREME = 16.0  # eigensolver rounding, in units of EPS * max(1, max|level|) of the channel
DENSE_AGREEMENT = 1e-13  # relative to max(1, max|level|) of the channel
SCAN_SIZE = 2**14  # thetas of the dense reference's scan
MAX_ZOOMS = 8  # local scan extrema zoomed into per branch and direction


def fiber_levels(fiber, thetas) -> np.ndarray:
    """Sorted levels of L(exp(i theta)) of one channel, one row per theta."""
    taus = [cmath.exp(1j * th) for th in np.ravel(thetas)]
    return np.concatenate(
        [np.empty((0, fiber[0].shape[-1]))]
        + [
            np.linalg.eigvalsh(fiber_matrices(*fiber, taus[i : i + REFERENCE_STACK]))
            for i in range(0, len(taus), REFERENCE_STACK)
        ]
    )


def block_bands(a, d) -> list[list[tuple[float, float]]]:
    """The bands of each block channel, its flat levels as (lo, hi) among them: what ``channel_rows`` reads.

    The ``block_branch_ranges`` of every channel, fused by ``fuse_rows``.
    """
    chan, lo, hi = fuse_rows(*block_branch_ranges(a, d))
    return [list(zip(lo[chan == c].tolist(), hi[chan == c].tolist())) for c in range(len(a))]


def channel(blocks, c):
    """Channel c of the (a, d) blocks of a stack, as a stack of one."""
    return tuple(part[c : c + 1] for part in blocks)


def channels(blocks):
    """Every channel of a stack, each as a stack of one."""
    return [channel(blocks, c) for c in range(len(blocks[0]))]


def stack(parts):
    """The (a, d) stack of several stacks of one period, in order."""
    return tuple(np.concatenate(part) for part in zip(*parts))


def per_channel_fibers(models):
    """Period matrices and wrap blocks of every channel of every model, built one channel at a time."""
    periods, wraps = [], []
    for model in models:
        b1, b2, b3 = model.phases
        p = model.potential.p
        diag = model.t * model.potential.extended(2 * p)
        rung = np.exp(1j * b3)
        d = np.zeros((p, 2, 2), dtype=complex)
        for j in range(p):
            d[j] = [[diag[2 * j], rung], [np.conj(rung), diag[2 * j + 1]]]
        s = np.exp(2j * np.pi / model.N)
        for k in range(1, model.N + 1):
            a = np.array([[0.0, np.exp(1j * b1) * s**k], [np.exp(-1j * b2), 0.0]], dtype=complex)
            wrap = np.conj(a.T)
            L = np.zeros((2 * p, 2 * p), dtype=complex)
            for j in range(p):
                L[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = d[j]
            for j in range(p - 1):
                L[2 * j + 2 : 2 * j + 4, 2 * j : 2 * j + 2] += a
                L[2 * j : 2 * j + 2, 2 * j + 2 : 2 * j + 4] += wrap
            periods.append(L)
            wraps.append(wrap)
    return np.array(periods), np.array(wraps)


def dense_branch_ranges(block, scan_size=SCAN_SIZE):
    """(lo, hi, scale): each branch's range from nested zoom grids, and max(1, max|level|) on the scan.

    ``block`` is the (a, d) pair of one channel.  A branch's slope is at most
    2 ||W|| (W the wrap block), so between two scan points it dips at most
    ||W|| h below the lower one, h the scan step: only a scan point within
    that of the scan extremum can neighbour the true one.  Every local
    extremum of the scan that close, the MAX_ZOOMS most extreme of them, is
    zoomed into: 9 evenly spaced thetas across one scan step either side,
    keep the best, and repeat on a bracket 1/4 as wide around it until the
    bracket is below 1e-8.  The best sample of a smooth extremum is then
    within 1.3e-9 of it in theta, which moves the value by ~1e-18 times the
    curvature.
    """
    fiber = block_period_matrix(*block)
    thetas = 2.0 * np.pi * np.arange(scan_size) / scan_size
    levels = fiber_levels(fiber, thetas)
    size = levels.shape[1]
    width = 2.0 * np.pi / scan_size
    signed = np.concatenate([levels, -levels], axis=1)  # a search minimises its column
    reach = np.linalg.norm(fiber[1][0], 2) * width
    local = (signed < np.roll(signed, 1, axis=0)) & (signed <= np.roll(signed, -1, axis=0))
    near = local & (signed <= signed.min(axis=0) + reach)
    order = np.argsort(np.where(near, signed, np.inf), axis=0, kind="stable")[:MAX_ZOOMS]
    searches, picks = np.nonzero(np.take_along_axis(near, order, axis=0).T)
    centre = thetas[order[picks, searches]]
    best = signed[order[picks, searches], searches]
    rows = searches % size
    signs = np.where(searches < size, 1.0, -1.0)
    zooms = np.arange(searches.size)
    while width > 1e-8:
        probes = centre[:, None] + width * np.linspace(-1.0, 1.0, 9)
        values = signs[:, None] * fiber_levels(fiber, probes).reshape(searches.size, 9, size)[zooms, :, rows]
        pick = np.argmin(values, axis=1)
        best = np.minimum(best, values[zooms, pick])
        centre, width = probes[zooms, pick], width / 4.0
    extreme = signed.min(axis=0)  # a branch with no strict local extremum is constant on the scan
    np.minimum.at(extreme, searches, best)
    return extreme[:size], -extreme[size:], max(1.0, float(np.max(np.abs(levels))))


def assert_edges(lo, hi, ref_lo, ref_hi, dense_lo, dense_hi, scale):
    """Refined branch ranges: at least as extreme as the reference ones, and on the dense ones."""
    assert np.all(lo <= ref_lo + NOT_LESS_EXTREME * EPS * scale), (lo - ref_lo) / (EPS * scale)
    assert np.all(hi >= ref_hi - NOT_LESS_EXTREME * EPS * scale), (ref_hi - hi) / (EPS * scale)
    assert np.all(np.abs(lo - dense_lo) <= DENSE_AGREEMENT * scale), np.abs(lo - dense_lo) / scale
    assert np.all(np.abs(hi - dense_hi) <= DENSE_AGREEMENT * scale), np.abs(hi - dense_hi) / scale


def assert_band_edges(got, ref, block):
    """``assert_edges`` on the merged bands of one channel, which must have as many bands as ``ref``."""
    dense_lo, dense_hi, scale = dense_branch_ranges(block)
    dense = reference_merge(zip(dense_lo, dense_hi))
    assert len(got) == len(ref) == len(dense)
    assert_edges(*np.array(got).T, *np.array(ref).T, *np.array(dense).T, scale)


def fiber_levels_at(fibers, chans, thetas):
    """(slice, levels) of each stack of probes: the sorted levels of channel ``chans[i]`` at ``thetas[i]``.

    ``fibers`` is the (period matrices, wrap blocks) pair of a stack of
    channels.  Each probe pairs its own channel with its own multiplier, and
    ``eigvalsh`` solves every matrix on its own, so a probe's levels do not
    depend on the probes that share its stack.
    """
    periods, wraps = fibers
    taus = _multipliers(thetas)
    for s in _stacks(len(taus), REFERENCE_STACK):
        yield s, np.linalg.eigvalsh(fiber_matrices(periods[chans[s]], wraps[chans[s]], taus[s]))


def every_arc_midpoints(samples, level, at) -> np.ndarray:
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


def every_arc_branch_ranges(a, d) -> tuple[np.ndarray, np.ndarray]:
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
    solved = fiber_levels_at(fibers, np.repeat(np.arange(C), LEVEL_SET_SAMPLES), np.tile(thetas, C))
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
            + [every_arc_midpoints(samples[chans[part]], signs[part] * best[part], at[part]) for part in parts]
        )
        search, arc = np.nonzero(~np.isnan(mids))
        probe = active[search]
        values = np.full(mids.shape, np.inf)
        for s, levels in fiber_levels_at(fibers, chans[probe], mids[search, arc]):
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
