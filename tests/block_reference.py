"""Independent edges and matrices of block channels, and the rule the refined edges are held to.

A block channel, or a stack of them, is the pair (a, d) of its (C, 2, 2)
hopping blocks and (C, p, 2, 2) diagonal blocks that ``decompose_armchair``
returns; ``channel``, ``channels`` and ``stack`` slice and join such pairs.

``dense_branch_ranges`` finds the minimum and maximum of every sorted
eigenvalue branch of one channel without derivatives and without a start of
its own: it scans 2**14 thetas and zooms into every local extremum of the
scan that may neighbour the global one.  ``assert_edges`` holds refined edges
to that reference and to the golden-section edges of a reference grid.

``per_channel_fibers`` is the build the stacked ``decompose_armchair`` replaced,
kept verbatim in its arithmetic: one hopping block per channel from scalar
complex products, one diagonal-block array per model, and one period matrix
per channel.
"""

from __future__ import annotations

import cmath

import numpy as np

from nanotube_bands.spectral import FIBER_STACK, block_period_matrix, fiber_matrices, merge_intervals

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
            np.linalg.eigvalsh(fiber_matrices(*fiber, taus[i : i + FIBER_STACK]))
            for i in range(0, len(taus), FIBER_STACK)
        ]
    )


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
    dense = merge_intervals(zip(dense_lo, dense_hi))
    assert len(got) == len(ref) == len(dense)
    assert_edges(*np.array(got).T, *np.array(ref).T, *np.array(dense).T, scale)
