"""Independent edges of block channels, and the rule the refined edges are held to.

``dense_branch_ranges`` finds the minimum and maximum of every sorted
eigenvalue branch of one channel without derivatives: from the channel's grid
extremum, it samples 9 evenly spaced thetas across the bracket of one grid
step either side, keeps the best, and repeats on a bracket 1/4 as wide around
it until the bracket is below 1e-8.  The best sample of a smooth extremum is
then within 1.3e-9 of it in theta, which moves the value by ~1e-18 times the
curvature.  ``assert_edges`` holds refined edges to that reference and to the
golden-section edges they replaced.
"""

from __future__ import annotations

import cmath

import numpy as np

from nanotube_bands.spectral import FIBER_STACK, block_period_matrix, fiber_matrices, merge_intervals

EPS = np.finfo(float).eps
NOT_LESS_EXTREME = 16.0  # eigensolver rounding, in units of EPS * max(1, max|level|) of the channel
DENSE_AGREEMENT = 1e-13  # relative to max(1, max|level|) of the channel


def fiber_levels(fiber, thetas) -> np.ndarray:
    """Sorted levels of L(exp(i theta)) of one channel, one row per theta."""
    taus = [cmath.exp(1j * th) for th in np.ravel(thetas)]
    return np.concatenate(
        [
            np.linalg.eigvalsh(fiber_matrices(*fiber, taus[i : i + FIBER_STACK]))
            for i in range(0, len(taus), FIBER_STACK)
        ]
    )


def dense_branch_ranges(block, grid_size):
    """(lo, hi, scale): each branch's range from nested zoom grids, and max(1, max|level|) on the grid."""
    fiber = block_period_matrix([block])
    thetas = 2.0 * np.pi * np.arange(grid_size) / grid_size
    levels = fiber_levels(fiber, thetas)
    size = levels.shape[1]
    rows = np.tile(np.arange(size), 2)
    signs = np.repeat([1.0, -1.0], size)
    centre = np.concatenate([thetas[np.argmin(levels, axis=0)], thetas[np.argmax(levels, axis=0)]])
    best = signs * np.concatenate([levels.min(axis=0), levels.max(axis=0)])
    width = 2.0 * np.pi / grid_size
    searches = np.arange(2 * size)
    while width > 1e-8:
        probes = centre[:, None] + width * np.linspace(-1.0, 1.0, 9)
        values = signs[:, None] * fiber_levels(fiber, probes).reshape(2 * size, 9, size)[searches, :, rows]
        pick = np.argmin(values, axis=1)
        best = np.minimum(best, values[searches, pick])
        centre, width = probes[searches, pick], width / 4.0
    return best[:size], -best[size:], max(1.0, float(np.max(np.abs(levels))))


def assert_edges(lo, hi, ref_lo, ref_hi, dense_lo, dense_hi, scale):
    """Refined branch ranges: at least as extreme as the reference ones, and on the dense ones."""
    assert np.all(lo <= ref_lo + NOT_LESS_EXTREME * EPS * scale), (lo - ref_lo) / (EPS * scale)
    assert np.all(hi >= ref_hi - NOT_LESS_EXTREME * EPS * scale), (ref_hi - hi) / (EPS * scale)
    assert np.all(np.abs(lo - dense_lo) <= DENSE_AGREEMENT * scale), np.abs(lo - dense_lo) / scale
    assert np.all(np.abs(hi - dense_hi) <= DENSE_AGREEMENT * scale), np.abs(hi - dense_hi) / scale


def assert_band_edges(got, ref, block, grid_size):
    """``assert_edges`` on the merged bands of one channel, which must have as many bands as ``ref``."""
    dense_lo, dense_hi, scale = dense_branch_ranges(block, grid_size)
    dense = merge_intervals(zip(dense_lo, dense_hi))
    assert len(got) == len(ref) == len(dense)
    assert_edges(*np.array(got).T, *np.array(ref).T, *np.array(dense).T, scale)
