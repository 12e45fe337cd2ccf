"""The block-channel edges: the level-set iteration against the golden-section routine it replaced.

``spectrum_block_stack`` finds the branch extrema of every channel it is
given -- all channels of a model, or of every field step of a sweep -- by
level-set searches in one lockstep loop, each probe pairing its own channel
with its own multiplier.  Three properties are checked:

* Stacking.  ``eigvalsh`` solves the matrices of a stack one by one, the
  level sets of a search read only its own channel's samples, and every
  search visits the same thetas whatever else runs in its loop, so a
  channel's edges are the same bits whether it is solved alone or in a model
  or sweep stack.  They are compared as ``tobytes`` of float arrays, where
  0.0 and -0.0 differ.
* Accuracy.  The reference below is the former one-channel
  ``spectrum_block`` with its own grid and golden-section loop, kept
  verbatim with its two constants.  Every edge is at least as extreme as the
  golden-section edge up to 16 ulps of the channel's largest level (golden
  section keeps the most extreme of ~41 rounded probes), and within 1e-13 of
  that scale of a dense zoom-grid reference (``block_reference``), which
  zooms from every local extremum of a 2**14-point scan.
* Containment.  Fiber levels at random thetas lie inside the printed channel
  bands, within 1e-12 of the channel's scale, over N 2-8, q 1-16 and t 1e-3
  to 1e3; six benchmark ops whose printed ranges real levels used to exceed
  are pinned, on a 2**14-point scan as well.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from block_reference import (
    DENSE_AGREEMENT, NOT_LESS_EXTREME, assert_edges, channel, channels, dense_branch_ranges, fiber_levels, stack,
)
from nanotube_bands import cli, spectral
from nanotube_bands.armchair import decompose_armchair, tube_geometry
from nanotube_bands.core import ArmchairModel, PotentialProfile
from nanotube_bands.errors import InternalConsistencyError, InvalidParameterError
from nanotube_bands.oracle import build_full_hamiltonian
from nanotube_bands.spectral import (
    FIBER_STACK,
    armchair_channels,
    block_period_matrix,
    fiber_matrices,
    scalar_period_matrix,
    spectrum_block_stack,
)

INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
GOLDEN_TOL = 1e-10  # a golden-section search stops once its bracket is this narrow

# ---------------------------------------------------------------------------
# reference: one channel at a time, by golden section


def ref_fiber_levels(fiber, thetas):
    taus = [cmath.exp(1j * th) for th in thetas]
    return np.concatenate(
        [
            np.linalg.eigvalsh(fiber_matrices(*fiber, taus[i : i + FIBER_STACK]))
            for i in range(0, len(taus), FIBER_STACK)
        ]
    )


def ref_branch_values(fiber, thetas, rows):
    return ref_fiber_levels(fiber, thetas)[np.arange(len(rows)), rows]


def ref_golden_extrema(fiber, lo, hi, rows, signs):
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    c = b - INVPHI * (b - a)
    d = a + INVPHI * (b - a)
    fc = signs * ref_branch_values(fiber, c, rows)
    fd = signs * ref_branch_values(fiber, d, rows)
    active = np.flatnonzero(b - a > GOLDEN_TOL)
    while active.size:
        to_left = fc[active] < fd[active]
        left, right = active[to_left], active[~to_left]
        b[left], d[left], fd[left] = d[left], c[left], fc[left]
        c[left] = b[left] - INVPHI * (b[left] - a[left])
        a[right], c[right], fc[right] = c[right], d[right], fd[right]
        d[right] = a[right] + INVPHI * (b[right] - a[right])
        probes = np.concatenate([left, right])
        values = signs[probes] * ref_branch_values(fiber, np.concatenate([c[left], d[right]]), rows[probes])
        fc[left], fd[right] = values[: left.size], values[left.size :]
        active = active[b[active] - a[active] > GOLDEN_TOL]
    return signs * np.where(fd < fc, fd, fc)


def ref_branch_ranges(block, grid_size):
    thetas = 2.0 * np.pi * np.arange(grid_size) / grid_size
    fiber = block_period_matrix(*block)
    levels = ref_fiber_levels(fiber, thetas)
    step = 2.0 * np.pi / grid_size
    size = levels.shape[1]
    i_min, i_max = np.argmin(levels, axis=0), np.argmax(levels, axis=0)
    grid_lo, grid_hi = levels[i_min, np.arange(size)], levels[i_max, np.arange(size)]
    constant = grid_hi - grid_lo < 1e-13 * np.maximum(1.0, np.max(np.abs(levels), axis=0))
    rows = np.flatnonzero(~constant)
    lo, hi = grid_lo.copy(), grid_hi.copy()
    if rows.size:
        centres = np.concatenate([thetas[i_min[rows]], thetas[i_max[rows]]])
        signs = np.repeat([1.0, -1.0], rows.size)
        extrema = ref_golden_extrema(fiber, centres - step, centres + step, np.concatenate([rows, rows]), signs)
        lo[rows] = np.where(grid_lo[rows] < extrema[: rows.size], grid_lo[rows], extrema[: rows.size])
        hi[rows] = -np.where(-grid_hi[rows] < -extrema[rows.size :], -grid_hi[rows], -extrema[rows.size :])
    return lo, hi


def ref_spectrum_block(block, grid_size):
    return spectral.merge_intervals(zip(*ref_branch_ranges(block, grid_size)))


# ---------------------------------------------------------------------------
# the properties


def bits(bands) -> bytes:
    return np.array(bands, dtype=float).tobytes()


def assert_same_channels(got, want):
    assert [(ch.k, ch.c_k) for ch in got] == [(ch.k, ch.c_k) for ch in want]
    for g, w in zip(got, want):
        assert bits(g.bands) == bits(w.bands), g.k
        assert bits(g.flat_bands) == bits(w.flat_bands), g.k


def check_stack(blocks, grid_size):
    """Branch ranges of a stack of channels: the bits of each channel alone, and accurate.

    ``grid_size`` is the golden-section reference's grid.
    """
    lo, hi = spectral._block_branch_ranges(*blocks)
    for block, chan_lo, chan_hi in zip(channels(blocks), lo, hi):
        alone_lo, alone_hi = spectral._block_branch_ranges(*block)
        assert chan_lo.tobytes() == alone_lo[0].tobytes() and chan_hi.tobytes() == alone_hi[0].tobytes()
        reference, dense = ref_branch_ranges(block, grid_size), dense_branch_ranges(block)
        assert_edges(chan_lo, chan_hi, *reference, *dense)


def flat_block(p, v):
    """A block channel whose wrap block couples nothing: every branch is constant in theta."""
    d = np.array([[[v[2 * j], 0.8], [0.8, v[2 * j + 1]]] for j in range(p)], dtype=complex)
    return np.zeros((1, 2, 2), dtype=complex), d[None]


def seeded_model(seed):
    """Armchair models over N 2-12, q 1-12, t 0.05-40, every third at B = 0; reference grids 16, 64, 512.

    The larger grids take the smaller models, to bound the reference's time.
    """
    rng = np.random.default_rng(900 + seed)
    grid = (16, 64, 512)[seed % 3]
    N = int(rng.integers(2, {16: 13, 64: 9, 512: 7}[grid]))
    q = int(rng.integers(1, {16: 13, 64: 9, 512: 6}[grid]))
    B = 0.0 if seed % 3 == 1 else float(rng.uniform(-4, 4))
    t = float(np.exp(rng.uniform(math.log(0.05), math.log(40.0))))
    model = ArmchairModel(N, tube_geometry(N, B)[1], PotentialProfile(rng.uniform(-1, 1, q)), t=t)
    return model, grid


# ---------------------------------------------------------------------------
# whole models and sweeps


@pytest.mark.parametrize("seed", range(15))
def test_model_channels_match_per_channel_reference(seed):
    model, grid = seeded_model(seed)
    check_stack(decompose_armchair([model]), grid)


@pytest.mark.parametrize(
    "N, q, t, B, grid", [(12, 12, 40.0, 0.0, 16), (2, 1, 0.05, 1.1, 512), (12, 7, 0.05, -2.0, 64)]
)
def test_range_ends_match_per_channel_reference(N, q, t, B, grid):
    rng = np.random.default_rng(100 * N + q)
    model = ArmchairModel(N, tube_geometry(N, B)[1], PotentialProfile(rng.uniform(-1, 1, q)), t=t)
    check_stack(decompose_armchair([model]), grid)


@pytest.mark.parametrize("steps, N, potential, grid", [(7, 4, [0.8, -0.45, 0.1], 64), (3, 9, [0.5], 16)])
def test_sweep_channels_match_per_step_loop(steps, N, potential, grid, tmp_path, monkeypatch):
    monkeypatch.delenv("NANOTUBE_BANDS_PRECISION", raising=False)
    Bs = list(np.linspace(-2.0, 3.0, steps))
    models = [ArmchairModel(N, tube_geometry(N, B)[1], PotentialProfile(potential), t=1.7) for B in Bs]
    per_step = [armchair_channels([model])[0] for model in models]
    for got, want in zip(armchair_channels(models), per_step):
        assert_same_channels(got, want)
    check_stack(decompose_armchair(models), grid)
    # the CLI writes those channels, whatever its --grid: one row per interval of each step and channel
    pot = tmp_path / "v.json"
    pot.write_text(str(potential))
    out = io.StringIO()
    argv = f"sweep --lattice armchair --N {N} --t 1.7 --B-start -2 --B-stop 3 --B-steps {steps} --grid {grid}"
    with contextlib.redirect_stdout(out):
        assert cli.main(argv.split() + ["--potential", str(pot)]) == 0
    rows = [
        (B, model.phases[0], ch.k, idx, lo, hi)
        for B, model, channels in zip(Bs, models, per_step)
        for ch in channels
        for idx, (lo, hi) in enumerate(sorted(ch.intervals()), start=1)
    ]
    assert out.getvalue() == cli._table("%g,%g,%d,%d,%g,%g", rows, 12, "\n") + "\n"


def test_mixed_stack_with_constant_channels_matches_reference():
    # armchair channels of two models of period 2 and two channels whose
    # branches are all constant, refined in one loop
    rng = np.random.default_rng(31)
    parts = []
    for N, B, t in ((3, 0.0, 0.4), (5, 1.3, 12.0)):
        model = ArmchairModel(N, tube_geometry(N, B)[1], PotentialProfile(rng.uniform(-1, 1, 4)), t=t)
        parts += channels(decompose_armchair([model]))
    parts.insert(2, flat_block(2, rng.uniform(-1, 1, 4)))
    parts.append(flat_block(2, rng.uniform(-1, 1, 4)))
    blocks = stack(parts)
    check_stack(blocks, 16)
    got = spectrum_block_stack(*blocks)
    for block, bands in zip(parts, got):
        assert bits(bands) == bits(spectrum_block_stack(*block)[0])
    # a constant branch keeps its sampled value, the golden-section reference its grid value
    assert spectrum_block_stack(*parts[2]) == [ref_spectrum_block(parts[2], 16)]
    assert all(hi - lo < 1e-12 for lo, hi in spectrum_block_stack(*parts[2])[0])


def counting_probes(monkeypatch):
    """The number of thetas of each ``_fiber_levels`` call: the samples, then one entry per round."""
    calls = []
    solve = spectral._fiber_levels

    def counting(fibers, chans, thetas):
        calls.append(len(thetas))
        return solve(fibers, chans, thetas)

    monkeypatch.setattr(spectral, "_fiber_levels", counting)
    return calls


def test_lockstep_searches_that_finish_at_different_rounds(monkeypatch):
    rng = np.random.default_rng(32)
    model = ArmchairModel(4, (0.3, -0.2, 0.7), PotentialProfile(rng.uniform(-1, 1, 3)), t=0.2)
    blocks = decompose_armchair([model])
    calls = counting_probes(monkeypatch)
    spectral._block_branch_ranges(*blocks)
    samples, rounds = calls[0], calls[1:]
    assert samples == 4 * spectral.LEVEL_SET_SAMPLES
    assert len(rounds) >= 3 and rounds[-1] < rounds[0] // 4  # searches stop at different rounds
    check_stack(blocks, 64)


def test_a_probe_does_not_depend_on_how_many_probes_share_its_call():
    # numpy computes an expression in place once a temporary of it reaches
    # 256 KiB, and its vector loops may round the elements of a stack apart
    # from a lone one: 20 000 probes and 5 000 level sets at once against each alone
    rng = np.random.default_rng(34)
    model = ArmchairModel(8, (0.1, 0.2, -0.3), PotentialProfile(rng.uniform(-1, 1, 2)), t=1.0)
    fibers = block_period_matrix(*decompose_armchair([model]))
    n = 20_000
    chans, thetas = rng.integers(0, 8, n), rng.uniform(0.0, 2 * math.pi, n)
    together = np.concatenate([levels for _, levels in spectral._fiber_levels(fibers, chans, thetas)])
    for i in range(300):
        ((_, alone),) = spectral._fiber_levels(fibers, chans[i : i + 1], thetas[i : i + 1])
        assert together[i].tobytes() == alone[0].tobytes(), i
    grid = 2.0 * np.pi * np.arange(spectral.LEVEL_SET_SAMPLES) / spectral.LEVEL_SET_SAMPLES
    samples = np.concatenate(
        [levels for _, levels in spectral._fiber_levels(fibers, np.repeat(np.arange(8), 8), np.tile(grid, 8))]
    ).reshape(8, 8, -1)
    n = 5_000
    chans, rows = rng.integers(0, 8, n), rng.integers(0, 2, n)
    level = together[np.arange(n), rows]  # each search's branch meets its level at its own theta
    mids = spectral._arc_midpoints(samples[chans], level, thetas[:n])
    for i in range(300):
        alone = spectral._arc_midpoints(samples[chans[i : i + 1]], level[i : i + 1], thetas[i : i + 1])
        assert mids[i].tobytes() == alone[0].tobytes(), i


def test_stacks_of_different_periods_are_refused():
    # one eigensolve takes matrices of one size
    model_p1 = ArmchairModel(3, (0.1, 0.2, 0.3), PotentialProfile([0.4]), t=1.0)
    model_p3 = ArmchairModel(3, (0.1, 0.2, 0.3), PotentialProfile([0.4, -0.1, 0.2]), t=1.0)
    with pytest.raises(ValueError):
        armchair_channels([model_p1, model_p3])


# ---------------------------------------------------------------------------
# fiber matrices with paired multipliers


def one_matrix(period, wrap, tau):
    """L(tau) of one period, assembled entry block by entry block."""
    m, r = period.shape[-1], wrap.shape[-1]
    L = period.astype(complex)
    L[m - r :, :r] += tau * wrap
    L[:r, m - r :] += np.conj(tau) * wrap.conj().T
    return L


@pytest.mark.parametrize("kind", ["block", "scalar"])
def test_paired_multipliers_match_one_matrix_builds(kind):
    rng = np.random.default_rng(33)
    if kind == "block":
        # p = 1 puts both corners on the diagonal block, p = 2 on the bonds
        for p in (1, 2, 5):
            model = ArmchairModel(6, tuple(rng.normal(size=3)), PotentialProfile(rng.normal(size=p)), t=1.3)
            blocks = decompose_armchair([model])
            periods, wraps = block_period_matrix(*blocks)
            fibers = list(zip(periods, wraps))
            # the stack holds each channel's own build
            for block, period, wrap in zip(channels(blocks), periods, wraps):
                alone = block_period_matrix(*block)
                assert period.tobytes() == alone[0][0].tobytes() and wrap.tobytes() == alone[1][0].tobytes()
            chans = rng.integers(0, len(fibers), size=50)
            taus = np.array([cmath.exp(1j * th) for th in rng.uniform(-7, 7, size=50)])
            got = fiber_matrices(periods[chans], wraps[chans], taus)
            assert got.shape == (50,) + periods.shape[1:]
            for c, tau, L in zip(chans, taus, got):
                assert L.tobytes() == one_matrix(*fibers[c], tau).tobytes()
                assert L.tobytes() == fiber_matrices(*fibers[c], [tau])[0].tobytes()
    else:
        offdiag = rng.normal(size=(5, 6)) + 1j * rng.normal(size=(5, 6))
        periods, wraps = scalar_period_matrix(offdiag, rng.normal(size=(5, 6)))
        taus = np.array([cmath.exp(1j * th) for th in rng.uniform(-7, 7, size=5)])
        got = fiber_matrices(periods, wraps, taus)
        outer = fiber_matrices(periods[:, None], wraps[:, None], taus)
        assert got.shape == (5, 6, 6) and outer.shape == (5, 5, 6, 6)
        for c in range(5):
            assert got[c].tobytes() == one_matrix(periods[c], wraps[c], taus[c]).tobytes()
            for i, tau in enumerate(taus):
                assert outer[c, i].tobytes() == one_matrix(periods[c], wraps[c], tau).tobytes()


def test_paired_multipliers_keep_both_checks():
    for p in (1, 2, 5):  # p = 1 puts both corners on the whole matrix, p = 2 on the bonds
        model = ArmchairModel(4, (0.3, -0.2, 0.7), PotentialProfile(np.linspace(0.5, -0.5, 2 * p)), t=1.0)
        periods, wraps = block_period_matrix(*decompose_armchair([model]))
        m = 2 * p
        taus = np.exp(1j * np.arange(4.0))
        with pytest.raises(InvalidParameterError):
            fiber_matrices(periods, wraps, np.where(np.arange(4) == 3, 1.01 * taus, taus))
        # off the corners (for p > 1), in the lower-left corner and in the upper-right one
        for entry in ((0, 1), (m - 1, 0), (1, m - 2)):
            broken = periods.copy()
            broken[(2,) + entry] += 1e-6  # one matrix of the stack is not Hermitian
            with pytest.raises(InternalConsistencyError):
                fiber_matrices(broken, wraps, taus)
            with pytest.raises(InternalConsistencyError):
                fiber_matrices(broken[2], wraps[2], taus)  # one period at every multiplier
            broken[(2,) + entry] = periods[(2,) + entry] + 1e-13  # within the tolerance
            fiber_matrices(broken, wraps, taus)


# ---------------------------------------------------------------------------
# the level-set search


def sign_segments(block, level, scan_size=4096):
    """Start thetas of the runs of a scan on which the signs of every branch minus ``level`` stay the same."""
    thetas = 2.0 * np.pi * np.arange(scan_size) / scan_size
    signs = np.sign(fiber_levels(block_period_matrix(*block), thetas) - level)
    change = np.any(signs != np.roll(signs, 1, axis=0), axis=1)
    return thetas[change]


@pytest.mark.parametrize("p", [1, 2, 5])
def test_arc_midpoints_fall_one_in_each_arc_between_level_crossings(p):
    # p = 1 puts both wrap corners on the whole matrix, p = 2 on the bonds;
    # det(L - E) has degree 2 in theta, so at most 4 crossings for any level
    rng = np.random.default_rng(40 + p)
    model = ArmchairModel(5, tuple(rng.normal(size=3)), PotentialProfile(rng.uniform(-1, 1, 2 * p)), t=1.3)
    blocks = decompose_armchair([model])
    grid = 2.0 * np.pi * np.arange(spectral.LEVEL_SET_SAMPLES) / spectral.LEVEL_SET_SAMPLES
    checked = 0
    for block in channels(blocks):
        samples = fiber_levels(block_period_matrix(*block), grid)[None]
        for theta in rng.uniform(0.0, 2 * math.pi, 6):
            level = fiber_levels(block_period_matrix(*block), [theta])[0, rng.integers(0, 2 * p)]
            mids = spectral._arc_midpoints(samples, np.array([level]), np.array([theta]))[0]
            mids = np.sort(np.mod(mids[~np.isnan(mids)], 2 * math.pi))
            starts = sign_segments(block, level)
            if starts.size < 2 or np.min(np.diff(np.append(starts, starts[0] + 2 * math.pi))) < 1e-2:
                continue  # a crossing too close to another for the scan to separate them
            assert starts.size == mids.size <= 4
            # each arc of the scan holds one midpoint (the arcs before the first start and after the last are one)
            assert np.unique(np.searchsorted(starts, mids) % starts.size).size == mids.size
            checked += 1
    assert checked >= 10


@pytest.mark.parametrize(
    "N, B, t, potential, c, searches",
    [
        # two dips 2e-7 wide at theta = +-1.1e-3, one each side of a sample: the crossings cluster
        # in fours there, and only the one divided out resolves the arc about each dip
        (2, 0.0, 0.0013451888462375746,
         [0.6524466935423303, -0.8763061292528544, -0.8140160146755433, 0.9263634334794699, 0.5067308362567169,
          -0.3242915944414899], 1, [(3, 1.0), (2, -1.0)]),
        # a minimum 200 u * scale deep on a branch that varies by 1.6e-12 of the scale, whose samples
        # carry rounding of 1e-4 of that: kept real, the deflated quartic keeps its crossings on the circle
        (8, -2.9706143014626445, 15.394352403685321,
         [-0.24752299714381154, -0.15815721076507416, 0.3299684927239215, -0.08814207391250228, 0.1730366536510628,
          0.6793692072178847, 0.4529472206247409, -0.2699854729828821, -0.10320738131103147, -0.2646008606199868,
          -0.7805306719866065, -0.5935169118252068, -0.43238702211173785], 4, [(24, 1.0)]),
    ],
    ids=["narrow-dips", "near-flat-branch"],
)
def test_level_sets_blurred_by_rounding_are_resolved(N, B, t, potential, c, searches):
    # each named (branch, sign) search missed the dense reference's extremum by 4e4 to 9e4
    # (narrow dips) or 440 (near-flat branch) ulps of the scale without its remedy
    model = ArmchairModel(N, tube_geometry(N, B)[1], PotentialProfile(potential), t=t)
    block = channel(decompose_armchair([model]), c)
    lo, hi = spectral._block_branch_ranges(*block)
    dense_lo, dense_hi, scale = dense_branch_ranges(block)
    assert np.all(np.abs(lo[0] - dense_lo) <= DENSE_AGREEMENT * scale)
    assert np.all(np.abs(hi[0] - dense_hi) <= DENSE_AGREEMENT * scale)
    eps = np.finfo(float).eps
    for row, sign in searches:
        got, dense = (lo[0, row], dense_lo[row]) if sign > 0 else (hi[0, row], dense_hi[row])
        assert sign * (got - dense) <= NOT_LESS_EXTREME * eps * scale, (row, sign * (got - dense) / (eps * scale))


def crossing_block(phi):
    """p = 1 channel with fiber matrices diag(2 cos(theta), 2 cos(theta + phi)): two branches that cross."""
    return np.diag([1.0, np.exp(-1j * phi)])[None], np.zeros((1, 1, 2, 2), dtype=complex)


@pytest.mark.parametrize("phi", [0.3, 1.0, 2.0])
def test_kink_at_the_extremum_is_met_to_rounding(phi):
    # the upper branch max(2 cos(theta), 2 cos(theta + phi)) has its minimum at
    # the crossing theta = pi - phi/2, a kink with no slope or curvature to
    # follow; the arcs about it shrink to it
    lo, hi = spectral._block_branch_ranges(*crossing_block(phi))
    exact = -2.0 * math.cos(phi / 2)
    eps = np.finfo(float).eps
    assert abs(lo[0, 1] - exact) <= 8 * eps and abs(hi[0, 0] + exact) <= 8 * eps
    assert (lo[0, 0], hi[0, 1]) == (-2.0, 2.0)  # smooth extrema on the samples


def test_constant_branch_stops_on_its_first_round(monkeypatch):
    block = flat_block(2, [0.3, -0.6, 0.1, 0.9])
    calls = counting_probes(monkeypatch)
    lo, hi = spectral._block_branch_ranges(*block)
    assert len(calls) <= 2  # the samples, and at most one round
    samples = fiber_levels(block_period_matrix(*block), [0.0])
    assert lo.tobytes() == samples.tobytes() and hi.tobytes() == samples.tobytes()


def test_searches_converge_in_a_few_rounds(monkeypatch):
    # each round halves the distance to a kink and squares it at a smooth
    # extremum, so no search comes near the round limit
    calls = counting_probes(monkeypatch)
    for seed in range(6):
        model, _ = seeded_model(seed)
        calls.clear()
        spectral._block_branch_ranges(*decompose_armchair([model]))
        assert len(calls) - 1 <= 12, seed


def test_search_that_does_not_converge_is_an_internal_error(monkeypatch, tmp_path):
    monkeypatch.delenv("NANOTUBE_BANDS_PRECISION", raising=False)
    model = ArmchairModel(3, tube_geometry(3, 0.4)[1], PotentialProfile([0.5, -0.2, 0.1]), t=1.0)
    monkeypatch.setattr(spectral, "LEVEL_SET_MAX_ROUNDS", 1)
    with pytest.raises(InternalConsistencyError, match="did not converge in 1 rounds"):
        armchair_channels([model])
    pot = tmp_path / "v.json"
    pot.write_text("[0.5, -0.2, 0.1]")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(f"bands --lattice armchair --N 3 --B 0.4 --grid 64 --potential {pot}".split())
    assert code == 3 and "did not converge" in err.getvalue()


# ---------------------------------------------------------------------------
# every fiber level inside the printed channel bands


PINNED = [  # bench/workloads.make_block("armchair_bands", seed, block)[op] ops whose printed ranges levels exceeded
    (4, -2.3109834863674226, 0.05582278882726885,
     [-0.09349570885484315, 0.7741978400748517, 0.8559589056579622, -0.06067458274572446, -0.7033268825461061], 512),
    (3, 1.2022434919112666, 0.054414640611829594,
     [-0.006492619965662083, 0.48355951706344036, -0.6608406589974223, -0.7476597646983043, 0.01560107002038702], 64),
    (5, 0.4067238061190612, 0.11971202692214092,
     [0.5345917671063956, 0.2566898003472644, 0.4515443168346249, 0.2759797034553957, 0.10913416551468225,
      0.5990615042501255], 64),
    (6, 2.931553508015053, 0.05790726159673577,
     [-0.1795927387107994, -0.2669725184548064, -0.838650771158717, 0.4062570611418248, -0.32759032285706957], 64),
    (3, 2.0753725800000637, 0.09235483341582572,
     [0.186081527312135, -0.7833602719652422, -0.3348243962117816, -0.8373735168183285, -0.7369251793559057], 64),
    (3, -2.43566494937689, 0.05661890837913491,
     [-0.36137730549228175, -0.8448379224237603, -0.5909584988885901, 0.5177674334807649, 0.5964208365606423], 64),
]
PINNED_IDS = ["seed12-block0-op6", "seed13-block0-op15", "seed12-block0-op31", "seed22-block0-op17",
              "seed11-block1-op17", "seed13-block2-op10"]


def assert_levels_inside_printed_bands(N, B, t, potential, grid, thetas):
    """Every level of each channel at ``thetas`` lies in a printed band or on a printed flat level of it.

    The bands are printed with 17 digits, which give back every float, and the
    tolerance is 1e-12 of the channel's scale max(1, max|level|).
    """
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, {"NANOTUBE_BANDS_PRECISION": "17"}):
        path = os.path.join(tmp, "v.json")
        with open(path, "w") as f:
            json.dump(potential, f)
        out = io.StringIO()
        argv = f"bands --lattice armchair --N {N} --B {B!r} --t {t!r} --grid {grid} --potential {path}"
        with contextlib.redirect_stdout(out):
            assert cli.main(argv.split()) == 0
    printed = json.loads(out.getvalue())["channels"]
    model = ArmchairModel(N, tube_geometry(N, B)[1], PotentialProfile(potential), t=t)
    for block, chan in zip(channels(decompose_armchair([model])), printed):
        levels = fiber_levels(block_period_matrix(*block), thetas).ravel()
        tol = 1e-12 * max(1.0, float(np.max(np.abs(levels))))
        ranges = np.array(chan["bands"] + [[e, e] for e in chan["flat_bands"]]).reshape(-1, 2)
        outside = np.maximum(ranges[:, 0][None, :] - levels[:, None], levels[:, None] - ranges[:, 1][None, :])
        excess = np.min(outside, axis=1)
        assert np.max(excess) <= tol, (chan["k"], float(np.max(excess)) / tol)


@pytest.mark.parametrize("N, B, t, potential, grid", PINNED, ids=PINNED_IDS)
def test_pinned_ops_print_every_fiber_level(N, B, t, potential, grid):
    # at small t a weak avoided crossing gives a branch a peak about one grid step
    # wide, where a search started from the grid extremum converged in the wrong basin
    thetas = np.concatenate([2.0 * np.pi * np.arange(2**14) / 2**14, np.random.default_rng(N).uniform(0, 7, 64)])
    assert_levels_inside_printed_bands(N, B, t, potential, grid, thetas)


@st.composite
def containment_cases(draw):
    N = draw(st.integers(2, 8))
    q = draw(st.integers(1, 16))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    potential = [float(x) for x in rng.uniform(-1.0, 1.0, q)]
    t = 10.0 ** draw(st.floats(-3.0, 3.0))
    B = draw(st.sampled_from([0.0, None]))
    B = float(rng.uniform(-4.0, 4.0)) if B is None else B
    return N, B, t, potential, draw(st.sampled_from([16, 64, 512])), rng.uniform(0.0, 2 * math.pi, 64)


@given(case=containment_cases())
@settings(max_examples=40, deadline=None)
def test_fiber_levels_at_random_thetas_lie_in_the_printed_channel_bands(case):
    assert_levels_inside_printed_bands(*case)


# ---------------------------------------------------------------------------
# every torus level inside the printed union


@st.composite
def armchair_cases(draw):
    N = draw(st.integers(2, 16))
    q = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    potential = [float(x) for x in np.random.default_rng(seed).uniform(-1.0, 1.0, q)]
    t = 10.0 ** draw(st.floats(-4.0, 3.0))
    return N, potential, t, draw(st.floats(-3.0, 3.0)), draw(st.sampled_from([16, 64]))


@given(case=armchair_cases())
@settings(max_examples=25, deadline=None)
def test_torus_levels_lie_in_the_printed_union(case):
    N, potential, t, B, grid = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "v.json")
        with open(path, "w") as f:
            json.dump(potential, f)
        out = io.StringIO()
        argv = f"bands --lattice armchair --N {N} --B {B!r} --t {t!r} --grid {grid} --potential {path}"
        with contextlib.redirect_stdout(out):
            assert cli.main(argv.split()) == 0
    union = np.array([(band["lo"], band["hi"]) for band in json.loads(out.getvalue())["union"]["bands"]])
    model = ArmchairModel(N, tube_geometry(N, B)[1], PotentialProfile(potential), t=t)
    H = build_full_hamiltonian(model, 2 * model.potential.p)
    levels = H.eigenvalues()
    outside = np.maximum(union[:, 0][None, :] - levels[:, None], levels[:, None] - union[:, 1][None, :])
    assert np.max(np.min(np.maximum(outside, 0.0), axis=1)) <= 1e-8 * max(1.0, float(np.max(np.abs(H.matrix))))
