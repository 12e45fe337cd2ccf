"""The block-channel edges: Newton refinement against the golden-section routine it replaced.

``spectrum_block_stack`` refines the branch extrema of every channel it is
given -- all channels of a model, or of every field step of a sweep -- by
safeguarded Newton searches in one lockstep loop, each probe pairing its own
channel with its own multiplier.  Two properties are checked:

* Stacking.  ``eigh`` solves the matrices of a stack one by one and every
  search visits the same thetas whatever else runs in its loop, so a
  channel's edges are the same bits whether it is solved alone or in a model
  or sweep stack.  They are compared as ``tobytes`` of float arrays, where
  0.0 and -0.0 differ.
* Accuracy.  The reference below is the former one-channel
  ``spectrum_block`` with its own golden-section loop, kept verbatim with
  its two constants.  Every refined edge is at least as extreme as the
  golden-section edge up to 16 ulps of the channel's largest level
  (golden section keeps the most extreme of ~41 rounded probes, Newton of
  ~5), and within 1e-13 of that scale of a dense zoom-grid reference
  (``block_reference``).
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from block_reference import assert_edges, dense_branch_ranges
from nanotube_bands import cli, spectral
from nanotube_bands.armchair import BlockPeriodicJacobi, decompose_armchair, tube_geometry
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
    fiber = block_period_matrix([block])
    levels = ref_fiber_levels(fiber, thetas)
    step = 2.0 * np.pi / grid_size
    size = 2 * block.p
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
    """Branch ranges of a stack of channels: the bits of each channel alone, and accurate."""
    lo, hi = spectral._block_branch_ranges(blocks, grid_size)
    for block, chan_lo, chan_hi in zip(blocks, lo, hi):
        alone_lo, alone_hi = spectral._block_branch_ranges([block], grid_size)
        assert chan_lo.tobytes() == alone_lo[0].tobytes() and chan_hi.tobytes() == alone_hi[0].tobytes()
        reference, dense = ref_branch_ranges(block, grid_size), dense_branch_ranges(block, grid_size)
        assert_edges(chan_lo, chan_hi, *reference, *dense)


def flat_block(p, v):
    """A block channel whose wrap block couples nothing: every branch is constant in theta."""
    d = np.array([[[v[2 * j], 0.8], [0.8, v[2 * j + 1]]] for j in range(p)], dtype=complex)
    return BlockPeriodicJacobi(p=p, a_block=np.zeros((2, 2)), d_blocks=d)


def seeded_model(seed):
    """Armchair models over N 2-12, q 1-12, t 0.05-40, every third at B = 0; grids 16, 64, 512.

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
    check_stack(decompose_armchair(model), grid)


@pytest.mark.parametrize(
    "N, q, t, B, grid", [(12, 12, 40.0, 0.0, 16), (2, 1, 0.05, 1.1, 512), (12, 7, 0.05, -2.0, 64)]
)
def test_range_ends_match_per_channel_reference(N, q, t, B, grid):
    rng = np.random.default_rng(100 * N + q)
    model = ArmchairModel(N, tube_geometry(N, B)[1], PotentialProfile(rng.uniform(-1, 1, q)), t=t)
    check_stack(decompose_armchair(model), grid)


@pytest.mark.parametrize("steps, N, potential, grid", [(7, 4, [0.8, -0.45, 0.1], 64), (3, 9, [0.5], 16)])
def test_sweep_channels_match_per_step_loop(steps, N, potential, grid, tmp_path, monkeypatch):
    monkeypatch.delenv("NANOTUBE_BANDS_PRECISION", raising=False)
    Bs = list(np.linspace(-2.0, 3.0, steps))
    models = [ArmchairModel(N, tube_geometry(N, B)[1], PotentialProfile(potential), t=1.7) for B in Bs]
    per_step = [armchair_channels([model], grid)[0] for model in models]
    for got, want in zip(armchair_channels(models, grid), per_step):
        assert_same_channels(got, want)
    check_stack([block for model in models for block in decompose_armchair(model)], grid)
    # the CLI writes those channels: one row per interval of each step and channel
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
    blocks = []
    for N, B, t in ((3, 0.0, 0.4), (5, 1.3, 12.0)):
        model = ArmchairModel(N, tube_geometry(N, B)[1], PotentialProfile(rng.uniform(-1, 1, 4)), t=t)
        blocks += decompose_armchair(model)
    blocks.insert(2, flat_block(2, rng.uniform(-1, 1, 4)))
    blocks.append(flat_block(2, rng.uniform(-1, 1, 4)))
    for grid in (16, 64):
        check_stack(blocks, grid)
        got = spectrum_block_stack(blocks, grid)
        for block, bands in zip(blocks, got):
            assert bits(bands) == bits(spectrum_block_stack([block], grid)[0])
    # a constant branch keeps its grid value, the golden-section reference's too
    assert spectrum_block_stack(blocks[2:3], 16) == [ref_spectrum_block(blocks[2], 16)]
    assert all(hi - lo < 1e-12 for lo, hi in spectrum_block_stack([blocks[2]], 16)[0])


def lockstep_case():
    """Searches on two channels with brackets of the widths of grids 16 and 4096, at random thetas."""
    rng = np.random.default_rng(32)
    model = ArmchairModel(4, (0.3, -0.2, 0.7), PotentialProfile(rng.uniform(-1, 1, 3)), t=2.0)
    blocks = decompose_armchair(model)[:2]
    fibers = block_period_matrix(blocks)
    size = 2 * blocks[0].p
    rows = np.tile(np.arange(size), 4)
    signs = np.repeat([1.0, -1.0, 1.0, -1.0], size)
    chans = np.repeat([0, 0, 1, 1], size)
    width = np.repeat([2 * math.pi / 16, 2 * math.pi / 16, 2 * math.pi / 4096, 2 * math.pi / 4096], size)
    centres = rng.uniform(0, 2 * math.pi, rows.size)
    return fibers, chans, centres, width, rows, signs


def test_lockstep_searches_that_finish_at_different_iterations(monkeypatch):
    fibers, chans, centres, width, rows, signs = lockstep_case()
    probes_per_call = []
    derivatives = spectral._branch_derivatives

    def counting(fibers, chans, thetas, rows):
        probes_per_call.append(len(thetas))
        return derivatives(fibers, chans, thetas, rows)

    monkeypatch.setattr(spectral, "_branch_derivatives", counting)
    got = spectral._newton_extrema(fibers, chans, centres, width, rows, signs)
    lockstep = list(probes_per_call)
    for chan in (0, 1):
        mine = chans == chan
        alone = tuple(part[chan : chan + 1] for part in fibers)
        zeros = np.zeros(mine.sum(), dtype=int)
        want = spectral._newton_extrema(alone, zeros, centres[mine], width[mine], rows[mine], signs[mine])
        assert got[mine].tobytes() == want.tobytes()
    for search in range(rows.size):  # and every search alone
        probes_per_call.clear()
        one = np.array([search])
        want = spectral._newton_extrema(fibers, chans[one], centres[one], width[one], rows[one], signs[one])
        assert got[one].tobytes() == want.tobytes()
        assert probes_per_call == [1] * len(probes_per_call)
    assert lockstep[0] == rows.size and lockstep == sorted(lockstep, reverse=True)
    assert len(set(lockstep)) >= 3 and lockstep[-1] < rows.size // 2  # searches stop at different iterations


def test_a_probe_does_not_depend_on_how_many_probes_share_its_call():
    # numpy computes an expression in place once a temporary of it reaches
    # 256 KiB, which rounds some products differently: 20 000 probes reduced
    # at once gave other last bits than each probe alone
    rng = np.random.default_rng(34)
    model = ArmchairModel(8, (0.1, 0.2, -0.3), PotentialProfile(rng.uniform(-1, 1, 2)), t=1.0)
    fibers = block_period_matrix(decompose_armchair(model))
    n = 20_000
    chans, rows, thetas = rng.integers(0, 8, n), rng.integers(0, 2, n), rng.uniform(0.0, 2 * math.pi, n)
    together = spectral._branch_derivatives(fibers, chans, thetas, rows)
    for i in range(300):
        alone = spectral._branch_derivatives(fibers, chans[i : i + 1], thetas[i : i + 1], rows[i : i + 1])
        assert [x[i : i + 1].tobytes() for x in together] == [x.tobytes() for x in alone], i


def test_stacks_of_different_periods_are_refused():
    # one eigensolve takes matrices of one size
    model_p1 = ArmchairModel(3, (0.1, 0.2, 0.3), PotentialProfile([0.4]), t=1.0)
    model_p3 = ArmchairModel(3, (0.1, 0.2, 0.3), PotentialProfile([0.4, -0.1, 0.2]), t=1.0)
    with pytest.raises(ValueError):
        armchair_channels([model_p1, model_p3], 16)


def test_stack_refuses_bad_grid():
    model = ArmchairModel(3, (0.1, 0.2, 0.3), PotentialProfile([0.4]), t=1.0)
    for grid in (8, 100):
        with pytest.raises(InvalidParameterError):
            spectrum_block_stack(decompose_armchair(model), grid)


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
            blocks = decompose_armchair(model)
            periods, wraps = block_period_matrix(blocks)
            fibers = list(zip(periods, wraps))
            for block, period, wrap in zip(blocks, periods, wraps):  # the stack holds each channel's own build
                alone = block_period_matrix([block])
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
        periods, wraps = block_period_matrix(decompose_armchair(model))
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
# the Newton search


@pytest.mark.parametrize("p", [1, 2, 5])
def test_branch_derivatives_match_finite_differences(p):
    # p = 1 puts both corners of L' on the whole matrix and p = 2 on the bonds:
    # a corner term assigned over the other one instead of added to it is off by O(1)
    rng = np.random.default_rng(40 + p)
    model = ArmchairModel(5, tuple(rng.normal(size=3)), PotentialProfile(rng.uniform(-1, 1, 2 * p)), t=1.3)
    blocks = decompose_armchair(model)
    fibers = block_period_matrix(blocks)
    chans = rng.integers(0, len(blocks), 60)
    rows = rng.integers(0, 2 * p, 60)
    thetas = rng.uniform(0.0, 2 * math.pi, 60)
    level, slope, curvature = spectral._branch_derivatives(fibers, chans, thetas, rows)
    h = 1e-4
    values = np.array([
        ref_fiber_levels(block_period_matrix(blocks[c : c + 1]), [th - h, th, th + h])
        for c, th in zip(chans, thetas)
    ])  # (probe, theta, level)
    down, mid, up = values[np.arange(60), :, rows].T
    gaps = np.abs(values[:, 1] - mid[:, None])
    gaps[np.arange(60), rows] = np.inf
    apart = np.min(gaps, axis=1) > 0.05  # finite differences need the other levels well away
    assert apart.sum() >= 30
    np.testing.assert_allclose(level, mid, rtol=0, atol=1e-13)  # eigh and eigvalsh round apart
    np.testing.assert_allclose(slope[apart], ((up - down) / (2 * h))[apart], rtol=0, atol=1e-6)
    np.testing.assert_allclose(curvature[apart], ((up - 2 * mid + down) / h**2)[apart], rtol=0, atol=1e-4)


def crossing_block(phi):
    """p = 1 channel with fiber matrices diag(2 cos(theta), 2 cos(theta + phi)): two branches that cross."""
    return BlockPeriodicJacobi(p=1, a_block=np.diag([1.0, np.exp(-1j * phi)]), d_blocks=np.zeros((1, 2, 2)))


def test_kink_at_the_extremum_is_bisected_to_the_bracket():
    # the upper branch max(2 cos(theta), 2 cos(theta + 1)) has its minimum at the
    # crossing theta = pi - 1/2, where both pieces are convex and their Newton
    # steps point past the kink: only bisection gets there
    lo, hi = spectral._block_branch_ranges([crossing_block(1.0)], 64)
    slope = 2.0 * math.sin(0.5)
    exact = -2.0 * math.cos(0.5)
    assert exact - 4 * np.finfo(float).eps <= lo[0, 1] <= exact + slope * spectral.NEWTON_TOL
    assert -exact - slope * spectral.NEWTON_TOL <= hi[0, 0] <= -exact + 4 * np.finfo(float).eps
    assert (lo[0, 0], hi[0, 1]) == (-2.0, 2.0)  # smooth extrema on the grid


def test_constant_branch_stops_at_its_first_probe(monkeypatch):
    block = flat_block(2, [0.3, -0.6, 0.1, 0.9])
    fibers = block_period_matrix([block])
    calls = []
    derivatives = spectral._branch_derivatives

    def counting(fibers, chans, thetas, rows):
        calls.append(derivatives(fibers, chans, thetas, rows))
        return calls[-1]

    monkeypatch.setattr(spectral, "_branch_derivatives", counting)
    rows = np.tile(np.arange(4), 2)
    signs = np.repeat([1.0, -1.0], 4)
    got = spectral._newton_extrema(fibers, np.zeros(8, dtype=int), np.full(8, 0.7), 0.1, rows, signs)
    ((level, slope, curvature),) = calls  # one probe each: f' = f'' = 0 at the centre
    assert not slope.any() and not curvature.any()
    assert got.tobytes() == level.tobytes()


def test_converged_search_stops_when_its_step_rounds_to_zero(monkeypatch):
    # the lower branch of crossing_block(1.0) is 2 cos(theta) near pi, far from
    # the other one; Newton converges in a few probes, after which its step
    # rounds to zero on a bracket end, which used to set off ~25 bisections
    fibers = block_period_matrix([crossing_block(1.0)])
    calls = []
    derivatives = spectral._branch_derivatives

    def counting(fibers, chans, thetas, rows):
        calls.append(thetas.copy())
        return derivatives(fibers, chans, thetas, rows)

    monkeypatch.setattr(spectral, "_branch_derivatives", counting)
    zero = np.zeros(1, dtype=int)
    got = spectral._newton_extrema(fibers, zero, np.array([math.pi + 0.02]), 0.1, zero, np.ones(1))
    assert len(calls) <= 6  # 30 when the search bisected on
    assert abs(calls[-1][0] - math.pi) <= spectral.NEWTON_TOL
    assert got[0] == pytest.approx(-2.0, abs=4 * np.finfo(float).eps)


def test_search_that_does_not_converge_is_an_internal_error(monkeypatch, tmp_path):
    monkeypatch.delenv("NANOTUBE_BANDS_PRECISION", raising=False)
    model = ArmchairModel(3, tube_geometry(3, 0.4)[1], PotentialProfile([0.5, -0.2, 0.1]), t=1.0)
    monkeypatch.setattr(spectral, "NEWTON_MAX_ITER", 2)
    with pytest.raises(InternalConsistencyError, match="did not converge in 2 probes"):
        armchair_channels([model], 64)
    pot = tmp_path / "v.json"
    pot.write_text("[0.5, -0.2, 0.1]")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(f"bands --lattice armchair --N 3 --B 0.4 --grid 64 --potential {pot}".split())
    assert code == 3 and "did not converge" in err.getvalue()


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
