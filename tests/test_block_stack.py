"""The stacked block-channel routine against the per-channel one it replaced.

``spectrum_block_stack`` refines the branch extrema of every channel it is
given -- all channels of a model, or of every field step of a sweep -- in one
lockstep golden-section loop, each probe pairing its own channel with its own
multiplier.  The reference below is the former one-channel ``spectrum_block``
with its own ``_golden_extrema`` loop, kept verbatim.  ``eigvalsh`` solves the
matrices of a stack one by one and every search visits the same thetas, so
the edges must agree to the bit: they are compared as ``tobytes`` of float
arrays, where 0.0 and -0.0 differ.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import math

import numpy as np
import pytest

from nanotube_bands import cli, spectral
from nanotube_bands.armchair import BlockPeriodicJacobi, decompose_armchair, tube_geometry
from nanotube_bands.core import ArmchairModel, PotentialProfile
from nanotube_bands.errors import InternalConsistencyError, InvalidParameterError
from nanotube_bands.spectral import (
    FIBER_STACK,
    GOLDEN_TOL,
    INVPHI,
    armchair_channels,
    block_period_matrix,
    fiber_matrices,
    scalar_period_matrix,
    spectrum_block_stack,
)

# ---------------------------------------------------------------------------
# reference: one channel at a time


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


def ref_spectrum_block(block, grid_size):
    thetas = 2.0 * np.pi * np.arange(grid_size) / grid_size
    fiber = block_period_matrix(block)
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
    return spectral.merge_intervals(zip(lo, hi))


def ref_armchair_channels(model, grid_size):
    out = []
    for k, block in enumerate(decompose_armchair(model), start=1):
        bands = ref_spectrum_block(block, grid_size)
        out.append(
            spectral.ChannelBands(
                k=k,
                c_k=math.cos(math.pi * k / model.N),
                bands=tuple((lo, hi) for lo, hi in bands if hi - lo >= 1e-12),
                flat_bands=tuple(lo for lo, hi in bands if hi - lo < 1e-12),
            )
        )
    return out


def bits(bands) -> bytes:
    return np.array(bands, dtype=float).tobytes()


def assert_same_channels(got, want):
    assert [(ch.k, ch.c_k) for ch in got] == [(ch.k, ch.c_k) for ch in want]
    for g, w in zip(got, want):
        assert bits(g.bands) == bits(w.bands), g.k
        assert bits(g.flat_bands) == bits(w.flat_bands), g.k


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
    (got,) = armchair_channels([model], grid)
    assert_same_channels(got, ref_armchair_channels(model, grid))


@pytest.mark.parametrize("N, q, t, B, grid", [(12, 12, 40.0, 0.0, 16), (2, 1, 0.05, 1.1, 512), (12, 7, 0.05, -2.0, 64)])
def test_range_ends_match_per_channel_reference(N, q, t, B, grid):
    rng = np.random.default_rng(100 * N + q)
    model = ArmchairModel(N, tube_geometry(N, B)[1], PotentialProfile(rng.uniform(-1, 1, q)), t=t)
    (got,) = armchair_channels([model], grid)
    assert_same_channels(got, ref_armchair_channels(model, grid))


@pytest.mark.parametrize("steps, N, potential, grid", [(7, 4, [0.8, -0.45, 0.1], 64), (3, 9, [0.5], 16)])
def test_sweep_channels_match_per_step_loop(steps, N, potential, grid, tmp_path, monkeypatch):
    monkeypatch.delenv("NANOTUBE_BANDS_PRECISION", raising=False)
    Bs = list(np.linspace(-2.0, 3.0, steps))
    models = [ArmchairModel(N, tube_geometry(N, B)[1], PotentialProfile(potential), t=1.7) for B in Bs]
    per_step = armchair_channels(models, grid)
    want = [ref_armchair_channels(model, grid) for model in models]
    for got, ref in zip(per_step, want):
        assert_same_channels(got, ref)
    # the CLI writes those channels: one row per interval of each step and channel
    pot = tmp_path / "v.json"
    pot.write_text(str(potential))
    out = io.StringIO()
    argv = f"sweep --lattice armchair --N {N} --t 1.7 --B-start -2 --B-stop 3 --B-steps {steps} --grid {grid}"
    with contextlib.redirect_stdout(out):
        assert cli.main(argv.split() + ["--potential", str(pot)]) == 0
    rows = [
        (B, model.phases[0], ch.k, idx, lo, hi)
        for B, model, channels in zip(Bs, models, want)
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
        got = spectrum_block_stack(blocks, grid)
        for block, bands in zip(blocks, got):
            assert bits(bands) == bits(ref_spectrum_block(block, grid))
    assert spectrum_block_stack(blocks[2:3], 16) == [ref_spectrum_block(blocks[2], 16)]
    assert all(hi - lo < 1e-12 for lo, hi in spectrum_block_stack([blocks[2]], 16)[0])


def test_lockstep_searches_that_finish_at_different_iterations(monkeypatch):
    # brackets of the widths of grids 16 and 4096 on two channels: the narrow
    # searches stop about 11 iterations before the wide ones
    rng = np.random.default_rng(32)
    model = ArmchairModel(4, (0.3, -0.2, 0.7), PotentialProfile(rng.uniform(-1, 1, 3)), t=2.0)
    blocks = decompose_armchair(model)[:2]
    fibers = tuple(np.stack(parts) for parts in zip(*map(block_period_matrix, blocks)))
    size = 2 * blocks[0].p
    rows = np.tile(np.arange(size), 4)
    signs = np.repeat([1.0, -1.0, 1.0, -1.0], size)
    chans = np.repeat([0, 0, 1, 1], size)
    width = np.repeat([2 * math.pi / 16, 2 * math.pi / 16, 2 * math.pi / 4096, 2 * math.pi / 4096], size)
    centres = rng.uniform(0, 2 * math.pi, rows.size)

    probes_per_call = []
    branch_values = spectral._branch_values

    def counting(fibers, chans, thetas, rows):
        probes_per_call.append(len(thetas))
        return branch_values(fibers, chans, thetas, rows)

    monkeypatch.setattr(spectral, "_branch_values", counting)
    got = spectral._golden_extrema(fibers, chans, centres - width, centres + width, rows, signs)
    for chan, block in enumerate(blocks):
        mine = chans == chan
        want = ref_golden_extrema(
            block_period_matrix(block), (centres - width)[mine], (centres + width)[mine], rows[mine], signs[mine]
        )
        assert got[mine].tobytes() == want.tobytes()
    assert probes_per_call[0] == 2 * rows.size and probes_per_call[1] == rows.size
    assert probes_per_call[-1] == rows.size // 2  # the wide searches run on alone
    assert probes_per_call.count(rows.size // 2) >= 10


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
            fibers = [block_period_matrix(block) for block in decompose_armchair(model)]
            periods, wraps = (np.stack(x) for x in zip(*fibers))
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
    model = ArmchairModel(4, (0.3, -0.2, 0.7), PotentialProfile([0.5, -0.5]), t=1.0)
    periods, wraps = (np.stack(x) for x in zip(*map(block_period_matrix, decompose_armchair(model))))
    taus = np.exp(1j * np.arange(4.0))
    with pytest.raises(InvalidParameterError):
        fiber_matrices(periods, wraps, np.where(np.arange(4) == 3, 1.01 * taus, taus))
    broken = periods.copy()
    broken[2, 0, 1] += 1e-6  # one matrix of the stack is not Hermitian
    with pytest.raises(InternalConsistencyError):
        fiber_matrices(broken, wraps, taus)
