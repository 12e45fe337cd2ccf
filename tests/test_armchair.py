import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nanotube_bands import (
    ArmchairModel,
    PotentialProfile,
    decompose_armchair,
    tube_geometry,
)
from block_reference import per_channel_fibers
from closed_forms import shifted_schroedinger_inclusion
from nanotube_bands.armchair import model_from_field
from nanotube_bands.errors import InternalConsistencyError, InvalidInputError
from nanotube_bands.spectral import (
    block_period_matrix,
    fiber_matrices,
    max_edge_deviation,
    merge_intervals,
    schroedinger_band_edges,
    spectrum_block_stack,
)


def test_decompose_unit_blocks():
    model = ArmchairModel(3, (0.0, 0.0, 0.0), PotentialProfile([0.0]), t=0.0)
    a, d = decompose_armchair([model])
    assert a.shape == (3, 2, 2) and d.shape == (3, 1, 2, 2)
    np.testing.assert_allclose(a[2], [[0, 1], [1, 0]], atol=1e-15)  # k = 3: s^3 = 1
    np.testing.assert_allclose(d[2, 0], [[0, 1], [1, 0]], atol=1e-15)


def test_decompose_phase_pattern():
    model = ArmchairModel(4, (0.1, 0.1, -0.2), PotentialProfile([1.0, 2.0, 3.0, 4.0]), t=1.0)
    a, d = decompose_armchair([model])
    s2 = np.exp(2j * np.pi * 2 / 4)  # k = 2
    assert s2 == pytest.approx(-1.0)
    np.testing.assert_allclose(a[1], [[0, np.exp(0.1j) * s2], [np.exp(-0.1j), 0]], atol=1e-15)
    np.testing.assert_allclose(d[1, 0], [[1.0, np.exp(-0.2j)], [np.exp(0.2j), 2.0]], atol=1e-15)
    np.testing.assert_allclose(d[1, 1], [[3.0, np.exp(-0.2j)], [np.exp(0.2j), 4.0]], atol=1e-15)


@given(
    N=st.integers(2, 9),
    b1=st.floats(-3, 3),
    b2=st.floats(-3, 3),
)
@settings(max_examples=60)
def test_hopping_block_unitary(N, b1, b2):
    a, _ = decompose_armchair([ArmchairModel(N, (b1, b2, 0.0), PotentialProfile([0.0]))])
    np.testing.assert_allclose(a @ a.conj().swapaxes(-1, -2), np.broadcast_to(np.eye(2), (N, 2, 2)), atol=1e-14)


def bit_equality_models(N, q, rng):
    """One stack of models of one N and period.

    Zero field, a random field, a raw phase triple with b3 != 0, and signed zeros.
    """
    potential = PotentialProfile(rng.uniform(-1, 1, q))
    phases = [(0.0, 0.0, 0.0), tube_geometry(N, float(rng.uniform(-4, 4)))[1], (0.7, -1.9, 0.4), (-0.0, 0.0, -0.0)]
    return [ArmchairModel(N, ph, potential, t=float(rng.uniform(-3, 3))) for ph in phases]


QS = list(range(1, 17)) + list(range(18, 33, 2))  # every p from 1 to 16; odd q gives p = q


@pytest.mark.parametrize("N", list(range(2, 13)) + [512])
def test_stacked_blocks_have_the_bits_of_the_per_channel_build(N):
    rng = np.random.default_rng(N)
    for q in QS:
        models = bit_equality_models(N, q, rng)
        periods, wraps = block_period_matrix(*decompose_armchair(models))
        ref_periods, ref_wraps = per_channel_fibers(models)
        assert periods.tobytes() == ref_periods.tobytes(), (N, q)
        assert wraps.tobytes() == ref_wraps.tobytes(), (N, q)


def test_sweep_stack_has_the_bits_of_the_per_channel_build():
    potential = PotentialProfile([0.8, -0.45, 0.1])
    models = [model_from_field(7, float(B), potential, t=1.7) for B in np.linspace(-2.0, 3.0, 41)]
    periods, wraps = block_period_matrix(*decompose_armchair(models))
    ref_periods, ref_wraps = per_channel_fibers(models)
    assert periods.tobytes() == ref_periods.tobytes() and wraps.tobytes() == ref_wraps.tobytes()


def test_models_of_different_N_or_period_are_refused_before_allocating():
    # 64 models at N = 512, p = 16 would take 36 MB of blocks; the check comes first
    big = [ArmchairModel(512, (0.1, 0.2, 0.3), PotentialProfile(np.linspace(-1, 1, 32)))] * 64
    odd_N = ArmchairModel(511, (0.1, 0.2, 0.3), big[0].potential)
    odd_p = ArmchairModel(512, (0.1, 0.2, 0.3), PotentialProfile([0.4]))
    for odd in (odd_N, odd_p):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="share N and the potential period"):
                decompose_armchair(big + [odd])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


def test_non_hermitian_diagonal_block_is_refused_by_the_fiber_builder():
    a, d = decompose_armchair([ArmchairModel(3, (0.1, 0.2, 0.3), PotentialProfile([0.4, -0.1]))])
    d = d.copy()
    d[1, 0, 0, 1] += 1e-6  # no longer the conjugate of entry (1, 0)
    period, wrap = block_period_matrix(a, d)
    with pytest.raises(InternalConsistencyError, match="not Hermitian"):
        fiber_matrices(period, wrap, [1.0])


def test_geometry_radius_and_zero_field():
    geom, phases = tube_geometry(6, 0.0)
    assert geom.R == pytest.approx(2.909312911176409, abs=1e-12)
    assert phases == (0.0, 0.0, 0.0)


def test_geometry_bond_lengths():
    for N in (3, 4, 6, 9):
        geom, _ = tube_geometry(N, 0.4)
        for n in range(4):
            for k in range(N):
                base = geom.position(n, 0, k)
                for nn, jj, kk in ((n + 1, 1, k), (n - 1, 1, k - 1), (n, 1, k)):
                    d = np.linalg.norm(base - geom.position(nn, jj, kk))
                    assert d == pytest.approx(1.0, abs=1e-10)


def test_geometry_angular_spacing():
    geom, _ = tube_geometry(5, 0.0)
    for n in range(3):
        for j in (0, 1):
            for k in range(4):
                gap = geom.angle(n, j, k + 1) - geom.angle(n, j, k)
                assert gap == pytest.approx(2 * math.pi / 5)


def test_geometry_phase_triple():
    N, B = 5, 0.8
    geom, (b1, b2, b3) = tube_geometry(N, B)
    assert b1 == b2 == pytest.approx(B * (geom.R2 - geom.R1) / 4)
    assert b3 == pytest.approx(-B * geom.R2 / 4)
    model = model_from_field(N, B, PotentialProfile([0.0]))
    assert model.phases == (b1, b2, b3)


def test_top_channel_splits_into_shifted_chains():
    rng = np.random.default_rng(3)
    for _ in range(4):
        p = int(rng.integers(1, 5))
        ve = rng.normal(size=p)
        prof = PotentialProfile(np.repeat(ve, 2))
        N = int(rng.integers(2, 6))
        a, d = decompose_armchair([ArmchairModel(N, (0.0, 0.0, 0.0), prof, t=1.0)])
        got = spectrum_block_stack(a[N - 1 :], d[N - 1 :])[0]
        j_bands = schroedinger_band_edges(ve)
        want = merge_intervals(
            [(lo - 1, hi - 1) for lo, hi in j_bands] + [(lo + 1, hi + 1) for lo, hi in j_bands]
        )
        assert max_edge_deviation(got, want) < 1e-8


def test_inclusion_zero_potential():
    report = shifted_schroedinger_inclusion(PotentialProfile([0.0, 0.0]), N=3)
    assert report.passed and report.zigzag_checked
    assert report.armchair_margin >= -1e-8
    assert report.zigzag_margin >= -1e-8


def test_inclusion_paired_random():
    report = shifted_schroedinger_inclusion(PotentialProfile([0.5, 0.5, -0.5, -0.5]), N=4)
    assert report.armchair_ok
    assert not report.zigzag_checked


def test_inclusion_rejects_unpaired():
    with pytest.raises(InvalidInputError):
        shifted_schroedinger_inclusion(PotentialProfile([0.5, -0.5]), N=3)
