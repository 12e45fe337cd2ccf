import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nanotube_bands import (
    ArmchairModel,
    PotentialProfile,
    decompose_armchair,
    tube_geometry,
)
from closed_forms import shifted_schroedinger_inclusion
from nanotube_bands.armchair import model_from_field
from nanotube_bands.errors import InvalidInputError
from nanotube_bands.spectral import max_edge_deviation, merge_intervals, schroedinger_band_edges, spectrum_block_stack


def test_decompose_unit_blocks():
    model = ArmchairModel(3, (0.0, 0.0, 0.0), PotentialProfile([0.0]), t=0.0)
    block = decompose_armchair(model)[2]  # k = 3: s^3 = 1
    np.testing.assert_allclose(block.a_block, [[0, 1], [1, 0]], atol=1e-15)
    np.testing.assert_allclose(block.d_blocks[0], [[0, 1], [1, 0]], atol=1e-15)


def test_decompose_phase_pattern():
    model = ArmchairModel(4, (0.1, 0.1, -0.2), PotentialProfile([1.0, 2.0, 3.0, 4.0]), t=1.0)
    block = decompose_armchair(model)[1]  # k = 2: s^2 = i
    s2 = np.exp(2j * np.pi * 2 / 4)
    assert s2 == pytest.approx(-1.0)
    np.testing.assert_allclose(
        block.a_block, [[0, np.exp(0.1j) * s2], [np.exp(-0.1j), 0]], atol=1e-15
    )
    np.testing.assert_allclose(
        block.d_blocks[0], [[1.0, np.exp(-0.2j)], [np.exp(0.2j), 2.0]], atol=1e-15
    )
    np.testing.assert_allclose(
        block.d_blocks[1], [[3.0, np.exp(-0.2j)], [np.exp(0.2j), 4.0]], atol=1e-15
    )


@given(
    N=st.integers(2, 9),
    k=st.integers(1, 9),
    b1=st.floats(-3, 3),
    b2=st.floats(-3, 3),
)
@settings(max_examples=60)
def test_hopping_block_unitary(N, k, b1, b2):
    from nanotube_bands.armchair import hopping_block

    a = hopping_block(N, min(k, N), b1, b2)
    np.testing.assert_allclose(a @ a.conj().T, np.eye(2), atol=1e-14)


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
        block = decompose_armchair(ArmchairModel(N, (0.0, 0.0, 0.0), prof, t=1.0))[N - 1]
        got = spectrum_block_stack([block], 128)[0]
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
