import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nanotube_bands import (
    PotentialProfile,
    flat_field_amplitudes,
    load_potential,
    magnetic_phase,
)
from nanotube_bands.errors import InvalidInputError, InvalidModelError


def test_magnetic_phase_zero_field():
    assert magnetic_phase(0.0, 5) == 0.0


def test_magnetic_phase_value():
    # (3/16) * cot(pi/12), checked against high-precision evaluation
    assert magnetic_phase(1.0, 6) == pytest.approx(0.699759526419164, abs=1e-12)


def test_magnetic_phase_flat_band_field():
    # at this amplitude the k=1 channel constant vanishes for N=4
    B = (16.0 / 3.0) * (math.pi / 2 - math.pi / 4) * math.tan(math.pi / 8)
    b = magnetic_phase(B, 4)
    assert b == pytest.approx(math.pi / 4, abs=1e-12)
    assert math.cos(b + math.pi / 4) == pytest.approx(0.0, abs=1e-12)


def test_magnetic_phase_rejects_small_N():
    with pytest.raises(InvalidModelError):
        magnetic_phase(1.0, 1)


@given(B=st.floats(-50, 50), N=st.integers(2, 12))
def test_magnetic_phase_odd_in_B(B, N):
    assert magnetic_phase(-B, N) == pytest.approx(-magnetic_phase(B, N), abs=1e-12)


@given(N=st.integers(2, 12), B1=st.floats(0, 20), B2=st.floats(0, 20))
def test_magnetic_phase_monotone_in_amplitude(N, B1, B2):
    lo, hi = sorted((B1, B2))
    assert magnetic_phase(hi, N) >= magnetic_phase(lo, N)
    if hi - lo > 1e-9:
        assert magnetic_phase(hi, N) > magnetic_phase(lo, N)


def test_flat_field_amplitudes_values():
    # checked by the inversion property below and direct arithmetic
    (amp,) = flat_field_amplitudes(4, 1, [0])
    assert amp == pytest.approx(1.735053712758097, abs=1e-12)
    (amp3,) = flat_field_amplitudes(3, 1, [0])
    assert amp3 == pytest.approx(1.612266101541527, abs=1e-12)


def test_flat_field_amplitudes_filter_and_empty():
    assert flat_field_amplitudes(4, 2, []) == []
    amps = flat_field_amplitudes(4, 2, range(-3, 3))
    assert all(a >= 0 for a in amps)
    assert 0.0 in amps  # k = N/2 is flat already at zero field


@given(N=st.integers(2, 8), data=st.data())
def test_flat_field_inversion(N, data):
    k = data.draw(st.integers(1, N))
    for amp in flat_field_amplitudes(N, k, range(-2, 4)):
        c = math.cos(magnetic_phase(amp, N) + math.pi * k / N)
        assert abs(c) < 1e-12


@pytest.mark.parametrize("q,p", [(4, 2), (3, 3), (1, 1), (6, 3), (5, 5)])
def test_effective_period(q, p):
    assert PotentialProfile(range(1, q + 1)).p == p


@given(values=st.lists(st.floats(-5, 5), min_size=1, max_size=9), n=st.integers(-10**6, 10**6))
def test_periodic_extension(values, n):
    prof = PotentialProfile(values)
    assert prof.extended(1, start=n)[0] == prof.values[n % prof.q]


def test_pairs_cover_two_periods_for_odd_q():
    prof = PotentialProfile([1.0, 2.0, 3.0])
    assert prof.p == 3
    np.testing.assert_allclose(prof.period_values(), [1, 2, 3, 1, 2, 3])
    np.testing.assert_allclose(prof.pairs(), [[1, 2], [3, 1], [2, 3]])


def test_load_potential(tmp_path):
    path = tmp_path / "v.json"
    path.write_text("[1.0, -1.0]")
    prof = load_potential(path)
    assert prof.values == (1.0, -1.0)
    bad = tmp_path / "bad.json"
    bad.write_text('{"not": "an array"}')
    with pytest.raises(InvalidInputError):
        load_potential(bad)
    with pytest.raises(InvalidInputError):
        load_potential(tmp_path / "missing.json")


def test_empty_profile_rejected():
    with pytest.raises(InvalidInputError):
        PotentialProfile([])
