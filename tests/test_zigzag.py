import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from closed_forms import channel_symmetry_map
from nanotube_bands import PotentialProfile, ZigzagModel, spectral
from nanotube_bands.spectral import fiber_matrices, scalar_period_matrix, zigzag_channel_edges
from nanotube_bands.zigzag import channel_bonds, channel_constants
from scalar_reference import decompose_zigzag, gauge_reduce


def channel_offdiagonals(model, k):
    """Pre-gauge bonds of channel k, one channel at a time: the reference for ``channel_bonds``."""
    p = model.potential.p
    c_k = model.channel_constant(k)
    amp = 2.0 * np.exp(-1j * np.pi * k / model.N) * c_k
    bonds = np.ones(2 * p, dtype=complex)
    bonds[1::2] = amp
    return bonds


def per_k_gauge(model):
    """The channels of one model, each gauge-reduced from its complex bonds one at a time."""
    diag = model.t * model.potential.period_values()
    return [
        gauge_reduce(channel_offdiagonals(model, k), diag, c_k=model.channel_constant(k))
        for k in range(1, model.N + 1)
    ]


def solver_inputs(models, monkeypatch):
    """The flat mask and c_k of ``zigzag_channel_edges``, and the bonds and diagonals it hands the edge solver.

    The solve itself is stubbed out: these are the channels of the stack, not
    their edges.
    """
    seen = {}

    def record(a, v):
        seen["a"], seen["v"] = a, v
        return np.zeros(a.shape[:-1] + (2 * a.shape[-1],))

    with monkeypatch.context() as patch:
        patch.setattr(spectral, "periodic_jacobi_band_edges", record)
        flat, c, _, _ = zigzag_channel_edges(models)
    return flat, c, seen["a"], seen["v"]


def test_channel_stack_matches_per_channel_build_bit_for_bit(monkeypatch):
    # one model at a time, and the models of a field sweep as one (M, N, 2p)
    # stack: every row has the bits of the per-channel build of its model; the
    # reduced chains' odd bond 2|c_k| is the modulus of the complex bond to 2 ulps
    rng = np.random.default_rng(41)
    for i in range(300):
        N, q = int(rng.integers(2, 130)), int(rng.integers(1, 33))
        if i % 3 == 0:  # an exact flat phase: c_k = cos(b + pi k/N) = 0 for one k
            b = math.pi / 2 - math.pi * int(rng.integers(1, N + 1)) / N
        else:
            b = float(rng.uniform(-8.0, 8.0))
        model = ZigzagModel(N, b, PotentialProfile(rng.uniform(-1.0, 1.0, q)), t=float(rng.uniform(0.01, 50.0)))
        # more models of this N and period, at other fields, couplings and potentials
        sweep = [model] + [
            ZigzagModel(N, float(rng.uniform(-8.0, 8.0)), PotentialProfile(rng.uniform(-1.0, 1.0, q)),
                        t=float(rng.uniform(0.01, 50.0)))
            for _ in range(int(rng.integers(0, 4)))
        ]
        rng.shuffle(sweep)
        bonds, c = channel_bonds(sweep), channel_constants(sweep)
        flat, c_k, a, v = solver_inputs(sweep, monkeypatch)
        assert bonds.shape == (len(sweep), N, 2 * model.potential.p) and flat.shape == c.shape == bonds.shape[:2]
        dispersive = []
        for s, member in enumerate(sweep):
            want = decompose_zigzag(member)
            assert bonds[s].tobytes() == np.stack([channel_offdiagonals(member, k) for k in range(1, N + 1)]).tobytes()
            assert c[s].tolist() == c_k[s].tolist() == [jac.c_k for jac in want]
            assert flat[s].tolist() == [jac.is_flat for jac in want]
            dispersive += [jac for jac in want if not jac.is_flat]
        # the solver gets the dispersive channels in (field step, k) order
        assert a.tobytes() == np.stack([jac.a for jac in dispersive]).tobytes()
        assert np.ascontiguousarray(v).tobytes() == np.stack([jac.v for jac in dispersive]).tobytes()
        for got, ref in zip(decompose_zigzag(model), per_k_gauge(model)):
            assert (got.p, got.v.tobytes()) == (ref.p, ref.v.tobytes())
            np.testing.assert_allclose(got.a, ref.a, rtol=4 * np.finfo(float).eps, atol=0.0)
            assert got.c_k == ref.c_k
            assert type(got.c_k) is float
        if i % 3 == 0:
            assert flat.any()


def test_free_schroedinger_channel():
    model = ZigzagModel(3, 0.0, PotentialProfile([0.0]), t=0.0)
    jac = decompose_zigzag(model)[0]
    assert jac.c_k == pytest.approx(0.5)
    np.testing.assert_allclose(jac.a, 1.0)
    np.testing.assert_allclose(jac.v, 0.0)


def test_flat_channel_at_N2():
    model = ZigzagModel(2, 0.0, PotentialProfile([0.0]), t=0.0)
    jac = decompose_zigzag(model)[0]  # k = 1: cos(pi/2) = 0
    assert jac.is_flat
    np.testing.assert_allclose(jac.a[1::2], 0.0, atol=1e-15)
    np.testing.assert_allclose(jac.a[0::2], 1.0)


def test_channel_coefficients_with_scaled_potential():
    model = ZigzagModel(4, 0.1, PotentialProfile([1.0, -1.0]), t=2.0)
    jac = decompose_zigzag(model)[2]  # k = 3
    a_even = 2.0 * abs(math.cos(0.1 + 3 * math.pi / 4))
    np.testing.assert_allclose(jac.a, [1.0, a_even])
    np.testing.assert_allclose(jac.v, [2.0, -2.0])


@given(thetas=st.lists(st.floats(0, 2 * math.pi), min_size=2, max_size=8).filter(lambda x: len(x) % 2 == 0))
def test_gauge_reduce_unimodular(thetas):
    off = np.exp(1j * np.array(thetas))
    jac = gauge_reduce(off, np.zeros(len(thetas)))
    np.testing.assert_allclose(jac.a, 1.0, atol=1e-15)


def test_gauge_reduce_channel_pattern():
    model = ZigzagModel(5, 0.3, PotentialProfile([0.2, -0.4]), t=1.0)
    for k in range(1, 6):
        jac = gauge_reduce(channel_offdiagonals(model, k), model.potential.period_values())
        c = model.channel_constant(k)
        np.testing.assert_allclose(jac.a[1::2], 2 * abs(c), atol=1e-15)
        np.testing.assert_allclose(jac.a[0::2], 1.0)


def test_gauge_reduce_spectrum_preserving_on_fibers():
    # the reduced fiber at tau * (product of stripped phases) matches the
    # complex fiber at tau, and the full-circle band sets coincide
    rng = np.random.default_rng(8)
    for _ in range(10):
        N = int(rng.integers(2, 7))
        q = int(rng.integers(1, 6))
        model = ZigzagModel(N, float(rng.normal() * 0.7), PotentialProfile(rng.normal(size=q)), t=1.0)
        diag = model.potential.period_values()
        k = int(rng.integers(1, N + 1))
        if abs(model.channel_constant(k)) < 1e-9:
            continue
        bonds = channel_offdiagonals(model, k)
        twist = np.prod(bonds / np.abs(bonds))
        for _ in range(4):
            tau = cmath.exp(2j * math.pi * rng.random())
            ec = np.linalg.eigvalsh(fiber_matrices(*scalar_period_matrix(bonds, diag), [tau]))
            er = np.linalg.eigvalsh(fiber_matrices(*scalar_period_matrix(np.abs(bonds), diag), [tau * twist]))
            assert np.max(np.abs(ec - er)) < 1e-10


def test_symmetry_map_examples():
    assert channel_symmetry_map(5, 0.2, 2)["shift"] == (3, 0.2)
    assert channel_symmetry_map(5, 0.2, 2)["reflect"] == (3, 0.2)
    assert channel_symmetry_map(2, 0.0, 2)["reflect"] == (2, 0.0)
    assert channel_symmetry_map(5, 0.0, 5)["shift"] == (1, 0.0)


@given(N=st.integers(2, 8), b=st.floats(-2, 2), data=st.data())
@settings(max_examples=40)
def test_shift_identity_exact(N, b, data):
    k = data.draw(st.integers(1, N))
    prof = PotentialProfile([0.3, -0.1])
    shifted = decompose_zigzag(ZigzagModel(N, b + math.pi / N, prof))[k - 1]
    partner_k = channel_symmetry_map(N, b, k)["shift"][0]
    partner = decompose_zigzag(ZigzagModel(N, b, prof))[partner_k - 1]
    # cos(b + pi/N + pi k/N) and cos(b + pi(k+1)/N) agree to rounding only
    np.testing.assert_allclose(shifted.a, partner.a, atol=1e-12)
    np.testing.assert_allclose(shifted.v, partner.v)


@given(N=st.integers(2, 8), b=st.floats(-2, 2), data=st.data())
@settings(max_examples=40)
def test_reflection_identity(N, b, data):
    k = data.draw(st.integers(1, N))
    model = ZigzagModel(N, b, PotentialProfile([0.0]))
    reflected = ZigzagModel(N, -b, PotentialProfile([0.0]))
    partner_k = channel_symmetry_map(N, b, k)["reflect"][0]
    assert abs(reflected.channel_constant(k)) == pytest.approx(
        abs(model.channel_constant(partner_k)), abs=1e-12
    )
