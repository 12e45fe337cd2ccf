import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from block_reference import assert_band_edges, block_bands, channel, channels
from closed_forms import (
    ChannelBands, armchair_unperturbed, channels_of, intervals_contain, max_edge_deviation, reference_gaps,
    reference_merge, schroedinger_band_edges, step_channels, structure_of, union_gaps, union_intervals,
)
from scalar_reference import ScalarPeriodicJacobi, channel_bands, decompose_zigzag, discriminant, monodromy
from nanotube_bands import (
    ArmchairModel,
    PotentialProfile,
    ZigzagModel,
    flat_band_spectrum,
    flat_field_amplitudes,
    full_spectrum,
    magnetic_phase,
    spectral,
)
from nanotube_bands.cli import _bands_json
from nanotube_bands.core import UNIT_ROUNDOFF
from nanotube_bands.errors import InternalConsistencyError, InvalidInputError
from nanotube_bands.spectral import (
    band_structure,
    block_period_matrix,
    fiber_matrices,
    fuse_rows,
    gap_after,
    periodic_jacobi_band_edges,
    scalar_period_matrix,
)


def chain(p, a, v, c_k=None):
    bonds = np.ones(2 * p)
    bonds[1::2] = a
    return ScalarPeriodicJacobi(p=p, a=bonds, v=np.asarray(v, dtype=float), c_k=c_k)


def scalar_fiber(jac, tau):
    """The fiber matrix K(tau) + diag(v) of a scalar channel."""
    return fiber_matrices(*scalar_period_matrix(jac.a, jac.v), [tau])[0]


def block_fiber_levels(block, taus):
    """Sorted fiber eigenvalues of a block channel, one row per multiplier."""
    return np.linalg.eigvalsh(fiber_matrices(*block_period_matrix(*block), taus))


# ---------------------------------------------------------------------------
# intervals


def test_merge_and_gaps():
    chan, lo, hi = fuse_rows(np.array([[0.0, 1 + 5e-10, 3.0]]), np.array([[1.0, 2.0, 4.0]]))
    assert (chan.tolist(), lo.tolist(), hi.tolist()) == ([0, 0], [0.0, 3.0], [2.0, 4.0])
    assert gap_after(np.array([0.0, 3.0]), np.array([1.0, 4.0])).tolist() == [True]
    ok, margin = intervals_contain([(0, 10)], [(1, 2), (9, 10)])
    assert ok and margin == 0.0
    ok, margin = intervals_contain([(0, 10)], [(9, 11)])
    assert not ok and margin == pytest.approx(-1.0)


# ---------------------------------------------------------------------------
# monodromy and discriminant


def test_monodromy_determinant():
    rng = np.random.default_rng(0)
    for _ in range(100):
        p = int(rng.integers(1, 4))
        jac = chain(p, rng.uniform(0.1, 2.0), rng.normal(size=2 * p))
        z = float(rng.normal() * 3)
        M = monodromy(jac, z)
        # cancellation in the 2x2 determinant scales with the squared norm
        tol = max(1e-10, 1e-13 * float(np.max(np.abs(M))) ** 2)
        assert np.linalg.det(M) == pytest.approx(1.0, abs=tol)


def test_monodromy_rejects_flat_channel():
    with pytest.raises(InvalidInputError, match="flat-band channel"):
        monodromy(chain(1, 0.0, [0.0, 0.0]), 0.3)


def test_discriminant_free_values():
    jac = chain(1, 1.0, [0.0, 0.0])
    assert discriminant(jac, 0.0) == pytest.approx(-1.0, abs=1e-14)
    assert discriminant(jac, 2.0) == pytest.approx(1.0, abs=1e-14)
    assert discriminant(jac, -2.0) == pytest.approx(1.0, abs=1e-14)


@given(v=st.floats(-2, 2), c=st.floats(0.05, 1), z=st.floats(-4, 4))
def test_discriminant_alternating_closed_form(v, c, z):
    jac = chain(1, 2 * c, [v, -v])
    expected = (z**2 - v**2 - 4 * c**2 - 1) / (4 * c)
    assert discriminant(jac, z) == pytest.approx(expected, abs=1e-10 * max(1, abs(expected)))


def test_discriminant_polynomial_structure():
    # 2 a^p D(z) - z^(2p) has degree < 2p: a degree-(2p-1) fit through 2p
    # nodes must reproduce two extra nodes
    rng = np.random.default_rng(4)
    for p in (1, 2, 3):
        a = float(rng.uniform(0.3, 1.8))
        jac = chain(p, a, rng.normal(size=2 * p))
        nodes = np.linspace(-3.1, 3.2, 2 * p + 2)
        g = np.array([2 * a**p * discriminant(jac, z) - z ** (2 * p) for z in nodes])
        coeffs = np.polyfit(nodes[: 2 * p], g[: 2 * p], 2 * p - 1)
        resid = np.polyval(coeffs, nodes[2 * p :]) - g[2 * p :]
        assert np.max(np.abs(resid)) < 1e-7 * max(1.0, np.max(np.abs(g)))


def test_band_edges_satisfy_discriminant():
    rng = np.random.default_rng(5)
    for _ in range(30):
        p = int(rng.integers(1, 4))
        jac = chain(p, rng.uniform(0.1, 2.0), rng.normal(size=2 * p))
        for lo, hi in channel_bands(jac):
            assert abs(abs(discriminant(jac, lo)) - 1) < 1e-8
            assert abs(abs(discriminant(jac, hi)) - 1) < 1e-8


# ---------------------------------------------------------------------------
# fiber matrices


def test_floquet_scalar_free_point():
    K = scalar_fiber(chain(1, 1.0, [0.0, 0.0]), 1.0)
    np.testing.assert_allclose(K, [[0, 2], [2, 0]])
    np.testing.assert_allclose(np.linalg.eigvalsh(K), [-2, 2])


def test_floquet_scalar_flat_block_structure():
    v = np.array([0.3, -0.2, 0.8, 0.1])
    jac = chain(2, 0.0, v)
    eigs = [np.linalg.eigvalsh(scalar_fiber(jac, cmath.exp(1j * th))) for th in (0.0, 0.7, 2.4, math.pi)]
    for e in eigs[1:]:
        np.testing.assert_allclose(e, eigs[0], atol=1e-12)
    blocks = np.linalg.eigvalsh(np.array([[0.3, 1], [1, -0.2]])).tolist()
    blocks += np.linalg.eigvalsh(np.array([[0.8, 1], [1, 0.1]])).tolist()
    np.testing.assert_allclose(eigs[0], sorted(blocks), atol=1e-12)


def _floquet_matrix_reference(offdiag, diag, tau):
    """One scalar fiber matrix, built entry by entry: bonds first, then the corners."""
    a = np.asarray(offdiag, dtype=complex)
    v = np.asarray(diag, dtype=float)
    m = v.size
    K = np.zeros((m, m), dtype=complex)
    K[np.arange(m), np.arange(m)] = v
    for i in range(m - 1):
        K[i, i + 1] += a[i]
        K[i + 1, i] += np.conj(a[i])
    K[m - 1, 0] += tau * a[m - 1]
    K[0, m - 1] += np.conj(tau * a[m - 1])
    return K


def _same_bits(x, y):
    """Exact equality that also tells -0.0 from +0.0."""
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def _signed_zero_chain(rng, m):
    """Random complex bonds and real diagonal of length m, with some entries -0.0 or +0.0."""
    parts = rng.normal(size=(3, m))
    parts[rng.random(size=parts.shape) < 0.2] = -0.0
    parts[rng.random(size=parts.shape) < 0.1] = 0.0
    return parts[0] + 1j * parts[1], parts[2]


def test_scalar_fiber_stack_matches_one_matrix_reference():
    # at tau = +-1 every product is exact, so the stack and the entry-by-entry
    # build agree bit for bit, signed zeros and eigenvalues included; at
    # complex tau the corner product is rounded by another multiply loop and
    # may differ in the last bit
    rng = np.random.default_rng(16)
    for m in [1, 2] * 20 + list(rng.integers(1, 33, size=200)):
        a, v = _signed_zero_chain(rng, int(m))
        period, wrap = scalar_period_matrix(a, v)
        for tau, got in zip((1.0, -1.0), fiber_matrices(period, wrap, [1.0, -1.0])):
            ref = _floquet_matrix_reference(a, v, complex(tau))
            assert _same_bits(got, ref)
            assert _same_bits(np.linalg.eigvalsh(got), np.linalg.eigvalsh(ref))
        taus = [cmath.exp(1j * th) for th in rng.uniform(-7, 7, size=4)]
        corners = np.zeros((m, m), dtype=bool)
        corners[m - 1, 0] = corners[0, m - 1] = True
        for tau, got in zip(taus, fiber_matrices(period, wrap, taus)):
            ref = _floquet_matrix_reference(a, v, tau)
            assert _same_bits(got[~corners], ref[~corners])
            np.testing.assert_allclose(got[corners], ref[corners], rtol=1e-15, atol=0)


def test_floquet_scalar_rejects_bad_multiplier():
    with pytest.raises(InvalidInputError, match="must be unimodular"):
        scalar_fiber(chain(1, 1.0, [0.0, 0.0]), 1.1)


@given(
    p=st.integers(1, 4),
    a=st.floats(0, 2),
    phi=st.floats(0, 2 * math.pi),
    data=st.data(),
)
@settings(max_examples=60)
def test_floquet_hermitian(p, a, phi, data):
    v = data.draw(st.lists(st.floats(-3, 3), min_size=2 * p, max_size=2 * p))
    K = scalar_fiber(chain(p, a, v), cmath.exp(1j * phi))
    assert np.max(np.abs(K - K.conj().T)) < 1e-14 * max(1.0, np.max(np.abs(K)))


@given(p=st.integers(1, 4), a=st.floats(0.05, 2), phi=st.floats(0, 2 * math.pi))
@settings(max_examples=60)
def test_free_fiber_eigenvalues(p, a, phi):
    # eigenvalues of the zero-potential fiber are +-|a + e^{i(phi + 2 pi n)/p}|
    K = scalar_fiber(chain(p, a, np.zeros(2 * p)), cmath.exp(1j * phi))
    expected = []
    for n in range(1, p + 1):
        mag = abs(a + cmath.exp(1j * (phi + 2 * math.pi * n) / p))
        expected += [-mag, mag]
    np.testing.assert_allclose(np.linalg.eigvalsh(K), np.sort(expected), atol=1e-10)


# ---------------------------------------------------------------------------
# scalar band edges


def test_alternating_potential_bands():
    # edges are +-sqrt(v^2 + (a +- 1)^2) for the (v, -v) potential
    jac = chain(1, 1.0, [1.0, -1.0])
    rt5 = math.sqrt(5)
    np.testing.assert_allclose(channel_bands(jac), [(-rt5, -1.0), (1.0, rt5)], atol=1e-12)
    jac2 = chain(1, 2.0, [1.0, -1.0])
    rt10, rt2 = math.sqrt(10), math.sqrt(2)
    np.testing.assert_allclose(channel_bands(jac2), [(-rt10, -rt2), (rt2, rt10)], atol=1e-12)


def test_free_touching_bands_p2():
    jac = chain(2, 1.0, np.zeros(4))
    bands = channel_bands(jac)
    rt2 = math.sqrt(2)
    np.testing.assert_allclose(
        bands, [(-2, -rt2), (-rt2, 0), (0, rt2), (rt2, 2)], atol=1e-12
    )


def test_edges_match_sweep_envelope():
    jac = chain(2, 0.8, [0.3, 0.7, -0.2, 1.1])
    edges = channel_bands(jac)
    thetas = 2 * math.pi * np.arange(512) / 512
    levels = np.array(
        [np.linalg.eigvalsh(scalar_fiber(jac, cmath.exp(1j * th))) for th in thetas]
    )
    envelope = [(levels[:, j].min(), levels[:, j].max()) for j in range(4)]
    assert max_edge_deviation(edges, envelope) < 1e-8


def test_flat_band_spectrum_examples():
    np.testing.assert_allclose(flat_band_spectrum(PotentialProfile([0.0, 0.0]), 1.0), [-1, 1])
    v = 0.7
    np.testing.assert_allclose(
        flat_band_spectrum(PotentialProfile([v, -v]), 1.0),
        [-math.sqrt(1 + v**2), math.sqrt(1 + v**2)],
        atol=1e-15,
    )
    np.testing.assert_allclose(
        flat_band_spectrum(PotentialProfile([2.0, 0.0]), 1.0),
        sorted(np.linalg.eigvalsh([[2, 1], [1, 0]])),
        atol=1e-12,
    )


# ---------------------------------------------------------------------------
# block channels


def _scalar_as_blocks(jac):
    p = jac.p
    # the inter-dimer bond couples the last site of one block (column 1)
    # to the first site of the next (row 0)
    a = np.array([[[0.0, jac.a[1]], [0.0, 0.0]]], dtype=complex)
    d = np.zeros((1, p, 2, 2), dtype=complex)
    for j in range(p):
        d[0, j] = [[jac.v[2 * j], jac.a[2 * j]], [jac.a[2 * j], jac.v[2 * j + 1]]]
    return a, d


def test_block_sweep_reproduces_scalar_edges():
    rng = np.random.default_rng(6)
    for _ in range(5):
        p = int(rng.integers(1, 4))
        jac = chain(p, rng.uniform(0.2, 1.9), rng.normal(size=2 * p))
        got = block_bands(*_scalar_as_blocks(jac))[0]
        want = channel_bands(jac)
        assert max_edge_deviation(got, reference_merge(want)) < 1e-8


def test_block_sweep_shift_equivariance():
    rng = np.random.default_rng(7)
    model = ArmchairModel(3, (0.1, -0.2, 0.3), PotentialProfile(rng.normal(size=4)), t=1.0)
    from nanotube_bands import decompose_armchair

    a, d = channel(decompose_armchair([model]), 1)
    mu = 0.7
    b1 = block_bands(a, d)[0]
    b2 = block_bands(a, d + mu * np.eye(2))[0]
    np.testing.assert_allclose(
        np.array(b2), np.array(b1) + mu, atol=1e-9
    )


def _per_fiber_block_bands(block, grid_size):
    """Reference sweep: one fiber matrix per grid point and per golden-section probe."""
    thetas = 2.0 * np.pi * np.arange(grid_size) / grid_size
    levels = np.array([block_fiber_levels(block, [cmath.exp(1j * th)])[0] for th in thetas])
    step = 2.0 * np.pi / grid_size
    invphi = (math.sqrt(5.0) - 1.0) / 2.0

    def extremum(j, centre, sign):
        def f(theta):
            return sign * float(block_fiber_levels(block, [cmath.exp(1j * theta)])[0, j])

        a, b = centre - step, centre + step
        c, d = b - invphi * (b - a), a + invphi * (b - a)
        fc, fd = f(c), f(d)
        while b - a > 1e-10:
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - invphi * (b - a)
                fc = f(c)
            else:
                a, c, fc = c, d, fd
                d = a + invphi * (b - a)
                fd = f(d)
        return sign * min(fc, fd)

    bands = []
    for j in range(levels.shape[1]):
        branch = levels[:, j]
        i_min, i_max = int(np.argmin(branch)), int(np.argmax(branch))
        lo, hi = float(branch[i_min]), float(branch[i_max])
        if hi - lo >= 1e-13 * max(1.0, float(np.max(np.abs(branch)))):
            lo = min(extremum(j, thetas[i_min], 1.0), lo)
            hi = max(extremum(j, thetas[i_max], -1.0), hi)
        bands.append((lo, hi))
    return reference_merge(bands)


@pytest.mark.parametrize("seed", range(4))
def test_block_sweep_matches_per_fiber_reference(seed):
    # the level-set iteration against the one-fiber-at-a-time golden-section
    # loop of a grid: every edge at least as extreme, up to 16 ulps of the
    # channel's largest level, and within 1e-13 of it of a dense zoom grid
    from nanotube_bands import decompose_armchair

    rng = np.random.default_rng(40 + seed)
    q = int(rng.integers(1, 7))
    model = ArmchairModel(
        int(rng.integers(2, 6)), tuple(rng.normal(size=3)),
        PotentialProfile(rng.uniform(-1, 1, size=q)), t=float(np.exp(rng.uniform(-3, 3.7))),
    )
    for block in channels(decompose_armchair([model])):
        assert_band_edges(block_bands(*block)[0], _per_fiber_block_bands(block, 32), block)
    flat = _scalar_as_blocks(chain(2, 0.0, rng.normal(size=4)))  # every branch is constant: its sampled values
    assert block_bands(*flat)[0] == _per_fiber_block_bands(flat, 16)


def test_block_fibers_reject_bad_multiplier():
    jac = chain(1, 1.0, [0.0, 0.0])
    with pytest.raises(InvalidInputError, match="must be unimodular"):
        block_fiber_levels(_scalar_as_blocks(jac), [1.1])


def test_armchair_unperturbed_closed_form():
    bs = armchair_unperturbed(3, 0.0)
    np.testing.assert_allclose(reference_merge(union_intervals(bs)), [(-3, 3)], atol=1e-12)
    bs = armchair_unperturbed(4, 1.0)
    merged = reference_merge(union_intervals(bs))
    rt10 = math.sqrt(10)
    np.testing.assert_allclose(merged, [(-rt10, -1.0), (1.0, rt10)], atol=1e-12)
    # channel k = N starts at |v| and its short branch ends at sqrt(1 + v^2)
    ch = channels_of(bs)[-1]
    assert ch.k == 4
    assert ch.bands[-1][0] == pytest.approx(1.0)
    short_hi = math.sqrt(5 + 1 - 4)
    assert short_hi == pytest.approx(math.sqrt(2))


def test_armchair_sweep_matches_closed_form():
    for N in (3, 4):
        for vt in (0.0, 1.0):
            model = ArmchairModel(N, (0.0, 0.0, 0.0), PotentialProfile([-vt, vt]), t=1.0)
            swept = full_spectrum(model)
            closed = armchair_unperturbed(N, vt)
            assert max_edge_deviation(union_intervals(swept), union_intervals(closed)) < 1e-6


# ---------------------------------------------------------------------------
# full spectra and unions


def test_full_spectrum_alternating_no_flats():
    v = 0.8
    model = ZigzagModel(3, 0.0, PotentialProfile([v, -v]), t=1.0)
    bs = full_spectrum(model)
    assert not bs.flat.any()
    assert bs.lo[0] == pytest.approx(-math.sqrt(v**2 + 9), abs=1e-12)
    assert bs.hi[-1] == pytest.approx(math.sqrt(v**2 + 9), abs=1e-12)


def test_full_spectrum_flat_bands_at_even_N():
    v = 0.8
    model = ZigzagModel(2, 0.0, PotentialProfile([v, -v]), t=1.0)
    bs = full_spectrum(model)
    energies = sorted(bs.row_lo[bs.flat].tolist())
    w = math.sqrt(1 + v**2)
    np.testing.assert_allclose(energies, [-w, w], atol=1e-12)
    # here the flat levels coincide with the inner edges of the widest channel
    union = union_intervals(bs)
    assert union[0][1] == pytest.approx(-w, abs=1e-12)
    assert union[-1][0] == pytest.approx(w, abs=1e-12)


def test_isolated_flat_level_becomes_degenerate_union_band():
    channels = [
        ChannelBands(k=1, c_k=0.0, bands=(), flat_bands=(0.3,)),
        ChannelBands(k=2, c_k=-1.0, bands=((1.0, 2.0), (-2.0, -1.0))),
    ]
    bs = structure_of(channels)
    assert [b for b in _union_rows(bs) if math.isinf(b[2])] == [(0.3, 0.3, math.inf)]
    assert union_gaps(bs) == ((-1.0, 0.3), (0.3, 1.0))


def test_full_spectrum_field_shift_invariance():
    rng = np.random.default_rng(11)
    for _ in range(10):
        N = int(rng.integers(2, 7))
        q = int(rng.integers(1, 5))
        prof = PotentialProfile(rng.normal(size=q))
        b = float(rng.normal() * 0.6)
        t = float(rng.normal())
        bs1 = full_spectrum(ZigzagModel(N, b, prof, t=t))
        bs2 = full_spectrum(ZigzagModel(N, b + math.pi / N, prof, t=t))
        assert max_edge_deviation(union_intervals(bs1), union_intervals(bs2)) < 1e-10


def test_union_multiplicity_segmentation():
    channels = [
        ChannelBands(k=1, c_k=0.5, bands=((0.0, 2.0),)),
        ChannelBands(k=2, c_k=-0.5, bands=((1.0, 3.0),)),
    ]
    bs = structure_of(channels)
    assert _union_rows(bs) == [(0.0, 1.0, 2.0), (1.0, 2.0, 4.0), (2.0, 3.0, 2.0)]
    assert union_gaps(bs) == ()


def test_union_keeps_bands_thinner_than_the_cut_spacing():
    # near-flat channel k = 2 has bands thinner than 1e-12; they own no
    # segment of the cut grid, and the union used to drop them
    from nanotube_bands.oracle import build_full_hamiltonian

    potential = [
        0.273923, -0.460427, -0.918053, -0.966945, 0.62654, 0.825511, 0.213272, 0.458993,
        0.08725, 0.870145, 0.631707, -0.994523, 0.714809, -0.932829, 0.459311, -0.648689,
    ]
    model = ZigzagModel(4, -3.106873458412769, PotentialProfile(potential), t=4.500851068224242)
    union = np.array(union_intervals(full_spectrum(model)))
    levels = build_full_hamiltonian(model, 2 * model.potential.p).eigenvalues()
    outside = np.maximum(union[None, :, 0] - levels[:, None], levels[:, None] - union[None, :, 1])
    assert np.max(np.min(outside, axis=1)) <= 1e-8


def test_union_memory_is_linear_in_the_channel_bands():
    # a (channel, segment) count array, O(N**2 p), peaked at 82.6 MiB here
    import tracemalloc

    from nanotube_bands.spectral import channel_rows

    potential = PotentialProfile(np.random.default_rng(53).uniform(-1, 1, 32))
    c_k, chan, lo, hi, flat = channel_rows([ZigzagModel(512, 0.3, potential, t=1.0)])
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        bs = band_structure(c_k[0], chan, lo, hi, flat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bs.lo.size > 0
    assert peak < 24 * 2**20


def _union_rows(bs):
    """The union table of a ``BandStructure`` as (lo, hi, multiplicity) rows."""
    return list(zip(bs.lo.tolist(), bs.hi.tolist(), bs.multiplicity.tolist()))


def _quadratic_union(channels):
    """The all-pairs union that the sweep line replaced: ((lo, hi, multiplicity) rows, union gaps).

    It finds the covering channels of every segment and entry, and fuses
    neighbours only where those sets are equal.
    """
    from nanotube_bands.spectral import GAP_MERGE_TOL

    ac = [(lo, hi, ch.k) for ch in channels for lo, hi in ch.bands if hi >= lo]
    flats = [(e, ch.k) for ch in channels for e in ch.flat_bands]
    segments = []
    if ac:
        cuts = np.unique(np.array([x for lo, hi, _ in ac for x in (lo, hi)]))
        keep = [cuts[0]]
        for x in cuts[1:]:
            if x - keep[-1] > 1e-12:
                keep.append(float(x))
        for lo, hi in zip(keep[:-1], keep[1:]):
            mid = 0.5 * (lo + hi)
            covering = tuple(sorted({k for blo, bhi, k in ac if blo - 1e-12 <= mid <= bhi + 1e-12}))
            if covering:
                segments.append((lo, hi, 2.0 * len(covering), covering))
        for blo, bhi, k in ac:
            if bhi - blo <= 1e-12:
                mid = 0.5 * (blo + bhi)
                if not any(lo - 1e-12 <= mid <= hi + 1e-12 for lo, hi, _, _ in segments):
                    segments.append((blo, bhi, 2.0, (k,)))
    for e, k in sorted(flats):
        if not any(lo - 1e-12 <= e <= hi + 1e-12 for lo, hi, _, _ in segments):
            segments.append((e, e, math.inf, (k,)))
    segments.sort()
    fused = []
    for lo, hi, mult, ks in segments:
        if fused and lo - fused[-1][1] <= GAP_MERGE_TOL and fused[-1][2] == mult and fused[-1][3] == ks:
            fused[-1][1] = max(fused[-1][1], hi)
        else:
            fused.append([lo, hi, mult, ks])
    gaps = [(h1, l2) for (_, h1, _, _), (l2, _, _, _) in zip(fused[:-1], fused[1:]) if l2 - h1 >= GAP_MERGE_TOL]
    return [(lo, hi, mult) for lo, hi, mult, _ in fused], tuple(gaps)


def _random_channels(rng):
    """Channel sets built to hit every tie of the union's 1e-12 rules.

    Edges come from a coarse grid plus offsets below, at and above 1e-12, so
    bands touch, share edges, repeat, and are thinner than the cut spacing;
    flat levels sit inside bands, on edges, within 1e-12 of edges and of
    each other.
    """
    nudges = np.array([0.0, 0.0, 0.0, 3e-13, -3e-13, 1e-12, -1e-12, 1.5e-12, -2e-12, 2.1e-12, 4e-12, 1e-9, 5e-9])
    grid = np.round(rng.uniform(-3.0, 3.0, size=8), 2)

    def point():
        return float(rng.choice(grid) + rng.choice(nudges))

    edges = []
    channels = []
    for k in range(1, int(rng.integers(1, 9)) + 1):
        bands = []
        for _ in range(int(rng.integers(0, 6))):
            lo = point()
            kind = rng.random()
            if kind < 0.25:
                hi = lo + float(rng.choice([0.0, 2e-13, 1e-12, 9e-13]))  # thinner than the cut spacing
            elif kind < 0.35:
                hi = lo - 1.0  # empty: dropped by the union
            else:
                hi = max(lo, point())
            bands.append((lo, hi))
            edges += [lo, hi]
        flats = []
        for _ in range(int(rng.integers(0, 4)) if rng.random() < 0.5 else 0):
            if edges and rng.random() < 0.6:
                flats.append(float(rng.choice(edges) + rng.choice(nudges)))
            else:
                flats.append(point())
        if flats and rng.random() < 0.5:
            flats.append(flats[-1] + float(rng.choice([0.0, 5e-13, 1e-12])))  # flats within 1e-12
        channels.append(ChannelBands(k=k, c_k=None, bands=tuple(bands), flat_bands=tuple(flats)))
    order = rng.permutation(len(channels))
    return [channels[i] for i in order]


@pytest.mark.parametrize("seed", range(4))
def test_union_matches_quadratic_reference(seed):
    rng = np.random.default_rng([23, seed])
    for _ in range(150):
        channels = _random_channels(rng)
        bs = structure_of(channels)
        bands, gaps = _quadratic_union(channels)
        assert _union_rows(bs) == bands
        assert union_gaps(bs) == gaps


def _thin_band_channels(rng):
    """Channels dense in bands thinner than 1e-12 and in flat levels, few wide bands.

    Thin bands and flat levels fall on a grid of 0.7e-12 around a few
    centres, so that the padded intervals of the entries the union adds for
    them overlap, chain, and touch at exactly 1e-12.
    """
    centres = rng.uniform(-4.0, 4.0, size=3)

    def point():
        return float(rng.choice(centres) + 0.7e-12 * int(rng.integers(-12, 13)))

    channels = []
    for k in range(1, int(rng.integers(2, 12)) + 1):
        lows = [point() for _ in range(int(rng.integers(0, 9)))]
        bands = [(lo, lo + float(rng.choice([0.0, 3e-13, 1e-12]))) for lo in lows]
        if rng.random() < 0.2:
            lo = float(rng.choice(centres)) + float(rng.uniform(-1e-10, 1e-10))
            bands.append((lo, lo + float(rng.uniform(1e-11, 1e-9))))
        flats = [point() for _ in range(int(rng.integers(0, 5)))]
        channels.append(ChannelBands(k=k, c_k=None, bands=tuple(bands), flat_bands=tuple(flats)))
    return channels


def _union_bits(bands):
    return [(float(lo).hex(), float(hi).hex(), mult) for lo, hi, mult in bands]


@pytest.mark.parametrize("seed", range(3))
def test_union_of_thin_bands_and_flat_levels_matches_linear_scan(seed):
    # the entries kept for thin bands and isolated flat levels are looked up
    # by bisection; the reference scans every earlier entry
    rng = np.random.default_rng([67, seed])
    for _ in range(100):
        channels = _thin_band_channels(rng)
        bs = structure_of(channels)
        bands, gaps = _quadratic_union(channels)
        assert _union_bits(_union_rows(bs)) == _union_bits(bands)
        assert union_gaps(bs) == gaps


@pytest.mark.parametrize(
    "below, above",
    [
        (0.9999999999980009, 1.000000000000001),
        (-1.000000000001999, -0.9999999999999989),
        (0.49999999999933425, 0.5000000000013343),
        (-1.0000000000009996, -0.9999999999989995),
    ],
)
def test_union_keeps_the_rounding_of_its_tolerance_tests(below, above):
    # the midpoint of the cuts (below, above) lies within an ulp of
    # above - 1e-12 and below + 1e-12, where "lo - 1e-12 <= mid" and
    # "lo <= mid + 1e-12" (or the same pair at hi) round differently
    channels = [
        ChannelBands(k=1, c_k=None, bands=((below - 1.0, below),)),
        ChannelBands(k=2, c_k=None, bands=((above, above + 1.0),)),
        ChannelBands(k=3, c_k=None, bands=((below - 2.0, above + 2.0),)),
    ]
    bs = structure_of(channels)
    assert (_union_rows(bs), union_gaps(bs)) == _quadratic_union(channels)


def test_union_matches_quadratic_reference_on_models():
    rng = np.random.default_rng(29)
    for _ in range(12):
        N = int(rng.integers(3, 25))
        q = int(rng.integers(1, 9))
        b = math.pi / 2 - math.pi * int(rng.integers(1, N + 1)) / N if rng.random() < 0.3 else float(rng.normal())
        model = ZigzagModel(N, b, PotentialProfile(rng.uniform(-1, 1, q)), t=float(rng.uniform(0.05, 10)))
        bs = full_spectrum(model)
        assert (_union_rows(bs), union_gaps(bs)) == _quadratic_union(channels_of(bs))
    # large models, where the +k/-k channel pairs put many cuts within 1e-12
    # of each other, two of them on a flat phase
    for N, q, flat in ((120, 24, True), (96, 17, False), (64, 24, True)):
        b = math.pi / 2 - math.pi * int(rng.integers(1, N + 1)) / N if flat else float(rng.normal())
        model = ZigzagModel(N, b, PotentialProfile(rng.uniform(-1, 1, q)), t=float(rng.uniform(0.05, 10)))
        bs = full_spectrum(model)
        assert any(ch.flat_bands for ch in channels_of(bs)) == flat
        assert (_union_rows(bs), union_gaps(bs)) == _quadratic_union(channels_of(bs))
    # armchair models, compared to the bit; at t = 3e4 some branch ranges
    # are thinner than 1e-12 and become flat levels, one of them isolated
    for i, (N, q, t) in enumerate(((3, 8, 3e4), (2, 5, 0.3), (4, 3, 1.7), (5, 6, 12.0), (3, 1, 0.9), (6, 4, 0.06))):
        model = ArmchairModel(N, tuple(rng.uniform(-1, 1, 3)), PotentialProfile(rng.uniform(-1, 1, q)), t=t)
        bs = full_spectrum(model)
        assert any(ch.flat_bands for ch in channels_of(bs)) == (i == 0)
        assert (math.inf in bs.multiplicity.tolist()) == (i == 0)
        bands, gaps = _quadratic_union(channels_of(bs))
        assert _union_bits(_union_rows(bs)) == _union_bits(bands)
        assert union_gaps(bs) == gaps
    # and the structures without a segment: no channels, no bands, flat levels only
    for channels in (
        [],
        [ChannelBands(k=1, c_k=None, bands=()), ChannelBands(k=2, c_k=None, bands=((1.0, 0.0),))],
        [ChannelBands(k=3, c_k=0.0, bands=(), flat_bands=(0.5, -0.0, 0.5 + 5e-13)),
         ChannelBands(k=1, c_k=0.0, bands=(), flat_bands=(-0.0, 2.0))],
    ):
        bs = structure_of(channels)
        assert (_union_rows(bs), union_gaps(bs)) == _quadratic_union(channels)


def _bits(pairs):
    return [(float(lo).hex(), float(hi).hex()) for lo, hi in pairs]


def test_zigzag_channel_gaps_match_merged_bands():
    # band_structure finds the gaps of every channel at once (gap_after);
    # the reference merges each channel's bands one at a time, to the bit
    rng = np.random.default_rng(43)
    closed = 0
    for i in range(60):
        N, q = int(rng.integers(2, 40)), int(rng.integers(1, 17))
        if i % 3 == 0:  # c_k = 1/2 for one k: all bonds 1, and half the 2q-periodic gaps close
            b = math.pi / 3 - math.pi * int(rng.integers(1, N + 1)) / N
        else:
            b = float(rng.normal())
        t = float(np.exp(rng.uniform(np.log(1e-3), np.log(40.0))))
        model = ZigzagModel(N, b, PotentialProfile(rng.uniform(-1, 1, q)), t=t)
        for ch in channels_of(full_spectrum(model)):
            assert _bits(ch.gaps) == _bits(reference_gaps(ch.bands))
            closed += len(ch.bands) - 1 - len(ch.gaps)
    assert closed > 0  # some neighbours fused


def test_armchair_channels_match_merged_branch_ranges():
    # each channel's rows are its branch ranges merged one at a time, a band
    # narrower than FLAT_BRANCH_TOL read as a flat level; its gaps are the
    # reference's, one between every two bands, also across a flat level
    from nanotube_bands import decompose_armchair
    from nanotube_bands.spectral import FLAT_BRANCH_TOL, block_branch_ranges

    rng = np.random.default_rng(44)
    flats = across = 0
    for i in range(30):
        N, q = int(rng.integers(2, 7)), int(rng.integers(1, 9))
        t = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e5))))
        if i % 3 == 0:  # branch ranges thinner than FLAT_BRANCH_TOL: odd q, t above about 1e3
            q, t = 7, float(np.exp(rng.uniform(np.log(1e3), np.log(1e5))))
        model = ArmchairModel(N, tuple(rng.uniform(-1, 1, 3)), PotentialProfile(rng.uniform(-1, 1, q)), t=t)
        lo, hi = block_branch_ranges(*decompose_armchair([model]))
        for ch, row_lo, row_hi in zip(channels_of(full_spectrum(model)), lo, hi):
            merged = reference_merge(zip(row_lo.tolist(), row_hi.tolist()))
            assert _bits(ch.bands) == _bits([(a, b) for a, b in merged if b - a >= FLAT_BRANCH_TOL])
            assert _bits((e, e) for e in ch.flat_bands) == _bits((a, a) for a, b in merged if b - a < FLAT_BRANCH_TOL)
            assert _bits(ch.gaps) == _bits(reference_gaps(ch.bands))
            assert len(ch.gaps) == max(len(ch.bands) - 1, 0)
            assert ch.c_k == math.cos(math.pi * ch.k / N)
            flats += len(ch.flat_bands)
            across += any(ch.bands and ch.bands[0][1] < e < ch.bands[-1][0] for e in ch.flat_bands)
    assert flats > 0 and across > 0


def test_gap_and_fuse_rules_keep_the_rounding_of_the_reference_merge():
    # neighbours GAP_MERGE_TOL apart give or take a few ulps, where
    # "lo <= hi + tol" and "lo - hi > tol" round differently
    from nanotube_bands.spectral import GAP_MERGE_TOL

    rng = np.random.default_rng(47)
    edges = np.sort(rng.uniform(-3.0, 3.0, size=(200, 16)), axis=1)
    for row in edges:
        for i in range(1, 15, 2):  # move some band starts onto the tolerance
            if rng.random() < 0.6:
                row[i + 1] = row[i] + GAP_MERGE_TOL
                row[i + 1] += int(rng.integers(-3, 4)) * np.spacing(row[i + 1])
                row[i + 1 :] = np.maximum(row[i + 1 :], row[i + 1])
    lo, hi = edges[:, 0::2], edges[:, 1::2]
    chan, fused_lo, fused_hi = fuse_rows(lo, hi)
    for c, (apart, row_lo, row_hi) in enumerate(zip(gap_after(lo, hi), lo, hi)):
        bands = list(zip(row_lo.tolist(), row_hi.tolist()))
        assert list(zip(row_hi[:-1][apart].tolist(), row_lo[1:][apart].tolist())) == reference_gaps(bands)
        assert list(zip(fused_lo[chan == c].tolist(), fused_hi[chan == c].tolist())) == reference_merge(bands)


@pytest.mark.parametrize("seed", range(3))
def test_fuse_rows_matches_the_reference_merge_to_the_bit(seed):
    # unsorted, nested and repeated intervals, gaps on the tolerance, and
    # upper edges of +0.0 and -0.0 that tie, where a band keeps the first
    from nanotube_bands.spectral import GAP_MERGE_TOL

    rng = np.random.default_rng([48, seed])
    points = np.array([-0.0, 0.0, 1.0, GAP_MERGE_TOL, -GAP_MERGE_TOL, 2 * GAP_MERGE_TOL, 0.5, -1.0])
    lo = rng.choice(points, (300, 8)) + rng.choice([0.0, 0.0, 1e-12, -5e-10], (300, 8))
    hi = np.maximum(lo, np.where(rng.random((300, 8)) < 0.5, lo, rng.choice(points, (300, 8))))
    hi = np.where((hi == 0.0) & (rng.random((300, 8)) < 0.5), -hi, hi)  # a zero upper edge of either sign
    chan, got_lo, got_hi = fuse_rows(lo, hi)
    for c, (row_lo, row_hi) in enumerate(zip(lo, hi)):
        got = zip(got_lo[chan == c].tolist(), got_hi[chan == c].tolist())
        assert _bits(got) == _bits(reference_merge(zip(row_lo.tolist(), row_hi.tolist())))
    # edges at the same infinity differ by nan, which keeps two bands apart
    # (numpy flags inf - inf as invalid; the nan it gives is what is tested)
    points = np.array([-np.inf, -1.0, 0.0, 1.0, np.inf])
    lo = rng.choice(points, (300, 6))
    hi = np.maximum(lo, rng.choice(points, (300, 6)))
    with np.errstate(invalid="ignore"):
        chan, got_lo, got_hi = fuse_rows(lo, hi)
        assert [x.tolist() for x in fuse_rows(np.array([[0.0, math.inf]]), np.array([[math.inf] * 2]))] == [
            [0, 0], [0.0, math.inf], [math.inf, math.inf]
        ]
    for c, (row_lo, row_hi) in enumerate(zip(lo, hi)):
        got = zip(got_lo[chan == c].tolist(), got_hi[chan == c].tolist())
        assert _bits(got) == _bits(reference_merge(zip(row_lo.tolist(), row_hi.tolist())))
    assert [x.size for x in fuse_rows(np.empty((3, 0)), np.empty((3, 0)))] == [0, 0, 0]
    # numpy's running maximum keeps the last of equal values, which would end this band at -0.0
    assert repr(fuse_rows(np.array([[-1.0, 0.0, -0.0]]), np.array([[0.0, -0.0, -0.0]]))[2].tolist()) == "[0.0]"


def _matmul_monodromy(jac, z):
    """The 2x2-product loop that the array recurrence replaced."""
    m = 2 * jac.p
    M = np.eye(2)
    for i in range(m):
        step = np.array([[0.0, 1.0], [-jac.a[(i - 1) % m] / jac.a[i], (z - jac.v[i]) / jac.a[i]]])
        M = step @ M
    return M


def test_discriminant_of_an_array_matches_scalar_calls():
    rng = np.random.default_rng(31)
    for _ in range(40):
        p = int(rng.integers(1, 17))
        jac = chain(p, rng.uniform(0.05, 2.0), rng.normal(size=2 * p) * rng.uniform(0.1, 5.0))
        zs = rng.normal(size=int(rng.integers(1, 20))) * 3.0
        D = discriminant(jac, zs)
        M = monodromy(jac, zs)
        assert D.shape == zs.shape and M.shape == zs.shape + (2, 2)
        for z, d, m in zip(zs, D, M):
            assert d == pytest.approx(discriminant(jac, z), rel=1e-12, abs=0.0)
            assert np.array_equal(m, _matmul_monodromy(jac, z))  # same 2x2 products, same bits
    assert discriminant(chain(1, 1.0, [0.0, 0.0]), np.empty((0,))).shape == (0,)


# ---------------------------------------------------------------------------
# stacked scalar channels against the per-channel loop


def _per_channel_levels(jac):
    """The K(+1) and K(-1) levels of one channel: two real symmetric fiber matrices, built entry by entry."""
    a, v, m = jac.a, jac.v, 2 * jac.p
    i = np.arange(m)
    K = np.zeros((m, m))
    K[i, i] = v
    K[i[:-1], i[1:]] += a[: m - 1]
    K[i[1:], i[:-1]] += a[: m - 1]
    corner = np.array([1.0, -1.0]).reshape(-1, 1, 1) * a[m - 1]
    L = np.repeat(K[None], 2, axis=0)
    L[:, m - 1 :, :1] += corner  # the lower corner first, as ``fiber_matrices`` adds them
    L[:, :1, m - 1 :] += corner
    return np.linalg.eigvalsh(L)


def test_real_chain_levels_lie_within_the_hill_allowance_of_the_complex_solve():
    # the gauge-reduced chains are solved in real arithmetic; the complex solve
    # of the same matrices differs from it by rounding, within the allowance
    # 8 * 2m * u * max|level| of the Hill check (the worst of 3 000 chains was
    # 43 u * scale, 0.20 of it)
    rng = np.random.default_rng(83)
    worst = 0.0
    for _ in range(250):
        p, t = int(rng.integers(1, 17)), float(10 ** rng.uniform(-2, 4))
        bonds = np.ones((12, 2 * p))
        bonds[:, 1::2] = 2.0 * np.abs(rng.uniform(-1, 1, (12, 1)))
        diag = t * rng.uniform(-1, 1, (12, 2 * p))
        real, cplx = (
            fiber_matrices(K[:, None], W[:, None], taus)
            for (K, W), taus in (
                (scalar_period_matrix(bonds, diag), [1.0, -1.0]),
                (scalar_period_matrix(bonds.astype(complex), diag), [1.0 + 0j, -1.0 + 0j]),
            )
        )
        assert real.dtype == float and cplx.dtype == complex
        got, ref = np.linalg.eigvalsh(real), np.linalg.eigvalsh(cplx)
        assert np.sort(got.reshape(12, -1), axis=-1).tobytes() == periodic_jacobi_band_edges(bonds, diag).tobytes()
        allowance = 8 * 2 * (2 * p) * UNIT_ROUNDOFF * np.max(np.abs(ref), axis=(1, 2))
        worst = max(worst, float(np.max(np.max(np.abs(got - ref), axis=(1, 2)) / allowance)))
    assert 0.0 < worst <= 1.0


def _per_channel_edges(jac):
    """The one-channel edge routine that the stacked path replaced, kept as its exact reference."""
    edges = np.sort(_per_channel_levels(jac), axis=None)
    return list(zip(edges[0::2], edges[1::2]))


def _channel_outcome(models, stacked):
    """Bits of (bands, flat levels) per channel of each model, or the message of the first failure."""
    try:
        if stacked:
            per_model = [[(ch.bands, ch.flat_bands) for ch in chans] for chans in step_channels(models)]
        else:
            per_model = [
                [
                    ((), tuple(float(e) for e in flat_band_spectrum(model.potential, model.t)))
                    if jac.is_flat
                    else (tuple(_per_channel_edges(jac)), ())
                    for jac in decompose_zigzag(model)
                ]
                for model in models
            ]
    except InternalConsistencyError as exc:
        return str(exc)
    return [
        [(np.array(bands, dtype=float).tobytes(), np.array(flats, dtype=float).tobytes()) for bands, flats in chans]
        for chans in per_model
    ]


def _sweep_models(rng, N, q, t, flat_step):
    """Zigzag models of one potential at 1-5 fields; ``flat_step`` puts one on a flat amplitude."""
    prof = PotentialProfile(rng.uniform(-1, 1, q))
    fields = list(rng.uniform(-3, 3, int(rng.integers(1, 6))))
    if flat_step:
        flat = flat_field_amplitudes(N, int(rng.integers(1, N + 1)), [0, 1])[0]
        fields.insert(int(rng.integers(0, len(fields) + 1)), flat)
    return [ZigzagModel(N, magnetic_phase(B, N), prof, t=t) for B in fields]


@pytest.mark.parametrize("seed", range(4))
def test_stacked_scalar_channels_match_per_channel_loop(seed, monkeypatch):
    # p = 1 (q = 1, 2), exact flat phases, sweeps onto flat amplitudes, and
    # up to 5 x 16 channels: one stack, or (odd seeds) stacks of 4 KiB, which
    # cut across channels of every period and across field steps
    if seed % 2:
        monkeypatch.setattr(spectral, "STACK_BYTES", 2**12)
    rng = np.random.default_rng([47, seed])
    for _ in range(10):
        N, q = int(rng.integers(2, 17)), int(rng.integers(1, 7))
        t = float(np.exp(rng.uniform(-3, 2.5)))
        if rng.random() < 0.3:
            prof = PotentialProfile(rng.uniform(-1, 1, q))
            models = [ZigzagModel(N, math.pi / 2 - math.pi * int(rng.integers(1, N + 1)) / N, prof, t=t)]
        else:
            models = _sweep_models(rng, N, q, t, flat_step=rng.random() < 0.5)
        want = _channel_outcome(models, stacked=False)
        assert _channel_outcome(models, stacked=True) == want


def test_stacked_scalar_channels_match_per_channel_loop_at_N120():
    rng = np.random.default_rng(53)
    models = [ZigzagModel(120, 0.7, PotentialProfile(rng.uniform(-1, 1, 5)), t=1.7)]
    assert _channel_outcome(models, stacked=True) == _channel_outcome(models, stacked=False)


def test_stacked_scalar_channels_raise_like_per_channel_loop():
    # large t and odd q, with some channel at c_k = 1/2 (all bonds 1): the
    # discriminant validator of earlier versions refused most of these
    # sweeps (exit 3 on valid input); the Hill-order check refuses none, and
    # the stack matches the per-channel loop bit for bit, past the first stack
    rng = np.random.default_rng(59)
    for _ in range(8):
        N, q, t = int(rng.integers(3, 17)), int(rng.choice([9, 11, 13])), float(rng.uniform(7, 23))
        prof = PotentialProfile(rng.uniform(-1, 1, q))
        bs = list(rng.uniform(-3, 3, int(rng.integers(0, 4))))
        bs.append(math.pi / 3 - math.pi * int(rng.integers(1, N + 1)) / N)
        models = [ZigzagModel(N, b, prof, t=t) for b in bs]
        want = _channel_outcome(models, stacked=False)
        assert not isinstance(want, str)
        assert _channel_outcome(models, stacked=True) == want


def _torus_distance_to_union(model, L, lo, hi):
    """Largest distance from a level of the L-cell torus to the union bands [lo, hi]."""
    from nanotube_bands.oracle import build_full_hamiltonian

    levels = build_full_hamiltonian(model, L).eigenvalues()[:, None]
    return float(np.max(np.min(np.maximum(np.maximum(lo - levels, levels - hi), 0.0), axis=1)))


def test_half_ck_family_passes_the_hill_check_and_the_torus():
    # the family on which the discriminant validator of earlier versions
    # exited 3 for about 4 models in 10: N 3-16, odd q 9-15, t 5-25 and a
    # field that puts some channel at c_k = 1/2, where half the gaps close.
    # Every model is solved, and every level of the 2p-cell torus lies in
    # the union within 1e-8
    rng = np.random.default_rng(67)
    for _ in range(40):
        N, q, t = int(rng.integers(3, 17)), int(rng.choice([9, 11, 13, 15])), float(rng.uniform(5, 25))
        k = int(rng.integers(1, N + 1))
        model = ZigzagModel(N, math.pi / 3 - math.pi * k / N, PotentialProfile(rng.uniform(-1, 1, q)), t=t)
        assert model.channel_constant(k) == pytest.approx(0.5, abs=1e-12)
        bs = full_spectrum(model)
        assert _torus_distance_to_union(model, 2 * model.potential.p, bs.lo, bs.hi) < 1e-8


def _faulty_eigvalsh(fault, select):
    """``np.linalg.eigvalsh`` with ``fault`` injected into the K(+1)/K(-1) levels of the channels ``select`` picks.

    ``select(P0)`` reads the channel's lowest K(+1) level, so a channel is
    picked by its own data, alone or in any stack.  "swap" exchanges the
    K(+1) and K(-1) labels; "move" takes the upper end of one band of the
    Hill sequence below its lower end, a level of the other kind.
    """
    real = np.linalg.eigvalsh

    def eigvalsh(a, *args, **kwargs):
        levels = real(a, *args, **kwargs)
        if levels.ndim != 3 or levels.shape[1] != 2:
            return levels
        levels = levels.copy()
        m = levels.shape[2]
        for c in np.flatnonzero([select(x) for x in levels[:, 0, 0]]):
            if fault == "swap":
                levels[c] = levels[c, ::-1].copy()
            else:
                j = int(abs(levels[c, 0, 0]) * 1e7) % m  # band j is (P_j, M_j) for even j, (M_j, P_j) for odd j
                lower, upper = (0, 1) if j % 2 == 0 else (1, 0)
                levels[c, upper, j] = 2 * levels[c, lower, j] - levels[c, upper, j]
        return levels

    return eigvalsh


@pytest.mark.parametrize("seed", range(3))
def test_stacked_validator_reports_the_first_failure_in_loop_order(monkeypatch, capsys, tmp_path, seed):
    # faults injected into the eigensolver's output of some channels must
    # exit 3 through the CLI, naming the first faulty channel by field step,
    # then k: the one the per-channel loop meets first, also past the first
    # stack (of 4 KiB here, a few channels)
    from nanotube_bands.cli import main

    monkeypatch.setattr(spectral, "STACK_BYTES", 2**12)

    rng = np.random.default_rng([61, seed])
    late = 0
    for case in range(8):
        fault = ("swap", "move")[case % 2]
        rare = case >= 4  # then few channels are picked, in sweeps of up to 8 x 16 channels
        every = 61 if rare else 3
        select = lambda x, every=every: int(abs(x) * 1e6) % every == 0
        N, q = int(rng.integers(8 if rare else 2, 17)), int(rng.integers(1, 7))
        t = float(np.exp(rng.uniform(-1.5, 1.5)))
        pot = tmp_path / "v.json"
        pot.write_text(json.dumps(rng.uniform(-1, 1, q).tolist()))
        prof = PotentialProfile(json.loads(pot.read_text()))
        steps = int(rng.integers(4 if rare else 1, 9))
        Bs = list(np.linspace(-2.0, 2.5, steps)) if steps > 1 else [0.3]
        models = [ZigzagModel(N, magnetic_phase(B, N), prof, t=t) for B in Bs]
        # (field step, k) of the dispersive channels in loop order, and which the
        # fault picks, from the one-channel reference
        rows = [
            (step, k, jac)
            for step, model in enumerate(models, start=1)
            for k, jac in enumerate(decompose_zigzag(model), start=1)
            if not jac.is_flat
        ]
        picked = [i for i, (_, _, jac) in enumerate(rows) if select(_per_channel_levels(jac)[0, 0])]
        if steps > 1:
            argv = ["sweep", "--B-start", "-2.0", "--B-stop", "2.5", "--B-steps", str(steps)]
        else:
            argv = ["bands", "--B", "0.3"]
        argv += ["--lattice", "zigzag", "--N", str(N), "--t", repr(t), "--potential", str(pot)]
        argv += ["--output", str(tmp_path / "out")]
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigvalsh", _faulty_eigvalsh(fault, select))
            code = main(argv)
        err = capsys.readouterr().err
        if not picked:
            assert code == 0 and err == ""
            continue
        step, k, _ = rows[picked[0]]
        where = f"field step {step} of {steps}, " if steps > 1 else ""
        assert code == 3
        assert err.startswith(f"internal consistency failure: {where}channel k = {k}: K(+1)/K(-1) levels out of Hill")
        late += picked[0] >= 32
    assert late > 0


def test_hill_check_swaps_the_roles_for_an_odd_period(monkeypatch):
    # a Schroedinger chain of odd period m starts from a K(-1) level; with the
    # labels swapped, the first band wider than the rounding slack falls
    from nanotube_bands.errors import HillOrderError

    rng = np.random.default_rng(71)
    chains = [rng.uniform(-1, 1, m) for m in range(1, 25)]
    for q in chains:
        for scale in (1e-3, 1.0, 1e3):
            assert len(schroedinger_band_edges(scale * q)) == q.size
    monkeypatch.setattr(np.linalg, "eigvalsh", _faulty_eigvalsh("swap", lambda x: True))
    for q in chains:
        with pytest.raises(HillOrderError) as info:
            schroedinger_band_edges(q)
        assert info.value.channel == 0


def test_periodic_jacobi_band_edges_of_an_empty_stack():
    assert periodic_jacobi_band_edges(np.ones((0, 2)), np.ones((0, 2))).shape == (0, 4)


def test_json_schema_shape():
    model = ZigzagModel(2, 0.0, PotentialProfile([0.5, -0.5]), t=1.0)
    d = json.loads(_bands_json(full_spectrum(model)))
    assert set(d) == {"channels", "union"}
    assert set(d["channels"][0]) == {"k", "c_k", "bands", "flat_bands", "gaps"}
    assert set(d["union"]) == {"bands", "gaps"}
    iso = json.loads(_bands_json(structure_of([ChannelBands(k=1, c_k=0.0, bands=(), flat_bands=(0.5,))])))
    assert iso["union"]["bands"][0]["multiplicity"] == "inf"


def test_schroedinger_band_edges_free():
    np.testing.assert_allclose(schroedinger_band_edges([0.0]), [(-2.0, 2.0)], atol=1e-14)
    bands = schroedinger_band_edges([0.5, -0.5])
    assert bands[0][1] < bands[1][0]  # the period-2 gap is open


def test_periodic_jacobi_interlacing_random():
    rng = np.random.default_rng(12)
    for _ in range(50):
        m = int(rng.integers(1, 5)) * 2
        off = rng.uniform(0.05, 2.0, size=m)
        diag = rng.normal(size=m)
        edges = periodic_jacobi_band_edges(off, diag)
        assert np.all(np.diff(edges) > -1e-12)


def test_discriminant_sign_pattern_at_edges():
    # D(z_n^+-) = (-1)^n: the discriminant rises to +inf on both tails, so the
    # edge values alternate downward from +1 at the hull
    rng = np.random.default_rng(13)
    for _ in range(20):
        p = int(rng.integers(1, 4))
        jac = chain(p, float(rng.uniform(0.2, 2.0)), rng.normal(size=2 * p))
        edges = np.array(channel_bands(jac)).ravel()  # e_1 <= ... <= e_4p
        # z_0^+ = e_1, then z_n^-, z_n^+ = e_2n, e_2n+1, finally z_2p^- = e_4p
        for n in range(0, 2 * p + 1):
            if n == 0:
                es = [edges[0]]
            elif n == 2 * p:
                es = [edges[-1]]
            else:
                es = [edges[2 * n - 1], edges[2 * n]]
            for e in es:
                assert discriminant(jac, e) == pytest.approx((-1.0) ** n, abs=1e-6)


def test_block_fiber_hermitian_random():
    rng = np.random.default_rng(14)
    from nanotube_bands import decompose_armchair
    from nanotube_bands.core import ArmchairModel

    for _ in range(40):
        q = int(rng.integers(1, 6))
        model = ArmchairModel(
            int(rng.integers(2, 7)), tuple(rng.normal(size=3)), PotentialProfile(rng.normal(size=q)),
            t=float(rng.normal()),
        )
        for period, wrap in zip(*block_period_matrix(*decompose_armchair([model]))):
            tau = cmath.exp(2j * math.pi * rng.random())
            L = fiber_matrices(period, wrap, [tau])[0]
            assert np.max(np.abs(L - L.conj().T)) < 1e-14 * max(1.0, float(np.max(np.abs(L))))


def test_block_fiber_stack_matches_one_matrix_assembly():
    # the stacked builder adds the terms in the order of a one-matrix build;
    # for p = 1 both corners land on the diagonal block, so the order shows
    # in the last bits
    from nanotube_bands import decompose_armchair

    rng = np.random.default_rng(15)
    for q in (1, 2, 3, 4, 6):
        model = ArmchairModel(
            int(rng.integers(2, 7)), tuple(rng.normal(size=3)), PotentialProfile(rng.normal(size=q)),
            t=float(rng.normal()),
        )
        taus = [cmath.exp(1j * th) for th in rng.uniform(-7, 7, size=16)]
        for a, d in zip(*decompose_armchair([model])):
            P = len(d)
            stack = fiber_matrices(*block_period_matrix(a[None], d[None]), taus)
            for tau, got in zip(taus, stack):
                L = np.zeros((2 * P, 2 * P), dtype=complex)
                for j in range(P):
                    L[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = d[j]
                for j in range(P - 1):
                    L[2 * j + 2 : 2 * j + 4, 2 * j : 2 * j + 2] += a
                    L[2 * j : 2 * j + 2, 2 * j + 2 : 2 * j + 4] += a.conj().T
                L[2 * P - 2 : 2 * P, 0:2] += tau * a.conj().T
                L[0:2, 2 * P - 2 : 2 * P] += np.conj(tau) * a
                assert _same_bits(got, L)


def test_free_fiber_explicit_eigenvectors_any_multiplier():
    # explicit eigenvectors of the zero-potential fiber at a generic unimodular
    # multiplier: components alternate (pattern, pattern * bond phase) along
    # the chain with the p-th roots r_n of the multiplier argument
    rng = np.random.default_rng(21)
    for _ in range(30):
        p = int(rng.integers(1, 6))
        a = float(rng.uniform(0.05, 2.0))
        phi = float(rng.uniform(0, 2 * math.pi))
        jac = chain(p, a, np.zeros(2 * p))
        K = scalar_fiber(jac, cmath.exp(1j * phi))
        for n in range(1, p + 1):
            r = (phi + 2 * math.pi * n) / p
            eps = a + cmath.exp(1j * r)
            if abs(eps) < 1e-12:
                continue
            for s, lam in ((1, -abs(eps)), (2, abs(eps))):
                vec = np.zeros(2 * p, dtype=complex)
                for m in range(1, 2 * p + 1):
                    if m % 2 == 0:
                        vec[m - 1] = (-1.0) ** s * cmath.exp(1j * (m // 2) * r)
                    else:
                        vec[m - 1] = cmath.exp(1j * ((m - 1) // 2) * r) * eps / abs(eps)
                vec /= math.sqrt(2 * p)
                assert np.linalg.norm(K @ vec - lam * vec) < 1e-12


def test_block_sweep_complete_and_attained():
    # completeness: every fiber eigenvalue lies inside the swept bands;
    # attainment: each swept edge is approached by fiber eigenvalues
    from nanotube_bands import decompose_armchair
    from nanotube_bands.core import ArmchairModel, PotentialProfile

    rng = np.random.default_rng(23)
    for _ in range(6):
        q = int(rng.integers(1, 5))
        model = ArmchairModel(
            int(rng.integers(2, 6)), tuple(rng.normal(size=3)),
            PotentialProfile(rng.normal(size=q)), t=float(rng.normal()),
        )
        block = channel(decompose_armchair([model]), 0)
        bands = block_bands(*block)[0]
        probe = block_fiber_levels(block, [cmath.exp(2j * math.pi * x) for x in rng.random(40)]).ravel()
        ok, margin = intervals_contain(bands, [(e, e) for e in probe], tol=1e-9)
        assert ok, margin
        fine = block_fiber_levels(block, [cmath.exp(2j * math.pi * m / 2048) for m in range(2048)]).ravel()
        for lo, hi in bands:
            assert np.min(np.abs(fine - lo)) < 1e-4
            assert np.min(np.abs(fine - hi)) < 1e-4


def test_block_edges_not_at_real_multipliers():
    # with generic phases the band extrema move away from the +-1 fibers,
    # which is why block channels are swept rather than paired
    from nanotube_bands import decompose_armchair
    from nanotube_bands.core import ArmchairModel, PotentialProfile

    model = ArmchairModel(3, (0.8, -0.5, 1.1), PotentialProfile([0.7, -0.4]), t=1.0)
    block = channel(decompose_armchair([model]), 0)
    swept = block_bands(*block)[0]
    pm = np.sort(block_fiber_levels(block, [1.0, -1.0]), axis=None)
    naive = reference_merge([(pm[2 * i], pm[2 * i + 1]) for i in range(len(pm) // 2)])
    assert max_edge_deviation(swept, naive) > 1e-3
