import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nanotube_bands import (
    ArmchairModel,
    BlockPeriodicJacobi,
    PotentialProfile,
    ScalarPeriodicJacobi,
    ZigzagModel,
    armchair_unperturbed,
    band_edges_scalar,
    discriminant,
    flat_band_spectrum,
    floquet_block,
    floquet_scalar,
    full_spectrum,
    monodromy,
    spectrum_block,
)
from nanotube_bands.errors import FlatBandChannelError, InvalidParameterError
from nanotube_bands.spectral import (
    assemble_band_structure,
    ChannelBands,
    interval_gaps,
    intervals_contain,
    max_edge_deviation,
    merge_intervals,
    periodic_jacobi_band_edges,
    schroedinger_band_edges,
)


def chain(p, a, v, c_k=None):
    bonds = np.ones(2 * p)
    bonds[1::2] = a
    return ScalarPeriodicJacobi(p=p, a=bonds, v=np.asarray(v, dtype=float), c_k=c_k)


# ---------------------------------------------------------------------------
# intervals


def test_merge_and_gaps():
    assert merge_intervals([(0, 1), (1 + 5e-10, 2), (3, 4)]) == [(0, 2), (3, 4)]
    assert interval_gaps([(0, 1), (3, 4)]) == [(1, 3)]
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
    with pytest.raises(FlatBandChannelError):
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
        for lo, hi in band_edges_scalar(jac):
            assert abs(abs(discriminant(jac, lo)) - 1) < 1e-8
            assert abs(abs(discriminant(jac, hi)) - 1) < 1e-8


# ---------------------------------------------------------------------------
# fiber matrices


def test_floquet_scalar_free_point():
    K = floquet_scalar(chain(1, 1.0, [0.0, 0.0]), 1.0)
    np.testing.assert_allclose(K.matrix, [[0, 2], [2, 0]])
    np.testing.assert_allclose(K.eigenvalues(), [-2, 2])


def test_floquet_scalar_flat_block_structure():
    v = np.array([0.3, -0.2, 0.8, 0.1])
    jac = chain(2, 0.0, v)
    eigs = [floquet_scalar(jac, cmath.exp(1j * th)).eigenvalues() for th in (0.0, 0.7, 2.4, math.pi)]
    for e in eigs[1:]:
        np.testing.assert_allclose(e, eigs[0], atol=1e-12)
    blocks = np.linalg.eigvalsh(np.array([[0.3, 1], [1, -0.2]])).tolist()
    blocks += np.linalg.eigvalsh(np.array([[0.8, 1], [1, 0.1]])).tolist()
    np.testing.assert_allclose(eigs[0], sorted(blocks), atol=1e-12)


def test_floquet_scalar_rejects_bad_multiplier():
    with pytest.raises(InvalidParameterError):
        floquet_scalar(chain(1, 1.0, [0.0, 0.0]), 1.1)


@given(
    p=st.integers(1, 4),
    a=st.floats(0, 2),
    phi=st.floats(0, 2 * math.pi),
    data=st.data(),
)
@settings(max_examples=60)
def test_floquet_hermitian(p, a, phi, data):
    v = data.draw(st.lists(st.floats(-3, 3), min_size=2 * p, max_size=2 * p))
    K = floquet_scalar(chain(p, a, v), cmath.exp(1j * phi)).matrix
    assert np.max(np.abs(K - K.conj().T)) < 1e-14 * max(1.0, np.max(np.abs(K)))


@given(p=st.integers(1, 4), a=st.floats(0.05, 2), phi=st.floats(0, 2 * math.pi))
@settings(max_examples=60)
def test_free_fiber_eigenvalues(p, a, phi):
    # eigenvalues of the zero-potential fiber are +-|a + e^{i(phi + 2 pi n)/p}|
    K = floquet_scalar(chain(p, a, np.zeros(2 * p)), cmath.exp(1j * phi))
    expected = []
    for n in range(1, p + 1):
        mag = abs(a + cmath.exp(1j * (phi + 2 * math.pi * n) / p))
        expected += [-mag, mag]
    np.testing.assert_allclose(K.eigenvalues(), np.sort(expected), atol=1e-10)


# ---------------------------------------------------------------------------
# scalar band edges


def test_alternating_potential_bands():
    # edges are +-sqrt(v^2 + (a +- 1)^2) for the (v, -v) potential
    jac = chain(1, 1.0, [1.0, -1.0])
    rt5 = math.sqrt(5)
    np.testing.assert_allclose(band_edges_scalar(jac), [(-rt5, -1.0), (1.0, rt5)], atol=1e-12)
    jac2 = chain(1, 2.0, [1.0, -1.0])
    rt10, rt2 = math.sqrt(10), math.sqrt(2)
    np.testing.assert_allclose(band_edges_scalar(jac2), [(-rt10, -rt2), (rt2, rt10)], atol=1e-12)


def test_free_touching_bands_p2():
    jac = chain(2, 1.0, np.zeros(4))
    bands = band_edges_scalar(jac)
    rt2 = math.sqrt(2)
    np.testing.assert_allclose(
        bands, [(-2, -rt2), (-rt2, 0), (0, rt2), (rt2, 2)], atol=1e-12
    )


def test_edges_match_sweep_envelope():
    jac = chain(2, 0.8, [0.3, 0.7, -0.2, 1.1])
    edges = band_edges_scalar(jac)
    thetas = 2 * math.pi * np.arange(512) / 512
    levels = np.array(
        [floquet_scalar(jac, cmath.exp(1j * th)).eigenvalues() for th in thetas]
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
    a_block = np.array([[0.0, jac.a[1]], [0.0, 0.0]], dtype=complex)
    d = np.zeros((p, 2, 2), dtype=complex)
    for j in range(p):
        d[j] = [[jac.v[2 * j], jac.a[2 * j]], [jac.a[2 * j], jac.v[2 * j + 1]]]
    return BlockPeriodicJacobi(p=p, a_block=a_block, d_blocks=d)


def test_block_sweep_reproduces_scalar_edges():
    rng = np.random.default_rng(6)
    for _ in range(5):
        p = int(rng.integers(1, 4))
        jac = chain(p, rng.uniform(0.2, 1.9), rng.normal(size=2 * p))
        got = spectrum_block(_scalar_as_blocks(jac), grid_size=256)
        want = band_edges_scalar(jac)
        assert max_edge_deviation(got, merge_intervals(want)) < 1e-8


def test_block_sweep_shift_equivariance():
    rng = np.random.default_rng(7)
    model = ArmchairModel(3, (0.1, -0.2, 0.3), PotentialProfile(rng.normal(size=4)), t=1.0)
    from nanotube_bands import decompose_armchair

    block = decompose_armchair(model)[1]
    mu = 0.7
    shifted = BlockPeriodicJacobi(
        p=block.p, a_block=block.a_block, d_blocks=block.d_blocks + mu * np.eye(2)
    )
    b1 = spectrum_block(block, grid_size=64)
    b2 = spectrum_block(shifted, grid_size=64)
    np.testing.assert_allclose(
        np.array(b2), np.array(b1) + mu, atol=1e-9
    )


def _per_fiber_block_bands(block, grid_size):
    """Reference sweep: one fiber matrix per grid point and per golden-section probe."""
    thetas = 2.0 * np.pi * np.arange(grid_size) / grid_size
    levels = np.array([floquet_block(block, cmath.exp(1j * th)).eigenvalues() for th in thetas])
    step = 2.0 * np.pi / grid_size
    invphi = (math.sqrt(5.0) - 1.0) / 2.0

    def extremum(j, centre, sign):
        def f(theta):
            return sign * float(floquet_block(block, cmath.exp(1j * theta)).eigenvalues()[j])

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
    for j in range(2 * block.p):
        branch = levels[:, j]
        i_min, i_max = int(np.argmin(branch)), int(np.argmax(branch))
        lo, hi = float(branch[i_min]), float(branch[i_max])
        if hi - lo >= 1e-13 * max(1.0, float(np.max(np.abs(branch)))):
            lo = min(extremum(j, thetas[i_min], 1.0), lo)
            hi = max(extremum(j, thetas[i_max], -1.0), hi)
        bands.append((lo, hi))
    return merge_intervals(bands)


@pytest.mark.parametrize("seed", range(4))
def test_block_sweep_matches_per_fiber_reference(seed):
    # the stacked sweep and lockstep refinement do the same arithmetic as the
    # one-fiber-at-a-time loop, so the edges agree exactly
    from nanotube_bands import decompose_armchair

    rng = np.random.default_rng(40 + seed)
    q = int(rng.integers(1, 7))
    model = ArmchairModel(
        int(rng.integers(2, 6)), tuple(rng.normal(size=3)),
        PotentialProfile(rng.uniform(-1, 1, size=q)), t=float(np.exp(rng.uniform(-3, 3.7))),
    )
    for block in decompose_armchair(model):
        assert spectrum_block(block, grid_size=32) == _per_fiber_block_bands(block, 32)
    flat = _scalar_as_blocks(chain(2, 0.0, rng.normal(size=4)))  # every branch is constant
    assert spectrum_block(flat, grid_size=16) == _per_fiber_block_bands(flat, 16)


def test_block_fibers_reject_bad_multiplier():
    jac = chain(1, 1.0, [0.0, 0.0])
    with pytest.raises(InvalidParameterError):
        floquet_block(_scalar_as_blocks(jac), 1.1)


def test_block_sweep_rejects_bad_grid():
    jac = chain(1, 1.0, [0.0, 0.0])
    with pytest.raises(InvalidParameterError):
        spectrum_block(_scalar_as_blocks(jac), grid_size=100)


def test_armchair_unperturbed_closed_form():
    bs = armchair_unperturbed(3, 0.0)
    np.testing.assert_allclose(merge_intervals(bs.union_intervals()), [(-3, 3)], atol=1e-12)
    bs = armchair_unperturbed(4, 1.0)
    merged = merge_intervals(bs.union_intervals())
    rt10 = math.sqrt(10)
    np.testing.assert_allclose(merged, [(-rt10, -1.0), (1.0, rt10)], atol=1e-12)
    # channel k = N starts at |v| and its short branch ends at sqrt(1 + v^2)
    ch = bs.channels[-1]
    assert ch.k == 4
    assert ch.bands[-1][0] == pytest.approx(1.0)
    short_hi = math.sqrt(5 + 1 - 4)
    assert short_hi == pytest.approx(math.sqrt(2))


def test_armchair_sweep_matches_closed_form():
    for N in (3, 4):
        for vt in (0.0, 1.0):
            model = ArmchairModel(N, (0.0, 0.0, 0.0), PotentialProfile([-vt, vt]), t=1.0)
            swept = full_spectrum(model, grid_size=128)
            closed = armchair_unperturbed(N, vt)
            assert max_edge_deviation(swept.union_intervals(), closed.union_intervals()) < 1e-6


# ---------------------------------------------------------------------------
# full spectra and unions


def test_full_spectrum_alternating_no_flats():
    v = 0.8
    model = ZigzagModel(3, 0.0, PotentialProfile([v, -v]), t=1.0)
    bs = full_spectrum(model)
    assert bs.flat_bands == []
    hull = bs.hull()
    assert hull[0] == pytest.approx(-math.sqrt(v**2 + 9), abs=1e-12)
    assert hull[1] == pytest.approx(math.sqrt(v**2 + 9), abs=1e-12)


def test_full_spectrum_flat_bands_at_even_N():
    v = 0.8
    model = ZigzagModel(2, 0.0, PotentialProfile([v, -v]), t=1.0)
    bs = full_spectrum(model)
    energies = sorted(e for e, _ in bs.flat_bands)
    w = math.sqrt(1 + v**2)
    np.testing.assert_allclose(energies, [-w, w], atol=1e-12)
    # here the flat levels coincide with the inner edges of the widest channel
    union = bs.union_intervals()
    assert union[0][1] == pytest.approx(-w, abs=1e-12)
    assert union[-1][0] == pytest.approx(w, abs=1e-12)


def test_isolated_flat_level_becomes_degenerate_union_band():
    channels = [
        ChannelBands(k=1, c_k=0.0, bands=(), flat_bands=(0.3,)),
        ChannelBands(k=2, c_k=-1.0, bands=((1.0, 2.0), (-2.0, -1.0))),
    ]
    bs = assemble_band_structure(channels)
    degens = [b for b in bs.union_bands if math.isinf(b.multiplicity)]
    assert [(b.lo, b.hi, b.channels) for b in degens] == [(0.3, 0.3, (1,))]
    assert bs.union_gaps == ((-1.0, 0.3), (0.3, 1.0))


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
        assert max_edge_deviation(bs1.union_intervals(), bs2.union_intervals()) < 1e-10


def test_union_multiplicity_segmentation():
    channels = [
        ChannelBands(k=1, c_k=0.5, bands=((0.0, 2.0),)),
        ChannelBands(k=2, c_k=-0.5, bands=((1.0, 3.0),)),
    ]
    bs = assemble_band_structure(channels)
    mults = [(b.lo, b.hi, b.multiplicity, b.channels) for b in bs.union_bands]
    assert mults == [
        (0.0, 1.0, 2.0, (1,)),
        (1.0, 2.0, 4.0, (1, 2)),
        (2.0, 3.0, 2.0, (2,)),
    ]
    assert bs.union_gaps == ()


def test_union_keeps_bands_thinner_than_the_cut_spacing():
    # near-flat channel k = 2 has bands thinner than 1e-12; they own no
    # segment of the cut grid, and the union used to drop them
    from nanotube_bands.oracle import build_full_hamiltonian

    potential = [
        0.273923, -0.460427, -0.918053, -0.966945, 0.62654, 0.825511, 0.213272, 0.458993,
        0.08725, 0.870145, 0.631707, -0.994523, 0.714809, -0.932829, 0.459311, -0.648689,
    ]
    model = ZigzagModel(4, -3.106873458412769, PotentialProfile(potential), t=4.500851068224242)
    union = np.array(full_spectrum(model).union_intervals())
    levels = build_full_hamiltonian(model, 2 * model.potential.p).eigenvalues()
    outside = np.maximum(union[None, :, 0] - levels[:, None], levels[:, None] - union[None, :, 1])
    assert np.max(np.min(outside, axis=1)) <= 1e-8


def test_json_schema_shape():
    model = ZigzagModel(2, 0.0, PotentialProfile([0.5, -0.5]), t=1.0)
    d = full_spectrum(model).to_json_dict()
    assert set(d) == {"channels", "union"}
    assert set(d["channels"][0]) == {"k", "c_k", "bands", "flat_bands", "gaps"}
    assert set(d["union"]) == {"bands", "gaps"}
    iso = assemble_band_structure(
        [ChannelBands(k=1, c_k=0.0, bands=(), flat_bands=(0.5,))]
    ).to_json_dict()
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
        edges = np.array(band_edges_scalar(jac)).ravel()  # e_1 <= ... <= e_4p
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
        for block in decompose_armchair(model):
            tau = cmath.exp(2j * math.pi * rng.random())
            L = floquet_block(block, tau).matrix
            assert np.max(np.abs(L - L.conj().T)) < 1e-14 * max(1.0, float(np.max(np.abs(L))))


def test_block_fiber_stack_matches_one_matrix_assembly():
    # the stacked builder adds the terms in the order of a one-matrix build;
    # for p = 1 both corners land on the diagonal block, so the order shows
    # in the last bits
    from nanotube_bands import decompose_armchair
    from nanotube_bands.spectral import _block_fibers

    rng = np.random.default_rng(15)
    for q in (1, 2, 3, 4, 6):
        model = ArmchairModel(
            int(rng.integers(2, 7)), tuple(rng.normal(size=3)), PotentialProfile(rng.normal(size=q)),
            t=float(rng.normal()),
        )
        taus = [cmath.exp(1j * th) for th in rng.uniform(-7, 7, size=16)]
        for block in decompose_armchair(model):
            P, a = block.p, block.a_block
            stack = _block_fibers(block, taus)
            for tau, got in zip(taus, stack):
                L = np.zeros((2 * P, 2 * P), dtype=complex)
                for j in range(P):
                    L[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = block.d_blocks[j]
                for j in range(P - 1):
                    L[2 * j + 2 : 2 * j + 4, 2 * j : 2 * j + 2] += a
                    L[2 * j : 2 * j + 2, 2 * j + 2 : 2 * j + 4] += a.conj().T
                L[2 * P - 2 : 2 * P, 0:2] += tau * a.conj().T
                L[0:2, 2 * P - 2 : 2 * P] += np.conj(tau) * a
                assert np.array_equal(got, L)


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
        K = floquet_scalar(jac, cmath.exp(1j * phi)).matrix
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
        block = decompose_armchair(model)[0]
        bands = spectrum_block(block, grid_size=128)
        probe = np.concatenate(
            [floquet_block(block, cmath.exp(2j * math.pi * x)).eigenvalues()
             for x in rng.random(40)]
        )
        ok, margin = intervals_contain(bands, [(e, e) for e in probe], tol=1e-9)
        assert ok, margin
        fine = np.concatenate(
            [floquet_block(block, cmath.exp(2j * math.pi * m / 2048)).eigenvalues()
             for m in range(2048)]
        )
        for lo, hi in bands:
            assert np.min(np.abs(fine - lo)) < 1e-4
            assert np.min(np.abs(fine - hi)) < 1e-4


def test_block_edges_not_at_real_multipliers():
    # with generic phases the band extrema move away from the +-1 fibers,
    # which is why block channels are swept rather than paired
    from nanotube_bands import decompose_armchair
    from nanotube_bands.core import ArmchairModel, PotentialProfile

    model = ArmchairModel(3, (0.8, -0.5, 1.1), PotentialProfile([0.7, -0.4]), t=1.0)
    block = decompose_armchair(model)[0]
    swept = spectrum_block(block, grid_size=128)
    pm = np.sort(np.concatenate([
        floquet_block(block, 1.0).eigenvalues(), floquet_block(block, -1.0).eigenvalues()
    ]))
    naive = merge_intervals([(pm[2 * i], pm[2 * i + 1]) for i in range(len(pm) // 2)])
    assert max_edge_deviation(swept, naive) > 1e-3
