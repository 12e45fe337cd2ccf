import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nanotube_bands import ArmchairModel, PotentialProfile, ZigzagModel, flat_band_spectrum
from nanotube_bands import asymptotics as asy
from nanotube_bands.core import GAP_MERGE_TOL
from nanotube_bands.errors import InvalidInputError
from nanotube_bands.spectral import fiber_matrices, scalar_period_matrix, zigzag_chain_edges
import closed_forms
from closed_forms import clip_intervals, intervals_contain, max_edge_deviation, p1_closed_form, unperturbed_edges
from scalar_reference import channel_bands, decompose_zigzag


def channel_bands_at(prof, c, t):
    """The bands of the zigzag channel of constant c at coupling t."""
    edges = zigzag_chain_edges(c, t * prof.period_values())
    return list(zip(edges[0::2], edges[1::2]))


def zero_mean_profile(rng, q):
    vals = rng.normal(size=q)
    prof = PotentialProfile(vals)
    ext = prof.extended(2 * prof.p)
    return PotentialProfile(ext - ext.mean())


# ---------------------------------------------------------------------------
# Fourier data


def test_fourier_hats_constant_even_sublattice():
    prof = PotentialProfile([0.0, 1.0] * 3)  # v0 (odd sites) = all ones, p = 3
    hat0, hat1 = asy.fourier_hats(prof)
    np.testing.assert_allclose(hat1, 0.0, atol=1e-14)
    np.testing.assert_allclose(hat0[:-1], 0.0, atol=1e-14)
    assert hat0[-1] == pytest.approx(0.5)


def test_fourier_hats_direct_summation():
    rng = np.random.default_rng(0)
    prof = PotentialProfile(rng.normal(size=8))
    p = prof.p
    ext = prof.extended(2 * p)
    hat0, hat1 = asy.fourier_hats(prof)
    for n in range(1, p + 1):
        brute0 = sum(ext[2 * m - 1] * cmath.exp(-2j * math.pi * n * m / p) for m in range(1, p + 1)) / (2 * p)
        brute1 = sum(ext[2 * m - 2] * cmath.exp(-2j * math.pi * n * m / p) for m in range(1, p + 1)) / (2 * p)
        assert hat0[n - 1] == pytest.approx(brute0, abs=1e-13)
        assert hat1[n - 1] == pytest.approx(brute1, abs=1e-13)


def test_fourier_hats_odd_period_identity():
    rng = np.random.default_rng(1)
    for q in (3, 5, 7):
        prof = PotentialProfile(rng.normal(size=q))
        p = prof.p
        hat0, hat1 = asy.fourier_hats(prof)
        for n in range(1, p):
            tau = cmath.exp(1j * math.pi * n / p)
            assert hat0[n - 1] == pytest.approx(tau ** (p + 1) * hat1[n - 1], abs=1e-12)


@given(q=st.integers(1, 8), seed=st.integers(0, 10**6))
@settings(max_examples=40)
def test_fourier_parseval(q, seed):
    prof = PotentialProfile(np.random.default_rng(seed).normal(size=q))
    p = prof.p
    ext = prof.extended(2 * p)
    hat0, hat1 = asy.fourier_hats(prof)
    assert np.sum(np.abs(hat0) ** 2) * 4 * p == pytest.approx(np.sum(ext[1::2] ** 2), abs=1e-10)
    assert np.sum(np.abs(hat1) ** 2) * 4 * p == pytest.approx(np.sum(ext[0::2] ** 2), abs=1e-10)


# ---------------------------------------------------------------------------
# band shrinkage


def test_shrink_alternating_closed_form():
    v = 0.9
    prof = PotentialProfile([v, -v])
    pred = asy.predict_ck_shrink(prof, 0.05, s=1)
    w = math.sqrt(1 + v**2)
    assert pred.level_spacing == pytest.approx(2 * w)
    assert pred.width == pytest.approx(4 * 0.05 / w)


def test_shrink_zero_constant_gives_flat_level():
    prof = PotentialProfile([3.0, 0.0, -3.0, 1.0])
    pred = asy.predict_ck_shrink(prof, 0.0, s=2)
    assert pred.width == 0.0
    assert pred.edge_lower == pred.edge_upper == pred.level
    assert pred.level == pytest.approx(flat_band_spectrum(prof, 1.0)[1])


def test_shrink_rejects_degenerate_level():
    with pytest.raises(InvalidInputError, match="is degenerate"):
        asy.predict_ck_shrink(PotentialProfile([0.0, 0.0, 0.0, 0.0]), 0.1, s=1)


def test_shrink_measured_ratio():
    prof = PotentialProfile([3.0, 0.0, -3.0, 1.0])
    reports = asy.measure_ck_shrink(prof, [0.02], s=1)
    assert reports[0].passed
    assert abs(reports[0].ratio - 1) < 0.05


# ---------------------------------------------------------------------------
# weak-coupling slopes


def test_small_t_zero_potential():
    prof = PotentialProfile([0.0, 0.0, 0.0, 0.0])
    for n in (1, 3):
        assert asy.predict_small_t(prof, 0.4, n=n).slope == 0.0


def test_small_t_no_admissible_gap_at_half_period_one():
    # p = 1 has only the central gap, which opens at first order only for
    # the unit-hopping chain
    with pytest.raises(InvalidInputError, match="has no first-order law"):
        asy.predict_small_t(PotentialProfile([0.4, -0.4]), 0.4, n=1)
    assert asy.predict_small_t(PotentialProfile([0.4, -0.4]), 0.5, n=1).slope > 0


def test_small_t_unperturbed_edges():
    prof = zero_mean_profile(np.random.default_rng(2), 4)
    c = 0.7
    a = 2 * c
    pred = asy.predict_small_t(prof, c, n=1)
    assert pred.edge_at_zero_lower == pytest.approx(-abs(a + cmath.exp(1j * math.pi / 2)))
    pred = asy.predict_small_t(prof, c, n=3)
    assert pred.edge_at_zero_upper == pytest.approx(abs(a + cmath.exp(3j * math.pi / 2)))


def test_small_t_central_gap_requires_unit_chain():
    prof = zero_mean_profile(np.random.default_rng(3), 4)
    with pytest.raises(InvalidInputError, match="has no first-order law"):
        asy.predict_small_t(prof, 0.7, n=2)
    pred = asy.predict_small_t(prof, 0.5, n=2)  # a = 1
    hat0, hat1 = asy.fourier_hats(prof)
    assert pred.slope == pytest.approx(abs(hat0[1] - hat1[1]))


def test_small_t_zero_cases_odd_period_unit_chain():
    prof = asy.sample_open_gap_potential(5, seed=4)
    for n in (1, 3, 5, 7, 9):
        pred = asy.predict_small_t(prof, 0.5, n=n)
        assert pred.exactly_closed
        assert pred.slope == 0.0
    for n in (2, 4, 6, 8):
        assert asy.predict_small_t(prof, 0.5, n=n).slope > 0


def test_small_t_rejects_nonzero_mean():
    with pytest.raises(InvalidInputError):
        asy.predict_small_t(PotentialProfile([1.0, 0.5]), 0.7, n=1)


def test_small_t_measured_slopes():
    prof = asy.sample_open_gap_potential(4, seed=6)
    reports = asy.measure_small_t_slopes(prof, c_k=0.65)
    assert reports and all(r.passed for r in reports)


# ---------------------------------------------------------------------------
# gap-opening potential class


@given(p_star=st.integers(2, 8), seed=st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_open_gap_sampler_membership(p_star, seed):
    prof = asy.sample_open_gap_potential(p_star, seed)
    assert prof.q == p_star
    assert prof.is_zero_mean()
    assert asy.is_open_gap_potential(prof)
    flipped = PotentialProfile([-v for v in prof.values])
    assert asy.is_open_gap_potential(flipped)


def test_open_gap_first_order_rates_positive():
    prof = asy.sample_open_gap_potential(4, seed=7)
    hat0, hat1 = asy.fourier_hats(prof)
    for n in range(1, prof.p):
        assert abs(hat0[n - 1] + hat1[n - 1]) > 1e-9
    assert abs(hat0[prof.p - 1]) > 1e-9


# ---------------------------------------------------------------------------
# low-energy windows


def test_window_radii():
    w = asy.low_energy_windows(3, 7)
    assert w.r_high == pytest.approx(math.sqrt(7))
    assert w.rho_high == pytest.approx((3 + abs(2 + cmath.exp(1j * math.pi / 7))) / 2)
    assert w.r_low == pytest.approx(abs(1 - cmath.exp(1j * math.pi / 3)))
    assert not w.central_gap_expected
    w4 = asy.low_energy_windows(4, 2)
    assert w4.r_high is None and w4.central_gap_expected
    with pytest.raises(InvalidInputError, match="no window statement applies"):
        asy.low_energy_windows(6, 3)


def test_central_gap_for_N_not_divisible_by_3():
    prof = asy.sample_open_gap_potential(4, seed=3)
    model = ZigzagModel(4, 0.02, prof, t=0.05)
    reports = asy.measure_low_energy_window(model)
    assert all(r.passed for r in reports)


def _band_set(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n seeded bands (lo, hi) whose edges sit on a grid of half-units, each moved by 0 to 3 GAP_MERGE_TOL.

    Two bands meet, touch within GAP_MERGE_TOL or lie just apart, and the
    grid holds both signed zeros.
    """
    grid = np.append(0.5 * np.arange(-3, 4), -0.0)
    x, y = (rng.choice(grid, n) + rng.choice([0.0, 0.5, 1.0, 1.5, 3.0], n) * GAP_MERGE_TOL for _ in range(2))
    return np.where(x <= y, x, y), np.where(x <= y, y, x)


def _pairs(lo, hi) -> list[tuple[float, float]]:
    return list(zip(lo.tolist(), hi.tolist()))


def _hex(lo, hi) -> list[str]:
    return [x.hex() for x in lo.tolist() + hi.tolist()]


@pytest.mark.parametrize("seed", range(6))
def test_band_set_comparison_and_clip_match_their_list_references_to_the_bit(seed):
    # the low_energy_window and small_v_armchair regimes clip and compare (lo, hi) columns;
    # closed_forms keeps the list forms they replaced, merging by the one-at-a-time reference merge
    rng = np.random.default_rng(seed)
    windows = [(-0.75, 0.75), (-0.0, 1.0), (0.0, 0.5 + GAP_MERGE_TOL), (-1.5 - 0.5 * GAP_MERGE_TOL, -0.5), (2.0, 3.0)]
    for _ in range(200):
        a, b = _band_set(rng, int(rng.integers(0, 7))), _band_set(rng, int(rng.integers(0, 7)))
        assert asy._edge_deviation(a, b).hex() == float(max_edge_deviation(_pairs(*a), _pairs(*b))).hex()
        for wlo, whi in windows:
            clipped = asy._clip(*a, wlo, whi)
            assert _hex(*clipped) == _hex(*np.array(clip_intervals(_pairs(*a), wlo, whi)).reshape(-1, 2).T)
            other = asy._clip(*b, wlo, whi)
            want = max_edge_deviation(clip_intervals(_pairs(*a), wlo, whi), clip_intervals(_pairs(*b), wlo, whi))
            assert asy._edge_deviation(clipped, other).hex() == float(want).hex()


def test_low_energy_window_and_small_v_armchair_measure_as_their_list_references_to_the_bit():
    # the regimes' clips, comparisons, in-order central-gap sum and nearest-gap search read columns;
    # closed_forms computes each report's measured value from (lo, hi) pairs and loops
    rng = np.random.default_rng(30)
    for _ in range(40):
        q = int(rng.integers(1, 33))
        N = int(rng.choice([2, 3, 4, 5, 7, 8]))
        model = ZigzagModel(N, float(rng.uniform(-1.0, 1.0)), PotentialProfile(rng.uniform(-1.0, 1.0, q)), t=0.05)
        if model.potential.p <= 2 * N and N % 3 == 0:
            continue  # no window statement applies
        s = asy.full_spectrum(model)
        for r in asy.measure_low_energy_window(model):
            want = closed_forms.low_energy_window_measure(s, r.params["window"], r.params["channel"])
            assert r.measured.hex() == float(want).hex(), r.params
    for _ in range(40):
        rungs = rng.uniform(-1.0, 1.0, int(rng.integers(1, 9))) * 10.0 ** rng.uniform(-3, 0)
        prof = PotentialProfile(np.repeat(rungs, 2))
        N = int(rng.integers(2, 9))
        s = asy.full_spectrum(ArmchairModel(N, (0.0, 0.0, 0.0), prof, t=1.0))
        for r in asy.measure_small_v_armchair(prof, N):
            assert r.measured.hex() == closed_forms.small_v_armchair_measure(prof, N, s, r.params).hex(), r.params


def test_low_energy_window_and_small_v_armchair_measure_crafted_spectra_as_their_list_references(monkeypatch):
    # spectra a model seldom has: 13 union bands in the central gap, whose lengths np.sum would add pairwise,
    # and union gaps that reach over the edges of the small_v_armchair windows
    rng = np.random.default_rng(31)
    model = ZigzagModel(4, 0.0, PotentialProfile([0.3, -0.3]), t=1.0)  # one window: the central gap, |E| < 0.207
    rungs = PotentialProfile(np.repeat([0.1, -0.05, 0.02, -0.07], 2))  # p = 4: gaps n = 1 and 3 have windows at N = 2
    def one_channel(starts, widths):
        return closed_forms.structure_of([closed_forms.ChannelBands(1, 0.5, tuple(zip(starts, starts + widths)))])

    for _ in range(30):
        central = one_channel(-0.2 + 0.03 * np.arange(13) + rng.uniform(0.0, 0.01, 13), rng.uniform(0.0, 0.02, 13))
        wide = one_channel(rng.uniform(-4.0, 4.0, 40), rng.exponential(0.05, 40))
        monkeypatch.setattr(asy, "full_spectrum", lambda _: central)
        for r in asy.measure_low_energy_window(model):
            want = closed_forms.low_energy_window_measure(central, r.params["window"], r.params["channel"])
            assert r.measured.hex() == float(want).hex(), r.params
        monkeypatch.setattr(asy, "full_spectrum", lambda _: wide)
        for r in asy.measure_small_v_armchair(rungs, 2):
            assert r.measured.hex() == closed_forms.small_v_armchair_measure(rungs, 2, wide, r.params).hex(), r.params
        # the overlay: for a weak potential the two copies overlap, and fuse
        q = rng.uniform(-1.0, 1.0, int(rng.integers(1, 9))) * 10.0 ** rng.uniform(-3, 0.5)
        (lo, hi), _ = asy._shifted_overlay(PotentialProfile(np.repeat(q, 2)), 2)
        assert _hex(lo, hi) == _hex(*np.array(closed_forms.shifted_overlay(q)).reshape(-1, 2).T)


def test_band_set_comparison_fuses_touching_bands_and_counts_the_rest():
    tol = GAP_MERGE_TOL
    empty = (np.empty(0), np.empty(0))
    one = (np.array([0.0]), np.array([2.0]))
    touching = (np.array([1.0 + 0.5 * tol, 0.0]), np.array([2.0, 1.0]))  # a gap of at most GAP_MERGE_TOL: one band
    apart = (np.array([0.0, 1.0 + 3 * tol]), np.array([1.0, 2.0]))  # a gap above it: two bands
    assert asy._edge_deviation(empty, empty) == 0.0
    assert asy._edge_deviation(empty, one) == asy._edge_deviation(one, empty) == math.inf
    assert asy._edge_deviation(touching, one) == 0.0
    assert asy._edge_deviation(apart, one) == math.inf
    assert asy._edge_deviation(apart, (np.array([0.0, 1.5]), np.array([1.0, 2.5]))) == 0.5
    assert [x.tolist() for x in asy._clip(*apart, 0.5, 1.5)] == [[0.5, 1.0 + 3 * tol], [1.0, 1.5]]
    assert [x.size for x in asy._clip(*apart, 2.0, 3.0)] == [0, 0]  # a band that only touches the window is out


# ---------------------------------------------------------------------------
# strong-coupling zigzag


def test_large_t_zigzag_alternating():
    prof = PotentialProfile([1.0, -1.0])
    c = 0.45
    t = 50.0
    pred = asy.predict_large_t_zigzag(prof, c, t=t)
    # exact edges: +-sqrt((tv)^2 + (2|c| +- 1)^2) around t*v
    a = 2 * c
    exact_width = math.sqrt(t**2 + (a + 1) ** 2) - math.sqrt(t**2 + (a - 1) ** 2)
    assert pred.width[0] == pytest.approx(exact_width, rel=2e-3)
    assert t * 1.0 - pred.window < t * 1.0 - exact_width and t * 1.0 + pred.window > t * 1.0


def test_large_t_zigzag_rejects_repeated_values():
    with pytest.raises(InvalidInputError):
        asy.predict_large_t_zigzag(PotentialProfile([1.0, 1.0]), 0.4, t=10.0)


def _log_width(log_scale, vals, classes, t, power):
    """The cluster widths scale / (prod |v_j - v_i| * t**power) over j != i of the class of i, in logarithms."""
    return [
        math.exp(log_scale - sum(math.log(abs(v - vi)) for j, v in enumerate(vals) if j != i and classes[j] == ci)
                 - power * math.log(t))
        for i, (vi, ci) in enumerate(zip(vals, classes))
    ]


def test_cluster_widths_whose_factors_leave_the_float_range_on_opposite_sides_are_finite():
    # the separation products overflow while the power of t underflows: their product was 0 * inf, a nan
    # width and a RuntimeWarning (asym --regime large_t_zigzag --N 2 --b 0.3 --t 1e-200 exited 1 on it)
    vals = [1e150, -1e150, 3e149, -2e149]
    c, t = math.cos(0.3 + math.pi / 2), 1e-200
    got = asy.predict_large_t_zigzag(PotentialProfile(vals), c, t).width
    assert got.tolist() == pytest.approx(_log_width(math.log(4 * (2 * abs(c)) ** 2), vals, [0] * 4, t, 3), rel=1e-12)
    vals = [(-1) ** i * (i + 1) * 1e25 for i in range(32)]
    got = asy.predict_large_t_armchair(PotentialProfile(vals), 1, 1e-30, 2).width
    classes = [i % 4 in (1, 2) for i in range(32)]
    assert got.tolist() == pytest.approx(_log_width(math.log(4.0), vals, classes, 1e-30, 15), rel=1e-12)


def test_large_t_zigzag_harness():
    model = ZigzagModel(5, 0.2, PotentialProfile([0.9, -0.3, 0.4, -1.1]), t=40.0)
    reports = asy.measure_large_t_zigzag(model)
    assert all(r.passed for r in reports)
    checks = {r.params["check"]: r.passed for r in reports if "check" in r.params}
    assert checks == {"windows_contain_bands": True, "same_rank_bands_disjoint": True}
    assert [r.params for r in reports[-2:]] == [
        {"check": "windows_contain_bands"}, {"check": "same_rank_bands_disjoint"}
    ]
    half_period_one = ZigzagModel(5, 0.2, PotentialProfile([1.0, -1.0]), t=40.0)
    checks1 = [r.params["check"] for r in asy.measure_large_t_zigzag(half_period_one) if "check" in r.params]
    assert checks1 == ["windows_contain_bands"]


def test_large_t_zigzag_width_scaling():
    # measured width * predicted-rate product approaches 1 as t grows
    prof = PotentialProfile([0.9, -0.3, 0.4, -1.1])
    c = 0.45
    ratios = []
    for t in (20.0, 40.0, 80.0):
        pred = asy.predict_large_t_zigzag(prof, c, t=t)
        bands = channel_bands_at(prof, c, t)
        lo, hi = bands[pred.band_rank[0] - 1]
        ratios.append((hi - lo) / pred.width[0])
    assert abs(ratios[-1] - 1) < abs(ratios[0] - 1)
    assert abs(ratios[-1] - 1) < 0.01


@st.composite
def cluster_channels(draw, periods):
    """(profile, N, k, t, b): a potential of a period in ``periods`` (at times with a repeated value), a
    channel k of a tube of N, t log-uniform in 1e-2..1e6, and a zigzag phase b on the flat phase of
    channel k half of the time."""
    N = draw(st.integers(2, 64))
    k = draw(st.integers(1, N))
    q = draw(st.sampled_from(periods))
    values = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-1.0, 1.0, q)
    if q > 1 and draw(st.integers(0, 9)) == 0:
        values[-1] = values[0]  # repeated values: both predictors refuse them
    prof = PotentialProfile(values)
    t = 10.0 ** draw(st.floats(-2.0, 6.0))
    flat = math.pi / 2 - math.pi * k / N  # c_k = cos(b + pi k/N) = 0
    b = flat if draw(st.booleans()) else flat + draw(st.floats(-math.pi, math.pi))
    return prof, N, k, t, b


def same_outcome(predict, reference):
    """Both predictors' results, or the same refusal from both."""
    try:
        expected = reference()
    except InvalidInputError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            predict()
        return None, None
    return predict(), expected


@given(channel=cluster_channels(range(1, 33)))
@settings(max_examples=60, deadline=None)
def test_zigzag_cluster_arrays_have_the_bits_of_the_per_position_reference(channel):
    prof, N, k, t, b = channel
    c = math.cos(b + math.pi * k / N)
    pred, refs = same_outcome(
        lambda: asy.predict_large_t_zigzag(prof, c, t),
        lambda: [closed_forms.predict_large_t_zigzag(prof, c, n, t) for n in range(1, 2 * prof.p + 1)],
    )
    for i, (ref, v) in enumerate(zip(refs or [], prof.period_values())):
        assert (int(pred.band_rank[i]), float(pred.center[i]), float(pred.width[i]), float(pred.dressing[i])) == (
            ref.band_rank, ref.center, ref.width, ref.dressing
        )
        assert (float(t * v - pred.window), float(t * v + pred.window)) == ref.window


@given(channel=cluster_channels(range(12, 33, 4)), phases=st.tuples(*[st.floats(-math.pi, math.pi)] * 3))
@settings(max_examples=60, deadline=None)
def test_armchair_cluster_arrays_have_the_bits_of_the_per_position_reference(channel, phases):
    prof, N, k, t, _ = channel
    pred, refs = same_outcome(
        lambda: asy.predict_large_t_armchair(prof, k, t, N, phases),
        lambda: [closed_forms.predict_large_t_armchair(prof, k, j, t, N, phases) for j in range(1, prof.q + 1)],
    )
    for i, ref in enumerate(refs or []):
        assert (int(pred.band_rank[i]), float(pred.center[i]), float(pred.width[i]), pred.phase_weight) == (
            ref.band_rank, ref.center, ref.width, ref.phase_weight
        )


# ---------------------------------------------------------------------------
# armchair predictors


def test_phase_weight_zero_field_top_channel():
    prof = PotentialProfile(np.linspace(-1.0, 1.0, 12))
    pred = asy.predict_large_t_armchair(prof, k=4, t=30.0, N=4)
    assert pred.phase_weight == pytest.approx(2.0)


def test_large_t_armchair_rejects_short_period():
    with pytest.raises(InvalidInputError, match="cluster law needs a 4m-periodic potential"):
        asy.predict_large_t_armchair(PotentialProfile(np.linspace(-1, 1, 8)), 1, 30.0, 4)


def test_small_v_armchair_zero_potential():
    prof = PotentialProfile([0.0] * 10)
    pred = asy.predict_small_v_armchair(prof, N=2)
    for n, (lo, hi) in enumerate(zip(pred.gap_lo, pred.gap_hi), start=1):
        assert lo == pytest.approx(hi)
        assert lo == pytest.approx(-2 * math.cos(math.pi * n / 5))


def test_small_v_armchair_constant_shift():
    c = 0.3
    prof = PotentialProfile([c] * 10)
    pred = asy.predict_small_v_armchair(prof, N=2)
    for n, (lo, hi) in enumerate(zip(pred.gap_lo, pred.gap_hi), start=1):
        assert hi - lo == pytest.approx(0.0, abs=1e-12)
        assert lo == pytest.approx(-2 * math.cos(math.pi * n / 5) + c)
    assert not pred.in_gap_opening_set


def test_gap_opening_set_membership():
    p = 7
    j = np.arange(p)
    q = sum(np.cos(2 * np.pi * n * j / p) for n in (1, 2, 3))
    assert asy.in_gap_opening_set(q)
    assert not asy.in_gap_opening_set(np.ones(p))
    q_missing = np.cos(2 * np.pi * j / p)
    assert not asy.in_gap_opening_set(q_missing)


def test_small_v_armchair_rejects_unpaired():
    with pytest.raises(InvalidInputError):
        asy.predict_small_v_armchair(PotentialProfile([0.1, -0.1]), N=3)


# ---------------------------------------------------------------------------
# exact references


def test_p1_closed_form_values():
    free = p1_closed_form(0.0, 0.5)  # unit chain: [-2, 2], gap closed
    assert free.edges == pytest.approx((-2.0, 0.0, 0.0, 2.0))
    top = p1_closed_form(0.0, 1.0)  # widest channel: [-3, -1] u [1, 3]
    assert top.edges == pytest.approx((-3.0, -1.0, 1.0, 3.0))
    pm = p1_closed_form(1.0, 0.5)
    rt5 = math.sqrt(5)
    assert pm.edges == pytest.approx((-rt5, -1.0, 1.0, rt5))


def test_p1_gap_open_iff_offset_from_unit_chain():
    for c in (0.2, 0.35, 0.8, 1.0):
        gap = p1_closed_form(0.0, c).gap
        if abs(2 * c - 1) < 1e-12:
            assert gap[1] - gap[0] == pytest.approx(0.0, abs=1e-12)
        else:
            assert gap[1] - gap[0] > 0


def test_unperturbed_edges_a1_p2():
    edges = unperturbed_edges(1.0, 2).all_edges()
    rt2 = math.sqrt(2)
    np.testing.assert_allclose(edges, [-2, -rt2, -rt2, 0, 0, rt2, rt2, 2], atol=1e-14)


def test_unperturbed_edges_degenerate_bond():
    edges = unperturbed_edges(0.0, 3)
    assert edges.edge(0, +1) == pytest.approx(-1.0)
    assert edges.edge(6, -1) == pytest.approx(1.0)
    for n in range(1, 6):
        assert abs(edges.edge(n, +1)) == pytest.approx(1.0)  # |0 + tau_n| = 1


def test_unperturbed_eigenvector_residuals():
    rng = np.random.default_rng(5)
    for a in (0.3, 1.0, 1.7):
        for p in (2, 3, 5):
            ref = unperturbed_edges(a, p)
            bonds = np.ones(2 * p)
            bonds[1::2] = a
            period, wrap = scalar_period_matrix(bonds, np.zeros(2 * p))
            for n in range(1, 2 * p):
                K = fiber_matrices(period, wrap, [ref.multiplier(n)])[0]
                for sign in (+1, -1):
                    lam = ref.edge(n, sign)
                    vec = ref.eigenvector(n, sign)
                    assert np.linalg.norm(K @ vec - lam * vec) < 1e-12
                    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)


def test_large_t_zigzag_window_holds_at_t20():
    rng = np.random.default_rng(20)
    for _ in range(5):
        q = int(rng.choice([2, 4]))
        v = rng.uniform(-1.5, 1.5, size=q)
        while np.min(np.abs(v[:, None] - v[None, :]) + 10 * np.eye(q)) < 0.35:
            v = rng.uniform(-1.5, 1.5, size=q)
        model = ZigzagModel(int(rng.integers(2, 7)), float(rng.uniform(0.05, 0.6)),
                            PotentialProfile(v), t=20.0)
        reports = asy.measure_large_t_zigzag(model)
        assert [r.passed for r in reports if r.params.get("check") == "windows_contain_bands"] == [True]


def test_flat_levels_inside_every_channel_for_coprime_even_N():
    # N even with the half-period coprime to N: at zero field and weak
    # coupling the flat levels of the k = N/2 channel lie inside the bands of
    # every other channel
    prof = asy.sample_open_gap_potential(3, seed=1)  # p = 3, coprime with N = 4
    t = 0.05
    model = ZigzagModel(4, 0.0, prof, t=t)
    flats = flat_band_spectrum(prof, t)
    for k, jac in enumerate(decompose_zigzag(model), start=1):
        if jac.is_flat or k == model.N:  # the hull channel keeps its gap at +-1
            continue
        bands = channel_bands(jac)
        ok, margin = intervals_contain(bands, [(e, e) for e in flats], tol=1e-8)
        assert ok, (k, margin)


def test_intermediate_prediction_fields():
    prof = asy.sample_open_gap_potential(3, seed=4)
    hat0, _ = asy.fourier_hats(prof)
    pred = asy.predict_small_t(prof, 0.5, n=1)
    assert pred.exactly_closed and pred.slope == 0.0
    pred_even = asy.predict_small_t(prof, 0.5, n=2)
    assert pred_even.slope / abs(hat0[1]) == pytest.approx(2.0)  # unit chain, even gap: twice |hat0_n|

    vals = PotentialProfile([1.0, -1.0])
    lt = asy.predict_large_t_zigzag(vals, 0.45, t=50.0)
    a = 0.9
    assert lt.dressing[0] == pytest.approx((a**2 + 1.0) / (-2.0))


def test_open_gap_odd_period_all_rates_positive_off_unit_chain():
    prof = asy.sample_open_gap_potential(5, seed=4)
    for c in (0.7, 0.3, 1.0):  # bonds 1.4, 0.6, 2.0
        for n in asy.admissible_gap_indices(prof.p, c):
            assert asy.predict_small_t(prof, c, n).slope > 1e-6


def test_hull_edges_move_only_at_second_order():
    prof = asy.sample_open_gap_potential(4, seed=6)
    c = 0.65
    t0, h = 1e-4, 1e-5

    def hull(t):
        bands = channel_bands_at(prof, c, t)
        return bands[0][0], bands[-1][1]

    lo_p, hi_p = hull(t0 + h)
    lo_m, hi_m = hull(t0 - h)
    assert abs(lo_p - lo_m) / (2 * h) < 1e-2
    assert abs(hi_p - hi_m) / (2 * h) < 1e-2
