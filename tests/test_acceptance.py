"""Acceptance suite: one check per numbered criterion, one verdict line each.

Run with `pytest tests/test_acceptance.py -rA -q` (or `-s`) to see the lines.
"""

import cmath
import math
import time

import numpy as np

from nanotube_bands import (
    ArmchairModel,
    PotentialProfile,
    ZigzagModel,
    compare_decomposition,
    flat_band_spectrum,
    flat_field_amplitudes,
    full_spectrum,
    magnetic_phase,
)
from nanotube_bands import asymptotics as asy
from nanotube_bands.spectral import (
    fiber_matrices,
    max_edge_deviation,
    merge_intervals,
    periodic_jacobi_band_edges,
    scalar_period_matrix,
)
from closed_forms import (
    armchair_cluster_center_errors,
    armchair_unperturbed,
    p1_closed_form,
    shifted_schroedinger_inclusion,
    union_intervals,
    unperturbed_edges,
)
from scalar_reference import ScalarPeriodicJacobi, channel_bands, decompose_zigzag


def verdict(cid: str, ok: bool, detail: str) -> None:
    print(f"[criterion {cid}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {cid}: {detail}"


def chain(p, a, v, c_k=None):
    bonds = np.ones(2 * p)
    bonds[1::2] = a
    return ScalarPeriodicJacobi(p=p, a=bonds, v=np.asarray(v, dtype=float), c_k=c_k)


def test_criterion_01_decomposition_oracle():
    rng = np.random.default_rng(101)
    start = time.time()
    worst = 0.0
    for trial in range(100):
        q = int(rng.choice([1, 2, 3, 4, 6]))  # effective half-period <= 3
        prof = PotentialProfile(rng.normal(size=q))
        N = int(rng.integers(2, 7))
        L = prof.p * int(rng.integers(1, 4))
        t = float(rng.normal())
        if trial % 2 == 0:
            model = ZigzagModel(N, float(rng.normal() * 0.8), prof, t=t)
        else:
            model = ArmchairModel(N, tuple(rng.normal(size=3) * 0.6), prof, t=t)
        report = compare_decomposition(model, L)
        worst = max(worst, report.max_abs_dev)
    elapsed = time.time() - start
    ok = worst < 1e-8 and elapsed < 60.0
    verdict("1", ok, f"100 random torus multisets, worst dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_p1_closed_forms():
    start = time.time()
    worst = 0.0
    for v in (0.0, 0.5, 1.0):
        prof = PotentialProfile([v, -v])
        for N in range(2, 7):
            for b in (0.0, 0.1):
                model = ZigzagModel(N, b, prof, t=1.0)
                for k, jac in enumerate(decompose_zigzag(model), start=1):
                    ref = p1_closed_form(v, model.channel_constant(k))
                    if jac.is_flat:
                        flats = flat_band_spectrum(prof, 1.0)
                        dev = float(np.max(np.abs(flats - np.array([-ref.outer_upper, ref.outer_upper]))))
                    else:
                        edges = np.array(channel_bands(jac)).ravel()
                        dev = float(np.max(np.abs(edges - np.array(ref.edges))))
                    worst = max(worst, dev)
    elapsed = time.time() - start
    ok = worst < 1e-10 and elapsed < 1.0
    verdict("2", ok, f"half-period-one closed forms, worst dev {worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_unperturbed_edges_and_eigenvectors():
    worst_edge = 0.0
    worst_resid = 0.0
    for a in (0.3, 1.0, 1.7):
        for p in (2, 3, 5):
            ref = unperturbed_edges(a, p)
            bonds = np.ones(2 * p)
            bonds[1::2] = a
            computed = periodic_jacobi_band_edges(bonds, np.zeros(2 * p))
            worst_edge = max(worst_edge, float(np.max(np.abs(computed - ref.all_edges()))))
            for n in range(1, 2 * p):
                jac = chain(p, a, np.zeros(2 * p))
                K = fiber_matrices(*scalar_period_matrix(jac.a, jac.v), [ref.multiplier(n)])[0]
                for sign in (+1, -1):
                    vec = ref.eigenvector(n, sign)
                    resid = float(np.linalg.norm(K @ vec - ref.edge(n, sign) * vec))
                    worst_resid = max(worst_resid, resid)
    ok = worst_edge < 1e-10 and worst_resid < 1e-12
    verdict("3", ok, f"zero-potential edges dev {worst_edge:.2e}, eigenvector residual {worst_resid:.2e}")


def test_criterion_04_flat_bands():
    rng = np.random.default_rng(104)
    worst_level = 0.0
    worst_tau = 0.0
    for _ in range(20):
        q = int(rng.integers(1, 7))
        prof = PotentialProfile(rng.normal(size=q))
        t = float(rng.normal())
        levels = flat_band_spectrum(prof, t)
        brute = []
        for x, y in t * prof.pairs():
            brute += list(np.linalg.eigvalsh(np.array([[x, 1.0], [1.0, y]])))
        worst_level = max(worst_level, float(np.max(np.abs(levels - np.sort(brute)))))
        jac = chain(prof.p, 0.0, t * prof.period_values())
        taus = [cmath.exp(2j * math.pi * m / 16) for m in range(16)]
        levels = np.linalg.eigvalsh(fiber_matrices(*scalar_period_matrix(jac.a, jac.v), taus))
        worst_tau = max(worst_tau, float(np.max(np.abs(levels[1:] - levels[0]))))
    worst_ck = 0.0
    for N in range(2, 7):
        for k in range(1, N + 1):
            for amp in flat_field_amplitudes(N, k, range(0, 3)):
                c = math.cos(magnetic_phase(amp, N) + math.pi * k / N)
                worst_ck = max(worst_ck, abs(c))
    ok = worst_level < 1e-12 and worst_tau < 1e-12 and worst_ck < 1e-12
    verdict(
        "4",
        ok,
        f"flat levels dev {worst_level:.2e}, multiplier independence {worst_tau:.2e}, "
        f"flat-field |c_k| {worst_ck:.2e}",
    )


def test_criterion_05_band_shrinkage():
    prof = PotentialProfile([3.0, 0.0, -3.0, 1.0])
    ok = True
    details = []
    for s in range(1, 5):
        reports = asy.measure_ck_shrink(prof, [0.02, 0.01, 0.005], s=s, tolerance=0.05)
        r0, _, r2 = [abs(r.ratio - 1.0) for r in reports]
        ok = ok and reports[0].passed and r0 >= 3.0 * r2
        details.append(f"s={s}: ratio {reports[0].ratio:.4f}, contraction {r0 / max(r2, 1e-300):.0f}x")
    verdict("5", ok, "; ".join(details))


def test_criterion_06_small_t_slopes():
    configs = [
        (asy.sample_open_gap_potential(4, seed=15), 5, 0.17),
        (asy.sample_open_gap_potential(3, seed=9), 3, 0.0),
    ]
    ok = True
    total = zero_cases = 0
    for prof, N, b in configs:
        for k in range(1, N + 1):
            c = math.cos(b + math.pi * k / N)
            if abs(c) < 1e-12:
                continue
            reports = asy.measure_small_t_slopes(prof, c, tolerance=1e-3, zero_tolerance=1e-6)
            total += len(reports)
            zero_cases += sum(1 for r in reports if r.predicted == 0.0)
            ok = ok and all(r.passed for r in reports)
    ok = ok and zero_cases > 0
    verdict("6", ok, f"{total} gap slopes across both samples ({zero_cases} exact-zero cases)")


def test_criterion_07_large_t_zigzag_clusters():
    ok = True
    details = []
    for vals in ([1.0, -1.0], [0.9, -0.3, 0.4, -1.1]):
        prof = PotentialProfile(vals)
        model = ZigzagModel(5, 0.2, prof, t=40.0)
        reports = asy.measure_large_t_zigzag(model, tolerance=0.1)
        checks = {r.params["check"]: r.passed for r in reports if "check" in r.params}
        worst = max(abs(r.ratio - 1.0) for r in reports if "check" not in r.params)
        ok = ok and all(r.passed for r in reports) and checks["windows_contain_bands"]
        if prof.p >= 2:
            # same-rank bands of p = 1 channels are nested (exact closed form),
            # so the disjointness statement is checked at p >= 2
            ok = ok and checks.get("same_rank_bands_disjoint") is True
        else:
            ok = ok and "same_rank_bands_disjoint" not in checks
        details.append(f"p={prof.p}: width ratio off by {worst:.3f}, windows {checks['windows_contain_bands']}")
    verdict("7", ok, "; ".join(details))


def test_criterion_08_armchair_unperturbed():
    worst = 0.0
    for N in (3, 4, 5):
        for vt in (0.0, 1.0):
            model = ArmchairModel(N, (0.0, 0.0, 0.0), PotentialProfile([-vt, vt]), t=1.0)
            swept = full_spectrum(model)
            closed = armchair_unperturbed(N, vt)
            worst = max(worst, max_edge_deviation(union_intervals(swept), union_intervals(closed)))
    zero = max_edge_deviation(
        merge_intervals(union_intervals(armchair_unperturbed(4, 0.0))), [(-3.0, 3.0)]
    )
    ok = worst < 1e-6 and zero < 1e-12
    verdict("8", ok, f"sweep vs closed form, worst edge dev {worst:.2e}")


def test_criterion_09_shifted_schroedinger_inclusions():
    rng = np.random.default_rng(109)
    ok = True
    worst = 0.0
    for _ in range(20):
        p = int(rng.integers(1, 5))
        ve = rng.normal(size=p)
        prof = PotentialProfile(np.repeat(ve, 2))
        N = int(rng.choice([3, 4, 5, 6]))
        report = shifted_schroedinger_inclusion(prof, N=N, tol=1e-8)
        ok = ok and report.passed
        worst = min(worst, report.armchair_margin)
        if report.zigzag_checked:
            worst = min(worst, report.zigzag_margin)
    verdict("9", ok, f"20 paired potentials, worst containment margin {worst:.2e}")


def test_criterion_10_large_t_armchair(armchair_cluster_12):
    prof = PotentialProfile(armchair_cluster_12)
    ok = True
    worst = 0.0
    for k in (1, 4):
        model = ArmchairModel(4, (0.0, 0.0, 0.0), prof, t=40.0)
        reports = asy.measure_large_t_armchair(model, k=k, tolerance=0.1)
        worst = max(worst, max(abs(r.ratio - 1.0) for r in reports))
        ok = ok and all(r.passed for r in reports)
    errors = armchair_cluster_center_errors(
        lambda t: ArmchairModel(4, (0.0, 0.0, 0.0), prof, t=t), k=4, ts=(20.0, 40.0, 80.0)
    )
    slopes = []
    for es in errors.values():
        if min(es) > 1e-11:
            slopes.append(float(np.polyfit(np.log([20.0, 40.0, 80.0]), np.log(es), 1)[0]))
    ok = ok and slopes and max(slopes) <= -2.5
    verdict(
        "10",
        ok,
        f"width ratio off by {worst:.3f}; centre-error log-log slopes in "
        f"[{min(slopes):.2f}, {max(slopes):.2f}]",
    )


def test_criterion_11_field_symmetries():
    rng = np.random.default_rng(111)
    worst = 0.0
    for _ in range(50):
        q = int(rng.integers(1, 6))
        prof = PotentialProfile(rng.normal(size=q))
        N = int(rng.integers(2, 7))
        b = float(rng.normal() * 0.7)
        t = float(rng.normal())
        base = union_intervals(full_spectrum(ZigzagModel(N, b, prof, t=t)))
        shifted = union_intervals(full_spectrum(ZigzagModel(N, b + math.pi / N, prof, t=t)))
        mirrored = union_intervals(full_spectrum(ZigzagModel(N, -b, prof, t=t)))
        worst = max(worst, max_edge_deviation(base, shifted), max_edge_deviation(base, mirrored))
    ok = worst < 1e-10
    verdict("11", ok, f"50 random models, field shift/reflection edge dev {worst:.2e}")


def test_criterion_12_low_energy_windows():
    prof = asy.sample_open_gap_potential(13, seed=5)
    model = ZigzagModel(6, 0.0, prof, t=0.05)
    reports = asy.measure_low_energy_window(model, tolerance=1e-8)
    ok = len(reports) == 3 and all(r.passed for r in reports)
    central = [r for r in reports if r.params["channel"] == 2]
    ok = ok and len(central) == 1

    prof4 = asy.sample_open_gap_potential(4, seed=3)
    model4 = ZigzagModel(4, 0.02, prof4, t=0.05)
    gap_reports = asy.measure_low_energy_window(model4, tolerance=1e-8)
    ok = ok and all(r.passed for r in gap_reports)
    worst = max(r.measured for r in reports + gap_reports)
    verdict("12", ok, f"window/channel equality and central gap, worst deviation {worst:.2e}")
