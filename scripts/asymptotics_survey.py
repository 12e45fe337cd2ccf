#!/usr/bin/env python3
"""Run every asymptotic regime on a representative configuration and print a
measured-vs-predicted table; exit 1 if any report fails.

    PYTHONPATH=src python scripts/asymptotics_survey.py
"""

import sys

import numpy as np

from nanotube_bands import ArmchairModel, PotentialProfile, ZigzagModel
from nanotube_bands import asymptotics as asy

# Pairwise spacings >= 0.14: the exact floats of sorting uniform(-1.2, 1.2)
# draws from np.random.default_rng(2) until the spacing holds (draw 451 390),
# then shuffling with the same generator.
CLUSTER_12 = [
    -1.1249657836958813, -0.542219568092015, 0.9448995184844453, 0.23802600619077374,
    1.1747087611293485, -0.12271945785023464, 0.38809340992924746, 0.5756525170774185,
    0.09065230312749528, 0.7953154242043883, -0.3184103435597643, -0.6882735662909277,
]


def show(reports):
    for r in reports:
        ratio = "-" if r.ratio is None else f"{r.ratio:8.4f}"
        print(
            f"  {r.regime:18s} {str(r.params):58.58s} pred={r.predicted:11.4e} "
            f"meas={r.measured:11.4e} ratio={ratio} {'ok' if r.passed else 'FAIL'}"
        )
    return all(r.passed for r in reports)


def main() -> int:
    ok = True

    print("band collapse as the even bond vanishes (half-period 2)")
    prof = PotentialProfile([3.0, 0.0, -3.0, 1.0])
    ok &= show(asy.measure_ck_shrink(prof, [0.02, 0.01, 0.005], s=1))

    print("weak-coupling gap slopes (declared periods 4 and 3)")
    for p_star, c_k, seed in ((4, 0.65, 15), (3, 0.5, 9)):
        sample = asy.sample_open_gap_potential(p_star, seed=seed)
        ok &= show(asy.measure_small_t_slopes(sample, c_k))

    print("strong-coupling zigzag clusters (t = 40)")
    model = ZigzagModel(5, 0.2, PotentialProfile([0.9, -0.3, 0.4, -1.1]), t=40.0)
    ok &= show(asy.measure_large_t_zigzag(model))

    print("strong-coupling armchair clusters (t = 40, 12-periodic potential)")
    arm = ArmchairModel(4, (0.0, 0.0, 0.0), PotentialProfile(CLUSTER_12), t=40.0)
    ok &= show(asy.measure_large_t_armchair(arm, k=4))

    print("weak rung-paired armchair potential (11-periodic)")
    j = np.arange(11)
    q = 0.01 * sum(c * np.cos(2 * np.pi * n * j / 11) for n, c in enumerate((1, 0.6, 0.3, 0.5, 0.4), 1))
    ok &= show(asy.measure_small_v_armchair(PotentialProfile(np.repeat(q, 2)), N=5))

    print("single-channel low-energy windows (N = 6, period 13)")
    zig = ZigzagModel(6, 0.0, asy.sample_open_gap_potential(13, seed=5), t=0.05)
    ok &= show(asy.measure_low_energy_window(zig))

    print("all regimes pass" if ok else "SOME REGIME FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
