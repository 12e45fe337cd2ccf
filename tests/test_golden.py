"""Golden CLI outputs: the exact stdout of fixed commands.

Each case runs ``cli.main`` in process and compares its stdout with
``tests/golden/<name>.txt`` as an exact string, so any change in the printed
bytes fails.  The zigzag cases pin the union as well as the channel bands:
an exact flat-band phase ``b = pi/2 - pi k/N`` (flat levels inside bands and
isolated ones of infinite multiplicity), a model whose near-flat channel has
bands thinner than 1e-12, a model with c_k = 1/2 at odd q and t = 20 (half its
gaps closed, where a discriminant validator used to exit 3), a large model
(N = 64, odd q = 15), a sweep whose field range steps onto a flat amplitude
and a sweep of 16 channels at 17 fields, the largest a benchmark op runs.
Two armchair
sweeps pin the block channels of ``sweep``, one of them 54 channels at the
default grid; the armchair ``bands`` cases cover both formats and B = 0,
where channels k and N - k are complex conjugates.  The ``verify``
cases pin the oracle's deviation on both lattices, one of them on an armchair
torus of dimension 640, the largest the benchmark verifies.  The
``small_v_armchair`` cases pin the edges of the periodic Schroedinger
operator for an odd and a one-site period; the other ``asym`` cases pin one
run of every zigzag regime, with and without its optional reports.  A case
may carry a fourth entry, the
``NANOTUBE_BANDS_PRECISION`` it runs under; three cases pin zigzag ``bands``
JSON, ``bands`` CSV and a ``sweep`` away from the default 12 digits.

After a deliberate change of output, rewrite the files with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from nanotube_bands.cli import main

GOLDEN = Path(__file__).parent / "golden"

V1 = [0.37]
V2 = [0.8, -0.45]
V3 = [0.9, -0.2, -0.65]
V5 = [0.31, -0.74, 0.58, -0.12, 0.93]
V6 = [0.6, -0.35, 0.15, -0.9, 0.72, -0.28]
V4 = [0.55, -0.3, 0.85, -0.95]
V15 = [0.62, -0.18, 0.91, -0.77, 0.05, 0.48, -0.96, 0.33, -0.52, 0.74, -0.09, 0.27, -0.61, 0.86, -0.4]
V16 = [
    0.273923, -0.460427, -0.918053, -0.966945, 0.62654, 0.825511, 0.213272, 0.458993,
    0.08725, 0.870145, 0.631707, -0.994523, 0.714809, -0.932829, 0.459311, -0.648689,
]
V9 = [-0.75, 0.93, 0.32, -0.14, 0.05, 0.75, -0.31, 0.18, 0.37]
V12 = [-1.125, -0.542, 0.945, 0.238, 1.175, -0.123, 0.388, 0.576, 0.091, 0.795, -0.318, -0.688]

# name -> (potential, argv without --potential, expected exit code[, precision])
CASES = {
    "arm_q1_N3_B0_g16": (V1, "bands --lattice armchair --N 3 --B 0 --grid 16", 0),
    "arm_q1_N6_Bm2.5_t30_g512": (V1, "bands --lattice armchair --N 6 --B -2.5 --t 30 --grid 512", 0),
    "arm_q2_N4_B0.7_t0.05_g64": (V2, "bands --lattice armchair --N 4 --B 0.7 --t 0.05 --grid 64", 0),
    "arm_q2_N5_B0_t30_g512": (V2, "bands --lattice armchair --N 5 --B 0 --t 30 --grid 512", 0),
    "arm_q3_N3_Bm1.3_g64": (V3, "bands --lattice armchair --N 3 --B -1.3 --grid 64", 0),
    "arm_q5_N4_B0.4_t30_g16": (V5, "bands --lattice armchair --N 4 --B 0.4 --t 30 --grid 16", 0),
    "arm_q5_N5_B0_t0.05_g512": (V5, "bands --lattice armchair --N 5 --B 0 --t 0.05 --grid 512", 0),
    "arm_q6_N3_B0_g64": (V6, "bands --lattice armchair --N 3 --B 0 --grid 64", 0),
    "arm_q6_N6_B2.1_t0.05_g512": (V6, "bands --lattice armchair --N 6 --B 2.1 --t 0.05 --grid 512", 0),
    "arm_asym_large_t": (V12, "asym --regime large_t_armchair --N 4 --B 0 --t 40 --k 4", 0),
    "arm_verify": (V3, "verify --lattice armchair --N 4 --B 0.9 --t 2", 0),
    # the largest torus the benchmark verifies: 2NL = 640
    "arm_verify_N8_L40": (V5, "verify --lattice armchair --N 8 --B 1.3 --t 0.7 --L 40", 0),
    # rung-paired potentials: the only outputs that go through schroedinger_band_edges;
    # for p = 1 both fiber corners land on one matrix entry
    "arm_small_v_p1": ([0.2, 0.2], "asym --regime small_v_armchair --N 4", 0),
    "arm_small_v_p3": (
        [0.15, 0.15, -0.1, -0.1, -0.05, -0.05], "asym --regime small_v_armchair --N 4", 0,
    ),
    "zig_asym_ck_to_zero": ([3.0, 0.0, -3.0, 1.0], "asym --regime ck_to_zero --s 1", 0),
    # the values of sample_open_gap_potential(4, seed=15)
    "zig_asym_small_t_p2": (
        [-0.08708415254307389, -0.21110168944821417, 0.5092875314395022, -0.21110168944821417],
        "asym --regime small_t --ck 0.65", 0,
    ),
    # p = 1 at the unit-hopping chain: the central gap is the only report
    "zig_asym_small_t_p1": ([0.4, -0.4], "asym --regime small_t --ck 0.5", 0),
    # width reports, then the window and disjointness checks
    "zig_asym_large_t": ([0.9, -0.3, 0.4, -1.1], "asym --regime large_t_zigzag --N 5 --b 0.2 --t 40", 0),
    # p = 1: no disjointness report
    "zig_asym_large_t_p1": ([1.0, -1.0], "asym --regime large_t_zigzag --N 5 --b 0.2 --t 40", 0),
    # N divisible by 3 and p > 2N: two outer windows and the central one
    "zig_asym_low_energy_N3": (
        [-0.2, 0.08, -0.29, 0.25, 0.13, 0.07, -0.04], "asym --regime low_energy_window --N 3 --b 0 --t 0.05", 0,
    ),
    # N not divisible by 3: the central-gap report
    "zig_asym_low_energy_N4": (
        [0.0476, -0.3159, 0.5842, -0.3159], "asym --regime low_energy_window --N 4 --b 0.02 --t 0.05", 0,
    ),
    # zigzag oracle: scalar fibers with complex bonds at complex multipliers
    "zig_verify": ([0.4, -0.3, 0.7], "verify --lattice zigzag --N 5 --b 0.4 --t 2", 0),
    "zig_bands_json": (V5, "bands --lattice zigzag --N 5 --b 0.3 --t 2", 0),
    # c_k = 1/2 in channels 1 and 2 at odd q = 9 and t = 20, where the discriminant
    # validator of earlier versions exited 3 on valid input
    "zig_half_ck_q9_N3_t20": (V9, "bands --lattice zigzag --N 3 --b 0 --t 20", 0),
    "zig_bands_csv": (V6, "bands --lattice zigzag --N 7 --B 1.1 --t 0.5 --format csv", 0),
    "zig_sweep": (V2, "sweep --lattice zigzag --N 4 --B-start 0.2 --B-stop 2.6 --B-steps 5 --t 1.5", 0),
    # b = pi/2 - 5 pi/8: channel 5 is flat; two of its levels sit in union gaps
    "zig_flat_phase_json": (V4, "bands --lattice zigzag --N 8 --b -0.39269908169872414 --t 2.5", 0),
    "zig_thin_bands_json": (V16, "bands --lattice zigzag --N 4 --b -3.106873458412769 --t 4.500851068224242", 0),
    "zig_N64_q15_json": (V15, "bands --lattice zigzag --N 64 --b 0.7 --t 0.9", 0),
    "zig_N64_q15_csv": (V15, "bands --lattice zigzag --N 64 --B -1.7 --t 3.2 --format csv", 0),
    # the step B = 4 * 2.1776327054761078 / 4 is flat_field_amplitudes(5, 2, [0])[0]
    "zig_sweep_flat": (V4, "sweep --lattice zigzag --N 5 --B-start 0 --B-stop 2.1776327054761078 --B-steps 5 --t 0.8", 0),
    # 16 channels at 17 steps: the largest benchmark sweep, solved in one stacked eigensolve
    "zig_sweep_N16_17steps": (V3, "sweep --lattice zigzag --N 16 --B-start -1.5 --B-stop 2.5 --B-steps 17 --t 1.3", 0),
    "arm_sweep": (V2, "sweep --lattice armchair --N 3 --B-start -0.4 --B-stop 1.2 --B-steps 3 --t 0.7 --grid 64", 0),
    # 6 channels at 9 fields, odd p = 5 and the default grid: one lockstep refinement
    # of 1 080 Newton searches, 17 stacked eigensolves in its first iteration
    "arm_sweep_N6_9steps_g512": (
        V5, "sweep --lattice armchair --N 6 --B-start -1.1 --B-stop 2.9 --B-steps 9 --t 1.7 --grid 512", 0,
    ),
    "arm_q4_N5_B0.6_t2_csv": (V4, "bands --lattice armchair --N 5 --B 0.6 --t 2 --grid 64 --format csv", 0),
    # B = 0: channels k and N - k have complex-conjugate fibers
    "arm_q3_N8_B0_t1.3_g64": (V3, "bands --lattice armchair --N 8 --B 0 --t 1.3 --grid 64", 0),
    # the output formats away from the default precision
    "zig_flat_phase_json_p17": (V4, "bands --lattice zigzag --N 8 --b -0.39269908169872414 --t 2.5", 0, 17),
    "zig_bands_csv_p5": (V6, "bands --lattice zigzag --N 7 --B 1.1 --t 0.5 --format csv", 0, 5),
    "zig_sweep_N16_17steps_p17": (
        V3, "sweep --lattice zigzag --N 16 --B-start -1.5 --B-stop 2.5 --B-steps 17 --t 1.3", 0, 17,
    ),
}


def run_case(name: str, tmp_dir: Path) -> tuple[int, str]:
    potential, argv, _, *precision = CASES[name]
    pot = tmp_dir / f"{name}.json"
    pot.write_text(json.dumps(potential))
    env = {"NANOTUBE_BANDS_PRECISION": str(precision[0])} if precision else {}
    out = io.StringIO()
    with mock.patch.dict(os.environ, env), contextlib.redirect_stdout(out):
        code = main(argv.split() + ["--potential", str(pot)])
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_stdout(name, tmp_path, monkeypatch):
    monkeypatch.delenv("NANOTUBE_BANDS_PRECISION", raising=False)
    code, out = run_case(name, tmp_path)
    assert code == CASES[name][2]
    assert out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


def test_half_ck_golden_holds_the_torus_levels():
    # every level of the 18-cell torus (L = 2p) lies within 1e-8 of the printed union
    from nanotube_bands import PotentialProfile, ZigzagModel
    from nanotube_bands.oracle import build_full_hamiltonian

    union = json.loads((GOLDEN / "zig_half_ck_q9_N3_t20.txt").read_text(encoding="utf-8"))["union"]["bands"]
    lo, hi = (np.array([band[key] for band in union]) for key in ("lo", "hi"))
    levels = build_full_hamiltonian(ZigzagModel(3, 0.0, PotentialProfile(V9), t=20.0), 18).eigenvalues()[:, None]
    assert np.max(np.min(np.maximum(np.maximum(lo - levels, levels - hi), 0.0), axis=1)) < 1e-8


if __name__ == "__main__":
    os.environ.pop("NANOTUBE_BANDS_PRECISION", None)
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            code, out = run_case(name, Path(tmp))
            (GOLDEN / f"{name}.txt").write_text(out, encoding="utf-8")
            print(f"{name}: exit {code}, {len(out)} bytes")
