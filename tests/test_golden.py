"""Golden CLI outputs: the exact stdout of fixed commands.

Each case runs ``cli.main`` in process and compares its stdout with
``tests/golden/<name>.txt`` as an exact string, so any change in the printed
bytes fails.  The zigzag cases use models with no channel band thinner than
1e-12, so the union's handling of thin bands does not enter them.

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

import pytest

from nanotube_bands.cli import main

GOLDEN = Path(__file__).parent / "golden"

V1 = [0.37]
V2 = [0.8, -0.45]
V3 = [0.9, -0.2, -0.65]
V5 = [0.31, -0.74, 0.58, -0.12, 0.93]
V6 = [0.6, -0.35, 0.15, -0.9, 0.72, -0.28]
V12 = [-1.125, -0.542, 0.945, 0.238, 1.175, -0.123, 0.388, 0.576, 0.091, 0.795, -0.318, -0.688]

# name -> (potential, argv without --potential, expected exit code)
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
    "zig_bands_json": (V5, "bands --lattice zigzag --N 5 --b 0.3 --t 2", 0),
    "zig_bands_csv": (V6, "bands --lattice zigzag --N 7 --B 1.1 --t 0.5 --format csv", 0),
    "zig_sweep": (V2, "sweep --lattice zigzag --N 4 --B-start 0.2 --B-stop 2.6 --B-steps 5 --t 1.5", 0),
}


def run_case(name: str, tmp_dir: Path) -> tuple[int, str]:
    potential, argv, _ = CASES[name]
    pot = tmp_dir / f"{name}.json"
    pot.write_text(json.dumps(potential))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv.split() + ["--potential", str(pot)])
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_stdout(name, tmp_path, monkeypatch):
    monkeypatch.delenv("NANOTUBE_BANDS_PRECISION", raising=False)
    code, out = run_case(name, tmp_path)
    assert code == CASES[name][2]
    assert out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


if __name__ == "__main__":
    os.environ.pop("NANOTUBE_BANDS_PRECISION", None)
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            code, out = run_case(name, Path(tmp))
            (GOLDEN / f"{name}.txt").write_text(out, encoding="utf-8")
            print(f"{name}: exit {code}, {len(out)} bytes")
