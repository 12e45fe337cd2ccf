"""Self-test of the benchmark's output check.

Run from the repository root: ``python3 -m pytest bench/tests -q``.

``union_drop_n4.json`` holds the ``bands`` JSON that the program printed, at
the commit that introduced the benchmark, for a near-flat zigzag model whose
union lost the thin bands of channel k = 2.  It is frozen on purpose: the
check must keep rejecting that output after the program is fixed.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent.parent / "src"), str(HERE.parent)]

from checks import check_op, sweep_rows, sweep_step, torus_eigenvalues  # noqa: E402
from workloads import WARMUP, Op, make_block  # noqa: E402

from nanotube_bands.cli import main  # noqa: E402
from nanotube_bands.core import ArmchairModel, PotentialProfile, ZigzagModel  # noqa: E402
from nanotube_bands.oracle import build_full_hamiltonian  # noqa: E402


@pytest.fixture(scope="module")
def union_drop():
    fix = json.loads((HERE / "union_drop_n4.json").read_text(encoding="utf-8"))
    op = Op("zigzag_bands", "zigzag", fix["N"], tuple(fix["potential"]), fix["t"], b=fix["b"])
    return op, fix["output"]


def test_frozen_union_with_dropped_bands_fails(union_drop):
    op, output = union_drop
    reason = check_op(op, 0, json.dumps(output))
    assert reason is not None and reason.startswith("torus level")


def test_channel_intervals_of_the_same_model_pass(union_drop):
    op, output = union_drop
    bands = [{"lo": lo, "hi": hi} for ch in output["channels"] for lo, hi in ch["bands"]]
    bands += [{"lo": e, "hi": e} for ch in output["channels"] for e in ch["flat_bands"]]
    assert check_op(op, 0, json.dumps({"union": {"bands": bands}})) is None


def test_nonzero_exit_fails(union_drop):
    op, output = union_drop
    assert check_op(op, 3, json.dumps(output)) == "exit code 3"


@pytest.mark.parametrize(
    "model",
    [
        ZigzagModel(N=5, b=0.3, potential=PotentialProfile([0.2, -0.7, 0.4]), t=1.7),
        ArmchairModel(N=4, phases=(0.1, 0.1, -0.4), potential=PotentialProfile([0.5, -0.1]), t=2.0),
    ],
)
def test_block_reduced_torus_matches_dense_eigensolve(model):
    L = 2 * model.potential.p
    dense = np.linalg.eigvalsh(build_full_hamiltonian(model, L).matrix)
    np.testing.assert_allclose(torus_eigenvalues(model, L), dense, atol=1e-12)


def run_cli(tmp_path, op):
    path = tmp_path / "v.json"
    path.write_text(json.dumps(list(op.potential)))
    out = tmp_path / "out.txt"
    code = main(op.argv(str(path)) + ["--output", str(out)])
    return code, out.read_text(encoding="utf-8")


def test_sweep_check_reads_the_seeded_step(tmp_path):
    op = WARMUP["zigzag_sweep"]
    code, text = run_cli(tmp_path, op)
    assert sweep_rows(text, sweep_step(op))
    assert check_op(op, code, text) is None
    shifted = "\n".join(line.rsplit(",", 2)[0] + ",9,9" for line in text.splitlines())
    assert check_op(op, code, shifted) is not None


def test_verify_check_needs_pass(tmp_path):
    op = WARMUP["oracle_verify"]
    code, text = run_cli(tmp_path, op)
    assert check_op(op, code, text) is None
    assert check_op(op, code, text.replace("true", "false")) is not None


def test_op_stream_is_a_function_of_the_seed():
    assert make_block("zigzag_bands", 7, 1) == make_block("zigzag_bands", 7, 1)
    assert make_block("zigzag_bands", 7, 1) != make_block("zigzag_bands", 8, 1)
