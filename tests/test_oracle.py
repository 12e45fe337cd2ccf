import json
import math

import numpy as np
import pytest

from nanotube_bands import (
    ArmchairModel,
    PotentialProfile,
    ZigzagModel,
    build_full_hamiltonian,
    compare_decomposition,
)
from nanotube_bands.cli import main
from nanotube_bands.core import UNIT_ROUNDOFF, VERIFY_FLOOR
from nanotube_bands.errors import InternalConsistencyError, InvalidTruncationError
from nanotube_bands.oracle import FiniteHamiltonian


def test_free_zigzag_row_sums():
    model = ZigzagModel(3, 0.0, PotentialProfile([0.0]), t=0.0)
    H = build_full_hamiltonian(model, 2)
    assert H.dimension == 12
    np.testing.assert_allclose(H.matrix.sum(axis=1), 3.0, atol=1e-14)
    ones = np.ones(12) / math.sqrt(12)
    np.testing.assert_allclose(H.matrix @ ones, 3.0 * ones, atol=1e-14)


def test_hermiticity_random_models():
    rng = np.random.default_rng(0)
    for _ in range(10):
        q = int(rng.integers(1, 6))
        prof = PotentialProfile(rng.normal(size=q))
        N = int(rng.integers(2, 6))
        if rng.random() < 0.5:
            model = ZigzagModel(N, float(rng.normal()), prof, t=float(rng.normal()))
        else:
            model = ArmchairModel(N, tuple(rng.normal(size=3)), prof, t=float(rng.normal()))
        H = build_full_hamiltonian(model, prof.p).matrix
        assert np.max(np.abs(H - H.conj().T)) < 1e-14 * max(1.0, np.max(np.abs(H)))


def test_armchair_hull_bound():
    vt = 0.9
    model = ArmchairModel(3, (0.0, 0.0, 0.0), PotentialProfile([-vt, vt]), t=1.0)
    eigs = build_full_hamiltonian(model, 3).eigenvalues()
    assert eigs.min() >= -math.sqrt(9 + vt**2) - 1e-8
    assert eigs.max() <= math.sqrt(9 + vt**2) + 1e-8


def test_truncation_must_be_multiple_of_period():
    model = ZigzagModel(3, 0.0, PotentialProfile([1.0, 2.0, 3.0, 4.0]), t=1.0)
    with pytest.raises(InvalidTruncationError):
        build_full_hamiltonian(model, 3)
    with pytest.raises(InvalidTruncationError):
        compare_decomposition(model, 0)


def test_decomposition_matches_both_lattices():
    rng = np.random.default_rng(1)
    for _ in range(12):
        q = int(rng.integers(1, 7))
        prof = PotentialProfile(rng.normal(size=q))
        N = int(rng.integers(2, 7))
        L = prof.p * int(rng.integers(1, 4))
        t = float(rng.normal())
        if rng.random() < 0.5:
            model = ZigzagModel(N, float(rng.normal() * 0.8), prof, t=t)
        else:
            model = ArmchairModel(N, tuple(rng.normal(size=3) * 0.5), prof, t=t)
        report = compare_decomposition(model, L)
        assert report.dim == 2 * N * L
        assert report.max_abs_dev < 1e-8, report.to_json_dict()


def test_field_shift_preserves_finite_multiset_when_L_multiple_of_2N():
    # shifting b by pi/N threads flux through the closed tube; the finite
    # eigenvalue multiset is preserved when 2N divides L
    rng = np.random.default_rng(2)
    for _ in range(6):
        q = int(rng.integers(1, 4))
        prof = PotentialProfile(rng.normal(size=q))
        N = int(rng.integers(2, 5))
        L = prof.p * 2 * N
        b = float(rng.normal() * 0.5)
        e1 = build_full_hamiltonian(ZigzagModel(N, b, prof, t=1.0), L).eigenvalues()
        e2 = build_full_hamiltonian(ZigzagModel(N, b + math.pi / N, prof, t=1.0), L).eigenvalues()
        assert np.max(np.abs(np.sort(e1) - np.sort(e2))) < 1e-10


def test_field_reflection_preserves_finite_multiset():
    rng = np.random.default_rng(3)
    for _ in range(6):
        q = int(rng.integers(1, 5))
        prof = PotentialProfile(rng.normal(size=q))
        N = int(rng.integers(2, 6))
        L = prof.p * int(rng.integers(1, 4))
        b = float(rng.normal())
        e1 = build_full_hamiltonian(ZigzagModel(N, b, prof, t=1.0), L).eigenvalues()
        e2 = build_full_hamiltonian(ZigzagModel(N, -b, prof, t=1.0), L).eigenvalues()
        assert np.max(np.abs(np.sort(e1) - np.sort(e2))) < 1e-10


def test_report_json_shape():
    model = ZigzagModel(3, 0.1, PotentialProfile([0.2, -0.2]), t=1.0)
    d = compare_decomposition(model, 2).to_json_dict()
    assert set(d) == {"dim", "max_abs_dev", "pass"}
    assert d["pass"] is True


def test_truncation_cap():
    model = ZigzagModel(2, 0.0, PotentialProfile([0.0]), t=0.0)
    with pytest.raises(InvalidTruncationError):
        build_full_hamiltonian(model, 65)


@pytest.mark.parametrize("t", [1e8, 1e10])
@pytest.mark.parametrize("lattice", ["zigzag", "armchair"])
def test_verify_passes_rounding_level_deviations_at_large_t(tmp_path, capsys, lattice, t):
    # the deviation of two eigensolves grows as u * t: 7.5e-8 (zigzag) and 3.7e-8
    # (armchair) at t = 1e8 used to fail the absolute --tol 1e-8 and exit 3
    pot = tmp_path / "v.json"
    pot.write_text("[0.3, -0.2, 0.5, -0.7]")
    field = ["--b", "0.3"] if lattice == "zigzag" else ["--B", "0.3"]
    code = main(["verify", "--lattice", lattice, "--N", "5", *field, "--t", repr(t), "--potential", str(pot)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["pass"] is True
    assert report["max_abs_dev"] > 1e-8  # the floor, not --tol, passed it


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_verify_at_a_huge_coupling_warns_nothing(tmp_path, capsys):
    # the off-block norm squared the raw entries: it overflowed to NaN at t = 1e300,
    # NaN > bound was False, and the unchecked blocks were solved (exit 3)
    pot = tmp_path / "v.json"
    pot.write_text("[0.3, -0.2, 0.5, -0.7]")
    code = main("verify --lattice zigzag --N 4 --b 0.3 --t 1e300 --potential".split() + [str(pot)])
    assert code == 0 and json.loads(capsys.readouterr().out)["pass"] is True


def test_rotation_check_refuses_a_nan_norm(monkeypatch):
    H = build_full_hamiltonian(ZigzagModel(3, 0.2, PotentialProfile([0.4, -0.1]), t=1.0), 2)
    blocks, _ = H.circumferential_blocks()
    monkeypatch.setattr(FiniteHamiltonian, "circumferential_blocks", lambda self: (blocks, math.nan))
    with pytest.raises(InternalConsistencyError, match="rotation invariant"):
        H.eigenvalues()


def test_hermiticity_check_refuses_nan_entries():
    H = build_full_hamiltonian(ZigzagModel(3, 0.2, PotentialProfile([0.4, -0.1]), t=1.0), 2)
    values = H.values.copy()
    values[0] = math.nan
    with pytest.raises(InternalConsistencyError, match="not Hermitian"):
        FiniteHamiltonian(H.rows, H.cols, values, N=H.N, L=H.L, lattice=H.lattice)


def test_verify_floor_scales_with_the_torus():
    # the floor VERIFY_FLOOR * u * energy_scale replaces --tol only where it is larger
    model = ZigzagModel(3, 0.2, PotentialProfile([0.4, -0.1]), t=1e9)
    report = compare_decomposition(model, 2)
    scale = float(np.max(np.abs(build_full_hamiltonian(model, 2).values)))
    assert report.tolerance == VERIFY_FLOOR * UNIT_ROUNDOFF * scale
    assert compare_decomposition(ZigzagModel(3, 0.2, PotentialProfile([0.4, -0.1]), t=2.0), 2).tolerance == 1e-8


def test_channel_fiber_eigenvalues_solve_complex_matrices(monkeypatch):
    # the edge solver takes the gauge-reduced zigzag chains in real arithmetic;
    # the oracle's side keeps the complex bonds from before the gauge, and the
    # armchair blocks stay complex too
    from nanotube_bands.oracle import channel_fiber_eigenvalues
    from nanotube_bands.zigzag import channel_bonds

    solved = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        solved.append(a.dtype)
        return eigvalsh(a, *args, **kwargs)

    prof = PotentialProfile([0.3, -0.2, 0.5, -0.7])
    zigzag = ZigzagModel(5, 0.4, prof, t=1.3)
    assert np.any(channel_bonds([zigzag]).imag != 0.0)
    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    for model in (zigzag, ArmchairModel(5, (0.1, -0.2, 0.3), prof, t=1.3)):
        assert channel_fiber_eigenvalues(model, 4).size == 2 * 5 * 4
    assert solved == [np.dtype(complex)] * 2
