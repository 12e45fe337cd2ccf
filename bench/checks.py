"""Output checks against the torus oracle, run outside the timed region.

* ``bands``: every eigenvalue of ``build_full_hamiltonian(model, L)`` lies
  within ``TOL`` of a union band of the printed JSON.
* ``sweep``: the same test against the CSV rows of one seeded field step.
* ``verify``: the printed report says ``pass``.

Every op must also exit 0.  The torus matrix commutes with the rotation
``k -> k + 1``, so a unitary DFT over the circumferential index splits it
into N diagonal blocks of size 2L; the residual off the blocks is checked, so
the eigenvalues are those of the full matrix without a dense eigensolve of
its 2NL x 2NL size.
"""

from __future__ import annotations

import json
import math

import numpy as np

from nanotube_bands.armchair import tube_geometry
from nanotube_bands.core import ArmchairModel, PotentialProfile, ZigzagModel, magnetic_phase
from nanotube_bands.oracle import build_full_hamiltonian

TOL = 1e-8
SMALL_TORUS = 512  # torus dimension up to which L = 2p (both tau = +1 and -1 sampled)


def torus_eigenvalues(model, L: int) -> np.ndarray:
    """Sorted eigenvalues of the L-cell torus Hamiltonian of ``model``."""
    H = build_full_hamiltonian(model, L).matrix
    N = model.N
    m = H.shape[0] // N  # sites are ordered (n, j, k) with k fastest
    Ht = np.fft.ifft(np.fft.fft(H.reshape(m, N, m, N), axis=1, norm="ortho"), axis=3, norm="ortho")
    diagonal = np.arange(N)
    blocks = Ht[:, diagonal, :, diagonal]  # (N, m, m), a copy
    Ht[:, diagonal, :, diagonal] = 0.0
    off = float(np.max(np.abs(Ht)))
    if off > 1e-12 * max(1.0, float(np.max(np.abs(blocks)))):
        raise ArithmeticError(f"torus Hamiltonian is not rotation invariant: residual {off}")
    return np.sort(np.linalg.eigvalsh(blocks).ravel())


def worst_distance(levels: np.ndarray, intervals) -> float:
    """Largest distance from a level to the nearest closed interval (inf if none)."""
    ivs = sorted((float(lo), float(hi)) for lo, hi in intervals)
    if not ivs:
        return math.inf
    merged = [list(ivs[0])]
    for lo, hi in ivs[1:]:
        if lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    los = np.array([lo for lo, _ in merged])
    his = np.array([hi for _, hi in merged])
    idx = np.searchsorted(los, levels, side="right") - 1  # interval starting at or left of the level
    left = np.where(idx >= 0, np.maximum(levels - his[np.maximum(idx, 0)], 0.0), math.inf)
    nxt = idx + 1
    right = np.where(nxt < los.size, los[np.minimum(nxt, los.size - 1)] - levels, math.inf)
    return float(np.max(np.minimum(left, right)))


def check_length(N: int, p: int) -> int:
    return 2 * p if 2 * N * 2 * p <= SMALL_TORUS else p


def model_of(op, B: float | None = None):
    """The model the CLI builds for ``op`` (at field ``B`` for a sweep step)."""
    profile = PotentialProfile(op.potential)
    if op.lattice == "zigzag":
        b = op.b if B is None else magnetic_phase(B, op.N)
        return ZigzagModel(N=op.N, b=b, potential=profile, t=op.t)
    _, phases = tube_geometry(op.N, op.B)
    return ArmchairModel(N=op.N, phases=phases, potential=profile, t=op.t)


def union_intervals(stdout: str) -> list[tuple[float, float]]:
    return [(band["lo"], band["hi"]) for band in json.loads(stdout)["union"]["bands"]]


def sweep_step(op) -> float:
    """Field value of the op's checked sweep step."""
    return float(np.linspace(0.0, op.B_stop, op.steps)[op.check_step])


def sweep_rows(stdout: str, B: float) -> list[tuple[float, float]]:
    rows = []
    for line in stdout.splitlines():
        fields = line.split(",")
        if len(fields) == 6 and abs(float(fields[0]) - B) <= 1e-9 * max(1.0, abs(B)):
            rows.append((float(fields[4]), float(fields[5])))
    return rows


def check_op(op, code: int, stdout: str) -> str | None:
    """None when the op's output is right, else the reason it failed."""
    if code != 0:
        return f"exit code {code}"
    try:
        if op.workload == "oracle_verify":
            return None if json.loads(stdout).get("pass") is True else "verify report does not say pass"
        if op.workload == "zigzag_sweep":
            B = sweep_step(op)
            model, intervals = model_of(op, B), sweep_rows(stdout, B)
        else:
            model, intervals = model_of(op), union_intervals(stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
    dist = worst_distance(torus_eigenvalues(model, check_length(op.N, op.p)), intervals)
    return None if dist <= TOL else f"torus level {dist:.3g} away from the printed bands"
