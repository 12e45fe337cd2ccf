"""Seeded op generators for the four benchmark workloads.

An op is one ``nanotube_bands.cli.main(argv)`` call.  Ops are drawn by
stratified sampling, so that the run-to-run spread of the timings comes from
the machine and not from which sizes a seed happened to draw.  Each workload
names the discrete parameters that drive its cost as *cells* (for
``zigzag_bands`` the period q).  A block of C cells is C groups of C ops;
each group holds every cell once, in random order.  Every other parameter
comes from a uniform that, over the C groups of one cell, hits each 1/C
stratum once.  For the first uniform, which sets N in every workload, the
strata also form a Latin square over cells and groups, so each single group
already covers every N stratum once.  Potential values are i.i.d. uniform on
[-1, 1].  Op ``i`` depends only on the seed, the workload and its block, so
the same seed always yields the same op stream.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("zigzag_bands", "zigzag_sweep", "armchair_bands", "oracle_verify")
DIMS = 5  # stratified uniforms per op


@dataclass(frozen=True)
class Op:
    """CLI parameters of one op plus what its output check needs."""

    workload: str
    lattice: str
    N: int
    potential: tuple[float, ...]
    t: float
    b: float | None = None  # zigzag phase (--b)
    B: float | None = None  # field amplitude (--B)
    grid: int | None = None  # armchair bands
    L: int | None = None  # verify
    B_stop: float | None = None  # sweep
    steps: int | None = None  # sweep
    check_step: int | None = None  # sweep step whose rows the check tests

    @property
    def p(self) -> int:
        q = len(self.potential)
        return q // 2 if q % 2 == 0 else q

    def argv(self, potential_path: str) -> list[str]:
        command = {"zigzag_sweep": "sweep", "oracle_verify": "verify"}.get(self.workload, "bands")
        argv = [command, "--lattice", self.lattice, "--N", str(self.N)]
        if self.b is not None:
            argv += ["--b", repr(self.b)]
        if self.B is not None:
            argv += ["--B", repr(self.B)]
        if self.steps is not None:
            argv += ["--B-start", "0", "--B-stop", repr(self.B_stop), "--B-steps", str(self.steps)]
        if self.grid is not None:
            argv += ["--grid", str(self.grid)]
        if self.L is not None:
            argv += ["--L", str(self.L)]
        return argv + ["--potential", potential_path, "--t", repr(self.t)]


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return float(lo * (hi / lo) ** u)


def _potential(rng: np.random.Generator, q: int) -> tuple[float, ...]:
    return tuple(float(x) for x in rng.uniform(-1.0, 1.0, q))


def _zigzag_bands(i: int, q: int, u: np.ndarray, rng) -> Op:
    N = int(_log_uniform(u[0], 3.0, 65.0))
    if i % 5 == 4:  # exactly on a flat-band phase: c_k = cos(b + pi k/N) = 0
        k = 1 + int(N * u[3])
        b = math.pi / 2 - math.pi * k / N
    else:
        b = -math.pi + 2.0 * math.pi * float(u[2])
    return Op("zigzag_bands", "zigzag", N, _potential(rng, q), _log_uniform(u[1], 0.05, 40.0), b=b)


def _zigzag_sweep(i: int, q: int, u: np.ndarray, rng) -> Op:
    steps = 9 + int(9 * u[1])
    return Op(
        "zigzag_sweep", "zigzag", 3 + int(14 * u[0]), _potential(rng, q), _log_uniform(u[3], 0.05, 40.0),
        B_stop=1.0 + 7.0 * float(u[2]), steps=steps, check_step=int(steps * u[4]),
    )


def _armchair_bands(i: int, q: int, u: np.ndarray, rng) -> Op:
    return Op(
        "armchair_bands", "armchair", 3 + int(4 * u[0]), _potential(rng, q), _log_uniform(u[2], 0.05, 40.0),
        B=-3.0 + 6.0 * float(u[1]), grid=64 if u[3] < 0.5 else 512,
    )


def _oracle_verify(i: int, cell: tuple[int, str], u: np.ndarray, rng) -> Op:
    q, lattice = cell
    N = 3 + int(6 * u[0])
    p = q // 2 if q % 2 == 0 else q
    multiples = max(1, min(320 // (N * p), 64 // p))  # 2NL <= 640, L <= oracle.MAX_CELLS
    L = p * (1 + int(multiples * u[1]))
    t = _log_uniform(u[2], 0.05, 40.0)
    if lattice == "zigzag":
        return Op("oracle_verify", "zigzag", N, _potential(rng, q), t, b=-math.pi + 2.0 * math.pi * float(u[3]), L=L)
    return Op("oracle_verify", "armchair", N, _potential(rng, q), t, B=-3.0 + 6.0 * float(u[3]), L=L)


@dataclass(frozen=True)
class Design:
    cells: tuple
    make: Callable[..., Op]
    sample_blocks: int  # whole blocks in the checked sample: about what a 25-s run times

    @property
    def block(self) -> int:
        return len(self.cells) ** 2

    @property
    def sample(self) -> int:
        return self.sample_blocks * self.block


DESIGNS = {
    "zigzag_bands": Design(tuple(range(1, 17)), _zigzag_bands, 1),
    "zigzag_sweep": Design(tuple(range(1, 9)), _zigzag_sweep, 3),
    "armchair_bands": Design(tuple(range(1, 7)), _armchair_bands, 3),
    "oracle_verify": Design(tuple((q, lat) for q in range(1, 9) for lat in ("zigzag", "armchair")), _oracle_verify, 1),
}


# One fixed mid-sized op per workload, run once during set-up.
WARMUP = {
    "zigzag_bands": Op("zigzag_bands", "zigzag", 8, (0.3, -0.2, 0.5, -0.7), 1.0, b=0.3),
    "zigzag_sweep": Op("zigzag_sweep", "zigzag", 6, (0.3, -0.2, 0.5, -0.7), 1.0, B_stop=4.0, steps=9, check_step=4),
    "armchair_bands": Op("armchair_bands", "armchair", 4, (0.3, -0.2, 0.5, -0.7), 1.0, B=0.5, grid=64),
    "oracle_verify": Op("oracle_verify", "zigzag", 4, (0.3, -0.2, 0.5, -0.7), 1.0, b=0.3, L=4),
}


def make_block(workload: str, seed: int, block: int) -> list[Op]:
    """One block of a workload's op stream (ops ``block * size`` onwards)."""
    design = DESIGNS[workload]
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), block])
    n = len(design.cells)  # n groups of n cells
    strata = np.argsort(rng.random((n, DIMS, n)), axis=-1)  # [cell, dim, group]
    strata[:, 0, :] = (rng.permutation(n)[:, None] + rng.permutation(n)[None, :]) % n
    u = (strata + rng.random((n, DIMS, n))) / n
    ops = []
    for g in range(n):
        for c in rng.permutation(n):
            ops.append(design.make(block * design.block + len(ops), design.cells[c], u[c, :, g], rng))
    return ops


def write_potential(op: Op, path: Path) -> str:
    path.write_text(json.dumps(list(op.potential)), encoding="utf-8")
    return str(path)


class OpStream:
    """Lazily generated op stream whose potential files live in ``directory``."""

    def __init__(self, workload: str, seed: int, directory: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.directory = directory
        self.size = DESIGNS[workload].block
        self._block = -1
        self._ops: list[tuple[Op, list[str]]] = []

    def prepare(self, block: int) -> None:
        """Generate a block and write its potential files."""
        ops = make_block(self.workload, self.seed, block)
        self._ops = [
            (op, op.argv(write_potential(op, self.directory / f"op{block * self.size + j:06d}.json")))
            for j, op in enumerate(ops)
        ]
        self._block = block

    def __getitem__(self, i: int) -> tuple[Op, list[str]]:
        if i // self.size != self._block:
            self.prepare(i // self.size)
        return self._ops[i % self.size]
