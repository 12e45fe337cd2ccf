"""The table writers of ``bands`` JSON, ``bands`` CSV and ``sweep`` against exact references.

The references are the writers they replaced: the nested tree of
``BandStructure.to_json_dict`` rendered by ``render_json``, the per-value
``fmt_float`` row loops of ``_bands_csv`` and ``cmd_sweep``, and the
per-channel ``sweep`` writer that read ``ChannelBands``.  The cases compare
bytes at 1, 6, 12 and 17 significant digits, the seeded zigzag sweeps at 5,
12 and 17.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np
import pytest

from nanotube_bands import cli
from nanotube_bands.core import ArmchairModel, PotentialProfile, ZigzagModel, magnetic_phase
from nanotube_bands.spectral import (
    BandStructure,
    ChannelBands,
    armchair_channels,
    assemble_band_structure,
    full_spectrum,
    zigzag_channels,
)

PRECISIONS = (1, 6, 12, 17)


def reference_json_dict(structure) -> dict:
    """The body of the former ``BandStructure.to_json_dict``."""
    return {
        "channels": [
            {
                "k": ch.k,
                "c_k": ch.c_k,
                "bands": [[lo, hi] for lo, hi in ch.bands],
                "flat_bands": list(ch.flat_bands),
                "gaps": [[lo, hi] for lo, hi in ch.gaps],
            }
            for ch in structure.channels
        ],
        "union": {
            "bands": [
                {
                    "lo": lo,
                    "hi": hi,
                    "multiplicity": "inf" if math.isinf(mult) else int(mult),
                }
                for lo, hi, mult in union_rows(structure)
            ],
            "gaps": [[lo, hi] for lo, hi in structure.union_gaps],
        },
    }


def union_rows(structure) -> list[tuple]:
    """The union table of a ``BandStructure`` as (lo, hi, multiplicity) rows."""
    return list(zip(structure.lo.tolist(), structure.hi.tolist(), structure.multiplicity.tolist()))


def reference_bands_csv(structure, sig: int) -> str:
    """The former ``_bands_csv`` row loop."""
    fmt = cli.fmt_float
    lines = []
    for ch in structure.channels:
        for idx, (lo, hi) in enumerate(ch.bands, start=1):
            lines.append(f"{ch.k},{idx},{fmt(lo, sig)},{fmt(hi, sig)}")
    for ch in structure.channels:
        for e in sorted(ch.flat_bands):
            lines.append(f"flat,{ch.k},{fmt(e, sig)}")
    return "\n".join(lines) + "\n"


def reference_sweep_csv(Bs, phases, per_step, sig: int) -> str:
    """The former ``cmd_sweep`` row loop."""
    fmt = cli.fmt_float
    lines = []
    for B, b, channels in zip(Bs, phases, per_step):
        field = f"{fmt(B, sig)},{fmt(b, sig)}"
        for ch in channels:
            entries = [(lo, hi) for lo, hi in ch.bands] + [(e, e) for e in ch.flat_bands]
            for idx, (lo, hi) in enumerate(sorted(entries), start=1):
                lines.append(f"{field},{ch.k},{idx},{fmt(lo, sig)},{fmt(hi, sig)}")
    return "\n".join(lines) + "\n"


def channel_sweep_csv(Bs, phases, per_step, sig: int) -> str:
    """The per-channel ``cmd_sweep`` writer that the edge-array writer replaced: one ``_table`` per field step."""
    tables = (  # one table per field step, written as it is made
        cli._table(
            "%g,%g,%d,%d,%g,%g",
            [(B, b, ch.k, i, lo, hi) for ch in channels for i, (lo, hi) in enumerate(sorted(ch.intervals()), start=1)],
            sig,
            "\n",
        )
        for B, b, channels in zip(Bs, phases, per_step)
    )
    return "".join(text + "\n" for text in tables if text) or "\n"


def assert_writers_match(structure, monkeypatch) -> None:
    for sig in PRECISIONS:
        monkeypatch.setenv("NANOTUBE_BANDS_PRECISION", str(sig))
        assert cli._bands_json(structure) == cli.render_json(reference_json_dict(structure))
        assert cli._bands_csv(structure.channels) == reference_bands_csv(structure, sig)


def zigzag_models():
    rng = np.random.default_rng(2024)
    models = []
    for i in range(24):
        N, q = int(rng.integers(2, 21)), int(rng.integers(1, 9))
        potential = PotentialProfile(list(rng.uniform(-1.0, 1.0, q)))
        t = float(np.exp(rng.uniform(np.log(0.05), np.log(40.0))))
        if i % 3 == 0:  # an exact flat phase: c_k = cos(b + pi k/N) = 0
            b = math.pi / 2 - math.pi * int(rng.integers(1, N + 1)) / N
        else:
            b = float(rng.uniform(-math.pi, math.pi))
        models.append(ZigzagModel(N, b, potential, t=t))
    # bands thinner than 1e-12 in a near-flat channel (the zig_thin_bands_json golden)
    thin = [
        0.273923, -0.460427, -0.918053, -0.966945, 0.62654, 0.825511, 0.213272, 0.458993,
        0.08725, 0.870145, 0.631707, -0.994523, 0.714809, -0.932829, 0.459311, -0.648689,
    ]
    models.append(ZigzagModel(4, -3.106873458412769, PotentialProfile(thin), t=4.500851068224242))
    models.append(ZigzagModel(64, 0.7, PotentialProfile(list(rng.uniform(-1.0, 1.0, 15))), t=0.9))
    return models


@pytest.mark.parametrize("model", zigzag_models(), ids=lambda m: f"N{m.N}_q{m.potential.q}_b{m.b:.3f}")
def test_zigzag_writers_match_reference(model, monkeypatch):
    assert_writers_match(full_spectrum(model), monkeypatch)


@pytest.mark.parametrize("seed", range(4))
def test_armchair_writers_match_reference(seed, monkeypatch):
    rng = np.random.default_rng([7, seed])
    N, q = int(rng.integers(2, 6)), int(rng.integers(1, 6))
    model = ArmchairModel(
        N=N, phases=tuple(rng.uniform(-1.0, 1.0, 3)), potential=PotentialProfile(list(rng.uniform(-1.0, 1.0, q))),
        t=float(np.exp(rng.uniform(np.log(0.05), np.log(30.0)))),
    )
    assert_writers_match(full_spectrum(model), monkeypatch)


INF, NAN = math.inf, math.nan
F64 = np.float64


def union_columns(bands) -> dict:
    """``BandStructure`` union columns of (lo, hi, multiplicity) rows."""
    return {name: np.array([b[i] for b in bands], dtype=float) for i, name in enumerate(("lo", "hi", "multiplicity"))}


def hand_built_structures():
    odd = ChannelBands(
        k=1, c_k=None,
        bands=((-INF, -1.5), (-0.0, 0.0), (F64(0.25), F64(1.0) / 3), (2.0, NAN), (3.0, INF)),
        flat_bands=(F64(-0.0), 5e-324, -1e300, NAN),
    )
    finite = ChannelBands(
        k=2, c_k=F64(0.3),
        bands=((F64(-2.0) / 3, -1e-300), (1e-5, 1.2345678901234567e17)),
        flat_bands=(0.5, F64(-0.125)),
    )
    empty = ChannelBands(k=3, c_k=0.0, bands=())
    union = [(-INF, -1.5, 2.0), (F64(-0.0), 0.0, F64(4.0)), (0.5, 0.5, INF), (1e-5, NAN, 2.0)]
    return {
        "non_finite_and_float64": BandStructure(
            (odd, finite, empty), **union_columns(union), union_gaps=((-1.5, -0.0), (NAN, INF))
        ),
        "finite_float64_union": BandStructure((finite,), **union_columns(union[1:3]), union_gaps=((F64(0.0), 0.5),)),
        "empty_channels_empty_union": BandStructure((empty, ChannelBands(k=4, c_k=None, bands=()))),
        "no_channels": BandStructure(()),
        "flat_only": assemble_band_structure([ChannelBands(k=1, c_k=0.0, bands=(), flat_bands=(0.5, -0.0))]),
    }


def test_hand_built_union_columns_read_back():
    # the columns of the hand-built union give back its rows, -0.0, nan and inf included
    structure = hand_built_structures()["non_finite_and_float64"]
    assert [(repr(lo), repr(hi), m) for lo, hi, m in union_rows(structure)] == [
        ("-inf", "-1.5", 2.0),
        ("-0.0", "0.0", 4.0),
        ("0.5", "0.5", INF),
        ("1e-05", "nan", 2.0),
    ]
    hull = (structure.lo.tolist()[0], structure.hi.tolist()[-1])
    assert repr(structure.union_intervals()[1]) == "(-0.0, 0.0)" and repr(hull) == "(-inf, nan)"


def test_bands_json_builds_no_union_records(monkeypatch):
    structure = full_spectrum(ZigzagModel(6, 0.3, PotentialProfile([0.4, -0.2, 0.7]), t=1.1))
    want = cli.render_json(reference_json_dict(structure))

    def refuse(self):
        raise AssertionError("the writer read a union view")

    for name in ("union_bands", "union_intervals", "flat_bands"):
        monkeypatch.setattr(BandStructure, name, property(refuse))
    assert cli._bands_json(structure) == want


@pytest.mark.parametrize("name", sorted(hand_built_structures()))
def test_hand_built_writers_match_reference(name, monkeypatch):
    assert_writers_match(hand_built_structures()[name], monkeypatch)


def run_sweep(argv, potential, tmp_path):
    pot = tmp_path / "v.json"
    pot.write_text(json.dumps(potential))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv.split() + ["--potential", str(pot)])
    assert code == 0
    return out.getvalue()


def sweep_fields(B_start, B_stop, steps):
    return list(np.linspace(B_start, B_stop, steps))


@pytest.mark.parametrize(
    "potential, N, t, B_stop, steps",
    [
        ([0.8, -0.45], 4, 1.5, 2.6, 5),
        # steps onto the flat amplitude flat_field_amplitudes(5, 2, [0])[0]
        ([0.55, -0.3, 0.85, -0.95], 5, 0.8, 2.1776327054761078, 5),
        ([0.9, -0.2, -0.65], 16, 1.3, 2.5, 17),
        ([0.31, -0.74, 0.58, -0.12, 0.93], 7, 25.0, 6.0, 9),
    ],
)
def test_zigzag_sweep_matches_reference(potential, N, t, B_stop, steps, tmp_path, monkeypatch):
    Bs = sweep_fields(-0.4, B_stop, steps)
    models = [ZigzagModel(N, magnetic_phase(B, N), PotentialProfile(potential), t=t) for B in Bs]
    per_step = zigzag_channels(models)
    argv = f"sweep --lattice zigzag --N {N} --t {t!r} --B-start -0.4 --B-stop {B_stop!r} --B-steps {steps}"
    for sig in PRECISIONS:
        monkeypatch.setenv("NANOTUBE_BANDS_PRECISION", str(sig))
        want = reference_sweep_csv(Bs, [m.b for m in models], per_step, sig)
        assert run_sweep(argv, potential, tmp_path) == want


def test_armchair_sweep_matches_reference(tmp_path, monkeypatch):
    potential = [0.8, -0.45]
    Bs = sweep_fields(-0.4, 1.2, 3)
    models = [
        ArmchairModel(N=3, phases=cli.tube_geometry(3, B)[1], potential=PotentialProfile(potential), t=0.7)
        for B in Bs
    ]
    per_step = armchair_channels(models)
    phases = [model.phases[0] for model in models]
    argv = "sweep --lattice armchair --N 3 --t 0.7 --B-start -0.4 --B-stop 1.2 --B-steps 3 --grid 64"
    for sig in PRECISIONS:
        monkeypatch.setenv("NANOTUBE_BANDS_PRECISION", str(sig))
        assert run_sweep(argv, potential, tmp_path) == reference_sweep_csv(Bs, phases, per_step, sig)


def test_sweep_with_non_finite_edges_matches_reference(tmp_path, monkeypatch):
    # the solver never returns such edges: its arrays are substituted.  Three
    # field steps of four channels with two bands each; a flat channel's row
    # holds its levels as (e, e)
    flat = np.array([[False, True, False, False], [False] * 4, [True, False, False, True]])
    c_k = np.array([[0.5, 0.0, F64(0.3), -0.25], [0.1, 0.2, 0.3, 0.4], [0.0, 0.6, -0.6, 0.0]])
    lo = np.array([
        [[-INF, -0.0], [-1e300, 5e-324], [0.25, 2.0], [-2.0 / 3, 1e-5]],
        [[-1.5, 0.5], [F64(-2.0) / 3, 1.0], [0.0, 3.0], [1.0 / 3, 2.5]],
        [[-0.0, 0.125], [-1e-300, 7.0], [-INF, -INF], [-0.5, 0.5]],
    ])
    hi = np.array([
        [[-1.5, 0.0], [-1e300, 5e-324], [1.0 / 3, NAN], [-1e-300, 1.2345678901234567e17]],
        [[-0.75, 0.75], [-1e-300, 2.0], [0.0, INF], [1.0, 2.75]],
        [[-0.0, 0.125], [1e-300, NAN], [-1.0, 1.0], [-0.5, 0.5]],
    ])
    steps = [
        [
            ChannelBands(k=k, c_k=c, bands=(), flat_bands=tuple(row_lo))
            if is_flat
            else ChannelBands(k=k, c_k=c, bands=tuple(zip(row_lo, row_hi)))
            for k, (c, is_flat, row_lo, row_hi) in enumerate(zip(cs, fs, los, his), start=1)
        ]
        for cs, fs, los, his in zip(c_k.tolist(), flat.tolist(), lo.tolist(), hi.tolist())
    ]
    monkeypatch.setattr(cli, "zigzag_channel_edges", lambda models: (flat, c_k, lo, hi))
    Bs = sweep_fields(0.0, 1.0, 3)
    phases = [magnetic_phase(B, 4) for B in Bs]
    for sig in PRECISIONS:
        monkeypatch.setenv("NANOTUBE_BANDS_PRECISION", str(sig))
        out = run_sweep("sweep --lattice zigzag --N 4 --B-start 0 --B-stop 1 --B-steps 3", [0.1, -0.1], tmp_path)
        assert out == reference_sweep_csv(Bs, phases, steps, sig)
        assert '"nan"' in out and '"-inf"' in out


# (N, q, t, B_start, B_stop, steps); B_stop None puts the last step on the
# first flat amplitude of channel 1, where the channel is flat
ZIGZAG_SWEEPS = [
    (40, 3, 0.7, -1.0, 2.0, 3),  # 120 channels: stacks of 32 that cut across field steps
    (5, 4, 0.8, 0.0, None, 5),
    (7, 5, 25.0, -0.5, None, 4),
    (33, 8, 1.3, -2.5, 2.5, 2),
    (3, 1, 0.05, 0.3, 0.3, 1),
    (64, 16, 0.9, -0.4, 3.1, 6),
    (2, 2, 3.0, 4.0, -4.0, 9),
]


@pytest.mark.parametrize("case", range(len(ZIGZAG_SWEEPS)))
def test_zigzag_sweep_matches_channel_writer(case, tmp_path, monkeypatch):
    # the sweep writes its rows from the stacked edge arrays; the per-channel
    # writer reads the ChannelBands that bands builds from the same arrays
    from nanotube_bands.core import flat_field_amplitudes
    from nanotube_bands.spectral import zigzag_channel_edges

    N, q, t, B_start, B_stop, steps = ZIGZAG_SWEEPS[case]
    if B_stop is None:
        B_stop = flat_field_amplitudes(N, 1, [0])[0]
    potential = np.random.default_rng([13, case]).uniform(-1.0, 1.0, q).tolist()
    Bs = sweep_fields(B_start, B_stop, steps) if steps > 1 else [B_start]
    models = [ZigzagModel(N, magnetic_phase(B, N), PotentialProfile(potential), t=t) for B in Bs]
    assert zigzag_channel_edges(models)[0][-1].any() == (ZIGZAG_SWEEPS[case][4] is None)
    per_step = zigzag_channels(models)
    phases = [m.b for m in models]
    argv = f"sweep --lattice zigzag --N {N} --t {t!r} --B-start {B_start!r} --B-stop {B_stop!r} --B-steps {steps}"
    for sig in (5, 12, 17):
        monkeypatch.setenv("NANOTUBE_BANDS_PRECISION", str(sig))
        out = run_sweep(argv, potential, tmp_path)
        # compared as lines: a failing diff of the whole text takes pytest minutes
        assert out.split("\n") == channel_sweep_csv(Bs, phases, per_step, sig).split("\n")
        assert out == reference_sweep_csv(Bs, phases, per_step, sig)


def test_zigzag_sweep_builds_no_channel_bands(tmp_path, monkeypatch):
    from nanotube_bands import spectral

    def refuse(*args):
        raise AssertionError("the sweep built channel bands")

    monkeypatch.setattr(spectral.ChannelBands, "__post_init__", refuse)
    monkeypatch.setattr(spectral, "_sorted_band_gaps", refuse)
    out = run_sweep("sweep --lattice zigzag --N 6 --B-start 0 --B-stop 2 --B-steps 4", [0.3, -0.2, 0.6], tmp_path)
    assert out.count("\n") == 4 * 6 * 6


@pytest.mark.parametrize("lattice", ["zigzag", "armchair"])
def test_sweep_output_file_matches_stdout(lattice, tmp_path):
    argv = f"sweep --lattice {lattice} --N 5 --t 1.2 --B-start -0.5 --B-stop 2.2 --B-steps 4 --grid 64"
    text = run_sweep(argv, [0.4, -0.7, 0.2], tmp_path)
    path = tmp_path / "out.csv"
    assert run_sweep(argv + f" --output {path}", [0.4, -0.7, 0.2], tmp_path) == ""
    assert path.read_bytes() == text.encode() and text.endswith("\n")


def _swapped_eigvalsh(real):
    """``eigvalsh`` with the K(+1) and K(-1) labels of every scalar channel swapped."""

    def eigvalsh(a, *args, **kwargs):
        levels = real(a, *args, **kwargs)
        return levels[:, ::-1] if levels.ndim == 3 and levels.shape[1] == 2 else levels

    return eigvalsh


@pytest.mark.parametrize("fault", ["hill", "precision", "N", "channels"])
def test_sweep_errors_leave_no_output_file(fault, tmp_path, monkeypatch, capsys):
    # every error is raised before the output file is opened
    pot = tmp_path / "v.json"
    pot.write_text("[0.8, -0.45]")
    N, steps = (65, 1024) if fault == "channels" else (513 if fault == "N" else 4, 3)
    out = tmp_path / "out.csv"
    argv = f"sweep --lattice zigzag --N {N} --t 1.5 --B-start 0.2 --B-stop 2.6 --B-steps {steps}".split()
    if fault == "hill":
        monkeypatch.setattr(np.linalg, "eigvalsh", _swapped_eigvalsh(np.linalg.eigvalsh))
    if fault == "precision":
        monkeypatch.setenv("NANOTUBE_BANDS_PRECISION", "0")
    code = cli.main(argv + ["--potential", str(pot), "--output", str(out)])
    err = capsys.readouterr().err
    assert not out.exists()
    if fault == "hill":
        assert code == 3
        assert err.startswith("internal consistency failure: field step 1 of 3, channel k = 1: K(+1)/K(-1) levels")
    else:
        assert code == 2 and err.startswith("error: ")


def test_table_escapes_literal_percent():
    assert cli._table("%%%d,%g%%", [(3, 0.5), (4, -0.25)], 12, ";") == "%3,0.5%;%4,-0.25%"
    assert cli._table("%%g=%g", [(math.inf,)], 12, "") == '%g="inf"'
    assert cli._table("%g", [], 12, ",") == ""
