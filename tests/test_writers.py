"""The table writers of ``bands`` JSON, ``bands`` CSV and ``sweep`` against exact references.

The references are the writers they replaced: the nested tree of the
``bands`` JSON built one value at a time from the columns of a
``BandStructure`` and rendered by ``render_json``, the per-value row loops
of ``_bands_csv`` and ``cmd_sweep``, and the per-channel ``sweep`` writer
that read ``ChannelBands`` (``closed_forms``).  The CSV references write
their floats by ``closed_forms.float_text``, the CLI's float rule spelled
apart from the CLI.  The cases compare bytes at 1, 6, 12 and 17 significant
digits, the seeded zigzag sweeps at 5, 12 and 17.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math

import numpy as np
import pytest

import nanotube_bands
from closed_forms import (
    ChannelBands, csv_lines, float_text, step_channels, structure_of, union_gaps, union_intervals,
)
from nanotube_bands import cli, spectral
from nanotube_bands.core import ArmchairModel, PotentialProfile, ZigzagModel, magnetic_phase
from nanotube_bands.errors import HillOrderError
from nanotube_bands.spectral import BandStructure, full_spectrum

PRECISIONS = (1, 6, 12, 17)


def reference_tree(structure) -> dict:
    """The nested tree of the ``bands`` JSON, built from the columns one value at a time."""
    s = structure
    channels = [
        {"k": c + 1, "c_k": ck, "bands": [], "flat_bands": [], "gaps": []} for c, ck in enumerate(s.c_k.tolist())
    ]
    for c, lo, hi, flat in zip(s.chan.tolist(), s.row_lo.tolist(), s.row_hi.tolist(), s.flat.tolist()):
        if flat:
            channels[c]["flat_bands"].append(lo)
        else:
            channels[c]["bands"].append([lo, hi])
    for c, lo, hi in zip(s.gap_chan.tolist(), s.gap_lo.tolist(), s.gap_hi.tolist()):
        channels[c]["gaps"].append([lo, hi])
    return {
        "channels": channels,
        "union": {
            "bands": [
                {"lo": lo, "hi": hi, "multiplicity": "inf" if math.isinf(mult) else int(mult)}
                for lo, hi, mult in union_rows(s)
            ],
            "gaps": [[lo, hi] for lo, hi in union_gaps(s)],
        },
    }


def union_rows(structure) -> list[tuple]:
    """The union table of a ``BandStructure`` as (lo, hi, multiplicity) rows."""
    return list(zip(structure.lo.tolist(), structure.hi.tolist(), structure.multiplicity.tolist()))


def reference_bands_csv(structure, sig: int) -> str:
    """The rows of a ``BandStructure`` written one by one: every band as ``k,i,lo,hi``, then every flat level."""
    fmt, s = float_text, structure
    lines, count = [], {}
    for c, lo, hi, flat in zip(s.chan.tolist(), s.row_lo.tolist(), s.row_hi.tolist(), s.flat.tolist()):
        if not flat:
            count[c] = count.get(c, 0) + 1
            lines.append(f"{c + 1},{count[c]},{fmt(lo, sig)},{fmt(hi, sig)}")
    for c, lo, flat in zip(s.chan.tolist(), s.row_lo.tolist(), s.flat.tolist()):
        if flat:
            lines.append(f"flat,{c + 1},{fmt(lo, sig)}")
    return "\n".join(lines) + "\n"


def reference_sweep_csv(Bs, phases, per_step, sig: int) -> str:
    """The former ``cmd_sweep`` row loop."""
    fmt = float_text
    lines = []
    for B, b, channels in zip(Bs, phases, per_step):
        field = f"{fmt(B, sig)},{fmt(b, sig)}"
        for ch in channels:
            entries = [(lo, hi) for lo, hi in ch.bands] + [(e, e) for e in ch.flat_bands]
            for idx, (lo, hi) in enumerate(sorted(entries), start=1):
                lines.append(f"{field},{ch.k},{idx},{fmt(lo, sig)},{fmt(hi, sig)}")
    return "\n".join(lines) + "\n"


def channel_sweep_csv(Bs, phases, per_step, sig: int) -> str:
    """The per-channel ``cmd_sweep`` writer that the edge-array writer replaced, its rows written by ``csv_lines``."""
    rows = [
        (B, b, ch.k, i, lo, hi)
        for B, b, channels in zip(Bs, phases, per_step)
        for ch in channels
        for i, (lo, hi) in enumerate(sorted([*ch.bands, *((e, e) for e in ch.flat_bands)]), start=1)
    ]
    return "\n".join(csv_lines(rows, sig)) + "\n"


def assert_writers_match(structure, monkeypatch, precisions=PRECISIONS) -> None:
    s = structure
    for sig in precisions:
        monkeypatch.setenv("NANOTUBE_BANDS_PRECISION", str(sig))
        assert cli._bands_json(s) == cli.render_json(reference_tree(s))
        assert cli._bands_csv(s.chan, s.row_lo, s.row_hi, s.flat) == reference_bands_csv(s, sig)


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


def seeded_models(count: int = 300):
    """Zigzag and armchair models over N 2-64, q 1-32 and t 1e-2 to 1e3, log-uniform; some zigzag on a flat phase.

    An armchair model has N * p at most 128, which bounds its solve to a
    fraction of a second; at odd q and large t its thin branch ranges read
    as flat levels.
    """
    rng = np.random.default_rng(2027)
    for i in range(count):
        N, q = (int(np.exp(rng.uniform(np.log(lo), np.log(hi + 1)))) for lo, hi in ((2, 64), (1, 32)))
        potential = PotentialProfile(list(rng.uniform(-1.0, 1.0, q)))
        t = float(np.exp(rng.uniform(np.log(1e-2), np.log(1e3))))
        if i % 3 == 2:
            p = q // 2 if q % 2 == 0 else q
            N = max(2, min(N, 128 // p))
            yield ArmchairModel(N, tuple(rng.uniform(-math.pi, math.pi, 3)), potential, t=t)
        elif i % 5 == 0:
            yield ZigzagModel(N, math.pi / 2 - math.pi * int(rng.integers(1, N + 1)) / N, potential, t=t)
        else:
            yield ZigzagModel(N, float(rng.uniform(-math.pi, math.pi)), potential, t=t)


def test_writers_match_reference_on_seeded_models(monkeypatch):
    # the distinct-value JSON writer and the row CSV writer against the value-by-value references
    flat = armchair_flat = 0
    for i, model in enumerate(seeded_models()):
        structure = full_spectrum(model)
        assert_writers_match(structure, monkeypatch, precisions=(PRECISIONS[1 + i % 3],))
        flat += bool(structure.flat.any())
        armchair_flat += isinstance(model, ArmchairModel) and bool(structure.flat.any())
    assert flat > 20 and armchair_flat > 0


INF, NAN = math.inf, math.nan
F64 = np.float64


def hand_built(c_k, rows=(), gaps=(), union=(), gaps_of_union=()) -> BandStructure:
    """A ``BandStructure`` of the given columns: (chan, lo, hi, flat) rows, (chan, lo, hi) gaps, (lo, hi, mult) union.

    The union's gaps are (lo, hi) pairs.
    """

    def columns(table, width, types):
        table = list(table)
        return [np.array([row[i] for row in table], dtype=types[i]) for i in range(width)]

    rows = columns(rows, 4, (int, float, float, bool))
    gaps = columns(gaps, 3, (int, float, float))
    union = columns(union, 3, (float, float, float)) + columns(gaps_of_union, 2, (float, float))
    return BandStructure(np.array(c_k, dtype=object), *rows, *gaps, *union)


def hand_built_structures():
    nan = -np.float64(NAN)  # a nan of the other sign bit
    return {
        # 0.0 and -0.0 side by side in c_k, band edges, flat levels, gaps and union edges
        "signed_zeros": hand_built(
            [0.0, -0.0, F64(-0.0)],
            rows=[(0, -0.0, 0.0, False), (0, 0.0, 1.0, False), (1, -0.0, -0.0, True), (1, 0.0, 0.0, True),
                  (2, -1.0, -0.0, False), (2, 0.0, 0.0, True), (2, 0.0, 2.0, False)],
            gaps=[(2, -0.0, 0.0), (0, 0.0, -0.0)],
            union=[(-1.0, -0.0, 2.0), (-0.0, 0.0, 4.0), (0.0, -0.0, INF), (0.0, 2.0, 2.0)],
            gaps_of_union=[(-0.0, 0.0), (0.0, -0.0)],
        ),
        # nan, inf and -inf in every column, next to finite float64 values
        "non_finite_and_float64": hand_built(
            [NAN, F64(0.3), None],
            rows=[(0, -INF, -1.5, False), (0, F64(0.25), F64(1.0) / 3, False), (0, 2.0, NAN, False),
                  (0, 3.0, INF, False), (0, nan, nan, True), (1, F64(-2.0) / 3, -1e-300, False),
                  (1, 1e-5, 1.2345678901234567e17, False), (1, 5e-324, 5e-324, True), (1, -1e300, -1e300, True)],
            gaps=[(0, -1.5, F64(0.25)), (0, NAN, 3.0), (1, -1e-300, 1e-5)],
            union=[(-INF, -1.5, 2.0), (F64(-0.0), 0.0, F64(4.0)), (0.5, 0.5, INF), (1e-5, NAN, 2.0)],
            gaps_of_union=[(-1.5, -0.0), (NAN, INF), (nan, 1.0)],
        ),
        # channels without rows, first, between and last, and no union
        "empty_channels_empty_union": hand_built(
            [0.0, 0.5, None, -0.5, 0.25], rows=[(1, -1.0, 1.0, False), (1, 2.0, 2.0, True), (3, 0.5, 0.75, False)]
        ),
        # no channel constants at all
        "c_k_none": hand_built(
            [None, None],
            rows=[(0, -1.0, -0.5, False), (0, 0.5, 1.0, False), (1, 0.25, 0.25, True)],
            gaps=[(0, -0.5, 0.5)],
            union=[(-1.0, -0.5, 2.0), (0.25, 0.25, INF), (0.5, 1.0, 2.0)],
            gaps_of_union=[(-0.5, 0.25), (0.25, 0.5)],
        ),
        "no_channels": hand_built([]),
        # the union of flat levels alone, through band_structure
        "flat_only": structure_of([ChannelBands(k=1, c_k=0.0, bands=(), flat_bands=(-0.0, 0.5))]),
    }


def test_hand_built_union_columns_read_back():
    # the columns of the hand-built structures keep -0.0, nan, inf and None
    structures = hand_built_structures()
    zeros, odd = structures["signed_zeros"], structures["non_finite_and_float64"]
    assert [(repr(lo), repr(hi), m) for lo, hi, m in union_rows(zeros)] == [
        ("-1.0", "-0.0", 2.0), ("-0.0", "0.0", 4.0), ("0.0", "-0.0", INF), ("0.0", "2.0", 2.0),
    ]
    assert repr(union_intervals(odd)[-1]) == "(1e-05, nan)" and odd.c_k.tolist()[2] is None
    assert repr(union_gaps(odd)) == "((-1.5, -0.0), (nan, inf), (nan, 1.0))"
    assert [math.copysign(1.0, x) for x in zeros.c_k.tolist()] == [1.0, -1.0, -1.0]
    assert repr(union_intervals(structures["flat_only"])) == "[(-0.0, -0.0), (0.5, 0.5)]"


@pytest.mark.parametrize("name", sorted(hand_built_structures()))
def test_hand_built_writers_match_reference(name, monkeypatch):
    assert_writers_match(hand_built_structures()[name], monkeypatch)


def test_distinct_values_keep_their_sign_and_quotes(monkeypatch):
    # equal values with other bits are formatted apart: -0 beside 0, and every nan and inf quoted
    monkeypatch.setenv("NANOTUBE_BANDS_PRECISION", "12")
    text = cli._bands_json(hand_built_structures()["signed_zeros"])
    assert '"c_k": 0,' in text and text.count('"c_k": -0,') == 2
    assert "[-0, 0]" in text and '"flat_bands": [-0, 0]' in text and '"flat_bands": [0]' in text
    assert '"lo": 0,\n        "hi": -0,\n        "multiplicity": "inf"' in text
    odd = cli._bands_json(hand_built_structures()["non_finite_and_float64"])
    assert '"c_k": "nan"' in odd and '"flat_bands": ["nan"]' in odd and '["nan", 1]' in odd
    assert '"c_k": null' in odd and '"-inf"' in odd and '"hi": "nan"' in odd


def test_bands_json_builds_no_union_records():
    # a BandStructure holds its columns and nothing else: no per-channel
    # view, no list of union bands or gaps for a writer to read
    structure = full_spectrum(ZigzagModel(6, 0.3, PotentialProfile([0.4, -0.2, 0.7]), t=1.1))
    assert [name for name in dir(BandStructure) if not name.startswith("_")] == []
    assert all(isinstance(getattr(structure, f.name), np.ndarray) for f in dataclasses.fields(BandStructure))
    assert structure.union_gap_lo.size == structure.union_gap_hi.size > 0
    assert cli._bands_json(structure) == cli.render_json(reference_tree(structure))


def test_bands_builds_no_channel_bands(tmp_path):
    # bands writes JSON and CSV from the columns of channel_rows, on both
    # lattices; the package has no per-channel view to build
    assert not hasattr(spectral, "ChannelBands") and "ChannelBands" not in nanotube_bands.__all__
    pot = tmp_path / "v.json"
    pot.write_text("[0.3, -0.2, 0.6]")
    printed = {}
    for lattice in ("zigzag", "armchair"):
        for fmt in ("json", "csv"):
            argv = f"bands --lattice {lattice} --N 6 --B 0.7 --format {fmt} --potential {pot}".split()
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main(argv) == 0
            printed[lattice, fmt] = out.getvalue()
    assert json.loads(printed["zigzag", "json"])["channels"][5]["k"] == 6
    assert printed["zigzag", "csv"].count("\n") == 6 * 6
    assert printed["armchair", "csv"].count("\n") >= 6


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
    per_step = step_channels(models)
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
    per_step = step_channels(models)
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
    monkeypatch.setattr(spectral, "zigzag_channel_edges", lambda models, *place: (flat, c_k, lo, hi))
    Bs = sweep_fields(0.0, 1.0, 3)
    phases = [magnetic_phase(B, 4) for B in Bs]
    for sig in PRECISIONS:
        monkeypatch.setenv("NANOTUBE_BANDS_PRECISION", str(sig))
        out = run_sweep("sweep --lattice zigzag --N 4 --B-start 0 --B-stop 1 --B-steps 3", [0.1, -0.1], tmp_path)
        assert out == reference_sweep_csv(Bs, phases, steps, sig)
        assert '"nan"' in out and '"-inf"' in out


def test_non_finite_floats_are_quoted_by_the_one_float_rule(tmp_path, monkeypatch):
    # hand-built bands CSV rows and a hand-built sweep step hold inf, -inf and
    # nan: each table takes its slot from _float_slots, which quotes them
    slots = []
    rule = cli._float_slots

    def recorded(values, sig):
        slot, texts = rule(values, sig)
        slots.append(slot)
        return slot, texts

    monkeypatch.setattr(cli, "_float_slots", recorded)
    monkeypatch.setenv("NANOTUBE_BANDS_PRECISION", "6")
    s = hand_built_structures()["non_finite_and_float64"]
    assert cli._bands_csv(s.chan, s.row_lo, s.row_hi, s.flat).splitlines() == [
        '1,1,"-inf",-1.5', "1,2,0.25,0.333333", '1,3,2,"nan"', '1,4,3,"inf"', "2,1,-0.666667,-1e-300",
        "2,2,1e-05,1.23457e+17", 'flat,1,"nan"', "flat,2,4.94066e-324", "flat,2,-1e+300",
    ]
    assert slots == ["%s"]
    # one field step of two channels of two bands, their edges substituted for the solver's
    lo, hi = np.array([[[[-INF, 0.0], [0.25, 1.0]]], [[[-1.0, NAN], [0.5, INF]]]])
    flat, c_k = np.zeros((1, 2), dtype=bool), np.array([[0.5, -0.5]])
    monkeypatch.setattr(spectral, "zigzag_channel_edges", lambda models, *place: (flat, c_k, lo, hi))
    slots.clear()
    out = run_sweep("sweep --lattice zigzag --N 2 --B-start 0.5", [0.1, -0.1], tmp_path)
    assert out.splitlines() == [
        '0.5,0.09375,1,1,"-inf",-1', '0.5,0.09375,1,2,0,"nan"', "0.5,0.09375,2,1,0.25,0.5", '0.5,0.09375,2,2,1,"inf"',
    ]
    assert slots == ["%s", "%.6g", "%.6g"]  # the step's edges, then B and b by fmt_float


# (N, q, t, B_start, B_stop, steps); B_stop None puts the last step on the
# first flat amplitude of channel 1, where the channel is flat
ZIGZAG_SWEEPS = [
    (40, 3, 0.7, -1.0, 2.0, 3),  # 120 channels of 3 field steps
    (5, 4, 0.8, 0.0, None, 5),
    (7, 5, 25.0, -0.5, None, 4),
    (33, 8, 1.3, -2.5, 2.5, 2),
    (3, 1, 0.05, 0.3, 0.3, 1),
    (64, 16, 0.9, -0.4, 3.1, 6),
    (2, 2, 3.0, 4.0, -4.0, 9),
]


@pytest.mark.parametrize("case", range(len(ZIGZAG_SWEEPS)))
def test_zigzag_sweep_matches_channel_writer(case, tmp_path, monkeypatch):
    # the sweep writes the rows of channel_rows; the per-channel writer reads
    # the ChannelBands viewed from the same rows
    from nanotube_bands.core import flat_field_amplitudes
    from nanotube_bands.spectral import zigzag_channel_edges

    N, q, t, B_start, B_stop, steps = ZIGZAG_SWEEPS[case]
    if B_stop is None:
        B_stop = flat_field_amplitudes(N, 1, [0])[0]
    potential = np.random.default_rng([13, case]).uniform(-1.0, 1.0, q).tolist()
    Bs = sweep_fields(B_start, B_stop, steps) if steps > 1 else [B_start]
    models = [ZigzagModel(N, magnetic_phase(B, N), PotentialProfile(potential), t=t) for B in Bs]
    assert zigzag_channel_edges(models)[0][-1].any() == (ZIGZAG_SWEEPS[case][4] is None)
    per_step = step_channels(models)
    phases = [m.b for m in models]
    argv = f"sweep --lattice zigzag --N {N} --t {t!r} --B-start {B_start!r} --B-stop {B_stop!r} --B-steps {steps}"
    for sig in (5, 12, 17):
        monkeypatch.setenv("NANOTUBE_BANDS_PRECISION", str(sig))
        out = run_sweep(argv, potential, tmp_path)
        # compared as lines: a failing diff of the whole text takes pytest minutes
        assert out.split("\n") == channel_sweep_csv(Bs, phases, per_step, sig).split("\n")
        assert out == reference_sweep_csv(Bs, phases, per_step, sig)


def test_zigzag_sweep_builds_no_channel_bands(tmp_path):
    # both lattices write the sweep from the rows of channel_rows; the package has no per-channel view
    assert not hasattr(spectral, "ChannelBands")
    argv = "sweep --N 6 --B-start 0 --B-stop 2 --B-steps 4 --lattice"
    assert run_sweep(f"{argv} zigzag", [0.3, -0.2, 0.6], tmp_path).count("\n") == 4 * 6 * 6
    assert run_sweep(f"{argv} armchair", [0.3, -0.2, 0.6], tmp_path).count("\n") >= 4 * 6  # a band or more per channel


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


@pytest.mark.parametrize("lattice, N, steps", [("zigzag", 6, 9), ("armchair", 4, 5)])
def test_sweep_in_chunks_of_one_field_step_writes_the_same_bytes(lattice, N, steps, tmp_path, monkeypatch):
    # a sweep solves its field steps in chunks of SWEEP_CHANNELS channels and
    # writes each chunk before it solves the next; every channel's rows are
    # the same bits in any chunk.  The benchmark's sweeps (up to 16 channels
    # at 17 fields) are one chunk
    argv = f"sweep --lattice {lattice} --N {N} --t 1.1 --B-start -0.7 --B-stop 2.9 --B-steps {steps}"
    potential = [0.4, -0.7, 0.2, 0.1]
    chunks = []
    rows = cli.channel_rows
    monkeypatch.setattr(cli, "channel_rows", lambda models, *place: chunks.append(len(models)) or rows(models, *place))
    whole = run_sweep(argv, potential, tmp_path)
    monkeypatch.setattr(cli, "SWEEP_CHANNELS", N)
    assert run_sweep(argv, potential, tmp_path) == whole
    assert chunks == [steps] + [1] * steps
    assert spectral.SWEEP_CHANNELS // 16 >= 17


@pytest.mark.parametrize("to_file", [False, True])
def test_a_sweep_that_fails_in_a_late_chunk(to_file, tmp_path, monkeypatch, capsys):
    # one field step per chunk, and a Hill-order fault in the second: exit 3,
    # naming the step within the whole sweep.  Stdout keeps the first step,
    # written before the second was solved; an --output file is written
    # whole or not at all, so it is left as it was
    argv = "sweep --lattice zigzag --N 4 --t 1.5 --B-start 0.2 --B-stop 2.6 --B-steps 3".split()
    whole = run_sweep(" ".join(argv), [0.8, -0.45], tmp_path)
    solve, solved = spectral.zigzag_chain_edges, []

    def fail_second(c_k, diag):
        solved.append(len(c_k))
        if len(solved) == 2:
            raise HillOrderError("K(+1)/K(-1) levels out of Hill order", 1)
        return solve(c_k, diag)

    monkeypatch.setattr(spectral, "zigzag_chain_edges", fail_second)
    monkeypatch.setattr(cli, "SWEEP_CHANNELS", 4)
    out = tmp_path / "out.csv"
    out.write_text("an earlier run\n")
    argv += ["--potential", str(tmp_path / "v.json")] + (["--output", str(out)] if to_file else [])
    assert cli.main(argv) == 3
    printed = capsys.readouterr()
    assert printed.err.startswith("internal consistency failure: field step 2 of 3, channel k = ")
    assert solved[0] == 4 and len(solved) == 2
    if to_file:
        assert printed.out == "" and out.read_text() == "an earlier run\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["out.csv", "v.json"]
    else:
        assert printed.out == "".join(whole.splitlines(keepends=True)[: 4 * 2])  # 4 channels of 2 bands


def test_an_output_file_in_a_missing_directory_is_refused_by_its_own_name(tmp_path, capsys):
    # the text goes to a temporary file beside the output, which the message does not name
    pot, out = tmp_path / "v.json", tmp_path / "missing" / "out.csv"
    pot.write_text("[0.8, -0.45]")
    argv = ["bands", "--lattice", "zigzag", "--N", "3", "--b", "0.3", "--potential", str(pot), "--output", str(out)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{out}'\n"
