"""Command-line front end: model assembly, dispatch, deterministic output.

Exit codes: 0 success, 1 completed but a requested check failed, 2 bad input
(``InvalidInputError``, or a missing potential file), 3 internal consistency
failure (``InternalConsistencyError``).  Every float is written by one rule
(``_float_slots``), with a fixed number of significant digits (env
NANOTUBE_BANDS_PRECISION, default 12), so identical configurations produce
byte-identical files.  This module alone knows the output schemas: the band
rows of ``bands`` CSV and of each ``sweep`` field step fill one cached row
layout (``_row_layout``) in one ``%`` call; ``bands`` JSON is written from
the columns of a ``BandStructure``, each distinct float formatted once; the
other commands go through ``render_json``.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from functools import lru_cache

import numpy as np

from . import asymptotics as asy
from .armchair import model_from_field, tube_geometry
from .core import ArmchairModel, PotentialProfile, ZigzagModel, check_coupling, half_period, load_potential, magnetic_phase
from .errors import InternalConsistencyError, InvalidInputError
from .oracle import compare_decomposition
from .spectral import SWEEP_CHANNELS, channel_rows, full_spectrum


def _precision() -> int:
    text = os.environ.get("NANOTUBE_BANDS_PRECISION", "12")
    try:
        sig = int(text)
    except ValueError:
        sig = 0
    if sig < 1:
        raise InvalidInputError(f"NANOTUBE_BANDS_PRECISION must be an integer >= 1, got {text!r}")
    return sig


def _float_slots(values: list[float], sig: int) -> tuple[str, list]:
    """The ``%`` slot and the values that write the floats ``values``, ``sig`` significant digits each.

    This is the one float rule of every writer.  A finite float is written
    ``%.{sig}g``, so for a list of finite floats the slot is that spec and
    the values are ``values``.  JSON has no literal for an infinite or nan
    float, so a list that holds one is written as texts through ``%s``
    slots: each finite float by the spec, each other one as "inf", "-inf" or
    "nan" in double quotes.
    """
    spec = f"%.{sig}g"
    if all(map(math.isfinite, values)):
        return spec, values
    return "%s", [
        spec % x if math.isfinite(x) else '"inf"' if x > 0 else '"-inf"' if x < 0 else '"nan"' for x in values
    ]


def fmt_float(x: float, sig: int | None = None) -> str:
    """The text of ``x`` by ``_float_slots``, at ``sig`` significant digits (by default the precision)."""
    slot, (value,) = _float_slots([float(x)], _precision() if sig is None else sig)
    return slot % value


def render_json(obj, indent: int = 0, sig: int | None = None) -> str:
    """JSON with deterministic float formatting (insertion-ordered keys).

    ``sig`` significant digits per float; when None it is read once from the
    environment and passed down the recursion.
    """
    sig = _precision() if sig is None else sig
    if isinstance(obj, (float, np.floating)):  # the common leaf, tested first
        return fmt_float(float(obj), sig)
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  "{k}": {render_json(v, indent + 1, sig)}' for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        flat = all(isinstance(x, (int, float, str, bool)) or x is None for x in seq)
        if flat:
            return "[" + ", ".join(render_json(x, 0, sig) for x in seq) + "]"
        items = [f"{pad}  " + render_json(x, indent + 1, sig) for x in seq]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    raise TypeError(f"cannot render {type(obj)!r}")


def _write(text: str, path: str | None) -> None:
    _write_chunks((text,), path)


def _write_chunks(chunks, path: str | None) -> None:
    """The concatenated ``chunks`` to ``path`` (stdout when None), ending in a newline.

    A file is written whole or not at all: the chunks go to a temporary file
    beside ``path``, which replaces it after the last chunk and is removed if
    making a chunk fails (as a sweep may, after writing its first field
    steps), leaving ``path`` as it was.  Stdout, and a path that exists and
    is not a regular file (a device or a pipe), take the chunks as they come.
    """
    if path is None:
        _emit(chunks, sys.stdout)
    elif os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8", newline="\n") as out:
            _emit(chunks, out)
    else:
        partial = f"{path}.{os.getpid()}.tmp"
        try:
            out = open(partial, "x", encoding="utf-8", newline="\n")
        except FileNotFoundError as exc:  # name the path given, not the temporary file
            raise FileNotFoundError(exc.errno, exc.strerror, path) from None
        try:
            with out:
                _emit(chunks, out)
            os.replace(partial, path)
        finally:
            if os.path.exists(partial):
                os.remove(partial)


def _emit(chunks, out) -> None:
    """Write ``chunks`` to the open text stream ``out``, and a newline unless the last non-empty one ends in one."""
    last = ""
    for chunk in chunks:
        out.write(chunk)
        last = chunk or last
    if not last.endswith("\n"):
        out.write("\n")


# ---------------------------------------------------------------------------
# model assembly


def _add_model_args(sp, N_required: bool = True) -> None:
    sp.add_argument("--N", type=int, required=N_required)
    sp.add_argument("--potential", type=str, default=None, help="JSON array of on-site values")
    sp.add_argument("--t", type=float, default=1.0, help="potential coupling")


def _add_field_args(sp) -> None:
    sp.add_argument("--b", type=float, default=None, help="zigzag hopping phase")
    sp.add_argument("--B", type=float, default=None, help="physical field amplitude")
    sp.add_argument("--b1", type=float, default=None)
    sp.add_argument("--b2", type=float, default=None)
    sp.add_argument("--b3", type=float, default=None)


def _load_profile(args) -> PotentialProfile:
    if args.potential is None:
        raise InvalidInputError("--potential is required for this command")
    profile = load_potential(args.potential)
    _check_period(profile.q, "the number of --potential values")
    return profile


def build_model(args, lattice: str):
    profile = _load_profile(args)
    triple = [x for x in (args.b1, args.b2, args.b3) if x is not None]
    if lattice == "zigzag":
        given = sum(x is not None for x in (args.b, args.B))
        if given != 1 or triple:
            raise InvalidInputError("zigzag model needs exactly one of --b / --B")
        b = args.b if args.b is not None else magnetic_phase(args.B, args.N)
        return ZigzagModel(N=args.N, b=b, potential=profile, t=args.t)
    if args.b is not None:
        raise InvalidInputError("armchair model takes --B or --b1/--b2/--b3, not --b")
    if args.B is not None and triple:
        raise InvalidInputError("give either --B or the phase triple, not both")
    if args.B is not None:
        return model_from_field(args.N, args.B, profile, args.t)
    if len(triple) != 3:
        raise InvalidInputError("armchair model needs --B or all of --b1 --b2 --b3")
    return ArmchairModel(N=args.N, phases=(args.b1, args.b2, args.b3), potential=profile, t=args.t)


MAX_GRID = 2**16  # --grid is validated so that existing command lines run; no computation reads it
MAX_B_STEPS = 1024  # field steps of a sweep
MAX_N = 512  # a zigzag bands run peaks at ~56 MB at N = 512, p = 16, an armchair run grows as N
MAX_SWEEP_CHANNELS = 2**16  # N * --B-steps: a sweep's time grows with its channels (its memory does not)
MAX_P = 16  # potential period p: channel matrices are 2p x 2p; armchair bands at MAX_N, p = 16: ~11 s, 64 MB
MAX_GEOMETRY_CELLS = 64  # geometry writes 2 N cells records, about 1 KB of peak memory each


def _check_grid(grid: int) -> None:
    if not 16 <= grid <= MAX_GRID or grid & (grid - 1) != 0:
        raise InvalidInputError(f"--grid must be a power of two in [16, {MAX_GRID}], got {grid}")


def _check_N(N: int | None) -> None:
    if N is not None and N > MAX_N:
        raise InvalidInputError(f"--N must be at most {MAX_N}, got {N}")


def _check_period(q: int, what: str) -> None:
    """Refuse a potential of q values whose period p (q/2 for even q, q for odd) exceeds MAX_P."""
    if half_period(q) > MAX_P:
        raise InvalidInputError(
            f"{what} must be at most {2 * MAX_P} if even and {MAX_P - 1} if odd (period p at most {MAX_P}), got {q}"
        )


# ---------------------------------------------------------------------------
# commands


def _pair_slots(n: int, indent: int) -> str:
    """A JSON list of n ``[lo, hi]`` pairs at ``indent``, as ``render_json`` lays it out, with ``%s`` value slots."""
    pad = "  " * indent
    return "[\n" + ",\n".join([f"{pad}  [%s, %s]"] * n) + f"\n{pad}]" if n else "[]"


@lru_cache(maxsize=256)  # a few dozen count keys per structure
def _channel_entry(bands: int, flats: int, gaps: int, c_k: bool) -> str:
    """The ``bands`` JSON entry of one channel with these counts, with ``%s`` slots.

    The slots are k, c_k (``null`` when it is missing), the band edges, the
    flat levels and the gap edges, in that order.
    """
    return '    {\n      "k": %%s,\n      "c_k": %s,\n      "bands": %s,\n      "flat_bands": [%s],\n      "gaps": %s\n    }' % (
        "%s" if c_k else "null", _pair_slots(bands, 3), ", ".join(["%s"] * flats), _pair_slots(gaps, 3)
    )


_UNION_BAND = '      {\n        "lo": %s,\n        "hi": %s,\n        "multiplicity": %s\n      }'


def _distinct_texts(values: np.ndarray, sig: int) -> np.ndarray:
    """The texts of the floats ``values`` by ``_float_slots``, as an object array, formatting each bit pattern once.

    Values that compare equal but differ in their bits (0.0 and -0.0, nans)
    are formatted apart.
    """
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    slot, distinct = _float_slots(bits.view(float).tolist(), sig)
    return np.array([slot % x for x in distinct], dtype=object)[inverse]


def _interleave(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """lo[0], hi[0], lo[1], hi[1], ...: the slot order of a list of pairs."""
    return np.stack([lo, hi], axis=-1).ravel()


def _bands_json(structure) -> str:
    """``bands`` JSON from the columns of a ``BandStructure``: every channel's bands, flat levels and gaps, and the union.

    The bytes are those of ``render_json`` on the nested tree of the same
    keys.  Gap edges repeat band edges and every union edge is a channel
    edge, so every float is formatted once per distinct bit pattern
    (``_distinct_texts``), and the texts fill the slots: the channel
    entries, each from a template cached by its counts, in one ``%`` call,
    the union bands in another.  A channel's slots are found by one stable
    sort of every channel value by (channel, section).
    """
    sig = _precision()
    s = structure
    c_k = s.c_k.tolist()
    known = [c is not None for c in c_k]
    C, band = len(c_k), ~s.flat
    band_chan, flat_chan = s.chan[band], s.chan[s.flat]
    sections = [  # (channel of each value, its values): k, c_k, band edges, flat levels, gap edges
        (np.flatnonzero(known), np.array([c for c in c_k if c is not None], dtype=float)),
        (np.repeat(band_chan, 2), _interleave(s.row_lo[band], s.row_hi[band])),
        (flat_chan, s.row_lo[s.flat]),
        (np.repeat(s.gap_chan, 2), _interleave(s.gap_lo, s.gap_hi)),
    ]
    union = [_interleave(s.lo, s.hi), _interleave(s.union_gap_lo, s.union_gap_hi)]
    texts = _distinct_texts(np.concatenate([v for _, v in sections] + union), sig)
    n = sum(v.size for _, v in sections)
    slots = np.concatenate([np.arange(C) * 5] + [chans * 5 + i for i, (chans, _) in enumerate(sections, start=1)])
    values = np.concatenate([np.arange(1, C + 1, dtype=object), texts[:n]])[np.argsort(slots, kind="stable")]
    counts = (np.bincount(chans, minlength=C).tolist() for chans in (band_chan, flat_chan, s.gap_chan))
    entries = ",\n".join(map(_channel_entry, *counts, known)) % tuple(values.tolist())
    U = len(s.lo)
    table = np.empty((U, 3), dtype=object)
    table[:, :2] = texts[n : n + 2 * U].reshape(U, 2)
    mult, which = np.unique(s.multiplicity, return_inverse=True)  # a handful of distinct multiplicities
    mult = [fmt_float(m, sig) if math.isinf(m) else int(m) for m in mult.tolist()]
    table[:, 2] = np.array(mult, dtype=object)[which]
    return '{\n  "channels": %s,\n  "union": {\n    "bands": %s,\n    "gaps": %s\n  }\n}' % (
        "[\n" + entries + "\n  ]" if C else "[]",
        "[\n" + ",\n".join([_UNION_BAND] * U) % tuple(table.ravel().tolist()) + "\n    ]" if U else "[]",
        _pair_slots(len(s.union_gap_lo), 2) % tuple(texts[n + 2 * U :].tolist()),
    )


@lru_cache(maxsize=16)  # a bands CSV's, one per zigzag sweep, the few of consecutive armchair steps
def _row_layout(counts: tuple[int, ...], slot: str) -> tuple[str, ...]:
    """The rows ``k,i,lo,hi`` of channels where channel k has ``counts[k - 1]`` rows, i from 1, ``slot`` in lo and hi."""
    return tuple(f"{k},{i},{slot},{slot}" for k, n in enumerate(counts, start=1) for i in range(1, n + 1))


def _bands_csv(chan, lo, hi, flat) -> str:
    """``bands`` CSV from one model's rows (``channel_rows``): ``k,i,lo,hi`` for band i of channel k, then ``flat,k,e``.

    The bands fill the ``_row_layout`` of their counts per channel, then
    come the flat levels, each channel's in row order, ascending; as in
    ``channel_rows``, a channel's rows are consecutive and the channels
    ascend.
    """
    band = ~flat
    slot, values = _float_slots(np.append(_interleave(lo[band], hi[band]), lo[flat]).tolist(), _precision())
    flats = tuple(f"flat,{k},{slot}" for k in (chan[flat] + 1).tolist())
    return "\n".join(_row_layout(tuple(np.bincount(chan[band]).tolist()), slot) + flats) % tuple(values) + "\n"


def cmd_bands(args) -> int:
    _check_N(args.N)
    model = build_model(args, args.lattice)
    _check_grid(args.grid)
    if args.format == "csv":  # the channels' rows alone: CSV prints no union
        _, chan, lo, hi, flat = channel_rows([model])
        _write(_bands_csv(chan, lo, hi, flat), args.output)
    else:
        _write(_bands_json(full_spectrum(model)), args.output)
    return 0


def _sweep_steps(models, Bs, phases, N: int):
    """The ``sweep`` CSV, one field step at a time: a row ``B,b,k,i,lo,hi`` for each row of the step's channels.

    The steps are solved in chunks of SWEEP_CHANNELS channels, and a chunk's
    steps are written before the next chunk is solved, so the rows held at
    once stay bounded; a chunk that fails (exit 3) leaves the steps before it
    written.  Each step fills the ``_row_layout`` of its counts, with k and i
    written in, from one prefix ``B,b,`` and one ``%`` call on its lo and hi,
    whose slot ``_float_slots`` picks for the chunk.
    """
    sig = _precision()
    size = max(1, SWEEP_CHANNELS // N)
    for start in range(0, len(models), size):
        chunk = slice(start, start + size)
        _, chan, lo, hi, _ = channel_rows(models[chunk], start, len(models))
        counts = np.bincount(chan, minlength=N * len(models[chunk])).reshape(-1, N)
        bounds = np.append(0, np.cumsum(2 * counts.sum(axis=1))).tolist()  # where each step's lo, hi values start
        slot, values = _float_slots(_interleave(lo, hi).tolist(), sig)
        for B, b, row, a, z in zip(Bs[chunk], phases[chunk], counts.tolist(), bounds, bounds[1:]):
            prefix = f"{fmt_float(B, sig)},{fmt_float(b, sig)},"
            yield prefix + ("\n" + prefix).join(_row_layout(tuple(row), slot)) % tuple(values[a:z]) + "\n"


def cmd_sweep(args) -> int:
    _check_N(args.N)
    if not 1 <= args.B_steps <= MAX_B_STEPS:
        raise InvalidInputError(f"--B-steps must be in [1, {MAX_B_STEPS}], got {args.B_steps}")
    if args.N * args.B_steps > MAX_SWEEP_CHANNELS:
        raise InvalidInputError(f"--N times --B-steps must be at most {MAX_SWEEP_CHANNELS}, got {args.N} x {args.B_steps}")
    profile = _load_profile(args)
    _check_grid(args.grid)
    if args.B_steps == 1:
        Bs = [args.B_start]
    else:
        if args.B_stop is None:
            raise InvalidInputError("--B-stop is required when --B-steps > 1")
        if not math.isfinite(args.B_stop - args.B_start):  # also refuses an infinite end
            raise InvalidInputError(f"field range must have a finite span, got {args.B_start} .. {args.B_stop}")
        Bs = np.linspace(args.B_start, args.B_stop, args.B_steps).tolist()  # Python floats: no numpy overflow warning
    if args.lattice == "zigzag":
        models = [ZigzagModel(N=args.N, b=magnetic_phase(B, args.N), potential=profile, t=args.t) for B in Bs]
        phases = [model.b for model in models]
    else:
        models = [model_from_field(args.N, B, profile, args.t) for B in Bs]
        phases = [model.phases[0] for model in models]
    _write_chunks(_sweep_steps(models, Bs, phases, args.N), args.output)
    return 0


def _finite_ck(text) -> float:
    try:
        ck = float(text)
    except ValueError:
        raise InvalidInputError(f"channel constant must be a number, got {text!r}") from None
    if not math.isfinite(ck):
        raise InvalidInputError(f"channel constant must be finite, got {ck}")
    if abs(ck) > 1.0:
        raise InvalidInputError(f"channel constant is a cosine and must lie in [-1, 1], got {ck}")
    return ck


def _zigzag_channel_constant(args) -> float:
    if args.ck is not None:
        return _finite_ck(args.ck)
    if args.k is None:
        raise InvalidInputError("--ck or --k (with a field spec) is required")
    if args.N < 2 or not 1 <= args.k <= args.N:
        raise InvalidInputError(f"--k must lie in 1..N with N >= 2, got k = {args.k}, N = {args.N}")
    b = args.b if args.b is not None else magnetic_phase(args.B or 0.0, args.N)
    return ZigzagModel(N=args.N, b=b, potential=PotentialProfile([0.0])).channel_constant(args.k)  # c_k has no potential


def _asym_ck_to_zero(args, opts) -> list:
    profile = _load_profile(args)
    check_coupling(args.t, profile)  # the one regime that forms t*v without a model
    if args.ck_values:
        opts["c_values"] = [_finite_ck(x) for x in args.ck_values.split(",")]
    return asy.measure_ck_shrink(profile, s=1 if args.s is None else args.s, t=args.t, **opts)


def _asym_small_t(args, opts) -> list:
    if args.potential is not None:
        profile = _load_profile(args)
    elif args.sample_period is not None:
        _check_period(args.sample_period, "--sample-period")
        profile = asy.sample_open_gap_potential(args.sample_period, seed=0 if args.seed is None else args.seed)
    else:
        raise InvalidInputError("small_t needs --potential or --sample-period")
    return asy.measure_small_t_slopes(profile, _zigzag_channel_constant(args), **opts)


def _asym_large_t_armchair(args, opts) -> list:
    model = build_model(args, "armchair")
    return asy.measure_large_t_armchair(model, k=model.N if args.k is None else args.k, **opts)


# each asym regime: the options it reads besides --tolerance and --output, and its run
_ASYM_TABLE = {
    "ck_to_zero": ({"potential", "t", "s", "ck_values"}, _asym_ck_to_zero),
    "small_t": ({"N", "potential", "sample_period", "seed", "ck", "k", "b", "B"}, _asym_small_t),
    "large_t_zigzag": (
        {"N", "potential", "t", "b", "B"},
        lambda args, opts: asy.measure_large_t_zigzag(build_model(args, "zigzag"), **opts),
    ),
    "large_t_armchair": ({"N", "potential", "t", "B", "b1", "b2", "b3", "k"}, _asym_large_t_armchair),
    "small_v_armchair": (
        {"N", "potential"},
        lambda args, opts: asy.measure_small_v_armchair(_load_profile(args), N=args.N, **opts),
    ),
    "low_energy_window": (
        {"N", "potential", "t", "b", "B"},
        lambda args, opts: asy.measure_low_energy_window(build_model(args, "zigzag"), **opts),
    ),
}
_ASYM_OPTIONS = ("N", "potential", "t", "b", "B", "b1", "b2", "b3", "k", "ck", "ck_values", "s", "sample_period", "seed")


def _asym_reads(args) -> set[str]:
    """The options that this ``asym`` run reads; refuses any other that is given."""
    reads = set(_ASYM_TABLE[args.regime][0])
    if args.regime == "small_t":
        if args.potential is not None:
            reads -= {"sample_period", "seed"}
        if args.ck is not None:
            reads -= {"N", "k", "b", "B"}
        elif args.b is not None:
            reads.discard("B")
    unread = ["--" + d.replace("_", "-") for d in _ASYM_OPTIONS if d not in reads and getattr(args, d) is not None]
    if unread:
        raise InvalidInputError(f"regime {args.regime} does not read {', '.join(unread)}")
    return reads


def cmd_asym(args) -> int:
    _check_N(args.N)
    if "N" in _asym_reads(args) and args.N is None:
        raise InvalidInputError(f"regime {args.regime} needs --N")
    if args.t is None:  # unset until checked above; the default of every command
        args.t = 1.0
    opts = {}
    if args.tolerance is not None:
        if not (math.isfinite(args.tolerance) and args.tolerance > 0):
            raise InvalidInputError(f"--tolerance must be finite and positive, got {args.tolerance}")
        opts["tolerance"] = args.tolerance
    reports = _ASYM_TABLE[args.regime][1](args, opts)
    if not reports:
        raise InvalidInputError(f"regime {args.regime} has no report for this input")
    _write(render_json([r.to_json_dict() for r in reports]), args.output)
    return 0 if all(r.passed for r in reports) else 1


def cmd_verify(args) -> int:
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise InvalidInputError(f"--tol must be finite and positive, got {args.tol}")
    model = build_model(args, args.lattice)
    L = args.L if args.L is not None else 3 * model.potential.p
    report = compare_decomposition(model, L, tol=args.tol)
    _write(render_json(report.to_json_dict()), args.output)
    return 0 if report.passed else 3


def cmd_geometry(args) -> int:
    _check_N(args.N)
    if not 1 <= args.cells <= MAX_GEOMETRY_CELLS:
        raise InvalidInputError(f"--cells must be in [1, {MAX_GEOMETRY_CELLS}], got {args.cells}")
    geom, _ = tube_geometry(args.N, args.B)
    _write(render_json(geom.records(args.cells)), args.output)
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nanotube-bands",
        description="Band structure of zigzag/armchair nanotube tight-binding models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("bands", help="band structure of one model")
    sp.add_argument("--lattice", choices=("zigzag", "armchair"), required=True)
    _add_model_args(sp)
    _add_field_args(sp)
    sp.add_argument("--grid", type=int, default=512)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--output", type=str, default=None)
    sp.set_defaults(func=cmd_bands)

    sp = sub.add_parser("sweep", help="band edges over a field range")
    sp.add_argument("--lattice", choices=("zigzag", "armchair"), required=True)
    _add_model_args(sp)
    sp.add_argument("--B-start", dest="B_start", type=float, required=True)
    sp.add_argument("--B-stop", dest="B_stop", type=float, default=None)
    sp.add_argument("--B-steps", dest="B_steps", type=int, default=1)
    sp.add_argument("--grid", type=int, default=512)
    sp.add_argument("--output", type=str, default=None)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("asym", help="measured-vs-predicted asymptotic reports")
    sp.add_argument("--regime", choices=tuple(_ASYM_TABLE), required=True)
    _add_model_args(sp, N_required=False)  # a regime that does not read --N refuses it
    _add_field_args(sp)
    sp.set_defaults(t=None)  # a regime that does not read --t refuses it
    sp.add_argument("--k", type=int, default=None, help="channel index")
    sp.add_argument("--ck", type=float, default=None, help="channel constant, instead of --k and a field")
    sp.add_argument("--ck-values", dest="ck_values", type=str, default=None,
                    help="comma list of channel constants (ck_to_zero)")
    sp.add_argument("--s", type=int, default=None, help="band index (ck_to_zero, default 1)")
    sp.add_argument("--sample-period", dest="sample_period", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None, help="seed of --sample-period (default 0)")
    sp.add_argument("--tolerance", type=float, default=None)
    sp.add_argument("--output", type=str, default=None)
    sp.set_defaults(func=cmd_asym)

    sp = sub.add_parser("verify", help="full-Hamiltonian vs channel-decomposition oracle")
    sp.add_argument("--lattice", choices=("zigzag", "armchair"), required=True)
    _add_model_args(sp)
    _add_field_args(sp)
    sp.add_argument("--L", type=int, default=None, help="axial cells (default 3p)")
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("--output", type=str, default=None)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("geometry", help="3-D coordinates of the armchair tube")
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--B", type=float, required=True)
    sp.add_argument("--cells", type=int, default=2)
    sp.add_argument("--output", type=str, default=None)
    sp.set_defaults(func=cmd_geometry)
    return parser


def _is_negative_value(token: str) -> bool:
    """Whether a token is a negative number, or a comma list that starts with one."""
    if not token.startswith("-"):
        return False
    try:
        float(token.split(",")[0])
    except ValueError:
        return False
    return True


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Write ``--opt -1e-3`` as ``--opt=-1e-3``.

    argparse reads a token that starts with '-' as an option name unless it
    looks like a plain negative number, which exponent notation, ``-5.``,
    ``-inf`` and comma lists do not, and then refuses the option before it for
    a missing value.  No option name of this CLI starts with '-' and a digit,
    and every ``--`` option but ``--help`` takes one value.
    """
    out: list[str] = []
    for token in argv:
        prev = out[-1] if out else ""
        if prev.startswith("--") and "=" not in prev and prev != "--help" and _is_negative_value(token):
            out[-1] = f"{prev}={token}"
        else:
            out.append(token)
    return out


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on first use: building it costs more than a parse."""
    return make_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(_attach_negative_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.func(args)
    except (InvalidInputError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
