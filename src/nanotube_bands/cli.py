"""Command-line front end: model assembly, dispatch, deterministic output.

Exit codes: 0 success, 1 completed but a requested check failed, 2 bad input,
3 internal consistency failure.  Floats are rendered with a fixed number of
significant digits (env NANOTUBE_BANDS_PRECISION, default 12) so identical
configurations produce byte-identical files.  This module alone knows the
output schemas: ``bands`` JSON and CSV and ``sweep`` CSV are written as tables
of rows, one ``%`` call per table, the other commands through ``render_json``.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from functools import lru_cache
from itertools import chain

import numpy as np

from . import asymptotics as asy
from .armchair import model_from_field, tube_geometry
from .core import ArmchairModel, PotentialProfile, ZigzagModel, load_potential, magnetic_phase
from .errors import (
    FlatBandChannelError,
    InternalConsistencyError,
    InvalidInputError,
    InvalidModelError,
    InvalidParameterError,
    InvalidTruncationError,
    NotApplicableError,
)
from .oracle import compare_decomposition
from .spectral import armchair_channels, full_spectrum, zigzag_channel_edges, zigzag_channels


def _precision() -> int:
    text = os.environ.get("NANOTUBE_BANDS_PRECISION", "12")
    try:
        sig = int(text)
    except ValueError:
        sig = 0
    if sig < 1:
        raise InvalidInputError(f"NANOTUBE_BANDS_PRECISION must be an integer >= 1, got {text!r}")
    return sig


def fmt_float(x: float, sig: int | None = None) -> str:
    sig = _precision() if sig is None else sig
    if isinstance(x, float) and not math.isfinite(x):
        return '"inf"' if x > 0 else ('"-inf"' if x < 0 else '"nan"')
    return f"{float(x):.{sig}g}"


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


_SLOT = re.compile(r"%[%dgs]")


@lru_cache(maxsize=64)  # a few row templates per precision
def _row_template(row: str, spec: str) -> tuple[int, tuple[int, ...], str]:
    """Fields per row, the float columns, and ``row`` with ``spec`` in its float slots."""
    slots = [slot for slot in _SLOT.findall(row) if slot != "%%"]
    template = _SLOT.sub(lambda m: spec if m.group() == "%g" else m.group(), row)
    return len(slots), tuple(i for i, slot in enumerate(slots) if slot == "%g"), template


def _table(row: str, rows, sig: int, sep: str) -> str:
    """``rows`` written through the row template ``row``, joined by ``sep``.

    ``row`` is ``%`` text with a ``%g`` slot per float field, ``%d`` or ``%s``
    for any other field and ``%%`` for a literal percent sign, so text pasted
    into a row is escaped first.  The whole table is one ``%`` call.  Floats
    are written ``%.{sig}g``, which is ``fmt_float`` on every finite float; a
    table that holds a non-finite float writes its floats through
    ``fmt_float`` one by one, so that ``"inf"`` and ``"nan"`` keep their quotes.
    """
    if not rows:
        return ""
    values = list(chain.from_iterable(rows))
    width, columns, template = _row_template(row, f"%.{sig}g")
    if not all(all(map(math.isfinite, values[i::width])) for i in columns):
        width, columns, template = _row_template(row, "%s")
        for i in columns:
            values[i::width] = [fmt_float(x, sig) for x in values[i::width]]
    return sep.join([template] * len(rows)) % tuple(values)


def _write(text: str, path: str | None) -> None:
    _write_chunks((text,), path)


def _write_chunks(chunks, path: str | None) -> None:
    """The concatenated ``chunks`` to ``path`` (stdout when None), ending in a newline."""
    out = sys.stdout if path is None else open(path, "w", encoding="utf-8", newline="\n")
    last = ""
    try:
        for chunk in chunks:
            out.write(chunk)
            last = chunk or last
        if not last.endswith("\n"):
            out.write("\n")
    finally:
        if path is not None:
            out.close()


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
MAX_B_STEPS = 1024  # a sweep holds the channels of every step until it writes them
MAX_N = 512  # a zigzag bands run peaks at ~58 MB at N = 512, p = 16, an armchair run grows as N
MAX_SWEEP_CHANNELS = 2**16  # N * --B-steps: a sweep solves and holds the channels of every step at once
MAX_P = 16  # potential period p: channel matrices are 2p x 2p; armchair bands at MAX_N, p = 16: ~30 s, 62 MB
MAX_GEOMETRY_CELLS = 64  # geometry writes 2 N cells records, about 1 KB of peak memory each


def _check_grid(grid: int) -> None:
    if not 16 <= grid <= MAX_GRID or grid & (grid - 1) != 0:
        raise InvalidInputError(f"--grid must be a power of two in [16, {MAX_GRID}], got {grid}")


def _check_N(N: int | None) -> None:
    if N is not None and N > MAX_N:
        raise InvalidInputError(f"--N must be at most {MAX_N}, got {N}")


def _check_period(q: int, what: str) -> None:
    """Refuse a potential of q values whose period p (q/2 for even q, q for odd) exceeds MAX_P."""
    if (q // 2 if q % 2 == 0 else q) > MAX_P:
        raise InvalidInputError(
            f"{what} must be at most {2 * MAX_P} if even and {MAX_P - 1} if odd (period p at most {MAX_P}), got {q}"
        )


# ---------------------------------------------------------------------------
# commands


def _pairs(rows, indent: int, sig: int) -> str:
    """A JSON list of ``[lo, hi]`` pairs at ``indent``, as ``render_json`` lays it out."""
    if not rows:
        return "[]"
    pad = "  " * indent
    return "[\n" + _table(pad + "  [%g, %g]", rows, sig, ",\n") + "\n" + pad + "]"


def _pair_slots(n: int, spec: str) -> str:
    """``_pairs`` of n pairs at indent 3, with ``spec`` in the value slots."""
    return "[\n" + ",\n".join([f"        [{spec}, {spec}]"] * n) + "\n      ]" if n else "[]"


@lru_cache(maxsize=256)  # a few dozen (count, precision) keys per structure
def _channel_entry(bands: int, flats: int, gaps: int, c_k: bool, spec: str) -> str:
    """The ``bands`` JSON entry of one channel with these counts, ``spec`` in its float slots.

    The slots are k (``%d``), c_k (``null`` when it is missing), the band
    edges, the flat levels and the gap edges, in that order.
    """
    return '    {\n      "k": %%d,\n      "c_k": %s,\n      "bands": %s,\n      "flat_bands": [%s],\n      "gaps": %s\n    }' % (
        spec if c_k else "null", _pair_slots(bands, spec), ", ".join([spec] * flats), _pair_slots(gaps, spec)
    )


_UNION_BAND = '      {\n        "lo": %g,\n        "hi": %g,\n        "multiplicity": %s\n      }'


def _bands_json(structure) -> str:
    """``bands`` JSON: each channel's bands, flat levels and gaps, then the union.

    The bytes are those of ``render_json`` on the nested tree of the same
    keys, written table by table instead of value by value.  Every channel
    entry is written by one ``%`` call on the entry templates of all
    channels, as ``_table`` writes a table: a non-finite value sends every
    float through ``fmt_float``.  The union table is read from the lo, hi
    and multiplicity columns of the structure.
    """
    sig = _precision()
    channels = structure.channels
    rows = [
        [ch.k, *([] if ch.c_k is None else [ch.c_k]), *chain(*ch.bands), *ch.flat_bands, *chain(*ch.gaps)]
        for ch in channels
    ]
    spec = f"%.{sig}g"
    if not all(map(math.isfinite, chain.from_iterable(rows))):
        spec = "%s"
        rows = [[row[0]] + [fmt_float(x, sig) for x in row[1:]] for row in rows]
    entries = ",\n".join(
        _channel_entry(len(ch.bands), len(ch.flat_bands), len(ch.gaps), ch.c_k is not None, spec) for ch in channels
    ) % tuple(chain.from_iterable(rows))
    mult = ['"inf"' if math.isinf(m) else int(m) for m in structure.multiplicity.tolist()]
    union = list(zip(structure.lo.tolist(), structure.hi.tolist(), mult))
    return '{\n  "channels": %s,\n  "union": {\n    "bands": %s,\n    "gaps": %s\n  }\n}' % (
        "[\n" + entries + "\n  ]" if channels else "[]",
        "[\n" + _table(_UNION_BAND, union, sig, ",\n") + "\n    ]" if union else "[]",
        _pairs(structure.union_gaps, 2, sig),
    )


def _bands_csv(channels) -> str:
    sig = _precision()
    bands = [(ch.k, idx, lo, hi) for ch in channels for idx, (lo, hi) in enumerate(ch.bands, start=1)]
    flat = [(ch.k, e) for ch in channels for e in sorted(ch.flat_bands)]
    tables = [_table("%d,%d,%g,%g", bands, sig, "\n"), _table("flat,%d,%g", flat, sig, "\n")]
    return "\n".join(text for text in tables if text) + "\n"


def cmd_bands(args) -> int:
    _check_N(args.N)
    model = build_model(args, args.lattice)
    _check_grid(args.grid)
    if args.format == "csv":  # the channels alone: CSV prints no union
        (channels,) = zigzag_channels([model]) if args.lattice == "zigzag" else armchair_channels([model])
        _write(_bands_csv(channels), args.output)
    else:
        _write(_bands_json(full_spectrum(model)), args.output)
    return 0


def _sweep_rows(B: float, b: float, rows, sig: int) -> str:
    """One field step of ``sweep`` CSV: a row ``B,b,k,i,lo,hi`` for each ``(k, i, lo, hi)`` of ``rows``.

    B and b are written once, into a prefix that the row separator of one
    ``_table`` call repeats, so the step is one ``%`` call.
    """
    prefix = f"{fmt_float(B, sig)},{fmt_float(b, sig)},".replace("%", "%%")
    return prefix + _table("%d,%d,%g,%g", rows, sig, "\n" + prefix) if rows else ""


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
        if not (math.isfinite(args.B_start) and math.isfinite(args.B_stop)):
            raise InvalidInputError(f"field range must be finite, got {args.B_start} .. {args.B_stop}")
        Bs = np.linspace(args.B_start, args.B_stop, args.B_steps).tolist()  # Python floats: no numpy overflow warning
    if args.lattice == "zigzag":
        models = [ZigzagModel(N=args.N, b=magnetic_phase(B, args.N), potential=profile, t=args.t) for B in Bs]
        phases = [model.b for model in models]
        _, _, lo, hi = zigzag_channel_edges(models)  # every field step in one stacked solve
        k, i = (index.ravel() for index in np.indices(lo.shape[1:]) + 1)
        # the edges of a channel ascend, so its bands are its rows in order; %d writes k = 3.0 as 3
        steps = (np.column_stack((k, i, step_lo.ravel(), step_hi.ravel())).tolist() for step_lo, step_hi in zip(lo, hi))
    else:
        models = [model_from_field(args.N, B, profile, args.t) for B in Bs]
        phases = [model.phases[0] for model in models]
        per_step = armchair_channels(models)  # every field step in one lockstep refinement
        steps = (
            [(ch.k, i, lo, hi) for ch in channels for i, (lo, hi) in enumerate(sorted(ch.intervals()), start=1)]
            for channels in per_step
        )
    sig = _precision()
    tables = (_sweep_rows(B, b, rows, sig) for B, b, rows in zip(Bs, phases, steps))  # written as they are made
    _write_chunks((text + "\n" for text in tables if text), args.output)
    return 0


def _finite_ck(text) -> float:
    try:
        ck = float(text)
    except ValueError:
        raise InvalidInputError(f"channel constant must be a number, got {text!r}") from None
    if not math.isfinite(ck):
        raise InvalidInputError(f"channel constant must be finite, got {ck}")
    return ck


def _zigzag_channel_constant(args) -> float:
    if args.ck is not None:
        return _finite_ck(args.ck)
    if args.k is None:
        raise InvalidInputError("--ck or --k (with a field spec) is required")
    if args.N < 2 or not 1 <= args.k <= args.N:
        raise InvalidInputError(f"--k must lie in 1..N with N >= 2, got k = {args.k}, N = {args.N}")
    b = args.b if args.b is not None else magnetic_phase(args.B or 0.0, args.N)
    return math.cos(b + math.pi * args.k / args.N)


def _asym_ck_to_zero(args, opts) -> list:
    profile = _load_profile(args)
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
        raise NotApplicableError(f"regime {args.regime} has no report for this input")
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
    except (
        FlatBandChannelError,
        InvalidInputError,
        InvalidModelError,
        InvalidParameterError,
        InvalidTruncationError,
        NotApplicableError,
        FileNotFoundError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
