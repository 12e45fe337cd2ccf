"""Command-line front end: model assembly, dispatch, deterministic output.

Exit codes: 0 success, 1 completed but a requested check failed, 2 bad input,
3 internal consistency failure.  Floats are rendered with a fixed number of
significant digits (env NANOTUBE_BANDS_PRECISION, default 12) so identical
configurations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import asymptotics as asy
from .armchair import tube_geometry
from .core import ArmchairModel, PotentialProfile, ZigzagModel, load_potential, magnetic_phase
from .errors import (
    InternalConsistencyError,
    InvalidInputError,
    InvalidModelError,
    InvalidParameterError,
    InvalidTruncationError,
    NotApplicableError,
)
from .oracle import compare_decomposition
from .spectral import full_spectrum


def _precision() -> int:
    try:
        return max(1, int(os.environ.get("NANOTUBE_BANDS_PRECISION", "12")))
    except ValueError:
        return 12


def fmt_float(x: float, sig: int | None = None) -> str:
    sig = _precision() if sig is None else sig
    if isinstance(x, float) and not math.isfinite(x):
        return '"inf"' if x > 0 else ('"-inf"' if x < 0 else '"nan"')
    return f"{float(x):.{sig}g}"


def render_json(obj, indent: int = 0) -> str:
    """JSON with deterministic float formatting (insertion-ordered keys)."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  "{k}": {render_json(v, indent + 1)}' for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        flat = all(isinstance(x, (int, float, str, bool)) or x is None for x in seq)
        if flat:
            return "[" + ", ".join(render_json(x) for x in seq) + "]"
        items = [f"{pad}  " + render_json(x, indent + 1) for x in seq]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt_float(float(obj))
    raise TypeError(f"cannot render {type(obj)!r}")


def _write(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


# ---------------------------------------------------------------------------
# model assembly


def _add_model_args(sp, lattice_required: bool = True) -> None:
    sp.add_argument("--lattice", choices=("zigzag", "armchair"), required=lattice_required)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--b", type=float, default=None, help="zigzag hopping phase")
    sp.add_argument("--B", type=float, default=None, help="physical field amplitude")
    sp.add_argument("--b1", type=float, default=None)
    sp.add_argument("--b2", type=float, default=None)
    sp.add_argument("--b3", type=float, default=None)
    sp.add_argument("--potential", type=str, default=None, help="JSON array of on-site values")
    sp.add_argument("--t", type=float, default=1.0, help="potential coupling")


def _load_profile(args) -> PotentialProfile:
    if args.potential is None:
        raise InvalidInputError("--potential is required for this command")
    return load_potential(args.potential)


def build_model(args):
    profile = _load_profile(args)
    triple = [x for x in (args.b1, args.b2, args.b3) if x is not None]
    if args.lattice == "zigzag":
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
        _, phases = tube_geometry(args.N, args.B)
    elif len(triple) == 3:
        phases = (args.b1, args.b2, args.b3)
    else:
        raise InvalidInputError("armchair model needs --B or all of --b1 --b2 --b3")
    return ArmchairModel(N=args.N, phases=phases, potential=profile, t=args.t)


def _check_grid(grid: int) -> int:
    if grid < 16 or grid & (grid - 1) != 0:
        raise InvalidInputError(f"--grid must be a power of two >= 16, got {grid}")
    return grid


# ---------------------------------------------------------------------------
# commands


def _bands_csv(structure) -> str:
    lines = []
    for ch in structure.channels:
        for idx, (lo, hi) in enumerate(ch.bands, start=1):
            lines.append(f"{ch.k},{idx},{fmt_float(lo)},{fmt_float(hi)}")
    for ch in structure.channels:
        for e in sorted(ch.flat_bands):
            lines.append(f"flat,{ch.k},{fmt_float(e)}")
    return "\n".join(lines) + "\n"


def cmd_bands(args) -> int:
    model = build_model(args)
    structure = full_spectrum(model, grid_size=_check_grid(args.grid))
    if args.format == "csv":
        _write(_bands_csv(structure), args.output)
    else:
        _write(render_json(structure.to_json_dict()), args.output)
    return 0


def cmd_sweep(args) -> int:
    if args.B_steps < 1:
        raise InvalidInputError("--B-steps must be >= 1")
    profile = _load_profile(args)
    grid = _check_grid(args.grid)
    if args.B_steps == 1:
        Bs = [args.B_start]
    else:
        if args.B_stop is None:
            raise InvalidInputError("--B-stop is required when --B-steps > 1")
        if not (math.isfinite(args.B_start) and math.isfinite(args.B_stop)):
            raise InvalidInputError(f"field range must be finite, got {args.B_start} .. {args.B_stop}")
        Bs = list(np.linspace(args.B_start, args.B_stop, args.B_steps))
    lines = []
    for B in Bs:
        if args.lattice == "zigzag":
            b = magnetic_phase(B, args.N)
            model = ZigzagModel(N=args.N, b=b, potential=profile, t=args.t)
        else:
            _, phases = tube_geometry(args.N, B)
            b = phases[0]
            model = ArmchairModel(N=args.N, phases=phases, potential=profile, t=args.t)
        structure = full_spectrum(model, grid_size=grid)
        for ch in structure.channels:
            entries = [(lo, hi) for lo, hi in ch.bands] + [(e, e) for e in ch.flat_bands]
            for idx, (lo, hi) in enumerate(sorted(entries), start=1):
                lines.append(
                    f"{fmt_float(B)},{fmt_float(b)},{ch.k},{idx},{fmt_float(lo)},{fmt_float(hi)}"
                )
    _write("\n".join(lines) + "\n", args.output)
    return 0


def _zigzag_channel_constant(args) -> float:
    if args.ck is not None:
        return args.ck
    if args.k is None:
        raise InvalidInputError("--ck or --k (with a field spec) is required")
    b = args.b if args.b is not None else magnetic_phase(args.B or 0.0, args.N)
    return math.cos(b + math.pi * args.k / args.N)


def cmd_asym(args) -> int:
    regime = args.regime
    reports = []
    if regime == "ck_to_zero":
        profile = _load_profile(args)
        cks = [float(x) for x in args.ck_values.split(",")] if args.ck_values else [0.02, 0.01, 0.005]
        reports = asy.measure_ck_shrink(profile, cks, s=args.s, t=args.t, tolerance=args.tolerance or 0.05)
    elif regime == "small_t":
        if args.potential is not None:
            profile = load_potential(args.potential)
        elif args.sample_period is not None:
            profile = asy.sample_open_gap_potential(args.sample_period, seed=args.seed)
        else:
            raise InvalidInputError("small_t needs --potential or --sample-period")
        c_k = _zigzag_channel_constant(args)
        reports = asy.measure_small_t_slopes(profile, c_k, tolerance=args.tolerance or 1e-3)
    elif regime == "large_t_zigzag":
        args.lattice = "zigzag"
        model = build_model(args)
        reports, extra = asy.measure_large_t_zigzag(model, tolerance=args.tolerance or 0.1)
        for name, ok in extra.items():
            if ok is None:
                continue
            reports.append(
                asy.AsymptoticReport(
                    regime=regime,
                    params={"check": name},
                    predicted=0.0,
                    measured=0.0 if ok else 1.0,
                    tolerance=0.5,
                )
            )
    elif regime == "large_t_armchair":
        args.lattice = "armchair"
        model = build_model(args)
        k = args.k if args.k is not None else model.N
        reports = asy.measure_large_t_armchair(model, k=k, tolerance=args.tolerance or 0.1)
    elif regime == "small_v_armchair":
        profile = _load_profile(args)
        reports = asy.measure_small_v_armchair(profile, N=args.N)
    elif regime == "low_energy_window":
        args.lattice = "zigzag"
        model = build_model(args)
        reports = asy.measure_low_energy_window(model, tolerance=args.tolerance or 1e-8)
    else:
        raise InvalidInputError(f"unknown regime {regime!r}")
    _write(render_json([r.to_json_dict() for r in reports]), args.output)
    return 0 if all(r.passed for r in reports) else 1


def cmd_verify(args) -> int:
    model = build_model(args)
    L = args.L if args.L is not None else 3 * model.potential.p
    report = compare_decomposition(model, L, tol=args.tol)
    _write(render_json(report.to_json_dict()), args.output)
    return 0 if report.passed else 3


def cmd_geometry(args) -> int:
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
    _add_model_args(sp)
    sp.add_argument("--grid", type=int, default=512)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--output", type=str, default=None)
    sp.set_defaults(func=cmd_bands)

    sp = sub.add_parser("sweep", help="band edges over a field range")
    _add_model_args(sp)
    sp.add_argument("--B-start", dest="B_start", type=float, required=True)
    sp.add_argument("--B-stop", dest="B_stop", type=float, default=None)
    sp.add_argument("--B-steps", dest="B_steps", type=int, default=1)
    sp.add_argument("--grid", type=int, default=512)
    sp.add_argument("--output", type=str, default=None)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("asym", help="measured-vs-predicted asymptotic reports")
    sp.add_argument("--regime", choices=asy.REGIMES, required=True)
    _add_model_args(sp, lattice_required=False)
    sp.add_argument("--k", type=int, default=None, help="channel index")
    sp.add_argument("--ck", type=float, default=None, help="channel constant, overrides --k")
    sp.add_argument("--ck-values", dest="ck_values", type=str, default=None,
                    help="comma list of channel constants (ck_to_zero)")
    sp.add_argument("--s", type=int, default=1, help="band index (ck_to_zero)")
    sp.add_argument("--sample-period", dest="sample_period", type=int, default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--tolerance", type=float, default=None)
    sp.add_argument("--output", type=str, default=None)
    sp.set_defaults(func=cmd_asym)

    sp = sub.add_parser("verify", help="full-Hamiltonian vs channel-decomposition oracle")
    _add_model_args(sp)
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


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
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
