"""Spans and counters recorded by wrapping the package's functions from outside.

``Tracer.install`` replaces each target function wherever a package module
holds it (``from .spectral import full_spectrum`` makes a second reference)
and each target method on its class; ``uninstall`` puts the originals back,
so untraced ops run the unmodified program.  Spans are kept in flat arrays
and written out once, at the end of a run.
"""

from __future__ import annotations

import sys
import time
from array import array
from pathlib import Path

import numpy as np

# (span name, module, attribute) -- a dotted attribute is a method.
TARGETS = (
    ("spectral.full_spectrum", "spectral", "full_spectrum"),
    ("spectral.union", "spectral", "assemble_band_structure"),
    ("spectral.band_edges", "spectral", "band_edges_scalar"),
    ("spectral.edges_eig", "spectral", "periodic_jacobi_band_edges"),
    ("spectral.discriminant", "spectral", "discriminant"),
    ("spectral.block", "spectral", "spectrum_block"),
    ("spectral.refine", "spectral", "_golden_refine"),
    ("spectral.fiber_block", "spectral", "floquet_block"),
    ("spectral.to_json", "spectral", "BandStructure.to_json_dict"),
    ("zigzag.decompose", "zigzag", "decompose_zigzag"),
    ("armchair.decompose", "armchair", "decompose_armchair"),
    ("armchair.tube_geometry", "armchair", "tube_geometry"),
    ("oracle.compare", "oracle", "compare_decomposition"),
    ("oracle.build", "oracle", "build_full_hamiltonian"),
    ("oracle.eig", "oracle", "FiniteHamiltonian.eigenvalues"),
    ("oracle.fibers", "oracle", "channel_fiber_eigenvalues"),
    ("cli.render", "cli", "render_json"),
    ("cli.render", "cli", "_bands_csv"),
)
OP_SPAN = "cli"  # opened by the benchmark around each cli.main call
SPANS = tuple(dict.fromkeys([OP_SPAN] + [name for name, _, _ in TARGETS]))
NO_NESTING = {"cli.render"}  # render_json recurses: only the outermost call is a span


class Tracer:
    """Span recorder for one process; spans of one op share its op id."""

    def __init__(self) -> None:
        self.name_id = {name: i for i, name in enumerate(SPANS)}
        self.names = array("i")
        self.parents = array("i")
        self.ops = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []
        self.op = -1
        self.counts = {"union.bands_in": 0, "union.bands_out": 0, "union.used": 0,
                       "oracle.eig.dim3": 0, "cli.output_bytes": 0}
        self.max_abs_dev = 0.0
        self._unions: dict[int, object] = {}  # id -> union result of the current op
        self._patches: list[tuple[object, str, object, object]] = []
        self._hooks = {
            "spectral.union": self._on_union,
            "spectral.to_json": self._on_to_json,
            "oracle.eig": self._on_eig,
            "oracle.compare": self._on_compare,
        }

    # -- recording ---------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.starts)
        self.names.append(nid)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ops.append(self.op)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self.stack.append(idx)
        return idx

    def _wrap(self, name: str, fn):
        nid = self.name_id[name]
        hook = self._hooks.get(name)
        nested_ok = name not in NO_NESTING
        names, starts, ends, stack, clock = self.names, self.starts, self.ends, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            if not nested_ok and stack and names[stack[-1]] == nid:
                return fn(*args, **kwargs)
            idx = self._open(nid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def call_op(self, op_id: int, fn, *args):
        """Run ``fn(*args)`` as the root span of op ``op_id`` with the wrappers installed."""
        self.op = op_id
        self.install()
        idx = self._open(self.name_id[OP_SPAN])
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.ends[idx] = time.perf_counter()
            self.starts[idx] = t0
            self.stack.pop()
            self.uninstall()
            self._unions.clear()
            self.op = -1

    # -- counters taken at the same boundaries -------------------------------

    def _on_union(self, args, result) -> None:
        self.counts["union.bands_in"] += sum(len(ch.bands) + len(ch.flat_bands) for ch in args[0])
        self.counts["union.bands_out"] += len(result.union_bands)
        self._unions[id(result)] = result

    def _on_to_json(self, args, result) -> None:
        if id(args[0]) in self._unions:
            self.counts["union.used"] += 1

    def _on_eig(self, args, result) -> None:
        self.counts["oracle.eig.dim3"] += args[0].matrix.shape[0] ** 3

    def _on_compare(self, args, result) -> None:
        self.max_abs_dev = max(self.max_abs_dev, float(result.max_abs_dev))

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        package = {name: mod for name, mod in sys.modules.items() if name.startswith("nanotube_bands")}
        for span, module, attr in TARGETS:
            owner = package.get(f"nanotube_bands.{module}")
            if owner is None:
                continue
            if "." in attr:  # method: patch the class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                original = getattr(cls, meth, None) if cls is not None else None
                if original is not None:
                    self._patch(cls, meth, original, self._wrap(span, original))
                continue
            original = getattr(owner, attr, None)
            if original is None:  # renamed or removed by a later change: the metric reads 0
                continue
            wrapper = self._wrap(span, original)
            for mod in package.values():
                if getattr(mod, attr, None) is original:
                    self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, wrapper))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, _ = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def layer_metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-op calls, busy (total) and self time per span name, plus the counters."""
        names = np.frombuffer(self.names, dtype=np.int32)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        dur = np.frombuffer(self.ends) - np.frombuffer(self.starts)
        covered = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(covered, parents[has_parent], dur[has_parent])
        own = dur - covered
        per_op = 1.0 / max(ops, 1)
        out: dict[str, tuple[float, str]] = {}
        for name, nid in self.name_id.items():
            sel = names == nid
            out[f"{name}.calls"] = (float(np.count_nonzero(sel)) * per_op, "count/op")
            out[f"{name}.busy_s"] = (float(dur[sel].sum()) * per_op, "s/op")
            out[f"{name}.self_s"] = (float(own[sel].sum()) * per_op, "s/op")

        unions = out["spectral.union.calls"][0] / per_op
        c = self.counts
        out["spectral.union.bands_in"] = (c["union.bands_in"] / max(unions, 1), "count/call")
        out["spectral.union.bands_out"] = (c["union.bands_out"] / max(unions, 1), "count/call")
        out["spectral.union.used_frac"] = (c["union.used"] / max(unions, 1), "frac")

        fiber = names == self.name_id["spectral.fiber_block"]
        parent_names = names[np.maximum(parents, 0)]
        grid = np.count_nonzero(fiber & has_parent & (parent_names == self.name_id["spectral.block"]))
        refine = np.count_nonzero(fiber & has_parent & (parent_names == self.name_id["spectral.refine"]))
        out["spectral.fiber_block.grid_frac"] = (grid / max(grid + refine, 1), "frac")
        out["oracle.eig.dim3_sum"] = (c["oracle.eig.dim3"] * per_op, "dim3.computed")
        out["oracle.max_abs_dev"] = (self.max_abs_dev, "energy")
        out["cli.output_bytes"] = (c["cli.output_bytes"] * per_op, "B/op")
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start,end,parent,op\n")
            for i, (nid, s, e, par, op) in enumerate(zip(self.names, self.starts, self.ends, self.parents, self.ops)):
                fh.write(f"{i},{SPANS[nid]},{s!r},{e!r},{par},{op}\n")
