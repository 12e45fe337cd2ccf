"""Benchmark of the nanotube-bands CLI: four seeded closed-loop workloads.

Run from the repository root:

    python3 bench/run.py --workload zigzag_bands --seed 1 --seconds 25 --trace 0

One client issues ops back to back; an op is one in-process
``nanotube_bands.cli.main(argv)`` call with stdout captured in memory, timed
from outside.  The first whole stratified blocks of the op stream, a number
fixed per workload, are the checked sample: the timed loop always covers them,
and after it they are checked against the torus oracle.  ``attempted`` and
``failed`` count that sample, so two runs of one seed report the same counts
however many ops their timed loops reach.  The last stdout line is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced run
with ``--trace 1``.  A fuller record (provenance, output hash, failing argv) goes to
``.bench_out/results/``; the spans of a traced run to ``.bench_out/spans/``.
See bench/README.md.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # harness start: set-up time counts from here

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
MIN_OPS = 100  # p90 then has at least ten samples beyond it
WALL_CAP_S = 100.0  # stop the timed loop here even if the checked sample is not covered
SETUP_SAMPLES = 7  # set-ups per run (this process plus fresh probe processes); median reported
BLAS_THREADS = "1"
RERUN_OPS = 5  # ops rerun after the loop to confirm they print the same bytes


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="summed op time to measure")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_program():
    """Import the package from this checkout's src/ only (never an installed copy)."""
    src = ROOT / "src"
    if not (src / "nanotube_bands" / "__init__.py").is_file():
        raise SystemExit(f"bench: no program source at {src}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT / "bench"))
    import nanotube_bands.cli as cli

    if Path(cli.__file__).resolve().parent.parent != src:
        raise SystemExit(f"bench: imported nanotube_bands from {cli.__file__}, not {src}")
    return cli


def call_cli(main, argv, tracer=None, op_id=-1):
    """One op: (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = main(argv) if tracer is None else tracer.call_op(op_id, main, argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash of the program is a failed op, not a harness error
            code = -1
            traceback.print_exc(file=err)
        dt = time.perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), dt


def provenance(args, ops: int, checked: int, sha: str) -> dict:
    import numpy as np

    try:
        openblas = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version", "unknown")
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": ops,
        "output_sha256": sha,
        "checked_ops": checked,
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": openblas,
    }


def setup_probe(args) -> float:
    """Set-up time of a fresh process running the same set-up as this one."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    return float(json.loads(done.stdout.splitlines()[-1])["setup_s"])


class Outputs:
    """Exit code and stdout of the checked sample's ops, in op order."""

    def __init__(self, size: int) -> None:
        self.size = size
        self.kept: list[tuple[int, str]] = []

    def add(self, code: int, text: str) -> None:
        if len(self.kept) < self.size:
            self.kept.append((code, text))

    def __getitem__(self, n: int) -> str:
        return self.kept[n][1]

    def __len__(self) -> int:
        return len(self.kept)

    def sha256(self) -> str:
        digest = hashlib.sha256()
        for code, text in self.kept:
            digest.update(f"{code}\n".encode())
            digest.update(text.encode())
        return digest.hexdigest()


def timed_loop(main, stream, seconds: float, outputs: Outputs, probe):
    """Closed loop, one client: distinct ops back to back until ``seconds`` of op
    time and the whole checked sample.

    Between ops, at evenly spaced points of the measured time, ``probe()``
    times a fresh set-up, so the set-up samples spread over the whole run.
    """
    records = []  # (op, argv, exit code, last stderr line, seconds)
    probes: list[float] = []
    measured = 0.0
    start = time.perf_counter()
    while (measured < seconds or len(records) < max(MIN_OPS, outputs.size)) and time.perf_counter() - start < WALL_CAP_S:
        op, argv = stream[len(records)]
        code, out, err, dt = call_cli(main, argv)
        outputs.add(code, out)
        records.append((op, argv, code, err.strip().splitlines()[-1:], dt))
        measured += dt
        if len(probes) < SETUP_SAMPLES - 1 and measured >= seconds * (len(probes) + 1) / SETUP_SAMPLES:
            probes.append(probe())
    while len(probes) < SETUP_SAMPLES - 1:
        probes.append(probe())
    nondeterministic = [n for n, rec in enumerate(records[:RERUN_OPS])
                        if call_cli(main, rec[1])[:2] != (rec[2], outputs[n])]
    return records, nondeterministic, probes


def traced_pairs(main, stream, seconds: float, outputs: Outputs, tracer):
    """Each op runs untraced and traced, alternating which goes first."""
    records = []
    nondeterministic = []
    untraced = traced = 0.0
    start = time.perf_counter()
    while (untraced + traced < seconds or not records) and time.perf_counter() - start < WALL_CAP_S:
        i = len(records)
        op, argv = stream[i]
        if i % 2 == 0:
            plain = call_cli(main, argv)
        code, out, err, dt = call_cli(main, argv, tracer, i)
        if i % 2 == 1:
            plain = call_cli(main, argv)
        if (plain[0], plain[1]) != (code, out):
            nondeterministic.append(i)
        tracer.counts["cli.output_bytes"] += len(out.encode())
        outputs.add(code, out)
        records.append((op, argv, code, err.strip().splitlines()[-1:], dt))
        untraced += plain[3]
        traced += dt
    return records, nondeterministic, untraced, traced


def finish_sample(main, stream, outputs: Outputs):
    """Untimed runs of the checked sample's ops that the loop did not reach."""
    extra = []
    for i in range(len(outputs), outputs.size):
        op, argv = stream[i]
        code, out, err, _ = call_cli(main, argv)
        outputs.add(code, out)
        extra.append((op, argv, code, err.strip().splitlines()[-1:], None))
    return extra


def run(args, cli, scratch: Path) -> int:
    from checks import check_op
    from tracing import Tracer
    from workloads import DESIGNS, WARMUP, WORKLOADS, OpStream, write_potential

    if args.workload not in WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    stream = OpStream(args.workload, args.seed, scratch)
    stream.prepare(0)
    warm = WARMUP[args.workload]
    call_cli(cli.main, warm.argv(write_potential(warm, scratch / "warmup.json")))
    setup_s = time.perf_counter() - T0
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    outputs = Outputs(DESIGNS[args.workload].sample)
    tracer = Tracer() if args.trace else None
    if tracer is None:
        records, nondeterministic, probes = timed_loop(
            cli.main, stream, args.seconds, outputs, lambda: setup_probe(args))
    else:
        records, nondeterministic, untraced, traced = traced_pairs(
            cli.main, stream, args.seconds, outputs, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # The checked sample is fixed by the seed and never by outcome, so that two
    # runs of one seed count the same failed ops.  Only a traced run, or a loop
    # stopped by WALL_CAP_S, leaves some of it to run here, untimed.
    sample = (records + finish_sample(cli.main, stream, outputs))[:outputs.size]
    failures = []
    for n, (op, argv, code, err, _) in enumerate(sample):
        reason = check_op(op, code, outputs[n])
        if reason is not None:
            failures.append({"op": n, "reason": reason, "argv": argv,
                             "potential": list(op.potential), "stderr": err})
    # The program's wrong answers are counted as failed ops; the run itself is
    # invalid only when an op printed different bytes twice.
    correct = not nondeterministic

    ops, checked = len(records), len(outputs)
    times = sorted(rec[4] for rec in records)
    if tracer is None:
        setup = [setup_s] + probes
        pct = statistics.quantiles(times, n=10, method="inclusive") if ops > 1 else times * 9
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "ops_per_s": (ops / sum(times), "1/s"),
            "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
            "op_p90_ms": (pct[8] * 1e3, "ms"),
            "ok_frac": (1.0 - len(failures) / checked, "frac"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = tracer.layer_metrics(ops)
        metrics["trace.ops_per_s_untraced"] = (ops / untraced, "1/s")
        metrics["trace.ops_per_s_traced"] = (ops / traced, "1/s")
        metrics["trace.overhead_frac"] = (1.0 - untraced / traced, "frac")
        tracer.write_spans(OUT / "spans" / f"{args.workload}-seed{args.seed}.csv")

    record = provenance(args, ops, checked, outputs.sha256())
    record.update({
        "correct": correct,
        "failed": len(failures),
        "failed_frac": len(failures) / checked,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failures": failures,
    })
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    for f in failures:
        print(json.dumps({"failed_op": f["op"], "reason": f["reason"], "argv": f["argv"], "potential": f["potential"]}))
    print(json.dumps({k: v for k, v in record.items() if k not in ("metrics", "failures", "correct", "failed")}))
    print(json.dumps({"correct": correct, "attempted": checked, "failed": len(failures), "metrics": record["metrics"]}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_program()
    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, cli, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
