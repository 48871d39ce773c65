"""gpexact benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The package is imported from ``src/``. Each
op is timed on its own; the next op starts when the previous one returned.
Every op is then checked outside the timed span, and a failed check makes
the command exit 1.

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics of a traced run (see README.md). The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. The full
record (environment, every op's inputs, latencies and checks; spans when
traced) goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5      # fresh processes timed for setup_s
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                    "op_p90_ms": "ms", "peak_rss_mb": "MB", "ok_frac": "frac"}


def pin_blas_threads() -> int:
    """One BLAS thread, set before numpy is imported. Ops come from a single
    caller, and a multi-threaded BLAS call on a shared host waits for its
    slowest thread, which doubles its exposure to other tenants' load."""
    for var in BLAS_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def import_gpexact():
    src = ROOT / "src"
    if not (src / "gpexact" / "__init__.py").is_file():
        sys.exit(f"perfbench: no gpexact package under {src}")
    sys.path.insert(0, str(src))
    import gpexact
    if Path(gpexact.__file__).resolve().parent != src / "gpexact":
        sys.exit(f"perfbench: imported gpexact from {gpexact.__file__}, "
                 f"not from {src}")
    return gpexact


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(nproc: int) -> dict:
    import numpy
    import scipy
    return {"nproc": nproc, "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": {v: int(os.environ[v]) for v in BLAS_VARS},
            "git_commit": git_commit()}


def setup_seconds(args) -> list[float]:
    """Wall time from process start to ready, in fresh processes that do the
    same import, model building and input generation as this one."""
    out = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True)
        # CLOCK_MONOTONIC is shared by all processes of the machine
        out.append(float(proc.stdout.split()[-1]) - start)
    return out


class Loop:
    """Closed loop over a workload's ops: time the call, then gate it."""

    def __init__(self, wl, dir_bytes, probe=None):
        self.wl = wl
        self.dir_bytes = dir_bytes
        self.probe = probe
        self.records: list[dict] = []
        self.attempted = 0
        self.failed = 0

    def run_op(self, op, phase: str, tracer=None) -> float:
        self.attempted += 1
        rec = {"op": len(self.records), "phase": phase, "kind": op.kind,
               "inputs": op.inputs}
        segments = []        # timed stretches of the op, between laps

        def lap():
            nonlocal mark
            segments.append((mark, time.perf_counter()))
            if self.probe is not None:
                self.probe.measure()
            mark = time.perf_counter()

        if tracer is not None:
            tracer.begin_op(rec["op"])
        mark = time.perf_counter()
        try:
            op.result = op.run(lap)
            error = None
        except Exception as err:     # an op that raises is a failed op
            error = f"{type(err).__name__}: {err}"
        finally:
            segments.append((mark, time.perf_counter()))
            if tracer is not None:
                tracer.end_op()
        elapsed = sum(end - start for start, end in segments)
        rec["seconds"] = elapsed
        rec["segments"] = segments
        if self.probe is not None:
            self.probe.measure_if_due()
        if error is None:
            try:
                checks = op.gate(op.result)
            except Exception as err:
                checks = {}
                error = f"gate {type(err).__name__}: {err}"
            rec["checks"] = {k: v for k, (v, _) in checks.items()}
            bad = [k for k, (v, tol) in checks.items()
                   if not (math.isfinite(v) and v <= tol)]
            if bad:
                error = "failed checks: " + ", ".join(bad)
        if self.wl.workdir is not None:
            rec["bytes_written"] = self.dir_bytes(self.wl.workdir)
        rec["error"] = error
        if error is not None:
            self.failed += 1
            print(f"op {rec['op']} ({op.kind}) failed: {error}",
                  file=sys.stderr)
        self.records.append(rec)
        return elapsed

    def for_seconds(self, seconds: float, phase: str) -> list[float]:
        ops = self.wl.ops()
        lat = []
        start = time.perf_counter()
        while not lat or time.perf_counter() - start < seconds:
            lat.append(self.run_op(next(ops), phase))
        return lat

    def at_reference_speed(self, phase: str) -> list[float]:
        """Latencies of one phase scaled to reference speed (speed.py)."""
        self.probe.measure()
        out = []
        for rec in self.records:
            if rec["phase"] == phase:
                rec["reference_seconds"] = sum(
                    (end - start) * self.probe.factor(start, end)
                    for start, end in rec["segments"])
                out.append(rec["reference_seconds"])
        return out

    def paired(self, seconds: float, tracer, gx) -> tuple[list, list]:
        """Run each op twice in a row, untraced and traced, alternating which
        goes first, so that drifts in machine speed cancel in the ratio. The
        wrappers are in place only for the traced run."""
        ops = self.wl.ops()
        plain, traced = [], []
        start = time.perf_counter()
        while not plain or time.perf_counter() - start < seconds:
            op = next(ops)
            order = (False, True) if len(plain) % 2 == 0 else (True, False)
            for use in order:
                if use:
                    tracer.install(gx)
                    try:
                        traced.append(self.run_op(op, "traced", tracer))
                    finally:
                        tracer.uninstall()
                else:
                    plain.append(self.run_op(op, "untraced"))
        return plain, traced


def latency_stats(lat: list[float]) -> dict:
    p90 = (statistics.quantiles(lat, n=10, method="inclusive")[8]
           if len(lat) > 1 else lat[0])
    return {"ops_per_s": len(lat) / sum(lat),
            "op_p50_ms": 1e3 * statistics.median(lat),
            "op_p90_ms": 1e3 * p90}


def end_to_end(lat: list[float], setups: list[float], loop: Loop) -> dict:
    return {
        "setup_s": statistics.median(setups),
        **latency_stats(lat),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "ok_frac": (loop.attempted - loop.failed) / loop.attempted,
    }


def per_layer_units(name: str) -> str:
    if name.startswith("share.") or name == "trace.overhead_frac":
        return "frac"
    if name.endswith("_us"):
        return "us"
    if name.endswith("ms") or "_ms." in name:
        return "ms"
    if name == "cli.bytes_written":
        return "B"
    return "count"


def main(argv=None) -> int:
    nproc = pin_blas_threads()
    from speed import SpeedProbe                      # imports numpy
    from workloads import NAMES, README_SCENARIO, build, dir_bytes

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    gx = import_gpexact()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    wl = build(gx, args.workload, args.seed, OUT / "work" / tag)
    if args.setup_only:
        print(time.monotonic())
        return 0

    loop = Loop(wl, dir_bytes, SpeedProbe() if args.trace == 0 else None)
    result = {"workload": wl.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(nproc), "models": wl.models}
    if args.trace == 0:
        setups = setup_seconds(args)
        loop.probe.measure()
        wall = loop.for_seconds(args.seconds, "timed")
        metrics = end_to_end(loop.at_reference_speed("timed"), setups, loop)
        result["setup_seconds"] = setups
        result["wall_clock"] = latency_stats(wall)
        result["probe_seconds"] = [d for _, d in loop.probe.samples]
        units = END_TO_END_UNITS
    else:
        from spans import Tracer, layer_metrics
        tracer = Tracer()
        loop.for_seconds(0.0, "warmup")   # one op to fill caches
        plain, traced = loop.paired(args.seconds, tracer, gx)
        metrics = layer_metrics(tracer, README_SCENARIO["tasks"])
        metrics["model.build_ms"] = wl.build_ms
        written = [r.get("bytes_written", 0) for r in loop.records
                   if r["phase"] == "traced"]
        metrics["cli.bytes_written"] = sum(written) / len(written)
        metrics["trace.overhead_frac"] = sum(traced) / sum(plain) - 1.0
        units = {k: per_layer_units(k) for k in metrics}
        OUT.mkdir(parents=True, exist_ok=True)
        (OUT / f"{tag}.spans.json").write_text(json.dumps(tracer.records()))

    result["metrics"] = metrics
    result["ops"] = loop.records
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(result, indent=1))

    print(f"workload {wl.name}  seed {args.seed}  ops {loop.attempted}  "
          f"failed {loop.failed}  record {OUT / (tag + '.json')}")
    print("environment " + json.dumps(result["environment"]))
    if "wall_clock" in result:
        print("wall clock " + json.dumps(result["wall_clock"]))
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0 if loop.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
