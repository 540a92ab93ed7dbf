"""Benchmark of the wifislam testbed: end-to-end metrics per workload, and
per-layer metrics from a separate traced pass.

    python3 perfbench/run.py --workload pipelines --seed 1 --seconds 36 --trace 0

Run from the repository root. The package is imported from ``src/`` of the
checkout this file sits in. The command:

1. builds the workload's inputs from ``--seed``;
2. with ``--trace 0``, repeats set-up and an untraced pass while they fit
   in ``--seconds`` (at least two of each) and reports the median set-up as
   ``setup_s`` and the median pass as ``wall_s`` and ``frames_per_s``.
   Set-ups and passes alternate so that both sample the same stretch of
   time on a machine whose speed drifts. Halfway through, one more pass
   runs under ``tracemalloc`` for ``peak_mem_mb``;
   with ``--trace 1``, alternates untraced and traced passes while they fit
   in ``--seconds`` (at least two of each) and reports the per-layer metrics of
   `spans.LAYER_METRICS`, the outputs' quality figures and the tracing
   overhead;
3. checks every operation of every pass (see `workloads`) and that the
   digest of each operation's deterministic outputs is the same in every
   pass; a traced pass must also pass `spans.Tracer.cross_check`.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 only when every
operation and check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

# end-to-end metric name -> unit
END_TO_END = {"wall_s": "s", "frames_per_s": "frames/s", "setup_s": "s", "peak_mem_mb": "MB"}
# figures of the outputs themselves; deterministic for a seed, reported with the per-layer metrics
QUALITY = {
    "quality.fail_ratio": "ratio",
    "quality.cost_units": "units",
    "quality.fp_loops": "count",
    "quality.fn_loops": "count",
    "quality.rmse_m": "m",
    "quality.loc_within_4m": "ratio",
}


def _import_program():
    """Import wifislam from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    if not (src / "wifislam" / "__init__.py").is_file():
        sys.exit(f"error: no wifislam package under {src}")
    sys.path.insert(0, str(src))
    import wifislam

    if Path(wifislam.__file__).resolve().parent != (src / "wifislam").resolve():
        sys.exit(f"error: imported wifislam from {wifislam.__file__}, not from {src}")


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "workload": workload,
        "seed": seed,
    }


def spread(values: list[float]) -> str:
    """Median, interquartile range and sample count, for the human-readable report."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return f"median {med:.6g} IQR [{q1:.6g}, {q3:.6g}] n={len(values)}"
    return f"median {med:.6g} n={len(values)}"


class Run:
    """The passes of one benchmark run and the outcomes of their operations."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.passes: list[list] = []  # Op lists, one per pass
        self.problems: list[str] = []

    def timed_pass(self, tracer=None) -> float:
        """Wall seconds of one pass, with the tracer's spans installed if one is given."""
        if tracer is not None:
            tracer.install()
        try:
            t0 = perf_counter()
            raw = self.workload.run()
            wall = perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.restore()
        self.passes.append(self.workload.check(raw))
        return wall

    def memory_pass(self) -> float:
        """Peak memory traced during one pass, in MB."""
        tracemalloc.start()
        try:
            raw = self.workload.run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.passes.append(self.workload.check(raw))
        return peak / 1e6

    def failed_ops(self) -> list[str]:
        """Operations that failed a check, or whose digest differs from the first pass's."""
        first = self.passes[0]
        failed = []
        for k, ops in enumerate(self.passes):
            for op, ref in zip(ops, first):
                if op.problems:
                    failed.append(f"pass {k} {op.name}: {'; '.join(op.problems)}")
                elif op.digest != ref.digest:
                    failed.append(f"pass {k} {op.name}: digest {op.digest} differs from pass 0's {ref.digest}")
        return failed

    def digest(self) -> str:
        return ",".join(op.digest for op in self.passes[0])

    def quality(self) -> dict[str, float]:
        ops = self.passes[0]
        rmse = [op.quality["rmse_m"] for op in ops if "rmse_m" in op.quality]
        within = [op.quality["loc_within_4m"] for op in ops if "loc_within_4m" in op.quality]
        attempted = sum(len(p) for p in self.passes)
        return {
            "quality.fail_ratio": len(self.failed_ops()) / attempted,
            "quality.cost_units": sum(op.quality.get("cost_units", 0.0) for op in ops),
            "quality.fp_loops": sum(op.quality.get("fp_loops", 0) for op in ops),
            "quality.fn_loops": sum(op.quality.get("fn_loops", 0) for op in ops),
            "quality.rmse_m": statistics.fmean(rmse) if rmse else 0.0,
            "quality.loc_within_4m": within[0] if within else 0.0,
        }


def setup(workload, seed: int) -> list[float]:
    times = []
    for _ in range(workload.setup_reps):
        t0 = perf_counter()
        workload.setup(seed)
        times.append(perf_counter() - t0)
    return times


def measure(run: Run, seed: int, seconds: float) -> dict:
    setups, walls = [], []
    # half the timed passes before the memory pass and half after it, so that they
    # sample a longer stretch of time on a machine whose speed drifts
    for half in range(2):
        deadline = perf_counter() + seconds / 2
        first = len(walls)
        # stop before a set-up and pass that would likely end after the deadline
        while len(walls) == first or perf_counter() + statistics.median(setups) + statistics.median(walls) < deadline:
            setups += setup(run.workload, seed)
            walls.append(run.timed_pass())
        if half == 0:
            peak_mb = run.memory_pass()
    wall = statistics.median(walls)
    frames = sum(op.frames for op in run.passes[0])
    print(f"setup_s: {spread(setups)}")
    print(f"wall_s: {spread(walls)}")
    return {"wall_s": wall, "frames_per_s": frames / wall, "setup_s": statistics.median(setups), "peak_mem_mb": peak_mb}


def measure_traced(run: Run, seed: int, seconds: float) -> dict:
    import spans

    setup(run.workload, seed)
    untraced, traced, layer = [], [], []
    deadline = perf_counter() + seconds
    while len(traced) < 2 or perf_counter() + statistics.median(untraced) + statistics.median(traced) < deadline:
        untraced.append(run.timed_pass())
        tracer = spans.Tracer()
        traced.append(run.timed_pass(tracer))
        fallbacks = next((op.quality["localize_fallbacks"] for op in run.passes[-1]
                          if "localize_fallbacks" in op.quality), None)
        run.problems += [f"traced pass {len(traced) - 1}: {p}" for p in tracer.cross_check(fallbacks)]
        layer.append(tracer.metrics())
    if tracer.missing:
        print(f"not traced, missing from the program: {', '.join(tracer.missing)}")
    print(f"untraced wall_s: {spread(untraced)}")
    print(f"traced wall_s: {spread(traced)}")
    metrics = spans.median_metrics(layer)
    metrics["trace.overhead_share"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_program()
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](work)
        print("env: " + json.dumps(environment(args.workload, args.seed), sort_keys=True))

        run = Run(workload)
        if args.trace:
            values = measure_traced(run, args.seed, args.seconds)
            values.update(run.quality())
            units = {k: u for k, (u, _better) in spans.LAYER_METRICS.items()}
            units.update(QUALITY)
            units["trace.overhead_share"] = "ratio"
        else:
            values = measure(run, args.seed, args.seconds)
            units = END_TO_END
            for name, value in run.quality().items():
                print(f"{name}: {value!r} {QUALITY[name]}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    failed = run.failed_ops()
    attempted = sum(len(p) for p in run.passes)
    for line in failed + run.problems:
        print(f"FAILED {line}")
    print(f"operations: {attempted} attempted, {len(failed)} failed")
    print(f"digest: {run.digest()}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name}: {m['value']!r} {m['unit']}")
    correct = not failed and not run.problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failed), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
