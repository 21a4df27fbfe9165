#!/usr/bin/env python3
"""qradar benchmark: one workload per process, end-to-end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload threshold_bisection --seed 1 --seconds 10 --trace 0

The program is imported from ``src/`` of the checkout.  The load is a closed
loop on one thread: the next op starts when the previous one returns.  With
``--trace 0`` the run reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics from a traced pass.  Human-readable lines come first; the
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5          # set-ups timed per run: this process and fresh probes
BLAS_THREADS = 1           # one-thread load; at most nproc
# Time of workloads.speed_reference that defines the nominal machine speed.
# The gated throughput is scaled to it: on a shared 2-vCPU VM the same code
# ran 20-30% faster or slower from one minute to the next, and the reference
# tracks that drift.
REFERENCE_S = 4.0e-3

WORKLOAD_NAMES = (
    "converter_sweep",
    "threshold_bisection",
    "qi_detection_long",
    "qi_detection_short",
    "presets",
)

END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "work_per_s": "1/s"}


def _named(run, work: int, workload: str) -> dict[str, tuple[float, str]]:
    """The workload's figures under the names the design gives them, at the
    nominal machine speed; all follow from work_per_s or the same op times."""
    speed = run.speed()
    if workload == "converter_sweep":
        return {"sweep_points_per_s": (work / run.cycle_s() * speed, "points/s")}
    if workload == "threshold_bisection":
        times = run.all_times()
        named = {"threshold_p50_s": (statistics.median(times) / speed, "s")}
        tail = upper_percentile(times)
        if tail:
            named[f"threshold_p{round(tail[0] * 100)}_s"] = (tail[1] / speed, "s")
        return named
    if workload.startswith("qi_detection"):
        shape = workload.rsplit("_", 1)[1]
        return {f"qi_{shape}_decisions_per_s": (work / run.cycle_s() * speed, "decisions/s")}
    non_qi = sum(statistics.median(ts) for k, ts in run.times.items() if k != "qi_roc_low_signal")
    return {"presets_suite_s": (run.cycle_s() / speed, "s"),
            "presets_non_qi_s": (non_qi / speed, "s")}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help="only set up, then print the set-up time (used for set-up samples)")
    return parser.parse_args(argv)


def git_commit() -> str:
    """The checkout's commit, read from .git without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def set_up(args, workdir: Path):
    """Import the program, generate inputs and warm up with one untimed op.
    Returns the workload and the seconds taken."""
    start = time.perf_counter()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    kind = workload.kinds[0]
    workload.run(kind, workload.make(kind))
    return workload, time.perf_counter() - start


def probe_setup(args) -> float:
    """Set-up time of a fresh process running this workload."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--probe-setup"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


class Measurement:
    """Op wall times per kind plus attempted and failed op counts."""

    def __init__(self, kinds):
        self.times = {kind: [] for kind in kinds}
        self.reference = []
        self.attempted = 0
        self.failed = 0
        self.cycles = 0

    def all_times(self) -> list[float]:
        return [t for ts in self.times.values() for t in ts]

    def cycle_s(self) -> float:
        """One cycle of op kinds, each at its median time."""
        return sum(statistics.median(ts) for ts in self.times.values())

    def speed(self) -> float:
        """How much slower than nominal the machine ran: the median time of
        the speed reference over REFERENCE_S."""
        return statistics.median(self.reference) / REFERENCE_S


def measure(workload, seconds: float, tracer=None, cycles: int | None = None) -> Measurement:
    """Run whole cycles of op kinds for ``seconds`` (or exactly ``cycles``).

    Only ``workload.run`` is timed, and only it is traced; checks run after
    it.  The speed reference is timed before every op.
    """
    from workloads import speed_reference

    result = Measurement(workload.kinds)
    deadline = time.perf_counter() + seconds
    while True:
        for kind in workload.kinds:
            inputs = workload.make(kind)
            start = time.perf_counter()
            speed_reference()
            result.reference.append(time.perf_counter() - start)
            result.attempted += 1
            try:
                with tracer.recording() if tracer else contextlib.nullcontext():
                    start = time.perf_counter()
                    output = workload.run(kind, inputs)
                    elapsed = time.perf_counter() - start
                workload.check(kind, inputs, output)
            except Exception:  # a failed op is counted and the run goes on
                result.failed += 1
                print(f"# op failed ({kind}):\n{traceback.format_exc()}", file=sys.stderr)
                continue
            result.times[kind].append(elapsed)
        result.cycles += 1
        if (cycles is not None and result.cycles >= cycles) or (
                cycles is None and time.perf_counter() >= deadline):
            return result


def upper_percentile(values: list[float]) -> tuple[float, float] | None:
    """(q, value) for the highest of p90/p99 with at least ten samples beyond it."""
    n = len(values)
    for q in (0.99, 0.9):
        if n * (1.0 - q) >= 10:
            ordered = sorted(values)
            return q, ordered[min(n - 1, int(q * n))]
    return None


def end_to_end(args, workload, setup_s: float) -> tuple[Measurement, dict]:
    run = measure(workload, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [setup_s] + [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
    metrics = {"setup_s": statistics.median(setups), "peak_rss_mb": peak_rss_mb}
    times = run.all_times()
    work = sum(workload.work(k) for k in workload.kinds)
    if all(run.times.values()):
        metrics["work_per_s"] = work / run.cycle_s() * run.speed()
    print(f"# setup_s = {metrics['setup_s']:.4f} s (median of {len(setups)}: "
          + ", ".join(f"{s:.4f}" for s in setups) + ")")
    print(f"# peak_rss_mb = {peak_rss_mb:.1f} MB")
    if "work_per_s" in metrics:
        print(f"# work_per_s = {metrics['work_per_s']:.6g} {workload.unit}/s at nominal speed "
              f"({run.cycles} cycles, {len(times)} ops); as measured "
              f"{work / run.cycle_s():.6g}, machine {run.speed():.3f}x slower than nominal")
        for name, (value, unit) in _named(run, work, args.workload).items():
            print(f"# {name} = {value:.6g} {unit}")
        print(f"# op p50 = {statistics.median(times):.6g} s (n={len(times)})")
        tail = upper_percentile(times)
        print(f"# op p{round(tail[0] * 100)} = {tail[1]:.6g} s (n={len(times)})" if tail
              else f"# no upper percentile with 10 samples beyond it (n={len(times)})")
        for kind, ts in run.times.items():
            print(f"#   {kind}: median {statistics.median(ts):.6g} s over {len(ts)} ops, "
                  f"{workload.work(kind)} {workload.unit} each")
    return run, metrics


def traced(args, workload) -> tuple[Measurement, dict]:
    """Untraced then traced halves with fresh inputs; per-layer metrics come
    from the traced half, preset wall times from the untraced one."""
    import tracer as tracer_module
    import workloads

    plain = measure(workload, args.seconds / 2.0)
    tracer = tracer_module.Tracer().install()
    try:
        run = measure(workload, 0.0, tracer=tracer, cycles=plain.cycles)
    finally:
        tracer.restore()
    metrics = tracer.summarize(max(1, sum(len(ts) for ts in run.times.values())))
    for name in workloads.SCENARIO_PRESETS:
        walls = plain.times.get(name)  # preset names are op kinds only in presets
        metrics[f"cli.preset.{name}.wall_s"] = statistics.median(walls) if walls else 0.0
    if all(run.times.values()) and all(plain.times.values()):
        metrics["trace.overhead_ratio"] = run.cycle_s() / plain.cycle_s() - 1.0
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv.gz"
    tracer.write(spans_path)
    print(f"# {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    for key in tracer_module.RATIO_METRICS:
        if key in metrics:
            print(f"# {key} = {metrics[key]:.6g}")
    run.attempted += plain.attempted
    run.failed += plain.failed
    return run, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    # BLAS reads its thread count when numpy loads, which happens in set-up.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if not (ROOT / "src" / "qradar" / "__init__.py").is_file():
        print("perfbench: src/qradar not found; run from a qradar checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        workload, setup_s = set_up(args, workdir)
        if args.probe_setup:
            print(f"{setup_s:.9f}")
            return 0
        print(f"# qradar perfbench: workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        if args.trace:
            import tracer
            import workloads

            run, metrics = traced(args, workload)
            units = tracer.per_layer_units(workloads.SCENARIO_PRESETS)
        else:
            run, metrics = end_to_end(args, workload, setup_s)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    import numpy
    import scipy

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS, "git_commit": git_commit(),
        "attempted": run.attempted, "failed": run.failed,
        "slower_than_nominal": run.speed() if run.reference else None,
    }
    result = {
        "correct": run.failed == 0 and set(metrics) == set(units),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items() if k in metrics},
    }
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, **result}, indent=2) + "\n", encoding="utf-8")
    print("# meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
