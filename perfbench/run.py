"""Run one benchmark workload against the collapse_sim sources of this checkout.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

One client runs ops in a closed loop for ``--seconds`` seconds (at least
three ops), checking each op's output outside the timed region. Each op is
bracketed by two runs of the workload's calibration kernel (see
calibrate.py); ``op_cal.p50`` is the median of op time over the mean of its
two kernel times. Every metric is printed first as a ``name value unit
note`` line; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``, where ``metrics`` holds the
end-to-end metrics that BENCHMARK.json lists (``--trace 0``) or its
per-layer metrics (``--trace 1``).

``--trace 0`` also times set-up: ``setup_s`` is the median over several
fresh processes of importing collapse_sim and building the inputs, one
started before the op loop and the rest between ops, evenly over the run.
``--trace 1`` alternates untraced and traced ops; the per-layer numbers are
per traced op, and ``trace_overhead`` is the traced ``op_cal`` median over
the untraced one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext

import checkout

SETUP_PROBES = 9  # one before the op loop, the rest spread over it
MIN_OPS = 3
PROBE_TIMEOUT_S = 60


def environment() -> str:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = os.environ.get("OPENBLAS_NUM_THREADS", f"{os.cpu_count()} (default = nproc)")
    return (
        f"python {platform.python_version()}, numpy {np.__version__}, "
        f"{blas.get('name')} {blas.get('version')}, openblas threads {threads}, "
        f"nproc {os.cpu_count()}"
    )


class SetupProbes:
    """Set-up times, each from a fresh process that imports collapse_sim and
    builds the workload's inputs. The host's speed drifts over the run, so the
    probes are spread over it rather than taken at one moment."""

    def __init__(self, workload: str, seed: int, workdir: str):
        self.argv = [sys.executable,
                     os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py"),
                     "--workload", workload, "--seed", str(seed)]
        self.workdir = workdir
        self.samples: list[float] = []

    def take(self) -> None:
        probe_dir = os.path.join(self.workdir, f"probe{len(self.samples)}")
        os.makedirs(probe_dir)
        done = subprocess.run(self.argv + ["--workdir", probe_dir], capture_output=True,
                              text=True, timeout=PROBE_TIMEOUT_S, check=True)
        self.samples.append(float(done.stdout.strip().splitlines()[-1]))

    def until(self, count: int) -> None:
        while len(self.samples) < min(count, SETUP_PROBES):
            self.take()


def run_loop(work, seconds: float, tracer, kernel, probes=None):
    """Closed loop with one client. With a tracer, odd-numbered ops are traced.
    With set-up probes, they are taken between ops, evenly over the run.

    Returns, per completed op, its seconds and its ``op_cal`` ratio: the
    seconds over the mean of the kernel times just before and just after it.
    """
    from workloads import CheckFailed

    plain, traced = [], []
    cal_s: list[float] = []
    failures: list[str] = []
    attempted = 0
    busy = 0.0
    start = time.perf_counter()
    while attempted < MIN_OPS or time.perf_counter() - start < seconds:
        if probes is not None:
            probes.until(1 + int((SETUP_PROBES - 1) * (time.perf_counter() - start) / seconds))
        i = attempted
        attempted += 1
        is_traced = tracer is not None and i % 2 == 1
        cal_before = kernel.seconds()
        try:
            with tracer.installed() if is_traced else nullcontext():
                t0 = time.perf_counter()
                try:
                    result = work.op(i)
                finally:
                    elapsed = time.perf_counter() - t0
                    busy += elapsed
        except Exception as exc:  # an op that raises is a failed op, not a harness error
            failures.append(f"{type(exc).__name__}: {exc}")
            continue
        cal = 0.5 * (cal_before + kernel.seconds())
        cal_s.append(cal)
        try:
            work.check(i, result)
        except CheckFailed as exc:
            failures.append(f"check failed: {exc}")
            continue
        (traced if is_traced else plain).append((elapsed, elapsed / cal))
    n_traced = attempted // 2 if tracer is not None else 0
    return plain, traced, cal_s, failures, attempted, busy, n_traced


def p90_if_resolved(samples: list[float]):
    """The 90th percentile, if at least ten samples lie above it."""
    if len(samples) < 2:
        return None
    p90 = statistics.quantiles(samples, n=10)[-1]
    return p90 if sum(x > p90 for x in samples) >= 10 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    checkout.add_source_path()
    import calibrate
    import workloads
    from tracer import COMPUTED, Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    with open(checkout.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    reported = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    # printed, not listed: raw seconds drift with the host's speed
    units.update({"op_s.p50": "s", "op_s.p90": "s", "ops_per_s": "1/s", "cal_s.p50": "s",
                  "fail_ratio": "ratio"})

    workroot = checkout.ROOT / ".perfbench_work"
    workdir = str(workroot / f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        probes = None if args.trace else SetupProbes(args.workload, args.seed, workdir)
        if probes is not None:
            probes.take()
        work = workloads.WORKLOADS[args.workload](args.seed, workdir)
        kernel = calibrate.KERNELS[work.CALIBRATION]()
        tracer = Tracer() if args.trace else None
        plain, traced, cal_s, failures, attempted, busy, n_traced = run_loop(
            work, args.seconds, tracer, kernel, probes)
        if probes is not None:
            probes.until(SETUP_PROBES)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workroot.rmdir()
        except OSError:
            pass  # another run still uses it

    completed = len(plain) + len(traced)
    metrics: dict[str, float] = {}
    notes: dict[str, str] = {}
    if args.trace:
        metrics.update(tracer.layer_metrics(n_traced))
        notes.update({k: f"per traced op, {n_traced} traced ops" for k in metrics})
        notes.update({k: f"computed, per traced op, {n_traced} traced ops" for k in COMPUTED})
        if plain and traced:
            metrics["trace_overhead"] = (statistics.median(r for _, r in traced)
                                         / statistics.median(r for _, r in plain))
            notes["trace_overhead"] = f"{len(traced)} traced / {len(plain)} untraced completed ops"
        else:
            metrics["trace_overhead"] = 0.0
            notes["trace_overhead"] = "not measurable: no completed traced or untraced op"
    else:
        metrics["setup_s"] = statistics.median(probes.samples)
        notes["setup_s"] = f"median of {len(probes.samples)} fresh processes"
        if plain:
            metrics["op_cal.p50"] = statistics.median(r for _, r in plain)
            notes["op_cal.p50"] = f"{len(plain)} completed ops, {work.CALIBRATION} kernel"
            metrics["op_s.p50"] = statistics.median(t for t, _ in plain)
            notes["op_s.p50"] = f"{len(plain)} completed ops"
            metrics["cal_s.p50"] = statistics.median(cal_s)
            notes["cal_s.p50"] = f"{len(cal_s)} kernel pairs, {work.CALIBRATION} kernel"
        p90 = p90_if_resolved([t for t, _ in plain])
        if p90 is not None:
            metrics["op_s.p90"] = p90
            notes["op_s.p90"] = f"{len(plain)} completed ops"
        metrics["ops_per_s"] = completed / busy
        notes["ops_per_s"] = f"{completed} completed in {busy:.3f} s of ops"
        metrics["fail_ratio"] = len(failures) / attempted
        notes["fail_ratio"] = f"{len(failures)} failed of {attempted} attempted"
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        notes["peak_rss_mb"] = "this process, getrusage"

    print(f"# workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"# {environment()}")
    for name in sorted(metrics):
        print(f"{name:32s} {metrics[name]:<24.10g} {units[name]:6s} {notes[name]}")
    if "op_s.p90" not in metrics and not args.trace:
        print(f"{'op_s.p90':32s} {'-':24s} {'s':6s} not reported: "
              f"{len(plain)} completed ops leave fewer than 10 above it")
    print(f"# checks: {attempted - len(failures)} passed, {len(failures)} failed, "
          f"{attempted} ops attempted")
    for reason in sorted(set(failures)):
        print(f"# failed x{failures.count(reason)}: {reason}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": units[m["name"]]}
            for m in reported if m["name"] in metrics
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
