#!/usr/bin/env python3
"""moranspectra benchmark: one seeded workload, timed or traced.

    python3 bench/run.py --workload {certify,transform,survey} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ./src.  The
load is a closed loop with one client: each job starts when the previous one
returns.  A run repeats the workload's round of jobs while the next round
is expected to end within `--seconds`, so a run's length does not depend on
the machine's speed.  Outputs are checked outside the timed region.  With
--trace 0 the end-to-end metrics are printed, with --trace 1 a warm-up
round, then one untraced and one traced round give the per-layer metrics.
The last line of stdout is the JSON result.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SETUP_PROBES = 7


def _import_program():
    src = ROOT / "src"
    if not (src / "moranspectra" / "__init__.py").is_file():
        sys.exit(f"bench: no moranspectra sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))
    import moranspectra

    if Path(moranspectra.__file__).resolve().parent != src / "moranspectra":
        sys.exit(f"bench: imported {moranspectra.__file__}, not the checkout's sources")


def _blas_threads() -> str:
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def environment() -> str:
    import numpy

    return (f"python={platform.python_version()} numpy={numpy.__version__} "
            f"nproc={os.cpu_count()} blas_threads={_blas_threads()}")


def _workdir() -> Path:
    return ROOT / ".bench_work" / str(os.getpid())


def setup_probe(workload: str, seed: int, size: str) -> float:
    """Wall time from starting a fresh process until it has imported
    moranspectra and built the workload's inputs (config files included)
    and could start its first job; its clean-up and exit are not timed."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                             "--workload", workload, "--seed", str(seed), "--size", size],
                            stdout=subprocess.PIPE)
    killer = threading.Timer(120, proc.kill)
    killer.start()
    try:
        # A blocking read; Popen.wait(timeout) polls in steps of up to 50 ms,
        # which would quantize the measurement.
        ready = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait()
    finally:
        killer.cancel()
        proc.stdout.close()
    if ready != b"ready\n" or code != 0:
        raise RuntimeError(f"set-up probe exited with {code}")
    return elapsed


def _tail(latencies: list[float], n_jobs: int) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with at
    least 10 samples beyond it, or the maximum when there are fewer.

    Each sample is its job's median over the run's rounds, so the tail is
    set by the slowest inputs rather than by a single slow spell of the
    machine; a job still counts once per round it ran.
    """
    per_job = [statistics.median(latencies[i::n_jobs]) for i in range(n_jobs)]
    ordered = sorted(per_job[i % n_jobs] for i in range(len(latencies)))
    n = len(ordered)
    k = n - 11 if n > 10 else n - 1
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def run_rounds(jobs, rounds: Optional[int], tracer=None, after_round=None):
    """Run every job `rounds` times in order; only `job.run` is timed.
    `after_round(r)`, if given, runs untimed after round r, and the loop
    stops when it returns False (with `rounds` None, only then).

    Returns the latencies, the digest of each job's first output, and the
    latency indices of instances that raised or whose output differed from
    the job's first one.
    """
    latencies: list[float] = []
    first: dict[int, object] = {}
    bad: set[int] = set()
    for r in itertools.count() if rounds is None else range(rounds):
        for index, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = index
            start = time.perf_counter()
            try:
                out = job.run()
            except Exception as exc:  # a job that raises is a failed job
                latencies.append(time.perf_counter() - start)
                print(f"failed: {job.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
                bad.add(len(latencies) - 1)
                continue
            latencies.append(time.perf_counter() - start)
            digest = job.digest(out)
            if index not in first:
                first[index] = digest
            elif digest != first[index]:
                print(f"failed: {job.name}: output differs between rounds", file=sys.stderr)
                bad.add(len(latencies) - 1)
        if after_round is not None and not after_round(r):
            break
    return latencies, first, bad


def count_failures(jobs, latencies, first, bad, corrupt: bool = False) -> int:
    """Check each job's first output; every instance of a job whose output
    fails its check counts as failed, as does every instance in `bad`.
    `corrupt` flips the first job's verdict first (the self-test's hook)."""
    failing = set()
    for index, digest in first.items():
        if corrupt and index == 0:
            digest = jobs[index].corrupt(digest)
        try:
            problem = jobs[index].check(digest)
        except Exception as exc:  # an output too malformed to check fails it
            problem = f"{jobs[index].name}: {type(exc).__name__}: {exc}"
        if problem:
            print(f"failed: {problem}", file=sys.stderr)
            failing.add(index)
    n = len(jobs)
    return sum(1 for i in range(len(latencies)) if i in bad or i % n in failing)


def timed(workload, seed, seconds, size, corrupt=False):
    from workloads import BUILDERS

    probes = [setup_probe(workload, seed, size)]
    jobs = BUILDERS[workload](seed, _workdir(), tiny=size == "tiny")
    peak: list[float] = []
    start = time.perf_counter()

    def after_round(r):
        if r == 0:
            # Set-up and one round: later rounds repeat the same work, and
            # how many there are depends on the machine's speed.
            peak.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        # Spread the other probes over the run, so that setup_s sees the same
        # spells of the machine as the timed jobs; then go on while another
        # round of the mean length so far ends within `seconds`.
        elapsed = time.perf_counter() - start
        while len(probes) < 1 + min(SETUP_PROBES - 1, int(elapsed / seconds * (SETUP_PROBES - 1))):
            probes.append(setup_probe(workload, seed, size))
        elapsed = time.perf_counter() - start
        return elapsed * (r + 2) / (r + 1) <= seconds

    latencies, first, bad = run_rounds(jobs, None, after_round=after_round)
    while len(probes) < SETUP_PROBES:
        probes.append(setup_probe(workload, seed, size))
    setup_s = statistics.median(probes)
    failed = count_failures(jobs, latencies, first, bad, corrupt)
    n = len(jobs)
    rounds = len(latencies) // n
    # Median over rounds of the round's jobs / its timed wall: a slow spell
    # of the machine moves a few rounds, not the result.
    per_round = [n / sum(latencies[r * n:(r + 1) * n]) for r in range(rounds)]
    tail, pct, beyond = _tail(latencies, n)
    attempted = len(latencies)
    metrics = {
        "jobs_per_s": (statistics.median(per_round), "1/s"),
        "job_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "job_tail_ms": (1e3 * tail, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak[0], "MB"),
    }
    lines = [f"{name:<13} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines[2] += f"  (p{pct:.1f}, {beyond} of {attempted} samples beyond)"
    lines.append(f"{'failed_ratio':<13} {failed / attempted:.6g} 1  ({failed} of {attempted} jobs)")
    lines.append(f"rounds={rounds} jobs_per_round={n} timed_wall_s={sum(latencies):.3f}")
    return lines, attempted, failed, metrics


def traced(workload, seed, size):
    import moranspectra as ms
    from tracing import Tracer
    from workloads import BUILDERS

    jobs = BUILDERS[workload](seed, _workdir(), tiny=size == "tiny")
    run_rounds(jobs, 1)  # warm the program's other caches for both measured rounds
    ms.moran._analysis.cache_clear()
    untraced, _, _ = run_rounds(jobs, 1)
    with Tracer() as tracer:
        cpu = time.process_time()
        latencies, first, bad = run_rounds(jobs, 1, tracer)
        cpu = time.process_time() - cpu
    failed = count_failures(jobs, latencies, first, bad)
    metrics = tracer.metrics()
    metrics.update({"run.wall_s": sum(latencies), "run.cpu_s": cpu,
                    "run.trace_overhead_ratio": sum(latencies) / sum(untraced)})
    out = ROOT / ".bench_out" / f"trace-{workload}-seed{seed}.jsonl"
    tracer.write(out)
    spec = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    lines = [f"{name:<40} {metrics[name]:.6g} {unit}" for name, unit in spec.items()]
    lines.append(f"spans and call sites: {out.relative_to(ROOT)}")
    return lines, len(latencies), failed, {k: (metrics[k], u) for k, u in spec.items()}


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("certify", "transform", "survey"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the self-test's inputs")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_program()
    workdir = _workdir()
    try:
        if args.setup_probe:
            from workloads import BUILDERS

            BUILDERS[args.workload](args.seed, workdir, tiny=args.size == "tiny")
            print("ready", flush=True)
            return 0
        print(f"workload={args.workload} seed={args.seed} trace={args.trace} {environment()}")
        if args.trace:
            lines, attempted, failed, metrics = traced(args.workload, args.seed, args.size)
        else:
            lines, attempted, failed, metrics = timed(args.workload, args.seed, args.seconds, args.size)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    print("\n".join(lines))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
