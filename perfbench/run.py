"""Run one benchmark workload and print its metrics.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload gate-char --seed 1 --seconds 15 --trace 0

The program under test is the ``tvdcamo`` package in ``src/`` of the same
checkout; the benchmark refuses to run without it. One run is one closed
loop in this process: set-up, then whole passes over the workload's jobs
until ``--seconds`` have gone by. With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
passes and reports per-layer metrics plus the tracing overhead. The last
line of standard output is one JSON object; a fuller record goes to
``.perfbench_out/`` in the checkout.
"""

import argparse
import bisect
import gc
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 5
RSS_PASSES = 3
# Thread CPU seconds of one probe() on the reference host: the 2-vCPU test
# machine in its quieter moments. Reported times are scaled to that speed.
PROBE_REF_S = 0.0025
PROBE_EVERY_S = 0.1
# A sample is scaled by the probes taken from this long before it started
# to this long after it ended.
PROBE_MARGIN_S = 0.25
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10

UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile of ``values`` (0 <= p <= 100)."""
    v = sorted(values)
    k = (len(v) - 1) * p / 100
    lo = math.floor(k)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (k - lo)


def tail_percentile(n: int) -> float:
    """The highest ladder percentile that leaves at least 10 of n jobs beyond it."""
    for p in TAIL_LADDER:
        if n * (100 - p) / 100 >= TAIL_MIN_BEYOND:
            return p
    return TAIL_LADDER[-1]


def probe() -> float:
    """Thread CPU seconds spent on a fixed mix of work like the program's.

    A pure-Python two-node Euler loop storing into a numpy array, small
    numpy array operations, number formatting and dict work: the host's
    neighbours slow this mix about as much as they slow the workloads, which
    a tight integer loop does not show.
    """
    import numpy as np

    t0 = time.thread_time()
    v = np.empty(3001)
    x = y = 1.8
    for i in range(3000):
        ix = 0.5 * (1.3 * x - 0.5 * x * x) if x < 1.3 else 0.4225
        iy = 0.45 * (1.2 * y - 0.5 * y * y) if y < 1.2 else 0.324
        px = 0.1 * (1.8 - y) if y < 1.4 else 0.04
        x = x + (px - ix) * 0.01
        y = y + (0.1 * (1.8 - x) - iy) * 0.01
        if x < 0.0:
            x = 0.0
        v[i + 1] = x - y
    t = np.arange(401, dtype=np.float64) * 1e-12
    for _ in range(12):
        w = np.where(t < 2e-10, 1.8, 0.0)
        d = np.column_stack([t, w, t * 2.0, w])
        cond = (np.abs(d[:, 1] - d[:, 2]) >= 0.1) & (d[:, 3] < 0.9)
        int(np.argmax(cond))
    np.savetxt(io.StringIO(), d[:120], fmt="%.6e", delimiter=",")
    table = {f"k{i}": i * 0.5 for i in range(300)}
    sum(table.values())
    return time.thread_time() - t0


class HostClock:
    """Probes taken through a run, and the host's speed at any moment of it.

    ``sensitivity`` is how strongly the workload's times follow the probe's.
    """

    def __init__(self, sensitivity: float = 1.0):
        self.sensitivity = sensitivity
        self.times: list[float] = []
        self.values: list[float] = []

    def take(self) -> None:
        self.values.append(probe())
        self.times.append(time.perf_counter())

    def factor(self, start: float, end: float) -> float:
        """PROBE_REF_S over the median probe near [start, end], to the sensitivity."""
        lo = bisect.bisect_left(self.times, start - PROBE_MARGIN_S)
        hi = bisect.bisect_right(self.times, end + PROBE_MARGIN_S)
        if hi <= lo:  # nothing near: the probe closest in time
            i = min(range(len(self.times)), key=lambda k: abs(self.times[k] - start))
            lo, hi = i, i + 1
        return (PROBE_REF_S / statistics.median(self.values[lo:hi])) ** self.sensitivity


def import_fresh():
    """Import every ``tvdcamo`` layer anew and return them as a namespace."""
    for name in [m for m in sys.modules if m == "tvdcamo" or m.startswith("tvdcamo.")]:
        del sys.modules[name]
    pkg = importlib.import_module("tvdcamo")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: imported tvdcamo from {pkg.__file__}, not from {SRC}")
    from tracing import LAYERS

    tv = types.SimpleNamespace(package=pkg)
    for layer, module in LAYERS.items():
        setattr(tv, layer, importlib.import_module(f"tvdcamo.{module}"))
    tv.errors = importlib.import_module("tvdcamo.errors")
    return tv


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref:"):
            return head
        ref = head[4:].strip()
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(tv) -> dict:
    import numpy

    return {
        "backend": tv.kernels.get_backend(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "commit": git_commit(ROOT),
    }


def run_job(job, tv, tracer=None):
    """Run one job; return (seconds, output or None when it raised)."""
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        out = job.run(tv)
    except Exception as exc:  # a failed job is counted, not fatal
        print(f"job {job.key} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        out = None
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
    return dt, out


def judge(job, out) -> str | None:
    """The job's digest if its output passes the check, else None."""
    if out is None:
        return None
    try:
        ok = job.check(out)
        digest = job.digest(out) if ok else None
    except Exception as exc:  # a malformed output fails its check
        print(f"job {job.key}: check raised {type(exc).__name__}: {exc}", file=sys.stderr)
        ok = digest = None
    finally:
        job.cleanup(out)
    if not ok:
        print(f"job {job.key} failed its output check", file=sys.stderr)
    return digest


def set_up(workload: str, seed: int, scratch: Path, clock: HostClock):
    """Import, build the inputs and warm up; return (seconds, ok, tv, jobs).

    The seconds are scaled to the reference host by probes taken just
    before and just after.
    """
    from workloads import WORKLOADS, warmup_job

    clock.take()
    t0 = time.perf_counter()
    tv = import_fresh()
    jobs = WORKLOADS[workload](seed, scratch)
    warm = warmup_job(workload, scratch)
    _, out = run_job(warm, tv)
    t1 = time.perf_counter()
    ok = judge(warm, out) is not None
    clock.take()
    return (t1 - t0) * clock.factor(t0, t1), ok, tv, jobs


def measure(workload: str, seed: int, seconds: float, trace: bool, scratch: Path) -> dict:
    from workloads import HOST_SENSITIVITY

    clock = HostClock(HOST_SENSITIVITY[workload])
    setup_s, warm_ok, tv, jobs = set_up(workload, seed, scratch, clock)
    setups = [setup_s]
    # Some jobs leave reference cycles that hold megabytes until the cyclic
    # collector runs, and when it runs depends on the order of the jobs. So
    # the garbage is collected after every job, outside its timed region,
    # and peak RSS follows the jobs' live memory. Freezing what set-up made
    # keeps each collection to the objects of one job.
    gc.collect()
    gc.freeze()

    tracer = None
    if trace:
        from tracing import Tracer, layer_metrics

        tracer = Tracer(tv)
    if len({job.key for job in jobs}) != len(jobs):
        raise SystemExit(f"error: {workload} has jobs with the same key")
    # One pass: every job as often as it repeats, in a seeded order that
    # spreads a job's repeats over the pass.
    schedule = [job for job in jobs for _ in range(job.repeats)]
    random.Random(seed).shuffle(schedule)
    reference: dict[str, str | None] = {}
    spans: dict[str, list[tuple[float, float]]] = {job.key: [] for job in jobs}
    pass_times = {False: [], True: []}
    layer_passes = []
    rss_kb = 0
    attempted = failed = passes = 0
    start = time.perf_counter()
    while passes < (2 if trace else 1) or time.perf_counter() - start < seconds:
        traced = trace and passes % 2 == 1
        if traced:
            tracer.reset()
        pass_time = 0.0
        for job in schedule:
            if time.perf_counter() - clock.times[-1] >= PROBE_EVERY_S:
                clock.take()
            t0 = time.perf_counter()
            dt, out = run_job(job, tv, tracer if traced else None)
            digest = judge(job, out)
            reference.setdefault(job.key, digest)
            attempted += 1
            if digest is None or digest != reference[job.key]:
                failed += 1
            del out
            gc.collect()
            pass_time += dt
            if not traced:
                spans[job.key].append((t0, t0 + dt))
        pass_times[traced].append(pass_time)
        if traced:
            layer_passes.append(layer_metrics(tracer))
        passes += 1
        if passes <= RSS_PASSES:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # Further set-ups are spread over the run, between passes, so that
        # their median does not rest on one moment of the host's speed.
        if not trace and len(setups) < SETUP_REPEATS:
            setup_s, ok, _, _ = set_up(workload, seed, scratch, clock)
            setups.append(setup_s)
            warm_ok = warm_ok and ok
    clock.take()
    while not trace and len(setups) < SETUP_REPEATS:
        setup_s, ok, _, _ = set_up(workload, seed, scratch, clock)
        setups.append(setup_s)
        warm_ok = warm_ok and ok

    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": environment(tv),
        "passes": passes,
        "jobs_per_pass": len(jobs),
        "runs_per_pass": len(schedule),
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and warm_ok,
        "setup_runs_s": setups,
    }
    if trace:
        metrics = {
            name: statistics.median(p[name] for p in layer_passes)
            for name in layer_passes[0]
        }
        metrics["trace.overhead_frac"] = (
            statistics.median(pass_times[True]) / statistics.median(pass_times[False]) - 1
        )
        record["metrics"] = {name: {"value": v, "unit": unit_of(name)} for name, v in metrics.items()}
        return record
    # The host's speed drifts by tens of percent, and up to twofold, over
    # seconds to minutes. Each sample is scaled to the reference speed by the
    # probes taken around it, and a job's latency is the median of its
    # scaled samples. The percentiles are taken over the jobs of a pass, one
    # latency each, so the tail percentile is fixed by the workload, not by
    # how many passes fitted into the run.
    factors = {key: [clock.factor(t0, t1) for t0, t1 in v] for key, v in spans.items()}
    job_s = {
        key: statistics.median((t1 - t0) * f for (t0, t1), f in zip(spans[key], factors[key]))
        for key in spans
    }
    latencies = list(job_s.values())
    p_tail = tail_percentile(len(latencies))
    values = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": len(job_s) / sum(job_s.values()),
        "job_p50_ms": percentile(latencies, 50) * 1e3,
        "job_tail_ms": percentile(latencies, p_tail) * 1e3,
        # Peak after a fixed number of passes, so that it does not grow with
        # the number of passes a fast host fits into the run.
        "peak_rss_mb": rss_kb / 1024,
        "ok_frac": 1 - failed / attempted,
    }
    record["metrics"] = {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}
    all_factors = [f for v in factors.values() for f in v]
    record["host_scale"] = {
        "median": statistics.median(all_factors),
        "min": min(all_factors),
        "max": max(all_factors),
        "probes": len(clock.values),
    }
    record["job_tail"] = {"percentile": p_tail, "jobs": len(latencies)}
    record["job_ms"] = {key: t * 1e3 for key, t in sorted(job_s.items())}
    # Raw material for other estimators: each sample's start and wall time,
    # and each probe's time and value, in seconds from the first probe.
    t_0 = clock.times[0]
    record["samples_s"] = {key: [[t0 - t_0, t1 - t0] for t0, t1 in v] for key, v in spans.items()}
    record["probes_s"] = [[t - t_0, v] for t, v in zip(clock.times, clock.values)]
    record["failed_frac"] = failed / attempted
    return record


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("self_s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def summary(record: dict) -> str:
    env = record["env"]
    lines = [
        f"{record['workload']} seed {record['seed']} trace {record['trace']}: "
        f"{record['passes']} passes x {record['runs_per_pass']} runs of "
        f"{record['jobs_per_pass']} jobs, "
        f"{record['failed']} of {record['attempted']} failed; backend {env['backend']}, "
        f"python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
        f"commit {env['commit'][:12]}"
    ]
    for name, m in record["metrics"].items():
        extra = ""
        if name == "job_tail_ms":
            tail = record["job_tail"]
            extra = f"  (p{tail['percentile']:g} of {tail['jobs']} jobs)"
        lines.append(f"  {name:<36} {m['value']:>14.6g} {m['unit']}{extra}")
    return "\n".join(lines)


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "tvdcamo" / "__init__.py").is_file():
        print(f"error: no tvdcamo package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  imported once, before the timed set-up

    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"scratch-{os.getpid()}"
    scratch.mkdir()
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(summary(record))
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
