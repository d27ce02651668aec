"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload train-smoke --seed 1 --seconds 20 --trace 0

Workloads are train-smoke, train-wide and eval-sweep (see BENCHMARK.json and
perfbench/README.md). Each runs one client in a closed loop: the next op
starts when the previous one has returned. `--trace 0` times the ops
untraced, in worker processes that run one after another, scales them by
a fixed gauge kernel timed between ops (gauge.py) and reports the
end-to-end metrics. `--trace 1` runs the loop in this process
with untraced and traced cycles in turn, and reports the per-layer metrics
and the tracing overhead. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NPROC = len(os.sched_getaffinity(0))
WORKLOADS = ("train-smoke", "train-wide", "eval-sweep")
# Worker processes per untraced run; worker i runs with PYTHONHASHSEED=i.
# The state a process's memory starts in (how glibc reuses freed heap memory,
# which arrays get huge pages) differs from process to process, and the page
# faults per op move with it; every run pools several processes to sample
# it. The hash seed sets the order of dict and set operations and takes part
# in that state: on eval-sweep some hash seeds take several times the page
# faults of others. Every run uses the same hash seeds, so runs compare like
# with like.
WORKERS = {"train-smoke": 3, "train-wide": 2, "eval-sweep": 5}
WORKER_TIMEOUT_S = 150
# each worker sets the workload up this many times and reports the median
SETUP_REPEATS = 3
# gauge runs just before and just after each worker's timed window, on top of
# the one before every op, so that a worker with few, long ops still has a
# steady mean
GAUGE_EDGE_SAMPLES = 5


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # which worker of an untraced run this process is; set by the parent
    ap.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _check_sources():
    for path in (os.path.join("src", "scanpose", "__init__.py"),
                 os.path.join("configs", "smoke.json")):
        if not os.path.isfile(os.path.join(ROOT, path)):
            raise SystemExit(f"error: {path} is missing from {ROOT}")


def _import_library():
    """Import scanpose from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    # One client: numpy's BLAS, which does the work, gets one thread per
    # available core. scipy loads a second OpenBLAS that the hot path never
    # calls; it reads the variable when it loads, so it gets one thread and
    # the process stays within nproc threads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, str(NPROC))
    import numpy  # noqa: F401
    blas_threads = os.environ["OPENBLAS_NUM_THREADS"]
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    import scipy.linalg  # noqa: F401
    os.environ["OPENBLAS_NUM_THREADS"] = blas_threads
    sys.path.insert(0, src)
    import scanpose
    if os.path.dirname(os.path.abspath(scanpose.__file__)) != os.path.join(src, "scanpose"):
        raise SystemExit(f"error: imported scanpose from {scanpose.__file__}")
    import workloads
    return workloads


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _blas_threads():
    """Thread counts reported by each OpenBLAS library mapped into the
    process (numpy and scipy may each load one)."""
    import ctypes
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line and ".so" in line})
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def _thread_count():
    return len(os.listdir("/proc/self/task"))


def environment():
    import platform

    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(), "nproc": NPROC, "cpu": cpu}


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

class Loop:
    """Runs ops back to back and records how long each took."""

    def __init__(self):
        self.ops = []         # seconds of each successful op
        self.busy = 0.0       # seconds inside op(), failed ops included
        self.attempted = 0
        self.failures = []
        self.gauge = None     # when set, run before every op, outside its time

    def run(self, wl, seconds=None, count=None):
        """Returns the wall time of the loop without the gauge runs; checks
        and failed ops are included."""
        start = time.perf_counter()
        gauge_s = 0.0
        done = 0
        while True:
            if count is not None and done >= count:
                break
            elapsed = time.perf_counter() - start
            if (count is None and elapsed >= seconds
                    and done % wl.ops_per_cycle == 0):
                break
            if self.gauge is not None:
                gauge_s += self.gauge.time()
            self.attempted += 1
            done += 1
            t0 = time.perf_counter()
            try:
                result = wl.op()
                t1 = time.perf_counter()
                wl.check(result)
                self.ops.append(t1 - t0)
            except Exception as exc:  # a failed op is counted, and the loop goes on
                t1 = time.perf_counter()
                if not self.failures:
                    traceback.print_exc(file=sys.stderr)
                self.failures.append(f"op {self.attempted}: {exc!r}")
            self.busy += t1 - t0
        return time.perf_counter() - start - gauge_s


def _fmt(values):
    return " ".join(f"{v:.3f}" for v in values)


def _declared_units(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _worker_main(args) -> int:
    """One worker's share of an untraced run. Prints one JSON line with its
    set-up time and op times for the parent to pool."""
    # this process is a fresh interpreter, so its imports cost what the
    # program's do on every start
    t0 = time.perf_counter()
    workloads = _import_library()
    import_s = time.perf_counter() - t0
    import gauge as gauging
    gauge = gauging.Gauge()
    # set-up is scaled by gauge runs between its repeats, close to it in time
    gauge.time()
    setups = []
    for _ in range(SETUP_REPEATS):
        wl = None
        t1 = time.perf_counter()
        wl = workloads.make(args.workload, ROOT)
        wl.setup(args.seed, args.worker, WORKERS[args.workload])
        setups.append(time.perf_counter() - t1)
        gauge.time()
        gauge.time()
    out = {"import_s": import_s, "setup_s": statistics.median(setups),
           "setup_ref_s": gauge.scale() * (import_s + statistics.median(setups))}
    gauge.samples.clear()

    loop = Loop()
    loop.run(wl, count=wl.warmup_ops)
    threads = _thread_count()
    warm = len(loop.ops)
    for _ in range(GAUGE_EDGE_SAMPLES):
        gauge.time()
    loop.gauge = gauge
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    wall = loop.run(wl, seconds=args.seconds)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    for _ in range(GAUGE_EDGE_SAMPLES):
        gauge.time()
    scale = gauge.scale()
    out.update(
        ops=[t * scale for t in loop.ops[warm:]], wall=wall * scale,
        raw_ops=loop.ops[warm:], gauge_ms=[1e3 * g for g in gauge.samples],
        reference_ms=gauging.REFERENCE_MS,
        attempted=loop.attempted, failures=loop.failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        threads=max(threads, _thread_count()),
        faults_per_op=faults / max(loop.attempted - wl.warmup_ops, 1),
        warmup_ops=wl.warmup_ops)
    if args.worker == 0:
        out.update(problems=wl.run_checks(), fingerprint=wl.fingerprint(),
                   env=environment())
    print(json.dumps(out))
    return 0


def _untraced(args):
    """Runs the workload's workers one after another, each with its own hash
    seed and an equal share of the seconds, and pools their ops."""
    workers = WORKERS[args.workload]
    parts = []
    for i in range(workers):
        env = dict(os.environ, PYTHONHASHSEED=str(i))
        cmd = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds / workers), "--trace", "0",
               "--worker", str(i)]
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=WORKER_TIMEOUT_S)
        if proc.returncode or not proc.stdout.strip():
            raise SystemExit(f"error: worker {i} exited with code {proc.returncode}")
        parts.append(json.loads(proc.stdout.strip().splitlines()[-1]))

    head = parts[0]
    # op times and wall time are in reference seconds, scaled by the gauge
    # runs of their worker; the raw times are kept for the report
    ops = [t for p in parts for t in p["ops"]]
    if not ops:
        raise SystemExit("error: no op completed in the timed window")
    raw_ops = [t for p in parts for t in p["raw_ops"]]
    values = {"setup_s": statistics.median(p["setup_ref_s"] for p in parts),
              "op_ms.p50": 1e3 * statistics.median(ops),
              "op_ms.p90": 1e3 * _p90(ops),
              "ops_per_s": len(ops) / sum(p["wall"] for p in parts),
              "peak_rss_mb": max(p["peak_rss_mb"] for p in parts)}
    failures = [f"worker {i} {msg}" for i, p in enumerate(parts) for msg in p["failures"]]
    threads = max(p["threads"] for p in parts)

    lines = [f"set-up per worker: imports {_fmt(p['import_s'] for p in parts)} s, "
             f"scenes and parameters {_fmt(p['setup_s'] for p in parts)} s"]
    for i, p in enumerate(parts):
        p50 = 1e3 * statistics.median(p["raw_ops"]) if p["raw_ops"] else float("nan")
        lines.append(f"worker {i} (hash seed {i}): {len(p['ops'])} ops, "
                     f"p50 {p50:.1f} ms unscaled, gauge "
                     f"{statistics.mean(p['gauge_ms']):.3f} ms, "
                     f"{p['faults_per_op']:.0f} page faults per op")
    lines.append(f"samples {len(ops)} timed ops from {workers} worker(s), after "
                 f"{head['warmup_ops']} warm-up ops in each")
    gauge_ms = statistics.mean(g for p in parts for g in p["gauge_ms"])
    lines.append(f"gauge mean {gauge_ms:.3f} ms over the run; unscaled op p50 "
                 f"{1e3 * statistics.median(raw_ops):.3f} ms; the times below are "
                 f"scaled to a gauge time of {head['reference_ms']:g} ms")
    return _report(args, values, head["env"], threads, lines,
                   sum(p["attempted"] for p in parts), failures + head["problems"],
                   head["fingerprint"])


def _traced(args, workloads):
    """Untraced and traced cycles in turn in this process, so both see the
    same machine and their difference is the tracing overhead."""
    import tracer as tracing
    from scanpose import autodiff, evalsim, geometry, pipeline, ssm, tokens, training
    modules = {"autodiff": autodiff, "evalsim": evalsim, "geometry": geometry,
               "pipeline": pipeline, "ssm": ssm, "tokens": tokens,
               "training": training}
    tr = tracing.Tracer(modules)
    if args.workload.startswith("train"):
        # rendering happens only in set-up here: time one traced set-up
        tr.install()
        try:
            workloads.make(args.workload, ROOT).setup(args.seed)
        finally:
            tr.uninstall()
        render_ms = tr.per_op(1, 1.0)["evalsim.render_ms"]
        tr.reset()
    wl = workloads.make(args.workload, ROOT)
    wl.setup(args.seed)

    loop = Loop()
    loop.run(wl, count=wl.warmup_ops)
    threads = _thread_count()
    untraced_ops, traced_ops = [], []
    traced_attempted, traced_busy = 0, 0.0
    start = time.perf_counter()
    cycle = 0
    while cycle % 2 or time.perf_counter() - start < args.seconds:
        first, attempted, busy = len(loop.ops), loop.attempted, loop.busy
        traced = cycle % 2 == 1
        if traced:
            tr.install()
        try:
            loop.run(wl, count=wl.ops_per_cycle)
        finally:
            tr.uninstall()
        (traced_ops if traced else untraced_ops).extend(range(first, len(loop.ops)))
        if traced:
            traced_attempted += loop.attempted - attempted
            traced_busy += loop.busy - busy
        cycle += 1
    threads = max(threads, _thread_count())
    if not untraced_ops or not traced_ops:
        raise SystemExit("error: no op completed in a timed window")
    ops = loop.ops
    values = tr.per_op(traced_attempted, traced_busy)
    if args.workload.startswith("train"):
        values["evalsim.render_ms"] = render_ms
    values["trace.op_ms.p50"] = 1e3 * statistics.median(ops[i] for i in traced_ops)
    values["trace.untraced_op_ms.p50"] = 1e3 * statistics.median(
        ops[i] for i in untraced_ops)
    values["trace.overhead_ms"] = (values["trace.op_ms.p50"]
                                   - values["trace.untraced_op_ms.p50"])
    lines = [f"samples {len(traced_ops)} traced and {len(untraced_ops)} untraced ops "
             f"after {wl.warmup_ops} warm-up ops"]
    return _report(args, values, environment(), threads, lines,
                   loop.attempted, loop.failures + wl.run_checks(), wl.fingerprint())


def _report(args, values, env, threads, lines, attempted, failures,
            fingerprint) -> int:
    units = _declared_units("per_layer" if args.trace else "end_to_end")
    missing = set(units) ^ set(values)
    if missing:
        raise SystemExit(f"error: metrics out of step with BENCHMARK.json: "
                         f"{sorted(missing)}")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    failed = len(failures)
    env["threads_peak"] = threads
    flags = []
    if threads > NPROC:
        flags.append(f"process ran {threads} threads, more than nproc={NPROC}")
    for lib, n in env["blas_threads"].items():
        if n > NPROC:
            flags.append(f"{lib} uses {n} threads, more than nproc={NPROC}")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("closed loop, one client, one process at a time; the program has no "
          "queues, so there is no waiting time to record")
    print(f"environment {json.dumps(env, sort_keys=True)}")
    for flag in flags:
        print(f"FLAG {flag}")
    for line in lines:
        print(line)
    for k, m in metrics.items():
        print(f"  {k:<40} {m['value']:>14.6g} {m['unit']}")
    print(f"failed_ratio {failed / attempted:.6g} ({failed} of {attempted})")
    for msg in failures[:5]:
        print(f"  FAILED {msg}")
    print(f"fingerprint seed {args.seed} {json.dumps(fingerprint, sort_keys=True)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")
    _check_sources()
    if args.trace:
        return _traced(args, _import_library())
    if args.worker is None:
        return _untraced(args)
    return _worker_main(args)


if __name__ == "__main__":
    sys.exit(main())
