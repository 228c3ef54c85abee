"""zenosim benchmark: one workload, measured for a fixed time.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from ``src/`` of the current directory, so nothing
needs installing; without ``src/zenosim`` the run exits with code 2.

A run is a closed loop from this one process with no client threads: one pass
of the workload (see ``bench/workloads.py``) after another, each started only
if the median pass still fits in ``--seconds``.  Before the first pass, five
fresh processes each import zenosim, parse the workload's configs and build
its inputs; ``setup_s`` is the median of their times.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:
``wall_s`` (median pass), ``work_per_s`` (trajectories per pass over the
median pass; CSV rows on ``analytic_cli``, which samples no trajectories),
``setup_s`` and ``peak_rss_mb`` (``getrusage`` of this process).  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics from
``bench/tracing.py`` plus CPU time, CPU utilisation, the benchmark's own glue
time and the tracing overhead.  The program is single-threaded and no layer
waits on another, so there is no wait metric.

Each operation's output is checked (``bench/workloads.py``) and digested;
a digest that changes between passes of one run fails the operation.  The
last line of standard output is the JSON result; the lines before it record
the environment, pass statistics, digests and any failures.

Which per-layer metric should move which end-to-end metric, per workload:

* ``zeno.*`` (mc_self_s, mc_calls, traj_steps, draws, draws_per_step,
  alive_frac, sweep_self_s): wall_s and work_per_s on fig2_mc and
  ou_protocols; draws_per_step and mc_self_s also peak_rss_mb on
  ou_protocols.  No change on crossover_scan or analytic_cli.
* ``noise.*`` (ensemble_self_s, block_values_s, stream_s, streams, draws,
  block_bytes): wall_s on crossover_scan; block_bytes moves peak_rss_mb
  there.  stream_s is a few percent of fig2_mc.
* ``lindblad.*`` and ``qubit.*``: wall_s on analytic_cli only.
* ``config.*``, ``cli.*``, ``tables.*``: wall_s on analytic_cli and
  setup_s; negligible on the MC workloads.
* ``bench.cpu_util`` exceeds 1 once blocks run on two threads.
"""

import time

_START = time.perf_counter()

import argparse
import contextlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

SETUP_REPEATS = 5
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest sizes and one set-up sample (smoke test)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def import_package(root):
    src = root / "src"
    if not (src / "zenosim" / "__init__.py").is_file():
        raise FileNotFoundError(f"no zenosim package under {src}")
    sys.path.insert(0, str(src))
    import zenosim
    import zenosim.cli  # noqa: F401  (every layer module is now loaded)
    return zenosim


def build(zenosim, args, workdir):
    from workloads import WORKLOADS
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[args.workload](zenosim, args.seed, workdir, args.tiny)


def measure_setup(args):
    """Median set-up time over fresh processes (``--setup-only`` children)."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "1", "--setup-only"] + (["--tiny"] if args.tiny else [])
    samples = []
    for _ in range(1 if args.tiny else SETUP_REPEATS):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(samples)


def environment(args, root):
    def cpu_model():
        try:
            with open("/proc/cpuinfo", encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or "unknown"

    def git_commit():
        head = root / ".git" / "HEAD"
        try:
            ref = head.read_text().strip()
            if ref.startswith("ref: "):
                return (root / ".git" / ref[5:]).read_text().strip()
            return ref
        except OSError:
            return "unknown"

    import numpy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu": cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "commit": git_commit(), "loadavg": list(os.getloadavg()),
        "threads": {k: os.environ[k] for k in BLAS_VARS if k in os.environ},
    }


class Runner:
    """Runs passes of one workload and keeps the per-operation bookkeeping."""

    def __init__(self, ops):
        self.ops = ops
        self.digests = {}          # label -> digest of the first pass
        self.failures = []         # (pass, label, message)
        self.attempted = 0
        self.work = 0

    def run_pass(self, tracer=None):
        """One pass; returns (wall seconds, CPU seconds) of the operations alone."""
        outputs = []
        if tracer is not None:
            tracer.install()
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            for op in self.ops:
                try:
                    outputs.append((op.run(), None))
                except Exception as exc:        # a failed operation, not a failed run
                    outputs.append((None, f"{type(exc).__name__}: {exc}"))
        finally:
            wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
            if tracer is not None:
                tracer.uninstall()
        index = self.attempted // len(self.ops)
        for op, (output, error) in zip(self.ops, outputs):
            self.attempted += 1
            if error is None:
                try:
                    digest, work, error = op.inspect(output)
                except Exception as exc:
                    error = f"output unreadable: {type(exc).__name__}: {exc}"
                else:
                    self.work += work
                    if digest is not None:
                        first = self.digests.setdefault(op.label, digest)
                        if digest != first:
                            error = f"digest {digest} differs from first pass {first}"
            if error is not None:
                self.failures.append((index, op.label, error))
        return wall, cpu


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def run_loop(seconds, step):
    """Call ``step()`` until the median step no longer fits; returns its results."""
    results, durations = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(step())
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return results


def measure(args, zenosim, ops):
    runner = Runner(ops)
    if args.trace == 0:
        walls = [w for w, _ in run_loop(args.seconds, runner.run_pass)]
        q1, med, q3 = quartiles(walls)
        print(f"wall_s passes={len(walls)} median={med:.6f} p25={q1:.6f} p75={q3:.6f} "
              f"all={' '.join(f'{w:.4f}' for w in walls)}")
        metrics = {
            "wall_s": (med, "s"),
            "work_per_s": (runner.work / len(walls) / med, "1/s"),
        }
    else:
        from tracing import Tracer
        tracer = Tracer(zenosim)
        traced_first = itertools.cycle((False, True))

        def pair():
            # every other pair runs the traced pass first, so order effects cancel
            if next(traced_first):
                traced = runner.run_pass(tracer)
                return runner.run_pass(), traced
            return runner.run_pass(), runner.run_pass(tracer)

        pairs = run_loop(args.seconds, pair)
        plain = [p for p, _ in pairs]
        traced = [t for _, t in pairs]
        plain_wall = statistics.median(w for w, _ in plain)
        traced_wall = statistics.median(w for w, _ in traced)
        print(f"trace pairs={len(pairs)} untraced_median={plain_wall:.6f} "
              f"traced_median={traced_wall:.6f}")
        layers = tracer.layer_metrics(len(traced), sum(w for w, _ in traced))
        cpu = sum(c for _, c in plain)
        metrics = {name: (value, _unit(name)) for name, value in layers.items()}
        metrics["bench.cpu_s"] = (cpu / len(plain), "s")
        metrics["bench.cpu_util"] = (cpu / sum(w for w, _ in plain), "ratio")
        metrics["bench.trace_overhead_frac"] = (traced_wall / plain_wall - 1.0, "ratio")
    return runner, metrics


def _unit(name):
    suffix = name.rsplit(".", 1)[1]
    if suffix.endswith("_s"):
        return "s"
    if suffix.endswith("bytes"):
        return "B"
    if suffix.endswith(("_frac", "_per_step")):
        return "ratio"
    return "count"


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    try:
        zenosim = import_package(root)
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = root / ".bench_out" / f"{args.workload}-{os.getpid()}"
    try:
        if args.setup_only:
            build(zenosim, args, workdir)
            print(json.dumps({"setup_s": time.perf_counter() - _START}))
            return 0
        setup_s = measure_setup(args) if args.trace == 0 else None
        ops = build(zenosim, args, workdir)
        runner, metrics = measure(args, zenosim, ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):     # other runs may still use it
            workdir.parent.rmdir()

    if args.trace == 0:
        metrics["setup_s"] = (setup_s, "s")
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["peak_rss_mb"] = (rss_mb, "MiB")
    print("environment " + json.dumps(environment(args, root), sort_keys=True))
    for label, digest in runner.digests.items():
        print(f"digest {label} {digest}")
    for index, label, message in runner.failures:
        print(f"FAILED pass {index} {label}: {message}")
    failed = len(runner.failures)
    print(f"failed_frac {failed / runner.attempted:.6g} ({failed}/{runner.attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
