"""Benchmark runner: one workload, one seed, one process.

    python3 perfbench/run.py --workload tree --seed 0 --seconds 40 --trace 0

Run from the root of a checkout; hofsel is imported from its ``src``
directory, never from an installed copy, and BLAS threads are capped at
the CPUs this process may use. The runner sets the workload up at least
five times and for at least a second (``setup_s`` is the median), then
repeats the workload's iteration while another one fits in ``--seconds``
and reports medians. With ``--trace 1`` untraced and traced iterations
alternate: the traced ones give the per-layer metrics, and the
difference in wall time is the tracing overhead.

Standard output carries one JSON line with every detail of the run
(environment, per-iteration times, ops, output records and digest), then
the summary line ``{"correct", "attempted", "failed", "metrics"}``.
Exits 2 without a summary when the hofsel sources are missing.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext

# Set-up repeats at least this often and for at least this long, so that
# the median of a millisecond set-up is as steady as that of a slow one.
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 1.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")

END_TO_END = {"setup_s": "s", "wall_s": "s", "cv_s": "s", "peak_rss_mb": "MB"}

# Layer times that are 0 by design on some workload: ica and hofs never
# run on cli-baselines, load_csv and the CLI run only there. A time that
# reads the same on every run is no measurement, so the summary leaves
# these out; the detail record keeps them, and the summary keeps their
# call and work counts.
DETAIL_ONLY_LAYER_TIMES = (
    "ica.fit_row.s", "ica.append_feature.s", "ica.append_feature.self_s",
    "ica.signal_entropy.s", "hofs.run_hofs.s", "hofs.self_s",
    "hofs.label_conditional_entropy.s", "infotheory.hofs.s",
    "data.load_csv.s", "cli.s", "cli.self_s",
)


class Terminated(BaseException):
    """SIGTERM, raised where no op or CLI handler can swallow it."""


def _terminate(signum, frame):
    raise Terminated(signum)


class Iteration:
    """Ops, output records and spans of one pass over a workload."""

    def __init__(self, index, tracer, traced):
        self.index = index
        self.tracer = tracer
        self.traced = traced
        self.records = {}
        self.failures = {}
        self.hofs_traces = []
        self.error_pct = None
        self.wall_s = 0.0
        self.phases = {}
        self.layers = self.self_s = self.hofs_self_s = None

    def op(self, name, span, call, check):
        """Run call() under a span; a raise or a failed check fails the op."""
        try:
            with self.tracer.span(span):
                result = call()
            self.records[name] = check(result)
            return result
        except Exception as exc:  # any raise is a failed op, not a crash
            self.failures[name] = "%s: %s" % (type(exc).__name__, exc)
            traceback.print_exc(file=sys.stderr)
            return None

    def skip(self, name, reason):
        self.failures[name] = "not run: " + reason

    @property
    def attempted(self):
        return len(self.records) + len(self.failures)


def _median(values):
    return statistics.median(values) if values else 0.0


def environment(nproc):
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        from hofsel import _accel
        numba = bool(getattr(_accel, "NUMBA_ENABLED", False))
    except ImportError:
        numba = False
    return {"nproc": nproc, "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "blas_threads": nproc, "numba_enabled": numba,
            # numba-compiled kernels are not comparable to numpy-path runs
            "comparable_to_numpy_baseline": not numba}


def run_iteration(workload, state, index, traced):
    from tracing import LAYER_PATCHES, PHASE_PATCHES, ROOT, Tracer, \
        layer_metrics, phase_times, self_times

    tracer = Tracer()
    it = Iteration(index, tracer, traced)
    with tracer.patched(PHASE_PATCHES), \
            (tracer.patched(LAYER_PATCHES) if traced else nullcontext()):
        with tracer.span("iteration"):
            workload.iterate(state, it)
    it.wall_s = tracer.duration(ROOT)
    it.phases = phase_times(tracer)
    if traced:
        it.layers = layer_metrics(tracer, it.hofs_traces)
        it.self_s = self_times(tracer)
        hofs_spans = [i for i, span in enumerate(tracer.spans)
                      if span[0] == "hofs.run_hofs"]
        if hofs_spans:
            it.hofs_self_s = self_times(tracer, hofs_spans[0])
    return it


def measure(workload, seed, seconds, trace, workdir):
    from workloads import digest

    setup_times = []
    input_digests = set()
    while (len(setup_times) < SETUP_MIN_REPEATS
           or sum(setup_times) < SETUP_MIN_SECONDS):
        t0 = time.perf_counter()
        state = workload.setup(seed, workdir)
        setup_times.append(time.perf_counter() - t0)
        input_digests.add(workload.input_digest(state))

    iterations = []
    start = time.perf_counter()
    while True:
        traced = bool(trace) and len(iterations) % 2 == 1
        iterations.append(run_iteration(workload, state, len(iterations),
                                        traced))
        elapsed = time.perf_counter() - start
        longest = max(it.wall_s for it in iterations)
        if (len(iterations) >= (2 if trace else 1)
                and elapsed + longest > seconds):
            break

    problems = []
    if len(input_digests) != 1:
        problems.append("set-up gave %d different inputs"
                        % len(input_digests))
    first = iterations[0]
    failed = 0
    attempted = 0
    for it in iterations:
        attempted += it.attempted
        failed += len(it.failures)
        for name, record in it.records.items():
            if digest(record) != digest(first.records.get(name)):
                failed += 1
                it.failures[name] = "output differs from iteration 0"
    if failed:
        problems.append("%d of %d ops failed" % (failed, attempted))

    plain = [it for it in iterations if not it.traced]
    traced_its = [it for it in iterations if it.traced]
    wall = _median([it.wall_s for it in plain])
    detail_metrics = {
        "setup_s": _median(setup_times),
        "wall_s": wall,
        "error_pct": first.error_pct if first.error_pct is not None else -1.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "ops_failed_frac": failed / attempted if attempted else 1.0,
    }
    for phase in ("select_s", "hofs_s", "baselines_s", "cv_s"):
        detail_metrics[phase] = _median([it.phases[phase] for it in plain])
    layers = {}
    if traced_its:
        for name in traced_its[0].layers:
            layers[name] = _median([it.layers[name] for it in traced_its])
        layers["trace.overhead_s"] = _median(
            [it.wall_s for it in traced_its]) - wall

    detail = {
        "seed": seed, "seconds": seconds, "trace": trace,
        "setup_repeats": len(setup_times),
        "iterations": [{"traced": it.traced, "wall_s": it.wall_s,
                        **it.phases, "failures": it.failures,
                        "self_s_by_span": it.self_s,
                        "run_hofs_self_s_by_span": it.hofs_self_s}
                       for it in iterations],
        "problems": problems,
        "outputs": first.records,
        "output_digest": digest({n: digest(r)
                                 for n, r in first.records.items()}),
        "metrics": detail_metrics,
        "layers": layers,
    }
    return detail, attempted, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("tree", "hetero", "cli-baselines"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "hofsel", "__init__.py")):
        print("perfbench: no hofsel sources under %s" % src, file=sys.stderr)
        return 2
    nproc = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    sys.path.insert(0, src)

    from workloads import WORKLOADS

    # a terminated run still removes its scratch directory
    signal.signal(signal.SIGTERM, _terminate)
    work_parent = os.path.join(root, ".perfbench-work")
    os.makedirs(work_parent, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work_parent)
    try:
        detail, attempted, failed = measure(
            WORKLOADS[args.workload], args.seed, args.seconds, args.trace,
            workdir)
    except Terminated:
        return 128 + signal.SIGTERM
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_parent)
        except OSError:
            pass  # another run still uses it
    detail = {"workload": args.workload, "environment": environment(nproc),
              **detail}
    if args.trace:
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in detail["layers"].items()
                   if name not in DETAIL_ONLY_LAYER_TIMES}
    else:
        metrics = {name: {"value": detail["metrics"][name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": not detail["problems"],
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def unit_of(layer_metric):
    if layer_metric.endswith(("_s", ".s")):
        return "s"
    if layer_metric.endswith(".bytes_computed"):
        return "B"
    if layer_metric.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
