"""One benchmark process: import the library, warm up, run one workload.

Started by ``run.py`` with the thread variables pinned and ``src`` on the
path.  Prints ``ready`` once the import and one untimed warm-up operation are
done (the parent times set-up up to that line), then, unless
``--setup-only``, runs the workload's seeded batch of operations over and over
while they fit in ``--seconds`` (one full pass at least) and prints one JSON
line with the raw measurements.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback

import numpy as np
import scipy

import thermalwigner
import workloads
from layers import HOOKS, layer_metrics
from tracer import Tracer


def _identity(evaluator):
    return evaluator


def _timed(workload, case, counted):
    """Run one operation; return (output, seconds, cpu_seconds, failure)."""
    workload.before(case)
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        output, failure = workload.run(case, counted), None
    except Exception as exc:  # a failed operation is counted and the run goes on
        output, failure = None, f"{type(exc).__name__}: {exc}"
    return output, time.perf_counter() - t0, time.process_time() - c0, failure


def _checked(workload, case, output, failure):
    if failure is None:
        try:
            failure = workload.check(case, output)
        except Exception:
            failure = "check raised: " + traceback.format_exc(limit=3)
    return failure


class Run:
    """Attempts, failures and per-operation samples of one run."""

    def __init__(self, specs):
        self.specs = specs
        self.times = [[] for _ in specs]
        self.cpu = [[] for _ in specs]
        self.attempted = 0
        self.failures: list[dict] = []

    def fail(self, index, reason):
        self.failures.append({"op": index, "inputs": self.specs[index], "reason": reason})
        print(f"perfbench: op {index} failed: {reason} inputs={json.dumps(self.specs[index])}",
              file=sys.stderr)

    def add(self, index, elapsed, cpu, failure):
        self.attempted += 1
        self.times[index].append(elapsed)
        self.cpu[index].append(cpu)
        if failure is not None:
            self.fail(index, failure)


def _schedule(size, seconds):
    """Operation indices in batch order, repeated while they fit in ``seconds``.

    The first pass always runs in full.  After it, an operation starts only
    if its previous execution (the time until the next index was asked for)
    would still end within ``seconds``, so a run does not overshoot by a
    long operation.
    """
    start, i = time.perf_counter(), 0
    last = [0.0] * size
    while True:
        k = i % size
        t = time.perf_counter()
        if i >= size and t - start + last[k] > seconds:
            return
        yield i // size, k
        last[k] = time.perf_counter() - t
        i += 1


def run_plain(workload, specs, cases, seconds):
    run = Run(specs)
    for _, k in _schedule(len(cases), seconds):
        output, elapsed, cpu, failure = _timed(workload, cases[k], _identity)
        run.add(k, elapsed, cpu, _checked(workload, cases[k], output, failure))
    return run, {}


def run_traced(workload, specs, cases, seconds):
    """Each operation once untraced and once traced, the order alternating by pass.

    ``run.times`` keeps the untraced samples; the traced ones feed the
    per-layer metrics.  Traced and untraced outputs must be identical.
    """
    tracer = Tracer(HOOKS)
    run = Run(specs)
    traced_times = [[] for _ in cases]
    summaries = [[] for _ in cases]
    for batch_pass, k in _schedule(len(cases), seconds):
        case, digests = cases[k], {}
        for traced in (False, True) if batch_pass % 2 == 0 else (True, False):
            if traced:
                tracer.install()
                try:
                    output, elapsed, cpu, failure = _timed(workload, case, tracer.counted)
                finally:
                    tracer.uninstall()
                summaries[k].append(tracer.take())
                traced_times[k].append(elapsed)
                run.attempted += 1
                failure = _checked(workload, case, output, failure)
                if failure is not None:
                    run.fail(k, "traced: " + failure)
            else:
                output, elapsed, cpu, failure = _timed(workload, case, _identity)
                run.add(k, elapsed, cpu, _checked(workload, case, output, failure))
            if failure is None:
                digests[traced] = workload.digest(case, output)
        if len(digests) == 2 and digests[True] != digests[False]:
            run.fail(k, "traced and untraced outputs differ")
    return run, layer_metrics(summaries, traced_times, run.times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads.make(args.workload, args.workdir)
    workload.warm_up()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    specs = workload.inputs(np.random.default_rng(args.seed))
    cases = [workload.prepare(spec) for spec in specs]
    runner = run_traced if args.trace else run_plain
    run, per_layer = runner(workload, specs, cases, args.seconds)
    result = {
        "attempted": run.attempted,
        "failures": run.failures,
        "times": run.times,
        "cpu": run.cpu,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "per_layer": per_layer,
        "inputs": len(specs),
        "inputs_sha256": hashlib.sha256(json.dumps(specs, sort_keys=True).encode()).hexdigest(),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "thermalwigner": thermalwigner.__version__,
        },
        "library_file": thermalwigner.__file__,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
