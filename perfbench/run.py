"""Benchmark of the thermalwigner library, one workload per invocation.

Run from the repository root:

    python3 perfbench/run.py --workload theorem --seed 1 --seconds 28 --trace 0

The library is used from ``src/`` of the current directory, in child
processes with the numpy/BLAS thread variables pinned to 1.  Set-up time is
measured on fresh interpreters (import plus one untimed warm-up operation);
then one worker runs the workload's seeded batch for ``--seconds`` and checks
every output.  With ``--trace 0`` the last stdout line carries the end-to-end
metrics of BENCHMARK.json, with ``--trace 1`` its per-layer metrics.  The line
before it is a report with the environment, the input hash, the tail
percentile and any failures.  Exit code 2 means the benchmark could not run
(for example, no ``src/thermalwigner`` here).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from stats import median_sum, tail

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 160.0
PINNED_THREADS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}


def _child_env() -> dict:
    env = dict(os.environ, **PINNED_THREADS)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + path if path else "")
    return env


def _start_worker(argv: list[str], env: dict, deadline_s: float):
    """Start a worker; return (process, seconds until it printed 'ready', watchdog)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv], env=env, cwd=ROOT,
        stdout=subprocess.PIPE, text=True,
    )
    watchdog = threading.Timer(deadline_s, proc.kill)
    watchdog.start()
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        watchdog.cancel()
        raise RuntimeError(f"worker did not start (exit {proc.returncode})")
    return proc, ready, watchdog


def _finish(proc, watchdog) -> str:
    out = proc.stdout.read()
    proc.wait()
    watchdog.cancel()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def _environment() -> dict:
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "thermalwigner").glob("*.py")):
        source.update(path.name.encode())
        source.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "pinned_threads": PINNED_THREADS,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


def end_to_end(raw: dict, setup: list[float]) -> tuple[dict, dict]:
    """End-to-end metric values and the details behind the tail and set-up figures."""
    latencies = [t for samples in raw["times"] for t in samples]
    tail_s, tail_pct = tail(latencies)
    failed = len(raw["failures"])
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": median_sum(raw["times"]),
        "op_ms_p50": 1e3 * statistics.median(latencies),
        "op_ms_tail": 1e3 * tail_s,
        "cpu_s": median_sum(raw["cpu"]),
        "peak_rss_mb": raw["maxrss_kb"] / 1024.0,
        "pass_frac": (raw["attempted"] - failed) / raw["attempted"],
    }
    details = {
        "op_ms_tail_percentile": tail_pct,
        "timed_ops": len(latencies),
        "fail_frac": failed / raw["attempted"],
        "setup_samples_s": setup,
    }
    return values, details


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "thermalwigner" / "__init__.py").is_file():
        print(f"perfbench: no src/thermalwigner under {ROOT}; run from the repository root",
              file=sys.stderr)
        return 2

    env = _child_env()
    workdir = ROOT / ".perfbench_out" / str(os.getpid())
    worker_argv = ["--workload", args.workload, "--workdir", str(workdir)]
    setup = []
    try:
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                proc, ready, watchdog = _start_worker([*worker_argv, "--setup-only"], env, 60.0)
                _finish(proc, watchdog)
                setup.append(ready)
        proc, ready, watchdog = _start_worker(
            [*worker_argv, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            env,
            WORKER_TIMEOUT_S,
        )
        setup.append(ready)
        raw = json.loads(_finish(proc, watchdog).strip().splitlines()[-1])
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.is_dir() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    library = Path(raw["library_file"]).resolve()
    if ROOT / "src" not in library.parents:
        print(f"perfbench: imported {library}, not the library under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.trace:
        section, computed, details = "per_layer", raw["per_layer"], {}
    else:
        section = "end_to_end"
        computed, details = end_to_end(raw, setup)
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in bench[section]}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": raw["inputs"],
        "inputs_sha256": raw["inputs_sha256"],
        "attempted": raw["attempted"],
        "failures": raw["failures"][:5],
        **details,
        "environment": {**_environment(), **raw["versions"]},
    }
    for name, metric in metrics.items():
        print(f"perfbench: {args.workload} {name} = {metric['value']:.6g} {metric['unit']}",
              file=sys.stderr)
    print(json.dumps({"report": report}))
    failed = len(raw["failures"])
    print(json.dumps({"correct": failed == 0, "attempted": raw["attempted"], "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
