"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload theorem --seeds 1 2 3 4 5

Runs ``perfbench/run.py`` once per seed (tracing off, BENCHMARK.json's
``run_seconds``) and prints, for each end-to-end metric, the median of the
values and the distance between their first and third quartile as a share of
that median next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import quartile_spread

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in args.seeds:
        start = time.perf_counter()
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, check=True,
        ).stdout.strip().splitlines()
        result = json.loads(out[-1])
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        print(f"seed {seed}: {time.perf_counter() - start:.1f} s, "
              f"failed {result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    for metric in bench["end_to_end"]:
        xs = values[metric["name"]]
        spread = quartile_spread(xs) if len(xs) >= 2 else float("nan")
        print(f"{args.workload} {metric['name']}: median {statistics.median(xs):.6g} "
              f"spread {spread:.4f} bound {metric['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
