"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/spread.py --workload desk-train --seconds 20 --seeds 1-10

For every metric of the final result line it prints the median and the
quartile spread, (Q3 - Q1) / median, with the quartiles of
``statistics.quantiles(values, n=4)``. Runs one seed at a time.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--seeds", default="1-10", help="range such as 1-10")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    for seed in seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        print(f"seed {seed}: correct {result['correct']}, attempted {result['attempted']}, "
              f"failed {result['failed']}, " + ", ".join(
                  f"{k} {m['value']:.6g}" for k, m in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        median = statistics.median(vals)
        if len(vals) > 1 and median:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            print(f"{name}: median {median:.6g}, spread {(q3 - q1) / median:.4f}")
        else:
            print(f"{name}: median {median:.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
