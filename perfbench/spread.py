"""Run the benchmark once per seed and summarise each metric over the runs.

    python3 perfbench/spread.py --workload suites-cli --seeds 1-10 [--trace 1]

Runs are made one after another. For each metric it prints the median and
the spread, the distance between the first and third quartiles of
``statistics.quantiles(values, n=4)`` as a share of the median, and it prints
the failed share of attempted operations seen in the runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()
    values: dict[str, list[float]] = {}
    shares = set()
    for seed in args.seeds:
        argv = [sys.executable, str(RUN), "--workload", args.workload,
                "--seed", str(seed), "--trace", args.trace]
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(child.stdout.splitlines()[-1])
        shares.add(str(Fraction(result["failed"], result["attempted"])))
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"{args.workload}: {len(args.seeds)} runs, failed share of attempted seen: "
          + ", ".join(sorted(shares)))
    for name, vals in values.items():
        median = statistics.median(vals)
        if len(vals) > 1 and median:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = f"{(q3 - q1) / abs(median):.3f}"
        else:
            spread = "-"
        print(f"  {name:30s} median {median:.6g}  spread {spread}  "
              f"min {min(vals):.6g}  max {max(vals):.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
