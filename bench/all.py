"""Run every workload of BENCHMARK.json and print one table of its metrics.

Usage, from the root of a source checkout:

    python3 bench/all.py [--seed N] [--seconds S] [--trace 0|1]

Each workload runs as its own ``bench/run.py`` process; the table lists each
metric by name and unit, plus failed operations over attempted ones.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

SPEC = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    status = 0
    for workload in (w["name"] for w in SPEC["workloads"]):
        cmd = [*SPEC["command"], "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(f"{workload}: exit code {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        print(f"{workload}: failed_frac {result['failed'] / result['attempted']:.6g} "
              f"({result['failed']}/{result['attempted']}), correct {result['correct']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:28s} {metric['value']:>16.6g} {metric['unit']}")
        status |= not result["correct"]
    return status


if __name__ == "__main__":
    sys.exit(main())
