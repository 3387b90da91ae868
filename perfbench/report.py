#!/usr/bin/env python3
"""Run every workload once, each in its own process, and print one table.

    python3 perfbench/report.py --seed 1 --seconds 25

Prints every end-to-end metric with its unit for each workload, plus the
failure share with its base and the median latency of each request's first
result (``--trace 1`` prints the per-layer metrics).
Exits non-zero if a run fails or reports a false certificate.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    results, first = {}, {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=HERE.parent, capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        record = HERE / "out" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        first[name] = statistics.median(r[1] for r in json.loads(record.read_text())["requests"])

    metrics = list(results[names[0]]["metrics"])
    width = max(len(m) for m in metrics + ["first_result_ms_p50"]) + 2
    print(f"{'metric':<{width}}{'unit':<10}" + "".join(f"{w:>16}" for w in names))
    for m in metrics:
        unit = results[names[0]]["metrics"][m]["unit"]
        row = "".join(f"{results[w]['metrics'][m]['value']:>16.6g}" for w in names)
        print(f"{m:<{width}}{unit:<10}{row}")
    row = "".join(f"{results[w]['failed'] / results[w]['attempted']:>16.6g}" for w in names)
    print(f"{'fail_frac':<{width}}{'fraction':<10}{row}")
    row = "".join(f"{results[w]['failed']:>7} of {results[w]['attempted']:<6}" for w in names)
    print(f"{'  failed of results':<{width}}{'count':<10}{row}")
    row = "".join(f"{first[w]:>16.6g}" for w in names)
    print(f"{'first_result_ms_p50':<{width}}{'ms':<10}{row}  (not gated)")
    print(f"{'correct':<{width}}{'':<10}" + "".join(f"{str(results[w]['correct']):>16}" for w in names))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
