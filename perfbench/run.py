#!/usr/bin/env python3
"""volswap benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload swap_daily --seed 1 --seconds 25 --trace 0

Run from the repository root; the library is imported from ``src/``.  With
``--trace 0`` the last line of output is a JSON object with the end-to-end
metrics, with ``--trace 1`` one with the per-layer metrics (see
``perfbench/README.md``).  Every result is checked against the stored
references in ``perfbench/refs/``.
"""

import os
import sys
import time

# One BLAS thread, set before numpy is imported here and in every child:
# with a second OpenBLAS thread the small matvecs of the library time thread
# wake-ups, not compute.  Monte Carlo streams stay within the core count.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
os.environ["VOLSWAP_THREADS"] = str(min(2, os.cpu_count() or 1))

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("swap_daily", "swap_intraday", "option_smile", "cli_validate")
SETUP_REPEATS = 5


def _import_library():
    """Import volswap from this checkout's src/, and nowhere else."""
    if not (SRC / "volswap" / "__init__.py").is_file():
        sys.exit(f"error: no volswap package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import volswap

    if Path(volswap.__file__).resolve().parent != SRC / "volswap":
        sys.exit(f"error: imported volswap from {volswap.__file__}, not {SRC}")
    return volswap


def setup_probe(name: str) -> None:
    """Child process: time the library import plus one warm-up request
    (loading the references is not counted) and print it."""
    import workloads

    t0 = time.perf_counter()
    _import_library()
    wl = workloads.Workload(name)
    t1 = time.perf_counter()
    pool = workloads.load_pool(name)
    t2 = time.perf_counter()
    wl.warm_up(pool)
    t3 = time.perf_counter()
    print(json.dumps({"setup_s": (t1 - t0) + (t3 - t2)}))


def measure_setup(name: str) -> list[float]:
    """Set-up time of SETUP_REPEATS fresh processes, one after another."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", name],
            cwd=ROOT, capture_output=True, text=True, timeout=30, check=False,
        )
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def environment(volswap) -> dict:
    import mpmath
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "volswap_threads": os.environ["VOLSWAP_THREADS"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "volswap": volswap.__version__,
    }


def _p50(xs):
    return statistics.median(xs)


def _p90(xs):
    return statistics.quantiles(xs, n=10)[-1] if len(xs) > 1 else xs[0]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="volswap benchmark (one workload, one run)")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    volswap = _import_library()
    import spans
    import workloads

    setup = [] if args.trace else measure_setup(args.workload)

    wl = workloads.Workload(args.workload)
    pool = workloads.load_pool(args.workload)
    instances = workloads.select(args.workload, pool, args.seed)
    wl.warm_up(pool)

    tracer = None
    if args.trace:
        span_cost = spans.span_cost()
        tracer = spans.Tracer(workloads.REL_TOL)
        tracer.install()

    # Closed loop over the sample in order until the time is up, and at least
    # one whole pass, so that every instance of the sample is checked.
    n_inst = len(instances)
    requests = []
    t0 = time.perf_counter()
    deadline = t0 + args.seconds
    while len(requests) < n_inst or time.perf_counter() < deadline:
        requests.append(wl.run(instances[len(requests) % n_inst]))
    wall = time.perf_counter() - t0

    # attempted and failed count each result of the sample once, from the
    # first pass, so a seed gives the same counts however many passes the
    # time allows.  Later passes must repeat the first pass's outcomes.
    results = [r for req in requests[:n_inst] for r in req.results]
    attempted = len(results)
    outcomes = Counter(o for o, _ in results)
    failed = attempted - outcomes["ok"]
    labels = [[o for o, _ in req.results] for req in requests]
    unstable = sum(1 for i, lab in enumerate(labels) if lab != labels[i % n_inst])
    lies = sum(1 for req in requests for _, lie in req.results if lie)
    timed_results = sum(len(req.results) for req in requests)
    # Latency of each instance of the sample is the median over its passes;
    # the percentiles are taken over instances, so a partly finished last
    # pass does not shift the mix.
    per_inst = [[] for _ in range(n_inst)]
    for i, req in enumerate(requests):
        per_inst[i % n_inst].append(req.seconds * 1e3)
    latency = [statistics.median(xs) for xs in per_inst]
    first = [req.first_seconds * 1e3 for req in requests]
    env = environment(volswap)

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"instances={len(instances)} passes={len(requests) / len(instances):.2f}")
    print("environment: " + " ".join(f"{k}={v!r}" for k, v in env.items()))
    print(f"outcomes: {dict(sorted(outcomes.items()))}")
    print(f"fail_frac = {failed / attempted:.6g} ({failed} of the sample's {attempted} results)")
    print(f"false certificates (certified or converged results outside tolerance): {lies}")
    print(f"requests whose outcomes differ from the first pass: {unstable}")

    # Names and units of the metrics are those declared in BENCHMARK.json.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    if tracer is None:
        metrics = {
            "setup_s": _p50(setup),
            "request_ms_p50": _p50(latency),
            "request_ms_p90": _p90(latency),
            "results_per_s": timed_results / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        over = f"n={n_inst} instances, {len(requests)} requests"
        basis = {"setup_s": f"median of {len(setup)} fresh processes",
                 "request_ms_p50": over,
                 "request_ms_p90": over,
                 "results_per_s": f"{timed_results} results in {wall:.3f} s",
                 "peak_rss_mb": "ru_maxrss of this process"}
        for name, value in metrics.items():
            print(f"{name} = {value:.6g} {units[name]} ({basis[name]})")
        print(f"first result of each request, median (not gated): {_p50(first):.6g} ms")
    else:
        tracer.request_seconds = [req.seconds for req in requests]
        tracer.first_seconds = [req.first_seconds for req in requests]
        metrics = tracer.metrics(span_cost)
        for name, value in metrics.items():
            print(f"{name} = {value:.6g} {units[name]}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record_out = {"args": vars(args), "environment": env, "outcomes": dict(outcomes),
                  "attempted": attempted, "false_certificates": lies, "unstable": unstable,
                  "requests": [[round(r.seconds * 1e3, 4), round(r.first_seconds * 1e3, 4),
                                [o for o, _ in r.results]] for r in requests],
                  "metrics": metrics}
    (OUT / f"{stem}.json").write_text(json.dumps(record_out, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.json")

    print(json.dumps({
        "correct": lies == 0 and unstable == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
