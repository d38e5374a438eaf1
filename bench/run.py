"""negmono benchmark: seeded workloads through negmono's public API.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--holdout-seed M]

Workloads: qubit-campaign, qutrit-campaign, roof-oracle-2q, roof-3x3 (see
workloads.py).  A run sets up (import negmono from ``src/`` of this
checkout, build the workload, one warm-up call), then runs chunks of work
until ``--seconds`` have passed, checking every output.  The last stdout
line is one JSON object: ``correct``, ``attempted`` and ``failed``
operations, and the metrics, each with its unit.

With ``--trace 0`` the metrics are end to end: ``states_per_s`` (median
over chunks of states per second), ``setup_s`` (median of five set-ups,
four of them in child interpreters) and ``peak_rss_mb``.  With
``--trace 1`` the first half of the window runs untraced, the same chunks
then run again with a span around every call into negmono's layers, and
the metrics are the per-layer ones of tracing.PER_LAYER; the spans are
written to ``bench/out/`` as JSON lines.  Lines before the result report the
environment, the sha256 of every campaign report and, by name and unit,
the metrics that do not gate a run (failure rate and, where the roof is
called directly, its call time and value quality).

``--holdout-seed`` mixes a second seed into every input, for checking a
gain on inputs not seen while the change was written.

BLAS is pinned to one thread and all load comes from this one process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--holdout-seed", type=int, default=None)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def entropy_of(args) -> tuple:
    return (args.seed,) if args.holdout_seed is None else (args.seed, args.holdout_seed)


def setup(args):
    """Import negmono from this checkout, build the workload and make one
    warm-up call; returns the workload and the seconds this took."""
    start = time.perf_counter()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import negmono
    except ImportError as exc:
        sys.exit(f"cannot import negmono from {src}: {exc}")
    if Path(negmono.__file__).resolve().parent != src / "negmono":
        sys.exit(f"negmono was imported from {negmono.__file__}, not from {src}")
    import workloads

    try:
        workload = workloads.make(args.workload, entropy_of(args))
    except ValueError as exc:
        sys.exit(str(exc))
    workload.warm_up()
    return workload, time.perf_counter() - start


def child_setup_seconds(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.holdout_seed is not None:
        cmd += ["--holdout-seed", str(args.holdout_seed)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout.splitlines()[-1])["setup_s"]


def environment(args, started: str) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "holdout_seed": args.holdout_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "started": started,
    }


def measure(workload, seconds: float) -> list:
    chunks = []
    deadline = time.perf_counter() + seconds
    for n, index in enumerate(workload.order()):
        if n >= workload.min_chunks and time.perf_counter() >= deadline:
            break
        chunks.append(workload.run(index))
    return chunks


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def report_untimed(name: str, chunks: list) -> None:
    """Print the metrics that do not gate a run, by name and unit."""
    attempted = sum(c.attempted for c in chunks)
    failed = sum(c.failed for c in chunks)
    print(f"metric {name} failure_rate {failed / attempted:.6g} ratio ({failed}/{attempted} operations)")
    calls = [call for c in chunks for call in c.roof_calls]
    if not calls:
        return
    print(f"metric {name} roof_call_p50_s {statistics.median(t for *_, t in calls):.6g} s "
          f"({len(calls)} calls)")
    for direction, label in (("min", "roof_min_mean"), ("max", "roof_max_mean")):
        values = [v for d, v, _, _ in calls if d.value == direction]
        if values:
            print(f"metric {name} {label} {statistics.fmean(values):.12g} negativity "
                  f"({len(values)} calls, value before squaring)")
    print(f"metric {name} roof_spread_max {max(s for _, _, s, _ in calls):.6g} negativity")


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    started = datetime.now(timezone.utc).isoformat(timespec="seconds")
    workload, setup_s = setup(args)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    env = environment(args, started)
    print("env " + json.dumps(env), flush=True)

    if args.trace:
        from tracing import PER_LAYER, Tracer

        untraced = measure(workload, args.seconds / 2)
        tracer = Tracer(args.workload)
        tracer.install(sys.modules)
        try:
            traced = [workload.run(c.index) for c in untraced]
        finally:
            tracer.restore()
        chunks = untraced + traced
        metrics = tracer.metrics(
            states=sum(c.states for c in traced),
            traced_s=sum(c.seconds for c in traced),
            untraced_s=sum(c.seconds for c in untraced),
        )
        metrics = {n: metric(v, PER_LAYER[n][0]) for n, v in metrics.items()}
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        tag = "-".join(str(s) for s in entropy_of(args))
        tracer.write(out_dir / f"spans-{args.workload}-{tag}.json", env)
    else:
        setups = [setup_s] + [child_setup_seconds(args) for _ in range(SETUP_REPEATS - 1)]
        chunks = measure(workload, args.seconds)
        rates = [c.states / c.seconds for c in chunks]
        metrics = {
            "states_per_s": metric(statistics.median(rates), "1/s"),
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        print(f"metric {args.workload} states_per_s over {len(chunks)} chunks, "
              f"{sum(c.states for c in chunks)} states; mean "
              f"{sum(c.states for c in chunks) / sum(c.seconds for c in chunks):.6g} 1/s")
        print(f"metric {args.workload} setup_s samples {[round(s, 4) for s in setups]}")

    report_untimed(args.workload, chunks)
    for name, m in metrics.items():
        print(f"metric {args.workload} {name} {m['value']:.6g} {m['unit']}")
    attempted = sum(c.attempted for c in chunks)
    failed = sum(c.failed for c in chunks)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
