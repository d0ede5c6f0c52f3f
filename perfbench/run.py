"""The repository's benchmark: four seeded workloads through the real CLI.

One run::

    python3 perfbench/run.py --workload batch-short --seed 1 --seconds 20 --trace 0

prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (every end-to-end metric with
``--trace 0``, every per-layer metric with ``--trace 1``).

Steadiness mode runs each named workload once per seed and prints each
metric's median, quartiles and quartile spread::

    python3 perfbench/run.py --steady 10 --workload batch-short --workload serve-mix

Paper mode prints the sim-paper cycle counts and Fig. 9 speed-ups for
one seed, to set beside ``EXPERIMENTS.md``::

    python3 perfbench/run.py --paper --seed 1

The program is run from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_run"

WORKLOADS = ("batch-short", "batch-long", "serve-mix", "sim-paper")

#: name -> unit, reported with --trace 0 on every workload.
END_TO_END = {
    "setup_s": "s",
    "pairs_per_s": "1/s",
    "p50_ms": "ms",
    "peak_rss_mb": "MB",
}

#: name -> unit, reported with --trace 1 on every workload (0 where the
#: workload does not reach the layer).
PER_LAYER = {
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
    "host.steal_share": "%",
    "interp.startup_s": "s",
    "interp.exit_s": "s",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "seqio.parse_s": "s",
    "seqio.input_bytes": "bytes",
    "engine.align_batch_s": "s",
    "engine.self_s": "s",
    "engine.resolve_s": "s",
    "engine.dispatch_s": "s",
    "engine.ipc_s": "s",
    "engine.gather_s": "s",
    "engine.chunks": "count",
    "engine.pairs_aligned": "count",
    "engine.cache_lookups": "count",
    "engine.cache_hits": "count",
    "engine.coalesced": "count",
    "engine.worker_busy_s": "s",
    "engine.worker_utilisation": "ratio",
    "engine.retries": "count",
    "arena.shm_peak_bytes": "bytes",
    "align.self_s": "s",
    "align.chunk_s": "s",
    "align.chunk_calls": "count",
    "align.pairs_per_call": "count",
    "align.swg_cells": "count",
    "align.gcups": "GCUPS",
    "align.pack_s": "s",
    "align.compute_s": "s",
    "align.extend_s": "s",
    "align.backtrace_s": "s",
    "serve.self_s": "s",
    "serve.idle_s": "s",
    "serve.batches": "count",
    "serve.batch_size_mean": "count",
    "serve.rejected": "count",
    "serve.engine_ms": "ms",
    "serve.wait_ms": "ms",
    "serve.client_lag_ms": "ms",
    "serve.open_p50_ms": "ms",
    "serve.p99_ms": "ms",
    "obs.publish_s": "s",
    "soc.self_s": "s",
    "soc.run_accelerated_s": "s",
    "soc.run_cpu_s": "s",
    "soc.cpu_driver_cycles": "cycles",
    "soc.cpu_backtrace_cycles": "cycles",
    "soc.cpu_scalar_cycles": "cycles",
    "sim_cycles_per_pair": "cycles",
    "wfasic.self_s": "s",
    "wfasic.run_image_s": "s",
    "wfasic.backtrace_cpu_s": "s",
    "wfasic.accelerator_cycles": "cycles",
    "wfasic.alignment_cycles": "cycles",
    "wfasic.reading_cycles_per_pair": "cycles",
    "wfasic.host_us_per_kcycle": "us/kcycle",
}


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run: the result object (see the module docstring)."""
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        raise SystemExit(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    sys.path.insert(0, str(HERE))
    import procs
    import workloads

    work = WORK / f"{workload}-{seed}-{'trace' if trace else 'plain'}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    ctx = workloads.Context(
        workload=workload, seed=seed, seconds=seconds, trace=trace, work=work, env=env
    )
    before = procs.cpu_times()
    try:
        result = workloads.RUNNERS[workload](ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # CPU time the hypervisor gave to other guests: a run with a large
    # share measured a slowed host, not a slowed program.
    steal = procs.steal_share(before, procs.cpu_times())
    if steal is not None:
        print(f"host: steal {steal:.1f} % of CPU time during the run", file=sys.stderr)
        if trace:
            result["metrics"]["host.steal_share"] = steal
    catalogue = PER_LAYER if trace else END_TO_END
    unknown = set(result["metrics"]) - set(catalogue)
    if unknown:
        ctx.fail(f"metrics outside the catalogue: {sorted(unknown)}")
    if trace:
        workloads.check_sum(ctx, result["metrics"])
    for problem in ctx.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": not ctx.problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": float(result["metrics"].get(name, 0.0)), "unit": unit}
            for name, unit in catalogue.items()
        },
    }


def steady(workload_names: list[str], runs: int, seconds: float, trace: bool) -> None:
    """Run each workload ``runs`` times (seeds 1..runs) and print the spread."""
    for workload in workload_names:
        values: dict[str, list[float]] = {}
        shares = set()
        for seed in range(1, runs + 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(int(trace))],
                capture_output=True, text=True, check=False,
            )
            host = [line for line in proc.stderr.split("\n") if line.startswith("host:")]
            if proc.returncode != 0:
                print(proc.stderr[-2000:], file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
            doc = json.loads(proc.stdout.strip().split("\n")[-1])
            if not doc["correct"]:
                print(proc.stderr[-2000:], file=sys.stderr)
            shares.add((doc["failed"], doc["attempted"]))
            for name, metric in doc["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: correct={doc['correct']} attempted={doc['attempted']} "
                  f"failed={doc['failed']} {' '.join(host)} " + " ".join(
                      f"{k}={m['value']:.5g}" for k, m in doc["metrics"].items()
                  ), file=sys.stderr)
        print(f"\n{workload}: {runs} runs of {seconds:g} s, failed/attempted {sorted(shares)}")
        print(f"{'metric':<32} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/median':>11}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            print(f"{name:<32} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>10.1%}")


def paper(seed: int) -> None:
    """Cycle counts and Fig. 9 speed-ups of the sim-paper sets for ``seed``."""
    sys.path.insert(0, str(HERE))
    import gen
    import workloads

    work = WORK / f"paper-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = workloads.Context(
        workload="sim-paper", seed=seed, seconds=0, trace=True, work=work,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    try:
        inputs = gen.write_inputs("sim-paper", seed, 0, work)
        tr = workloads.Trace()
        r = workloads.sim_round(ctx, inputs["sets"], True, tr)
        reading = workloads.reading_cycles(tr)
        print(f"{'set':<8} {'pairs':>5} {'accel cyc/pair':>15} {'cpu cyc/pair':>13} "
              f"{'speed-up BT':>12} {'read cyc':>9}")
        for s in inputs["sets"]:
            accel, cpu = r["parsed"][(s["name"], "accel")], r["parsed"][(s["name"], "cpu")]
            print(f"{s['name']:<8} {s['pairs']:>5} {accel.cycles / s['pairs']:>15.0f} "
                  f"{cpu.cycles / s['pairs']:>13.0f} {cpu.cycles / accel.cycles:>11.1f}x "
                  f"{reading[s['length']]:>9}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in ctx.problems:
        print(f"check failed: {problem}", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description="repro-wfasic benchmark")
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, metavar="RUNS", help="steadiness mode")
    parser.add_argument("--paper", action="store_true", help="paper mode")
    args = parser.parse_args()
    if args.paper:
        paper(args.seed)
        return 0
    if args.steady:
        steady(args.workload or list(WORKLOADS), args.steady, args.seconds, bool(args.trace))
        return 0
    if not args.workload or len(args.workload) != 1:
        parser.error("one --workload per run")
    result = run_once(args.workload[0], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
