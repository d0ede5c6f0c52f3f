"""The four workloads: set-up, timed rounds, traced rounds, output checks.

Every workload follows the same plan:

1. write the seeded inputs (:mod:`gen`) — outside any timing;
2. set-up: one untimed launch warms the bytecode and page caches, then
   :data:`SETUP_LAUNCHES` timed launches on a one-pair input (``serve``:
   spawn to ready-file); ``setup_s`` is their median;
3. whole rounds of the same operations while another round fits in
   ``--seconds`` (``--trace 1`` alternates an untraced and a traced round);
4. check the outputs: against the oracle on a seeded sample, CIGARs
   re-scored, every round's output identical to the first.
"""

from __future__ import annotations

import bisect
import json
import random
import re
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import gen
import procs
import serveclient
from attribution import Span, attribute
from oracle import CigarError, cigar_score, gotoh_score

HERE = Path(__file__).resolve().parent
SETUP_LAUNCHES = 5
MB = 1e6

#: Table 1 reading cycles per pair, and the tolerance the model must meet.
PAPER_READING_CYCLES = {100: 75, 1000: 376}
READING_TOLERANCE = 0.02

#: Span layers and their self-time metrics.  With the interpreter's
#: start-up and exit and ``trace.unattributed_s`` they add up to
#: ``trace.wall_s``.
SELF_METRICS = {
    "cli.import": "cli.import_s",
    "cli": "cli.self_s",
    "seqio": "seqio.parse_s",
    "engine": "engine.self_s",
    "align": "align.self_s",
    "obs": "obs.publish_s",
    "serve": "serve.self_s",
    "serve.idle": "serve.idle_s",
    "soc": "soc.self_s",
    "wfasic": "wfasic.self_s",
}


@dataclass
class Context:
    """One run: its workload, seed and length, and what its checks found."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    work: Path
    env: dict[str, str]
    problems: list[str] = field(default_factory=list)
    counter: int = 0

    def cli(self, *args: str) -> list[str]:
        return [sys.executable, "-m", "repro.cli", *args]

    def traced(self, spans: Path, *args: str) -> list[str]:
        return [sys.executable, str(HERE / "launch.py"), str(spans), "--", *args]

    def path(self, stem: str) -> Path:
        self.counter += 1
        return self.work / f"{self.counter:04d}-{stem}"

    def launch(self, argv: list[str], stem: str, watch_shm: bool = False) -> tuple[procs.Launch, str]:
        out = self.path(stem + ".out")
        launch = procs.run(
            argv,
            env=self.env,
            cwd=self.work,
            stdout=out,
            stderr=out.with_suffix(".err"),
            watch_shm=watch_shm,
        )
        text = out.read_text(encoding="ascii", errors="replace")
        if launch.returncode != 0:
            err = out.with_suffix(".err").read_text(errors="replace")[-400:]
            self.fail(f"{' '.join(argv[2:5])} exited {launch.returncode}: {err}")
        return launch, text

    def fail(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)

    def another_round(self, since: float, rounds: int) -> bool:
        """Whether one more whole round fits in ``--seconds`` (two at least)."""
        spent = time.perf_counter() - since
        return rounds < 2 or spent + spent / rounds <= self.seconds


# -- traced launches ------------------------------------------------------------


@dataclass
class Trace:
    """Additive per-layer figures of one or more traced launches."""

    values: dict[str, float] = field(default_factory=dict)
    reports: list[dict] = field(default_factory=list)
    results: dict[str, list] = field(default_factory=dict)
    durations: dict[str, list[float]] = field(default_factory=dict)
    requests: list[list] = field(default_factory=list)
    #: (end, duration) of every engine span, for the serve wait split
    engine_spans: list[tuple[float, float]] = field(default_factory=list)
    shm_peak: int = 0

    def add(self, name: str, value: float) -> None:
        self.values[name] = self.values.get(name, 0.0) + value


def read_trace(spans_path: Path, wall: float, started: float, into: Trace) -> None:
    """Fold one launcher's spans into ``into`` (spawned at ``started``)."""
    body, done = spans_path.read_text(encoding="ascii").rsplit("\n", 2)[:2]
    doc = json.loads(body)
    end_of_run = max((s[4] for s in doc["spans"] if s[4] is not None), default=doc["t0"])
    spans = [
        Span(s[0], s[1], s[2], s[3], s[4] if s[4] is not None else end_of_run, s[5], s[6])
        for s in doc["spans"]
    ]
    owned = attribute(spans)
    unknown = set(owned) - set(SELF_METRICS)
    if unknown:
        raise ValueError(f"spans of unknown layers {sorted(unknown)}")
    for layer, metric in SELF_METRICS.items():
        into.add(metric, owned.get(layer, 0.0))
    startup = doc["t0"] - started
    exit_s = started + wall - float(done)
    into.add("trace.wall_s", wall)
    into.add("interp.startup_s", startup)
    into.add("interp.exit_s", exit_s)
    into.add("trace.unattributed_s", wall - sum(owned.values()) - startup - exit_s)
    for s in spans:
        if s.layer != "serve.idle":
            into.durations.setdefault(s.name, []).append(s.duration)
        if s.layer == "engine":
            into.engine_spans.append((s.end, s.duration))
    into.reports.extend(doc["results"].get("engine", []))
    for kind, values in doc["results"].items():
        into.results.setdefault(kind, []).extend(values)
    into.requests.extend(doc["requests"])


def layer_metrics(tr: Trace, rounds: int, untraced_walls: list[float], traced_walls: list[float]) -> dict[str, float]:
    """Every per-layer metric, as a mean per traced round."""
    per = 1.0 / max(rounds, 1)
    v = {k: x * per for k, x in tr.values.items()}
    reports = tr.reports
    pooled = [r for r in reports if r["workers"] > 1]

    def total(values) -> float:
        return sum(values) * per

    def stage(name: str, key: str = "seconds") -> float:
        return total(r["profile"].get(name, {}).get(key, 0) for r in reports)

    def spans(name: str) -> float:
        return total(tr.durations.get(name, []))

    # Chunks run in-process are spans; chunks run in pool workers are
    # known only from the engine's report.
    chunk_names = [n for n in tr.durations if n.endswith(".align_chunk_profiled")]
    busy = total(sum(r["workers_busy_seconds"].values()) for r in pooled)
    elapsed_workers = total(r["elapsed_seconds"] * r["workers"] for r in reports)
    chunk_s = sum(spans(n) for n in chunk_names) + busy
    chunk_calls = total(len(tr.durations[n]) for n in chunk_names) + total(
        r["profile"].get("execute", {}).get("calls", 0) for r in pooled
    )
    aligned = total(r["pairs_aligned"] for r in reports)
    swg_cells = total(r["swg_cells"] for r in reports)
    accel = tr.results.get("soc.accelerated", [])
    cpu = tr.results.get("soc.cpu", [])
    batches = tr.results.get("wfasic.batch", [])
    accel_cycles = total(b["total_cycles"] for b in batches)
    batch_pairs = sum(b["pairs"] for b in batches)
    accel_pairs = sum(a["pairs"] for a in accel)
    m = {
        "trace.wall_s": v.get("trace.wall_s", 0.0),
        "trace.unattributed_s": v.get("trace.unattributed_s", 0.0),
        "interp.startup_s": v.get("interp.startup_s", 0.0),
        "interp.exit_s": v.get("interp.exit_s", 0.0),
        "trace.overhead_s": (
            statistics.mean(traced_walls) - statistics.mean(untraced_walls)
            if traced_walls and untraced_walls
            else 0.0
        ),
        "engine.align_batch_s": total(d for _, d in tr.engine_spans),
        "engine.resolve_s": stage("resolve"),
        "engine.dispatch_s": stage("dispatch"),
        "engine.ipc_s": stage("ipc"),
        "engine.gather_s": stage("gather"),
        "engine.chunks": stage("execute", "calls"),
        "engine.pairs_aligned": aligned,
        "engine.cache_lookups": total(r["num_pairs"] - r["rejected"] for r in reports),
        "engine.cache_hits": total(r["cache_hits"] for r in reports),
        "engine.coalesced": total(r["coalesced"] for r in reports),
        "engine.worker_busy_s": busy,
        "engine.worker_utilisation": busy / elapsed_workers if busy and elapsed_workers else 0.0,
        "engine.retries": total(r["retries"] for r in reports),
        "arena.shm_peak_bytes": float(tr.shm_peak),
        "align.chunk_s": chunk_s,
        "align.chunk_calls": chunk_calls,
        "align.pairs_per_call": aligned / chunk_calls if chunk_calls else 0.0,
        "align.swg_cells": swg_cells,
        "align.gcups": swg_cells / chunk_s / 1e9 if chunk_s else 0.0,
        "align.pack_s": stage("pack"),
        "align.compute_s": stage("compute"),
        "align.extend_s": stage("extend"),
        "align.backtrace_s": stage("backtrace"),
        "soc.run_accelerated_s": spans("Soc.run_accelerated"),
        "soc.run_cpu_s": spans("Soc.run_cpu"),
        "soc.cpu_driver_cycles": total(a["driver"] for a in accel),
        "soc.cpu_backtrace_cycles": total(a["backtrace"] for a in accel),
        "soc.cpu_scalar_cycles": total(c["cycles"] for c in cpu),
        "wfasic.run_image_s": spans("WfasicAccelerator.run_image"),
        "wfasic.backtrace_cpu_s": spans("CpuBacktracer.process"),
        "wfasic.accelerator_cycles": accel_cycles,
        "wfasic.alignment_cycles": total(b["alignment_cycles"] for b in batches),
        "wfasic.reading_cycles_per_pair": (
            sum(b["reading_cycles_per_pair"] * b["pairs"] for b in batches) / batch_pairs
            if batch_pairs
            else 0.0
        ),
        "wfasic.host_us_per_kcycle": (
            spans("WfasicAccelerator.run_image") * 1e6 / (accel_cycles / 1e3) if accel_cycles else 0.0
        ),
        "sim_cycles_per_pair": (
            sum(a["total"] for a in accel) / accel_pairs if accel_pairs else 0.0
        ),
    }
    for metric in SELF_METRICS.values():
        m[metric] = v.get(metric, 0.0)
    return m


def check_sum(ctx: Context, m: dict[str, float]) -> None:
    parts = [*SELF_METRICS.values(), "interp.startup_s", "interp.exit_s", "trace.unattributed_s"]
    total = sum(m[metric] for metric in parts)
    if abs(total - m["trace.wall_s"]) > 1e-6 * max(1.0, m["trace.wall_s"]):
        ctx.fail(f"layer self times sum to {total:.6f}s, traced wall is {m['trace.wall_s']:.6f}s")


# -- shared checks ----------------------------------------------------------------


def sample_indices(ctx: Context, population: int, k: int) -> list[int]:
    rng = random.Random(f"perfbench/sample/{ctx.workload}/{ctx.seed}")
    return sorted(rng.sample(range(population), min(k, population)))


def check_score(ctx: Context, what: str, pattern: str, text: str, score: int) -> None:
    expected = gotoh_score(pattern, text)
    if score != expected:
        ctx.fail(f"{what}: score {score}, oracle {expected}")


def check_cigar(ctx: Context, what: str, pattern: str, text: str, cigar: str, score: int) -> None:
    try:
        rescored = cigar_score(pattern, text, cigar)
    except CigarError as exc:
        ctx.fail(f"{what}: {exc}")
        return
    if rescored != score:
        ctx.fail(f"{what}: CIGAR re-scores to {rescored}, reported {score}")


def setup_time(ctx: Context, argv: list[str]) -> float:
    ctx.launch(argv, "warm")
    return statistics.median(ctx.launch(argv, "setup")[0].wall for _ in range(SETUP_LAUNCHES))


def end_to_end(setup: float, rate: float, latencies: list[float], rss: float) -> dict[str, float]:
    return {
        "setup_s": setup,
        "pairs_per_s": rate,
        "p50_ms": procs.percentile(latencies, 50) * 1e3,
        "peak_rss_mb": rss / MB,
    }


# -- batch-short / batch-long -------------------------------------------------------

_TSV_HEADER = "pair_id\tscore\tsuccess\tcigar"


def parse_batch(ctx: Context, text: str, n: int) -> list[tuple[int, int, str]] | None:
    """(score, success, cigar) rows of a ``batch`` TSV, or None if malformed."""
    lines = text.split("\n")
    if not lines or lines[0] != _TSV_HEADER:
        ctx.fail("batch output does not start with the TSV header")
        return None
    rows = []
    for i, line in enumerate(lines[1 : n + 1]):
        parts = line.split("\t")
        if len(parts) != 4 or parts[0] != str(i):
            ctx.fail(f"batch output row {i} is malformed: {line[:60]!r}")
            return None
        rows.append((int(parts[1]), int(parts[2]), parts[3]))
    return rows


def run_batch(ctx: Context, flags: list[str], backtrace: bool, oracle_sample: int) -> dict:
    inputs = gen.write_inputs(ctx.workload, ctx.seed, ctx.seconds, ctx.work)
    n = inputs["pairs"]
    pairs = gen.read_pairs(ctx.work / inputs["input"])
    main_args = ["batch", inputs["input"], *flags]
    setup = setup_time(ctx, ctx.cli("batch", inputs["setup"], *flags))

    first: list | None = None
    attempted = failed = 0
    walls: list[float] = []
    rss: list[int] = []
    traced: list[float] = []
    tr = Trace()
    rounds_traced = 0
    since = time.perf_counter()
    rounds = 0
    while ctx.another_round(since, rounds):
        rounds += 1
        for tracing in ((False, True) if ctx.trace else (False,)):
            if tracing:
                spans = ctx.path("spans.json")
                launch, out = ctx.launch(ctx.traced(spans, *main_args), "traced", watch_shm=True)
                if launch.returncode == 0:
                    read_trace(spans, launch.wall, launch.started, tr)
                    tr.shm_peak = max(tr.shm_peak, launch.shm_peak)
                    rounds_traced += 1
                    traced.append(launch.wall)
            else:
                launch, out = ctx.launch(ctx.cli(*main_args), "batch")
                walls.append(launch.wall)
                rss.append(launch.peak_rss)
            attempted += n
            rows = parse_batch(ctx, out, n) if launch.returncode == 0 else None
            if rows is None:
                failed += n
                continue
            failed += sum(1 for _, success, _ in rows if success != 1)
            if first is None:
                first = rows
            elif rows != first:
                ctx.fail("batch output differs between rounds of the same input")

    if first is not None:
        for i in sample_indices(ctx, n, oracle_sample):
            check_score(ctx, f"pair {i}", pairs[i].pattern, pairs[i].text, first[i][0])
        if backtrace:
            for i, (score, _, cigar) in enumerate(first):
                check_cigar(ctx, f"pair {i}", pairs[i].pattern, pairs[i].text, cigar, score)
    if ctx.trace:
        metrics = layer_metrics(tr, rounds_traced, walls, traced)
        metrics["seqio.input_bytes"] = (ctx.work / inputs["input"]).stat().st_size
    else:
        latencies = [w for w in walls for _ in range(n)]
        metrics = end_to_end(
            setup,
            statistics.median(n / w for w in walls),
            latencies,
            statistics.median(rss),
        )
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def run_batch_short(ctx: Context) -> dict:
    # Default flags: the engine runs in-process, scores only.
    return run_batch(ctx, [], backtrace=False, oracle_sample=24)


def run_batch_long(ctx: Context) -> dict:
    return run_batch(ctx, ["-j", "2", "--backtrace"], backtrace=True, oracle_sample=6)


# -- serve-mix ------------------------------------------------------------------------


def _spawn_server(ctx: Context, argv: list[str], stem: str) -> tuple[subprocess.Popen, float, tuple[str, int]]:
    """Start a server; (process, spawn-to-ready seconds, address)."""
    ready = ctx.path(stem + ".ready")
    out = ctx.path(stem + ".out")
    err_path = out.with_suffix(".err")
    start = time.perf_counter()
    with open(out, "wb") as fh, open(err_path, "wb") as err:
        proc = subprocess.Popen(
            argv + ["--port", "0", "--ready-file", str(ready)],
            env=ctx.env,
            cwd=ctx.work,
            stdout=fh,
            stderr=err,
        )

    def wait_for(done) -> None:
        while not done():
            if proc.poll() is not None or time.perf_counter() - start > 60:
                procs.stop(proc)
                raise RuntimeError(f"server did not become ready: {err_path.read_text()[-400:]}")
            time.sleep(0.001)

    wait_for(lambda: ready.exists() and ready.read_text(encoding="ascii").endswith("\n"))
    took = time.perf_counter() - start
    # The server writes its ready-file before it installs its SIGTERM
    # handler, and a SIGTERM in between kills it outright.  It prints
    # "serving on" in the same step that installs the handler, so once
    # the line is out a request answered after it (_stop_server's ping)
    # proves the handler is in place.
    wait_for(lambda: b"serving on " in err_path.read_bytes())
    host, port = ready.read_text(encoding="ascii").split()
    return proc, took, (host, int(port))


def _stop_server(ctx: Context, proc: subprocess.Popen, address: tuple[str, int]) -> None:
    with socket.create_connection(address, timeout=60) as sock:
        sock.sendall(b'{"type":"ping","id":0}\n')
        sock.makefile("rb").readline()
    code = procs.stop(proc)
    if code != 0:
        ctx.fail(f"server exited {code}")


def _tree_rss(pid: int) -> int:
    return sum(procs.hwm_bytes(p) for p in procs.tree_pids(pid))


def check_serve(ctx: Context, schedule: dict, outcome: serveclient.Outcome) -> int:
    """Check every answer; the number of failed requests."""
    pairs = schedule["pairs"]
    failed = 0
    first: dict[int, tuple] = {}
    for rid, idx in outcome.requests.items():
        doc = outcome.responses.get(rid)
        if doc is None or not doc.get("ok") or not doc.get("success"):
            failed += 1
            continue
        answer = (doc["score"], doc["cigar"])
        if first.setdefault(idx, answer) != answer:
            ctx.fail(f"repeated pair {idx} answered {answer}, first {first[idx]}")
    longs = set(schedule["long"])
    short = [i for i in sorted(first) if i not in longs]
    long = [i for i in sorted(first) if i in longs]
    rng = random.Random(f"perfbench/sample/serve-mix/{ctx.seed}")
    sample = rng.sample(short, min(14, len(short))) + rng.sample(long, min(2, len(long)))
    for idx in sample:
        check_score(ctx, f"serve pair {idx}", pairs[idx][0], pairs[idx][1], first[idx][0])
    return failed


def run_serve_mix(ctx: Context) -> dict:
    inputs = gen.write_inputs(ctx.workload, ctx.seed, ctx.seconds, ctx.work)
    schedule = json.loads((ctx.work / inputs["schedule"]).read_text(encoding="ascii"))
    serve = ctx.cli("serve")
    proc, _, address = _spawn_server(ctx, serve, "warm")
    _stop_server(ctx, proc, address)
    setups = []
    for _ in range(SETUP_LAUNCHES - 1):
        proc, took, address = _spawn_server(ctx, serve, "setup")
        setups.append(took)
        _stop_server(ctx, proc, address)

    proc, took, (host, port) = _spawn_server(ctx, serve, "serve")
    setups.append(took)
    if ctx.trace:
        # Untraced saturating phase only: the baseline for the overhead.
        plain = serveclient.drive(host, port, dict(schedule, open_loop=[]))
    else:
        # Saturating bursts for the whole run.  The open loop's latency
        # is a per-layer figure of the traced session: at a fixed rate
        # the server idles between requests, and on a shared 2-vCPU
        # virtual machine every wake-up from idle waits on the
        # hypervisor: its median read 7.1-8.4 ms at 0.2-3.1 % steal and
        # 10.7-16.5 ms at 7.6-12.9 %.
        plain = serveclient.drive(
            host, port, dict(schedule, saturating_seconds=ctx.seconds, open_loop=[])
        )
    rss = _tree_rss(proc.pid)
    _stop_server(ctx, proc, (host, port))
    failed = check_serve(ctx, schedule, plain)
    attempted = len(plain.requests)
    if not ctx.trace:
        latencies = list(plain.burst_latency.values())
        metrics = end_to_end(
            statistics.median(setups),
            statistics.median(n / s for n, s in plain.bursts),
            latencies,
            rss,
        )
        return {"attempted": attempted, "failed": failed, "metrics": metrics}

    spans = ctx.path("spans.json")
    argv = ctx.traced(spans, "serve")
    start = time.perf_counter()
    proc, _, (host, port) = _spawn_server(ctx, argv, "traced")
    outcome = serveclient.drive(host, port, schedule, want_stats=True)
    _stop_server(ctx, proc, (host, port))
    wall = time.perf_counter() - start
    failed += check_serve(ctx, schedule, outcome)
    attempted += len(outcome.requests)
    tr = Trace()
    read_trace(spans, wall, start, tr)
    metrics = layer_metrics(tr, 1, [], [])
    # The sessions differ in length, so the overhead is the extra time of
    # a saturating burst, over the traced session's bursts.
    traced_burst = statistics.mean(s for _, s in outcome.bursts)
    plain_burst = statistics.mean(s for _, s in plain.bursts)
    metrics["trace.overhead_s"] = (traced_burst - plain_burst) * len(outcome.bursts)
    metrics.update(serve_metrics(tr, outcome))
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def serve_metrics(tr: Trace, outcome: serveclient.Outcome) -> dict[str, float]:
    """The serve layer's figures: stats request, spans and the client."""
    snapshot = (outcome.stats or {}).get("metrics", {})

    def series(name: str) -> list:
        return snapshot.get(name, {}).get("series", [])

    batches = sum(s["value"] for s in series("serve_batches_total"))
    requests = sum(s["value"]["sum"] for s in series("serve_batch_size"))
    engine = sorted(tr.engine_spans)
    ends = [end for end, _ in engine]
    # A request's engine time is that of the last batch that ended
    # before its answer; the rest of its latency is waiting.
    waits = []
    for _, begun, finished, _ in tr.requests:
        k = bisect.bisect_right(ends, finished) - 1
        waits.append(finished - begun - (engine[k][1] if k >= 0 else 0.0))
    return {
        "serve.batches": float(batches),
        "serve.batch_size_mean": requests / batches if batches else 0.0,
        "serve.rejected": float(sum(s["value"] for s in series("serve_rejected_total"))),
        "serve.engine_ms": statistics.mean(d for _, d in engine) * 1e3 if engine else 0.0,
        "serve.wait_ms": statistics.median(waits) * 1e3 if waits else 0.0,
        "serve.client_lag_ms": procs.percentile(list(outcome.lag.values()), 99) * 1e3
        if outcome.lag
        else 0.0,
        "serve.open_p50_ms": procs.percentile(list(outcome.latency.values()), 50) * 1e3
        if outcome.latency
        else 0.0,
        "serve.p99_ms": procs.percentile(list(outcome.latency.values()), 99) * 1e3
        if outcome.latency
        else 0.0,
    }



# -- sim-paper ------------------------------------------------------------------------

_ACCEL_ROW = re.compile(r"pair (\d+): score=(-?\d+)(?:  cigar=(\S*))?(  \[UNSUPPORTED/FAILED\])?$")
_ACCEL_SUMMARY = re.compile(r"(\d+) pairs, (\d+) failures, (\d+) cycles total")
_CPU_ROW = re.compile(r"pair (\d+): score=(-?\d+)$")
_CPU_SUMMARY = re.compile(r"(\d+) pairs, (\d+) CPU cycles")

#: The two Fig. 9 flows: WFAsic with backtrace, and the scalar CPU WFA.
SIM_FLOWS = (("accel", ("--engine", "accel", "--backtrace")), ("cpu", ("--engine", "cpu-scalar")))


@dataclass
class SimSet:
    """One flow's parsed ``align`` output for one input set."""

    scores: list[int]
    cigars: list[str | None]
    failed: list[bool]
    cycles: int


def parse_align(ctx: Context, flow: str, text: str, n: int) -> SimSet | None:
    row, summary = (_ACCEL_ROW, _ACCEL_SUMMARY) if flow == "accel" else (_CPU_ROW, _CPU_SUMMARY)
    lines = text.strip().split("\n")
    matches = [row.match(line) for line in lines[:-1]]
    total = summary.match(lines[-1]) if lines else None
    if len(matches) != n or not all(matches) or total is None:
        ctx.fail(f"{flow} align output is malformed")
        return None
    if any(int(m.group(1)) != i for i, m in enumerate(matches)):
        ctx.fail(f"{flow} align output is out of order")
        return None
    accel = flow == "accel"
    return SimSet(
        scores=[int(m.group(2)) for m in matches],
        cigars=[m.group(3) if accel else None for m in matches],
        failed=[bool(accel and m.group(4)) for m in matches],
        cycles=int(total.group(3) if accel else total.group(2)),
    )


def sim_round(ctx: Context, sets: list[dict], tracing: bool, tr: Trace) -> dict:
    """Both flows over every set once; walls, memory and parsed outputs."""
    out: dict = {"walls": {}, "rss": 0, "parsed": {}, "wall": 0.0}
    for s in sets:
        for flow, flags in SIM_FLOWS:
            args = ("align", s["file"], *flags)
            if tracing:
                spans = ctx.path("spans.json")
                launch, text = ctx.launch(ctx.traced(spans, *args), f"traced-{flow}")
                if launch.returncode == 0:
                    read_trace(spans, launch.wall, launch.started, tr)
            else:
                launch, text = ctx.launch(ctx.cli(*args), flow)
            out["walls"].setdefault(s["name"], 0.0)
            out["walls"][s["name"]] += launch.wall
            out["wall"] += launch.wall
            out["rss"] = max(out["rss"], launch.peak_rss)
            parsed = parse_align(ctx, flow, text, s["pairs"]) if launch.returncode == 0 else None
            out["parsed"][(s["name"], flow)] = parsed
    return out


def check_sim(ctx: Context, sets: list[dict], first: dict, reading: dict[int, float]) -> None:
    """The sim-paper output checks on the first round."""
    speedup: dict[str, float] = {}
    for s in sets:
        accel = first.get((s["name"], "accel"))
        cpu = first.get((s["name"], "cpu"))
        if accel is None or cpu is None:
            continue
        pairs = gen.read_pairs(ctx.work / s["file"])
        for i, p in enumerate(pairs):
            if accel.failed[i]:
                continue
            what = f"{s['name']} pair {i}"
            if accel.scores[i] != cpu.scores[i]:
                ctx.fail(f"{what}: accelerated score {accel.scores[i]}, CPU score {cpu.scores[i]}")
            if accel.cigars[i] is None:
                ctx.fail(f"{what}: no CIGAR with backtrace on")
            else:
                check_cigar(ctx, what, p.pattern, p.text, accel.cigars[i], accel.scores[i])
        for i in sample_indices(ctx, len(pairs), 3):
            check_score(ctx, f"{s['name']} pair {i}", pairs[i].pattern, pairs[i].text, accel.scores[i])
        speedup[s["name"]] = cpu.cycles / accel.cycles
    for short, long in (("100-5", "1K-5"), ("100-10", "1K-10")):
        if short in speedup and long in speedup and not speedup[long] > speedup[short]:
            ctx.fail(f"speed-up over the CPU model does not rise: {short} {speedup[short]:.1f}x, "
                     f"{long} {speedup[long]:.1f}x")
    for length, paper in PAPER_READING_CYCLES.items():
        got = reading.get(length)
        if got is None or abs(got - paper) > READING_TOLERANCE * paper:
            ctx.fail(f"reading cycles per pair at {length} bp: {got}, Table 1 {paper}")


def reading_cycles(tr: Trace) -> dict[int, float]:
    """Reading cycles per pair by read length, from traced accelerator batches."""
    out = {}
    for b in tr.results.get("wfasic.batch", []):
        length = 100 if b["max_read_len"] <= 112 else 1000
        out[length] = b["reading_cycles_per_pair"]
    return out


def run_sim_paper(ctx: Context) -> dict:
    inputs = gen.write_inputs(ctx.workload, ctx.seed, ctx.seconds, ctx.work)
    sets = inputs["sets"]
    n = inputs["pairs"]
    setup = setup_time(ctx, ctx.cli("align", inputs["setup"], *SIM_FLOWS[0][1]))
    tr = Trace()
    rounds: list[dict] = []
    traced_walls: list[float] = []
    attempted = failed = 0
    cycles0: dict | None = None
    since = time.perf_counter()
    while ctx.another_round(since, len(rounds)):
        for tracing in ((False, True) if ctx.trace else (False,)):
            r = sim_round(ctx, sets, tracing, tr)
            attempted += n
            if tracing:
                traced_walls.append(r["wall"])
            else:
                rounds.append(r)
            cycles = {k: (p.cycles if p else None) for k, p in r["parsed"].items()}
            if cycles0 is None:
                cycles0 = cycles
            elif cycles != cycles0:
                ctx.fail("simulated cycle counts differ between rounds of the same input")
            for s in sets:
                accel = r["parsed"].get((s["name"], "accel"))
                failed += s["pairs"] if accel is None else sum(accel.failed)
    if ctx.trace:
        probe = tr
    else:
        # The CLI does not print reading cycles: one traced accelerated
        # launch per read length reads them from the accelerator's batch.
        probe = Trace()
        for s in sets[:: len(sets) // 2]:
            spans = ctx.path("spans.json")
            launch, _ = ctx.launch(ctx.traced(spans, "align", s["file"], "--quiet"), "probe")
            if launch.returncode == 0:
                read_trace(spans, launch.wall, launch.started, probe)
    check_sim(ctx, sets, rounds[0]["parsed"], reading_cycles(probe))
    if ctx.trace:
        metrics = layer_metrics(tr, len(traced_walls), [r["wall"] for r in rounds], traced_walls)
        metrics["seqio.input_bytes"] = sum((ctx.work / s["file"]).stat().st_size for s in sets)
        return {"attempted": attempted, "failed": failed, "metrics": metrics}
    latencies = [r["walls"][s["name"]] for r in rounds for s in sets for _ in range(s["pairs"])]
    metrics = end_to_end(
        setup,
        statistics.median(n / r["wall"] for r in rounds),
        latencies,
        statistics.median(r["rss"] for r in rounds),
    )
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


RUNNERS = {
    "batch-short": run_batch_short,
    "batch-long": run_batch_long,
    "serve-mix": run_serve_mix,
    "sim-paper": run_sim_paper,
}
