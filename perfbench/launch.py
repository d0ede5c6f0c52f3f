"""Traced launcher: run one ``repro-wfasic`` command with layer spans.

Usage::

    python3 perfbench/launch.py SPANS.json -- <repro-wfasic arguments>

The launcher imports ``repro.cli`` (timed: the ``cli.import`` span),
wraps the public functions of each layer in spans, calls
``repro.cli.main`` with the arguments, and writes the spans and the
results the wrapped calls returned to ``SPANS.json`` (one JSON line,
then the ``perf_counter`` reading after the write).  Nothing inside
``src/repro`` is changed.  The spans stay in memory until the command
returns.

Which call opens which span (layer in brackets):

* ``repro.cli.main`` [cli]
* ``read_pairs_file`` / ``read_seq_file`` as the CLI calls them [seqio]
* ``BatchAlignmentEngine.align_batch`` [engine]
* the registered backends' ``align_chunk_profiled`` [align]
* ``publish_batch_report``, ``StageProfiler.publish``,
  ``publish_accelerator_batch``, ``publish_cpu_cycles`` [obs]
* ``AlignmentServer.start`` .. ``shutdown`` [serve]; each
  ``MicroBatcher.submit`` is a request record keyed by request id, and
  each wait of the event loop's selector while the session runs is a
  ``serve.idle`` span
* ``Soc.run_accelerated``, ``Soc.run_cpu`` [soc]
* ``WfasicAccelerator.run_image``, ``CpuBacktracer.process`` [wfasic]
"""

import time

T0 = time.perf_counter()

# Only what the span recorder needs is imported before ``repro.cli``,
# so the ``cli.import`` span holds the import's whole cost.
import functools  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402


class Recorder:
    """Spans in memory: [id, name, layer, start, end, parent, priority]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.requests: list[list] = []
        self.results: dict[str, list] = {}
        #: The ``repro.cli.main`` span, parent of the serve session.
        self.main: list | None = None
        #: Id of the open serve session span, parent of executor-thread spans.
        self.session: int | None = None
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name, layer, start, end, parent, priority=0) -> int:
        with self._lock:
            span_id = len(self.spans) + 1
            self.spans.append([span_id, name, layer, start, end, parent, priority])
        return span_id

    def begin(self, name: str, layer: str) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else self.session
        span_id = self.add(name, layer, time.perf_counter(), None, parent)
        stack.append(span_id)
        return self.spans[span_id - 1]

    def end(self, span: list) -> None:
        span[4] = time.perf_counter()
        self._stack().pop()

    def result(self, kind: str, value: dict) -> None:
        with self._lock:
            self.results.setdefault(kind, []).append(value)


REC = Recorder()


def wrap(owner, attr, layer, name=None, on_result=None):
    """Replace ``owner.attr`` with a spanned call of the original."""
    original = getattr(owner, attr)
    label = name or f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}"

    @functools.wraps(original)
    def spanned(*args, **kwargs):
        span = REC.begin(label, layer)
        try:
            result = original(*args, **kwargs)
        finally:
            REC.end(span)
        if on_result is not None:
            on_result(span, result, args)
        return result

    setattr(owner, attr, spanned)


def install() -> None:
    import asyncio
    import selectors

    import repro.cli as cli
    from repro.align.profile import StageProfiler
    from repro.engine import backends as backends_mod
    from repro.engine import engine as engine_mod
    from repro.serve import scheduler as scheduler_mod
    from repro.serve import server as server_mod
    from repro.soc import cpu as cpu_mod
    from repro.soc import soc as soc_mod
    from repro.wfasic import accelerator as accel_mod
    from repro.wfasic import backtrace_cpu as bt_mod

    wrap(cli, "read_pairs_file", "seqio")
    wrap(cli, "read_seq_file", "seqio")

    def engine_done(span, result, args):
        REC.result("engine", result.report.as_dict())

    wrap(engine_mod.BatchAlignmentEngine, "align_batch", "engine", on_result=engine_done)

    for name in backends_mod.backend_names():
        backend = backends_mod.get_backend(name)
        wrap(backend, "align_chunk_profiled", "align", f"{name}.align_chunk_profiled")

    wrap(engine_mod, "publish_batch_report", "obs")
    wrap(StageProfiler, "publish", "obs")
    wrap(soc_mod, "publish_accelerator_batch", "obs")
    wrap(cpu_mod, "publish_cpu_cycles", "obs")

    def accel_done(span, out, args):
        REC.result(
            "soc.accelerated",
            {
                "pairs": len(args[1]),
                "driver": out.cpu_driver_cycles,
                "accelerator": out.accelerator_cycles,
                "backtrace": out.cpu_backtrace_cycles,
                "total": out.total_cycles,
            },
        )

    def cpu_done(span, out, args):
        REC.result("soc.cpu", {"pairs": len(args[1]), "cycles": out.cycles})

    wrap(soc_mod.Soc, "run_accelerated", "soc", on_result=accel_done)
    wrap(soc_mod.Soc, "run_cpu", "soc", on_result=cpu_done)

    def image_done(span, batch, args):
        REC.result(
            "wfasic.batch",
            {
                "pairs": len(batch.runs),
                "total_cycles": batch.total_cycles,
                "reading_cycles_per_pair": batch.reading_cycles_per_pair,
                "alignment_cycles": sum(batch.alignment_cycles),
                "max_read_len": batch.max_read_len,
            },
        )

    wrap(accel_mod.WfasicAccelerator, "run_image", "wfasic", on_result=image_done)
    wrap(bt_mod.CpuBacktracer, "process", "wfasic")

    # The serve session: AlignmentServer.start opens it, shutdown closes it.
    server_cls = server_mod.AlignmentServer
    start, shutdown = server_cls.start, server_cls.shutdown

    async def spanned_start(self):
        parent = REC.main[0] if REC.main else None
        REC.session = REC.add("AlignmentServer", "serve", time.perf_counter(), None, parent)
        await start(self)

    async def spanned_shutdown(self):
        await shutdown(self)
        if REC.session is not None:
            REC.spans[REC.session - 1][4] = time.perf_counter()
            REC.session = None

    server_cls.start = spanned_start
    server_cls.shutdown = spanned_shutdown

    submit = scheduler_mod.MicroBatcher.submit

    async def spanned_submit(self, request):
        begun = time.perf_counter()
        response = await submit(self, request)
        REC.requests.append([request.request_id, begun, time.perf_counter(), REC.session])
        return response

    scheduler_mod.MicroBatcher.submit = spanned_submit

    class TimedSelector(selectors.DefaultSelector):
        """The event loop's selector; each wait is an idle span of the session."""

        def select(self, timeout=None):
            begun = time.perf_counter()
            ready = super().select(timeout)
            if REC.session is not None:
                REC.add("select", "serve.idle", begun, time.perf_counter(), REC.session, 1)
            return ready

    class TimedLoopPolicy(asyncio.DefaultEventLoopPolicy):
        def new_event_loop(self):
            return asyncio.SelectorEventLoop(TimedSelector())

    asyncio.set_event_loop_policy(TimedLoopPolicy())


def main() -> int:
    out_path = sys.argv[1]
    argv = sys.argv[sys.argv.index("--") + 1 :]
    start = time.perf_counter()
    import repro.cli

    REC.add("import repro.cli", "cli.import", start, time.perf_counter(), None)
    install()
    span = REC.main = REC.begin("repro.cli.main", "cli")
    try:
        code = repro.cli.main(argv)
    finally:
        REC.end(span)
        sys.stdout.flush()
        import json

        doc = {
            "t0": T0,
            "spans": REC.spans,
            "requests": REC.requests,
            "results": REC.results,
        }
        with open(out_path, "w", encoding="ascii") as fh:
            json.dump(doc, fh)
            # The second line marks the end of the launcher's own work:
            # what follows until the process is reaped is interpreter exit.
            fh.write(f"\n{time.perf_counter()!r}\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
