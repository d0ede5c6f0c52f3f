"""The serve-mix load generator: one process, two pipelined connections.

Two phases against one live server:

* saturating: bursts of requests, each written at once (alternating
  between the connections) and awaited whole; a burst's rate is its
  size over first write to last response, and a request's latency runs
  from the burst's first write to its answer.  Bursts repeat until the
  phase's time is spent.
* open loop: request *i* is due at ``start + i / rate`` and is written
  then, whether or not earlier requests were answered.  The sender spins
  on the clock between requests, so it neither sleeps through a due time
  nor reads an answer late.  Latency is timed from the due time, so a
  stalled sender or server shows in it; how late the sender wrote each
  request is kept as its lag.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field

CONNECTIONS = 2
PHASE_TIMEOUT_S = 60.0


@dataclass
class Outcome:
    """What the client saw: per-request answers and timings."""

    #: request id -> pair index
    requests: dict[int, int] = field(default_factory=dict)
    responses: dict[int, dict] = field(default_factory=dict)
    #: (requests, seconds) per saturating burst
    bursts: list[tuple[int, float]] = field(default_factory=list)
    #: saturating latency from the burst's first write, seconds, per request id
    burst_latency: dict[int, float] = field(default_factory=dict)
    #: open-loop latency from due time, seconds, per request id
    latency: dict[int, float] = field(default_factory=dict)
    #: open-loop sender lateness, seconds, per request id
    lag: dict[int, float] = field(default_factory=dict)
    stats: dict | None = None


class _Client:
    def __init__(self, conns, pairs) -> None:
        self.conns = conns
        self.pairs = pairs
        self.out = Outcome()
        self.received: dict[int, float] = {}
        self.outstanding = 0
        self.idle = asyncio.Event()
        self.idle.set()
        self.next_id = 0
        self.stats_future: asyncio.Future | None = None

    async def read(self, reader: asyncio.StreamReader) -> None:
        while True:
            line = await reader.readline()
            if not line:
                return
            now = time.perf_counter()
            doc = json.loads(line)
            if doc.get("type") == "stats":
                if self.stats_future is not None:
                    self.stats_future.set_result(doc)
                continue
            rid = doc["id"]
            self.received[rid] = now
            self.out.responses[rid] = doc
            self.outstanding -= 1
            if self.outstanding == 0:
                self.idle.set()

    def send(self, pair_index: int) -> int:
        rid = self.next_id
        self.next_id += 1
        pattern, text = self.pairs[pair_index]
        line = json.dumps({"id": rid, "pattern": pattern, "text": text}) + "\n"
        self.out.requests[rid] = pair_index
        self.outstanding += 1
        self.idle.clear()
        self.conns[rid % len(self.conns)][1].write(line.encode("ascii"))
        return rid

    async def drain(self) -> None:
        await asyncio.gather(*(w.drain() for _, w in self.conns))

    async def wait_idle(self) -> None:
        await asyncio.wait_for(self.idle.wait(), PHASE_TIMEOUT_S)


async def _session(host: str, port: int, schedule: dict, want_stats: bool) -> Outcome:
    conns = [await asyncio.open_connection(host, port) for _ in range(CONNECTIONS)]
    client = _Client(conns, schedule["pairs"])
    readers = [asyncio.ensure_future(client.read(r)) for r, _ in conns]
    try:
        # Saturating phase: whole bursts until the phase's time is spent.
        phase_end = time.perf_counter() + schedule["saturating_seconds"]
        for burst in schedule["saturating"]:
            first = time.perf_counter()
            ids = [client.send(idx) for idx in burst]
            await client.drain()
            await client.wait_idle()
            for rid in ids:
                client.out.burst_latency[rid] = client.received[rid] - first
            last = max(client.received[rid] for rid in ids)
            client.out.bursts.append((len(ids), last - first))
            if time.perf_counter() >= phase_end:
                break
        # Open-loop phase: evenly spaced due times at the fixed rate.
        rate = schedule["rate"]
        start = time.perf_counter()
        due: dict[int, float] = {}
        for i, idx in enumerate(schedule["open_loop"]):
            due_at = start + i / rate
            # Spin to the due time rather than sleep: a sleeping sender's
            # wake-up, and the wake-up of a sleeping reader when an answer
            # arrives, would add the hypervisor's scheduling delay to
            # every latency.  The loop still reads answers while it spins.
            while time.perf_counter() < due_at:
                await asyncio.sleep(0)
            rid = client.send(idx)
            client.out.lag[rid] = time.perf_counter() - due_at
            due[rid] = due_at
            await client.drain()
        await client.wait_idle()
        client.out.latency = {rid: client.received[rid] - t for rid, t in due.items()}
        if want_stats:
            client.stats_future = asyncio.get_running_loop().create_future()
            conns[0][1].write(b'{"type":"stats","id":"stats"}\n')
            await conns[0][1].drain()
            client.out.stats = await asyncio.wait_for(client.stats_future, PHASE_TIMEOUT_S)
    finally:
        for _, writer in conns:
            writer.close()
        for task in readers:
            task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
        for _, writer in conns:
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
    return client.out


def drive(host: str, port: int, schedule: dict, want_stats: bool = False) -> Outcome:
    """Run both phases against ``host:port``; what the client saw."""
    return asyncio.run(_session(host, port, schedule, want_stats))
