"""Seeded input generator for the benchmark's four workloads.

The same ``--seed`` always gives byte-identical files.  Pairs are drawn
with Python's ``random.Random`` (stable across interpreter versions for
the calls used here): a uniform random pattern of the nominal length,
then exactly ``round(error_rate * length)`` error events at distinct
random positions, each a mismatch, an inserted base or a deleted base
(a third each).  A fixed event count, rather than a coin toss per base,
keeps the alignment work of a pair, and so the run-to-run spread of
every timing, from swinging with the seed.  The text is cut to the
nominal length, as a sequencer never returns a read longer than its
nominal length; that also keeps every pair inside the accelerator's
read-length rounding for the set.

Served traffic is built in blocks of :data:`SERVE_BLOCK` requests with a
fixed make-up (repeats, 1 kbp and 150 bp pairs), so every burst and
every stretch of the open-loop phase carries the same mix whatever the
seed.

Usage::

    python3 perfbench/gen.py --workload batch-short --seed 1 --out DIR

writes the workload's files into ``DIR`` and prints their manifest.
"""

from __future__ import annotations

import argparse
import json
import random
from dataclasses import dataclass
from pathlib import Path

BASES = "ACGT"

#: batch-short: unique 150 bp pairs at 5 % error, FASTA.
SHORT_PAIRS = 512
SHORT_LEN = 150
SHORT_ERROR = 0.05

#: batch-long: unique 1 kbp pairs alternating 5 % and 10 % error, FASTQ.
LONG_PAIRS = 96
LONG_LEN = 1000
LONG_ERRORS = (0.05, 0.10)

#: serve-mix traffic, every pair at 5 % error.  Each block of 40
#: requests holds 10 repeats of an earlier request's pair, 3 fresh 1 kbp
#: pairs and 27 fresh 150 bp pairs: a quarter repeats, and one in ten of
#: the fresh pairs long.
SERVE_SHORT_LEN = 150
SERVE_LONG_LEN = 1000
SERVE_ERROR = 0.05
SERVE_BLOCK = {"repeat": 10, "long": 3, "short": 27}
#: Requests per pipelined burst of the saturating phase (two blocks).
SERVE_BURST = 80
#: Share of the traced session spent in the saturating phase; the rest
#: is open loop.  The untraced session sends bursts for the whole run.
SERVE_SATURATING_SHARE = 0.2
#: Open-loop arrival rate (requests/s), evenly spaced: about a quarter of
#: what the default server sustains on this mix, so no backlog grows and
#: queueing stays small even while the host runs at half speed; latency
#: then moves with the server's own speed, not with its queue.
SERVE_RATE = 50.0
#: Fewest open-loop requests: ten of them lie beyond the p99.
SERVE_OPEN_MIN = 1000
#: Bursts generated per second of the run (more than any run can use).
SERVE_BURSTS_PER_SECOND = 5

#: sim-paper: the paper's 100 bp and 1 kbp sets at 5 % and 10 % error.
SIM_SETS = (
    ("100-5", 100, 0.05, 16),
    ("100-10", 100, 0.10, 16),
    ("1K-5", 1000, 0.05, 8),
    ("1K-10", 1000, 0.10, 8),
)

WORKLOADS = ("batch-short", "batch-long", "serve-mix", "sim-paper")


@dataclass(frozen=True)
class Pair:
    pattern: str
    text: str


def make_pair(rng: random.Random, length: int, error: float) -> Pair:
    """One pattern and its mutated copy (see the module docstring)."""
    pattern = "".join(rng.choices(BASES, k=length))
    events = dict.fromkeys(rng.sample(range(length), round(error * length)), 0)
    for pos in events:
        events[pos] = rng.randrange(3)
    out: list[str] = []
    for pos, base in enumerate(pattern):
        kind = events.get(pos)
        if kind is None:
            out.append(base)
        elif kind == 0:
            out.append(rng.choice([b for b in BASES if b != base]))
        elif kind == 1:
            out.append(rng.choice(BASES))
            out.append(base)
        # kind == 2: the base is deleted.
    return Pair(pattern, "".join(out)[:length])


def write_fasta(path: Path, pairs: list[Pair]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for i, p in enumerate(pairs):
            fh.write(f">pair{i}/pattern\n{p.pattern}\n>pair{i}/text\n{p.text}\n")


def write_fastq(path: Path, pairs: list[Pair]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for i, p in enumerate(pairs):
            for tag, seq in (("pattern", p.pattern), ("text", p.text)):
                fh.write(f"@pair{i}/{tag}\n{seq}\n+\n{'I' * len(seq)}\n")


def write_seq(path: Path, pairs: list[Pair]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for p in pairs:
            fh.write(f">{p.pattern}\n<{p.text}\n")


def _serve_schedule(rng: random.Random, seconds: float) -> dict:
    """Unique pairs plus the two phases' request lists (pair indices)."""
    pairs: list[Pair] = []
    longs: list[int] = []
    history: list[int] = []

    def block() -> list[int]:
        # Long pairs sit at evenly spaced slots, so two of them never
        # arrive back to back by chance; repeats and short pairs fill the
        # other slots in random order.
        size = sum(SERVE_BLOCK.values())
        step = size // SERVE_BLOCK["long"]
        others = ["repeat"] * SERVE_BLOCK["repeat"] + ["short"] * SERVE_BLOCK["short"]
        rng.shuffle(others)
        kinds = [
            "long" if slot % step == 0 and slot // step < SERVE_BLOCK["long"] else others.pop()
            for slot in range(size)
        ]
        out = []
        for kind in kinds:
            if kind == "repeat":
                idx = history[rng.randrange(len(history))]
            else:
                length = SERVE_LONG_LEN if kind == "long" else SERVE_SHORT_LEN
                pairs.append(make_pair(rng, length, SERVE_ERROR))
                idx = len(pairs) - 1
                if kind == "long":
                    longs.append(idx)
            history.append(idx)
            out.append(idx)
        return out

    size = sum(SERVE_BLOCK.values())
    saturating_s = SERVE_SATURATING_SHARE * seconds
    bursts = max(2, int(SERVE_BURSTS_PER_SECOND * seconds) + 1)
    saturating = [
        [idx for _ in range(SERVE_BURST // size) for idx in block()] for _ in range(bursts)
    ]
    blocks = max(-(-SERVE_OPEN_MIN // size), round(SERVE_RATE * (seconds - saturating_s) / size))
    # How many bursts a run sends depends on the host's speed, so the
    # open loop repeats only its own earlier pairs: its make-up must not
    # depend on which bursts went out.
    history.clear()
    open_loop = [idx for _ in range(blocks) for idx in block()]
    return {
        "pairs": [[p.pattern, p.text] for p in pairs],
        "long": longs,
        "saturating_seconds": saturating_s,
        "saturating": saturating,
        "rate": SERVE_RATE,
        "open_loop": open_loop,
    }


def write_inputs(workload: str, seed: int, seconds: float, out: Path) -> dict:
    """Write ``workload``'s inputs for ``seed`` into ``out``; the manifest.

    The one-pair ``setup`` file is the same shape as the workload's main
    input and is what the set-up launches read.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"perfbench/{workload}/{seed}")
    manifest: dict = {"workload": workload, "seed": seed}
    if workload == "batch-short":
        pairs = [make_pair(rng, SHORT_LEN, SHORT_ERROR) for _ in range(SHORT_PAIRS)]
        write_fasta(out / "pairs.fa", pairs)
        write_fasta(out / "setup.fa", [make_pair(rng, SHORT_LEN, SHORT_ERROR)])
        manifest.update(input="pairs.fa", setup="setup.fa", pairs=len(pairs))
    elif workload == "batch-long":
        pairs = [
            make_pair(rng, LONG_LEN, LONG_ERRORS[i % len(LONG_ERRORS)])
            for i in range(LONG_PAIRS)
        ]
        write_fastq(out / "pairs.fq", pairs)
        write_fastq(out / "setup.fq", [make_pair(rng, LONG_LEN, LONG_ERRORS[0])])
        manifest.update(input="pairs.fq", setup="setup.fq", pairs=len(pairs))
    elif workload == "serve-mix":
        schedule = _serve_schedule(rng, seconds)
        with open(out / "schedule.json", "w", encoding="ascii") as fh:
            json.dump(schedule, fh)
        manifest.update(
            schedule="schedule.json",
            unique_pairs=len(schedule["pairs"]),
            open_loop_requests=len(schedule["open_loop"]),
        )
    else:
        sets = []
        for name, length, error, count in SIM_SETS:
            pairs = [make_pair(rng, length, error) for _ in range(count)]
            write_seq(out / f"{name}.seq", pairs)
            sets.append({"name": name, "file": f"{name}.seq", "length": length, "pairs": count})
        write_seq(out / "setup.seq", [make_pair(rng, 100, 0.05)])
        manifest.update(sets=sets, setup="setup.seq", pairs=sum(s["pairs"] for s in sets))
    return manifest


def read_pairs(path: Path) -> list[Pair]:
    """Read back a file this module wrote (FASTA, FASTQ or ``.seq``)."""
    lines = path.read_text(encoding="ascii").split("\n")
    if path.suffix == ".seq":
        return [Pair(lines[i][1:], lines[i + 1][1:]) for i in range(0, len(lines) - 1, 2)]
    step = 4 if path.suffix == ".fq" else 2
    seqs = [lines[i + 1] for i in range(0, len(lines) - 1, step)]
    return [Pair(seqs[i], seqs[i + 1]) for i in range(0, len(seqs), 2)]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    print(json.dumps(write_inputs(args.workload, args.seed, args.seconds, args.out)))


if __name__ == "__main__":
    main()
