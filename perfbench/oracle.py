"""Correctness oracle, written apart from the program it checks.

Two parts, both under the gap-affine penalties the program uses by
default (mismatch 4, gap open 6, gap extend 2; a gap of length L costs
``6 + 2 * L``, a match costs 0):

* :func:`gotoh_score` — the optimal global alignment score by Gotoh's
  three-matrix dynamic programme, one row at a time.  Within a row the
  vertical (deletion) and diagonal moves are plain vector operations and
  the horizontal (insertion) chain is a running minimum, so a 1 kbp pair
  costs one NumPy pass per row instead of a million Python steps.
* :func:`cigar_score` — checks that a run-length CIGAR (``M`` match,
  ``X`` mismatch, ``I`` text-only base, ``D`` pattern-only base) consumes
  exactly both sequences, that every ``M`` column really matches and
  every ``X`` column really differs, and re-scores it.

Nothing here imports the program.
"""

from __future__ import annotations

import re

import numpy as np

MISMATCH = 4
GAP_OPEN = 6
GAP_EXTEND = 2

_INF = np.int64(1) << 40
_CIGAR_RUN = re.compile(r"(\d+)([MXID])")


class CigarError(ValueError):
    """A CIGAR that is malformed or does not describe the two sequences."""


def gotoh_score(
    pattern: str,
    text: str,
    mismatch: int = MISMATCH,
    gap_open: int = GAP_OPEN,
    gap_extend: int = GAP_EXTEND,
) -> int:
    """Minimal gap-affine cost of aligning ``pattern`` against ``text``."""
    n, m = len(pattern), len(text)
    if n == 0 or m == 0:
        length = n + m
        return gap_open + gap_extend * length if length else 0
    b = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    cols = np.arange(m + 1, dtype=np.int64)
    # Row 0: only a leading insertion reaches (0, j).
    h_prev = np.where(cols > 0, gap_open + gap_extend * cols, 0).astype(np.int64)
    d_prev = np.full(m + 1, _INF, dtype=np.int64)
    ext_cols = gap_extend * cols
    for i in range(1, n + 1):
        # D: a gap that consumes pattern bases (vertical move).
        d_row = np.minimum(h_prev + (gap_open + gap_extend), d_prev + gap_extend)
        # T: best cost of (i, j) not ending in an insertion.
        t_row = np.empty(m + 1, dtype=np.int64)
        t_row[0] = gap_open + gap_extend * i
        sub = np.where(b == ord(pattern[i - 1]), 0, mismatch)
        t_row[1:] = np.minimum(h_prev[:-1] + sub, d_row[1:])
        d_row[0] = t_row[0]
        # I: a gap that consumes text bases (horizontal move).  Its best
        # start is the running minimum of T[k] - e*k over k < j.
        run = np.minimum.accumulate(t_row - ext_cols)
        i_row = np.full(m + 1, _INF, dtype=np.int64)
        i_row[1:] = run[:-1] + ext_cols[1:] + gap_open
        h_prev = np.minimum(t_row, i_row)
        d_prev = d_row
    return int(h_prev[m])


def parse_cigar(cigar: str) -> list[tuple[int, str]]:
    """``"3M1X2D"`` -> ``[(3, 'M'), (1, 'X'), (2, 'D')]``."""
    runs = [(int(n), op) for n, op in _CIGAR_RUN.findall(cigar)]
    if "".join(f"{n}{op}" for n, op in runs) != cigar:
        raise CigarError(f"malformed CIGAR {cigar[:40]!r}")
    if any(n == 0 for n, _ in runs):
        raise CigarError(f"zero-length run in CIGAR {cigar[:40]!r}")
    return runs


def cigar_score(
    pattern: str,
    text: str,
    cigar: str,
    mismatch: int = MISMATCH,
    gap_open: int = GAP_OPEN,
    gap_extend: int = GAP_EXTEND,
) -> int:
    """The cost of ``cigar`` as an alignment of ``pattern`` and ``text``.

    Raises :class:`CigarError` unless the CIGAR consumes both sequences
    exactly and its ``M``/``X`` columns agree with the bases.
    """
    i = j = 0
    score = 0
    previous = ""
    for count, op in parse_cigar(cigar):
        if op in "MX":
            a = pattern[i : i + count]
            b = text[j : j + count]
            if len(a) < count or len(b) < count:
                raise CigarError(f"{count}{op} runs past the end of a sequence")
            equal = [x == y for x, y in zip(a, b)]
            if op == "M" and not all(equal):
                raise CigarError(f"M run at pattern {i} holds a mismatch")
            if op == "X" and any(equal):
                raise CigarError(f"X run at pattern {i} holds a match")
            if op == "X":
                score += mismatch * count
            i += count
            j += count
        else:
            # Adjacent runs of the same gap kind are one gap.
            if op != previous:
                score += gap_open
            score += gap_extend * count
            if op == "D":
                i += count
            else:
                j += count
            if i > len(pattern) or j > len(text):
                raise CigarError(f"{count}{op} runs past the end of a sequence")
        previous = op
    if i != len(pattern) or j != len(text):
        raise CigarError(
            f"CIGAR consumes {i}/{len(pattern)} pattern and "
            f"{j}/{len(text)} text bases"
        )
    return score
