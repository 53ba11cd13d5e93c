"""A fixed pure-Python workload that gauges the host's speed during a run.

On a shared host the speed available to one process drifts by a quarter and
more over tens of seconds, and every workload of the benchmark drifts with
it.  ``run.py`` times :func:`reference_unit` between the documents it
measures and scales each document's time by how far the reference ran from
``REFERENCE_SECONDS``.  This code never changes with the package, so a
change to tieupkit moves the scaled figures exactly as it moves the raw
ones, while the host's drift cancels.

The unit does the kinds of work the package does: splitting token text,
filling dicts and lists, making many small objects, sorting them and a
dynamic-programming table over two strings.
"""

from __future__ import annotations

import time

# Seconds one reference_unit() takes on the host the bench was tuned on
# (2 vCPUs of a shared Xeon host, Python 3.11.7) between documents: the
# median of 1,356 timings spread over six minutes.  Scaled times read as
# seconds on that host at its median speed; the value only sets the scale.
REFERENCE_SECONDS = 0.00125

_TEXT = " ".join(f"w{i % 37}/p{i % 5}" for i in range(300))
_A = "アイウエオカキクケコ" * 3
_B = "カキクアイウサシ" * 4


class _Span:
    def __init__(self, start, end, score):
        self.start = start
        self.end = end
        self.score = score


def reference_unit() -> int:
    index: dict[str, list[int]] = {}
    for k, token in enumerate(_TEXT.split()):
        surface, _, pos = token.partition("/")
        index.setdefault(surface + pos, []).append(k)
    spans = [_Span(i, j, (i * 31 + j * 7) % 11) for i in range(32) for j in range(i, 32)]
    spans.sort(key=lambda s: (-s.score, s.start - s.end))
    prev = [0] * (len(_B) + 1)
    for ca in _A:
        cur = [0]
        for j, cb in enumerate(_B):
            cur.append(prev[j] + 1 if ca == cb else max(prev[j + 1], cur[j]))
        prev = cur
    return len(index) + spans[0].end + prev[-1]


def time_reference() -> float:
    """Seconds of one reference_unit()."""
    t0 = time.perf_counter()
    reference_unit()
    return time.perf_counter() - t0
