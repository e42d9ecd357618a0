"""Reference answers the benchmark computes itself, one oracle per family.

Each oracle checks the *normalized* answers the load generator extracts from the
program's results (see ``loadgen.normalize``):

* one-dimensional ``get`` -> ``(nearest, exact)``, ``range`` -> sorted keys;
* quadtree ``nearest`` -> ``(cell_lower, cell_side, cell_points,
  nearest_in_cell)``, ``range`` -> sorted points;
* trie ``nearest`` -> ``(matched_prefix, exact, completions)``, ``range``
  -> sorted strings.

A mismatch raises :class:`WrongAnswer`, which names the operation.
"""

from __future__ import annotations

import bisect
import math
from typing import Any


class WrongAnswer(Exception):
    """The program answered an operation differently from the oracle."""


def _fail(op: Any, got: Any, expected: Any) -> None:
    raise WrongAnswer(f"{op!r}: got {got!r}, expected {expected!r}")


class SortedKeys:
    """A sorted list of the stored keys, kept through inserts and deletes."""

    def __init__(self, keys: list[float]) -> None:
        self.keys = sorted(keys)

    def check(self, op: tuple, answer: Any) -> None:
        kind = op[0]
        keys = self.keys
        if kind == "get":
            key = op[1]
            index = bisect.bisect_left(keys, key)
            if index < len(keys) and keys[index] == key:
                if answer != (key, True):
                    _fail(op, answer, (key, True))
                return
            neighbours = keys[max(index - 1, 0):index + 1]
            best = min(abs(k - key) for k in neighbours)
            nearest, exact = answer
            if exact or nearest not in neighbours or abs(nearest - key) != best:
                _fail(op, answer, f"the stored key nearest {key}, inexact")
        elif kind == "range":
            low, high = op[1]
            expected = keys[bisect.bisect_left(keys, low):bisect.bisect_right(keys, high)]
            if list(answer) != expected:
                _fail(op, answer, expected)
        elif kind == "insert":
            bisect.insort(keys, op[1])
        elif kind == "delete":
            index = bisect.bisect_left(keys, op[1])
            if index == len(keys) or keys[index] != op[1]:
                _fail(op, "deleted", "a stored key")
            del keys[index]


class BrutePoints:
    """Brute force over the stored points, pre-sorted by x to cut the scan."""

    def __init__(self, points: list[tuple[float, float]]) -> None:
        self.points = sorted(points)
        self.xs = [point[0] for point in self.points]

    def _band(self, low: float, high: float) -> list[tuple[float, float]]:
        return self.points[bisect.bisect_left(self.xs, low):bisect.bisect_right(self.xs, high)]

    def check(self, op: tuple, answer: Any) -> None:
        kind, payload = op
        if kind == "range":
            (x0, y0), (x1, y1) = payload
            expected = sorted(p for p in self._band(x0, x1) if y0 <= p[1] <= y1)
            if list(answer) != expected:
                _fail(op, answer, expected)
            return
        query = tuple(payload)
        lower, side, cell_points, nearest = answer
        if not all(low <= c <= low + side for low, c in zip(lower, query)):
            _fail(op, f"cell {lower}+{side}", "a cell containing the query")
        closed = [
            p for p in self._band(lower[0], lower[0] + side)
            if lower[1] <= p[1] <= lower[1] + side
        ]
        half_open = [
            p for p in closed
            if all(c < low + side for low, c in zip(lower, p))
        ]
        got = set(cell_points)
        if not set(half_open) <= got <= set(closed):
            _fail(op, sorted(got), half_open)
        if not cell_points:
            if nearest is not None:
                _fail(op, nearest, None)
            return
        best = min(math.dist(query, p) for p in cell_points)
        if nearest not in got or math.dist(query, nearest) != best:
            _fail(op, nearest, f"a cell point at distance {best}")


class PrefixScan:
    """Prefix scans over the sorted stored strings."""

    def __init__(self, words: list[str]) -> None:
        self.words = sorted(words)
        self.stored = set(words)

    def with_prefix(self, prefix: str) -> list[str]:
        words = self.words
        start = bisect.bisect_left(words, prefix)
        return words[start:bisect.bisect_left(words, prefix + "\U0010ffff", start)]

    def check(self, op: tuple, answer: Any) -> None:
        kind, text = op
        if kind == "range":
            expected = self.with_prefix(text)
            if list(answer) != expected:
                _fail(op, answer, expected)
            return
        matched = ""
        for length in range(len(text), 0, -1):
            if self.with_prefix(text[:length]):
                matched = text[:length]
                break
        expected = (matched, text in self.stored, tuple(self.with_prefix(matched)))
        if tuple(answer) != expected:
            _fail(op, answer, expected)
