"""Seeded inputs: ground sets and operation streams for every workload.

Everything here is a pure function of the workload name and the seed,
built on the benchmark's own ``random.Random`` streams (never on the
program's generators), so a program change cannot change the inputs.
Operations are plain JSON-ready tuples:

* ``("get", key)`` / ``("range", [low, high])`` / ``("insert", key)`` /
  ``("delete", key)`` for one-dimensional keys;
* ``("churn", verb)`` with verb ``join`` / ``leave`` / ``crash``;
* ``("batch", family, [(kind, payload), ...])`` for concurrent batches,
  with ``nearest`` / ``range`` kinds over points (``range`` payload
  ``[lower, upper]`` corners) or strings (``range`` payload a prefix).

Mixes are stratified: each block of operations holds the exact mix,
shuffled, so the share of expensive operations in a run does not drift
with the seed.
"""

from __future__ import annotations

import bisect
import random
import string
from typing import Any, Iterator

SPAN = 1_000_000.0
ALPHABET = string.ascii_lowercase


def rng_for(workload: str, seed: int, stream: str) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}:{stream}")


def keys_1d(count: int, rng: random.Random) -> list[float]:
    keys: set[float] = set()
    while len(keys) < count:
        keys.add(round(rng.uniform(0.0, SPAN), 6))
    return sorted(keys)


def points_2d(count: int, rng: random.Random) -> list[tuple[float, float]]:
    points: set[tuple[float, float]] = set()
    while len(points) < count:
        points.add((round(rng.random(), 9), round(rng.random(), 9)))
    return sorted(points)


def random_word(rng: random.Random, low: int, high: int) -> str:
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randint(low, high)))


def strings(count: int, rng: random.Random) -> list[str]:
    words: set[str] = set()
    while len(words) < count:
        words.add(random_word(rng, 4, 12))
    return sorted(words)


def _blocks(rng: random.Random, mix: dict[str, int]) -> Iterator[str]:
    block = [kind for kind, share in mix.items() for _ in range(share)]
    while True:
        rng.shuffle(block)
        yield from block


def small_range(rng: random.Random) -> list[float]:
    low = round(rng.uniform(0.0, SPAN), 6)
    return [low, min(round(low + rng.uniform(0.0, SPAN * 0.01), 6), SPAN)]


def one_dim_stream(
    keys: list[float],
    rng: random.Random,
    mix: dict[str, int],
    churn_every: int = 0,
) -> Iterator[tuple[Any, ...]]:
    """Single operations over a live key set the stream models itself.

    Inserts draw fresh keys, deletes and gets draw stored ones, so every
    operation succeeds on a correct system.  With ``churn_every`` a churn
    verb follows every that many operations, cycling join, leave, join,
    crash so the host count stays level.
    """
    live = list(keys)
    verbs = ("join", "leave", "join", "crash")
    kinds = _blocks(rng, mix)
    issued = 0
    while True:
        kind = next(kinds)
        if kind == "get":
            yield ("get", rng.choice(live))
        elif kind == "range":
            yield ("range", small_range(rng))
        elif kind == "insert":
            key = round(rng.uniform(0.0, SPAN), 6)
            index = bisect.bisect_left(live, key)
            while index < len(live) and live[index] == key:
                key = round(rng.uniform(0.0, SPAN), 6)
                index = bisect.bisect_left(live, key)
            live.insert(index, key)
            yield ("insert", key)
        else:
            yield ("delete", live.pop(rng.randrange(len(live))))
        issued += 1
        if churn_every and issued % churn_every == 0:
            yield ("churn", verbs[(issued // churn_every - 1) % len(verbs)])


def geo_batch_stream(
    points: list[tuple[float, float]],
    words: list[str],
    rng: random.Random,
    batch_size: int,
) -> Iterator[tuple[Any, ...]]:
    """Alternating quadtree and trie batches: 3/4 nearest, 1/4 range."""
    mix = {"nearest": 3, "range": 1}
    while True:
        for family in ("skipquadtree", "skiptrie"):
            kinds = _blocks(rng, mix)
            ops = []
            for _ in range(batch_size):
                kind = next(kinds)
                if family == "skipquadtree":
                    if kind == "nearest":
                        payload: Any = [round(rng.random(), 9), round(rng.random(), 9)]
                    else:
                        x, y, side = rng.random(), rng.random(), rng.uniform(0.01, 0.05)
                        payload = [[round(x, 9), round(y, 9)], [round(x + side, 9), round(y + side, 9)]]
                elif kind == "nearest":
                    payload = rng.choice(words) if rng.random() < 0.5 else random_word(rng, 3, 10)
                else:
                    payload = random_word(rng, 2, 3)
                ops.append((kind, payload))
            yield ("batch", family, ops)
