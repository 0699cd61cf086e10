"""Count-Min sketch (Table 1, descriptive statistics).

A mergeable frequency sketch: the transition function hashes one value into
``depth`` rows of a ``depth x width`` counter matrix, the merge function adds
two matrices, and point queries return the minimum counter — giving frequency
estimates that overestimate by at most ``eps * N`` with probability
``1 - delta`` for ``width = ceil(e / eps)`` and ``depth = ceil(ln(1/delta))``.
Because the sketch is a classic transition/merge/final aggregate it runs on
the parallel (segmented) path unchanged.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass
from typing import Any, Iterable, Optional

import numpy as np

from ...errors import ValidationError
from ...engine.aggregates import AggregateDefinition

__all__ = ["CountMinSketch", "CountMinKernel", "install_countmin", "sketch_column"]


def _encoded(value: Any) -> bytes:
    """The bytes a value is hashed as (``repr`` keeps 1, 1.0 and '1' apart)."""
    return repr(value).encode("utf-8")


def _hash(text: bytes, row: int, width: int) -> int:
    """Counter cell of an :func:`_encoded` value in sketch row ``row``."""
    digest = hashlib.blake2b(b"%d:" % row + text, digest_size=8).digest()
    return int.from_bytes(digest, "little") % width


@dataclass
class CountMinSketch:
    """The sketch itself: a counter matrix plus the total item count."""

    counters: np.ndarray
    total: int = 0

    @classmethod
    def empty(cls, *, eps: float = 0.01, delta: float = 0.01) -> "CountMinSketch":
        if not (0 < eps < 1) or not (0 < delta < 1):
            raise ValidationError("eps and delta must be in (0, 1)")
        width = int(math.ceil(math.e / eps))
        depth = int(math.ceil(math.log(1.0 / delta)))
        return cls(np.zeros((max(depth, 1), max(width, 1)), dtype=np.int64))

    @property
    def depth(self) -> int:
        return self.counters.shape[0]

    @property
    def width(self) -> int:
        return self.counters.shape[1]

    def add(self, value: Any, count: int = 1) -> "CountMinSketch":
        return self._add_counts({_encoded(value): count})

    def add_many(self, values: Iterable[Any]) -> "CountMinSketch":
        """Add every value, hashing each *distinct* one once per row."""
        return self._add_counts(Counter(map(_encoded, values)))

    def _add_counts(self, counts) -> "CountMinSketch":
        """Add ``{encoded value: multiplicity}`` (integer addition is exact, so
        grouping equal values changes no counter)."""
        multiplicities = list(counts.values())
        for row in range(self.depth):
            cells = [_hash(text, row, self.width) for text in counts]
            np.add.at(self.counters[row], cells, multiplicities)
        self.total += sum(multiplicities)
        return self

    def estimate(self, value: Any) -> int:
        """Point frequency estimate (never underestimates)."""
        text = _encoded(value)
        return int(
            min(self.counters[row, _hash(text, row, self.width)] for row in range(self.depth))
        )

    def merge(self, other: "CountMinSketch") -> "CountMinSketch":
        if self.counters.shape != other.counters.shape:
            raise ValidationError("cannot merge sketches with different shapes")
        return CountMinSketch(self.counters + other.counters, self.total + other.total)

    def error_bound(self) -> float:
        """The additive error eps*N implied by the sketch width and item count."""
        return math.e / self.width * self.total


class CountMinKernel:
    """Picklable transition/merge kernel for the ``cmsketch`` aggregate.

    Hash-based counter addition — order-insensitive and associative — so the
    parallel tier returns exactly the in-process sketch; only the counter
    matrix crosses the process boundary.
    """

    def __init__(self, eps: float = 0.01, delta: float = 0.01) -> None:
        if not (0 < eps < 1) or not (0 < delta < 1):
            raise ValidationError("eps and delta must be in (0, 1)")
        self.eps = eps
        self.delta = delta

    def transition(self, state: Optional[CountMinSketch], value: Any) -> CountMinSketch:
        if state is None:
            state = CountMinSketch.empty(eps=self.eps, delta=self.delta)
        return state.add(value)

    def batch_transition(self, state: Optional[CountMinSketch], values) -> CountMinSketch:
        if state is None:
            state = CountMinSketch.empty(eps=self.eps, delta=self.delta)
        return state.add_many(values)

    def merge(self, a: Optional[CountMinSketch], b: Optional[CountMinSketch]):
        if a is None:
            return b
        if b is None:
            return a
        return a.merge(b)


def install_countmin(database, *, eps: float = 0.01, delta: float = 0.01, name: str = "cmsketch") -> None:
    """Register a ``cmsketch(value)`` aggregate returning a :class:`CountMinSketch`."""
    kernel = CountMinKernel(eps=eps, delta=delta)
    database.catalog.register_aggregate(
        AggregateDefinition(
            name,
            kernel.transition,
            merge=kernel.merge,
            initial_state=None,
            strict=True,
            batch_transition=kernel.batch_transition,
        )
    )


def sketch_column(database, table: str, column: str, *, eps: float = 0.01, delta: float = 0.01) -> CountMinSketch:
    """Build a Count-Min sketch of one column with a single aggregate query."""
    install_countmin(database, eps=eps, delta=delta)
    sketch = database.query_scalar(f"SELECT cmsketch({column}) FROM {table}")
    if sketch is None:
        return CountMinSketch.empty(eps=eps, delta=delta)
    return sketch
