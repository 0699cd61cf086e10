"""Flajolet–Martin distinct-count sketch (Table 1, descriptive statistics).

The classic probabilistic counter: hash every value, record the position of
the lowest set bit in a bitmap per hash function, and estimate the number of
distinct values from the position of the lowest *unset* bit, averaged over
``num_maps`` independent hash functions and corrected by the 0.77351 constant
from the original paper.  Like Count-Min, the sketch is a mergeable aggregate
(bitwise OR), so it parallelizes over segments for free.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

import numpy as np

from ...errors import ValidationError
from ...engine.aggregates import AggregateDefinition

__all__ = ["FMSketch", "FMSketchKernel", "install_fm", "count_distinct"]

_PHI = 0.77351
_BITMAP_BITS = 64


def _encoded(value: Any) -> bytes:
    """The bytes a value is hashed as (``repr`` keeps 1, 1.0 and '1' apart)."""
    return repr(value).encode("utf-8")


def _hash(text: bytes, map_index: int) -> int:
    """64-bit hash of an :func:`_encoded` value under hash function ``map_index``."""
    digest = hashlib.blake2b(b"%d:" % map_index + text, digest_size=8).digest()
    return int.from_bytes(digest, "little")


@dataclass
class FMSketch:
    """A set of FM bitmaps (one per hash function)."""

    bitmaps: np.ndarray  # shape (num_maps,), dtype uint64

    @classmethod
    def empty(cls, num_maps: int = 64) -> "FMSketch":
        if num_maps < 1:
            raise ValidationError("num_maps must be at least 1")
        return cls(np.zeros(num_maps, dtype=np.uint64))

    @property
    def num_maps(self) -> int:
        return self.bitmaps.shape[0]

    def add(self, value: Any) -> "FMSketch":
        return self.add_many((value,))

    def add_many(self, values: Iterable[Any]) -> "FMSketch":
        """Add every value, hashing each *distinct* one once per map (OR is
        idempotent): per map, the lowest set bit of each hash — the top bit
        for a zero hash — is set in the bitmap."""
        texts = set(map(_encoded, values))
        for map_index in range(self.num_maps):
            bits = 0
            for text in texts:
                hashed = _hash(text, map_index)
                bits |= (hashed & -hashed) or 1 << (_BITMAP_BITS - 1)
            self.bitmaps[map_index] |= np.uint64(bits)
        return self

    def merge(self, other: "FMSketch") -> "FMSketch":
        if self.num_maps != other.num_maps:
            raise ValidationError("cannot merge FM sketches with different sizes")
        return FMSketch(self.bitmaps | other.bitmaps)

    def estimate(self) -> float:
        """Estimated number of distinct values."""
        total_rank = 0
        for bitmap in self.bitmaps.tolist():
            rank = 0
            while rank < _BITMAP_BITS and (bitmap >> rank) & 1:
                rank += 1
            total_rank += rank
        mean_rank = total_rank / self.num_maps
        return (2.0 ** mean_rank) / _PHI


class FMSketchKernel:
    """Picklable transition/merge kernel for the ``fmsketch`` aggregate.

    Hash-based and order-insensitive (bitwise OR), so per-segment folds in
    worker processes are byte-identical to the in-process fold; only the
    (fixed-size) bitmap array crosses the process boundary.
    """

    def __init__(self, num_maps: int = 64) -> None:
        if num_maps < 1:
            raise ValidationError("num_maps must be at least 1")
        self.num_maps = num_maps

    def transition(self, state: Optional[FMSketch], value: Any) -> FMSketch:
        if state is None:
            state = FMSketch.empty(self.num_maps)
        return state.add(value)

    def batch_transition(self, state: Optional[FMSketch], values) -> FMSketch:
        if state is None:
            state = FMSketch.empty(self.num_maps)
        return state.add_many(values)

    def merge(self, a: Optional[FMSketch], b: Optional[FMSketch]):
        if a is None:
            return b
        if b is None:
            return a
        return a.merge(b)


def install_fm(database, *, num_maps: int = 64, name: str = "fmsketch") -> None:
    """Register an ``fmsketch(value)`` aggregate returning an :class:`FMSketch`."""
    kernel = FMSketchKernel(num_maps=num_maps)
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


def count_distinct(database, table: str, column: str, *, num_maps: int = 64) -> float:
    """Approximate ``COUNT(DISTINCT column)`` with one aggregate pass."""
    install_fm(database, num_maps=num_maps)
    sketch = database.query_scalar(f"SELECT fmsketch({column}) FROM {table}")
    if sketch is None:
        return 0.0
    return float(sketch.estimate())
