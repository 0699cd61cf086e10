"""User-defined aggregates: the paper's basic macro-programming building block.

Section 3.1.1 describes the two-or-three-function aggregate pattern that is
"the most basic building block in the macro-programming of MADlib":

1. a **transition** function folding one row into the running state,
2. an optional **merge** function combining two partial states (needed only
   for parallel execution across segments), and
3. a **final** function turning a state into the output value.

:class:`AggregateDefinition` captures that pattern; :class:`AggregateRunner`
executes it either as a single stream (one segment) or in the shared-nothing
style — independent per-segment folds followed by a merge tree — which is how
the executor and the Figure 4/5 benchmark harness run it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, List, Optional, Sequence

import numpy as np

from ..errors import FunctionError
from .types import ANY, BIGINT, DOUBLE, DOUBLE_ARRAY, SQLType, is_null

__all__ = [
    "AggregateDefinition",
    "AggregateRunner",
    "builtin_aggregates",
]


@dataclass
class AggregateDefinition:
    """A user-defined aggregate (transition / merge / final).

    Attributes
    ----------
    name:
        SQL name of the aggregate.
    transition:
        ``transition(state, *args) -> state``.  Must accept ``initial_state``
        (or the state returned by a previous call) as its first argument.
    merge:
        Optional ``merge(state_a, state_b) -> state``.  Required for the
        parallel (segmented) execution path; aggregates without a merge
        function are still executable but only serially, exactly like a
        PostgreSQL aggregate without a combine function.
    final:
        Optional ``final(state) -> value``; identity when omitted.
    initial_state:
        Either a value or a zero-argument callable producing a fresh state.
    strict:
        When true, rows where any aggregate argument is NULL are skipped
        (the behaviour of built-in SQL aggregates).
    return_type:
        Declared SQL type of the final result.
    batch_transition:
        Optional ``batch_transition(state, *argument_columns) -> state``
        consuming one segment's worth of (strict-filtered) argument values as
        whole columns in a single call.  Must be semantically interchangeable
        with folding ``transition`` over the same rows; the segmented
        executor uses it when present and silently falls back to the
        row-at-a-time fold otherwise (or when the batch kernel raises).  See
        :mod:`repro.engine.vectorized`.
    """

    name: str
    transition: Callable[..., Any]
    merge: Optional[Callable[[Any, Any], Any]] = None
    final: Optional[Callable[[Any], Any]] = None
    initial_state: Any = None
    strict: bool = True
    return_type: SQLType = ANY
    batch_transition: Optional[Callable[..., Any]] = None

    def make_state(self) -> Any:
        if callable(self.initial_state):
            return self.initial_state()
        return self.initial_state

    def finalize(self, state: Any) -> Any:
        if self.final is None:
            return state
        return self.final(state)

    @property
    def supports_parallel(self) -> bool:
        """Whether the aggregate can run with per-segment partial states."""
        return self.merge is not None


class AggregateRunner:
    """Executes an :class:`AggregateDefinition` over streams of argument tuples."""

    def __init__(self, definition: AggregateDefinition) -> None:
        self.definition = definition

    # -- serial path ---------------------------------------------------------

    def fold(
        self,
        argument_rows: Iterable[Sequence[Any]],
        state: Any = None,
        *,
        prefiltered: bool = False,
    ) -> Any:
        """Fold the transition function over one stream, returning the state.

        ``prefiltered`` marks rows already known NULL-free, which lets a
        strict aggregate skip its per-row NULL test.
        """
        definition = self.definition
        if state is None:
            state = definition.make_state()
        transition = definition.transition
        if definition.strict and not prefiltered:
            for args in argument_rows:
                if any(is_null(arg) for arg in args):
                    continue
                state = transition(state, *args)
        else:
            for args in argument_rows:
                state = transition(state, *args)
        return state

    def run(self, argument_rows: Iterable[Sequence[Any]]) -> Any:
        """Serial execution: fold then finalize."""
        return self.definition.finalize(self.fold(argument_rows))

    # -- parallel (segmented) path --------------------------------------------

    def partial_states(self, segments: Sequence[Iterable[Sequence[Any]]]) -> List[Any]:
        """Run the transition fold independently on each segment's rows."""
        return [self.fold(segment) for segment in segments]

    def merge_states(self, states: Sequence[Any]) -> Any:
        """Combine per-segment partial states with the merge function."""
        definition = self.definition
        if not states:
            return definition.make_state()
        if len(states) == 1:
            return states[0]
        if definition.merge is None:
            raise FunctionError(
                f"aggregate {definition.name!r} has no merge function and "
                "cannot be executed in parallel"
            )
        merged = states[0]
        for state in states[1:]:
            merged = definition.merge(merged, state)
        return merged

    def run_segmented(self, segments: Sequence[Iterable[Sequence[Any]]]) -> Any:
        """Parallel-style execution: per-segment folds, merge, finalize."""
        return self.definition.finalize(self.merge_states(self.partial_states(segments)))


# ---------------------------------------------------------------------------
# Built-in SQL aggregates
# ---------------------------------------------------------------------------


def _count_transition(state: int, *_args: Any) -> int:
    return state + 1


def _sum_transition(state, value):
    if state is None:
        if isinstance(value, np.ndarray):
            return np.array(value, dtype=np.float64, copy=True)
        return value
    if isinstance(state, np.ndarray):
        return state + np.asarray(value, dtype=np.float64)
    return state + value


def _sum_merge(a, b):
    if a is None:
        return b
    if b is None:
        return a
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.asarray(a, dtype=np.float64) + np.asarray(b, dtype=np.float64)
    return a + b


def _avg_transition(state, value):
    count, total = state
    return (count + 1, total + float(value))


def _avg_merge(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _avg_final(state):
    count, total = state
    if count == 0:
        return None
    return total / count


def _minmax_transition(op):
    def transition(state, value):
        if state is None:
            return value
        return op(state, value)

    return transition


def _variance_transition(state, value):
    # Welford's online update: state is (count, mean, M2). Numerically stable
    # for large values with small spread, unlike the sum-of-squares formula.
    count, mean, m2 = state
    value = float(value)
    count += 1
    delta = value - mean
    mean += delta / count
    m2 += delta * (value - mean)
    return (count, mean, m2)


def _variance_merge(a, b):
    # Chan et al.'s parallel combination of two (count, mean, M2) states.
    count_a, mean_a, m2_a = a
    count_b, mean_b, m2_b = b
    if count_a == 0:
        return b
    if count_b == 0:
        return a
    count = count_a + count_b
    delta = mean_b - mean_a
    mean = mean_a + delta * count_b / count
    m2 = m2_a + m2_b + delta * delta * count_a * count_b / count
    return (count, mean, m2)


def _variance_final(state, *, sample: bool = True):
    count, _mean, m2 = state
    denominator = count - 1 if sample else count
    if denominator <= 0:
        return None
    return max(m2 / denominator, 0.0)


def _stddev_final(state, *, sample: bool = True):
    variance = _variance_final(state, sample=sample)
    if variance is None:
        return None
    return math.sqrt(variance)


def _array_agg_transition(state: List[Any], value: Any) -> List[Any]:
    state.append(value)
    return state


def _array_agg_merge(a: List[Any], b: List[Any]) -> List[Any]:
    return a + b


def _string_agg_transition(state, value, delimiter=None):
    # PostgreSQL is strict in the *value* only: NULL values are skipped, but
    # a NULL (or missing) delimiter contributes nothing (plain concatenation)
    # rather than dropping the row — hence strict=False on the definition and
    # the explicit skip here.
    if is_null(value):
        return state
    state.append((str(value), "" if is_null(delimiter) else str(delimiter)))
    return state


def _string_agg_final(state):
    if not state:
        return None
    # Row i's delimiter goes *before* row i's value (the first row's own
    # delimiter is never emitted), matching PostgreSQL's string_agg.
    parts = [state[0][0]]
    for part, delimiter in state[1:]:
        parts.append(delimiter)
        parts.append(part)
    return "".join(parts)


def _bool_transition(op):
    def transition(state, value):
        if state is None:
            return bool(value)
        return op(state, bool(value))

    return transition


def _vector_sum_transition(state, value):
    vector = np.asarray(value, dtype=np.float64)
    if state is None:
        return vector.copy()
    return state + vector


def builtin_aggregates() -> List[AggregateDefinition]:
    """Aggregate definitions registered in every new database.

    Built-ins whose semantics allow it carry a ``batch_transition`` kernel
    (see :mod:`repro.engine.vectorized`); order-sensitive ones
    (``array_agg``, ``string_agg``) never do.
    """
    from .vectorized import builtin_batch_transitions

    batch_kernels = builtin_batch_transitions()
    definitions = [
        AggregateDefinition(
            "count",
            _count_transition,
            merge=lambda a, b: a + b,
            initial_state=0,
            strict=True,
            return_type=BIGINT,
        ),
        AggregateDefinition(
            "sum", _sum_transition, merge=_sum_merge, initial_state=None, return_type=ANY
        ),
        AggregateDefinition(
            "avg",
            _avg_transition,
            merge=_avg_merge,
            final=_avg_final,
            initial_state=lambda: (0, 0.0),
            return_type=DOUBLE,
        ),
        AggregateDefinition(
            "min",
            _minmax_transition(min),
            merge=lambda a, b: b if a is None else (a if b is None else min(a, b)),
            initial_state=None,
        ),
        AggregateDefinition(
            "max",
            _minmax_transition(max),
            merge=lambda a, b: b if a is None else (a if b is None else max(a, b)),
            initial_state=None,
        ),
        AggregateDefinition(
            "var_samp",
            _variance_transition,
            merge=_variance_merge,
            final=lambda s: _variance_final(s, sample=True),
            initial_state=lambda: (0, 0.0, 0.0),
            return_type=DOUBLE,
        ),
        AggregateDefinition(
            "var_pop",
            _variance_transition,
            merge=_variance_merge,
            final=lambda s: _variance_final(s, sample=False),
            initial_state=lambda: (0, 0.0, 0.0),
            return_type=DOUBLE,
        ),
        AggregateDefinition(
            "variance",
            _variance_transition,
            merge=_variance_merge,
            final=lambda s: _variance_final(s, sample=True),
            initial_state=lambda: (0, 0.0, 0.0),
            return_type=DOUBLE,
        ),
        AggregateDefinition(
            "stddev",
            _variance_transition,
            merge=_variance_merge,
            final=lambda s: _stddev_final(s, sample=True),
            initial_state=lambda: (0, 0.0, 0.0),
            return_type=DOUBLE,
        ),
        AggregateDefinition(
            "stddev_pop",
            _variance_transition,
            merge=_variance_merge,
            final=lambda s: _stddev_final(s, sample=False),
            initial_state=lambda: (0, 0.0, 0.0),
            return_type=DOUBLE,
        ),
        AggregateDefinition(
            "array_agg",
            _array_agg_transition,
            merge=_array_agg_merge,
            initial_state=list,
            strict=False,
            return_type=ANY,
        ),
        AggregateDefinition(
            "string_agg",
            _string_agg_transition,
            merge=lambda a, b: a + b,
            final=_string_agg_final,
            initial_state=list,
            strict=False,  # value-only NULL handling lives in the transition
            return_type=ANY,
        ),
        AggregateDefinition(
            "bool_and", _bool_transition(lambda a, b: a and b), merge=lambda a, b: (a and b)
            if a is not None and b is not None else (a if b is None else b),
            initial_state=None,
        ),
        AggregateDefinition(
            "bool_or", _bool_transition(lambda a, b: a or b), merge=lambda a, b: (a or b)
            if a is not None and b is not None else (a if b is None else b),
            initial_state=None,
        ),
        AggregateDefinition(
            "vector_sum",
            _vector_sum_transition,
            merge=_sum_merge,
            initial_state=None,
            return_type=DOUBLE_ARRAY,
        ),
    ]
    for definition in definitions:
        definition.batch_transition = batch_kernels.get(definition.name)
    return definitions
