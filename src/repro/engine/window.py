"""Window-function evaluation.

Section 3.1.2 of the paper lists "window aggregates for stateful iteration"
as one of the SQL workarounds for iterative algorithms; the Florida/Berkeley
MCMC work (Section 5.2) carries Markov-chain state across rows with exactly
this construct.  The engine supports aggregate window calls (running when an
``ORDER BY`` is present, whole-partition otherwise) plus the ranking and
offset functions ``row_number``, ``rank``, ``dense_rank``, ``lag`` and
``lead``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence, Tuple

from ..errors import ExecutionError
from .aggregates import AggregateDefinition, AggregateRunner
from .compile import RowFunction
from .expressions import Expression, WindowCall
from .types import hashable_key, is_null

__all__ = ["compute_window_values", "RANKING_FUNCTIONS"]

RANKING_FUNCTIONS = {"row_number", "rank", "dense_rank", "lag", "lead", "first_value", "last_value"}

Row = Tuple[Any, ...]


def _sort_partition(
    partition: List[int],
    rows: Sequence[Row],
    order_by: Sequence[Tuple[RowFunction, bool]],
) -> List[int]:
    if not order_by:
        return partition
    ordered = list(partition)
    # Stable sorts applied from the least-significant key to the most.
    for key_fn, ascending in reversed(order_by):
        keys = {index: key_fn(rows[index]) for index in ordered}
        ordered.sort(key=lambda index: (keys[index] is None, keys[index]), reverse=not ascending)
    return ordered


def _evaluate_ranking(
    name: str,
    ordered: List[int],
    rows: Sequence[Row],
    order_by: Sequence[Tuple[RowFunction, bool]],
    arg_fns: Sequence[RowFunction],
) -> Dict[int, Any]:
    results: Dict[int, Any] = {}
    if name == "row_number":
        for rank, index in enumerate(ordered, start=1):
            results[index] = rank
        return results
    if name in ("rank", "dense_rank"):
        previous_key = object()
        rank = 0
        dense = 0
        for position, index in enumerate(ordered, start=1):
            key = tuple(hashable_key(key_fn(rows[index])) for key_fn, _ in order_by)
            if key != previous_key:
                dense += 1
                rank = position
                previous_key = key
            results[index] = rank if name == "rank" else dense
        return results
    if name in ("lag", "lead"):
        offset = 1
        default = None
        if len(arg_fns) >= 2:
            offset = int(arg_fns[1](rows[ordered[0]])) if ordered else 1
        if len(arg_fns) >= 3 and ordered:
            default = arg_fns[2](rows[ordered[0]])
        step = -offset if name == "lag" else offset
        for position, index in enumerate(ordered):
            source = position + step
            if 0 <= source < len(ordered):
                results[index] = arg_fns[0](rows[ordered[source]])
            else:
                results[index] = default
        return results
    if name in ("first_value", "last_value"):
        if not ordered:
            return results
        target = ordered[0] if name == "first_value" else ordered[-1]
        value = arg_fns[0](rows[target])
        for index in ordered:
            results[index] = value
        return results
    raise ExecutionError(f"unsupported window function {name!r}")


def _evaluate_window_aggregate(
    call: WindowCall,
    ordered: List[int],
    rows: Sequence[Row],
    arg_fns: Sequence[RowFunction],
    aggregate: AggregateDefinition,
) -> Dict[int, Any]:
    runner = AggregateRunner(aggregate)
    results: Dict[int, Any] = {}
    running = bool(call.spec.order_by)

    def arguments(index: int) -> Tuple[Any, ...]:
        if call.function.star:
            return (1,)
        return tuple(fn(rows[index]) for fn in arg_fns)

    if not running:
        value = runner.run([arguments(index) for index in ordered])
        for index in ordered:
            results[index] = value
        return results
    # Running aggregate: fold incrementally in window order, carrying state
    # across rows (the paper's "stateful iteration" pattern).
    state = aggregate.make_state()
    for index in ordered:
        argument_values = arguments(index)
        if not (aggregate.strict and any(is_null(v) for v in argument_values)):
            state = aggregate.transition(state, *argument_values)
        results[index] = aggregate.finalize(_copy_state(state))
    return results


def _copy_state(state: Any) -> Any:
    """Best-effort copy so finalize cannot mutate the running state."""
    import copy

    try:
        return copy.deepcopy(state)
    except Exception:  # pragma: no cover - exotic states
        return state


def compute_window_values(
    window_calls: Sequence[WindowCall],
    rows: Sequence[Row],
    aggregates: Dict[str, AggregateDefinition],
    compile_fn: Callable[[Expression], RowFunction],
) -> List[Tuple[Any, ...]]:
    """Compute every window call for every row.

    ``rows`` are positional tuples and ``compile_fn`` turns a partition key,
    order key or argument expression into a function over one of them (the
    executor's ``_compile`` seam).  Returns, per row, one value per window
    call in ``window_calls`` order — the executor appends them to the row,
    where the enclosing expressions read them back by position.
    """
    per_row: List[List[Any]] = [[None] * len(window_calls) for _ in rows]
    for slot, call in enumerate(window_calls):
        partition_fns = [compile_fn(expr) for expr in call.spec.partition_by]
        order_by = [(compile_fn(expr), ascending) for expr, ascending in call.spec.order_by]
        arg_fns = [compile_fn(arg) for arg in call.function.args]
        partitions: Dict[Any, List[int]] = {}
        for index, row in enumerate(rows):
            key = tuple(hashable_key(fn(row)) for fn in partition_fns)
            partitions.setdefault(key, []).append(index)
        name = call.function.name.lower()
        for partition in partitions.values():
            ordered = _sort_partition(partition, rows, order_by)
            if name in RANKING_FUNCTIONS:
                values = _evaluate_ranking(name, ordered, rows, order_by, arg_fns)
            elif name in aggregates:
                values = _evaluate_window_aggregate(call, ordered, rows, arg_fns, aggregates[name])
            else:
                raise ExecutionError(f"unknown window function {name!r}")
            for index, value in values.items():
                per_row[index][slot] = value
    return [tuple(values) for values in per_row]
