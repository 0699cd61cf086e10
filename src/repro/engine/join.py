"""Equi-join planning and hash-join execution.

Before this module existed every join was an interpreted nested loop: the
executor evaluated the raw ON condition against a per-pair ``RowContext``
dict, O(N·M) context builds per join, and implicit multi-table FROM lists
were materialized as full Cartesian products before WHERE filtering.  The
paper's text-analytics methods are exactly the workloads that shape punishes
— the Viterbi dynamic program issues a three-way ``FROM factors f, paths p,
transitions t`` join per token position — so joins were the one operator
still outside the compiled execution model.

This module closes that gap with the classic two-step treatment:

1. **Condition decomposition** (:func:`plan_hash_join`).  The ON condition —
   or, for an implicit multi-FROM query, the WHERE clause — is split into its
   AND-conjuncts and each conjunct is classified by which side(s) of the join
   its column references resolve to:

   * one side only → a **pushed-down prefilter** applied to that side before
     the join (for LEFT joins only the build side may be prefiltered from the
     ON condition — probe-side rows must survive to be NULL-extended);
   * an equality whose operands resolve to opposite sides → a **hash-key
     pair**;
   * anything else → the **residual**, evaluated per candidate pair during
     the probe (equivalent to a post-join filter for inner joins, and the
     correct per-pair match test for left joins).

2. **Build/probe execution** (:func:`execute_hash_join`).  The right side is
   the build side, the left side probes, so emission order is byte-identical
   to the nested loop's ``(left row, right row)`` scan order.  Keys are
   compared by :func:`~repro.engine.types.hashable_key` identity — the same
   equality GROUP BY and DISTINCT use — and a NULL (or NaN) key component
   never matches, matching SQL ``=`` semantics.  Key expressions, prefilters
   and the residual all run as compiled positional-row closures from
   :mod:`repro.engine.compile`; no per-pair ``RowContext`` dicts exist
   anywhere on this path.

Every join runs in-process, with or without a worker pool: the pool folds
ungrouped aggregates only (:mod:`repro.engine.parallel`).

Anything the planner cannot prove safe — non-equi conditions, unresolvable
or ambiguous names, volatile functions, uncompilable subtrees — returns
``None`` and the executor falls back to the legacy nested loop, which keeps
name-resolution errors and unsupported constructs behaving exactly as
before.  For planned joins, *result sets* are byte-identical to the nested
loop (parity-tested across tiers in ``tests/engine/test_joins.py``), but —
as with every real query planner — predicate *evaluation counts* change:
prefilters run once per base row instead of once per pair, and the residual
runs only on key-matched pairs.  A predicate that raises (e.g. division by
zero) on rows the plan evaluates differently can therefore raise where the
nested loop did not, or vice versa; only volatile functions are guarded,
because they change results rather than error behaviour
(``docs/joins.md`` documents the caveat).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .compile import ColumnLayout, compile_expression, keys_for_columns
from .expressions import BinaryOp, Expression, FunctionCall, WindowCall
from .types import hashable_key, is_null

__all__ = [
    "HashJoinPlan",
    "JoinEstimates",
    "JoinOutcome",
    "split_conjuncts",
    "conjoin",
    "has_volatile_calls",
    "classify_where_conjuncts",
    "plan_hash_join",
    "plan_key_join",
    "execute_hash_join",
]

#: Build on the left (probe) side only when it is at least this many times
#: smaller than the right side — hashing the smaller input and buffering
#: matches costs a grouping pass, so small imbalances are not worth it.
REVERSED_BUILD_RATIO = 4.0
#: ... and only when the right side is big enough for the build cost to
#: matter at all (also keeps small-table strategy labels stable).
REVERSED_BUILD_MIN_ROWS = 256


# ---------------------------------------------------------------------------
# Condition decomposition
# ---------------------------------------------------------------------------


def split_conjuncts(expression: Optional[Expression]) -> List[Expression]:
    """Flatten an AND tree into its conjuncts (left-to-right order)."""
    if expression is None:
        return []
    if isinstance(expression, BinaryOp) and expression.op.lower() == "and":
        return split_conjuncts(expression.left) + split_conjuncts(expression.right)
    return [expression]


def conjoin(conjuncts: Sequence[Expression]) -> Optional[Expression]:
    """Rebuild an AND tree from conjuncts; ``None`` for the empty list."""
    if not conjuncts:
        return None
    result = conjuncts[0]
    for conjunct in conjuncts[1:]:
        result = BinaryOp("and", result, conjunct)
    return result


def has_volatile_calls(
    expression: Expression, functions: Dict[str, Callable[..., Any]]
) -> bool:
    """True when the expression calls a volatile or unknown scalar function.

    A volatile function (``random()``) must be evaluated exactly as many
    times as the legacy execution would evaluate it; pushdown changes the
    evaluation count, so any such call disables join planning for the whole
    condition.  Window calls never belong in a join condition; treat them the
    same way.
    """
    for node in expression.walk():
        if isinstance(node, WindowCall):
            return True
        if isinstance(node, FunctionCall):
            registered = functions.get(node.name.lower())
            if registered is None or getattr(registered, "volatile", False):
                return True
    return False


def _equi_operand_indices(
    conjunct: Expression, layout: ColumnLayout
) -> Optional[Tuple[frozenset, frozenset]]:
    """Resolved column indices of an ``=`` conjunct's two operands, or ``None``.

    The shared first step of hash-key extraction for both classifiers
    (explicit ON conditions and implicit multi-FROM WHERE clauses): the
    conjunct must be a top-level equality and each operand must reference at
    least one resolvable column — the callers then check that the two
    operand index sets fall on opposite sides.
    """
    if not (isinstance(conjunct, BinaryOp) and conjunct.op == "="):
        return None
    first = layout.column_indices(conjunct.left)
    second = layout.column_indices(conjunct.right)
    if not first or not second:  # empty (constant) or unresolvable operand
        return None
    return first, second


def classify_where_conjuncts(
    where: Expression,
    full_layout: ColumnLayout,
    source_of: Sequence[int],
    functions: Dict[str, Callable[..., Any]],
) -> Optional[tuple]:
    """Split a multi-FROM WHERE clause for join pushdown, or ``None``.

    ``source_of`` maps each combined-row column index to its FROM-source
    index.  Returns ``(prefilters, edges, residual)`` where ``prefilters``
    maps a source index to its single-source conjuncts, ``edges`` is a list
    of ``(source_a, expr_a, source_b, expr_b)`` cross-source equality pairs,
    and ``residual`` holds everything else (evaluated post-join, which is
    equivalent for the inner semantics of a comma FROM list).  ``None`` means
    pushdown is unsafe — an unresolvable or ambiguous name (evaluating the
    WHERE must raise its error), or a volatile/unknown function whose
    evaluation count must not change.
    """
    if has_volatile_calls(where, functions):
        return None
    prefilters: Dict[int, List[Expression]] = {}
    edges: List[Tuple[int, Expression, int, Expression]] = []
    residual: List[Expression] = []
    for conjunct in split_conjuncts(where):
        indices = full_layout.column_indices(conjunct)
        if indices is None:
            return None
        sources = {source_of[index] for index in indices}
        if not sources:
            residual.append(conjunct)
            continue
        if len(sources) == 1:
            prefilters.setdefault(next(iter(sources)), []).append(conjunct)
            continue
        if len(sources) == 2:
            operands = _equi_operand_indices(conjunct, full_layout)
            if operands is not None:
                first_sources = {source_of[index] for index in operands[0]}
                second_sources = {source_of[index] for index in operands[1]}
                if (
                    len(first_sources) == 1
                    and len(second_sources) == 1
                    and first_sources != second_sources
                ):
                    edges.append(
                        (
                            next(iter(first_sources)),
                            conjunct.left,
                            next(iter(second_sources)),
                            conjunct.right,
                        )
                    )
                    continue
        residual.append(conjunct)
    if not edges and not prefilters:
        return None  # nothing to push down: keep the legacy shape
    return prefilters, edges, residual


# ---------------------------------------------------------------------------
# The plan
# ---------------------------------------------------------------------------


@dataclass
class HashJoinPlan:
    """A fully compiled equi-join plan for one build/probe step; every
    callable is a positional-row closure."""

    kind: str  # "inner" | "left"
    #: Compiled prefilters, applied to each side before the join.
    left_prefilter: Optional[Callable] = None
    right_prefilter: Optional[Callable] = None
    #: Hash-key closures, one per equi-conjunct, per side (parallel lists).
    left_key_fns: List[Callable] = field(default_factory=list)
    right_key_fns: List[Callable] = field(default_factory=list)
    #: Residual predicate over the combined row, or None.
    residual_fn: Optional[Callable] = None


@dataclass
class JoinOutcome:
    """What one executed join step produced, for stats and relation building."""

    rows: List[Tuple[Any, ...]]
    segment_ids: List[int]
    strategy: str


@dataclass
class JoinEstimates:
    """Planner-estimated input/output cardinalities for one join step.

    Fed in by the executor (statistics-backed for base-table scans, actual
    materialized counts otherwise) for EXPLAIN display and the recorded
    :class:`~repro.engine.segments.JoinStep`.  Strategy *decisions* use the
    exact post-prefilter counts instead — both sides are materialized by
    execution time, so actual cardinalities strictly dominate estimates that
    may be stale or pre-filter.  Neither changes *what* a join emits or in
    which order — only which physically-equivalent strategy produces it.
    """

    left_rows: float
    right_rows: float
    output_rows: Optional[float] = None


def _classify_side(indices: frozenset, left_width: int) -> str:
    """Which side(s) a conjunct's resolved column indices fall on."""
    if not indices:
        return "none"
    left = any(index < left_width for index in indices)
    right = any(index >= left_width for index in indices)
    if left and right:
        return "both"
    return "left" if left else "right"


def plan_hash_join(
    left_columns: Sequence[Tuple[Optional[str], str]],
    right_columns: Sequence[Tuple[Optional[str], str]],
    kind: str,
    condition: Expression,
    functions: Dict[str, Callable[..., Any]],
    parameters: Optional[Dict[str, Any]],
) -> Optional[HashJoinPlan]:
    """Plan one inner/left equi-join, or ``None`` (→ nested-loop fallback).

    The planner is all-or-nothing: every consumed conjunct (prefilters, key
    pairs) and the residual must compile, the condition may not contain
    volatile or unknown functions, and every column reference must resolve in
    the combined layout.  Any failure returns ``None`` so the executor's
    nested loop preserves the exact legacy semantics, error messages
    included.
    """
    if kind not in ("inner", "left"):
        return None
    if has_volatile_calls(condition, functions):
        return None

    left_layout = ColumnLayout(keys_for_columns(left_columns))
    # Right-side rows are probed/built as bare right tuples, so right-side
    # expressions compile against the right layout, not the combined one.
    right_layout = ColumnLayout(keys_for_columns(right_columns))
    combined_layout = ColumnLayout(keys_for_columns(list(left_columns) + list(right_columns)))
    left_width = len(left_columns)

    plan = HashJoinPlan(kind=kind)
    left_prefilters: List[Expression] = []
    right_prefilters: List[Expression] = []
    residuals: List[Expression] = []
    left_keys: List[Expression] = []
    right_keys: List[Expression] = []

    for conjunct in split_conjuncts(condition):
        indices = combined_layout.column_indices(conjunct)
        if indices is None:
            return None  # unresolvable/ambiguous name: legacy path must raise
        side = _classify_side(indices, left_width)
        if side == "left" and kind == "inner":
            left_prefilters.append(conjunct)
            continue
        if side == "right":
            # Valid for LEFT joins too: a build row failing a build-side-only
            # ON conjunct can never match any probe row.
            right_prefilters.append(conjunct)
            continue
        if side == "both":
            operands = _equi_operand_indices(conjunct, combined_layout)
            if operands is not None:
                first_side = _classify_side(operands[0], left_width)
                second_side = _classify_side(operands[1], left_width)
                if {first_side, second_side} == {"left", "right"}:
                    left_expr, right_expr = (
                        (conjunct.left, conjunct.right)
                        if first_side == "left"
                        else (conjunct.right, conjunct.left)
                    )
                    left_keys.append(left_expr)
                    right_keys.append(right_expr)
                    continue
        residuals.append(conjunct)

    if not left_keys:
        return None  # no equi key: hash join buys nothing, nested loop it is

    if left_prefilters:
        plan.left_prefilter = compile_expression(
            conjoin(left_prefilters), left_layout, functions, parameters
        )
        if plan.left_prefilter is None:
            return None
    if right_prefilters:
        plan.right_prefilter = compile_expression(
            conjoin(right_prefilters), right_layout, functions, parameters
        )
        if plan.right_prefilter is None:
            return None
    if residuals:
        plan.residual_fn = compile_expression(
            conjoin(residuals), combined_layout, functions, parameters
        )
        if plan.residual_fn is None:
            return None
    return _compile_keys(
        plan, left_keys, right_keys, left_layout, right_layout, functions, parameters
    )


def plan_key_join(
    left_columns: Sequence[Tuple[Optional[str], str]],
    right_columns: Sequence[Tuple[Optional[str], str]],
    left_key_exprs: Sequence[Expression],
    right_key_exprs: Sequence[Expression],
    functions: Dict[str, Callable[..., Any]],
    parameters: Optional[Dict[str, Any]],
) -> Optional[HashJoinPlan]:
    """Plan one inner join step from pre-extracted key pairs, or ``None``.

    Used by the implicit multi-FROM planner, which classifies the WHERE
    clause itself (prefilters are applied per source, residual conjuncts are
    left for the post-join WHERE) and only needs the key compilation here.
    """
    return _compile_keys(
        HashJoinPlan(kind="inner"),
        left_key_exprs,
        right_key_exprs,
        ColumnLayout(keys_for_columns(left_columns)),
        ColumnLayout(keys_for_columns(right_columns)),
        functions,
        parameters,
    )


def _compile_keys(
    plan: HashJoinPlan,
    left_key_exprs: Sequence[Expression],
    right_key_exprs: Sequence[Expression],
    left_layout: ColumnLayout,
    right_layout: ColumnLayout,
    functions: Dict[str, Callable[..., Any]],
    parameters: Optional[Dict[str, Any]],
) -> Optional[HashJoinPlan]:
    """Compile the key closures into ``plan``; ``None`` if any declines."""
    plan.left_key_fns = [
        compile_expression(expr, left_layout, functions, parameters)
        for expr in left_key_exprs
    ]
    plan.right_key_fns = [
        compile_expression(expr, right_layout, functions, parameters)
        for expr in right_key_exprs
    ]
    if any(fn is None for fn in plan.left_key_fns + plan.right_key_fns):
        return None
    return plan


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def apply_prefilter(
    predicate: Optional[Callable],
    rows: List[Tuple[Any, ...]],
    segment_ids: List[int],
) -> Tuple[List[Tuple[Any, ...]], List[int]]:
    """Filter rows (and their segment provenance) with a compiled predicate."""
    if predicate is None:
        return rows, segment_ids
    kept_rows: List[Tuple[Any, ...]] = []
    kept_segments: List[int] = []
    for row, segment in zip(rows, segment_ids):
        if predicate(row) is True:
            kept_rows.append(row)
            kept_segments.append(segment)
    return kept_rows, kept_segments


def build_hash_table(
    rows: Sequence[Tuple[Any, ...]], key_fns: Sequence[Callable]
) -> Dict[Any, List[Tuple[Any, ...]]]:
    """Bucket build-side rows by key tuple; NULL/NaN key components never enter.

    Bucket lists preserve build-side scan order, which is what makes the
    probe emit rows in exactly the nested loop's order.
    """
    buckets: Dict[Any, List[Tuple[Any, ...]]] = {}
    for row in rows:
        components = tuple(fn(row) for fn in key_fns)
        if any(is_null(component) for component in components):
            continue
        key = tuple(hashable_key(component) for component in components)
        bucket = buckets.get(key)
        if bucket is None:
            buckets[key] = [row]
        else:
            bucket.append(row)
    return buckets


def probe_hash_table(
    probe_rows: Sequence[Tuple[Any, ...]],
    probe_segments: Sequence[int],
    buckets: Dict[Any, List[Tuple[Any, ...]]],
    key_fns: Sequence[Callable],
    residual_fn: Optional[Callable],
    kind: str,
    right_width: int,
) -> Tuple[List[Tuple[Any, ...]], List[int]]:
    """Probe: emit combined rows in (probe order, bucket order)."""
    out_rows: List[Tuple[Any, ...]] = []
    out_segments: List[int] = []
    null_pad = (None,) * right_width
    left_join = kind == "left"
    for row, segment in zip(probe_rows, probe_segments):
        components = tuple(fn(row) for fn in key_fns)
        matched = False
        if not any(is_null(component) for component in components):
            key = tuple(hashable_key(component) for component in components)
            for build_row in buckets.get(key, ()):
                combined = row + build_row
                if residual_fn is None or residual_fn(combined) is True:
                    out_rows.append(combined)
                    out_segments.append(segment)
                    matched = True
        if left_join and not matched:
            out_rows.append(row + null_pad)
            out_segments.append(segment)
    return out_rows, out_segments


def execute_hash_join(plan: HashJoinPlan, left, right) -> JoinOutcome:
    """Run a planned hash join over two relations (duck-typed: ``rows``,
    ``segment_ids``, ``columns`` attributes).

    The build side is cost-driven: when the exact post-prefilter counts say
    the left side is much smaller, the hash table is built on the left and
    the right side probes (:func:`_reversed_hash_join`), emitting the exact
    same rows in the exact same order.
    """
    probe_rows, probe_segments = apply_prefilter(
        plan.left_prefilter, left.rows, left.segment_ids
    )
    build_rows, _ = apply_prefilter(plan.right_prefilter, right.rows, right.segment_ids)
    right_width = len(right.columns)

    # The cost inputs here are the *exact* post-prefilter cardinalities — at
    # execution time both sides are materialized, so actual counts strictly
    # dominate the planner's pre-filter estimates (which can be stale or
    # inflated); `estimates` is kept for EXPLAIN display and stats.
    actual_left = float(len(probe_rows))
    actual_right = float(len(build_rows))
    if (
        actual_right >= REVERSED_BUILD_MIN_ROWS
        and actual_left * REVERSED_BUILD_RATIO <= actual_right
    ):
        rows, segments = _reversed_hash_join(
            plan, probe_rows, probe_segments, build_rows, right_width
        )
        return JoinOutcome(rows, segments, "hash_reversed")

    buckets = build_hash_table(build_rows, plan.right_key_fns)
    rows, segments = probe_hash_table(
        probe_rows,
        probe_segments,
        buckets,
        plan.left_key_fns,
        plan.residual_fn,
        plan.kind,
        right_width,
    )
    return JoinOutcome(rows, segments, "hash")


def _reversed_hash_join(
    plan: HashJoinPlan,
    left_rows: Sequence[Tuple[Any, ...]],
    left_segments: Sequence[int],
    right_rows: Sequence[Tuple[Any, ...]],
    right_width: int,
) -> Tuple[List[Tuple[Any, ...]], List[int]]:
    """Build on the (smaller) left side, probe with the right, emit in the
    canonical (left scan order, right scan order) nested-loop order.

    The hash table maps key → left row indices; probing right rows in scan
    order appends each match to its left row's buffer, so every buffer is
    right-ordered and a final ascending walk over left indices reproduces
    the standard probe's emission order byte-for-byte.  Costs one buffering
    pass over the matches — worth it when building the right side's hash
    table would dominate.
    """
    buckets: Dict[Any, List[int]] = {}
    for left_index, row in enumerate(left_rows):
        components = tuple(fn(row) for fn in plan.left_key_fns)
        if any(is_null(component) for component in components):
            continue
        key = tuple(hashable_key(component) for component in components)
        bucket = buckets.get(key)
        if bucket is None:
            buckets[key] = [left_index]
        else:
            bucket.append(left_index)

    matches: Dict[int, List[Tuple[Any, ...]]] = {}
    residual_fn = plan.residual_fn
    for right_row in right_rows:
        components = tuple(fn(right_row) for fn in plan.right_key_fns)
        if any(is_null(component) for component in components):
            continue
        key = tuple(hashable_key(component) for component in components)
        for left_index in buckets.get(key, ()):
            combined = left_rows[left_index] + right_row
            if residual_fn is None or residual_fn(combined) is True:
                buffer = matches.get(left_index)
                if buffer is None:
                    matches[left_index] = [combined]
                else:
                    buffer.append(combined)

    out_rows: List[Tuple[Any, ...]] = []
    out_segments: List[int] = []
    if plan.kind == "left":
        null_pad = (None,) * right_width
        for left_index, row in enumerate(left_rows):
            buffer = matches.get(left_index)
            if buffer:
                out_rows.extend(buffer)
                out_segments.extend([left_segments[left_index]] * len(buffer))
            else:
                out_rows.append(row + null_pad)
                out_segments.append(left_segments[left_index])
    else:
        for left_index in sorted(matches):
            buffer = matches[left_index]
            out_rows.extend(buffer)
            out_segments.extend([left_segments[left_index]] * len(buffer))
    return out_rows, out_segments
