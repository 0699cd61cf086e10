"""Equi-join planning and hash-join execution.

Before this module existed every join was an interpreted nested loop: the
executor evaluated the raw ON condition against a per-pair ``RowContext``
dict, O(N·M) context builds per join, and implicit multi-table FROM lists
were materialized as full Cartesian products before WHERE filtering.  The
paper's text-analytics methods are exactly the workloads that shape punishes
— the Viterbi dynamic program issues a three-way ``FROM factors f, paths p,
transitions t`` join per token position — so joins were the one operator
still outside the compiled/batched/parallel execution model of PRs 1–3.

This module closes that gap with the classic three-step treatment:

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

3. **Segment-aware dispatch**.  When the probe side is large enough and the
   expressions are shippable (compile against the guarded builtin registry,
   see :mod:`repro.engine.parallel`), the build/probe runs on the
   :class:`~repro.engine.parallel.SegmentWorkerPool`, one task per probe
   segment.  Two shapes mirror Greenplum's motion avoidance: **co-located**
   (both sides are hash-distributed on their join key with equal segment
   counts — each worker joins matching segment pairs, no data crosses
   segments) and **broadcast** (a small build side is replicated to every
   worker).  Both produce exactly the in-process row order because probe
   rows are shipped in segment order, which *is* relation row order.

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
from .expressions import BinaryOp, ColumnRef, Expression, FunctionCall, WindowCall
from .parallel import WorkerPoolError, guarded_function_registry
from .types import hashable_key, is_null

__all__ = [
    "HashJoinPlan",
    "JoinEstimates",
    "JoinOutcome",
    "split_conjuncts",
    "conjoin",
    "has_unshippable_calls",
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


def has_unshippable_calls(
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
    if has_unshippable_calls(where, functions):
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
    """A fully compiled equi-join plan for one build/probe step.

    All callables are positional-row closures; the AST fields exist so the
    parallel tier can re-compile the same expressions inside workers.
    """

    kind: str  # "inner" | "left"
    #: Compiled prefilters, applied to each side before the join.
    left_prefilter: Optional[Callable] = None
    right_prefilter: Optional[Callable] = None
    #: Hash-key closures, one per equi-conjunct, per side (parallel lists).
    left_key_fns: List[Callable] = field(default_factory=list)
    right_key_fns: List[Callable] = field(default_factory=list)
    #: The same key expressions as ASTs (for worker-side compilation).
    left_key_exprs: List[Expression] = field(default_factory=list)
    right_key_exprs: List[Expression] = field(default_factory=list)
    #: Residual predicate over the combined row, or None.
    residual_fn: Optional[Callable] = None
    residual_expr: Optional[Expression] = None
    #: Column-key layouts needed to rebuild the compile environment in a
    #: worker: left side, right side, combined row.
    left_keys_per_column: Tuple = ()
    right_keys_per_column: Tuple = ()
    combined_keys_per_column: Tuple = ()
    #: True when keys + residual compile against the guarded builtin registry
    #: (workers can reproduce them exactly); prefilters always run locally.
    shippable: bool = False
    #: When the key lists are exactly each side's distribution column (same
    #: stored python type on both sides), equal keys are guaranteed to live on
    #: equal segment indices — the co-located shape.
    colocated: bool = False


@dataclass
class JoinOutcome:
    """What one executed join step produced, for stats and relation building."""

    rows: List[Tuple[Any, ...]]
    segment_ids: List[int]
    strategy: str
    #: Coordinator-observed wall clock of the pool fan-out, when dispatched.
    parallel_wall_seconds: Optional[float] = None


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
    *,
    left_distribution: Optional[tuple] = None,
    right_distribution: Optional[tuple] = None,
    check_shippable: bool = True,
) -> Optional[HashJoinPlan]:
    """Plan one inner/left equi-join, or ``None`` (→ nested-loop fallback).

    ``left_distribution`` / ``right_distribution`` are optional
    ``(column_index, python_type)`` pairs describing how each side's rows are
    hash-partitioned across segments; when the extracted join keys are exactly
    those columns (and the stored types agree, so hash inputs agree), the
    plan is marked co-located.  ``check_shippable=False`` skips the
    worker-shippability analysis (a second compile pass against the guarded
    registry) — pass it when no worker pool exists, where the flag would
    never be read.

    The planner is all-or-nothing: every consumed conjunct (prefilters, key
    pairs) and the residual must compile, the condition may not contain
    volatile or unknown functions, and every column reference must resolve in
    the combined layout.  Any failure returns ``None`` so the executor's
    nested loop preserves the exact legacy semantics, error messages
    included.
    """
    if kind not in ("inner", "left"):
        return None
    if has_unshippable_calls(condition, functions):
        return None

    left_keys = keys_for_columns(left_columns)
    right_keys = keys_for_columns(right_columns)
    combined_keys = keys_for_columns(list(left_columns) + list(right_columns))
    left_layout = ColumnLayout(left_keys)
    right_layout = ColumnLayout(right_keys)
    combined_layout = ColumnLayout(combined_keys)
    left_width = len(left_columns)

    def compile_left(expression: Expression) -> Optional[Callable]:
        return compile_expression(expression, left_layout, functions, parameters)

    def compile_right(expression: Expression) -> Optional[Callable]:
        # Right-side rows are probed/built as bare right tuples, so indices
        # must be relative to the right layout, not the combined one.
        return compile_expression(expression, right_layout, functions, parameters)

    plan = HashJoinPlan(
        kind=kind,
        left_keys_per_column=tuple(tuple(keys) for keys in left_keys),
        right_keys_per_column=tuple(tuple(keys) for keys in right_keys),
        combined_keys_per_column=tuple(tuple(keys) for keys in combined_keys),
    )
    left_prefilters: List[Expression] = []
    right_prefilters: List[Expression] = []
    residuals: List[Expression] = []

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
                    plan.left_key_exprs.append(left_expr)
                    plan.right_key_exprs.append(right_expr)
                    continue
        residuals.append(conjunct)

    if not plan.left_key_exprs:
        return None  # no equi key: hash join buys nothing, nested loop it is

    if left_prefilters:
        plan.left_prefilter = compile_left(conjoin(left_prefilters))
        if plan.left_prefilter is None:
            return None
    if right_prefilters:
        plan.right_prefilter = compile_right(conjoin(right_prefilters))
        if plan.right_prefilter is None:
            return None
    if residuals:
        plan.residual_expr = conjoin(residuals)
        plan.residual_fn = compile_expression(
            plan.residual_expr, combined_layout, functions, parameters
        )
        if plan.residual_fn is None:
            return None

    return _finalize_plan(
        plan,
        left_layout,
        right_layout,
        combined_layout,
        functions,
        parameters,
        left_distribution,
        right_distribution,
        check_shippable,
    )


def plan_key_join(
    left_columns: Sequence[Tuple[Optional[str], str]],
    right_columns: Sequence[Tuple[Optional[str], str]],
    left_key_exprs: Sequence[Expression],
    right_key_exprs: Sequence[Expression],
    functions: Dict[str, Callable[..., Any]],
    parameters: Optional[Dict[str, Any]],
    *,
    left_distribution: Optional[tuple] = None,
    right_distribution: Optional[tuple] = None,
    check_shippable: bool = True,
) -> Optional[HashJoinPlan]:
    """Plan one inner join step from pre-extracted key pairs, or ``None``.

    Used by the implicit multi-FROM planner, which classifies the WHERE
    clause itself (prefilters are applied per source, residual conjuncts are
    left for the post-join WHERE) and only needs the key compilation,
    shippability and co-location analysis here.
    """
    left_keys = keys_for_columns(left_columns)
    right_keys = keys_for_columns(right_columns)
    combined_keys = keys_for_columns(list(left_columns) + list(right_columns))
    plan = HashJoinPlan(
        kind="inner",
        left_keys_per_column=tuple(tuple(keys) for keys in left_keys),
        right_keys_per_column=tuple(tuple(keys) for keys in right_keys),
        combined_keys_per_column=tuple(tuple(keys) for keys in combined_keys),
    )
    plan.left_key_exprs = list(left_key_exprs)
    plan.right_key_exprs = list(right_key_exprs)
    return _finalize_plan(
        plan,
        ColumnLayout(left_keys),
        ColumnLayout(right_keys),
        ColumnLayout(combined_keys),
        functions,
        parameters,
        left_distribution,
        right_distribution,
        check_shippable,
    )


def _finalize_plan(
    plan: HashJoinPlan,
    left_layout: ColumnLayout,
    right_layout: ColumnLayout,
    combined_layout: ColumnLayout,
    functions: Dict[str, Callable[..., Any]],
    parameters: Optional[Dict[str, Any]],
    left_distribution: Optional[tuple],
    right_distribution: Optional[tuple],
    check_shippable: bool,
) -> Optional[HashJoinPlan]:
    """Compile the key closures and derive shippability / co-location."""
    plan.left_key_fns = [
        compile_expression(expr, left_layout, functions, parameters)
        for expr in plan.left_key_exprs
    ]
    plan.right_key_fns = [
        compile_expression(expr, right_layout, functions, parameters)
        for expr in plan.right_key_exprs
    ]
    if any(fn is None for fn in plan.left_key_fns + plan.right_key_fns):
        return None

    # Shippability: workers rebuild the builtin registry locally, so the key
    # and residual expressions may only cross the process boundary when they
    # compile against the guarded subset (genuine builtins only).  Skipped
    # when the caller has no pool — the flag would never be read.
    if check_shippable:
        guarded = guarded_function_registry(functions)
        plan.shippable = all(
            compile_expression(expr, layout, guarded, parameters) is not None
            for expr, layout in (
                [(e, left_layout) for e in plan.left_key_exprs]
                + [(e, right_layout) for e in plan.right_key_exprs]
                + (
                    [(plan.residual_expr, combined_layout)]
                    if plan.residual_expr is not None
                    else []
                )
            )
        )

    plan.colocated = _keys_are_distribution_columns(
        plan, left_layout, right_layout, left_distribution, right_distribution
    )
    return plan


def _keys_are_distribution_columns(
    plan: HashJoinPlan,
    left_layout: ColumnLayout,
    right_layout: ColumnLayout,
    left_distribution: Optional[tuple],
    right_distribution: Optional[tuple],
) -> bool:
    """Whether some key pair is exactly (left dist column, right dist column).

    Equal key values then hash to equal segment indices on both sides (the
    tables share :func:`~repro.engine.table._distribution_hash`), provided the
    stored python types agree — ``1`` and ``1.0`` compare equal but ``repr``
    differently, so mixed integer/double distribution columns are excluded.
    """
    if left_distribution is None or right_distribution is None:
        return False
    left_index, left_type = left_distribution
    right_index, right_type = right_distribution
    if left_type is not right_type:
        return False
    for left_expr, right_expr in zip(plan.left_key_exprs, plan.right_key_exprs):
        left_refs = left_layout.column_indices(left_expr)
        right_refs = right_layout.column_indices(right_expr)
        if (
            left_refs == frozenset({left_index})
            and right_refs == frozenset({right_index})
            and _is_bare_column(left_expr)
            and _is_bare_column(right_expr)
        ):
            return True
    return False


def _is_bare_column(expression: Expression) -> bool:
    return isinstance(expression, ColumnRef)


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


def _segment_runs(segment_ids: Sequence[int], num_segments: int) -> Optional[List[Tuple[int, int]]]:
    """``[(start, end)]`` slices, one per segment 0..n-1, when the ids are one
    ascending run per segment (possibly empty); ``None`` otherwise.

    Scanned relations satisfy this by construction and prefilters preserve
    it; the pool relies on it to reconstruct global row order from
    per-segment outputs.
    """
    runs: List[Tuple[int, int]] = []
    cursor = 0
    total = len(segment_ids)
    for segment in range(num_segments):
        start = cursor
        while cursor < total and segment_ids[cursor] == segment:
            cursor += 1
        runs.append((start, cursor))
    if cursor != total:
        return None
    return runs


def execute_hash_join(
    plan: HashJoinPlan,
    left,
    right,
    *,
    pool=None,
    parameters: Optional[Dict[str, Any]] = None,
) -> JoinOutcome:
    """Run a planned hash join over two relations (duck-typed: ``rows``,
    ``segment_ids``, ``num_segments``, ``columns`` attributes).

    Prefilters always run on the coordinator.  The build/probe phase runs on
    the worker ``pool`` when it is worthwhile (probe side at or above the
    pool's dispatch floor, expressions shippable, and either a co-located
    key pair or a build side cheap enough to broadcast under the cost
    model); otherwise — and on any dispatch failure — it runs in-process
    with identical results.  In-process, the build side is cost-driven:
    when the exact post-prefilter counts say the left side is much smaller,
    the hash table is built on the left and the right side probes
    (:func:`_reversed_hash_join`), emitting the exact same rows in the
    exact same order.
    """
    probe_rows, probe_segments = apply_prefilter(
        plan.left_prefilter, left.rows, left.segment_ids
    )
    build_rows, build_segments = apply_prefilter(
        plan.right_prefilter, right.rows, right.segment_ids
    )
    right_width = len(right.columns)

    if pool is not None and len(probe_rows) >= max(pool.min_dispatch_rows, 1):
        outcome = _try_parallel_join(
            plan,
            pool,
            probe_rows,
            probe_segments,
            left.num_segments,
            build_rows,
            build_segments,
            right.num_segments,
            right_width,
            parameters,
        )
        if outcome is not None:
            return outcome

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


def _broadcast_worthwhile(
    estimated_probe: float, estimated_build: float, num_segments: int, max_build_rows: int
) -> bool:
    """Cost rule for replicating the build side to every worker.

    Small build sides always qualify (the legacy fixed cap).  Beyond that,
    broadcasting ships ``build × segments`` rows, so it pays off only when
    that shipping cost stays under the probe work it parallelizes.
    """
    if estimated_build <= max_build_rows:
        return True
    return estimated_build * num_segments <= estimated_probe


def _try_parallel_join(
    plan: HashJoinPlan,
    pool,
    probe_rows,
    probe_segments,
    probe_num_segments: int,
    build_rows,
    build_segments,
    build_num_segments: int,
    right_width: int,
    parameters,
) -> Optional[JoinOutcome]:
    """Dispatch the build/probe to the worker pool, or ``None`` to stay local."""
    if not plan.shippable or probe_num_segments <= 1:
        return None
    probe_runs = _segment_runs(probe_segments, probe_num_segments)
    if probe_runs is None:
        return None

    spec = (
        plan.left_keys_per_column,
        plan.right_keys_per_column,
        plan.combined_keys_per_column,
        tuple(plan.left_key_exprs),
        tuple(plan.right_key_exprs),
        plan.residual_expr,
        plan.kind,
        right_width,
        parameters,
    )
    probe_chunks = [probe_rows[start:end] for start, end in probe_runs]

    build_chunks: Optional[List[list]] = None
    strategy = None
    if plan.colocated and build_num_segments == probe_num_segments:
        build_runs = _segment_runs(build_segments, build_num_segments)
        if build_runs is not None:
            build_chunks = [build_rows[start:end] for start, end in build_runs]
            strategy = "hash_colocated"
    if build_chunks is None:
        # Exact post-prefilter counts, not planner estimates — see
        # execute_hash_join.
        if not _broadcast_worthwhile(
            float(len(probe_rows)),
            float(len(build_rows)),
            probe_num_segments,
            pool.BROADCAST_MAX_BUILD_ROWS,
        ):
            return None
        strategy = "hash_broadcast"

    try:
        outcome = pool.run_join(spec, probe_chunks, build_chunks, build_rows)
    except WorkerPoolError:
        # Infra faults only (dead/hung workers, IPC pickling) — supervision
        # already retried and counted the fallback on the pool's counters;
        # rejoin in-process.  Query errors a shipped expression raised in a
        # worker propagate unchanged, byte-identical to the in-process tier.
        return None
    if outcome is None:
        return None
    chunk_outputs, _seconds, wall = outcome
    rows: List[Tuple[Any, ...]] = []
    segments: List[int] = []
    for segment, chunk in enumerate(chunk_outputs):
        rows.extend(chunk)
        segments.extend([segment] * len(chunk))
    return JoinOutcome(rows, segments, strategy, parallel_wall_seconds=wall)
