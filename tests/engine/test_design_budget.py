"""Design budget: ROADMAP's tracked simplicity metrics, pinned as tests.

ROADMAP counts the number of ``Database`` behaviour flags, the number of
places expressions are evaluated and the lines of engine code as metrics that
should only go *down*.  Pinning them here makes growing any of them a diff
someone has to make on purpose (and explain in review), not something a
reader finds later by archaeology.
"""

from __future__ import annotations

import inspect
import re
from pathlib import Path

import pytest

import repro.engine
from repro import Database

ENGINE_SOURCE = Path(repro.engine.__file__).parent

#: The documented behaviour switches of ``Database.__init__`` (``docs/
#: architecture.md``).  Removing one is progress: shrink the set.  Adding one
#: needs two existing non-test callers that want different values.
BEHAVIOUR_FLAGS = {"plan_cache"}

#: Sizing, supervision tuning and test injection — not behaviour switches.
NON_FLAG_PARAMETERS = {
    "self",
    "num_segments",
    "parallel",
    "parallel_task_timeout",
    "parallel_task_retries",
    "parallel_min_dispatch_rows",
    "faults",
}


def test_database_behaviour_flags_are_the_documented_one():
    parameters = set(inspect.signature(Database.__init__).parameters)
    assert parameters - NON_FLAG_PARAMETERS == BEHAVIOUR_FLAGS == {"plan_cache"}


@pytest.mark.parametrize(
    "removed", [{"compiled_execution": False}, {"auto_analyze": True}], ids=lambda flag: next(iter(flag))
)
def test_removed_flags_are_rejected(removed):
    """The reference tier lives under ``tests/``; statistics refresh only on
    an explicit ``ANALYZE``."""
    with pytest.raises(TypeError):
        Database(**removed)


def test_nothing_in_the_engine_tree_walks_an_expression():
    """One execution tier: every expression the engine evaluates is a
    compiled closure; the tree-walking evaluator is the test suite's oracle."""
    pattern = re.compile(r"\.evaluate\(|RowContext|interpreted_row_function")
    offenders = [
        f"{path.relative_to(ENGINE_SOURCE)}:{number}: {line.strip()}"
        for path in sorted(ENGINE_SOURCE.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if pattern.search(line)
    ]
    assert offenders == []


def test_no_engine_module_reads_one_row_through_the_segment_view():
    """``Table.segment_view`` builds every row of a segment; a statement
    that wants a few rows reads them with ``ColumnStore.rows_at``."""
    pattern = re.compile(r"segment_view\([^)]*\)\[")
    offenders = [
        f"{path.relative_to(ENGINE_SOURCE)}:{number}: {line.strip()}"
        for path in sorted(ENGINE_SOURCE.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if pattern.search(line)
    ]
    assert offenders == []


def test_workers_fold_and_never_compile_sql():
    """The worker pool runs one task — an ungrouped aggregate's transition
    over one segment's argument stream — so ``parallel.py`` needs nothing
    from the expression compiler."""
    imports_compile = re.compile(r"^\s*(from|import)\s+(\.|repro\.engine\.)compile\b", re.M)
    assert imports_compile.search((ENGINE_SOURCE / "parallel.py").read_text()) is None


#: Total lines of ``src/repro/engine`` (every ``*.py``, the parser package
#: included).  A ceiling, not a target: lower it whenever the count drops,
#: without ceremony; raising it needs a review note saying what the lines buy.
#:
#: 15,676 before PR 13, whose issue budgeted +250; it landed at +488, so that
#: budget is *missed*.  Where the lines are: ``grouping.py`` +532 (kernel 230,
#: columnar top-k 90, planning glue 210 — 40 of it moved out of
#: ``executor.py``); ``rows_at`` / NULL-aware ``gather_positions`` +17; the
#: ``prefiltered`` row fold +13 (worth 23 ms of ``groupby_high``); strategy
#: fields and ``batch_fallback_reason`` +25; EXPLAIN ANALYZE lines +15.
#: Deleted (−114): ``_columnar_streams``, stream building inside
#: ``_run_aggregate``, ``Table.segment_batch``, the view rebuild's row replay,
#: ``_CallSpec``.  What could not go: the row loop is the
#: ``compiled_execution=False`` oracle the issue keeps, and ``_absorb_row`` is
#: still the views' INSERT fold.
#:
#: 16,164 before PR 14, whose issue budgeted +120; it landed at +156, so that
#: budget is **not met** (+177 before review; the review's cuts took out the
#: ``AggregateKernel`` base class, an EXPLAIN helper and a lone-stream
#: shortcut, and its two fixes — no matrix view for a selective read, constants
#: surviving the serial fusion — put 10 lines back).  What the lines buy: every
#: hot method aggregate on the batch tier through the existing seam, no new
#: flag or execution path (``paper_methods`` 20 -> 61 ops/s).  By file:
#: ``columnar.py`` +38 (``ArrayColumn`` and its matrix view); ``grouping.py``
#: +35 (constants and array views on the columnar frame — ``source``,
#: ``_argument_at``, ``_group_slices`` — with ``count(*)`` now an ordinary
#: constant argument; ``_group_slices`` rebuilding constants is kept because the
#: spine needs it: ``groupby_high`` reads 55.1 ms with plain slicing, 52.0 with
#: an inline type test, 48.0 with it, 49.6 at the parent); ``segments.py`` +27
#: (``fold_tier`` / ``fold_decline_reason`` / ``note_tier`` +23, the serial
#: fusion keeping a constant column constant +4); ``catalog.py`` +24 (identical
#: re-registration is a no-op; bound methods compare by function, class and
#: ``vars`` of the kernel object); ``vectorized.py`` +23
#: (``constant_argument``, ``matrix_argument``, ``ConstantColumn`` surviving
#: the strict filter); ``planner.py`` +9 (``constant_value`` public,
#: array-valued and guarding volatile calls itself +7, the ``Fold:`` lines +7,
#: ANALYZE on the FM batch add -5).
#:
#: 16,319 before the row-tuple segment type and the three storage / join
#: switches went: -104 (``table.py`` -60, ``database.py`` -30, the rest -14),
#: net of the ``rows_at`` point and delta reads that replaced whole-segment
#: row views.  Added: the parser's nesting limit (+21) and ``rows_at``
#: building the row cache once reads since the last write have paid for it
#: (+18; without it read-only serving lost its cached rows, ~10% of the
#: engine time of ``serve_point``'s request mix).
#:
#: 16,254 before the pool kept one task shape: grouped dispatch, pool joins
#: and the single-stream flag went (-866; ``parallel.py`` -304,
#: ``executor.py`` -253, ``join.py`` -277).
#:
#: 15,388 before the engine kept one execution tier: ``compiled_execution``,
#: ``auto_analyze`` and the modelled timings went (-365; ``expressions.py``
#: -194, ``executor.py`` -101, ``segments.py`` -55, ``planner.py`` -36,
#: ``database.py`` -18; ``compile.py`` +46 for the closures that raise a
#: malformed node's error when it is evaluated).  The reference tier moved to
#: ``tests/reference_tier.py`` (362 lines); lines moved into ``tests/`` are not
#: a reduction, and the ceiling drop does not count them as one: it is what
#: left the product — one flag, the second tier it selected, and the tree
#: walk as the runtime fallback for malformed statements.
#:
#: 15,023 before a join's WHERE moved into its sides' scans and every scan
#: became a lazy row view (-5): ``executor.py`` +31 (``_push_where``,
#: ``_scan_filtered``, ``_side``, ``_filter``, ``_stored_relation``, net of
#: ``_plan_multi_from`` and its prefilter block), ``planner.py`` -22 (EXPLAIN
#: takes join sides from ``_push_where``; ``_static_columns`` moved to the
#: executor), ``matview.py`` -12 (``_ColumnsOnly``), ``catalog.py`` -6 and
#: ``faults.py`` -4 (``has_index``, ``index_names``, ``armed_sites``: no
#: caller), ``columnar.py`` +6 (``materialized``), ``grouping.py`` +2.
ENGINE_LINES_CEILING = 15_018


def test_engine_line_count_stays_under_its_ceiling():
    total = sum(
        len(path.read_text().splitlines()) for path in sorted(ENGINE_SOURCE.rglob("*.py"))
    )
    assert total <= ENGINE_LINES_CEILING, (
        f"src/repro/engine grew to {total} lines (ceiling {ENGINE_LINES_CEILING}): "
        "delete something, or raise the ceiling with a review note"
    )
