"""Design budget: ROADMAP's tracked simplicity metrics, pinned as tests.

ROADMAP counts the number of ``Database`` behaviour flags and the number of
places expressions are evaluated as metrics that should only go *down*.
Pinning them here makes growing either one a diff someone has to make on
purpose (and explain in review), not something a reader finds later by
archaeology.
"""

from __future__ import annotations

import inspect
import re
from pathlib import Path

import repro.engine
from repro import Database

ENGINE_SOURCE = Path(repro.engine.__file__).parent

#: The documented behaviour switches of ``Database.__init__`` (``docs/
#: architecture.md``).  Removing one is progress: shrink the set.  Adding one
#: needs two existing non-test callers that want different values.
BEHAVIOUR_FLAGS = {
    "parallel_aggregation",
    "compiled_execution",
    "hash_joins",
    "auto_analyze",
    "columnar_storage",
    "columnar_compression",
    "plan_cache",
}

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


def test_database_behaviour_flags_are_the_documented_seven():
    parameters = set(inspect.signature(Database.__init__).parameters)
    assert parameters - NON_FLAG_PARAMETERS == BEHAVIOUR_FLAGS
    assert len(BEHAVIOUR_FLAGS) == 7


def test_expressions_are_evaluated_in_one_module():
    """One expression-evaluation seam: outside ``expressions.py`` (the
    reference evaluator and its adapter) nothing in the engine tree-walks an
    expression or builds a ``RowContext``."""
    pattern = re.compile(r"\.evaluate\(|RowContext\(")
    offenders = [
        f"{path.relative_to(ENGINE_SOURCE)}:{number}: {line.strip()}"
        for path in sorted(ENGINE_SOURCE.rglob("*.py"))
        if path.name != "expressions.py"
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if pattern.search(line)
    ]
    assert offenders == []
