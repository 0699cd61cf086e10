"""Randomized materialized-view parity fuzzing, mirroring the columnar fuzz.

Every scenario builds a database (seed-varied segment count), defines a handful of random materialized views — grouped and
ungrouped, with random WHERE / HAVING clauses over the fold-exact aggregate
pool (count / sum / avg / min / max) — and runs a seeded random DML script.
After *every* statement, each view's finalized contents must be
byte-identical (``repr``-equal: type-exact, NaN-faithful) to re-running its
defining query from scratch, whatever mix of incremental delta folds and
staleness-triggered recomputes got the view there.

The variance family is excluded by design: its batch kernel is documented to
agree with the Welford fold only to floating-point round-off, so it cannot
promise byte-identical reads (see docs/materialized-views.md).

Scenarios are seeded and fully reproducible: a failure names its seed.
"""

from __future__ import annotations

import random

import pytest

from repro import Database


SEEDS = list(range(12))
STATEMENTS = 18  # DML statements per scenario; a view check follows each one

_LABELS = ["alpha", "beta", "gamma", None]


# ---------------------------------------------------------------------------
# Random scenario generation
# ---------------------------------------------------------------------------


def _random_value(rng: random.Random, column: str):
    if rng.random() < 0.15:
        return "NULL"
    if column == "k":
        return str(rng.randrange(0, 6))
    if column == "a":
        return str(rng.randrange(-50, 51))
    if column == "b":
        # Integer-valued doubles keep float64 sums exact; a sprinkle of
        # fractional values still exercises identical fold ordering.
        if rng.random() < 0.5:
            return f"{rng.randrange(-30, 31)}.0"
        return f"{rng.randrange(-300, 301) / 4}"
    label = rng.choice(_LABELS)
    return "NULL" if label is None else f"'{label}'"


def _random_row(rng: random.Random) -> str:
    return "(" + ", ".join(_random_value(rng, c) for c in ("k", "a", "b", "s")) + ")"


def _random_aggregates(rng: random.Random) -> list:
    pool = [
        "count(*)",
        "count(a)",
        "sum(a)",
        "sum(b)",
        "avg(a)",
        "avg(b)",
        "min(a)",
        "max(b)",
        "min(s)",
        "max(s)",
    ]
    count = rng.randrange(2, 5)
    return [f"{agg} AS agg{i}" for i, agg in enumerate(rng.sample(pool, count))]


def _random_where(rng: random.Random):
    roll = rng.random()
    if roll < 0.4:
        return None
    if roll < 0.55:
        return f"a > {rng.randrange(-30, 10)}"
    if roll < 0.70:
        return "b IS NOT NULL"
    if roll < 0.85:
        return f"k < {rng.randrange(2, 6)}"
    return "s = 'alpha'"


def _random_view_sql(rng: random.Random) -> str:
    aggregates = _random_aggregates(rng)
    where = _random_where(rng)
    grouped = rng.random() < 0.7
    items = (["k"] if grouped else []) + aggregates
    sql = f"SELECT {', '.join(items)} FROM t"
    if where is not None:
        sql += f" WHERE {where}"
    if grouped:
        sql += " GROUP BY k"
        if rng.random() < 0.3:
            sql += " HAVING count(*) > 1"
    return sql


def _random_dml(rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.55:
        rows = ", ".join(_random_row(rng) for _ in range(rng.randrange(1, 9)))
        return f"INSERT INTO t VALUES {rows}"
    if roll < 0.75:
        column = rng.choice(("a", "b"))
        value = _random_value(rng, column)
        if rng.random() < 0.5:
            return f"UPDATE t SET {column} = {value} WHERE k = {rng.randrange(0, 6)}"
        return f"UPDATE t SET {column} = {value} WHERE a > {rng.randrange(0, 40)}"
    if rng.random() < 0.5:
        return f"DELETE FROM t WHERE k = {rng.randrange(0, 6)}"
    return f"DELETE FROM t WHERE a < {rng.randrange(-40, 0)}"


# ---------------------------------------------------------------------------
# The scenario
# ---------------------------------------------------------------------------


def _run_scenario(seed: int) -> int:
    rng = random.Random(f"matview-fuzz:{seed}")
    db = Database(num_segments=rng.choice((1, 2, 3)))
    db.execute("CREATE TABLE t (k INTEGER, a INTEGER, b DOUBLE PRECISION, s TEXT)")
    seed_rows = ", ".join(_random_row(rng) for _ in range(rng.randrange(5, 25)))
    db.execute(f"INSERT INTO t VALUES {seed_rows}")

    views = {}
    for index in range(rng.randrange(2, 4)):
        name = f"mv{index}"
        sql = _random_view_sql(rng)
        db.execute(f"CREATE MATERIALIZED VIEW {name} AS {sql}")
        views[name] = sql

    deltas = 0
    for step in range(STATEMENTS):
        sql = _random_dml(rng)
        result = db.execute(sql)
        if result.stats is not None:
            deltas += result.stats.matview_deltas_applied
        for name, defining in views.items():
            view_rows = db.execute(f"SELECT * FROM {name}").rows
            direct_rows = db.execute(defining).rows
            assert repr(view_rows) == repr(direct_rows), (
                f"seed {seed} step {step}: view {name} diverged after {sql!r}\n"
                f"  defining: {defining}\n"
                f"  view:   {view_rows!r}\n"
                f"  direct: {direct_rows!r}"
            )
    return deltas


@pytest.mark.parametrize("seed", SEEDS)
def test_matview_fuzz_parity(seed):
    _run_scenario(seed)


def test_fuzz_exercises_incremental_path():
    """The scenario pool actually hits delta folds (not just recomputes)."""
    total = sum(_run_scenario(seed) for seed in SEEDS[:4])
    assert total > 0


def test_fuzz_is_reproducible():
    assert _run_scenario(3) == _run_scenario(3)
