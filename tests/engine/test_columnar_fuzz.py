"""Randomized storage fuzzing against an in-test model of the table.

Every scenario builds two databases with identical contents — the default
(bitmap WHERE, code-space lookup tables, columnar grouping, index probes,
in-place bitmap DML over the packed columns) and a reference-tier twin
(``tests/reference_tier.py``: row at a time, none of those paths) — plus a
model that shares no engine code: a ``dict`` from ``id`` to the row tuple.
A randomized script of DML and queries runs against all of them:

* INSERT appends the batch to the model;
* UPDATE and DELETE apply to the ids the twin's ``SELECT id FROM t WHERE …``
  returns just before the statement (the SET values are literals, so the
  model applies them directly).

After every mutation ``SELECT * FROM t ORDER BY id`` must be byte-identical
to the model on both databases (type-exact values, NaN round-trips as NaN,
None as None) and DML rowcounts must equal the model's matched ids.  Every
query must agree across the databases, ``SELECT *`` queries must equal the
model's rows for the matched ids, ``rows_matched`` must equal the model's
matched count, and ``rows_scanned`` must agree wherever both databases ran
a sequential scan.  The model is what catches a storage bug both databases
share: a broken ``ColumnStore.set_rows`` or ``keep_positions`` corrupts the
twin's reads too.

A quarter of the seeds shrink ``DictColumn.MAX_DISTINCT`` to a handful of
codes so that high-cardinality text columns demote from dictionary to plain
object storage *mid-script*, proving demotion is observationally invisible.

Scenarios are seeded and fully reproducible: a failure names its seed.
"""

from __future__ import annotations

import math
import random

import pytest

from repro import Database
from repro.engine import columnar
from repro.errors import ReproError
from reference_tier import reference_database


SEEDS = list(range(25))
ROUNDS = 8  # DML+query rounds per seed; 25 seeds x 8 rounds = 200 scenarios

_LOW_CARD = ["alpha", "beta", "gamma", "delta", None]
_BOOLS = [True, False, None]


# ---------------------------------------------------------------------------
# Random schema / value generation
# ---------------------------------------------------------------------------

_COLUMN_KINDS = [
    ("text_low", "text"),
    ("text_high", "text"),
    ("num", "double precision"),
    ("count", "integer"),
    ("flag", "boolean"),
]


def _random_schema(rng):
    kinds = rng.sample(_COLUMN_KINDS, rng.randrange(2, 5))
    columns = [("id", "integer")]
    picked = []
    for base, sql_type in kinds:
        name = f"{base}_{len(picked)}"
        columns.append((name, sql_type))
        picked.append((name, base))
    return columns, picked


def _random_value(rng, kind):
    if rng.random() < 0.15:
        return None
    if kind == "text_low":
        return rng.choice([v for v in _LOW_CARD if v is not None])
    if kind == "text_high":
        return f"v{rng.randrange(10_000)}"
    if kind == "num":
        if rng.random() < 0.05:
            return float("nan")
        return round(rng.uniform(-100.0, 100.0), 3)
    if kind == "count":
        return rng.randrange(-50, 50)
    if kind == "flag":
        return rng.choice([True, False])
    raise AssertionError(kind)


def _random_rows(rng, picked, start_id, count):
    return [
        tuple([start_id + i] + [_random_value(rng, kind) for _, kind in picked])
        for i in range(count)
    ]


# ---------------------------------------------------------------------------
# Byte-identity helpers
# ---------------------------------------------------------------------------


def _values_identical(left, right) -> bool:
    if type(left) is not type(right):
        return False
    if isinstance(left, float):
        if math.isnan(left) or math.isnan(right):
            return math.isnan(left) and math.isnan(right)
        return left == right
    if isinstance(left, (list, tuple)):
        return len(left) == len(right) and all(
            _values_identical(l, r) for l, r in zip(left, right)
        )
    return left == right


def _assert_rows(got, expected, label):
    assert len(got) == len(expected), f"{label}: {len(got)} rows vs {len(expected)}"
    for row_g, row_e in zip(got, expected):
        assert _values_identical(tuple(row_g), tuple(row_e)), (
            f"{label}: {row_g!r} != {row_e!r}"
        )


# ---------------------------------------------------------------------------
# Random predicates / queries
# ---------------------------------------------------------------------------


def _sql_literal(value):
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    if isinstance(value, float) and math.isnan(value):
        return "'nan'"  # never used as a predicate constant
    return repr(value)


def _random_predicate(rng, picked, max_id):
    name, kind = rng.choice(picked)
    roll = rng.random()
    if roll < 0.12:
        return f"{name} IS {'NOT ' if rng.random() < 0.5 else ''}NULL"
    if kind in ("text_low", "text_high"):
        if roll < 0.35:
            sample = ", ".join(
                _sql_literal(_random_value(rng, kind) or "alpha")
                for _ in range(rng.randrange(1, 4))
            )
            return f"{name} {'NOT ' if rng.random() < 0.4 else ''}IN ({sample})"
        if roll < 0.55 and kind == "text_high":
            return f"{name} LIKE 'v{rng.randrange(10)}%'"
        if roll < 0.55:
            return f"{name} LIKE '{rng.choice(['al%', '%ta', '%mm%', 'beta'])}'"
        op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
        constant = _random_value(rng, kind) or "gamma"
        return f"{name} {op} {_sql_literal(constant)}"
    if kind == "flag":
        return f"{name} = {rng.choice(['TRUE', 'FALSE'])}"
    if roll < 0.3:
        low = rng.randrange(-40, 0)
        return f"{name} BETWEEN {low} AND {low + rng.randrange(10, 60)}"
    op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
    constant = rng.randrange(-30, 30) if kind == "count" else round(rng.uniform(-50, 50), 1)
    return f"{name} {op} {constant}"


def _random_where(rng, picked, max_id):
    terms = [_random_predicate(rng, picked, max_id) for _ in range(rng.randrange(1, 3))]
    joined = f" {rng.choice(['AND', 'OR'])} ".join(terms)
    if rng.random() < 0.15:
        return f"NOT ({joined})"
    return joined


def _random_query(rng, picked, max_id):
    """``(WHERE clause, statement)``; ``SELECT *`` statements order by id."""
    where = _random_where(rng, picked, max_id)
    roll = rng.random()
    if roll < 0.2:
        return where, f"SELECT count(*) FROM t WHERE {where}"
    if roll < 0.35:
        numeric = [n for n, k in picked if k in ("num", "count")]
        if numeric:
            target = rng.choice(numeric)
            return where, f"SELECT count(*), min({target}), max({target}) FROM t WHERE {where}"
    return where, f"SELECT * FROM t WHERE {where} ORDER BY id"


# ---------------------------------------------------------------------------
# The fuzz loop
# ---------------------------------------------------------------------------


def _make_pair(num_segments, distributed_by, columns, rows):
    """The default database and its reference-tier twin."""
    databases = []
    for make in (Database, reference_database):
        db = make(num_segments=num_segments)
        db.create_table("t", columns, distributed_by=distributed_by)
        db.load_rows("t", rows)
        databases.append(db)
    return databases


def _run_both(databases, statement, label):
    """Both results, or ``None`` when both raised (parity includes errors)."""
    results = []
    for db in databases:
        try:
            results.append(db.execute(statement))
        except ReproError as exc:
            results.append(exc)
    kinds = [type(r) for r in results]
    assert kinds[0] is kinds[1], f"{label}: mixed outcomes {kinds}"
    if isinstance(results[0], Exception):
        return None
    return results


def _matching_ids(twin, where):
    """The ids the twin's WHERE selects, or ``None`` when it raises."""
    try:
        result = twin.execute(f"SELECT id FROM t WHERE {where} ORDER BY id")
    except ReproError:
        return None
    return [row[0] for row in result.rows]


def _seq_scanned(result):
    return all(detail.access == "seq" for detail in result.stats.scan_details)


@pytest.mark.parametrize("seed", SEEDS)
def test_storage_fuzz_against_model(seed, monkeypatch):
    rng = random.Random(seed)
    if seed % 4 == 0:
        # Force mid-script demotion: high-cardinality text columns blow the
        # dictionary almost immediately, flipping dict -> object storage.
        monkeypatch.setattr(columnar.DictColumn, "MAX_DISTINCT", 8)

    columns, picked = _random_schema(rng)
    position_of = {name: i for i, (name, _) in enumerate(columns)}
    num_segments = rng.randrange(1, 5)
    distributed_by = "id" if rng.random() < 0.7 else None
    next_id = rng.randrange(40, 120) + 1
    rows = _random_rows(rng, picked, 1, next_id - 1)
    databases = _make_pair(num_segments, distributed_by, columns, rows)
    twin = databases[1]
    model = {row[0]: row for row in rows}

    def check_against_model(label):
        expected = [model[key] for key in sorted(model)]
        for db, tier in zip(databases, ("default", "twin")):
            result = db.execute("SELECT * FROM t ORDER BY id")
            assert result.columns == [name for name, _ in columns], label
            _assert_rows(result.rows, expected, f"{label} ({tier})")

    check_against_model(f"seed={seed} initial load")

    for round_index in range(ROUNDS):
        label = f"seed={seed} round={round_index}"

        # One random mutation per round.
        roll = rng.random()
        if roll < 0.3:
            batch = _random_rows(rng, picked, next_id, rng.randrange(3, 12))
            next_id += len(batch)
            placeholders = ", ".join(
                "(" + ", ".join(_sql_literal(v) for v in row) + ")" for row in batch
            )
            if any(
                isinstance(v, float) and math.isnan(v) for row in batch for v in row
            ):
                for db in databases:
                    db.load_rows("t", batch)
            else:
                statement = f"INSERT INTO t VALUES {placeholders}"
                results = _run_both(databases, statement, f"{label} insert")
                assert results is not None
                assert [r.rowcount for r in results] == [len(batch)] * 2, label
            model.update((row[0], row) for row in batch)
        elif roll < 0.65:
            name, kind = rng.choice(picked)
            new_value = _random_value(rng, kind)
            if isinstance(new_value, float) and math.isnan(new_value):
                new_value = None
            where = _random_where(rng, picked, next_id)
            ids = _matching_ids(twin, where)
            statement = (
                f"UPDATE t SET {name} = {_sql_literal(new_value)} WHERE {where}"
            )
            results = _run_both(databases, statement, f"{label} update")
            if results is not None:
                assert [r.rowcount for r in results] == [len(ids)] * 2, label
                column = position_of[name]
                for key in ids:
                    row = list(model[key])
                    row[column] = new_value
                    model[key] = tuple(row)
        elif roll < 0.85:
            where = _random_where(rng, picked, next_id)
            ids = _matching_ids(twin, where)
            statement = f"DELETE FROM t WHERE {where}"
            results = _run_both(databases, statement, f"{label} delete")
            if results is not None:
                assert [r.rowcount for r in results] == [len(ids)] * 2, label
                for key in ids:
                    del model[key]
        else:
            name, _ = rng.choice(picked)
            method = " USING hash" if rng.random() < 0.5 else ""
            statement = f"CREATE INDEX idx_{round_index} ON t{method} ({name})"
            _run_both(databases, statement, f"{label} create-index")

        check_against_model(f"{label} after mutation")

        # A couple of random queries: parity across the databases, the
        # model's rows and matched count, scan accounting.
        for query_index in range(2):
            where, query = _random_query(rng, picked, next_id)
            query_label = f"{label} q{query_index}: {query}"
            ids = _matching_ids(twin, where)
            results = _run_both(databases, query, query_label)
            if results is None:
                continue
            default, reference = results
            assert default.columns == reference.columns, query_label
            _assert_rows(default.rows, reference.rows, query_label)
            if query.startswith("SELECT * "):
                _assert_rows(default.rows, [model[key] for key in ids], query_label)
            assert default.stats.rows_matched == reference.stats.rows_matched == len(ids), (
                query_label
            )
            if _seq_scanned(default) and _seq_scanned(reference):
                assert default.stats.rows_scanned == reference.stats.rows_scanned, query_label


def test_fuzz_is_reproducible():
    """The generator is pure in the seed: same seed, same script."""
    def script(seed):
        rng = random.Random(seed)
        columns, picked = _random_schema(rng)
        rows = _random_rows(rng, picked, 1, 30)
        queries = [_random_query(rng, picked, 31) for _ in range(10)]
        return columns, rows, queries

    assert script(11) == script(11)
    assert script(11) != script(12)
