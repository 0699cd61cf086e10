"""The system catalog: tables, scalar functions and aggregates.

The paper's templated-query pattern (Section 3.1.3) has Python driver UDFs
"interrogate the database catalog for details of input tables, and then
synthesize customized SQL queries based on templates".  This module is that
catalog.  It also doubles as the extension-function registry: MADlib installs
its methods as user-defined scalar functions and user-defined aggregates, so
``register_function`` / ``register_aggregate`` are the analog of running the
library's installation SQL scripts.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any, Dict, List, Optional

from ..errors import CatalogError
from .aggregates import AggregateDefinition
from .functions import FunctionDefinition
from .index import BaseIndex, make_index
from .schema import Schema
from .table import Table

__all__ = ["Catalog"]


def _same(a: Any, b: Any) -> bool:
    """Interchangeable definition fields: one object, equal plain values, or
    bound methods of one function on kernel objects of one class with equal
    parameters (two bound methods are otherwise equal only on one object)."""
    try:
        if hasattr(a, "__func__") and hasattr(b, "__func__"):
            a, b = ((m.__func__, type(m.__self__), vars(m.__self__)) for m in (a, b))
        return a is b or (type(a) is type(b) and bool(a == b))
    except (TypeError, ValueError):  # a kernel without __dict__, an ndarray-valued field
        return False


def _identical(new: Any, registered: Any) -> bool:
    """Re-registering ``new`` over ``registered`` would change nothing."""
    return type(new) is type(registered) and all(
        _same(getattr(new, field.name), getattr(registered, field.name)) for field in fields(new)
    )


class Catalog:
    """Namespace of tables, secondary indexes, statistics, UDFs and UDAs."""

    def __init__(self) -> None:
        self._tables: Dict[str, Table] = {}
        self._functions: Dict[str, FunctionDefinition] = {}
        self._aggregates: Dict[str, AggregateDefinition] = {}
        self._indexes: Dict[str, BaseIndex] = {}
        #: Per-table ANALYZE snapshots (:class:`repro.engine.planner.TableStatistics`),
        #: keyed by lowercased table name.
        self._statistics: Dict[str, object] = {}
        #: Materialized views (:class:`repro.engine.matview.MaterializedView`),
        #: keyed by lowercased view name.
        self._matviews: Dict[str, object] = {}
        # Monotonic catalog mutation counter: bumped by every DDL-shaped
        # change (tables, indexes, UDFs, UDAs, ANALYZE snapshots).  The plan
        # cache (:mod:`repro.engine.plancache`) snapshots it per entry so any
        # catalog change invalidates cached plans, and the executor keys its
        # function/aggregate registry caches on it.
        self._version = 0

    @property
    def version(self) -> int:
        """The catalog's monotonic DDL mutation counter."""
        return self._version

    def _bump(self) -> None:
        self._version += 1

    # -- tables --------------------------------------------------------------

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def create_table(self, table: Table, *, replace: bool = False) -> Table:
        key = table.name.lower()
        if key in self._tables and not replace:
            raise CatalogError(f"table {table.name!r} already exists")
        if key in self._matviews:
            raise CatalogError(
                f"a materialized view named {table.name!r} already exists"
            )
        self._tables[key] = table
        self._bump()
        return table

    def get_table(self, name: str) -> Table:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError(f"table {name!r} does not exist") from None

    def drop_table(self, name: str, *, if_exists: bool = False) -> None:
        key = name.lower()
        if key not in self._tables:
            if if_exists:
                return
            raise CatalogError(f"table {name!r} does not exist")
        # DROP TABLE cascades to the table's secondary indexes and its
        # ANALYZE statistics, like dependent objects in PostgreSQL.
        for index_name in [
            index_key
            for index_key, index in self._indexes.items()
            if index.table_name.lower() == key
        ]:
            del self._indexes[index_name]
        self._statistics.pop(key, None)
        del self._tables[key]
        # ... and to materialized views defined over the table (recursively,
        # so views over views fall too).
        for view_name in [
            view.name for view in self._matviews.values() if key in view.dependencies
        ]:
            self.drop_matview(view_name, if_exists=True)
        self._bump()

    def rename_table(self, old: str, new: str) -> None:
        table = self.get_table(old)
        if self.has_table(new):
            raise CatalogError(f"table {new!r} already exists")
        dependents = [
            view.name for view in self._matviews.values() if old.lower() in view.dependencies
        ]
        if dependents:
            raise CatalogError(
                f"cannot rename table {old!r}: materialized view(s) "
                f"{', '.join(sorted(dependents))} depend on it"
            )
        del self._tables[old.lower()]
        table.name = new
        self._tables[new.lower()] = table
        # Indexes follow the rename and are rebuilt (the (segment, position)
        # entries stay valid across a pure rename, but RENAME is rare enough
        # that the rebuild's self-check costs nothing in practice);
        # statistics snapshots are re-keyed.
        for index in self._indexes.values():
            if index.table_name.lower() == old.lower():
                index.table_name = new
                index.rebuild(table._segments)
        statistics = self._statistics.pop(old.lower(), None)
        if statistics is not None:
            statistics.table_name = new
            self._statistics[new.lower()] = statistics
        self._bump()

    def table_names(self, *, include_temporary: bool = True) -> List[str]:
        return sorted(
            table.name
            for table in self._tables.values()
            if include_temporary or not table.temporary
        )

    def table_schema(self, name: str) -> Schema:
        """Schema lookup used by templated-query generation."""
        return self.get_table(name).schema

    def drop_temporary_tables(self) -> int:
        """Drop all temp tables (end-of-session cleanup); returns count dropped."""
        temp_names = [name for name, table in self._tables.items() if table.temporary]
        for name in temp_names:
            self.drop_table(name)
        return len(temp_names)

    # -- materialized views --------------------------------------------------

    def has_matview(self, name: str) -> bool:
        return name.lower() in self._matviews

    def get_matview(self, name: str):
        try:
            return self._matviews[name.lower()]
        except KeyError:
            raise CatalogError(f"materialized view {name!r} does not exist") from None

    def create_matview(self, view) -> None:
        key = view.name.lower()
        if key in self._matviews:
            raise CatalogError(f"materialized view {view.name!r} already exists")
        if key in self._tables:
            raise CatalogError(f"a table named {view.name!r} already exists")
        self._matviews[key] = view
        self._bump()

    def drop_matview(self, name: str, *, if_exists: bool = False) -> None:
        key = name.lower()
        if key not in self._matviews:
            if if_exists:
                return
            raise CatalogError(f"materialized view {name!r} does not exist")
        del self._matviews[key]
        # Cascade to views defined over this view.
        for view_name in [
            view.name for view in self._matviews.values() if key in view.dependencies
        ]:
            self.drop_matview(view_name, if_exists=True)
        self._bump()

    def matview_names(self) -> List[str]:
        return sorted(view.name for view in self._matviews.values())

    def matviews(self) -> List[Dict[str, object]]:
        """Observability listing: one JSON-safe record per view."""
        return [
            self._matviews[key].describe(self)
            for key in sorted(self._matviews, key=lambda k: self._matviews[k].name)
        ]

    def incremental_matviews_on(self, table_name: str) -> List[object]:
        """Incrementally maintained views whose base table is ``table_name``."""
        key = table_name.lower()
        return [
            view
            for view in self._matviews.values()
            if view.strategy == "incremental" and view.base_table == key
        ]

    # -- secondary indexes ---------------------------------------------------

    def create_index(
        self,
        name: str,
        table_name: str,
        column: str,
        *,
        kind: str = "sorted",
        if_not_exists: bool = False,
    ) -> Optional[BaseIndex]:
        """Create and build a secondary index; registers it with its table.

        Returns the index, or None when ``if_not_exists`` suppressed a
        duplicate.  The index is built from the table's current rows and is
        maintained incrementally by the table's DML hooks from then on.
        """
        key = name.lower()
        if key in self._indexes:
            if if_not_exists:
                return None
            raise CatalogError(f"index {name!r} already exists")
        table = self.get_table(table_name)
        column_index = table.schema.index_of(column)  # validates the column
        index = make_index(name, table.name, table.schema[column_index].name, column_index, kind)
        table.attach_index(index)
        self._indexes[key] = index
        self._bump()
        return index

    def drop_index(self, name: str, *, if_exists: bool = False) -> None:
        key = name.lower()
        index = self._indexes.get(key)
        if index is None:
            if if_exists:
                return
            raise CatalogError(f"index {name!r} does not exist")
        table = self._tables.get(index.table_name.lower())
        if table is not None:
            table.detach_index(index.name)
        del self._indexes[key]
        self._bump()

    def get_index(self, name: str) -> BaseIndex:
        try:
            return self._indexes[name.lower()]
        except KeyError:
            raise CatalogError(f"index {name!r} does not exist") from None

    def indexes(self, table: Optional[str] = None) -> List[Dict[str, object]]:
        """``pg_indexes``-style listing, optionally filtered to one table.

        The introspection surface driver UDFs interrogate (Section 3.1.3):
        one dict per index with its table, column, kind and entry count.
        """
        rows = [
            index.describe()
            for index in self._indexes.values()
            if table is None or index.table_name.lower() == table.lower()
        ]
        return sorted(rows, key=lambda row: (row["tablename"], row["indexname"]))

    # -- planner statistics --------------------------------------------------

    def set_statistics(self, statistics) -> None:
        """Store one table's ANALYZE snapshot (replacing any previous one)."""
        self._statistics[statistics.table_name.lower()] = statistics
        self._bump()

    def get_statistics(self, table_name: str):
        """The table's ANALYZE snapshot, or None when never analyzed."""
        return self._statistics.get(table_name.lower())

    def statistics(self, table: Optional[str] = None) -> List[Dict[str, object]]:
        """``pg_stats``-style listing: one dict per analyzed column.

        Each row carries the collected statistics plus a ``stale`` flag (the
        table has seen DML since its ANALYZE).
        """
        rows: List[Dict[str, object]] = []
        for key, statistics in self._statistics.items():
            if table is not None and key != table.lower():
                continue
            stored = self._tables.get(key)
            stale = stored is None or statistics.is_stale(stored)
            for row in statistics.column_rows():
                row["stale"] = stale
                rows.append(row)
        return sorted(rows, key=lambda row: (row["tablename"], row["columnname"]))

    # -- scalar functions ----------------------------------------------------

    def register_function(self, definition: FunctionDefinition, *, replace: bool = True) -> None:
        key = definition.name.lower()
        if key in self._functions and not replace:
            raise CatalogError(f"function {definition.name!r} already exists")
        if _identical(definition, self._functions.get(key)):
            return  # a method's install step on every call: nothing to invalidate
        self._functions[key] = definition
        self._bump()

    def has_function(self, name: str) -> bool:
        return name.lower() in self._functions

    def get_function(self, name: str) -> FunctionDefinition:
        try:
            return self._functions[name.lower()]
        except KeyError:
            raise CatalogError(f"function {name!r} does not exist") from None

    def function_names(self) -> List[str]:
        return sorted(definition.name for definition in self._functions.values())

    # -- aggregates ----------------------------------------------------------

    def register_aggregate(self, definition: AggregateDefinition, *, replace: bool = True) -> None:
        key = definition.name.lower()
        if key in self._aggregates and not replace:
            raise CatalogError(f"aggregate {definition.name!r} already exists")
        if _identical(definition, self._aggregates.get(key)):
            return
        self._aggregates[key] = definition
        self._bump()

    def has_aggregate(self, name: str) -> bool:
        return name.lower() in self._aggregates

    def get_aggregate(self, name: str) -> AggregateDefinition:
        try:
            return self._aggregates[name.lower()]
        except KeyError:
            raise CatalogError(f"aggregate {name!r} does not exist") from None

    def aggregate_names(self) -> List[str]:
        return sorted(definition.name for definition in self._aggregates.values())
