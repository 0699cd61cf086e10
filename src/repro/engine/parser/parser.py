"""Recursive-descent parser for the engine's SQL subset.

The grammar covers the SQL surface that MADlib-style macro-programming needs
(Section 3.1 of the paper): SELECT with joins, grouping, ordering and window
clauses; CREATE [TEMP] TABLE ... AS SELECT for inter-iteration state staging;
INSERT / UPDATE / DELETE; DROP / TRUNCATE / ALTER RENAME; array literals and
subscripts; CAST and ``::`` casts; and ``%(name)s`` bind parameters used by
templated queries.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ...errors import SQLSyntaxError
from ..expressions import (
    ArrayLiteral,
    Between,
    BinaryOp,
    CaseExpr,
    Cast,
    ColumnRef,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    Literal,
    Parameter,
    Star,
    Subscript,
    UnaryOp,
    WindowCall,
    WindowSpec,
)
from .ast_nodes import (
    AlterTableRenameStatement,
    AnalyzeStatement,
    ColumnDefinition,
    CreateIndexStatement,
    CreateMaterializedViewStatement,
    CreateTableAsStatement,
    CreateTableStatement,
    DeleteStatement,
    DropIndexStatement,
    DropMaterializedViewStatement,
    DropTableStatement,
    ExplainStatement,
    FunctionSource,
    InsertStatement,
    Join,
    OrderItem,
    RefreshMaterializedViewStatement,
    SelectItem,
    SelectStatement,
    Statement,
    SubquerySource,
    TableRef,
    TruncateStatement,
    UnionStatement,
    UpdateStatement,
)
from .lexer import Token, tokenize

__all__ = ["parse_statement", "parse_script", "parse_expression"]


_TABLE_FUNCTIONS = {"generate_series"}


class _Parser:
    #: Deepest nesting a statement may have: nested expressions (parentheses,
    #: function arguments, CASE, ...), prefix NOT / sign chains and FROM
    #: subqueries each count one level.  A level costs up to ~13 interpreter
    #: frames of recursive descent, so this keeps the parser well below the
    #: default recursion limit of 1,000 — deeper input is a syntax error, not
    #: a ``RecursionError``.
    MAX_DEPTH = 50

    def __init__(self, tokens: List[Token], sql: Optional[str] = None) -> None:
        self.tokens = tokens
        self.position = 0
        self.depth = 0
        # Original statement text, when available: lets CREATE MATERIALIZED
        # VIEW capture its defining-query text for catalog observability.
        self._sql = sql

    def _nested(self, parse):
        """``parse()`` one nesting level deeper, refusing past ``MAX_DEPTH``."""
        if self.depth >= self.MAX_DEPTH:
            raise SQLSyntaxError(
                f"statement nested more than {self.MAX_DEPTH} levels deep",
                self.current.position,
            )
        self.depth += 1
        result = parse()
        self.depth -= 1
        return result

    # -- token helpers -------------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.position]

    def advance(self) -> Token:
        token = self.current
        self.position += 1
        return token

    def check(self, kind: str, value: Optional[str] = None) -> bool:
        return self.current.matches(kind, value)

    def check_keyword(self, *words: str) -> bool:
        return self.current.kind == "keyword" and self.current.value.lower() in words

    def accept(self, kind: str, value: Optional[str] = None) -> Optional[Token]:
        if self.check(kind, value):
            return self.advance()
        return None

    def accept_keyword(self, *words: str) -> Optional[Token]:
        if self.check_keyword(*words):
            return self.advance()
        return None

    def expect(self, kind: str, value: Optional[str] = None) -> Token:
        if not self.check(kind, value):
            expected = value or kind
            raise SQLSyntaxError(
                f"expected {expected!r} but found {self.current.value!r}",
                self.current.position,
            )
        return self.advance()

    def expect_keyword(self, word: str) -> Token:
        if not self.check_keyword(word):
            raise SQLSyntaxError(
                f"expected keyword {word!r} but found {self.current.value!r}",
                self.current.position,
            )
        return self.advance()

    def expect_name(self) -> str:
        # Allow non-reserved keywords to be used as identifiers where a name
        # is required (e.g. a column called "values" would be unusual, but
        # "state", "left", "right" are common in MADlib scripts).
        if self.current.kind in ("name", "keyword"):
            return self.advance().value
        raise SQLSyntaxError(
            f"expected identifier but found {self.current.value!r}", self.current.position
        )

    # -- entry points ----------------------------------------------------------

    def parse_script(self) -> List[Statement]:
        statements: List[Statement] = []
        while not self.check("eof"):
            if self.accept("operator", ";"):
                continue
            statements.append(self.parse_statement())
            if not self.check("eof"):
                self.expect("operator", ";")
        return statements

    def parse_statement(self) -> Statement:
        if self.check_keyword("select"):
            return self.parse_select_union()
        if self.check_keyword("create"):
            return self.parse_create()
        if self.check_keyword("insert"):
            return self.parse_insert()
        if self.check_keyword("update"):
            return self.parse_update()
        if self.check_keyword("delete"):
            return self.parse_delete()
        if self.check_keyword("drop"):
            return self.parse_drop()
        if self.check_keyword("truncate"):
            return self.parse_truncate()
        if self.check_keyword("alter"):
            return self.parse_alter()
        if self.check_keyword("explain"):
            return self.parse_explain()
        if self.check_keyword("analyze"):
            return self.parse_analyze()
        # "refresh" is not a reserved keyword (tables may use the name), so it
        # only acts as a statement head in the exact REFRESH MATERIALIZED VIEW
        # position, where no other statement can start.
        if self.check("name", "refresh"):
            return self.parse_refresh_matview()
        raise SQLSyntaxError(
            f"unsupported statement starting with {self.current.value!r}",
            self.current.position,
        )

    # -- SELECT ------------------------------------------------------------------

    def parse_select_union(self) -> Statement:
        first = self.parse_select()
        selects = [first]
        union_all = False
        while self.accept_keyword("union"):
            union_all = bool(self.accept_keyword("all")) or union_all
            selects.append(self.parse_select())
        if len(selects) == 1:
            return first
        return UnionStatement(selects, all=union_all)

    def parse_select(self) -> SelectStatement:
        self.expect_keyword("select")
        distinct = bool(self.accept_keyword("distinct"))
        select_items = [self.parse_select_item()]
        while self.accept("operator", ","):
            select_items.append(self.parse_select_item())

        from_items: List[object] = []
        if self.accept_keyword("from"):
            from_items.append(self.parse_from_item())
            while True:
                if self.accept("operator", ","):
                    from_items.append(self.parse_from_item())
                    continue
                join = self.try_parse_join(from_items)
                if join:
                    continue
                break

        where = self.parse_expression() if self.accept_keyword("where") else None

        group_by: List[Expression] = []
        if self.accept_keyword("group"):
            self.expect_keyword("by")
            group_by.append(self.parse_expression())
            while self.accept("operator", ","):
                group_by.append(self.parse_expression())

        having = self.parse_expression() if self.accept_keyword("having") else None

        order_by: List[OrderItem] = []
        if self.accept_keyword("order"):
            self.expect_keyword("by")
            order_by.append(self.parse_order_item())
            while self.accept("operator", ","):
                order_by.append(self.parse_order_item())

        limit = None
        offset = None
        if self.accept_keyword("limit"):
            limit = int(self.expect("number").value)
        if self.accept_keyword("offset"):
            offset = int(self.expect("number").value)

        return SelectStatement(
            select_items=select_items,
            from_items=from_items,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            offset=offset,
            distinct=distinct,
        )

    def parse_select_item(self) -> SelectItem:
        expression = self.parse_expression()
        alias = None
        if self.accept_keyword("as"):
            alias = self.expect_name()
        elif self.current.kind == "name":
            alias = self.advance().value
        return SelectItem(expression, alias)

    def parse_order_item(self) -> OrderItem:
        expression = self.parse_expression()
        ascending = True
        if self.accept_keyword("asc"):
            ascending = True
        elif self.accept_keyword("desc"):
            ascending = False
        nulls_last = True
        if self.accept_keyword("nulls"):
            if self.accept_keyword("first"):
                nulls_last = False
            else:
                self.expect_keyword("last")
        return OrderItem(expression, ascending, nulls_last)

    def parse_from_item(self):
        if self.accept("operator", "("):
            # Either a subquery or a parenthesized join; only subqueries supported.
            select = self._nested(self.parse_select_union)
            self.expect("operator", ")")
            self.accept_keyword("as")
            alias = self.expect_name()
            return SubquerySource(select, alias)  # type: ignore[arg-type]
        name = self.expect_name()
        if name.lower() in _TABLE_FUNCTIONS and self.check("operator", "("):
            self.expect("operator", "(")
            args: List[Expression] = []
            if not self.check("operator", ")"):
                args.append(self.parse_expression())
                while self.accept("operator", ","):
                    args.append(self.parse_expression())
            self.expect("operator", ")")
            alias = name
            column_names: List[str] = []
            if self.accept_keyword("as") or self.current.kind == "name":
                alias = self.expect_name()
                if self.accept("operator", "("):
                    column_names.append(self.expect_name())
                    while self.accept("operator", ","):
                        column_names.append(self.expect_name())
                    self.expect("operator", ")")
            return FunctionSource(name, args, alias, column_names)
        alias = None
        if self.accept_keyword("as"):
            alias = self.expect_name()
        elif self.current.kind == "name":
            alias = self.advance().value
        return TableRef(name, alias)

    def try_parse_join(self, from_items: List[object]) -> bool:
        kind = None
        if self.accept_keyword("cross"):
            kind = "cross"
            self.expect_keyword("join")
        elif self.accept_keyword("inner"):
            kind = "inner"
            self.expect_keyword("join")
        elif self.accept_keyword("left"):
            kind = "left"
            self.accept_keyword("outer")
            self.expect_keyword("join")
        elif self.accept_keyword("join"):
            kind = "inner"
        if kind is None:
            return False
        right = self.parse_from_item()
        condition = None
        if kind != "cross":
            self.expect_keyword("on")
            condition = self.parse_expression()
        left = from_items.pop()
        from_items.append(Join(left, right, kind, condition))
        return True

    # -- DDL / DML ------------------------------------------------------------------

    def parse_create(self) -> Statement:
        self.expect_keyword("create")
        if self.check_keyword("index"):
            return self.parse_create_index()
        if self.check("name", "materialized"):
            return self.parse_create_matview()
        temporary = bool(self.accept_keyword("temp", "temporary"))
        self.expect_keyword("table")
        if_not_exists = False
        if self.accept_keyword("if"):
            self.expect_keyword("not")
            self.expect_keyword("exists")
            if_not_exists = True
        name = self.expect_name()
        while self.accept("operator", "."):
            # Schema-qualified names are flattened ("madlib.linregr_model").
            name = name + "_" + self.expect_name()
        if self.check_keyword("as"):
            self.expect_keyword("as")
            select = self.parse_select_union()
            distributed_by = self._parse_distribution()[0]
            return CreateTableAsStatement(
                name, select, temporary=temporary, distributed_by=distributed_by
            )
        self.expect("operator", "(")
        columns = [self.parse_column_definition()]
        while self.accept("operator", ","):
            columns.append(self.parse_column_definition())
        self.expect("operator", ")")
        distributed_by, distributed_randomly = self._parse_distribution()
        return CreateTableStatement(
            name,
            columns,
            temporary=temporary,
            if_not_exists=if_not_exists,
            distributed_by=distributed_by,
            distributed_randomly=distributed_randomly,
        )

    def parse_create_matview(self) -> CreateMaterializedViewStatement:
        self.expect("name", "materialized")
        self.expect("name", "view")
        if_not_exists = False
        if self.accept_keyword("if"):
            self.expect_keyword("not")
            self.expect_keyword("exists")
            if_not_exists = True
        name = self.expect_name()
        self.expect_keyword("as")
        start = self.current.position
        select = self.parse_select_union()
        sql = None
        if self._sql is not None:
            # Slice the defining-query text out of the original statement (the
            # eof token's position is len(sql), so this also works unterminated).
            sql = self._sql[start : self.current.position].strip().rstrip(";").strip()
        return CreateMaterializedViewStatement(
            name, select, sql=sql, if_not_exists=if_not_exists
        )

    def parse_refresh_matview(self) -> RefreshMaterializedViewStatement:
        self.expect("name", "refresh")
        self.expect("name", "materialized")
        self.expect("name", "view")
        return RefreshMaterializedViewStatement(self.expect_name())

    def _parse_distribution(self) -> Tuple[Optional[str], bool]:
        if not self.accept_keyword("distributed"):
            return None, False
        if self.accept_keyword("randomly"):
            return None, True
        self.expect_keyword("by")
        self.expect("operator", "(")
        column = self.expect_name()
        self.expect("operator", ")")
        return column, False

    def parse_column_definition(self) -> ColumnDefinition:
        name = self.expect_name()
        type_parts = [self.expect_name()]
        # Multi-word types: "double precision", "character varying".
        while self.current.kind in ("name", "keyword") and self.current.value.lower() in (
            "precision",
            "varying",
        ):
            type_parts.append(self.advance().value)
        type_name = " ".join(type_parts)
        if self.accept("operator", "["):
            self.expect("operator", "]")
            type_name += "[]"
        # Ignore column constraints we do not enforce (NOT NULL, PRIMARY KEY...).
        while self.current.kind in ("name", "keyword") and not self.check("operator", ",") and \
                not self.check("operator", ")"):
            if self.current.value.lower() in ("not", "null", "primary", "key", "unique", "default"):
                self.advance()
                if self.tokens[self.position - 1].value.lower() == "default":
                    self.parse_expression()
            else:
                break
        return ColumnDefinition(name, type_name)

    def parse_create_index(self) -> CreateIndexStatement:
        self.expect_keyword("index")
        if_not_exists = False
        if self.accept_keyword("if"):
            self.expect_keyword("not")
            self.expect_keyword("exists")
            if_not_exists = True
        name = self.expect_name()
        self.expect_keyword("on")
        table = self.expect_name()
        method = "sorted"
        if self.accept_keyword("using"):
            word = self.expect_name().lower()
            if word == "hash":
                method = "hash"
            elif word in ("btree", "sorted"):
                method = "sorted"
            else:
                raise SQLSyntaxError(
                    f"unknown index method {word!r} (expected hash or btree)",
                    self.tokens[self.position - 1].position,
                )
        self.expect("operator", "(")
        column = self.expect_name()
        self.expect("operator", ")")
        return CreateIndexStatement(
            name, table, column, method=method, if_not_exists=if_not_exists
        )

    def parse_explain(self) -> ExplainStatement:
        self.expect_keyword("explain")
        analyze = bool(self.accept_keyword("analyze"))
        if self.check_keyword("explain"):
            raise SQLSyntaxError("EXPLAIN cannot be nested", self.current.position)
        return ExplainStatement(self.parse_statement(), analyze=analyze)

    def parse_analyze(self) -> AnalyzeStatement:
        self.expect_keyword("analyze")
        if self.check("eof") or self.check("operator", ";"):
            return AnalyzeStatement(None)
        return AnalyzeStatement(self.expect_name())

    def parse_insert(self) -> InsertStatement:
        self.expect_keyword("insert")
        self.expect_keyword("into")
        table = self.expect_name()
        columns: List[str] = []
        if self.accept("operator", "("):
            columns.append(self.expect_name())
            while self.accept("operator", ","):
                columns.append(self.expect_name())
            self.expect("operator", ")")
        if self.accept_keyword("values"):
            rows = [self.parse_value_row()]
            while self.accept("operator", ","):
                rows.append(self.parse_value_row())
            return InsertStatement(table, columns, values_rows=rows)
        select = self.parse_select_union()
        return InsertStatement(table, columns, select=select)

    def parse_value_row(self) -> List[Expression]:
        self.expect("operator", "(")
        row = [self.parse_expression()]
        while self.accept("operator", ","):
            row.append(self.parse_expression())
        self.expect("operator", ")")
        return row

    def parse_update(self) -> UpdateStatement:
        self.expect_keyword("update")
        table = self.expect_name()
        self.expect_keyword("set")
        assignments: List[Tuple[str, Expression]] = []
        while True:
            column = self.expect_name()
            self.expect("operator", "=")
            assignments.append((column, self.parse_expression()))
            if not self.accept("operator", ","):
                break
        where = self.parse_expression() if self.accept_keyword("where") else None
        return UpdateStatement(table, assignments, where)

    def parse_delete(self) -> DeleteStatement:
        self.expect_keyword("delete")
        self.expect_keyword("from")
        table = self.expect_name()
        where = self.parse_expression() if self.accept_keyword("where") else None
        return DeleteStatement(table, where)

    def parse_drop(self) -> Statement:
        self.expect_keyword("drop")
        dropping_matview = False
        if self.check("name", "materialized"):
            self.advance()
            self.expect("name", "view")
            dropping_matview = True
        dropping_index = False if dropping_matview else bool(self.accept_keyword("index"))
        if not dropping_index and not dropping_matview:
            self.expect_keyword("table")
        if_exists = False
        if self.accept_keyword("if"):
            self.expect_keyword("exists")
            if_exists = True
        names = [self.expect_name()]
        while self.accept("operator", ","):
            names.append(self.expect_name())
        if dropping_matview:
            return DropMaterializedViewStatement(names, if_exists)
        if dropping_index:
            return DropIndexStatement(names, if_exists)
        return DropTableStatement(names, if_exists)

    def parse_truncate(self) -> TruncateStatement:
        self.expect_keyword("truncate")
        self.accept_keyword("table")
        return TruncateStatement(self.expect_name())

    def parse_alter(self) -> AlterTableRenameStatement:
        self.expect_keyword("alter")
        self.expect_keyword("table")
        old = self.expect_name()
        self.expect_keyword("rename")
        self.expect_keyword("to")
        new = self.expect_name()
        return AlterTableRenameStatement(old, new)

    # -- expressions -------------------------------------------------------------------

    def parse_expression(self) -> Expression:
        return self._nested(self.parse_or)

    def parse_or(self) -> Expression:
        left = self.parse_and()
        while self.accept_keyword("or"):
            left = BinaryOp("or", left, self.parse_and())
        return left

    def parse_and(self) -> Expression:
        left = self.parse_not()
        while self.accept_keyword("and"):
            left = BinaryOp("and", left, self.parse_not())
        return left

    def parse_not(self) -> Expression:
        if self.accept_keyword("not"):
            return UnaryOp("not", self._nested(self.parse_not))
        return self.parse_comparison()

    def parse_comparison(self) -> Expression:
        left = self.parse_additive()
        while True:
            if self.current.kind == "operator" and self.current.value in (
                "=", "!=", "<>", "<", "<=", ">", ">=",
            ):
                op = self.advance().value
                left = BinaryOp(op, left, self.parse_additive())
                continue
            if self.check_keyword("is"):
                self.advance()
                negated = bool(self.accept_keyword("not"))
                self.expect_keyword("null")
                left = IsNull(left, negated)
                continue
            if self.check_keyword("like"):
                self.advance()
                left = BinaryOp("like", left, self.parse_additive())
                continue
            if self.check_keyword("between"):
                self.advance()
                low = self.parse_additive()
                self.expect_keyword("and")
                high = self.parse_additive()
                left = Between(left, low, high)
                continue
            if self.check_keyword("not") and self.tokens[self.position + 1].matches("keyword", "in"):
                self.advance()
                self.advance()
                left = self._parse_in(left, negated=True)
                continue
            if self.check_keyword("not") and self.tokens[self.position + 1].matches("keyword", "between"):
                self.advance()
                self.advance()
                low = self.parse_additive()
                self.expect_keyword("and")
                high = self.parse_additive()
                left = Between(left, low, high, negated=True)
                continue
            if self.check_keyword("in"):
                self.advance()
                left = self._parse_in(left, negated=False)
                continue
            break
        return left

    def _parse_in(self, operand: Expression, negated: bool) -> Expression:
        self.expect("operator", "(")
        items = [self.parse_expression()]
        while self.accept("operator", ","):
            items.append(self.parse_expression())
        self.expect("operator", ")")
        return InList(operand, items, negated)

    def parse_additive(self) -> Expression:
        left = self.parse_multiplicative()
        while self.current.kind == "operator" and self.current.value in ("+", "-", "||"):
            op = self.advance().value
            left = BinaryOp(op, left, self.parse_multiplicative())
        return left

    def parse_multiplicative(self) -> Expression:
        left = self.parse_unary()
        while self.current.kind == "operator" and self.current.value in ("*", "/", "%", "^"):
            op = self.advance().value
            left = BinaryOp(op, left, self.parse_unary())
        return left

    def parse_unary(self) -> Expression:
        if self.current.kind == "operator" and self.current.value in ("-", "+"):
            op = self.advance().value
            return UnaryOp(op, self._nested(self.parse_unary))
        return self.parse_postfix()

    def parse_postfix(self) -> Expression:
        expression = self.parse_primary()
        while True:
            if self.check("operator", "["):
                self.advance()
                index = self.parse_expression()
                self.expect("operator", "]")
                expression = Subscript(expression, index)
                continue
            if self.check("operator", "::"):
                self.advance()
                type_parts = [self.expect_name()]
                while self.current.kind in ("name", "keyword") and self.current.value.lower() in (
                    "precision", "varying",
                ):
                    type_parts.append(self.advance().value)
                type_name = " ".join(type_parts)
                if self.accept("operator", "["):
                    self.expect("operator", "]")
                    type_name += "[]"
                expression = Cast(expression, type_name)
                continue
            if self.check("operator", "."):
                # Composite-field access like (linregr(...)).coef is treated as
                # a column qualifier when the base is a ColumnRef and otherwise
                # an error; we only need the ColumnRef case.
                if isinstance(expression, ColumnRef) and expression.qualifier is None:
                    self.advance()
                    if self.accept("operator", "*"):
                        expression = Star(expression.name)
                    else:
                        field_name = self.expect_name()
                        expression = ColumnRef(field_name, expression.name)
                    continue
            break
        return expression

    def parse_primary(self) -> Expression:
        token = self.current
        if token.kind == "number":
            self.advance()
            text = token.value
            if any(c in text for c in ".eE"):
                return Literal(float(text))
            return Literal(int(text))
        if token.kind == "string":
            self.advance()
            return Literal(token.value)
        if token.kind == "parameter":
            self.advance()
            return Parameter(token.value)
        if token.kind == "keyword":
            word = token.value.lower()
            if word == "null":
                self.advance()
                return Literal(None)
            if word == "true":
                self.advance()
                return Literal(True)
            if word == "false":
                self.advance()
                return Literal(False)
            if word == "case":
                return self.parse_case()
            if word == "cast":
                return self.parse_cast()
            if word == "array":
                return self.parse_array()
            if word == "distinct":
                raise SQLSyntaxError("misplaced DISTINCT", token.position)
            # Non-reserved keyword used as identifier/function name.
            return self.parse_name_expression()
        if token.kind == "name":
            return self.parse_name_expression()
        if token.kind == "operator" and token.value == "(":
            self.advance()
            expression = self.parse_expression()
            self.expect("operator", ")")
            return expression
        if token.kind == "operator" and token.value == "*":
            self.advance()
            return Star()
        raise SQLSyntaxError(f"unexpected token {token.value!r}", token.position)

    def parse_name_expression(self) -> Expression:
        name = self.advance().value
        if self.check("operator", "("):
            return self.parse_function_call(name)
        if self.check("operator", ".") and self.tokens[self.position + 1].matches("operator", "*"):
            self.advance()
            self.advance()
            return Star(name)
        return ColumnRef(name)

    def parse_function_call(self, name: str) -> Expression:
        self.expect("operator", "(")
        distinct = bool(self.accept_keyword("distinct"))
        args: List[Expression] = []
        star = False
        if self.check("operator", "*"):
            self.advance()
            star = True
        elif not self.check("operator", ")"):
            args.append(self.parse_expression())
            while self.accept("operator", ","):
                args.append(self.parse_expression())
        self.expect("operator", ")")
        call = FunctionCall(name, args, distinct=distinct, star=star)
        if self.check_keyword("over"):
            self.advance()
            spec = self.parse_window_spec()
            return WindowCall(call, spec)
        return call

    def parse_window_spec(self) -> WindowSpec:
        self.expect("operator", "(")
        partition_by: List[Expression] = []
        order_by: List[Tuple[Expression, bool]] = []
        if self.accept_keyword("partition"):
            self.expect_keyword("by")
            partition_by.append(self.parse_expression())
            while self.accept("operator", ","):
                partition_by.append(self.parse_expression())
        if self.accept_keyword("order"):
            self.expect_keyword("by")
            while True:
                expression = self.parse_expression()
                ascending = True
                if self.accept_keyword("desc"):
                    ascending = False
                else:
                    self.accept_keyword("asc")
                order_by.append((expression, ascending))
                if not self.accept("operator", ","):
                    break
        self.expect("operator", ")")
        return WindowSpec(partition_by, order_by)

    def parse_case(self) -> Expression:
        self.expect_keyword("case")
        whens: List[Tuple[Expression, Expression]] = []
        operand: Optional[Expression] = None
        if not self.check_keyword("when"):
            operand = self.parse_expression()
        while self.accept_keyword("when"):
            condition = self.parse_expression()
            if operand is not None:
                condition = BinaryOp("=", operand, condition)
            self.expect_keyword("then")
            result = self.parse_expression()
            whens.append((condition, result))
        else_result = None
        if self.accept_keyword("else"):
            else_result = self.parse_expression()
        self.expect_keyword("end")
        return CaseExpr(whens, else_result)

    def parse_cast(self) -> Expression:
        self.expect_keyword("cast")
        self.expect("operator", "(")
        operand = self.parse_expression()
        self.expect_keyword("as")
        type_parts = [self.expect_name()]
        while self.current.kind in ("name", "keyword") and self.current.value.lower() in (
            "precision", "varying",
        ):
            type_parts.append(self.advance().value)
        type_name = " ".join(type_parts)
        if self.accept("operator", "["):
            self.expect("operator", "]")
            type_name += "[]"
        self.expect("operator", ")")
        return Cast(operand, type_name)

    def parse_array(self) -> Expression:
        self.expect_keyword("array")
        self.expect("operator", "[")
        items: List[Expression] = []
        if not self.check("operator", "]"):
            items.append(self.parse_expression())
            while self.accept("operator", ","):
                items.append(self.parse_expression())
        self.expect("operator", "]")
        return ArrayLiteral(items)


def parse_statement(sql: str) -> Statement:
    """Parse a single SQL statement (a trailing semicolon is allowed)."""
    parser = _Parser(tokenize(sql), sql)
    statement = parser.parse_statement()
    parser.accept("operator", ";")
    if not parser.check("eof"):
        raise SQLSyntaxError(
            f"unexpected trailing input near {parser.current.value!r}",
            parser.current.position,
        )
    return statement


def parse_script(sql: str) -> List[Statement]:
    """Parse a semicolon-separated sequence of statements."""
    return _Parser(tokenize(sql), sql).parse_script()


def parse_expression(sql: str) -> Expression:
    """Parse a standalone scalar expression (used by tests and templating validation)."""
    parser = _Parser(tokenize(sql))
    expression = parser.parse_expression()
    if not parser.check("eof"):
        raise SQLSyntaxError(
            f"unexpected trailing input near {parser.current.value!r}",
            parser.current.position,
        )
    return expression
