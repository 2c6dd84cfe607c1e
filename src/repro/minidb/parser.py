"""Recursive-descent SQL parser for MiniDB.

One statement per :func:`parse_statement` call; :func:`parse_script` splits
on semicolons.  Expressions are parsed with precedence climbing into
:mod:`repro.sqlast` nodes (the same classes the PQS generator emits, which
gives the round-trip property ``parse(render(e)) == e`` up to column-binding
annotations — exercised heavily in the test suite).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ParseError
from repro.minidb import statements as st
from repro.minidb.tokens import Token, TokenType, tokenize
from repro.sqlast.nodes import (
    BetweenNode,
    BinaryNode,
    BinaryOp,
    CaseNode,
    CastNode,
    CollateNode,
    ColumnNode,
    Expr,
    FunctionNode,
    InListNode,
    LiteralNode,
    PostfixNode,
    PostfixOp,
    UnaryNode,
    UnaryOp,
)
from repro.values import NULL, SQLType, Value, fits_int64

_COMPARE_OPS = {
    "=": BinaryOp.EQ, "==": BinaryOp.EQ, "!=": BinaryOp.NE,
    "<>": BinaryOp.NE, "<=>": BinaryOp.NULL_SAFE_EQ,
}
_INEQ_OPS = {"<": BinaryOp.LT, "<=": BinaryOp.LE, ">": BinaryOp.GT,
             ">=": BinaryOp.GE}
_BIT_OPS = {"&": BinaryOp.BITAND, "|": BinaryOp.BITOR, "<<": BinaryOp.SHL,
            ">>": BinaryOp.SHR}
_ADD_OPS = {"+": BinaryOp.ADD, "-": BinaryOp.SUB}
_MUL_OPS = {"*": BinaryOp.MUL, "/": BinaryOp.DIV, "%": BinaryOp.MOD}

#: Binding power per operator token for precedence climbing, spaced by 10
#: so "the next-tighter level" is ``prec + 10`` (matching the right
#: operand of each level in the old descent chain).
_OP_PREC: dict[str, tuple[int, BinaryOp]] = {}
for _ops, _prec in ((_COMPARE_OPS, 10), (_INEQ_OPS, 20), (_BIT_OPS, 30),
                    (_ADD_OPS, 40), (_MUL_OPS, 50)):
    for _text, _op in _ops.items():
        _OP_PREC[_text] = (_prec, _op)
_OP_PREC["||"] = (60, BinaryOp.CONCAT)
del _ops, _prec, _text, _op


class Parser:
    """Parses one SQL statement from a token stream."""

    def __init__(self, sql: str):
        self.sql = sql
        self.tokens = tokenize(sql)
        self.pos = 0

    # -- token plumbing ------------------------------------------------------
    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.type is not TokenType.EOF:
            self.pos += 1
        return tok

    def accept_kw(self, *names: str) -> bool:
        if self.cur.is_kw(*names):
            self.advance()
            return True
        return False

    def expect_kw(self, *names: str) -> Token:
        if not self.cur.is_kw(*names):
            raise ParseError(
                f"expected {'/'.join(names)}, got {self.cur.text!r} "
                f"near offset {self.cur.pos}")
        return self.advance()

    def accept_op(self, *ops: str) -> bool:
        if self.cur.is_op(*ops):
            self.advance()
            return True
        return False

    def expect_op(self, op: str) -> Token:
        if not self.cur.is_op(op):
            raise ParseError(f"expected {op!r}, got {self.cur.text!r} "
                             f"near offset {self.cur.pos}")
        return self.advance()

    def ident(self) -> str:
        tok = self.cur
        # Unreserved keywords may double as identifiers (ENGINE, KEY, ...).
        if tok.type in (TokenType.IDENT, TokenType.KEYWORD):
            self.advance()
            return tok.text
        raise ParseError(f"expected identifier, got {tok.text!r} "
                         f"near offset {tok.pos}")

    def at_end(self) -> bool:
        if self.cur.is_op(";"):
            self.advance()
        return self.cur.type is TokenType.EOF

    # -- statement dispatch ------------------------------------------------
    def parse_statement(self) -> st.Statement:
        tok = self.cur
        if tok.is_kw("CREATE"):
            return self._create()
        if tok.is_kw("DROP"):
            return self._drop()
        if tok.is_kw("INSERT"):
            return self._insert()
        if tok.is_kw("UPDATE"):
            return self._update()
        if tok.is_kw("DELETE"):
            return self._delete()
        if tok.is_kw("ALTER"):
            return self._alter()
        if tok.is_kw("SELECT", "VALUES"):
            return self._select()
        if tok.is_kw("EXPLAIN"):
            return self._explain()
        if tok.is_kw("VACUUM", "REINDEX", "ANALYZE", "REPAIR", "CHECK",
                     "DISCARD"):
            return self._maintenance()
        if tok.is_kw("PRAGMA", "SET"):
            return self._set_option()
        if tok.is_kw("BEGIN", "COMMIT", "ROLLBACK"):
            self.advance()
            self.accept_kw("TRANSACTION")
            return st.TransactionStmt(
                "BEGIN" if tok.upper == "BEGIN" else tok.upper)
        raise ParseError(f"cannot parse statement starting with "
                         f"{tok.text!r}")

    # -- CREATE ------------------------------------------------------------
    def _create(self) -> st.Statement:
        self.expect_kw("CREATE")
        unique = self.accept_kw("UNIQUE")
        if self.accept_kw("INDEX"):
            return self._create_index(unique)
        if unique:
            raise ParseError("UNIQUE is only valid before INDEX")
        if self.accept_kw("TABLE"):
            return self._create_table()
        if self.accept_kw("VIEW"):
            return self._create_view()
        if self.accept_kw("STATISTICS"):
            return self._create_statistics()
        raise ParseError(f"cannot CREATE {self.cur.text!r}")

    def _if_not_exists(self) -> bool:
        if self.accept_kw("IF"):
            self.expect_kw("NOT")
            self.expect_kw("EXISTS")
            return True
        return False

    def _create_table(self) -> st.CreateTable:
        if_not_exists = self._if_not_exists()
        name = self.ident()
        self.expect_op("(")
        columns: list[st.ColumnDef] = []
        constraints: list[st.TableConstraint] = []
        while True:
            if self.cur.is_kw("PRIMARY", "UNIQUE", "FOREIGN", "CONSTRAINT"):
                constraints.append(self._table_constraint())
            else:
                columns.append(self._column_def())
            if not self.accept_op(","):
                break
        self.expect_op(")")
        without_rowid = False
        engine = None
        inherits = None
        while True:
            if self.accept_kw("WITHOUT"):
                self.expect_kw("ROWID")
                without_rowid = True
            elif self.accept_kw("ENGINE"):
                self.expect_op("=")
                engine = self.ident().upper()
            elif self.accept_kw("INHERITS"):
                self.expect_op("(")
                inherits = self.ident()
                self.expect_op(")")
            else:
                break
        return st.CreateTable(name=name, columns=columns,
                              constraints=constraints,
                              without_rowid=without_rowid, engine=engine,
                              inherits=inherits,
                              if_not_exists=if_not_exists)

    def _column_def(self) -> st.ColumnDef:
        name = self.ident()
        type_words: list[str] = []
        while (self.cur.type is TokenType.IDENT
               and not self.cur.is_op(",", ")")):
            type_words.append(self.advance().text)
        # Parenthesized type sizes like VARCHAR(10).
        if type_words and self.accept_op("("):
            while not self.cur.is_op(")"):
                self.advance()
            self.expect_op(")")
        col = st.ColumnDef(name=name,
                           type_name=" ".join(type_words) or None)
        while True:
            if self.accept_kw("PRIMARY"):
                self.expect_kw("KEY")
                col.primary_key = True
            elif self.accept_kw("UNIQUE"):
                col.unique = True
            elif self.accept_kw("NOT"):
                self.expect_kw("NULL")
                col.not_null = True
            elif self.accept_kw("COLLATE"):
                col.collation = self.ident().upper()
            elif self.accept_kw("DEFAULT"):
                col.default = self.parse_expr()
            else:
                break
        return col

    def _table_constraint(self) -> st.TableConstraint:
        if self.accept_kw("CONSTRAINT"):
            self.ident()  # constraint names are accepted and ignored
        if self.accept_kw("PRIMARY"):
            self.expect_kw("KEY")
            kind = "PRIMARY KEY"
        elif self.accept_kw("UNIQUE"):
            kind = "UNIQUE"
        else:
            raise ParseError(
                f"unsupported table constraint near {self.cur.text!r}")
        self.expect_op("(")
        cols = [self.ident()]
        while self.accept_op(","):
            cols.append(self.ident())
        self.expect_op(")")
        return st.TableConstraint(kind=kind, columns=cols)

    def _create_index(self, unique: bool) -> st.CreateIndex:
        if_not_exists = self._if_not_exists()
        name = self.ident()
        self.expect_kw("ON")
        table = self.ident()
        self.expect_op("(")
        exprs = [self._indexed_expr()]
        while self.accept_op(","):
            exprs.append(self._indexed_expr())
        self.expect_op(")")
        where = None
        if self.accept_kw("WHERE"):
            where = self.parse_expr()
        return st.CreateIndex(name=name, table=table, exprs=exprs,
                              unique=unique, where=where,
                              if_not_exists=if_not_exists)

    def _indexed_expr(self) -> st.IndexedExpr:
        expr = self.parse_expr()
        collation = None
        if isinstance(expr, CollateNode):
            collation = expr.collation
            expr = expr.operand
        descending = False
        if self.accept_kw("DESC"):
            descending = True
        else:
            self.accept_kw("ASC")
        return st.IndexedExpr(expr=expr, collation=collation,
                              descending=descending)

    def _create_view(self) -> st.CreateView:
        if_not_exists = self._if_not_exists()
        name = self.ident()
        self.expect_kw("AS")
        self.expect_kw("SELECT")
        select = self._select_body()
        return st.CreateView(name=name, select=select,
                             if_not_exists=if_not_exists)

    def _create_statistics(self) -> st.CreateStatistics:
        name = self.ident()
        self.expect_kw("ON")
        cols = [self.ident()]
        while self.accept_op(","):
            cols.append(self.ident())
        self.expect_kw("FROM")
        table = self.ident()
        return st.CreateStatistics(name=name, columns=cols, table=table)

    # -- DROP -----------------------------------------------------------------
    def _drop(self) -> st.Drop:
        self.expect_kw("DROP")
        kind_tok = self.expect_kw("TABLE", "INDEX", "VIEW")
        if_exists = False
        if self.accept_kw("IF"):
            self.expect_kw("EXISTS")
            if_exists = True
        return st.Drop(kind=kind_tok.upper, name=self.ident(),
                       if_exists=if_exists)

    # -- DML ------------------------------------------------------------------
    def _insert(self) -> st.Insert:
        self.expect_kw("INSERT")
        on_conflict = None
        if self.accept_kw("OR"):
            on_conflict = self.expect_kw("IGNORE", "REPLACE", "ABORT",
                                         "FAIL").upper
        self.expect_kw("INTO")
        table = self.ident()
        columns = None
        if self.accept_op("("):
            columns = [self.ident()]
            while self.accept_op(","):
                columns.append(self.ident())
            self.expect_op(")")
        self.expect_kw("VALUES")
        rows = [self._value_row()]
        while self.accept_op(","):
            rows.append(self._value_row())
        return st.Insert(table=table, columns=columns, rows=rows,
                         on_conflict=on_conflict)

    def _value_row(self) -> list[Expr]:
        self.expect_op("(")
        row = [self.parse_expr()]
        while self.accept_op(","):
            row.append(self.parse_expr())
        self.expect_op(")")
        return row

    def _update(self) -> st.Update:
        self.expect_kw("UPDATE")
        on_conflict = None
        if self.accept_kw("OR"):
            on_conflict = self.expect_kw("IGNORE", "REPLACE", "ABORT",
                                         "FAIL").upper
        table = self.ident()
        self.expect_kw("SET")
        assignments = [self._assignment()]
        while self.accept_op(","):
            assignments.append(self._assignment())
        where = None
        if self.accept_kw("WHERE"):
            where = self.parse_expr()
        return st.Update(table=table, assignments=assignments, where=where,
                         on_conflict=on_conflict)

    def _assignment(self) -> tuple[str, Expr]:
        column = self.ident()
        self.expect_op("=")
        return column, self.parse_expr()

    def _delete(self) -> st.Delete:
        self.expect_kw("DELETE")
        self.expect_kw("FROM")
        table = self.ident()
        where = None
        if self.accept_kw("WHERE"):
            where = self.parse_expr()
        return st.Delete(table=table, where=where)

    def _alter(self) -> st.AlterTable:
        self.expect_kw("ALTER")
        self.expect_kw("TABLE")
        table = self.ident()
        if self.accept_kw("RENAME"):
            if self.accept_kw("TO"):
                return st.AlterTable(table=table, action="RENAME TO",
                                     new_name=self.ident())
            self.accept_kw("COLUMN")
            old = self.ident()
            self.expect_kw("TO")
            return st.AlterTable(table=table, action="RENAME COLUMN",
                                 column=old, new_name=self.ident())
        if self.accept_kw("ADD"):
            self.accept_kw("COLUMN")
            return st.AlterTable(table=table, action="ADD COLUMN",
                                 column_def=self._column_def())
        raise ParseError(f"unsupported ALTER TABLE action near "
                         f"{self.cur.text!r}")

    # -- EXPLAIN ----------------------------------------------------------------
    def _explain(self) -> st.Explain:
        self.expect_kw("EXPLAIN")
        query_plan = False
        if self.accept_kw("QUERY"):
            self.expect_kw("PLAN")
            query_plan = True
        if not self.cur.is_kw("SELECT"):
            raise ParseError("EXPLAIN supports SELECT statements only, "
                             f"got {self.cur.text!r}")
        return st.Explain(select=self._select(), query_plan=query_plan)

    # -- SELECT -----------------------------------------------------------------
    def _select(self) -> st.Select:
        self.expect_kw("SELECT")
        return self._select_body()

    def _select_body(self) -> st.Select:
        distinct = False
        if self.accept_kw("DISTINCT"):
            distinct = True
        else:
            self.accept_kw("ALL")
        items = [self._select_item()]
        while self.accept_op(","):
            items.append(self._select_item())
        select = st.Select(items=items, distinct=distinct)
        if self.accept_kw("FROM"):
            select.tables.append(self._table_name())
            while True:
                if self.accept_op(","):
                    select.tables.append(self._table_name())
                    continue
                join_kind = self._join_kind()
                if join_kind is None:
                    break
                table = self._table_name()
                on = None
                if self.accept_kw("ON"):
                    on = self.parse_expr()
                select.joins.append(st.JoinClause(kind=join_kind,
                                                  table=table, on=on))
        if self.accept_kw("WHERE"):
            select.where = self.parse_expr()
        if self.accept_kw("GROUP"):
            self.expect_kw("BY")
            select.group_by.append(self.parse_expr())
            while self.accept_op(","):
                select.group_by.append(self.parse_expr())
            if self.accept_kw("HAVING"):
                select.having = self.parse_expr()
        for compound_kw in ("INTERSECT", "UNION", "EXCEPT"):
            if self.accept_kw(compound_kw):
                kind = compound_kw
                if kind == "UNION" and self.accept_kw("ALL"):
                    kind = "UNION ALL"
                self.expect_kw("SELECT")
                select.compound = (kind, self._select_body())
                return select
        if self.accept_kw("ORDER"):
            self.expect_kw("BY")
            select.order_by.append(self._order_item())
            while self.accept_op(","):
                select.order_by.append(self._order_item())
        if self.accept_kw("LIMIT"):
            select.limit = self.parse_expr()
            if self.accept_kw("OFFSET"):
                select.offset = self.parse_expr()
        return select

    def _table_name(self) -> str:
        """A possibly schema-qualified table name (information_schema.x)."""
        name = self.ident()
        while self.cur.is_op(".") and \
                self.tokens[self.pos + 1].type is not TokenType.EOF and \
                not self.tokens[self.pos + 1].is_op("*"):
            self.advance()
            name += "." + self.ident()
        return name

    def _join_kind(self) -> Optional[str]:
        if self.accept_kw("JOIN"):
            return "INNER"
        if self.cur.is_kw("INNER", "LEFT", "CROSS"):
            kind = self.advance().upper
            self.accept_kw("OUTER")
            self.expect_kw("JOIN")
            return kind
        return None

    def _select_item(self) -> st.SelectItem:
        if self.accept_op("*"):
            return st.SelectItem(expr=None)
        # Table-qualified star: t0.*
        if (self.cur.type is TokenType.IDENT
                and self.tokens[self.pos + 1].is_op(".")
                and self.tokens[self.pos + 2].is_op("*")):
            table = self.ident()
            self.advance()
            self.advance()
            return st.SelectItem(expr=None, star_table=table)
        expr = self.parse_expr()
        alias = None
        if self.accept_kw("AS"):
            alias = self.ident()
        elif self.cur.type is TokenType.IDENT:
            alias = self.ident()
        return st.SelectItem(expr=expr, alias=alias)

    def _order_item(self) -> st.OrderItem:
        expr = self.parse_expr()
        descending = False
        if self.accept_kw("DESC"):
            descending = True
        else:
            self.accept_kw("ASC")
        return st.OrderItem(expr=expr, descending=descending)

    # -- maintenance & options ---------------------------------------------------
    def _maintenance(self) -> st.Maintenance:
        tok = self.advance()
        command = tok.upper
        if command == "VACUUM":
            full = self.accept_kw("FULL")
            target = None
            if self.cur.type is TokenType.IDENT:
                target = self.ident()
            return st.Maintenance(command="VACUUM", target=target, full=full)
        if command == "REINDEX":
            target = None
            if self.cur.type is TokenType.IDENT:
                target = self.ident()
            return st.Maintenance(command="REINDEX", target=target)
        if command == "ANALYZE":
            target = None
            if self.cur.type is TokenType.IDENT:
                target = self.ident()
            return st.Maintenance(command="ANALYZE", target=target)
        if command in ("REPAIR", "CHECK"):
            self.expect_kw("TABLE")
            target = self.ident()
            for_upgrade = False
            if self.accept_kw("FOR"):
                self.expect_kw("UPGRADE")
                for_upgrade = True
            return st.Maintenance(command=f"{command} TABLE", target=target,
                                  for_upgrade=for_upgrade)
        if command == "DISCARD":
            target = self.ident() if self.cur.type in (
                TokenType.IDENT, TokenType.KEYWORD) else None
            return st.Maintenance(command="DISCARD", target=target)
        raise ParseError(f"unsupported maintenance command {command}")

    def _set_option(self) -> st.SetOption:
        tok = self.advance()
        scope = None
        if tok.upper == "SET" and self.cur.is_kw("GLOBAL", "SESSION",
                                                 "LOCAL"):
            scope = self.advance().upper
        name = self.ident()
        value = None
        if self.accept_op("="):
            value = self.parse_expr()
        return st.SetOption(name=name, value=value, scope=scope)

    # -- expressions ------------------------------------------------------------
    def parse_expr(self) -> Expr:
        return self._or_expr()

    def _or_expr(self) -> Expr:
        left = self._and_expr()
        tokens = self.tokens
        while True:
            tok = tokens[self.pos]
            if tok.type is not TokenType.KEYWORD or tok.upper != "OR":
                return left
            self.pos += 1
            left = BinaryNode(BinaryOp.OR, left, self._and_expr())

    def _and_expr(self) -> Expr:
        left = self._not_expr()
        tokens = self.tokens
        while True:
            tok = tokens[self.pos]
            if tok.type is not TokenType.KEYWORD or tok.upper != "AND":
                return left
            self.pos += 1
            left = BinaryNode(BinaryOp.AND, left, self._not_expr())

    def _not_expr(self) -> Expr:
        tok = self.tokens[self.pos]
        if tok.type is TokenType.KEYWORD and tok.upper == "NOT" \
                and not self.tokens[self.pos + 1].is_kw(
                    "NULL", "BETWEEN", "IN", "LIKE", "GLOB"):
            self.pos += 1
            return UnaryNode(UnaryOp.NOT, self._not_expr())
        return self._binary(10)

    def _binary(self, min_prec: int) -> Expr:
        """Precedence-climbing loop over the binary-operator levels.

        Replaces the old one-method-per-level descent (comparison,
        inequality, bitwise, additive, multiplicative, concat) with a
        single table-driven loop; associativity and the per-level right
        operand (next-tighter level) are identical.  Keyword predicates
        (IS, BETWEEN, IN, LIKE, ...) live at comparison precedence.
        """
        left = self._unary()
        tokens = self.tokens
        while True:
            tok = tokens[self.pos]
            if tok.type is TokenType.OP:
                entry = _OP_PREC.get(tok.text)
                if entry is None or entry[0] < min_prec:
                    return left
                self.pos += 1
                left = BinaryNode(entry[1], left,
                                  self._binary(entry[0] + 10))
                continue
            if min_prec > 10 or tok.type is not TokenType.KEYWORD:
                return left
            up = tok.upper
            if up == "IS":
                self.pos += 1
                left = self._is_tail(left)
            elif up == "ISNULL":
                self.pos += 1
                left = PostfixNode(PostfixOp.ISNULL, left)
            elif up == "NOTNULL":
                self.pos += 1
                left = PostfixNode(PostfixOp.NOTNULL, left)
            elif up == "NOT":
                self.pos += 1
                left = self._negated_predicate(left)
            elif up == "BETWEEN":
                self.pos += 1
                left = self._between_tail(left, negated=False)
            elif up == "IN":
                self.pos += 1
                left = self._in_tail(left, negated=False)
            elif up == "LIKE":
                self.pos += 1
                left = BinaryNode(BinaryOp.LIKE, left, self._binary(20))
            elif up == "GLOB":
                self.pos += 1
                left = BinaryNode(BinaryOp.GLOB, left, self._binary(20))
            else:
                return left

    def _is_tail(self, left: Expr) -> Expr:
        if self.accept_kw("NOT"):
            if self.accept_kw("NULL"):
                return PostfixNode(PostfixOp.NOTNULL, left)
            if self.accept_kw("TRUE"):
                return PostfixNode(PostfixOp.IS_NOT_TRUE, left)
            if self.accept_kw("FALSE"):
                return PostfixNode(PostfixOp.IS_NOT_FALSE, left)
            return BinaryNode(BinaryOp.IS_NOT, left, self._inequality())
        if self.accept_kw("NULL"):
            return PostfixNode(PostfixOp.ISNULL, left)
        if self.accept_kw("TRUE"):
            return PostfixNode(PostfixOp.IS_TRUE, left)
        if self.accept_kw("FALSE"):
            return PostfixNode(PostfixOp.IS_FALSE, left)
        return BinaryNode(BinaryOp.IS, left, self._inequality())

    def _negated_predicate(self, left: Expr) -> Expr:
        if self.accept_kw("BETWEEN"):
            return self._between_tail(left, negated=True)
        if self.accept_kw("IN"):
            return self._in_tail(left, negated=True)
        if self.accept_kw("LIKE"):
            return BinaryNode(BinaryOp.NOT_LIKE, left, self._inequality())
        if self.accept_kw("GLOB"):
            return UnaryNode(UnaryOp.NOT,
                             BinaryNode(BinaryOp.GLOB, left,
                                        self._inequality()))
        if self.accept_kw("NULL"):
            return PostfixNode(PostfixOp.NOTNULL, left)
        raise ParseError(f"unexpected NOT near {self.cur.text!r}")

    def _between_tail(self, left: Expr, negated: bool) -> Expr:
        low = self._inequality()
        self.expect_kw("AND")
        high = self._inequality()
        return BetweenNode(left, low, high, negated)

    def _in_tail(self, left: Expr, negated: bool) -> Expr:
        self.expect_op("(")
        items = [self.parse_expr()]
        while self.accept_op(","):
            items.append(self.parse_expr())
        self.expect_op(")")
        return InListNode(left, tuple(items), negated)

    def _inequality(self) -> Expr:
        return self._binary(20)

    def _unary(self) -> Expr:
        tokens = self.tokens
        tok = tokens[self.pos]
        if tok.type is TokenType.OP:
            text = tok.text
            if text == "-":
                self.pos += 1
                # Fold negation of numeric literals exactly, as SQLite's
                # parser does — this is what makes -9223372036854775808
                # an INTEGER even though +9223372036854775808 overflows
                # into REAL.  The token-level case must run *before*
                # _primary converts an out-of-range positive literal to
                # REAL.
                tok = tokens[self.pos]
                if tok.type is TokenType.INTEGER:
                    self.pos += 1
                    value = -int(tok.text)
                    literal: Expr = LiteralNode(
                        Value.integer(value) if fits_int64(value)
                        else Value.real(float(value)))
                    return self._collate_tail(literal)
                if tok.type is TokenType.FLOAT:
                    self.pos += 1
                    return self._collate_tail(
                        LiteralNode(Value.real(-float(tok.text))))
                # Nested minus: fold transitively over the already-folded
                # operand so "- -86" normalizes to the literal 86.
                operand = self._unary()
                folded = _fold_minus_literal(operand)
                if folded is not None:
                    return folded
                return UnaryNode(UnaryOp.MINUS, operand)
            if text == "+":
                self.pos += 1
                return UnaryNode(UnaryOp.PLUS, self._unary())
            if text == "~":
                self.pos += 1
                return UnaryNode(UnaryOp.BITNOT, self._unary())
        elif tok.type is TokenType.KEYWORD and tok.upper == "NOT":
            # NOT is also accepted at unary level inside parenthesized
            # contexts such as (NOT x) emitted by the renderer.
            self.pos += 1
            return UnaryNode(UnaryOp.NOT, self._not_expr())
        return self._postfix()

    def _postfix(self) -> Expr:
        expr = self._primary()
        tok = self.tokens[self.pos]
        if tok.type is not TokenType.KEYWORD or tok.upper != "COLLATE":
            return expr
        return self._collate_tail(expr)

    def _collate_tail(self, expr: Expr) -> Expr:
        while self.accept_kw("COLLATE"):
            expr = CollateNode(expr, self.ident().upper())
        return expr

    def _primary(self) -> Expr:
        tok = self.tokens[self.pos]
        ttype = tok.type
        if ttype is TokenType.IDENT:
            return self._identifier_expr()
        if ttype is TokenType.INTEGER:
            self.pos += 1
            raw = int(tok.text)
            if fits_int64(raw):
                return LiteralNode(Value.integer(raw))
            # Integer literals beyond int64 parse as REAL (SQLite rule).
            return LiteralNode(Value.real(float(raw)))
        if ttype is TokenType.FLOAT:
            self.pos += 1
            return LiteralNode(Value.real(float(tok.text)))
        if ttype is TokenType.STRING:
            self.pos += 1
            return LiteralNode(Value.text(tok.text))
        if ttype is TokenType.BLOB:
            self.pos += 1
            return LiteralNode(Value.blob(bytes.fromhex(tok.text)))
        if tok.is_kw("NULL"):
            self.advance()
            return LiteralNode(NULL)
        if tok.is_kw("TRUE"):
            self.advance()
            return LiteralNode(Value.boolean(True))
        if tok.is_kw("FALSE"):
            self.advance()
            return LiteralNode(Value.boolean(False))
        if tok.is_kw("CAST"):
            self.advance()
            self.expect_op("(")
            operand = self.parse_expr()
            self.expect_kw("AS")
            words = [self.ident()]
            while self.cur.type in (TokenType.IDENT, TokenType.KEYWORD) \
                    and not self.cur.is_op(")"):
                words.append(self.advance().text)
            self.expect_op(")")
            return CastNode(operand, " ".join(words))
        if tok.is_kw("CASE"):
            return self._case()
        if tok.is_op("("):
            self.advance()
            expr = self.parse_expr()
            self.expect_op(")")
            return expr
        raise ParseError(f"unexpected token {tok.text!r} in expression "
                         f"near offset {tok.pos}")

    def _case(self) -> Expr:
        self.expect_kw("CASE")
        operand = None
        if not self.cur.is_kw("WHEN"):
            operand = self.parse_expr()
        whens: list[tuple[Expr, Expr]] = []
        while self.accept_kw("WHEN"):
            cond = self.parse_expr()
            self.expect_kw("THEN")
            whens.append((cond, self.parse_expr()))
        if not whens:
            raise ParseError("CASE requires at least one WHEN branch")
        else_ = None
        if self.accept_kw("ELSE"):
            else_ = self.parse_expr()
        self.expect_kw("END")
        return CaseNode(operand, tuple(whens), else_)

    def _identifier_expr(self) -> Expr:
        name = self.tokens[self.pos].text
        self.pos += 1
        tok = self.tokens[self.pos]
        if tok.type is not TokenType.OP:
            return ColumnNode(table="", column=name)
        if tok.text == ".":
            self.pos += 1
            column = self.ident()
            return ColumnNode(table=name, column=column)
        if self.accept_op("("):
            # Function call; COUNT(*) is a zero-argument FunctionNode.
            args: list[Expr] = []
            if self.accept_op("*"):
                self.expect_op(")")
                return FunctionNode(name.upper(), ())
            if not self.cur.is_op(")"):
                args.append(self.parse_expr())
                while self.accept_op(","):
                    args.append(self.parse_expr())
            self.expect_op(")")
            return FunctionNode(name.upper(), tuple(args))
        if self.accept_op("."):
            column = self.ident()
            return ColumnNode(table=name, column=column)
        return ColumnNode(table="", column=name)


def _fold_minus_literal(operand: Expr) -> Expr | None:
    from repro.values import SQLType, fits_int64

    if not isinstance(operand, LiteralNode):
        return None
    value = operand.value
    if value.t is SQLType.INTEGER:
        negated = -int(value.v)
        if fits_int64(negated):
            return LiteralNode(Value.integer(negated))
        return LiteralNode(Value.real(float(negated)))
    if value.t is SQLType.REAL:
        return LiteralNode(Value.real(-float(value.v)))
    return None


#: Parsed-statement memo.  Statement objects are never mutated after
#: parsing (binding copies, ALTER rewrites catalog objects, CREATE
#: VIEW/INDEX store or replace whole expression lists), so one parse per
#: distinct SQL text can be shared across engines and replays.  Failures
#: are not cached; they re-raise identically on re-parse.
_PARSE_CACHE: dict[str, "st.Statement"] = {}
_PARSE_CACHE_LIMIT = 1024


def parse_statement(sql: str) -> st.Statement:
    """Parse exactly one statement; trailing semicolon is allowed."""
    stmt = _PARSE_CACHE.get(sql)
    if stmt is not None:
        return stmt
    parser = Parser(sql)
    stmt = parser.parse_statement()
    if not parser.at_end():
        raise ParseError(f"unexpected trailing input near "
                         f"{parser.cur.text!r}")
    if len(_PARSE_CACHE) >= _PARSE_CACHE_LIMIT:
        _PARSE_CACHE.clear()
    _PARSE_CACHE[sql] = stmt
    return stmt


def parse_expression(sql: str) -> Expr:
    """Parse a standalone expression (used by tests and the reducer)."""
    parser = Parser(sql)
    expr = parser.parse_expr()
    if not parser.at_end():
        raise ParseError(f"unexpected trailing input near "
                         f"{parser.cur.text!r}")
    return expr
