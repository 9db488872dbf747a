"""A recursive-descent parser for the SQL++ subset the paper uses.

Supported statements:

- ``SELECT ... FROM ds1 a, ds2 b WHERE ... GROUP BY ... ORDER BY ... LIMIT``
- ``CREATE TYPE Name { field: type, ... }``
- ``CREATE DATASET Name(TypeName) PRIMARY KEY field``
- ``CREATE JOIN name(a: t, b: t, p: t) RETURNS boolean AS "mod.Class" AT lib``
- ``DROP JOIN name(...)`` / ``DROP DATASET name``

Expressions cover column references (``p.id``), literals, function calls,
comparisons, AND/OR/NOT, and arithmetic — enough for every query in the
paper (Queries 1–5).
"""

from __future__ import annotations

import re

from repro.errors import ParseError
from repro.query.ast import (
    And,
    Arithmetic,
    Column,
    Comparison,
    Expr,
    FunctionCall,
    Literal,
    Not,
    Or,
    Star,
)
from repro.query.logical import (
    CreateDatasetStatement,
    CreateJoinStatement,
    CreateTypeStatement,
    DropDatasetStatement,
    DropJoinStatement,
    ExplainStatement,
    SelectItem,
    SelectStatement,
    TableRef,
)

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|--[^\n]*|/\*.*?\*/)
  | (?P<number>(?:\d+\.\d+|\.\d+|\d+)(?:[eE][+-]?\d+)?)
  | (?P<string>'(?:[^']|'')*'|"(?:[^"]|"")*")
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op><>|<=|>=|!=|=|<|>|\+|-|\*|/)
  | (?P<punct>[(),.;:{}])
    """,
    re.VERBOSE | re.DOTALL,
)

_KEYWORDS = {
    "select", "from", "where", "group", "by", "order", "limit", "as",
    "and", "or", "not", "asc", "desc", "create", "drop", "type",
    "dataset", "join", "returns", "at", "primary", "key", "true",
    "false", "null", "distinct", "explain", "analyze", "having", "offset", "on", "inner",
    "cross",
}


class Token:
    __slots__ = ("kind", "text", "position")

    def __init__(self, kind: str, text: str, position: int) -> None:
        self.kind = kind
        self.text = text
        self.position = position

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r})"


def tokenize_sql(sql: str) -> list:
    """Tokenize ``sql``; raises ParseError on unrecognized characters."""
    tokens = []
    position = 0
    while position < len(sql):
        match = _TOKEN_RE.match(sql, position)
        if match is None:
            raise ParseError(f"unexpected character {sql[position]!r}", position)
        position = match.end()
        kind = match.lastgroup
        if kind == "ws":
            continue
        text = match.group()
        if kind == "ident" and text.lower() in _KEYWORDS:
            kind = "keyword"
            text = text.lower()
        tokens.append(Token(kind, text, match.start()))
    tokens.append(Token("eof", "", len(sql)))
    return tokens


class Parser:
    """One-statement-at-a-time recursive-descent parser."""

    def __init__(self, sql: str) -> None:
        self.sql = sql
        self.tokens = tokenize_sql(sql)
        self.pos = 0

    # -- token helpers -----------------------------------------------------------

    def _peek(self) -> Token:
        return self.tokens[self.pos]

    def _advance(self) -> Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def _check(self, kind: str, text: str = None) -> bool:
        token = self._peek()
        if token.kind != kind:
            return False
        return text is None or token.text.lower() == text.lower()

    def _accept(self, kind: str, text: str = None) -> Token:
        if self._check(kind, text):
            return self._advance()
        return None

    def _expect(self, kind: str, text: str = None) -> Token:
        token = self._accept(kind, text)
        if token is None:
            actual = self._peek()
            wanted = text or kind
            raise ParseError(
                f"expected {wanted!r} but found {actual.text!r}", actual.position
            )
        return token

    # -- statements ----------------------------------------------------------------

    def parse_statement(self):
        """Parse exactly one statement (a trailing ';' is allowed)."""
        if self._check("keyword", "explain"):
            self._advance()
            analyze = self._accept("keyword", "analyze") is not None
            stmt = ExplainStatement(self._select(), analyze)
        elif self._check("keyword", "select"):
            stmt = self._select()
        elif self._check("keyword", "create"):
            stmt = self._create()
        elif self._check("keyword", "drop"):
            stmt = self._drop()
        else:
            token = self._peek()
            raise ParseError(f"unexpected token {token.text!r}", token.position)
        self._accept("punct", ";")
        self._expect("eof")
        return stmt

    def _create(self):
        self._expect("keyword", "create")
        if self._accept("keyword", "type"):
            return self._create_type()
        if self._accept("keyword", "dataset"):
            return self._create_dataset()
        if self._accept("keyword", "join"):
            return self._create_join()
        token = self._peek()
        raise ParseError(f"cannot CREATE {token.text!r}", token.position)

    def _create_type(self) -> CreateTypeStatement:
        name = self._expect("ident").text
        self._expect("punct", "{")
        fields = []
        while not self._check("punct", "}"):
            field_name = self._expect("ident").text
            self._expect("punct", ":")
            type_token = self._accept("ident") or self._expect("keyword")
            fields.append((field_name, type_token.text.lower()))
            if not self._accept("punct", ","):
                break
        self._expect("punct", "}")
        return CreateTypeStatement(name, fields)

    def _create_dataset(self) -> CreateDatasetStatement:
        name = self._expect("ident").text
        self._expect("punct", "(")
        type_name = self._expect("ident").text
        self._expect("punct", ")")
        self._expect("keyword", "primary")
        self._expect("keyword", "key")
        primary_key = self._expect("ident").text
        return CreateDatasetStatement(name, type_name, primary_key)

    def _create_join(self) -> CreateJoinStatement:
        name = self._expect("ident").text
        params = self._join_param_list()
        self._expect("keyword", "returns")
        self._expect("ident")  # the return type (always boolean)
        self._expect("keyword", "as")
        class_path = _string_value(self._expect("string").text)
        library = ""
        if self._accept("keyword", "at"):
            library = self._expect("ident").text
        return CreateJoinStatement(name, params, class_path, library)

    def _join_param_list(self) -> list:
        self._expect("punct", "(")
        params = []
        while not self._check("punct", ")"):
            param_name = self._expect("ident").text
            self._expect("punct", ":")
            type_token = self._accept("ident") or self._expect("keyword")
            params.append((param_name, type_token.text.lower()))
            if not self._accept("punct", ","):
                break
        self._expect("punct", ")")
        return params

    def _drop(self):
        self._expect("keyword", "drop")
        if self._accept("keyword", "join"):
            name = self._expect("ident").text
            if self._check("punct", "("):
                self._join_param_list()  # signature repeated, as in the paper
            return DropJoinStatement(name)
        if self._accept("keyword", "dataset"):
            return DropDatasetStatement(self._expect("ident").text)
        token = self._peek()
        raise ParseError(f"cannot DROP {token.text!r}", token.position)

    # -- SELECT -----------------------------------------------------------------------

    def _select(self) -> SelectStatement:
        self._expect("keyword", "select")
        distinct = self._accept("keyword", "distinct") is not None
        items = [self._select_item()]
        while self._accept("punct", ","):
            items.append(self._select_item())
        self._expect("keyword", "from")
        tables = [self._table_ref()]
        on_conditions = []
        while True:
            if self._accept("punct", ","):
                tables.append(self._table_ref())
                continue
            if self._check("keyword", "inner") or self._check("keyword", "join"):
                self._accept("keyword", "inner")
                self._expect("keyword", "join")
                tables.append(self._table_ref())
                self._expect("keyword", "on")
                on_conditions.append(self._expr())
                continue
            if self._check("keyword", "cross"):
                # CROSS JOIN t: a Cartesian member with no ON condition —
                # the optimizer may still claim WHERE conjuncts for it.
                self._advance()
                self._expect("keyword", "join")
                tables.append(self._table_ref())
                continue
            break
        where = None
        if self._accept("keyword", "where"):
            where = self._expr()
        # JOIN ... ON conditions are WHERE conjuncts semantically; the
        # optimizer places them on the right join by alias coverage.
        for condition in on_conditions:
            where = condition if where is None else And(where, condition)
        group_by = []
        if self._accept("keyword", "group"):
            self._expect("keyword", "by")
            group_by.append(self._expr())
            while self._accept("punct", ","):
                group_by.append(self._expr())
        having = None
        if self._accept("keyword", "having"):
            having = self._expr()
        order_by = []
        if self._accept("keyword", "order"):
            self._expect("keyword", "by")
            order_by.append(self._order_key())
            while self._accept("punct", ","):
                order_by.append(self._order_key())
        limit = None
        offset = None
        if self._accept("keyword", "limit"):
            limit = int(self._expect("number").text)
            if self._accept("keyword", "offset"):
                offset = int(self._expect("number").text)
        return SelectStatement(items, tables, where, group_by, having,
                               order_by, limit, offset, distinct)

    def _select_item(self) -> SelectItem:
        if self._accept("op", "*"):
            # SELECT *: expanded by the binder to every FROM-table field.
            return SelectItem(Star(), None)
        expr = self._expr()
        alias = None
        if self._accept("keyword", "as"):
            alias = self._expect("ident").text
        elif self._check("ident"):
            alias = self._advance().text
        return SelectItem(expr, alias)

    def _table_ref(self) -> TableRef:
        dataset = self._expect("ident").text
        if self._accept("punct", "."):
            # Namespaced tables (the sys.* introspection surface).
            dataset = f"{dataset}.{self._expect('ident').text}"
        alias = dataset
        if self._accept("keyword", "as"):
            alias = self._expect("ident").text
        elif self._check("ident"):
            alias = self._advance().text
        return TableRef(dataset, alias)

    def _order_key(self):
        expr = self._expr()
        descending = False
        if self._accept("keyword", "desc"):
            descending = True
        else:
            self._accept("keyword", "asc")
        return (expr, descending)

    # -- expressions ---------------------------------------------------------------------

    def _expr(self) -> Expr:
        return self._or_expr()

    def _or_expr(self) -> Expr:
        left = self._and_expr()
        while self._accept("keyword", "or"):
            left = Or(left, self._and_expr())
        return left

    def _and_expr(self) -> Expr:
        left = self._not_expr()
        while self._accept("keyword", "and"):
            left = And(left, self._not_expr())
        return left

    def _not_expr(self) -> Expr:
        if self._accept("keyword", "not"):
            return Not(self._not_expr())
        return self._comparison()

    def _comparison(self) -> Expr:
        left = self._additive()
        for op in ("<>", "!=", "<=", ">=", "=", "<", ">"):
            if self._accept("op", op):
                return Comparison(op if op != "!=" else "<>", left, self._additive())
        return left

    def _additive(self) -> Expr:
        left = self._multiplicative()
        while True:
            if self._accept("op", "+"):
                left = Arithmetic("+", left, self._multiplicative())
            elif self._accept("op", "-"):
                left = Arithmetic("-", left, self._multiplicative())
            else:
                return left

    def _multiplicative(self) -> Expr:
        left = self._primary()
        while True:
            if self._accept("op", "*"):
                left = Arithmetic("*", left, self._primary())
            elif self._accept("op", "/"):
                left = Arithmetic("/", left, self._primary())
            else:
                return left

    def _primary(self) -> Expr:
        token = self._peek()
        if token.kind == "number":
            self._advance()
            text = token.text
            is_float = "." in text or "e" in text or "E" in text
            return Literal(float(text) if is_float else int(text))
        if token.kind == "string":
            self._advance()
            return Literal(_string_value(token.text))
        if token.kind == "keyword" and token.text in ("true", "false", "null"):
            self._advance()
            return Literal({"true": True, "false": False, "null": None}[token.text])
        if self._accept("punct", "("):
            expr = self._expr()
            self._expect("punct", ")")
            return expr
        if self._accept("op", "-"):
            inner = self._primary()
            if isinstance(inner, Literal) and isinstance(inner.value, (int, float)):
                return Literal(-inner.value)
            return Arithmetic("-", Literal(0), inner)
        if token.kind == "ident":
            self._advance()
            name = token.text
            if self._accept("punct", "."):
                field = self._expect("ident").text
                return Column(f"{name}.{field}")
            if self._accept("punct", "("):
                return self._finish_call(name)
            return Column(name)
        raise ParseError(f"unexpected token {token.text!r}", token.position)

    def _finish_call(self, name: str) -> FunctionCall:
        args = []
        if self._accept("op", "*"):
            # COUNT(*): represented as a zero-argument call.
            self._expect("punct", ")")
            return FunctionCall(name, [])
        if self._accept("keyword", "distinct"):
            # COUNT(DISTINCT expr): flagged on the call for the binder.
            arg = self._expr()
            self._expect("punct", ")")
            call = FunctionCall(name, [arg])
            call.distinct = True
            return call
        while not self._check("punct", ")"):
            args.append(self._expr())
            if not self._accept("punct", ","):
                break
        self._expect("punct", ")")
        return FunctionCall(name, args)


def _string_value(token_text: str) -> str:
    quote = token_text[0]
    body = token_text[1:-1]
    return body.replace(quote * 2, quote)


def parse_statement(sql: str):
    """Parse one SQL statement and return its statement object."""
    return Parser(sql).parse_statement()
