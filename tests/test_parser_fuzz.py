"""Parser robustness: round-trip and fuzz properties.

Two invariants:

1. Round-trip: any expression the AST can express prints to SQL that
   parses back to an equal AST.
2. Totality: arbitrary input never crashes the parser with anything but
   :class:`ParseError` (no hangs, no internal exceptions).
"""

from hypothesis import given, settings, strategies as st

import pytest

from repro.errors import ParseError
from repro.query.ast import (
    And,
    Arithmetic,
    Column,
    Comparison,
    FunctionCall,
    Literal,
    Not,
    Or,
)
from repro.query.parser import _KEYWORDS, Parser, parse_statement
from repro.query.printer import sql_of

# The parser's own list, not a copy: a keyword added there is a name the
# generator must stop drawing the same day.
identifiers = st.from_regex(r"[a-z][a-z_0-9]{0,8}", fullmatch=True).filter(
    lambda s: s not in _KEYWORDS
)

#: Keywords that are literals where an expression is expected.
LITERAL_KEYWORDS = {"true": True, "false": False, "null": None}

literals = st.one_of(
    st.integers(min_value=0, max_value=10**9).map(Literal),
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False,
              allow_infinity=False).map(Literal),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)),
            max_size=12).map(Literal),
    st.sampled_from([Literal(True), Literal(False), Literal(None)]),
)

columns = st.one_of(
    identifiers.map(Column),
    st.tuples(identifiers, identifiers).map(lambda t: Column(f"{t[0]}.{t[1]}")),
)


def expressions(depth: int = 3):
    if depth == 0:
        return st.one_of(literals, columns)
    sub = expressions(depth - 1)
    return st.one_of(
        literals,
        columns,
        st.tuples(identifiers, st.lists(sub, max_size=3)).map(
            lambda t: FunctionCall(t[0], t[1])
        ),
        st.tuples(st.sampled_from(["=", "<>", "<", "<=", ">", ">="]), sub,
                  sub).map(lambda t: Comparison(*t)),
        st.tuples(st.sampled_from(["+", "-", "*", "/"]), sub, sub).map(
            lambda t: Arithmetic(*t)
        ),
        st.tuples(sub, sub).map(lambda t: And(*t)),
        st.tuples(sub, sub).map(lambda t: Or(*t)),
        sub.map(Not),
    )


def parse_expression(sql: str):
    parser = Parser(f"SELECT {sql} FROM t")
    statement = parser.parse_statement()
    return statement.items[0].expr


class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(expr=expressions())
    def test_print_parse_roundtrip(self, expr):
        printed = sql_of(expr)
        reparsed = parse_expression(printed)
        assert reparsed == expr, printed

    def test_specific_tricky_cases(self):
        cases = [
            Literal("it's"),
            Literal(""),
            Literal(0.5),
            Comparison("<=", Column("a.b"), Literal(None)),
            Not(Not(Column("x"))),
            FunctionCall("f", []),
            Arithmetic("/", Literal(1), Arithmetic("*", Column("a"),
                                                   Literal(2))),
        ]
        for expr in cases:
            assert parse_expression(sql_of(expr)) == expr

    @pytest.mark.parametrize("keyword", sorted(_KEYWORDS))
    def test_keyword_is_never_a_column_name(self, keyword):
        # Why the generator filters them: a column named like a keyword
        # does not survive printing.  It is a ParseError (or, for the
        # three literal keywords, that literal) — not an internal error
        # and never the column back.
        if keyword in LITERAL_KEYWORDS:
            assert (parse_expression(sql_of(Column(keyword)))
                    == Literal(LITERAL_KEYWORDS[keyword]))
        else:
            with pytest.raises(ParseError):
                parse_expression(sql_of(Column(keyword)))
        with pytest.raises(ParseError):
            parse_expression(sql_of(Not(Not(Column(f"t.{keyword}")))))


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(sql=st.text(max_size=80))
    def test_parser_total_on_garbage(self, sql):
        try:
            parse_statement(sql)
        except ParseError:
            pass  # the only acceptable failure mode

    @settings(max_examples=200, deadline=None)
    @given(sql=st.text(
        alphabet=st.sampled_from(list("SELECTFROMWHERE()*,.;'\"=<>123abc ")),
        max_size=60,
    ))
    def test_parser_total_on_sql_shaped_garbage(self, sql):
        try:
            parse_statement(sql)
        except ParseError:
            pass

    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            parse_statement("SELECT 'oops FROM t")

    def test_deeply_nested_parentheses(self):
        depth = 50
        sql = "SELECT " + "(" * depth + "1" + ")" * depth + " FROM t"
        statement = parse_statement(sql)
        assert statement.items[0].expr == Literal(1)
