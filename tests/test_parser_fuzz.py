"""Parser robustness: round-trip and fuzz properties.

Three invariants:

1. Round-trip: any expression the AST can express prints to SQL that
   parses back to an equal AST.
2. Totality: arbitrary input never crashes the parser with anything but
   :class:`ParseError` (no hangs, no internal exceptions).
3. One evaluator: for any such expression, schema and row,
   ``expr.compile(schema)(values)`` is ``expr.evaluate(record)`` — the
   same value of the same type, or an exception of the same type.
"""

from hypothesis import given, settings, strategies as st

import pytest

from repro.engine import Record, Schema
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
from repro.serde.values import box

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


def expressions(depth: int = 3, columns=columns, call=FunctionCall):
    """Expression trees; ``columns`` draws the leaves that name a field
    and ``call(name, args)`` builds a function call."""
    if depth == 0:
        return st.one_of(literals, columns)
    sub = expressions(depth - 1, columns, call)
    return st.one_of(
        literals,
        columns,
        st.tuples(identifiers, st.lists(sub, max_size=3)).map(
            lambda t: call(t[0], t[1])
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


#: Field names the evaluator property draws its schemas and its column
#: references from: a reference to a name the drawn schema left out is
#: the missing-field case.
FIELDS = ("t.i", "t.d", "t.s", "u.i", "n")

#: Implementations a generated call is bound to, by the length of its
#: name: any arity, at least one argument (else IndexError), numbers only
#: (else TypeError), and unbound (PlanError).
FUNCTIONS = (lambda *args: len(args), lambda *args: args[0],
             lambda *args: sum(args), None)


def bound_call(name, args):
    return FunctionCall(name, args, fn=FUNCTIONS[len(name) % len(FUNCTIONS)])


#: A stored value: NULL, ints against doubles against strings, booleans —
#: boxed as the engine stores them, or plain as a hand-built record may.
stored_values = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-5, max_value=5),
    st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
    st.sampled_from(["", "a", "b"]),
).flatmap(lambda value: st.sampled_from([value, box(value)]))


@st.composite
def schemas_and_rows(draw):
    fields = draw(st.lists(st.sampled_from(FIELDS), min_size=1, unique=True))
    rows = draw(st.lists(
        st.tuples(*[stored_values] * len(fields)), min_size=1, max_size=4))
    return Schema(fields), rows


def outcome(thunk):
    """What ``thunk`` comes to: its value with the value's type (``1``,
    ``1.0`` and ``True`` are equal), or the type of what it raised."""
    try:
        value = thunk()
    except Exception as exc:
        return "raised", type(exc)
    return type(value), value


class TestCompiledIsEvaluated:
    @settings(max_examples=1500, deadline=None)
    @given(expr=st.one_of(*[  # shallow trees too: a leaf under one operator
               expressions(depth, st.sampled_from(FIELDS).map(Column),
                           bound_call) for depth in (1, 2, 3)]),
           data=schemas_and_rows())
    def test_compile_agrees_with_evaluate(self, expr, data):
        schema, rows = data
        for values in rows:
            record = Record(schema, values)
            assert (outcome(lambda: expr.compile(schema)(record.values))
                    == outcome(lambda: expr.evaluate(record))), sql_of(expr)

    def test_the_cases_the_generator_must_reach(self):
        # Each is one draw of the property above; spelled out so that a
        # generator that stops reaching one does not hide it.
        schema = Schema(["t.i", "t.s"])
        record = Record.from_dict(schema, {"t.i": 2, "t.s": "a"})
        null = Record.from_dict(schema, {"t.i": None, "t.s": None})
        cases = [
            (Comparison("=", Column("t.i"), Literal(2)), record),
            (Comparison("=", Column("t.i"), Literal(2.0)), record),
            (Comparison("<", Column("t.i"), Literal(None)), record),
            (Comparison("<", Column("t.i"), Column("t.s")), record),  # TypeError
            (Comparison("<", Column("t.i"), Literal("a")), record),   # TypeError
            (Comparison(">=", Column("t.i"), Literal(1)), null),
            (Arithmetic("/", Column("t.i"), Literal(0)), record),
            (Arithmetic("+", Column("t.i"), Column("t.s")), null),
            (Arithmetic("-", Column("t.i"), Literal(None)), record),
            (Arithmetic("-", Literal(None), Column("t.i")), record),
            (Column("u.i"), record),                                  # missing
            (Or(Comparison("=", Column("t.i"), Literal(2)), Column("u.i")),
             record),                      # short-circuits before the miss
            (And(Column("t.i"), Not(Column("u.i"))), record),
            (FunctionCall("f", [Column("t.i")]), record),             # unbound
            (FunctionCall("f", [], fn=lambda: 7), record),
            (FunctionCall("f", [Column("t.i")] * 3, fn=max), record),
        ]
        for expr, row in cases:
            assert (outcome(lambda: expr.compile(schema)(row.values))
                    == outcome(lambda: expr.evaluate(row))), sql_of(expr)
        # A missing field is an error of the row that reaches it, as it is
        # for ``evaluate``: compiling alone raises nothing.
        Column("u.i").compile(schema)


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
