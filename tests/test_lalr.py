"""Unit tests for the LALR(1) generator and parse driver (experiment E11:
unresolved conflicts are rejected, not defaulted away)."""

import pytest

from repro.grammar import Assoc, Grammar, nonterminal
from repro.lalr import ConflictError, ParseError, Parser, ParserContext, build_tables
from repro.lalr.tables import ParseTables
from repro.lexer import scan


def expr_grammar(with_precedence: bool = True) -> Grammar:
    g = Grammar("expr")
    E = nonterminal("TestE")
    if with_precedence:
        g.precedence.declare(Assoc.LEFT, "+", "-")
        g.precedence.declare(Assoc.LEFT, "*")
        g.precedence.declare(Assoc.RIGHT, "^")
    g.add_production(E, ["IntLit"], tag="te_lit",
                     action=lambda ctx, v: v[0].value, internal=True)
    g.add_production(E, [E, "+", E], tag="te_add",
                     action=lambda ctx, v: v[0] + v[2], internal=True)
    g.add_production(E, [E, "-", E], tag="te_sub",
                     action=lambda ctx, v: v[0] - v[2], internal=True)
    g.add_production(E, [E, "*", E], tag="te_mul",
                     action=lambda ctx, v: v[0] * v[2], internal=True)
    g.add_production(E, [E, "^", E], tag="te_pow",
                     action=lambda ctx, v: v[0] ** v[2], internal=True)
    g.declare_start(E)
    return g


def parse_value(grammar, start, text, **kwargs):
    tables = build_tables(grammar)
    parser = Parser(tables, ParserContext())
    value, consumed = parser.parse(start, scan(text), **kwargs)
    return value


class TestPrecedence:
    def test_left_associativity(self):
        assert parse_value(expr_grammar(), "TestE", "10 - 3 - 2") == 5

    def test_right_associativity(self):
        assert parse_value(expr_grammar(), "TestE", "2 ^ 3 ^ 2") == 512

    def test_precedence_levels(self):
        assert parse_value(expr_grammar(), "TestE", "2 + 3 * 4") == 14

    def test_mixed(self):
        assert parse_value(expr_grammar(), "TestE", "2 * 3 + 4 * 5") == 26


class TestConflictRejection:
    def test_ambiguous_grammar_rejected(self):
        # Without precedence, E -> E + E is a shift/reduce conflict; the
        # generator must reject it (no YACC-style default resolution).
        with pytest.raises(ConflictError) as exc:
            build_tables(expr_grammar(with_precedence=False))
        assert "shift/reduce" in str(exc.value)

    def test_reduce_reduce_rejected(self):
        g = Grammar("rr")
        S = nonterminal("TestS_rr")
        A = nonterminal("TestA_rr")
        B = nonterminal("TestB_rr")
        g.add_production(S, [A], tag="rr_a", internal=True,
                         action=lambda ctx, v: v[0])
        g.add_production(S, [B], tag="rr_b", internal=True,
                         action=lambda ctx, v: v[0])
        g.add_production(A, ["Identifier"], tag="rr_ai", internal=True,
                         action=lambda ctx, v: v[0])
        g.add_production(B, ["Identifier"], tag="rr_bi", internal=True,
                         action=lambda ctx, v: v[0])
        g.declare_start(S)
        with pytest.raises(ConflictError) as exc:
            build_tables(g)
        assert "reduce/reduce" in str(exc.value)

    def test_nonassoc_removes_action(self):
        g = Grammar("na")
        E = nonterminal("TestE_na")
        g.precedence.declare(Assoc.NONASSOC, "<")
        g.add_production(E, ["IntLit"], tag="na_lit", internal=True,
                         action=lambda ctx, v: v[0].value)
        g.add_production(E, [E, "<", E], tag="na_lt", internal=True,
                         action=lambda ctx, v: v[0] < v[2])
        g.declare_start(E)
        tables = build_tables(g)
        parser = Parser(tables, ParserContext())
        assert parser.parse("TestE_na", scan("1 < 2"))[0] is True
        with pytest.raises(ParseError):
            parser.parse("TestE_na", scan("1 < 2 < 3"))


def nonassoc_pair_grammar(x_first: bool, y_prec) -> Grammar:
    """After ``na_a`` one state shifts ``na_lt`` and reduces both
    ``X -> na_a`` (%prec ``na_lt``, nonassoc: an error entry on
    ``na_lt``) and ``Y -> na_a`` (%prec ``y_prec``) on ``na_lt``.
    ``x_first`` picks which reduce is declared, and so added, first."""
    g = Grammar("na-pair")
    S, X, Y = (nonterminal(f"TestNa{name}") for name in "SXY")
    g.precedence.declare(Assoc.LEFT, "na_lo")
    g.precedence.declare(Assoc.NONASSOC, "na_lt")
    g.precedence.declare(Assoc.LEFT, "na_hi")
    g.add_production(S, ["na_a", "na_lt", "na_c"], tag="na_s_a",
                     internal=True)
    g.add_production(S, [X, "na_lt"], tag="na_s_x", internal=True)
    g.add_production(S, [Y, "na_lt"], tag="na_s_y", internal=True)
    reduces = [(X, "na_lt"), (Y, y_prec)]
    for lhs, prec in reduces if x_first else reversed(reduces):
        g.add_production(lhs, ["na_a"], tag=f"na_{lhs.name}:{prec}",
                         prec=prec, internal=True)
    g.declare_start(S)
    return g


class TestNonassocOrder:
    """Whether a grammar is accepted, and the conflicts it reports, must
    not depend on which reduce a nonassoc error entry meets first."""

    @staticmethod
    def outcome(grammar):
        try:
            ParseTables(grammar)  # uncached: both orders really build
        except ConflictError as exc:
            return exc.conflicts
        return "accepted"

    @pytest.mark.parametrize("y_prec, expected", [
        ("na_hi", "reduce/reduce"),  # Y's reduce beats the shift
        ("na_lo", None),             # the shift beats Y's reduce
        ("na_lt", None),             # same nonassoc level: an error too
        (None, "shift/reduce"),      # no precedence to resolve with
    ])
    def test_both_orders_agree(self, y_prec, expected):
        first, second = (self.outcome(nonassoc_pair_grammar(x_first, y_prec))
                         for x_first in (True, False))
        assert first == second
        if expected is None:
            assert first == "accepted"
        else:
            assert len(first) == 1 and first[0].startswith(expected)


class TestDriver:
    def test_full_consumption_required(self):
        with pytest.raises(ParseError):
            parse_value(expr_grammar(), "TestE", "1 + 2 junk")

    def test_prefix_parse(self):
        g = expr_grammar()
        tables = build_tables(g)
        parser = Parser(tables, ParserContext())
        value, consumed = parser.parse("TestE", scan("1 + 2 ; x"),
                                       allow_prefix=True)
        assert value == 3
        assert consumed == 3

    def test_prefix_parse_with_offset(self):
        g = expr_grammar()
        tables = build_tables(g)
        parser = Parser(tables, ParserContext())
        tokens = scan("1 + 2 ; 4 * 5")
        _, consumed = parser.parse("TestE", tokens, allow_prefix=True)
        value, _ = parser.parse("TestE", tokens, allow_prefix=True,
                                offset=consumed + 1)
        assert value == 20

    def test_error_reports_expectations(self):
        with pytest.raises(ParseError) as exc:
            parse_value(expr_grammar(), "TestE", "1 +")
        assert "IntLit" in str(exc.value)

    def test_error_reports_location(self):
        with pytest.raises(ParseError) as exc:
            parse_value(expr_grammar(), "TestE", "1 + +")
        assert exc.value.location.column == 5

    def test_unknown_start_symbol(self):
        tables = build_tables(expr_grammar())
        with pytest.raises(KeyError):
            Parser(tables, ParserContext()).parse("Nope", scan("1"))

    def test_empty_input_rejected_for_nonnullable(self):
        with pytest.raises(ParseError):
            parse_value(expr_grammar(), "TestE", "")


class TestMultiStart:
    def test_separate_eof_per_start(self):
        # Two starts whose follow sets would collide under a shared EOF.
        g = Grammar("ms")
        X = nonterminal("TestX_ms")
        Y = nonterminal("TestY_ms")
        g.add_production(X, ["Identifier"], tag="ms_x", internal=True,
                         action=lambda ctx, v: ("x", v[0].text))
        g.add_production(Y, [X], tag="ms_y", internal=True,
                         action=lambda ctx, v: ("y", v[0]))
        g.declare_start(X, Y)
        tables = build_tables(g)
        parser = Parser(tables, ParserContext())
        assert parser.parse("TestX_ms", scan("a"))[0] == ("x", "a")
        assert parser.parse("TestY_ms", scan("a"))[0] == ("y", ("x", "a"))


class TestTableCache:
    def test_tables_cached_by_fingerprint(self):
        from repro.lalr import tables_for

        g = expr_grammar()
        first = tables_for(g)
        second = tables_for(g)
        assert first is second

    def test_grammar_extension_invalidates(self):
        from repro.lalr import tables_for

        g = expr_grammar()
        first = tables_for(g)
        E = nonterminal("TestE")
        g.add_production(E, ["(", E, ")"], tag="te_paren", internal=True,
                         action=lambda ctx, v: v[1])
        second = tables_for(g)
        assert first is not second
