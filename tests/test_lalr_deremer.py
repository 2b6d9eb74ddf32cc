"""DeRemer–Pennello lookaheads against the propagation-algorithm oracle.

The product generator (``repro.lalr.tables``) must emit exactly the
tables the textbook construction (``tests/lalr_reference.py``) emits:
every ACTION/GOTO entry, and for a conflicted grammar the same
``ConflictError.conflicts`` in the same order.  The one exception,
contexts that only an underivable ("barren") nonterminal can follow,
is pinned by ``test_barren_context_divergence``.
"""

import sys
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core import CompileEnv
from repro.grammar import Assoc, Grammar, nonterminal
from repro.javalang import base_grammar
from repro.lalr import ConflictError, build_tables
from repro.lalr.encoded import EncodedGrammar
from repro.lalr.tables import REDUCE
from repro.macros import Collect, ForEach, Typedef
from tests.lalr_reference import ReferenceTables


def outcome(generate, grammar):
    """``("tables", action, goto)`` or ``("conflicts", [...])``."""
    try:
        tables = generate(grammar)
    except ConflictError as exc:
        return ("conflicts", exc.conflicts)
    return ("tables", tables.action, tables.goto)


def assert_same_tables(grammar):
    product = outcome(build_tables, grammar)
    assert product == outcome(ReferenceTables, grammar)
    return product


class TestMacroLibraryGrammars:
    def test_base_grammar(self):
        assert assert_same_tables(base_grammar())[0] == "tables"

    @pytest.mark.parametrize("chain", [
        (ForEach,), (Typedef,), (Collect,), (ForEach, Typedef),
    ], ids=lambda chain: "+".join(m.__name__ for m in chain))
    def test_extension_chain(self, chain):
        env = CompileEnv()
        for metaprogram in chain:
            metaprogram().run(env)
        assert len(env.grammar.productions) > len(base_grammar().productions)
        assert assert_same_tables(env.grammar)[0] == "tables"

    def test_conflicting_extension(self):
        # The grammar behind tests/golden/module_conflict.txt.
        grammar = base_grammar().copy()
        grammar.add_production("Statement", ["gadget", "Statement"])
        grammar.add_production("Statement", ["gadget", "gadget", "Statement"])
        kind, conflicts = assert_same_tables(grammar)
        assert kind == "conflicts"
        assert [c.split(" in state")[0] for c in conflicts] == [
            "reduce/reduce on 'else'",
            "reduce/reduce on 'while'",
            "reduce/reduce on '$eof:Statement'",
        ]


# -- random small grammars ----------------------------------------------------

NONTERMINALS = [nonterminal(f"DpN{i}") for i in range(5)]
TERMINALS = [f"dp_t{i}" for i in range(4)]


@st.composite
def small_grammars(draw):
    """Up to five nonterminals over up to four terminals: ε-productions,
    unit cycles, extra start symbols, %prec overrides, and precedence
    levels of every associativity (nonassoc included)."""
    nts = NONTERMINALS[:draw(st.integers(1, len(NONTERMINALS)))]
    ts = TERMINALS[:draw(st.integers(1, len(TERMINALS)))]
    grammar = Grammar("dp-random")
    unranked = draw(st.permutations(ts))
    while unranked and draw(st.booleans()):
        size = draw(st.integers(1, len(unranked)))
        grammar.precedence.declare(
            draw(st.sampled_from(list(Assoc))), *unranked[:size])
        unranked = unranked[size:]
    symbols = [nt.name for nt in nts] + ts
    for nt in nts:
        for _ in range(draw(st.integers(1, 3))):
            rhs = draw(st.lists(st.sampled_from(symbols), max_size=4))
            prec = draw(st.none() | st.sampled_from(ts))
            # The tag keys the global production intern table, so it
            # must distinguish %prec variants of the same rule.
            grammar.add_production(
                nt, rhs, tag=f"dp:{nt.name}:{' '.join(rhs)}:{prec}",
                prec=prec, internal=True)
    grammar.declare_start(nts[0])
    for nt in nts[1:]:
        if draw(st.booleans()):
            grammar.declare_start(nt)
    return grammar


def barren_nonterminals(grammar):
    """Right-hand-side nonterminals that derive neither ε nor any string
    starting with a terminal (no productions, or only left-recursive
    ones): FIRST is empty and the symbol is not nullable."""
    encoded = EncodedGrammar(grammar)
    return {
        encoded.name(symbol)
        for _, rhs in encoded.productions for symbol in rhs
        if not encoded.first[symbol] and symbol not in encoded.nullable
    }


@given(small_grammars())
@settings(max_examples=300, deadline=None)
def test_random_grammars_match_reference(grammar):
    # See test_barren_context_divergence for the one grammar class the
    # two generators are not meant to agree on.
    assume(not barren_nonterminals(grammar))
    assert_same_tables(grammar)


def test_barren_context_divergence():
    """Where the generators differ: contexts only a barren symbol follows.

    ``P -> A Barren`` with ``Barren`` underivable: no input ever
    completes an ``A`` here, so the context is dead.  The propagation
    algorithm gives the ``A`` items an empty lookahead set and never
    expands them, so ``C -> ε`` gets no reduce action in the start
    state.  DeRemer–Pennello is defined over the LR(0) automaton and
    gives ``C -> ε`` its lookahead ``d``.  Both tables reject every
    input that enters the context; only the error position differs.
    The macro library's grammars are identical under both (the tests
    above).
    """
    grammar = Grammar("dp-barren")
    s, p, a, c, barren = (nonterminal(f"DpBarren{n}") for n in "SPACX")
    grammar.add_production(s, [p], internal=True)
    grammar.add_production(s, ["dp_x"], internal=True)
    grammar.add_production(p, [a, barren], internal=True)
    grammar.add_production(a, [c, "dp_d"], internal=True)
    grammar.add_production(c, [], internal=True)
    grammar.declare_start(s)
    assert barren_nonterminals(grammar) == {"DpBarrenX"}

    product, reference = build_tables(grammar), ReferenceTables(grammar)
    start = product.start_state("DpBarrenS")
    d = product.symbol_id("dp_d")
    assert product.goto == reference.goto
    assert d not in reference.action[start]
    assert product.production(product.action[start][d][1]).lhs is c
    reference.action[start][d] = product.action[start][d]
    assert product.action == reference.action


# -- deep relations --------------------------------------------------------------

DEPTH = 5000


def deep_grammar():
    """``includes`` and ``reads`` chains ``DEPTH`` long.

    ``A_i -> A_{i+1} N`` (``N`` nullable) chains ``includes`` through
    the start state; ``B_i -> N B_{i+1}`` with ``B_DEPTH -> ε`` chains
    both ``reads`` (each ``N`` transition reads the next) and
    ``includes`` (each ``B`` is the nullable tail of the one before).
    """
    grammar = Grammar("deep")
    tail = nonterminal("DeepN")
    a = [nonterminal(f"DeepA{i}") for i in range(DEPTH + 1)]
    b = [nonterminal(f"DeepB{i}") for i in range(DEPTH + 1)]
    start = nonterminal("DeepS")
    grammar.add_production(start, [a[0], "deep_y"], internal=True)
    # Deepest links first: EncodedGrammar's round-robin FIRST/nullable
    # fixpoint then settles in one pass instead of DEPTH passes.
    for i in reversed(range(DEPTH)):
        grammar.add_production(a[i], [a[i + 1], tail], internal=True)
        grammar.add_production(b[i], [tail, b[i + 1]], internal=True)
    grammar.add_production(a[DEPTH], [b[0]], internal=True)
    grammar.add_production(b[DEPTH], [], internal=True)
    grammar.add_production(tail, [], internal=True)
    grammar.declare_start(start)
    return grammar


def test_deep_relations_need_no_recursion_headroom():
    grammar = deep_grammar()
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # CPython's default
    try:
        tables = build_tables(grammar)
    finally:
        sys.setrecursionlimit(previous)
    y = tables.symbol_id("deep_y")
    # 'deep_y' follows the whole chain, so every A, B and N reduction
    # sees it, B_DEPTH -> ε included: the lookahead crossed every link.
    reduced_on_y = Counter(
        tables.production(actions[y][1]).lhs.name.rstrip("0123456789")
        for actions in tables.action
        if actions.get(y, ("",))[0] == REDUCE)
    assert reduced_on_y == {
        "DeepA": DEPTH + 1, "DeepB": DEPTH + 1, "DeepN": 2 * DEPTH}
