"""Reference LALR(1) generator: the test oracle for ``repro.lalr.tables``.

The product computes lookaheads with DeRemer–Pennello relations.  This
module keeps the textbook construction it replaced (Aho et al. 4.7.4):
probe each kernel item's LR(1) closure with a ``#`` terminal to find
spontaneous and propagated lookaheads, run propagation to a fixpoint,
then take one more LR(1) closure per state to reach the ε-items.  It is
slow but direct, and its lookahead sets are those of the generator it
replaced.  It shares only the LR(0) automaton, the integer encoding
with its FIRST/nullable sets, and the conflict resolution
(``_add_reduce``) with the product.

Both generators add reduce actions in one fixed order, so their tables
and ``ConflictError.conflicts`` compare with ``==``: per state, the
completed kernel items in kernel order, then the closure's ε-items in
grammar order, each over its lookaheads in ascending symbol id.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.lalr.automaton import item, item_parts
from repro.lalr.tables import ACCEPT, SHIFT, ConflictError, ParseTables

PROBE = -1  # the '#' probe terminal of the propagation algorithm


class ReferenceTables(ParseTables):
    """ParseTables built by spontaneous generation + propagation."""

    def _build(self) -> None:
        encoded = self.encoded
        productions = encoded.productions
        lookaheads = self._kernel_lookaheads()
        conflicts: List[str] = []
        for state, kernel in enumerate(self.automaton.states):
            actions: Dict[int, Tuple[str, int]] = {}
            gotos: Dict[int, int] = {}
            for symbol, target in self.automaton.transitions[state].items():
                if encoded.is_terminal[symbol]:
                    actions[symbol] = (SHIFT, target)
                else:
                    gotos[symbol] = target
            full = self._lr1_closure(
                {k: set(lookaheads.get((state, k), ())) for k in kernel})
            completed = [
                k for k in full
                if item_parts(k)[1] == len(productions[item_parts(k)[0]][1])
            ]
            # ``full`` lists the kernel first, in kernel order; every
            # other completed item is an ε-item, taken in grammar order.
            in_kernel = [k for k in completed if k in kernel]
            epsilon = sorted(k for k in completed if k not in kernel)
            for encoded_item in in_kernel + epsilon:
                prod_index = item_parts(encoded_item)[0]
                eof_id = encoded.eof_of_production.get(prod_index)
                if eof_id is not None:
                    actions[eof_id] = (ACCEPT, prod_index)
                    continue
                for la in sorted(full[encoded_item] - {PROBE}):
                    self._add_reduce(state, actions, la, prod_index, conflicts)
            self.action.append(actions)
            self.goto.append(gotos)
        if conflicts:
            raise ConflictError(conflicts)

    def _first_of_suffix(self, prod_index: int, dot: int) -> Tuple[Set[int], bool]:
        """FIRST of rhs[dot:], plus whether the suffix is nullable."""
        encoded = self.encoded
        out: Set[int] = set()
        for symbol in encoded.productions[prod_index][1][dot:]:
            out |= encoded.first[symbol]
            if symbol not in encoded.nullable:
                return out, False
        return out, True

    def _lr1_closure(self, seed: Dict[int, Set[int]]) -> Dict[int, Set[int]]:
        """LR(1) closure of items with lookahead sets (PROBE allowed)."""
        encoded = self.encoded
        items = {k: set(v) for k, v in seed.items()}
        worklist = [(k, la) for k, las in seed.items() for la in las]
        while worklist:
            encoded_item, la = worklist.pop()
            prod_index, dot = item_parts(encoded_item)
            rhs = encoded.productions[prod_index][1]
            if dot >= len(rhs) or encoded.is_terminal[rhs[dot]]:
                continue
            firsts, nullable = self._first_of_suffix(prod_index, dot + 1)
            new_las = firsts | {la} if nullable else firsts
            for next_prod in encoded.by_lhs.get(rhs[dot], ()):
                existing = items.setdefault(item(next_prod, 0), set())
                for new_la in new_las - existing:
                    existing.add(new_la)
                    worklist.append((item(next_prod, 0), new_la))
        return items

    def _kernel_lookaheads(self) -> Dict[Tuple[int, int], Set[int]]:
        """Kernel-item lookaheads via spontaneous generation + propagation."""
        automaton = self.automaton
        encoded = self.encoded
        lookaheads: Dict[Tuple[int, int], Set[int]] = {}
        propagations: Dict[Tuple[int, int], Set[Tuple[int, int]]] = {}
        for start_sym, prod_index in encoded.start_production.items():
            state = automaton.start_state[start_sym]
            lookaheads[state, item(prod_index, 0)] = {encoded.start_eof[start_sym]}
        for state, kernel in enumerate(automaton.states):
            for kernel_item in kernel:
                probe = self._lr1_closure({kernel_item: {PROBE}})
                for encoded_item, las in probe.items():
                    prod_index, dot = item_parts(encoded_item)
                    rhs = encoded.productions[prod_index][1]
                    if dot >= len(rhs):
                        continue
                    target = automaton.transitions[state][rhs[dot]]
                    key = (target, encoded_item + 1)
                    if PROBE in las:
                        propagations.setdefault(
                            (state, kernel_item), set()).add(key)
                    lookaheads.setdefault(key, set()).update(las - {PROBE})
        worklist = list(lookaheads)
        while worklist:
            source = worklist.pop()
            for target in propagations.get(source, ()):
                target_las = lookaheads.setdefault(target, set())
                if not lookaheads[source] <= target_las:
                    target_las |= lookaheads[source]
                    worklist.append(target)
        return lookaheads
