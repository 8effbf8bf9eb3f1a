"""The one operator table: printed parentheses, and parse trees with their
positions pinned over a fixed corpus."""

import json

import pytest

from corpus_digest import TESTS, parse_corpus, parse_digest
from fdl.core import nat
from fdl.parser import ParseError, parse_formula, print_formula

CTX = {'x': nat(3), 'y': nat(3)}
BINARY = ['<=>', '=>', '\\/', '/\\', '<', '+', '*']
TAKES_TERMS = {'<', '+', '*'}
# a quantifier only ever stands left of an operator, where its body would
# otherwise extend over the operator; ! only right of one
LEAVES = {False: ('forall a: nat[1]. a <= x', '!x = y'), True: ('x', 'y')}


def _apply(op, lhs, rhs):
    return '(%s) %s (%s)' % (lhs, op, rhs)


def _nested(outer, inner, side):
    """Fully parenthesized formula of inner nested as the left or right
    operand of outer, where a term stands as the left side of a comparison
    when a formula is required; None where a formula would be a term
    operand."""
    terms = outer in TAKES_TERMS
    if terms and inner not in ('+', '*'):
        return None
    text = _apply(inner, *LEAVES[inner in TAKES_TERMS])
    if not terms and inner in ('+', '*'):
        text = _apply('=', text, 'x')
    lhs, rhs = LEAVES[terms]
    if side == 'left':
        text = _apply(outer, text, rhs)
    else:
        text = _apply(outer, lhs, text)
    return _apply('=', text, 'x') if outer in ('+', '*') else text


def _paren_pairs(text):
    stack = []
    for i, c in enumerate(text):
        if c == '(':
            stack.append(i)
        elif c == ')':
            yield stack.pop(), i


NESTINGS = [(outer, inner, side) for outer in BINARY for inner in BINARY
            for side in ('left', 'right') if _nested(outer, inner, side)]


@pytest.mark.parametrize('outer,inner,side', NESTINGS)
def test_printer_parenthesizes_only_where_the_table_requires(outer, inner,
                                                             side):
    f = parse_formula(_nested(outer, inner, side), CTX)
    printed = print_formula(f)
    assert parse_formula(printed, CTX) == f
    for i, j in _paren_pairs(printed):
        dropped = printed[:i] + printed[i + 1:j] + printed[j + 1:]
        try:
            assert parse_formula(dropped, CTX) != f, printed
        except ParseError:
            pass


# For each model text of a fixed corpus (models/*.fdl, the `*_SRC` texts of
# tests/, fuzztext seed 1 x 500 and randgen seeds 0-199 printed as
# one-theorem models), the sha256 of corpus_digest.dump of the parsed Model,
# every node's pos included, or 'rejected'. Recorded from the recursive-
# descent parser that precedence climbing replaced. A row may change only
# with the syntax it pins; texts added to tests/ later have no row.
GOLDEN = TESTS / 'parse_golden.json'


def golden_corpus():
    return parse_corpus(fuzz_seeds=(1,), fuzz_count=500,
                        randgen_seeds=range(200))


def test_trees_and_positions_match_the_recorded_table():
    table = json.loads(GOLDEN.read_text())
    got = {key: parse_digest(text) for key, text in golden_corpus()}
    assert len(table) == 716
    assert {key: got.get(key) for key in table} == table
