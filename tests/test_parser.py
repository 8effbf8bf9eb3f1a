"""Concrete syntax: tokens, precedence, models, diagnostics, printing."""

import pytest

from fdl.core import (
    Add, And, Atom, Exists, Forall, Implies, Lit, Mul, Not, Or,
    Var, nat, resolve_model, typecheck_model, walk,
)
from fdl.parser import (
    ParseError, parse_formula, parse_model, print_formula, print_term,
    tokenize,
)

from conftest import CHOOSE_SRC, CONTRACT_SRC, CYCLE4_SRC


# -- tokens ---------------------------------------------------------------------


def test_tokenize_symbols_and_idents():
    kinds = [t.kind for t in tokenize('x1 <= 2 /\\ y => z <=> true')]
    assert kinds == ['ident', '<=', 'number', '/\\', 'ident', '=>',
                     'ident', '<=>', 'keyword', 'eof']


def test_tokenize_skips_both_comment_styles():
    toks = tokenize('1 # hash to eol\n2 // slashes to eol\n3')
    assert [t.text for t in toks if t.kind == 'number'] == ['1', '2', '3']


def test_tokenize_positions_are_one_based():
    t = tokenize('  foo')[0]
    assert t.pos == (1, 3)


def test_tokenize_rejects_stray_character():
    with pytest.raises(ParseError) as ei:
        tokenize('x ~ y')
    assert 'unexpected character' in str(ei.value)


def test_tokenize_keeps_unicode_words_and_decimal_digits():
    toks = tokenize("\u00e9t\u00e9' \u0663\u0661")  # ete', Arabic-Indic 31
    assert [(t.kind, t.text, t.pos) for t in toks] == [
        ('ident', "\u00e9t\u00e9'", (1, 1)),
        ('number', '\u0663\u0661', (1, 6)), ('eof', '', (1, 8))]
    assert parse_model('theorem t <=> \u0663 = 3;').theorems['t'] == Atom(
        '=', Lit(3), Lit(3))


@pytest.mark.parametrize('text, pos', [
    ('1\u00b2', (1, 2)),  # a superscript digit, which int() cannot read
    ('x \u00bd', (1, 3)),  # a vulgar fraction, numeric but not a digit
])
def test_tokenize_rejects_a_digit_that_is_not_decimal(text, pos):
    with pytest.raises(ParseError) as ei:
        tokenize(text)
    assert ei.value.diagnostics[0].pos == pos
    assert 'unexpected character' in str(ei.value)


@pytest.mark.parametrize('text, pos', [
    ('x', (1, 2)), ('x  ', (1, 4)), ('x  # note', (1, 4)),
    ('x // note', (1, 3)), ('x\n', (2, 1)), ('x\n\t// note', (2, 2)),
    ('', (1, 1)), ('\\/', (1, 3)),
])
def test_tokenize_end_is_after_the_last_character_outside_comments(text,
                                                                    pos):
    assert tokenize(text)[-1].pos == pos


# -- formula grammar ------------------------------------------------------------


def _pf(text, ctx=None):
    return parse_formula(text, ctx or {'x': nat(3), 'y': nat(3), 'z': nat(3)})


def test_precedence_and_binds_tighter_than_or():
    f = _pf('x = 0 \\/ y = 0 /\\ z = 0')
    assert isinstance(f, Or) and isinstance(f.parts[1], And)


def test_precedence_implies_binds_looser_than_or():
    f = _pf('x = 0 \\/ y = 0 => z = 0')
    assert isinstance(f, Implies) and isinstance(f.parts[0], Or)


def test_implies_is_right_associative():
    # one node whose parts are the premises, then the conclusion
    f = _pf('x = 0 => y = 0 => z = 0')
    assert isinstance(f, Implies) and f.parts == [
        _pf('x = 0'), _pf('y = 0'), _pf('z = 0')]


def test_negation_is_prefix_tight():
    f = _pf('!x = 0 /\\ y = 0')
    assert isinstance(f, And) and isinstance(f.parts[0], Not)


def test_quantifier_body_extends_right():
    f = parse_formula('forall a: nat[3]. a = 0 \\/ a > 0', {})
    assert isinstance(f, Forall) and isinstance(f.body, Or)


@pytest.mark.parametrize('op, cls', [('/\\', And), ('\\/', Or),
                                     ('=>', Implies)])
def test_a_chain_is_one_node_and_a_parenthesized_right_part_nests(op, cls):
    texts = [t.replace('&', op) for t in (
        'x = 1 & y = 2 & z <= 3', '(x = 1 & y = 2) & z <= 3',
        'x = 1 & (y = 2 & z <= 3)')]
    flat, left, right = map(_pf, texts)
    atoms = [_pf('x = 1'), _pf('y = 2'), _pf('z <= 3')]
    assert flat == cls(atoms) and type(flat.parts) is list
    assert right == cls([atoms[0], cls(atoms[1:])]) != flat
    # the node is at the chain's root operator; inner ones leave no trace
    if cls is Implies:  # nests to the right: its root is its first operator
        assert left == cls([cls(atoms[:2]), atoms[2]]) != flat
        assert (flat.pos, left.pos, right.pos) == ((1, 7), (1, 18), (1, 7))
    else:  # nests to the left: its root is its last operator
        assert left == flat
        assert (flat.pos, left.pos, right.pos) == ((1, 16), (1, 18), (1, 7))
    printed = [texts[0], texts[1] if cls is Implies else texts[0], texts[2]]
    for f, text in zip((flat, left, right), printed):
        assert print_formula(f) == text
        assert _pf(text) == f


def test_multi_binder_sugar_nests():
    f = parse_formula('exists a: nat[1], b: nat[2]. a = b', {})
    assert isinstance(f, Exists) and isinstance(f.body, Exists)
    assert f.ty == nat(1) and f.body.ty == nat(2)


def test_flipped_comparisons_normalize():
    f = _pf('x > y')
    assert f == Atom('<', Var('y'), Var('x'))
    g = _pf('x >= y')
    assert g == Atom('<=', Var('y'), Var('x'))


def test_plus_literal_is_an_add_of_a_lit():
    f = _pf('x + 1 = y + z')
    assert f.lhs == Add(Var('x'), Lit(1)) and f.rhs == Add(Var('y'), Var('z'))


def test_product_binds_tighter_than_sum():
    f = _pf('x + y * z = 0')
    assert isinstance(f.lhs, Add) and isinstance(f.lhs.rhs, Mul)


def test_if_then_else_and_choose_terms():
    f = _pf('(if x < y then 0 else 1) = (choose c: nat[3] with c <= x)')
    assert f.lhs.__class__.__name__ == 'Ite'
    assert f.rhs.__class__.__name__ == 'Choose'


def test_parenthesized_formula_vs_comparison():
    f = _pf('(x = 0)')
    assert isinstance(f, Atom)
    g = _pf('(x + y) * z = 0')
    assert isinstance(g.lhs, Mul)


def test_parse_formula_typechecks():
    with pytest.raises(ParseError) as ei:
        parse_formula('q = 0', {})
    assert 'unbound' in str(ei.value)


def test_parse_formula_reports_position():
    with pytest.raises(ParseError) as ei:
        _pf('x = ')
    d = ei.value.diagnostics[0]
    assert d.pos is not None


# -- models ---------------------------------------------------------------------


def test_parse_model_cycle4():
    m = resolve_model(parse_model(CYCLE4_SRC))
    assert m.params == {'N': 2}
    assert m.types['D'] == nat(3)
    assert typecheck_model(m) == []
    g = m.theorems['noCycle']
    depth = 0
    while isinstance(g, Forall):
        depth, g = depth + 1, g.body
    assert depth == 4


def test_parse_model_contract_and_choose():
    mc = resolve_model(parse_model(CONTRACT_SRC))
    assert mc.funcs['f'].is_contract()
    assert typecheck_model(mc) == []
    mp = resolve_model(parse_model(CHOOSE_SRC))
    assert mp.funcs['pick'].body is not None
    assert typecheck_model(mp) == []


def test_parse_model_override_changes_bounds():
    m = resolve_model(parse_model(CYCLE4_SRC), {'N': 4})
    assert m.types['D'] == nat(15)


def test_parse_model_collects_multiple_diagnostics():
    bad = 'val N: nat = ;\ntype D = nat[;\ntheorem t <=> true;'
    with pytest.raises(ParseError) as ei:
        parse_model(bad)
    assert len(ei.value.diagnostics) >= 2


def test_parse_model_recovers_at_semicolons():
    src = 'val N: nat = ;\nval M: nat = 3;'
    with pytest.raises(ParseError) as ei:
        parse_model(src)
    assert len(ei.value.diagnostics) == 1


# -- printing round-trips ---------------------------------------------------------


@pytest.mark.parametrize('text', [
    'x = 0 \\/ y = 0 /\\ z = 0',
    'x = 0 => y = 0 => z = 0',
    '!(x < y) <=> x >= y',
    'forall a: nat[3]. exists b: nat[3]. a < b \\/ a = 3',
    'x + 1 <= y * z + 2',
    '(if x < y then x else y) <= x',
    '(choose c: nat[3] with c <= x) <= x',
    'true /\\ !false',
])
def test_print_parse_round_trip(text):
    ctx = {'x': nat(3), 'y': nat(3), 'z': nat(3)}
    f = parse_formula(text, ctx)
    assert parse_formula(print_formula(f), ctx) == f


@pytest.mark.parametrize('text', [
    # types as written: a named type and bounds over a parameter
    'forall x: D, y: nat[N * 2 + 1]. '
    '(choose z: nat[(N - 1) ^ 2] with z <= x) <= y',
    'exists b: bool. b = true',
])
def test_print_parse_round_trip_of_an_unresolved_goal(text):
    decls = 'val N: nat = 2; type D = nat[3]; '
    goal = parse_model(decls + 'theorem t <=> %s;' % text).theorems['t']
    assert print_formula(goal) == text
    again = parse_model(decls + 'theorem t <=> %s;' % print_formula(goal))
    assert again.theorems['t'] == goal


def test_random_goal_round_trip():
    from fdl.randgen import random_goal
    for seed in range(80):
        goal = random_goal(seed)
        assert parse_formula(print_formula(goal), {}) == goal


@pytest.mark.parametrize('text, lits', [
    ('x + 2', [(2, (1, 5))]),
    ('2 + x', [(2, (1, 1))]),
    ('x + 2 + 3', [(2, (1, 5)), (3, (1, 9))]),
])
def test_sum_with_a_literal_round_trips_with_the_literals_positions(text,
                                                                    lits):
    # the Add has the position of its +, each Lit that of its token
    ctx = {'x': nat(3)}
    t = parse_formula(text + ' = 0', ctx).lhs
    assert print_term(t) == text
    again = parse_formula(print_term(t) + ' = 0', ctx).lhs
    assert again == t
    for node in (t, again):
        found = [(n.value, n.pos) for n in walk(node) if isinstance(n, Lit)]
        assert found == lits
        plus = [n.pos for n in walk(node) if isinstance(n, Add)]
        assert sorted(plus) == [(1, i + 1) for i, c in enumerate(text)
                                if c == '+']


def test_print_term_minimal_parens():
    ctx = {'x': nat(3), 'y': nat(3)}
    f = parse_formula('x * (y + 1) = 0', ctx)
    assert print_term(f.lhs) == 'x * (y + 1)'
