"""Types, bound arithmetic, traversal helpers and typechecking."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from fdl import core
from fdl.core import (
    BOOL, Add, AddConst, And, Apply, Atom, Choose, Exists, FalseF, FiniteType,
    Forall, Formula, FuncDecl, Iff, Implies, Ite, Lit, Model, Mul, Not, Or,
    Term, TrueF, TypeError_, TypeExpr, Var, _children, _rebuild,
    definitional_funcs, enumerate_domain, eval_bound, free_vars, has_choose,
    nat, nondeterministic_funcs, resolve_model, subst,
    typecheck_formula, typecheck_model, walk,
)
from fdl.evaluator import check_validity
from fdl.parser import parse_model


# -- finite types --------------------------------------------------------------


@pytest.mark.parametrize('bound, size, width', [
    (0, 1, 0), (1, 2, 1), (2, 3, 2), (3, 4, 2), (7, 8, 3), (8, 9, 4),
])
def test_nat_size_and_width(bound, size, width):
    ty = nat(bound)
    assert ty.size() == size
    assert ty.bit_width() == width


def test_bool_type():
    assert BOOL.size() == 2
    assert BOOL.bit_width() == 1
    assert list(enumerate_domain(BOOL)) == [False, True]
    assert BOOL.contains(True) and not BOOL.contains(2)


def test_nat_carrier_is_inclusive_ascending():
    assert list(enumerate_domain(nat(3))) == [0, 1, 2, 3]
    assert nat(3).contains(3) and not nat(3).contains(4)
    assert nat(5).value_at(5) == 5


@given(st.integers(min_value=0, max_value=10_000))
def test_width_is_enough_bits(bound):
    ty = nat(bound)
    assert 2 ** ty.bit_width() >= ty.size()
    assert ty.bit_width() == 0 or 2 ** (ty.bit_width() - 1) < ty.size()


# -- bound expressions ----------------------------------------------------------


def test_eval_bound_arithmetic():
    e = ('-', ('^', ('num', 2), ('var', 'N')), ('num', 1))
    assert eval_bound(e, {'N': 6}) == 63
    assert eval_bound(('*', ('num', 3), ('+', ('num', 1), ('num', 2))), {}) == 9


def test_eval_bound_unknown_parameter():
    with pytest.raises(TypeError_):
        eval_bound(('var', 'M'), {'N': 1})


# -- traversal helpers ----------------------------------------------------------


def _lt(a, b):
    return Atom('<', a, b)


def test_walk_and_free_vars():
    f = Forall('x', nat(3), And(_lt(Var('x'), Var('y')),
                                Not(_lt(Var('z'), Lit(2)))))
    assert free_vars(f) == {'y', 'z'}
    assert sum(1 for n in walk(f) if isinstance(n, Var)) == 3


def test_walk_and_free_vars_spend_no_frame_per_level():
    # a chain far deeper than the interpreter's recursion limit; walk keeps
    # pre-order, left before right
    f = And(_lt(Var('x'), Var('y')), _lt(Var('z'), Lit(2)))
    for _ in range(5000):
        f = Not(f)
    f = Forall('x', nat(1), f)
    nodes = list(walk(f))
    assert len(nodes) == 1 + 5000 + 7
    assert nodes[0] is f and isinstance(nodes[5000], Not)
    assert [type(n).__name__ for n in nodes[5001:]] == [
        'And', 'Atom', 'Var', 'Var', 'Atom', 'Var', 'Lit']
    assert [n.name for n in nodes if isinstance(n, Var)] == ['x', 'y', 'z']
    assert free_vars(f) == {'y', 'z'}


def _one_of_each_node_class():
    x, one = Var('x'), Lit(1)
    a = _lt(x, one)
    return [x, one, Add(x, one), AddConst(x, 2), Mul(x, one),
            Ite(a, x, one), Choose('y', nat(1), a), Apply('f', [x, one]),
            TrueF(), FalseF(), a, Not(a), And(a, TrueF()), Or(FalseF(), a),
            Implies(a, Not(a)), Iff(a, a), Forall('x', nat(1), a),
            Exists('x', nat(1), a)]


def test_children_are_the_fields_that_hold_subnodes():
    samples = _one_of_each_node_class()
    node_classes = {c for c in vars(core).values() if isinstance(c, type)
                    and issubclass(c, (Term, Formula))} - {Term, Formula}
    assert {type(n) for n in samples} == node_classes
    for n in samples:
        want = []
        for f in dataclasses.fields(n):
            v = getattr(n, f.name)
            if isinstance(v, (Term, Formula)):
                want.append(v)
            elif isinstance(v, list) and all(
                    isinstance(x, (Term, Formula)) for x in v):
                want.extend(v)
        got = list(_children(n))
        assert len(got) == len(want), type(n).__name__
        assert all(g is w for g, w in zip(got, want)), type(n).__name__


def test_traversal_calls_no_dataclasses_fields_once_warm(monkeypatch):
    from fdl.bench import BenchCase
    from fdl.translate import MODES, SmtOptions, emit_smtlib, translate
    goal, funcs = BenchCase('contract-f-eq1', 'e2a2', 1).build()
    options = [SmtOptions(mode=m, eliminate_choices=e) for m in MODES
               for e in (False, True)]
    want = [emit_smtlib(translate(goal, funcs, o)) for o in options]

    def no_fields(*args):
        raise AssertionError('dataclasses.fields called during a traversal')

    monkeypatch.setattr(core, 'fields', no_fields)
    for n in _one_of_each_node_class():
        assert list(walk(n))[0] is n
        assert _rebuild(n, lambda c, ctx: c, None) is n
    t = Apply('f', [Var('x'), Lit(1)])
    assert _rebuild(t, lambda c, ctx: ctx, Lit(0)) == Apply('f', [Lit(0), Lit(0)])
    assert [emit_smtlib(translate(goal, funcs, o)) for o in options] == want


def test_has_choose_sees_nested_terms():
    t = Add(Lit(1), Choose('c', nat(2), _lt(Var('c'), Lit(2))))
    assert has_choose(Atom('=', t, Lit(1)))
    assert not has_choose(_lt(Lit(0), Lit(1)))
    # an application counts only when its function is named as one that
    # can take several values
    applied = Atom('=', Apply('h', [Lit(0)]), Lit(1))
    assert has_choose(applied, {'h'})
    assert not has_choose(applied) and not has_choose(applied, {'g'})


def test_nondeterministic_funcs_follow_applications():
    d = nat(2)
    funcs = {
        'h': FuncDecl('h', [('p', d)], d,
                      ensures=Atom('<=', Var('result'), Var('p'))),
        'pick': FuncDecl('pick', [('x', d)], d,
                         body=Choose('y', d, Atom('<=', Var('y'), Var('x')))),
        # nondeterministic only through the contract it applies
        'viaH': FuncDecl('viaH', [('x', d)], d, body=Apply('h', [Var('x')])),
        'inc': FuncDecl('inc', [('x', d)], nat(3),
                        body=AddConst(Var('x'), 1)),
    }
    assert nondeterministic_funcs(funcs) == {'h', 'pick', 'viaH'}
    # the application of a pure definition keeps its caller pure, and the
    # set grows through chains of definitions
    funcs['twice'] = FuncDecl('twice', [('x', d)], nat(4),
                              body=Add(Apply('inc', [Var('x')]), Lit(1)))
    funcs['outer'] = FuncDecl('outer', [('x', d)], d,
                              body=Apply('viaH', [Var('x')]))
    assert nondeterministic_funcs(funcs) == {'h', 'pick', 'viaH', 'outer'}
    assert nondeterministic_funcs({}) == frozenset()


def test_definitional_funcs_rewrite_only_functional_contracts():
    d = nat(2)
    p = Var('p')
    funcs = {
        'flipped': FuncDecl('flipped', [('p', d)], nat(3),
                            ensures=Atom('=', AddConst(p, 1), Var('result'))),
        # applies a functional contract: the fixpoint makes it one too
        'k': FuncDecl('k', [('p', d)], nat(3), ensures=Atom(
            '=', Var('result'), Apply('flipped', [p]))),
        'below': FuncDecl('below', [('p', d)], d,
                          ensures=Atom('<=', Var('result'), p)),
        # applies a contract that stays one
        'viaBelow': FuncDecl('viaBelow', [('p', d)], d, ensures=Atom(
            '=', Var('result'), Apply('below', [p]))),
        'pick': FuncDecl('pick', [('x', d)], d,
                         body=Choose('y', d, Atom('<=', Var('y'), Var('x')))),
        'chosen': FuncDecl('chosen', [('p', d)], d, ensures=Atom(
            '=', Var('result'), Choose('y', d, Atom('<=', Var('y'), p)))),
        # p + 1 can leave nat[2]
        'succ': FuncDecl('succ', [('p', d)], d,
                         ensures=Atom('=', Var('result'), AddConst(p, 1))),
        'self': FuncDecl('self', [('p', d)], d, ensures=Atom(
            '=', Var('result'), Var('result'))),
    }
    out = definitional_funcs(funcs)
    assert list(out) == list(funcs)
    for name in ('flipped', 'k'):
        fd = out[name]
        assert not fd.is_contract() and fd.params is funcs[name].params
        assert fd.result == nat(3)
    assert out['flipped'].body is funcs['flipped'].ensures.lhs
    assert out['k'].body is funcs['k'].ensures.rhs
    for name in ('below', 'viaBelow', 'pick', 'chosen', 'succ', 'self'):
        assert out[name] is funcs[name], name
    # no functional contract left: the table itself
    del funcs['flipped'], funcs['k']
    assert definitional_funcs(funcs) is funcs


def test_subst_respects_binders():
    f = Exists('x', nat(2), _lt(Var('x'), Var('y')))
    g = subst(f, {'y': Lit(1), 'x': Lit(9)})
    assert g == Exists('x', nat(2), _lt(Var('x'), Lit(1)))


def test_rename_apart_makes_binders_unique():
    inner = Exists('x', nat(1), _lt(Var('x'), Var('x')))
    f = Forall('x', nat(1), And(inner, inner))
    g = subst(f, {}, set())
    names = [n.var for n in walk(g) if hasattr(n, 'var')]
    assert len(names) == len(set(names)) == 3
    assert free_vars(g) == set()


def test_rename_apart_records_the_names_it_gives_out():
    # the caller's set gains every binder's new name; a free variable is
    # avoided but not recorded
    f = And(Exists('z', nat(1), _lt(Var('z'), Lit(1))),
            Forall('x', nat(1), Exists('y', nat(1), _lt(Var('x'), Var('z')))))
    used = {'x'}
    g = subst(f, {}, used)
    assert (g.lhs.var, g.rhs.var, g.rhs.body.var) == ("z'", "x'", 'y')
    assert used == {'x', "x'", 'y', "z'"}


def test_subst_with_used_avoids_capturing_the_argument():
    # body exists y. y = p with the argument y for p: the binder is renamed
    # in the same pass, so the argument stays free
    body = Exists('y', nat(1), Atom('=', Var('y'), Var('p')))
    used = {'y'}
    g = subst(body, {'p': Var('y')}, used)
    assert g == Exists("y'", nat(1), Atom('=', Var("y'"), Var('y')))
    assert free_vars(g) == {'y'} and used == {'y', "y'"}


def test_rename_apart_preserves_meaning():
    f = Forall('x', nat(2), Exists('x', nat(2), Atom('=', Var('x'), Lit(2))))
    v1, _ = check_validity(f)
    v2, _ = check_validity(subst(f, {}, set()))
    assert v1.status == v2.status == 'valid'


# -- model resolution -----------------------------------------------------------


def _tiny_model():
    d = TypeExpr('nat', bound_expr=('-', ('^', ('num', 2), ('var', 'N')),
                                    ('num', 1)))
    ref = TypeExpr('name', name='D')
    return Model(
        params={'N': 2},
        types={'D': d},
        funcs={'inc': FuncDecl('inc', [('x', ref)], ref,
                               body=Ite(_lt(Var('x'), Lit(3)),
                                        AddConst(Var('x'), 1), Var('x')))},
        theorems={'g': Forall('x', ref, _lt(Var('x'), Lit(4)))})


def test_resolve_model_defaults_and_overrides():
    m = resolve_model(_tiny_model())
    assert m.types['D'] == nat(3)
    assert m.theorems['g'].ty == nat(3)
    m2 = resolve_model(_tiny_model(), {'N': 3})
    assert m2.types['D'] == nat(7)
    assert m2.funcs['inc'].params == [('x', nat(7))]


def test_resolve_model_rejects_unknown_override():
    with pytest.raises(TypeError_):
        resolve_model(_tiny_model(), {'M': 1})


def test_resolve_model_requires_defaultless_params():
    m = _tiny_model()
    m.params['N'] = None
    with pytest.raises(TypeError_):
        resolve_model(m)
    assert resolve_model(m, {'N': 1}).types['D'] == nat(1)


# -- typechecking ---------------------------------------------------------------


def test_typecheck_widening_result_bounds():
    f = Atom('=', Add(Var('a'), Mul(Var('b'), Lit(3))), Lit(0))
    assert typecheck_formula(f, {'a': nat(3), 'b': nat(2)}) == []
    assert f.lhs.ty == nat(9)
    assert f.lhs.rhs.ty == nat(6)


def test_typecheck_reports_unbound_variable():
    diags = typecheck_formula(_lt(Var('q'), Lit(1)), {})
    assert len(diags) == 1 and 'unbound' in diags[0].message


def test_typecheck_rejects_kind_mismatch():
    f = Atom('=', Lit(True), Lit(1))
    assert any('comparison' in d.message for d in typecheck_formula(f, {}))
    g = _lt(Lit(True), Lit(False))
    assert any('ordering' in d.message for d in typecheck_formula(g, {}))


@pytest.mark.parametrize('lit', ['true', 'false'])
def test_typecheck_rejects_a_bool_added_as_a_constant(lit):
    # x + <literal> parses to AddConst, whose constant must be a number
    text = 'type D = nat[1]; theorem t <=> forall x: D. x + %s <= 2;' % lit
    diags = typecheck_model(resolve_model(parse_model(text)))
    assert [(d.message, d.pos) for d in diags] == [
        ('arithmetic on non-numeric operands', (1, text.index('+') + 1))]


def test_typecheck_model_flags_free_variables_in_goals():
    m = Model(theorems={'bad': Atom('=', Var('loose'), Lit(0))})
    msgs = [d.message for d in typecheck_model(m)]
    assert any('free variables' in s for s in msgs)


def test_typecheck_arity_mismatch():
    from fdl.core import Apply
    fd = FuncDecl('f', [('x', nat(1))], nat(1), body=Var('x'))
    diags = typecheck_formula(Atom('=', Apply('f', []), Lit(0)), {}, {'f': fd})
    assert any('expects 1 arguments, got 0' in d.message for d in diags)


def test_typecheck_model_rejects_recursive_definition():
    ref = nat(1)
    from fdl.core import Apply
    m = Model(funcs={'f': FuncDecl('f', [('x', ref)], ref,
                                   body=Apply('f', [Var('x')]))})
    msgs = [d.message for d in typecheck_model(m)]
    assert any('cycle' in s or 'recursi' in s for s in msgs)


def test_typecheck_argument_fit():
    from fdl.core import Apply
    fd = FuncDecl('half', [('x', nat(1))], nat(1), body=Var('x'))
    f = Atom('=', Apply('half', [Lit(2)]), Lit(0))
    diags = typecheck_formula(f, {}, {'half': fd})
    assert any('does not fit' in d.message for d in diags)
