"""Types, bound arithmetic, traversal helpers and typechecking."""

import pytest
from hypothesis import given, strategies as st

from fdl.core import (
    BOOL, Add, AddConst, And, Apply, Atom, Choose, Exists, FiniteType, Forall,
    FuncDecl, Ite, Lit, Model, Mul, Not, TypeError_, TypeExpr, Var,
    enumerate_domain, eval_bound, free_vars, has_choose, nat,
    nondeterministic_funcs, rename_apart, resolve_model, subst,
    typecheck_formula, typecheck_model, walk,
)
from fdl.evaluator import check_validity


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


def test_subst_respects_binders():
    f = Exists('x', nat(2), _lt(Var('x'), Var('y')))
    g = subst(f, {'y': Lit(1), 'x': Lit(9)})
    assert g == Exists('x', nat(2), _lt(Var('x'), Lit(1)))


def test_rename_apart_makes_binders_unique():
    inner = Exists('x', nat(1), _lt(Var('x'), Var('x')))
    f = Forall('x', nat(1), And(inner, inner))
    g = rename_apart(f)
    names = [n.var for n in walk(g) if hasattr(n, 'var')]
    assert len(names) == len(set(names)) == 3
    assert free_vars(g) == set()


def test_rename_apart_preserves_meaning():
    f = Forall('x', nat(2), Exists('x', nat(2), Atom('=', Var('x'), Lit(2))))
    v1, _ = check_validity(f)
    v2, _ = check_validity(rename_apart(f))
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
