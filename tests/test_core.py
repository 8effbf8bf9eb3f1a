"""Types, bound arithmetic, traversal helpers and typechecking."""

import dataclasses
import importlib
import inspect
import pathlib
import pkgutil

import pytest
from hypothesis import given, strategies as st

import fdl
from fdl import core
from fdl.core import (
    BOOL, Add, And, Apply, Atom, Choose, Exists, FalseF, FiniteType,
    Forall, Formula, FuncDecl, Iff, Implies, Ite, Lit, Model, Mul, Not, Or,
    Term, TrueF, TypeChecker, TypeError_, TypeExpr, Var, _children, _rebuild,
    definitional_funcs, enumerate_domain, eval_bound, free_vars, has_choose,
    nat, nondeterministic_funcs, resolve_model, subst,
    typecheck_formula, typecheck_model, walk,
)
from fdl.evaluator import check_validity
from fdl.parser import parse_model
from fdl.translate import TranslateStats


# -- finite types --------------------------------------------------------------


# bits: the bits that encode the carrier, 0 for a singleton; the width of
# the type's sort is at least 1
@pytest.mark.parametrize('bound, size, bits', [
    (0, 1, 0), (1, 2, 1), (2, 3, 2), (3, 4, 2), (7, 8, 3), (8, 9, 4),
])
def test_nat_size_and_width(bound, size, bits):
    ty = nat(bound)
    assert ty.size() == size
    assert ty.width == max(1, bits)


def test_bool_type():
    assert BOOL.size() == 2
    assert BOOL.width == 1
    assert list(enumerate_domain(BOOL)) == [False, True]


def test_nat_carrier_is_inclusive_ascending():
    assert list(enumerate_domain(nat(3))) == [0, 1, 2, 3]
    assert nat(5).value_at(5) == 5


@given(st.integers(min_value=0, max_value=10_000))
def test_width_is_enough_bits(bound):
    ty = nat(bound)
    assert 2 ** ty.width >= ty.size()
    assert ty.width == 1 or 2 ** (ty.width - 1) < ty.size()


# -- bound expressions ----------------------------------------------------------


def test_eval_bound_arithmetic():
    e = ('-', ('^', ('num', 2), ('var', 'N')), ('num', 1))
    assert eval_bound(e, {'N': 6}) == 63
    assert eval_bound(('*', ('num', 3), ('+', ('num', 1), ('num', 2))), {}) == 9


def test_eval_bound_unknown_parameter():
    with pytest.raises(TypeError_):
        eval_bound(('var', 'M'), {'N': 1})


def test_eval_bound_rejects_a_negative_exponent():
    # 2^-1 is 0.5, no bound; 0^0 is 1
    e = ('^', ('num', 2), ('-', ('var', 'N'), ('num', 3)))
    with pytest.raises(TypeError_, match='negative exponent -1 in type bound'):
        eval_bound(e, {'N': 2})
    assert eval_bound(e, {'N': 3}) == 1
    assert eval_bound(('^', ('num', 0), ('num', 0)), {}) == 1


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
    return [x, one, Add(x, one), Mul(x, one),
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


# The fields dataclasses.fields reports, in order, of the node classes:
# perfbench's determinize rebuilds nodes by them.
NODE_FIELDS = {
    Var: 'name pos', Lit: 'value pos', Add: 'lhs rhs pos',
    Mul: 'lhs rhs pos', Ite: 'cond then els pos',
    Choose: 'var ty body pos', Apply: 'func args pos', TrueF: 'pos',
    FalseF: 'pos', Atom: 'rel lhs rhs pos', Not: 'body pos',
    And: 'parts pos', Or: 'parts pos', Implies: 'parts pos',
    Iff: 'lhs rhs pos', Forall: 'var ty body pos', Exists: 'var ty body pos',
    Term: '', Formula: '',
}
# The fields, in order, of the other records whose fields code outside the
# package reads (tests/corpus_digest.py dumps the parse and the stats): plain
# records, which list them in __match_args__.
RECORD_FIELDS = {
    FuncDecl: 'name params result body ensures pos',
    Model: 'params types funcs theorems', TypeExpr: 'kind name bound_expr',
    FiniteType: 'kind bound',
    TranslateStats: 'goal_conjuncts skolem_range_conjuncts '
                    'choose_axiom_conjuncts type_constraint_conjuncts '
                    'skolem_symbols expanded_instances estimate_skolem '
                    'estimate_expansion contracts_as_definitions',
}


def test_records_keep_their_dataclass_fields_and_constructors():
    assert {type(n) for n in _one_of_each_node_class()} <= set(NODE_FIELDS)
    for cls, names in NODE_FIELDS.items():
        assert [f.name for f in dataclasses.fields(cls)] == names.split()
        assert cls.__match_args__ == tuple(names.split())
        if names:  # the constructor takes the fields, in order
            assert list(inspect.signature(cls).parameters) == names.split()
    for n in _one_of_each_node_class():  # as perfbench's determinize does
        kwargs = {f.name: getattr(n, f.name) for f in dataclasses.fields(n)}
        assert type(n)(**kwargs) == n and type(n)(*kwargs.values()) == n


def test_every_way_of_building_a_junction_builds_one_node():
    # perfbench's determinize calls And(body, Forall(...)) and rebuilds
    # nodes as type(node)(**fields); _rebuild passes the fields in order.
    # Each takes apart a first part of the node's class, and only that one.
    a, b, c = (_lt(Var('x'), Lit(i)) for i in (1, 2, 3))
    for cls in (And, Or):
        want = cls([a, b, c], pos=(1, 9))
        first_ab = lambda n, ctx: cls(a, b) if n is a else n  # noqa: E731
        built = [cls(cls(a, b), c),
                 cls(**{'parts': [cls(a, b), c], 'pos': (1, 9)}),
                 _rebuild(cls([a, c], pos=(1, 9)), first_ab, None)]
        assert built == [want] * 3
        assert [type(n.parts) for n in built] == [list] * 3
        assert [n.pos for n in built] == [None, (1, 9), (1, 9)]
        right = cls(a, cls(b, c))
        assert right.parts == [a, cls(b, c)] and right != want
        other = And if cls is Or else Or
        assert cls(other(a, b), c).parts == [other(a, b), c]
    # Implies is built the same three ways but takes no part apart: its
    # chains nest to the right, so (a => b) => c has two parts
    want = Implies([a, b, c], pos=(1, 9))
    first_ab = lambda n, ctx: Implies(a, b) if n is a else n  # noqa: E731
    left = _rebuild(Implies([a, c], pos=(1, 9)), first_ab, None)
    assert Implies(**{'parts': [a, b, c], 'pos': (1, 9)}) == want
    assert Implies(a, b).parts == [a, b] and Implies(a, b).pos is None
    assert left.parts == [Implies(a, b), c] and left.pos == (1, 9)
    assert Implies(a, Implies(b, c)).parts == [a, Implies(b, c)] != want.parts


def test_other_records_are_plain_and_list_their_fields():
    for cls, names in RECORD_FIELDS.items():
        assert not dataclasses.is_dataclass(cls)
        assert cls.__match_args__ == tuple(names.split())
        # the constructor takes the fields, in order
        assert list(inspect.signature(cls).parameters) == names.split()
    fd = FuncDecl('f', [('p', BOOL)], BOOL, body=Var('p'), pos=(1, 1))
    te = TypeExpr('nat', bound_expr=('num', 3))
    for r in (fd, te, Model(), nat(3), TranslateStats(goal_conjuncts=1)):
        kwargs = {n: getattr(r, n) for n in r.__match_args__}
        assert type(r)(**kwargs) == r and type(r)(*kwargs.values()) == r
    assert Model().funcs == {} and Model().funcs is not Model().funcs
    stats = TranslateStats(), TranslateStats()
    assert stats[0].skolem_symbols == [] and stats[0] == stats[1]
    assert stats[0].skolem_symbols is not stats[1].skolem_symbols


def _package_classes():
    """Every class defined in one of fdl's modules."""
    names = [m.name for m in pkgutil.iter_modules(fdl.__path__)]
    for name in names:
        module = importlib.import_module('fdl.' + name)
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module.__name__:
                yield cls


def test_no_method_is_compiled_from_a_string():
    # a method that dataclasses or namedtuple generates is compiled from
    # source text, and its code's filename is '<string>'
    package = pathlib.Path(fdl.__file__).parent
    classes = list(_package_classes())
    assert FiniteType in classes and Var in classes
    for cls in classes:
        for name, v in vars(cls).items():
            code = getattr(getattr(v, '__func__', v), '__code__', None)
            if code is not None:
                assert pathlib.Path(code.co_filename).parent == package, (
                    '%s.%s' % (cls.__qualname__, name))


def test_records_compare_and_print_their_fields_but_pos():
    assert Var('x', pos=(1, 1)) == Var('x') and TrueF((2, 3)) == TrueF()
    assert Var('x') != Var('y') and TrueF() != FalseF() and Lit(1) != 1
    a = Atom('<', Var('x', (1, 1)), Add(Lit(1), Lit(2, (1, 9))), pos=(1, 3))
    assert repr(a) == ("Atom(rel='<', lhs=Var(name='x'), "
                       "rhs=Add(lhs=Lit(value=1), rhs=Lit(value=2)))")
    assert repr(Forall('x', nat(1), Not(TrueF()))) == (
        "Forall(var='x', ty=FiniteType(kind='nat', bound=1), "
        "body=Not(body=TrueF()))")
    assert repr(FuncDecl('f', [('p', BOOL)], BOOL, body=Var('p'))) == (
        "FuncDecl(name='f', params=[('p', FiniteType(kind='bool', bound=0))], "
        "result=FiniteType(kind='bool', bound=0), body=Var(name='p'), "
        "ensures=None)")
    assert repr(TypeExpr('nat', bound_expr=('num', 3))) == (
        "TypeExpr(kind='nat', name='', bound_expr=('num', 3))")
    assert repr(TranslateStats(goal_conjuncts=1)).startswith(
        'TranslateStats(goal_conjuncts=1, skolem_range_conjuncts=0, ')
    for n in _one_of_each_node_class() + [Model(), TypeExpr('bool')]:
        with pytest.raises(TypeError):
            hash(n)
    assert hash(FiniteType('nat', 3)) == hash(nat(3))
    with pytest.raises(AttributeError):
        nat(3).bound = 4
    with pytest.raises(AttributeError):
        del nat(3).kind
    assert nat(3).bound == 3 and nat(3).kind == 'nat'


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
                        body=Add(Var('x'), Lit(1))),
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
                            ensures=Atom('=', Add(p, Lit(1)), Var('result'))),
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
                         ensures=Atom('=', Var('result'), Add(p, Lit(1)))),
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
    first, second = g.parts
    assert (first.var, second.var, second.body.var) == ("z'", "x'", 'y')
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
                                        Add(Var('x'), Lit(1)), Var('x')))},
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


def test_resolve_model_rejects_a_negative_override():
    with pytest.raises(TypeError_, match="parameter 'N' is a nat, got -1"):
        resolve_model(_tiny_model(), {'N': -1})
    assert resolve_model(_tiny_model(), {'N': 0}).types['D'] == nat(0)


def test_resolve_model_requires_defaultless_params():
    m = _tiny_model()
    m.params['N'] = None
    with pytest.raises(TypeError_):
        resolve_model(m)
    assert resolve_model(m, {'N': 1}).types['D'] == nat(1)


# -- typechecking ---------------------------------------------------------------


def test_typecheck_widening_result_bounds():
    f = Atom('=', Add(Var('a'), Mul(Var('b'), Lit(3))), Lit(0))
    env = {'a': nat(3), 'b': nat(2)}
    before = [dict(vars(n)) for n in walk(f)]
    assert typecheck_formula(f, env) == []
    assert [vars(n) for n in walk(f)] == before  # no node is annotated
    tc = TypeChecker()
    assert tc.check_term(f.lhs, env) == nat(9)
    assert tc.check_term(f.lhs.rhs, env) == nat(6)
    assert tc.diags == []


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
    # x + <literal> parses to Add(x, Lit), whose operands must be numbers
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
