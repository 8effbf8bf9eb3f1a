"""Bit-vector translation: NNF, Skolemization, expansion, axioms, estimates."""

import dataclasses
import hashlib
import importlib
import json
import random
import re
import time

import pytest

from fdl import core, randgen
from fdl.core import (
    BOOL, Add, And, Apply, Atom, Choose, Exists, FalseF, FiniteType, Forall,
    Formula, FuncDecl, Iff, Implies, Lit, Mul, Not, Or, Term, TrueF, Var,
    _children, nat, resolve_model, walk,
)
from fdl.evaluator import check_validity
from fdl.oracle import oracle_check
from fdl.parser import parse_formula, parse_model
from fdl.randgen import random_goal
from fdl.refsolver import check_script
from fdl.solvers import decide, load_solver_configs
from fdl.translate import (
    MODES, SmtOptions, TranslateError, Translator, emit_smtlib,
    predicate_trivial, scan, translate,
)

from conftest import (
    CHOOSE_SRC, CONTRACT_SRC, DUPLICATED_ARGUMENT_SRC, ROOT, recorded_goals,
)


def _lt(a, b):
    return Atom('<', a, b)


def _emit(goal, funcs=None, **kw):
    return emit_smtlib(translate(goal, funcs, SmtOptions(**kw)))


def _tagged(text, tag):
    return [ln for ln in text.splitlines()
            if ln.startswith('(assert') and ln.endswith('; ' + tag)]


def _decls(text):
    return [ln for ln in text.splitlines() if ln.startswith('(declare-fun')]


# -- widths and triviality --------------------------------------------------------


def test_sort_width_has_floor_one():
    assert nat(0).width == 1
    assert nat(1).width == 1
    assert nat(2).width == 2
    assert nat(255).width == 8


@pytest.mark.parametrize('bound, trivial', [
    (1, True), (3, True), (7, True), (0, False), (2, False), (6, False),
])
def test_predicate_trivial_iff_carrier_fills_width(bound, trivial):
    assert predicate_trivial(nat(bound)) == trivial


def test_zero_bound_product_narrows_with_extract():
    # v * 0 : nat[0] is narrower than v, the one case where an operand
    # must shrink instead of widen
    goal = Forall('v', nat(2), Atom('<=', Mul(Var('v'), Lit(0)), Lit(0)))
    text = _emit(goal)
    assert 'extract' in text and 'zero_extend -' not in text
    assert check_script(text) == 'unsat'


# -- negation normal form ----------------------------------------------------------


def to_nnf(f, neg=False):
    """The translator's front end on f alone: its negation-normal form (of
    !f when neg), binders renamed apart."""
    return Translator().normalize(f, neg, set())[0]


def _nnf_clean(f):
    """No => in f, and ! only on an atom, true, false or a <=>; a <=> is
    written once, as (= a b), and its sides keep their connectives."""
    stack = [f]
    while stack:
        n = stack.pop()
        assert not isinstance(n, Implies)
        if isinstance(n, Not):
            assert isinstance(n.body, (Atom, TrueF, FalseF, Iff))
        if not isinstance(n, Iff):
            stack += _children(n)


def test_nnf_eliminates_implications_at_both_polarities():
    a, b = Atom('=', Var('x'), Lit(0)), _lt(Var('x'), Lit(2))
    f = Not(Implies(a, Iff(b, Not(a))))
    g = to_nnf(f)
    _nnf_clean(g)
    # the <=> is a leaf region of the normal form: !(b <=> !a) as written
    assert g == And([a, Not(Iff(b, Not(a)))])
    # so is one whose side exists y. forall z. has quantifiers of both
    # kinds, at both polarities of the => around it
    side = Exists('y', nat(1), Forall('z', nat(1), Atom('<=', Var('z'),
                                                        Var('y'))))
    for neg, cls, kids in ((False, Or, [Not, Not]), (True, And, [Iff, Iff])):
        g = to_nnf(Implies(Iff(side, a), Not(Iff(side, a))), neg)
        assert type(g) is cls and [type(p) for p in g.parts] == kids
        iffs = [n for n in walk(g) if isinstance(n, Iff)]
        assert len(iffs) == 2 and all(
            n.rhs == a and type(n.lhs) is Exists and type(n.lhs.body) is Forall
            for n in iffs)
        _nnf_clean(g)


def test_nnf_pushes_negation_through_quantifiers():
    f = Not(Forall('x', nat(3), Exists('y', nat(3), _lt(Var('x'), Var('y')))))
    g = to_nnf(f)
    assert isinstance(g, Exists) and isinstance(g.body, Forall)
    assert isinstance(g.body.body, Not)


def test_nnf_preserves_meaning_on_random_goals():
    from fdl.evaluator import check_validity
    for seed in range(60):
        goal = random_goal(seed)
        v1, _ = check_validity(goal)
        v2, _ = check_validity(to_nnf(goal))
        assert v1.status == v2.status, 'seed %d' % seed


def test_negate_goal_is_nnf_of_negation():
    goal = Forall('x', nat(3), _lt(Var('x'), Lit(3)))
    neg = to_nnf(goal, True)
    assert isinstance(neg, Exists)
    _nnf_clean(neg)


# -- <=> written once ------------------------------------------------------------


def _negated_goal(theorem, mode):
    m = resolve_model(parse_model('theorem t <=> %s;' % theorem))
    script = translate(m.theorems['t'], m.funcs, SmtOptions(mode=mode))
    return script.asserts['negated-goal']


@pytest.mark.parametrize('mode, want', [
    ('preserve', '(exists ((x (_ BitVec 2))) (not (= {0} {1})))'),
    ('expand-all', '(or %s)' % ' '.join(
        '(not (= {%d} {%d}))' % (2 * i, 2 * i + 1) for i in range(4))),
])
def test_preserve_and_expand_all_write_each_side_of_iff_once(mode, want):
    sides = ['(bvule {0} ((_ zero_extend 1) #b1))', '(bvult {0} #b10)']
    xs = ['x'] if mode == 'preserve' else ['#b00', '#b01', '#b10', '#b11']
    assert _negated_goal('forall x: nat[3]. (x <= 1 <=> x < 2)', mode) == [
        want.format(*[side.format(x) for x in xs for side in sides])]
    # a side's quantifiers stay binders in preserve and expand in
    # expand-all, whatever their kinds
    theorem = '(exists x: nat[1]. forall y: nat[1]. y <= x) <=> true'
    side = {'preserve': '(exists ((x (_ BitVec 1))) (forall ((y (_ BitVec 1)))'
                        ' (bvule y x)))',
            'expand-all': '(or (and (bvule #b0 #b0) (bvule #b1 #b0))'
                          ' (and (bvule #b0 #b1) (bvule #b1 #b1)))'}[mode]
    assert _negated_goal(theorem, mode) == ['(not (= %s true))' % side]


def test_eliminate_writes_iff_once_when_each_side_has_one_kind():
    # a universal side and an existential one: both expand under =, where
    # (!a \/ b) /\ (a \/ !b) would expand each and Skolemize each again
    assert _negated_goal(
        '(forall x: nat[1]. x <= 1) <=> (exists y: nat[1]. y = 0)',
        'eliminate') == ['(not (= (and (bvule #b0 #b1) (bvule #b1 #b1))'
                         ' (or (= #b0 #b0) (= #b1 #b0))))']


def test_eliminate_expands_a_side_with_alternation_under_iff():
    # exists x. forall y.: = expands both quantifiers, |x| * |y| instances,
    # as expand-all does, and no Skolem symbol is declared
    text = _emit(resolve_model(parse_model(
        'theorem t <=> (exists x: nat[1]. forall y: nat[1]. y <= x) <=> true;'
    )).theorems['t'], mode='eliminate')
    assert _tagged(text, 'negated-goal') == [
        '(assert (not (= (or (and (bvule #b0 #b0) (bvule #b1 #b0))'
        ' (and (bvule #b0 #b1) (bvule #b1 #b1))) true))) ; negated-goal']
    assert not _decls(text)


# Goals whose <=> has a side with quantifiers of both kinds; written twice,
# (!a \/ b) /\ (a \/ !b), it left refsolve Skolem functions to search. The
# 48-cell goal is drawn from perfbench/fuzztext._GoalGen with seed 1006 (the
# one with 48 cells among the first 1,500 draws above MAX_CELLS); the other
# has two 64-element sides.
IFF_ALTERNATION_GOALS = [
    'val B: nat = 3;\ntype D = nat[B];\ntheorem t <=> ((exists v0: nat[3]. '
    '(forall v1: D. (forall v2: D. v2 > (if (if v0 > (v0 + 1) then v1 else 0)'
    ' > (if v1 = (if (if true then v2 else v0) >= (if v1 >= v2 then v0 else'
    ' v1) then v1 else v0) then v2 else v0) then v0 else v2)))) <=> (forall'
    ' v0: nat[1]. (exists v1: D. (if v1 <= (if 0 > (if v1 >= (v1 + 1) then v1'
    ' else v0) then v0 else 0) then v0 else v1) >= (1 + 3))));\n',
    'type D = nat[63];\ntheorem t <=> ((exists x: D. forall y: D. y <= x)'
    ' <=> (exists x: D. forall y: D. x <= y));\n',
]


@pytest.mark.parametrize('text', IFF_ALTERNATION_GOALS,
                         ids=['48-cells', 'nat63'])
def test_eliminate_decides_iff_with_alternating_sides(text):
    m = resolve_model(parse_model(text))
    goal = m.theorems['t']
    script = _emit(goal, m.funcs, mode='eliminate')
    assert check_script(script, budget=20_000) == 'unsat'
    assert check_validity(goal, m.funcs)[0].status == 'valid'


def _iff_goal(seed):
    """A closed goal with a <=> at its root, or under a quantifier and a
    connective, whose sides hold universals, existentials, alternations of
    them, nested <=> and choices. Each choice has exactly one admissible
    value, so every mechanism must agree; choices with several are ROADMAP
    item 1's gap. GoalGen itself is left as it is: its seeds feed the
    recorded tables."""
    rng = random.Random(seed)

    def term(scope):
        t = (Var(rng.choice(scope)[0]) if scope and rng.random() < 0.6
             else Lit(rng.randint(0, 2)))
        if rng.random() < 0.25:
            return Choose('c', nat(2), Atom('=', Var('c'), t))
        return t

    def side(depth, scope):
        r = rng.random()
        if depth == 0 or r < 0.2:
            return Atom(rng.choice(('=', '<', '<=')), term(scope), term(scope))
        if r < 0.55:
            name, ty = 'v%d' % len(scope), nat(rng.randint(1, 2))
            body = side(depth - 1, scope + [(name, ty)])
            return rng.choice((Forall, Exists))(name, ty, body)
        if r < 0.65:
            return Not(side(depth - 1, scope))
        cls = rng.choice((And, Or, Implies, Iff, Iff))
        return cls(side(depth - 1, scope), side(depth - 1, scope))

    if rng.random() < 0.5:
        return Iff(side(3, []), side(3, []))
    scope = [('u', nat(2))]
    iff = Iff(side(3, scope), side(3, scope))
    around = rng.choice((And, Or, Implies))(side(1, scope), iff)
    return rng.choice((Forall, Exists))('u', nat(2), around)


def test_iff_goals_decide_alike_in_every_mechanism():
    quantified = chosen = 0
    for seed in range(300):
        goal = _iff_goal(seed)
        got = randgen.differential(goal)
        assert len(set(got.values())) == 1, (seed, got)
        inside = [m for n in walk(goal) if isinstance(n, Iff)
                  for m in walk(n)]
        quantified += any(isinstance(m, (Forall, Exists)) for m in inside)
        chosen += any(isinstance(m, Choose) for m in inside)
    # 276 goals hold a quantifier under a <=>, and 270 a choice
    assert (quantified, chosen) == (276, 270)


@pytest.mark.parametrize('mode', MODES)
def test_an_iff_chain_writes_each_link_once(mode):
    # a left-nested chain doubled per link while both sides were written
    # twice: 16 links wrote 5.2 MB in eliminate mode, 20.8 MB in expand-all
    m = resolve_model(parse_model('theorem t <=> forall x: nat[3]. %s;'
                                  % ' <=> '.join(['x <= 3'] * 17)))
    text = _emit(m.theorems['t'], m.funcs, mode=mode)
    assert len(text) < 4096
    assert check_script(text) == 'unsat'
    # 400 parts, every other one quantified: each side of a link, the chain
    # so far on the left, is written once
    links = ['x <= 3', '(forall y: nat[1]. y <= x + 1)', 'x <= 3',
             '(exists y: nat[1]. x <= y + 3)'] * 100
    m = resolve_model(parse_model('theorem t <=> forall x: nat[3]. %s;'
                                  % ' <=> '.join(links)))
    start = time.perf_counter()
    text = _emit(m.theorems['t'], m.funcs, mode=mode)
    assert check_script(text) == 'unsat'
    assert time.perf_counter() - start < 1.0


# -- the expansion/Skolemization laws ------------------------------------------------


def _pattern_goal(pattern, n):
    from fdl.bench import BenchCase
    return BenchCase('cycle4-valid', pattern, n).build()


@pytest.mark.parametrize('n', [1, 2])
@pytest.mark.parametrize('pattern, i', [
    ('e4a0', 4), ('e3a1', 3), ('e2a2', 2), ('e1a3', 1), ('a4e0', 0),
])
def test_goal_conjuncts_count_expanded_existential_prefix(pattern, i, n):
    goal, funcs = _pattern_goal(pattern, n)
    script = translate(goal, funcs, SmtOptions(mode='eliminate'))
    want = 2 ** (i * n)
    assert script.stats.goal_conjuncts == want
    assert len(_tagged(emit_smtlib(script), 'negated-goal')) == want


def test_large_expansion_matches_the_recorded_script():
    # cycle4-valid e4a0 at N=3, eliminate: 4,096 expanded goal assertions;
    # sha256 and length recorded while lowering still built nested tuples
    # that a separate pass printed
    goal, funcs = _pattern_goal('e4a0', 3)
    script = translate(goal, funcs, SmtOptions(mode='eliminate'))
    text = emit_smtlib(script)
    assert script.stats.goal_conjuncts == 4096
    assert (hashlib.sha256(text.encode()).hexdigest(), len(text)) == (
        '39997102321f8ded13824fc836e181819e650141a81dcf7dafb1384930711f9b',
        499832)


@pytest.mark.parametrize('pattern, consts', [
    ('a4e0', 4), ('a3e1', 3), ('a2e2', 2), ('a1e3', 1),
])
def test_universal_prefix_yields_skolem_constants(pattern, consts):
    goal, funcs = _pattern_goal(pattern, 1)
    script = translate(goal, funcs, SmtOptions(mode='eliminate'))
    assert sorted(a for _, a in script.stats.skolem_symbols) == [0] * consts
    assert script.stats.skolem_range_conjuncts == consts


@pytest.mark.parametrize('pattern, fns, arity', [
    ('e3a1', 1, 3), ('e2a2', 2, 2), ('e1a3', 3, 1),
])
def test_existential_prefix_yields_skolem_functions(pattern, fns, arity):
    goal, funcs = _pattern_goal(pattern, 1)
    script = translate(goal, funcs, SmtOptions(mode='eliminate'))
    assert sorted(a for _, a in script.stats.skolem_symbols) == [arity] * fns
    assert script.stats.skolem_range_conjuncts == fns * 2 ** arity


def test_fully_existential_goal_needs_no_symbols():
    goal, funcs = _pattern_goal('e4a0', 1)
    text = _emit(goal, funcs, mode='eliminate')
    assert _decls(text) == []
    assert _tagged(text, 'skolem-range-axiom') == []


def test_trivial_range_axioms_are_literal_true_but_counted():
    goal, funcs = _pattern_goal('a2e2', 1)
    script = translate(goal, funcs, SmtOptions(mode='eliminate'))
    ranges = _tagged(emit_smtlib(script), 'skolem-range-axiom')
    assert ranges and all('(assert true)' in ln for ln in ranges)
    assert script.stats.skolem_range_conjuncts == len(ranges) == 2


def test_nontrivial_range_axioms_bound_the_witness():
    goal = Forall('x', nat(2), Exists('y', nat(2), Atom('<=', Var('y'), Var('x'))))
    text = _emit(goal, mode='eliminate')
    ranges = _tagged(text, 'skolem-range-axiom')
    assert len(ranges) == 1 and 'bvule' in ranges[0]


# -- modes -------------------------------------------------------------------------


def test_mode_names_are_closed():
    assert set(MODES) == {'eliminate', 'preserve', 'expand-all'}
    with pytest.raises(AssertionError):
        Translator({}, SmtOptions(mode='bogus'))


def test_preserve_keeps_quantifiers_and_uses_ufbv():
    # a contract that does not fix its result stays a declared function
    src = CONTRACT_SRC.replace('ensures result = (if x1 < x2 then 0 else 1)',
                               'ensures result <= x1')
    m = resolve_model(parse_model(src))
    text = emit_smtlib(translate(m.theorems['fTotal'], m.funcs,
                                 SmtOptions(mode='preserve')))
    assert text.startswith('(set-logic UFBV)')
    assert '(exists ((' in text and '(forall ((' in text
    assert _decls(text) != []
    # the functional contract is a definition
    m = resolve_model(parse_model(CONTRACT_SRC))
    text = emit_smtlib(translate(m.theorems['fTotal'], m.funcs,
                                 SmtOptions(mode='preserve')))
    assert '(define-fun f ' in text


def test_expand_all_grounds_everything():
    goal, funcs = _pattern_goal('e2a2', 1)
    text = _emit(goal, funcs, mode='expand-all')
    assert text.startswith('(set-logic QF_UFBV)')
    assert _decls(text) == []
    assert 'exists' not in text and 'forall' not in text


def test_quantifier_free_modes_use_qf_logic():
    goal, funcs = _pattern_goal('a2e2', 1)
    assert _emit(goal, funcs, mode='eliminate').startswith('(set-logic QF_UFBV)')


# -- heuristic switch ----------------------------------------------------------------


def _mixed_depth_goal():
    # negation: forall x. exists w. forall y. exists z. x + w != y + z
    # w sits under 1 expanded universal (3 tuples), z under 2 (9 tuples)
    d = nat(2)
    m = Atom('=', Add(Var('x'), Var('w')), Add(Var('y'), Var('z')))
    return Exists('x', d, Forall('w', d, Exists('y', d, Forall('z', d, Not(m)))))


def test_heuristic_expands_deep_existentials_only():
    script = translate(_mixed_depth_goal(), {}, SmtOptions(mode='eliminate'))
    assert [a for _, a in script.stats.skolem_symbols] == [1]


def test_heuristic_factor_bounds_both_ways():
    high = translate(_mixed_depth_goal(), {},
                     SmtOptions(mode='eliminate', heuristic_factor=100))
    assert sorted(a for _, a in high.stats.skolem_symbols) == [1, 2]
    low = translate(_mixed_depth_goal(), {},
                    SmtOptions(mode='eliminate', heuristic_factor=0))
    assert low.stats.skolem_symbols == []


def test_heuristic_never_expands_over_trivial_carriers():
    goal, funcs = _pattern_goal('e1a3', 1)
    script = translate(goal, funcs,
                       SmtOptions(mode='eliminate', heuristic_factor=0))
    assert len(script.stats.skolem_symbols) == 3


# -- cost estimates ------------------------------------------------------------------


def test_estimates_on_pattern_goals():
    goal, funcs = _pattern_goal('a4e0', 1)
    assert scan(goal, True)[1] == (4, 0)
    goal, funcs = _pattern_goal('e4a0', 1)
    assert scan(goal, True)[1] == (0, 16)
    goal, funcs = _pattern_goal('e2a2', 6)
    assert scan(goal, True)[1] == (8192, 4096)


def test_estimates_recorded_in_stats():
    goal, funcs = _pattern_goal('e2a2', 2)
    script = translate(goal, funcs, SmtOptions(mode='eliminate'))
    assert (script.stats.estimate_skolem,
            script.stats.estimate_expansion) == scan(goal, True)[1]


# -- expansion budget ----------------------------------------------------------------


def test_expansion_budget_failure_names_the_quantifier():
    goal, funcs = _pattern_goal('e4a0', 1)
    with pytest.raises(TranslateError) as ei:
        translate(goal, funcs, SmtOptions(mode='eliminate', expansion_budget=7))
    assert 'budget 7 exceeded' in str(ei.value)
    assert "'x" in str(ei.value)


@pytest.mark.parametrize('theorem, budget, flags, written', [
    ('primed', 20, {}, "y'"),  # the second y' is renamed y''; primes stay
    ('inlined', 20, {'inline_definitions': True}, 'x'),  # f's x becomes x'
    ('lifted', 20, {'eliminate_choices': True}, 'y'),  # c's y is bound as _el1
    ('contract', 4, {}, 'y'),  # the second y is renamed y'
    ('contract', 9, {}, "y'"),  # h's own y', in h's axiom
    # the choose's z is z', and z'' in its axiom, whose <=> expands it once
    ('chosen', 7, {}, 'z'),
])
def test_budget_failure_names_the_binder_as_written(theorem, budget, flags,
                                                    written):
    m = resolve_model(parse_model(
        "type D = nat[3];\n"
        "fun f(p: D): nat[1] = if (forall x: D. x <= p) then 0 else 1;\n"
        "fun c(p: D): D = choose y: D with y <= p;\n"
        "fun h(p: D): D ensures forall y': D. forall z: D. result <= p\n"
        "                                                  \\/ y' = z;\n"
        "theorem primed <=> (forall y': D. forall x: D. x = y')\n"
        "                   /\\ (forall y': D. y' = y');\n"
        "theorem inlined <=> forall x: D. forall y: D. f(x) = 0;\n"
        "theorem lifted <=> forall x: D. forall z: D. c(x) <= z;\n"
        "theorem contract <=> (forall y: D. y = y)\n"
        "                     /\\ (forall y: D. h(y) <= 3);\n"
        "theorem chosen <=> (forall z: D. z = z)\n"
        "  /\\ (choose y: D with (forall z: D. z <= y) <=> y = 3) <= 3;\n"))
    with pytest.raises(TranslateError) as ei:
        translate(m.theorems[theorem], m.funcs, SmtOptions(
            mode='expand-all', expansion_budget=budget, **flags))
    assert str(ei.value).endswith("over '%s'" % written)


def test_default_budget_allows_the_whole_grid():
    goal, funcs = _pattern_goal('e4a0', 2)
    assert translate(goal, funcs).stats.goal_conjuncts == 256


# -- choice elimination --------------------------------------------------------------


def test_eliminate_choices_rewrites_atoms_to_guarded_universals():
    m = resolve_model(parse_model(CHOOSE_SRC))
    goal = Forall('x', m.types['D'],
                  Atom('<=', m.funcs['pick'].body, Var('x')))
    for mode in MODES:
        text = emit_smtlib(translate(goal, m.funcs, SmtOptions(
            mode=mode, eliminate_choices=True)))
        assert not [d for d in _decls(text) if '_ch' in d], mode
        assert _tagged(text, 'choose-axiom') == [], mode


# Where --eliminate-choices lifts the choice c = (choose y: D with y <= 1):
# under forall, /\\, \\/ and the right side of =>. The other positions keep
# a _ch symbol: the left side of =>, under !, either side of <=> (written
# (= a b), where a has no polarity) and under exists.
LIFT_POSITIONS_SRC = """
type D = nat[2];
theorem atom <=> (choose y: D with y <= 1) <= 1;
theorem universal <=> forall x: D. (choose y: D with y <= 1) <= x \\/ x = 0;
theorem conjunct <=> true /\\ (choose y: D with y <= 1) <= 1;
theorem disjunct <=> false \\/ (choose y: D with y <= 1) <= 1;
theorem consequent <=> true => (choose y: D with y <= 1) <= 1;
theorem antecedent <=> ((choose y: D with y <= 1) <= 1) => true;
theorem negated <=> !((choose y: D with y <= 1) = 2);
theorem doubleNegated <=> !!((choose y: D with y <= 1) <= 1);
theorem equivalent <=> ((choose y: D with y <= 1) <= 1) <=> true;
theorem existential <=> exists x: D. (choose y: D with y <= 1) <= x;
"""
LIFTED = ('atom', 'universal', 'conjunct', 'disjunct', 'consequent')


@pytest.mark.parametrize('mode', MODES)
def test_eliminate_choices_lifts_only_from_positive_positions(mode):
    m = resolve_model(parse_model(LIFT_POSITIONS_SRC))
    assert len(m.theorems) == 10
    for name, goal in m.theorems.items():
        assert oracle_check(goal, m.funcs) == 'valid', name
        text = _emit(goal, m.funcs, mode=mode, eliminate_choices=True)
        if name in LIFTED:
            assert not [d for d in _decls(text) if '_ch' in d], name
        else:  # translated as without the option, header aside
            plain = _emit(goal, m.funcs, mode=mode)
            assert (text.replace('eliminate-choices: on', '')
                    == plain.replace('eliminate-choices: off', '')), name
        assert check_script(text) == 'unsat', name


def test_eliminate_choices_empties_symbol_table():
    m = resolve_model(parse_model(CHOOSE_SRC))
    text = emit_smtlib(translate(
        m.theorems['pickBounded'], m.funcs,
        SmtOptions(mode='expand-all', eliminate_choices=True)))
    assert _decls(text) == []
    assert _tagged(text, 'choose-axiom') == []


@pytest.mark.parametrize('name, verdict', [
    ('pickBounded', 'valid'), ('pickEqual', 'invalid'),
])
def test_eliminate_choices_preserves_verdicts(name, verdict):
    m = resolve_model(parse_model(CHOOSE_SRC))
    for eliminate in (False, True):
        text = emit_smtlib(translate(
            m.theorems[name], m.funcs,
            SmtOptions(mode='expand-all', eliminate_choices=eliminate)))
        answer = check_script(text)
        assert answer == ('unsat' if verdict == 'valid' else 'sat')


@pytest.mark.parametrize('theorem', [
    # one-element carriers: the variable is the element's literal
    'forall x: nat[0]. x = 0',
    'forall x: nat[0]. forall y: nat[1]. x <= y',
    'exists x: nat[0]. x = 1',
    'forall y: nat[1]. exists x: nat[0]. x < y',
    'forall y: nat[1]. y = 1 \\/ (forall x: nat[0]. x = y)',
    # conditionals with boolean branches
    'forall b: bool. (if b = true then false else true) = b',
    'forall b: bool. (if b = true then b else false) = b',
])
def test_refsolve_on_the_translation_agrees_with_the_oracle(theorem):
    goal = resolve_model(parse_model('theorem t <=> %s;' % theorem)
                         ).theorems['t']
    want = 'unsat' if oracle_check(goal) == 'valid' else 'sat'
    for mode in MODES:
        assert check_script(_emit(goal, mode=mode)) == want, mode


def test_axiomatized_contract_emits_type_constraints():
    m = resolve_model(parse_model(CHOOSE_SRC))
    text = emit_smtlib(translate(m.theorems['pickBounded'], m.funcs,
                                 SmtOptions(mode='eliminate')))
    assert len(_tagged(text, 'choose-axiom')) == 3
    assert len(_tagged(text, 'type-constraint')) == 3


# -- which definitions become macros -------------------------------------------------


FOUR_KINDS_SRC = """
type D = nat[2];
fun h(p: D): D ensures result <= p;
fun pick(x: D): D = choose y: D with y <= x;
fun viaH(x: D): D = h(x);
fun inc(x: D): nat[3] = x + 1;
theorem t <=> forall x: D. pick(x) + viaH(x) <= inc(x) + inc(h(x));
"""


def _defines(text):
    return [ln.split()[1] for ln in text.splitlines()
            if ln.startswith('(define-fun')]


@pytest.mark.parametrize('mode', MODES)
def test_only_pure_definitions_become_define_fun(mode):
    m = resolve_model(parse_model(FOUR_KINDS_SRC))
    goal = m.theorems['t']
    for eliminate in (False, True):
        opts = dict(mode=mode, eliminate_choices=eliminate)
        text = _emit(goal, m.funcs, **opts)
        assert _defines(text) == ['inc']
        names = [ln.split()[1] for ln in _decls(text)]
        assert 'pick' not in names and 'viaH' not in names
        if not eliminate:
            # both applications of h share one declared function
            assert names.count('h') == 1
        assert _defines(_emit(goal, m.funcs, inline_definitions=True,
                              **opts)) == []


FLAGS = [dict(eliminate_choices=e, inline_definitions=i)
         for e in (False, True) for i in (False, True)]

CONTRACT_ARGUMENT_SRC = """
type D = nat[2];
fun h(p: D): nat[1] ensures result = (if p + p = 1 then 1 else 0);
theorem even <=> h(choose c: D with c <= 1) = 0;
theorem pos <=> forall x: D. h(choose c: D with c <= x) = 0;
"""


@pytest.mark.parametrize('src, name', [
    pytest.param(DUPLICATED_ARGUMENT_SRC, name, id=name)
    for name in ('even', 'bounded', 'odd', 'nested')] + [
    pytest.param(CONTRACT_ARGUMENT_SRC, name, id='contract-' + name)
    for name in ('even', 'pos')])
def test_argument_with_a_choice_is_passed_by_value(src, name):
    # twice(a) evaluates a once, so its value is a + a, never 0 + 1; in
    # nested, the argument with the choice appears only in k's body; the
    # contract h sees p + p, which is even, so it gives 0
    m = resolve_model(parse_model(src))
    goal = m.theorems[name]
    want = oracle_check(goal, m.funcs)
    for mode in MODES:
        for flags in FLAGS:
            answer = check_script(_emit(goal, m.funcs, mode=mode, **flags))
            got = 'valid' if answer == 'unsat' else 'invalid'
            assert got == want, (mode, flags)


# -- functional contracts ------------------------------------------------------------

# contracts that fix result to a deterministic term of the result type
FUNCTIONAL_CONTRACT_SRC = """
type D = nat[2];
fun flipped(p: D): nat[3] ensures p + 1 = result;
fun h(p: nat[1]): nat[5] ensures result = p + p;
fun twice(p: D): nat[4] ensures result = p + p;
fun k(p: D): nat[4] ensures result = twice(p);
theorem flippedSucc <=> forall x: D. flipped(x) = x + 1;
theorem flippedZero <=> exists x: D. flipped(x) = 0;
theorem widening <=> forall x: nat[1]. h(x) <= 2 /\\ !(h(x) = 1);
theorem wideningTwo <=> forall x: nat[1]. h(x) = 2;
theorem chained <=> forall x: D. k(x) = x + x;
theorem chainedOdd <=> exists x: D. k(x) = 3;
"""

# contracts that keep the axiomatized path: result is not fixed, fixed by a
# choice, or fixed to a term that leaves the result type
AXIOMATIZED_CONTRACT_SRC = """
type D = nat[2];
fun below(p: D): D ensures result <= p;
fun pick(x: D): D = choose y: D with y <= x;
fun viaPick(p: D): D ensures result = pick(p);
fun succ(p: nat[3]): nat[3] ensures result = p + 1;
theorem belowBounded <=> forall x: D. below(x) <= x;
theorem belowZero <=> forall x: D. below(x) = 0;
theorem viaPickBounded <=> forall x: D. viaPick(x) <= x;
theorem succ <=> forall x: D. succ(x) = x + 1;
"""


@pytest.mark.parametrize('name, contracts', [
    ('flippedSucc', {'flipped'}), ('flippedZero', {'flipped'}),
    ('widening', {'h'}), ('wideningTwo', {'h'}),
    ('chained', {'k', 'twice'}), ('chainedOdd', {'k', 'twice'})])
def test_functional_contract_is_translated_as_a_definition(name, contracts):
    m = resolve_model(parse_model(FUNCTIONAL_CONTRACT_SRC))
    goal = m.theorems[name]
    want = oracle_check(goal, m.funcs)
    for mode in MODES:
        for flags in FLAGS:
            script = translate(goal, m.funcs, SmtOptions(mode=mode, **flags))
            assert script.stats.contracts_as_definitions == len(contracts)
            text = emit_smtlib(script)
            assert _tagged(text, 'choose-axiom') == [], (mode, flags)
            declared = {ln.split()[1] for ln in _decls(text)}
            assert not declared & contracts, (mode, flags)
            if flags['inline_definitions']:
                assert _defines(text) == [], (mode, flags)
            else:
                assert set(_defines(text)) == contracts, (mode, flags)
            answer = check_script(text)
            got = 'valid' if answer == 'unsat' else 'invalid'
            assert got == want, (mode, flags)


@pytest.mark.parametrize('name, contract', [
    ('belowBounded', 'below'), ('belowZero', 'below'),
    ('viaPickBounded', 'viaPick'), ('succ', 'succ')])
def test_other_contracts_stay_axiomatized(name, contract):
    m = resolve_model(parse_model(AXIOMATIZED_CONTRACT_SRC))
    goal = m.theorems[name]
    want = oracle_check(goal, m.funcs)
    for mode in MODES:
        for flags in FLAGS:
            script = translate(goal, m.funcs, SmtOptions(mode=mode, **flags))
            assert script.stats.contracts_as_definitions == 0
            text = emit_smtlib(script)
            if not flags['eliminate_choices']:
                assert contract in [ln.split()[1] for ln in _decls(text)]
                assert _tagged(text, 'choose-axiom') != []
            answer = check_script(text)
            got = 'valid' if answer == 'unsat' else 'invalid'
            assert got == want, (mode, flags)


@pytest.mark.parametrize('mode', MODES)
def test_a_goal_too_deep_to_translate_is_a_translate_error(mode):
    # built as an AST, so no parser limit applies; each conjunction is the
    # right part of the one above it, so it nests (a left chain would be one
    # node), the translator's recursive passes overflow and the overflow
    # becomes a TranslateError
    goal = Atom('=', Lit(0), Lit(0))
    for _ in range(5000):
        goal = And(Atom('=', Lit(0), Lit(0)), goal)
    with pytest.raises(TranslateError,
                       match='goal nested too deeply to translate'):
        translate(goal, None, SmtOptions(mode=mode))
    verdict, outcome, _ = decide(goal, None, load_solver_configs()['refsolve'],
                                 SmtOptions(mode=mode))
    assert verdict.status == 'error'
    assert verdict.reason == 'goal nested too deeply to translate'


TWO_WITNESSES_SRC = """
type D = nat[3];
theorem t <=> (choose a: D with exists b: D. b = a /\\ b = 0)
            + (choose a: D with exists b: D. b = a /\\ b = 2) = 0;
"""


def test_each_existential_keeps_its_own_skolem_symbol():
    # each choice axiom's tree is freed once it is lowered, so the next
    # axiom's existential may reuse its address; a Skolem decision keyed by
    # that address alone would give both witnesses one symbol, and the
    # script would say unsat: a wrong valid
    m = resolve_model(parse_model(TWO_WITNESSES_SRC))
    goal = m.theorems['t']
    texts = [_emit(goal, m.funcs) for _ in range(20)]
    for text in texts:
        names = [ln.split()[1] for ln in _decls(text)]
        assert [n for n in names if n.startswith('_sk')] == ['_sk1', '_sk2']
    assert len(set(texts)) == 1
    assert oracle_check(goal, m.funcs) == 'invalid'
    refsolve = load_solver_configs()['refsolve']
    for mode in MODES:
        verdict, _, _ = decide(goal, m.funcs, refsolve, SmtOptions(mode=mode))
        assert verdict.status == 'invalid', mode


def _binders(text):
    return re.findall(r'\((?:forall|exists) \(\((\S+) ', text)


def _define_locals(text):
    """The parameters and binders of every define-fun."""
    return [name for ln in text.splitlines() if ln.startswith('(define-fun')
            for name in re.findall(
                r'\(([^\s()]+) (?:\(_ BitVec \d+\)|Bool)\)', ln)]


def _assert_names_apart(goal, funcs):
    """In every mode and flag combination, the declared and defined names
    are unique, no binder or define-fun parameter carries one of them, and
    refsolve agrees with the oracle."""
    want = oracle_check(goal, funcs)
    for mode in MODES:
        for flags in FLAGS:
            text = _emit(goal, funcs, mode=mode, **flags)
            symbols = _defines(text) + [ln.split()[1] for ln in _decls(text)]
            assert len(set(symbols)) == len(symbols), (mode, flags)
            assert not set(_binders(text)) & set(symbols), (mode, flags)
            assert not set(_define_locals(text)) & set(symbols), (mode, flags)
            answer = check_script(text)
            got = 'valid' if answer == 'unsat' else 'invalid'
            assert got == want, (mode, flags)


SHADOWING_BINDER_SRC = """
type D = nat[2];
fun f(x: D): nat[3] = x + 1;
theorem t <=> forall f: D. exists y: D. f(f) <= f + 1 /\\ y = y;
"""


def test_no_binder_shadows_a_function():
    # (f f) in the scope of a binder f would apply a bit vector
    m = resolve_model(parse_model(SHADOWING_BINDER_SRC))
    _assert_names_apart(m.theorems['t'], m.funcs)


SHADOWING_PARAMETER_SRC = """
type D = nat[2];
fun f(x: D): nat[3] = x + 1;
fun g(f: D): nat[3] = f(f);
theorem t <=> forall x: D. g(x) <= 3;
"""


def test_no_parameter_shadows_a_function():
    # (f f) in the body of a define-fun with a parameter f would apply a
    # bit vector
    m = resolve_model(parse_model(SHADOWING_PARAMETER_SRC))
    assert oracle_check(m.theorems['t'], m.funcs) == 'valid'
    _assert_names_apart(m.theorems['t'], m.funcs)


# The names the translator makes up, written by the user: as goal binders,
# in the choose body of a definition that is always inlined, and in a
# contract's ensures clause. In inlinedFirst, pick's body is read before any
# choice is numbered; in chosenFirst, the inline choice is declared _ch1
# before h's axiom, which binds _ch1, is renamed.
MADE_UP_NAMES_SRC = """
type D = nat[1];
fun h(p: D): D ensures exists _ch1: D. exists _sk1: D. exists _el1: D.
  result <= _ch1 /\\ _ch1 <= _sk1 /\\ _sk1 <= _el1 /\\ _el1 <= p;
fun pick(p: D): D = choose y: D with exists _ch1: D. exists _sk1: D.
  exists _el1: D. y <= _ch1 /\\ _ch1 <= _sk1 /\\ _sk1 <= _el1 /\\ _el1 <= p;
theorem binders <=> forall _ch1: D. forall _sk1: D. exists _el1: D.
  pick(_ch1) <= _ch1 /\\ h(_sk1) <= _el1 /\\ _el1 <= _sk1;
theorem inlinedFirst <=> pick(1) <= h(1) \\/ (choose y: D with y <= 0) < h(0);
theorem chosenFirst <=> (choose y: D with y <= 0) < h(0) \\/ pick(1) <= h(1);
"""


@pytest.mark.parametrize('name', ['binders', 'inlinedFirst', 'chosenFirst'])
def test_made_up_names_avoid_the_users_names(name):
    m = resolve_model(parse_model(MADE_UP_NAMES_SRC))
    _assert_names_apart(m.theorems[name], m.funcs)


# h's axiom binds p, and pick's body, inlined into it with p for x, binds p
AXIOM_SCOPE_SRC = """
type D = nat[1];
fun pick(x: D): D = choose y: D with exists p: D. y <= p /\\ p <= x;
fun h(p: D): D ensures result = pick(p);
theorem t <=> forall x: D. h(x) <= x;
"""


def test_body_inlined_into_an_axiom_captures_none_of_its_binders():
    m = resolve_model(parse_model(AXIOM_SCOPE_SRC))
    _assert_names_apart(m.theorems['t'], m.funcs)


# The goal's binder and the binder in pick's body share the name y. The
# goal's binders are named before any body is inlined, so the goal keeps y
# and the choice axiom, whose body comes from pick, takes y!.
NAMING_ORDER_SRC = """
type D = nat[3];
fun pick(p: D): D = choose c: D with exists y: D. c <= y /\\ y <= p;
theorem t <=> pick(1) <= 1 /\\ (forall y: D. y <= 3);
"""

# Recorded before the negation-normal form, the renaming and the
# axiomatization became one pass.
_AXIOMATIZED_PICK = [
    '(set-logic UFBV)',
    '; mode: preserve  heuristic-factor: 2  eliminate-choices: off  inline-definitions: %s',
    '(declare-fun _ch1 () (_ BitVec 2))',
    '(assert (or (not (bvule _ch1 ((_ zero_extend 1) #b1))) (exists ((y (_ BitVec 2))) (not (bvule y #b11))))) ; negated-goal',
    '(assert (exists ((y! (_ BitVec 2))) (and (bvule _ch1 y!) (bvule y! ((_ zero_extend 1) #b1))))) ; choose-axiom',
    '(check-sat)',
]
_ELIMINATED_PICK = [
    '(set-logic UFBV)',
    '; mode: preserve  heuristic-factor: 2  eliminate-choices: on  inline-definitions: %s',
    '(assert (or (exists ((_el1 (_ BitVec 2))) (and (exists ((y! (_ BitVec 2))) (and (bvule _el1 y!) (bvule y! ((_ zero_extend 1) #b1)))) (not (bvule _el1 ((_ zero_extend 1) #b1))))) (exists ((y (_ BitVec 2))) (not (bvule y #b11))))) ; negated-goal',
    '(check-sat)',
]
NAMING_ORDER_SCRIPTS = {
    label: [ln.replace('%s', 'on' if label in ('flags', 'inline') else 'off')
            for ln in (_ELIMINATED_PICK if label in ('flags', 'eliminate')
                       else _AXIOMATIZED_PICK)]
    for label in ('default', 'flags', 'eliminate', 'inline')}


def test_goal_binders_are_named_before_any_body_is_inlined():
    m = resolve_model(parse_model(NAMING_ORDER_SRC))
    goal = m.theorems['t']
    for label, kw in OPTIONS.items():
        text = _emit(goal, m.funcs, mode='preserve', **kw)
        assert text.splitlines() == NAMING_ORDER_SCRIPTS[label], label
    assert oracle_check(goal, m.funcs) == 'valid'
    for mode in MODES:
        for label, kw in OPTIONS.items():
            text = _emit(goal, m.funcs, mode=mode, **kw)
            assert check_script(text) == 'unsat', (mode, label)


NESTED_PICK_SRC = """
type D = nat[2];
fun pick(p: D): D = choose y: D with y <= p;
fun sel(p: D): D = if pick(p) < p then pick(p) else p;
theorem t <=> sel(sel(sel(sel(pick(2))))) <= 2;
"""


def test_inlining_translates_each_argument_once():
    # copying each argument into both uses of sel's parameter would grow
    # the script exponentially in the nesting depth
    m = resolve_model(parse_model(NESTED_PICK_SRC))
    goal = m.theorems['t']
    default = _emit(goal, m.funcs)
    inlined = _emit(goal, m.funcs, inline_definitions=True)
    assert len(inlined) < 2 * len(default)


IN_CONDITION_SRC = """
type D = nat[2];
fun g(p: D): D = if (exists y: D. y < p) then p else 1;
theorem t <=> forall x: D. (if (forall z: D. z <= x) then x else 0) <= g(x) + 2;
"""

# Recorded before the lowering was compiled once per quantifier body. The
# conditions of term conditionals, in the goal and in g's body, expand their
# quantifiers in every mode.
IN_CONDITION_SCRIPTS = {
    'eliminate': [
        '(set-logic QF_UFBV)',
        '; mode: eliminate  heuristic-factor: 2  eliminate-choices: off  inline-definitions: off',
        '(define-fun g ((p (_ BitVec 2))) (_ BitVec 2) (ite (or (bvult #b00 p) (bvult #b01 p) (bvult #b10 p)) p ((_ zero_extend 1) #b1)))',
        '(declare-fun _sk1 () (_ BitVec 2))',
        '(assert (not (bvule ((_ zero_extend 1) (ite (and (bvule #b00 _sk1) (bvule #b01 _sk1) (bvule #b10 _sk1)) _sk1 ((_ zero_extend 1) #b0))) (bvadd ((_ zero_extend 1) (g _sk1)) #b010)))) ; negated-goal',
        '(assert (bvule _sk1 #b10)) ; skolem-range-axiom',
        '(check-sat)',
    ],
    'preserve': [
        '(set-logic UFBV)',
        '; mode: preserve  heuristic-factor: 2  eliminate-choices: off  inline-definitions: off',
        '(define-fun g ((p (_ BitVec 2))) (_ BitVec 2) (ite (or (bvult #b00 p) (bvult #b01 p) (bvult #b10 p)) p ((_ zero_extend 1) #b1)))',
        '(assert (exists ((x (_ BitVec 2))) (and (bvule x #b10) (not (bvule ((_ zero_extend 1) (ite (and (bvule #b00 x) (bvule #b01 x) (bvule #b10 x)) x ((_ zero_extend 1) #b0))) (bvadd ((_ zero_extend 1) (g x)) #b010)))))) ; negated-goal',
        '(check-sat)',
    ],
    'expand-all': [
        '(set-logic QF_UFBV)',
        '; mode: expand-all  heuristic-factor: 2  eliminate-choices: off  inline-definitions: off',
        '(define-fun g ((p (_ BitVec 2))) (_ BitVec 2) (ite (or (bvult #b00 p) (bvult #b01 p) (bvult #b10 p)) p ((_ zero_extend 1) #b1)))',
        '(assert (or (not (bvule ((_ zero_extend 1) (ite (and (bvule #b00 #b00) (bvule #b01 #b00) (bvule #b10 #b00)) #b00 ((_ zero_extend 1) #b0))) (bvadd ((_ zero_extend 1) (g #b00)) #b010))) (not (bvule ((_ zero_extend 1) (ite (and (bvule #b00 #b01) (bvule #b01 #b01) (bvule #b10 #b01)) #b01 ((_ zero_extend 1) #b0))) (bvadd ((_ zero_extend 1) (g #b01)) #b010))) (not (bvule ((_ zero_extend 1) (ite (and (bvule #b00 #b10) (bvule #b01 #b10) (bvule #b10 #b10)) #b10 ((_ zero_extend 1) #b0))) (bvadd ((_ zero_extend 1) (g #b10)) #b010))))) ; negated-goal',
        '(check-sat)',
    ],
}


@pytest.mark.parametrize('mode', MODES)
def test_quantifiers_in_conditions_expand_in_every_mode(mode):
    m = resolve_model(parse_model(IN_CONDITION_SRC))
    goal = m.theorems['t']
    text = _emit(goal, m.funcs, mode=mode)
    assert text.splitlines() == IN_CONDITION_SCRIPTS[mode]
    assert oracle_check(goal, m.funcs) == 'valid'
    refsolve = load_solver_configs()['refsolve']
    verdict, _, _ = decide(goal, m.funcs, refsolve, SmtOptions(mode=mode))
    assert verdict.status == 'valid'


def test_translation_recursion_does_not_grow_with_each_conjunct():
    # one conjunction nested 300 deep, about as deep as loading the model
    # allows; lowering must add no frames per level beyond the tree walk
    conjuncts = ['x = x'] * 299 + ['x <= 3']
    src = 'theorem t <=> forall x: nat[3]. %s;' % ' /\\ '.join(conjuncts)
    m = resolve_model(parse_model(src))
    for mode in MODES:
        script = translate(m.theorems['t'], m.funcs, SmtOptions(mode=mode))
        text = emit_smtlib(script)
        assert text.count('(= ') >= 299
        assert check_script(text) == 'unsat', mode


# the negated goal of forall x: nat[3]. !(F) in each mode, around the text
# of F, with x written as _sk1, x or each literal; RIGHT and LEFT are F's
# text for the two ways of nesting its three conjuncts
JUNCTION_TEXT = {
    'eliminate': '{0}',
    'preserve': '(exists ((x (_ BitVec 2))) {0})',
    'expand-all': '(or {0} {1} {2} {3})',
}
RIGHT = '(and (= {0} #b10) (and (= {0} #b11) (bvule {0} #b10)))'
LEFT = '(and (and (= {0} #b10) (= {0} #b11)) (bvule {0} #b10))'


@pytest.mark.parametrize('mode', MODES)
@pytest.mark.parametrize('text, shape', [
    ('x = 2 /\\ (x = 3 /\\ x <= 2)', RIGHT),
    ('(x = 2 /\\ x = 3) /\\ x <= 2', LEFT),
    ('x = 2 /\\ x = 3 /\\ x <= 2', LEFT),
])
def test_a_junction_emits_the_left_nested_text_of_its_parts(mode, text,
                                                           shape):
    # SMT-LIB's and is left-associative: a chain is one node whose parts
    # are written (and (and a b) c), a parenthesized right part nests
    m = resolve_model(parse_model(
        'theorem t <=> forall x: nat[3]. !(%s);' % text))
    script = translate(m.theorems['t'], m.funcs, SmtOptions(mode=mode))
    xs = {'eliminate': ['_sk1'], 'preserve': ['x'],
          'expand-all': ['#b00', '#b01', '#b10', '#b11']}[mode]
    assert script.asserts['negated-goal'] == [JUNCTION_TEXT[mode].format(
        *[shape.format(x) for x in xs])]


@pytest.mark.parametrize('mode', MODES)
def test_emission_adds_no_depth_per_conjunct(mode):
    # built as an AST, past what loading a model allows: translating and
    # emitting a 900-deep conjunction under a quantifier spend no frame per
    # level beyond the translator's own passes
    body = Atom('=', Var('x'), Var('x'))
    for _ in range(899):
        body = And(body, Atom('=', Var('x'), Var('x')))
    goal = Forall('x', nat(3), body)
    text = emit_smtlib(translate(goal, None, SmtOptions(mode=mode)))
    # eliminate Skolemizes the negated universal, expand-all expands it
    instances = 4 if mode == 'expand-all' else 1
    assert text.count('(not (= ') == 900 * instances
    assert text.endswith('(check-sat)\n')


# -- script shape --------------------------------------------------------------------


def test_header_records_options_and_goal_name():
    goal = Forall('x', nat(1), Atom('<=', Var('x'), Lit(1)))
    text = _emit(goal, mode='eliminate', goal_name='edge')
    lines = text.splitlines()
    assert lines[0] == '(set-logic QF_UFBV)'
    assert lines[1].startswith('; mode: eliminate')
    assert lines[2] == '; goal: edge'
    assert lines[-1] == '(check-sat)'


def test_every_assert_carries_a_provenance_tag():
    m = resolve_model(parse_model(CHOOSE_SRC))
    text = emit_smtlib(translate(m.theorems['pickBounded'], m.funcs))
    for ln in text.splitlines():
        if ln.startswith('(assert'):
            assert ln.rsplit('; ', 1)[1] in (
                'negated-goal', 'skolem-range-axiom', 'choose-axiom',
                'type-constraint')


# -- soundness against the oracle ----------------------------------------------------


@pytest.mark.parametrize('mode', MODES)
def test_verdicts_match_oracle_across_modes(mode):
    for seed in range(300, 420):
        goal = random_goal(seed)
        want = oracle_check(goal)
        if want == 'error':
            continue
        answer = check_script(emit_smtlib(translate(
            goal, None, SmtOptions(mode=mode))))
        got = 'valid' if answer == 'unsat' else 'invalid'
        assert got == want, 'seed %d mode %s' % (seed, mode)


# -- recorded scripts ----------------------------------------------------------------

# sha256 and length of the emitted SMT-LIB of every goal below in all three
# modes, with default options, with eliminate_choices and inline_definitions
# both set, and with each of them alone. The first two columns were recorded
# before the goal-level inline pre-pass was removed, the last two before the
# translator's passes moved onto core's generic traversal. A row may change
# only with the encoding it pins.
GOLDEN = ROOT / 'tests' / 'translate_golden.json'
OPTIONS = {'default': {},
           'flags': {'eliminate_choices': True, 'inline_definitions': True},
           'eliminate': {'eliminate_choices': True},
           'inline': {'inline_definitions': True}}


def _golden_table():
    table = {}
    for key, goal, funcs in recorded_goals():
        for mode in MODES:
            for label, kw in OPTIONS.items():
                text = _emit(goal, funcs, mode=mode, **kw)
                table['%s %s %s' % (key, mode, label)] = [
                    hashlib.sha256(text.encode()).hexdigest(), len(text)]
    return table


def test_scripts_match_the_recorded_table():
    table = json.loads(GOLDEN.read_text())
    got = _golden_table()
    assert len(got) == 3 * 4 * (128 + 8)
    assert got == table


# sha256 and length of the preserve-mode script, under each entry of OPTIONS,
# of TWO_WITNESSES_SRC's goal and of every random_goal seed in 0-199 whose
# script renames a binder (a primed name), recorded before the translator
# kept one set of taken names. Each goal is stored as its print_formula text,
# which parses back to a goal with the same scripts. Seed 173's row was
# recorded again when a chain of => became one node: its text's a => b => c
# now parses as one chain, whose negation writes (and (and a b) c) where the
# right-nested goal wrote (and a (and b c)); nothing else changed.
NAMES_GOLDEN = ROOT / 'tests' / 'translate_names_golden.json'


def test_preserve_mode_bound_names_match_the_recorded_table():
    table = json.loads(NAMES_GOLDEN.read_text())
    assert len(table) == 50
    for text, want in table.items():
        goal = parse_formula(text, {})
        got = {}
        for label, kw in OPTIONS.items():
            script = _emit(goal, mode='preserve', **kw)
            got[label] = [hashlib.sha256(script.encode()).hexdigest(),
                          len(script)]
        assert got == want, text


# repr(TranslateStats), or the TranslateError text, of every recorded goal
# and of random_goal seeds 0-199, in all three modes under each entry of
# OPTIONS (row order), at an expansion budget of 200, low enough that 332
# of the 4,032 translations fail. Recorded before the negation-normal form,
# the renaming and the axiomatization became one pass: the cost estimates
# and the binder name an exceeded budget quotes are pinned here, where the
# script tables pin only digests. The one text of randgen seed 161's
# expand-all rows was re-recorded when that name became the binder's name as
# written ('v1', where the renamed binder was 'v1'''''''').
STATS_GOLDEN = ROOT / 'tests' / 'translate_stats_golden.json'


def _stats_text(goal, funcs, mode, kw):
    try:
        script = translate(goal, funcs, SmtOptions(
            mode=mode, expansion_budget=200, **kw))
    except TranslateError as e:
        return 'error: %s' % e
    return repr(script.stats)


def test_stats_and_errors_match_the_recorded_table():
    table = json.loads(STATS_GOLDEN.read_text())
    texts, rows = table['texts'], table['rows']
    goals = list(recorded_goals()) + [
        ('randgen/%d' % seed, random_goal(seed), None) for seed in range(200)]
    assert len(goals) == len(rows) == 336
    for key, goal, funcs in goals:
        got = [_stats_text(goal, funcs, mode, kw)
               for mode in MODES for kw in OPTIONS.values()]
        assert got == [texts[i] for i in rows[key]], key


# sha256 and length of the script of every goal that --eliminate-choices
# lifts a choice out of, in all three modes with eliminate_choices alone and
# with inline_definitions too: the goals of every `*_SRC` text in tests/ and
# the first 100 such goals of perfbench's fuzztext seed 1, each stored with
# its model text. Recorded before the lifting moved into the translator's
# one rebuild; the rows of fuzztext 1/196, 204, 265, 308, 426 and 565 were
# recorded again when a literal that substitution puts right of + came to be
# written at the sum's width, which changed nothing else in them.
LIFT_GOLDEN = ROOT / 'tests' / 'translate_lift_golden.json'


def test_lifted_scripts_match_the_recorded_table():
    table = json.loads(LIFT_GOLDEN.read_text())
    goals = table['goals']
    assert len(goals) == 121
    checked = 0
    for key, text in table['texts'].items():
        m = resolve_model(parse_model(text))
        for name, goal in m.theorems.items():
            want = goals.get('%s/%s' % (key, name))
            if want is None:
                continue
            got = {}
            for label in ('eliminate', 'flags'):
                for mode in MODES:
                    script = _emit(goal, m.funcs, mode=mode, **OPTIONS[label])
                    got['%s %s' % (label, mode)] = [
                        hashlib.sha256(script.encode()).hexdigest(),
                        len(script)]
            assert got == want, '%s/%s' % (key, name)
            checked += 1
    assert checked == len(goals)


# -- what is computed once per type, literal, option set or function table ---


# True == 1 and hash(True) == hash(1), so a literal table keyed by the value
# alone would hand 1 the bool type here, or true the type nat[1]
BOOL_ONE_SRC = """
fun f(b: bool): nat[1] = if b = true then 1 else 0;
theorem t <=> f(true) = 1 * f(false) + 1;
theorem warmTrue <=> true = true;
theorem warmOne <=> 1 = 1;
"""

# sha256 of the script of BOOL_ONE_SRC's t, recorded before literals were
# compiled once per process
BOOL_ONE_SHA256 = {
    (False, 'eliminate'):
        '2c6e083d1f425b1686d7e094ba902a05caf01caa17e2115448d86a31126aa3d2',
    (False, 'preserve'):
        'f8f248e56f5105789eaa65ff710c629e52b0d7c640b9b657bf603a35e0142d35',
    (False, 'expand-all'):
        'd12e94b90f60fc665c5c9e61b9ce0eb0aa00909f44ac65d956d5865d817b7e26',
    (True, 'eliminate'):
        'aaa92a9526d44d7b4feab7fc949069acbfc79355d4664d0ed57400418e9cc16b',
    (True, 'preserve'):
        '3f7f6b40713b0c4b2603588924b65b4ad13740933d404fd40cd55f410d1f4d34',
    (True, 'expand-all'):
        '52a00e076daab92b6df8cd664809ff1b0476503a0a53e514ec68389711e00157',
}


@pytest.mark.parametrize('inline', [False, True])
@pytest.mark.parametrize('mode', MODES)
@pytest.mark.parametrize('warm', [('warmTrue',), ('warmOne',),
                                  ('warmTrue', 'warmOne'),
                                  ('warmOne', 'warmTrue')])
def test_literal_table_tells_true_from_one(monkeypatch, warm, mode, inline):
    # the package's name `translate` is the function, not the module
    monkeypatch.setattr(importlib.import_module('fdl.translate'), '_LITS', {})
    m = resolve_model(parse_model(BOOL_ONE_SRC))
    for name in warm + ('t',):
        text = _emit(m.theorems[name], m.funcs, mode=mode,
                     inline_definitions=inline)
    assert (hashlib.sha256(text.encode()).hexdigest()
            == BOOL_ONE_SHA256[inline, mode])


# a functional contract (inc), a contract (h), a definition with a choice
# (pick) and a plain definition (twice)
FOUR_FUNCTIONS_SRC = """
type D = nat[2];
fun inc(x: D): nat[3] ensures result = x + 1;
fun h(p: D): D ensures result <= p;
fun pick(x: D): D = choose y: D with y <= x;
fun twice(x: D): nat[4] = x + x;
theorem t <=> forall x: D. inc(x) <= twice(x) + 1 \\/ h(x) <= pick(x);
"""


def test_function_table_is_derived_once_for_every_translation(monkeypatch):
    calls = {'definitional_funcs': 0, 'nondeterministic_funcs': 0}
    for name in calls:
        def counted(*args, _real=getattr(core, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(core, name, counted)
    m = resolve_model(parse_model(FOUR_FUNCTIONS_SRC))
    assert isinstance(m.funcs, core.FuncTable) and calls == dict.fromkeys(
        calls, 0)
    first = None
    for inline in (False, True):
        for mode in MODES:
            _emit(m.theorems['t'], m.funcs, mode=mode,
                  inline_definitions=inline)
            first = first or dict(calls)
    assert first['definitional_funcs'] == 1
    assert first['nondeterministic_funcs'] >= 1
    assert calls == first


def _fields_rebuilt(node):
    """node rebuilt through dataclasses.fields, as perfbench's determinize
    rebuilds a goal and its functions, into plain dataclasses and dicts."""
    if not isinstance(node, (Term, Formula)):
        return node
    return type(node)(**{
        f.name: ([_fields_rebuilt(x) for x in getattr(node, f.name)]
                 if isinstance(getattr(node, f.name), list)
                 else _fields_rebuilt(getattr(node, f.name)))
        for f in dataclasses.fields(node)})


def test_plain_and_rebuilt_function_dicts_decide_as_the_table():
    m = resolve_model(parse_model(FOUR_FUNCTIONS_SRC))
    goal = m.theorems['t']
    rebuilt = {n: FuncDecl(fd.name, fd.params, fd.result,
                           body=_fields_rebuilt(fd.body),
                           ensures=_fields_rebuilt(fd.ensures))
               for n, fd in m.funcs.items()}
    want = {mode: _emit(goal, m.funcs, mode=mode) for mode in MODES}
    verdicts = randgen.differential(goal, m.funcs)
    assert verdicts['oracle'] == 'valid'
    for g, funcs in ((goal, dict(m.funcs)), (_fields_rebuilt(goal), rebuilt)):
        assert type(funcs) is dict
        assert {mode: _emit(g, funcs, mode=mode) for mode in MODES} == want
        assert oracle_check(g, funcs) == 'valid'
        for mode in ('nondeterministic', 'deterministic'):
            assert check_validity(g, funcs, mode)[0].status == verdicts[
                'evaluator/' + mode]
        assert randgen.differential(g, funcs) == verdicts


def test_types_are_interned_and_carry_their_widths():
    assert nat(3) is nat(3)
    assert FiniteType('nat', 3) == nat(3) and hash(FiniteType('nat', 3)) == \
        hash(nat(3))
    assert FiniteType('nat', 3) != BOOL and repr(nat(3)) == \
        "FiniteType(kind='nat', bound=3)"
    for ty in (nat(0), nat(1), nat(4), BOOL, FiniteType('nat', 255)):
        assert ty.width == max(1, (ty.size() - 1).bit_length())


# -- one addition node: x + k is Add(x, Lit(k)) ------------------------------

# A definition, a functional contract, a contract read by its axiom and a
# definition with a choice, which is inlined under every option: k(2) puts
# its literal argument right of + by substitution, and so does lifting h(1)
# under --eliminate-choices. Each contract and choice admits exactly one
# value, so every mechanism must agree (several are ROADMAP item 1's gap).
SUMS_SRC = """
type D = nat[2];
fun f(x: D): nat[3] = x + 1;
fun g(p: D): nat[3] ensures result = p + 1;
fun h(p: D): nat[3] ensures result + p = 3;
fun k(x: D): nat[4] = (choose c: D with c = x) + x;
theorem t <=> f(2) = 3 /\\ g(2) = 3 /\\ h(1) = 2 /\\ k(2) = 4;
"""


def _sum_goal(seed):
    """A closed goal over u: comparisons of sums and products with literals
    on either side, and of SUMS_SRC's functions applied to literals or u."""
    rng = random.Random(seed)

    def lit():
        return Lit(rng.randint(0, 2))

    def term(depth):
        r = rng.random()
        if depth == 0 or r < 0.3:
            return Var('u') if rng.random() < 0.6 else lit()
        if r < 0.5:
            return Add(term(depth - 1), lit())
        if r < 0.6:
            return Add(lit(), term(depth - 1))
        if r < 0.7:
            return (Mul(term(depth - 1), lit()) if rng.random() < 0.5
                    else Mul(lit(), term(depth - 1)))
        arg = lit() if rng.random() < 0.7 else Var('u')
        return Apply(rng.choice('fghk'), [arg])

    atoms = [Atom(rng.choice(('=', '<', '<=')), term(2), term(2))
             for _ in range(rng.randint(1, 3))]
    body = atoms[0] if len(atoms) == 1 else rng.choice((And, Or))(atoms)
    return rng.choice((Forall, Exists))('u', nat(rng.randint(1, 2)), body)


def test_sums_with_literals_decide_alike_in_every_mechanism():
    funcs = resolve_model(parse_model(SUMS_SRC)).funcs
    verdicts, substituted = [], 0
    for seed in range(300):
        goal = _sum_goal(seed)
        substituted += any(isinstance(n, Apply) and n.func == 'k'
                           and isinstance(n.args[0], Lit) for n in walk(goal))
        got = randgen.differential(goal, funcs)
        for label in ('eliminate', 'inline'):
            for mode in MODES:
                answer = check_script(_emit(goal, funcs, mode=mode,
                                            **OPTIONS[label]))
                got['refsolve/%s/%s' % (mode, label)] = {
                    'unsat': 'valid', 'sat': 'invalid'}.get(answer, answer)
        assert len(set(got.values())) == 1, (seed, got)
        verdicts.append(got['oracle'])
    # 62 goals apply k to a literal, which lands right of + when k is inlined
    assert (verdicts.count('valid'), verdicts.count('invalid')) == (126, 174)
    assert substituted == 62


def test_a_parsed_and_a_built_sum_with_a_literal_emit_alike():
    built = Forall('x', nat(2), Atom('<=', Add(Var('x'), Lit(2)), Lit(3)))
    parsed = parse_formula('forall x: nat[2]. x + 2 <= 3', {})
    assert parsed == built
    for mode in MODES:
        for kw in OPTIONS.values():
            assert (_emit(parsed, mode=mode, **kw)
                    == _emit(built, mode=mode, **kw)), (mode, kw)
    # nat[2] + nat[2] is nat[4], of 3 bits: the literal is written at 3 bits
    assert '(bvadd ((_ zero_extend 1) x) #b010)' in _emit(built,
                                                          mode='preserve')


def test_a_literal_substituted_right_of_plus_is_written_at_the_sums_width():
    m = resolve_model(parse_model(SUMS_SRC))
    # k(2) inlined: (choose c: D with c = 2) + 2, a nat[4] of 3 bits
    default = _emit(m.theorems['t'], m.funcs)
    assert '(bvadd ((_ zero_extend 1) _ch1) #b010)' in default
    # h(1) lifted: the ensures clause's result + 1 over _sk1, also nat[4]
    lifted = _emit(m.theorems['t'], m.funcs, eliminate_choices=True)
    assert '(bvadd ((_ zero_extend 1) _sk1) #b001)' in lifted
    assert '(_ zero_extend 2) #b1)' not in lifted
