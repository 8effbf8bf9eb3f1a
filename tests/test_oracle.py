"""Brute-force reference checker: verdicts, choice sets, and the cap."""

import math
import pathlib
import random
import types

import pytest

from fdl.core import (
    BINDERS, And, Apply, Atom, Choose, Exists, FalseF, FdlError, Forall,
    FuncDecl, Implies, Lit, Not, Or, TrueF, Var, nat, resolve_model, walk,
)
from fdl.evaluator import check_validity
from fdl.oracle import assignment_space, oracle_check
from fdl.parser import parse_model
from fdl.randgen import GoalGen, differential, random_goal

FUZZTEXT = (pathlib.Path(__file__).resolve().parent.parent / 'perfbench'
            / 'fuzztext.py')


def _lt(a, b):
    return Atom('<', a, b)


def test_simple_verdicts():
    assert oracle_check(Forall('x', nat(3), Atom('<=', Var('x'), Lit(3)))) == 'valid'
    assert oracle_check(Exists('x', nat(3), _lt(Var('x'), Lit(0)))) == 'invalid'


def test_quantifier_over_a_large_carrier_needs_no_deep_recursion():
    # one Python frame per carrier element used to exceed the recursion limit
    goal = Forall('x', nat(5000), Atom('<=', Var('x'), Lit(5000)))
    assert oracle_check(goal) == 'valid'
    assert oracle_check(Exists('x', nat(5000), Atom('=', Var('x'), Lit(5000)))) \
        == 'valid'
    assert oracle_check(Forall('x', nat(5000), _lt(Var('x'), Lit(5000)))) \
        == 'invalid'


def test_choice_makes_verdict_demonic():
    # both 0 and 1 are admissible, so '= 0' can come out false
    goal = Atom('=', Choose('y', nat(1), TrueF()), Lit(0))
    assert oracle_check(goal) == 'invalid'
    pinned = Atom('=', Choose('y', nat(1), Atom('=', Var('y'), Lit(0))), Lit(0))
    assert oracle_check(pinned) == 'valid'


def test_no_admissible_choice_is_error():
    goal = Atom('=', Choose('y', nat(1), FalseF()), Lit(0))
    assert oracle_check(goal) == 'error'


def test_contract_results_enumerate_admissible_values():
    from fdl.core import Apply
    fd = FuncDecl('any2', [], nat(2), ensures=Atom('<=', Var('result'), Lit(1)))
    funcs = {'any2': fd}
    assert oracle_check(Atom('<=', Apply('any2', []), Lit(1)), funcs) == 'valid'
    assert oracle_check(Atom('=', Apply('any2', []), Lit(0)), funcs) == 'invalid'


def test_assignment_space_multiplies_binders():
    f = Forall('x', nat(3), Exists('y', nat(1), _lt(Var('x'), Var('y'))))
    assert assignment_space(f) == 8
    g = Forall('x', nat(3), Atom('=', Choose('c', nat(7), TrueF()), Var('x')))
    assert assignment_space(g) == 32


def test_assignment_space_takes_the_largest_of_sibling_binders():
    # binders read one after another count once each, the largest path of
    # nested ones wins: 4 * 2 here, where the product of all was 4 * 2 * 6
    f = And([Forall('x', nat(3), Exists('y', nat(1), _lt(Var('x'), Var('y')))),
             Exists('z', nat(5), Atom('=', Var('z'), Lit(0)))])
    assert assignment_space(f) == 8
    # an applied function's space is nested over its arguments
    fd = FuncDecl('h', [('p', nat(1))], nat(3),
                  ensures=Forall('q', nat(1), Atom('<=', Var('q'), Var('p'))))
    g = Atom('=', Apply('h', [Choose('c', nat(2), TrueF())]),
             Choose('d', nat(9), TrueF()))
    assert assignment_space(g, {'h': fd}) == 4 * 2 * 3
    # never above the product of every binder's carrier, which it replaced
    for seed in range(300):
        goal = random_goal(seed)
        assert assignment_space(goal) <= math.prod(
            n.ty.size() for n in walk(goal) if isinstance(n, BINDERS))


def test_cap_refuses_oversized_goals():
    goal = Forall('a', nat(255), Forall('b', nat(255), Forall(
        'c', nat(255), Atom('<=', Var('a'), Lit(255)))))
    with pytest.raises(FdlError) as ei:
        oracle_check(goal)
    assert 'exceeds cap' in str(ei.value)
    small = Forall('a', nat(63), Atom('<=', Var('a'), Lit(63)))
    with pytest.raises(FdlError):
        oracle_check(small, cap=32)
    assert oracle_check(small, cap=64) == 'valid'


def test_agrees_with_evaluator_on_random_goals():
    from fdl.randgen import random_goal
    for seed in range(200, 300):
        goal = random_goal(seed)
        v, _ = check_validity(goal)
        assert oracle_check(goal) == v.status, 'seed %d' % seed


def test_determinized_choice_goals_decide_as_deterministic_evaluation():
    # the check fuzz-text makes at run time, on perfbench's own determinize
    # (read from its file, which nothing here writes): it rebuilds every
    # node through dataclasses.fields and builds And(body, Forall(...)), so
    # a change to the AST that breaks either fails here. The cap is the
    # benchmark's: the added quantifiers inflate the static estimate.
    fuzztext = types.ModuleType('fuzztext')
    exec(compile(FUZZTEXT.read_text(), str(FUZZTEXT), 'exec'),
         vars(fuzztext))
    checked = 0
    for text in fuzztext.generate(1, 2000):
        m = resolve_model(parse_model(text))
        goal, funcs, changed = fuzztext.determinize(m.theorems['t'], m.funcs)
        if changed:
            checked += 1
            want = check_validity(m.theorems['t'], m.funcs,
                                  'deterministic')[0].status
            assert oracle_check(goal, funcs, 2 ** 62) == want, text
    assert checked == 463


def _chain_goal(seed):
    """A closed choose-free goal over one chain of 3-6 parts joined by one
    of /\\, \\/ and =>, its parts randgen formulas of depth 1 over v0 or,
    one time in four, chains themselves; carriers of at most 3 elements keep
    it within the oracle's cap. GoalGen itself is left as it is: its seeds
    feed the recorded tables."""
    rng = random.Random(seed)
    gen, ty = GoalGen(rng, max_bound=2), nat(rng.randint(1, 2))
    scope = [('v0', ty)]

    def chain(depth):
        return rng.choice((And, Or, Implies))([
            chain(depth - 1) if depth and rng.random() < 0.25
            else gen.formula(1, scope) for _ in range(rng.randint(3, 6))])
    return (Forall if rng.random() < 0.5 else Exists)('v0', ty, chain(1))


def test_chains_decide_alike_in_every_mechanism():
    # the oracle reads a chain part by part, left to right, as the
    # evaluator does; refsolve reads the translation's nested and/or
    verdicts = []
    for seed in range(200):
        got = differential(_chain_goal(seed))
        assert len(set(got.values())) == 1, (seed, got)
        verdicts.append(got['oracle'])
    assert verdicts.count('valid') >= 40 and verdicts.count('invalid') >= 40
