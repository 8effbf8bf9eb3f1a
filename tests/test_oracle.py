"""Brute-force reference checker: verdicts, choice sets, and the cap."""

import pytest

from fdl.core import (
    Atom, Choose, Exists, FalseF, FdlError, Forall, FuncDecl, Lit, Not,
    TrueF, Var, nat,
)
from fdl.oracle import assignment_space, oracle_check


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
    from fdl.evaluator import check_validity
    from fdl.randgen import random_goal
    for seed in range(200, 300):
        goal = random_goal(seed)
        v, _ = check_validity(goal)
        assert oracle_check(goal) == v.status, 'seed %d' % seed
