"""Lazy evaluation: short-circuiting, choices, witnesses, counters, deadlines."""

import itertools
import json
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from fdl.core import (
    Add, AddConst, And, Atom, Choose, Exists, FalseF, Forall, FuncDecl, Iff,
    Implies, Ite, Lit, Mul, Not, Or, TrueF, Var, nat, resolve_model,
)
from fdl.evaluator import MODES, EvalTimeout, check_validity
from fdl.oracle import oracle_check
from fdl.parser import parse_model

from conftest import (
    CHOOSE_SRC, DUPLICATED_ARGUMENT_SRC, ROOT, recorded_goals,
)


def _lt(a, b):
    return Atom('<', a, b)


def _status(goal, funcs=None, mode='nondeterministic'):
    v, _ = check_validity(goal, funcs, mode)
    return v.status


# -- ground semantics -------------------------------------------------------------


def _both_modes(goal, funcs=None):
    """The status of goal in both modes, checked to agree."""
    statuses = {_status(goal, funcs, mode) for mode in MODES}
    assert len(statuses) == 1, statuses
    return statuses.pop()


def _verdict_of(truth):
    return 'valid' if truth else 'invalid'


def test_connective_truth_tables():
    const = {False: FalseF(), True: TrueF()}
    for a, b in itertools.product((False, True), repeat=2):
        lhs, rhs = const[a], const[b]
        assert _both_modes(lhs) == _verdict_of(a)
        assert _both_modes(Not(lhs)) == _verdict_of(not a)
        assert _both_modes(And(lhs, rhs)) == _verdict_of(a and b)
        assert _both_modes(Or(lhs, rhs)) == _verdict_of(a or b)
        assert _both_modes(Implies(lhs, rhs)) == _verdict_of(not a or b)
        assert _both_modes(Iff(lhs, rhs)) == _verdict_of(a == b)


def test_arithmetic_is_total_over_widened_bounds():
    t = Add(Mul(Lit(3), Lit(3)), Lit(3))
    assert _both_modes(Atom('=', t, Lit(12))) == 'valid'
    assert _both_modes(Atom('=', t, Lit(11))) == 'invalid'
    ite = Ite(_lt(Lit(1), Lit(0)), Lit(0), Lit(7))
    assert _both_modes(Atom('=', ite, Lit(7))) == 'valid'
    assert _both_modes(Atom('=', AddConst(ite, 9), Lit(16))) == 'valid'


def test_quantifiers_over_small_domains():
    assert _status(Forall('x', nat(3), Atom('<=', Var('x'), Lit(3)))) == 'valid'
    assert _status(Exists('x', nat(3), Atom('=', Var('x'), Lit(3)))) == 'valid'
    assert _status(Exists('x', nat(3), _lt(Var('x'), Lit(0)))) == 'invalid'
    assert _status(Forall('b', nat(0), Atom('=', Var('b'), Lit(0)))) == 'valid'


@given(st.integers(0, 3), st.integers(0, 3))
def test_atom_relations_match_python(a, b):
    assert _both_modes(_lt(Lit(a), Lit(b))) == _verdict_of(a < b)
    assert _both_modes(Atom('<=', Lit(a), Lit(b))) == _verdict_of(a <= b)
    assert _both_modes(Atom('=', Lit(a), Lit(b))) == _verdict_of(a == b)


# -- short-circuiting and counters --------------------------------------------------


def test_exists_stops_at_first_witness():
    goal = Exists('x', nat(7), Atom('=', Var('x'), Lit(2)))
    v, stats = check_validity(goal)
    assert v.status == 'valid'
    assert stats.body_evals == 3


def test_forall_stops_at_first_counterexample():
    goal = Forall('x', nat(7), _lt(Var('x'), Lit(5)))
    v, stats = check_validity(goal)
    assert v.status == 'invalid'
    assert stats.body_evals == 6
    assert v.witness == {'x': 5}


def test_body_evals_count_only_innermost_bodies():
    inner = Atom('<=', Add(Var('x'), Var('y')), Lit(6))
    goal = Forall('x', nat(3), Forall('y', nat(3), inner))
    v, stats = check_validity(goal)
    assert v.status == 'valid'
    assert stats.body_evals == 16


def test_nested_short_circuit_prunes_inner_sweeps():
    # exists x. forall y. x <= y holds at x = 0 after one inner sweep
    goal = Exists('x', nat(3), Forall('y', nat(3), Atom('<=', Var('x'), Var('y'))))
    v, stats = check_validity(goal)
    assert v.status == 'valid'
    assert stats.body_evals == 4


# -- witnesses ----------------------------------------------------------------------


def test_witness_covers_leading_universal_block():
    import pathlib
    m = resolve_model(parse_model(pathlib.Path('models/cycle4.fdl').read_text()),
                      {'N': 2})
    v, _ = check_validity(m.theorems['noSlackCycle'], m.funcs)
    assert v.status == 'invalid'
    assert v.witness == {'x1': 0, 'x2': 1, 'x3': 2, 'x4': 3}
    assert str(v) == 'invalid [x1 = 0, x2 = 1, x3 = 2, x4 = 3]'


def test_witness_empty_without_leading_universals():
    goal = Not(Exists('x', nat(1), Atom('=', Var('x'), Lit(0))))
    v, _ = check_validity(goal)
    assert v.status == 'invalid'
    assert v.witness == {}
    assert str(v) == 'invalid'


# -- choice semantics ---------------------------------------------------------------


def _choose_model():
    return resolve_model(parse_model(CHOOSE_SRC))


def test_choose_bounded_holds_in_both_modes():
    m = _choose_model()
    for mode in ('nondeterministic', 'deterministic'):
        v, stats = check_validity(m.theorems['pickBounded'], m.funcs, mode)
        assert v.status == 'valid'
        assert stats.body_evals == 3
    # nd explores every admissible value, det takes the first
    _, nd = check_validity(m.theorems['pickBounded'], m.funcs)
    _, det = check_validity(m.theorems['pickBounded'], m.funcs, 'deterministic')
    assert nd.choose_yields == 6
    assert det.choose_yields == 3


def test_choose_equal_fails_on_second_value():
    m = _choose_model()
    for mode in ('nondeterministic', 'deterministic'):
        v, _ = check_validity(m.theorems['pickEqual'], m.funcs, mode)
        assert v.status == 'invalid'
        assert v.witness == {'x': 1}


def test_modes_diverge_when_only_first_choice_satisfies():
    goal = Atom('=', Choose('y', nat(1), TrueF()), Lit(0))
    assert _status(goal, mode='deterministic') == 'valid'
    assert _status(goal, mode='nondeterministic') == 'invalid'


def test_empty_choice_is_an_error_in_both_modes():
    goal = Atom('=', Choose('y', nat(1), FalseF()), Lit(0))
    for mode in ('nondeterministic', 'deterministic'):
        v, _ = check_validity(goal, mode=mode)
        assert v.status == 'error'
        assert v.reason == 'no admissible choice'


def test_contract_function_streams_all_admissible_results():
    from fdl.core import Apply
    fd = FuncDecl('pick01', [], nat(1),
                  ensures=Atom('<=', Var('result'), Lit(1)))
    funcs = {'pick01': fd}
    bounded = Atom('<=', Apply('pick01', []), Lit(1))
    assert _status(bounded, funcs) == 'valid'
    eq0 = Atom('=', Apply('pick01', []), Lit(0))
    assert _status(eq0, funcs) == 'invalid'
    assert _status(eq0, funcs, 'deterministic') == 'valid'


def test_an_abandoned_stream_leaves_no_binding_behind():
    # the choice of y stops at the first true value of its condition and
    # abandons the stream of the inner exists x at x = 2; the outer x must
    # still read its own value, 0 or 1, so y + x <= 1 always holds
    src = ('theorem t <=> exists x: nat[1]. !((choose y: nat[0] with '
           'exists x: nat[2]. (choose z: nat[2] with z = x) = 2) + x <= 1);')
    goal = resolve_model(parse_model(src)).theorems['t']
    assert oracle_check(goal) == 'invalid'
    for mode in MODES:
        assert _status(goal, mode=mode) == 'invalid', mode


# -- deadlines ----------------------------------------------------------------------


def test_deadline_raises_eval_timeout():
    import pathlib
    m = resolve_model(parse_model(pathlib.Path('models/cycle4.fdl').read_text()))
    with pytest.raises(EvalTimeout):
        check_validity(m.theorems['noCycle'], m.funcs, limit_ms=5)


def test_no_deadline_finishes_large_sweep():
    goal = Forall('x', nat(255), Atom('<=', Var('x'), Lit(255)))
    v, stats = check_validity(goal)
    assert v.status == 'valid'
    assert stats.body_evals == 256


def test_deadline_bounds_a_goal_over_huge_carriers():
    # the carriers stay lazy: nothing of size 2^28 is built before the sweep
    m = resolve_model(parse_model(
        pathlib.Path('models/cycle4.fdl').read_text()), {'N': 28})
    for mode in MODES:
        with pytest.raises(EvalTimeout):
            check_validity(m.theorems['noCycle'], m.funcs, mode, limit_ms=50)


@pytest.mark.parametrize('bound', ['2^30 - 1', '2^70'])
def test_exists_over_a_huge_carrier_stops_at_its_first_element(bound):
    m = resolve_model(parse_model(
        'theorem det <=> exists x: nat[%s]. x = 0;\n'
        'theorem nondet <=> exists x: nat[%s]. '
        'x = (choose y: nat[1] with y = 0);' % (bound, bound)))
    for name, goal in m.theorems.items():
        for mode in MODES:
            v, stats = check_validity(goal, mode=mode)
            assert v.status == 'valid', (name, mode)
            assert stats.body_evals == 1, (name, mode)


PICK_SRC = """
type D = nat[%d];
fun pick(p: D): D = choose y: D with y <= p;
theorem t <=> %s;
"""


def _pick_goal(bound, theorem):
    m = resolve_model(parse_model(PICK_SRC % (bound, theorem)))
    return m.theorems['t'], m.funcs


def test_deadline_is_checked_in_choice_loops():
    # one body per x, but x + 1 candidates in each choice loop
    goal, funcs = _pick_goal(1500, 'forall x: D. pick(x) <= x')
    with pytest.raises(EvalTimeout):
        check_validity(goal, funcs, limit_ms=200)


# -- no recursion that grows with a carrier -------------------------------------------


def test_nondeterministic_quantifier_needs_no_deep_recursion():
    m = resolve_model(parse_model(
        'theorem t <=> exists z: nat[1]. forall x: nat[5000]. '
        '(choose y: nat[1] with y = 0) <= x + 1;'))
    for mode in MODES:
        v, stats = check_validity(m.theorems['t'], mode=mode)
        assert v.status == 'valid', mode
        assert stats.body_evals == stats.choose_yields == 5001, mode


# -- differential against the brute-force oracle -------------------------------------


def test_matches_oracle_on_random_goals():
    from fdl.oracle import oracle_check
    from fdl.randgen import random_goal
    for seed in range(150):
        goal = random_goal(seed)
        v, _ = check_validity(goal)
        assert v.status == oracle_check(goal), 'seed %d' % seed


# -- recorded results ----------------------------------------------------------------

# (status, witness, reason, body_evals, choose_yields) of every goal below in
# both modes, as recorded from the evaluator before it compiled goals to
# closures (one interpreter for deterministic and one for nondeterministic
# evaluation). A row may change only with the semantics it pins.
GOLDEN = ROOT / 'tests' / 'evaluator_golden.json'


def _golden_goals():
    yield from recorded_goals()
    m = resolve_model(parse_model(DUPLICATED_ARGUMENT_SRC))
    for name, goal in m.theorems.items():
        yield 'argument/%s' % name, goal, m.funcs


def _golden_row(goal, funcs, mode):
    v, stats = check_validity(goal, funcs, mode)
    witness = None if v.witness is None else [list(kv) for kv in v.witness.items()]
    return [v.status, witness, v.reason, stats.body_evals, stats.choose_yields]


def test_results_match_the_recorded_table():
    table = json.loads(GOLDEN.read_text())
    got = {}
    for key, goal, funcs in _golden_goals():
        for mode in MODES:
            got['%s %s' % (key, mode)] = _golden_row(goal, funcs, mode)
        assert got[key + ' nondeterministic'][0] == oracle_check(goal, funcs), key
    assert len(got) == 2 * (128 + 8 + 4)
    assert got == table
