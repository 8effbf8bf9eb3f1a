"""Bit-vector translation: NNF, Skolemization, expansion, axioms, estimates."""

import hashlib
import json
import re

import pytest

from fdl.core import (
    Add, And, Atom, Exists, FalseF, Forall, Iff, Implies, Lit, Mul, Not, Or,
    TrueF, Var, nat, resolve_model, walk,
)
from fdl.oracle import oracle_check
from fdl.parser import parse_formula, parse_model
from fdl.randgen import random_goal
from fdl.refsolver import check_script
from fdl.solvers import decide, load_solver_configs
from fdl.translate import (
    MODES, SmtOptions, TranslateError, Translator, emit_smtlib,
    predicate_trivial, scan, sort_width, translate,
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
    assert sort_width(nat(0)) == 1
    assert sort_width(nat(1)) == 1
    assert sort_width(nat(2)) == 2
    assert sort_width(nat(255)) == 8


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
    for n in walk(f):
        assert not isinstance(n, (Implies, Iff))
        if isinstance(n, Not):
            assert isinstance(n.body, (Atom, TrueF, FalseF))


def test_nnf_eliminates_implications_at_both_polarities():
    a, b = Atom('=', Var('x'), Lit(0)), _lt(Var('x'), Lit(2))
    f = Not(Implies(a, Iff(b, Not(a))))
    g = to_nnf(f)
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
# a _ch symbol: the left side of =>, under !, either side of <=> (whose
# normal form (!a \\/ b) /\\ (a \\/ !b) holds a as a positive atom too, as
# !!a does) and under exists.
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
    # built as an AST, so no parser limit applies; the translator's
    # recursive passes overflow and the overflow becomes a TranslateError
    goal = Atom('=', Lit(0), Lit(0))
    for _ in range(5000):
        goal = And(goal, Atom('=', Lit(0), Lit(0)))
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
# which parses back to a goal with the same scripts.
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
# script tables pin only digests.
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
# one rebuild.
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
