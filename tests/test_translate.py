"""Bit-vector translation: NNF, Skolemization, expansion, axioms, estimates."""

import hashlib
import json

import pytest

from fdl.core import (
    Add, And, Atom, Exists, FalseF, Forall, Iff, Implies, Lit, Mul, Not, Or,
    TrueF, Var, nat, resolve_model, walk,
)
from fdl.oracle import oracle_check
from fdl.parser import parse_model
from fdl.randgen import random_goal
from fdl.refsolver import check_script
from fdl.solvers import decide, load_solver_configs
from fdl.translate import (
    MODES, SmtOptions, TranslateError, Translator, eliminate_choices,
    emit_smtlib, estimate_costs, negate_goal, predicate_trivial, sort_width,
    to_nnf, translate,
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
    neg = negate_goal(goal)
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
    m = resolve_model(parse_model(CONTRACT_SRC))
    text = emit_smtlib(translate(m.theorems['fTotal'], m.funcs,
                                 SmtOptions(mode='preserve')))
    assert text.startswith('(set-logic UFBV)')
    assert '(exists ((' in text and '(forall ((' in text
    assert _decls(text) != []


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
    assert estimate_costs(goal) == (4, 0)
    goal, funcs = _pattern_goal('e4a0', 1)
    assert estimate_costs(goal) == (0, 16)
    goal, funcs = _pattern_goal('e2a2', 6)
    assert estimate_costs(goal) == (8192, 4096)


def test_estimates_recorded_in_stats():
    goal, funcs = _pattern_goal('e2a2', 2)
    script = translate(goal, funcs, SmtOptions(mode='eliminate'))
    assert (script.stats.estimate_skolem,
            script.stats.estimate_expansion) == estimate_costs(goal)


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
    from fdl.core import Choose, has_choose
    g = eliminate_choices(
        Forall('x', m.types['D'], Atom('<=', m.funcs['pick'].body, Var('x'))),
        m.funcs)
    assert not has_choose(g)


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
