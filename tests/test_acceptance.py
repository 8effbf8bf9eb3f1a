"""End-to-end acceptance gate.

Each test covers one shipping criterion and prints a single PASS line with
the measured quantities when it holds (failures surface as assertions).
Run with -s to see the lines.
"""

import os
import re
import time

import pytest

from fdl.bench import PATTERNS, BenchCase, render_chart, run_case
from fdl.core import Add, Atom, Exists, Forall, Not, Var, nat
from fdl.evaluator import check_validity
from fdl.oracle import oracle_check
from fdl.randgen import differential, random_goal
from fdl.refsolver import check_script
from fdl.solvers import decide, load_solver_configs, run_solver
from fdl.translate import (
    MODES, SmtOptions, emit_smtlib, translate,
)


def _ok(line):
    print('PASS: ' + line)


def _available_backends():
    return {name: cfg for name, cfg in load_solver_configs().items()
            if cfg.available()}


def _solver_verdict(answer):
    return {'unsat': 'valid', 'sat': 'invalid'}.get(answer, answer)


def _decls(text):
    return [ln for ln in text.splitlines() if ln.startswith('(declare-fun')]


def _goal_asserts(text):
    return [ln for ln in text.splitlines()
            if ln.startswith('(assert') and ln.endswith('; negated-goal')]


def test_c1_differential_soundness_5000_goals():
    t0 = time.monotonic()
    count = 5000
    for seed in range(count):
        goal = random_goal(seed, max_depth=4, max_bound=3)
        got = differential(goal)
        want = got['oracle']
        assert (got['evaluator/nondeterministic'] == want
                == got['evaluator/deterministic']), 'seed %d' % seed
        for mode in MODES:
            assert got['refsolve/' + mode] == want, \
                'seed %d mode %s' % (seed, mode)
    backends = _available_backends()
    assert backends, 'no backend available'
    sub = 150
    for name, cfg in backends.items():
        for seed in range(sub):
            goal = random_goal(seed)
            want = oracle_check(goal)
            for mode in MODES:
                if mode == 'preserve' and not cfg.quantifiers:
                    continue
                v, outcome, _ = decide(goal, {}, cfg, SmtOptions(mode=mode))
                assert v.status == want, \
                    'seed %d backend %s mode %s (%s)' % (seed, name, mode,
                                                         outcome.answer)
    elapsed = time.monotonic() - t0
    assert elapsed < 600
    _ok('differential soundness: %d goals x (2 eval modes + %d script modes) '
        'in process, %d-goal subprocess sample per backend (%s), 100%% '
        'agreement in %.1fs < 600s'
        % (count, len(MODES), sub, ', '.join(backends), elapsed))


def test_c2_family_ground_truth():
    backends = _available_backends()
    checked = 0
    for family in ('cycle4-valid', 'cycle4-unsat', 'cycle4-sat1',
                   'cycle4-sat2'):
        for n in (1, 2):
            for pattern in PATTERNS:
                goal, funcs = BenchCase(family, pattern, n).build()
                want = oracle_check(goal, funcs)
                if family == 'cycle4-valid':
                    assert want == 'valid'
                if family == 'cycle4-unsat':
                    assert want == 'invalid'
                v, _ = check_validity(goal, funcs)
                assert v.status == want, (family, pattern, n)
                text = emit_smtlib(translate(goal, funcs))
                got = _solver_verdict(check_script(text))
                assert got == want, (family, pattern, n)
                checked += 1
    _ok('family ground truth: 4 families x 8 patterns x N in {1,2} '
        '(%d cells), evaluator and solver both equal the oracle, '
        'valid/unsat families uniform' % checked)


def test_c3_clause_count_law():
    for n in (1, 2):
        for i, pattern in enumerate(('a4e0', 'e1a3', 'e2a2', 'e3a1', 'e4a0')):
            goal, funcs = BenchCase('cycle4-valid', pattern, n).build()
            script = translate(goal, funcs, SmtOptions(mode='eliminate'))
            want = 2 ** (i * n)
            assert script.stats.goal_conjuncts == want, (pattern, n)
            assert len(_goal_asserts(emit_smtlib(script))) == want
    _ok('clause-count law: e^i a^j emits exactly 2^(iN) goal conjuncts '
        'for i in 0..4 at N in {1,2}')


def test_c4_skolem_shape_law():
    for j, pattern in enumerate(('a1e3', 'a2e2', 'a3e1', 'a4e0'), start=1):
        goal, funcs = BenchCase('cycle4-valid', pattern, 1).build()
        script = translate(goal, funcs, SmtOptions(mode='eliminate'))
        assert sorted(a for _, a in script.stats.skolem_symbols) == [0] * j
        assert len(_decls(emit_smtlib(script))) == j
    for i, pattern in enumerate(('e1a3', 'e2a2', 'e3a1'), start=1):
        j = 4 - i
        goal, funcs = BenchCase('cycle4-valid', pattern, 1).build()
        script = translate(goal, funcs, SmtOptions(mode='eliminate'))
        assert sorted(a for _, a in script.stats.skolem_symbols) == [i] * j
        assert script.stats.skolem_range_conjuncts == j * 2 ** i, pattern
    _ok('Skolem-shape law at N=1: a^j e^i gives j constants; e^i a^j gives '
        'j functions of arity i with (2^N)^i range conjuncts each')


def test_c5_heuristic_switch():
    d = nat(2)  # size 3, nontrivial, so range axioms are real
    m = Atom('=', Add(Var('x'), Var('w')), Add(Var('y'), Var('z')))
    goal = Exists('x', d, Forall('w', d, Exists('y', d,
                                                Forall('z', d, Not(m)))))
    text = emit_smtlib(translate(goal, None, SmtOptions(mode='eliminate')))
    # negation: forall x. exists w. forall y. exists z. ...
    # w: 3 range conjuncts <= 2 * 3 -> Skolemized (one unary symbol)
    # z: 9 range conjuncts > 2 * 3 -> expanded (no symbol)
    decls = _decls(text)
    assert len(decls) == 1 and decls[0].count('BitVec') == 2
    shallow = Exists('x', d, Forall('w', d, Not(Atom('=', Var('x'), Var('w')))))
    text2 = emit_smtlib(translate(shallow, None, SmtOptions(mode='eliminate')))
    assert len(_decls(text2)) == 1
    _ok('heuristic switch: witness costing more than 2x the carrier to '
        'axiomatize is expanded (no symbol), cheaper one is Skolemized')


def test_c6_laziness_counters():
    for n in (1, 2):
        goal, funcs = BenchCase('cycle4-valid', 'e4a0', n).build()
        _, stats = check_validity(goal, funcs)
        assert stats.body_evals == 1, n
        goal, funcs = BenchCase('cycle4-valid', 'a4e0', n).build()
        _, stats = check_validity(goal, funcs)
        assert stats.body_evals == (2 ** n) ** 4, n
    _ok('laziness counters: bodyEvals = 1 for e4a0 and (2^N)^4 for a4e0 '
        'at N in {1,2}')


def test_c7_choose_elimination():
    families = ('contract-f-eq1', 'contract-f-eq0',
                'contract-g-eq1', 'contract-g-eq0')
    for family in families:
        goal, funcs = BenchCase(family, 'a4e0', 1).build()
        base = SmtOptions(mode='expand-all')
        ax = emit_smtlib(translate(goal, funcs, base))
        elim = emit_smtlib(translate(
            goal, funcs, SmtOptions(mode='expand-all', eliminate_choices=True)))
        assert _decls(elim) == [], family
        assert check_script(elim) == check_script(ax), family
    _ok('choose elimination: all 4 contract families under a4e0 at N=1 '
        'translate without uninterpreted symbols and keep the solver verdict')


def test_c8_timeout_protocol(fake_solver):
    sleeper = fake_solver('sleep 30\necho sat', name='sleepy')
    limit = 400
    t0 = time.monotonic()
    outcome = run_solver(sleeper, '(set-logic QF_UFBV)\n(check-sat)\n', limit)
    elapsed_ms = (time.monotonic() - t0) * 1000.0
    assert outcome.answer == 'timeout'
    assert elapsed_ms < limit + 500
    rec = run_case(BenchCase('cycle4-valid', 'e4a0', 1), 'sleepy-S',
                   {'sleepy': sleeper}, limit_ms=limit)
    assert rec['outcome'] == 'timeout' and rec['timed_out'] is True
    svg = render_chart([rec], 'cycle4-valid', 1, limit_ms=limit)
    dashed = re.search(
        r'y1="([\d.]+)" x2="\d+" y2="[\d.]+" stroke="#888"', svg)
    circle = re.search(r'<circle cx="[\d.]+" cy="([\d.]+)"', svg)
    assert circle.group(1) == dashed.group(1)
    _ok('timeout protocol: sleeping stub killed after %.0fms '
        '(limit %dms + 500ms grace), recorded as timeout, drawn on the '
        'chart cap line' % (elapsed_ms, limit))


_REAL = [n for n, c in _available_backends().items() if n != 'refsolve']


@pytest.mark.skipif(not _REAL, reason='optional: needs a real SMT solver')
def test_c9_qualitative_timing():
    goal, funcs = BenchCase('cycle4-valid', 'e4a0', 6).build()
    t0 = time.monotonic()
    check_validity(goal, funcs)
    fast = time.monotonic() - t0
    goal, funcs = BenchCase('cycle4-valid', 'a4e0', 6).build()
    t0 = time.monotonic()
    check_validity(goal, funcs)
    slow = time.monotonic() - t0
    assert slow >= 100 * fast
    cfgs = load_solver_configs()
    name = _REAL[0]
    worst = 0.0
    for family in ('cycle4-valid', 'cycle4-unsat', 'cycle4-sat1',
                   'cycle4-sat2'):
        for pattern in PATTERNS:
            rec = run_case(BenchCase(family, pattern, 6), '%s-S' % name,
                           cfgs, limit_ms=60_000)
            assert rec['outcome'] in ('ok', 'timeout'), (family, pattern)
            assert rec['wall_ms'] <= 60_000 + 500
            worst = max(worst, rec['wall_ms'])
    _ok('qualitative timing at N=6: a4e0/e4a0 evaluator ratio %.0fx >= 100x; '
        '%s finished the 8x4 grid, worst cell %.0fms <= 60s'
        % (slow / fast, name, worst))
