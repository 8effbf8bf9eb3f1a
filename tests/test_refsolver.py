"""Reference solver: parsing, blocked-cell search, budget, CLI entry."""

import argparse
import json
import os
import subprocess
import sys

import pytest

from conftest import ROOT, recorded_goals
from fdl import refsolver
from fdl.core import resolve_model
from fdl.parser import parse_model
from fdl.refsolver import (
    RefsolverError, Script, Solver, check_script, tokenize,
)
from fdl.solvers import load_solver_configs, run_solver
from fdl.translate import MODES, SmtOptions, emit_smtlib, translate


def _script(*asserts, decls=(), logic='QF_UFBV'):
    lines = ['(set-logic %s)' % logic]
    lines += list(decls)
    lines += ['(assert %s)' % a for a in asserts]
    lines.append('(check-sat)')
    return '\n'.join(lines)


def _solve(text):
    s = Solver(Script.parse(text))
    return s.check(), s.nodes


# -- front end ----------------------------------------------------------------


def test_tokenize_strips_comments():
    toks = tokenize('(assert true) ; negated-goal\n(check-sat)')
    assert ';' not in ''.join(toks)
    assert toks[0] == '(' and 'assert' in toks


def test_tokenize_drops_each_comment_to_its_line_end():
    text = '(a) ; one ; two\n(b) ;; three\n;four\n(c);five'
    assert tokenize(text) == ['(', 'a', ')', '(', 'b', ')', '(', 'c', ')']


def test_reader_nests():
    # a term nested in a term: folded where ground, a closure where it
    # reads the cell c, both read to the end of their assertion
    decls = ['(declare-fun c () (_ BitVec 2))']
    assert _solve(_script('(= (bvadd #b01 (bvmul #b10 #b11)) #b11)')) == \
        ('sat', 0)
    assert _solve(_script('(= (bvadd c (bvmul #b10 #b11)) #b11)',
                          decls=decls)) == ('sat', 3)


def test_script_records_its_sections_as_the_solver_reads_them():
    # parse only tokenizes; the declaration is recorded when it is read
    s = Script.parse(_script('(= x #b1)', decls=['(declare-fun x () (_ BitVec 1))']))
    assert s.decls == {}
    assert Solver(s).check() == 'sat'
    assert s.decls == {'x': ([], 1)}


def test_unbalanced_input_is_an_error():
    with pytest.raises(RefsolverError, match='^unbalanced parenthesis$'):
        check_script('(assert (= #b1 #b1')
    with pytest.raises(RefsolverError, match='^unbalanced parenthesis$'):
        check_script('(assert true))')


@pytest.mark.parametrize('text', [
    '(assert true))', '(assert (= x', '(assert true) (push 1)',
    '(assert (= c #b1)) (declare-fun c () (_ BitVec 1))'])
def test_an_error_after_the_assertions_is_reported(text):
    # without an assertion folded to false every command is read, and a
    # symbol is known only from its declaration on
    with pytest.raises(RefsolverError):
        check_script(text)


@pytest.mark.parametrize('rest', [
    '(assert (= (h #b0) #b1))', '(push 1)', ')'])
def test_reading_stops_at_an_assertion_folded_to_false(rest):
    # the text after (assert false) is not read, so the undeclared h, the
    # unsupported command and the stray parenthesis are not reported
    text = '(set-logic QF_UFBV)\n(assert false)\n%s\n(check-sat)' % rest
    assert _solve(text) == ('unsat', 1)


def test_units_before_a_false_assertion_are_searched_as_before():
    # (g #b1) blocks on c ahead of false and costs 3 nodes, as when
    # (g #b0) after false was read too: the answer and nodes are unchanged
    decls = ['(declare-fun c () (_ BitVec 1))',
             '(define-fun g ((p (_ BitVec 1))) Bool (= c p))']
    assert _solve(_script('(g #b1)', 'false', '(g #b0)', decls=decls)) == \
        ('unsat', 4)


def test_comment_after_an_assertion_is_ignored():
    text = '(set-logic QF_UFBV)\n(assert true) ; (assert false)\n(check-sat)'
    assert check_script(text) == 'sat'


def test_reader_does_not_recurse_on_nesting():
    # a ground term takes no Python frame per level, to read or to fold:
    # in process and in the bridge's worker
    depth = 100_000
    text = _script('%strue%s' % ('(not ' * depth, ')' * depth))
    assert _solve(text) == ('sat', 0)
    assert run_solver(load_solver_configs()['refsolve'], text).answer == 'sat'


@pytest.mark.parametrize('term', [
    '(or true (h #b0))', '(not (and false (h #b0)))',
    '(= (ite true #b1 (h #b0)) #b1)', '(or (or true (h #b0)) (h #b1))',
    '(=> false (h #b0))', '(= (ite false (h #b0) #b1) #b1)'])
def test_what_a_literal_decides_is_not_compiled(term):
    # outside binders the parts after a deciding literal, and the branch
    # an ite does not take, are skipped: the undeclared h is not reported
    assert check_script(_script(term)) == 'sat'


def test_inside_a_binder_every_part_is_compiled():
    term = '(forall ((x (_ BitVec 1))) (or true (h #b0)))'
    with pytest.raises(RefsolverError, match="^unknown symbol 'h'$"):
        check_script(_script(term, logic='UFBV'))


def test_literal_table_is_bounded(monkeypatch):
    # the literal nodes are shared by every script and cleared when the
    # table fills; what it holds changes no answer and no node count
    decls = ['(declare-fun c () (_ BitVec 4))']
    texts = [_script('(= (bvadd c #b%s) (bvmul #b%s #b0011))'
                     % (format(a, '04b'), format(b, '04b')), decls=decls)
             for a in range(16) for b in range(16)]
    want = [_solve(text) for text in texts]
    monkeypatch.setattr(refsolver, '_LITS_MAX', 8)
    refsolver._LITS.clear()
    sizes = []
    for text, pair in zip(texts, want):
        assert _solve(text) == pair
        sizes.append(len(refsolver._LITS))
    assert max(sizes) <= 9 and min(sizes) < 8


# -- evaluation ---------------------------------------------------------------


def test_ground_sat_and_unsat():
    assert check_script(_script('true')) == 'sat'
    assert check_script(_script('false')) == 'unsat'
    assert check_script(_script('(bvult #b00 #b10)')) == 'sat'
    assert check_script(_script('(= #b01 #b10)')) == 'unsat'


def test_bitvector_arithmetic_wraps():
    assert check_script(_script('(= (bvadd #b11 #b01) #b00)')) == 'sat'
    assert check_script(_script('(= (bvmul #b10 #b10) #b00)')) == 'sat'


def test_zero_extend_and_ite():
    a = '(= ((_ zero_extend 1) #b1) #b01)'
    assert check_script(_script(a)) == 'sat'
    assert check_script(_script('(= (ite true #b1 #b0) #b1)')) == 'sat'


def test_extract_takes_a_bit_range():
    assert check_script(_script('(= ((_ extract 1 0) #b110) #b10)')) == 'sat'
    assert check_script(_script('(= ((_ extract 2 1) #b110) #b11)')) == 'sat'


def test_define_fun_is_inlined():
    d = '(define-fun inc ((x (_ BitVec 2))) (_ BitVec 2) (bvadd x #b01))'
    assert check_script(_script('(= (inc #b01) #b10)', decls=[d])) == 'sat'


def test_quantified_asserts_enumerate():
    f = '(forall ((x (_ BitVec 2))) (bvule x #b11))'
    assert check_script(_script(f, logic='UFBV')) == 'sat'
    g = '(exists ((x (_ BitVec 2))) (bvult #b11 x))'
    assert check_script(_script(g, logic='UFBV')) == 'unsat'


# -- uninterpreted functions ----------------------------------------------------


def test_search_finds_model_cell_by_cell():
    decls = ['(declare-fun f ((_ BitVec 1)) (_ BitVec 1))']
    asserts = ['(= (f #b0) #b1)', '(bvult (f #b1) (f #b0))']
    assert check_script(_script(*asserts, decls=decls)) == 'sat'
    asserts.append('(= (f #b1) #b1)')
    assert check_script(_script(*asserts, decls=decls)) == 'unsat'


def test_constants_are_zero_arity_cells():
    decls = ['(declare-fun c () (_ BitVec 2))']
    assert check_script(_script('(= c #b10)', decls=decls)) == 'sat'
    assert check_script(_script('(bvult c c)', decls=decls)) == 'unsat'


def test_unknown_symbol_is_an_error():
    with pytest.raises(RefsolverError):
        check_script(_script('(= mystery #b1)'))


def test_budget_exhaustion_returns_unknown():
    decls = ['(declare-fun f ((_ BitVec 8)) (_ BitVec 8))']
    asserts = ['(forall ((x (_ BitVec 8))) (bvule (f x) x))',
               '(exists ((x (_ BitVec 8))) (bvult x (f x)))']
    assert check_script(_script(*asserts, logic='UFBV', decls=decls),
                        budget=50) == 'unknown'


def test_node_count_grows_with_search():
    decls = ['(declare-fun c () (_ BitVec 4))']
    s = Solver(Script.parse(_script('(= c #b1111)', decls=decls)))
    assert s.check() == 'sat'
    assert s.nodes > 16


def test_ground_subtrees_fold_before_search():
    # the search sees what it sees for the hand-folded (= c #b1): one unit
    decls = ['(declare-fun c () (_ BitVec 1))']
    folded = _solve(_script('(= c #b1)', decls=decls))
    assert folded == ('sat', 3)
    assert _solve(_script('(and (bvule #b00 #b11) (= c (ite false #b0 #b1)))',
                          decls=decls)) == folded


# (=> a ... b), the same written (or (not a) ... b), further asserts and
# the answer: n-ary, literal premises, premises that block on a cell, and
# each inside a binder
IMPLICATIONS = [
    ('(=> (= c #b1) (= d #b0))', '(or (not (= c #b1)) (= d #b0))',
     ['(= d #b1)'], 'sat'),
    ('(=> (= c #b1) (= d #b0))', '(or (not (= c #b1)) (= d #b0))',
     ['(= d #b1)', '(= c #b1)'], 'unsat'),
    ('(=> (= c #b1) (= d #b1) (= (f c) #b0))',
     '(or (not (= c #b1)) (not (= d #b1)) (= (f c) #b0))',
     ['(= c #b1)', '(= d #b1)', '(= (f #b1) #b1)'], 'unsat'),
    ('(=> (= c #b1) (= d #b1) (= (f c) #b0))',
     '(or (not (= c #b1)) (not (= d #b1)) (= (f c) #b0))',
     ['(= c #b1)', '(= (f #b1) #b1)'], 'sat'),
    ('(=> true (bvult c c))', '(or (not true) (bvult c c))', [], 'unsat'),
    ('(=> false (bvult c c))', '(or (not false) (bvult c c))', [], 'sat'),
    ('(=> true (= c #b1) true false)',
     '(or (not true) (not (= c #b1)) (not true) false)', ['(= c #b1)'],
     'unsat'),
    ('(=> (= c #b1) false (= d #b1))',
     '(or (not (= c #b1)) (not false) (= d #b1))', ['(= d #b0)'], 'sat'),
    ('(=> (= c #b1) true)', '(or (not (= c #b1)) true)', ['(= c #b1)'],
     'sat'),
    ('(forall ((x (_ BitVec 1))) (=> (= x #b1) (= (f x) #b0)))',
     '(forall ((x (_ BitVec 1))) (or (not (= x #b1)) (= (f x) #b0)))',
     ['(= (f #b1) #b1)'], 'unsat'),
    ('(forall ((x (_ BitVec 1))) (=> (= x d) (= (f x) #b0)))',
     '(forall ((x (_ BitVec 1))) (or (not (= x d)) (= (f x) #b0)))',
     ['(= (f #b1) #b1)'], 'sat'),
    ('(forall ((x (_ BitVec 1))) (=> (= x c) (= x d) (= (f x) #b1)))',
     '(forall ((x (_ BitVec 1))) (or (not (= x c)) (not (= x d)) '
     '(= (f x) #b1)))', ['(= c d)', '(= (f c) #b0)'], 'unsat'),
    ('(forall ((x (_ BitVec 1))) (=> false (bvult x x)))',
     '(forall ((x (_ BitVec 1))) (or (not false) (bvult x x)))', [], 'sat'),
    ('(forall ((x (_ BitVec 1))) (=> true (= x x) (bvult x x)))',
     '(forall ((x (_ BitVec 1))) (or (not true) (not (= x x)) '
     '(bvult x x)))', [], 'unsat'),
    ('(exists ((x (_ BitVec 1))) (=> (= (f x) x) false))',
     '(exists ((x (_ BitVec 1))) (or (not (= (f x) x)) false))',
     ['(= (f #b0) #b0)'], 'sat'),
]


@pytest.mark.parametrize('implication, disjunction, rest, answer',
                         IMPLICATIONS)
def test_implication_means_its_disjunction(implication, disjunction, rest,
                                           answer):
    decls = ['(declare-fun c () (_ BitVec 1))',
             '(declare-fun d () (_ BitVec 1))',
             '(declare-fun f ((_ BitVec 1)) (_ BitVec 1))']
    got = [_solve(_script(a, *rest, decls=decls, logic='UFBV'))
           for a in (implication, disjunction)]
    assert got[0][0] == answer
    assert got[0] == got[1]


@pytest.mark.parametrize('term, head', [
    ('(= #b1)', '='), ('(bvadd #b1)', 'bvadd'), ('(ite true)', 'ite'),
    ('(not)', 'not'), ('(= #b1 #b1 #b1)', '='),
    ('(ite (= c #b1) true)', 'ite'),
    ('((_ extract 0 0) #b1 #b1)', '(_ extract 0 0)'),
    ('(forall ((x (_ BitVec 1))))', 'forall'), ('(= (f #b1 #b0) #b1)', 'f'),
    ('(= f #b1)', 'f'), ('(= (g) #b1)', 'g'),
    # frames that a literal decides, read past without being compiled
    ('(ite true true)', 'ite'), ('(ite true true false false)', 'ite'),
    ('(ite false true false false)', 'ite'), ('true false', 'assert')])
def test_a_wrong_number_of_arguments_is_an_error(term, head):
    decls = ['(declare-fun c () (_ BitVec 1))',
             '(declare-fun f ((_ BitVec 1)) (_ BitVec 1))',
             '(define-fun g ((x (_ BitVec 1))) (_ BitVec 1) x)']
    assert refsolver.answer(_script(term, decls=decls)) == (
        1, 'error: wrong number of arguments to %s' % head)


# the commands of a sat script; each case below spoils one of them
COMMANDS = ['(set-logic QF_UFBV)', '(define-fun d () (_ BitVec 1) #b1)',
            '(declare-fun c () (_ BitVec 1))', '(assert (= c d))',
            '(check-sat)', '(exit)']


@pytest.mark.parametrize('index, command, head', [
    (0, '(set-logic QF_UFBV junk)', 'set-logic'),
    (0, '(set-logic)', 'set-logic'),
    (1, '(define-fun d () (_ BitVec 1) #b1 #b0)', 'define-fun'),
    (2, '(declare-fun c () (_ BitVec 1) junk)', 'declare-fun'),
    (4, '(check-sat junk)', 'check-sat'), (5, '(exit junk)', 'exit')])
def test_a_command_with_a_wrong_number_of_arguments_is_an_error(
        index, command, head):
    assert refsolver.answer('\n'.join(COMMANDS)) == (0, 'sat')
    spoilt = COMMANDS[:index] + [command] + COMMANDS[index + 1:]
    assert refsolver.answer('\n'.join(spoilt)) == (
        1, 'error: wrong number of arguments to %s' % head)


def test_an_assertion_without_a_term_is_an_error():
    assert refsolver.answer('(assert)') == (
        1, 'error: wrong number of arguments to assert')


def test_an_implication_without_arguments_is_an_error():
    code, line = refsolver.answer(_script('(=>)'))
    assert code == 1 and line.startswith('error: ')


def test_irrelevant_cells_are_backjumped():
    # the falsified unit mentions only c, so the search must not revisit
    # the 4^16 assignments of g on the way out
    decls = ['(declare-fun g ((_ BitVec 2) (_ BitVec 2)) (_ BitVec 2))',
             '(declare-fun c () (_ BitVec 1))']
    vals = ('#b00', '#b01', '#b10', '#b11')
    asserts = ['(bvule #b00 (g %s %s))' % (a, b) for a in vals for b in vals]
    asserts.append('(bvult c c)')
    s = Solver(Script.parse(_script(*asserts, decls=decls)))
    assert s.check() == 'unsat'
    assert s.nodes < 100


def test_search_depth_is_not_bounded_by_recursion():
    # one choose axiom per point bounds one `pick` cell; the search assigns
    # them one after another, one trail frame each, and has 1,500 assigned
    # when the budget runs out
    model = resolve_model(parse_model(
        'type D = nat[5000];\n'
        'fun pick(p: D): D ensures result <= p;\n'
        'theorem t <=> forall x: D. pick(x) <= x;\n'))
    text = emit_smtlib(translate(model.theorems['t'], model.funcs))
    s = Solver(Script.parse(text), budget=3000)
    assert s.check() == 'unknown'
    assert len(s.cells) > sys.getrecursionlimit()


def _nested_not(depth):
    term = '(= x x)'
    for _ in range(depth):
        term = '(not %s)' % term
    return _script(term, decls=['(declare-fun x () (_ BitVec 1))'])


def test_nesting_past_the_recursion_limit_is_an_error(tmp_path):
    # compile and the closures take a frame per level: 900 levels decide,
    # 1,000 end with one error line and exit 1, not a RecursionError
    assert check_script(_nested_not(900)) == 'sat'
    with pytest.raises(RefsolverError, match='^script nested too deeply$'):
        check_script(_nested_not(1000))
    p = tmp_path / 'deep.smt2'
    p.write_text(_nested_not(1000))
    # by path, as fdl-refsolve runs main
    out = subprocess.run([sys.executable, refsolver.__file__, str(p)],
                         capture_output=True, text=True)
    assert (out.returncode, out.stdout) == (1, '')
    assert out.stderr == 'error: script nested too deeply\n'


@pytest.mark.parametrize('head', ['and', 'or'])
def test_left_nested_junction_chains_take_no_depth(head):
    # the shape the translator emits for /\ and \/, (and (and ... a) b),
    # with x = 1 innermost and x = 0 at every other level
    term = '(= x #b1)'
    for _ in range(900):
        term = '(%s %s (= x #b0))' % (head, term)
    text = _script(term, decls=['(declare-fun x () (_ BitVec 1))'])
    assert check_script(text) == ('unsat' if head == 'and' else 'sat')


# (answer, nodes) of every goal below in all three modes with default
# options, under a node budget of 500, as recorded before refsolve compiled
# its units to closures and kept its branch cells on a trail. A row may
# change only with the search it pins.
GOLDEN = ROOT / 'tests' / 'refsolve_golden.json'
GOLDEN_BUDGET = 500


def test_answers_and_nodes_match_the_recorded_table():
    table = json.loads(GOLDEN.read_text())
    got = {}
    for key, goal, funcs in recorded_goals():
        for mode in MODES:
            text = emit_smtlib(translate(goal, funcs, SmtOptions(mode=mode)))
            s = Solver(Script.parse(text), GOLDEN_BUDGET)
            got['%s %s' % (key, mode)] = [s.check(), s.nodes]
    assert len(got) == 3 * (128 + 8)
    assert got == table


# -- console entry ---------------------------------------------------------------


def test_cli_prints_answer(tmp_path):
    p = tmp_path / 'probe.smt2'
    p.write_text(_script('(bvule #b0 #b1)'))
    out = subprocess.run([sys.executable, '-m', 'fdl.refsolver', str(p)],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout.strip() == 'sat'


def test_cli_reports_missing_file():
    out = subprocess.run([sys.executable, '-m', 'fdl.refsolver', '/no/such'],
                         capture_output=True, text=True)
    assert out.returncode == 1
    assert 'error' in out.stderr


def test_cli_reports_a_script_that_is_not_utf8_in_one_line(tmp_path):
    p = tmp_path / 'latin1.smt2'
    p.write_bytes(b'(set-logic QF_UFBV)\n(assert (= #b1 #b1)) ; caf\xe9\n'
                  b'(check-sat)\n')
    out = subprocess.run([sys.executable, '-m', 'fdl.refsolver', str(p)],
                         capture_output=True, text=True)
    assert out.returncode == 1 and out.stdout == ''
    assert out.stderr == ("error: 'utf-8' codec can't decode byte 0xe9 in "
                          "position 46: invalid continuation byte\n")


def test_cli_reports_an_internal_failure_without_traceback(
        tmp_path, monkeypatch, capsys):
    p = tmp_path / 'probe.smt2'
    p.write_text(_script('true'))

    def crash(text, budget):
        raise RecursionError('maximum recursion depth exceeded')

    monkeypatch.setattr(refsolver, 'check_script', crash)
    assert refsolver.main([str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ''
    assert captured.err == \
        'error: RecursionError: maximum recursion depth exceeded\n'


def test_cli_runs_standalone_without_argparse():
    """refsolver.py runs by path with -I -S, and importing it, as the
    bridge's child does, loads nothing from fdl and not argparse: only
    main() imports argparse."""
    path = os.path.abspath(refsolver.__file__)
    out = subprocess.run([sys.executable, '-I', '-S', path, '--help'],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith('usage: fdl-refsolve')
    probe = ('import runpy, sys\n'
             'runpy.run_path(%r)\n'
             'print(sorted(m for m in sys.modules if m == "argparse"'
             ' or m.split(".")[0] == "fdl"))\n' % path)
    out = subprocess.run([sys.executable, '-I', '-S', '-c', probe],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == '[]'


def _argparse_reference():
    """The command line fdl-refsolve had when it was built with argparse."""
    ap = argparse.ArgumentParser(
        prog='fdl-refsolve',
        description='reference solver for the emitted SMT-LIB fragment')
    ap.add_argument('file')
    ap.add_argument('--budget', type=int, default=refsolver.DEFAULT_BUDGET,
                    help='search node budget before giving up with unknown')
    return ap


@pytest.mark.parametrize('argv', [
    ['FILE'],
    ['--budget', '0', 'FILE'],
    ['FILE', '--budget', '0'],
    ['--budget=0', 'FILE'],
    ['-h'],
    ['--help'],
    ['FILE', '--help'],
    [],
    ['--budget', '5'],
    ['FILE', 'extra'],
    ['--budget', 'many', 'FILE'],
    ['--budget=', 'FILE'],
    ['FILE', '--budget'],
    ['--bogus', 'FILE'],
], ids=lambda argv: ' '.join(argv) or 'no-arguments')
def test_cli_arguments_match_argparse(argv, tmp_path, capsys):
    # with budget 0 the search gives up before its first node
    p = tmp_path / 'probe.smt2'
    text = _script('(= c #b1)', decls=['(declare-fun c () (_ BitVec 1))'])
    p.write_text(text)
    argv = [str(p) if a == 'FILE' else a for a in argv]
    try:
        ns = _argparse_reference().parse_args(argv)
        want_code, want_out = 0, check_script(text, ns.budget) + '\n'
    except SystemExit as e:
        want_code, want_out = e.code, None
    ref = capsys.readouterr()
    try:
        code = refsolver.main(argv)
    except SystemExit as e:
        code = e.code
    got = capsys.readouterr()
    assert code == want_code
    if want_out is not None:
        assert got.out == want_out
    elif want_code == 0:
        assert got.out == ref.out and got.out.startswith('usage: fdl-refsolve')
    else:
        assert got.out == ''
        assert got.err.startswith('usage: fdl-refsolve')
        assert got.err.splitlines()[1] == ref.err.splitlines()[1]
