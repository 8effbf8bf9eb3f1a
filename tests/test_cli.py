"""Command line: exit codes, output shapes, subcommand plumbing."""

import csv
import importlib
import os
import shutil
import subprocess
import sys

import pytest

from fdl.cli import main
from fdl.core import Atom, Implies, Not
from fdl.parser import parse_model

from conftest import CHOOSE_SRC, CONTRACT_SRC, CYCLE4_SRC

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def cycle4(tmp_path):
    p = tmp_path / 'cycle4.fdl'
    p.write_text(CYCLE4_SRC)
    return str(p)


@pytest.fixture
def choose_model(tmp_path):
    p = tmp_path / 'choose.fdl'
    p.write_text(CHOOSE_SRC)
    return str(p)


# -- check -------------------------------------------------------------------------


def test_check_valid_exits_zero(cycle4, capsys):
    assert main(['check', cycle4]) == 0
    assert 'valid' in capsys.readouterr().out


def test_check_invalid_exits_one_with_witness(tmp_path, capsys):
    p = tmp_path / 'm.fdl'
    p.write_text('theorem t <=> forall x: nat[3]. x < 3;')
    assert main(['check', str(p)]) == 1
    assert 'invalid [x = 3]' in capsys.readouterr().out


def test_check_timeout_exits_two(cycle4, capsys):
    code = main(['check', cycle4, '--param', 'N=6', '--timeout-ms', '5'])
    assert code == 2
    assert 'undecided' in capsys.readouterr().out


def test_check_eval_error_exits_two(choose_model, tmp_path, capsys):
    p = tmp_path / 'empty.fdl'
    p.write_text('theorem t <=> (choose y: nat[1] with false) = 0;')
    assert main(['check', str(p)]) == 2
    assert 'no admissible choice' in capsys.readouterr().out


def test_internal_failure_exits_two_without_traceback(cycle4, capsys,
                                                     monkeypatch):
    def fail(*args, **kwargs):
        raise RecursionError('maximum recursion depth exceeded')

    monkeypatch.setattr('fdl.cli.check_validity', fail)
    assert main(['check', cycle4]) == 2
    err = capsys.readouterr().err
    assert err == 'error: RecursionError: maximum recursion depth exceeded\n'


def test_check_timeout_in_a_deep_choice_search(tmp_path, capsys):
    # each x keeps one more choice stream open below the universal, so a
    # quantifier that recursed once per element would overflow the stack
    p = tmp_path / 'probe.fdl'
    p.write_text('type D = nat[3000];\n'
                 'fun pick(p: D): D = choose y: D with y <= p;\n'
                 'theorem t <=> exists z: D. forall x: D. pick(x) <= x + z;\n')
    assert main(['check', str(p), '--timeout-ms', '300']) == 2
    out = capsys.readouterr()
    assert out.out == 'undecided\n'
    assert out.err == ''


def test_check_solver_mechanism(cycle4, capsys):
    assert main(['check', cycle4, '--mechanism', 'refsolve']) == 0
    assert 'valid' in capsys.readouterr().out


def test_check_deterministic_mode_diverges(choose_model, capsys):
    assert main(['check', choose_model, '--goal', 'pickEqual']) == 1
    assert main(['check', choose_model, '--goal', 'pickEqual',
                 '--eval-mode', 'deterministic']) == 1


def test_check_named_goal_and_param(cycle4, capsys):
    assert main(['check', cycle4, '--goal', 'noCycle', '--param', 'N=1']) == 0


def test_check_stats_go_to_stderr(cycle4, capsys):
    assert main(['check', cycle4, '--stats']) == 0
    err = capsys.readouterr().err
    assert 'bodyEvals' in err


def test_check_unknown_goal_exits_three(cycle4, capsys):
    assert main(['check', cycle4, '--goal', 'nope']) == 3


def test_check_unknown_mechanism_exits_three(cycle4):
    assert main(['check', cycle4, '--mechanism', 'nonexistent']) == 3


@pytest.mark.parametrize('ini, reason', [
    (None, 'No such file or directory'),
    ('[ghost]\nquantifiers = false\n', '[ghost] has no command'),
    ('[ghost]\ncommand =\n', '[ghost] has no command'),
    ('[yices]\nquantifiers = maybe\n', 'Not a boolean: maybe'),
    ('command = z3 {file}\n', 'File contains no section headers.'),
], ids=['missing-file', 'no-command', 'empty-command', 'not-a-boolean',
        'no-section'])
@pytest.mark.parametrize('via', ['flag', 'environment'])
def test_bad_solvers_config_is_a_usage_error(cycle4, tmp_path, capsys,
                                            monkeypatch, ini, reason, via):
    path = tmp_path / 'solvers.ini'
    if ini is not None:
        path.write_text(ini)
    argv = ['check', cycle4, '--mechanism', 'refsolve']
    if via == 'flag':
        argv += ['--solvers-config', str(path)]
    else:
        monkeypatch.setenv('FDL_SOLVERS_CONFIG', str(path))
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ''
    assert captured.err.startswith('error: bad solvers config %s: %s'
                                   % (path, reason))
    assert captured.err.count('\n') == 1


def test_parse_diagnostics_exit_three(tmp_path, capsys):
    p = tmp_path / 'bad.fdl'
    p.write_text('theorem t <=> forall x nat[1]. x = 0;')
    assert main(['check', str(p)]) == 3
    assert 'line' in capsys.readouterr().err


def test_type_diagnostics_exit_three(tmp_path, capsys):
    p = tmp_path / 'bad.fdl'
    p.write_text('theorem t <=> loose = 0;')
    assert main(['check', str(p)]) == 3
    assert 'free variables' in capsys.readouterr().err


def _nested(tmp_path, depth):
    p = tmp_path / 'nested.fdl'
    p.write_text('theorem t <=> forall x: nat[1]. %sx = x%s;'
                 % ('(' * depth, ')' * depth))
    return str(p)


@pytest.mark.parametrize('mechanism', ['evaluator', 'refsolve'])
def test_parentheses_add_no_depth(tmp_path, capsys, mechanism):
    assert main(['check', _nested(tmp_path, 300),
                 '--mechanism', mechanism]) == 0
    assert capsys.readouterr().out == 'valid\n'


def test_nesting_past_the_recursion_limit_is_a_parse_error(tmp_path, capsys):
    assert main(['check', _nested(tmp_path, 5000)]) == 3
    err = capsys.readouterr().err
    assert err.startswith('error: line 1 col ')
    assert err.endswith(': nested too deeply\n')
    assert err.count('error:') == 1 and 'RecursionError' not in err


def _deep(tmp_path, shape, depth):
    p = tmp_path / 'deep.fdl'
    body = (' /\\ '.join(['x = x'] * depth) if shape == 'and'
            else '!' * depth + 'x = x')
    p.write_text('theorem t <=> forall x: nat[3]. %s;' % body)
    return str(p)


@pytest.mark.parametrize('shape', ['and', 'not'])
@pytest.mark.parametrize('flags', [
    ['--mechanism', 'evaluator'],
    ['--mechanism', 'evaluator', '--eval-mode', 'deterministic'],
    ['--mechanism', 'refsolve', '--mode', 'eliminate'],
    ['--mechanism', 'refsolve', '--mode', 'preserve'],
    ['--mechanism', 'refsolve', '--mode', 'expand-all'],
])
def test_every_mechanism_decides_a_goal_nested_400_deep(tmp_path, capsys,
                                                        shape, flags):
    # 400 conjuncts or negations: every pass from load to emission must
    # spend at most two frames per level
    assert main(['check', _deep(tmp_path, shape, 400)] + flags) == 0
    assert capsys.readouterr().out == 'valid\n'


@pytest.mark.parametrize('shape', ['not'])
def test_a_goal_too_deep_to_load_is_a_diagnostic(tmp_path, capsys, shape):
    # a run of ! still nests one node per negation
    assert main(['check', _deep(tmp_path, shape, 5000)]) == 3
    err = capsys.readouterr().err
    assert err == 'error: model nested too deeply\n'


@pytest.mark.parametrize('op', ['/\\', '\\/', '=>'],
                         ids=['and', 'or', 'implies'])
@pytest.mark.parametrize('argv', [
    ['check', '--mechanism', 'evaluator'],
    ['check', '--mechanism', 'evaluator', '--eval-mode', 'deterministic'],
    ['check', '--mechanism', 'refsolve', '--mode', 'eliminate'],
    ['check', '--mechanism', 'refsolve', '--mode', 'preserve'],
    ['check', '--mechanism', 'refsolve', '--mode', 'expand-all'],
    ['oracle'],
], ids=['evaluator', 'deterministic', 'eliminate', 'preserve', 'expand-all',
        'oracle'])
def test_every_mechanism_decides_a_chain_of_5000_parts(tmp_path, capsys, op,
                                                       argv):
    # a chain of /\, \/ or => is one node with a list of parts, and no
    # layer from the parser to refsolve spends a Python frame per part
    p = tmp_path / 'chain.fdl'
    p.write_text('theorem t <=> forall x: nat[3]. %s;'
                 % (' %s ' % op).join(['x <= 3'] * 5000))
    assert main([argv[0], str(p)] + argv[1:]) == 0
    assert capsys.readouterr().out == 'valid\n'


def test_runs_of_negation_and_chains_of_implication_parse_in_a_loop():
    n = 5000
    m = parse_model('theorem t <=> forall x: nat[1]. %sx = x;' % ('!' * n))
    f = m.theorems['t'].body
    for _ in range(n):
        assert isinstance(f, Not)
        f = f.body
    assert isinstance(f, Atom)
    m = parse_model('theorem t <=> forall x: nat[1]. %s;'
                    % ' => '.join(['x = x'] * n))
    f = m.theorems['t'].body  # one node of n parts
    assert isinstance(f, Implies) and len(f.parts) == n
    assert all(isinstance(p, Atom) for p in f.parts)


@pytest.mark.parametrize('argv', [
    ['check', '--mechanism', 'evaluator'],
    ['check', '--mechanism', 'refsolve'],
    ['oracle'],
], ids=['evaluator', 'refsolve', 'oracle'])
def test_a_negative_parameter_or_exponent_is_a_diagnostic(tmp_path, capsys,
                                                          argv):
    # 2^-1 is no bound; it used to fail inside FiniteType (exit 2)
    p = tmp_path / 'bound.fdl'
    p.write_text('val N: nat; type D = nat[2^N];\n'
                 'theorem t <=> forall x: D. x <= 1;')
    assert main([argv[0], str(p), '--param', 'N=-1'] + argv[1:]) == 3
    assert capsys.readouterr().err == "error: parameter 'N' is a nat, got -1\n"
    p.write_text('val N: nat = 2; type D = nat[2^(N - 3)];\n'
                 'theorem t <=> forall x: D. x <= 1;')
    assert main([argv[0], str(p)] + argv[1:]) == 3
    assert capsys.readouterr().err == (
        'error: negative exponent -1 in type bound\n')
    assert main([argv[0], str(p), '--param', 'N=4'] + argv[1:]) == 1


@pytest.mark.parametrize('argv', [
    ['check', '--mechanism', 'evaluator'],
    ['check', '--mechanism', 'refsolve'],
    ['oracle'],
], ids=['evaluator', 'refsolve', 'oracle'])
def test_a_theorem_declared_twice_is_a_parse_error(tmp_path, capsys, argv):
    # the second theorem used to replace the first, and the model was valid
    p = tmp_path / 'twice.fdl'
    p.write_text('type D = nat[3]; theorem t <=> false; theorem t <=> true;')
    assert main([argv[0], str(p)] + argv[1:]) == 3
    assert capsys.readouterr().err == (
        "error: line 1 col 47: duplicate declaration of 't'\n")


def test_missing_file_exits_three(capsys):
    assert main(['check', '/no/such/model.fdl']) == 3


@pytest.mark.parametrize('command', ['check', 'oracle', 'translate'])
def test_a_model_that_is_not_utf8_exits_three(tmp_path, capsys, command):
    p = tmp_path / 'latin1.fdl'
    p.write_bytes(b'\xff' + CYCLE4_SRC.encode())
    assert main([command, str(p)]) == 3
    err = capsys.readouterr().err
    assert err.startswith('error: %s is not UTF-8 text: ' % p), err
    assert err.count('\n') == 1


def test_bad_param_exits_three(cycle4):
    assert main(['check', cycle4, '--param', 'N=six']) == 3
    assert main(['check', cycle4, '--param', 'Q=1']) == 3


# -- translate ----------------------------------------------------------------------


def test_translate_to_stdout(cycle4, capsys):
    assert main(['translate', cycle4, '--param', 'N=1']) == 0
    out = capsys.readouterr().out
    assert out.startswith('(set-logic QF_UFBV)')
    assert '; goal: noCycle' in out
    assert out.rstrip().endswith('(check-sat)')


def test_translate_to_file_with_stats(cycle4, tmp_path, capsys):
    out = tmp_path / 'goal.smt2'
    code = main(['translate', cycle4, '--param', 'N=1', '--out', str(out),
                 '--stats'])
    assert code == 0
    assert out.read_text().startswith('(set-logic')
    err = capsys.readouterr().err
    assert 'goal=' in err and 'est-skolem=' in err


@pytest.mark.parametrize('target', ['missing/goal.smt2', 'adir'])
def test_translate_to_an_unwritable_out_exits_three(cycle4, tmp_path, capsys,
                                                    target):
    (tmp_path / 'adir').mkdir()
    out = tmp_path / target
    code = main(['translate', cycle4, '--param', 'N=1', '--out', str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith('error: cannot write --out: ') and str(out) in err
    assert err.count('\n') == 1


def test_translate_stats_count_contracts_as_definitions(tmp_path, capsys):
    p = tmp_path / 'contracts.fdl'
    p.write_text(CONTRACT_SRC)
    assert main(['translate', str(p), '--stats']) == 0
    captured = capsys.readouterr()
    assert '(define-fun f ' in captured.out
    assert captured.err.split()[-1] == 'contracts-as-definitions=1'


def test_translate_mode_flag(cycle4, capsys):
    assert main(['translate', cycle4, '--param', 'N=1',
                 '--mode', 'preserve']) == 0
    assert '(set-logic UFBV)' in capsys.readouterr().out


def test_translate_budget_error_exits_three(cycle4, capsys):
    code = main(['translate', cycle4, '--param', 'N=2',
                 '--mode', 'expand-all', '--expansion-budget', '3'])
    assert code == 3
    assert 'budget' in capsys.readouterr().err


def test_translate_eliminate_choices(choose_model, capsys):
    assert main(['translate', choose_model, '--goal', 'pickBounded',
                 '--mode', 'expand-all', '--eliminate-choices']) == 0
    assert 'declare-fun' not in capsys.readouterr().out


# -- oracle -------------------------------------------------------------------------


def test_oracle_verdicts(cycle4, capsys):
    assert main(['oracle', cycle4]) == 0
    assert capsys.readouterr().out.strip() == 'valid'


def test_oracle_cap_exits_two(cycle4, capsys):
    assert main(['oracle', cycle4, '--cap', '10']) == 2
    assert 'exceeds cap' in capsys.readouterr().err


def test_oracle_reads_sibling_quantifiers_one_after_another(tmp_path, capsys):
    # 16 assignments at a time: the product of all six carriers, 16 ** 6,
    # once exceeded the default cap
    p = tmp_path / 'six.fdl'
    p.write_text('theorem t <=> %s;\n' % ' /\\ '.join(
        ['(forall aI: nat[15]. aI <= 15)'] * 6))
    for command in ('oracle', 'check'):
        assert main([command, str(p)]) == 0
        assert capsys.readouterr().out == 'valid\n'


def test_oracle_gives_the_reason_of_a_reached_empty_choice(tmp_path, capsys):
    # the empty choice is reached before `false`: both the evaluator and
    # the oracle end with an evaluation error, and say why
    p = tmp_path / 'empty.fdl'
    p.write_text('type D = nat[1];\n'
                 'theorem t <=> (choose y: D with y < 0) = 0 /\\ false;\n')
    assert main(['check', str(p)]) == 2
    assert capsys.readouterr().out == 'error: no admissible choice\n'
    assert main(['oracle', str(p)]) == 2
    assert capsys.readouterr().out == 'error: no admissible choice\n'


# -- fuzz --------------------------------------------------------------------------


def test_fuzz_smoke(capsys):
    assert main(['fuzz', '--count', '25', '--seed', '5']) == 0
    out = capsys.readouterr().out
    assert '25 goals agree' in out


# -- bench -------------------------------------------------------------------------


def test_bench_writes_report(tmp_path, capsys):
    out = tmp_path / 'report'
    code = main(['bench', '--families', 'cycle4-valid', 'cycle4-unsat',
                 '--patterns', 'e4a0', 'a4e0', '-N', '1',
                 '--mechanisms', 'RISCAL', 'refsolve-S',
                 '--out', str(out)])
    assert code == 0
    with open(out / 'bench.csv', newline='') as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8
    assert {r['mechanism'] for r in rows} == {'RISCAL', 'refsolve-S'}
    assert {r['verdict'] for r in rows} == {'valid', 'invalid'}
    svgs = sorted(p.name for p in out.glob('*.svg'))
    assert svgs == ['cycle4-unsat-N1.svg', 'cycle4-valid-N1.svg']


def test_bench_progress_on_stderr(tmp_path, capsys):
    out = tmp_path / 'report'
    main(['bench', '--families', 'cycle4-valid', '--patterns', 'e4a0',
          '-N', '1', '--mechanisms', 'RISCAL', '--out', str(out)])
    captured = capsys.readouterr()
    assert 'cycle4-valid' in captured.err
    assert 'bench.csv' in captured.out


@pytest.mark.parametrize('repeats', ['0', '-2'])
def test_bench_rejects_repeats_below_one(tmp_path, capsys, repeats):
    out = tmp_path / 'report'
    code = main(['bench', '--families', 'cycle4-valid', '--patterns', 'e4a0',
                 '-N', '1', '--mechanisms', 'RISCAL', '--repeats', repeats,
                 '--out', str(out)])
    assert code == 3
    assert '--repeats' in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize('argv', [
    ['fuzz', '--max-bound', '0'], ['fuzz', '--max-depth', '-1'],
    ['fuzz', '--count', '-3'], ['bench', '-N', '-1'],
    ['bench', '--timeout-ms', '0'], ['bench', '--timeout-ms', '-1'],
    ['check', '--timeout-ms', '-5'], ['check', '--timeout-ms', '0'],
    ['check', '--timeout-ms', '0', '--mechanism', 'refsolve'],
    ['oracle', '--cap', '0'], ['oracle', '--cap', '-1']])
def test_numeric_options_that_can_only_fail_are_usage_errors(
        tmp_path, capsys, argv):
    out = tmp_path / 'report'
    option, value = {'-N': '--size'}.get(argv[1], argv[1]), argv[2]
    if argv[0] == 'bench':
        argv = argv + ['--families', 'cycle4-valid', '--patterns', 'e4a0',
                       '--mechanisms', 'RISCAL', '--out', str(out)]
    elif argv[0] in ('check', 'oracle'):
        argv = argv + [os.path.join(ROOT, 'models', 'cycle4.fdl'),
                       '--param', 'N=1']
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ''
    assert captured.err == 'error: %s must be at least %d, got %s\n' % (
        option, {'--max-bound': 1, '--timeout-ms': 1, '--cap': 1}.get(
            option, 0), value)
    assert not out.exists()


def test_bench_draws_its_chart_at_a_one_ms_limit(tmp_path):
    out = tmp_path / 'report'
    assert main(['bench', '--families', 'cycle4-valid', '--patterns', 'e4a0',
                 '-N', '1', '--mechanisms', 'RISCAL', '--timeout-ms', '1',
                 '--out', str(out)]) == 0
    assert (out / 'cycle4-valid-N1.svg').read_text().startswith('<svg')


def test_fuzz_runs_at_the_option_floors(capsys):
    assert main(['fuzz', '--count', '0']) == 0
    assert main(['fuzz', '--count', '5', '--max-depth', '0',
                 '--max-bound', '1']) == 0
    assert capsys.readouterr().out.startswith('ok: 0 goals agree')


def test_bench_rejects_an_unknown_mechanism_before_any_cell(tmp_path, capsys):
    out = tmp_path / 'report'
    code = main(['bench', '--families', 'cycle4-valid', '--patterns', 'a4e0',
                 '-N', '1', '--mechanisms', 'RISCAL', 'refsolve-X', 'RISCAL-S',
                 '--out', str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: unknown mechanism 'refsolve-X', 'RISCAL-S';"
                          ' known: RISCAL refsolve-S refsolve-Q refsolve-E ')
    assert err.count('\n') == 1 and not out.exists()  # no cell ran


def test_bench_rejects_an_out_that_is_a_file_before_any_cell(tmp_path,
                                                             capsys):
    out = tmp_path / 'afile'
    out.write_text('kept')
    code = main(['bench', '--families', 'cycle4-valid', '--patterns', 'e4a0',
                 '-N', '1', '--mechanisms', 'RISCAL', '--out', str(out)])
    assert code == 3
    err = capsys.readouterr().err
    # one line: no cell ran, so none printed its progress
    assert err == ("error: cannot use --out: [Errno 17] File exists: '%s'\n"
                   % out)
    assert out.read_text() == 'kept'


def test_bench_rejects_a_bad_solvers_config(tmp_path, capsys):
    ini = tmp_path / 'solvers.ini'
    ini.write_text('[ghost]\nquantifiers = false\n')
    out = tmp_path / 'report'
    code = main(['bench', '--families', 'cycle4-valid', '--patterns', 'e4a0',
                 '-N', '1', '--mechanisms', 'RISCAL', '--solvers-config',
                 str(ini), '--out', str(out)])
    assert code == 3
    assert capsys.readouterr().err == (
        'error: bad solvers config %s: [ghost] has no command\n' % ini)
    assert not out.exists()


# -- cold start --------------------------------------------------------------------


def _fresh(code):
    """The stdout of code run by a fresh interpreter in the repo root."""
    env = dict(os.environ)
    env['PYTHONPATH'] = os.pathsep.join(
        p for p in (os.path.join(ROOT, 'src'), env.get('PYTHONPATH')) if p)
    out = subprocess.run([sys.executable, '-c', code], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_python_dash_m_fdl_runs_the_command():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, 'src'))
    out = subprocess.run(
        [sys.executable, '-m', 'fdl', 'check', 'models/cycle4.fdl',
         '--param', 'N=1'], cwd=ROOT, env=env, capture_output=True,
        text=True, timeout=60)
    assert (out.returncode, out.stdout) == (0, 'valid\n'), out.stderr


def test_check_with_the_evaluator_imports_only_what_it_runs():
    out = _fresh(
        'import sys\n'
        'from fdl import cli\n'
        "argv = ['check', 'models/cycle4.fdl', '--param', 'N=1']\n"
        'assert cli.main(argv) == 0\n'
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'fdl'))\n"
        "print('subprocess' in sys.modules)\n")
    assert out.splitlines() == [
        'valid', "['fdl', 'fdl.cli', 'fdl.core', 'fdl.evaluator', "
        "'fdl.parser']", 'False']


def test_the_package_imports_its_exports_on_first_use():
    out = _fresh(
        'import sys\n'
        'import fdl\n'
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'fdl'))\n"
        'import fdl.solvers\n'  # which imports the submodule fdl.translate
        'from fdl import *\n'
        "print(all(name in globals() for name in fdl.__all__))\n"
        'print(type(translate).__name__, translate.__module__)\n')
    assert out.splitlines() == ["['fdl']", 'True', 'function fdl.translate']
    import fdl
    with pytest.raises(AttributeError):
        fdl.no_such_name


def test_the_options_of_each_command_are_those_of_its_modules(capsys):
    from fdl import bench, oracle, solvers
    from fdl.cli import build_parser
    from fdl.translate import MODES
    args = build_parser().parse_args(['bench'])
    assert args.families == list(bench.FAMILIES)
    assert args.patterns == list(bench.PATTERNS)
    assert args.timeout_ms == solvers.DEFAULT_TIMEOUT_MS
    assert build_parser().parse_args(['oracle', 'm']).cap == oracle.DEFAULT_CAP
    for mode in MODES:
        assert build_parser().parse_args(['check', 'm', '--mode', mode]).mode \
            == mode
    for argv in (['bench', '--families', 'bogus'],
                 ['bench', '--patterns', 'e5a0'],
                 ['check', 'm', '--mode', 'x']):
        with pytest.raises(SystemExit) as ei:
            build_parser().parse_args(argv)
        assert ei.value.code == 2
        assert 'invalid choice' in capsys.readouterr().err


# -- packaging ----------------------------------------------------------------------


def test_console_entry_points_installed(capsys):
    """Every [project.scripts] target answers --help; the installed scripts
    themselves are run by test_installed_console_scripts_run."""
    tomllib = pytest.importorskip('tomllib')
    with open(os.path.join(ROOT, 'pyproject.toml'), 'rb') as fh:
        scripts = tomllib.load(fh)['project']['scripts']
    assert set(scripts) == {'fdl', 'fdl-refsolve'}
    for exe, target in scripts.items():
        module, func = target.split(':')
        with pytest.raises(SystemExit) as ei:
            getattr(importlib.import_module(module), func)(['--help'])
        assert ei.value.code == 0, exe
        assert 'usage: %s' % exe in capsys.readouterr().out


@pytest.mark.parametrize('exe', [
    pytest.param(exe, marks=pytest.mark.skipif(
        shutil.which(exe) is None, reason='%s is not installed on PATH' % exe))
    for exe in ('fdl', 'fdl-refsolve')])
def test_installed_console_scripts_run(exe):
    out = subprocess.run([exe, '--help'], capture_output=True, text=True)
    assert out.returncode == 0, exe


def test_usage_error_exits_two_from_argparse(cycle4):
    with pytest.raises(SystemExit) as ei:
        main(['check'])
    assert ei.value.code == 2
