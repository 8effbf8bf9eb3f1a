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


@pytest.mark.parametrize('shape', ['and', 'not'])
def test_a_goal_too_deep_to_load_is_a_diagnostic(tmp_path, capsys, shape):
    assert main(['check', _deep(tmp_path, shape, 5000)]) == 3
    err = capsys.readouterr().err
    assert err == 'error: model nested too deeply\n'


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
    f = m.theorems['t'].body
    for _ in range(n - 1):
        assert isinstance(f, Implies) and isinstance(f.lhs, Atom)
        f = f.rhs
    assert isinstance(f, Atom)


def test_missing_file_exits_three(capsys):
    assert main(['check', '/no/such/model.fdl']) == 3


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
