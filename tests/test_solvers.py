"""Backend bridge: config loading, subprocess runs, kills, verdict mapping."""

import functools
import os
import random
import signal
import subprocess
import sys
import threading
import time

import pytest

from fdl import refsolver, solvers
from fdl.bench import make_cases
from fdl.core import Atom, Forall, Lit, Var, nat
from fdl.solvers import (
    SolverConfig, SolverOutcome, _classify, decide, load_solver_configs,
    run_solver,
)
from fdl.translate import MODES, SmtOptions, emit_smtlib, translate


TRIVIAL = '(set-logic QF_UFBV)\n(assert true)\n(check-sat)\n'


# -- configuration ----------------------------------------------------------------


def test_builtin_configs_present():
    cfgs = load_solver_configs()
    assert {'refsolve', 'z3', 'cvc4', 'cvc5', 'yices', 'boolector'} <= set(cfgs)
    assert cfgs['refsolve'].quantifiers is True
    assert cfgs['yices'].quantifiers is False
    assert cfgs['boolector'].quantifiers is False


def test_config_overlay_from_file(tmp_path):
    ini = tmp_path / 'solvers.ini'
    ini.write_text('[mysolver]\ncommand = mysolver --in {file}\n'
                   'quantifiers = false\n\n[z3]\ncommand = z3-alt {file}\n')
    cfgs = load_solver_configs(str(ini))
    assert cfgs['mysolver'].command == ['mysolver', '--in', '{file}']
    assert cfgs['mysolver'].quantifiers is False
    assert cfgs['z3'].command[0] == 'z3-alt'
    assert 'refsolve' in cfgs


@pytest.mark.parametrize('name, quantifiers', [('yices', False),
                                               ('refsolve', True)])
def test_config_section_without_quantifiers_keeps_the_builtin(
        tmp_path, name, quantifiers):
    ini = tmp_path / 'solvers.ini'
    ini.write_text('[%s]\ncommand = my-solver {file}\n' % name)
    cfg = load_solver_configs(str(ini))[name]
    assert cfg.command == ['my-solver', '{file}']
    assert cfg.quantifiers is quantifiers


def test_config_section_without_command_keeps_the_builtin(tmp_path):
    ini = tmp_path / 'solvers.ini'
    ini.write_text('[z3]\nquantifiers = false\n')
    cfgs = load_solver_configs(str(ini))
    assert cfgs['z3'] == SolverConfig('z3', ['z3', '-smt2', '{file}'], False)
    assert cfgs['refsolve'] == load_solver_configs()['refsolve']


def test_config_overlay_from_environment(tmp_path, monkeypatch):
    ini = tmp_path / 'solvers.ini'
    ini.write_text('[envsolver]\ncommand = nothing {file}\n')
    monkeypatch.setenv('FDL_SOLVERS_CONFIG', str(ini))
    assert 'envsolver' in load_solver_configs()


def test_builtin_refsolve_runs_under_this_interpreter(tmp_path):
    cfg = load_solver_configs()['refsolve']
    assert cfg.command[:4] == [sys.executable, '-I', '-S', '-c']
    assert cfg.command[5:] == ['{file}']
    program = cfg.command[4]
    here = os.path.dirname(os.path.abspath(refsolver.__file__))
    assert repr(here) in program
    assert 'import refsolver' in program
    assert 'refsolver.run(sys.argv[1])' in program
    ini = tmp_path / 'solvers.ini'
    ini.write_text('[refsolve]\ncommand = my-refsolve {file}\n')
    assert load_solver_configs(str(ini))['refsolve'].command[0] == 'my-refsolve'


def test_builtin_refsolve_ignores_the_child_import_path(tmp_path):
    """A caller that finds fdl through its own sys.path, not PYTHONPATH,
    still gets answers from the built-in refsolve."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(refsolver.__file__)))
    code = ('import sys; sys.path.insert(0, %r)\n'
            'from fdl.solvers import load_solver_configs, run_solver\n'
            'out = run_solver(load_solver_configs()["refsolve"], %r)\n'
            'print(out.answer, out.detail)\n' % (src, TRIVIAL))
    env = {k: v for k, v in os.environ.items()
           if k not in ('PYTHONPATH', 'FDL_SOLVERS_CONFIG')}
    out = subprocess.run([sys.executable, '-c', code], cwd=str(tmp_path),
                         env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split()[0] == 'sat', out.stdout


def test_builtin_refsolve_answers_without_writing_bytecode(tmp_path):
    """The child imports refsolver; it must answer whether or not a cached
    bytecode file can be used or written."""
    script = tmp_path / 'trivial.smt2'
    script.write_text(TRIVIAL)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE='1')
    cmd = [a.replace('{file}', str(script))
           for a in load_solver_configs()['refsolve'].command]
    out = subprocess.run(cmd, env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == 'sat'


def test_builtin_refsolve_leaves_the_child_import_path_as_it_was():
    """The child imports refsolver from its directory, which holds modules
    named like standard ones (parser); the entry is gone before run()."""
    program = load_solver_configs()['refsolve'].command[4]
    probe = program.replace('sys.exit(refsolver.run(sys.argv[1]))',
                            'print(sys.path)')
    assert probe != program
    out = subprocess.run([sys.executable, '-I', '-S', '-c', probe],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    here = os.path.dirname(os.path.abspath(refsolver.__file__))
    assert here not in out.stdout


def test_builtin_refsolve_child_imports_no_argparse_and_no_fdl(tmp_path):
    """The command calls refsolver.run and the worker refsolver.serve;
    neither parses arguments, so neither pays for argparse or the fdl
    package."""
    script = tmp_path / 'trivial.smt2'
    script.write_text(TRIVIAL)
    command = [a.replace('{file}', str(script))
               for a in load_solver_configs()['refsolve'].command]
    for cmd, feed, answer in [
            (command, '', 'sat\n'),
            (solvers._WORKER_ARGV, '%d\n%s' % (len(TRIVIAL), TRIVIAL),
             'sat\n')]:
        out = subprocess.run(cmd[:1] + ['-X', 'importtime'] + cmd[1:],
                             input=feed, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout == answer
        imported = {line.rpartition('|')[2].strip()
                    for line in out.stderr.splitlines()
                    if line.startswith('import time:')}
        assert 'refsolver' in imported
        assert not {m for m in imported
                    if m == 'argparse' or m.split('.')[0] == 'fdl'}


def test_availability_checks_path():
    assert load_solver_configs()['refsolve'].available()
    ghost = SolverConfig('ghost', ['definitely-not-a-solver', '{file}'])
    assert not ghost.available()


# -- running ------------------------------------------------------------------------


def test_answer_line_is_extracted(fake_solver):
    cfg = fake_solver('echo "; preamble noise"\necho sat\necho post')
    out = run_solver(cfg, TRIVIAL)
    assert out.answer == 'sat'
    assert out.wall_ms > 0


def test_script_file_reaches_the_backend(fake_solver):
    cfg = fake_solver('grep -q check-sat "$1" && echo unsat || echo sat')
    assert run_solver(cfg, TRIVIAL).answer == 'unsat'


def test_garbage_output_is_an_error(fake_solver):
    cfg = fake_solver('echo "segmentation fault" >&2\nexit 3')
    out = run_solver(cfg, TRIVIAL)
    assert out.answer == 'error'
    assert 'segmentation fault' in out.detail


def test_traceback_reports_the_exception_line(fake_solver):
    cfg = fake_solver(
        'echo "Traceback (most recent call last):" >&2\n'
        'echo \'  File "<frozen runpy>", line 189, in _run_module_as_main\' >&2\n'
        'echo "ModuleNotFoundError: No module named \'fdl\'" >&2\n'
        'exit 1')
    out = run_solver(cfg, TRIVIAL)
    assert out.answer == 'error'
    assert out.detail == "ModuleNotFoundError: No module named 'fdl'"


def test_error_line_is_not_prefixed_twice(fake_solver, tmp_path):
    exe = fake_solver('echo "error: boom" >&2\nexit 1').command[0]
    ini = tmp_path / 'solvers.ini'
    ini.write_text('[refsolve]\ncommand = %s {file}\n' % exe)
    goal = Forall('x', nat(3), Atom('<=', Var('x'), Lit(3)))
    verdict, outcome, _ = decide(goal, {},
                                 load_solver_configs(str(ini))['refsolve'])
    assert outcome.detail == 'boom'
    assert str(verdict) == 'error: boom'


def test_silent_exit_is_an_error(fake_solver):
    out = run_solver(fake_solver('exit 0'), TRIVIAL)
    assert out.answer == 'error'
    assert out.detail == 'no answer'


def test_unavailable_backend_short_circuits():
    ghost = SolverConfig('ghost', ['definitely-not-a-solver', '{file}'])
    out = run_solver(ghost, TRIVIAL)
    assert out.answer == 'unavailable'
    assert 'not on PATH' in out.detail


def test_sleeper_is_killed_within_grace(fake_solver):
    cfg = fake_solver('sleep 30\necho sat')
    t0 = time.monotonic()
    out = run_solver(cfg, TRIVIAL, limit_ms=300)
    elapsed_ms = (time.monotonic() - t0) * 1000.0
    assert out.answer == 'timeout'
    assert elapsed_ms < 300 + 500


def test_sleeper_with_background_child_is_killed(fake_solver):
    cfg = fake_solver('sleep 30 &\nsleep 30')
    t0 = time.monotonic()
    out = run_solver(cfg, TRIVIAL, limit_ms=200)
    elapsed_ms = (time.monotonic() - t0) * 1000.0
    assert out.answer == 'timeout'
    assert elapsed_ms < 200 + 500


# -- goal-level decisions --------------------------------------------------------------


def _refsolve():
    return load_solver_configs()['refsolve']


def test_decide_maps_unsat_to_valid():
    goal = Forall('x', nat(3), Atom('<=', Var('x'), Lit(3)))
    verdict, outcome, translate_ms = decide(goal, {}, _refsolve())
    assert verdict.status == 'valid'
    assert outcome.answer == 'unsat'
    assert translate_ms >= 0


def test_decide_maps_sat_to_invalid():
    goal = Forall('x', nat(3), Atom('<', Var('x'), Lit(3)))
    verdict, outcome, _ = decide(goal, {}, _refsolve())
    assert verdict.status == 'invalid'
    assert outcome.answer == 'sat'


def test_decide_timeout_is_undecided(fake_solver):
    goal = Forall('x', nat(3), Atom('<=', Var('x'), Lit(3)))
    verdict, outcome, _ = decide(goal, {}, fake_solver('sleep 30'),
                                 limit_ms=200)
    assert verdict.status == 'undecided'
    assert verdict.reason == 'timeout'


def test_decide_surfaces_translate_errors():
    goal = Forall('x', nat(3), Atom('<=', Var('x'), Lit(3)))
    verdict, outcome, _ = decide(goal, {}, _refsolve(),
                                 SmtOptions(mode='expand-all',
                                            expansion_budget=2))
    assert verdict.status == 'error'
    assert outcome.answer == 'error'
    assert 'budget' in verdict.reason


# -- the resident refsolve worker -------------------------------------------------
#
# The test_fork_* tests pin the hazards of deciding outside the caller's
# process (answers, depth, kill, output, failures); the names are kept from
# the design that forked the caller per verdict.


def _cell_script(case, mode):
    goal, funcs = case.build()
    return emit_smtlib(translate(goal, funcs, SmtOptions(mode=mode)))


def _nested_not(depth):
    term = '(= x x)'
    for _ in range(depth):
        term = '(not %s)' % term
    return ('(set-logic QF_UFBV)\n(declare-fun x () (_ BitVec 1))\n'
            '(assert %s)\n(check-sat)\n' % term)


BAD_LITERAL = '(set-logic QF_UFBV)\n(assert (= #bxyz #b1))\n(check-sat)\n'


@functools.lru_cache(maxsize=None)
def _scripts():
    """The 64 grid cells at N=2 in every mode, then four that fail."""
    scripts = [_cell_script(case, mode) for case in make_cases(n=2)
               for mode in MODES]
    return tuple(scripts + [TRIVIAL.replace('true', 'ghost'), TRIVIAL + ')',
                            TRIVIAL.replace('(check-sat)', '(get-model)'),
                            _nested_not(1000)])


def _exec_builtin(text, tmp_path):
    """(answer, detail) of the built-in command exec'd on a file, as the
    bridge classifies an exec'd backend's output."""
    path = tmp_path / 'script.smt2'
    path.write_text(text)
    cmd = [a.replace('{file}', str(path)) for a in _refsolve().command]
    out = subprocess.run(cmd, capture_output=True, text=True)
    got = _classify(out.stdout, out.stderr, 0.0)
    return got.answer, got.detail


def _ask(texts):
    return [(out.answer, out.detail)
            for out in (run_solver(_refsolve(), text) for text in texts)]


def _worker_pid():
    run_solver(_refsolve(), TRIVIAL)
    return solvers._worker.pid


def _ended(pid):
    """No process with this pid runs (Linux): there is none, or it is a
    zombie that its new parent, not this process, has yet to reap."""
    try:
        with open('/proc/%d/stat' % pid) as fh:
            return fh.read().rpartition(')')[2].split()[0] == 'Z'
    except FileNotFoundError:
        return True


def test_fork_answers_as_the_execd_command(tmp_path):
    scripts = _scripts()
    assert len(scripts) == 64 * 3 + 4
    answers = _ask(scripts)
    assert answers == [_exec_builtin(text, tmp_path) for text in scripts]
    assert [detail for _, detail in answers[-4:]] == [
        "unknown symbol 'ghost'", 'unbalanced parenthesis',
        "unsupported command 'get-model'", 'script nested too deeply']


def test_worker_keeps_no_state_between_scripts():
    scripts = list(_scripts())
    order = list(range(len(scripts)))
    random.Random(2021).shuffle(order)
    pid = _worker_pid()
    in_order = _ask(scripts)
    shuffled = _ask([scripts[i] for i in order])
    assert solvers._worker.pid == pid  # one worker decided them all
    assert [shuffled[order.index(i)] for i in range(len(scripts))] == in_order


def _deep(frames, fn):
    return fn() if frames == 0 else _deep(frames - 1, fn)


def test_fork_headroom_does_not_depend_on_the_callers_depth():
    for frames in (0, 150):
        assert _deep(frames, lambda: _ask([_nested_not(900),
                                           _nested_not(1000)])) == [
            ('sat', ''), ('error', 'script nested too deeply')]


def _slow_script():
    case, = [c for c in make_cases(n=5)
             if (c.family, c.pattern) == ('contract-f-eq1', 'a4e0')]
    return _cell_script(case, 'eliminate')  # about 4 s of refsolve search


def test_fork_is_killed_on_timeout_and_reaped():
    pid = _worker_pid()
    t0 = time.monotonic()
    out = run_solver(_refsolve(), _slow_script(), limit_ms=300)
    assert out.answer == 'timeout'
    assert (time.monotonic() - t0) * 1000.0 < 300 + 500
    assert solvers._worker is None and _ended(pid)
    with pytest.raises(ChildProcessError):  # no child, no zombie left
        os.waitpid(-1, os.WNOHANG)
    assert _ask([TRIVIAL]) == [('sat', '')]  # from a new worker
    assert solvers._worker.pid != pid


def test_fork_does_not_flush_the_callers_stdout_again():
    src = os.path.dirname(os.path.dirname(os.path.abspath(refsolver.__file__)))
    code = ('import sys; sys.path.insert(0, %r)\n'
            'from fdl.solvers import load_solver_configs, run_solver\n'
            'print("marker", end="")\n'
            'for _ in range(3):\n'
            '    run_solver(load_solver_configs()["refsolve"], %r)\n'
            % (src, TRIVIAL))
    env = {k: v for k, v in os.environ.items() if k != 'PYTHONUNBUFFERED'}
    out = subprocess.run([sys.executable, '-c', code], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == 'marker'


def test_fork_reports_an_internal_failure(monkeypatch, tmp_path):
    """An exception that is not a RefsolverError is reported, not raised:
    in process, and from the worker, as the exec'd command reports it."""
    assert _ask([BAD_LITERAL]) == [_exec_builtin(BAD_LITERAL, tmp_path)] == [
        ('error', "ValueError: invalid literal for int() with base 2: 'xyz'")]

    def broken(text, budget):
        raise ValueError('x')
    monkeypatch.setattr(refsolver, 'check_script', broken)
    assert refsolver.answer(TRIVIAL) == (1, 'error: ValueError: x')


def test_worker_killed_during_a_verdict_is_an_error_and_replaced():
    pid = _worker_pid()
    killer = threading.Timer(0.3, os.kill, (pid, signal.SIGKILL))
    killer.start()
    try:
        out = run_solver(_refsolve(), _slow_script())
    finally:
        killer.join()
    assert (out.answer, out.detail) == ('error', 'no answer')
    assert solvers._worker is None and _ended(pid)
    assert _ask([TRIVIAL]) == [('sat', '')]


def test_worker_killed_between_verdicts_is_replaced():
    pid = _worker_pid()
    os.kill(pid, signal.SIGKILL)
    while not _ended(pid):
        time.sleep(0.01)
    assert _ask([TRIVIAL, _nested_not(3)]) == [('sat', ''), ('unsat', '')]
    assert solvers._worker.pid != pid


@pytest.mark.parametrize('ending, reaped', [('', True),
                                            ('import os; os._exit(0)', False)])
def test_no_worker_is_left_when_the_caller_ends(ending, reaped):
    """At a normal exit an atexit hook kills and reaps the worker, so no
    process has its pid. After os._exit the worker ends at EOF of its
    input, and its new parent may not have reaped it yet."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(refsolver.__file__)))
    code = ('import sys; sys.path.insert(0, %r)\n'
            'from fdl import solvers\n'
            'solvers.run_solver(solvers.load_solver_configs()["refsolve"], '
            '%r)\n'
            'print(solvers._worker.pid, flush=True)\n%s\n'
            % (src, TRIVIAL, ending))
    out = subprocess.run([sys.executable, '-c', code],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    pid = int(out.stdout)
    time.sleep(1.0)
    assert _ended(pid)
    if reaped:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_forked_child_starts_its_own_worker():
    pid = _worker_pid()
    r, w = os.pipe()
    child = os.fork()
    if not child:
        code = 1
        try:
            signal.alarm(30)  # a child stuck on the parent's pipes fails
            os.close(r)
            fresh = solvers._worker is None
            answers = _ask([TRIVIAL, _nested_not(2)])
            mine = solvers._worker.pid
            solvers._stop_worker()
            os.write(w, repr((fresh, answers, mine)).encode())
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    with open(r) as fh:
        reply = fh.read()
    assert os.waitpid(child, 0)[1] == 0
    fresh, answers, mine = eval(reply)
    assert fresh and mine != pid
    assert answers == [('sat', ''), ('sat', '')]
    assert _ask([TRIVIAL]) == [('sat', '')]  # the parent's pipes unused
    assert solvers._worker.pid == pid


def test_worker_pipes_are_not_inherited():
    _worker_pid()
    proc = solvers._worker
    assert not any(os.get_inheritable(pipe.fileno())
                   for pipe in (proc.stdin, proc.stdout, proc.stderr))
