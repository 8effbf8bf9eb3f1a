"""Running SMT solvers on translated goals.

Backends are argv templates ('{file}' is replaced by the script path),
from the built-in table below or an INI file (--solvers-config or
$FDL_SOLVERS_CONFIG):

    [z3]
    command = z3 -smt2 {file}
    quantifiers = true

The built-in refsolve command, `python -I -S -c <program> {file}`, imports
refsolver from the module's directory, whatever the child's import path,
and calls run(FILE). run_solver does not exec it per verdict: one worker,
the same program calling refsolver.serve(), is started by the first
verdict and decides script after script: length and text in, run's line
out. A timeout kills its session, EOF (a crash) is an error, and the
next verdict starts a new worker. Every other backend, and a [refsolve]
section of the INI file, is exec'd per verdict in its own session, whose
whole process group a timeout kills; one whose executable is not on PATH
reports 'unavailable'.
"""

import atexit
import os
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from typing import Optional

from . import refsolver
from .core import Record
from .evaluator import DEFAULT_TIMEOUT_MS, Verdict
from .translate import SmtOptions, TranslateError, emit_smtlib, translate

# The built-in program up to its refsolver call. The module's directory
# leaves sys.path first, so this package's modules shadow no standard one.
_PROGRAM = ('import sys; sys.path.insert(0, %r); import refsolver; '
            'del sys.path[0]; sys.exit(refsolver.'
            % os.path.dirname(os.path.abspath(refsolver.__file__)))

# name -> (argv template, whether the backend takes quantified scripts)
_BUILTIN = {
    'refsolve': ([sys.executable, '-I', '-S', '-c',
                  _PROGRAM + 'run(sys.argv[1]))', '{file}'], True),
    'z3': (['z3', '-smt2', '{file}'], True),
    'cvc4': (['cvc4', '--lang', 'smt2', '{file}'], True),
    'cvc5': (['cvc5', '--lang', 'smt2', '{file}'], True),
    'yices': (['yices-smt2', '{file}'], False),
    'boolector': (['boolector', '--smt2', '{file}'], False),
}
_WORKER_ARGV = _BUILTIN['refsolve'][0][:4] + [_PROGRAM + 'serve())']
_worker = None  # the refsolve worker's Popen, from its first verdict on


class SolverConfig(Record):
    __match_args__ = ('name', 'command', 'quantifiers')

    def __init__(self, name: str, command: list, quantifiers: bool = True):
        self.name, self.command, self.quantifiers = name, command, quantifiers

    def available(self) -> bool:
        return shutil.which(self.command[0]) is not None


class SolverOutcome(Record):
    __match_args__ = ('answer', 'wall_ms', 'detail')

    def __init__(self, answer: str, wall_ms: float = 0.0, detail: str = ''):
        # 'sat' | 'unsat' | 'unknown' | 'timeout' | 'error' | 'unavailable'
        self.answer, self.wall_ms, self.detail = answer, wall_ms, detail


def load_solver_configs(path: Optional[str] = None) -> dict:
    """Built-in backends, overlaid with the INI file if one is given (or
    named by $FDL_SOLVERS_CONFIG): a key that a section leaves out keeps its
    built-in value. A file that cannot be read, or a section with no command
    or a non-boolean quantifiers, raises ValueError('<path>: <reason>')."""
    out = {name: SolverConfig(name, list(command), quantifiers)
           for name, (command, quantifiers) in _BUILTIN.items()}
    if path is None:
        path = os.environ.get('FDL_SOLVERS_CONFIG')
    if not path:
        return out
    import configparser  # here: only an INI file needs these two
    import shlex
    cp = configparser.ConfigParser()
    try:
        with open(path) as fh:
            cp.read_file(fh)
        for name in cp.sections():
            sec, old = cp[name], out.get(name, SolverConfig(name, []))
            command = (shlex.split(sec['command']) if 'command' in sec
                       else old.command)
            if not command:
                raise ValueError('[%s] has no command' % name)
            out[name] = SolverConfig(name, command, sec.getboolean(
                'quantifiers', fallback=old.quantifiers))
    except (OSError, ValueError, configparser.Error) as e:
        reason = getattr(e, 'strerror', None) or str(e)
        raise ValueError('%s: %s' % (path, ' '.join(reason.split()))) \
            from None
    return out


def run_solver(cfg: SolverConfig, script_text: str,
               limit_ms: int = DEFAULT_TIMEOUT_MS) -> SolverOutcome:
    """Run one backend on one script and classify its answer.

    Output is read line-wise; everything before the first line that is
    exactly sat/unsat/unknown is ignored.
    """
    if not cfg.available():
        return SolverOutcome('unavailable', 0.0,
                             '%s not on PATH' % cfg.command[0])
    if cfg.command == _BUILTIN['refsolve'][0]:
        return _ask_worker(script_text, limit_ms)
    with tempfile.NamedTemporaryFile('w', suffix='.smt2', prefix='fdl-') as fh:
        fh.write(script_text)
        fh.flush()
        argv = [a.replace('{file}', fh.name) for a in cfg.command]
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=limit_ms / 1000.0)
        except subprocess.TimeoutExpired:
            _end(proc)
            return SolverOutcome('timeout', (time.monotonic() - t0) * 1000.0)
        return _classify(stdout, stderr, (time.monotonic() - t0) * 1000.0)


def _ask_worker(text: str, limit_ms: int) -> SolverOutcome:
    """The built-in command's outcome from the worker, started anew if it
    has ended: refsolver.serve reads the script, answers as run would."""
    global _worker
    t0 = time.monotonic()
    if _worker is None or _worker.poll() is not None:
        _stop_worker()
        _worker = subprocess.Popen(
            _WORKER_ARGV, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, start_new_session=True)
    line, stderr = None, ''  # None: no line within the limit
    try:
        data = text.encode()
        _worker.stdin.write(b'%d\n%s' % (len(data), data))
        _worker.stdin.flush()
        poll = select.poll()  # unlike select, it takes any fd
        poll.register(_worker.stdout, select.POLLIN)
        if poll.poll(max(0.0, limit_ms - (time.monotonic() - t0) * 1000.0)):
            line = _worker.stdout.readline().decode()
    except BrokenPipeError:
        line = ''
    finally:
        if not line:  # a timeout or EOF, or an exception here
            stderr = _stop_worker()  # its last line is the detail
    wall_ms = (time.monotonic() - t0) * 1000.0
    if line is None:
        return SolverOutcome('timeout', wall_ms)
    return _classify(line, stderr, wall_ms)


@atexit.register
def _stop_worker() -> str:
    """End the worker, if there is one; what it wrote on stderr."""
    global _worker
    proc, _worker = _worker, None
    return _end(proc).decode(errors='replace') if proc else ''


def _forget_worker() -> None:
    """In a forked child: the parent's worker is not the child's to use or
    end; closing its pipes here lets it see EOF when the parent ends."""
    global _worker
    proc, _worker = _worker, None
    for pipe in (proc.stdin, proc.stdout, proc.stderr) if proc else ():
        pipe.close()


os.register_at_fork(after_in_child=_forget_worker)


def _end(proc: subprocess.Popen):
    """Reap a solver, SIGKILLing its process group first unless it has been
    reaped already; what it wrote on stderr."""
    if proc.returncode is None:
        os.killpg(proc.pid, signal.SIGKILL)
    return proc.communicate()[1]


def _classify(stdout: str, stderr: str, wall_ms: float) -> SolverOutcome:
    for line in stdout.splitlines():
        line = line.strip()
        if line in ('sat', 'unsat', 'unknown'):
            return SolverOutcome(line, wall_ms)
    # The last line names the failure: for Python, the exception, not the
    # 'Traceback' header. Verdict adds 'error: ', so refsolve's is dropped.
    detail = (stderr or stdout).strip().splitlines()
    detail = detail[-1] if detail else 'no answer'
    if detail.startswith('error: '):
        detail = detail[len('error: '):]
    return SolverOutcome('error', wall_ms, detail)


def decide(goal, funcs, cfg: SolverConfig, opts: Optional[SmtOptions] = None,
           limit_ms: int = DEFAULT_TIMEOUT_MS):
    """Translate a goal and discharge it with one backend.

    Returns (Verdict, SolverOutcome, translate_ms). The goal is valid iff
    its negation is unsat, so: unsat -> valid, sat -> invalid,
    unknown/timeout -> undecided.
    """
    t0 = time.monotonic()
    try:
        text = emit_smtlib(translate(goal, funcs, opts))
    except TranslateError as e:
        return (Verdict('error', reason=str(e)),
                SolverOutcome('error', 0.0, str(e)),
                (time.monotonic() - t0) * 1000.0)
    translate_ms = (time.monotonic() - t0) * 1000.0
    outcome = run_solver(cfg, text, limit_ms)
    if outcome.answer in ('unsat', 'sat'):
        v = Verdict('valid' if outcome.answer == 'unsat' else 'invalid')
    elif outcome.answer in ('unknown', 'timeout'):
        v = Verdict('undecided', reason=outcome.answer)
    else:
        v = Verdict('error', reason=outcome.detail or outcome.answer)
    return v, outcome, translate_ms
