"""Running external SMT solvers on translated goals.

Backends are configured as argv templates ('{file}' is replaced by the
script path), either from the built-in table below or from an INI file
(--solvers-config or $FDL_SOLVERS_CONFIG):

    [z3]
    command = z3 -smt2 {file}
    quantifiers = true

The built-in refsolve command, `python -I -S -c <program> {file}`, imports
refsolver from the module's directory, whatever the child's import path,
and calls run(FILE). run_solver does not exec it: it forks the caller,
where refsolver is already imported, and the child decides the inherited
text with refsolver.answer, whose line run prints, so a verdict pays no
interpreter start-up. A [refsolve] section in the INI file replaces the
command and is exec'd. Other backends are looked up on PATH, and one whose
executable is not there reports 'unavailable' instead of failing. Every
solver runs in its own session; on timeout the whole process group is
killed, so children of wrapper scripts die too.
"""

import configparser
import gc
import os
import select
import shlex
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Optional

from . import refsolver
from .evaluator import Verdict
from .translate import SmtOptions, TranslateError, emit_smtlib, translate

DEFAULT_TIMEOUT_MS = 60_000

# The module's directory leaves sys.path again before run() is called, so
# this package's modules (parser.py, ...) cannot shadow standard ones.
_REFSOLVE_PROGRAM = ('import sys; sys.path.insert(0, %r); import refsolver; '
                     'del sys.path[0]; sys.exit(refsolver.run(sys.argv[1]))'
                     % os.path.dirname(os.path.abspath(refsolver.__file__)))

# name -> (argv template, whether the backend takes quantified scripts)
_BUILTIN = {
    'refsolve': ([sys.executable, '-I', '-S', '-c', _REFSOLVE_PROGRAM,
                  '{file}'], True),
    'z3': (['z3', '-smt2', '{file}'], True),
    'cvc4': (['cvc4', '--lang', 'smt2', '{file}'], True),
    'cvc5': (['cvc5', '--lang', 'smt2', '{file}'], True),
    'yices': (['yices-smt2', '{file}'], False),
    'boolector': (['boolector', '--smt2', '{file}'], False),
}


@dataclass
class SolverConfig:
    name: str
    command: list
    quantifiers: bool = True

    def available(self) -> bool:
        return shutil.which(self.command[0]) is not None


@dataclass
class SolverOutcome:
    answer: str  # 'sat' | 'unsat' | 'unknown' | 'timeout' | 'error' | 'unavailable'
    wall_ms: float = 0.0
    detail: str = ''


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
        return _refsolve_in_fork(script_text, limit_ms)
    fd, path = tempfile.mkstemp(suffix='.smt2', prefix='fdl-')
    try:
        with os.fdopen(fd, 'w') as fh:
            fh.write(script_text)
        argv = [a.replace('{file}', path) for a in cfg.command]
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=limit_ms / 1000.0)
        except subprocess.TimeoutExpired:
            _kill_session(proc.pid)
            proc.communicate()
            return SolverOutcome('timeout', (time.monotonic() - t0) * 1000.0)
        return _classify(stdout, stderr, (time.monotonic() - t0) * 1000.0)
    finally:
        try:
            os.unlink(path)
        except OSError:
            pass


def _refsolve_in_fork(text: str, limit_ms: int) -> SolverOutcome:
    """The built-in command's outcome, from a fork of this process: the
    child starts its own session and, as it ends, writes refsolver.run's
    line for the text it inherited. It touches no Python I/O object and
    leaves by os._exit, so no buffer or code of the caller runs twice."""
    depth, frame = 0, sys._getframe()
    while frame:
        depth, frame = depth + 1, frame.f_back
    r, w = os.pipe()
    with open(r, 'rb') as pipe, open(w, 'wb', buffering=0) as sink:
        t0 = time.monotonic()
        pid = os.fork()
        if not pid:
            code = 1
            try:
                os.setsid()
                gc.freeze()  # the caller's objects: never collected or copied
                # the exec'd command's headroom, however deep the caller is
                sys.setrecursionlimit(sys.getrecursionlimit() + depth)
                code, line = refsolver.answer(text)
                os.write(w, (line + '\n').encode())
            finally:
                os._exit(code)
        sink.close()
        answered = False
        try:
            poll = select.poll()  # unlike select, it takes any fd
            poll.register(pipe, select.POLLIN)
            answered = poll.poll(limit_ms)
            out = pipe.read() if answered else b''
        finally:
            if not answered:
                _kill_session(pid)
            os.waitpid(pid, 0)
    wall_ms = (time.monotonic() - t0) * 1000.0
    if not answered:
        return SolverOutcome('timeout', wall_ms)
    return _classify(out.decode(), '', wall_ms)


def _kill_session(pid: int) -> None:
    """SIGKILL the child's process group, or the child before its setsid."""
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        os.kill(pid, signal.SIGKILL)


def _classify(stdout: str, stderr: str, wall_ms: float) -> SolverOutcome:
    for line in stdout.splitlines():
        line = line.strip()
        if line in ('sat', 'unsat', 'unknown'):
            return SolverOutcome(line, wall_ms)
    # The last line names the failure: for a Python child it is the
    # exception, not the 'Traceback' header. Verdict adds its own
    # 'error: ' prefix, so the one refsolve writes is dropped.
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
        script = translate(goal, funcs, opts)
        text = emit_smtlib(script)
    except TranslateError as e:
        return (Verdict('error', reason=str(e)),
                SolverOutcome('error', 0.0, str(e)),
                (time.monotonic() - t0) * 1000.0)
    translate_ms = (time.monotonic() - t0) * 1000.0
    outcome = run_solver(cfg, text, limit_ms)
    if outcome.answer == 'unsat':
        v = Verdict('valid')
    elif outcome.answer == 'sat':
        v = Verdict('invalid')
    elif outcome.answer in ('unknown', 'timeout'):
        v = Verdict('undecided', reason=outcome.answer)
    else:
        v = Verdict('error', reason=outcome.detail or outcome.answer)
    return v, outcome, translate_ms
