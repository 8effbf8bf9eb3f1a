"""Shared fixtures: throwaway shell-script backends, model sources, the
goals of the recorded result tables, and a check at the end of the session
that no solver process is left."""

import os
import pathlib
import stat

import pytest

from fdl import solvers
from fdl.bench import make_cases
from fdl.core import resolve_model
from fdl.parser import parse_model
from fdl.solvers import SolverConfig

ROOT = pathlib.Path(__file__).resolve().parent.parent


CYCLE4_SRC = """
val N: nat = 2;
type D = nat[2^N - 1];
theorem noCycle <=>
  forall x1: D, x2: D, x3: D, x4: D.
    !(x1 < x2 /\\ x2 < x3 /\\ x3 < x4 /\\ x4 < x1);
"""

CONTRACT_SRC = """
val N: nat = 1;
type D = nat[2^N - 1];
fun f(x1: D, x2: D): nat[1]
  ensures result = (if x1 < x2 then 0 else 1);
theorem fTotal <=> forall x1: D, x2: D. f(x1, x2) <= 1;
"""

CHOOSE_SRC = """
val N: nat = 2;
type D = nat[N];
fun pick(x: D): D = choose y: D with y <= x;
theorem pickBounded <=> forall x: D. pick(x) <= x;
theorem pickEqual <=> forall x: D. pick(x) = x;
"""

# choices in the arguments of definitions, including one that only appears
# inside another definition's body (nested)
DUPLICATED_ARGUMENT_SRC = """
type D = nat[2];
fun twice(x: D): nat[4] = x + (choose w: D with w = x);
fun k(z: D): nat[4] = twice(choose c: D with c <= z);
theorem even <=> !(twice(choose c: D with c <= 1) = 1);
theorem bounded <=> forall x: D. twice(choose c: D with c <= x) <= 2 * x;
theorem odd <=> exists x: D. twice(choose c: D with c <= 1) = 1;
theorem nested <=> !(k(1) = 1);
"""


def recorded_goals():
    """(key, goal, funcs) for the 64 grid cells at N=1 and N=2 and every
    models/*.fdl theorem at N=2."""
    for n in (1, 2):
        for case in make_cases(n=n):
            goal, funcs = case.build()
            yield 'grid/%s/%s/N=%d' % (case.family, case.pattern, n), goal, funcs
    for path in sorted((ROOT / 'models').glob('*.fdl')):
        m = resolve_model(parse_model(path.read_text()), {'N': 2})
        for name, goal in m.theorems.items():
            yield 'models/%s/%s/N=2' % (path.name, name), goal, m.funcs


@pytest.fixture
def fake_solver(tmp_path):
    """Factory building a SolverConfig around an ad-hoc shell script."""

    def make(body, name='fake'):
        exe = tmp_path / name
        exe.write_text('#!/bin/sh\n' + body + '\n')
        exe.chmod(exe.stat().st_mode | stat.S_IEXEC)
        return SolverConfig(name=name, command=[str(exe), '{file}'])

    return make


@pytest.fixture(scope='session', autouse=True)
def no_process_left():
    """Stop the refsolve worker when the session ends; then this process
    must have no child left, running or unreaped."""
    yield
    solvers._stop_worker()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
