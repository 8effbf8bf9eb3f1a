"""Validity checking by lazy evaluation over the finite carriers.

Quantifier loops short-circuit: a universal stops at the first falsifying
element, an existential at the first witness. Choose terms make evaluation
nondeterministic; in 'nondeterministic' mode a formula denotes a stream of
truth values (one per resolution of its choices, depth-first, the latest
choice point varying fastest) and the checker inspects the whole stream.
In 'deterministic' mode every choose takes the first admissible value.

A contract application f(a) behaves exactly like
choose result: R with ensures[params := a].
"""

import time
from dataclasses import dataclass, field
from typing import Optional

from .core import (Add, AddConst, And, Apply, Atom, Choose, EvalError, Exists,
                   FalseF, FdlError, Forall, Formula, Iff, Implies, Ite, Lit,
                   Mul, Not, Or, QUANTIFIERS, TrueF, Var, has_choose,
                   nondeterministic_funcs)

MODES = ('deterministic', 'nondeterministic')


class EvalTimeout(FdlError):
    """Raised when evaluation exceeds its deadline."""


@dataclass
class EvalStats:
    body_evals: int = 0
    choose_yields: int = 0
    deadline: Optional[float] = None  # time.monotonic() value
    _ticks: int = field(default=0, repr=False)

    def tick(self):
        self._ticks += 1
        if self.deadline is not None and self._ticks % 4096 == 0:
            if time.monotonic() > self.deadline:
                raise EvalTimeout('evaluation timed out')


@dataclass
class Verdict:
    status: str  # 'valid' | 'invalid' | 'undecided' | 'error'
    witness: Optional[dict] = None
    reason: Optional[str] = None

    def __str__(self):
        if self.status == 'invalid' and self.witness:
            parts = ', '.join('%s = %s' % (k, _show(v))
                              for k, v in self.witness.items())
            return 'invalid [%s]' % parts
        if self.status == 'error':
            return 'error: %s' % self.reason
        return self.status


def _show(v):
    if isinstance(v, bool):
        return 'true' if v else 'false'
    return str(v)


_REL = {'=': lambda a, b: a == b,
        '<': lambda a, b: a < b,
        '<=': lambda a, b: a <= b}


class Evaluator:
    def __init__(self, funcs=None, stats=None, mode='nondeterministic'):
        assert mode in MODES
        self.funcs = funcs or {}
        self.st = stats if stats is not None else EvalStats()
        self.mode = mode
        self._nondet = nondeterministic_funcs(self.funcs)
        self._det_memo = {}

    # -- determinism analysis (choose-free subtrees take the fast path) ------

    def _node_is_det(self, node):
        key = id(node)
        det = self._det_memo.get(key)
        if det is None:
            det = self._det_memo[key] = not has_choose(node, self._nondet)
        return det

    # -- deterministic evaluation --------------------------------------------

    def eval_term(self, t, env):
        if isinstance(t, Var):
            return env[t.name]
        if isinstance(t, Lit):
            return t.value
        if isinstance(t, Add):
            return self.eval_term(t.lhs, env) + self.eval_term(t.rhs, env)
        if isinstance(t, AddConst):
            return self.eval_term(t.lhs, env) + t.const
        if isinstance(t, Mul):
            return self.eval_term(t.lhs, env) * self.eval_term(t.rhs, env)
        if isinstance(t, Ite):
            if self.eval_formula(t.cond, env):
                return self.eval_term(t.then, env)
            return self.eval_term(t.els, env)
        if isinstance(t, Choose):
            old = env.get(t.var, _MISSING)
            for i in range(t.ty.size()):
                env[t.var] = t.ty.value_at(i)
                if self.eval_formula(t.body, env):
                    _restore(env, t.var, old)
                    self.st.choose_yields += 1
                    return t.ty.value_at(i)
            _restore(env, t.var, old)
            raise EvalError('no admissible choice')
        if isinstance(t, Apply):
            fd = self.funcs[t.func]
            args = [self.eval_term(a, env) for a in t.args]
            inner = {p: v for (p, _), v in zip(fd.params, args)}
            if fd.body is not None:
                return self.eval_term(fd.body, inner)
            rty = fd.result
            for i in range(rty.size()):
                inner['result'] = rty.value_at(i)
                if self.eval_formula(fd.ensures, inner):
                    self.st.choose_yields += 1
                    return rty.value_at(i)
            raise EvalError('no admissible choice')
        raise AssertionError('unhandled term %r' % t)

    def eval_formula(self, f, env):
        if isinstance(f, Atom):
            return _REL[f.rel](self.eval_term(f.lhs, env),
                               self.eval_term(f.rhs, env))
        if isinstance(f, And):
            return self.eval_formula(f.lhs, env) and self.eval_formula(f.rhs, env)
        if isinstance(f, Or):
            return self.eval_formula(f.lhs, env) or self.eval_formula(f.rhs, env)
        if isinstance(f, Not):
            return not self.eval_formula(f.body, env)
        if isinstance(f, Implies):
            return (not self.eval_formula(f.lhs, env)
                    or self.eval_formula(f.rhs, env))
        if isinstance(f, Iff):
            return self.eval_formula(f.lhs, env) == self.eval_formula(f.rhs, env)
        if isinstance(f, TrueF):
            return True
        if isinstance(f, FalseF):
            return False
        if isinstance(f, QUANTIFIERS):
            body = f.body
            count = not isinstance(body, QUANTIFIERS)
            want = isinstance(f, Exists)
            old = env.get(f.var, _MISSING)
            result = not want
            for i in range(f.ty.size()):
                env[f.var] = f.ty.value_at(i)
                if count:
                    self.st.body_evals += 1
                    self.st.tick()
                if self.eval_formula(body, env) == want:
                    result = want
                    break
            _restore(env, f.var, old)
            return result
        raise AssertionError('unhandled formula %r' % f)

    # -- nondeterministic evaluation (streams of values) ----------------------

    def stream_term(self, t, env):
        if self._node_is_det(t):
            yield self.eval_term(t, env)
            return
        if isinstance(t, (Add, AddConst, Mul)):
            for a in self.stream_term(t.lhs, env):
                if isinstance(t, AddConst):
                    yield a + t.const
                    continue
                for b in self.stream_term(t.rhs, env):
                    yield a + b if isinstance(t, Add) else a * b
            return
        if isinstance(t, Ite):
            for c in self.stream_formula(t.cond, env):
                branch = t.then if c else t.els
                yield from self.stream_term(branch, env)
            return
        if isinstance(t, Choose):
            old = env.get(t.var, _MISSING)
            for i in range(t.ty.size()):
                env[t.var] = t.ty.value_at(i)
                ok = self._some_true(t.body, env)
                _restore(env, t.var, old)
                if ok:
                    self.st.choose_yields += 1
                    yield t.ty.value_at(i)
            return
        if isinstance(t, Apply):
            fd = self.funcs[t.func]
            yield from self._stream_apply(fd, t.args, 0, [], env)
            return
        raise AssertionError('unhandled nondeterministic term %r' % t)

    def _stream_apply(self, fd, args, i, vals, env):
        if i < len(args):
            for v in self.stream_term(args[i], env):
                yield from self._stream_apply(fd, args, i + 1, vals + [v], env)
            return
        inner = {p: v for (p, _), v in zip(fd.params, vals)}
        if fd.body is not None:
            yield from self.stream_term(fd.body, inner)
            return
        rty = fd.result
        for k in range(rty.size()):
            inner['result'] = rty.value_at(k)
            if self._some_true(fd.ensures, inner):
                self.st.choose_yields += 1
                yield rty.value_at(k)

    def _some_true(self, f, env):
        if self._node_is_det(f):
            return self.eval_formula(f, env)
        for tv in self.stream_formula(f, env):
            if tv:
                return True
        return False

    def stream_formula(self, f, env):
        if self._node_is_det(f):
            yield self.eval_formula(f, env)
            return
        if isinstance(f, Atom):
            rel = _REL[f.rel]
            for a in self.stream_term(f.lhs, env):
                for b in self.stream_term(f.rhs, env):
                    yield rel(a, b)
            return
        if isinstance(f, Not):
            for tv in self.stream_formula(f.body, env):
                yield not tv
            return
        if isinstance(f, (And, Or, Implies)):
            # the left value that short-circuits, and the result it forces
            stop, forced = {And: (False, False), Or: (True, True),
                            Implies: (False, True)}[type(f)]
            for lv in self.stream_formula(f.lhs, env):
                if lv == stop:
                    yield forced
                else:
                    yield from self.stream_formula(f.rhs, env)
            return
        if isinstance(f, Iff):
            for lv in self.stream_formula(f.lhs, env):
                for rv in self.stream_formula(f.rhs, env):
                    yield lv == rv
            return
        if isinstance(f, QUANTIFIERS):
            yield from self._stream_quant(f, 0, env)
            return
        raise AssertionError('unhandled nondeterministic formula %r' % f)

    def _stream_quant(self, f, i, env):
        want = isinstance(f, Exists)
        if i == f.ty.size():
            yield not want
            return
        body = f.body
        old = env.get(f.var, _MISSING)
        env[f.var] = f.ty.value_at(i)
        if not isinstance(body, QUANTIFIERS):
            self.st.body_evals += 1
            self.st.tick()
        for tv in self.stream_formula(body, env):
            if tv == want:
                yield want
            else:
                yield from self._stream_quant(f, i + 1, env)
        _restore(env, f.var, old)


_MISSING = object()


def _restore(env, name, old):
    if old is _MISSING:
        del env[name]
    else:
        env[name] = old


def check_validity(goal: Formula, funcs=None, mode='nondeterministic',
                   limit_ms=None):
    """Decide whether a closed formula holds; returns (Verdict, EvalStats).

    An invalid verdict carries a witness assignment for the leading block of
    universal quantifiers (empty when the goal does not start with one).
    Raises EvalTimeout when limit_ms elapses.
    """
    st = EvalStats()
    if limit_ms is not None:
        st.deadline = time.monotonic() + limit_ms / 1000.0
    ev = Evaluator(funcs, st, mode)

    block = []
    matrix = goal
    while isinstance(matrix, Forall):
        block.append((matrix.var, matrix.ty))
        matrix = matrix.body
    count_leaf = not isinstance(matrix, QUANTIFIERS)

    env = {}
    assignment = {}

    def leaf():
        # returns a Verdict or None to keep going
        if count_leaf and block:
            st.body_evals += 1
            st.tick()
        if ev.mode == 'deterministic' or ev._node_is_det(matrix):
            ok = ev.eval_formula(matrix, env)
            if not ok:
                return Verdict('invalid', witness=dict(assignment))
            return None
        saw_any = False
        for tv in ev.stream_formula(matrix, env):
            saw_any = True
            if not tv:
                return Verdict('invalid', witness=dict(assignment))
        if not saw_any:
            return Verdict('error', reason='no admissible choice')
        return None

    def sweep(i):
        if i == len(block):
            return leaf()
        name, ty = block[i]
        for k in range(ty.size()):
            env[name] = assignment[name] = ty.value_at(k)
            v = sweep(i + 1)
            if v is not None:
                return v
        env.pop(name, None)
        assignment.pop(name, None)
        return None

    try:
        v = sweep(0)
    except EvalError as e:
        return Verdict('error', reason=str(e)), st
    return (v if v is not None else Verdict('valid')), st
