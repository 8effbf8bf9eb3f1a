"""Validity checking by lazy evaluation over the finite carriers.

Quantifier loops short-circuit: a universal stops at the first falsifying
element, an existential at the first witness. Choose terms make evaluation
nondeterministic; in 'nondeterministic' mode a formula denotes a stream of
truth values (one per resolution of its choices, depth-first, the latest
choice point varying fastest) and the checker inspects the whole stream.
In 'deterministic' mode every choose takes the first admissible value.

A contract application f(a) behaves exactly like
choose result: R with ensures[params := a].

Each goal is compiled once into closures (Feeley & Lapalme, "Using
Closures for Code Generation", 1987). `Evaluator.compile` dispatches on the
node type and returns (det, fn): when det is true, fn(env) returns the
node's value, otherwise fn(env) returns an iterator over its values; env
is a frame, a list with one slot per binder, and each function application
gets a frame of its own. A binder writes its slot before it evaluates or
resumes its body, so a stream that is abandoned leaves no stale value.
Determinism is decided while compiling: in 'nondeterministic' mode a choose
or a contract application is nondeterministic, and so is every node with a
nondeterministic child, applications of definitions with a
nondeterministic body included. Choose and contract applications share one
candidate loop, which also checks the deadline. A nondeterministic
quantifier keeps its body streams on an explicit stack, so no loop recurses
once per carrier element. Carriers stay lazy ranges, so no loop needs
memory that grows with a carrier's size.
"""

import operator
import time
from dataclasses import dataclass, field
from typing import Optional

from .core import (Add, AddConst, And, Apply, Atom, Choose, EvalError, Exists,
                   FalseF, FdlError, Forall, Formula, Iff, Implies, Ite, Lit,
                   Mul, Not, Or, QUANTIFIERS, TrueF, Var)

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


_MISSING = object()


def _carrier(ty):
    """The carrier as a lazy sequence: O(1) memory whatever its size."""
    return (False, True) if ty.kind == 'bool' else range(ty.size())


def _stream(det, fn):
    """fn as a stream: a deterministic fn gives its one value."""
    if not det:
        return fn

    def one(env):
        yield fn(env)
    return one


def _tuples(args, env, vals=()):
    """Every tuple of values of the compiled args, the last varying fastest;
    a later argument's stream is restarted for each earlier value, so
    nothing is copied (itertools.product copies each input first)."""
    for det, fn in args[len(vals):]:
        if not det:
            for v in fn(env):
                yield from _tuples(args, env, vals + (v,))
            return
        vals += (fn(env),)  # one value: no generator to resume
    yield vals


class Evaluator:
    def __init__(self, funcs=None, stats=None, mode='nondeterministic'):
        assert mode in MODES
        self.funcs = funcs or {}
        self.st = stats if stats is not None else EvalStats()
        self.nondet = mode == 'nondeterministic'
        self._bodies = {}  # function name -> (compiled body, frame padding)
        self.scope, self.size = {}, 0  # name -> slot; slots in the frame

    def compile(self, node):
        """(det, fn) for node, as the module docstring describes."""
        return _COMPILE[type(node)](self, node)

    def _bind(self, var, body):
        """A new slot for var and body compiled with var in it."""
        slot, outer = self.size, self.scope
        self.size, self.scope = slot + 1, {**outer, var: slot}
        compiled = _COMPILE[type(body)](self, body)
        self.scope = outer
        return slot, compiled

    def _map(self, op, child):
        det, fn = _COMPILE[type(child)](self, child)
        if det:
            return True, lambda env: op(fn(env))

        def values(env):
            for a in fn(env):
                yield op(a)
        return False, values

    def _pair(self, op, lhs, rhs):
        ldet, lfn = _COMPILE[type(lhs)](self, lhs)
        rdet, rfn = _COMPILE[type(rhs)](self, rhs)
        if ldet and rdet:
            return True, lambda env: op(lfn(env), rfn(env))
        lfn, rfn = _stream(ldet, lfn), _stream(rdet, rfn)

        def values(env):
            for a in lfn(env):
                for b in rfn(env):
                    yield op(a, b)
        return False, values

    def _connective(self, stop, forced, f):
        # a left value equal to stop decides the result: forced
        ldet, lfn = _COMPILE[type(f.lhs)](self, f.lhs)
        rdet, rfn = _COMPILE[type(f.rhs)](self, f.rhs)
        if ldet and rdet:
            return True, lambda env: forced if lfn(env) == stop else rfn(env)
        lfn, rfn = _stream(ldet, lfn), _stream(rdet, rfn)

        def values(env):
            for a in lfn(env):
                if a == stop:
                    yield forced
                else:
                    yield from rfn(env)
        return False, values

    def _ite(self, t):
        (cdet, cond), (tdet, then), (edet, els) = map(
            self.compile, (t.cond, t.then, t.els))
        if cdet and tdet and edet:
            return True, lambda env: then(env) if cond(env) else els(env)
        cond, then, els = (_stream(cdet, cond), _stream(tdet, then),
                           _stream(edet, els))

        def values(env):
            for c in cond(env):
                yield from (then if c else els)(env)
        return False, values

    def _choices(self, var, ty, body):
        """The candidate loop of a choose and of a contract application: the
        carrier values that make body (with var bound to the value) true, or
        in 'deterministic' mode the first of them."""
        slot, (det, test) = self._bind(var, body)
        vals, st = _carrier(ty), self.st
        if not self.nondet:
            def first(env):
                for v in vals:
                    st.tick()
                    env[slot] = v
                    if test(env):
                        st.choose_yields += 1
                        return v
                raise EvalError('no admissible choice')
            return True, first
        if not det:
            test = lambda env, stream=test: any(stream(env))

        def values(env):
            for v in vals:
                st.tick()
                env[slot] = v
                if test(env):
                    st.choose_yields += 1
                    yield v
        return False, values

    def _apply(self, t):
        fd = self.funcs[t.func]
        if t.func not in self._bodies:
            outer = self.scope, self.size
            self.scope = {p: i for i, (p, _) in enumerate(fd.params)}
            self.size = len(fd.params)
            body = (_COMPILE[type(fd.body)](self, fd.body)
                    if fd.body is not None else
                    self._choices('result', fd.result, fd.ensures))
            self._bodies[t.func] = body, [None] * (self.size - len(fd.params))
            self.scope, self.size = outer
        (bdet, body), pad = self._bodies[t.func]
        args = [_COMPILE[type(a)](self, a) for a in t.args]
        if bdet and all(det for det, _ in args):
            fns = [fn for _, fn in args]
            return True, lambda env: body([fn(env) for fn in fns] + pad)
        body = _stream(bdet, body)

        def values(env):
            for vals in _tuples(args, env):
                yield from body(list(vals) + pad)
        return False, values

    def _quantifier(self, f):
        vals, want = _carrier(f.ty), isinstance(f, Exists)
        size = f.ty.size()  # len(vals) overflows past sys.maxsize
        count = not isinstance(f.body, QUANTIFIERS)
        slot, (det, body) = self._bind(f.var, f.body)
        st = self.st
        if det:
            def holds(env):
                for v in vals:
                    env[slot] = v
                    if count:
                        st.body_evals += 1
                        st.tick()
                    if body(env) == want:
                        return want
                return not want
            return True, holds

        def values(env):
            # streams[k] streams the body at vals[k]. A body value other than
            # want enters the next element; past the last one the quantifier
            # yields not want. An exhausted stream backtracks one element.
            streams = []
            while True:
                k = len(streams)
                if k < size:
                    env[slot] = vals[k]
                    if count:
                        st.body_evals += 1
                        st.tick()
                    streams.append(body(env))
                else:
                    yield not want
                while streams:
                    env[slot] = vals[len(streams) - 1]
                    tv = next(streams[-1], _MISSING)
                    if tv is _MISSING:
                        streams.pop()
                    elif tv == want:
                        yield want
                    else:
                        break
                else:
                    return
        return False, values


_REL = {'=': operator.eq, '<': operator.lt, '<=': operator.le}

_COMPILE = {
    Var: lambda ev, t: (True, operator.itemgetter(ev.scope[t.name])),
    Lit: lambda ev, t: (True, lambda env, value=t.value: value),
    TrueF: lambda ev, f: (True, lambda env: True),
    FalseF: lambda ev, f: (True, lambda env: False),
    Add: lambda ev, t: ev._pair(operator.add, t.lhs, t.rhs),
    Mul: lambda ev, t: ev._pair(operator.mul, t.lhs, t.rhs),
    AddConst: lambda ev, t: ev._map(lambda a, c=t.const: a + c, t.lhs),
    Ite: Evaluator._ite,
    Choose: lambda ev, t: ev._choices(t.var, t.ty, t.body),
    Apply: Evaluator._apply,
    Atom: lambda ev, f: ev._pair(_REL[f.rel], f.lhs, f.rhs),
    Not: lambda ev, f: ev._map(operator.not_, f.body),
    And: lambda ev, f: ev._connective(False, False, f),
    Or: lambda ev, f: ev._connective(True, True, f),
    Implies: lambda ev, f: ev._connective(False, True, f),
    Iff: lambda ev, f: ev._pair(operator.eq, f.lhs, f.rhs),
    Forall: Evaluator._quantifier,
    Exists: Evaluator._quantifier,
}


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
    names, carriers = [], []
    matrix = goal
    while isinstance(matrix, Forall):
        names.append(matrix.var)
        # a carrier is the stream of a nondeterministic node
        carriers.append((False, lambda env, vals=_carrier(matrix.ty): vals))
        matrix = matrix.body
    count = bool(names) and not isinstance(matrix, QUANTIFIERS)
    ev = Evaluator(funcs, st, mode)
    ev.scope, ev.size = {name: i for i, name in enumerate(names)}, len(names)
    det, holds = ev.compile(matrix)
    env = [None] * ev.size
    try:
        for point in _tuples(carriers, None):
            env[:len(names)] = point
            if count:
                st.body_evals += 1
                st.tick()
            empty = True
            for tv in (holds(env),) if det else holds(env):
                empty = False
                if not tv:
                    witness = dict(zip(names, point))
                    return Verdict('invalid', witness=witness), st
            if empty:
                return Verdict('error', reason='no admissible choice'), st
    except EvalError as e:
        return Verdict('error', reason=str(e)), st
    return Verdict('valid'), st
