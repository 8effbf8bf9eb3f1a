"""Brute-force reference checker, kept deliberately independent of the
evaluator: it materializes carriers and computes the full set of truth
values a formula can take under every resolution of its choices.

Intended for cross-checking on small inputs only; refuses formulas whose
assignment space exceeds the cap.
"""

import itertools
import operator

from .core import (_LAYOUT, Add, And, Apply, Atom, Choose, Exists,
                   FalseF, FdlError, Forall, Iff, Implies, Ite, Lit, Mul, Not,
                   Or, TrueF, Var, enumerate_domain)

DEFAULT_CAP = 2 ** 20

_REL = {'=': operator.eq, '<': operator.lt, '<=': operator.le}
# (stop, forced): a part but the last that is stop makes the chain forced
_JUNCTION = {And: (False, False), Or: (True, True), Implies: (False, True)}


def assignment_space(node, funcs=None, _seen=()):
    """Upper bound on the number of binder assignments explored at once:
    carrier sizes multiply along nesting, and of binders read one after
    another the largest counts, so the bound is the largest product along
    one path of the tree. An applied function's own space is nested over
    its arguments."""
    funcs = funcs or {}
    space, stack = 1, [(node, 1)]
    while stack:
        n, above = stack.pop()
        cls = type(n)
        if cls is Forall or cls is Exists or cls is Choose:
            above *= n.ty.size()
        elif cls is Apply and n.func in funcs and n.func not in _seen:
            fd = funcs[n.func]
            if fd.is_contract():
                above *= fd.result.size() * assignment_space(
                    fd.ensures, funcs, _seen + (n.func,))
            else:
                above *= assignment_space(fd.body, funcs, _seen + (n.func,))
        if above > space:
            space = above
        for name in _LAYOUT[cls][1]:
            v = getattr(n, name)
            if type(v) is list:
                stack += [(x, above) for x in v]
            else:
                stack.append((v, above))
    return space


def oracle_check(goal, funcs=None, cap=DEFAULT_CAP) -> str:
    """Returns 'valid', 'invalid' or 'error' (no resolution of choices)."""
    funcs = funcs or {}
    space = assignment_space(goal, funcs)
    if space > cap:
        raise FdlError('assignment space %d exceeds cap %d' % (space, cap))
    truths = _truths(goal, {}, funcs)
    if not truths:
        return 'error'
    return 'invalid' if False in truths else 'valid'


def _truths(f, env, funcs) -> set:
    if isinstance(f, TrueF):
        return {True}
    if isinstance(f, FalseF):
        return {False}
    if isinstance(f, Atom):
        rel = _REL[f.rel]
        lhs = _values(f.lhs, env, funcs)
        rhs = _values(f.rhs, env, funcs)
        return {rel(a, b) for a in lhs for b in rhs}
    if isinstance(f, Not):
        return {not v for v in _truths(f.body, env, funcs)}
    if isinstance(f, (And, Or, Implies)):
        # left to right, as the evaluator reads them: a part that can be stop
        # can give forced, one that can be not stop goes on to the next
        stop, forced = _JUNCTION[type(f)]
        out = set()
        for part in f.parts[:-1]:
            here = _truths(part, env, funcs)
            if stop in here:
                out.add(forced)
            if (not stop) not in here:
                return out
        return out | _truths(f.parts[-1], env, funcs)
    if isinstance(f, Iff):
        left = _truths(f.lhs, env, funcs)
        right = _truths(f.rhs, env, funcs)
        return {a == b for a in left for b in right}
    if isinstance(f, (Forall, Exists)):
        # stop at the first element whose body cannot give `not want`; only
        # a run through the whole carrier makes `not want` possible
        want = isinstance(f, Exists)
        out = set()
        for v in enumerate_domain(f.ty):
            here = _truths(f.body, {**env, f.var: v}, funcs)
            if want in here:
                out.add(want)
            if (not want) not in here:
                break
        else:
            out.add(not want)
        return out
    raise AssertionError('unhandled formula %r' % f)


def _values(t, env, funcs) -> set:
    if isinstance(t, Var):
        return {env[t.name]}
    if isinstance(t, Lit):
        return {t.value}
    if isinstance(t, (Add, Mul)):
        op = operator.add if isinstance(t, Add) else operator.mul
        return {op(a, b) for a in _values(t.lhs, env, funcs)
                for b in _values(t.rhs, env, funcs)}
    if isinstance(t, Ite):
        cond = _truths(t.cond, env, funcs)
        out = set()
        if True in cond:
            out |= _values(t.then, env, funcs)
        if False in cond:
            out |= _values(t.els, env, funcs)
        return out
    if isinstance(t, Choose):
        return {v for v in enumerate_domain(t.ty)
                if True in _truths(t.body, {**env, t.var: v}, funcs)}
    if isinstance(t, Apply):
        fd = funcs[t.func]
        arg_sets = [_values(a, env, funcs) for a in t.args]
        out = set()
        for combo in itertools.product(*arg_sets):
            inner = {p: v for (p, _), v in zip(fd.params, combo)}
            if fd.body is not None:
                out |= _values(fd.body, inner, funcs)
            else:
                out |= {r for r in enumerate_domain(fd.result)
                        if True in _truths(fd.ensures, {**inner, 'result': r},
                                           funcs)}
        return out
    raise AssertionError('unhandled term %r' % t)

