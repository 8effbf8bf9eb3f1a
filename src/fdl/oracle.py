"""Brute-force reference checker, kept deliberately independent of the
evaluator: it materializes carriers and computes the full set of truth
values a formula can take under every resolution of its choices.

Intended for cross-checking on small inputs only; refuses formulas whose
assignment space exceeds the cap.
"""

from .core import (Add, AddConst, And, Apply, Atom, Choose, Exists, FalseF,
                   FdlError, Forall, Iff, Implies, Ite, Lit, Mul, Not, Or,
                   TrueF, Var, enumerate_domain, walk)

DEFAULT_CAP = 2 ** 20


def assignment_space(node, funcs=None, _seen=()):
    """Upper bound on the number of binder assignments explored."""
    funcs = funcs or {}
    space = 1
    for n in walk(node):
        if isinstance(n, (Forall, Exists, Choose)):
            space *= n.ty.size()
        elif isinstance(n, Apply) and n.func in funcs and n.func not in _seen:
            fd = funcs[n.func]
            if fd.is_contract():
                space *= fd.result.size()
                space *= assignment_space(fd.ensures, funcs, _seen + (n.func,))
            else:
                space *= assignment_space(fd.body, funcs, _seen + (n.func,))
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
        ops = {'=': lambda a, b: a == b, '<': lambda a, b: a < b,
               '<=': lambda a, b: a <= b}
        lhs = _values(f.lhs, env, funcs)
        rhs = _values(f.rhs, env, funcs)
        return {ops[f.rel](a, b) for a in lhs for b in rhs}
    if isinstance(f, Not):
        return {not v for v in _truths(f.body, env, funcs)}
    if isinstance(f, And):
        left = _truths(f.lhs, env, funcs)
        out = {False} if False in left else set()
        if True in left:
            out |= _truths(f.rhs, env, funcs)
        return out
    if isinstance(f, Or):
        left = _truths(f.lhs, env, funcs)
        out = {True} if True in left else set()
        if False in left:
            out |= _truths(f.rhs, env, funcs)
        return out
    if isinstance(f, Implies):
        left = _truths(f.lhs, env, funcs)
        out = {True} if False in left else set()
        if True in left:
            out |= _truths(f.rhs, env, funcs)
        return out
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
    if isinstance(t, Add):
        return {a + b for a in _values(t.lhs, env, funcs)
                for b in _values(t.rhs, env, funcs)}
    if isinstance(t, AddConst):
        return {a + t.const for a in _values(t.lhs, env, funcs)}
    if isinstance(t, Mul):
        return {a * b for a in _values(t.lhs, env, funcs)
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
        for combo in _product(arg_sets):
            inner = {p: v for (p, _), v in zip(fd.params, combo)}
            if fd.body is not None:
                out |= _values(fd.body, inner, funcs)
            else:
                out |= {r for r in enumerate_domain(fd.result)
                        if True in _truths(fd.ensures, {**inner, 'result': r},
                                           funcs)}
        return out
    raise AssertionError('unhandled term %r' % t)


def _product(sets):
    if not sets:
        yield ()
        return
    for v in sorted(sets[0], key=lambda x: (isinstance(x, bool), x)):
        for rest in _product(sets[1:]):
            yield (v,) + rest
