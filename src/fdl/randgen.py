"""Seeded generator of random closed goals for differential testing, and
the differential itself.

Goals are choose-free, quantify over nat[b] with b <= max_bound, and keep
nesting shallow so that exhaustive truth-set evaluation stays cheap. Every
produced formula typechecks by construction.
"""

import random

from .core import (Add, AddConst, And, Atom, Exists, FalseF, Forall, Iff,
                   Implies, Ite, Lit, Mul, Not, Or, TrueF, Var, nat)
from .evaluator import check_validity
from .oracle import oracle_check
from .refsolver import check_script
from .translate import MODES, SmtOptions, emit_smtlib, translate

_RELS = ('=', '<', '<=')


class GoalGen:

    def __init__(self, rng: random.Random, max_depth: int = 4,
                 max_bound: int = 3, max_binders: int = 4):
        self.rng = rng
        self.max_depth = max_depth
        self.max_bound = max_bound
        self.max_binders = max_binders

    def goal(self):
        """A closed formula; roughly half start with a universal block so
        witness extraction gets exercised."""
        scope = []
        f = self.formula(self.max_depth, scope)
        if self.rng.random() < 0.5:
            ty = self._type()
            return Forall('u0', ty, self._close_over(f, 'u0'))
        return f

    def _close_over(self, f, name):
        # wrap an already closed formula; mention the new var sometimes
        if self.rng.random() < 0.7:
            guard = Atom('<=', Var(name), Lit(self.rng.randint(0, self.max_bound)))
            return Implies(guard, f) if self.rng.random() < 0.5 else Or(guard, f)
        return f

    def _type(self):
        return nat(self.rng.randint(1, self.max_bound))

    def formula(self, depth, scope):
        r = self.rng.random()
        if depth == 0 or r < 0.25:
            return self.atom(scope)
        if r < 0.55 and len(scope) < self.max_binders:
            name = 'v%d' % len(scope)
            ty = self._type()
            cls = Forall if self.rng.random() < 0.5 else Exists
            scope.append((name, ty))
            body = self.formula(depth - 1, scope)
            scope.pop()
            return cls(name, ty, body)
        if r < 0.65:
            return Not(self.formula(depth - 1, scope))
        cls = self.rng.choice((And, Or, Implies, Iff))
        return cls(self.formula(depth - 1, scope),
                   self.formula(depth - 1, scope))

    def atom(self, scope):
        r = self.rng.random()
        if r < 0.06:
            return TrueF() if self.rng.random() < 0.5 else FalseF()
        rel = self.rng.choice(_RELS)
        return Atom(rel, self.term(scope, 1), self.term(scope, 1))

    def term(self, scope, depth):
        nats = [name for name, ty in scope]
        r = self.rng.random()
        if depth == 0 or r < 0.5 or not nats:
            if nats and r < 0.75:
                return Var(self.rng.choice(nats))
            return Lit(self.rng.randint(0, self.max_bound))
        if r < 0.65:
            lhs = self.term(scope, depth - 1)
            rhs = self.term(scope, depth - 1)
            # parsing normalizes 'x + k' to AddConst; generate the same shape
            if isinstance(rhs, Lit):
                return AddConst(lhs, rhs.value)
            return Add(lhs, rhs)
        if r < 0.75:
            return AddConst(self.term(scope, depth - 1),
                            self.rng.randint(1, self.max_bound))
        if r < 0.85:
            return Mul(self.term(scope, depth - 1), self.term(scope, depth - 1))
        return Ite(self.atom(scope), self.term(scope, depth - 1),
                   self.term(scope, depth - 1))


def random_goal(seed: int, max_depth: int = 4, max_bound: int = 3):
    return GoalGen(random.Random(seed), max_depth, max_bound).goal()


def differential(goal, funcs=None) -> dict:
    """Each mechanism's status for the closed goal, all in process: the
    oracle, the evaluator in both modes and refsolve on the script of each
    translation mode (sat -> invalid, unsat -> valid, else its answer)."""
    got = {'oracle': oracle_check(goal, funcs)}
    for mode in ('nondeterministic', 'deterministic'):
        got['evaluator/' + mode] = check_validity(goal, funcs, mode)[0].status
    for mode in MODES:
        answer = check_script(emit_smtlib(translate(
            goal, funcs, SmtOptions(mode=mode))))
        got['refsolve/' + mode] = {'unsat': 'valid',
                                   'sat': 'invalid'}.get(answer, answer)
    return got
