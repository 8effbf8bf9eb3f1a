"""Seeded random goals for the fuzz-text workload, as fdl model text.

The generator is the benchmark's own and does not use fdl.randgen, so a
change to the program's generator cannot change this workload. The same
seed always gives the same texts.

Every text declares one carrier `D = nat[B]` through a parameter, the
functions the goal applies, and one theorem `t`. About a quarter of the
goals apply a choose-defined function (`pick`), a contract function (`h`)
or an inline `choose`; their conditions always have a witness, so every
choice is admissible. A quarter of those goals also carry a choice that no
value satisfies behind `false /\\`, which lazy evaluation never reaches.
Both kinds are kept on purpose: the translation to SMT-LIB declares one
function for all applications of a choice and asserts every choice axiom
unconditionally, while the evaluator and the oracle choose anew at each
evaluation, so refsolve answers `valid` on some of these goals where the
oracle says `invalid`. The benchmark counts those verdicts; it does not
filter the goals out. A goal is drawn again only when it is too large for
refsolve to decide in milliseconds (see MAX_CELLS), whatever its verdict.

`determinize` gives the deterministic reading of a parsed goal, which is
what `check_validity(..., mode='deterministic')` decides, so the oracle can
check that mode too.
"""

import itertools
import random
from dataclasses import fields

from fdl.core import (And, Atom, Choose, Forall, Formula, FuncDecl, Implies,
                      Not, Term, Var, subst)

CHOICE_SHARE = 0.25
UNREACHED_SHARE = 0.25  # of the goals with choices
# Nondeterministic evaluation follows every resolution of the choices in a
# quantifier's body at every element, so its work grows as (resolutions per
# body) ^ (product of the enclosing carriers); refsolve searches over every
# value of every choice cell. These bounds keep both to milliseconds.
MAX_CHOICE_TERMS = 2
MAX_CHOICE_SCOPE = 1  # enclosing quantifiers of a choice term
# Refsolve searches over every cell of the functions a translation
# declares. A quantifier can become a Skolem function with a cell for each
# tuple of its enclosing carriers, a choice a function with a cell for each
# value of D, and both sides of a `<=>` occur twice. A goal whose estimate
# of these cells (`_GoalGen.cells`) is above this is drawn again: about 8%
# of draws. Every goal that took refsolve over 0.1 s in 16 seeds was above
# it, among them one it searches for over a minute (five Skolem functions,
# 14 cells of 4 values).
MAX_CELLS = 12

# Conditions on the chosen value {y} given {x}, both in nat[{b}], that some
# value satisfies for every {x}.
_ADMISSIBLE = (
    '{y} <= {x}',
    '{y} = {x}',
    '{x} <= {y}',
    '{y} < {x} \\/ {y} = 0',
    '{x} < {y} \\/ {y} = {b}',
    '{y} + {x} >= {x}',
)
_RELS = ('=', '<', '<=', '>', '>=')
_CONNECTIVES = ('/\\', '\\/', '=>', '<=>')


class _GoalGen:
    """One goal: a theorem text plus the declarations it needs."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.choices = rng.random() < CHOICE_SHARE
        self.bound = rng.randint(1, 2 if self.choices else 3)
        self.max_depth = 3 if self.choices else 4
        self.max_binders = 2 if self.choices else 3
        self.funcs = {}
        self.choose_vars = 0
        self.choice_terms = 0
        self.cells = 0  # see MAX_CELLS

    def condition(self, x, y):
        return self.rng.choice(_ADMISSIBLE).format(x=x, y=y, b=self.bound)

    def model(self) -> str:
        rng = self.rng
        f = self.formula(self.max_depth, [])
        if self.choices and not self.choice_terms:
            extra = self.atom([], force_choice=True)
            connective = rng.choice(_CONNECTIVES)
            if connective == '<=>':
                self.cells *= 2
            f = '(%s %s %s)' % (f, connective, extra)
        if self.choices and rng.random() < UNREACHED_SHARE:
            unreached = '(false /\\ (choose e: D with e < 0) = 0)'
            parts = (f, unreached) if rng.random() < 0.5 else (unreached, f)
            f = '(%s \\/ %s)' % parts
        lines = ['val B: nat = %d;' % self.bound, 'type D = nat[B];']
        lines += [self.funcs[name] for name in sorted(self.funcs)]
        lines.append('theorem t <=> %s;' % f)
        return '\n'.join(lines) + '\n'

    # -- formulas -------------------------------------------------------------

    def formula(self, depth, scope, width=1):
        """`width` is the product of the sizes of the enclosing carriers."""
        rng = self.rng
        r = rng.random()
        if depth == 0 or r < 0.25:
            return self.atom(scope)
        if r < 0.55 and len(scope) < self.max_binders:
            name = 'v%d' % len(scope)
            size = rng.randint(1, self.bound) if rng.random() >= 0.5 else None
            ty = 'D' if size is None else 'nat[%d]' % size
            size = (self.bound if size is None else size) + 1
            quant = 'forall' if rng.random() < 0.5 else 'exists'
            self.cells += width
            body = self.formula(depth - 1, scope + [name], width * size)
            return '(%s %s: %s. %s)' % (quant, name, ty, body)
        if r < 0.65:
            return '!(%s)' % self.formula(depth - 1, scope, width)
        before = self.cells
        left = self.formula(depth - 1, scope, width)
        connective = rng.choice(_CONNECTIVES)
        right = self.formula(depth - 1, scope, width)
        if connective == '<=>':
            # both sides occur in both polarities
            self.cells += self.cells - before
        return '(%s %s %s)' % (left, connective, right)

    def atom(self, scope, force_choice=False):
        rng = self.rng
        if not force_choice and rng.random() < 0.06:
            return rng.choice(('true', 'false'))
        lhs = self.choice_term(scope) if force_choice else self.term(scope, 1)
        return '%s %s %s' % (lhs, rng.choice(_RELS), self.term(scope, 1))

    # -- terms ----------------------------------------------------------------

    def leaf(self, scope):
        rng = self.rng
        if scope and rng.random() < 0.75:
            return rng.choice(scope)
        return str(rng.randint(0, self.bound))

    def term(self, scope, depth):
        rng = self.rng
        r = rng.random()
        if (self.choices and self.choice_terms < MAX_CHOICE_TERMS
                and len(scope) <= MAX_CHOICE_SCOPE and r < 0.3):
            return self.choice_term(scope)
        if depth == 0 or r < 0.5 or not scope:
            return self.leaf(scope)
        if r < 0.65:
            return '(%s + %s)' % (self.term(scope, depth - 1),
                                  self.term(scope, depth - 1))
        if r < 0.75:
            return '(%s + %d)' % (self.term(scope, depth - 1),
                                  rng.randint(1, self.bound))
        if r < 0.85:
            return '(%s * %s)' % (self.term(scope, depth - 1),
                                  self.term(scope, depth - 1))
        return '(if %s then %s else %s)' % (self.atom(scope),
                                            self.term(scope, depth - 1),
                                            self.term(scope, depth - 1))

    def choice_term(self, scope):
        """pick(a), h(a) or an inline choose; arguments fit D."""
        rng = self.rng
        self.choice_terms += 1
        self.cells += self.bound + 1
        arg = self.leaf(scope)
        kind = rng.randrange(3)
        if kind == 0:
            if 'pick' not in self.funcs:
                self.funcs['pick'] = (
                    'fun pick(x: D): D = choose y: D with %s;'
                    % self.condition('x', 'y'))
            return 'pick(%s)' % arg
        if kind == 1:
            if 'h' not in self.funcs:
                self.funcs['h'] = ('fun h(p: D): D ensures %s;'
                                   % self.condition('p', 'result'))
            return 'h(%s)' % arg
        name = 'c%d' % self.choose_vars
        self.choose_vars += 1
        return '(choose %s: D with %s)' % (name, self.condition(arg, name))


def generate(seed: int, count: int) -> list:
    """`count` model texts, each with one theorem named `t`."""
    rng = random.Random(seed)
    texts = []
    while len(texts) < count:
        gen = _GoalGen(rng)
        text = gen.model()
        if gen.cells <= MAX_CELLS:
            texts.append(text)
    return texts


# ---------------------------------------------------------------------------
# deterministic reading


def determinize(goal, funcs):
    """Pin every choice of a resolved goal to its least admissible value.

    `choose y: T with F` becomes `choose y: T with F /\\ forall z: T.
    z < y => !F[z/y]`, which has at most one solution; a contract's ensures
    clause is rewritten the same way over `result`. Deterministic evaluation
    takes exactly that value, so the oracle on the rewritten goal is the
    reference for that mode. Returns (goal, funcs, changed).
    """
    fresh = itertools.count()
    changed = [False]

    def pin(var, ty, body):
        z = '_least%d' % next(fresh)
        changed[0] = True
        later = Implies(Atom('<', Var(z), Var(var)),
                        Not(subst(body, {var: Var(z)})))
        return And(body, Forall(z, ty, later))

    def go(node):
        if isinstance(node, Choose):
            return Choose(node.var, node.ty, pin(node.var, node.ty,
                                                 go(node.body)))
        kwargs = {}
        for f in fields(node):
            v = getattr(node, f.name)
            if isinstance(v, (Term, Formula)):
                v = go(v)
            elif isinstance(v, list):
                v = [go(x) if isinstance(x, (Term, Formula)) else x
                     for x in v]
            kwargs[f.name] = v
        return type(node)(**kwargs)

    out_funcs = {}
    for name, fd in funcs.items():
        if fd.ensures is not None:
            ensures = pin('result', fd.result, go(fd.ensures))
            out_funcs[name] = FuncDecl(fd.name, fd.params, fd.result,
                                       ensures=ensures)
        else:
            out_funcs[name] = FuncDecl(fd.name, fd.params, fd.result,
                                       body=go(fd.body))
    out_goal = go(goal)
    return out_goal, out_funcs, changed[0]
