"""Translation of validity goals to bit-vector SMT-LIB scripts.

A goal F is valid iff its negation is unsatisfiable, so the script asserts
the negation-normal form of !F plus axioms for choices and contracts, and
the caller maps sat -> invalid, unsat -> valid.

Values of nat[b] encode as bit vectors of width max(1, ceil(log2(b+1)));
booleans as width-1 bit vectors. Quantifier handling depends on the mode:

  eliminate   universals are expanded to conjunctions over the carrier,
              existentials are Skolemized (or expanded when the heuristic
              says the range axioms would cost more), logic QF_UFBV
  expand-all  both quantifier kinds become finite con/disjunctions, QF_UFBV
  preserve    binders are kept, guarded by the type predicate of the bound
              variable, logic UFBV

Each choose occurrence becomes a fresh uninterpreted function _ch<n> over
the binders in scope, constrained by an axiom that its value satisfies the
choose condition, asserted whether evaluation reaches the choice or not:
over D = nat[1], refsolve answers valid on both
false /\\ (choose y: D with y < 0) = 0 and its swapped form, which the
evaluator and the oracle find invalid and an error (the known gap of
ROADMAP item 1). A functional contract, ensures result = t with t
deterministic and of a type that fits the result type, admits one result
per argument, so the translator reads it as the definition = t
(core.definitional_funcs; the evaluator and the oracle read the contract
as written). Any other contract function becomes a single uninterpreted
function constrained by its ensures clause. Defined functions emit as
define-fun unless inlining is requested. A definition that can take several
values (one whose body contains a choose, or applies a contract or another
such definition; see core.nondeterministic_funcs) is always inlined, since a
macro cannot carry nondeterminism. Under every option a definition is
inlined after its arguments are translated, so an argument with a choice
has one value in all uses of its parameter. A goal nested too deeply for
the recursive passes is a TranslateError, like an exceeded expansion
budget.

The passes: the negated goal, then each queued axiom, is rewritten in one
rebuild (Translator.normalize) that pushes negations to the atoms by
polarity (a => b => c becomes one !a \\/ !b \\/ c), leaves the sides of a
<=> without a polarity, as a conditional's condition, so that it is
written once, as (= a b), names each binder as it enters it, maps an
inlined body's parameters to their rewritten arguments (the "rapier" of
Peyton Jones & Marlow, JFP 12(4-5), 2002), turns each choose into a _ch
symbol and returns every node that nothing changes as it is. In eliminate
mode only, a <=> with a side whose quantifiers are of both kinds is
rewritten (!a \\/ b) /\\ (a \\/ !b) instead (Translator._doubled): writing
each side twice is the price of giving it both polarities (Plaisted &
Greenbaum, "A Structure-preserving Clause Form Translation", JSC 2(3),
1986), paid only where it saves instances. Under --eliminate-choices the
rebuild also lifts choices out of the goal's atoms that only forall, /\\,
\\/ and the conclusion of => enclose, into a guarded universal
(Translator._lift); every other occurrence keeps its _ch symbol or
contract declaration.
Lowering then compiles each node once, in the static scope of its binders,
into closures (Feeley & Lapalme, "Using Closures for Code Generation", 1987)
that write the script's text: a node that reads no frame slot is formatted
while compiling, and a closure joins precomputed text around the parts that
read one. Widths, zero-extensions, operators and literals, define-fun bodies
and each existential's Skolem decision are fixed while compiling, in
pre-order, so symbols are numbered and declared in the order the tree is
read. A quantifier's body is compiled once; for each ground instance
(Translator._instances, which counts the expansion budget) the bound
variable's literal goes into a frame slot, only the text that depends on it
is written again, and the first use of each Skolem application's text
asserts its range. A side of =, like a conditional's condition, expands
every quantifier in eliminate mode. An operand narrower than its operator's
result is zero-extended, but a literal right operand of + is written at the
sum's width: x + 2 over nat[2] is (bvadd ((_ zero_extend 1) x) #b010).
emit_smtlib only joins lines.

Names: Translator._taken, seeded with the function names, holds every name
given out. The goal's binder names are fixed before the rebuild: scan lists
them in the normal form's pre-order and core.apart primes each apart from
_taken; a lifted atom takes its binders' names from the same list. An
inlined body's are fixed so when it is inlined, also apart from its free
variables, and so are those of a lifted contract's ensures; an axiom's
avoid only the function and declared names, as if it stood alone, then join
_taken. Fresh _sk/_ch/_el symbols skip _taken and join it. So no binder
shares a function's or a declared name, and no inlined body captures a
variable of its arguments. Translator._written maps a primed or _el binder
name to its written name for the budget error; each queued axiom has a copy.

Computed once, not per translation: what depends only on a type, a
literal, the option set or the function table. A FiniteType's size and
sort width (core.nat interns nat types by bound); a literal's compiled
(static, text, type, width), in _LITS by (value, type(value)), since
True == 1 has the same hash as 1; the header line, in _HEADERS by the
options it prints; and definitional_funcs with the nondeterministic_funcs
of that, kept by the core.FuncTable that resolve_model returns (translate
wraps a plain dict per call). Nothing derived from a goal or a script is
kept between calls.
"""

import math
from operator import is_, itemgetter

from .core import (_LAYOUT, TRANSLATE_MODES as MODES, Add, And, Apply, Atom,
                   BOOL, Choose, Exists, FalseF, FdlError, FiniteType, Forall,
                   Formula, Iff, Implies, Ite, Lit, Mul, Not, Or, Record,
                   TrueF, Var, _children, _rebuild, apart, binders,
                   enter_binder, free_vars, func_table, has_choose, nat, subst)

TAGS = ('negated-goal', 'skolem-range-axiom', 'choose-axiom', 'type-constraint')


class TranslateError(FdlError):
    pass


class SmtOptions(Record):
    __match_args__ = ('mode', 'heuristic_factor', 'eliminate_choices',
                      'inline_definitions', 'expansion_budget', 'goal_name')

    def __init__(self, mode='eliminate', heuristic_factor=2.0,
                 eliminate_choices=False, inline_definitions=False,
                 expansion_budget=2 ** 20, goal_name=''):
        self.mode, self.heuristic_factor = mode, heuristic_factor
        self.eliminate_choices = eliminate_choices
        self.inline_definitions = inline_definitions
        self.expansion_budget, self.goal_name = expansion_budget, goal_name


class TranslateStats(Record):
    """The conjunct counts and estimates of one translation;
    skolem_symbols lists (name, arity) pairs."""

    __match_args__ = ('goal_conjuncts', 'skolem_range_conjuncts',
                      'choose_axiom_conjuncts', 'type_constraint_conjuncts',
                      'skolem_symbols', 'expanded_instances',
                      'estimate_skolem', 'estimate_expansion',
                      'contracts_as_definitions')

    def __init__(self, goal_conjuncts=0, skolem_range_conjuncts=0,
                 choose_axiom_conjuncts=0, type_constraint_conjuncts=0,
                 skolem_symbols=None, expanded_instances=0, estimate_skolem=0,
                 estimate_expansion=0, contracts_as_definitions=0):
        self.goal_conjuncts = goal_conjuncts
        self.skolem_range_conjuncts = skolem_range_conjuncts
        self.choose_axiom_conjuncts = choose_axiom_conjuncts
        self.type_constraint_conjuncts = type_constraint_conjuncts
        self.skolem_symbols = [] if skolem_symbols is None else skolem_symbols
        self.expanded_instances = expanded_instances
        self.estimate_skolem = estimate_skolem
        self.estimate_expansion = estimate_expansion
        self.contracts_as_definitions = contracts_as_definitions


class SmtScript(Record):
    __match_args__ = ('logic', 'header', 'defines', 'decls', 'asserts',
                      'stats')

    def __init__(self, logic: str, header: list, defines: list, decls: list,
                 asserts: dict, stats: TranslateStats):
        self.logic, self.header, self.stats = logic, header, stats
        self.defines = defines  # (name, [(param, width)], result_width, body)
        self.decls = decls  # (name, [arg_widths], result_width)
        self.asserts = asserts  # tag -> [SMT-LIB text of each assertion]


# ---------------------------------------------------------------------------
# encoding helpers


def predicate_trivial(ty: FiniteType) -> bool:
    """True when every bit pattern of the sort is a carrier element."""
    return ty.size() == 1 << ty.width


def bv_lit(v, width: int) -> str:
    return '#b' + format(int(v), '0%db' % width)


def _node(head, *parts):
    """The compiled (head part...) of compiled parts (static, v): static text
    if every part is, else a function of the frame that writes it."""
    if len(parts) == 2:
        (ls, lhs), (rs, rhs) = parts
        if ls and rs:
            return True, f'({head} {lhs} {rhs})'
        if ls:
            pre = f'({head} {lhs} '
            return False, lambda env: f'{pre}{rhs(env)})'
        pre = f'({head} '
        if rs:
            post = f' {rhs})'
            return False, lambda env: f'{pre}{lhs(env)}{post}'
        return False, lambda env: f'{pre}{lhs(env)} {rhs(env)})'
    if len(parts) == 1:
        static, v = parts[0]
        if static:
            return True, f'({head} {v})'
        pre = f'({head} '
        return False, lambda env: f'{pre}{v(env)})'
    return _joined(f'({head}', [(' ', part) for part in parts], ')')


def _chain(head, parts):
    """The compiled left-nested (head (head p0 p1) p2 ...) of two or more
    compiled parts, as SMT-LIB writes a chain of binary operators."""
    if len(parts) == 2:
        return _node(head, *parts)
    seps = ['', ' '] + [') '] * (len(parts) - 2)
    return _joined(f'({head} ' * (len(parts) - 1), zip(seps, parts), ')')


def _joined(pre, pairs, post):
    """The compiled text pre t0 p0 t1 p1 ... post of the (text t, compiled
    part p) pairs: static text if every part is, else one function of the
    frame, with the static text between the parts that read it merged."""
    texts, fns = [pre], []
    for t, (static, v) in pairs:
        if static:
            texts[-1] += t + v
        else:
            texts[-1] += t
            fns.append(v)
            texts.append('')
    texts[-1] += post
    if not fns:
        return True, texts[0]
    runs, tail = list(zip(texts, fns)), texts[-1]
    return False, lambda env: ''.join([t + fn(env) for t, fn in runs]) + tail


def _widen(term, target: int):
    """The compiled expression of the compiled term (static, v, type, width)
    zero-extended to target bits."""
    static, v, _, width = term
    if width == target:
        return static, v
    if width > target:
        # only reachable for a product with a zero-bound factor, where the
        # value is 0 and the low bits are exact
        return _node('(_ extract %d 0)' % (target - 1), (static, v))
    return _node('(_ zero_extend %d)' % (target - width), (static, v))


def smt_sym(name: str) -> str:
    # primes from renaming are not legal in SMT-LIB simple symbols
    return name.replace("'", '!')


# ---------------------------------------------------------------------------
# the negation-normal form's binders and costs


_DUAL = {TrueF: FalseF, FalseF: TrueF, And: Or, Or: And, Forall: Exists,
         Exists: Forall}


def scan(f: Formula, neg: bool, doubled=None):
    """(the binder names of the negation-normal form of f, or of !f when
    neg, in pre-order; the Skolem range and universal expansion conjunct
    estimates, 0 when their quantifier kind is absent), from one read-only
    walk. A <=> for which the predicate doubled holds is read as
    (!a \\/ b) /\\ (a \\/ !b), with each side twice; any other as (= a b),
    each side once and, like a conditional's condition, without a
    polarity, so that its quantifiers count in neither estimate."""
    names, skolem, expansion = [], 0, 0
    # (node, negated, product of the enclosing universals' sizes, None in an
    # atom); children are pushed last first, so that they come out in order
    stack = [(f, neg, 1)]
    while stack:
        f, neg, mult = stack.pop()
        cls = type(f)
        if mult is None or cls is Atom:  # every binder, in plain pre-order
            if cls is Choose or cls is Forall or cls is Exists:
                names.append(f.var)
            for name in reversed(_LAYOUT[cls][1]):
                v = getattr(f, name)
                if type(v) is list:
                    stack += [(x, neg, None) for x in reversed(v)]
                elif type(v) is not Var and type(v) is not Lit:
                    stack.append((v, neg, None))
        elif cls is Not:
            stack.append((f.body, not neg, mult))
        elif cls is Forall or cls is Exists:
            names.append(f.var)
            if (cls is Forall) != neg:
                expansion = max(expansion, 1) * f.ty.size()
                mult *= f.ty.size()
            else:
                skolem += mult
            stack.append((f.body, neg, mult))
        elif cls is Iff and doubled and doubled(f):
            # (!a \/ b) /\ (a \/ !b), children last first
            stack += [(f.rhs, not neg, mult), (f.lhs, neg, mult),
                      (f.rhs, neg, mult), (f.lhs, not neg, mult)]
        elif cls is Iff:  # (= a b): each side once, as in a conditional
            stack += [(f.rhs, neg, None), (f.lhs, neg, None)]
        elif cls is And or cls is Or or cls is Implies:  # => is !a \/ ... \/ c
            flip = cls is Implies  # then every part but the conclusion, i == 0
            stack += [(p, neg != (flip and i > 0), mult)
                      for i, p in enumerate(reversed(f.parts))]
    return names, (skolem, expansion)


# the quantifier kinds, as quantifier_kinds gives them, of the negation
_FLIP = (0, 2, 1, 3)


def quantifier_kinds(f: Formula, memo: dict) -> int:
    """The kinds of the quantifiers of f read with their polarity, as the
    bits 1 (forall) and 2 (exists), in eliminate mode. A <=> is written
    doubled when a side has both kinds, and then has both itself; one
    written once, as =, expands each side in both polarities and has
    neither, as a term does. memo maps id(node) to (node, kinds) for every
    formula visited, so that one walk serves every <=> of a translation."""
    stack = [f]
    while stack:
        n = stack[-1]
        if id(n) in memo:
            stack.pop()
            continue
        cls = type(n)
        kids = (n.parts if cls is And or cls is Or or cls is Implies
                else (n.lhs, n.rhs) if cls is Iff
                else (n.body,) if cls is Not or cls is Forall or cls is Exists
                else ())
        todo = [k for k in kids if id(k) not in memo]
        if todo:  # the node is read again once its children are done
            stack += todo
            continue
        stack.pop()
        kinds = [memo[id(k)][1] for k in kids]
        if cls is Implies:  # the premises are read negated
            kinds[:-1] = [_FLIP[k] for k in kinds[:-1]]
        k = 0
        for kind in kinds:
            k |= kind
        if cls is Not:
            k = _FLIP[k]
        elif cls is Forall or cls is Exists:
            k |= 1 if cls is Forall else 2
        elif cls is Iff:
            k = 3 if 3 in kinds else 0
        memo[id(n)] = n, k
    return memo[id(f)][1]


def _eligible(t, nondet):
    """The first node of the term t that --eliminate-choices lifts out of
    its atom: a choose, or an application of a function in nondet whose
    arguments hold no choice, so that no argument is copied into the uses
    of its parameter; else None. Conditions of term conditionals have
    mixed polarity and choose bodies are opaque: neither is searched."""
    if type(t) is Choose:
        return t
    for c in _children(t):
        hit = None if isinstance(c, Formula) else _eligible(c, nondet)
        if hit is not None:
            return hit
    if (type(t) is Apply and t.func in nondet
            and not any(has_choose(a, nondet) for a in t.args)):
        return t
    return None


def _replace(node, hit):
    target, repl = hit
    return repl if node is target else _rebuild(node, _replace, hit)


# ---------------------------------------------------------------------------
# the translator


class Translator:
    def __init__(self, funcs=None, opts=None):
        source = func_table(funcs)
        # functional contracts read as definitions from here on
        self.funcs, self._nondet = source.derived()
        self.opts = opts or SmtOptions()
        assert self.opts.mode in MODES
        self.symtab = {}  # smt name -> (arg_types, result_type)
        self.defines = []  # as SmtScript.defines
        self._defined = set()
        self.asserts = {tag: [] for tag in TAGS}
        self.instances = 0
        self.counters = {'_sk': 0, '_ch': 0, '_el': 0}
        self.range_done = set()  # Skolem application texts with a range axiom
        # compile state: name -> compiled term, the expanded universals as
        # (frame slot, type), the frame's size, and whether quantifiers
        # expand regardless of mode (see _lower)
        self.scope, self.uvars, self.size = {}, [], 0
        self.concrete = False
        self.stats = TranslateStats()
        # functional contracts not yet translated (see _count_definition)
        self._as_definitions = set() if self.funcs is source else {
            n for n, fd in source.items() if fd is not self.funcs[n]}
        self._taken = set(self.funcs)  # see the module docstring, Names
        self._written = {}  # a primed or _el binder name -> its written name
        self.queue = []  # (axiom, tag, its _written), lowered in turn
        self._kinds = {}  # the memo of quantifier_kinds
        # definitions that are inlined instead of emitted as define-fun
        self._inlined = () if not self.funcs else {
            n for n, fd in self.funcs.items() if fd.body is not None and (
                self.opts.inline_definitions or n in self._nondet)}

    # -- fresh symbols -------------------------------------------------------

    def fresh(self, prefix: str) -> str:
        while True:
            self.counters[prefix] += 1
            name = '%s%d' % (prefix, self.counters[prefix])
            if name not in self._taken:
                self._taken.add(name)
                return name

    def _count_definition(self, name):
        """Count name in the stats the first time it is translated, if it
        is a functional contract."""
        if name in self._as_definitions:
            self._as_definitions.discard(name)
            self.stats.contracts_as_definitions += 1

    def _give(self, names, used, free=(), given_before=False):
        """iter(apart(names, used, free)); notes primed names in _written.
        given_before: names may have been given out before, as a queued
        axiom's are, and stand for the written name _written holds for them."""
        if not names:
            return iter(names)
        given = apart(names, used, free)
        written = self._written if given_before else {}
        self._written.update([(g, written.get(n, n))
                              for n, g in zip(names, given) if g != n])
        return iter(given)

    # -- the front end: one rebuild before lowering ---------------------------

    def normalize(self, f: Formula, neg: bool, used: set, lift=False):
        """(f, or !f when neg, through the one rebuild of the module
        docstring's The passes; scan's estimates). f must be closed. Its
        binders are named apart from used before the rebuild starts, and
        the names join used and _taken. lift is set for the goal under
        --eliminate-choices."""
        names, estimates = scan(f, neg, self._doubled)
        names = self._give(names, used, given_before=True)
        self._taken |= used
        return self._rewrite(f, ({}, [], names), neg, lift), estimates

    def _doubled(self, n):
        """True when the <=> n is rewritten as (!a \\/ b) /\\ (a \\/ !b):
        in eliminate mode, when a side's quantifiers, read with their
        polarity, are of both kinds. That form expands only the universals
        of each copy, |x| + |y| instances of a side exists x. forall y.,
        where (= a b) expands both, |x| * |y|; a side whose quantifiers are
        of one kind is expanded whole in one copy of it anyway."""
        return (self.opts.mode == 'eliminate'
                and quantifier_kinds(n, self._kinds) == 3)

    def _rewrite(self, n, ctx, neg=None, lift=False):
        """n, or !n when neg, in negation-normal form; with neg None, n
        keeps its connectives (a term, a formula in a conditional or a side
        of a <=> written as =). ctx holds the terms for free variables, the
        enclosing quantifiers' (name, type) and the iterator of binder
        names. lift marks a node that only forall, /\\, \\/ and the
        conclusion of => enclose: its atoms' choices are lifted (see
        _lift)."""
        cls = type(n)
        if cls is Var:
            return ctx[0].get(n.name, n)
        if cls is Lit:
            return n
        if cls is Forall or cls is Exists:
            mapping, scope, names = ctx
            var, mapping = enter_binder(n.var, mapping, names)
            body = self._rewrite(n.body, (mapping, scope + [(var, n.ty)],
                                          names), neg, lift and cls is Forall)
            if not neg and var == n.var and body is n.body:
                return n
            return (_DUAL[cls] if neg else cls)(var, n.ty, body,
                                                 pos=None if neg else n.pos)
        if cls is Iff:
            if neg is not None and self._doubled(n):  # read in scan's order
                return self._rewrite(And([Or(Not(n.lhs), n.rhs), Or(
                    n.lhs, Not(n.rhs))], pos=n.pos), ctx, neg)
            lhs, rhs = self._rewrite(n.lhs, ctx), self._rewrite(n.rhs, ctx)
            if lhs is not n.lhs or rhs is not n.rhs:
                n = Iff(lhs, rhs, pos=n.pos)
            return Not(n) if neg else n
        if neg is None:
            if cls is Apply:
                return self._application(n, ctx)
            if cls is Choose:
                return self._choice(n, ctx)
            return _rebuild(n, self._rewrite, ctx)
        if cls is Atom:
            if lift and (_eligible(n.lhs, self._nondet)
                         or _eligible(n.rhs, self._nondet)):
                return self._lift(subst(n, ctx[0], names=ctx[2]), ctx[1], neg)
            lhs, rhs = self._rewrite(n.lhs, ctx), self._rewrite(n.rhs, ctx)
            if lhs is not n.lhs or rhs is not n.rhs:
                n = Atom(n.rel, lhs, rhs, pos=n.pos)
            return Not(n) if neg else n
        if cls is Not:
            if neg or type(n.body) is not Atom:
                return self._rewrite(n.body, ctx, not neg)
            return _rebuild(n, self._rewrite, ctx)
        if cls is TrueF or cls is FalseF:
            return _DUAL[cls]() if neg else n
        if cls is Implies:  # !a \/ !b \/ ... \/ c
            return self._rewrite(Or([*map(Not, n.parts[:-1]), n.parts[-1]],
                                    pos=n.pos), ctx, neg, lift)
        parts = []  # in a loop: a comprehension would add a frame per level
        for p in n.parts:
            parts.append(self._rewrite(p, ctx, neg, lift))
        if not neg and all(map(is_, parts, n.parts)):
            return n
        return _DUAL[cls](parts) if neg else cls(parts, pos=n.pos)

    def _lift(self, atom, scope, neg):
        """The atom, its binders already named, as
        forall y. cond[y] => atom[y] for its first eligible choice (see
        _eligible), where cond is the choose's condition or the contract's
        ensures with y for result, rewritten; the rewrite lifts the
        formula's further choices. An eligible application of a definition
        that can take several values is replaced by its body first."""
        hit = _eligible(atom.lhs, self._nondet) or _eligible(atom.rhs,
                                                             self._nondet)
        if type(hit) is Choose:
            y, written = self.fresh('_el'), hit.var
            rty, cond = hit.ty, subst(hit.body, {hit.var: Var(y)})
        else:
            fd = self.funcs[hit.func]
            mapping = {p: a for (p, _), a in zip(fd.params, hit.args)}
            if fd.body is not None:
                body = subst(fd.body, mapping, names=self._give(
                    binders(fd.body), self._taken, free_vars(fd.body)))
                return self._rewrite(_replace(atom, (hit, body)),
                                     ({}, scope, None), neg, True)
            y, written = self.fresh('_el'), 'result'
            mapping['result'] = Var(y)
            rty, cond = fd.result, subst(fd.ensures, mapping, names=self._give(
                binders(fd.ensures), self._taken, free_vars(fd.ensures)))
        self._written[y] = self._written.get(written, written)
        atom = Forall(y, rty, Implies(cond, _replace(atom, (hit, Var(y)))))
        return self._rewrite(atom, ({}, scope, None), neg, True)

    def _choice(self, n, ctx):
        """The choose n as a fresh _ch symbol applied to the enclosing
        binders that it reads; its axioms are queued."""
        c = subst(n, ctx[0], names=ctx[2])
        fv = free_vars(c)
        args = [(a, ty) for a, ty in ctx[1] if a in fv and ty.size() > 1]
        folded = {a: Lit(int(ty.value_at(0)))
                  for a, ty in ctx[1] if a in fv and ty.size() == 1}
        name = self.fresh('_ch')
        folded[c.var] = Apply(name, [Var(a) for a, _ in args])
        self._declare(name, args, c.ty, subst(c.body, folded), self._written)
        return Apply(name, [Var(a) for a, _ in args])

    def _application(self, n, ctx):
        fd = self.funcs.get(n.func)
        if n.func not in self._inlined:
            out = _rebuild(n, self._rewrite, ctx)
            # every _ch symbol is in symtab, so fd is not None here
            if n.func not in self.symtab and fd.is_contract():
                app = Apply(n.func, [Var(p) for p, _ in fd.params])
                self._declare(n.func, fd.params, fd.result,
                              subst(fd.ensures, {'result': app}), {})
            return out
        # the arguments are rewritten first: a choice in one has one value
        # in all uses of its parameter
        args = [self._rewrite(a, ctx) for a in n.args]
        self._count_definition(n.func)
        names = self._give(binders(fd.body), self._taken, free_vars(fd.body))
        mapping = {p: a for (p, _), a in zip(fd.params, args)}
        return self._rewrite(fd.body, (mapping, ctx[1], names))

    def _declare(self, name, params, rty, axiom, written):
        """Declare name: params -> rty; queue axiom and the result's type
        constraint, each closed over params, with written as their _written."""
        self.symtab[name] = ([ty for _, ty in params], rty)
        axioms = [(axiom, 'choose-axiom')]
        if not predicate_trivial(rty):
            app = Apply(name, [Var(a) for a, _ in params])
            axioms.append((Atom('<=', app, Lit(rty.bound)),
                           'type-constraint'))
        for ax, tag in axioms:
            for p, ty in reversed(params):
                ax = Forall(p, ty, ax)
            self.queue.append((ax, tag, dict(written)))

    # -- lowering, compiled once per node ----------------------------------------

    def _instances(self, f, slot, env):
        """Write each element of the quantifier f's carrier into env[slot],
        as a literal; each counts against the expansion budget."""
        spec = '0%db' % f.ty.width
        for i in range(f.ty.size()):
            self.instances += 1
            if self.instances > self.opts.expansion_budget:
                raise TranslateError(
                    "expansion budget %d exceeded while expanding quantifier "
                    "over '%s'" % (self.opts.expansion_budget,
                                    self._written.get(f.var, f.var)))
            env[slot] = '#b' + format(i, spec)  # element i encodes as i
            yield

    def _scoped(self, var, entry, compile_body, body):
        """compile_body(body) with var bound to entry, a compiled term."""
        outer = self.scope
        self.scope = {**outer, var: entry}
        out = compile_body(body)
        self.scope = outer
        return out

    def _expanded(self, f, compile_body):
        """(slot, f's body compiled once for all its instances). Over one
        element the variable is that element's literal and slot is None;
        otherwise it reads a new frame slot, and a universal joins the
        expanded universals that Skolem witnesses below take as arguments
        (an expanded existential needs none: one disjunct has to hold)."""
        w = f.ty.width
        if f.ty.size() == 1:
            lit = bv_lit(f.ty.value_at(0), w)
            return None, self._scoped(f.var, (True, lit, f.ty, w),
                                      compile_body, f.body)
        slot = self.size
        self.size += 1
        uvars = self.uvars
        if isinstance(f, Forall):
            self.uvars = uvars + [(slot, f.ty)]
        out = self._scoped(f.var, (False, itemgetter(slot), f.ty, w),
                           compile_body, f.body)
        self.uvars = uvars
        return slot, out

    def top(self, f, tag):
        """Lower f into asserts[tag]. Only source-level conjunctions split:
        each expanded instance stays one assertion, so instance count
        equals clause count."""
        if type(f) is And:
            for part in f.parts:
                self.top(part, tag)
            return
        self.scope, self.uvars, self.size = {}, [], 0
        self._assertions(f, self.asserts[tag].append)([None] * self.size)

    def _assertions(self, f, add):
        """A function of the frame that passes each assertion of f to add."""
        if isinstance(f, Forall) and self.opts.mode != 'preserve':
            slot, body = self._expanded(
                f, lambda b: self._assertions(b, add))
            if slot is None:
                return body

            def each(env):
                for _ in self._instances(f, slot, env):
                    body(env)
            return each
        static, e = self._lower(f)
        if static:
            return lambda env: add(e)
        return lambda env: add(e(env))

    def _lower(self, node):
        """Compile a formula to (static, v), a term to (static, v, type,
        width): v is the SMT-LIB text when static, else a function of the
        frame that writes it. concrete, set inside the condition of a term
        conditional and, in eliminate mode, a side of =, whose polarity is
        unknown, expands every quantifier into a finite con/disjunction, as
        expand-all always does."""
        return _LOWER[type(node)](self, node)

    def _quantifier(self, f):
        head = 'forall' if isinstance(f, Forall) else 'exists'
        many = f.ty.size() > 1
        if self.opts.mode == 'preserve' and not self.concrete and many:
            sym = smt_sym(f.var)
            w = f.ty.width
            body = self._scoped(f.var, (True, sym, f.ty, w), self._lower,
                                f.body)
            if not predicate_trivial(f.ty):
                guard = True, '(bvule %s %s)' % (sym, bv_lit(f.ty.bound, w))
                body = _node('=>' if head == 'forall' else 'and', guard, body)
            return _node(head, (True, '((%s %s))' % (sym, _sort(w))), body)
        if (many and head == 'exists' and not self.concrete
                and self.opts.mode == 'eliminate'):
            name = self._skolem_name(f)
            if name is not None:
                return self._skolem(f, name)
        slot, (static, body) = self._expanded(f, self._lower)
        if slot is None:
            return static, body
        pre = '(and ' if head == 'forall' else '(or '
        part = (lambda env: body) if static else body
        instances = self._instances
        return False, lambda env: pre + ' '.join([
            part(env) for _ in instances(f, slot, env)]) + ')'

    def _skolem_name(self, f):
        """The Skolem symbol of the existential f, a function of the
        enclosing expanded universals, or None when expanding f is
        cheaper."""
        tys = [ty for _, ty in self.uvars]
        nontrivial = (0 if predicate_trivial(f.ty)
                      else math.prod(ty.size() for ty in tys))
        if nontrivial > self.opts.heuristic_factor * f.ty.size():
            return None
        name = self.fresh('_sk')
        self.symtab[name] = (tys, f.ty)
        self.stats.skolem_symbols.append((name, len(tys)))
        return name

    def _skolem(self, f, name):
        """f's body with the witness, applied to the current values of the
        enclosing expanded universals, for its variable. The first use of
        each application asserts its range."""
        slots = [slot for slot, _ in self.uvars]
        w = f.ty.width
        bound = None if predicate_trivial(f.ty) else bv_lit(f.ty.bound, w)
        done, axioms = self.range_done, self.asserts['skolem-range-axiom']
        if slots:
            slot = self.size
            self.size += 1
            entry = (False, itemgetter(slot), f.ty, w)
        else:  # a Skolem constant, the same in every instance
            slot, entry = None, (True, name, f.ty, w)
        static, body = self._scoped(f.var, entry, self._lower, f.body)

        def witness(env):
            app = ('(%s %s)' % (name, ' '.join([env[i] for i in slots]))
                   if slots else name)
            if app not in done:
                done.add(app)
                axioms.append('true' if bound is None
                              else '(bvule %s %s)' % (app, bound))
            if slot is not None:
                env[slot] = app
            return body if static else body(env)
        return False, witness

    def _connective(self, f):
        lowered = []  # in a loop: a comprehension would add a frame per level
        for p in _children(f):
            lowered.append(_LOWER[type(p)](self, p))
        if type(f) is Implies:  # (=> a b c) is right-associative
            return _node('=>', *lowered)
        return _chain(_CONNECTIVE[type(f)], lowered)

    def _iff(self, f):
        """(= a b). In eliminate mode its sides expand every quantifier, as
        a conditional's condition does: a side of = cannot be Skolemized."""
        outer = self.concrete
        self.concrete = outer or self.opts.mode == 'eliminate'
        lhs = _LOWER[type(f.lhs)](self, f.lhs)
        rhs = _LOWER[type(f.rhs)](self, f.rhs)
        self.concrete = outer
        return _node('=', lhs, rhs)

    def _atom(self, f):
        lhs = _LOWER[type(f.lhs)](self, f.lhs)
        rhs = _LOWER[type(f.rhs)](self, f.rhs)
        w = max(lhs[3], rhs[3])
        return _node(_REL[f.rel], _widen(lhs, w), _widen(rhs, w))

    # -- terms ----------------------------------------------------------------

    def _lit(self, t):
        v = t.value
        # True == 1 and hash(True) == hash(1): the key tells them apart
        lit = _LITS.get((v, type(v)))
        if lit is None:
            ty = BOOL if isinstance(v, bool) else nat(v)
            lit = _LITS[v, type(v)] = True, bv_lit(v, ty.width), ty, ty.width
        return lit

    def _arith(self, t):
        """(bvadd a b) or (bvmul a b) at the result's width; a literal right
        operand of + is written at that width, not zero-extended."""
        lhs = _LOWER[type(t.lhs)](self, t.lhs)
        rhs = _LOWER[type(t.rhs)](self, t.rhs)
        if isinstance(t, Add):
            ty = nat(lhs[2].bound + rhs[2].bound)
            op = 'bvadd'
        else:
            ty = nat(lhs[2].bound * rhs[2].bound)
            op = 'bvmul'
        w = ty.width
        if op == 'bvadd' and type(t.rhs) is Lit:
            rhs = True, bv_lit(t.rhs.value, w), ty, w
        return (*_node(op, _widen(lhs, w), _widen(rhs, w)), ty, w)

    def _ite(self, t):
        outer, self.concrete = self.concrete, True
        cond = _LOWER[type(t.cond)](self, t.cond)
        self.concrete = outer
        then = _LOWER[type(t.then)](self, t.then)
        els = _LOWER[type(t.els)](self, t.els)
        if then[2].kind == 'bool':
            return (*_node('ite', cond, then[:2], els[:2]), BOOL, 1)
        ty = nat(max(then[2].bound, els[2].bound))
        w = ty.width
        return (*_node('ite', cond, _widen(then, w), _widen(els, w)), ty, w)

    def _apply(self, t):
        if t.func in self.symtab:
            arg_tys, rty = self.symtab[t.func]
        else:
            fd = self.funcs[t.func]
            self._ensure_define(t.func)
            arg_tys = [ty for _, ty in fd.params]
            rty = fd.result
        args = [_widen(_LOWER[type(a)](self, a), pty.width)
                for a, pty in zip(t.args, arg_tys)]
        name = smt_sym(t.func)
        return (*(_node(name, *args) if args else (True, name)), rty,
                rty.width)

    def _unaxiomatized(self, t):
        raise AssertionError('choices must be axiomatized before lowering: %r'
                             % t)

    def _ensure_define(self, name):
        if name in self._defined:
            return
        self._defined.add(name)
        self._count_definition(name)
        fd = self.funcs[name]
        # a parameter named like a function would shadow it: prime it apart
        # from the functions and the other parameters
        taken = set(self.funcs).union(p for p, _ in fd.params)
        params = [(p, smt_sym(apart([p], taken)[0] if p in self.funcs else p),
                   ty) for p, ty in fd.params]
        outer = self.scope, self.uvars, self.size
        self.scope = {p: (True, q, ty, ty.width) for p, q, ty in params}
        self.uvars, self.size = [], 0
        static, body = _widen(self._lower(fd.body), fd.result.width)
        if not static:  # a condition in the body expands a quantifier
            body = body([None] * self.size)
        self.scope, self.uvars, self.size = outer
        self.defines.append((smt_sym(name),
                             [(q, ty.width) for _, q, ty in params],
                             fd.result.width, body))

    # -- entry point ------------------------------------------------------------

    def run(self, goal: Formula) -> SmtScript:
        neg, estimates = self.normalize(goal, True, self._taken,
                                        self.opts.eliminate_choices)
        self.top(neg, 'negated-goal')
        while self.queue:
            ax, tag, self._written = self.queue.pop(0)
            # an axiom's binders avoid only the function and declared names
            ax, _ = self.normalize(ax, False,
                                   set(self.funcs).union(self.symtab))
            self.top(ax, tag)

        st = self.stats
        st.goal_conjuncts = len(self.asserts['negated-goal'])
        st.skolem_range_conjuncts = len(self.asserts['skolem-range-axiom'])
        st.choose_axiom_conjuncts = len(self.asserts['choose-axiom'])
        st.type_constraint_conjuncts = len(self.asserts['type-constraint'])
        st.expanded_instances = self.instances
        st.estimate_skolem, st.estimate_expansion = estimates

        opts = self.opts
        key = (opts.mode, opts.heuristic_factor, opts.eliminate_choices,
               opts.inline_definitions)
        line = _HEADERS.get(key)
        if line is None:
            line = _HEADERS[key] = (
                'mode: %s  heuristic-factor: %g  eliminate-choices: %s'
                '  inline-definitions: %s' % (
                    opts.mode, opts.heuristic_factor,
                    'on' if opts.eliminate_choices else 'off',
                    'on' if opts.inline_definitions else 'off'))
        header = [line]
        if opts.goal_name:
            header.append('goal: %s' % opts.goal_name)
        decls = [(smt_sym(n), [t.width for t in tys], r.width)
                 for n, (tys, r) in self.symtab.items()]
        logic = 'UFBV' if opts.mode == 'preserve' else 'QF_UFBV'
        return SmtScript(logic, header, self.defines, decls, self.asserts, st)


_REL = {'=': '=', '<': 'bvult', '<=': 'bvule'}
# compiled literals by (value, type(value)), as Translator._lit returns them
_LITS = {}
# the header line of each option set, by every option but the budget and
# the goal name
_HEADERS = {}
_CONNECTIVE = {And: 'and', Or: 'or'}  # each written left-nested
# node type -> compiling method; methods look their children up here
# directly, so each nested connective or term costs one Python frame
_LOWER = {
    TrueF: lambda tr, f: (True, 'true'),
    FalseF: lambda tr, f: (True, 'false'),
    Atom: Translator._atom,
    Not: lambda tr, f: _node('not', _LOWER[type(f.body)](tr, f.body)),
    And: Translator._connective,
    Or: Translator._connective,
    Implies: Translator._connective,
    Iff: Translator._iff,
    Forall: Translator._quantifier,
    Exists: Translator._quantifier,
    Var: lambda tr, t: tr.scope[t.name],
    Lit: Translator._lit,
    Add: Translator._arith,
    Mul: Translator._arith,
    Ite: Translator._ite,
    Apply: Translator._apply,
    Choose: Translator._unaxiomatized,
}


def translate(goal: Formula, funcs=None, opts=None) -> SmtScript:
    """Translate a closed goal; callers map sat -> invalid, unsat -> valid.
    A goal nested too deeply for the recursive passes is a TranslateError,
    like an exceeded expansion budget."""
    try:
        return Translator(funcs, opts).run(goal)
    except RecursionError:
        raise TranslateError('goal nested too deeply to translate') from None


# ---------------------------------------------------------------------------
# emission


def _sort(width: int) -> str:
    return '(_ BitVec %d)' % width


_ASSERT_ENDS = [(tag, ') ; ' + tag) for tag in TAGS]


def emit_smtlib(script: SmtScript) -> str:
    lines = ['(set-logic %s)' % script.logic]
    lines += ['; ' + h for h in script.header]
    for name, params, rw, body in script.defines:
        ps = ' '.join('(%s %s)' % (p, _sort(w)) for p, w in params)
        lines.append('(define-fun %s (%s) %s %s)'
                     % (name, ps, _sort(rw), body))
    for name, argws, rw in script.decls:
        lines.append('(declare-fun %s (%s) %s)'
                     % (name, ' '.join(map(_sort, argws)), _sort(rw)))
    for tag, end in _ASSERT_ENDS:
        asserts = script.asserts[tag]
        if asserts:
            lines += ['(assert ' + e + end for e in asserts]
    lines.append('(check-sat)\n')
    return '\n'.join(lines)
