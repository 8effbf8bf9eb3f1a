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
choose condition; a contract function becomes a single uninterpreted
function constrained by its ensures clause. Defined functions emit as
define-fun unless inlining is requested. A definition that can take several
values (one whose body contains a choose, or applies a contract or another
such definition; see core.nondeterministic_funcs) is always inlined, since a
macro cannot carry nondeterminism. Under every option a definition is
inlined after its arguments are translated, so an argument with a choice
has one value in all uses of its parameter.
"""

from dataclasses import dataclass, field

from .core import (Add, AddConst, And, Apply, Atom, BINDERS, BOOL, Choose,
                   Exists, FalseF, FdlError, FiniteType, Forall, Formula,
                   Iff, Implies, Ite, Lit, Mul, Not, Or, QUANTIFIERS, Term,
                   TrueF, Var, _rebuild, free_vars, has_choose,
                   nondeterministic_funcs, rename_apart, subst, walk)

MODES = ('eliminate', 'preserve', 'expand-all')
TAGS = ('negated-goal', 'skolem-range-axiom', 'choose-axiom', 'type-constraint')


class TranslateError(FdlError):
    pass


@dataclass
class SmtOptions:
    mode: str = 'eliminate'
    heuristic_factor: float = 2.0
    eliminate_choices: bool = False
    inline_definitions: bool = False
    expansion_budget: int = 2 ** 20
    goal_name: str = ''


@dataclass
class TranslateStats:
    goal_conjuncts: int = 0
    skolem_range_conjuncts: int = 0
    choose_axiom_conjuncts: int = 0
    type_constraint_conjuncts: int = 0
    skolem_symbols: list = field(default_factory=list)  # (name, arity)
    expanded_instances: int = 0
    estimate_skolem: int = 0
    estimate_expansion: int = 0


@dataclass
class SmtScript:
    logic: str
    header: list
    defines: list  # (name, [(param, width)], result_width, body_expr)
    decls: list  # (name, [arg_widths], result_width)
    asserts: dict  # tag -> [expr]
    stats: TranslateStats


# ---------------------------------------------------------------------------
# encoding helpers


def sort_width(ty: FiniteType) -> int:
    """Bit-vector width used for this carrier's sort (at least 1)."""
    return max(1, ty.bit_width())


def predicate_trivial(ty: FiniteType) -> bool:
    """True when every bit pattern of the sort is a carrier element."""
    return ty.size() == 2 ** sort_width(ty)


def bv_lit(v, width: int) -> str:
    return '#b' + format(int(v), '0%db' % width)


def zx(expr, width: int, target: int):
    if width == target:
        return expr
    if width > target:
        # only reachable for a product with a zero-bound factor, where the
        # value is 0 and the low bits are exact
        return (('_', 'extract', str(target - 1), '0'), expr)
    return (('_', 'zero_extend', str(target - width)), expr)


def smt_sym(name: str) -> str:
    # primes from renaming are not legal in SMT-LIB simple symbols
    return name.replace("'", '!')


# ---------------------------------------------------------------------------
# formula normalization


def to_nnf(f: Formula) -> Formula:
    """Push negations to the atoms and remove => and <=>.

    Terms are left untouched; formulas inside term conditionals are handled
    structurally by the lowering step instead.
    """
    if isinstance(f, (TrueF, FalseF, Atom)):
        return f
    if isinstance(f, And):
        return And(to_nnf(f.lhs), to_nnf(f.rhs), pos=f.pos)
    if isinstance(f, Or):
        return Or(to_nnf(f.lhs), to_nnf(f.rhs), pos=f.pos)
    if isinstance(f, Implies):
        return Or(to_nnf(Not(f.lhs)), to_nnf(f.rhs), pos=f.pos)
    if isinstance(f, Iff):
        return And(Or(to_nnf(Not(f.lhs)), to_nnf(f.rhs)),
                   Or(to_nnf(f.lhs), to_nnf(Not(f.rhs))), pos=f.pos)
    if isinstance(f, Forall):
        return Forall(f.var, f.ty, to_nnf(f.body), pos=f.pos)
    if isinstance(f, Exists):
        return Exists(f.var, f.ty, to_nnf(f.body), pos=f.pos)
    if isinstance(f, Not):
        g = f.body
        if isinstance(g, TrueF):
            return FalseF(pos=f.pos)
        if isinstance(g, FalseF):
            return TrueF(pos=f.pos)
        if isinstance(g, Atom):
            return f
        if isinstance(g, Not):
            return to_nnf(g.body)
        if isinstance(g, And):
            return Or(to_nnf(Not(g.lhs)), to_nnf(Not(g.rhs)), pos=f.pos)
        if isinstance(g, Or):
            return And(to_nnf(Not(g.lhs)), to_nnf(Not(g.rhs)), pos=f.pos)
        if isinstance(g, Implies):
            return And(to_nnf(g.lhs), to_nnf(Not(g.rhs)), pos=f.pos)
        if isinstance(g, Iff):
            return Or(And(to_nnf(g.lhs), to_nnf(Not(g.rhs))),
                      And(to_nnf(Not(g.lhs)), to_nnf(g.rhs)), pos=f.pos)
        if isinstance(g, Forall):
            return Exists(g.var, g.ty, to_nnf(Not(g.body)), pos=f.pos)
        if isinstance(g, Exists):
            return Forall(g.var, g.ty, to_nnf(Not(g.body)), pos=f.pos)
    raise AssertionError('unhandled formula %r' % f)


def negate_goal(goal: Formula) -> Formula:
    """The satisfiability-side formula: nnf(!goal)."""
    return to_nnf(Not(goal))


def estimate_costs(goal: Formula):
    """Structural cost estimate on nnf(!goal): (skolem range conjuncts,
    universal expansion conjuncts). Both are 0 when the respective
    quantifier kind is absent."""
    neg = negate_goal(goal)
    skolem = 0
    expansion = 1
    saw_forall = saw_exists = False

    def go(f, mult):
        nonlocal skolem, expansion, saw_forall, saw_exists
        if isinstance(f, Forall):
            saw_forall = True
            expansion *= f.ty.size()
            go(f.body, mult * f.ty.size())
        elif isinstance(f, Exists):
            saw_exists = True
            skolem += mult
            go(f.body, mult)
        elif isinstance(f, (And, Or)):
            go(f.lhs, mult)
            go(f.rhs, mult)
        elif isinstance(f, Not):
            go(f.body, mult)

    go(neg, 1)
    return (skolem if saw_exists else 0), (expansion if saw_forall else 0)


# ---------------------------------------------------------------------------
# source-level transforms


def instantiate(fd, args, used):
    """The body of the defined function fd with args for its parameters,
    its binders first renamed apart from the names in used."""
    body = rename_apart(fd.body, used)
    return subst(body, {p: a for (p, _), a in zip(fd.params, args)})


def eliminate_choices(goal: Formula, funcs) -> Formula:
    """Lift choices and contract applications out of positive atoms.

    An occurrence c (a choose term, or an application of a contract
    function) inside an atom A[c] gets rewritten to

        forall y: R. (cond[y] => A[y])

    where cond is the choose condition (or the contract's ensures clause
    with its parameters instantiated). An eligible application of a
    definition that can take several values is replaced by its body first.
    Only occurrences in positive position and not under an existential or
    another choice are eligible; the rest are left for axiomatization.
    """
    funcs = funcs or {}
    nondet = nondeterministic_funcs(funcs)
    used = set()
    for n in walk(goal):
        if isinstance(n, Var):
            used.add(n.name)
        elif isinstance(n, BINDERS):
            used.add(n.var)
    counter = [0]

    def fresh():
        counter[0] += 1
        name = '_el%d' % counter[0]
        while name in used:
            counter[0] += 1
            name = '_el%d' % counter[0]
        used.add(name)
        return name

    def eligible_occurrence(t):
        # first choice-like node in a term tree; conditions of term
        # conditionals have mixed polarity and choose bodies are opaque. An
        # application is a hit only once its arguments hold no choice, so
        # an argument is never copied into the uses of its parameter.
        if isinstance(t, Choose):
            return t
        if isinstance(t, Apply):
            for a in t.args:
                hit = eligible_occurrence(a)
                if hit is not None:
                    return hit
            if t.func in nondet and not any(has_choose(a, nondet)
                                            for a in t.args):
                return t
            return None
        if isinstance(t, (Add, Mul)):
            return eligible_occurrence(t.lhs) or eligible_occurrence(t.rhs)
        if isinstance(t, AddConst):
            return eligible_occurrence(t.lhs)
        if isinstance(t, Ite):
            return eligible_occurrence(t.then) or eligible_occurrence(t.els)
        return None

    def replace(node, target, repl):
        if node is target:
            return repl
        if isinstance(node, (Term, Formula)):
            return _rebuild(node, lambda c: replace(c, target, repl))
        return node

    def go(f, ok):
        if isinstance(f, Atom):
            if not ok:
                return f
            hit = eligible_occurrence(f.lhs) or eligible_occurrence(f.rhs)
            if hit is None:
                return f
            if isinstance(hit, Apply) and funcs[hit.func].body is not None:
                # a definition that can take several values: its body, with
                # the choices in it, takes the application's place
                body = instantiate(funcs[hit.func], hit.args, used)
                used.update(n.var for n in walk(body) if isinstance(n, BINDERS))
                return go(replace(f, hit, body), ok)
            y = fresh()
            if isinstance(hit, Choose):
                rty = hit.ty
                cond = subst(hit.body, {hit.var: Var(y)})
            else:
                fd = funcs[hit.func]
                rty = fd.result
                mapping = {p: a for (p, _), a in zip(fd.params, hit.args)}
                mapping['result'] = Var(y)
                cond = subst(rename_apart(fd.ensures, used), mapping)
            # the stripped atom may hold further occurrences; recurse on it
            return Forall(y, rty, Implies(cond, go(replace(f, hit, Var(y)), ok)))
        if isinstance(f, (TrueF, FalseF)):
            return f
        if isinstance(f, Not):
            return Not(go(f.body, False), pos=f.pos)
        if isinstance(f, And):
            return And(go(f.lhs, ok), go(f.rhs, ok), pos=f.pos)
        if isinstance(f, Or):
            return Or(go(f.lhs, ok), go(f.rhs, ok), pos=f.pos)
        if isinstance(f, Implies):
            return Implies(go(f.lhs, False), go(f.rhs, ok), pos=f.pos)
        if isinstance(f, Iff):
            return Iff(go(f.lhs, False), go(f.rhs, False), pos=f.pos)
        if isinstance(f, Forall):
            return Forall(f.var, f.ty, go(f.body, ok), pos=f.pos)
        if isinstance(f, Exists):
            return Exists(f.var, f.ty, go(f.body, False), pos=f.pos)
        raise AssertionError('unhandled formula %r' % f)

    return go(goal, True)


# ---------------------------------------------------------------------------
# the translator


class Translator:
    def __init__(self, funcs=None, opts=None):
        self.funcs = funcs or {}
        self.opts = opts or SmtOptions()
        assert self.opts.mode in MODES
        self.symtab = {}  # smt name -> (arg_types, result_type)
        self.defines = []  # (name, [(param, width)], result_width, body_expr)
        self._defined = set()
        self.asserts = {tag: [] for tag in TAGS}
        self.instances = 0
        self.counters = {'_sk': 0, '_ch': 0}
        self.sk_memo = {}  # id(exists node) -> ('expand',) | ('skolem', name)
        self.range_done = set()
        self.stats = TranslateStats()
        self.tmap = {}  # binder name -> FiniteType
        self._used_names = set(self.funcs)
        nondet = nondeterministic_funcs(self.funcs)
        # definitions that are inlined instead of emitted as define-fun
        self._inlined = {n: fd for n, fd in self.funcs.items()
                         if fd.body is not None and (
                             self.opts.inline_definitions or n in nondet)}

    # -- fresh symbols -------------------------------------------------------

    def fresh(self, prefix: str) -> str:
        while True:
            self.counters[prefix] += 1
            name = '%s%d' % (prefix, self.counters[prefix])
            if name not in self._used_names:
                self._used_names.add(name)
                return name

    def note_names(self, node):
        for n in walk(node):
            if isinstance(n, Var):
                self._used_names.add(n.name)
            elif isinstance(n, BINDERS):
                self._used_names.add(n.var)
            elif isinstance(n, Apply):
                self._used_names.add(n.func)

    # -- choice axiomatization -------------------------------------------------

    def axiomatize(self, f: Formula, queue: list) -> Formula:
        """Replace choose terms by fresh constrained functions, register
        contract functions, and append the new axioms to the queue."""

        def go_f(f, scope):
            if isinstance(f, QUANTIFIERS):
                return type(f)(f.var, f.ty,
                               go_f(f.body, scope + [(f.var, f.ty)]),
                               pos=f.pos)
            if isinstance(f, Atom):
                return Atom(f.rel, go_t(f.lhs, scope), go_t(f.rhs, scope),
                            pos=f.pos)
            if isinstance(f, Not):
                return Not(go_f(f.body, scope), pos=f.pos)
            if isinstance(f, (And, Or, Implies, Iff)):
                return type(f)(go_f(f.lhs, scope), go_f(f.rhs, scope),
                               pos=f.pos)
            return f

        def go_t(t, scope):
            if isinstance(t, Choose):
                fv = free_vars(t)
                args = [(a, ty) for a, ty in scope if a in fv and ty.size() > 1]
                folded = {a: Lit(int(ty.value_at(0)))
                          for a, ty in scope if a in fv and ty.size() == 1}
                name = self.fresh('_ch')
                self.symtab[name] = ([ty for _, ty in args], t.ty)
                app = Apply(name, [Var(a) for a, _ in args])
                body = subst(t.body, dict(folded, **{t.var: app}))
                queue.append((self._close(args, body), 'choose-axiom'))
                self._queue_constraint(name, args, t.ty, queue)
                return Apply(name, [Var(a) for a, _ in args])
            if isinstance(t, Apply):
                fd = self.funcs.get(t.func)
                args = [go_t(a, scope) for a in t.args]
                if fd is not None and fd.is_contract():
                    if t.func not in self.symtab:
                        self.symtab[t.func] = ([ty for _, ty in fd.params],
                                               fd.result)
                        params = list(fd.params)
                        ens = subst(fd.ensures, {'result': Apply(
                            t.func, [Var(p) for p, _ in params])})
                        queue.append((self._close(params, ens),
                                      'choose-axiom'))
                        self._queue_constraint(t.func, params, fd.result,
                                               queue)
                if t.func in self._inlined:
                    # the arguments are axiomatized already: a choice in one
                    # has one value in all uses of its parameter
                    used = set(a for a, _ in scope) | self._used_names
                    body = instantiate(fd, args, used)
                    self.note_names(body)
                    return go_t(body, scope)
                return Apply(t.func, args, pos=t.pos)
            if isinstance(t, Ite):
                return Ite(go_f(t.cond, scope), go_t(t.then, scope),
                           go_t(t.els, scope), pos=t.pos)
            if isinstance(t, (Add, Mul)):
                return type(t)(go_t(t.lhs, scope), go_t(t.rhs, scope),
                               pos=t.pos)
            if isinstance(t, AddConst):
                return AddConst(go_t(t.lhs, scope), t.const, pos=t.pos)
            return t

        return go_f(f, [])

    @staticmethod
    def _close(binders, body) -> Formula:
        for name, ty in reversed(binders):
            body = Forall(name, ty, body)
        return body

    def _queue_constraint(self, name, binders, rty, queue):
        if predicate_trivial(rty):
            return
        app = Apply(name, [Var(a) for a, _ in binders])
        queue.append((self._close(binders, Atom('<=', app, Lit(rty.bound))),
                      'type-constraint'))

    # -- quantifier processing and lowering ------------------------------------

    def _bump(self, var):
        self.instances += 1
        if self.instances > self.opts.expansion_budget:
            raise TranslateError(
                "expansion budget %d exceeded while expanding quantifier "
                "over '%s'" % (self.opts.expansion_budget, var))

    def top(self, f, env, uvars, tag, split_and=True):
        # each expanded instance stays one assertion, so instance count
        # equals clause count; only source-level conjunctions split
        if self.opts.mode != 'preserve':
            if isinstance(f, And) and split_and:
                self.top(f.lhs, env, uvars, tag, split_and)
                self.top(f.rhs, env, uvars, tag, split_and)
                return
            if isinstance(f, Forall):
                self.tmap[f.var] = f.ty
                if f.ty.size() == 1:
                    env2 = dict(env)
                    env2[f.var] = ('val', f.ty.value_at(0), f.ty)
                    self.top(f.body, env2, uvars, tag, False)
                    return
                for i in range(f.ty.size()):
                    self._bump(f.var)
                    env2 = dict(env)
                    env2[f.var] = ('val', f.ty.value_at(i), f.ty)
                    self.top(f.body, env2, uvars + [f.var], tag, False)
                return
        elif isinstance(f, And) and split_and:
            self.top(f.lhs, env, uvars, tag, split_and)
            self.top(f.rhs, env, uvars, tag, split_and)
            return
        self.asserts[tag].append(self.lower_f(f, env, uvars))

    def lower_f(self, f, env, uvars, concrete=False):
        """Lower a formula to an SMT expression.

        concrete forces finite con/disjunctions for quantifiers regardless
        of mode; it is used inside term conditionals, whose polarity is
        unknown, and is the regular behavior of expand-all.
        """
        if isinstance(f, TrueF):
            return 'true'
        if isinstance(f, FalseF):
            return 'false'
        if isinstance(f, Atom):
            le, lt = self.lower_t(f.lhs, env, uvars)
            re_, rt = self.lower_t(f.rhs, env, uvars)
            w = max(sort_width(lt), sort_width(rt))
            op = {'=': '=', '<': 'bvult', '<=': 'bvule'}[f.rel]
            return (op, zx(le, sort_width(lt), w), zx(re_, sort_width(rt), w))
        if isinstance(f, Not):
            return ('not', self.lower_f(f.body, env, uvars, concrete))
        if isinstance(f, (And, Or, Implies, Iff)):
            op = {And: 'and', Or: 'or', Implies: '=>', Iff: '='}[type(f)]
            return (op, self.lower_f(f.lhs, env, uvars, concrete),
                    self.lower_f(f.rhs, env, uvars, concrete))
        if isinstance(f, QUANTIFIERS):
            return self.lower_quant(f, env, uvars, concrete)
        raise AssertionError('unhandled formula %r' % f)

    def lower_quant(self, f, env, uvars, concrete):
        self.tmap[f.var] = f.ty
        size = f.ty.size()
        if size == 1:
            env2 = dict(env)
            env2[f.var] = ('val', f.ty.value_at(0), f.ty)
            return self.lower_f(f.body, env2, uvars, concrete)

        if self.opts.mode == 'preserve' and not concrete:
            sym = smt_sym(f.var)
            w = sort_width(f.ty)
            env2 = dict(env)
            env2[f.var] = ('expr', sym, f.ty)
            body = self.lower_f(f.body, env2, uvars)
            if not predicate_trivial(f.ty):
                guard = ('bvule', sym, bv_lit(f.ty.bound, w))
                body = ('=>' if isinstance(f, Forall) else 'and', guard, body)
            head = 'forall' if isinstance(f, Forall) else 'exists'
            return (head, ((sym, ('_', 'BitVec', str(w))),), body)

        expand = (isinstance(f, Forall) or concrete
                  or self.opts.mode == 'expand-all')
        if not expand:
            expand = self._skolem_decision(f, uvars)[0] == 'expand'
        if expand:
            # Skolem witnesses below must vary with each expanded universal;
            # expanded existentials need no argument since only one of their
            # disjuncts has to hold.
            uv2 = uvars + [f.var] if isinstance(f, Forall) else uvars
            parts = []
            for i in range(size):
                self._bump(f.var)
                env2 = dict(env)
                env2[f.var] = ('val', f.ty.value_at(i), f.ty)
                parts.append(self.lower_f(f.body, env2, uv2, concrete))
            return (('and',) if isinstance(f, Forall) else ('or',)) + tuple(parts)

        # Skolemize: the witness becomes a function of the enclosing
        # expanded universals, applied to their current values.
        name = self._skolem_decision(f, uvars)[1]
        arg_tys, rty = self.symtab[name]
        vals = tuple(env[u][1] for u in uvars)
        args = [bv_lit(v, sort_width(t)) for v, t in zip(vals, arg_tys)]
        app = (name,) + tuple(args) if args else name
        key = (name, vals)
        if key not in self.range_done:
            self.range_done.add(key)
            if predicate_trivial(f.ty):
                rng = 'true'
            else:
                rng = ('bvule', app, bv_lit(f.ty.bound, sort_width(f.ty)))
            self.asserts['skolem-range-axiom'].append(rng)
        env2 = dict(env)
        env2[f.var] = ('expr', app, f.ty)
        return self.lower_f(f.body, env2, uvars)

    def _skolem_decision(self, f, uvars):
        dec = self.sk_memo.get(id(f))
        if dec is not None:
            return dec
        tuples = 1
        for u in uvars:
            tuples *= self.tmap[u].size()
        nontrivial = 0 if predicate_trivial(f.ty) else tuples
        if nontrivial > self.opts.heuristic_factor * f.ty.size():
            dec = ('expand', None)
        else:
            name = self.fresh('_sk')
            self.symtab[name] = ([self.tmap[u] for u in uvars], f.ty)
            self.stats.skolem_symbols.append((name, len(uvars)))
            dec = ('skolem', name)
        self.sk_memo[id(f)] = dec
        return dec

    # -- terms ----------------------------------------------------------------

    def lower_t(self, t, env, uvars):
        if isinstance(t, Var):
            kind, v, ty = env[t.name]
            if kind == 'val':
                return bv_lit(v, sort_width(ty)), ty
            return v, ty
        if isinstance(t, Lit):
            ty = BOOL if isinstance(t.value, bool) else FiniteType('nat', t.value)
            return bv_lit(t.value, sort_width(ty)), ty
        if isinstance(t, (Add, Mul)):
            le, lt = self.lower_t(t.lhs, env, uvars)
            re_, rt = self.lower_t(t.rhs, env, uvars)
            if isinstance(t, Add):
                ty = FiniteType('nat', lt.bound + rt.bound)
                op = 'bvadd'
            else:
                ty = FiniteType('nat', lt.bound * rt.bound)
                op = 'bvmul'
            w = sort_width(ty)
            return (op, zx(le, sort_width(lt), w),
                    zx(re_, sort_width(rt), w)), ty
        if isinstance(t, AddConst):
            le, lt = self.lower_t(t.lhs, env, uvars)
            ty = FiniteType('nat', lt.bound + t.const)
            w = sort_width(ty)
            return ('bvadd', zx(le, sort_width(lt), w),
                    bv_lit(t.const, w)), ty
        if isinstance(t, Ite):
            cond = self.lower_f(t.cond, env, uvars, concrete=True)
            te, tt = self.lower_t(t.then, env, uvars)
            ee, et = self.lower_t(t.els, env, uvars)
            if tt.kind == 'bool':
                return ('ite', cond, te, ee), BOOL
            ty = FiniteType('nat', max(tt.bound, et.bound))
            w = sort_width(ty)
            return ('ite', cond, zx(te, sort_width(tt), w),
                    zx(ee, sort_width(et), w)), ty
        if isinstance(t, Apply):
            if t.func in self.symtab:
                arg_tys, rty = self.symtab[t.func]
            else:
                fd = self.funcs[t.func]
                self._ensure_define(t.func)
                arg_tys = [ty for _, ty in fd.params]
                rty = fd.result
            parts = []
            for a, pty in zip(t.args, arg_tys):
                ae, at = self.lower_t(a, env, uvars)
                parts.append(zx(ae, sort_width(at), sort_width(pty)))
            name = smt_sym(t.func)
            app = (name,) + tuple(parts) if parts else name
            return app, rty
        raise AssertionError('choices must be axiomatized before lowering: %r'
                             % t)

    def _ensure_define(self, name):
        if name in self._defined:
            return
        self._defined.add(name)
        fd = self.funcs[name]
        env = {p: ('expr', smt_sym(p), ty) for p, ty in fd.params}
        body_expr, bty = self.lower_t(fd.body, env, [])
        body_expr = zx(body_expr, sort_width(bty), sort_width(fd.result))
        self.defines.append((smt_sym(name),
                             [(smt_sym(p), sort_width(ty))
                              for p, ty in fd.params],
                             sort_width(fd.result), body_expr))

    # -- entry point ------------------------------------------------------------

    def run(self, goal: Formula) -> SmtScript:
        self.note_names(goal)
        for fd in self.funcs.values():
            self.note_names(fd.body if fd.body is not None else fd.ensures)

        f = goal
        if self.opts.eliminate_choices:
            f = eliminate_choices(f, self.funcs)
        neg = rename_apart(negate_goal(f))
        self.note_names(neg)

        queue = []
        neg = self.axiomatize(neg, queue)
        self.top(neg, {}, [], 'negated-goal')
        while queue:
            ax, tag = queue.pop(0)
            ax = rename_apart(to_nnf(ax))
            ax = self.axiomatize(ax, queue)
            self.top(ax, {}, [], tag)

        st = self.stats
        st.goal_conjuncts = len(self.asserts['negated-goal'])
        st.skolem_range_conjuncts = len(self.asserts['skolem-range-axiom'])
        st.choose_axiom_conjuncts = len(self.asserts['choose-axiom'])
        st.type_constraint_conjuncts = len(self.asserts['type-constraint'])
        st.expanded_instances = self.instances
        st.estimate_skolem, st.estimate_expansion = estimate_costs(goal)

        opts = self.opts
        header = ['mode: %s  heuristic-factor: %g  eliminate-choices: %s'
                  '  inline-definitions: %s'
                  % (opts.mode, opts.heuristic_factor,
                     'on' if opts.eliminate_choices else 'off',
                     'on' if opts.inline_definitions else 'off')]
        if opts.goal_name:
            header.append('goal: %s' % opts.goal_name)
        decls = [(smt_sym(n), [sort_width(t) for t in tys], sort_width(r))
                 for n, (tys, r) in self.symtab.items()]
        logic = 'UFBV' if opts.mode == 'preserve' else 'QF_UFBV'
        return SmtScript(logic=logic, header=header, defines=self.defines,
                         decls=decls, asserts=self.asserts, stats=st)


def translate(goal: Formula, funcs=None, opts=None) -> SmtScript:
    """Translate a closed goal; callers map sat -> invalid, unsat -> valid."""
    return Translator(funcs, opts).run(goal)


# ---------------------------------------------------------------------------
# emission


def _sx(e) -> str:
    if isinstance(e, str):
        return e
    return '(%s)' % ' '.join(_sx(x) for x in e)


def _sort(width: int):
    return ('_', 'BitVec', str(width))


def emit_smtlib(script: SmtScript) -> str:
    lines = ['(set-logic %s)' % script.logic]
    lines += ['; ' + h for h in script.header]
    for name, params, rw, body in script.defines:
        ps = ' '.join('(%s %s)' % (p, _sx(_sort(w))) for p, w in params)
        lines.append('(define-fun %s (%s) %s %s)'
                     % (name, ps, _sx(_sort(rw)), _sx(body)))
    for name, argws, rw in script.decls:
        lines.append('(declare-fun %s (%s) %s)'
                     % (name, ' '.join(_sx(_sort(w)) for w in argws),
                        _sx(_sort(rw))))
    for tag in TAGS:
        for e in script.asserts[tag]:
            lines.append('(assert %s) ; %s' % (_sx(e), tag))
    lines.append('(check-sat)')
    return '\n'.join(lines) + '\n'
