"""Types, terms, formulas and models for first-order logic over finite domains.

Every type denotes a small finite carrier: nat[b] is {0, ..., b} and bool is
{false, true}. Values are plain Python ints and bools.

The readers walk and free_vars keep their nodes on an explicit stack. The
rewrites (subst, resolve_node, the translator's passes) recurse through
_rebuild, which passes each subnode and the pass's context straight to the
pass, two frames per nesting level: rewrites on an explicit stack measured
slower per pass (ROADMAP item 8).
"""

from dataclasses import dataclass, field, fields
from typing import Iterator, Optional, Union


class FdlError(Exception):
    """Base class for user-visible errors."""


class TypeError_(FdlError):
    """A formula or model failed to typecheck."""


class EvalError(FdlError):
    """Evaluation could not produce a value (e.g. no admissible choice)."""


# ---------------------------------------------------------------------------
# types


@dataclass(frozen=True)
class FiniteType:
    """A finite carrier: kind is 'nat' (carrier {0..bound}) or 'bool'."""

    kind: str
    bound: int = 0

    def __post_init__(self):
        assert self.kind in ('nat', 'bool')
        assert self.bound >= 0

    def size(self) -> int:
        return 2 if self.kind == 'bool' else self.bound + 1

    def bit_width(self) -> int:
        """Bits needed to encode the carrier; 0 for singletons."""
        return (self.size() - 1).bit_length()

    def value_at(self, i: int):
        """The i-th carrier element in enumeration order."""
        if self.kind == 'bool':
            return bool(i)
        return i

    def contains(self, v) -> bool:
        if self.kind == 'bool':
            return isinstance(v, bool)
        return isinstance(v, int) and not isinstance(v, bool) and 0 <= v <= self.bound

    def __str__(self):
        return 'bool' if self.kind == 'bool' else 'nat[%d]' % self.bound


BOOL = FiniteType('bool')


def nat(bound: int) -> FiniteType:
    return FiniteType('nat', bound)


def enumerate_domain(ty: FiniteType) -> Iterator:
    """Yield the carrier lazily in ascending order (false before true)."""
    for i in range(ty.size()):
        yield ty.value_at(i)


# ---------------------------------------------------------------------------
# unresolved type expressions (as written in source, before parameters are known)


@dataclass
class TypeExpr:
    """A type as written: a name, bool, or nat[e] with a bound expression.

    Bound expressions are tuples: ('num', k), ('var', name), or
    (op, lhs, rhs) with op in '+', '-', '*', '^'.
    """

    kind: str  # 'name' | 'bool' | 'nat'
    name: str = ''
    bound_expr: Optional[tuple] = None


def eval_bound(expr: tuple, params: dict) -> int:
    op = expr[0]
    if op == 'num':
        return expr[1]
    if op == 'var':
        if expr[1] not in params:
            raise TypeError_('unknown parameter %r in type bound' % expr[1])
        return params[expr[1]]
    a = eval_bound(expr[1], params)
    b = eval_bound(expr[2], params)
    if op == '+':
        return a + b
    if op == '-':
        return a - b
    if op == '*':
        return a * b
    if op == '^':
        return a ** b
    raise TypeError_('bad bound expression %r' % (expr,))


TypeRef = Union[FiniteType, TypeExpr]


# ---------------------------------------------------------------------------
# terms and formulas

Pos = Optional[tuple]  # (line, col), 1-based


@dataclass
class Term:
    pass


@dataclass
class Var(Term):
    name: str
    pos: Pos = field(default=None, compare=False, repr=False)


@dataclass
class Lit(Term):
    value: int  # int or bool
    pos: Pos = field(default=None, compare=False, repr=False)


@dataclass
class Add(Term):
    lhs: Term
    rhs: Term
    pos: Pos = field(default=None, compare=False, repr=False)


@dataclass
class AddConst(Term):
    """t + k with a literal k; kept distinct so result bounds stay tight."""

    lhs: Term
    const: int
    pos: Pos = field(default=None, compare=False, repr=False)


@dataclass
class Mul(Term):
    lhs: Term
    rhs: Term
    pos: Pos = field(default=None, compare=False, repr=False)


@dataclass
class Ite(Term):
    cond: 'Formula'
    then: Term
    els: Term
    pos: Pos = field(default=None, compare=False, repr=False)


@dataclass
class Choose(Term):
    """choose x:ty with body - some carrier element satisfying body."""

    var: str
    ty: TypeRef
    body: 'Formula'
    pos: Pos = field(default=None, compare=False, repr=False)


@dataclass
class Apply(Term):
    func: str
    args: list
    pos: Pos = field(default=None, compare=False, repr=False)


@dataclass
class Formula:
    pass


@dataclass
class TrueF(Formula):
    pos: Pos = field(default=None, compare=False, repr=False)


@dataclass
class FalseF(Formula):
    pos: Pos = field(default=None, compare=False, repr=False)


@dataclass
class Atom(Formula):
    """rel is '=', '<' or '<='; > and >= are parsed as flipped atoms."""

    rel: str
    lhs: Term
    rhs: Term
    pos: Pos = field(default=None, compare=False, repr=False)


@dataclass
class Not(Formula):
    body: Formula
    pos: Pos = field(default=None, compare=False, repr=False)


@dataclass
class And(Formula):
    lhs: Formula
    rhs: Formula
    pos: Pos = field(default=None, compare=False, repr=False)


@dataclass
class Or(Formula):
    lhs: Formula
    rhs: Formula
    pos: Pos = field(default=None, compare=False, repr=False)


@dataclass
class Implies(Formula):
    lhs: Formula
    rhs: Formula
    pos: Pos = field(default=None, compare=False, repr=False)


@dataclass
class Iff(Formula):
    lhs: Formula
    rhs: Formula
    pos: Pos = field(default=None, compare=False, repr=False)


@dataclass
class Forall(Formula):
    var: str
    ty: TypeRef
    body: Formula
    pos: Pos = field(default=None, compare=False, repr=False)


@dataclass
class Exists(Formula):
    var: str
    ty: TypeRef
    body: Formula
    pos: Pos = field(default=None, compare=False, repr=False)


QUANTIFIERS = (Forall, Exists)
BINDERS = (Forall, Exists, Choose)


# ---------------------------------------------------------------------------
# declarations and models


@dataclass
class FuncDecl:
    """An n-ary function, either defined by a term or specified by a contract.

    Exactly one of body (definition) and ensures (contract) is set. Inside
    ensures, the parameters and the distinguished variable 'result' are bound.
    """

    name: str
    params: list  # list of (name, TypeRef)
    result: TypeRef
    body: Optional[Term] = None
    ensures: Optional[Formula] = None
    pos: Pos = field(default=None, compare=False, repr=False)

    def is_contract(self) -> bool:
        return self.ensures is not None


@dataclass
class Model:
    """Parameters, named types, functions and named closed goals."""

    params: dict = field(default_factory=dict)  # name -> default value or None
    types: dict = field(default_factory=dict)  # name -> TypeRef
    funcs: dict = field(default_factory=dict)  # name -> FuncDecl
    theorems: dict = field(default_factory=dict)  # name -> Formula


@dataclass
class Diagnostic:
    message: str
    pos: Pos = None

    def __str__(self):
        if self.pos:
            return 'line %d col %d: %s' % (self.pos[0], self.pos[1], self.message)
        return self.message


# ---------------------------------------------------------------------------
# generic traversal helpers


# fields that hold names, types or constants, never subnodes
_LEAF_FIELDS = {'pos', 'ty', 'var', 'func', 'name', 'rel', 'value', 'const'}
# node class -> (its field names, the names of its fields that hold subnodes),
# computed once so that no visit calls dataclasses.fields
_LAYOUT = {cls: (tuple(f.name for f in fields(cls)),
                 tuple(f.name for f in fields(cls) if f.name not in _LEAF_FIELDS))
           for base in (Term, Formula) for cls in base.__subclasses__()}


def _children(node):
    for name in _LAYOUT[type(node)][1]:
        v = getattr(node, name)
        if isinstance(v, list):
            yield from v
        else:
            yield v


def walk(node):
    """Yield node and all descendants, preorder."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        # children pushed last first, so that they come out in order
        for name in reversed(_LAYOUT[type(node)][1]):
            v = getattr(node, name)
            if isinstance(v, list):
                stack += reversed(v)
            else:
                stack.append(v)


def free_vars(node) -> set:
    out, stack = set(), [(node, frozenset())]
    while stack:
        node, bound = stack.pop()
        if isinstance(node, Var):
            if node.name not in bound:
                out.add(node.name)
            continue
        if isinstance(node, BINDERS):
            bound = bound | {node.var}
        for c in _children(node):
            stack.append((c, bound))
    return out


def has_choose(node, nondet=frozenset()) -> bool:
    """True when node contains a choose or applies a function in nondet."""
    return any(isinstance(n, Choose) or (isinstance(n, Apply) and n.func in nondet)
               for n in walk(node))


def applies_in(node) -> list:
    return [n for n in walk(node) if isinstance(n, Apply)]


def nondeterministic_funcs(funcs: dict, pinned=None) -> frozenset:
    """Names of the functions whose applications can take more than one
    value: every contract, and every definition whose body contains a choose
    or applies a function already in the set (computed as a fixpoint).
    pinned maps contracts to the term that fixes their result: such a
    contract joins the set only as a definition with that body would."""
    pinned = pinned or {}
    out = {name for name, fd in funcs.items()
           if fd.is_contract() and name not in pinned}
    while True:
        more = {name for name, fd in funcs.items()
                if name not in out and has_choose(pinned.get(name, fd.body),
                                                  out)}
        if not more:
            return frozenset(out)
        out |= more


def definitional_funcs(funcs: dict) -> dict:
    """funcs with every functional contract replaced by the definition it
    amounts to; every other entry is the same object.

    A contract is functional when its ensures is result = t or t = result,
    result is not free in t, t's type fits the result type (so every
    argument has exactly one result) and t is deterministic: no choose, and
    no application of a function that is still nondeterministic once the
    functional contracts are definitions (the fixpoint of
    nondeterministic_funcs, so one such contract may apply another)."""
    pinned = {}
    for name, fd in funcs.items():
        if fd.is_contract():
            t = _pinned_term(fd, funcs)
            if t is not None:
                pinned[name] = t
    if pinned:
        nondet = nondeterministic_funcs(funcs, pinned)
        pinned = {n: t for n, t in pinned.items() if n not in nondet}
    if not pinned:
        return funcs
    return {name: FuncDecl(name, fd.params, fd.result, body=pinned[name],
                           pos=fd.pos) if name in pinned else fd
            for name, fd in funcs.items()}


def _pinned_term(fd: FuncDecl, funcs: dict):
    """t when fd's ensures is result = t or t = result, result is not free
    in t and t's type is a nat type that fits the result's; else None.
    Whether t is deterministic is left to the fixpoint."""
    f = fd.ensures
    if not (isinstance(f, Atom) and f.rel == '=') or fd.result.kind != 'nat':
        return None
    if isinstance(f.lhs, Var) and f.lhs.name == 'result':
        t = f.rhs
    elif isinstance(f.rhs, Var) and f.rhs.name == 'result':
        t = f.lhs
    else:
        return None
    if 'result' in free_vars(t):
        return None
    tc = TypeChecker(funcs)
    ty = tc.check_term(t, dict(fd.params))
    if tc.diags or ty is None or ty.kind != 'nat' or ty.bound > fd.result.bound:
        return None
    return t


def binders(node) -> list:
    """The names of node's binders, in pre-order."""
    return [n.var for n in walk(node) if isinstance(n, BINDERS)]


def apart(names, used: set, free=()) -> list:
    """names, each with primes appended until it is in neither used nor
    free; each joins used in turn."""
    out = []
    for name in names:
        while name in used or name in free:
            name += "'"
        used.add(name)
        out.append(name)
    return out


def subst(node, mapping: dict, used: Optional[set] = None, names=None):
    """node with free variables replaced by their terms in mapping, and its
    binders named by the iterator names in pre-order, or apart(binders(node),
    used, free_vars(node)), or else kept (then they must not capture the
    terms). A node that nothing changes is returned as it is."""
    if used is not None:
        names = iter(apart(binders(node), used, free_vars(node)))
    return _subst(node, (mapping, names))


def enter_binder(var: str, mapping: dict, names):
    """(the name of a binder of var: the next of the iterator names, or var
    without names; the mapping for the binder's body)."""
    name = var if names is None else next(names)
    if name != var or var in mapping:
        mapping = {**mapping, var: Var(name)}
    return name, mapping


def _subst(node, ctx):
    mapping, names = ctx
    if not mapping and names is None:
        return node
    if isinstance(node, Var):
        return mapping.get(node.name, node)
    if not isinstance(node, BINDERS):
        return _rebuild(node, _subst, ctx)
    name, inner = enter_binder(node.var, mapping, names)
    body = _subst(node.body, (inner, names))
    if name == node.var and body is node.body:
        return node
    return type(node)(name, node.ty, body, pos=node.pos)


def _rebuild(node, fn, ctx):
    """node with fn(subnode, ctx) for each subnode; node itself when fn
    changes none of them."""
    names, kids = _LAYOUT[type(node)]
    new = {}
    changed = False
    for name in kids:
        v = getattr(node, name)
        if isinstance(v, list):
            nv = [fn(x, ctx) for x in v]
            changed = changed or any(a is not b for a, b in zip(v, nv))
        else:
            nv = fn(v, ctx)
            changed = changed or nv is not v
        new[name] = nv
    if not changed:
        return node
    return type(node)(*[new[n] if n in new else getattr(node, n)
                        for n in names])


# ---------------------------------------------------------------------------
# type resolution (source type references -> concrete finite types)


def resolve_type(ref: TypeRef, types: dict, params: dict) -> FiniteType:
    if isinstance(ref, FiniteType):
        return ref
    if ref.kind == 'bool':
        return BOOL
    if ref.kind == 'nat':
        b = eval_bound(ref.bound_expr, params)
        if b < 0:
            raise TypeError_('negative type bound %d' % b)
        return nat(b)
    if ref.name not in types:
        raise TypeError_('unknown type %r' % ref.name)
    return resolve_type(types[ref.name], types, params)


def resolve_node(node, env: tuple):
    """node with every binder's type resolved; env is (types, params)."""
    if isinstance(node, BINDERS):
        return type(node)(node.var, resolve_type(node.ty, *env),
                          resolve_node(node.body, env), pos=node.pos)
    return _rebuild(node, resolve_node, env)


def resolve_model(m: Model, overrides: Optional[dict] = None) -> Model:
    """Fix all parameters and replace every type reference by a FiniteType.

    Parameters without a default must be given in overrides.
    """
    params = {}
    for name, default in m.params.items():
        if overrides and name in overrides:
            params[name] = overrides[name]
        elif default is not None:
            params[name] = default
        else:
            raise TypeError_('parameter %r has no value' % name)
    if overrides:
        for name in overrides:
            if name not in m.params:
                raise TypeError_('unknown parameter %r' % name)
    out = Model(params=dict(params))
    env = (m.types, params)
    for name, ref in m.types.items():
        out.types[name] = resolve_type(ref, m.types, params)
    for name, fd in m.funcs.items():
        out.funcs[name] = FuncDecl(
            name=fd.name,
            params=[(p, resolve_type(t, m.types, params)) for p, t in fd.params],
            result=resolve_type(fd.result, m.types, params),
            body=resolve_node(fd.body, env) if fd.body is not None else None,
            ensures=resolve_node(fd.ensures, env)
            if fd.ensures is not None else None,
            pos=fd.pos)
    for name, f in m.theorems.items():
        out.theorems[name] = resolve_node(f, env)
    return out


# ---------------------------------------------------------------------------
# typechecking


class TypeChecker:
    """Annotates terms (attribute 'ty') and collects diagnostics.

    All types must already be resolved. Result bounds widen so that a
    well-typed term can always be evaluated: nat[a] + nat[b] : nat[a+b],
    nat[a] * nat[b] : nat[a*b], literal k : nat[k].
    """

    def __init__(self, funcs: Optional[dict] = None):
        self.funcs = funcs or {}
        self.diags = []

    def error(self, msg, pos=None):
        self.diags.append(Diagnostic(msg, pos))
        return None

    def check_term(self, t: Term, env: dict) -> Optional[FiniteType]:
        ty = self._term(t, env)
        t.ty = ty
        return ty

    def _term(self, t, env):
        if isinstance(t, Var):
            if t.name not in env:
                return self.error('unbound variable %r' % t.name, t.pos)
            return env[t.name]
        if isinstance(t, Lit):
            if isinstance(t.value, bool):
                return BOOL
            if t.value < 0:
                return self.error('negative literal %d' % t.value, t.pos)
            return nat(t.value)
        if isinstance(t, (Add, Mul)):
            a = self.check_term(t.lhs, env)
            b = self.check_term(t.rhs, env)
            if a is None or b is None:
                return None
            if a.kind != 'nat' or b.kind != 'nat':
                return self.error('arithmetic on non-numeric operands', t.pos)
            if isinstance(t, Add):
                return nat(a.bound + b.bound)
            return nat(a.bound * b.bound)
        if isinstance(t, AddConst):
            a = self.check_term(t.lhs, env)
            if a is None:
                return None
            if a.kind != 'nat' or isinstance(t.const, bool) or t.const < 0:
                return self.error('arithmetic on non-numeric operands', t.pos)
            return nat(a.bound + t.const)
        if isinstance(t, Ite):
            self.check_formula(t.cond, env)
            a = self.check_term(t.then, env)
            b = self.check_term(t.els, env)
            if a is None or b is None:
                return None
            if a.kind != b.kind:
                return self.error('conditional branches have different kinds', t.pos)
            if a.kind == 'bool':
                return BOOL
            return nat(max(a.bound, b.bound))
        if isinstance(t, Choose):
            if not isinstance(t.ty, FiniteType):
                return self.error('unresolved type in choose', t.pos)
            inner = dict(env)
            inner[t.var] = t.ty
            self.check_formula(t.body, inner)
            return t.ty
        if isinstance(t, Apply):
            fd = self.funcs.get(t.func)
            if fd is None:
                return self.error('unknown function %r' % t.func, t.pos)
            if len(t.args) != len(fd.params):
                return self.error('%s expects %d arguments, got %d'
                                  % (t.func, len(fd.params), len(t.args)), t.pos)
            for arg, (pname, pty) in zip(t.args, fd.params):
                aty = self.check_term(arg, env)
                if aty is None:
                    continue
                if not self._fits(aty, pty):
                    self.error('argument %r of %s: %s does not fit %s'
                               % (pname, t.func, aty, pty), arg.pos or t.pos)
            return fd.result
        raise AssertionError('unhandled term %r' % t)

    @staticmethod
    def _fits(src: FiniteType, dst: FiniteType) -> bool:
        if src.kind != dst.kind:
            return False
        return src.kind == 'bool' or src.bound <= dst.bound

    def check_formula(self, f: Formula, env: dict):
        if isinstance(f, (TrueF, FalseF)):
            return
        if isinstance(f, Atom):
            a = self.check_term(f.lhs, env)
            b = self.check_term(f.rhs, env)
            if a is not None and b is not None and a.kind != b.kind:
                self.error('comparison between %s and %s' % (a, b), f.pos)
            if f.rel in ('<', '<=') and a is not None and a.kind == 'bool':
                self.error('ordering on booleans', f.pos)
            return
        if isinstance(f, Not):
            return self.check_formula(f.body, env)
        if isinstance(f, (And, Or, Implies, Iff)):
            self.check_formula(f.lhs, env)
            self.check_formula(f.rhs, env)
            return
        if isinstance(f, QUANTIFIERS):
            if not isinstance(f.ty, FiniteType):
                self.error('unresolved type in quantifier', f.pos)
                return
            inner = dict(env)
            inner[f.var] = f.ty
            return self.check_formula(f.body, inner)
        raise AssertionError('unhandled formula %r' % f)


def typecheck_formula(f: Formula, env: dict, funcs: Optional[dict] = None) -> list:
    """Typecheck a formula; returns diagnostics (empty when well-typed)."""
    tc = TypeChecker(funcs)
    tc.check_formula(f, dict(env))
    return tc.diags


def typecheck_model(m: Model) -> list:
    """Typecheck a resolved model: every function and theorem, plus a cycle
    check over the function reference graph (definitions and contracts)."""
    tc = TypeChecker(m.funcs)
    for fd in m.funcs.values():
        env = dict(fd.params)
        if fd.body is not None:
            bty = tc.check_term(fd.body, env)
            if bty is not None and not tc._fits(bty, fd.result):
                tc.error('body of %s has type %s, declared %s'
                         % (fd.name, bty, fd.result), fd.pos)
        if fd.ensures is not None:
            env['result'] = fd.result
            tc.check_formula(fd.ensures, env)
    for name, f in m.theorems.items():
        fv = free_vars(f)
        if fv:
            tc.error('goal %r has free variables %s' % (name, sorted(fv)))
        tc.check_formula(f, {})
    tc.diags.extend(_check_cycles(m.funcs))
    return tc.diags


def _check_cycles(funcs: dict) -> list:
    refs = {}
    for name, fd in funcs.items():
        body = fd.body if fd.body is not None else fd.ensures
        refs[name] = {a.func for a in applies_in(body) if a.func in funcs}
    diags = []
    state = {}  # name -> 1 visiting, 2 done

    def visit(n, path):
        if state.get(n) == 2:
            return
        if state.get(n) == 1:
            cyc = path[path.index(n):] + [n]
            diags.append(Diagnostic('recursive functions: %s' % ' -> '.join(cyc),
                                    funcs[n].pos))
            return
        state[n] = 1
        for r in sorted(refs[n]):
            visit(r, path + [n])
        state[n] = 2

    for n in funcs:
        visit(n, [])
    return diags
