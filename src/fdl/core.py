"""Types, terms, formulas and models for first-order logic over finite domains.

Every type denotes a small finite carrier: nat[b] is {0, ..., b} and bool is
{false, true}. Values are plain Python ints and bools.

The readers walk and free_vars keep their nodes on an explicit stack. The
rewrites (subst, resolve_node, the translator's passes) recurse through
_rebuild, which passes each subnode and the pass's context straight to the
pass, two frames per nesting level: rewrites on an explicit stack measured
slower per pass (ROADMAP item 8).

Records are declared so that importing this module compiles no method from
source. The node classes (Term, Formula and their subclasses) stay
dataclasses, because perfbench rebuilds goals through dataclasses.fields,
but @record asks for no generated method: each class writes its
constructor, or shares one with the classes of its field layout, and takes
== and repr from Record. Every other record (FuncDecl, Model, TypeExpr,
FiniteType, ...) is a plain Record subclass that lists its fields in
__match_args__; FiniteType blocks assignment itself and hashes by kind and
bound. Nothing writes to a node once it is built: the typechecker returns
a term's type and annotates nothing.
"""

import operator
from dataclasses import dataclass, fields
from typing import Iterator, Optional, Union


# The translator's quantifier modes (translate.MODES), kept here so that the
# command line offers them without importing the translator.
TRANSLATE_MODES = ('eliminate', 'preserve', 'expand-all')


class FdlError(Exception):
    """Base class for user-visible errors."""


class TypeError_(FdlError):
    """A formula or model failed to typecheck."""


class EvalError(FdlError):
    """Evaluation could not produce a value (e.g. no admissible choice)."""


# ---------------------------------------------------------------------------
# records


class Record:
    """Base of fdl's records: == holds between records of one class whose
    fields other than pos are equal, and repr shows those fields. The fields
    are __match_args__, which @dataclass sets and a plain record lists. A
    record is unhashable unless its class defines __hash__."""

    def _values(self):
        return [getattr(self, n) for n in self.__match_args__ if n != 'pos']

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        return '%s(%s)' % (type(self).__qualname__, ', '.join(
            '%s=%r' % (n, getattr(self, n))
            for n in self.__match_args__ if n != 'pos'))


# Declares a dataclass with no generated method: its constructor is written
# by hand, and == and repr come from Record. A class declared so needs a
# docstring, or @dataclass computes one from its signature.
record = dataclass(init=False, repr=False, eq=False)


# ---------------------------------------------------------------------------
# types


class FiniteType(Record):
    """A finite carrier: kind is 'nat' (carrier {0..bound}) or 'bool'.

    Its size and the width of its bit-vector sort (width) are computed
    once, at construction, and nat() interns the nat types, so each
    distinct bound is constructed once per process. Equality and hashing
    read kind and bound only, and no attribute can be set or deleted."""

    __match_args__ = ('kind', 'bound')

    def __init__(self, kind, bound=0):
        assert kind in ('nat', 'bool')
        assert bound >= 0
        size = 2 if kind == 'bool' else bound + 1
        vars(self).update(kind=kind, bound=bound, _size=size,
                          width=max(1, (size - 1).bit_length()))

    def __setattr__(self, name, *value):
        raise AttributeError('cannot change %r of a FiniteType' % name)

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.kind == other.kind and self.bound == other.bound

    def __hash__(self):
        return hash((self.kind, self.bound))

    def size(self) -> int:
        return self._size

    def value_at(self, i: int):
        """The i-th carrier element in enumeration order."""
        if self.kind == 'bool':
            return bool(i)
        return i

    def __str__(self):
        return 'bool' if self.kind == 'bool' else 'nat[%d]' % self.bound


BOOL = FiniteType('bool')
_NATS = {}  # bound -> its interned nat type


def nat(bound: int) -> FiniteType:
    ty = _NATS.get(bound)
    if ty is None:
        ty = _NATS[bound] = FiniteType('nat', bound)
    return ty


def enumerate_domain(ty: FiniteType) -> Iterator:
    """Yield the carrier lazily in ascending order (false before true)."""
    for i in range(ty.size()):
        yield ty.value_at(i)


# ---------------------------------------------------------------------------
# unresolved type expressions (as written in source, before parameters are known)


class TypeExpr(Record):
    """A type as written: a name, bool, or nat[e] with a bound expression.

    kind is 'name', 'bool' or 'nat'. Bound expressions are tuples:
    ('num', k), ('var', name), or (op, lhs, rhs) with op in '+', '-', '*',
    '^'.
    """

    __match_args__ = ('kind', 'name', 'bound_expr')

    def __init__(self, kind, name='', bound_expr=None):
        self.kind, self.name, self.bound_expr = kind, name, bound_expr


_BOUND_OPS = {'+': operator.add, '-': operator.sub, '*': operator.mul,
              '^': operator.pow}


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
    if op not in _BOUND_OPS:
        raise TypeError_('bad bound expression %r' % (expr,))
    if op == '^' and b < 0:
        raise TypeError_('negative exponent %d in type bound' % b)
    return _BOUND_OPS[op](a, b)


TypeRef = Union[FiniteType, TypeExpr]


# ---------------------------------------------------------------------------
# terms and formulas

Pos = Optional[tuple]  # (line, col), 1-based


# the constructors that node classes share, one per field layout; four
# fields are set one by one, since assigning four at once builds a tuple
def _binary(self, lhs, rhs, pos=None):
    self.lhs, self.rhs, self.pos = lhs, rhs, pos


def _binder(self, var, ty, body, pos=None):
    self.var = var
    self.ty = ty
    self.body = body
    self.pos = pos


def _constant(self, pos=None):
    self.pos = pos


@record
class Term(Record):
    """A term: its value is a carrier element."""


@record
class Var(Term):
    """A variable."""
    name: str
    pos: Pos = None

    def __init__(self, name, pos=None):
        self.name, self.pos = name, pos


@record
class Lit(Term):
    """A literal."""
    value: int  # int or bool
    pos: Pos = None

    def __init__(self, value, pos=None):
        self.value, self.pos = value, pos


@record
class Add(Term):
    """lhs + rhs. A literal k is a Lit like any other operand: x + k is
    Add(x, Lit(k)), of type nat[bound(x) + k], since k's type is nat[k]."""
    lhs: Term
    rhs: Term
    pos: Pos = None
    __init__ = _binary


@record
class Mul(Term):
    """lhs * rhs"""
    lhs: Term
    rhs: Term
    pos: Pos = None
    __init__ = _binary


@record
class Ite(Term):
    """if cond then then else els"""
    cond: 'Formula'
    then: Term
    els: Term
    pos: Pos = None

    def __init__(self, cond, then, els, pos=None):
        self.cond = cond
        self.then = then
        self.els = els
        self.pos = pos


@record
class Choose(Term):
    """choose x:ty with body - some carrier element satisfying body."""
    var: str
    ty: TypeRef
    body: 'Formula'
    pos: Pos = None
    __init__ = _binder


@record
class Apply(Term):
    """func(args...)"""
    func: str
    args: list
    pos: Pos = None

    def __init__(self, func, args, pos=None):
        self.func, self.args, self.pos = func, args, pos


@record
class Formula(Record):
    """A formula: its value is a bool."""


@record
class TrueF(Formula):
    """true"""
    pos: Pos = None
    __init__ = _constant


@record
class FalseF(Formula):
    """false"""
    pos: Pos = None
    __init__ = _constant


@record
class Atom(Formula):
    """rel is '=', '<' or '<='; > and >= are parsed as flipped atoms."""
    rel: str
    lhs: Term
    rhs: Term
    pos: Pos = None

    def __init__(self, rel, lhs, rhs, pos=None):
        self.rel = rel
        self.lhs = lhs
        self.rhs = rhs
        self.pos = pos


@record
class Not(Formula):
    """!body"""
    body: Formula
    pos: Pos = None

    def __init__(self, body, pos=None):
        self.body, self.pos = body, pos


def _junction(self, parts, pos=None):
    # And(a, b) is And([a, b]); And and Or take a first part of their own
    # class apart, so that a chain's left spine is one node
    if isinstance(parts, Formula):
        parts, pos = [parts, pos], None
    if parts[0].__class__ is self.__class__ is not Implies:
        parts = parts[0].parts + parts[1:]
    self.parts, self.pos = parts, pos


@record
class And(Formula):
    """parts[0] /\\ parts[1] /\\ ...: two or more parts, the first of
    another class; it means the left-nested chain of binary /\\."""
    parts: list
    pos: Pos = None
    __init__ = _junction


@record
class Or(Formula):
    """parts[0] \\/ parts[1] \\/ ...: as And, for \\/."""
    parts: list
    pos: Pos = None
    __init__ = _junction


@record
class Implies(Formula):
    """parts[0] => parts[1] => ...: the premises, then the conclusion; it
    means the right-nested chain of binary =>, and no part is taken apart."""
    parts: list
    pos: Pos = None
    __init__ = _junction


@record
class Iff(Formula):
    """lhs <=> rhs"""
    lhs: Formula
    rhs: Formula
    pos: Pos = None
    __init__ = _binary


@record
class Forall(Formula):
    """forall var: ty. body"""
    var: str
    ty: TypeRef
    body: Formula
    pos: Pos = None
    __init__ = _binder


@record
class Exists(Formula):
    """exists var: ty. body"""
    var: str
    ty: TypeRef
    body: Formula
    pos: Pos = None
    __init__ = _binder


QUANTIFIERS = (Forall, Exists)
BINDERS = (Forall, Exists, Choose)


# ---------------------------------------------------------------------------
# declarations and models


class FuncDecl(Record):
    """An n-ary function, either defined by a term or specified by a contract.

    params lists (name, TypeRef) pairs. Exactly one of body (definition)
    and ensures (contract) is set. Inside ensures, the parameters and the
    distinguished variable 'result' are bound.
    """

    __match_args__ = ('name', 'params', 'result', 'body', 'ensures', 'pos')

    def __init__(self, name, params, result, body=None, ensures=None,
                 pos=None):
        self.name, self.params, self.result = name, params, result
        self.body, self.ensures, self.pos = body, ensures, pos

    def is_contract(self) -> bool:
        return self.ensures is not None


class Model(Record):
    """Parameters, named types, functions and named closed goals."""

    __match_args__ = ('params', 'types', 'funcs', 'theorems')

    def __init__(self, params=None, types=None, funcs=None, theorems=None):
        # name -> default value or None
        self.params = {} if params is None else params
        self.types = {} if types is None else types  # name -> TypeRef
        # name -> FuncDecl; resolve_model makes it a FuncTable
        self.funcs = {} if funcs is None else funcs
        self.theorems = {} if theorems is None else theorems  # name -> Formula


class Diagnostic:
    def __init__(self, message, pos=None):
        self.message, self.pos = message, pos

    def __str__(self):
        if self.pos:
            return 'line %d col %d: %s' % (self.pos[0], self.pos[1], self.message)
        return self.message


# ---------------------------------------------------------------------------
# generic traversal helpers


# fields that hold names, types or constants, never subnodes
_LEAF_FIELDS = {'pos', 'ty', 'var', 'func', 'name', 'rel', 'value'}
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


class FuncTable(dict):
    """name -> FuncDecl, as resolve_model returns Model.funcs. What the
    translator derives from the whole table, definitional_funcs and the
    nondeterministic_funcs of that, is computed on first use and kept, so
    the table is filled before its first use and not changed after."""

    __slots__ = ('_derived',)

    def derived(self) -> tuple:
        """(definitional_funcs(self), the nondeterministic_funcs of that)."""
        try:
            return self._derived
        except AttributeError:
            defs = definitional_funcs(self)
            self._derived = defs, nondeterministic_funcs(defs)
            return self._derived


_NO_FUNCS = FuncTable()


def func_table(funcs) -> FuncTable:
    """funcs itself if it is a FuncTable, else a table of its entries; no
    functions share one empty table."""
    if isinstance(funcs, FuncTable):
        return funcs
    return FuncTable(funcs) if funcs else _NO_FUNCS


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
        if isinstance(v, list):  # map adds no frame, unlike a comprehension
            nv = list(map(fn, v, [ctx] * len(v)))
            changed = changed or not all(map(operator.is_, v, nv))
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
            if overrides[name] < 0:
                raise TypeError_('parameter %r is a nat, got %d'
                                 % (name, overrides[name]))
            params[name] = overrides[name]
        elif default is not None:
            params[name] = default
        else:
            raise TypeError_('parameter %r has no value' % name)
    if overrides:
        for name in overrides:
            if name not in m.params:
                raise TypeError_('unknown parameter %r' % name)
    out = Model(params=dict(params), funcs=FuncTable())
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
    """Computes the types of terms and collects diagnostics.

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
        """t's type, or None after a diagnostic."""
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
            for part in _children(f):
                self.check_formula(part, env)
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
