"""Reference decision procedure for the SMT-LIB fragment the translator
emits: QF_UFBV / UFBV scripts built from bit-vector literals, bvadd, bvmul,
bvult, bvule, =, zero_extend, extract, the boolean connectives, ite,
define-fun macros, uninterpreted functions and (in UFBV) forall/exists.

`Script.parse` only tokenizes. `Solver.check` builds one command at a time
on an explicit stack and compiles each assertion as it reads it, bottom-up,
into closures alone (Feeley & Lapalme, "Using Closures for Code Generation",
1987): an assertion sees the declarations above it, a define-fun body those
above its first use. Outside binders a node whose value needs no cell is
folded to a literal; (=> a ... b) is read as (or (not a) ... b). Reading
ends at an assertion folded to false: no error after it is reported.

Satisfiability is decided by backtracking over "cells": a cell is the value
of an uninterpreted function at one concrete argument tuple (constants are
cells with the empty tuple). A unit of the search, a folded conjunct of the
assertions, raises _Blocked when it reads an unassigned cell, and the
search branches on that cell, so only function points the assertions
actually touch are ever enumerated. Branch cells sit on an explicit trail.
The search is exhaustive; 'unknown' is reported only when the node budget
runs out.

Also usable as a command line solver: fdl-refsolve [--budget N] FILE, or
this file run by path; only main() parses arguments. The solver bridge
starts one `python -I -S -c ...` process that imports this module and
calls serve(), which decides script after script read from stdin; the
same program calling run(FILE) is the built-in backend as a command. So
the module must stay standalone (no imports from fdl, no relative
imports) and cheap to start: it imports only sys, and main() imports
argparse only when it is called.
"""

import sys

DEFAULT_BUDGET = 2_000_000
_NO_NAMES = frozenset()  # the names of a node that reads no cell


class RefsolverError(Exception):
    pass


class _Blocked(Exception):
    """Evaluation hit an unassigned cell; args are the cell and its width."""


def tokenize(text: str) -> list:
    pieces = text.split(';')
    if len(pieces) > 1:  # each comment runs from its ';' to the line's end
        text = pieces[0] + ''.join([p[p.find('\n'):] for p in pieces[1:]
                                    if '\n' in p])
    return text.replace('(', ' ( ').replace(')', ' ) ').split()


def read_forms(toks: list):
    """The top-level forms of a token list, each as soon as it is closed."""
    top, stack = [], []
    for tok in toks:
        if tok == '(':
            stack.append(top)
            top = []
        elif tok == ')':
            if not stack:
                raise RefsolverError('unbalanced parenthesis')
            form, top = top, stack.pop()
            if stack:
                top.append(form)
            else:
                yield form
        elif stack:
            top.append(tok)
        else:
            yield tok
    if stack:
        raise RefsolverError('unbalanced parenthesis')


def _sort_width(sort) -> int:
    if isinstance(sort, list) and len(sort) == 3 and sort[0] == '_' \
            and sort[1] == 'BitVec':
        return int(sort[2])
    raise RefsolverError('unsupported sort %r' % (sort,))


def _literal(tok):
    """(value, width) of a literal token, width None for a boolean."""
    if tok == 'true' or tok == 'false':
        return tok == 'true', None
    if tok[:2] == '#b':
        return int(tok[2:], 2), len(tok) - 2
    if tok[:2] == '#x':
        return int(tok[2:], 16), 4 * (len(tok) - 2)
    return None


def _names(kids):
    """The declared function names that the nodes kids read: a set that
    may be a kid's own, so no caller changes it."""
    sets = [kid[2] for kid in kids if kid[2]]
    if len(sets) > 1:
        return set().union(*sets)
    return sets[0] if sets else _NO_NAMES


class Script:
    """A script's tokens, and the declarations and definitions that
    `assertions` has read from them so far."""

    def __init__(self, toks: list):
        self.toks = toks
        self.decls = {}  # name -> (arg_widths, result_width)
        self.defs = {}  # name -> (params [(name, width)], body)

    @classmethod
    def parse(cls, text: str) -> 'Script':
        return cls(tokenize(text))

    def assertions(self):
        """Each asserted term in the order of the text, read one command at
        a time; a declare-fun or define-fun is recorded when it is read."""
        for form in read_forms(self.toks):
            if not isinstance(form, list) or not form:
                raise RefsolverError('bad command %r' % (form,))
            head = form[0]
            if head == 'declare-fun':
                self.decls[form[1]] = ([_sort_width(a) for a in form[2]],
                                       _sort_width(form[3]))
            elif head == 'define-fun':
                self.defs[form[1]] = ([(p[0], _sort_width(p[1]))
                                       for p in form[2]], form[4])
            elif head == 'assert':
                yield form[1]
            elif head not in ('set-logic', 'check-sat', 'exit'):
                raise RefsolverError('unsupported command %r' % head)


class Solver:
    def __init__(self, script: Script, budget: int = DEFAULT_BUDGET):
        self.s = script
        self.cells = {}  # (name, argvals) -> value
        self.budget = budget
        self.nodes = 0
        self._reads = set()  # cells consulted by the evaluation in flight
        self._bodies = {}  # define-fun name -> (closure, width, frame padding)
        self._nodes = {}  # literal or constant token, (value, width) -> node
        self._scope, self._size = {}, 0  # name -> (slot, width); frame size

    def compile(self, e):
        """The node (fn, width, names) of expression e: its closure over
        the frame of its binders, its bit width (None for a boolean) and
        the declared function names it reads, None when the node is a
        literal. A conjunction's fn has its nodes as `parts`."""
        if isinstance(e, str):
            if e in self._scope:
                slot, width = self._scope[e]
                return lambda env: env[slot], width, _NO_NAMES
            node = self._nodes.get(e)
            if node is None:
                lit = _literal(e)
                if lit is None:
                    return self._apply(e, [])
                node = self._nodes[e] = self._lit(*lit)
            return node
        head = e[0]
        make = _OPERATORS.get(tuple(head[:2]) if isinstance(head, list)
                              else head)
        if make:
            kids = list(map(self.compile, e[1:]))
            fn, width = make(kids[0][1], head, *[kid[0] for kid in kids])
            return self._fold(kids, fn, width)
        if isinstance(head, list):
            raise RefsolverError('unsupported operator %r' % (head,))
        if head in _COMPILE:
            return _COMPILE[head](self, e)
        return self._apply(head, e[1:])

    def _lit(self, value, width):
        key = value, width
        if key not in self._nodes:
            self._nodes[key] = lambda env: value, width, None
        return self._nodes[key]

    def _fold(self, kids, fn, width):
        """The node of an operator or define-fun application, a literal
        outside binders when its arguments are and it reads no cell."""
        if not self._scope and not [1 for kid in kids if kid[2] is not None]:
            try:
                return self._lit(fn(None), width)
            except _Blocked:
                pass
        return fn, width, _names(kids)

    def _apply(self, name, args):
        """name applied to args: a define-fun's body or a cell read."""
        kids = list(map(self.compile, args))
        fns = [kid[0] for kid in kids]
        if name in self.s.defs:
            if name not in self._bodies:  # its own frame: params, binders
                params, body = self.s.defs[name]
                outer = self._scope, self._size
                self._scope = {p: (i, w) for i, (p, w) in enumerate(params)}
                self._size = len(params)
                fn, width, _ = self.compile(body)
                pad = [0] * (self._size - len(params))
                self._bodies[name] = fn, width, pad
                self._scope, self._size = outer
            body, width, pad = self._bodies[name]
            return self._fold(kids,
                              lambda env: body([f(env) for f in fns] + pad),
                              width)
        if name not in self.s.decls:
            raise RefsolverError('unknown symbol %r' % name)
        width, cells, reads = self.s.decls[name][1], self.cells, self._reads
        const = name, ()

        def fn(env):
            key = (name, tuple([f(env) for f in fns])) if fns else const
            value = cells.get(key)
            if value is None:
                raise _Blocked(key, width)
            reads.add(key)
            return value
        if fns:
            return fn, width, _names(kids) | {name}
        node = self._nodes[name] = fn, width, {name}  # one per constant
        return node

    def _junction(self, e):
        """and/or, and => read as or: (=> a b) is (or (not a) b). Outside
        binders a literal argument decides or is dropped. A left-nested
        chain of one head, (and (and a b) c), is one junction over a b c,
        gathered in a loop: it takes no frame per level."""
        if e[0] == '=>':
            *first, last = e[1:]
            e = ['or'] + [['not', a] for a in first] + [last]
        head, tails = e[0], []
        fold, stop = not self._scope, head == 'or'  # stop decides the node
        while len(e) > 1 and isinstance(e[1], list) and e[1][:1] == [head]:
            tails.append(e[2:])
            e = e[1]
        kids = []
        for x in e[1:] + [x for tail in reversed(tails) for x in tail]:
            kid = self.compile(x)
            if not fold or kid[2] is not None:
                kids.append(kid)
            elif kid[0](None) == stop:
                return self._lit(stop, None)
        if fold and len(kids) < 2:
            return kids[0] if kids else self._lit(not stop, None)
        fns = [kid[0] for kid in kids]

        def fn(env):
            for f in fns:
                if f(env) == stop:
                    return stop
            return not stop
        if fold and not stop:
            fn.parts = kids
        return fn, None, _names(kids)

    def _ite(self, e):
        cond = self.compile(e[1])
        if cond[2] is None and not self._scope:
            return self.compile(e[2] if cond[0](None) else e[3])
        kids = [cond, self.compile(e[2]), self.compile(e[3])]
        c, a, b = [kid[0] for kid in kids]
        return (lambda env: a(env) if c(env) else b(env), kids[1][1],
                _names(kids))

    def _quantifier(self, e):
        """Folded outside binders when its closure reads no cell."""
        want, outer = e[0] == 'exists', self._scope
        slots = [(self._size + j, _sort_width(p[1]))
                 for j, p in enumerate(e[1])]
        self._scope = {**outer, **{p[0]: sw for p, sw in zip(e[1], slots)}}
        self._size += len(slots)
        fn, _, names = self.compile(e[2])
        self._scope = outer
        for slot, width in reversed(slots):  # the first binder outermost
            fn = _loop(slot, range(1 << width), fn, want)
        if not outer:
            try:
                return self._lit(fn([0] * self._size), None)
            except _Blocked:
                pass
        return fn, None, names or _NO_NAMES

    def check(self) -> str:
        """Compile each assertion as it is read into units, then search. A
        unit folded to false ends the reading: it sorts before every later
        unit and fails where the search reaches it, so those units could
        change neither the answer nor the nodes searched."""
        units = []
        for a in self.s.assertions():
            node = self.compile(a)
            if node[2] is None and node[0](None) is False:
                units.append(node)
                break
            stack = [node]
            while stack:
                node = stack.pop()
                if hasattr(node[0], 'parts'):
                    stack.extend(node[0].parts)
                elif node[2] is not None or node[0](None) is not True:
                    units.append(node)
        # few-name units first: cheap constraints prune the cell search early
        units.sort(key=lambda u: len(u[2] or ()))
        return self._search([u[0] for u in units])

    def _search(self, fns) -> str:
        """The trail holds [cell, width, unit, conflict] per branch cell;
        the conflict gathers the cells that the failures under it depend
        on. A unit's verdict is a function of the cells its evaluation
        read, so a failure that does not depend on the newest branch cell
        skips that cell's remaining values and passes down the trail
        unchanged (conflict-directed backjumping)."""
        cells, reads, env = self.cells, self._reads, [0] * self._size
        trail, i = [], 0
        while True:
            while i < len(fns):
                self.nodes += 1
                if self.nodes > self.budget:
                    return 'unknown'
                reads.clear()
                try:
                    if fns[i](env):
                        i += 1
                        continue
                except _Blocked as b:
                    cell, width = b.args
                    trail.append([cell, width, i, set(reads)])
                    cells[cell] = 0
                    continue
                failed = set(reads)
                break
            else:
                return 'sat'
            while trail:
                cell, width, i, conflict = trail[-1]
                if cell in failed:
                    conflict |= failed
                    conflict.discard(cell)
                    if cells[cell] + 1 < 1 << width:
                        cells[cell] += 1
                        break
                    failed = conflict
                del cells[cell]
                trail.pop()
            else:
                return 'unsat'


def _loop(slot, values, body, want):
    def fn(env):
        for v in values:
            env[slot] = v
            if body(env) == want:
                return want
        return not want
    return fn


# (closure, width) of an operator that evaluates all its arguments, from the
# width of the first argument, the head and the argument closures
_OPERATORS = {
    'not': lambda w, h, a: (lambda env: not a(env), None),
    '=': lambda w, h, a, b: (lambda env: a(env) == b(env), None),
    'bvult': lambda w, h, a, b: (lambda env: a(env) < b(env), None),
    'bvule': lambda w, h, a, b: (lambda env: a(env) <= b(env), None),
    'bvadd': lambda w, h, a, b: (
        lambda env, m=(1 << w) - 1: (a(env) + b(env)) & m, w),
    'bvmul': lambda w, h, a, b: (
        lambda env, m=(1 << w) - 1: (a(env) * b(env)) & m, w),
    ('_', 'zero_extend'): lambda w, h, a: (a, w + int(h[2])),
    ('_', 'extract'): lambda w, h, a: (
        lambda env, lo=int(h[3]), m=(2 << int(h[2]) - int(h[3])) - 1:
        (a(env) >> lo) & m, int(h[2]) - int(h[3]) + 1),
}

_COMPILE = {'and': Solver._junction, 'or': Solver._junction,
            '=>': Solver._junction, 'ite': Solver._ite,
            'forall': Solver._quantifier, 'exists': Solver._quantifier}


def check_script(text: str, budget: int = DEFAULT_BUDGET) -> str:
    """Decide a script; returns 'sat', 'unsat' or 'unknown'. A term nested
    too deeply for the recursive compile and its closures is a
    RefsolverError."""
    try:
        return Solver(Script.parse(text), budget).check()
    except RecursionError:
        raise RefsolverError('script nested too deeply') from None


def answer(text: str, budget: int = DEFAULT_BUDGET) -> tuple:
    """(exit code, line) of a script: (0, its answer), or (1, 'error: ...')
    when it cannot be decided."""
    try:
        return 0, check_script(text, budget)
    except RefsolverError as e:
        reason = str(e)
    except Exception as e:  # an internal failure
        reason = '%s: %s' % (type(e).__name__, e)
    return 1, 'error: %s' % reason


def run(path: str, budget: int = DEFAULT_BUDGET) -> int:
    """Decide the script in a file: print the answer and return 0, or print
    one 'error: ...' line on stderr and return 1."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        code, line = 1, 'error: %s' % e
    else:
        code, line = answer(text, budget)
    print(line, file=sys.stderr if code else sys.stdout)
    return code


def serve() -> int:
    """Decide the scripts that arrive on stdin, each as its length in bytes
    on one line and then its UTF-8 text, until EOF. Each answer leaves on
    stdout as one line, the line run would print, newlines in it turned to
    spaces. Nothing is kept from one script to the next: answer() builds a
    new Solver for each."""
    stdin, stdout = sys.stdin.buffer, sys.stdout.buffer
    while True:
        head = stdin.readline()
        if not head:
            return 0
        line = answer(stdin.read(int(head)).decode())[1]
        stdout.write(line.replace('\n', ' ').encode() + b'\n')
        stdout.flush()


def main(argv=None) -> int:
    import argparse  # here, not at the top: the bridge's worker never parses
    ap = argparse.ArgumentParser(
        prog='fdl-refsolve',
        description='reference solver for the emitted SMT-LIB fragment')
    ap.add_argument('file')
    ap.add_argument('--budget', type=int, default=DEFAULT_BUDGET,
                    help='search node budget before giving up with unknown')
    args = ap.parse_args(argv)
    return run(args.file, args.budget)


if __name__ == '__main__':
    sys.exit(main())
