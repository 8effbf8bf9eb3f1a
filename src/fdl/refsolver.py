"""Reference decision procedure for the SMT-LIB fragment the translator
emits: QF_UFBV / UFBV scripts built from bit-vector literals, bvadd, bvmul,
bvult, bvule, =, zero_extend, extract, the boolean connectives, ite,
define-fun macros, uninterpreted functions and (in UFBV) forall/exists.

`Script.parse` only tokenizes. `Solver.check` reads the tokens in one pass,
one command at a time, compiling each assertion as it reads it on a stack
of open frames: an assertion sees the declarations above it, a define-fun
body those above its first use. Outside binders a frame of literals closes
to the literal of the operator's value rule, and and/or/ite pass over what
a literal decides away uncompiled; only nodes that read a cell or a bound
variable become closures (Feeley & Lapalme, "Using Closures for Code
Generation", 1987). (=> a ... b) is read as (or (not a) ... b). Reading
ends at an assertion folded to false: no error after it is reported. The
literal nodes, in _LITS, are all that is kept from one script to the next.

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
# literal token or (value, width) -> the literal's node, for every script;
# cleared when full, so that a resident worker keeps it bounded
_LITS, _LITS_MAX = {}, 1024
# the kinds of open frame; the first three only collect their kids
_OP, _APP, _QUANTIFIER, _JUNCTION, _ITE = range(5)


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


def _skip(toks, i, depth=0):
    """The index past the term at toks[i], or past the depth-th unmatched
    ')' from toks[i] on."""
    while True:
        tok = toks[i]
        i += 1
        if tok == '(':
            depth += 1
        elif tok == ')':
            depth -= 1
            if depth < 0:
                raise RefsolverError('missing term')
        if not depth:
            return i


def _arity(head) -> RefsolverError:
    if not isinstance(head, str):  # (_ extract hi lo) read as a list
        head = '(%s)' % ' '.join(head)
    return RefsolverError('wrong number of arguments to %s' % head)


def _sort(toks, i) -> int:
    """The width of the sort (_ BitVec n), five tokens from toks[i] on."""
    if toks[i:i + 3] != ['(', '_', 'BitVec'] or toks[i + 4] != ')':
        raise RefsolverError('unsupported sort %r' % toks[i])
    return int(toks[i + 3])


def _lit(value, width):
    """The shared node (closure, width, None, value) of a literal."""
    node = _LITS.get((value, width))
    if node is None:
        if len(_LITS) >= _LITS_MAX:
            _LITS.clear()
        node = _LITS[value, width] = lambda env: value, width, None, value
    return node


def _names(kids):
    """The declared function names that the nodes kids read: a set that
    may be a kid's own, so no caller changes it."""
    sets = [kid[2] for kid in kids if kid[2]]
    if len(sets) > 1:
        return set().union(*sets)
    return sets[0] if sets else _NO_NAMES


class Script:
    """A script's tokens, and the declarations and definitions that a
    Solver has read from them so far."""

    def __init__(self, toks: list):
        self.toks = toks
        self.decls = {}  # name -> (arg_widths, result_width)
        self.defs = {}  # name -> (params [(name, width)], body's token index)

    @classmethod
    def parse(cls, text: str) -> 'Script':
        return cls(tokenize(text))


class Solver:
    def __init__(self, script: Script, budget: int = DEFAULT_BUDGET):
        self.s = script
        self.cells = {}  # (name, argvals) -> value
        self.budget = budget
        self.nodes = 0
        self._reads = set()  # cells consulted by the evaluation in flight
        self._bodies = {}  # define-fun name -> (closure, width, frame padding)
        self._consts = {}  # declared constant -> its node
        self._scope, self._size = {}, 0  # name -> (slot, width); frame size

    def _assertions(self):
        """The node of each assertion in the order of the text, read one
        command at a time; a declare-fun or define-fun is recorded when it
        is read. A node is (fn, width, names): its closure over the frame
        of its binders, its bit width (None for a boolean) and the declared
        function names it reads, None for a literal, whose value follows.
        A conjunction's fn has its nodes as `parts`."""
        s, toks, i = self.s, self.s.toks, 0
        while i < len(toks):
            if toks[i] != '(':
                raise RefsolverError('unbalanced parenthesis' if toks[i] == ')'
                                     else 'bad command %r' % toks[i])
            head, name, i = toks[i + 1], toks[i + 2], i + 2
            if name == ')' and head in ('assert', 'set-logic'):
                raise _arity(head)
            if head == 'assert':
                node, i = self._term(i)
            elif head == 'declare-fun':  # name (sort ...) sort
                args, i = [], i + 2
                while toks[i] != ')':
                    args.append(_sort(toks, i))
                    i += 5
                s.decls[name] = args, _sort(toks, i + 1)
                i += 6
            elif head == 'define-fun':  # name ((param sort) ...) sort body
                params, i = [], i + 2
                while toks[i] == '(':
                    params.append((toks[i + 1], _sort(toks, i + 2)))
                    i += 8
                s.defs[name] = params, _skip(toks, i + 1)
                i = _skip(toks, s.defs[name][1])
            elif head == 'set-logic':  # the logic's name
                i += 1
            elif head not in ('check-sat', 'exit'):
                raise RefsolverError('unsupported command %r' % head)
            if toks[i] != ')':  # a command ends after its own arguments
                raise _arity(head)
            i += 1
            if head == 'assert':
                yield node

    def _term(self, i):
        """The node of the term at token i and the index past it, read on a
        stack of open frames [kind, kids, ...]. A junction closes at its
        deciding literal, an ite at the branch a literal condition takes."""
        toks, stack = self.s.toks, []
        while True:
            tok = toks[i]
            i += 1
            if tok == '(':
                head = toks[i]
                i += 1
                row = _OPERATORS.get(head)
                if head == '(':  # (_ zero_extend n), (_ extract hi lo)
                    j = toks.index(')', i)
                    head, i = toks[i:j], j + 1
                    row = '(' not in head and _OPERATORS.get(tuple(head[:2]))
                    if not row:
                        raise RefsolverError('unsupported operator %r' % head)
                if row:
                    stack.append([_OP, [], row, head])
                elif head == 'and' or head == 'or' or head == '=>':
                    if toks[i - 3] == head != '=>' and toks[i - 4] == '(':
                        stack[-1][3] += 1  # (and (and a b) c): one junction
                    elif head == '=>' and toks[i] == ')':
                        raise RefsolverError('=> without arguments')
                    else:
                        stack.append([_JUNCTION, [], head, 0])
                elif head == 'ite':
                    stack.append([_ITE, [], False])
                elif head == 'forall' or head == 'exists':
                    i = self._binders(stack, head == 'exists', i)
                else:
                    stack.append([_APP, [], head])
                continue
            if tok == ')':
                frame = stack.pop()
                kind, kids = frame[0], frame[1]
                if kind == _JUNCTION and frame[3]:  # a link of a chain ends
                    frame[3] -= 1
                    stack.append(frame)
                    continue
                node = (self._operator(frame[2], frame[3], kids) if kind == _OP
                        else self._application(frame[2], kids) if kind == _APP
                        else self._quantified(kids, *frame[2:])
                        if kind == _QUANTIFIER else _ite(kids) if kind == _ITE
                        else self._junction(frame[2], kids))
            else:
                node = _LITS.get(tok)
                if node is None or tok in self._scope:
                    node = self._atom(tok)
            while stack:  # hand the node to the frame on top
                frame = stack[-1]
                kind = frame[0]
                if kind <= _QUANTIFIER:
                    frame[1].append(node)
                    break
                if kind == _JUNCTION:
                    stop = frame[2] != 'and'
                    if frame[2] == '=>' and toks[i] != ')':  # a premise
                        node = self._operator(_OPERATORS['not'], 'not', [node])
                    if node[2] is not None or self._scope:
                        frame[1].append(node)
                        break
                    if node[3] != stop:  # a neutral literal is dropped
                        break
                    i, node = _skip(toks, i, frame[3] + 1), _lit(stop, None)
                elif frame[2]:  # the branch a literal condition took; after
                    if frame[2] > 1:  # a true one, pass over the else branch
                        if toks[i] == ')':
                            raise _arity('ite')
                        i = _skip(toks, i)
                    if toks[i] != ')':
                        raise _arity('ite')
                    i += 1
                elif frame[1] or node[2] is not None or self._scope:
                    frame[1].append(node)
                    break
                else:  # a literal condition; false passes over one branch
                    i = i if node[3] else _skip(toks, i)
                    frame[2] = 1 + node[3]  # 2 while the else is ahead
                    break
                stack.pop()
            else:
                return node, i

    def _atom(self, tok):
        """The node of a bound variable, a literal not yet in the table, a
        constant or a define-fun without parameters."""
        if tok in self._scope:
            slot, width = self._scope[tok]
            return lambda env: env[slot], width, _NO_NAMES
        if tok == 'true' or tok == 'false':
            node = _lit(tok == 'true', None)
        elif tok[:2] == '#b':
            node = _lit(int(tok[2:], 2), len(tok) - 2)
        elif tok[:2] == '#x':
            node = _lit(int(tok[2:], 16), 4 * (len(tok) - 2))
        else:
            return self._consts.get(tok) or self._application(tok, [])
        _LITS[tok] = node
        return node

    def _operator(self, row, head, kids):
        """An operator's node: outside binders with literal kids, the
        literal of the row's value rule; else the row's closure."""
        if len(kids) != row[2]:
            raise _arity(head)
        if not self._scope and not [1 for kid in kids if kid[2] is not None]:
            return _lit(*row[0](kids[0][1], head, *[kid[3] for kid in kids]))
        fn, width = row[1](kids[0][1], head, *[kid[0] for kid in kids])
        return fn, width, _names(kids)

    def _application(self, name, kids):
        """name applied to kids: a define-fun's body, a literal outside
        binders when its arguments are and it reads no cell, or a cell
        read."""
        fns = [kid[0] for kid in kids]
        known = self.s.defs.get(name) or self.s.decls.get(name)
        if known is None:
            raise RefsolverError('unknown symbol %r' % name)
        if len(kids) != len(known[0]):  # its parameters or argument widths
            raise _arity(name)
        if name in self.s.defs:
            if name not in self._bodies:  # its own frame: params, binders
                params, start = self.s.defs[name]
                outer = self._scope, self._size
                self._scope = {p: (i, w) for i, (p, w) in enumerate(params)}
                self._size = len(params)
                node = self._term(start)[0]
                pad = [0] * (self._size - len(params))
                self._bodies[name] = node[0], node[1], pad
                self._scope, self._size = outer
            body, width, pad = self._bodies[name]
            if not self._scope and not [1 for k in kids if k[2] is not None]:
                try:
                    return _lit(body([kid[3] for kid in kids] + pad), width)
                except _Blocked:
                    pass
            return (lambda env: body([f(env) for f in fns] + pad), width,
                    _names(kids))
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
        node = self._consts[name] = fn, width, {name}
        return node

    def _junction(self, head, kids):
        """and/or, and => read as or. Outside binders a literal kid has
        decided the junction or been dropped."""
        stop, fold = head != 'and', not self._scope
        if fold and len(kids) < 2:
            return kids[0] if kids else _lit(not stop, None)
        fns = [kid[0] for kid in kids]

        def fn(env):
            for f in fns:
                if f(env) == stop:
                    return stop
            return not stop
        if fold and not stop:
            fn.parts = kids
        return fn, None, _names(kids)

    def _binders(self, stack, want, i):
        """Push the frame of a quantifier over the binders at token i, and
        open its scope; returns the index past the binders."""
        toks, outer, slots = self.s.toks, self._scope, []
        self._scope = dict(outer)
        while toks[i + 1] == '(':
            slots.append((self._size + len(slots), _sort(toks, i + 3)))
            self._scope[toks[i + 2]] = slots[-1]
            i += 8
        self._size += len(slots)
        stack.append([_QUANTIFIER, [], want, slots, outer])
        return i + 2

    def _quantified(self, kids, want, slots, outer):
        """The quantifier's node over its body, in the outer scope again: a
        literal outside binders when its closure reads no cell."""
        if len(kids) != 1:
            raise _arity('exists' if want else 'forall')
        body = kids[0]
        self._scope, fn = outer, body[0]
        for slot, width in reversed(slots):  # the first binder outermost
            fn = _loop(slot, range(1 << width), fn, want)
        if not outer:
            try:
                return _lit(fn([0] * self._size), None)
            except _Blocked:
                pass
        return fn, None, body[2] or _NO_NAMES

    def check(self) -> str:
        """Compile each assertion as it is read into units, then search. A
        unit folded to false ends the reading: it sorts before every later
        unit and fails where the search reaches it, so those units could
        change neither the answer nor the nodes searched."""
        units = []
        try:  # the tokens running out inside a command
            for node in self._assertions():
                if node[2] is None and node[3] is False:
                    units.append(node)
                    break
                stack = [node]
                while stack:
                    node = stack.pop()
                    if hasattr(node[0], 'parts'):
                        stack.extend(node[0].parts)
                    elif node[2] is not None or node[3] is not True:
                        units.append(node)
        except IndexError:
            raise RefsolverError('unbalanced parenthesis') from None
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


def _ite(kids):
    if len(kids) != 3:
        raise _arity('ite')
    c, a, b = [kid[0] for kid in kids]
    return (lambda env: a(env) if c(env) else b(env), kids[1][1],
            _names(kids))


# head -> (value rule, closure maker, arity) of an operator that evaluates
# all its arguments. Each rule takes the width of the first argument, the
# head and then the argument values or closures, and gives (value or
# closure, width).
_OPERATORS = {
    'not': (lambda w, h, a: (not a, None),
            lambda w, h, a: (lambda env: not a(env), None), 1),
    '=': (lambda w, h, a, b: (a == b, None),
          lambda w, h, a, b: (lambda env: a(env) == b(env), None), 2),
    'bvult': (lambda w, h, a, b: (a < b, None),
              lambda w, h, a, b: (lambda env: a(env) < b(env), None), 2),
    'bvule': (lambda w, h, a, b: (a <= b, None),
              lambda w, h, a, b: (lambda env: a(env) <= b(env), None), 2),
    'bvadd': (lambda w, h, a, b: ((a + b) & (1 << w) - 1, w),
              lambda w, h, a, b: (
                  lambda env, m=(1 << w) - 1: (a(env) + b(env)) & m, w), 2),
    'bvmul': (lambda w, h, a, b: ((a * b) & (1 << w) - 1, w),
              lambda w, h, a, b: (
                  lambda env, m=(1 << w) - 1: (a(env) * b(env)) & m, w), 2),
    ('_', 'zero_extend'): (lambda w, h, a: (a, w + int(h[2])),) * 2 + (1,),
    ('_', 'extract'): (
        lambda w, h, a: ((a >> int(h[3])) & (2 << int(h[2]) - int(h[3])) - 1,
                         int(h[2]) - int(h[3]) + 1),
        lambda w, h, a: (
            lambda env, lo=int(h[3]), m=(2 << int(h[2]) - int(h[3])) - 1:
            (a(env) >> lo) & m, int(h[2]) - int(h[3]) + 1), 1),
}


def check_script(text: str, budget: int = DEFAULT_BUDGET) -> str:
    """Decide a script; returns 'sat', 'unsat' or 'unknown'. A term that
    reads a cell nested too deeply for its closures, or define-funs that
    use each other too deeply, is a RefsolverError."""
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
        with open(path, encoding='utf-8') as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        code, line = 1, 'error: %s' % e
    else:
        code, line = answer(text, budget)
    print(line, file=sys.stderr if code else sys.stdout)
    return code


def serve() -> int:
    """Decide the scripts that arrive on stdin, each as its length in bytes
    on one line and then its UTF-8 text, until EOF. Each answer leaves on
    stdout as one line, the line run would print, newlines in it turned to
    spaces. answer() builds a new Solver for each; only the literal nodes
    are kept from one script to the next, in a table cleared when full."""
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
