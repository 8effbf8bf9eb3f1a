"""Reference decision procedure for the SMT-LIB fragment the translator
emits: QF_UFBV / UFBV scripts built from bit-vector literals, bvadd, bvmul,
bvult, bvule, =, zero_extend, the boolean connectives, ite, define-fun
macros, uninterpreted functions and (in UFBV) forall/exists binders.

Satisfiability is decided by backtracking over "cells": a cell is the value
of an uninterpreted function at one concrete argument tuple (constants are
cells with the empty tuple). Cells are discovered lazily while evaluating
the assertions in order, so only function points the assertions actually
touch are ever enumerated. The search is exhaustive; 'unknown' is reported
only when the node budget runs out.

Also usable as a command line solver: fdl-refsolve [--budget N] FILE, or
this file run by path. The solver bridge runs it by path as
`python -I -S .../refsolver.py FILE`, so this module must stay standalone
(no imports from fdl, no relative imports) and cheap to start: it imports
only sys, and parses its command line by hand instead of with argparse.
"""

import sys

DEFAULT_BUDGET = 2_000_000


class RefsolverError(Exception):
    pass


class _Blocked(Exception):
    """Evaluation hit an unassigned cell; the search branches on it."""

    def __init__(self, cell, width):
        self.cell = cell
        self.width = width


# ---------------------------------------------------------------------------
# s-expressions


def tokenize(text: str) -> list:
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in ' \t\r\n':
            i += 1
        elif c == ';':
            while i < n and text[i] != '\n':
                i += 1
        elif c in '()':
            toks.append(c)
            i += 1
        else:
            j = i
            while j < n and text[j] not in ' \t\r\n();':
                j += 1
            toks.append(text[i:j])
            i = j
    return toks


def parse_sexprs(text: str) -> list:
    toks = tokenize(text)
    pos = [0]

    def parse():
        t = toks[pos[0]]
        pos[0] += 1
        if t == '(':
            out = []
            while True:
                if pos[0] >= len(toks):
                    raise RefsolverError('unbalanced parenthesis')
                if toks[pos[0]] == ')':
                    break
                out.append(parse())
            pos[0] += 1
            return out
        if t == ')':
            raise RefsolverError('unbalanced parenthesis')
        return t

    forms = []
    while pos[0] < len(toks):
        forms.append(parse())
    return forms


def _sort_width(sort) -> int:
    if isinstance(sort, list) and len(sort) == 3 and sort[0] == '_' \
            and sort[1] == 'BitVec':
        return int(sort[2])
    raise RefsolverError('unsupported sort %r' % (sort,))


# ---------------------------------------------------------------------------
# the solver


class Script:
    def __init__(self):
        self.decls = {}  # name -> (arg_widths, result_width)
        self.defs = {}  # name -> (params [(name, width)], result_width, body)
        self.asserts = []
        self.logic = None

    @classmethod
    def parse(cls, text: str) -> 'Script':
        s = cls()
        for form in parse_sexprs(text):
            if not isinstance(form, list) or not form:
                raise RefsolverError('bad command %r' % (form,))
            head = form[0]
            if head == 'set-logic':
                s.logic = form[1]
            elif head == 'declare-fun':
                name, args, res = form[1], form[2], form[3]
                s.decls[name] = ([_sort_width(a) for a in args],
                                 _sort_width(res))
            elif head == 'define-fun':
                name, params, res, body = form[1], form[2], form[3], form[4]
                s.defs[name] = ([(p[0], _sort_width(p[1])) for p in params],
                                _sort_width(res), body)
            elif head == 'assert':
                s.asserts.append(form[1])
            elif head in ('check-sat', 'exit'):
                pass
            else:
                raise RefsolverError('unsupported command %r' % head)
        return s


class Solver:
    def __init__(self, script: Script, budget: int = DEFAULT_BUDGET):
        self.s = script
        self.cells = {}  # (name, argvals) -> value
        self.budget = budget
        self.nodes = 0
        self.units = []
        self.reads = set()  # cells consulted by the evaluation in flight

    # -- evaluation; bit-vector values are (int, width), booleans are bool --

    def eval(self, e, env):
        if isinstance(e, str):
            if e == 'true':
                return True
            if e == 'false':
                return False
            if e.startswith('#b'):
                return int(e[2:], 2), len(e) - 2
            if e.startswith('#x'):
                return int(e[2:], 16), (len(e) - 2) * 4
            if e in env:
                return env[e]
            return self.apply(e, ())
        head = e[0]
        if isinstance(head, list):  # ((_ zero_extend k) x), ((_ extract i j) x)
            if head[0] == '_' and head[1] == 'zero_extend':
                v, w = self.eval(e[1], env)
                return v, w + int(head[2])
            if head[0] == '_' and head[1] == 'extract':
                v, _ = self.eval(e[1], env)
                hi, lo = int(head[2]), int(head[3])
                return (v >> lo) & ((1 << (hi - lo + 1)) - 1), hi - lo + 1
            raise RefsolverError('unsupported operator %r' % (head,))
        if head == 'not':
            return not self.eval(e[1], env)
        if head == 'and':
            for x in e[1:]:
                if not self.eval(x, env):
                    return False
            return True
        if head == 'or':
            for x in e[1:]:
                if self.eval(x, env):
                    return True
            return False
        if head == '=>':
            for x in e[1:-1]:
                if not self.eval(x, env):
                    return True
            return self.eval(e[-1], env)
        if head == '=':
            a = self.eval(e[1], env)
            b = self.eval(e[2], env)
            if isinstance(a, bool):
                return a == b
            return a[0] == b[0]
        if head == 'bvult':
            return self.eval(e[1], env)[0] < self.eval(e[2], env)[0]
        if head == 'bvule':
            return self.eval(e[1], env)[0] <= self.eval(e[2], env)[0]
        if head == 'bvadd':
            a, w = self.eval(e[1], env)
            b, _ = self.eval(e[2], env)
            return (a + b) % (1 << w), w
        if head == 'bvmul':
            a, w = self.eval(e[1], env)
            b, _ = self.eval(e[2], env)
            return (a * b) % (1 << w), w
        if head == 'ite':
            if self.eval(e[1], env):
                return self.eval(e[2], env)
            return self.eval(e[3], env)
        if head in ('forall', 'exists'):
            binders = [(p[0], _sort_width(p[1])) for p in e[1]]
            want = head == 'exists'
            return self._quant(binders, 0, e[2], dict(env), want)
        return self.apply(head, tuple(self.eval(x, env) for x in e[1:]))

    def _quant(self, binders, i, body, env, want):
        if i == len(binders):
            return self.eval(body, env)
        name, w = binders[i]
        for v in range(1 << w):
            env[name] = (v, w)
            if self._quant(binders, i + 1, body, env, want) == want:
                return want
        return not want

    def apply(self, name, args):
        if name in self.s.defs:
            params, _, body = self.s.defs[name]
            inner = {p: a for (p, _), a in zip(params, args)}
            return self.eval(body, inner)
        if name not in self.s.decls:
            raise RefsolverError('unknown symbol %r' % name)
        widths, result_w = self.s.decls[name]
        key = (name, tuple(v for v, _ in args))
        if key in self.cells:
            self.reads.add(key)
            return self.cells[key], result_w
        raise _Blocked(key, result_w)

    # -- preprocessing -----------------------------------------------------

    def _const(self, e):
        """Value of a cell-free expression as a literal token, else None."""
        try:
            v = self.eval(e, {})
        except _Blocked:
            return None
        if isinstance(v, bool):
            return 'true' if v else 'false'
        n, w = v
        return '#b' + format(n & ((1 << w) - 1), '0%db' % w)

    def _fold(self, e):
        """Collapse cell-free subtrees to literals and simplify connectives.

        Never folds under binders: quantified expressions are either fully
        evaluated (cell-free) or kept intact, so every symbol this pass
        touches is global.
        """
        if isinstance(e, str):
            if e in self.s.decls:
                return e
            c = self._const(e)
            return e if c is None else c
        head = e[0]
        if head in ('forall', 'exists'):
            c = self._const(e)
            return e if c is None else c
        if head == 'not':
            x = self._fold(e[1])
            if x == 'true':
                return 'false'
            if x == 'false':
                return 'true'
            return ['not', x]
        if head in ('and', 'or'):
            stop = 'false' if head == 'and' else 'true'
            skip = 'true' if head == 'and' else 'false'
            parts = []
            for x in e[1:]:
                fx = self._fold(x)
                if fx == stop:
                    return stop
                if fx != skip:
                    parts.append(fx)
            if not parts:
                return skip
            if len(parts) == 1:
                return parts[0]
            return [head] + parts
        if head == 'ite':
            cond = self._fold(e[1])
            if cond == 'true':
                return self._fold(e[2])
            if cond == 'false':
                return self._fold(e[3])
            e = ['ite', cond, self._fold(e[2]), self._fold(e[3])]
        else:
            e = [head] + [self._fold(x) for x in e[1:]]
        c = self._const(e)
        return e if c is None else c

    def _cells_of(self, e, out):
        if isinstance(e, str):
            if e in self.s.decls:
                out.add(e)
        else:
            for x in e:
                self._cells_of(x, out)
        return out

    # -- search ----------------------------------------------------------------

    def check(self) -> str:
        units = []
        for a in self.s.asserts:
            stack = [self._fold(a)]
            while stack:
                x = stack.pop()
                if isinstance(x, list) and x[0] == 'and':
                    stack.extend(x[1:])
                elif x != 'true':
                    units.append(x)
        # few-cell units first: cheap constraints prune the cell search early
        units.sort(key=lambda u: len(self._cells_of(u, set())))
        self.units = units
        try:
            return 'sat' if self._dfs(0) is True else 'unsat'
        except _Budget:
            return 'unknown'

    def _dfs(self, start: int):
        """Returns True on sat, else the set of cells the failure depends on.

        A unit's verdict is a function of the cells its evaluation read, so
        when no value of a branch cell appears in the subtree's conflict the
        remaining values are skipped and the conflict passes through
        unchanged (conflict-directed backjumping).
        """
        i = start
        while i < len(self.units):
            self.nodes += 1
            if self.nodes > self.budget:
                raise _Budget()
            self.reads = set()
            try:
                v = self.eval(self.units[i], {})
            except _Blocked as b:
                conflict = self.reads  # these reads selected the branch cell
                for val in range(1 << b.width):
                    self.cells[b.cell] = val
                    sub = self._dfs(i)
                    if sub is True:
                        return True
                    if b.cell not in sub:
                        del self.cells[b.cell]
                        return sub
                    conflict |= sub - {b.cell}
                del self.cells[b.cell]
                return conflict
            if not v:
                return self.reads
            i += 1
        return True


class _Budget(Exception):
    pass


def check_script(text: str, budget: int = DEFAULT_BUDGET) -> str:
    """Decide a script; returns 'sat', 'unsat' or 'unknown'."""
    return Solver(Script.parse(text), budget).check()


_USAGE = 'usage: fdl-refsolve [-h] [--budget BUDGET] file\n'

_HELP = _USAGE + """
reference solver for the emitted SMT-LIB fragment

positional arguments:
  file

options:
  -h, --help       show this help message and exit
  --budget BUDGET  search node budget before giving up with unknown
"""


def _usage_error(message):
    sys.stderr.write('%sfdl-refsolve: error: %s\n' % (_USAGE, message))
    sys.exit(2)


def _parse_args(argv) -> tuple:
    """(file, budget) from the command line, read as argparse read it:
    -h/--help prints the help and exits 0; a missing or extra argument or a
    bad budget prints the usage to stderr and exits 2."""
    path, budget, extra = None, DEFAULT_BUDGET, []
    args = list(argv)
    while args:
        a = args.pop(0)
        if a in ('-h', '--help'):
            sys.stdout.write(_HELP)
            sys.exit(0)
        elif a == '--budget' or a.startswith('--budget='):
            if a == '--budget':
                if not args:
                    _usage_error('argument --budget: expected one argument')
                value = args.pop(0)
            else:
                value = a[len('--budget='):]
            try:
                budget = int(value)
            except ValueError:
                _usage_error('argument --budget: invalid int value: %r'
                             % value)
        elif path is None and not a.startswith('-'):
            path = a
        else:
            extra.append(a)
    if path is None:
        _usage_error('the following arguments are required: file')
    if extra:
        _usage_error('unrecognized arguments: %s' % ' '.join(extra))
    return path, budget


def main(argv=None) -> int:
    path, budget = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        with open(path) as fh:
            text = fh.read()
        print(check_script(text, budget))
        return 0
    except (RefsolverError, OSError) as e:
        reason = str(e)
    except Exception as e:  # an internal failure, e.g. RecursionError in _dfs
        reason = '%s: %s' % (type(e).__name__, e)
    print('error: %s' % reason, file=sys.stderr)
    return 1


if __name__ == '__main__':
    sys.exit(main())
