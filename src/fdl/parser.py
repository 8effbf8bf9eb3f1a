r"""Concrete syntax for models and formulas.

    val N: nat = 6;
    type D = nat[2^N - 1];
    fun f(x: D): nat[1] ensures result = if x < 2 then 0 else 1;
    theorem goal <=> forall x: D, y: D. exists z: D. x < z \/ z <= y;

Operators, loosest first: <=>, => (right-associative), \/, /\, prefix !,
the comparisons = < <= > >= (they do not chain; > and >= are flipped < and
<=), +, *. Quantifier and choose bodies extend as far right as possible.
Terms: literals, variables, if/then/else, choose x: T with F, function
application. Comments run from # or // to end of line. A chain of /\, \/
or => is one node that holds its parts; a chain of <=> nests to the left.
Every + is an Add: x + 2 is Add(x, Lit(2)), whose Lit has the position of
the literal's token and whose Add has that of the +.

Tokens are read as strings: one re.split of the text gives every token's
text and, from the lengths of the pieces, its offset; comments are dropped
and '' marks the end. The parser reads self.toks[self.i] and compares
texts, asks kind() only where a name or a number is needed, and turns an
offset into a (line, column) only for a node's pos or a diagnostic.

Formulas and terms are parsed by precedence climbing over PREC, the table
the printer reads too, and type bounds the same way over _BOUND_PREC.
Nesting deeper than Python's recursion limit is a parse error, and so is a
name declared twice in one kind (val, type, fun or theorem) or a parameter
named twice in one fun; a val and a type may share a name.
"""

import re
from bisect import bisect_right
from itertools import accumulate, compress

from .core import (Add, And, Apply, Atom, Choose, Diagnostic,
                   Exists, FalseF, FdlError, FiniteType, Forall, Formula,
                   FuncDecl, Iff, Implies, Ite, Lit, Model, Mul, Not, Or,
                   Term, TrueF, TypeExpr, Var, _children, resolve_node,
                   typecheck_formula)

KEYWORDS = {'val', 'type', 'fun', 'theorem', 'nat', 'bool', 'forall', 'exists',
            'choose', 'with', 'if', 'then', 'else', 'true', 'false', 'ensures'}

SYMBOLS = ['<=>', '=>', '<=', '>=', '/\\', '\\/',
           ';', ':', ',', '.', '(', ')', '[', ']',
           '=', '<', '>', '+', '-', '*', '^', '!']


# Binding strength of each construct, loosest first. The parser climbs it and
# the printer reads it.
PREC = {Iff: 1, Implies: 2, Or: 3, And: 4, Not: 5, Atom: 6, Add: 7, Mul: 8}
_TERM = PREC[Add]  # the loosest strength at which only terms are parsed
_BOUND_PREC = {'+': 1, '-': 1, '*': 2, '^': 3}  # the operators of type bounds

_CONNECTIVES = {'<=>': Iff, '=>': Implies, '\\/': Or, '/\\': And}
_SYMBOL = {cls: sym for sym, cls in _CONNECTIVES.items()}
_INFIX = {**_CONNECTIVES, **dict.fromkeys(('=', '<', '<=', '>', '>='), Atom),
          '+': Add, '*': Mul}
# the Model table of each kind of declaration
_TABLES = {'val': 'params', 'type': 'types', 'fun': 'funcs',
           'theorem': 'theorems'}


def _infix_term(op, lhs, rhs, pos):
    """The node of a comparison or an arithmetic operator: > and >= flip."""
    if op in ('+', '*'):
        return _INFIX[op](lhs, rhs, pos=pos)
    if op in ('>', '>='):
        return Atom(op.replace('>', '<'), rhs, lhs, pos=pos)
    return Atom(op, lhs, rhs, pos=pos)


class ParseError(FdlError):
    def __init__(self, diagnostics):
        self.diagnostics = diagnostics
        super().__init__('; '.join(str(d) for d in diagnostics))


# Each token is a comment, a number, a word, a symbol (longer spellings
# first) or any other character but space, tab, CR and newline, which alone
# fill the gaps. \w is a character for which str.isalnum() holds, or _.
_SPLIT = re.compile(r"((?:#|//)[^\n]*|\d+|[^\W\d][\w']*|%s|[^ \t\r\n])"
                    % '|'.join(map(re.escape, SYMBOLS)))
_RESERVED = KEYWORDS.union(SYMBOLS, [''])  # every token but names, numbers


def tokenize(text: str) -> tuple:
    """The token texts of text but its comments, '' (the end) last; the
    offset of each, the end after the last character outside comments; and
    the offset of each line. A character that starts no token is an error,
    as is a word that does not start with a letter or _."""
    pieces = _SPLIT.split(text)  # a gap, a token, a gap, ..., a gap
    toks = pieces[1::2] + ['']
    offs = list(accumulate(map(len, pieces)))[::2]  # where each gap ends
    starts = [0, *(m.end() for m in re.finditer('\n', text))]
    if '#' in text or '//' in text:
        keep = [not tok.startswith(('#', '//')) for tok in toks]
        if not pieces[-1] and not keep[-2]:  # a comment ends the text
            offs[-1] = offs[-2]
        toks, offs = list(compress(toks, keep)), list(compress(offs, keep))
    bad = [tok for tok in set(toks).difference(_RESERVED)
           if not (tok[0].isalpha() or tok[0] == '_' or tok[0].isdecimal())]
    if bad:
        i = min(map(toks.index, bad))
        raise ParseError([Diagnostic('unexpected character %r' % toks[i][0],
                                     position(starts, offs[i]))])
    return toks, offs, starts


def kind(tok: str) -> str:
    """'ident', 'number', 'keyword', 'eof' or the symbol: a token's kind."""
    if tok in _RESERVED:
        return 'keyword' if tok in KEYWORDS else tok or 'eof'
    return 'number' if tok[0].isdecimal() else 'ident'


def position(starts: list, off: int) -> tuple:
    """The (line, column), from 1, of offset off, given the line starts."""
    line = bisect_right(starts, off)
    return line, off - starts[line - 1] + 1


class Parser:
    """Reads self.toks[self.i], the token texts of tokenize(), by index and
    computes a position only for a node or a diagnostic."""

    def __init__(self, text: str):
        self.toks, self.offs, self.starts = tokenize(text)
        self.i = 0

    def pos(self, i=None) -> tuple:
        """The position of the token at index i, by default the current one."""
        return position(self.starts, self.offs[self.i if i is None else i])

    def error(self, msg, pos=None) -> ParseError:
        """The error msg at pos, by default the current token's."""
        return ParseError([Diagnostic(msg, pos or self.pos())])

    def fail(self, want) -> ParseError:
        """The error of the current token standing where want was expected."""
        return self.error('%s, got %r' % (want, self.toks[self.i] or 'eof'))

    def skip(self, tok):
        """Go past the current token, which must be tok ('' the end)."""
        if self.toks[self.i] != tok:
            raise self.fail('expected %r' % (tok or 'eof'))
        self.i += 1

    def read(self, want='ident') -> str:
        """The current token, which must be of kind want; goes past it."""
        tok = self.toks[self.i]
        if kind(tok) != want:
            raise self.fail('expected %r' % want)
        self.i += 1
        return tok

    # -- types -------------------------------------------------------------

    def type_expr(self) -> TypeExpr:
        tok = self.toks[self.i]
        if tok not in ('bool', 'nat'):
            return TypeExpr('name', name=self.read())
        self.i += 1
        if tok == 'bool':
            return TypeExpr('bool')
        self.skip('[')
        e = self.bound_expr()
        self.skip(']')
        return TypeExpr('nat', bound_expr=e)

    def bound_expr(self, min_prec=1):
        """Precedence climbing over _BOUND_PREC; a chain of ^ folds to the
        right."""
        e = self.bound_atom()
        while _BOUND_PREC.get(self.toks[self.i], 0) >= min_prec:
            op = self.toks[self.i]
            self.i += 1
            prec = _BOUND_PREC[op]
            e = (op, e, self.bound_expr(prec if op == '^' else prec + 1))
        return e

    def bound_atom(self):
        tok = self.toks[self.i]
        k = kind(tok)
        if k not in ('number', 'ident', '('):
            raise self.fail('expected type bound')
        self.i += 1
        if k != '(':
            return ('num', int(tok)) if k == 'number' else ('var', tok)
        e = self.bound_expr()
        self.skip(')')
        return e

    # -- formulas and terms ------------------------------------------------

    def formula(self) -> Formula:
        return self.as_formula(self.expr(PREC[Iff]))

    def term(self) -> Term:
        return self.expr(_TERM)

    def expr(self, min_prec):
        """Precedence climbing: a primary, then every infix operator that
        binds at least as tightly as min_prec. From _TERM up, only terms
        are parsed."""
        lhs = self.primary(min_prec)
        while True:
            op = self.toks[self.i]
            cls = _INFIX.get(op)
            prec = PREC.get(cls, 0)
            if prec < min_prec:
                return lhs
            if prec >= PREC[Atom]:
                if isinstance(lhs, Formula):  # so comparisons do not chain
                    return lhs
                pos = self.pos()
                self.i += 1
                lhs = _infix_term(op, lhs, self.expr(prec + 1), pos)
            else:  # a connective: a chain is one node at its root
                # operator, the last of /\ or \/ and the first of =>;
                # <=> takes two parts and folds to the left
                chain, ops = [self.as_formula(lhs)], []
                while not ops or cls is not Iff and self.toks[self.i] == op:
                    ops.append(self.i)
                    self.i += 1
                    chain.append(self.as_formula(self.expr(prec + 1)))
                at = self.pos(ops[-1] if cls in (And, Or) else ops[0])
                lhs = Iff(*chain, pos=at) if cls is Iff else cls(chain, pos=at)

    def as_formula(self, e) -> Formula:
        """e where a formula is required: a bool literal becomes TrueF or
        FalseF, any other term still lacks its comparison."""
        if isinstance(e, Formula):
            return e
        if isinstance(e, Lit) and isinstance(e.value, bool):
            return TrueF(pos=e.pos) if e.value else FalseF(pos=e.pos)
        raise self.fail('expected comparison operator')

    def primary(self, min_prec):
        start, tok = self.i, self.toks[self.i]
        k, pos = kind(tok), self.pos()
        self.i += 1
        if k == 'number':
            return Lit(int(tok), pos=pos)
        if k == 'ident':
            if self.toks[self.i] != '(':
                return Var(tok, pos=pos)
            self.i += 1
            args = [self.term()]
            while self.toks[self.i] == ',':
                self.i += 1
                args.append(self.term())
            self.skip(')')
            return Apply(tok, args, pos=pos)
        if tok == '(':
            e = self.expr(_TERM if min_prec >= _TERM else PREC[Iff])
            self.skip(')')
            return e
        if tok in ('true', 'false'):
            return Lit(tok == 'true', pos=pos)
        if tok == 'if':
            cond = self.formula()
            self.skip('then')
            then = self.term()
            self.skip('else')
            return Ite(cond, then, self.term(), pos=pos)
        if tok == 'choose':
            name = self.read()
            self.skip(':')
            ty = self.type_expr()
            self.skip('with')
            return Choose(name, ty, self.formula(), pos=pos)
        if min_prec < _TERM and tok == '!':  # a run of ! is a loop
            bangs = [pos]
            while self.toks[self.i] == '!':
                bangs.append(self.pos())
                self.i += 1
            f = self.as_formula(self.expr(PREC[Not]))
            for pos in reversed(bangs):
                f = Not(f, pos=pos)
            return f
        if min_prec < _TERM and tok in ('forall', 'exists'):
            binders = self.binders()
            self.skip('.')
            f = self.formula()
            cls = Forall if tok == 'forall' else Exists
            for name, ty, pos in reversed(binders):
                f = cls(name, ty, f, pos=pos)
            return f
        self.i = start  # the token reported, where recovery starts
        raise self.fail('expected term')

    def binders(self) -> list:
        """(name, type, the name's position) of each binder of a list
        name: type, name: type, ..."""
        found = []
        while True:
            pos = self.pos()
            name = self.read()
            self.skip(':')
            found.append((name, self.type_expr(), pos))
            if self.toks[self.i] != ',':
                return found
            self.i += 1

    # -- declarations --------------------------------------------------------

    def model(self):
        m, diags = Model(), []
        while self.toks[self.i]:
            try:
                self.guarded(lambda: self.declaration(m))
            except ParseError as e:  # recovery goes past the next ';'
                diags += e.diagnostics
                try:
                    self.i = self.toks.index(';', self.i) + 1
                except ValueError:  # no ';' is left
                    self.i = len(self.toks) - 1
        return m, diags

    def guarded(self, parse):
        """parse(), with nesting deeper than Python's recursion limit
        reported at the token reached."""
        try:
            return parse()
        except RecursionError:
            raise self.error('nested too deeply') from None

    def declaration(self, m: Model):
        """One declaration, entered in m once its ';' is read. A name
        declared before in the same kind is an error."""
        start, tok = self.i, self.toks[self.i]
        if tok not in _TABLES:
            raise self.fail('expected declaration')
        table = getattr(m, _TABLES[tok])
        self.i += 1
        if self.toks[self.i] in table:
            raise self.error('duplicate declaration of %r' % self.toks[self.i])
        name = self.read()
        if tok == 'val':
            self.skip(':')
            self.skip('nat')
            entry = None
            if self.toks[self.i] == '=':
                self.i += 1
                entry = int(self.read('number'))
        elif tok == 'type':
            self.skip('=')
            entry = self.type_expr()
        elif tok == 'fun':
            self.skip('(')
            binders = [] if self.toks[self.i] == ')' else self.binders()
            self.skip(')')
            params = {}
            for pname, ty, pos in binders:
                if pname in params:
                    raise self.error('duplicate parameter %r' % pname, pos)
                params[pname] = ty
            self.skip(':')
            result = self.type_expr()
            how = self.toks[self.i]
            if how not in ('=', 'ensures'):
                raise self.error("expected '=' or 'ensures'")
            self.i += 1
            body, ensures = ((self.term(), None) if how == '=' else
                             (None, self.formula()))
            entry = FuncDecl(name, list(params.items()), result, body=body,
                             ensures=ensures, pos=self.pos(start))
        else:
            self.skip('<=>')
            entry = self.formula()
        self.skip(';')
        table[name] = entry


def parse_model(text: str) -> Model:
    """Parse a sequence of declarations; raises ParseError carrying every
    diagnostic collected (recovery skips to the next ';')."""
    m, diags = Parser(text).model()
    if diags:
        raise ParseError(diags)
    return m


def parse_formula(text: str, ctx: dict, funcs=None, types=None,
                  params=None) -> Formula:
    """Parse and typecheck a single formula.

    ctx maps free variable names to FiniteTypes; named types and parameters
    used inside binders may be supplied via types/params.
    """
    p = Parser(text)
    f = p.guarded(p.formula)
    p.skip('')
    f = resolve_node(f, (types or {}, params or {}))
    diags = typecheck_formula(f, ctx, funcs)
    if diags:
        raise ParseError(diags)
    return f


# ---------------------------------------------------------------------------
# printing


def print_type(ty) -> str:
    if isinstance(ty, FiniteType):
        return str(ty)
    if ty.kind == 'bool':
        return 'bool'
    if ty.kind == 'name':
        return ty.name
    return 'nat[%s]' % print_bound(ty.bound_expr)


def print_bound(e, prec=0) -> str:
    op = e[0]
    if op == 'num':
        return str(e[1])
    if op == 'var':
        return e[1]
    mine = _BOUND_PREC[op]
    lhs = print_bound(e[1], mine if op != '^' else mine + 1)
    rhs = print_bound(e[2], mine + 1 if op != '^' else mine)
    s = '%s %s %s' % (lhs, op, rhs)
    return '(%s)' % s if mine < prec else s


def print_term(t: Term, prec=0) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Lit):
        if isinstance(t.value, bool):
            return 'true' if t.value else 'false'
        return str(t.value)
    if isinstance(t, (Add, Mul)):
        mine = PREC[type(t)]
        s = '%s %s %s' % (print_term(t.lhs, mine),
                          '*' if isinstance(t, Mul) else '+',
                          print_term(t.rhs, mine + 1))
        return '(%s)' % s if mine < prec else s
    if isinstance(t, Ite):
        s = 'if %s then %s else %s' % (print_formula(t.cond),
                                       print_term(t.then),
                                       print_term(t.els))
        return '(%s)' % s if prec > 0 else s
    if isinstance(t, Choose):
        s = 'choose %s: %s with %s' % (t.var, print_type(t.ty),
                                       print_formula(t.body))
        return '(%s)' % s if prec > 0 else s
    if isinstance(t, Apply):
        return '%s(%s)' % (t.func, ', '.join(print_term(a) for a in t.args))
    raise AssertionError('unhandled term %r' % t)


def print_formula(f: Formula, prec=0) -> str:
    if isinstance(f, TrueF):
        return 'true'
    if isinstance(f, FalseF):
        return 'false'
    if isinstance(f, Atom):
        operand = PREC[Atom] + 1
        return '%s %s %s' % (print_term(f.lhs, operand), f.rel,
                             print_term(f.rhs, operand))
    if isinstance(f, Not):
        return '!%s' % print_formula(f.body, PREC[Not])
    if isinstance(f, (And, Or, Implies, Iff)):
        mine = PREC[type(f)]
        left = isinstance(f, Iff)  # the one that folds to the left
        # only the left part of <=> may be of f's class unparenthesized
        s = (' %s ' % _SYMBOL[type(f)]).join([
            print_formula(p, mine if left and i == 0 else mine + 1)
            for i, p in enumerate(_children(f))])
        return '(%s)' % s if mine < prec else s
    if isinstance(f, (Forall, Exists)):
        word = 'forall' if isinstance(f, Forall) else 'exists'
        binders = []
        body = f
        while isinstance(body, type(f)):
            binders.append('%s: %s' % (body.var, print_type(body.ty)))
            body = body.body
        s = '%s %s. %s' % (word, ', '.join(binders), print_formula(body))
        return '(%s)' % s if prec > 0 else s
    raise AssertionError('unhandled formula %r' % f)
